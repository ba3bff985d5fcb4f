import ast
from pathlib import Path

import macaulay as M

# Every name that macaulay/__init__.py imports, sorted: a name is added to or
# dropped from the public surface only together with this list.
PUBLIC = [
    "FieldSpec", "GradedSubspace", "IdealSpec", "InitialMonomialData", "MacaulayFailure",
    "MacaulayLibError", "MacaulayVerdict", "MonomialClass", "OrderError", "OrderTable",
    "Polynomial", "PosetError", "QuotientRingSpec", "RATIONALS", "RankedPoset",
    "ResourceLimitError", "RingContext", "RingError", "RingMacaulayVerdict", "RingModel",
    "SearchBudgetExceeded", "build_ring", "cartesian_power", "cartesian_product", "chain",
    "cube_coordinates", "degree_major_order", "dual", "dual_order", "explicit_order",
    "export_dot", "export_json", "families", "hilbert_function", "ideal_in_ring",
    "initial_monomial_data", "initial_segment_space", "is_level_linearly_independent",
    "is_macaulay", "is_macaulay_ring", "is_monomial_order", "leveled_basis", "lex_order",
    "min_shadow", "min_shadow_profile", "monomial", "multiset_lattice", "order_from_recipe",
    "parse_json", "poset_of_monomials", "recognize_tree_ring", "rep_lex_order",
    "search_macaulay_order", "tensor_power", "tensor_ring", "truncate", "upset_mask",
]


def test_the_package_exports_exactly_the_public_names():
    tree = ast.parse(Path(M.__file__).read_text())
    names = [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
             for a in node.names]
    assert sorted(names) == PUBLIC and len(set(names)) == len(names)
    assert all(hasattr(M, name) for name in names)
