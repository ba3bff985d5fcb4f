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


# The core library, below the builtin registry (`families`) and the CLI.
CORE = ["errors", "linalg", "poset", "orders", "rings", "verify", "hilbert"]


def test_core_modules_import_neither_the_registry_nor_the_cli():
    root = Path(M.__file__).parent
    for name in CORE:
        parts = set()
        for node in ast.walk(ast.parse((root / f"{name}.py").read_text())):
            if isinstance(node, ast.Import):
                parts.update(p for a in node.names for p in a.name.split("."))
            elif isinstance(node, ast.ImportFrom):
                parts.update((node.module or "").split("."))
                parts.update(a.name for a in node.names)
        assert not parts & {"families", "cli"}, name


def test_verify_checks_the_subset_cap_only_where_subsets_are_enumerated():
    # before the kernel (`min_shadow_profile`) and before each witness walk
    # (`is_macaulay`, `min_shadow`): stored minima and the chain split need none
    tree = ast.parse((Path(M.__file__).parent / "verify.py").read_text())
    sites = sorted(fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
                   for node in ast.walk(fn) if isinstance(node, ast.Call)
                   and getattr(node.func, "id", None) == "_check_subset_cap")
    assert sites == ["is_macaulay", "min_shadow", "min_shadow_profile"]
