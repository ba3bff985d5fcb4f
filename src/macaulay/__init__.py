"""Ranked posets, shadow-minimizing orders, and Macaulay verification."""

__version__ = "0.1.0"

from .errors import (
    MacaulayLibError,
    OrderError,
    PosetError,
    ResourceLimitError,
    RingError,
    SearchBudgetExceeded,
)
from .poset import (
    RankedPoset,
    cartesian_power,
    cartesian_product,
    chain,
    cube_coordinates,
    dual,
    export_dot,
    export_json,
    multiset_lattice,
    parse_json,
    truncate,
    upset_mask,
)
from .orders import (
    OrderTable,
    degree_major_order,
    dual_order,
    explicit_order,
    lex_order,
)
from .verify import (
    MacaulayFailure,
    MacaulayVerdict,
    is_macaulay,
    min_shadow,
    min_shadow_profile,
    search_macaulay_order,
)
from .rings import (
    FieldSpec,
    MonomialClass,
    Polynomial,
    QuotientRingSpec,
    RATIONALS,
    RingModel,
    build_ring,
    is_level_linearly_independent,
    is_monomial_order,
    monomial,
    poset_of_monomials,
    recognize_tree_ring,
    rep_lex_order,
    tensor_power,
    tensor_ring,
)
from .hilbert import (
    GradedSubspace,
    IdealSpec,
    InitialMonomialData,
    RingContext,
    RingMacaulayVerdict,
    hilbert_function,
    ideal_in_ring,
    initial_monomial_data,
    initial_segment_space,
    is_macaulay_ring,
    leveled_basis,
)
from . import families
from .families import order_from_recipe
