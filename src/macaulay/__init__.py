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
    LatticeShape,
    RankedPoset,
    cartesian_power,
    cartesian_product,
    chain,
    cube_coordinates,
    dual,
    export_dot,
    export_json,
    lower_shadow,
    multiset_lattice,
    parse_json,
    singleton,
    truncate,
    upper_shadow,
)
from .orders import (
    BlockSpec,
    OrderTable,
    block_order,
    border_chaser,
    colex_order,
    degree_major_order,
    domination_order,
    dual_order,
    explicit_order,
    hyperrectangle_chaser,
    initial_segment,
    lex_order,
    order_from_recipe,
)
from .verify import (
    MacaulayFailure,
    MacaulayVerdict,
    is_macaulay,
    min_shadow,
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
    LeveledMonomialBasis,
    RingContext,
    RingMacaulayVerdict,
    hilbert_function,
    ideal_in_ring,
    initial_monomial_data,
    initial_segment_space,
    is_macaulay_ring,
    leveled_basis,
    segment_is_ideal,
    upset_closure,
)
from . import families
