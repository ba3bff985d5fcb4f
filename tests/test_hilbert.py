import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import macaulay as M
from macaulay import families as F
from macaulay.errors import RingError
from macaulay.hilbert import (
    RingContext,
    _antichains,
    _mask_profile,
    dual_segment,
    hilbert_function,
    ideal_in_ring,
    initial_monomial_data,
    initial_segment_space,
    is_macaulay_ring,
    leveled_basis,
    segment_is_ideal,
    upset_closure,
)
from macaulay.orders import degree_major_order, explicit_order
from macaulay.rings import degree_rep_lex_order, monomials_of_degree

from conftest import (
    antichain_loop_oracle,
    check_monomial_ideal_profile,
    closure_audit,
    generator_multiple_slices,
    is_isomorphic_by_labels,
    quadratic_leveled_basis,
    transform_initial_monomials,
)


def free_ring_ctx(d=2, D=2):
    return RingContext(M.build_ring(M.QuotientRingSpec(d, M.RATIONALS, [], D)))


def non_lli_ctx(D=2, field=M.RATIONALS):
    spec = M.QuotientRingSpec(
        3, field, [M.Polynomial({(2, 0, 0): 1, (1, 1, 0): 1, (1, 0, 1): -1})], D
    )
    return RingContext(M.build_ring(spec))


def mixed_order(ctx):
    """Degree-major, lex at degree 1, colex elsewhere: deliberately not monomial."""
    return degree_major_order(ctx.poset, per_rank={1: {"kind": "lex"}}, default={"kind": "colex"})


def test_hilbert_of_zero_and_unit_ideals():
    ctx = free_ring_ctx()
    zero = ideal_in_ring(ctx, [])
    assert list(hilbert_function(ctx, zero).values()) == [0, 0, 0]
    whole = ideal_in_ring(ctx, [M.Polynomial({(0, 0): 1})])
    assert tuple(whole.dims) == ctx.ring.hilbert()


def test_segment_space_dims_match_requests_under_lli():
    rng = random.Random(2)
    ctx = RingContext(M.build_ring(F.cl_ring([3, 3], M.RATIONALS)))
    lex = M.lex_order(ctx.poset)
    for _ in range(25):
        req = {i: rng.randint(0, len(ctx.classes_at(i))) for i in range(ctx.ring.D + 1)}
        space, _ = initial_segment_space(ctx, req, lex)
        assert list(space.dims) == [req[i] for i in range(ctx.ring.D + 1)]


def test_non_lli_ideal_hilbert():
    ctx = non_lli_ctx()
    ideal = ideal_in_ring(
        ctx, [M.monomial((0, 0, 2)), M.monomial((0, 1, 1)), M.monomial((0, 2, 0))]
    )
    assert hilbert_function(ctx, ideal)[2] == 3


def test_mixed_order_not_monomial_and_initial_ideal_gap():
    ctx = free_ring_ctx()
    o = mixed_order(ctx)
    ok, cex = M.is_monomial_order(ctx.ring, o)
    assert not ok and cex is not None
    ideal = ideal_in_ring(ctx, [M.Polynomial({(1, 0): 1, (0, 1): 1})])
    data = initial_monomial_data(ctx, ideal, o)
    assert ideal.dims[2] == 2
    assert data.imv_dims[2] == 2
    assert data.imi_dims[2] == 3


def test_monomial_ideal_ims_is_itself():
    ctx = RingContext(M.build_ring(F.cl_ring([3, 4], M.RATIONALS)))
    lex = M.lex_order(ctx.poset)
    ideal = ideal_in_ring(ctx, [M.monomial((1, 1))])
    data = initial_monomial_data(ctx, ideal, lex)
    for i in range(ctx.ring.D + 1):
        members = {ctx.poset.labels[x] for x in data.ims[i]}
        expected = {
            lab
            for lab in (ctx.poset.labels[x] for x in ctx.classes_at(i))
            if lab[0] >= 1 and lab[1] >= 1
        }
        assert members == expected
        assert data.imv_dims[i] == data.imi_dims[i] == ideal.dims[i]


def test_hilb_equals_imv_for_any_order():
    # the equality side needs no monomial-order hypothesis
    rng = random.Random(5)
    ctx = RingContext(M.build_ring(F.cl_ring([3, 3], M.RATIONALS)))
    orders = [M.lex_order(ctx.poset), M.colex_order(ctx.poset), mixed_order(ctx)]
    for trial in range(10):
        deg = rng.randint(1, 2)
        classes = list(ctx.classes_at(deg))
        k = min(2, len(classes))
        terms = {ctx.poset.labels[x]: rng.randint(1, 4) for x in rng.sample(classes, k)}
        ideal = ideal_in_ring(ctx, [M.Polynomial(terms)])
        for o in orders:
            data = initial_monomial_data(ctx, ideal, o)
            assert list(data.imv_dims) == ideal.dims
            assert all(v <= i for v, i in zip(data.imv_dims, data.imi_dims))
            # dimension equality holds exactly when the pivot classes are
            # closed under multiplication by the variables
            closed = all(
                y in set(data.ims[i + 1])
                for i in range(ctx.ring.D)
                for x in data.ims[i]
                for y in ctx.poset.up[x]
            )
            assert closed == (list(data.imv_dims) == list(data.imi_dims))


def test_imv_equals_imi_iff_closed_under_variables():
    ctx = free_ring_ctx()
    o = mixed_order(ctx)
    ideal = ideal_in_ring(ctx, [M.Polynomial({(1, 0): 1, (0, 1): 1})])
    data = initial_monomial_data(ctx, ideal, o)
    closed = True
    for i in range(ctx.ring.D):
        ims_next = set(data.ims[i + 1])
        for x in data.ims[i]:
            for y in ctx.poset.up[x]:
                if y not in ims_next:
                    closed = False
    assert closed == (list(data.imv_dims) == list(data.imi_dims)) == False


def test_segment_space_dims_lli():
    ctx = RingContext(M.build_ring(F.cl_ring([3, 4], M.RATIONALS)))
    lex = M.lex_order(ctx.poset)
    space, segs = initial_segment_space(ctx, {1: 1, 2: 2}, lex)
    assert space.dims == (0, 1, 2, 0, 0, 0)
    # zero and full requests
    space, _ = initial_segment_space(ctx, {}, lex)
    assert space.dims == (0,) * 6
    full = {i: len(ctx.classes_at(i)) for i in range(ctx.ring.D + 1)}
    space, _ = initial_segment_space(ctx, full, lex)
    assert space.dims == ctx.ring.hilbert()


def test_segment_space_dimension_drop_without_lli():
    ctx = non_lli_ctx()
    lex = M.lex_order(ctx.poset)
    space, segs = initial_segment_space(ctx, {2: 3}, lex)
    assert {ctx.poset.labels[x] for x in segs[2]} == {(2, 0, 0), (1, 1, 0), (1, 0, 1)}
    assert space.dims[2] == 2


def test_segment_space_request_too_large():
    ctx = free_ring_ctx()
    with pytest.raises(RingError):
        initial_segment_space(ctx, {2: 9}, M.lex_order(ctx.poset))


def test_segment_is_ideal_full_prefixes():
    ctx = RingContext(M.build_ring(F.cl_ring([3, 4], M.RATIONALS)))
    segs = [tuple(ctx.classes_at(i)) for i in range(ctx.ring.D + 1)]
    assert segment_is_ideal(ctx, segs) == (True, None)


def test_segment_is_ideal_cl_profiles_exhaustive():
    # every monomial-ideal profile of the sorted-caps ring yields an ideal segment
    ctx = RingContext(M.build_ring(F.cl_ring([3, 4], M.RATIONALS)))
    lex = M.lex_order(ctx.poset)
    for anti, mask in _antichains(ctx.poset, range(ctx.poset.n)):
        ups = upset_closure(ctx.poset, anti)
        assert mask == sum(1 << x for x in ups), anti
        profile, bad = check_monomial_ideal_profile(ctx, lex, ups)
        assert bad is None, (anti, profile, bad)


def test_segment_not_ideal_on_unsorted_caps():
    ctx = RingContext(M.build_ring(F.cl_ring([4, 3], M.RATIONALS)))
    lex = M.lex_order(ctx.poset)
    # the lex-largest degree-2 class is x1^2; its upper shadow escapes the prefix
    segs = [(), (), tuple(dual_segment(lex, 2, 1)), tuple(dual_segment(lex, 3, 1))]
    assert {ctx.poset.labels[x] for x in segs[2]} == {(2, 0)}
    ok, deg = segment_is_ideal(ctx, segs)
    assert not ok and deg == 2
    # a single degree-3 class: the segment is the x1-power side, whose upper
    # shadow escapes the (empty) next prefix
    segs = [(), (), (), tuple(dual_segment(lex, 3, 1))]
    assert {ctx.poset.labels[x] for x in segs[3]} == {(3, 0)}
    ok, deg = segment_is_ideal(ctx, segs)
    assert not ok and deg == 3


def test_leveled_basis_greedy_without_lli():
    ctx = non_lli_ctx()
    lex = M.lex_order(ctx.poset)
    basis = leveled_basis(ctx, lex)
    assert [len(lvl) for lvl in basis.levels] == list(ctx.ring.hilbert())
    # the dropped class is the lex-largest dependent one
    kept = {ctx.poset.labels[x] for x in basis.levels[2]}
    assert (2, 0, 0) not in kept and len(kept) == 5


def test_is_macaulay_ring_cl34_both_modes():
    ctx = RingContext(M.build_ring(F.cl_ring([3, 4], M.RATIONALS)))
    v = is_macaulay_ring(ctx.ring, M.lex_order(ctx.poset), mode="both")
    assert v.holds and v.agreement and v.hypothesis_ok


def test_negative_max_gen_degree_is_refused():
    # it once enumerated only the zero ideal and reported that the property holds
    ctx = RingContext(M.build_ring(F.cl_ring([4, 3], M.RATIONALS)))
    with pytest.raises(RingError, match="max_gen_degree must be nonnegative, got -1"):
        is_macaulay_ring(ctx.ring, M.lex_order(ctx.poset), mode="monomial-ideals", max_gen_degree=-1)


def test_context_over_another_ring_is_refused():
    # the context is built from the ring being checked, so it cannot belong to
    # another ring; the same spec over another field has an equal class poset
    ctx = RingContext(M.build_ring(F.cl_ring([3, 4], M.RATIONALS)))
    other = M.build_ring(F.cl_ring([3, 4], M.FieldSpec.from_json("p:32003")))
    lex = M.lex_order(ctx.poset)
    assert is_macaulay_ring(other, lex, mode="both").holds
    assert is_macaulay_ring(ctx.ring, lex, mode="both").holds


def test_unknown_mode_is_refused_first():
    ctx = RingContext(M.build_ring(F.cl_ring([3, 4], M.RATIONALS)))
    with pytest.raises(RingError, match="unknown mode 'ideals'"):
        is_macaulay_ring(ctx.ring, M.lex_order(ctx.poset), mode="ideals")


def test_is_macaulay_ring_cl43_fails_with_matching_witness():
    ctx = RingContext(M.build_ring(F.cl_ring([4, 3], M.RATIONALS)))
    lex = M.lex_order(ctx.poset)
    v = is_macaulay_ring(ctx.ring, lex, mode="both")
    assert v.holds is False and v.agreement is True
    assert v.poset_verdict is not None and not v.poset_verdict.holds
    assert v.ideal_witnesses
    # the poset witness generates a monomial ideal that the ideal mode flags too
    pf = v.poset_verdict.failures[0]
    ups = upset_closure(ctx.poset, pf.witness)
    profile, bad = check_monomial_ideal_profile(ctx, lex, ups)
    assert bad is not None
    flagged_profiles = {w.profile for w in v.ideal_witnesses}
    assert profile in flagged_profiles


def test_is_macaulay_ring_hypothesis_failures():
    ctx = non_lli_ctx()
    lex = M.lex_order(ctx.poset)
    v = is_macaulay_ring(ctx.ring, lex, mode="both")
    assert v.holds is None and not v.hypothesis_ok
    assert "degree 2" in v.hypothesis_reason
    # explicit override runs the monomial-ideal scan anyway, scoped
    v2 = is_macaulay_ring(ctx.ring, lex, mode="monomial-ideals", allow_non_lli=True)
    assert v2.scope == "monomial-ideals-only"
    assert v2.holds is not None


def test_is_macaulay_ring_poset_mode_needs_monomial_order():
    ctx = free_ring_ctx(d=2, D=2)
    o = mixed_order(ctx)
    v = is_macaulay_ring(ctx.ring, o, mode="poset", monomial_order_candidate=o)
    assert v.holds is None and not v.hypothesis_ok
    assert v.monomial_order_verified is False


def test_random_ideals_reduce_to_monomial():
    rng = random.Random(20260809)
    ring_specs = [
        ("kk3", F.kk_ring(3, M.RATIONALS)),
        ("cl34", F.cl_ring([3, 4], M.RATIONALS)),
        ("t3", F.torus_ring([3], M.RATIONALS)),
    ]
    for name, spec in ring_specs:
        ctx = RingContext(M.build_ring(spec))
        cand = degree_rep_lex_order(ctx.poset)
        ok, _ = M.is_monomial_order(ctx.ring, cand)
        assert ok, name
        for trial in range(20):
            gens = []
            for _ in range(rng.randint(1, 2)):
                deg = rng.randint(1, min(2, ctx.ring.D))
                classes = list(ctx.classes_at(deg))
                k = min(rng.randint(2, 3), len(classes))
                terms = {
                    ctx.poset.labels[x]: rng.randint(1, 5) for x in rng.sample(classes, k)
                }
                gens.append(M.Polynomial(terms))
            ideal = ideal_in_ring(ctx, gens)
            data = initial_monomial_data(ctx, ideal, cand)
            assert list(data.imv_dims) == ideal.dims
            assert list(data.imi_dims) == ideal.dims


def test_ring_multiplication_by_class_id():
    ring = M.build_ring(F.torus_basic_ring(3, M.RATIONALS))
    poset = RingContext(ring).poset
    one = poset.id_of((0, 0))
    x1 = poset.id_of((1, 0))
    top = poset.id_of((0, 3))
    assert ring.mul(one, (1, 0)) == x1
    assert ring.mul(x1, (2, 0)) == top  # x1^3 is glued into the top
    assert ring.mul(x1, (0, 1)) is None  # x1*x2 = 0
    with pytest.raises(RingError, match="exceeds truncation"):
        ring.mul(top, (1, 0))


def test_modes_agree_on_ring_builtins():
    cases = ["kk:3", "cl:3,4", "colored-ring:2,2", "torus:3,1", "diamond:1", "be-ring:3,2,2"]
    for name in cases:
        b = F.builtin(name, M.RATIONALS)
        ctx = RingContext(M.build_ring(b.ring_spec))
        v = is_macaulay_ring(
            ctx.ring,
            b.default_order(),
            mode="both",
            monomial_order_candidate=b.monomial_order_candidate(),
        )
        assert v.hypothesis_ok and v.agreement is True and v.holds is True, name


def test_modes_agree_on_a_failing_glued_ring():
    # crossed per-level orders break continuity on the cycle; both the poset
    # mode and the monomial-ideal mode must notice, with full generator cover
    ctx = RingContext(M.build_ring(F.torus_basic_ring(3, M.RATIONALS)))
    p = ctx.poset
    seq = [(0, 0), (1, 0), (0, 1), (0, 2), (2, 0), (0, 3)]
    crossed = M.explicit_order(p, [p.id_of(lab) for lab in seq])
    v = is_macaulay_ring(
        ctx.ring, crossed, mode="both", max_gen_degree=ctx.ring.D - 1
    )
    assert v.hypothesis_ok
    assert v.holds is False and v.agreement is True


def test_tensor_correspondence_isomorphism():
    for a, b in [
        (F.torus_basic_ring(3, M.RATIONALS), F.torus_basic_ring(3, M.RATIONALS)),
        (F.diamond_basic_ring(M.RATIONALS), F.kk_ring(2, M.RATIONALS)),
    ]:
        combined = M.build_ring(M.tensor_ring([a, b]))
        pa = M.poset_of_monomials(M.build_ring(a))
        pb = M.poset_of_monomials(M.build_ring(b))
        prod = M.cartesian_product([pa, pb])
        assert is_isomorphic_by_labels(M.poset_of_monomials(combined), prod, lambda l: l)


_LOOP_POOL = (
    "cl:4,4,4", "torus:3,2", "diamond:2", "colored-ring:2,2,2", "be-ring:3,2,2", "leck:2+2,1",
    "non-lli",
)


@lru_cache(maxsize=None)
def _loop_ring(name):
    """(context, base order): the family default order, rep-lex for the Leck
    ring (it has no default, and fails on 16 ideals at generator degree 2), and
    lex for the ring without level linear independence."""
    if name == "non-lli":
        ctx = non_lli_ctx(D=3)
        return ctx, M.lex_order(ctx.poset)
    b = F.builtin(name)
    ctx = RingContext(b.ring)
    if name.startswith("leck"):
        return ctx, M.rep_lex_order(b.poset)
    return ctx, b.default_order()


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(_LOOP_POOL),
    st.integers(1, 3),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_antichain_loop_matches_list_building_oracle(name, g, shuffle, rnd):
    ctx, table = _loop_ring(name)
    if shuffle:
        p = ctx.poset
        table = explicit_order(p, [x for lvl in p.levels for x in rnd.sample(lvl, len(lvl))])
    try:
        want = antichain_loop_oracle(ctx, table, g)
    except M.ResourceLimitError:
        with pytest.raises(M.ResourceLimitError):
            is_macaulay_ring(ctx.ring, table, "monomial-ideals", g, allow_non_lli=True)
        return
    v = is_macaulay_ring(ctx.ring, table, "monomial-ideals", g, allow_non_lli=True)
    got = [(w.generator_labels, w.profile, w.failing_degree, w.kind) for w in v.ideal_witnesses]
    assert (got, v.ideals_checked) == want
    assert v.holds == (not want[0])


_IDEAL_POOL = (
    "torus:3,2", "diamond:2", "kk:4", "be-ring:3,2,2", "leck:2+2,1", "cl:3,4", "colored-ring:2,2",
    "non-lli",
)
_IDEAL_FIELDS = (M.RATIONALS, M.FieldSpec(), M.FieldSpec("prime", 5))


@lru_cache(maxsize=None)
def _ideal_ring(name, field):
    if name == "non-lli":
        return non_lli_ctx(D=3, field=field)
    b = F.builtin(name, field)
    return RingContext(b.ring)


@st.composite
def _forms(draw, d, D):
    """One to three forms of degree 1 or 2 (at most D), each with one to three
    distinct terms, but never more terms than there are monomials of that degree."""
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        mons = monomials_of_degree(d, draw(st.integers(1, min(2, D))))
        exps = draw(st.lists(st.sampled_from(mons), min_size=1, max_size=min(3, len(mons)), unique=True))
        gens.append(M.Polynomial({e: draw(st.integers(-9, 9).filter(bool)) for e in exps}))
    return gens


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_IDEAL_POOL), st.sampled_from(_IDEAL_FIELDS), st.data())
def test_ideal_slices_match_generator_multiple_oracle(name, field, data):
    ctx = _ideal_ring(name, field)
    gens = data.draw(_forms(ctx.ring.spec.d, ctx.ring.D))
    ideal = ideal_in_ring(ctx, gens)
    assert (ideal._slices, ideal.dims) == generator_multiple_slices(ctx, gens)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_LOOP_POOL),
    st.sampled_from((M.RATIONALS, M.FieldSpec())),
    st.sampled_from(("lex", "rep-lex", "shuffled")),
    st.data(),
)
def test_initial_monomials_match_basis_coordinates_oracle(name, field, kind, data):
    ctx = _ideal_ring(name, field)
    p = ctx.poset
    if kind == "lex":
        table = M.lex_order(p)
    elif kind == "rep-lex":
        table = M.rep_lex_order(p)
    else:
        table = explicit_order(p, data.draw(st.permutations(range(p.n))))
    ideal = ideal_in_ring(ctx, data.draw(_forms(ctx.ring.spec.d, ctx.ring.D)))
    got = initial_monomial_data(ctx, ideal, table)
    want = transform_initial_monomials(ctx, ideal, table)
    assert (got.ims, got.imv_dims) == (want, tuple(map(len, want)))


def test_audit_refuses_slices_not_closed_under_a_variable():
    # the degree-2 slice of (x1 + x2) is x_v * (x1 + x2) for all v; without
    # one of its rows, some x_v times the degree-1 slice falls outside it
    ctx = _ideal_ring("torus:3,2", M.RATIONALS)
    ideal = ideal_in_ring(ctx, [M.Polynomial({(1, 0, 0, 0): 1, (0, 1, 0, 0): 1})])
    slices = list(ideal._slices)
    closure_audit(ctx, slices)
    red, pivots = slices[2]
    assert ideal.dims[1] == 1 and len(red) > 1
    slices[2] = (red[:-1], pivots[:-1])
    with pytest.raises(RingError, match="not closed under x_.* at degree 1"):
        closure_audit(ctx, slices)


def test_principal_ideal_on_a_large_leck_ring_keeps_its_dims():
    ctx = RingContext(F.builtin("leck:3+3+3,3").ring)
    x1 = M.monomial((1,) + (0,) * (ctx.ring.spec.d - 1))
    ideal = ideal_in_ring(ctx, [x1])
    assert ideal.dims == [0, 1, 11, 54, 154, 278, 324, 237, 99, 18]
    closure_audit(ctx, ideal._slices)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_LOOP_POOL), st.sampled_from((M.RATIONALS, M.FieldSpec())), st.data())
def test_leveled_basis_matches_one_rref_per_class_oracle(name, field, data):
    ctx = _ideal_ring(name, field)
    p = ctx.poset
    table = explicit_order(p, data.draw(st.permutations(range(p.n))))
    assert leveled_basis(ctx, table).levels == quadratic_leveled_basis(ctx, table)


def test_memoised_non_lli_profiles_match_spans_from_scratch():
    ctx = non_lli_ctx(D=3)
    assert not ctx.lli
    ground = [x for x in range(ctx.poset.n) if ctx.poset.rank[x] <= 3]
    memo = {}
    antichains = list(_antichains(ctx.poset, ground))
    for _, ups in antichains:
        want = tuple(
            ctx.span_dim(i, [x for x in ids if ups >> x & 1]) for i, ids in enumerate(ctx.ring.levels)
        )
        assert _mask_profile(ctx, ups, memo) == want == _mask_profile(ctx, ups, {})
    assert len(antichains) == 2498 and len(memo) < len(antichains)
