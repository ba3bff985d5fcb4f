import ast
import random
import tracemalloc
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

import macaulay as M
from macaulay import families as F
from macaulay.errors import RingError
from macaulay.hilbert import (
    MAX_ANTICHAIN_GROUND,
    RingContext,
    _mask_profile,
    _safe_degree,
    _segment_test,
    dual_segment,
    hilbert_function,
    ideal_in_ring,
    initial_monomial_data,
    initial_segment_space,
    is_macaulay_ring,
    leveled_basis,
)
from macaulay.families import order_from_recipe
from macaulay.orders import degree_major_order, explicit_order
from macaulay.rings import degree_rep_lex_order, monomials_by_degree

from conftest import (
    antichain_loop_oracle,
    check_monomial_ideal_profile,
    closure_audit,
    generator_multiple_slices,
    glued_by_z_ring,
    is_isomorphic_by_labels,
    list_antichains,
    quadratic_leveled_basis,
    recipe_witness,
    segment_failure_oracle,
    segment_is_ideal,
    stream_safe_degree,
    transform_initial_monomials,
    upset_closure,
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


def test_ideal_and_ring_generators_share_one_check():
    # the spec and the ideal run the same three checks, each naming its generators
    ctx = free_ring_ctx()
    for gen, what in (
        (M.Polynomial({(1, 0): 1, (0, 2): 1}), "generators must be homogeneous"),
        (M.Polynomial({(1, 0, 0): 1}), "generator exponent length must match variable count"),
        (M.Polynomial({(2, -1): 1}), "generator exponents must be nonnegative"),
    ):
        with pytest.raises(RingError, match=f"^{what}$"):
            M.QuotientRingSpec(2, M.RATIONALS, [gen], 2)
        with pytest.raises(RingError, match=f"^ideal {what}$"):
            ideal_in_ring(ctx, [gen])


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
        req = {i: rng.randint(0, len(ctx.poset.level(i))) for i in range(ctx.ring.D + 1)}
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


def test_ring_levels_are_the_class_poset_levels():
    ctx = RingContext(M.build_ring(F.cl_ring([3, 4], M.RATIONALS)))
    for i in range(ctx.ring.D + 1):
        assert tuple(ctx.ring.levels[i]) == ctx.poset.level(i)
    # out of range on either side: no wrap to the top degree
    assert ctx.poset.level(-1) == ctx.poset.level(ctx.ring.D + 1) == ()


def test_monomial_ideal_ims_is_itself():
    ctx = RingContext(M.build_ring(F.cl_ring([3, 4], M.RATIONALS)))
    lex = M.lex_order(ctx.poset)
    ideal = ideal_in_ring(ctx, [M.monomial((1, 1))])
    data = initial_monomial_data(ctx, ideal, lex)
    for i in range(ctx.ring.D + 1):
        members = {ctx.poset.labels[x] for x in data.ims[i]}
        expected = {
            lab
            for lab in (ctx.poset.labels[x] for x in ctx.poset.level(i))
            if lab[0] >= 1 and lab[1] >= 1
        }
        assert members == expected
        assert data.imv_dims[i] == data.imi_dims[i] == ideal.dims[i]


def test_hilb_equals_imv_for_any_order():
    # the equality side needs no monomial-order hypothesis
    rng = random.Random(5)
    ctx = RingContext(M.build_ring(F.cl_ring([3, 3], M.RATIONALS)))
    colex = order_from_recipe(ctx.poset, {"kind": "colex"})
    orders = [M.lex_order(ctx.poset), colex, mixed_order(ctx)]
    for trial in range(10):
        deg = rng.randint(1, 2)
        classes = list(ctx.poset.level(deg))
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
    full = {i: len(ctx.poset.level(i)) for i in range(ctx.ring.D + 1)}
    space, _ = initial_segment_space(ctx, full, lex)
    assert space.dims == ctx.ring.hilbert()


def test_segment_space_refuses_sizes_past_the_top_degree():
    ctx = RingContext(M.build_ring(F.cl_ring([2, 2], M.RATIONALS)))  # D = 2
    lex = M.lex_order(ctx.poset)
    for sizes, degree in (([1, 2, 1, 5, 7], 3), ({5: 1}, 5), ({-1: 1}, -1)):
        with pytest.raises(RingError, match=f"^degree {degree}: requested"):
            initial_segment_space(ctx, sizes, lex)
    # zero sizes past D ask for nothing
    for sizes in ([1, 2, 1, 0, 0], {0: 1, 1: 2, 2: 1, 3: 0, -1: 0}):
        assert initial_segment_space(ctx, sizes, lex)[0].dims == (1, 2, 1)


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
    segs = [tuple(ctx.poset.level(i)) for i in range(ctx.ring.D + 1)]
    assert segment_is_ideal(ctx, segs) == (True, None)


def test_segment_is_ideal_cl_profiles_exhaustive():
    # every monomial-ideal profile of the sorted-caps ring yields an ideal segment
    ctx = RingContext(M.build_ring(F.cl_ring([3, 4], M.RATIONALS)))
    lex = M.lex_order(ctx.poset)
    for anti in list_antichains(ctx.poset, range(ctx.poset.n)):
        ups = upset_closure(ctx.poset, anti)
        assert M.upset_mask(ctx.poset, anti) == sum(1 << x for x in ups), anti
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
    assert [len(lvl) for lvl in basis] == list(ctx.ring.hilbert())
    # the dropped class is the lex-largest dependent one
    kept = {ctx.poset.labels[x] for x in basis[2]}
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
    # the monomial-ideal scan on its own refuses too, without the override
    v1 = is_macaulay_ring(ctx.ring, lex, mode="monomial-ideals")
    assert v1.holds is None and not v1.hypothesis_ok and v1.ideals_checked == 0
    assert v1.hypothesis_reason == "level linear independence fails at degree 2"
    # explicit override runs the monomial-ideal scan anyway, scoped
    v2 = is_macaulay_ring(ctx.ring, lex, mode="monomial-ideals", allow_non_lli=True)
    assert v2.scope == "monomial-ideals-only"
    assert v2.holds is not None


def test_is_macaulay_ring_poset_mode_needs_monomial_order():
    # xz = yz ties products, so no order is a monomial order: neither the
    # table, nor degree-rep-lex, nor a product order (one component only)
    ring = glued_by_z_ring()
    p = M.poset_of_monomials(ring)
    drl = degree_rep_lex_order(p)
    for table in (M.lex_order(p), drl):
        v = is_macaulay_ring(ring, table, mode="poset")
        assert v.holds is None and not v.hypothesis_ok
        assert v.hypothesis_reason == "no verified monomial order on the class poset"
        assert v.monomial_order_verified is False
        assert v.monomial_order_counterexample == M.is_monomial_order(ring, drl)[1] is not None


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
                classes = list(ctx.poset.level(deg))
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
        v = is_macaulay_ring(ctx.ring, b.default_order(), mode="both")
        assert v.hypothesis_ok and v.agreement is True and v.holds is True, name


_WITNESS_POOL = (
    "kk:4", "cl:3,4", "cl:4,4,4", "colored-ring:2,2", "colored-ring:2,2,2", "colored-ring:3,1",
    "be-ring:3,2,2", "be-ring:2,2,2", "be-ring:2,3,1", "torus:3", "torus:3,2", "torus:4,2",
    "diamond:1", "diamond:2", "leck:2+2,1", "leck:3+2,0", "leck:2+2+2,1", "leck:3+2,2",
)


@pytest.mark.parametrize("name", _WITNESS_POOL)
def test_worked_out_witness_verifies_wherever_the_recipe_witness_does(name):
    # the poset side's monomial-order hypothesis comes from the ring, not its
    # name: wherever the hand-written witness verifies, so does the hypothesis,
    # under every supplied order, monomial or not (torus:3,3 is left out: its
    # family order meets a 35-class level past the subset cap)
    b = F.builtin(name)
    p = b.poset
    oracle = M.is_monomial_order(b.ring, recipe_witness(name, p))[0]
    shuffled = explicit_order(p, random.Random(0).sample(range(p.n), p.n))
    tables = [M.lex_order(p), M.rep_lex_order(p), shuffled]
    if b.order is not None:
        tables.append(b.default_order())
    for table in tables:
        v = is_macaulay_ring(b.ring, table, mode="poset")
        assert v.monomial_order_verified or not oracle, table.recipe
        assert v.hypothesis_ok == v.monomial_order_verified, table.recipe


def test_permuted_variables_keep_the_product_monomial_order():
    # variables (0, 2, 1, 3) of the torus square make its components [0, 2]
    # and [1, 3]; the product order over them still verifies, so the verdict
    # under the same order is the unpermuted ring's, up to the labels of the
    # table's own counterexample (the permutation is its own inverse)
    perm = (0, 2, 1, 3)
    swap = lambda label: tuple(label[j] for j in perm)
    spec = F.torus_ring([3, 3], M.RATIONALS)
    gens = [M.Polynomial({swap(e): c for e, c in g.terms.items()}) for g in spec.generators]
    permuted = M.QuotientRingSpec(spec.d, spec.field, gens, spec.D)
    ring, pring = M.build_ring(spec), M.build_ring(permuted)
    p, pp = M.poset_of_monomials(ring), M.poset_of_monomials(pring)
    table = F.torus_order(p, [3, 3])
    position = {p.labels[x]: table.position[x] for x in range(p.n)}
    ptable = explicit_order(pp, sorted(range(pp.n), key=lambda x: position[swap(pp.labels[x])]))
    for mode in ("poset", "both"):
        want = is_macaulay_ring(ring, table, mode=mode).to_dict(p)
        got = is_macaulay_ring(pring, ptable, mode=mode).to_dict(pp)
        assert got["hypotheses"]["monomial_order_verified"] is True and got["holds"] is True
        cex = [str(swap(ast.literal_eval(label))) for label in got.pop("order_counterexample")]
        assert cex == want.pop("order_counterexample") and got == want, mode


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


def _order_variant(p, table, variant, rnd):
    """The base order, a shuffle of every level, or one swap of two classes of one degree."""
    if variant == "shuffle":
        return explicit_order(p, [x for lvl in p.levels for x in rnd.sample(lvl, len(lvl))])
    if variant == "swap":
        # a shuffle leaves almost no degree safe; one swap of two classes of
        # one degree leaves the degrees far from it safe, so the scan counts
        # some subtrees and walks the failing ones beside them
        seq = [x for i in range(len(p.levels)) for x in table.level_in_order(i)]
        a, b = rnd.sample(rnd.choice([lvl for lvl in p.levels if len(lvl) > 1]), 2)
        i, j = seq.index(a), seq.index(b)
        seq[i], seq[j] = b, a
        return explicit_order(p, seq)
    return table


def _scan_result(v):
    """A verdict's (witnesses, ideals checked) in `antichain_loop_oracle`'s form."""
    got = [(w.generator_labels, w.profile, w.failing_degree, w.kind) for w in v.ideal_witnesses]
    return got, v.ideals_checked


def _ring_and_degree(name):
    """A pool ring with a generator degree from 0, where nothing lies below the
    top degree, to D + 1, where the top degree clamps to D."""
    return st.tuples(st.just(name), st.integers(0, _loop_ring(name)[0].ring.D + 1))


@settings(max_examples=90, deadline=None)
@given(
    st.sampled_from(_LOOP_POOL).flatmap(_ring_and_degree),
    st.sampled_from(("base", "shuffle", "swap")),
    st.randoms(use_true_random=False),
)
@example(("leck:2+2,1", 4), "shuffle", random.Random(0))
@example(("non-lli", 0), "base", random.Random(0))
@example(("torus:3,2", 2), "swap", random.Random(2))  # swaps the degree-1 classes 1 and 4
def test_antichain_loop_matches_list_building_oracle(ring_and_degree, variant, rnd):
    name, g = ring_and_degree
    ctx, table = _loop_ring(name)
    table = _order_variant(ctx.poset, table, variant, rnd)
    try:
        want = antichain_loop_oracle(ctx, table, g)
    except M.ResourceLimitError:
        with pytest.raises(M.ResourceLimitError):
            is_macaulay_ring(ctx.ring, table, "monomial-ideals", g, allow_non_lli=True)
        return
    v = is_macaulay_ring(ctx.ring, table, "monomial-ideals", g, allow_non_lli=True)
    assert _scan_result(v) == want
    assert v.holds == (not want[0])


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([n for n in _LOOP_POOL if n != "non-lli"]).flatmap(_ring_and_degree),
    st.sampled_from(("base", "shuffle", "swap")),
    st.randoms(use_true_random=False),
)
@example(("cl:4,4,4", 3), "base", random.Random(0))  # the poset side holds: no stream at g
@example(("torus:3,2", 2), "swap", random.Random(2))
def test_antichain_loop_in_both_modes_matches_the_oracle(ring_and_degree, variant, rnd):
    # every pool ring but the one without level linear independence meets
    # the poset side's hypotheses, with the witness worked out from the ring;
    # where that side holds, the ideal side reads its minima and runs no stream
    name, g = ring_and_degree
    ctx, table = _loop_ring(name)
    table = _order_variant(ctx.poset, table, variant, rnd)
    run = lambda: is_macaulay_ring(ctx.ring, table, "both", g)
    try:
        want = antichain_loop_oracle(ctx, table, g)
    except M.ResourceLimitError:
        with pytest.raises(M.ResourceLimitError):
            run()
        return
    v = run()
    assert v.hypothesis_ok, v.hypothesis_reason
    assert _scan_result(v) == want
    poset_holds = v.poset_verdict.holds
    assert v.holds == (poset_holds and not want[0])
    assert v.agreement == (poset_holds == (not want[0]))


@settings(max_examples=90, deadline=None)
@given(
    st.sampled_from(_LOOP_POOL).flatmap(_ring_and_degree),
    st.sampled_from(("base", "shuffle", "swap")),
    st.randoms(use_true_random=False),
    st.booleans(),
)
# levels 2 and 3 fail the upper check, yet every subset of level 1 passes
# the segment test, so s = 0: minima above g would give s = 2
@example(("torus:3,2", 1), "swap", random.Random(23), False)  # swaps the degree-3 classes 13 and 14
@example(("cl:4,4,4", 4), "base", random.Random(0), True)
def test_safe_degrees_match_the_stream_oracle(ring_and_degree, variant, rnd, holds):
    # a smaller safe range only walks more, so the scan's outputs cannot see
    # a dropped stream: s itself is compared, with the poset side's verdict
    # passed only where the upper check holds on every level
    name, g = ring_and_degree
    ctx, table = _loop_ring(name)
    p = ctx.poset
    table = _order_variant(p, table, variant, rnd)
    g = min(g, ctx.ring.D)
    ground = [x for x in range(p.n) if p.rank[x] <= g]
    if len(ground) > MAX_ANTICHAIN_GROUND:
        return
    holds = holds and ctx.lli and M.is_macaulay(p, table, "upper").holds
    up = {x: M.upset_mask(p, (x,)) for x in ground}
    got = _safe_degree(ctx, table, _segment_test(ctx, table), g, up, holds)
    assert got == stream_safe_degree(ctx, table, g)


@pytest.mark.parametrize("order", ["family", "lex"])
def test_scan_with_empty_top_levels_matches_the_oracle(order):
    # classes only in degrees <= 2 of a ring truncated at D = 4: the levels
    # past the poset's top are empty, and no minima are read there
    ctx = RingContext(M.build_ring(M.tensor_ring([F.colored_sf_ring([2], M.RATIONALS)] * 2, 4)))
    p = ctx.poset
    assert ctx.ring.hilb == [1, 4, 4, 0, 0] and p.max_rank == 2
    table = F.mermin_murai_order(p, [2, 2], side="ring") if order == "family" else M.lex_order(p)
    for g in range(ctx.ring.D + 2):
        want = antichain_loop_oracle(ctx, table, g)
        for mode in ("monomial-ideals", "both"):
            v = is_macaulay_ring(ctx.ring, table, mode, g)
            assert _scan_result(v) == want, (g, mode)


def test_antichains_are_streamed_not_listed():
    # the free ring in 14 variables at D = 2, generated in degrees <= 1: each
    # of the 2^14 sets of variables is an antichain, and so is {1}; a list of
    # all their upsets reads about 0.9 MiB
    ring = M.build_ring(M.QuotientRingSpec(14, M.RATIONALS, [], 2))
    lex = M.lex_order(RingContext(ring).poset)
    assert is_macaulay_ring(ring, lex, "monomial-ideals", 0).ideals_checked == 2
    tracemalloc.start()
    try:
        v = is_macaulay_ring(ring, lex, "monomial-ideals", 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.holds and v.ideals_checked == 2**14 + 1
    assert peak < 0.5 * 2**20, peak


def test_scan_setup_walks_the_ground_upsets_only():
    # kk:12 has 4,096 classes, 13 of them in degrees <= 1; a table of every
    # class's upset read 36 MiB at this scan's peak
    ring = F.builtin("kk:12").ring
    lex = M.lex_order(M.poset_of_monomials(ring))
    tracemalloc.start()
    try:
        v = is_macaulay_ring(ring, lex, "monomial-ideals", 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.holds and v.ideals_checked == 2**12 + 1
    assert peak < 8 * 2**20, peak


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_LOOP_POOL), st.data())
def test_prefix_mask_segment_test_matches_set_oracle(name, data):
    # every profile of per-degree sizes, ideal or not, under a shuffled order
    ctx, _ = _loop_ring(name)
    p = ctx.poset
    table = explicit_order(p, data.draw(st.permutations(range(p.n))))
    profile = tuple(data.draw(st.integers(0, len(lvl))) for lvl in ctx.ring.levels)
    assert _segment_test(ctx, table)(profile) == segment_failure_oracle(ctx, table, profile)


_IDEAL_POOL = (
    "torus:3,2", "diamond:2", "kk:4", "be-ring:3,2,2", "leck:2+2,1", "cl:3,4", "colored-ring:2,2",
    "non-lli",
)
_IDEAL_FIELDS = (M.RATIONALS, M.FieldSpec(), M.FieldSpec(5))


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
        mons = monomials_by_degree(d, 2)[draw(st.integers(1, min(2, D)))]
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


@pytest.mark.parametrize("name", ["non-lli", "leck:2+2,1", "torus:3,2"])
@settings(max_examples=30, deadline=None)
@given(st.sampled_from((M.RATIONALS, M.FieldSpec())), st.data())
def test_initial_ideal_dims_match_the_span_dim_oracle(name, field, data):
    # the initial ideal's profile, from the upset as a set and one span
    # dimension per degree, with and without level linear independence
    ctx = _ideal_ring(name, field)
    assert ctx.lli == (name != "non-lli")
    p = ctx.poset
    table = explicit_order(p, data.draw(st.permutations(range(p.n))))
    ideal = ideal_in_ring(ctx, data.draw(_forms(ctx.ring.spec.d, ctx.ring.D)))
    got = initial_monomial_data(ctx, ideal, table)
    ups = upset_closure(p, [x for lvl in got.ims for x in lvl])
    by_degree = [sorted(x for x in ups if p.rank[x] == i) for i in range(ctx.ring.D + 1)]
    assert got.imi_dims == tuple(ctx.span_dim(i, ids) for i, ids in enumerate(by_degree))


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
    assert leveled_basis(ctx, table) == quadratic_leveled_basis(ctx, table)


def test_memoised_non_lli_profiles_match_spans_from_scratch():
    ctx = non_lli_ctx(D=3)
    assert not ctx.lli
    ground = [x for x in range(ctx.poset.n) if ctx.poset.rank[x] <= 3]
    memo = {}
    antichains = list_antichains(ctx.poset, ground)
    for anti in antichains:
        ups = sum(1 << x for x in upset_closure(ctx.poset, anti))
        want = tuple(
            ctx.span_dim(i, [x for x in ids if ups >> x & 1]) for i, ids in enumerate(ctx.ring.levels)
        )
        assert _mask_profile(ctx, ups, memo) == want == _mask_profile(ctx, ups, {})
    assert len(antichains) == 2498 and len(memo) < len(antichains)
