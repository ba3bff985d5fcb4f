import itertools
import random
import re
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import macaulay as M
from conftest import (
    dense_reduce_vector,
    dense_rref,
    elimination_build_oracle,
    glued_by_z_ring,
    is_isomorphic_by_labels,
    member_tree_ring_oracle,
    normalised_poset_oracle,
    oracle_times,
    reachability,
    recipe_witness,
    ring_fields,
    series_product,
    to_dense,
    triple_loop_monomial_order,
    walked_class_of,
    walked_members,
)
from macaulay import families as F
from macaulay.errors import RingError
from macaulay.orders import explicit_order
from macaulay.rings import (
    degree_rep_lex_order,
    monomials_by_degree,
    rep_lex_order,
    tensor_monomial_order,
)


def non_lli_spec(field=M.RATIONALS, D=2):
    # K[x,y,z] / (x^2 + xy - xz)
    return M.QuotientRingSpec(
        3, field, [M.Polynomial({(2, 0, 0): 1, (1, 1, 0): 1, (1, 0, 1): -1})], D
    )


def test_monomials_by_degree():
    assert monomials_by_degree(2, 2)[2] == [(0, 2), (1, 1), (2, 0)]
    assert len(monomials_by_degree(3, 4)[4]) == 15
    for d in range(5):
        assert monomials_by_degree(d, 4) == [
            sorted(e for e in itertools.product(range(i + 1), repeat=d) if sum(e) == i)
            for i in range(5)
        ]


def test_polynomial_validation():
    with pytest.raises(RingError):
        M.Polynomial({(1, 0): 1, (2, 0): 1}).degree()
    assert M.Polynomial({(1, 1): 0}).is_zero()
    p = M.Polynomial({(2, 0): Fraction(1, 2)})
    assert M.Polynomial.from_json(p.to_json()).terms == p.terms


def test_spec_validation():
    with pytest.raises(RingError):
        M.QuotientRingSpec(2, M.RATIONALS, [M.Polynomial({(0, 0): 1})], 2)
    with pytest.raises(RingError):
        M.QuotientRingSpec(2, M.RATIONALS, [M.Polynomial({(1, 0): 1, (0, 2): 1})], 2)


def test_squarefree_quotient_is_boolean():
    ring = M.build_ring(F.kk_ring(3, M.RATIONALS))
    p = M.poset_of_monomials(ring)
    assert p == M.multiset_lattice([2, 2, 2])


def test_mixed_relation_collapses_degree_two():
    # d=2, H=(x1^3, x2^3, x1x2, x1^2-x2^2): one degree-2 class {x1^2, x2^2}
    spec = M.QuotientRingSpec(
        2,
        M.RATIONALS,
        [
            M.monomial((3, 0)),
            M.monomial((0, 3)),
            M.monomial((1, 1)),
            M.Polynomial({(2, 0): 1, (0, 2): -1}),
        ],
        2,
    )
    ring = M.build_ring(spec)
    assert [len(ids) for ids in ring.levels] == [1, 2, 1]
    top = ring.levels[2][0]
    assert walked_members(ring)[top] == frozenset({(2, 0), (0, 2)})
    assert ring.classes[top].rep == (0, 2)


def test_non_lli_example_counts():
    ring = M.build_ring(non_lli_spec())
    assert ring.hilbert() == (1, 3, 5)
    assert len(ring.levels[2]) == 6
    flag, deg = M.is_level_linearly_independent(ring)
    assert not flag and deg == 2


def test_monomial_quotients_are_lli():
    for spec in (F.kk_ring(3, M.RATIONALS), F.cl_ring([3, 4], M.RATIONALS)):
        assert M.is_level_linearly_independent(M.build_ring(spec))[0]


def test_torus_lli():
    ring = M.build_ring(F.torus_basic_ring(3, M.RATIONALS))
    assert M.is_level_linearly_independent(ring)[0]
    assert [len(ids) for ids in ring.levels] == [1, 2, 2, 1]


def test_unit_ideal_rejected():
    with pytest.raises(RingError):
        M.QuotientRingSpec(2, M.RATIONALS, [M.Polynomial({(0, 0): 1, (1, 0): 1})], 2)


def test_poset_of_monomials_grid():
    ring = M.build_ring(F.cl_ring([3, 4], M.RATIONALS))
    assert M.poset_of_monomials(ring) == M.multiset_lattice([3, 4])


def test_torus_poset_is_cycle():
    for p in (2, 3, 4):
        ring = M.build_ring(F.torus_basic_ring(p, M.RATIONALS))
        poset = M.poset_of_monomials(ring)
        assert poset.n == 2 * p
        assert len(poset.covers) == 2 * p
        degree = [0] * poset.n
        for a, b in poset.covers:
            degree[a] += 1
            degree[b] += 1
        assert all(d == 2 for d in degree)


def test_diamond_poset_shape():
    ring = M.build_ring(F.diamond_basic_ring(M.RATIONALS))
    poset = M.poset_of_monomials(ring)
    assert [len(l) for l in poset.levels] == [1, 3, 1]
    assert len(poset.covers) == 6


def test_class_multiplication_rep_independent():
    rng = random.Random(11)
    specs = [
        F.torus_basic_ring(3, M.RATIONALS),
        F.diamond_basic_ring(M.RATIONALS),
        non_lli_spec(),
    ]
    for spec in specs:
        ring = M.build_ring(spec)
        class_of = walked_class_of(ring)
        for x, (cls, members) in enumerate(zip(ring.classes, walked_members(ring))):
            if len(members) < 2:
                continue
            for var in range(ring.spec.d):
                if cls.degree + 1 > ring.D:
                    continue
                results = set()
                for m in members:
                    out = tuple(
                        e + (1 if j == var else 0) for j, e in enumerate(m)
                    )
                    results.add(class_of[out])
                assert results == {ring.times[var][x]}


def test_upper_shadow_lemma_agreement():
    # covers of the class poset = nonzero variable multiples, set for set
    for spec in (F.torus_basic_ring(3, M.RATIONALS), F.diamond_basic_ring(M.RATIONALS)):
        ring = M.build_ring(spec)
        poset = M.poset_of_monomials(ring)
        units = [tuple(int(k == v) for k in range(ring.spec.d)) for v in range(ring.spec.d)]
        for x in range(ring.levels[ring.D].start):
            direct = {ring.mul(x, unit) for unit in units} - {None}
            assert direct == set(poset.up[x])


def test_prime_and_rational_builds_agree():
    specs = [
        F.cl_ring([3, 4], M.RATIONALS),
        F.torus_ring([3, 3], M.RATIONALS),
        F.diamond_ring(1, M.RATIONALS),
        non_lli_spec(),
    ]
    for spec in specs:
        rq = M.build_ring(spec)
        rp = M.build_ring(spec.with_field(M.FieldSpec(32003)))
        assert rq.hilbert() == rp.hilbert()
        assert walked_members(rq) == walked_members(rp)
        assert rq.times == rp.times


def test_monomial_quotient_embeds_in_free_grid():
    ring = M.build_ring(F.cl_ring([3, 4], M.RATIONALS))
    poset = M.poset_of_monomials(ring)
    free = M.multiset_lattice([None, None], truncation=ring.D)
    above = reachability(poset)
    for x in range(poset.n):
        for y in range(poset.n):
            dominated = all(a <= b for a, b in zip(poset.labels[x], poset.labels[y]))
            assert (y in above[x]) == dominated
            _ = free.id_of(poset.labels[x])  # image exists in the truncated grid


def test_rep_lex_is_monomial_order_on_monomial_quotients():
    for spec in (F.kk_ring(3, M.RATIONALS), F.cl_ring([3, 4], M.RATIONALS)):
        ring = M.build_ring(spec)
        poset = M.poset_of_monomials(ring)
        ok, _ = M.is_monomial_order(ring, rep_lex_order(poset))
        assert ok


def test_degree_rep_lex_is_monomial_order_on_glued_basics():
    for spec in (F.torus_basic_ring(3, M.RATIONALS), F.diamond_basic_ring(M.RATIONALS)):
        ring = M.build_ring(spec)
        poset = M.poset_of_monomials(ring)
        ok, _ = M.is_monomial_order(ring, degree_rep_lex_order(poset))
        assert ok


def test_plain_rep_lex_fails_on_torus():
    ring = M.build_ring(F.torus_basic_ring(3, M.RATIONALS))
    poset = M.poset_of_monomials(ring)
    ok, cex = M.is_monomial_order(ring, rep_lex_order(poset))
    # 1 < x^2 in rep-lex, but x*x^2 = x^3 = y^3 comes before x = x*1
    assert (ok, cex) == (False, ((0, 0), (2, 0), (1, 0)))


def test_tensor_degree_lex_is_monomial_order_on_torus_square():
    ring = M.build_ring(F.torus_ring([3, 3], M.RATIONALS))
    poset = M.poset_of_monomials(ring)
    ok, _ = M.is_monomial_order(ring, F.tensor_monomial_order(poset, [[0, 1], [2, 3]]))
    assert ok
    # while the flat degree-major order is not multiplicative here
    ok2, _ = M.is_monomial_order(ring, degree_rep_lex_order(poset))
    assert not ok2
    # one block of every variable is the flat degree-major order
    one_block = tensor_monomial_order(poset, [range(4)])
    assert one_block.position == degree_rep_lex_order(poset).position
    assert F.tensor_monomial_order is tensor_monomial_order


_ORDER_CHECK_POOL = (
    "torus:3,2", "diamond:2", "be-ring:3,2,2", "colored-ring:2,2,2", "kk:4", "leck:2+2,1", "cl:3,3",
    "xz=yz",
)


@lru_cache(maxsize=None)
def _order_check_ring(name):
    """(ring, poset, base order, whether the base is a monomial order)."""
    if name == "xz=yz":
        ring = glued_by_z_ring()
        poset = M.poset_of_monomials(ring)
        return ring, poset, degree_rep_lex_order(poset), False
    b = F.builtin(name)
    return b.ring, b.poset, recipe_witness(name, b.poset), True


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(_ORDER_CHECK_POOL),
    st.sampled_from(["shuffle", "degree-major", "swap"]),
    st.randoms(use_true_random=False),
)
def test_monomial_order_check_matches_triple_loop(name, kind, rnd):
    ring, poset, base, monomial = _order_check_ring(name)
    if kind == "shuffle":
        ids = rnd.sample(range(poset.n), poset.n)
    elif kind == "degree-major":
        ids = [x for lvl in poset.levels for x in rnd.sample(lvl, len(lvl))]
    else:
        # the base order with two adjacent elements swapped
        assert M.is_monomial_order(ring, base)[0] == monomial
        ids = list(base.by_position())
        j = rnd.randrange(poset.n - 1)
        ids[j], ids[j + 1] = ids[j + 1], ids[j]
    table = explicit_order(poset, ids)
    assert M.is_monomial_order(ring, table) == triple_loop_monomial_order(ring, table)


def test_recognize_tree_ring():
    cases = [
        (F.be_basic_ring(1, 2, M.RATIONALS), [(0, 2), (1, 2)]),
        (F.kk_ring(2, M.RATIONALS), None),
        (F.torus_basic_ring(3, M.RATIONALS), None),
        (F.be_basic_ring(2, 3), [(0, 3), (1, 3), (2, 3)]),
        # x = y at D = 3: a chain, but every class past the unit is mixed
        (M.QuotientRingSpec(2, M.FieldSpec(), [M.Polynomial({(1, 0): 1, (0, 1): -1})], 3), None),
        (M.QuotientRingSpec(3, M.FieldSpec(), [M.monomial((1, 1, 0))], 0), []),
    ]
    for spec, legs in cases:
        assert M.recognize_tree_ring(M.build_ring(spec)) == legs == member_tree_ring_oracle(spec)


def test_recognize_tree_ring_refuses_a_chain_of_mixed_classes():
    # K[x,y]/(x - y) at D = 3: the class poset is a four-element chain, whose
    # Hasse graph is a tree, yet each class past the unit holds mixed
    # monomials (xy with x^2), so it is no tree ring of single pure powers
    spec = M.QuotientRingSpec(2, M.FieldSpec(), [M.Polynomial({(1, 0): 1, (0, 1): -1})], 3)
    ring = M.build_ring(spec)
    poset = M.poset_of_monomials(ring)
    assert list(map(len, poset.levels)) == [1, 1, 1, 1] and sorted(poset.covers) == [(0, 1), (1, 2), (2, 3)]
    assert M.recognize_tree_ring(ring) is None


def test_tensor_poset_isomorphic_to_product():
    a = F.torus_basic_ring(3, M.RATIONALS)
    b = F.diamond_basic_ring(M.RATIONALS)
    combined = M.build_ring(M.tensor_ring([a, b]))
    pa = M.poset_of_monomials(M.build_ring(a))
    pb = M.poset_of_monomials(M.build_ring(b))
    prod = M.cartesian_product([pa, pb])
    pc = M.poset_of_monomials(combined)
    assert is_isomorphic_by_labels(pc, prod, lambda lab: lab)


def test_quotient_by_a_whole_level():
    # killing every degree-3 monomial truncates the class poset cleanly
    d = 3
    gens = [M.monomial(e) for e in monomials_by_degree(d, 3)[3]]
    ring = M.build_ring(M.QuotientRingSpec(d, M.RATIONALS, gens, 4))
    assert ring.hilbert() == (1, 3, 6, 0, 0)
    assert [len(ids) for ids in ring.levels] == [1, 3, 6, 0, 0]
    assert M.poset_of_monomials(ring) == M.multiset_lattice([None] * 3, truncation=2)


def test_gluing_in_the_middle_of_the_poset():
    # H = (all degree-4 monomials) + (x1*x2 - x2^2): the glued pair at degree 2
    # drags a triple merge along at degree 3
    gens = [M.monomial(e) for e in monomials_by_degree(2, 4)[4]]
    gens.append(M.Polynomial({(1, 1): 1, (0, 2): -1}))
    ring = M.build_ring(M.QuotientRingSpec(2, M.RATIONALS, gens, 4))
    assert ring.hilbert() == (1, 2, 2, 2, 0)
    assert [len(ids) for ids in ring.levels] == [1, 2, 2, 2, 0]
    members = walked_members(ring)
    deg2 = {members[x] for x in ring.levels[2]}
    assert frozenset({(1, 1), (0, 2)}) in deg2 and frozenset({(2, 0)}) in deg2
    deg3 = {members[x] for x in ring.levels[3]}
    assert frozenset({(2, 1), (1, 2), (0, 3)}) in deg3
    assert M.is_level_linearly_independent(ring)[0]


def test_ring_spec_json_roundtrip():
    spec = F.torus_basic_ring(3, M.FieldSpec(32003))
    again = M.QuotientRingSpec.from_json(spec.to_json())
    assert again == spec


def _dense_slice(spec, i, field):
    """Generator multiples of degree i as dense rows over the lex-ascending monomials."""
    mons = monomials_by_degree(spec.d, i)[i]
    col = {m: j for j, m in enumerate(mons)}
    rows = []
    for g in spec.generators:
        e = g.degree()
        if e > i:
            continue
        for m in monomials_by_degree(spec.d, i - e)[i - e]:
            row = to_dense({}, len(mons), field.p)
            for exp, coef in g.terms.items():
                j = col[tuple(a + b for a, b in zip(exp, m))]
                row[j] = field.of(row[j] + field.of(coef))
            rows.append(row)
    return mons, rows


def test_stored_residues_match_dense_normal_forms():
    specs = [
        F.torus_ring([3, 3], M.RATIONALS),
        F.diamond_ring(2, M.RATIONALS),
        F.be_ring(1, 2, 2, M.RATIONALS),
        non_lli_spec(D=3),
        M.QuotientRingSpec(
            2, M.RATIONALS,
            [M.Polynomial({(1, 1): Fraction(2, 3), (0, 2): -5, (2, 0): 7})], 4,
        ),
    ]
    for spec in specs:
        for fspec in (M.RATIONALS, M.FieldSpec(32003), M.FieldSpec(5)):
            ring = M.build_ring(spec.with_field(fspec))
            field = ring.field
            members = walked_members(ring)
            class_of = walked_class_of(ring)
            for i in range(ring.D + 1):
                mons, rows = _dense_slice(ring.spec, i, field)
                red, pivots = dense_rref(rows, len(mons), field.p)
                nonpiv = [j for j in range(len(mons)) if j not in pivots]
                assert ring.nf_monomials[i] == [mons[j] for j in nonpiv]
                for x in ring.levels[i]:
                    c = ring.classes[x]
                    for m in members[x]:
                        unit = to_dense({mons.index(m): field.of(1)}, len(mons), field.p)
                        residual = dense_reduce_vector(red, pivots, unit, field.p)
                        nf = [residual[j] for j in nonpiv]
                        assert to_dense(c.residue, len(nonpiv), field.p) == nf
                zero = [m for m in mons if class_of[m] is None]
                for m in zero:
                    unit = to_dense({mons.index(m): field.of(1)}, len(mons), field.p)
                    assert not any(dense_reduce_vector(red, pivots, unit, field.p))


def _convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_large_glued_builds_agree_across_fields():
    cases = [
        (lambda f: F.torus_ring([3, 3, 3], f), (1, 2, 2, 1), 3),
        (lambda f: F.torus_ring([3, 3, 3, 3], f), (1, 2, 2, 1), 4),
        (lambda f: F.diamond_ring(3, f), (1, 3, 1), 3),
    ]
    for make, basic_hilbert, n in cases:
        rq = M.build_ring(make(M.RATIONALS))
        rp = M.build_ring(make(M.FieldSpec(32003)))
        want = [1]
        for _ in range(n):
            want = _convolve(want, basic_hilbert)
        assert list(rq.hilbert()) == list(rp.hilbert()) == want
        assert rq.levels == rp.levels
        assert walked_members(rq) == walked_members(rp)
        assert rq.times == rp.times
        assert M.is_level_linearly_independent(rq) == M.is_level_linearly_independent(rp)


def test_coefficient_outside_the_prime_field_is_a_ring_error():
    spec = M.QuotientRingSpec(
        2, M.FieldSpec(7), [M.Polynomial({(1, 1): Fraction(1, 7)})], 2
    )
    with pytest.raises(RingError, match="not defined over prime:7"):
        M.build_ring(spec)
    with pytest.raises(RingError, match="prime modulus"):
        M.FieldSpec(32004)
    with pytest.raises(RingError):
        M.FieldSpec.from_json("p:abc")


@pytest.mark.parametrize("p", [None, 32003, 5])
def test_a_field_is_its_modulus(p):
    # one spec per field however it is made, so tensor factors made either way combine;
    # a "rationals" kind with a default modulus once made a second, unequal rationals
    spec = M.FieldSpec(p)
    again = M.FieldSpec.from_json(spec.to_json())
    assert spec == again and hash(spec) == hash(again)
    if p is None:
        assert spec == M.RATIONALS == M.FieldSpec.from_json("q") and hash(spec) == hash(M.RATIONALS)
    tensor = M.tensor_ring([F.cl_ring([2], spec), F.kk_ring(1, again)])
    assert tensor.field == spec and M.build_ring(tensor).hilbert() == (1, 2, 1)
    for bad in ("rationals", "prime", 9, 1, 0, -5, 2.0, True):
        with pytest.raises(RingError, match="prime modulus"):
            M.FieldSpec(bad)


# ---------------------------------------------------------------------------
# Tensor rings are built per variable component; the whole-ring elimination in
# conftest is the oracle.

_FIELDS = (M.RATIONALS, M.FieldSpec(32003), M.FieldSpec(5))
_TENSOR_BUILTINS = (
    "torus:2,2", "torus:3,2", "diamond:2", "be-ring:3,2,2", "colored-ring:2,2,2", "kk:4",
    "cl:3,3", "cl:2,3,2", "leck:2+2,1", "leck:3,2",
)


def _glue(d, a, b):
    """x_a^2 - 2 x_b^2 in d variables (0-based indices)."""
    return M.Polynomial({
        tuple(2 if j == a else 0 for j in range(d)): 1,
        tuple(2 if j == b else 0 for j in range(d)): -2,
    })


def _assert_matches_oracle(spec):
    ring, oracle = M.build_ring(spec), elimination_build_oracle(spec)
    assert ring_fields(ring) == oracle
    assert ring.times == oracle_times(oracle)


@st.composite
def _factor_specs(draw):
    """A spec on 1..3 variables with binomial or trinomial generators of degree 1..3."""
    d = draw(st.integers(1, 3))
    coef = st.sampled_from([1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-2, 3)])
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        deg = draw(st.integers(1, 3))
        mons = monomials_by_degree(d, deg)[deg]
        terms = st.lists(st.sampled_from(mons), min_size=min(2, len(mons)), max_size=3, unique=True)
        exps = draw(terms)
        gens.append(M.Polynomial({e: draw(coef) for e in exps}))
    return M.QuotientRingSpec(d, M.RATIONALS, gens, 0)


def _shuffled_tensor(factors, D, rnd):
    """The tensor of the factors truncated at D, its variables shuffled so
    that the components interleave."""
    spec = M.tensor_ring(factors, D)
    perm = rnd.sample(range(spec.d), spec.d)
    gens = [
        M.Polynomial({tuple(e[j] for j in perm): c for e, c in g.terms.items()})
        for g in spec.generators
    ]
    return M.QuotientRingSpec(spec.d, spec.field, gens, D)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        st.sampled_from(_TENSOR_BUILTINS).map(lambda name: F.builtin(name).ring_spec),
        st.tuples(
            st.lists(_factor_specs(), min_size=2, max_size=3),
            st.integers(0, 5),
            st.randoms(use_true_random=False),
        ).map(lambda t: _shuffled_tensor(*t)),
    ),
    st.sampled_from(_FIELDS),
)
def test_component_build_matches_whole_ring_elimination(spec, field):
    _assert_matches_oracle(spec.with_field(field))


def test_builtin_tensor_rings_match_whole_ring_elimination():
    for name in _TENSOR_BUILTINS + ("torus:3,3",):
        for field in _FIELDS:
            _assert_matches_oracle(F.builtin(name, field).ring_spec)


def test_proportional_factor_residues_merge_in_the_product():
    # x1^2 = 2 x2^2 and x3^2 = 2 x4^2: x1^2 and x2^2 are distinct classes of
    # the first factor (residues 1 and 1/2 on x1^2), yet x1^2 x4^2 and
    # x2^2 x3^2 both reduce to x1^2 x3^2 / 2 and share one product class
    for field in _FIELDS:
        spec = M.QuotientRingSpec(4, field, [_glue(4, 0, 1), _glue(4, 2, 3)], 4)
        _assert_matches_oracle(spec)
        ring = M.build_ring(spec)
        glued = ring.mul(0, (2, 0, 0, 2))
        assert glued == ring.mul(0, (0, 2, 2, 0)) is not None
        assert walked_members(ring)[glued] == frozenset({(2, 0, 0, 2), (0, 2, 2, 0)})
        factor = M.build_ring(M.QuotientRingSpec(2, field, [_glue(2, 0, 1)], 4))
        assert factor.mul(0, (2, 0)) != factor.mul(0, (0, 2))


def test_a_merged_product_class_keeps_the_least_rep():
    # x2^2 = c x4^2, x0 x2 = 0 and x1^2 = c x3^2, components {x0, x2, x4} and
    # {x1, x3}: the pair (x4^2, x1^2) opens the product class of c x3^2 x4^2,
    # and the later pair (x2^2, x3^2) joins it with a smaller rep, which replaces the first
    def binomial(a, b, c):
        return M.Polynomial({tuple(2 * (j == a) for j in range(5)): 1,
                             tuple(2 * (j == b) for j in range(5)): -c})

    for c, field in itertools.product((2, -1), (M.RATIONALS, M.FieldSpec(32003))):
        gens = [binomial(2, 4, c), M.Polynomial({(1, 0, 1, 0, 0): 1}), binomial(1, 3, c)]
        spec = M.QuotientRingSpec(5, field, gens, 4)
        _assert_matches_oracle(spec)
        ring = M.build_ring(spec)
        glued = ring.mul(0, (0, 2, 0, 0, 2))
        assert glued == ring.mul(0, (0, 0, 2, 2, 0)) is not None
        assert ring.classes[glued].rep == (0, 0, 2, 2, 0)


def test_interleaved_components():
    # generators join x1 with x3 and x2 with x4, so the components interleave
    gens = [_glue(4, 0, 2), _glue(4, 1, 3), M.Polynomial({(1, 0, 1, 0): 1, (0, 0, 2, 0): 3})]
    assert [vs for vs, _ in M.rings._components(M.QuotientRingSpec(4, M.RATIONALS, gens, 4))] == [
        [0, 2], [1, 3],
    ]
    for field in _FIELDS:
        _assert_matches_oracle(M.QuotientRingSpec(4, field, gens, 4))


def test_free_variable_is_its_own_component():
    # x3 appears in no generator: a polynomial-ring factor between two glued ones
    gens = [_glue(5, 0, 1), _glue(5, 3, 4)]
    assert [vs for vs, _ in M.rings._components(M.QuotientRingSpec(5, M.RATIONALS, gens, 4))] == [
        [0, 1], [2], [3, 4],
    ]
    for field in _FIELDS:
        spec = M.QuotientRingSpec(5, field, gens, 4)
        _assert_matches_oracle(spec)
        assert M.build_ring(spec).mul(0, (0, 0, 4, 0, 0)) is not None


def test_coefficient_outside_the_prime_field_inside_a_factor():
    gens = [_glue(4, 0, 1), _glue(4, 2, 3), M.Polynomial({(0, 0, 1, 1): Fraction(1, 7)})]
    spec = M.QuotientRingSpec(4, M.FieldSpec(7), gens, 3)
    assert len(M.rings._components(spec)) == 2
    with pytest.raises(RingError, match="not defined over prime:7"):
        M.build_ring(spec)


def test_unit_ideal_factor():
    # a degree-0 generator in one component is refused with the spec; a factor
    # holding all its variables is K, and the product is the other factor
    with pytest.raises(RingError, match="unit ideal"):
        M.QuotientRingSpec(4, M.RATIONALS, [_glue(4, 0, 1), M.monomial((0, 0, 0, 0))], 3)
    gens = [_glue(4, 0, 1), M.monomial((0, 0, 1, 0)), M.monomial((0, 0, 0, 1))]
    for field in _FIELDS:
        spec = M.QuotientRingSpec(4, field, gens, 3)
        _assert_matches_oracle(spec)
        ring = M.build_ring(spec)
        assert ring.hilbert() == (1, 2, 2, 2)
        assert ring.mul(0, (0, 0, 1, 0)) is None and ring.mul(0, (1, 0, 0, 2)) is None


def test_class_ids_are_poset_element_ids():
    # one numbering: class x of the ring is element x of its poset of monomials
    for name in _TENSOR_BUILTINS + ("kk:3", "torus:3,1", "diamond:1", "be-ring:3,2,1", "non-lli"):
        ring = M.build_ring(non_lli_spec() if name == "non-lli" else F.builtin(name, M.RATIONALS).ring_spec)
        poset = M.poset_of_monomials(ring)
        assert poset.n == len(ring.classes)
        members = walked_members(ring)
        for x, c in enumerate(ring.classes):
            assert poset.labels[x] == c.rep and poset.rank[x] == c.degree
            assert x in ring.levels[c.degree]
            assert ring.mul(0, c.rep) == x and min(members[x]) == c.rep


@pytest.mark.parametrize("field", [M.RATIONALS, M.FieldSpec(32003)], ids=["q", "p"])
def test_class_poset_matches_the_normaliser_and_is_built_once(field):
    for name in _TENSOR_BUILTINS:
        ring = M.build_ring(F.builtin(name, field).ring_spec)
        poset = M.poset_of_monomials(ring)
        assert poset is M.poset_of_monomials(ring) is M.RingContext(ring).poset
        live = {(x, y) for x, ys in enumerate(zip(*ring.times)) for y in ys if y is not None}
        rank = [c.degree for c in ring.classes]
        want = normalised_poset_oracle(len(rank), live, rank, [c.rep for c in ring.classes])
        assert (poset.covers, poset.up, poset.down, poset.levels) == want, name


def test_foreign_poset_is_refused():
    # a poset whose labels are not the class reps in id order would misaddress classes
    ring = M.build_ring(F.cl_ring([3, 4], M.RATIONALS))
    poset = M.poset_of_monomials(ring)
    flipped = M.RankedPoset(poset.n, poset.covers, poset.rank, [lab[::-1] for lab in poset.labels])
    other = M.poset_of_monomials(M.build_ring(F.cl_ring([4, 3], M.RATIONALS)))
    for bad in (flipped, other, M.multiset_lattice([3, 4, 1])):
        with pytest.raises(RingError, match="poset of monomials"):
            M.is_monomial_order(ring, rep_lex_order(bad))
    assert M.is_monomial_order(ring, rep_lex_order(poset)) == (True, None)


def test_oversized_component_is_refused_before_elimination():
    # one generator joins all 30 variables: C(60, 30) monomials up to D = 30
    spec = M.QuotientRingSpec(30, M.FieldSpec(), [M.monomial((1,) * 30)], 30)
    with pytest.raises(M.ResourceLimitError, match=r"component of 30 variables .* \(limit 1000000\)"):
        M.build_ring(spec)


def test_oversized_fold_is_refused_from_factor_class_counts():
    # kk:d is d copies of K[x]/(x^2); without merges the fold makes 2^d classes
    assert sum(series_product([[1, 1] + [0] * 5] * 6, 6)) == 64
    assert len(M.build_ring(F.kk_ring(6)).classes) == 64
    with pytest.raises(M.ResourceLimitError, match=r"16777216 products .* \(limit 1000000\)"):
        M.build_ring(F.kk_ring(24))


# ---------------------------------------------------------------------------
# The correspondence theorem: the tensor product of rings has the Cartesian
# product of their posets of monomials, quotiented by the merge of product
# classes whose factor classes have proportional residues.


def _component_factors(spec):
    """(factor specs, D): the specs of spec's variable components and spec's D;
    the components must be consecutive blocks, so that product labels concatenate."""
    factors, order = [], []
    for variables, gens in M.rings._components(spec):
        order.extend(variables)
        fgens = [
            M.Polynomial({tuple(e[v] for v in variables): c for e, c in g.terms.items()})
            for g in gens
        ]
        factors.append(M.QuotientRingSpec(len(variables), spec.field, fgens, spec.D))
    assert order == list(range(spec.d))
    return factors, spec.D


def _has_proportional_classes(ring):
    """Whether two classes of one degree have proportional residues."""
    p = ring.field.p
    for ids in ring.levels:
        seen = set()
        for x in ids:
            res = sorted(ring.classes[x].residue.items())
            lead = res[0][1]
            seen.add(tuple((k, v * pow(lead, -1, p) % p if p else v / lead) for k, v in res))
        if len(seen) < len(ids):
            return True
    return False


def _assert_product_correspondence(specs, D, field):
    """The class poset of the tensor of the specs, all at D over field, against
    the Cartesian product of the factor class posets truncated at D."""
    specs = [M.QuotientRingSpec(f.d, field, f.generators, D) for f in specs]
    factors = list(map(M.build_ring, specs))
    ring = M.build_ring(M.tensor_ring(specs, D))
    poset = M.poset_of_monomials(ring)
    product = M.cartesian_product([M.poset_of_monomials(f) for f in factors], truncation=D)
    if not any(map(_has_proportional_classes, factors)):
        assert poset == product
    else:
        merge = [ring.mul(0, label) for label in product.labels]
        assert {(merge[a], merge[b]) for a, b in product.covers} == set(poset.covers)
        assert set(merge) == set(range(poset.n))
    return poset, product


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        st.sampled_from(_TENSOR_BUILTINS).map(
            lambda name: _component_factors(F.builtin(name).ring_spec)
        ),
        st.tuples(st.lists(_factor_specs(), min_size=2, max_size=3), st.integers(0, 5)),
    ),
    st.sampled_from(_FIELDS),
)
def test_class_poset_is_the_product_of_the_factor_posets(factors_and_D, field):
    _assert_product_correspondence(*factors_and_D, field)


def test_proportional_factor_classes_give_a_quotient_of_the_product():
    # x1^2 = 2 x2^2 in each factor: (x1^2, x4^2) and (x2^2, x3^2) merge in
    # degree 4, so the class poset is a proper quotient of the product
    factor = M.QuotientRingSpec(2, M.RATIONALS, [_glue(2, 0, 1)], 4)
    assert _has_proportional_classes(M.build_ring(factor))
    poset, product = _assert_product_correspondence([factor, factor], 4, M.RATIONALS)
    assert poset.n == product.n - 1


# ---------------------------------------------------------------------------
# Tree rings: the walk along ring.times against the member-based recognition
# in conftest, fed by the whole-ring elimination.


def _power(d, *exps):
    """The exponent vector with the given (variable, exponent) pairs in d variables."""
    e = [0] * d
    for v, a in exps:
        e[v] += a
    return tuple(e)


@st.composite
def _tree_like_specs(draw):
    """Specs on 1..4 variables at D in 0..4: all pairs of variables or some of
    them annihilate, each variable has a power cap or not, and sometimes
    x_i^a - x_j^a (a = 1: a glued linear form) joins two of them."""
    d = draw(st.integers(1, 4))
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    if pairs and draw(st.booleans()):
        pairs = draw(st.lists(st.sampled_from(pairs), unique=True))
    gens = [M.monomial(_power(d, (i, 1), (j, 1))) for i, j in pairs]
    for v in range(d):
        cap = draw(st.one_of(st.none(), st.integers(1, 4)))
        if cap is not None:
            gens.append(M.monomial(_power(d, (v, cap))))
    if d > 1 and draw(st.integers(0, 3)) == 0:
        i, j = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
        a = draw(st.integers(1, 2))
        gens.append(M.Polynomial({_power(d, (i, a)): 1, _power(d, (j, a)): -1}))
    return M.QuotientRingSpec(d, M.FieldSpec(), gens, draw(st.integers(0, 4)))


@settings(max_examples=200, deadline=None)
@given(_tree_like_specs())
def test_tree_recognition_matches_the_member_oracle(spec):
    assert M.recognize_tree_ring(M.build_ring(spec)) == member_tree_ring_oracle(spec)


def test_mul_refuses_misfit_exponent_vectors():
    ring = M.build_ring(F.cl_ring([3, 4], M.RATIONALS))
    for exp in ((1,), (1, 0, 0), (2, -1), (-1, 1)):
        with pytest.raises(RingError, match="exponent vector"):
            ring.mul(0, exp)
    with pytest.raises(RingError, match="exceeds truncation"):
        ring.mul(0, (3, 3))
    assert ring.mul(0, (1, 2)) == ring.times[1][ring.times[1][ring.times[0][0]]]


@pytest.mark.parametrize("build, message", [
    (lambda: M.Polynomial({}).degree(), "zero polynomial has no degree"),
    (lambda: M.QuotientRingSpec(0, M.FieldSpec(), (), 1), "need at least one variable"),
    (lambda: M.QuotientRingSpec(1, M.FieldSpec(), (M.Polynomial({}),), 1),
     "generators must be nonzero"),
    (lambda: M.QuotientRingSpec.from_json({"d": 1, "field": "q", "generators": {}, "D": 1}),
     "ring spec generators must be a list, got {}"),
    (lambda: M.tensor_ring([M.QuotientRingSpec(1, M.FieldSpec(p), (), 1) for p in (2, 3)]),
     "tensor factors must share a field"),
    (lambda: M.tensor_ring([]), "tensor of zero rings is not defined"),
])
def test_ring_refusals(build, message):
    with pytest.raises(RingError, match=re.escape(message)):
        build()
