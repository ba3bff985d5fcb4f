import json
from functools import lru_cache
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

import macaulay as M
from macaulay import families as F
from macaulay.errors import OrderError, PosetError
from macaulay.orders import order_from_recipe

from conftest import (
    is_isomorphic_by_labels,
    pulled_back_be_ring_order,
    pulled_back_mermin_murai_ring_order,
)


def test_star_shapes():
    s1 = F.star(1)
    assert s1.n == 2 and [len(l) for l in s1.levels] == [1, 1]
    s3 = F.star(3)
    assert [len(l) for l in s3.levels] == [3, 1]
    assert [len(l) for l in M.dual(s3).levels] == [1, 3]


def test_spider_shapes():
    sp = F.spider(2, 2)
    assert sp.n == 7
    assert [len(l) for l in sp.levels] == [3, 3, 1]
    with pytest.raises(PosetError):
        F.spider(-1, 2)


def test_spider_with_unit_legs_is_star():
    # one-element legs collapse the spider to a basic star
    assert F.spider(2, 1) == F.star(3)
    assert is_isomorphic_by_labels(F.spider(3, 1), F.star(4), lambda l: l)


def test_star_product_level_sizes():
    p = M.cartesian_product([F.star(2), F.star(2)])
    assert [len(l) for l in p.levels] == [4, 4, 1]


def test_mermin_murai_order_is_macaulay():
    # (3,3) separates the chaser used for the starts: only the dual-side
    # (hyperrectangle) choice survives there
    for ns in [(2, 2), (3, 2), (3, 3), (2, 1), (3, 3, 2)]:
        p = F.colored_poset(ns)
        o = F.mermin_murai_order(p, ns)
        assert M.is_macaulay(p, o).holds, ns


def test_mermin_murai_matches_a_domination_order():
    # on the ring side the block order coincides with a coordinate-permuted lex
    import itertools

    ns = [3, 2]
    ring = M.build_ring(F.colored_sf_ring(ns, M.RATIONALS))
    p = M.poset_of_monomials(ring)
    table = F.mermin_murai_order(p, ns, side="ring")
    found = None
    for perm in itertools.permutations(range(1, 6)):
        key = lambda x: tuple(p.labels[x][i - 1] for i in perm)
        ids = sorted(range(p.n), key=key)
        if tuple(table.position[x] for x in ids) == tuple(range(p.n)):
            found = perm
            break
    assert found == (3, 2, 5, 1, 4)


def test_mermin_murai_single_factor_is_toset_order():
    p = F.colored_poset([3])
    o = F.mermin_murai_order(p, [3])
    assert [p.labels[x] for x in o.by_position()] == [3, 0, 1, 2]


def test_mermin_murai_unit_factors_reduce_to_border_chaser():
    ns = [1, 1, 1]
    p = F.colored_poset(ns)
    o = F.mermin_murai_order(p, ns)
    # relabel to the grid: bottom (label 1) -> 0, leg (label 0) -> 1
    vec = {x: tuple(0 if v == 1 else 1 for v in p.labels[x]) for x in range(p.n)}
    grid = M.multiset_lattice([2, 2, 2])
    bc = M.border_chaser(grid)
    for x in range(p.n):
        assert o.position[x] == bc.position[grid.id_of(vec[x])]


def test_mermin_murai_requires_sorted_sizes():
    p = F.colored_poset([2, 3])
    with pytest.raises(OrderError):
        F.mermin_murai_order(p, [2, 3])


def test_be_order_is_macaulay_small():
    for (k, l, n) in [(1, 2, 1), (2, 2, 1), (0, 3, 1), (1, 1, 2), (2, 1, 2), (1, 2, 2), (1, 1, 3)]:
        p = F.bezrukov_elsasser_poset(k, l, n)
        o = F.bezrukov_elsasser_order(p, k, l, n)
        assert M.is_macaulay(p, o).holds, (k, l, n)


def test_be_single_leg_is_lex_on_grid():
    # k=0: the spider is a chain, every block is the whole toset
    p = F.bezrukov_elsasser_poset(0, 3, 2)
    o = F.bezrukov_elsasser_order(p, 0, 3, 2)
    q = M.multiset_lattice([4, 4])

    def to_grid(label):
        return tuple(v if v < 3 else 3 for v in label)

    for x in range(p.n):
        assert o.position[x] == M.lex_order(q).position[q.id_of(to_grid(p.labels[x]))]


def test_be_unit_legs_blocks_are_lex():
    # with one-element legs the per-block domination order degenerates to lex
    from macaulay.orders import BlockSpec, block_order

    k, n = 2, 2
    p = F.bezrukov_elsasser_poset(k, 1, n)
    o = F.bezrukov_elsasser_order(p, k, 1, n)
    toset = list(range(k + 1)) + [k + 1]
    index = {v: i for i, v in enumerate(toset)}
    relabeled = M.RankedPoset(
        p.n,
        p.covers,
        p.rank,
        [tuple(index[v] for v in p.labels[x]) for x in range(p.n)],
    )
    plain = block_order(
        relabeled,
        BlockSpec(
            (tuple(range(1, k + 2)),) * n, {"kind": "bc"}, {"kind": "lex"}
        ),
    )
    assert o.position == plain.position


def test_torus_order_is_macaulay():
    for ks in [[3], [2, 2], [3, 3], [2, 3]]:
        b = M.build_ring(F.torus_ring(ks, M.RATIONALS))
        p = M.poset_of_monomials(b)
        o = F.torus_order(p, ks)
        assert M.is_macaulay(p, o).holds, ks


def test_basic_torus_poset_is_the_square_grid():
    ring = M.build_ring(F.torus_basic_ring(2, M.RATIONALS))
    p = M.poset_of_monomials(ring)
    grid = M.multiset_lattice([2, 2])
    relabel = {(0, 0): (0, 0), (1, 0): (1, 0), (0, 1): (0, 1), (0, 2): (1, 1)}
    assert is_isomorphic_by_labels(p, grid, lambda lab: relabel[lab])


def test_torus_order_requires_sorted_parameters():
    b = M.build_ring(F.torus_ring([3, 2], M.RATIONALS))
    with pytest.raises(OrderError):
        F.torus_order(M.poset_of_monomials(b), [3, 2])


def test_diamond_order_is_macaulay():
    for n in (1, 2):
        b = M.build_ring(F.diamond_ring(n, M.RATIONALS))
        p = M.poset_of_monomials(b)
        o = F.diamond_order(p, n)
        assert M.is_macaulay(p, o).holds, n


def test_leck_poset_shapes():
    lk2 = M.build_ring(F.leck_basic_ring(2, M.RATIONALS))
    p2 = M.poset_of_monomials(lk2)
    assert is_isomorphic_by_labels(p2, M.dual(F.star(2)), lambda lab: {(0, 0): 2, (1, 0): 0, (0, 1): 1}[lab])
    lk3 = M.build_ring(F.leck_basic_ring(3, M.RATIONALS))
    assert [len(l) for l in M.poset_of_monomials(lk3).levels] == [1, 3, 3]
    # tensor with a one-variable square-free factor: the product gains a chain
    combined = M.build_ring(F.leck_ring([2], 1, M.RATIONALS))
    prod = M.cartesian_product([p2, M.multiset_lattice([2])])
    assert is_isomorphic_by_labels(M.poset_of_monomials(combined), prod, lambda l: l)


def test_leck_has_no_default_order():
    b = F.builtin("leck:2+2,1")
    with pytest.raises(OrderError):
        b.default_order()


def _ring_labels(element_tuple, k, length):
    """The tensor-ring exponent vector of a spider-power element, factor by factor."""
    return tuple(v for a in element_tuple for v in F._spider_rep(a, k, length))


def test_family_ring_posets_match_combinatorial_side():
    # colored square-free ring vs product of dual stars (stars are spiders
    # with one-element legs)
    ns = [2, 2]
    ring = M.build_ring(F.colored_sf_ring(ns, M.RATIONALS))
    rp = M.poset_of_monomials(ring)
    cp = F.colored_poset(ns)
    assert is_isomorphic_by_labels(cp, rp, lambda lab: _ring_labels(lab, ns[0] - 1, 1))
    # spider power vs tensor ring, through the dual
    k, l, n = 1, 2, 2
    ring2 = M.build_ring(F.be_ring(k, l, n, M.RATIONALS))
    rp2 = M.poset_of_monomials(ring2)
    dp = M.dual(F.bezrukov_elsasser_poset(k, l, n))
    assert is_isomorphic_by_labels(dp, rp2, lambda lab: _ring_labels(lab, k, l))


def _spider_powers_within(limit):
    return st.tuples(st.integers(0, 3), st.integers(1, 3), st.integers(1, 3)).filter(
        lambda c: ((c[0] + 1) * c[1] + 1) ** c[2] <= limit
    )


@lru_cache(maxsize=None)
def _class_poset(spec_key):
    family, params = spec_key
    if family == "be":
        spec = F.be_ring(*params, field=M.RATIONALS)
    else:
        spec = F.colored_sf_ring(list(params), M.RATIONALS)
    return M.poset_of_monomials(M.build_ring(spec))


@settings(max_examples=40, deadline=None)
@given(_spider_powers_within(400))
def test_be_ring_order_equals_pulled_back_spider_order(case):
    # ranking ring labels in ring coordinates and reversing gives the
    # pull-back of the dual spider-power order, recipe included
    p = _class_poset(("be", case))
    table = F.be_ring_order(p, *case)
    oracle = pulled_back_be_ring_order(p, *case)
    assert table.position == oracle.position
    assert table.recipe == oracle.recipe


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=3)
    .map(lambda ns: tuple(sorted(ns, reverse=True)))
    .filter(lambda ns: prod(n + 1 for n in ns) <= 400)
)
def test_mermin_murai_ring_order_equals_pulled_back_poset_order(ns):
    p = _class_poset(("colored", ns))
    table = F.mermin_murai_order(p, ns, side="ring")
    oracle = pulled_back_mermin_murai_ring_order(p, ns)
    assert table.position == oracle.position
    assert table.recipe == oracle.recipe


def test_be_ring_order_matches_dual_side():
    k, l, n = 1, 2, 2
    ring = M.build_ring(F.be_ring(k, l, n, M.RATIONALS))
    p = M.poset_of_monomials(ring)
    o = F.be_ring_order(p, k, l, n)
    assert M.is_macaulay(p, o).holds
    assert M.is_macaulay(p, o, direction="upper").holds


def test_builtin_round_trips():
    for spec in ["multiset:3,4", "star:3", "spider:2,2", "be:1,2,2", "kk:3", "cl:3,4",
                 "colored:2,2", "colored-ring:2,2", "torus:3,1", "diamond:1", "leck:2,1"]:
        b = F.builtin(spec)
        assert b.poset.n >= 1


def test_unknown_builtin():
    with pytest.raises(PosetError):
        F.builtin("klein:4")


def test_family_recipes_regenerate():
    cases = []
    p = F.colored_poset([2, 2])
    cases.append((p, F.mermin_murai_order(p, [2, 2])))
    q = F.bezrukov_elsasser_poset(1, 2, 2)
    cases.append((q, F.bezrukov_elsasser_order(q, 1, 2, 2)))
    b = F.builtin("torus:3,2")
    cases.append((b.poset, b.default_order()))
    d = F.builtin("diamond:2")
    cases.append((d.poset, d.default_order()))
    r = F.builtin("be-ring:3,2,2")
    cases.append((r.poset, r.default_order()))
    for poset, table in cases:
        again = order_from_recipe(poset, table.recipe)
        assert again.position == table.position, table.recipe


def test_builtins_carry_json_recipes():
    # a builtin's published order and candidate are recipes, resolved like a
    # recipe file; the recipe a table records is the one the builtin carries
    for spec in ["multiset:3,4", "chain:4", "star:3", "spider:2,2", "be:1,2,2", "colored:2,1",
                 "kk:3", "cl:3,4", "colored-ring:2,2", "be-ring:3,2,2", "torus:3,2", "diamond:1"]:
        b = F.builtin(spec)
        recipe = json.loads(json.dumps(b.order_recipe()))
        assert b.default_order() == order_from_recipe(b.poset, recipe), spec
        assert b.default_order().recipe == recipe, spec
    for spec, sizes in [("torus:3,2", [2, 2]), ("diamond:2", [3, 3])]:
        cand = F.builtin(spec).monomial_order_candidate()
        assert cand.recipe == {"kind": "tensor-degree-lex", "sizes": sizes}
    assert F.builtin("kk:3").monomial_order_candidate() is None


def test_acceptance_constructions_registry():
    cons = F.acceptance_constructions()
    assert len(cons) == 10
    names = [c[0] for c in cons]
    assert len(set(names)) == 10
