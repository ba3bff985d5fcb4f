import hashlib
import json
import re
import time
from functools import lru_cache
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

import macaulay as M
from macaulay import families as F
from macaulay.errors import OrderError, PosetError, ResourceLimitError, RingError
from macaulay.families import order_from_recipe
from macaulay.orders import table_from_vectors
from macaulay.rings import degree_rep_lex_order

from conftest import (
    acceptance_constructions,
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
    bc = order_from_recipe(grid, {"kind": "bc"})
    for x in range(p.n):
        assert o.position[x] == bc.position[grid.id_of(vec[x])]


def test_block_and_tensor_orders_refuse_labels_their_split_cannot_cut():
    # a short label once gave a short position vector and a verdict; an int
    # label or a part that is not all ints ended in a TypeError
    colored = F.colored_poset([1, 1])
    labels = list(colored.labels)
    labels[0] = labels[0][:1]
    short = M.RankedPoset(colored.n, colored.covers, colored.rank, labels)
    with pytest.raises(OrderError, match="does not match the factor tosets"):
        F.mermin_murai_order(short, [1, 1])
    with pytest.raises(OrderError, match="label 0 does not match the factor tosets"):
        F.torus_order(F.star(3), [2])
    grid = M.multiset_lattice([2, 2])
    assert F.tensor_monomial_order(grid, [[0], [1]]).recipe["kind"] == "tensor-degree-lex"
    for bad in (F.star(3), M.RankedPoset(2, [], [0, 0], [(0, "a"), (1, 0)]), short):
        with pytest.raises(OrderError, match="does not match the factor tosets"):
            F.tensor_monomial_order(bad, [[0], [1]])
    # a factor of size 0 or below once cut the labels anyway, and the grid was "Macaulay"
    for sizes in ([0, 2], [-1, 3], [2, 0]):
        with pytest.raises(OrderError, match="factor sizes must be positive"):
            order_from_recipe(grid, {"kind": "tensor-degree-lex", "sizes": sizes})


def test_mermin_murai_requires_sorted_sizes():
    p = F.colored_poset([2, 3])
    with pytest.raises(OrderError):
        F.mermin_murai_order(p, [2, 3])


BE_SMALL = [(1, 2, 1), (2, 2, 1), (0, 3, 1), (1, 1, 2), (2, 1, 2), (1, 2, 2), (1, 1, 3)]


def test_be_order_is_macaulay_small():
    for (k, l, n) in BE_SMALL:
        p = F.bezrukov_elsasser_poset(k, l, n)
        o = F.bezrukov_elsasser_order(p, k, l, n)
        assert M.is_macaulay(p, o).holds, (k, l, n)


def test_be_block_recipe_round_trips_through_json():
    # the per-block domination rule is a JSON value, so the recipe survives a
    # recipe file unchanged and ranks the same vectors the same way, on the
    # poset side and, reversed, on the be-ring side
    ring = F.builtin("be-ring:3,2,2")
    cases = [("be", F.bezrukov_elsasser_poset(*params), params) for params in BE_SMALL]
    cases.append(("be-ring", ring.poset, tuple(ring.order_recipe()["params"])))
    for family, p, params in cases:
        tosets, cuts, starts, blocks = F._FAMILIES[family][2](list(params), "poset")
        recipe = {"kind": "block", "cuts": cuts, "starts": {"kind": starts}, "blocks": blocks}
        again = json.loads(json.dumps(recipe))
        assert again == recipe and again["blocks"] == "dom-by-block"
        table = table_from_vectors(p, *F._factor_positions(p, tosets), again)
        if family == "be":
            assert table.position == F.bezrukov_elsasser_order(p, *params).position, params
        else:
            reversed_positions = [p.n - 1 - q for q in table.position]
            assert reversed_positions == list(F.be_ring_order(p, *params).position)


def _ring_poset(spec):
    return M.poset_of_monomials(M.build_ring(spec))


def _digest(table):
    text = json.dumps([table.recipe, list(table.position)], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of the JSON of [table.recipe, table.position] for each family-default
# order, pinned from the builders before they became rows of one table
FAMILY_DIGESTS = {
    "colored:[1]": "ee5a633e7bd2276a17cfaa54f6cf22dfbb5997709892337f3441a4582c8ab2c5",
    "colored:[2, 1]": "c5cbfb7a14c9f08906a5d1794b7bcebee0e5b2fbd386abf69e7a4e6d7a72c7c6",
    "colored:[3, 2, 2]": "e7466c262fba5040abff65708bb690c889addc877cd4d223c337a60fe9cede3b",
    "colored-ring:[2, 2]": "e42a0eaf51867bc224ec6ce3ac8358bbf87fcc8ded213c892f52e36105ddcf18",
    "colored-ring:[2, 2, 2]": "9edf9f2420ab8e68d4cf24e6d76de8ca0eb146947ebc3841475bd3dc7142272e",
    "be:1,2,1": "9d44588269b7bc79198223156b2eb642423bea9db14b9cc23382c467b1b5c3ce",
    "be:2,2,1": "d956aada07f693929c376293dc83e92f2c4d38dbd88f54fe53c9fe7fea640f12",
    "be:0,3,1": "724159826353eda5598ee11011a515f90c67c1371a19d838a9c436d22c3900cd",
    "be:1,1,2": "19905d9f6d3bf48d515cd843904a1928713536f209d3433137deca004574b5c4",
    "be:2,1,2": "e163320d5ea0d2588aa7b3470e4433eec0b13a70790d0dc0201521e40991c591",
    "be:1,2,2": "07789b082eb0de10f8dcecf2f2b400b64d6cc3882d7967f9c73d9b2068c9c4a5",
    "be:1,1,3": "c4471ba8b354f9d14e30377fcd8f8ee063c8e2582c827bd59be0e1dd00d82da7",
    "be-ring:3,2,2": "e331b2924053a52f070f7bf46b4f193adc704015fea2bf2c5de9f483d4c2fc92",
    "be-ring:2,3,2": "e251c68632fae8f47413fe927d0a897bdbca982b1d2ffdea26bfa77ad9b60bd6",
    "torus:[2]": "b0ffda6b019acfeb4961970af89dc06d2510aa8ce76bfcee8fac25863660d6ef",
    "torus:[2, 3]": "5558c1675a3c667c3639b5fa8a5f8865f7b05622f73b38697b1245858e171d98",
    "torus:[3, 3]": "8df30bb9b1524f9912c7857d6251f4b4416bd7d29d9f7a45374118fbb38ce0be",
    "diamond:1": "4184b651d4e62ad597d7751d4b9150a12d61363c2524e36d04319953ca807f3e",
    "diamond:2": "68ee0f176e7f4ed794651e681d6dd01c3d847968df30804a385dcaecb47b0794",
}


def _family_orders():
    """(name, poset, builder's table) for every FAMILY_DIGESTS case."""
    for ns in ([1], [2, 1], [3, 2, 2]):
        p = F.colored_poset(ns)
        yield f"colored:{ns}", p, F.mermin_murai_order(p, ns)
    for ns in ([2, 2], [2, 2, 2]):
        p = _ring_poset(F.colored_sf_ring(ns))
        yield f"colored-ring:{ns}", p, F.mermin_murai_order(p, ns, side="ring")
    for k, l, n in BE_SMALL:
        p = F.bezrukov_elsasser_poset(k, l, n)
        yield f"be:{k},{l},{n}", p, F.bezrukov_elsasser_order(p, k, l, n)
    for desc in ("be-ring:3,2,2", "be-ring:2,3,2"):
        b = F.builtin(desc)
        yield desc, b.poset, F.be_ring_order(b.poset, *b.order_recipe()["params"])
    for ks in ([2], [2, 3], [3, 3]):
        p = _ring_poset(F.torus_ring(ks))
        yield f"torus:{ks}", p, F.torus_order(p, ks)
    for n in (1, 2):
        p = _ring_poset(F.diamond_ring(n))
        yield f"diamond:{n}", p, F.diamond_order(p, n)


def test_family_orders_match_pinned_digests():
    seen = set()
    for name, p, table in _family_orders():
        assert _digest(table) == FAMILY_DIGESTS[name], name
        assert order_from_recipe(p, json.loads(json.dumps(table.recipe))) == table, name
        seen.add(name)
    assert seen == set(FAMILY_DIGESTS)


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
    recipe = {"kind": "block", "cuts": [list(range(1, k + 2))] * n,
              "starts": {"kind": "bc"}, "blocks": {"kind": "lex"}}
    assert o.position == order_from_recipe(relabeled, recipe).position


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
    # only colored reads "side"; any other family ignores it, whatever it holds
    for side in ("ring", "poset", "nonsense"):
        for poset, table in cases[1:]:
            recipe = {**table.recipe, "side": side}
            again = order_from_recipe(poset, recipe)
            assert again.position == table.position and again.recipe == recipe, recipe


def test_builtins_carry_json_recipes():
    # a builtin's published order is a recipe, resolved like a recipe file;
    # the recipe a table records is the one the builtin carries
    for spec in ["multiset:3,4", "chain:4", "star:3", "spider:2,2", "be:1,2,2", "colored:2,1",
                 "kk:3", "cl:3,4", "colored-ring:2,2", "be-ring:3,2,2", "torus:3,2", "diamond:1"]:
        b = F.builtin(spec)
        recipe = json.loads(json.dumps(b.order_recipe()))
        assert b.default_order() == order_from_recipe(b.poset, recipe), spec
        assert b.default_order().recipe == recipe, spec
    # no builtin carries a monomial-order witness: on the glued rings, where
    # neither the table nor degree-rep-lex is a monomial order, the ring's
    # check works out the product order over its components
    for spec, blocks in [("torus:3,2", [[0, 1], [2, 3]]), ("diamond:2", [[0, 1, 2], [3, 4, 5]])]:
        b = F.builtin(spec)
        assert not M.is_monomial_order(b.ring, degree_rep_lex_order(b.poset))[0]
        assert M.is_monomial_order(b.ring, F.tensor_monomial_order(b.poset, blocks))[0]
        v = M.is_macaulay_ring(b.ring, b.default_order(), mode="poset")
        assert v.order_is_monomial is False and v.monomial_order_verified is True, spec


def test_acceptance_constructions_registry():
    cons = acceptance_constructions()
    assert len(cons) == 10
    names = [c[0] for c in cons]
    assert len(set(names)) == 10


def _spec_json(d, D, *gens):
    """A spec's to_json() over p:32003; a generator is a monomial's exponents,
    or a list of (exponents, coefficient) terms in to_json's sorted order."""
    terms = [[(g, "1")] if isinstance(g, tuple) else g for g in gens]
    generators = [[{"exp": list(e), "coef": c} for e, c in g] for g in terms]
    return {"d": d, "field": "p:32003", "generators": generators, "D": D}


def test_basic_ring_constructors_keep_their_specs():
    # `check-ring` hashes spec.to_json(), so generator order is part of the output
    cases = [
        (F.kk_ring(3), _spec_json(3, 3, (2, 0, 0), (0, 2, 0), (0, 0, 2))),
        (F.kk_ring(1), _spec_json(1, 1, (2,))),
        (F.be_basic_ring(2, 1), _spec_json(
            3, 1, (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1))),
        (F.be_basic_ring(1, 3), _spec_json(2, 3, (4, 0), (0, 4), (1, 1))),
        (F.be_basic_ring(0, 2), _spec_json(1, 2, (3,))),
        (F.torus_basic_ring(2), _spec_json(
            2, 2, (3, 0), (0, 3), (1, 1), [((0, 2), "-1"), ((2, 0), "1")])),
        (F.torus_basic_ring(3), _spec_json(
            2, 3, (4, 0), (0, 4), (1, 1), [((0, 3), "-1"), ((3, 0), "1")])),
        (F.cl_ring([2, 3]), _spec_json(2, 3, (2, 0), (0, 3))),
        (F.leck_basic_ring(2), _spec_json(2, 1, (2, 0), (0, 2), (1, 1))),
        (F._colored_basic(2, M.FieldSpec()), _spec_json(2, 1, (2, 0), (1, 1), (0, 2))),
        (F.diamond_basic_ring(), _spec_json(
            3, 2, (3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 0), (1, 0, 1), (0, 1, 1),
            [((0, 2, 0), "-1"), ((2, 0, 0), "1")], [((0, 0, 2), "-1"), ((0, 2, 0), "1")])),
    ]
    for spec, want in cases:
        assert spec.to_json() == want


def test_negative_leck_grid_is_a_ring_error():
    with pytest.raises(RingError, match="nonnegative size, got -1"):
        F.leck_ring([2], -1)
    with pytest.raises(RingError, match="nonnegative size, got -1"):
        F.builtin("leck:2,-1")
    assert F.leck_ring([2], 0) == F.leck_basic_ring(2)


@pytest.mark.parametrize("build, fits", [
    (F.kk_ring, 1000),  # d generators of one term over d variables
    (lambda n: F._colored_basic(n, M.FieldSpec()), 125),  # n(n+1)/2 over n
    (lambda d: F.be_basic_ring(d - 1, 1), 125),  # d(d+1)/2 over d
    (F.leck_basic_ring, 999),  # d + 1 over d
    (lambda n: M.tensor_power(F.kk_ring(1), n), 1000),  # n over n variables
])
def test_generators_are_counted_before_they_are_listed(build, fits):
    build(fits)
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="the generators would have .* exponent entries"):
        build(fits + 1)
    # a count too long to print, with nothing of its size listed
    with pytest.raises(ResourceLimitError, match="more than 1000000 exponent entries"):
        build(10 ** 5000)
    assert time.perf_counter() - t0 < 0.5


@pytest.mark.parametrize("desc, caps", [
    ("kk:20", [2] * 20), ("kk:1000", [2] * 1000), ("cl:1000,1001", [1000, 1001]),
    ("cl:3,1000,1000", [3, 1000, 1000]), ("cl:1000001", [1000001]), ("cl:0,3", [0, 3]),
    ("cl:-2000,-2000", [-2000, -2000]),
])
def test_pure_power_builtins_refuse_as_their_build_does(desc, caps):
    # the fold count runs before the generators are listed, with the build's own
    # message; a bad cap or a component over the limit still refuses first
    with pytest.raises((ResourceLimitError, RingError)) as built:
        M.build_ring(F.cl_ring(caps))
    t0 = time.perf_counter()
    with pytest.raises(type(built.value)) as refused:
        F.builtin(desc)
    assert time.perf_counter() - t0 < 0.05  # kk:1000 took 0.5 s listing its generators
    assert str(refused.value) == str(built.value)


def test_pure_power_builtins_under_the_cap_keep_their_specs(monkeypatch):
    assert F.builtin("cl:2,3").ring_spec.to_json() == _spec_json(2, 3, (2, 0), (0, 3))
    assert F.builtin("kk:3").ring_spec.to_json() == F.kk_ring(3).to_json()
    # one variable up to D = 20000: listing its monomials was quadratic in D and took 17.7 s
    t0 = time.perf_counter()
    assert F.builtin("cl:20001").ring.hilbert() == (1,) * 20001
    assert time.perf_counter() - t0 < 2
    # products of the caps at the limit pass the count; their builds are too slow to run here
    monkeypatch.setattr(F, "_ring_builtin", lambda name, spec, order: spec)
    for desc, caps in (("kk:19", [2] * 19), ("cl:1000,1000", [1000, 1000]),
                       ("cl:1000000", [1000000]), ("cl:1,1000000,1", [1, 1000000, 1])):
        assert F.builtin(desc).to_json() == F.cl_ring(caps).to_json()


def test_tensor_ring_counts_the_lifted_generators():
    M.tensor_ring([F.kk_ring(1)] * 1000)
    with pytest.raises(ResourceLimitError, match="would have 1002001 exponent entries"):
        M.tensor_ring([F.kk_ring(1)] * 1001)


@pytest.mark.parametrize("build, error, message", [
    (lambda: F.star(0), PosetError, "star needs at least one leg"),
    (lambda: F.leck_basic_ring(1), RingError, "a basic factor needs at least two variables"),
    (lambda: F.leck_ring([], 0), RingError, "a Leck ring needs at least one basic factor"),
    (lambda: F.ring_builtin("multiset:2,2"), RingError, "'multiset:2,2' is not a ring builtin"),
    (lambda: order_from_recipe(M.chain(1), F._family("colored", 0)), OrderError,
     "factor sizes must be positive"),
    (lambda: order_from_recipe(M.chain(2), F._family("torus", 3)), OrderError,
     "torus order parameters [3] do not fit 2 elements"),
])
def test_family_refusals(build, error, message):
    with pytest.raises(error, match=re.escape(message)):
        build()
