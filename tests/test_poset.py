import ast
import functools
import json
import pathlib
import random
import re
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import macaulay as M
from macaulay import families as F, poset as poset_module
from macaulay.errors import PosetError, ResourceLimitError
from macaulay.rings import monomials_by_degree
from macaulay.poset import check_series, export_dot, export_json, label_order, parse_json

from conftest import (
    brute_lower_shadow_labels,
    brute_upper_shadow_labels,
    cartesian_product_oracle,
    is_isomorphic_by_labels,
    labels_of,
    multiset_lattice_oracle,
    normalised_poset_oracle,
    reachability,
    series_product,
    unfactored,
    upset_closure,
)


def test_multiset_lattice_shapes(m34, m222):
    assert m34.n == 12
    assert m34.max_rank == 5
    assert [len(l) for l in m222.levels] == [1, 3, 3, 1]


def test_multiset_lattice_truncated_infinite():
    p = M.multiset_lattice([None, None], truncation=2)
    assert sorted(p.labels) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]


def test_infinite_shape_requires_truncation():
    with pytest.raises(PosetError, match="unbounded lengths require a truncation"):
        M.multiset_lattice((None, 3))


def test_audit_rejects_bad_rank():
    with pytest.raises(PosetError):
        M.RankedPoset(2, [(0, 1)], [0, 2])
    with pytest.raises(PosetError):
        M.RankedPoset(2, [], [1, 1])  # no rank-0 element
    with pytest.raises(PosetError):
        M.RankedPoset(2, [], [0, 1])  # rank-1 element with nothing below


def test_lower_shadow_examples(m34, m222):
    a = m34.id_of((1, 1))
    assert labels_of(m34, m34.lower_shadow([a])) == [(0, 1), (1, 0)]
    assert m34.lower_shadow([]) == frozenset()
    lvl2 = m222.level(2)
    got = labels_of(m222, m222.lower_shadow(lvl2))
    expected = sorted(brute_lower_shadow_labels([m222.labels[x] for x in lvl2]))
    assert got == expected == labels_of(m222, m222.level(1))


def test_upper_shadow_examples(m34, m222):
    assert m34.upper_shadow([m34.id_of((2, 3))]) == frozenset()
    assert labels_of(m34, m34.upper_shadow([m34.id_of((0, 0))])) == [(0, 1), (1, 0)]
    lvl1 = m222.level(1)
    got = labels_of(m222, m222.upper_shadow(lvl1))
    expected = sorted(brute_upper_shadow_labels([m222.labels[x] for x in lvl1], (2, 2, 2)))
    assert got == expected == labels_of(m222, m222.level(2))


def test_shadow_unknown_id(m34):
    with pytest.raises(PosetError):
        m34.lower_shadow([99])


def test_shadow_of_a_one_pass_iterable(m34):
    # the ids are checked and then read again, so a generator must not come back empty
    lvl = m34.level(2)
    assert m34.lower_shadow(x for x in lvl) == m34.lower_shadow(lvl) == frozenset(m34.level(1))
    assert m34.upper_shadow(x for x in lvl) == m34.upper_shadow(lvl) == frozenset(m34.level(3))


def test_shadow_of_level_property():
    for shape in [(3, 4), (2, 2, 2), (2, 3, 4)]:
        p = M.multiset_lattice(shape)
        for i in range(1, p.max_rank + 1):
            assert p.lower_shadow(p.level(i)) == frozenset(p.level(i - 1))


def test_dual_involution(m34):
    assert M.dual(M.dual(m34)) == m34


def test_dual_shadow_swap(m222):
    rng = random.Random(7)
    d = M.dual(m222)
    for _ in range(20):
        ids = rng.sample(range(m222.n), rng.randint(0, m222.n))
        assert m222.lower_shadow(ids) == d.upper_shadow(ids)
        assert m222.upper_shadow(ids) == d.lower_shadow(ids)


def test_dual_complement_isomorphism(m222):
    d = M.dual(m222)
    comp = lambda v: tuple(1 - x for x in v)
    assert is_isomorphic_by_labels(d, m222, comp)


def test_dual_rejects_unranked_maximal():
    # a chain of length 2 plus an isolated rank-0 element: maximal at rank 0
    p = M.RankedPoset(3, [(0, 1)], [0, 1, 0])
    with pytest.raises(PosetError, match="not dually ranked"):
        M.dual(p)


def test_product_of_chains_is_lattice(m34):
    assert M.cartesian_product([M.chain(3), M.chain(4)]) == m34


def test_product_with_singleton():
    p = M.multiset_lattice([2, 3])
    q = M.cartesian_product([p, M.chain(1)])
    assert q.n == p.n
    assert q.rank == p.rank
    assert q.covers == p.covers


def test_product_rank_is_sum():
    rng = random.Random(3)
    ps = [M.multiset_lattice([3, 2]), M.multiset_lattice([2, 2]), M.chain(4)]
    prod = M.cartesian_product(ps)
    for _ in range(1000):
        x = rng.randrange(prod.n)
        lab = prod.labels[x]
        parts = [lab[0:2], lab[2:4], lab[4:5]]
        assert prod.rank[x] == sum(sum(part) for part in parts)


def test_product_size_limit():
    with pytest.raises(ResourceLimitError):
        M.cartesian_product([M.chain(101), M.chain(101), M.chain(101)])


def test_product_truncation():
    q = M.cartesian_product([M.chain(3), M.chain(3)], truncation=2)
    assert q == M.multiset_lattice([3, 3], truncation=2)


def test_product_builtins_record_the_factors_they_are_made_of():
    # chain, dual-star and spider factors, not flattened: be:2,2,3 has three
    # spiders, not the chains or stars a spider is not made of
    for desc in ("multiset:2,3", "multiset:4,6,7", "multiset:2,2,2,2,2,2", "colored:3,3",
                 "colored:2,2,1", "be:2,2,2", "be:1,2,3", "be:0,2,3"):
        p = F.builtin(desc).poset
        assert len(p.factors) >= 2 and M.cartesian_product(p.factors) == p, desc
        assert all(not f.factors for f in p.factors), desc
        copy = unfactored(p)  # the factors change neither equality nor hashing
        assert copy == p and hash(copy) == hash(p) and len({copy, p}) == 1 and not copy.factors
    for desc in ("chain:4", "multiset:5", "star:4", "spider:2,3", "be:2,2,1"):
        assert F.builtin(desc).poset.factors == (), desc  # a one-factor product is its factor
    assert M.dual(F.builtin("multiset:2,3").poset).factors == ()


def test_truncate(m34, m222):
    assert M.truncate(m34, 0).n == 1
    assert M.truncate(m222, 1).n == 4
    assert M.truncate(m34, m34.max_rank) == m34


def test_export_json_roundtrip(m34, m222):
    for p in (m34, m222, M.dual(m222)):
        assert parse_json(export_json(p)) == p


def test_export_dot_counts():
    p22 = M.multiset_lattice([2, 2])
    dot = export_dot(p22)
    assert dot.count("->") == 4
    assert dot.count("label=") == 4
    diamond = M.RankedPoset(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)], [0, 1, 1, 1, 2])
    dot = export_dot(diamond)
    assert dot.count("->") == 6
    assert dot.count("label=") == 5


def test_export_dot_escapes_backslashes_and_quotes():
    # a raw `a"b` once closed the DOT string early, and a trailing backslash escaped its quote
    p = parse_json(json.dumps({"n": 3, "ranks": [0, 1, 1], "covers": [[0, 1], [0, 2]],
                               "labels": ['a"b', "c\\", [1, "x"]]}))
    assert export_dot(p) == (
        'digraph hasse {\n  rankdir=BT;\n  { rank=same; v0; }\n  { rank=same; v2; v1; }\n'
        '  v0 [label="a\\"b"];\n  v2 [label="(1, \'x\')"];\n  v1 [label="c\\\\"];\n'
        '  v0 -> v1;\n  v0 -> v2;\n}\n'
    )
    # any other label is written as before, byte for byte
    assert export_dot(M.multiset_lattice([2, 2])) == (
        'digraph hasse {\n  rankdir=BT;\n  { rank=same; v0; }\n  { rank=same; v1; v2; }\n'
        '  { rank=same; v3; }\n  v0 [label="(0, 0)"];\n  v1 [label="(0, 1)"];\n'
        '  v2 [label="(1, 0)"];\n  v3 [label="(1, 1)"];\n  v0 -> v1;\n  v0 -> v2;\n'
        '  v1 -> v3;\n  v2 -> v3;\n}\n'
    )


def test_cube_coordinates(m34):
    coords = M.cube_coordinates(m34)
    assert len(coords) == m34.n
    assert coords[0]["corner"] == [0, 0]
    with pytest.raises(PosetError):
        M.cube_coordinates(M.RankedPoset(1, [], [0], labels=["a"]))


def test_every_constructed_poset_passes_audit(m34, m222):
    for p in (m34, m222, M.dual(m34), M.cartesian_product([m222, M.chain(2)])):
        p.audit()


def test_unknown_cover_ids_are_poset_errors():
    # up and down were once indexed before the audit, which raised IndexError
    for covers in ([(0, 5)], [(5, 1)], [(0, 1), (2, 1)]):
        with pytest.raises(PosetError, match="unknown element"):
            M.RankedPoset(2, covers, [0, 1])


def test_cover_endpoints_that_are_not_ints_convert_with_int():
    # floats truncate before the sort, bools and numeric strings become ints
    p = M.RankedPoset(3, [(0.5, 1), (False, 2.9), ("0", True)], [0, 1, 1])
    assert p.covers == ((0, 1), (0, 1), (0, 2))
    assert all(type(x) is int for cover in p.covers for x in cover)
    assert p.up == ((1, 2), (), ()) and p.down == ((), (0,), (0,))
    with pytest.raises(ValueError):
        M.RankedPoset(2, [("a", 1)], [0, 1])


@st.composite
def _cover_lists(draw):
    """(n, covers, rank): covers between adjacent ranks, shuffled with repeats,
    sometimes with one pair that is no cover (an unknown id, a loop, a rank jump)."""
    n = draw(st.integers(1, 7))
    rank = [0]
    while len(rank) < n:
        rank.append(draw(st.integers(0, max(rank) + 1)))
    pairs = [(a, b) for a in range(n) for b in range(n) if rank[b] == rank[a] + 1]
    covers = draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
    for b in range(1, n):  # mostly, one cover below every element of positive rank
        below = [a for a in range(n) if rank[a] + 1 == rank[b]]
        if below and draw(st.integers(0, 7)):
            covers.append((draw(st.sampled_from(below)), b))
    covers += covers[: draw(st.integers(0, len(covers)))]
    if draw(st.integers(0, 3)) == 0:
        covers.append(draw(st.tuples(st.integers(-2, n + 1), st.integers(-2, n + 1))))
    return n, draw(st.permutations(covers)), rank


@settings(max_examples=300, deadline=None)
@given(_cover_lists())
def test_up_and_down_match_the_per_element_normaliser(case):
    n, covers, rank = case
    try:
        want = normalised_poset_oracle(n, covers, rank)
    except PosetError:
        with pytest.raises(PosetError):
            M.RankedPoset(n, covers, rank)
        return
    p = M.RankedPoset(n, covers, rank)
    assert (p.covers, p.up, p.down, p.levels) == want


def test_reachability_matches_cover_transitivity(m222):
    above = reachability(m222)
    top = m222.id_of((1, 1, 1))
    bot = m222.id_of((0, 0, 0))
    assert top in above[bot]
    assert bot not in above[top]


# ---------------------------------------------------------------------------
# The one product walk and the bounded count, against the recursive walks and
# the plain convolution in conftest.


@st.composite
def _file_posets(draw):
    """A small poset as a poset file gives it, labelled by ints, tuples and
    strings from a small pool, so labels repeat within and across factors."""
    n = draw(st.integers(1, 5))
    rank = [0]
    while len(rank) < n:
        rank.append(draw(st.integers(0, max(rank) + 1)))
    covers = [[draw(st.sampled_from([a for a in range(n) if rank[a] + 1 == rank[b]])), b]
              for b in range(n) if rank[b]]
    pairs = [[a, b] for a in range(n) for b in range(n) if rank[b] == rank[a] + 1]
    covers += draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    pool = st.one_of(st.integers(0, 2), st.lists(st.integers(0, 2), min_size=1, max_size=2),
                     st.sampled_from(["a", "b"]))
    labels = draw(st.lists(pool, min_size=n, max_size=n))
    return parse_json(json.dumps({"n": n, "ranks": rank, "covers": covers, "labels": labels}))


_FACTORS = st.one_of(
    st.integers(1, 4).map(M.chain),
    st.tuples(st.integers(0, 2), st.integers(1, 2)).map(lambda kl: F.spider(*kl)),
    st.integers(1, 3).map(lambda n: M.dual(F.star(n))),
    _file_posets(),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_FACTORS, min_size=1, max_size=3), st.one_of(st.none(), st.integers(0, 6)),
       st.lists(st.integers(0, 3), min_size=3, max_size=3), st.integers(1, 80))
@example([M.chain(2), M.chain(3)], 0, [0, 0, 0], 1)
def test_product_walk_and_bounded_count_match_the_oracles(posets, truncation, tails, limit):
    got = M.cartesian_product(posets, truncation)
    assert got == cartesian_product_oracle(posets, truncation)  # ids, ranks, covers, labels
    # level sizes, with zero tails that change no product, counted both ways
    series = [[len(lvl) for lvl in p.levels] + [0] * z for p, z in zip(posets, tails)]
    D = sum(p.max_rank for p in posets) if truncation is None else truncation
    total = sum(series_product(series, D))
    assert check_series(series, D) == check_series(iter(series), D) == total == got.n
    # under a small cap: the total where it fits, else an error before any element is built
    with mock.patch.object(poset_module, "DEFAULT_PRODUCT_LIMIT", limit):
        if total <= limit:
            assert check_series(series, D) == total
        else:
            for read in (list, iter):
                with pytest.raises(ResourceLimitError):
                    check_series(read(series), D)
            if len(posets) > 1:
                with pytest.raises(ResourceLimitError):
                    M.cartesian_product(posets, truncation)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.none(), st.integers(1, 4)), min_size=1, max_size=3),
       st.one_of(st.none(), st.integers(0, 7)))
@example([3, 4], 0)
@example([None, None], 0)
@example([None, 2, None], 3)
def test_multiset_lattice_matches_the_walk_oracle(lengths, truncation):
    if truncation is None and None in lengths:
        with pytest.raises(PosetError, match="unbounded lengths require a truncation"):
            M.multiset_lattice(lengths, truncation)
        return
    assert M.multiset_lattice(lengths, truncation) == multiset_lattice_oracle(lengths, truncation)


@pytest.mark.parametrize("desc", [
    "multiset:1", "multiset:3,4", "multiset:4,3", "multiset:2,2", "multiset:3,3", "multiset:2,2,2",
    "multiset:2,2,2,2", "multiset:2,2,2,2,2,2", "multiset:4,6,7", "multiset:5,5,5",
    "multiset:6,5,4", "multiset:6,6,6", "chain:1", "chain:3", "chain:4", "chain:5",
    "be:1,2,2", "be:2,2,2", "be:1,1,3", "colored:2,2", "colored:2,1", "colored:1,2,3",
])
def test_builtin_products_match_the_walk_oracles(desc, monkeypatch):
    got = F.builtin(desc).poset
    monkeypatch.setattr(F, "multiset_lattice", multiset_lattice_oracle)
    monkeypatch.setattr(F, "cartesian_product", cartesian_product_oracle)
    monkeypatch.setattr(poset_module, "cartesian_product", cartesian_product_oracle)  # cartesian_power
    assert F.builtin(desc).poset == got


def test_huge_truncated_lattice_is_refused_at_once():
    # the count once convolved both 200,001-term series to the end before comparing
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError) as err:
        M.multiset_lattice([None, None], truncation=200_000)
    assert time.perf_counter() - t0 < 0.5
    assert str(err.value) == "poset would have more than 1000000 elements (limit 1000000)"
    # nothing cut off: the exact count, as untruncated products give it
    with pytest.raises(ResourceLimitError, match=r"^poset would have 1002001 elements"):
        M.multiset_lattice([1001, 1001], truncation=2000)
    # the count once listed a million-term series per coordinate before its
    # first stage: 40 coordinates took 4 s and 627 MiB; two of them are read now
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError) as err:
        M.multiset_lattice([None] * 40, truncation=999_999)
    assert time.perf_counter() - t0 < 0.5
    assert str(err.value) == "poset would have more than 1000000 elements (limit 1000000)"


def test_unbounded_grids_are_refused_without_listing():
    # a clipped length over the limit is one axis of the product, so the
    # product has more elements; the count once listed a row of that many ones
    for lengths, truncation in (([None], 10**7), ([None, 2], 10**12), ([3, None], 10**6)):
        t0 = time.perf_counter()
        with pytest.raises(ResourceLimitError) as err:
            M.multiset_lattice(lengths, truncation)
        assert time.perf_counter() - t0 < 0.5, lengths
        assert str(err.value) == "poset would have more than 1000000 elements (limit 1000000)"
    # under a cap of 10: a 10-element axis still fits, and an 11-element one does not
    with mock.patch.object(poset_module, "DEFAULT_PRODUCT_LIMIT", 10):
        assert M.multiset_lattice([None], truncation=9).n == 10
        with pytest.raises(ResourceLimitError):
            M.multiset_lattice([None, None], truncation=10)


def test_chain_checks_its_length():
    for n in (0, -1, None, 2.0):
        with pytest.raises(PosetError, match="length must be a positive integer"):
            M.chain(n)
    with pytest.raises(ResourceLimitError, match="poset would have 1000001 elements"):
        M.chain(10**6 + 1)


# ---------------------------------------------------------------------------
# The one upset walk, against the whole-poset reachability sets and the
# set-based walk in conftest.


@st.composite
def _ring_posets(draw):
    """The class poset of a ring on d <= 3 variables at D <= 3, modulo up to
    three forms of degree 1 or 2 with up to two terms each."""
    d, D = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        mons = monomials_by_degree(d, 2)[draw(st.integers(1, 2))]
        exps = draw(st.lists(st.sampled_from(mons), min_size=1, max_size=2, unique=True))
        gens.append(M.Polynomial({e: draw(st.integers(-3, 3).filter(bool)) for e in exps}))
    return M.poset_of_monomials(M.build_ring(M.QuotientRingSpec(d, M.RATIONALS, gens, D)))


_UPSET_POSETS = st.one_of(
    _FACTORS,
    st.lists(_FACTORS, min_size=2, max_size=3).map(M.cartesian_product),
    _ring_posets(),
)


@settings(max_examples=200, deadline=None)
@given(_UPSET_POSETS, st.booleans(), st.data())
def test_upset_mask_matches_the_set_oracles(poset, flip, data):
    if flip:
        try:
            poset = M.dual(poset)
        except PosetError:  # not dually ranked
            pass
    above = reachability(poset)
    for x in range(poset.n):
        assert M.upset_mask(poset, [x]) == sum(1 << y for y in above[x]) > 0
    ids = data.draw(st.lists(st.integers(0, poset.n - 1), max_size=6))
    want = upset_closure(poset, ids)
    assert want == frozenset().union(*(above[x] for x in ids))
    assert M.upset_mask(poset, iter(ids)) == sum(1 << y for y in want)
    with pytest.raises(PosetError, match="unknown element id"):
        M.upset_mask(poset, ids + [poset.n])


# ---------------------------------------------------------------------------
# Levels list ascending ids, and every poset the package builds numbers each
# level in label order, so `label_order` returns its levels unchanged.

_SMALL_BUILTINS = (
    "multiset:3,4", "chain:4", "star:3", "spider:2,2", "be:1,2,2", "colored:2,1", "kk:3",
    "cl:2,3", "colored-ring:2,2", "be-ring:2,2,2", "torus:3", "torus:2,2", "diamond:2",
    "leck:2+2,1",
)


@functools.cache
def _builtin_poset(name):
    return F.builtin(name).poset


_PACKAGE_POSETS = st.one_of(
    st.sampled_from(_SMALL_BUILTINS).map(_builtin_poset),
    st.builds(M.cartesian_product, st.lists(_FACTORS, min_size=2, max_size=3),
              st.one_of(st.none(), st.integers(0, 6))),
    _ring_posets(),
)


@settings(max_examples=200, deadline=None)
@given(_PACKAGE_POSETS, st.sampled_from(["as built", "dual", "truncated"]), st.integers(0, 4))
def test_package_posets_number_each_level_in_label_order(poset, form, top):
    if form == "dual":
        try:
            poset = M.dual(poset)
        except PosetError:  # not dually ranked
            pass
    elif form == "truncated":
        poset = M.truncate(poset, top)
    assert poset.levels == tuple(
        tuple(x for x in range(poset.n) if poset.rank[x] == i) for i in range(max(poset.rank) + 1)
    )
    for lvl in poset.levels:
        assert label_order(poset, lvl) == lvl


def _readers(tree, name):
    """The innermost function around each reference to `name` (a name, an
    attribute or an import), "<module>" outside any function."""
    found = set()

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if name in (getattr(child, "id", None), getattr(child, "attr", None),
                        getattr(child, "name", None)):
                found.add(fn)
            visit(child, fn)

    visit(tree, "<module>")
    return found


def test_only_the_outputs_that_promise_label_order_sort_by_label():
    # any other reader would sort levels that every package poset numbers in label order
    trees = {path.name: ast.parse(path.read_text())
             for path in pathlib.Path(poset_module.__file__).parent.glob("*.py")}

    def readers(name):
        return {(module, fn) for module, tree in trees.items() for fn in _readers(tree, name)}

    # `_label_key` reads itself for nested tuples
    assert readers("_label_key") == {("poset.py", "label_order"), ("poset.py", "cartesian_product"),
                                     ("poset.py", "_label_key")}
    assert readers("label_order") == {("verify.py", "<module>"), ("verify.py", "min_shadow"),
                                      ("verify.py", "search_macaulay_order"),
                                      ("verify.py", "_chain_cofactor"), ("poset.py", "export_dot")}


def test_labels_that_are_not_vectors_sort_by_kind_then_text():
    # a bool sorts among the strings by its repr and any other label after
    # them by its repr, so level 0 reads True, None and level 1 "a", 1.5
    p = parse_json(json.dumps({"n": 4, "ranks": [0, 0, 1, 1], "covers": [[0, 2], [1, 3], [0, 3]],
                               "labels": [True, None, 1.5, "a"]}))
    dot = export_dot(p)
    assert dot.index("v0;") < dot.index("v1;") and dot.index("v3;") < dot.index("v2;")
    assert M.min_shadow(p, 0, 1) == (0, frozenset({0}))


TWO_CHAIN = {"n": 2, "ranks": [0, 1], "covers": [[0, 1]], "labels": [0, 1]}


@pytest.mark.parametrize("build, message", [
    (lambda: M.RankedPoset(0, [], []), "poset must have at least one element"),
    (lambda: M.multiset_lattice([]), "shape needs at least one coordinate"),
    (lambda: M.multiset_lattice([2], truncation=-1), "truncation must be nonnegative"),
    (lambda: M.cartesian_product([]), "product of zero posets is not defined"),
    (lambda: poset_module.poset_from_dict({**TWO_CHAIN, "n": "2"}),
     "poset n must be an integer, got '2'"),
    (lambda: poset_module.poset_from_dict({**TWO_CHAIN, "ranks": "01"}),
     "poset ranks must be a list of integers"),
    (lambda: poset_module.poset_from_dict({**TWO_CHAIN, "labels": "ab"}),
     "poset labels must be a list"),
    (lambda: parse_json("{"), "poset file is not valid JSON: "),
    (lambda: parse_json("[" * 100000 + "]" * 100000), "poset JSON nests too deeply to decode"),
])
def test_poset_refusals(build, message):
    with pytest.raises(PosetError, match=re.escape(message)):
        build()
