import json
import random

import pytest
from hypothesis import given, settings, strategies as st

import macaulay as M
from macaulay.errors import PosetError, ResourceLimitError
from macaulay.poset import export_dot, export_json, parse_json, reachability

from conftest import (
    brute_lower_shadow_labels,
    brute_upper_shadow_labels,
    is_isomorphic_by_labels,
    labels_of,
    normalised_poset_oracle,
)


def test_multiset_lattice_shapes(m34, m222):
    assert m34.n == 12
    assert m34.max_rank == 5
    assert [len(l) for l in m222.levels] == [1, 3, 3, 1]


def test_multiset_lattice_truncated_infinite():
    p = M.multiset_lattice([None, None], truncation=2)
    assert sorted(p.labels) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]


def test_infinite_shape_requires_truncation():
    with pytest.raises(PosetError):
        M.LatticeShape((None, 3))


def test_audit_rejects_bad_rank():
    with pytest.raises(PosetError):
        M.RankedPoset(2, [(0, 1)], [0, 2])
    with pytest.raises(PosetError):
        M.RankedPoset(2, [], [1, 1])  # no rank-0 element
    with pytest.raises(PosetError):
        M.RankedPoset(2, [], [0, 1])  # rank-1 element with nothing below


def test_lower_shadow_examples(m34, m222):
    a = m34.id_of((1, 1))
    assert labels_of(m34, M.lower_shadow(m34, [a])) == [(0, 1), (1, 0)]
    assert M.lower_shadow(m34, []) == frozenset()
    lvl2 = m222.level(2)
    got = labels_of(m222, M.lower_shadow(m222, lvl2))
    expected = sorted(brute_lower_shadow_labels([m222.labels[x] for x in lvl2]))
    assert got == expected == labels_of(m222, m222.level(1))


def test_upper_shadow_examples(m34, m222):
    assert M.upper_shadow(m34, [m34.id_of((2, 3))]) == frozenset()
    assert labels_of(m34, M.upper_shadow(m34, [m34.id_of((0, 0))])) == [(0, 1), (1, 0)]
    lvl1 = m222.level(1)
    got = labels_of(m222, M.upper_shadow(m222, lvl1))
    expected = sorted(brute_upper_shadow_labels([m222.labels[x] for x in lvl1], (2, 2, 2)))
    assert got == expected == labels_of(m222, m222.level(2))


def test_shadow_unknown_id(m34):
    with pytest.raises(PosetError):
        M.lower_shadow(m34, [99])


def test_shadow_of_level_property():
    for shape in [(3, 4), (2, 2, 2), (2, 3, 4)]:
        p = M.multiset_lattice(shape)
        for i in range(1, p.max_rank + 1):
            assert M.lower_shadow(p, p.level(i)) == frozenset(p.level(i - 1))


def test_dual_involution(m34):
    assert M.dual(M.dual(m34)) == m34


def test_dual_shadow_swap(m222):
    rng = random.Random(7)
    d = M.dual(m222)
    for _ in range(20):
        ids = rng.sample(range(m222.n), rng.randint(0, m222.n))
        assert M.lower_shadow(m222, ids) == M.upper_shadow(d, ids)
        assert M.upper_shadow(m222, ids) == M.lower_shadow(d, ids)


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
    q = M.cartesian_product([p, M.singleton()])
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
