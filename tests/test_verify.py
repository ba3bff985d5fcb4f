import hashlib
import itertools
import json
import random
import time
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import macaulay as M
from macaulay import verify
from macaulay.errors import ResourceLimitError, SearchBudgetExceeded
from macaulay.families import builtin, star

from conftest import (
    brute_min_shadow,
    check_dual_lemma,
    gray_minima,
    labels_of,
    macaulay_by_definition,
    merge_verdicts,
    permutation_search_oracle,
)


def test_kruskal_katona_holds(m222):
    assert M.is_macaulay(m222, M.lex_order(m222)).holds


def test_clements_lindstrom_holds(m34):
    assert M.is_macaulay(m34, M.lex_order(m34)).holds


def test_unsorted_caps_fail(m43):
    v = M.is_macaulay(m43, M.lex_order(m43))
    assert not v.holds
    f = v.failures[0]
    assert f.level == 3 and f.reason == "nestedness" and f.size == 1
    assert labels_of(m43, f.witness) == [(3, 0)]
    assert len(f.witness_shadow) == 1 and len(f.segment_shadow) == 2


def test_failure_witnesses_reverify(m43):
    v = M.is_macaulay(m43, M.lex_order(m43), all_failures=True)
    for f in v.failures:
        if f.reason == "nestedness":
            assert len(m43.lower_shadow(f.witness)) < len(m43.lower_shadow(f.segment))
        else:
            assert set(f.segment_shadow) != set(f.expected_prefix)


def test_agrees_with_literal_definition():
    cases = [
        (M.multiset_lattice([3, 4]), True),
        (M.multiset_lattice([4, 3]), False),
        (M.multiset_lattice([2, 2, 2]), True),
        (M.multiset_lattice([2, 2], truncation=1), True),
    ]
    for p, expected in cases:
        for direction in ("lower", "upper"):
            table = M.lex_order(p)
            fast = M.is_macaulay(p, table, direction=direction)
            slow, _ = macaulay_by_definition(p, table, direction=direction)
            assert fast.holds == slow == expected


def test_upper_direction_matches_lower(m34, m43, m222):
    for p in (m34, m43, m222):
        t = M.lex_order(p)
        assert (
            M.is_macaulay(p, t, direction="lower").holds
            == M.is_macaulay(p, t, direction="upper").holds
        )


def test_min_shadow_examples(m222, m34, m43):
    size, witness = M.min_shadow(m222, 2, 2)
    assert size == 3 and len(witness) == 2 and len(m222.lower_shadow(witness)) == 3
    assert M.min_shadow(m34, 1, 0) == (0, frozenset())
    size, witness = M.min_shadow(m34, 3, 1)
    assert size == 1 and labels_of(m34, witness) == [(0, 3)]
    size, witness = M.min_shadow(m43, 3, 1)
    assert size == 1 and labels_of(m43, witness) == [(3, 0)]


def test_min_shadow_against_brute():
    p = M.multiset_lattice([3, 3])
    for lvl in range(1, p.max_rank + 1):
        for q in range(len(p.level(lvl)) + 1):
            size, witness = M.min_shadow(p, lvl, q)
            bsize, _ = brute_min_shadow(p, lvl, q)
            assert size == bsize
            if q:
                assert len(p.lower_shadow(witness)) == size


def test_segment_never_beats_min_shadow(m34, m43):
    for p in (m34, m43):
        lex = M.lex_order(p)
        for lvl in range(1, p.max_rank + 1):
            ids = lex.level_in_order(lvl)
            for q in range(1, len(ids) + 1):
                seg_size = len(p.lower_shadow(ids[:q]))
                min_size, _ = M.min_shadow(p, lvl, q)
                assert seg_size >= min_size


def test_macaulay_order_attains_min_shadow(m34):
    lex = M.lex_order(m34)
    for lvl in range(1, m34.max_rank + 1):
        ids = lex.level_in_order(lvl)
        for q in range(1, len(ids) + 1):
            assert len(m34.lower_shadow(ids[:q])) == M.min_shadow(m34, lvl, q)[0]


def test_resource_cap():
    p = M.multiset_lattice([2] * 6)  # levels 1,6,15,20,15,6,1
    with pytest.raises(ResourceLimitError, match="level 2"):
        M.is_macaulay(p, M.lex_order(p), max_subsets=2 ** 10)
    with pytest.raises(ResourceLimitError, match="level 3"):
        M.min_shadow(p, 3, 2, max_subsets=2 ** 10)


def test_level_kernel_checks_the_cap_before_building_tables(monkeypatch):
    def no_tables(rows):
        raise AssertionError("subset table built past the cap")

    monkeypatch.setattr(verify, "_subset_ors", no_tables)
    with pytest.raises(ResourceLimitError, match="level 9 has 40 elements"):
        verify._level_minima([(0,)] * 40, 9, verify.DEFAULT_SUBSET_CAP)


@st.composite
def _shadow_rows(draw):
    """Shadow lists over nt targets; rows come from a small pool, so duplicate
    rows, empty rows and ties between subsets are common."""
    nt = draw(st.integers(0, 8))
    row = st.lists(st.integers(0, nt - 1), max_size=4).map(tuple) if nt else st.just(())
    pool = draw(st.lists(row, min_size=1, max_size=6))
    return draw(st.lists(st.sampled_from(pool), max_size=12)), nt


@st.composite
def _wide_shadow_rows(draw):
    """Up to 12 shadow lists of up to 6 targets each over up to 70 targets, so
    masks span more than one 64-bit word, in shuffled order: the kernel's
    seed, the first q rows, is then far from minimal."""
    nt = draw(st.integers(1, 70))
    rows = draw(st.lists(st.lists(st.integers(0, nt - 1), max_size=6).map(tuple), max_size=12))
    return draw(st.permutations(rows)), nt


def _kernel_minima(sh, nt, level, cap):
    """The kernel's minima and the witness of every size, in gray_minima's shape."""
    best, find = verify._level_minima(sh, level, cap)
    masks = find(range(len(sh) + 1))
    return best, [masks[q] for q in range(len(sh) + 1)]


@settings(max_examples=300, deadline=None)
@given(_shadow_rows())
def test_level_kernel_matches_gray_walk(case):
    sh, nt = case
    assert _kernel_minima(sh, nt, 1, verify.DEFAULT_SUBSET_CAP) == gray_minima(sh, nt)


@settings(max_examples=300, deadline=None)
@given(_wide_shadow_rows())
def test_level_kernel_matches_gray_walk_on_wide_shuffled_rows(case):
    sh, nt = case
    assert _kernel_minima(sh, nt, 1, verify.DEFAULT_SUBSET_CAP) == gray_minima(sh, nt)


def test_level_kernel_matches_gray_walk_on_an_18_element_level():
    p = M.multiset_lattice([4, 6, 7])
    table = M.lex_order(p)
    source, target = table.level_in_order(5), table.level_in_order(4)
    assert len(source) == 18
    sh = verify._shadow_lists(p.down, source, target)
    assert _kernel_minima(sh, len(target), 5, 2 ** 18) == gray_minima(sh, len(target))


def _shuffled_levels(poset, seed):
    rng = random.Random(seed)
    ids = []
    for i in range(poset.max_rank + 1):
        level = list(poset.level(i))
        rng.shuffle(level)
        ids += level
    return M.explicit_order(poset, ids)


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# sha256 of the JSON of is_macaulay(..., all_failures=True).to_dict(poset) under
# each level shuffled by random.Random(descriptor), as the full Gray walk gave them
GOLDEN_REPORTS = {
    ("multiset:4,6,7", "lower"): "75a1ec6efe97120345711e7033b2002e25f5ce23d090c960616235b04f33175a",
    ("multiset:4,6,7", "upper"): "73c5cda4fd97103f13cf763c8b33033e565d41db9803c54f07daa264891e3f0b",
    ("multiset:5,5,5", "lower"): "ce67784dfdaa03c0c6ce7936d60e6cfdd46715f14b4361fe6d3fd7e7957dd093",
    ("multiset:5,5,5", "upper"): "022cc6cbef257d014ce835e77a451b7ccbe23537b31f6c1d021875118d4c209d",
    ("kk:6", "lower"): "7c18c8459451a574f9e1b62cdb281ef1e9e716caeba6277a89f67bda6989a3cf",
    ("kk:6", "upper"): "83198b59515a7b02baf55f548569d197bfc70cbf921042a08163320f37f181e2",
    ("be:2,2,2", "lower"): "5e964b7601a7f1026da3c9388d7241b7b4ded38b2c4c478c3777d0e07be83698",
    ("be:2,2,2", "upper"): "7873ca8846af867866e4d4ef6298aad7855dcabe0a1af94a127b0494dbbf9fa3",
}


@pytest.mark.parametrize("desc, direction", sorted(GOLDEN_REPORTS))
def test_all_failures_reports_match_golden_digests(desc, direction):
    p = builtin(desc).poset
    verdict = M.is_macaulay(p, _shuffled_levels(p, desc), direction=direction, all_failures=True)
    assert _digest(verdict.to_dict(p)) == GOLDEN_REPORTS[(desc, direction)]


def test_min_shadow_matches_golden_digest():
    p = builtin("multiset:4,6,7").poset
    out = []
    for level in (6, 7, 8):
        for q in range(len(p.level(level)) + 1):
            size, witness = M.min_shadow(p, level, q)
            out.append([level, q, size, sorted(witness)])
    assert _digest(out) == (
        "be7fc08e9844f69592550c435c7fe6142411dbea5bb0a9d6a590815e2fb82e5f"
    )


def test_search_respects_the_subset_cap(monkeypatch):
    # level 1 of the dual star has 6 elements: 2^6 subsets, over a cap of 2^4
    monkeypatch.setattr(verify, "DEFAULT_SUBSET_CAP", 2 ** 4)
    with pytest.raises(ResourceLimitError, match="level 1"):
        M.search_macaulay_order(M.dual(star(6)))


def test_check_dual_lemma(m222, m43):
    assert check_dual_lemma(m222, M.lex_order(m222))
    assert check_dual_lemma(m43, M.lex_order(m43))
    s = M.singleton()
    assert check_dual_lemma(s, M.lex_order(s))


def test_verdict_merge(m222):
    t = M.lex_order(m222)
    v1 = M.is_macaulay(m222, t)
    merged = merge_verdicts(v1, v1)
    assert merged.holds and merged.subsets_examined == 2 * v1.subsets_examined


def test_mismatched_table_rejected(m222, m34):
    with pytest.raises(ValueError):
        M.is_macaulay(m222, M.lex_order(m34))


def test_search_on_chain():
    c = M.chain(5)
    t = M.search_macaulay_order(c)
    assert t is not None and M.is_macaulay(c, t).holds
    assert t.position == tuple(range(5))  # first order tried is the canonical one


def test_search_on_m22():
    p = M.multiset_lattice([2, 2])
    t = M.search_macaulay_order(p)
    assert t is not None and M.is_macaulay(p, t).holds


def test_search_on_star_product():
    p = M.cartesian_product([star(2), star(2)])
    t = M.search_macaulay_order(p)
    assert t is not None
    assert M.is_macaulay(p, t).holds
    assert M.is_macaulay(p, t, direction="upper").holds


def test_search_budget_exhaustion():
    p = M.multiset_lattice([4, 3])
    with pytest.raises(SearchBudgetExceeded):
        M.search_macaulay_order(p, budget=3)


def test_sorted_caps_hold_at_scale():
    # the largest desk-scale grid: levels up to 19 elements, ~1.5M subsets
    p = M.multiset_lattice([5, 5, 5])
    v = M.is_macaulay(p, M.lex_order(p))
    assert v.holds and v.subsets_examined > 10 ** 6


def test_truncated_free_grids_hold():
    # degree-truncated unbounded grids stay Macaulay under lex, level by level
    for lengths, cap in [((None, None), 4), ((None, None, None), 3), ((3, None), 4)]:
        p = M.multiset_lattice(lengths, truncation=cap)
        assert M.is_macaulay(p, M.lex_order(p)).holds, (lengths, cap)


def _random_order(poset, rng):
    ids = list(range(poset.n))
    rng.shuffle(ids)
    return M.explicit_order(poset, ids)


def _random_poset(rng):
    """Random ranked poset: levels of random sizes, random covers, then repair."""
    sizes = [1] + [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
    ids = []
    rank = []
    for r, s in enumerate(sizes):
        for _ in range(s):
            rank.append(r)
            ids.append(len(ids))
    covers = set()
    start = {r: sum(sizes[:r]) for r in range(len(sizes))}
    for r in range(1, len(sizes)):
        for j in range(sizes[r]):
            x = start[r] + j
            below = [start[r - 1] + i for i in range(sizes[r - 1])]
            picks = rng.sample(below, rng.randint(1, len(below)))
            for b in picks:
                covers.add((b, x))
    return M.RankedPoset(len(ids), sorted(covers), rank)


@pytest.mark.parametrize("seed", range(8))
def test_verifier_theorems_hold_on_random_inputs(seed):
    """Dual-lemma agreement and lower/upper equivalence are theorems: they
    must come out true for any finite poset and any order, Macaulay or not."""
    rng = random.Random(seed)
    p = _random_poset(rng)
    t = _random_order(p, rng)
    lower = M.is_macaulay(p, t, direction="lower")
    upper = M.is_macaulay(p, t, direction="upper")
    assert lower.holds == upper.holds
    slow, _ = macaulay_by_definition(p, t, direction="lower")
    assert lower.holds == slow
    try:
        dual_ok = check_dual_lemma(p, t)
    except M.PosetError:
        return  # not dually ranked: maximal elements off the top rank
    assert dual_ok


def _random_case(seed):
    rng = random.Random(seed)
    p = _random_poset(rng)
    return p, _random_order(p, rng)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from(["lower", "upper"]), st.booleans())
def test_scan_matches_literal_definition(seed, direction, all_failures):
    p, t = _random_case(seed)
    fast = M.is_macaulay(p, t, direction=direction, all_failures=all_failures)
    slow, _ = macaulay_by_definition(p, t, direction=direction)
    assert fast.holds == slow


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from(["lower", "upper"]))
def test_min_shadow_matches_brute_force(seed, direction):
    p, _ = _random_case(seed)
    shadow = p.lower_shadow if direction == "lower" else p.upper_shadow
    for lvl in range(p.max_rank + 1):
        for q in range(len(p.level(lvl)) + 1):
            size, witness = M.min_shadow(p, lvl, q, direction=direction)
            assert size == brute_min_shadow(p, lvl, q, direction)[0]
            assert len(witness) == q and len(shadow(witness)) == size


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_search_finds_an_order_exactly_when_one_exists(seed):
    p, _ = _random_case(seed)
    levels = [p.level(i) for i in range(p.max_rank + 1)]
    assume(max(map(len, levels)) <= 3)
    exists = any(
        macaulay_by_definition(p, M.explicit_order(p, [x for lvl in perms for x in lvl]))[0]
        for perms in itertools.product(*map(itertools.permutations, levels))
    )
    found = M.search_macaulay_order(p)
    assert (found is not None) == exists


def _search_outcome(search, poset, budget):
    try:
        table = search(poset, budget)
    except (SearchBudgetExceeded, ResourceLimitError) as e:
        return type(e), str(e)
    return None if table is None else table.position


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 5000), st.sampled_from([2 ** 3, 2 ** 4, 2 ** 22]))
def test_search_matches_the_permutation_loop(seed, budget, cap):
    p, _ = _random_case(seed)
    with mock.patch.object(verify, "DEFAULT_SUBSET_CAP", cap):
        expected = _search_outcome(permutation_search_oracle, p, budget)
        assert _search_outcome(M.search_macaulay_order, p, budget) == expected


def test_search_on_builtins():
    t0 = time.perf_counter()
    # the permutation loop's orders (0.3 to 0.5 s each there)
    found = {
        "be:1,2,2": (0, 1, 2, 3, 4, 6, 9, 10, 5, 7, 8, 11, 13, 17, 12, 14, 16, 18, 15, 19,
                     20, 22, 21, 23, 24),
        "leck:2+2,1": (0, 1, 2, 4, 3, 5, 6, 9, 7, 8, 10, 11, 12, 13, 14, 15, 16, 17),
    }
    for name, position in found.items():
        assert M.search_macaulay_order(builtin(name).poset).position == position, name
    # levels of 9 to 11 elements: the permutation loop spent 0.7 to 45 s here
    for name in ("diamond:2", "colored-ring:2,2,2", "torus:3,2"):
        with pytest.raises(SearchBudgetExceeded, match="within 200000 permutations"):
            M.search_macaulay_order(builtin(name).poset)
    assert time.perf_counter() - t0 < 1.0
