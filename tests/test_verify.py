import functools
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
from macaulay.poset import label_order

from conftest import (
    brute_min_shadow,
    check_dual_lemma,
    gray_minima,
    labels_of,
    macaulay_by_definition,
    merge_verdicts,
    per_pair_minima,
    permutation_search_oracle,
    quadratic_lean,
    row_masks,
    segment_pass_oracle,
    shadow_lists,
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
    p = M.RankedPoset(80, [(x, 40 + x) for x in range(40)], [0] * 40 + [1] * 40)
    for level, direction in ((1, "lower"), (0, "upper")):
        with pytest.raises(ResourceLimitError, match=f"level {level} has 40 elements"):
            M.min_shadow_profile(p, level, direction)
    assert p._minima == {}


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


def _kernel_minima(sh):
    """The kernel's minima and the witness of every size, in gray_minima's shape."""
    rows = row_masks(sh)
    best = verify._minima(rows)
    masks = verify._first_minimizers(rows, best, range(len(sh) + 1))
    return best, [masks[q] for q in range(len(sh) + 1)]


@settings(max_examples=300, deadline=None)
@given(_shadow_rows())
def test_level_kernel_matches_gray_walk(case):
    sh, nt = case
    assert _kernel_minima(sh) == gray_minima(sh, nt)


@settings(max_examples=300, deadline=None)
@given(_wide_shadow_rows())
def test_level_kernel_matches_gray_walk_on_wide_shuffled_rows(case):
    sh, nt = case
    assert _kernel_minima(sh) == gray_minima(sh, nt)


def test_a_level_outside_the_poset_is_refused_before_the_store_is_touched():
    p = M.multiset_lattice([2, 2])  # levels 0..2
    for level in (-1, 3, 99):
        for direction in ("lower", "upper"):
            with pytest.raises(ValueError, match=f"level {level} out of range 0..2"):
                M.min_shadow_profile(p, level, direction)
            with pytest.raises(ValueError, match=f"level {level} out of range 0..2"):
                M.min_shadow(p, level, 0, direction)
    assert p._minima == {}
    # the neighbour lookup at either end stays lenient: an edge level has no targets
    assert M.min_shadow_profile(p, 0) == [0, 0] and M.min_shadow_profile(p, 2, "upper") == [0, 0]


def test_level_kernel_matches_gray_walk_on_an_18_element_level():
    p = M.multiset_lattice([4, 6, 7])
    table = M.lex_order(p)
    source, target = table.level_in_order(5), table.level_in_order(4)
    assert len(source) == 18
    sh = shadow_lists(p.down, source, target)
    assert _kernel_minima(sh) == gray_minima(sh, len(target))


# Target counts at and next to the packed kernel's field widths (`verify._width`):
# the rows' OR has bit length nt; below 128 the field is the least multiple of 8
# above it, summed in byte lanes, from 128 on the least power of two, in one lane.
_FIELD_EDGES = [1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 63, 64, 65, 127, 128, 129, 255, 256, 257]


def test_field_width_at_its_edges():
    assert [verify._width(t) for t in _FIELD_EDGES] == [
        (8, 8), (8, 8), (8, 16), (8, 16), (8, 16), (8, 24), (8, 24), (8, 24), (8, 32), (8, 32),
        (8, 64), (8, 72), (8, 72), (8, 128), (256, 256), (256, 256), (256, 256), (512, 512),
        (512, 512)]


def _dense_rows(rng, nt, k):
    """k shuffled shadow lists over nt targets, each with its own density, so
    the ORs of a few rows fill a field; the last target is always used."""
    rows = [tuple(j for j in range(nt) if rng.random() < rng.random()) for _ in range(k)]
    rows.append((nt - 1,))
    rng.shuffle(rows)
    return rows


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_FIELD_EDGES), st.integers(0, 10), st.integers(0, 2 ** 32))
def test_level_kernel_matches_gray_walk_at_field_edges(nt, k, seed):
    sh = _dense_rows(random.Random(seed), nt, k)
    best, masks = gray_minima(sh, nt)
    assert _kernel_minima(sh) == (best, masks)
    assert per_pair_minima(sh) == best


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_FIELD_EDGES), st.integers(0, 12), st.sampled_from([0.0, 0.5, 1.0]),
       st.integers(0, 2 ** 32))
def test_prefix_masks_give_segment_sizes_and_continuity(nt, k, stairs, seed):
    # `stairs` of the rows become target prefixes, so continuous segments are common
    rng = random.Random(seed)
    sh = [tuple(range(len(row))) if rng.random() < stairs else row
          for row in _dense_rows(rng, nt, k)]
    prefix = itertools.accumulate(row_masks(sh), int.__or__)
    assert [(m.bit_count(), not m & (m + 1)) for m in prefix] == list(segment_pass_oracle(sh, nt))


def test_level_kernel_beats_its_seed_at_every_field_edge():
    # best below the seed (the first q rows) means the exact per-pair
    # fallback ran and the packed bounds were rebuilt
    rng = random.Random(17)
    for nt in _FIELD_EDGES:
        below_seed = 0
        for _ in range(6):
            sh = _dense_rows(rng, nt, 9)
            best, masks = gray_minima(sh, nt)
            assert _kernel_minima(sh) == (best, masks)
            seed = [len(set().union(*sh[:q])) for q in range(len(sh) + 1)]
            below_seed += best != seed
        assert below_seed, nt


def _subset_keys(sh):
    """Both halves' subset keys, low half first, indexed by subset bitmask and
    built from target sets: a subset's targets that both halves reach, numbered
    0, 1, ... in ascending order, then a run of ones as long as its count of the
    other targets it reaches, starting just above the shared targets in the high
    half and above those and the high half's own targets in the low half."""
    lo = len(sh) // 2
    halves = sh[:lo], sh[lo:]
    reach = [set().union(*half) for half in halves]
    shared = sorted(reach[0] & reach[1])
    starts = len(shared) + len(reach[1] - reach[0]), len(shared)
    tables = []
    for half, at in zip(halves, starts):
        table = []
        for mask in range(1 << len(half)):
            targets = set().union(*(row for j, row in enumerate(half) if mask >> j & 1))
            moved = sum(1 << i for i, target in enumerate(shared) if target in targets)
            table.append(moved | (1 << len(targets.difference(shared))) - 1 << at)
        tables.append(table)
    return tables


@st.composite
def _key_cases(draw):
    """Up to 12 shadow lists over up to 16 targets, often empty, with the halves
    reaching random targets, disjoint targets (low rows even, high rows odd) or
    the same targets (each half's union added to the other half's first row)."""
    nt, k = draw(st.integers(0, 16)), draw(st.integers(0, 12))
    row = st.sets(st.integers(0, nt - 1), max_size=5) if nt else st.just(set())
    sh = draw(st.lists(st.one_of(st.just(set()), row), min_size=k, max_size=k))
    lo, kind = k // 2, draw(st.sampled_from(["random", "disjoint", "shared"]))
    if kind == "disjoint":
        sh = [{t for t in r if t % 2 == (j >= lo)} for j, r in enumerate(sh)]
    elif kind == "shared" and 0 < lo < k:
        sh[0], sh[lo] = sh[0].union(*sh[lo:]), sh[lo].union(*sh[:lo])
    return [tuple(sorted(r)) for r in sh], nt


@settings(max_examples=150, deadline=None)
@given(_key_cases())
def test_subset_keys_give_pair_shadow_sizes_and_keep_containment_exact(case):
    sh, nt = case
    lo = len(sh) // 2
    low, high = _subset_keys(sh)
    assert [low, high] == list(verify._halves(row_masks(sh))[1:3])
    assert max(low + high).bit_length() <= len(set().union(*sh))
    targets = [[set().union(*(r for j, r in enumerate(half) if mask >> j & 1))
                for mask in range(1 << len(half))] for half in (sh[:lo], sh[lo:])]
    pair = [[len(x | y) for y in targets[1]] for x in targets[0]]
    assert pair == [[(kx | ky).bit_count() for ky in high] for kx in low]
    # a key inside another never gives a larger pair, whatever the other half is
    for keys, sizes in ((low, pair), (high, [list(col) for col in zip(*pair)])):
        for inner, outer in itertools.product(range(len(keys)), repeat=2):
            if not keys[inner] & ~keys[outer]:
                assert all(map(int.__le__, sizes[inner], sizes[outer]))
    assert verify._minima(row_masks(sh)) == gray_minima(sh, nt)[0]


def _beating_high_keys(sh):
    """How many lean high keys meet some lean low key in a pair below its bound,
    with the bounds lowered as the combine lowers them: the packed test should
    send exactly these to the exact per-pair `min`."""
    lo = len(sh) // 2
    low, high = _subset_keys(sh)
    lean_low = quadratic_lean(low, lo)
    best = [m.bit_count() for m in itertools.accumulate(row_masks(sh), int.__or__, initial=0)]
    count = 0
    for s, keys in enumerate(quadratic_lean(high, len(sh) - lo)):
        for a in keys:
            least = [min(map(int.bit_count, map(a.__or__, ms))) for ms in lean_low]
            if any(map(int.__lt__, least, best[s:])):
                count += 1
                best[s:s + lo + 1] = map(min, least, best[s:])
    return count


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_FIELD_EDGES), st.integers(0, 10), st.integers(0, 2 ** 32))
def test_packed_bound_test_fires_exactly_when_a_pair_beats_its_bound(nt, k, seed):
    # the exact per-pair `min` bisects each low size once per high key it runs for
    sh = _dense_rows(random.Random(seed), nt, k)
    with mock.patch.object(verify, "bisect_left", side_effect=verify.bisect_left) as bisect:
        verify._minima(row_masks(sh))
    assert bisect.call_count == _beating_high_keys(sh) * (len(sh) // 2 + 1)


def _lean_halves(sh):
    """The two halves' subset OR tables of a level, with their sizes, and the
    field width for ORs of the bit length of the level's OR."""
    rows = row_masks(sh)
    lo = len(rows) // 2
    _, w = verify._width(functools.reduce(int.__or__, rows, 0).bit_length())
    halves = [(verify._subset_ors(rows[:lo]), lo), (verify._subset_ors(rows[lo:]), len(rows) - lo)]
    return halves, w


_GRID_POOL = ["multiset:4,6,7", "multiset:5,5,5", "multiset:2,2,2,2,2,2", "be:2,2,2",
              "multiset:6,5,4", "be:1,2,2"]


@pytest.mark.parametrize("desc", _GRID_POOL)
def test_shadow_masks_match_the_position_lists_on_grid_levels(desc):
    p = builtin(desc).poset
    table = _shuffled_levels(p, desc)
    for direction in ("lower", "upper"):
        neigh, step = verify._direction(p, direction)
        for lvl in range(p.max_rank + 1):
            for source, target in [(p.level(lvl), p.level(lvl + step)),
                                   (table.level_in_order(lvl), table.level_in_order(lvl + step))]:
                got = verify._shadow_masks(neigh, source, target)
                assert got == row_masks(shadow_lists(neigh, source, target))


@pytest.mark.parametrize("desc", _GRID_POOL)
def test_packed_lean_matches_the_quadratic_oracle_on_grid_levels(desc):
    p = builtin(desc).poset
    for direction in ("lower", "upper"):
        neigh, step = verify._direction(p, direction)
        for lvl in range(p.max_rank + 1):
            sh = shadow_lists(neigh, p.level(lvl), p.level(lvl + step))
            halves, w = _lean_halves(sh)
            for table, n in halves:
                assert verify._lean(table, n, w) == quadratic_lean(table, n)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.sampled_from([8, 16, 24, 32, 40, 64, 120, 128, 136, 256]),
       st.integers(0, 2 ** 32))
def test_packed_lean_matches_the_quadratic_oracle_on_random_tables(n, w, seed):
    rng = random.Random(seed)
    # a small pool of masks, each below 2^(w-1), so repeats and containment are common
    pool = [rng.getrandbits(w - 1) & rng.getrandbits(w - 1) for _ in range(rng.randint(1, 12))]
    pool.append((1 << w - 1) - 1)
    table = [rng.choice(pool) for _ in range(1 << n)]
    assert verify._lean(table, n, w) == quadratic_lean(table, n)


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


@pytest.mark.parametrize("desc, direction", sorted(GOLDEN_REPORTS))
def test_failure_records_carry_the_set_shadows(desc, direction):
    p = builtin(desc).poset
    shadow = p.lower_shadow if direction == "lower" else p.upper_shadow
    verdict = M.is_macaulay(p, _shuffled_levels(p, desc), direction=direction, all_failures=True)
    assert verdict.failures
    for f in verdict.failures:
        assert f.segment_shadow == tuple(sorted(shadow(f.segment)))
        assert f.witness_shadow == tuple(sorted(shadow(f.witness)))


def test_min_shadow_matches_golden_digest():
    p = builtin("multiset:4,6,7").poset
    out = []
    for level in (6, 7, 8):
        sizes = []
        for q in range(len(p.level(level)) + 1):
            size, witness = M.min_shadow(p, level, q)
            out.append([level, q, size, sorted(witness)])
            sizes.append(size)
        assert M.min_shadow_profile(p, level) == sizes
    assert _digest(out) == (
        "be7fc08e9844f69592550c435c7fe6142411dbea5bb0a9d6a590815e2fb82e5f"
    )


def test_min_shadow_profile_on_a_25_element_level():
    p = builtin("multiset:6,6,6").poset
    assert len(p.level(9)) == 25
    with pytest.raises(ResourceLimitError, match="level 9 has 25 elements"):
        M.min_shadow_profile(p, 9)
    profile = M.min_shadow_profile(p, 9, max_subsets=2 ** 25)
    assert profile == [0, 2, 3, 5, 6, 7, 9, 10, 11, 12, 14, 15, 16, 17, 18, 19, 20, 21, 22,
                       23, 23, 24, 25, 26, 27, 27]
    assert profile[12] == 16
    # the cap is checked before the stored minima are read
    with pytest.raises(ResourceLimitError, match="level 9 has 25 elements"):
        M.min_shadow_profile(p, 9)


@st.composite
def _three_rank_posets(draw):
    """Ranks 0, 1 and 2 of up to 5, 16 and 12 elements with random covers,
    each element above rank 0 covering at least one element below it."""
    sizes = [draw(st.integers(1, 5)), draw(st.integers(1, 16)), draw(st.integers(0, 12))]
    rank = [r for r, n in enumerate(sizes) for _ in range(n)]
    start = [0, sizes[0], sizes[0] + sizes[1]]
    covers = []
    for r in (1, 2):
        below = st.sampled_from(range(start[r - 1], start[r]))
        for x in range(start[r], start[r] + sizes[r]):
            covers += [(b, x) for b in draw(st.sets(below, min_size=1, max_size=4))]
    return M.RankedPoset(len(rank), covers, rank)


@settings(max_examples=100, deadline=None)
@given(_three_rank_posets(), st.integers(0, 2 ** 32))
def test_stored_minima_match_the_gray_walk_on_shuffled_levels(p, seed):
    rng = random.Random(seed)
    for direction in ("lower", "upper"):
        neigh, step = verify._direction(p, direction)
        for lvl in range(p.max_rank + 1):
            source, target = list(p.level(lvl)), list(p.level(lvl + step))
            rng.shuffle(source)
            rng.shuffle(target)
            best, _ = gray_minima(shadow_lists(neigh, source, target), len(target))
            profile = M.min_shadow_profile(p, lvl, direction)
            assert profile == best
            profile[-1] = -1  # a fresh list each call: the stored minima stay
            assert M.min_shadow_profile(p, lvl, direction) == best


def test_stored_minima_are_computed_once_per_adjacent_pair(monkeypatch):
    sizes = []  # the kernel sees rows only: each call is counted by its level's size

    def counted(rows):
        sizes.append(len(rows))
        return minima(rows)

    minima = verify._minima
    monkeypatch.setattr(verify, "_minima", counted)
    # across both directions, one kernel call per adjacent pair, on its smaller
    # side; a pair of equal sides is scanned once per direction
    for caps, scanned in [([3, 4, 4], [0, 1, 2, 3, 5, 6, 7, 8]),  # sizes 1,3,6,9,10,9,6,3,1
                          ([2, 3], [0, 1, 2, 3])]:  # sizes 1,2,2,1
        p = M.multiset_lattice(caps)
        sizes.clear()
        for direction in ("lower", "upper"):
            M.is_macaulay(p, _shuffled_levels(p, direction), direction, all_failures=True)
            for lvl in range(p.max_rank + 1):
                for q in range(len(p.level(lvl)) + 1):
                    M.min_shadow(p, lvl, q, direction)
        assert sorted(sizes) == sorted(len(p.level(lvl)) for lvl in scanned), caps
    # the search reads the lower minima that is_macaulay stored (level 0
    # has no target), and witnesses are sought only on levels with a
    # nestedness failure
    def no_witnesses(rows, best, sizes):
        raise AssertionError("witnesses sought where no nestedness fails")

    monkeypatch.setattr(verify, "_first_minimizers", no_witnesses)
    p = M.multiset_lattice([2, 3])  # sizes 1,2,2,1
    sizes.clear()
    assert M.is_macaulay(p, M.lex_order(p)).holds
    assert sizes == [1, 2, 1]  # levels 0, 2 and 3
    sizes.clear()
    assert M.search_macaulay_order(p) is not None
    assert sizes == []


@pytest.mark.parametrize("direction", ["lower", "upper"])
def test_stored_minima_are_the_lex_segment_shadows_on_18_to_22_element_levels(direction):
    # Clements-Lindstrom: lex is Macaulay on multiset:4,6,7 in both directions,
    # so each lex segment (reversed for "upper") has the least shadow of its size
    p = builtin("multiset:4,6,7").poset
    table = M.lex_order(p)
    assert M.is_macaulay(p, table, direction).holds
    shadow = p.lower_shadow if direction == "lower" else p.upper_shadow
    for lvl in range(5, 10):
        ids = table.level_in_order(lvl, reverse=direction == "upper")
        assert 18 <= len(ids) <= 22
        sizes = [len(shadow(ids[:q])) for q in range(len(ids) + 1)]
        assert M.min_shadow_profile(p, lvl, direction) == sizes


@pytest.mark.parametrize("direction", ["lower", "upper"])
def test_stored_minima_are_the_lex_segment_shadows_on_25_to_29_element_levels(direction):
    # Clements-Lindstrom again, on levels past the default cap, scanned or
    # read from a smaller neighbour
    for desc, lvl, k in [("multiset:6,6,6", 9, 25), ("multiset:7,7,7", 6, 28),
                         ("multiset:7,7,7", 12, 28), ("multiset:6,6,7", 9, 29),
                         ("multiset:6,6,6", 7, 27)]:
        p = builtin(desc).poset
        shadow = p.lower_shadow if direction == "lower" else p.upper_shadow
        ids = M.lex_order(p).level_in_order(lvl, reverse=direction == "upper")
        assert len(ids) == k
        sizes = [len(shadow(ids[:q])) for q in range(k + 1)]
        assert M.min_shadow_profile(p, lvl, direction, max_subsets=2 ** 30) == sizes
    # level 7 of multiset:6,6,6, the last case, sits between levels of 25 and
    # 27 elements, so the side scanned is over the default cap either way; the
    # cap still refuses it after the raised cap has stored its minima
    scanned = "needs the minima of level 6, which has 25" if direction == "lower" else "has 27"
    with pytest.raises(ResourceLimitError, match=f"level 7 {scanned} elements"):
        M.min_shadow_profile(p, 7, direction)


def test_search_respects_the_subset_cap(monkeypatch):
    # level 1 of the dual star has 6 elements, 2^6 subsets over a cap of 2^4,
    # but its minima come from the 1-element level 0; level 2 of the Boolean
    # lattice on 5 atoms reads those of its 5-element level 1, 2^5 subsets
    monkeypatch.setattr(verify, "DEFAULT_SUBSET_CAP", 2 ** 4)
    assert M.search_macaulay_order(M.dual(star(6))) is not None
    with pytest.raises(ResourceLimitError, match="level 2 needs the minima of level 1, which has 5 "):
        M.search_macaulay_order(M.multiset_lattice([2] * 5))


_PAIR_BUILTINS = (
    "multiset:4,6,7", "multiset:5,5,5", "chain:4", "star:4", "spider:3,3", "be:2,2,2",
    "colored:3,3", "kk:5", "cl:2,3", "colored-ring:2,2,2", "be-ring:2,2,2", "torus:3,2",
    "diamond:2", "leck:3+2,1", "leck:2+2,2",
)


def _direct_minima(p, lvl, direction):
    """The kernel on a level's own rows, on the split `min_shadow_profile` scans."""
    neigh, step = verify._direction(p, direction)
    rows = verify._shadow_masks(neigh, p.level(lvl)[::-step], p.level(lvl + step)[::-step])
    return verify._minima(sorted(rows, key=lambda m: m & -m))


def test_pair_minima_equal_the_direct_kernel_on_both_sides():
    # wherever both sides of an adjacent pair fit under the cap, the minima
    # read from the other side equal the level's own scan
    for desc in _PAIR_BUILTINS:
        p = builtin(desc).poset
        for lvl in range(p.max_rank):
            if 1 << max(len(p.level(lvl)), len(p.level(lvl + 1))) > verify.DEFAULT_SUBSET_CAP:
                continue
            assert M.min_shadow_profile(p, lvl, "upper") == _direct_minima(p, lvl, "upper"), desc
            assert M.min_shadow_profile(p, lvl + 1) == _direct_minima(p, lvl + 1, "lower"), desc


@functools.cache
def _leck_levels():
    """Per level, the order the search finds on leck:3+2,2, whose levels have
    1, 7, 20, 29, 21 and 6 elements."""
    p = builtin("leck:3+2,2").poset
    table = M.search_macaulay_order(p)  # level 3 reads the minima of level 2
    return [tuple(table.level_in_order(i)) for i in range(p.max_rank + 1)]


def _leck_order(levels):
    p = builtin("leck:3+2,2").poset
    return p, M.explicit_order(p, [x for level in levels for x in level])


def test_a_29_element_level_is_checked_through_its_20_element_neighbour():
    p, table = _leck_order(_leck_levels())
    derived = M.is_macaulay(p, table, "lower")
    # the same verdict on level 3's own minima, scanned under a raised cap
    other, direct_table = _leck_order(_leck_levels())
    other._minima[3, "lower"] = _direct_minima(other, 3, "lower")
    direct = M.is_macaulay(other, direct_table, "lower", max_subsets=2 ** 29)
    assert derived.holds and derived.to_dict(p) == direct.to_dict(other)
    assert M.min_shadow_profile(p, 3) == other._minima[3, "lower"]


def test_a_witness_past_the_cap_still_needs_its_own_level():
    levels = list(_leck_levels())
    levels[3] = random.Random(0).sample(levels[3], len(levels[3]))
    p, table = _leck_order(levels)
    raised = M.is_macaulay(p, table, "lower", max_subsets=2 ** 29, all_failures=True)
    assert [(f.level, f.reason, f.size) for f in raised.failures[:2]] == [
        (3, "continuity", 1), (3, "nestedness", 2)]
    # the first failure needs no witness, so it is reported under the default cap
    first = M.is_macaulay(p, table, "lower")
    assert first.to_dict(p)["failures"] == raised.to_dict(p)["failures"][:1]
    # a nestedness witness walks level 3's own halves
    with pytest.raises(ResourceLimitError, match="level 3 has 29 elements"):
        M.is_macaulay(p, table, "lower", all_failures=True)


def test_check_dual_lemma(m222, m43):
    assert check_dual_lemma(m222, M.lex_order(m222))
    assert check_dual_lemma(m43, M.lex_order(m43))
    s = M.chain(1)
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
        sizes = []
        for q in range(len(p.level(lvl)) + 1):
            size, witness = M.min_shadow(p, lvl, q, direction=direction)
            assert size == brute_min_shadow(p, lvl, q, direction)[0]
            assert len(witness) == q and len(shadow(witness)) == size
            sizes.append(size)
        assert M.min_shadow_profile(p, lvl, direction) == sizes


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_pair_minima_match_brute_force_and_the_gray_walk(seed):
    # a level whose target level is smaller reads that level's minima facing
    # back; either way, in both directions, they are the brute-force minima
    p = _random_poset(random.Random(seed))
    for direction in ("lower", "upper"):
        neigh, step = verify._direction(p, direction)
        for lvl in range(p.max_rank + 1):
            source, target = p.level(lvl), p.level(lvl + step)
            best = [brute_min_shadow(p, lvl, q, direction)[0] for q in range(len(source) + 1)]
            assert gray_minima(shadow_lists(neigh, source, target), len(target))[0] == best
            assert M.min_shadow_profile(p, lvl, direction) == best


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


def _search_outcome(search, poset, *budget):
    try:
        table = search(poset, *budget)
    except (SearchBudgetExceeded, ResourceLimitError) as e:
        return type(e), str(e)
    return None if table is None else table.position


def _raised(outcome):
    return isinstance(outcome, tuple) and isinstance(outcome[0], type)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from([2 ** 3, 2 ** 4, 2 ** 22]))
def test_search_matches_the_permutation_loop(seed, cap):
    p, _ = _random_case(seed)
    with mock.patch.object(verify, "DEFAULT_SUBSET_CAP", cap):
        expected = _search_outcome(permutation_search_oracle, p)
        assume(not (_raised(expected) and expected[0] is SearchBudgetExceeded))
        assert _search_outcome(M.search_macaulay_order, p) == expected


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 200), st.sampled_from([2 ** 3, 2 ** 4, 2 ** 22]))
def test_search_outcome_is_monotone_in_the_budget(seed, budget, cap):
    # raising at b means raising at b - 1; succeeding at b means the
    # unlimited run's order (or None)
    p, _ = _random_case(seed)
    with mock.patch.object(verify, "DEFAULT_SUBSET_CAP", cap):
        unlimited = _search_outcome(M.search_macaulay_order, p, 10 ** 9)
        at, below = (_search_outcome(M.search_macaulay_order, p, b) for b in (budget, budget - 1))
    if _raised(at):
        assert _raised(below)
    else:
        assert at == unlimited


# A poset file numbers its levels as it likes: here ranks 0 and 1 list their
# ids out of label order.  Levels hold ascending ids, while min_shadow's
# witness, the order search and DOT export keep label order.
_HAND_NUMBERED = {
    "n": 7, "ranks": [0, 0, 0, 1, 1, 1, 2],
    "covers": [[0, 3], [1, 3], [1, 4], [2, 4], [0, 5], [2, 5], [3, 6], [4, 6], [5, 6]],
    "labels": [12, 10, 11, 5, 3, 4, 0],
}


def test_hand_numbered_levels_keep_label_order_where_promised():
    p = M.parse_json(json.dumps(_HAND_NUMBERED))
    assert p.levels == ((0, 1, 2), (3, 4, 5), (6,))
    assert [label_order(p, lvl) for lvl in p.levels] == [(1, 2, 0), (4, 5, 3), (6,)]
    for direction, step in (("lower", -1), ("upper", 1)):
        neigh = p.down if direction == "lower" else p.up
        for lvl in range(p.max_rank + 1):
            ids = label_order(p, p.level(lvl))
            target = p.level(lvl + step)
            best, masks = gray_minima(shadow_lists(neigh, ids, target), len(target))
            for q in range(len(ids) + 1):
                witness = frozenset(x for j, x in enumerate(ids) if masks[q] >> j & 1)
                assert M.min_shadow(p, lvl, q, direction) == (best[q], witness)
    # the rank-1 elements tie at q = 1: the witness is the label-least, id 4, not id 3
    assert M.min_shadow(p, 1, 1) == (2, frozenset({4}))
    found = M.search_macaulay_order(p).position
    assert found == permutation_search_oracle(p).position == (2, 0, 1, 5, 3, 4, 6)
    assert M.export_dot(p) == (
        'digraph hasse {\n  rankdir=BT;\n  { rank=same; v1; v2; v0; }\n'
        '  { rank=same; v4; v5; v3; }\n  { rank=same; v6; }\n  v1 [label="10"];\n'
        '  v2 [label="11"];\n  v0 [label="12"];\n  v4 [label="3"];\n  v5 [label="4"];\n'
        '  v3 [label="5"];\n  v6 [label="0"];\n  v0 -> v3;\n  v0 -> v5;\n  v1 -> v3;\n'
        '  v1 -> v4;\n  v2 -> v4;\n  v2 -> v5;\n  v3 -> v6;\n  v4 -> v6;\n  v5 -> v6;\n}\n'
    )


def test_search_on_builtins():
    t0 = time.perf_counter()
    # (order found, nodes grown): be:1,2,2 and leck:2+2,1 are the permutation
    # loop's orders (0.3 to 0.5 s each there)
    found = {
        "be:1,2,2": ((0, 1, 2, 3, 4, 6, 9, 10, 5, 7, 8, 11, 13, 17, 12, 14, 16, 18, 15, 19,
                      20, 22, 21, 23, 24), 44),
        "leck:2+2,1": ((0, 1, 2, 4, 3, 5, 6, 9, 7, 8, 10, 11, 12, 13, 14, 15, 16, 17), 33),
        "diamond:2": ((0, 1, 3, 4, 2, 5, 6, 9, 7, 8, 10, 14, 11, 12, 13, 15, 16, 17, 18, 20,
                       21, 22, 19, 23, 24), 208),
        "colored-ring:2,2,2": ((0, 1, 4, 2, 5, 3, 6, 7, 10, 12, 14, 8, 11, 9, 13, 15, 17, 16,
                                18, 19, 20, 21, 22, 23, 24, 25, 26), 341),
        "torus:3,2": ((0, 1, 3, 2, 4, 5, 8, 6, 9, 7, 10, 12, 11, 15, 13, 16, 14, 17, 20, 18, 21,
                       19, 22, 24, 23, 25, 27, 30, 28, 26, 29, 31, 32, 34, 33, 35), 87),
        "leck:3+2,1": ((0, 1, 2, 6, 3, 4, 5, 7, 17, 8, 9, 18, 10, 11, 19, 12, 13, 14, 20, 15, 16,
                        21, 30, 22, 31, 23, 24, 32, 25, 33, 26, 27, 34, 28, 29, 35, 36, 39, 37,
                        40, 38, 41), 332),
        "leck:4+2,0": ((0, 1, 6, 2, 3, 4, 5, 7, 17, 8, 18, 9, 10, 19, 11, 12, 13, 20, 14, 15, 16,
                        21, 31, 22, 32, 23, 33, 24, 25, 34, 26, 35, 27, 28, 36, 29, 30, 37, 41,
                        38, 42, 39, 43, 40, 44), 424),
        "leck:2+2+2,1": ((0, 1, 2, 5, 3, 6, 4, 7, 8, 14, 9, 10, 15, 17, 18, 20, 11, 12, 16, 13,
                          19, 21, 22, 24, 23, 25, 26, 30, 33, 36, 27, 31, 28, 29, 32, 34, 35, 37,
                          38, 41, 39, 40, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53), 3930),
    }
    for name, (position, nodes) in found.items():
        p = builtin(name).poset
        table = M.search_macaulay_order(p)
        assert table.position == position, name
        assert M.search_macaulay_order(p, nodes).position == position, name
        with pytest.raises(SearchBudgetExceeded, match=f"within {nodes - 1} nodes"):
            M.search_macaulay_order(p, nodes - 1)
        for direction in ("lower", "upper"):
            assert M.is_macaulay(p, table, direction).holds, (name, direction)
            if max(map(len, p.levels)) <= 12:
                assert macaulay_by_definition(p, table, direction)[0], (name, direction)
    with pytest.raises(SearchBudgetExceeded, match="no verdict within 1000 nodes"):
        M.search_macaulay_order(builtin("be:2,2,2").poset, budget=1000)
    assert time.perf_counter() - t0 < 1.0
