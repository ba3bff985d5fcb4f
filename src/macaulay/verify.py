"""Exhaustive desk-scale verification of the Macaulay property.

A (poset, order) pair is Macaulay when, level by level, the shadow of every
initial segment is an initial segment of the next level (continuity) and is
no larger than the shadow of any other subset of the same size (nestedness).
Checking direction "lower" uses plain per-level segments and lower shadows;
direction "upper" uses the reversed per-level segments and upper shadows,
which is the form the dual side of the theory wants.

`is_macaulay`, `min_shadow` and the order search share one level-scan
kernel: one direction dispatch, one builder of shadow position lists, one
segment pass (each prefix's shadow size and whether it is a target prefix)
and one split-and-combine minimum, `_level_minima` (Horowitz and Sahni's
meet in the middle).  It turns each shadow list into an int bitmask, keeps
each half of the level as its distinct inclusion-minimal subset ORs per
size, starts every bound at the initial segment's shadow and evaluates only
the pairs of halves that a row bound and a popcount cut leave able to beat
it.  Witnesses are found on demand, for the sizes a caller reports, in one
Gray-code pass: they are the first minimizers the full 2^k Gray walk would
report.  `_check_subset_cap` runs before any table is built, so every caller
(the search included, at DEFAULT_SUBSET_CAP) raises ResourceLimitError
naming the level.
The search builds each level's order as a prefix DFS over shadow bitmasks,
with the level's minima computed once, and cuts each failing prefix with
all its completions, so it finds the order a permutation-by-permutation
search would, and charges `budget` the same permutation counts.
"""
from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, groupby
from math import factorial
from typing import Optional

from .errors import ResourceLimitError, SearchBudgetExceeded
from .orders import OrderTable, explicit_order
from .poset import RankedPoset

DEFAULT_SUBSET_CAP = 2 ** 22


@dataclass
class MacaulayFailure:
    level: int
    reason: str  # "nestedness" | "continuity"
    size: int
    witness: tuple  # offending subset (ids)
    witness_shadow: tuple
    segment: tuple  # the initial segment of the same size
    segment_shadow: tuple
    expected_prefix: Optional[tuple] = None  # continuity only

    def describe(self, poset: RankedPoset) -> str:
        labs = lambda ids: "{" + ", ".join(str(poset.labels[x]) for x in ids) + "}"
        if self.reason == "nestedness":
            return (
                f"level {self.level}, size {self.size}: subset {labs(self.witness)} has shadow of "
                f"size {len(self.witness_shadow)} < {len(self.segment_shadow)} for the segment "
                f"{labs(self.segment)}"
            )
        return (
            f"level {self.level}, size {self.size}: shadow {labs(self.segment_shadow)} of the "
            f"segment {labs(self.segment)} is not the initial segment {labs(self.expected_prefix)}"
        )


@dataclass
class MacaulayVerdict:
    holds: bool
    direction: str
    failures: list = field(default_factory=list)
    subsets_examined: int = 0
    levels_checked: int = 0
    elapsed: float = 0.0

    def to_dict(self, poset: Optional[RankedPoset] = None) -> dict:
        out = {
            "holds": self.holds,
            "direction": self.direction,
            "failures": [
                {
                    "level": f.level,
                    "reason": f.reason,
                    "size": f.size,
                    "witness": list(f.witness),
                    "witness_labels": [str(poset.labels[x]) for x in f.witness] if poset else None,
                    "witness_shadow_size": len(f.witness_shadow),
                    "segment_shadow_size": len(f.segment_shadow),
                }
                for f in self.failures
            ],
            "stats": {
                "subsets_examined": self.subsets_examined,
                "levels_checked": self.levels_checked,
            },
        }
        return out


def _direction(poset, direction):
    """Neighbour lists, shadow function and level step of a checking direction."""
    if direction == "lower":
        return poset.down, poset.lower_shadow, -1
    if direction == "upper":
        return poset.up, poset.upper_shadow, 1
    raise ValueError(f"direction must be 'lower' or 'upper', got {direction!r}")


def _level_frames(poset, table, step):
    """Yield (level, source ids, target ids), both in segment order."""
    reverse = step > 0
    for lvl in range(max(0, -step), poset.max_rank + 1 - max(0, step)):
        source = table.level_in_order(lvl, reverse=reverse)
        yield lvl, source, table.level_in_order(lvl + step, reverse=reverse)


def _shadow_lists(neigh, source, target):
    """Per source element, the positions in `target` of its neighbours."""
    tpos = {x: j for j, x in enumerate(target)}
    return [tuple(tpos[y] for y in neigh[x]) for x in source]


def _segments(sh, nt):
    """Yield, for q = 1..k, the shadow size of the first q sources and whether
    that shadow is the first positions 0..size-1 of the target (continuity).

    Lazy, so a caller that only wants continuous segments stops at the first gap.
    """
    counts = [0] * nt
    shadow = 0
    max_idx = -1
    for row in sh:
        for idx in row:
            if counts[idx] == 0:
                shadow += 1
                if idx > max_idx:
                    max_idx = idx
            counts[idx] += 1
        yield shadow, max_idx == shadow - 1


def _check_subset_cap(k, level, cap):
    """Raise ResourceLimitError naming `level` when its 2^k subsets exceed `cap`."""
    if (1 << k) > cap:
        raise ResourceLimitError(
            f"level {level} has {k} elements; 2^{k} subsets exceed the cap of {cap}"
        )


def _subset_ors(rows):
    """OR of the rows of every subset, indexed by the subset's bitmask."""
    table = [0]
    for row in rows:
        table += list(map(row.__or__, table))
    return table


def _lean(table, n):
    """Per subset size 0..n, the distinct inclusion-minimal ORs of a subset
    table, sorted by popcount: a superset never has a smaller shadow."""
    buckets = [set() for _ in range(n + 1)]
    for mask, m in enumerate(table):
        buckets[mask.bit_count()].add(m)
    lean = []
    for bucket in buckets:
        kept = []  # ORs of equal popcount never contain one another
        for _, group in groupby(sorted(bucket, key=int.bit_count), int.bit_count):
            kept += [m for m in group if all(map((~m).__and__, kept))]
        lean.append(kept)
    return lean


def _row_masks(sh):
    """Each shadow list as an int bitmask over the target positions."""
    return [sum(1 << idx for idx in set(row)) for row in sh]


def _level_minima(sh, level, cap):
    """Minimum shadow size over all subsets of each size, by split and combine.

    Returns `best`, indexed by subset size, and `find(sizes)`, which maps each
    requested size to its first minimizer in Gray-code order, as a bitmask
    over the rows.  Raises ResourceLimitError naming `level` before any table
    is built when 2^k exceeds `cap`.  Each step is exact:
    - both halves are lean (`_lean`): a superset never has a smaller shadow;
    - `best[q]` starts at the shadow size of the first q rows, a q-subset;
    - a lean high OR `a` skips low size r when pop(a) + d[r] >= best, where
      d[r] is the r-th smallest count of bits a low row adds to `a`, since
      any r low rows add at least that many;
    - otherwise only lean low ORs of popcount below best can beat it;
    - `find` walks the high subsets in Gray order under the same bounds and
      scans a low bucket, in Gray order, only once a lean low OR hits best.
    """
    k = len(sh)
    _check_subset_cap(k, level, cap)
    rows = _row_masks(sh)
    lo = k // 2
    low_rows = rows[:lo]
    low, high = _subset_ors(low_rows), _subset_ors(rows[lo:])
    lean_low, lean_high = _lean(low, lo), _lean(high, k - lo)
    pops = [[m.bit_count() for m in ors] for ors in lean_low]
    best = [0, *(m.bit_count() for m in accumulate(rows, int.__or__))]

    def added(a):
        return [0, *sorted(map(int.bit_count, map((~a).__and__, low_rows)))]

    for s, ors in enumerate(lean_high):
        for a in ors:
            pa, d = a.bit_count(), added(a)
            for r, ms in enumerate(lean_low):
                b = best[s + r]
                if pa + d[r] < b:
                    ms = ms[: bisect_left(pops[r], b)]
                    best[s + r] = min((b, *map(int.bit_count, map(a.__or__, ms))))

    # The Gray rank of (h << lo) | g orders by the rank of h, then by the rank
    # of g when h has even parity and by its reverse when h has odd parity.
    full = [[] for _ in range(lo + 1)]
    for t in range(1 << lo):
        g = t ^ (t >> 1)
        full[g.bit_count()].append(g)

    def find(sizes):
        found, pending, t = {}, set(sizes), 0
        while pending:
            h = t ^ (t >> 1)
            a, s, t = high[h], h.bit_count(), t + 1
            pa, d = a.bit_count(), None
            for q in list(pending):
                r, b = q - s, best[q]
                if not 0 <= r <= lo or pa > b:
                    continue
                d = d or added(a)
                ms = lean_low[r][: bisect_right(pops[r], b)] if pa + d[r] <= b else ()
                if b not in map(int.bit_count, map(a.__or__, ms)):
                    continue
                order = reversed(full[r]) if s & 1 else full[r]
                found[q] = h << lo | next(g for g in order if (a | low[g]).bit_count() == b)
                pending.remove(q)
        return found

    return best, find


def _mask_to_ids(mask, source):
    return tuple(source[j] for j in range(len(source)) if mask >> j & 1)


def is_macaulay(
    poset: RankedPoset,
    table: OrderTable,
    direction: str = "lower",
    max_subsets: int = DEFAULT_SUBSET_CAP,
    all_failures: bool = False,
) -> MacaulayVerdict:
    """Exhaustively decide the per-level segment/shadow property.

    Each level is scanned over all of its subsets; levels whose subset count
    exceeds `max_subsets` raise ResourceLimitError naming the level.  With
    `all_failures` the scan continues past the first offending level.
    """
    t0 = time.perf_counter()
    if table.poset != poset:
        raise ValueError("order table does not belong to this poset")
    neigh, shadow_of, step = _direction(poset, direction)
    verdict = MacaulayVerdict(True, direction)
    for lvl, source, target in _level_frames(poset, table, step):
        sh = _shadow_lists(neigh, source, target)
        segments = list(_segments(sh, len(target)))
        best, find = _level_minima(sh, lvl, max_subsets)
        verdict.subsets_examined += 1 << len(source)
        verdict.levels_checked += 1
        failing = [
            q for q, (size, is_prefix) in enumerate(segments, 1) if best[q] < size or not is_prefix
        ][: None if all_failures else 1]
        witnesses = find(q for q in failing if best[q] < segments[q - 1][0])
        for q in failing:
            segment = source[:q]
            segment_shadow = tuple(sorted(shadow_of(segment)))
            if q in witnesses:
                witness = _mask_to_ids(witnesses[q], source)
                failure = MacaulayFailure(
                    lvl, "nestedness", q, witness, tuple(sorted(shadow_of(witness))),
                    segment, segment_shadow,
                )
            else:
                failure = MacaulayFailure(
                    lvl, "continuity", q, segment, segment_shadow, segment, segment_shadow,
                    expected_prefix=target[: len(segment_shadow)],
                )
            verdict.failures.append(failure)
        if verdict.failures and not all_failures:
            break
    verdict.holds = not verdict.failures
    verdict.elapsed = time.perf_counter() - t0
    return verdict


def min_shadow(
    poset: RankedPoset,
    level: int,
    q: int,
    direction: str = "lower",
    max_subsets: int = DEFAULT_SUBSET_CAP,
):
    """Minimum shadow cardinality over all q-subsets of a level, with one minimizer."""
    ids = poset.level(level)
    k = len(ids)
    if q < 0 or q > k:
        raise ValueError(f"q={q} out of range for level of size {k}")
    if q == 0:
        return 0, frozenset()
    neigh, _, step = _direction(poset, direction)
    target = poset.level(level + step)
    sh = _shadow_lists(neigh, ids, target)
    best, find = _level_minima(sh, level, max_subsets)
    return best[q], frozenset(_mask_to_ids(find([q])[q], ids))


def search_macaulay_order(poset: RankedPoset, budget: int = 200_000) -> Optional[OrderTable]:
    """Backtracking search for a per-level order that passes is_macaulay.

    Levels are assigned bottom-up; an order of level i is kept only if every
    subset of level i satisfies the property against the fixed order of level
    i-1.  Each order is built as a prefix DFS, trying elements in canonical
    order, so the first order found is the first one itertools.permutations
    would pass.  The level minima depend only on the level below, so they are
    computed once per level, before any prefix is accepted.  A prefix of
    length L whose shadow is not an initial segment, or is larger than the
    minimum over L-subsets, is cut: every completion of it fails too.
    `budget` counts permutations: a full one counts 1, a cut prefix the
    (k-L)! that start with it.  Returns None when the space is exhausted;
    raises SearchBudgetExceeded once more than `budget` are counted, and
    ResourceLimitError at the first continuous full permutation of a level
    with more subsets than DEFAULT_SUBSET_CAP (cut by continuity alone).
    """
    levels = [list(poset.level(i)) for i in range(poset.max_rank + 1)]
    chosen: list = [None] * len(levels)
    nodes = 0

    def charge(count):
        nonlocal nodes
        nodes += count
        if nodes > budget:
            raise SearchBudgetExceeded(f"no verdict within {budget} permutations")

    def extend(i):
        if i == len(levels):
            return True
        level = levels[i]
        k = len(level)
        below = chosen[i - 1] if i else []
        rows = _shadow_lists(poset.down, level, below)
        masks = _row_masks(rows)
        over_cap = i > 0 and (1 << k) > DEFAULT_SUBSET_CAP
        # Level 0 has no level below, and a level over the cap gets no minima:
        # only continuity cuts there.
        best = [len(below)] * (k + 1) if i == 0 or over_cap else (
            _level_minima(rows, i, DEFAULT_SUBSET_CAP)[0])
        perm = []

        def grow(shadow):
            size = len(perm)
            if size == k:
                charge(1)
                if over_cap:
                    _check_subset_cap(k, i, DEFAULT_SUBSET_CAP)
                chosen[i] = [level[j] for j in perm]
                return extend(i + 1)
            for j in range(k):
                if j in perm:
                    continue
                m = shadow | masks[j]
                if m & (m + 1) or m.bit_count() > best[size + 1]:
                    charge(factorial(k - size - 1))
                    continue
                perm.append(j)
                if grow(m):
                    return True
                perm.pop()
            return False

        if grow(0):
            return True
        chosen[i] = None
        return False

    if not extend(0):
        return None
    ids = [x for lvl in chosen for x in lvl]
    table = explicit_order(poset, ids)
    assert is_macaulay(poset, table, direction="lower").holds
    return table
