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
meet in the middle).  It turns each shadow list into an int bitmask, builds
the OR of every subset of each half of the level (2^(k/2) entries each),
and for each high subset, in Gray-code order, takes the smallest popcount of
its OR with the inclusion-minimal ORs of each low-subset size, skipping a
size whose lower bound cannot beat the best so far.  Its witnesses are the
first minimizers in Gray-code order, which makes them the subsets the full
2^k Gray walk would report.  The subset cap is checked in `_level_minima`
before any table is built, so every caller (the search included, at
DEFAULT_SUBSET_CAP) raises ResourceLimitError naming the level.
The search builds each level's order as a prefix DFS over shadow bitmasks,
with the level's minima computed once, and cuts each failing prefix with
all its completions, so it finds the order a permutation-by-permutation
search would, and charges `budget` the same permutation counts.
`macaulay_by_definition` stays apart as the literal oracle.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import factorial
from typing import Optional

from .errors import ResourceLimitError, SearchBudgetExceeded
from .orders import OrderTable, dual_order, explicit_order
from .poset import RankedPoset, dual

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

    def merge(self, other: "MacaulayVerdict") -> "MacaulayVerdict":
        """Associative combination of verdicts from independent level scans."""
        return MacaulayVerdict(
            self.holds and other.holds,
            self.direction,
            self.failures + other.failures,
            self.subsets_examined + other.subsets_examined,
            self.levels_checked + other.levels_checked,
            self.elapsed + other.elapsed,
        )

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


def _subset_ors(rows):
    """OR of the rows of every subset, indexed by the subset's bitmask."""
    table = [0]
    for row in rows:
        table += list(map(row.__or__, table))
    return table


def _row_masks(sh):
    """Each shadow list as an int bitmask over the target positions."""
    return [sum(1 << idx for idx in set(row)) for row in sh]


def _level_minima(sh, nt, level, cap):
    """Minimum shadow size over all subsets of each size, by split and combine.

    Returns (min_size, argmin_mask) lists indexed by subset size; each argmin
    is the first minimizer in Gray-code order.  Raises ResourceLimitError
    naming `level` before any table is built when 2^k exceeds `cap`.
    """
    k = len(sh)
    if (1 << k) > cap:
        raise ResourceLimitError(
            f"level {level} has {k} elements; 2^{k} subsets exceed the cap of {cap}"
        )
    rows = _row_masks(sh)
    lo = k // 2
    low, high = _subset_ors(rows[:lo]), _subset_ors(rows[lo:])
    # Low subsets by size, each bucket in Gray order.  For the minimum only the
    # distinct, inclusion-minimal ORs matter: a superset never has a smaller shadow.
    full = [[] for _ in range(lo + 1)]
    for t in range(1 << lo):
        g = t ^ (t >> 1)
        full[g.bit_count()].append(g)
    lean, minpop = [], []
    for bucket in full:
        kept = []
        for m in sorted({low[g] for g in bucket}, key=int.bit_count):
            if all(map((~m).__and__, kept)):
                kept.append(m)
        lean.append(kept)
        minpop.append(kept[0].bit_count())
    best = [0] + [nt + 1] * k
    where = [None] * (k + 1)
    for t in range(1 << (k - lo)):
        h = t ^ (t >> 1)
        oh = high[h]
        size, pop = h.bit_count(), oh.bit_count()
        for r, ors in enumerate(lean):
            q = size + r
            b = best[q]
            if pop >= b or minpop[r] >= b:
                continue
            v = min(map(int.bit_count, map(oh.__or__, ors)))
            if v < b:
                best[q] = v
                where[q] = h, r
    # The Gray rank of (h << lo) | g orders by the rank of h, then by the rank
    # of g when h has even parity and by its reverse when h has odd parity.
    best_mask = [0] * (k + 1)
    for q in range(1, k + 1):
        h, r = where[q]
        oh = high[h]
        hits = [g for g in full[r] if (oh | low[g]).bit_count() == best[q]]
        best_mask[q] = (h << lo) | (hits[-1] if h.bit_count() & 1 else hits[0])
    return best, best_mask


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
        best, best_mask = _level_minima(sh, len(target), lvl, max_subsets)
        verdict.subsets_examined += 1 << len(source)
        verdict.levels_checked += 1
        for q, (size, is_prefix) in enumerate(segments, 1):
            if best[q] >= size and is_prefix:
                continue
            segment = source[:q]
            segment_shadow = tuple(sorted(shadow_of(segment)))
            if best[q] < size:
                witness = _mask_to_ids(best_mask[q], source)
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
            if not all_failures:
                break
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
    best, best_mask = _level_minima(_shadow_lists(neigh, ids, target), len(target), level, max_subsets)
    return best[q], frozenset(_mask_to_ids(best_mask[q], ids))


def macaulay_by_definition(poset: RankedPoset, table: OrderTable, direction: str = "lower"):
    """Literal restatement of the defining containment, as an independent oracle.

    For every level and every subset A, the shadow of the initial segment of
    size |A| must be contained in the first |shadow(A)| elements of the next
    level.  Enumerates subsets directly with fresh set arithmetic; quadratic
    in ways the fast path is not, so keep it to small posets.
    """
    _, shadow_of, step = _direction(poset, direction)
    for lvl, source, target in _level_frames(poset, table, step):
        k = len(source)
        for mask in range(1, 1 << k):
            A = [source[j] for j in range(k) if mask >> j & 1]
            seg = source[: len(A)]
            allowed = set(target[: len(shadow_of(A))])
            if not set(shadow_of(seg)) <= allowed:
                return False, (lvl, tuple(A))
    return True, None


def check_dual_lemma(poset: RankedPoset, table: OrderTable, **kw) -> bool:
    """Whether the verdict on (P, o) matches the verdict on (dual P, dual o)."""
    here = is_macaulay(poset, table, direction="lower", **kw)
    there = is_macaulay(dual(poset), dual_order(table), direction="lower", **kw)
    return here.holds == there.holds


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
            _level_minima(rows, len(below), i, DEFAULT_SUBSET_CAP)[0])
        perm = []

        def grow(shadow):
            size = len(perm)
            if size == k:
                charge(1)
                if over_cap:
                    _level_minima(rows, len(below), i, DEFAULT_SUBSET_CAP)  # raises
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
