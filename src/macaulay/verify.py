"""Exhaustive desk-scale verification of the Macaulay property.

A (poset, order) pair is Macaulay when, level by level, the shadow of every
initial segment is an initial segment of the next level (continuity) and is
no larger than the shadow of any other subset of the same size (nestedness).
Checking direction "lower" uses plain per-level segments and lower shadows;
direction "upper" uses the reversed per-level segments and upper shadows,
which is the form the dual side of the theory wants.

Each shadow is an int bitmask over the target positions (`_shadow_masks`),
and `_segments` gives a level's frame in segment order, also read by the
ring's segment test in `hilbert`.  The shadow of the first q sources is the
prefix OR m of their masks.  The least shadow size of a q-subset, best[q],
depends on the level and not on its order, so `min_shadow_profile` computes
it once per (level, direction) and keeps it on the poset for `is_macaulay`,
`min_shadow` and the search.  The segment of size q passes exactly when
m.bit_length() <= best[q]: m has at least best[q] bits, so it is then the
first best[q] targets.  Adjacent levels of a and b elements share their
minima: with g the upper minima of the lower level and f the lower minima of
the upper one, f(q) = min{p : g(a - p) <= b - q} (a subset and the
complement of its shadow bound each other's shadows), and the same with the
roles swapped, so each pair is scanned on its smaller side.

A Cartesian product records its factors (`RankedPoset.factors`), and a level
of P = Q x chain(n) needs no subset scan when Q is Macaulay under some order
(Clements and Lindstrom's compression).  Split a subset A of level i into its
fibres A_j, its elements with chain coordinate j, of c_j elements of level
i - j of Q.  The lower shadow's fibre over j is the shadow of A_j in Q
together with A_(j+1), both in level i - j - 1 of Q, so it has at least
max(beta_(i-j)(c_j), c_(j+1)) elements, beta being the minima of Q's levels.
Fibres that are initial segments of Q's Macaulay order meet every such bound
at once: shadows of segments are segments, so each shadow fibre is the larger
of two nested segments.  Hence, exactly, best[q] = the least sum over j of
max(beta_(i-j)(c_j), c_(j+1)) over c_0 + ... + c_(n-1) = q, with c_n = 0;
"upper" runs the same sum with the chain top-down.  `_chain_minima` is that
sum as a path DP.  The order is not in the formula, but the argument needs
one on each level of Q a fibre reads: `_chain_cofactor` checks those with the
scan's own `_level_check` under Q's label order (lex on exponent vectors), Q
the other factors' product, smallest first; failing that, the kernel runs.

`_minima` is Horowitz and Sahni's meet in the middle on subset keys
(`_halves`): targets both halves reach, then a unary count of the rest, so a
pair's shadow size is its keys' OR's popcount.  Each half is kept as its
distinct inclusion-minimal keys per size, every bound starts at the initial
segment's shadow, and each high key meets every low key at once, in
bit-parallel arithmetic on one packed int; the exact per-pair minimum runs
only where a pair beats its bound.  `_first_minimizers` finds witnesses in
the caller's order, for the sizes it reports: the first minimizers of the
full 2^k Gray walk.  `max_subsets` bounds the subsets a call enumerates, and
is checked only where the kernel or a witness walk is about to start; stored
minima are read free under any cap, and the chain split runs under the
caller's.  The search builds each level's order as a prefix DFS over shadow
bitmasks and cuts each failing prefix with all its completions, so it finds
the order a permutation-by-permutation search would; `budget` counts the
prefixes grown.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate, groupby, repeat
from operator import add, or_
from typing import Optional

from .errors import ResourceLimitError, SearchBudgetExceeded, excerpt
from .orders import OrderTable, explicit_order
from .poset import RankedPoset, cartesian_product, label_order

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
    """Neighbour lists and level step of a checking direction."""
    if direction == "lower":
        return poset.down, -1
    if direction == "upper":
        return poset.up, 1
    raise ValueError(f"direction must be 'lower' or 'upper', got {excerpt(direction)}")


def _shadow_masks(neigh, source, target):
    """Per source element, the int bitmask of its neighbours' positions in `target`."""
    bit = {x: 1 << j for j, x in enumerate(target)}
    return [sum(bit[y] for y in neigh[x]) for x in source]


def _segments(poset, table, lvl, direction):
    """(source, target, masks, prefix): level `lvl` and the level it faces, both in
    segment order (reversed for "upper"), each source's shadow mask over the
    target, and the prefix ORs, prefix[q] the shadow of the first q sources."""
    neigh, step = _direction(poset, direction)
    source = table.level_in_order(lvl, reverse=step > 0)
    target = table.level_in_order(lvl + step, reverse=step > 0)
    masks = _shadow_masks(neigh, source, target)
    return source, target, masks, list(accumulate(masks, int.__or__, initial=0))


def _check_subset_cap(k, level, cap):
    """Raise ResourceLimitError when the 2^k subsets of `level` exceed `cap`."""
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


def _fields(values, w):
    """`values` as the w-bit fields of one int, the first one lowest."""
    chunks = map(int.to_bytes, values, repeat(w // 8), repeat("little"))
    return int.from_bytes(b"".join(chunks), "little")


def _ones(n, w):
    """A 1 at the bottom of each of n w-bit fields."""
    return int.from_bytes((1).to_bytes(w // 8, "little") * n, "little")


def _width(t):
    """(lane, w) for ORs of bit length t: below 128, w is the least multiple of 8
    above t, counted in byte lanes; from there the least power of two, in one lane."""
    return (8, t + 8 & -8) if t < 128 else (1 << t.bit_length(),) * 2


def _lean(table, n, w):
    """Per subset size 0..n, the distinct inclusion-minimal ORs of a subset
    table, sorted by popcount: a superset never has a smaller shadow.

    Every OR is below 2^(w-1).  The ORs kept so far are the w-bit fields of
    `packed`; m contains a kept k exactly when the field k & ~m is zero, and
    adding 2^(w-1) - 1 to a field sets its top bit exactly when it is not.
    """
    buckets = [set() for _ in range(n + 1)]
    for mask, m in enumerate(table):
        buckets[mask.bit_count()].add(m)
    top = 1 << w - 1
    lean = []
    for bucket in buckets:
        kept, packed = [], 0  # ORs of equal popcount never contain one another
        for _, group in groupby(sorted(bucket, key=int.bit_count), int.bit_count):
            rep = _ones(len(kept), w)
            fill, tops = (top - 1) * rep, top * rep
            fresh = [m for m in group if ((packed & (top - 1 ^ m) * rep) + fill) & tops == tops]
            packed |= _fields(fresh, w) << w * len(kept)
            kept += fresh
        lean.append(kept)
    return lean


def _halves(rows):
    """The split `_minima` and `_first_minimizers` share, low half first: (lane, w)
    (`_width`), both halves' subset keys, the lean low keys and their popcounts.  A
    key is a subset's bits in S = A & B, A and B the halves' ORs, moved to the low
    bits, and above them, in unary, the count of its half's private targets it reaches."""
    lo = len(rows) // 2
    a, b = reduce(int.__or__, rows[:lo], 0), reduce(int.__or__, rows[lo:], 0)
    spots = [1 << j for j in range(b.bit_length()) if (a & b) >> j & 1]

    def keys(half, private, at):  # the unary count starts at bit `at`
        moved = [sum(1 << i for i, bit in enumerate(spots) if row & bit) for row in half]
        unary = [(1 << c) - 1 << at for c in range(private.bit_count() + 1)]
        counts = map(int.bit_count, _subset_ors([row & private for row in half]))
        return list(map(or_, _subset_ors(moved), map(unary.__getitem__, counts)))

    at = len(spots)
    low, high = keys(rows[:lo], a & ~b, at + (b & ~a).bit_count()), keys(rows[lo:], b & ~a, at)
    lane, w = _width((a | b).bit_count())
    lean_low = _lean(low, lo, w)
    return (lane, w), low, high, lean_low, [[m.bit_count() for m in ors] for ors in lean_low]


def _minima(rows):
    """`best`: the minimum shadow size over the subsets of `rows` (`_shadow_masks`)
    of each size, by split and combine; the caller checks the subset cap.  Each step is exact:
    - both halves are lean (`_lean`): a superset never has a smaller shadow;
    - `best[q]` starts at the shadow size of the first q rows, a q-subset;
    - a lean high key `a` meets every lean low key at once, as SWAR arithmetic on
      one int of w-bit fields (`_width`); only when some pair beats its bound
      does the exact per-size `min` run for `a`, over lean low keys of popcount below best.
    """
    k = len(rows)
    (lane, w), _, high, lean_low, pops = _halves(rows)
    lean_high = _lean(high, k - k // 2, w)
    best = [m.bit_count() for m in accumulate(rows, int.__or__, initial=0)]

    # Every lean low OR is a w-bit field of `packed`, and reps[r] has a 1 at
    # the bottom of each field of size r.  For a high OR `a`, SWAR steps count
    # the bits of each lane of packed | a * rep in place, and a multiply by
    # `spread` sums a field's lanes into its top lane (w/8 bytes hold at most
    # w <= 128, so no carry crosses a byte).  Adding 2^(lane-1) - best[s + r]
    # there leaves bit w - 1 of a field of size r clear exactly when the pair
    # beats best[s + r].
    packed = _fields([m for ms in lean_low for m in ms], w)
    starts = accumulate(map(len, lean_low), initial=0)
    reps = [_ones(len(ms), w) << w * at for ms, at in zip(lean_low, starts)]
    rep = sum(reps)
    tops, spread = rep << w - 1, _ones(w // lane, lane)
    # field by field, the low h bits of every 2h, for h = 1, 2, 4, ..., lane/2
    (_, m1), (_, m2), *steps = [(h, ((1 << w) - 1) // ((1 << 2 * h) - 1) * ((1 << h) - 1) * rep)
                                for h in map((1).__lshift__, range(lane.bit_length() - 1))]

    def bounds(s):
        return sum(((1 << lane - 1) - best[s + r]) * at for r, at in enumerate(reps)) << w - lane

    for s, ors in enumerate(lean_high):
        c = bounds(s)
        for a in ors:
            x = packed | a * rep
            x -= x >> 1 & m1
            x = (x & m2) + (x >> 2 & m2)
            for h, m in steps:
                x = x + (x >> h) & m
            if (x * spread + c) & tops != tops:
                for r, ms in enumerate(lean_low):
                    b = best[s + r]
                    ms = ms[: bisect_left(pops[r], b)]
                    best[s + r] = min((b, *map(int.bit_count, map(a.__or__, ms))))
                c = bounds(s)
    return best


def _first_minimizers(rows, best, sizes):
    """Map each size q in `sizes` to its first minimizer in Gray-code order, a
    bitmask over `rows`; `best` holds the exact minima, so the walk ends.  It
    takes the high subsets in Gray order and skips one whose (key, size) an
    earlier one had: that check found nothing for the sizes still pending and
    read nothing else.  It skips low size r when pop(a) + d[r] > best, where
    d[r] is the r-th smallest count of bits a low row's key adds to the key `a`,
    and scans a low bucket, in Gray order, only once a lean low key hits best.
    """
    lo = len(rows) // 2
    _, low, high, lean_low, pops = _halves(rows)
    # The Gray rank of (h << lo) | g orders by the rank of h, then by the rank
    # of g when h has even parity and by its reverse when h has odd parity.
    full = [[] for _ in range(lo + 1)]
    for g in (t ^ t >> 1 for t in range(1 << lo)):
        full[g.bit_count()].append(g)

    singles = [low[1 << j] for j in range(lo)]  # keys grow as rows are added
    found, pending, seen, t = {}, set(sizes), set(), 0
    while pending:
        h = t ^ (t >> 1)
        a, s, t = high[h], h.bit_count(), t + 1
        if (a, s) in seen:
            continue
        seen.add((a, s))
        pa, d = a.bit_count(), None
        for q in list(pending):
            r, b = q - s, best[q]
            if not 0 <= r <= lo or pa > b:
                continue
            d = d or [0, *sorted(map(int.bit_count, map((~a).__and__, singles)))]
            ms = lean_low[r][: bisect_right(pops[r], b)] if pa + d[r] <= b else ()
            if b not in map(int.bit_count, map(a.__or__, ms)):
                continue
            order = reversed(full[r]) if s & 1 else full[r]
            found[q] = h << lo | next(g for g in order if (a | low[g]).bit_count() == b)
            pending.remove(q)
    return found


def _level(poset, level):
    """The ids of `level`, which must be one of the poset's levels."""
    if level not in range(poset.max_rank + 1):
        raise ValueError(f"level {excerpt(level)} out of range 0..{poset.max_rank}")
    return poset.level(level)


def _mask_to_ids(mask, items):
    return tuple(items[j] for j in range(len(items)) if mask >> j & 1)


def _level_check(poset, table, lvl, direction, cap):
    """(frame, best, failing): `_segments`' frame of level `lvl`, its minima under
    `cap` and the sizes q whose segment fails, prefix[q].bit_length() > best[q]."""
    frame = _segments(poset, table, lvl, direction)
    best = min_shadow_profile(poset, lvl, direction, cap)
    return frame, best, [q for q, m in enumerate(frame[3]) if m.bit_length() > best[q]]


def is_macaulay(
    poset: RankedPoset,
    table: OrderTable,
    direction: str = "lower",
    max_subsets: int = DEFAULT_SUBSET_CAP,
    all_failures: bool = False,
) -> MacaulayVerdict:
    """Exhaustively decide the per-level segment/shadow property.

    Each level's segments are held against its exact minima
    (`min_shadow_profile`).  A kernel scan or a nestedness witness that would
    enumerate more than `max_subsets` subsets raises ResourceLimitError naming
    its level; stored minima are read free.  With `all_failures` the scan
    continues past the first offending level.
    """
    if table.poset != poset:
        raise ValueError("order table does not belong to this poset")
    _, step = _direction(poset, direction)
    verdict = MacaulayVerdict(True, direction)
    for lvl in range(max(0, -step), poset.max_rank + 1 - max(0, step)):
        frame, best, failing = _level_check(poset, table, lvl, direction, max_subsets)
        source, target, masks, prefix = frame
        verdict.subsets_examined += 1 << len(source)
        verdict.levels_checked += 1
        failing = failing[: None if all_failures else 1]
        short = [q for q in failing if best[q] < prefix[q].bit_count()]  # else continuity
        if short:  # a witness walks this level's own halves
            _check_subset_cap(len(source), lvl, max_subsets)
        witnesses = _first_minimizers(masks, best, short) if short else {}
        shadow = lambda m: tuple(sorted(_mask_to_ids(m, target)))
        for q in failing:
            segment, segment_shadow = source[:q], shadow(prefix[q])
            if q in witnesses:
                rows = _mask_to_ids(witnesses[q], masks)
                failure = MacaulayFailure(
                    lvl, "nestedness", q, _mask_to_ids(witnesses[q], source),
                    shadow(reduce(int.__or__, rows, 0)), segment, segment_shadow,
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
    return verdict


def _chain_cofactor(poset, level, direction, cap):
    """(n, Q) when the recorded factors make the poset Q x chain(n) up to its top rank
    and the levels of Q that `level`'s fibres read, max(0, level - n + 1) to
    min(level, Q's top), pass `_level_check` in `direction` under Q's label order and
    `cap`, else None; a refusal is not kept.  The chain is the first longest factor
    with one element per level; Q, the other factors' product, smallest first as lex
    wants, truncated at the poset's top rank, is built once with its table and store."""
    memo = poset._minima
    if poset.factors and "cofactor" not in memo:
        memo["cofactor"] = None
        chains = [f for f in poset.factors if all(len(lvl) == 1 for lvl in f.levels)]
        if chains:
            chain, rest = max(chains, key=lambda f: f.n), list(poset.factors)
            rest.remove(chain)
            q = cartesian_product(sorted(rest, key=lambda f: f.n), poset.max_rank)
            table = explicit_order(q, [x for ids in q.levels for x in label_order(q, ids)])
            memo["cofactor"] = chain.n, q, table
    if not memo.get("cofactor"):
        return None
    n, q, table = memo["cofactor"]
    passes = memo.setdefault(("cofactor", direction), {})
    for lvl in range(max(0, level - n + 1), min(level, q.max_rank) + 1):
        if lvl not in passes:
            try:
                passes[lvl] = not _level_check(q, table, lvl, direction, cap)[2]
            except ResourceLimitError:  # a level of Q past the cap
                return None
        if not passes[lvl]:
            return None
    return n, q


def _chain_minima(n, cofactor, level, direction, k):
    """The minima of `level` (k elements) of cofactor x chain(n): the least
    sum over fibres e of max(beta_e(c_e), c_(e+1)), over fibre sizes c_e that sum
    to q, with c_n = 0; beta_e is the cofactor's minima on fibre e's level, and
    the fibres run up the chain for "lower", down it for "upper".  A path DP: row
    c of `rows` holds, per running sum, the least cost with the current fibre at
    c.  As beta never falls, the c with beta(c) <= c' are a prefix, so the min
    over c splits into a prefix minimum plus c' and a suffix minimum of cost + beta."""
    inf = float("inf")
    fibres = range(n) if direction == "lower" else reversed(range(n))
    betas = [min_shadow_profile(cofactor, level - j, direction)
             if 0 <= level - j <= cofactor.max_rank else [0] for j in fibres]
    # a fibre off Q's levels holds nothing and adds 0, save the one just
    # before the first that holds something, which adds that one's size
    inside = [e for e, beta in enumerate(betas) if len(beta) > 1]
    betas = betas[max(inside[0] - 1, 0): inside[-1] + 1]
    top = len(betas[0]) - 1  # the largest running sum so far, at most k
    rows = [[inf] * c + [0] + [inf] * (top - c) for c in range(top + 1)]
    for beta, after in zip(betas, betas[1:] + [[0]]):  # c_n = 0 leaves one row: best
        pre, suf = [[inf] * (top + 1)], [[inf] * (top + 1)]  # min over c < t, over c >= t
        for row in rows:
            pre.append(list(map(min, pre[-1], row)))
        for row, b in zip(rows[::-1], beta[::-1]):
            suf.append(list(map(min, suf[-1], map(add, row, repeat(b)))))
        suf.reverse()
        width, rows = len(after) - 1, []
        for c in range(width + 1):
            t = bisect_right(beta, c)
            row = map(min, map(add, pre[t], repeat(c)), suf[t])
            rows.append([*repeat(inf, c), *row, *repeat(inf, width - c)][: k + 1])
        top = min(top + width, k)
    return rows[0]


def min_shadow_profile(
    poset: RankedPoset,
    level: int,
    direction: str = "lower",
    max_subsets: int = DEFAULT_SUBSET_CAP,
) -> list:
    """Minimum shadow cardinality over all q-subsets of a level, for q = 0..k, kept on
    the poset per (level, direction) and read free under any cap.  A level with no
    target level gets zeros; a level of Q x chain(n) whose fibres read only levels of
    Q that pass (`_chain_cofactor`) takes them from Q's minima by `_chain_minima`.
    Otherwise a level whose target level of n elements is smaller takes best[q] =
    min{p : g[n - p] <= k - q} from that level's minima g facing back; any other is
    scanned on one split (ascending ids, reversed for "upper", rows stably sorted by
    least target bit), which raises ResourceLimitError past `max_subsets`.  A level
    outside 0..max_rank raises ValueError."""
    neigh, step = _direction(poset, direction)
    source, near = _level(poset, level), level + step
    k, n = len(source), len(poset.level(near))
    if not n:
        return [0] * (k + 1)
    key = (level, direction)
    if key not in poset._minima:
        split = _chain_cofactor(poset, level, direction, max_subsets)
        if split:
            poset._minima[key] = _chain_minima(*split, level, direction, k)
        elif n < k:  # g never falls as the subset grows
            back = min_shadow_profile(poset, near, "upper" if step < 0 else "lower", max_subsets)
            poset._minima[key] = [n + 1 - bisect_right(back, k - q) for q in range(k + 1)]
        else:
            _check_subset_cap(k, level, max_subsets)
            rows = _shadow_masks(neigh, source[::-step], poset.level(near)[::-step])
            rows.sort(key=lambda m: m & -m)
            poset._minima[key] = _minima(rows)
    return list(poset._minima[key])


def min_shadow(
    poset: RankedPoset,
    level: int,
    q: int,
    direction: str = "lower",
    max_subsets: int = DEFAULT_SUBSET_CAP,
):
    """Minimum shadow cardinality over all q-subsets of a level, with one
    minimizer: the first in the Gray-code walk over the level in label order."""
    k = len(_level(poset, level))
    if q < 0 or q > k:
        raise ValueError(f"q={q} out of range for level of size {k}")
    if q == 0:
        return 0, frozenset()
    _check_subset_cap(k, level, max_subsets)  # the witness walks this level's own halves
    best = min_shadow_profile(poset, level, direction, max_subsets)
    neigh, step = _direction(poset, direction)
    ids = label_order(poset, poset.level(level))
    masks = _shadow_masks(neigh, ids, poset.level(level + step))
    return best[q], frozenset(_mask_to_ids(_first_minimizers(masks, best, [q])[q], ids))


def search_macaulay_order(poset: RankedPoset, budget: int = 200_000) -> Optional[OrderTable]:
    """Backtracking search for a per-level order that passes is_macaulay.

    Levels are assigned bottom-up; an order of level i is kept only if every
    subset of level i satisfies the property against the fixed order of level
    i-1.  Each order is built as a prefix DFS, trying elements in label
    order, so the first order found is the first one itertools.permutations
    would pass.  Each level reads its lower minima from `min_shadow_profile`,
    which raises ResourceLimitError as soon as the search reaches a level
    whose scanned side has more subsets than DEFAULT_SUBSET_CAP.  A prefix
    whose shadow's bit length is above the minimum for its size (it is not an
    initial segment, or is too large) is cut: every completion of it fails
    too.  `budget` counts nodes, one per prefix grown.
    Returns None when the space is exhausted; raises SearchBudgetExceeded once
    more than `budget` nodes are grown.
    """
    levels = [label_order(poset, lvl) for lvl in poset.levels]
    chosen: list = [None] * len(levels)
    nodes = 0

    def extend(i):
        if i == len(levels):
            return True
        level = levels[i]
        k = len(level)
        masks = _shadow_masks(poset.down, level, chosen[i - 1] if i else [])
        best = min_shadow_profile(poset, i, "lower", DEFAULT_SUBSET_CAP)
        perm = []

        def grow(shadow):
            nonlocal nodes
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(f"no verdict within {budget} nodes")
            size = len(perm)
            if size == k:
                chosen[i] = [level[j] for j in perm]
                return extend(i + 1)
            for j in range(k):
                m = shadow | masks[j]
                if j in perm or m.bit_length() > best[size + 1]:
                    continue
                perm.append(j)
                if grow(m):
                    return True
                perm.pop()
            return False

        return grow(0)

    if not extend(0):
        return None
    ids = [x for lvl in chosen for x in lvl]
    table = explicit_order(poset, ids)
    assert is_macaulay(poset, table, direction="lower").holds
    return table
