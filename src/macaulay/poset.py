"""Finite ranked posets: shadows, upsets, duals, products, truncation, export.

Elements are dense integer ids 0..n-1.  A cover pair (a, b) means b covers a,
and the rank of b must be rank(a) + 1.  Opaque labels (typically exponent
vectors) ride along with each element; all set computations stay on ids.
"""
from __future__ import annotations

import itertools
import json
from math import prod
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import PosetError, ResourceLimitError, excerpt

DEFAULT_PRODUCT_LIMIT = 1_000_000
_LABEL_DEPTH = 100
_PRINTABLE_BITS = 14_000  # str() refuses ints of more than 4,300 digits, about 14,284 bits
_ELEMENTS = "poset would have {} elements"
_MORE = f"more than {DEFAULT_PRODUCT_LIMIT}"


def _over(what, count):
    return ResourceLimitError(f"{what.format(count)} (limit {DEFAULT_PRODUCT_LIMIT})")


def check_count(factors, what=_ELEMENTS):
    """The product of the positive `factors`, once it is known not to exceed
    `DEFAULT_PRODUCT_LIMIT`; else the error puts it into `what`, as "more than"
    the limit where str() cannot print it.  The product stops growing once too
    long to print, so the factors may be many, or lazy and unbounded."""
    total = 1
    for f in factors:
        total *= f
        if total.bit_length() >= _PRINTABLE_BITS:
            break
    if total > DEFAULT_PRODUCT_LIMIT:
        raise _over(what, total if total.bit_length() < _PRINTABLE_BITS else _MORE)
    return total


def _times(a, b, D):
    """Coefficients 0..D of the product of two coefficient lists, in ascending degree."""
    return (sum(map(mul, a[max(0, i - len(b) + 1):i + 1], reversed(b[max(0, i - len(a) + 1):i + 1])))
            for i in range(min(D, len(a) + len(b) - 2) + 1))


def check_series(series, D, what=_ELEMENTS):
    """Coefficients 0..D of the product of polynomials, summed by `check_count`: with
    level sizes as coefficients, a truncated product's element count.

    Where D cuts the product, each stage multiplies in one polynomial in ascending
    degree and raises at the first partial sum over the limit, reading `series` no
    further; every constant term must be at least 1, so each partial sum bounds the total below.
    """
    series = (s[: len(s) - next(j for j, c in enumerate(reversed(s)) if c)] for s in series)
    seen, top = [], 0  # the polynomials up to the first that D cuts, zero tails trimmed
    for s in series:
        seen.append(s)
        top += len(s) - 1
        if top > D:
            break
    else:  # nothing is cut off
        return check_count(map(sum, seen), what)
    out = [1]
    for s in itertools.chain(seen, series):
        stage = s[: D + 1] if out == [1] else _times(out, s, D)
        out, total = [], 0
        for c in stage:
            total += c
            if total > DEFAULT_PRODUCT_LIMIT:
                raise _over(what, _MORE)
            out.append(c)
    return total


def _label_key(label):
    """Deterministic sort key usable across the label types we construct."""
    if isinstance(label, bool):
        return (2, (repr(label),))
    if isinstance(label, int):
        return (0, (label,))
    if isinstance(label, tuple):
        return (1, tuple(_label_key(x) for x in label))
    if isinstance(label, str):
        return (2, (label,))
    return (3, (repr(label),))


def split_by_rank(ids, rank):
    """The `ids`, in their order, as one tuple per rank 0..max(rank); ranks are nonnegative."""
    out = [[] for _ in range(max(rank) + 1)]
    for x in ids:
        out[rank[x]].append(x)
    return tuple(map(tuple, out))


def label_order(poset, ids):
    """The `ids` sorted by label, ties kept in place: the order that `min_shadow`'s witness,
    the order search and DOT export promise; package posets number each level in it."""
    return tuple(sorted(ids, key=lambda x: _label_key(poset.labels[x])))


class RankedPoset:
    """Immutable finite ranked poset.

    Invariants checked at construction: every cover raises rank by exactly
    one (which also forces acyclicity), at least one element has rank 0, and
    every element of positive rank has a cover below it.
    """

    __slots__ = ("n", "covers", "rank", "labels", "up", "down", "levels", "_label_ids", "_minima")

    def __init__(self, n, covers, rank, labels=None):
        self.n = int(n)
        # int() only where an endpoint is not an int: bools, floats and
        # numeric strings convert as before, and int pairs pass as they are
        self.covers = tuple(sorted([
            (a if type(a) is int else int(a), b if type(b) is int else int(b)) for a, b in covers
        ]))
        self.rank = tuple(int(r) for r in rank)
        self.labels = tuple(labels) if labels is not None else tuple(range(self.n))
        self._label_ids = None
        self._minima = {}  # (level, direction) -> least shadow size per subset size
        self.audit()
        self.levels = split_by_rank(range(self.n), self.rank)  # per rank, ascending ids
        # the covers are sorted, so each element's ups and downs arrive
        # ascending and a repeated cover arrives right after itself
        up = [[] for _ in range(self.n)]
        down = [[] for _ in range(self.n)]
        last = None
        for cover in self.covers:
            if cover != last:
                a, b = last = cover
                up[a].append(b)
                down[b].append(a)
        self.up = tuple(map(tuple, up))
        self.down = tuple(map(tuple, down))

    def audit(self):
        """Re-verify the rank-function invariants, raising PosetError; ids are checked before use."""
        n, rank = self.n, self.rank
        if n < 1:
            raise PosetError("poset must have at least one element")
        if len(rank) != n or len(self.labels) != n:
            raise PosetError("rank and labels must have one entry per element")
        for a, b in self.covers:
            if not (0 <= a < n and 0 <= b < n):
                raise PosetError(f"cover ({a},{b}) references unknown element")
            if a == b:
                raise PosetError(f"cover relation must be irreflexive, got ({a},{b})")
            if rank[b] != rank[a] + 1:
                raise PosetError(
                    f"cover ({a},{b}) must raise rank by 1, got {rank[a]} -> {rank[b]}"
                )
        if min(rank) != 0:
            raise PosetError("at least one element must have rank 0")
        covered = {b for _, b in self.covers}
        for x in range(n):
            if rank[x] > 0 and x not in covered:
                raise PosetError(f"element {x} has rank {rank[x]} but no cover below it")

    @property
    def max_rank(self):
        return len(self.levels) - 1

    def level(self, i):
        return self.levels[i] if 0 <= i < len(self.levels) else ()

    def id_of(self, label):
        if self._label_ids is None:
            self._label_ids = {lab: i for i, lab in enumerate(self.labels)}
        return self._label_ids[label]

    def _check_ids(self, ids):
        for x in ids:
            if not isinstance(x, int) or not (0 <= x < self.n):
                raise PosetError(f"unknown element id {excerpt(x)}")

    def lower_shadow(self, ids):
        """Union of the elements covered by members of `ids`."""
        ids = tuple(ids)  # read twice
        self._check_ids(ids)
        return frozenset(y for x in ids for y in self.down[x])

    def upper_shadow(self, ids):
        """Union of the elements covering members of `ids`."""
        ids = tuple(ids)  # read twice
        self._check_ids(ids)
        return frozenset(y for x in ids for y in self.up[x])

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, RankedPoset):
            return NotImplemented
        return (
            self.n == other.n
            and self.covers == other.covers
            and self.rank == other.rank
            and self.labels == other.labels
        )

    def __hash__(self):
        return hash((self.n, self.covers, self.rank, self.labels))

    def __repr__(self):
        sizes = ",".join(str(len(l)) for l in self.levels)
        return f"RankedPoset(n={self.n}, levels=[{sizes}])"


_BIT_DIGITS = bytes.maketrans(b"\0\1", b"01")


def upset_mask(poset: RankedPoset, ids: Iterable[int]) -> int:
    """Bitmask (bit x for element x) of the elements weakly above any of `ids`.

    One upward walk over `poset.up` with a flag byte per element, so each
    visit costs O(1); the flags, read last first as binary digits, are the mask.
    """
    stack = list(ids)
    poset._check_ids(stack)
    seen = bytearray(poset.n)
    for x in stack:
        seen[x] = 1
    up = poset.up
    while stack:
        for y in up[stack.pop()]:
            if not seen[y]:
                seen[y] = 1
                stack.append(y)
    return int(seen[::-1].translate(_BIT_DIGITS), 2)


def multiset_lattice(lengths, truncation=None) -> RankedPoset:
    """Lattice of exponent vectors x with 0 <= x_i < length_i and |x| <= truncation.

    A length of None means unbounded, which needs a truncation: the library
    never materializes infinite posets.  The lattice is the product of
    chains, counted before any chain is built: covers are unit increments,
    rank is the coordinate sum, labels carry the vectors, and elements are
    id-ordered by (rank, vector).
    """
    lengths = tuple(lengths)
    if not lengths:
        raise PosetError("shape needs at least one coordinate")
    for l in lengths:
        if l is not None and (not isinstance(l, int) or l < 1):
            raise PosetError(f"length must be a positive integer or None, got {excerpt(l)}")
    if truncation is None:
        if None in lengths:
            raise PosetError("unbounded lengths require a truncation")
        check_count(lengths)
    else:
        if truncation < 0:
            raise PosetError("truncation must be nonnegative")
        lengths = [min(l or truncation + 1, truncation + 1) for l in lengths]
        if max(lengths) > DEFAULT_PRODUCT_LIMIT:  # each clipped chain lies in the product as an axis
            raise _over(_ELEMENTS, _MORE)
        check_series(([1] * l for l in lengths), truncation)
    return cartesian_product([chain(l) for l in lengths], truncation)


def chain(n: int) -> RankedPoset:
    """Chain with n elements, labeled by 1-vectors (0,), ..., (n-1,)."""
    if not isinstance(n, int) or n < 1:
        raise PosetError(f"length must be a positive integer, got {excerpt(n)}")
    check_count((n,))
    return RankedPoset(n, [(i, i + 1) for i in range(n - 1)], range(n), [(i,) for i in range(n)])


def dual(poset: RankedPoset) -> RankedPoset:
    """Reverse all covers and replace rank r by maxrank - r.

    Rejected when some maximal element sits below the top rank: the reversed
    relation is then not ranked, and silently re-ranking would change which
    sets count as shadows.
    """
    top = poset.max_rank
    for x in range(poset.n):
        if poset.rank[x] < top and not poset.up[x]:
            raise PosetError(
                f"not dually ranked: element {x} is maximal at rank {poset.rank[x]} < {top}"
            )
    covers = [(b, a) for a, b in poset.covers]
    rank = [top - r for r in poset.rank]
    return RankedPoset(poset.n, covers, rank, poset.labels)


def cartesian_product(
    posets: Sequence[RankedPoset], truncation: Optional[int] = None
) -> RankedPoset:
    """Cartesian product: covers change exactly one coordinate by a cover.

    Rank is the sum of factor ranks.  Tuple labels of the factors are
    concatenated so products of grids stay labeled by flat exponent vectors,
    and ids follow (rank, label key), ties by factor ids, first factor first.
    """
    if not posets:
        raise PosetError("product of zero posets is not defined")
    if len(posets) == 1:
        return posets[0] if truncation is None else truncate(posets[0], truncation)
    top = sum(p.max_rank for p in posets) if truncation is None else truncation
    check_series([[len(lvl) for lvl in p.levels] for p in posets], top)
    # (rank, label key parts, factor ids as a mixed-radix code, label), a factor at a time
    elems = [(0, (), 0, ())]
    for p in posets:
        flats = [lab if isinstance(lab, tuple) else (lab,) for lab in p.labels]
        factor = [(r, tuple(map(_label_key, f)), x, f) for x, (r, f) in enumerate(zip(p.rank, flats))]
        elems = [
            (r + s, parts + ps, code * p.n + x, lab + f)
            for r, parts, code, lab in elems
            for s, ps, x, f in factor
            if r + s <= top
        ]
    elems.sort()
    index = {e[2]: i for i, e in enumerate(elems)}
    strides = [prod(p.n for p in posets[c + 1:]) for c in range(len(posets))]
    covers = []
    for i, (_, _, code, _) in enumerate(elems):
        for p, stride in zip(posets, strides):
            x = code // stride % p.n
            for y in p.up[x]:
                j = index.get(code + (y - x) * stride)
                if j is not None:
                    covers.append((i, j))
    return RankedPoset(len(elems), covers, [e[0] for e in elems], [e[3] for e in elems])


def cartesian_power(poset: RankedPoset, n: int) -> RankedPoset:
    check_count(poset.n for _ in range(n))  # before the list of n factors
    return cartesian_product([poset] * n)


def truncate(poset: RankedPoset, n: int) -> RankedPoset:
    """Keep elements of rank <= n and the covers among them."""
    keep = [x for x in range(poset.n) if poset.rank[x] <= n]
    if len(keep) == poset.n:
        return poset
    new_id = {x: i for i, x in enumerate(keep)}
    covers = [(new_id[a], new_id[b]) for a, b in poset.covers if a in new_id and b in new_id]
    return RankedPoset(
        len(keep), covers, [poset.rank[x] for x in keep], [poset.labels[x] for x in keep]
    )


# ---------------------------------------------------------------------------
# Export / import


def _label_to_json(label):
    if isinstance(label, tuple):
        return [_label_to_json(x) for x in label]
    return label


def _label_from_json(obj, depth=0):
    """A JSON label with its lists as tuples; the label walks recurse, so depth is capped."""
    if isinstance(obj, list):
        if depth == _LABEL_DEPTH:
            raise PosetError(f"poset labels may nest lists at most {_LABEL_DEPTH} deep")
        return tuple(_label_from_json(x, depth + 1) for x in obj)
    return obj


def poset_to_dict(poset: RankedPoset) -> dict:
    return {
        "n": poset.n,
        "ranks": list(poset.rank),
        "covers": [list(c) for c in poset.covers],
        "labels": [_label_to_json(l) for l in poset.labels],
    }


def poset_from_dict(data: dict) -> RankedPoset:
    """The poset of an object shaped as `poset_to_dict` writes it.

    Shapes are checked, and n against `check_count`, before anything is
    allocated; any other shape raises PosetError.
    """
    keys = ("n", "ranks", "covers", "labels")
    if not isinstance(data, dict) or any(key not in data for key in keys):
        raise PosetError(f"a poset object needs the keys {', '.join(keys)}")
    n, ranks, covers, labels = (data[key] for key in keys)
    if type(n) is not int:
        raise PosetError(f"poset n must be an integer, got {excerpt(n)}")
    check_count((n,))
    if not isinstance(ranks, list) or any(type(r) is not int for r in ranks):
        raise PosetError("poset ranks must be a list of integers")
    if not isinstance(covers, list) or not all(
        isinstance(c, list) and len(c) == 2 and all(type(a) is int and 0 <= a < n for a in c)
        for c in covers
    ):
        raise PosetError(f"poset covers must be a list of [a, b] pairs of ids below {n}")
    if not isinstance(labels, list):
        raise PosetError("poset labels must be a list")
    return RankedPoset(n, [tuple(c) for c in covers], ranks, [_label_from_json(l) for l in labels])


def export_json(poset: RankedPoset) -> str:
    return json.dumps(poset_to_dict(poset), sort_keys=True)


def parse_json(text: str) -> RankedPoset:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise PosetError(f"poset file is not valid JSON: {e}") from None
    return poset_from_dict(data)


def export_dot(poset: RankedPoset) -> str:
    """Hasse graph in DOT, rank-layered, nodes named v<id>, labels with \\ and " escaped."""
    lines = ["digraph hasse {", "  rankdir=BT;"]
    levels = [label_order(poset, ids) for ids in poset.levels]
    lines += [f"  {{ rank=same; {' '.join(f'v{x};' for x in ids)} }}" for ids in levels]
    for x in (x for ids in levels for x in ids):
        label = str(poset.labels[x]).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  v{x} [label="{label}"];')
    lines += [f"  v{a} -> v{b};" for a, b in poset.covers]
    return "\n".join(lines + ["}"]) + "\n"


def cube_coordinates(poset: RankedPoset) -> list:
    """Lower-corner coordinates of the unit cube attached to each element.

    Requires exponent-vector labels; rendering is left to external tools.
    """
    out = []
    for x in range(poset.n):
        lab = poset.labels[x]
        if not isinstance(lab, tuple) or not all(isinstance(v, int) for v in lab):
            raise PosetError("cube coordinates need integer-vector labels")
        out.append({"id": x, "corner": list(lab)})
    return out
