"""Finite ranked posets: shadows, duals, products, truncation, export.

Elements are dense integer ids 0..n-1.  A cover pair (a, b) means b covers a,
and the rank of b must be rank(a) + 1.  Opaque labels (typically exponent
vectors) ride along with each element; all set computations stay on ids.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import PosetError, ResourceLimitError

DEFAULT_PRODUCT_LIMIT = 1_000_000
_PRINTABLE_BITS = 14_000  # str() refuses ints of more than 4,300 digits, about 14,284 bits


def printable_count(total):
    """A count over `DEFAULT_PRODUCT_LIMIT` as a cap message prints it: the
    number where str() can print it, else "more than" the limit."""
    return total if total.bit_length() < _PRINTABLE_BITS else f"more than {DEFAULT_PRODUCT_LIMIT}"


def check_size(total):
    """`total`, once it is known not to exceed `DEFAULT_PRODUCT_LIMIT`; checked before building."""
    if total > DEFAULT_PRODUCT_LIMIT:
        raise ResourceLimitError(
            f"poset would have {printable_count(total)} elements (limit {DEFAULT_PRODUCT_LIMIT})"
        )
    return total


def check_product(sizes):
    """The product of the positive `sizes`, by `check_size`; it stops growing once
    too long to print, so the sizes may be many, or lazy and unbounded."""
    total = 1
    for s in sizes:
        total *= s
        if total.bit_length() >= _PRINTABLE_BITS:
            break
    return check_size(total)


def series_product(series, D):
    """Coefficients 0..D of the product of polynomials given by their coefficient lists,
    or up to the product's degree where that is lower.

    With level sizes as the coefficients, these are a product's element counts by rank.
    """
    D = min(D, sum(len(s) - 1 for s in series))
    out = [1] + [0] * D
    for s in series:
        out = [sum(out[i - j] * c for j, c in enumerate(s[: i + 1])) for i in range(D + 1)]
    return out


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


class RankedPoset:
    """Immutable finite ranked poset.

    Invariants checked at construction: every cover raises rank by exactly
    one (which also forces acyclicity), at least one element has rank 0, and
    every element of positive rank has a cover below it.
    """

    __slots__ = ("n", "covers", "rank", "labels", "up", "down", "_levels", "_label_ids")

    def __init__(self, n, covers, rank, labels=None):
        self.n = int(n)
        # int() only where an endpoint is not an int: bools, floats and
        # numeric strings convert as before, and int pairs pass as they are
        self.covers = tuple(sorted([
            (a if type(a) is int else int(a), b if type(b) is int else int(b)) for a, b in covers
        ]))
        self.rank = tuple(int(r) for r in rank)
        self.labels = tuple(labels) if labels is not None else tuple(range(self.n))
        self._levels = None
        self._label_ids = None
        self.audit()
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
        return max(self.rank)

    @property
    def levels(self):
        """Per-rank element ids, each level sorted by label."""
        if self._levels is None:
            lv = [[] for _ in range(self.max_rank + 1)]
            for x in range(self.n):
                lv[self.rank[x]].append(x)
            self._levels = tuple(
                tuple(sorted(xs, key=lambda i: _label_key(self.labels[i]))) for xs in lv
            )
        return self._levels

    def level(self, i):
        if not (0 <= i <= self.max_rank):
            return ()
        return self.levels[i]

    def id_of(self, label):
        if self._label_ids is None:
            self._label_ids = {lab: i for i, lab in enumerate(self.labels)}
        return self._label_ids[label]

    def _check_ids(self, ids):
        for x in ids:
            if not isinstance(x, int) or not (0 <= x < self.n):
                raise PosetError(f"unknown element id {x!r}")

    def lower_shadow(self, ids):
        self._check_ids(ids)
        out = set()
        for x in ids:
            out.update(self.down[x])
        return frozenset(out)

    def upper_shadow(self, ids):
        self._check_ids(ids)
        out = set()
        for x in ids:
            out.update(self.up[x])
        return frozenset(out)

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


def lower_shadow(poset: RankedPoset, ids: Iterable[int]) -> frozenset:
    """Union of the elements covered by members of `ids`."""
    return poset.lower_shadow(ids)


def upper_shadow(poset: RankedPoset, ids: Iterable[int]) -> frozenset:
    """Union of the elements covering members of `ids`."""
    return poset.upper_shadow(ids)


@dataclass(frozen=True)
class LatticeShape:
    """Grid shape: per-coordinate lengths, None meaning unbounded.

    Unbounded lengths are only legal together with a rank truncation; the
    library never materializes infinite posets.
    """

    lengths: tuple
    truncation: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(self.lengths))
        if len(self.lengths) < 1:
            raise PosetError("shape needs at least one coordinate")
        for l in self.lengths:
            if l is not None and (not isinstance(l, int) or l < 1):
                raise PosetError(f"length must be a positive integer or None, got {l!r}")
        if any(l is None for l in self.lengths) and self.truncation is None:
            raise PosetError("unbounded lengths require a truncation")
        if self.truncation is not None and self.truncation < 0:
            raise PosetError("truncation must be nonnegative")

    @property
    def d(self):
        return len(self.lengths)


def multiset_lattice(shape, truncation=None) -> RankedPoset:
    """Lattice of exponent vectors x with 0 <= x_i < length_i and |x| <= truncation.

    Covers are unit increments; rank is the coordinate sum; labels carry the
    vectors.  Elements are id-ordered by (rank, vector), and counted first.
    """
    if not isinstance(shape, LatticeShape):
        shape = LatticeShape(tuple(shape), truncation)
    elif truncation is not None:
        shape = LatticeShape(shape.lengths, truncation)
    lengths = shape.lengths
    cap = shape.truncation
    if cap is None:
        cap = sum(l - 1 for l in lengths)
        check_product(lengths)
    else:
        chains = [[1] * (cap + 1 if l is None else min(l, cap + 1)) for l in lengths]
        check_size(sum(series_product(chains, cap)))
    vecs = []

    def walk(i, left, prefix):
        if i == len(lengths):
            vecs.append(tuple(prefix))
            return
        top = left if lengths[i] is None else min(left, lengths[i] - 1)
        for v in range(top + 1):
            prefix.append(v)
            walk(i + 1, left - v, prefix)
            prefix.pop()

    walk(0, cap, [])
    vecs.sort(key=lambda v: (sum(v), v))
    index = {v: i for i, v in enumerate(vecs)}
    covers = []
    for v, i in index.items():
        for c in range(len(lengths)):
            w = v[:c] + (v[c] + 1,) + v[c + 1:]
            j = index.get(w)
            if j is not None:
                covers.append((i, j))
    return RankedPoset(len(vecs), covers, [sum(v) for v in vecs], vecs)


def chain(n: int) -> RankedPoset:
    """Chain with n elements, labeled by 1-vectors (0,), ..., (n-1,)."""
    return multiset_lattice(LatticeShape((n,)))


def singleton() -> RankedPoset:
    return chain(1)


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


def _flatten_label(parts):
    out = []
    for lab in parts:
        if isinstance(lab, tuple):
            out.extend(lab)
        else:
            out.append(lab)
    return tuple(out)


def cartesian_product(
    posets: Sequence[RankedPoset], truncation: Optional[int] = None
) -> RankedPoset:
    """Cartesian product: covers change exactly one coordinate by a cover.

    Rank is the sum of factor ranks.  Tuple labels of the factors are
    concatenated so products of grids stay labeled by flat exponent vectors.
    """
    if not posets:
        raise PosetError("product of zero posets is not defined")
    if len(posets) == 1:
        p = posets[0]
        return truncate(p, truncation) if truncation is not None else p
    # Count before materializing so a runaway request fails fast.
    if truncation is None:
        check_product(p.n for p in posets)
    else:
        levels = [[len(lvl) for lvl in p.levels] for p in posets]
        check_size(sum(series_product(levels, truncation)))

    elems = []

    def walk(i, left, prefix):
        if i == len(posets):
            elems.append(tuple(prefix))
            return
        p = posets[i]
        for x in range(p.n):
            if truncation is not None and p.rank[x] > left:
                continue
            prefix.append(x)
            walk(i + 1, left - p.rank[x], prefix)
            prefix.pop()

    walk(0, truncation if truncation is not None else 10 ** 18, [])

    def key(tup):
        r = sum(p.rank[x] for p, x in zip(posets, tup))
        lab = _flatten_label([p.labels[x] for p, x in zip(posets, tup)])
        return (r, _label_key(lab))

    elems.sort(key=key)
    index = {t: i for i, t in enumerate(elems)}
    labels = []
    rank = []
    covers = []
    for t, i in index.items():
        rank.append(sum(p.rank[x] for p, x in zip(posets, t)))
        labels.append(_flatten_label([p.labels[x] for p, x in zip(posets, t)]))
        for c, p in enumerate(posets):
            for y in p.up[t[c]]:
                u = t[:c] + (y,) + t[c + 1:]
                j = index.get(u)
                if j is not None:
                    covers.append((i, j))
    return RankedPoset(len(elems), covers, rank, labels)


def cartesian_power(poset: RankedPoset, n: int) -> RankedPoset:
    check_product(poset.n for _ in range(n))  # before the list of n factors
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


def _label_from_json(obj):
    if isinstance(obj, list):
        return tuple(_label_from_json(x) for x in obj)
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

    Shapes are checked, and n against `check_size`, before anything is
    allocated; any other shape raises PosetError.
    """
    keys = ("n", "ranks", "covers", "labels")
    if not isinstance(data, dict) or any(key not in data for key in keys):
        raise PosetError(f"a poset object needs the keys {', '.join(keys)}")
    n, ranks, covers, labels = (data[key] for key in keys)
    if type(n) is not int:
        raise PosetError(f"poset n must be an integer, got {n!r}")
    check_size(n)
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
    """Hasse graph in DOT, rank-layered, nodes named v<id>."""
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for i in range(poset.max_rank + 1):
        ids = poset.level(i)
        names = " ".join(f"v{x};" for x in ids)
        lines.append(f"  {{ rank=same; {names} }}")
    for x in sorted(range(poset.n), key=lambda i: (poset.rank[i], _label_key(poset.labels[i]))):
        lines.append(f'  v{x} [label="{poset.labels[x]}"];')
    for a, b in poset.covers:
        lines.append(f"  v{a} -> v{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


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


def reachability(poset: RankedPoset):
    """Boolean leq matrix (list of sets: ids weakly above each element)."""
    above = [set([x]) for x in range(poset.n)]
    for x in sorted(range(poset.n), key=lambda i: -poset.rank[i]):
        for y in poset.up[x]:
            above[x] |= above[y]
    return above
