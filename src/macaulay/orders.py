"""Total orders on products of finite tosets, and order tables over posets.

All generators ultimately rank integer position vectors: an element of a
product of tosets is identified with the vector of 0-based positions of its
coordinates.  Position 0 in an order table is the first (smallest) element.
Initial segments of size q are the q smallest.

Every vector recipe compiles to one sort key, compared as a tuple:
lex is the vector, colex the reversed vector, and dom the coordinates in
the permutation's order.  The hyperrectangle chaser (hc) is the nested tuple
(largest toset index, chosen domination key of the initial complement, hc key
of the coordinates below that index).  The border chaser (bc) is the hc key
of the coordinate complement with every integer negated: two hc keys first
differ at integers in the same place, so negation reverses the order.  A
block order is (starts key of the block index, key of the local vector under
the blocks' recipe).  The block rule "dom-by-block" instead gives each block
the domination order that compares coordinates sorted by (block index,
coordinate), so coordinates in lower blocks lead.
"""
from __future__ import annotations

import re
from bisect import bisect_right

from .errors import OrderError, excerpt
from .poset import RankedPoset, dual as dual_poset, split_by_rank

# ---------------------------------------------------------------------------
# Core: ranking integer position vectors


def ascii_int(text):
    """The int that `text` spells in ASCII digits after an optional "-", else
    ValueError: int() alone also reads "٣", "1_0", " 3" and "+4"."""
    if re.fullmatch(r"-?[0-9]+", text) is None:
        raise ValueError(f"not an integer: {excerpt(text)}")
    return int(text)


def _check_perm(perm, d):
    """perm is 1-based, as in 'compare coordinates perm(1), perm(2), ...'."""
    if sorted(perm) != list(range(1, d + 1)):
        raise OrderError(f"invalid permutation {excerpt(perm)} for dimension {d}")


def _dom_key(perm):
    idx = [p - 1 for p in perm]
    return lambda v: tuple(v[i] for i in idx)


def _scd(v):
    # toset index of a coordinate = position + 1
    return max(v) + 1


def _icscd(v):
    s = _scd(v)
    return tuple(x if x + 1 == s else 0 for x in v)


# recipes that rank position vectors, exponent-vector labels among them
VECTOR_KINDS = ("lex", "colex", "dom", "hc", "bc", "block")
RECIPE, VECTOR = object(), object()  # shapes of a nested recipe: of any kind, of a vector kind

# every order kind, with the fields it reads and their JSON shapes: a type,
# [shape] for a list of that shape, {str: shape} for an object whose values
# have that shape, a string for itself, RECIPE or VECTOR for a nested recipe,
# or a tuple of alternatives, where None makes the field optional;
# `families.order_from_recipe` resolves each kind
RECIPE_FIELDS = {
    "lex": {}, "colex": {}, "rep-lex": {}, "degree-rep-lex": {},
    "dom": {"perm": [int]},
    "hc": {"choices": (None, [[[int]]])},
    "bc": {"choices": (None, [[[int]]])},
    "block": {"cuts": [[int]], "starts": VECTOR, "blocks": (VECTOR, "dom-by-block")},
    "explicit": {"positions": [int]},
    "dual": {"of": RECIPE},
    "degree-major": {"per_rank": (None, {str: VECTOR}), "default": (None, VECTOR)},
    "family-default": {"family": str, "params": [int], "side": (None, str)},
    "tensor-degree-lex": {"sizes": [int]},
}


def _fits(value, shape, nested):
    """Whether a JSON value has a shape of RECIPE_FIELDS; a nested recipe fits
    when it is an object, and goes onto `nested` with its shape to be checked."""
    if isinstance(shape, tuple):
        return any(_fits(value, s, nested) for s in shape)
    if isinstance(shape, list):
        return isinstance(value, (list, tuple)) and all(_fits(v, shape[0], nested) for v in value)
    if isinstance(shape, dict):
        return isinstance(value, dict) and all(_fits(v, shape[str], nested) for v in value.values())
    if shape is RECIPE or shape is VECTOR:
        if isinstance(value, dict):
            nested.append((value, shape))
        return isinstance(value, dict)
    if isinstance(shape, str):
        return value == shape
    return value is None if shape is None else isinstance(value, shape)


def _recipe_kind(recipe):
    """The recipe's kind, once it is an object of a listed kind whose fields
    have their shapes, and so, level by level, is every recipe nested in it."""
    nested = [(recipe, RECIPE)]
    for item, shape in nested:  # the loop reaches the recipes _fits appends
        if not isinstance(item, dict) or not isinstance(item.get("kind"), str):
            raise OrderError(f"order recipe must be an object with a string kind, got {excerpt(item)}")
        kind = item["kind"]
        if kind not in RECIPE_FIELDS:
            raise OrderError(f"unknown order recipe kind {excerpt(kind)}")
        if shape is VECTOR and kind not in VECTOR_KINDS:
            raise OrderError(f"order recipe kind {excerpt(kind)} does not rank exponent vectors")
        fields = RECIPE_FIELDS[kind]
        missing = [f for f, s in fields.items() if f not in item and not _fits(None, s, [])]
        if missing:
            raise OrderError(f"{kind} order recipe lacks {', '.join(missing)}")
        for f, s in fields.items():
            if not _fits(item.get(f), s, nested):
                raise OrderError(f"{kind} order recipe has a malformed {f}: {excerpt(item[f])}")
    return recipe["kind"]


def ranks_vectors(recipe) -> bool:
    """Whether resolving the recipe ranks exponent-vector labels: a vector
    recipe, a degree-major order (it ranks every level by one), or the dual
    of either."""
    kind = recipe.get("kind") if isinstance(recipe, dict) else None
    if kind == "dual":
        return ranks_vectors(recipe.get("of"))
    return kind in VECTOR_KINDS or kind == "degree-major"


def _vector_key(recipe, lengths):
    """Sort key on position vectors of a product of tosets with these lengths,
    under a vector recipe that `_recipe_kind` has checked."""
    kind = recipe["kind"]
    d = len(lengths)
    if kind == "lex":
        return lambda v: v
    if kind == "colex":
        return lambda v: v[::-1]
    if kind == "dom":
        _check_perm(recipe["perm"], d)
        return _dom_key(recipe["perm"])
    if kind in ("hc", "bc"):
        doms = _choices_from_recipe(recipe, d)
        sign = 1 if kind == "hc" else -1

        def hc(v, coords):
            if not v:
                return ()
            s = _scd(v)
            dom = doms.get(coords)
            ic = dom(_icscd(v)) if dom else _icscd(v)
            rest = [j for j, x in enumerate(v) if x + 1 != s]
            tail = hc(tuple(v[j] for j in rest), tuple(coords[j] for j in rest))
            return sign * s, tuple(sign * x for x in ic), tail

        whole = tuple(range(d))
        if kind == "hc":
            return lambda v: hc(v, whole)
        return lambda v: hc(tuple(l - 1 - x for l, x in zip(lengths, v)), whole)
    cuts0 = [tuple(c - 1 for c in cc) for cc in recipe["cuts"]]
    if len(cuts0) != d:
        raise OrderError(f"block order has {len(cuts0)} partitions for {d} coordinates")
    for cc, l in zip(cuts0, lengths):
        if not cc or cc[0] != 0 or list(cc) != sorted(set(cc)) or cc[-1] >= l:
            raise OrderError(f"malformed ordered partition {excerpt(cc)} for toset of size {l}")
    blocks = recipe["blocks"]
    starts = _vector_key(recipe["starts"], [len(cc) for cc in cuts0])
    inner = {}  # block index -> (first positions, key inside the block)

    def key(v):
        b = tuple(bisect_right(cc, x) - 1 for cc, x in zip(cuts0, v))
        if b not in inner:
            base = [cc[i] for cc, i in zip(cuts0, b)]
            ends = [(cc + (l,))[i + 1] for cc, i, l in zip(cuts0, b, lengths)]
            if blocks == "dom-by-block":
                local = _dom_key(sorted(range(1, d + 1), key=lambda j: (b[j - 1], j)))
            else:
                local = _vector_key(blocks, [e - s for e, s in zip(ends, base)])
            inner[b] = base, local
        base, local = inner[b]
        return starts(b), local(tuple(x - s for x, s in zip(v, base)))

    return key


def rank_vectors(vectors, lengths, recipe):
    """Rank position vectors by a checked vector recipe; returns vector -> position dict."""
    return {v: i for i, v in enumerate(sorted(vectors, key=_vector_key(recipe, lengths)))}


def _choices_from_recipe(recipe, d):
    """Chaser choices as {0-based coordinates: domination key}, checked against d."""
    doms = {}
    # serialized as [[coords...], [perm...]] pairs with 1-based coordinates
    for pair in recipe.get("choices") or ():
        if len(pair) != 2 or len(set(pair[0])) != len(pair[0]) or not set(pair[0]) <= set(range(1, d + 1)):
            raise OrderError(
                f"order choices must be [coordinates, permutation] pairs of distinct"
                f" coordinates in 1..{d}, got {excerpt(pair)}"
            )
        coords, perm = pair
        _check_perm(perm, len(coords))
        doms[tuple(sorted(c - 1 for c in coords))] = _dom_key(perm)
    return doms


# ---------------------------------------------------------------------------
# Order tables over posets


class OrderTable:
    """A total order over a poset's elements plus the recipe that produced it."""

    __slots__ = ("poset", "position", "recipe", "_by_pos", "_levels")

    def __init__(self, poset: RankedPoset, position, recipe):
        self.poset = poset
        self.position = tuple(position)
        self.recipe = recipe
        if sorted(self.position) != list(range(poset.n)):
            raise OrderError("positions must be a bijection onto 0..n-1")
        by = [0] * poset.n
        for x, p in enumerate(self.position):
            by[p] = x
        self._by_pos = tuple(by)
        self._levels = split_by_rank(self._by_pos, poset.rank)

    def by_position(self):
        return self._by_pos

    def level_in_order(self, i, reverse=False):
        """Ids of level i sorted by position (reverse=True for the dual side)."""
        ids = self._levels[i] if 0 <= i < len(self._levels) else ()
        return ids[::-1] if reverse else ids

    def labels_in_order(self):
        return tuple(self.poset.labels[x] for x in self._by_pos)

    def __eq__(self, other):
        if not isinstance(other, OrderTable):
            return NotImplemented
        return self.poset == other.poset and self.position == other.position

    def __hash__(self):
        return hash((self.poset, self.position))

    def __repr__(self):
        return f"OrderTable({self.recipe!r}, n={self.poset.n})"


def _vector_labels(poset):
    """The labels as position vectors, and the toset lengths they span."""
    labs = poset.labels
    for lab in labs:
        if not isinstance(lab, tuple) or not all(isinstance(v, int) and v >= 0 for v in lab):
            raise OrderError(f"order needs exponent-vector labels, got {excerpt(lab)}")
    d = len(labs[0])
    if any(len(lab) != d for lab in labs):
        raise OrderError("all labels must have the same dimension")
    return labs, tuple(max(lab[i] for lab in labs) + 1 for i in range(d))


def table_from_vectors(poset, vectors, lengths, recipe, public_recipe=None) -> OrderTable:
    """Order a poset by ranking its elements' position vectors under a vector recipe.

    `vectors[x]` is element x's position vector; they must be distinct.  The
    table records `public_recipe`, or the vector recipe itself when not given.
    """
    ranking = rank_vectors(set(vectors), lengths, recipe)
    if len(ranking) != poset.n:
        raise OrderError("position vectors must be distinct to define a total order")
    return OrderTable(poset, [ranking[v] for v in vectors], public_recipe or recipe)


def lex_order(poset: RankedPoset) -> OrderTable:
    """Lexicographic order: first differing coordinate decides."""
    return table_from_vectors(poset, *_vector_labels(poset), {"kind": "lex"})


def explicit_order(poset: RankedPoset, ids_in_order, recipe=None) -> OrderTable:
    ids = list(ids_in_order)
    if sorted(ids) != list(range(poset.n)):
        raise OrderError("explicit order must list every element exactly once")
    pos = [0] * poset.n
    for p, x in enumerate(ids):
        pos[x] = p
    return OrderTable(poset, pos, recipe or {"kind": "explicit", "positions": pos})


def dual_order(table: OrderTable) -> OrderTable:
    """The order component of the dual 2-poset: reversed table over the dual poset.

    Element ids are preserved, so position n-1-p belongs to the element that
    held position p.
    """
    n = table.poset.n
    return OrderTable(
        dual_poset(table.poset),
        [n - 1 - p for p in table.position],
        {"kind": "dual", "of": table.recipe},
    )


def degree_major_order(poset: RankedPoset, per_rank=None, default=None) -> OrderTable:
    """Rank-major order with a vector recipe chosen per rank.

    `per_rank` maps rank (an int, or its ASCII digits) -> recipe dict; ranks
    not listed use `default` (colexicographic unless given).  Useful for
    building orders that are deliberately not monomial orders.
    """
    default = default or {"kind": "colex"}
    _recipe_kind({"kind": "degree-major", "per_rank": per_rank, "default": default})
    keys = list(per_rank or {})
    try:
        per_rank = {ascii_int(str(k)): v for k, v in (per_rank or {}).items()}
    except ValueError:
        raise OrderError(f"degree-major ranks must be integers, got {excerpt(keys)}") from None
    if len(per_rank) < len(keys):
        raise OrderError(f"degree-major ranks {excerpt(keys)} name one rank twice")
    _, lens = _vector_labels(poset)
    ids = []
    for i, lvl in enumerate(poset.levels):
        ranking = rank_vectors([poset.labels[x] for x in lvl], lens, per_rank.get(i, default))
        ids += sorted(lvl, key=lambda x: ranking[poset.labels[x]])
    recipe = {
        "kind": "degree-major",
        "per_rank": {str(k): v for k, v in sorted(per_rank.items())},
        "default": default,
    }
    return explicit_order(poset, ids, recipe)
