"""Total orders on products of finite tosets, and order tables over posets.

All generators ultimately rank integer position vectors: an element of a
product of tosets is identified with the vector of 0-based positions of its
coordinates.  Position 0 in an order table is the first (smallest) element.
Initial segments of size q are the q smallest.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cmp_to_key
from typing import Callable

from .errors import OrderError
from .poset import RankedPoset

# ---------------------------------------------------------------------------
# Core: ranking integer position vectors


def _check_perm(perm, d):
    """perm is 1-based, as in 'compare coordinates perm(1), perm(2), ...'."""
    if sorted(perm) != list(range(1, d + 1)):
        raise OrderError(f"invalid permutation {perm!r} for dimension {d}")


def _dom_key(perm):
    idx = [p - 1 for p in perm]
    return lambda v: tuple(v[i] for i in idx)


def _scd(v):
    # toset index of a coordinate = position + 1
    return max(v) + 1


def _icscd(v):
    s = _scd(v)
    return tuple(x if x + 1 == s else 0 for x in v)


class _HCComparator:
    """Hyperrectangle-chaser comparison on position vectors.

    Smaller means: smaller single-coordinate distance; ties broken by the
    chosen domination order on the initial complement; remaining ties broken
    recursively on the coordinates away from the maximal index.

    `choices` maps a tuple of (original, 0-based) coordinate indices to the
    1-based domination permutation used for that subproduct; missing entries
    default to lexicographic.
    """

    def __init__(self, d, choices=None):
        self.d = d
        self.choices = {tuple(sorted(k)): tuple(p) for k, p in (choices or {}).items()}

    def _dom(self, coords):
        perm = self.choices.get(tuple(coords))
        if perm is None:
            return lambda v: v
        _check_perm(perm, len(coords))
        return _dom_key(perm)

    def cmp(self, x, y):
        return self._cmp(x, y, tuple(range(self.d)))

    def _cmp(self, x, y, coords):
        if x == y:
            return 0
        if len(x) == 1:
            return -1 if x[0] < y[0] else 1
        sx, sy = _scd(x), _scd(y)
        if sx != sy:
            return -1 if sx < sy else 1
        ix, iy = _icscd(x), _icscd(y)
        if ix != iy:
            kx, ky = self._dom(coords)(ix), self._dom(coords)(iy)
            return -1 if kx < ky else 1
        rest = [j for j, v in enumerate(x) if v + 1 != sx]
        xr = tuple(x[j] for j in rest)
        yr = tuple(y[j] for j in rest)
        return self._cmp(xr, yr, tuple(coords[j] for j in rest))


def _bc_cmp(lengths, choices=None):
    hc = _HCComparator(len(lengths), choices)

    def comp(v):
        return tuple(l - 1 - x for l, x in zip(lengths, v))

    def cmp(x, y):
        return hc.cmp(comp(y), comp(x))

    return cmp


# fields each recipe kind reads, with their JSON shapes: a type, [shape] for
# a list of that shape, or a tuple of alternatives, where None makes the field
# optional; modules that register a resolver add theirs
RECIPE_FIELDS = {
    "dom": {"perm": [int]},
    "hc": {"choices": (None, [[[int]]])},
    "bc": {"choices": (None, [[[int]]])},
    "block": {"cuts": [[int]], "starts": dict, "blocks": (dict, Callable)},
    "explicit": {"positions": [int]},
    "dual": {"of": dict},
    "degree-major": {"per_rank": (None, dict), "default": (None, dict)},
}


def _fits(value, shape):
    """Whether a JSON value has a shape of RECIPE_FIELDS."""
    if isinstance(shape, tuple):
        return any(_fits(value, s) for s in shape)
    if isinstance(shape, list):
        return isinstance(value, (list, tuple)) and all(_fits(v, shape[0]) for v in value)
    return value is None if shape is None else isinstance(value, shape)


def _recipe_kind(recipe):
    """The recipe's kind, once it is known to be an object whose kind's fields have their shapes."""
    if not isinstance(recipe, dict) or not isinstance(recipe.get("kind"), str):
        raise OrderError(f"order recipe must be an object with a string kind, got {recipe!r}")
    kind = recipe["kind"]
    fields = RECIPE_FIELDS.get(kind, {})
    missing = [f for f, shape in fields.items() if f not in recipe and not _fits(None, shape)]
    if missing:
        raise OrderError(f"{kind} order recipe lacks {', '.join(missing)}")
    for f, shape in fields.items():
        if not _fits(recipe.get(f), shape):
            raise OrderError(f"{kind} order recipe has a malformed {f}: {recipe[f]!r}")
    return kind


def rank_vectors(vectors, lengths, recipe):
    """Rank position vectors by a recipe; returns vector -> position dict.

    Recipes are JSON-shaped dicts: {"kind": "lex"|"colex"|"dom"|"hc"|"bc"|"block"}.
    """
    kind = _recipe_kind(recipe)
    d = len(lengths)
    if kind == "lex":
        ordered = sorted(vectors)
    elif kind == "colex":
        ordered = sorted(vectors, key=lambda v: tuple(reversed(v)))
    elif kind == "dom":
        perm = tuple(recipe["perm"])
        _check_perm(perm, d)
        ordered = sorted(vectors, key=_dom_key(perm))
    elif kind == "hc":
        hc = _HCComparator(d, _choices_from_recipe(recipe))
        ordered = sorted(vectors, key=cmp_to_key(hc.cmp))
    elif kind == "bc":
        ordered = sorted(vectors, key=cmp_to_key(_bc_cmp(lengths, _choices_from_recipe(recipe))))
    elif kind == "block":
        ordered = _rank_block(vectors, lengths, recipe)
    else:
        raise OrderError(f"unknown vector order recipe {kind!r}")
    return {v: i for i, v in enumerate(ordered)}


def _choices_from_recipe(recipe):
    raw = recipe.get("choices")
    if not raw:
        return None
    # serialized as [[coords...], [perm...]] pairs with 1-based coordinates
    if any(len(pair) != 2 for pair in raw):
        raise OrderError(f"order choices must be [coordinates, permutation] pairs, got {raw!r}")
    return {tuple(c - 1 for c in coords): tuple(perm) for coords, perm in raw}


def _rank_block(vectors, lengths, recipe):
    cuts0 = [tuple(c - 1 for c in cc) for cc in recipe["cuts"]]
    if len(cuts0) != len(lengths):
        raise OrderError(f"block order has {len(cuts0)} partitions for {len(lengths)} coordinates")
    for cc, l in zip(cuts0, lengths):
        if not cc or cc[0] != 0 or list(cc) != sorted(set(cc)) or cc[-1] >= l:
            raise OrderError(f"malformed ordered partition {cc!r} for toset of size {l}")
    starts_recipe = recipe["starts"]
    block_recipe = recipe["blocks"]
    rule = block_recipe if callable(block_recipe) else (lambda b: block_recipe)

    def block_index(v):
        return tuple(bisect_right(cc, x) - 1 for cc, x in zip(cuts0, v))

    groups = {}
    for v in vectors:
        groups.setdefault(block_index(v), []).append(v)

    n_blocks = [len(cc) for cc in cuts0]
    start_rank = rank_vectors(list(groups.keys()), n_blocks, starts_recipe)

    ordered = []
    for b in sorted(groups, key=lambda b: start_rank[b]):
        members = groups[b]
        base = [cuts0[i][b[i]] for i in range(len(lengths))]
        size = [
            (cuts0[i][b[i] + 1] if b[i] + 1 < len(cuts0[i]) else lengths[i]) - base[i]
            for i in range(len(lengths))
        ]
        local = {v: tuple(x - bx for x, bx in zip(v, base)) for v in members}
        local_rank = rank_vectors(list(set(local.values())), size, rule(b))
        members.sort(key=lambda v: local_rank[local[v]])
        ordered.extend(members)
    return ordered


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
        self._levels = {}  # (level, reverse) -> ids in order, filled on first use

    def by_position(self):
        return self._by_pos

    def element_at(self, pos):
        return self._by_pos[pos]

    def level_in_order(self, i, reverse=False):
        """Ids of level i sorted by position (reverse=True for the dual side)."""
        key = (i, reverse)
        if key not in self._levels:
            self._levels[key] = tuple(
                sorted(self.poset.level(i), key=lambda x: self.position[x], reverse=reverse)
            )
        return self._levels[key]

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
    labs = poset.labels
    for lab in labs:
        if not isinstance(lab, tuple) or not all(isinstance(v, int) and v >= 0 for v in lab):
            raise OrderError(f"order needs exponent-vector labels, got {lab!r}")
    d = len(labs[0])
    if any(len(lab) != d for lab in labs):
        raise OrderError("all labels must have the same dimension")
    return labs, d


def _infer_lengths(labels, d):
    return tuple(max(lab[i] for lab in labels) + 1 for i in range(d))


def _table_from_vector_recipe(poset, recipe, lengths=None):
    labs, d = _vector_labels(poset)
    lens = tuple(lengths) if lengths else _infer_lengths(labs, d)
    ranking = rank_vectors(list(set(labs)), lens, recipe)
    if len(ranking) != poset.n:
        raise OrderError("labels must be distinct to define a total order")
    return OrderTable(poset, [ranking[lab] for lab in labs], recipe)


def lex_order(poset: RankedPoset) -> OrderTable:
    """Lexicographic order: first differing coordinate decides."""
    return _table_from_vector_recipe(poset, {"kind": "lex"})


def colex_order(poset: RankedPoset) -> OrderTable:
    """Colexicographic order: last coordinate compared first."""
    return _table_from_vector_recipe(poset, {"kind": "colex"})


def domination_order(poset: RankedPoset, perm) -> OrderTable:
    """Compare coordinate perm(1) first, then perm(2), ... (perm is 1-based)."""
    return _table_from_vector_recipe(poset, {"kind": "dom", "perm": list(perm)})


def _choices_to_recipe(choices):
    if not choices:
        return None
    return [
        [sorted(c + 1 for c in coords), list(perm)]
        for coords, perm in sorted(choices.items(), key=lambda kv: tuple(sorted(kv[0])))
    ]


def hyperrectangle_chaser(poset: RankedPoset, choices=None, lengths=None) -> OrderTable:
    """Order preferring full sub-boxes near the origin.

    x precedes y when its largest toset index is smaller; ties fall to the
    domination comparison of the initial complements, then recurse on the
    remaining coordinates.  The default domination pick is lexicographic at
    every subproduct; `choices` overrides per coordinate subset (0-based
    frozensets mapping to 1-based permutations).
    """
    recipe = {"kind": "hc"}
    enc = _choices_to_recipe(choices)
    if enc:
        recipe["choices"] = enc
    return _table_from_vector_recipe(poset, recipe, lengths)


def border_chaser(poset: RankedPoset, choices=None, lengths=None) -> OrderTable:
    """Pullback of the reversed hyperrectangle chaser along coordinate complement."""
    recipe = {"kind": "bc"}
    enc = _choices_to_recipe(choices)
    if enc:
        recipe["choices"] = enc
    return _table_from_vector_recipe(poset, recipe, lengths)


@dataclass(frozen=True)
class BlockSpec:
    """Ordered partitions of each coordinate toset plus the two order recipes.

    `cuts` lists, per coordinate, the 1-based start indices of the blocks;
    the first cut must be 1, so every element belongs to exactly one block.
    `block_recipe` may be a single recipe dict or a callable mapping a block
    index vector to a recipe.
    """

    cuts: tuple
    starts_recipe: dict
    block_recipe: object = field(default_factory=lambda: {"kind": "lex"})

    def __post_init__(self):
        object.__setattr__(self, "cuts", tuple(tuple(c) for c in self.cuts))


def block_order(poset: RankedPoset, spec: BlockSpec, lengths=None) -> OrderTable:
    """Order by block starts first, then inside each block."""
    recipe = {
        "kind": "block",
        "cuts": [list(c) for c in spec.cuts],
        "starts": spec.starts_recipe,
        "blocks": spec.block_recipe,
    }
    table = _table_from_vector_recipe(poset, recipe, lengths)
    if callable(spec.block_recipe):
        # callables do not serialize; the caller owns the recipe description
        table = OrderTable(poset, table.position, {"kind": "block", "cuts": [list(c) for c in spec.cuts]})
    return table


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
    from .poset import dual as dual_poset

    n = table.poset.n
    return OrderTable(
        dual_poset(table.poset),
        [n - 1 - p for p in table.position],
        {"kind": "dual", "of": table.recipe},
    )


def degree_major_order(poset: RankedPoset, per_rank=None, default=None) -> OrderTable:
    """Rank-major order with a vector recipe chosen per rank.

    `per_rank` maps rank -> recipe dict; ranks not listed use `default`
    (colexicographic unless given).  Useful for building orders that are
    deliberately not monomial orders.
    """
    try:
        per_rank = {int(k): v for k, v in (per_rank or {}).items()}
    except ValueError:
        raise OrderError(f"degree-major ranks must be integers, got {list(per_rank)!r}") from None
    default = default or {"kind": "colex"}
    labs, d = _vector_labels(poset)
    lens = _infer_lengths(labs, d)
    ids = []
    for i in range(poset.max_rank + 1):
        lvl = list(poset.level(i))
        ranking = rank_vectors([poset.labels[x] for x in lvl], lens, per_rank.get(i, default))
        lvl.sort(key=lambda x: ranking[poset.labels[x]])
        ids.extend(lvl)
    recipe = {
        "kind": "degree-major",
        "per_rank": {str(k): v for k, v in sorted(per_rank.items())},
        "default": default,
    }
    return explicit_order(poset, ids, recipe)


def initial_segment(table: OrderTable, level: int, q: int) -> frozenset:
    """The q first elements of the level under the table's order."""
    lvl = table.level_in_order(level)
    if q < 0 or q > len(lvl):
        raise OrderError(f"segment size {q} out of range for level of size {len(lvl)}")
    return frozenset(lvl[:q])


# ---------------------------------------------------------------------------
# Recipe resolution (family recipes register themselves here)

RECIPE_RESOLVERS: dict[str, Callable] = {}


def order_from_recipe(poset: RankedPoset, recipe) -> OrderTable:
    """Regenerate an order table from its serialized recipe."""
    kind = _recipe_kind(recipe)
    if kind in ("lex", "colex", "dom", "hc", "bc"):
        return _table_from_vector_recipe(poset, recipe)
    if kind == "block":
        spec = BlockSpec(
            tuple(tuple(c) for c in recipe["cuts"]), recipe["starts"], recipe["blocks"]
        )
        return block_order(poset, spec)
    if kind == "explicit":
        pos = recipe["positions"]
        return OrderTable(poset, pos, recipe)
    if kind == "dual":
        from .poset import dual as dual_poset

        # the inner recipe lives on the primal side; dualizing brings it back
        return dual_order(order_from_recipe(dual_poset(poset), recipe["of"]))
    if kind == "degree-major":
        return degree_major_order(poset, recipe.get("per_rank"), recipe.get("default"))
    if kind in RECIPE_RESOLVERS:
        return RECIPE_RESOLVERS[kind](poset, recipe)
    raise OrderError(f"unknown order recipe kind {kind!r}")
