"""Named poset and ring families with their published shadow-minimizing orders.

Each family couples a construction with the block order known to make it
Macaulay.  Spider powers use border-chaser starts with per-block domination
permutations; colored square-free products sit on the dual side and take
hyperrectangle-chaser starts with lexicographic blocks; torus products use
colexicographic starts with lexicographic blocks, diamond powers the other
way around.  The Leck family carries no bundled order: none of the block
orders here fits it, so inventing one would be guesswork.

Tree rings (colored square-free and spider-power tensor rings) take their
order in ring coordinates: `_spider_rep` maps a spider element to the
exponent vector of the class it mirrors, so the poset-side factor toset
serves both sides.  A builtin carries its published order and its
monomial-order candidate as JSON recipes, resolved by `order_from_recipe`;
`_resolve_family` is the one place a family name becomes an order.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import prod
from typing import Optional, Sequence

from .errors import OrderError, PosetError, RingError
from .orders import (
    OrderTable,
    RECIPE_FIELDS,
    RECIPE_RESOLVERS,
    explicit_order,
    lex_order,  # kept bound here: bench/spans.py times families.lex_order
    order_from_recipe,
    table_from_vectors,
)
from .poset import RankedPoset, cartesian_power, cartesian_product, check_size, dual
from .poset import multiset_lattice
from .rings import (
    FieldSpec,
    Polynomial,
    QuotientRingSpec,
    RingModel,
    build_ring,
    monomial,
    poset_of_monomials,
    rep_lex_order,
    tensor_power,
    tensor_ring,
)

# ---------------------------------------------------------------------------
# Combinatorial families


def star(n: int) -> RankedPoset:
    """n bottom elements below a single top; labels 0..n-1 plus head n."""
    if n < 1:
        raise PosetError("star needs at least one leg")
    return spider(n - 1, 1)


def spider(k: int, length: int) -> RankedPoset:
    """k+1 legs with `length` elements each, joined below a head of rank `length`.

    Elements are labeled 0..(k+1)*length; the leg of a non-head label is its
    residue mod k+1 and its rank is the quotient.
    """
    head = _spider_size(k, length) - 1
    rank = [a // (k + 1) for a in range(head)] + [length]
    covers = []
    for a in range(head):
        b = a + (k + 1)
        covers.append((a, b if b < head else head))
    return RankedPoset(head + 1, covers, rank, list(range(head + 1)))


def _spider_size(k, length):
    """A spider's element count, once its parameters are valid and it fits the size cap."""
    if k < 0 or length < 1:
        raise PosetError("spider needs k >= 0 and leg length >= 1")
    return check_size((k + 1) * length + 1)


def _spider_rep(element, k, length):
    """The exponent vector of the tree-ring class that mirrors a spider element.

    The ring's class poset is the dual spider: the head is the class of 1,
    and leg j at depth h is the class of x_j^(length - h).
    """
    rep = [0] * (k + 1)
    h, j = divmod(element, k + 1)
    if h < length:
        rep[j] = length - h
    return tuple(rep)


def colored_poset(ns: Sequence[int]) -> RankedPoset:
    """Product of dual stars (the class posets of square-free quotients)."""
    return cartesian_product([dual(star(n)) for n in ns])


# ---------------------------------------------------------------------------
# Block-order helpers over explicit factor tosets


def _factor_positions(poset, factor_tosets, split):
    """Each element's vector of positions in the factor tosets, and the toset lengths."""
    index = [{v: i for i, v in enumerate(t)} for t in factor_tosets]
    vecs = []
    for x in range(poset.n):
        parts = split(poset.labels[x])
        try:
            vecs.append(tuple(ix[p] for ix, p in zip(index, parts)))
        except KeyError:
            raise OrderError(f"label {poset.labels[x]!r} does not match the factor tosets")
    return vecs, tuple(len(t) for t in factor_tosets)


def _split_flat(sizes):
    """Cut a flat label into consecutive parts of these sizes."""
    ends = list(accumulate(sizes))
    return lambda label: [tuple(label[b - s:b]) for s, b in zip(sizes, ends)]


def mermin_murai_order(poset: RankedPoset, ns: Sequence[int], side: str = "poset") -> OrderTable:
    """Block order for colored square-free products.

    Per factor the toset runs bottom first then the variables; the bottom is
    grouped with the first variable and every other variable is a block by
    itself.  Starts are ordered by the lexicographic hyperrectangle chaser
    (the dual-side counterpart of the chaser used on the star side), blocks
    lexicographically.  Factor sizes must be nonincreasing.  On the ring the
    result coincides with a domination order over the ambient variables.
    """
    ns = list(ns)
    if any(n < 1 for n in ns):
        raise OrderError("factor sizes must be positive")
    if ns != sorted(ns, reverse=True):
        raise OrderError("factor sizes must be nonincreasing")
    tosets = [[n] + list(range(n)) for n in ns]
    if side == "poset":
        split = (lambda label: list(label)) if len(ns) > 1 else (lambda label: [label])
    elif side == "ring":
        tosets = [[_spider_rep(a, n - 1, 1) for a in t] for n, t in zip(ns, tosets)]
        split = _split_flat(ns)
    else:
        raise OrderError(f"unknown side {side!r}")
    cuts = [[1] + list(range(3, n + 2)) for n in ns]
    recipe = {"kind": "block", "cuts": cuts, "starts": {"kind": "hc"}, "blocks": {"kind": "lex"}}
    public = {"kind": "family-default", "family": "colored", "params": list(ns), "side": side}
    return table_from_vectors(poset, *_factor_positions(poset, tosets, split), recipe, public)


def _be_block_perm(block_index):
    """Per-block domination permutation: coordinates with lower legs lead.

    The published rule scans leg labels from the largest down, taking unused
    coordinates largest-first and filling the last comparison slots first;
    equivalently, compare coordinates sorted by (leg, coordinate) ascending.
    """
    order = sorted(range(len(block_index)), key=lambda j: (block_index[j], j))
    return [j + 1 for j in order]


def _be_recipe(k, length, n):
    """The spider toset and the block recipe of the order on the n-th spider power:
    border-chaser starts, domination blocks."""
    _spider_size(k, length)
    toset = [j + h * (k + 1) for j in range(k + 1) for h in range(length)]
    toset.append((k + 1) * length)  # the head rides in the last leg's block
    recipe = {
        "kind": "block",
        "cuts": [[1 + j * length for j in range(k + 1)]] * n,
        "starts": {"kind": "bc"},
        "blocks": lambda b: {"kind": "dom", "perm": _be_block_perm(b)},
    }
    return toset, recipe


def bezrukov_elsasser_order(poset: RankedPoset, k: int, length: int, n: int) -> OrderTable:
    """Block order on a spider power: border-chaser starts, domination blocks."""
    toset, recipe = _be_recipe(k, length, n)
    if poset.n != len(toset) ** n:
        raise OrderError("poset is not the expected spider power")
    split = (lambda label: list(label)) if n > 1 else (lambda label: [label])
    public = {"kind": "family-default", "family": "be", "params": [k, length, n]}
    return table_from_vectors(poset, *_factor_positions(poset, [toset] * n, split), recipe, public)


def bezrukov_elsasser_poset(k: int, length: int, n: int) -> RankedPoset:
    return cartesian_power(spider(k, length), n)


# ---------------------------------------------------------------------------
# Ring families


def kk_ring(d: int, field: FieldSpec = FieldSpec()) -> QuotientRingSpec:
    """Quotient by the squares of all variables (square-free monomials survive)."""
    gens = [monomial(tuple(2 if j == i else 0 for j in range(d))) for i in range(d)]
    return QuotientRingSpec(d, field, gens, d)


def cl_ring(caps: Sequence[int], field: FieldSpec = FieldSpec()) -> QuotientRingSpec:
    """Quotient by pure variable powers; the class poset is the grid of the caps."""
    caps = list(caps)
    d = len(caps)
    gens = [monomial(tuple(caps[i] if j == i else 0 for j in range(d))) for i in range(d)]
    return QuotientRingSpec(d, field, gens, sum(c - 1 for c in caps))


def _colored_basic(n: int, field: FieldSpec) -> QuotientRingSpec:
    gens = []
    for i in range(n):
        for j in range(i, n):
            e = [0] * n
            e[i] += 1
            e[j] += 1
            gens.append(monomial(tuple(e)))
    return QuotientRingSpec(n, field, gens, 1)


def colored_sf_ring(ns: Sequence[int], field: FieldSpec = FieldSpec(), D=None) -> QuotientRingSpec:
    """Tensor of quotients by the full degree-2 piece: one variable survives per factor."""
    return tensor_ring([_colored_basic(n, field) for n in ns], D)


def be_basic_ring(k: int, length: int, field: FieldSpec = FieldSpec()) -> QuotientRingSpec:
    """k+1 variables, powers capped at length+1, distinct variables annihilating."""
    d = k + 1
    gens = [monomial(tuple(length + 1 if j == i else 0 for j in range(d))) for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            e = [0] * d
            e[i] = 1
            e[j] = 1
            gens.append(monomial(tuple(e)))
    return QuotientRingSpec(d, field, gens, length)


def be_ring(k: int, length: int, n: int, field: FieldSpec = FieldSpec(), D=None) -> QuotientRingSpec:
    return tensor_power(be_basic_ring(k, length, field), n, D)


def torus_basic_ring(p: int, field: FieldSpec = FieldSpec()) -> QuotientRingSpec:
    """Two capped legs glued at the top; the class Hasse graph is a 2p-cycle.

    The cap p+1 (rather than p) keeps the glued top class alive, matching
    the even-cycle description of these quotients.
    """
    if p < 2:
        raise RingError("torus parameter must be at least 2")
    gens = [
        monomial((p + 1, 0)),
        monomial((0, p + 1)),
        monomial((1, 1)),
        Polynomial({(p, 0): 1, (0, p): -1}),
    ]
    return QuotientRingSpec(2, field, gens, p)


def torus_ring(ks: Sequence[int], field: FieldSpec = FieldSpec(), D=None) -> QuotientRingSpec:
    return tensor_ring([torus_basic_ring(k, field) for k in ks], D)


def torus_order(poset: RankedPoset, ks: Sequence[int]) -> OrderTable:
    """Colexicographic starts over the two legs of each factor, lex inside blocks."""
    ks = list(ks)
    if ks != sorted(ks):
        raise OrderError("torus parameters must be nondecreasing")
    tosets = []
    for p in ks:
        t = [(0, 0)] + [(a, 0) for a in range(1, p)] + [(0, b) for b in range(1, p)] + [(0, p)]
        tosets.append(t)
    split = _split_flat([2] * len(ks))
    cuts = [[1, p + 1] for p in ks]
    recipe = {"kind": "block", "cuts": cuts, "starts": {"kind": "colex"}, "blocks": {"kind": "lex"}}
    public = {"kind": "family-default", "family": "torus", "params": list(ks)}
    return table_from_vectors(poset, *_factor_positions(poset, tosets, split), recipe, public)


def diamond_basic_ring(field: FieldSpec = FieldSpec()) -> QuotientRingSpec:
    """Three annihilating variables with all squares glued: 1, x1, x2, x3, top.

    The gluing relations are quadratic; linear ones would collapse the whole
    middle level, not just the squares.
    """
    gens = [monomial((3, 0, 0)), monomial((0, 3, 0)), monomial((0, 0, 3))]
    for i in range(3):
        for j in range(i + 1, 3):
            e = [0, 0, 0]
            e[i] = 1
            e[j] = 1
            gens.append(monomial(tuple(e)))
    gens.append(Polynomial({(2, 0, 0): 1, (0, 2, 0): -1}))
    gens.append(Polynomial({(0, 2, 0): 1, (0, 0, 2): -1}))
    return QuotientRingSpec(3, field, gens, 2)


def diamond_ring(n: int, field: FieldSpec = FieldSpec(), D=None) -> QuotientRingSpec:
    return tensor_power(diamond_basic_ring(field), n, D)


def diamond_order(poset: RankedPoset, n: int) -> OrderTable:
    """Lexicographic starts over blocks {1,x1} | {x2} | {x3,top}, colex inside."""
    toset = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 2)]
    split = _split_flat([3] * n)
    recipe = {
        "kind": "block",
        "cuts": [[1, 3, 4]] * n,
        "starts": {"kind": "lex"},
        "blocks": {"kind": "colex"},
    }
    public = {"kind": "family-default", "family": "diamond", "params": [n]}
    return table_from_vectors(poset, *_factor_positions(poset, [toset] * n, split), recipe, public)


def leck_basic_ring(d: int, field: FieldSpec = FieldSpec()) -> QuotientRingSpec:
    """Square-free monomials minus the top: the Boolean lattice with its apex removed."""
    if d < 2:
        raise RingError("a basic factor needs at least two variables")
    gens = [monomial(tuple(2 if j == i else 0 for j in range(d))) for i in range(d)]
    gens.append(monomial(tuple([1] * d)))
    return QuotientRingSpec(d, field, gens, d - 1)


def leck_ring(ds: Sequence[int], kk_d: int, field: FieldSpec = FieldSpec(), D=None) -> QuotientRingSpec:
    """Tensor of top-removed Boolean factors with one square-free grid factor.

    No order is bundled: the known Macaulay order for these is neither a
    domination order nor a block order, and no construction is published.
    """
    if not ds:
        raise RingError("a Leck ring needs at least one basic factor")
    specs = [leck_basic_ring(d, field) for d in ds]
    if kk_d > 0:
        specs.append(kk_ring(kk_d, field))
    return tensor_ring(specs, D)


def tensor_monomial_order(poset: RankedPoset, factor_sizes: Sequence[int]) -> OrderTable:
    """Factor-wise lexicographic order over per-factor degree-major class orders.

    When every factor's degree-major order is a monomial order, this product
    order is one on the tensor ring; it is the standard candidate for glued
    factors, where a flat degree-major order stops being multiplicative.
    """
    sizes = list(factor_sizes)
    split = _split_flat(sizes)

    def key(label):
        return tuple((sum(sub), sub) for sub in split(label))

    ids = sorted(range(poset.n), key=lambda x: key(poset.labels[x]))
    return explicit_order(
        poset, ids, {"kind": "tensor-degree-lex", "sizes": sizes}
    )


def be_ring_order(poset: RankedPoset, k: int, length: int, n: int) -> OrderTable:
    """The dual spider-power order on the tensor ring's class poset.

    The spider-power recipe ranks the ring labels in ring coordinates; the
    dual order reverses it, so position p becomes n - 1 - p.
    """
    toset, recipe = _be_recipe(k, length, n)
    tosets = [[_spider_rep(a, k, length) for a in toset]] * n
    table = table_from_vectors(
        poset, *_factor_positions(poset, tosets, _split_flat([k + 1] * n)), recipe
    )
    last = poset.n - 1
    return OrderTable(
        poset,
        [last - p for p in table.position],
        {"kind": "family-default", "family": "be-ring", "params": [k, length, n]},
    )


# ---------------------------------------------------------------------------
# Builtin registry (CLI surface and acceptance drivers)


def _parse_ints(kind, text, arity=None, sep=","):
    """The `sep`-separated integers of a descriptor; `arity` fixes their number.
    An empty field (`2,,3`, a trailing separator, an empty list) is an error."""
    try:
        vals = [int(x) for x in text.split(sep)]
    except ValueError:
        raise PosetError(f"{kind}: expected integers separated by {sep!r}, got {text!r}") from None
    if arity is not None and len(vals) != arity:
        raise PosetError(f"{kind}: expected {arity} integers, got {text!r}")
    return vals


def _family(name, *params, **extra):
    """A family-default recipe, resolved by `_resolve_family`."""
    return {"kind": "family-default", "family": name, "params": list(params), **extra}


@dataclass
class Builtin:
    """A named construction: its poset, and the recipes of the family's published
    order and of its monomial-order candidate, where it has them.

    A ring construction also keeps the built ring whose class poset it is.
    """

    name: str
    poset: RankedPoset
    order: Optional[dict] = None
    ring: Optional[RingModel] = None
    candidate: Optional[dict] = None

    @property
    def ring_spec(self) -> Optional[QuotientRingSpec]:
        return self.ring.spec if self.ring is not None else None

    def order_recipe(self) -> dict:
        """The recipe of the family's published order."""
        if self.order is None:
            raise OrderError(f"{self.name}: no published order for this family")
        return self.order

    def default_order(self) -> OrderTable:
        return order_from_recipe(self.poset, self.order_recipe())

    def monomial_order_candidate(self) -> Optional[OrderTable]:
        return None if self.candidate is None else order_from_recipe(self.poset, self.candidate)


def _ring_builtin(name, spec, order, candidate=None):
    ring = build_ring(spec)
    return Builtin(name, poset_of_monomials(ring), order, ring, candidate)


def builtin(spec_str: str, field: FieldSpec = FieldSpec()) -> Builtin:
    """Resolve builtin poset descriptors like multiset:3,4 or torus:3,2."""
    text = spec_str
    if text.startswith("builtin:"):
        text = text[len("builtin:"):]
    kind, _, rest = text.partition(":")
    if kind == "multiset":
        caps = _parse_ints(kind, rest)
        return Builtin(text, multiset_lattice(caps), {"kind": "lex"})
    if kind == "chain":
        (n,) = _parse_ints(kind, rest, 1)
        return Builtin(text, multiset_lattice([n]), {"kind": "lex"})
    if kind == "star":
        (n,) = _parse_ints(kind, rest, 1)
        return Builtin(text, star(n), _family("be", n - 1, 1, 1))
    if kind == "spider":
        k, l = _parse_ints(kind, rest, 2)
        return Builtin(text, spider(k, l), _family("be", k, l, 1))
    if kind == "be":
        k, l, n = _parse_ints(kind, rest, 3)
        return Builtin(text, bezrukov_elsasser_poset(k, l, n), _family("be", k, l, n))
    if kind == "colored":
        ns = _parse_ints(kind, rest)
        return Builtin(text, colored_poset(ns), _family("colored", *ns, side="poset"))
    if kind == "kk":
        (d,) = _parse_ints(kind, rest, 1)
        return _ring_builtin(text, kk_ring(d, field), {"kind": "lex"})
    if kind == "cl":
        caps = _parse_ints(kind, rest)
        return _ring_builtin(text, cl_ring(caps, field), {"kind": "lex"})
    if kind == "colored-ring":
        ns = _parse_ints(kind, rest)
        return _ring_builtin(text, colored_sf_ring(ns, field), _family("colored", *ns, side="ring"))
    if kind == "be-ring":
        lpow, d, n = _parse_ints(kind, rest, 3)
        return _ring_builtin(
            text, be_ring(d - 1, lpow - 1, n, field), _family("be-ring", d - 1, lpow - 1, n)
        )
    if kind == "torus":
        vals = _parse_ints(kind, rest)
        if len(vals) not in (1, 2):
            raise PosetError(f"torus: expected 1 or 2 integers, got {rest!r}")
        p, n = (vals + [1])[:2]
        ks = [p] * n
        candidate = {"kind": "tensor-degree-lex", "sizes": [2] * n}
        return _ring_builtin(text, torus_ring(ks, field), _family("torus", *ks), candidate)
    if kind == "diamond":
        (n,) = _parse_ints(kind, rest, 1)
        candidate = {"kind": "tensor-degree-lex", "sizes": [3] * n}
        return _ring_builtin(text, diamond_ring(n, field), _family("diamond", n), candidate)
    if kind == "leck":
        ds_text, comma, kk_text = rest.partition(",")
        ds = _parse_ints(kind, ds_text, sep="+")
        (kk_d,) = _parse_ints(kind, kk_text if comma else "0", 1)
        return _ring_builtin(text, leck_ring(ds, kk_d, field), None)
    raise PosetError(f"unknown builtin poset {spec_str!r}")


def ring_builtin(spec_str: str, field: FieldSpec = FieldSpec()) -> Builtin:
    b = builtin(spec_str, field)
    if b.ring_spec is None:
        raise RingError(f"{spec_str!r} is not a ring builtin")
    return b


# per family: (parameter count or None for any, element count of its poset)
_FAMILY_SIZES = {
    "colored": (None, lambda *ns: prod(n + 1 for n in ns)),
    "be": (3, lambda k, length, n: ((k + 1) * length + 1) ** n),
    "be-ring": (3, lambda k, length, n: ((k + 1) * length + 1) ** n),
    "torus": (None, lambda *ks: prod(2 * p for p in ks)),
    "diamond": (1, lambda n: 5 ** n),
}


def _resolve_family(poset, recipe):
    fam = recipe["family"]
    params = recipe["params"]
    if fam not in _FAMILY_SIZES:
        raise OrderError(f"unknown family recipe {fam!r}")
    # checked before any factor toset or family poset is built; the bound
    # keeps the size arithmetic small
    arity, size = _FAMILY_SIZES[fam]
    fits = arity in (None, len(params)) and all(0 <= v <= poset.n for v in params)
    if not fits or size(*params) != poset.n:
        raise OrderError(f"{fam} order parameters {params!r} do not fit {poset.n} elements")
    if fam == "colored":
        return mermin_murai_order(poset, params, side=recipe.get("side", "poset"))
    if fam == "be":
        return bezrukov_elsasser_order(poset, *params)
    if fam == "be-ring":
        return be_ring_order(poset, *params)
    if fam == "torus":
        return torus_order(poset, params)
    return diamond_order(poset, *params)


def acceptance_constructions(field: FieldSpec = FieldSpec()):
    """The ten named constructions at desk sizes, each with a total order.

    Families with a published Macaulay order carry it; the Leck family has
    none and rides with the representative-lex order (its duality behaviour
    is what gets exercised, not Macaulayness).  Returns (name, poset, order,
    expect_macaulay) tuples.
    """
    out = []
    for name in ("star:3", "spider:2,2", "be:1,2,2", "kk:3", "cl:3,4", "colored:2,2",
                 "be-ring:3,2,2", "torus:3,2", "diamond:2"):
        b = builtin(name, field)
        out.append((name, b.poset, b.default_order(), True))
    leck = builtin("leck:2,1", field)
    out.append(("leck:2,1", leck.poset, rep_lex_order(leck.poset), None))
    return out


RECIPE_FIELDS["family-default"] = {"family": str, "params": [int], "side": (None, str)}
RECIPE_FIELDS["tensor-degree-lex"] = {"sizes": [int]}
RECIPE_RESOLVERS["family-default"] = _resolve_family
RECIPE_RESOLVERS["rep-lex"] = lambda poset, recipe: rep_lex_order(poset)
RECIPE_RESOLVERS["tensor-degree-lex"] = lambda poset, recipe: tensor_monomial_order(
    poset, recipe["sizes"]
)
