"""Named poset and ring families with their published shadow-minimizing orders.

Each family couples a construction with the block order known to make it
Macaulay, and each such order is one row of `_FAMILIES`: parameter count,
element count, and factor tosets with a block recipe.  `_resolve_family`,
the one place a family becomes an order, checks the size, ranks the factor
positions and records the family-default recipe; tree-ring components
resolved to published orders (ROADMAP item 7) add rows, not builders.  Tree
rings take their order in ring coordinates: `_spider_rep` maps a spider
element to the exponent vector of the class it mirrors, so one factor toset
serves both sides.  The Leck family carries no bundled order: none of the
block orders here fits it, so inventing one would be guesswork.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations
from math import prod
from typing import Optional, Sequence

from .errors import OrderError, PosetError, RingError, excerpt
from .orders import (
    VECTOR_KINDS,
    OrderTable,
    _recipe_kind,
    _vector_labels,
    ascii_int,
    degree_major_order,
    dual_order,
    explicit_order,
    lex_order,  # kept bound here: bench/spans.py times families.lex_order
    ranks_vectors,
    table_from_vectors,
)
from .poset import RankedPoset, cartesian_power, cartesian_product, dual
from .poset import DEFAULT_PRODUCT_LIMIT, check_count, multiset_lattice
from .rings import (
    FOLD_COUNT,
    FieldSpec,
    Polynomial,
    QuotientRingSpec,
    RingModel,
    build_ring,
    check_generators,
    degree_rep_lex_order,
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
    return check_count(((k + 1) * length + 1,))


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
    check_count(n + 1 for n in ns)  # before any factor is built
    return cartesian_product([dual(star(n)) for n in ns])


# ---------------------------------------------------------------------------
# Block-order helpers over explicit factor tosets


def _factor_positions(poset, factor_tosets):
    """Each element's vector of positions in the factor tosets, and the toset lengths.
    Entries and labels are flat tuples, a bare int a 1-tuple, and each label is cut
    into parts as wide as its factor's entries (exponent vectors, or factor labels)."""
    tosets = [[e if type(e) is tuple else (e,) for e in t] for t in factor_tosets]
    index = [{v: i for i, v in enumerate(t)} for t in tosets]
    split = _split_flat([len(t[0]) for t in tosets])
    vecs = []
    for label in poset.labels:
        try:
            parts = split(label if type(label) is tuple else (label,))
            vecs.append(tuple(map(dict.__getitem__, index, parts)))
        except (KeyError, TypeError):  # a part in no toset, or a label split cannot cut
            raise OrderError(f"label {excerpt(label)} does not match the factor tosets") from None
    return vecs, tuple(len(t) for t in tosets)


def _split_flat(sizes):
    """Cut a flat label into consecutive parts of these sizes; any other label raises TypeError."""
    ends, width = list(accumulate(sizes)), sum(sizes)

    def split(label):
        if type(label) is not tuple or len(label) != width:
            raise TypeError(f"label {excerpt(label)} is not a flat {width}-tuple")
        return [label[b - s:b] for s, b in zip(sizes, ends)]

    return split


def mermin_murai_order(poset: RankedPoset, ns: Sequence[int], side: str = "poset") -> OrderTable:
    return _resolve_family(poset, _family("colored", *ns, side=side))


def bezrukov_elsasser_order(poset: RankedPoset, k: int, length: int, n: int) -> OrderTable:
    return _resolve_family(poset, _family("be", k, length, n))


def bezrukov_elsasser_poset(k: int, length: int, n: int) -> RankedPoset:
    return cartesian_power(spider(k, length), n)


# ---------------------------------------------------------------------------
# Ring families


def kk_ring(d: int, field: FieldSpec = FieldSpec()) -> QuotientRingSpec:
    """Quotient by the squares of all variables (square-free monomials survive)."""
    check_generators(d, d)  # before the d caps are listed
    return cl_ring([2] * d, field)


def cl_ring(caps: Sequence[int], field: FieldSpec = FieldSpec()) -> QuotientRingSpec:
    """Quotient by pure variable powers; the class poset is the grid of the caps."""
    caps = list(caps)
    d = len(caps)
    check_generators(d, d)
    gens = [monomial(tuple(caps[i] if j == i else 0 for j in range(d))) for i in range(d)]
    return QuotientRingSpec(d, field, gens, sum(c - 1 for c in caps))


def _colored_basic(n: int, field: FieldSpec) -> QuotientRingSpec:
    check_generators(n * (n + 1) // 2, n)
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


def _powers_and_products(d, cap):
    """x_i^cap for each variable i, then x_i * x_j for each i < j."""
    check_generators(d * (d + 1) // 2, d)
    return [monomial(tuple(cap * (v == i) for v in range(d))) for i in range(d)] + [
        monomial(tuple(int(v in pair) for v in range(d))) for pair in combinations(range(d), 2)
    ]


def be_basic_ring(k: int, length: int, field: FieldSpec = FieldSpec()) -> QuotientRingSpec:
    """k+1 variables, powers capped at length+1, distinct variables annihilating."""
    return QuotientRingSpec(k + 1, field, _powers_and_products(k + 1, length + 1), length)


def be_ring(k: int, length: int, n: int, field: FieldSpec = FieldSpec()) -> QuotientRingSpec:
    return tensor_power(be_basic_ring(k, length, field), n)


def torus_basic_ring(p: int, field: FieldSpec = FieldSpec()) -> QuotientRingSpec:
    """Two capped legs glued at the top; the class Hasse graph is a 2p-cycle.

    The cap p+1 (rather than p) keeps the glued top class alive, matching
    the even-cycle description of these quotients.
    """
    if p < 2:
        raise RingError("torus parameter must be at least 2")
    gens = _powers_and_products(2, p + 1) + [Polynomial({(p, 0): 1, (0, p): -1})]
    return QuotientRingSpec(2, field, gens, p)


def torus_ring(ks: Sequence[int], field: FieldSpec = FieldSpec()) -> QuotientRingSpec:
    return tensor_ring([torus_basic_ring(k, field) for k in ks])


def torus_order(poset: RankedPoset, ks: Sequence[int]) -> OrderTable:
    return _resolve_family(poset, _family("torus", *ks))


def diamond_basic_ring(field: FieldSpec = FieldSpec()) -> QuotientRingSpec:
    """Three annihilating variables with all squares glued: 1, x1, x2, x3, top.

    The gluing relations are quadratic; linear ones would collapse the whole
    middle level, not just the squares.
    """
    gens = _powers_and_products(3, 3) + [
        Polynomial({(2, 0, 0): 1, (0, 2, 0): -1}),
        Polynomial({(0, 2, 0): 1, (0, 0, 2): -1}),
    ]
    return QuotientRingSpec(3, field, gens, 2)


def diamond_ring(n: int, field: FieldSpec = FieldSpec()) -> QuotientRingSpec:
    return tensor_power(diamond_basic_ring(field), n)


def diamond_order(poset: RankedPoset, n: int) -> OrderTable:
    return _resolve_family(poset, _family("diamond", n))


def leck_basic_ring(d: int, field: FieldSpec = FieldSpec()) -> QuotientRingSpec:
    """Square-free monomials minus the top: the Boolean lattice with its apex removed."""
    if d < 2:
        raise RingError("a basic factor needs at least two variables")
    check_generators(d + 1, d)
    gens = [monomial(tuple(2 if j == i else 0 for j in range(d))) for i in range(d)]
    gens.append(monomial(tuple([1] * d)))
    return QuotientRingSpec(d, field, gens, d - 1)


def leck_ring(ds: Sequence[int], kk_d: int, field: FieldSpec = FieldSpec()) -> QuotientRingSpec:
    """Tensor of top-removed Boolean factors with one square-free grid factor.

    No order is bundled: the known Macaulay order for these is neither a
    domination order nor a block order, and no construction is published.
    """
    if not ds:
        raise RingError("a Leck ring needs at least one basic factor")
    if kk_d < 0:
        raise RingError(f"a Leck ring's square-free grid needs a nonnegative size, got {kk_d}")
    specs = [leck_basic_ring(d, field) for d in ds]
    if kk_d > 0:
        specs.append(kk_ring(kk_d, field))
    return tensor_ring(specs)


def tensor_monomial_order(poset: RankedPoset, factor_sizes: Sequence[int]) -> OrderTable:
    """Factor-wise lexicographic order over per-factor degree-major class orders.

    When every factor's degree-major order is a monomial order, this product
    order is one on the tensor ring; `is_macaulay_ring` tries it on glued
    factors, where a flat degree-major order stops being multiplicative.
    """
    sizes = list(factor_sizes)
    if min(sizes, default=1) < 1:
        raise OrderError(f"tensor-degree-lex factor sizes must be positive, got {excerpt(sizes)}")
    split = _split_flat(sizes)

    def key(label):
        try:
            return tuple((sum(sub), sub) for sub in split(label))
        except TypeError:  # a label the split cannot cut, or a part that does not sum
            raise OrderError(f"label {excerpt(label)} does not match the factor tosets") from None

    ids = sorted(range(poset.n), key=lambda x: key(poset.labels[x]))
    return explicit_order(
        poset, ids, {"kind": "tensor-degree-lex", "sizes": sizes}
    )


def be_ring_order(poset: RankedPoset, k: int, length: int, n: int) -> OrderTable:
    return _resolve_family(poset, _family("be-ring", k, length, n))


# ---------------------------------------------------------------------------
# Builtin registry (CLI surface and acceptance drivers)


def _parse_ints(kind, text, arity=None, sep=","):
    """The `sep`-separated integers of a descriptor; `arity` fixes their number.
    An empty field (`2,,3`, a trailing separator, an empty list) is an error."""
    try:
        vals = [ascii_int(x) for x in text.split(sep)]
    except ValueError:
        raise PosetError(f"{kind}: expected integers separated by '{sep}', got {excerpt(text)}") from None
    if arity is not None and len(vals) != arity:
        raise PosetError(f"{kind}: expected {arity} integers, got {excerpt(text)}")
    return vals


def _family(name, *params, **extra):
    """A family-default recipe, resolved by `_resolve_family`."""
    return {"kind": "family-default", "family": name, "params": list(params), **extra}


@dataclass
class Builtin:
    """A named construction: its poset and its family's published order recipe, if any.

    A ring construction also keeps the built ring whose class poset it is,
    from which the ring check works out its monomial-order witness.
    """

    name: str
    poset: RankedPoset
    order: Optional[dict] = None
    ring: Optional[RingModel] = None

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


def _ring_builtin(name, spec, order):
    ring = build_ring(spec)
    return Builtin(name, poset_of_monomials(ring), order, ring)


def _pure_powers(name, caps, field):
    """`cl_ring` as a builtin, refused by the build's own fold count before its
    generators are listed; a cap below 1 or a component over the limit refuses first."""
    check_generators(len(caps), len(caps))
    D = sum(c - 1 for c in caps)
    if min(caps, default=0) > 0 and D < DEFAULT_PRODUCT_LIMIT:
        check_count(caps, FOLD_COUNT.format(D))  # D cuts nothing: the product of the caps
    return _ring_builtin(name, cl_ring(caps, field), {"kind": "lex"})


def builtin(
    spec_str: str, field: FieldSpec = FieldSpec(), recipe: Optional[dict] = None
) -> Builtin:
    """Resolve builtin poset descriptors like multiset:3,4 or torus:3,2.

    `recipe`, the order the caller will resolve on the poset, is checked
    before the build: star, spider and be:k,l,1 label their elements by ints, so a
    recipe that ranks vectors (`orders.ranks_vectors`, which looks through
    dual wrappers) raises OrderError on them once the descriptor is valid.
    """
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
    if kind in ("star", "spider", "be"):
        if kind == "star":
            (legs,) = _parse_ints(kind, rest, 1)
            if legs < 1:
                raise PosetError("star needs at least one leg")
            k, l, n = legs - 1, 1, 1
        elif kind == "spider":
            k, l, n = *_parse_ints(kind, rest, 2), 1
        else:
            k, l, n = _parse_ints(kind, rest, 3)
        _spider_size(k, l)
        if n == 1 and ranks_vectors(recipe):
            # what order_from_recipe says of label 0, the first of every spider
            raise OrderError("order needs exponent-vector labels, got 0")
        return Builtin(text, bezrukov_elsasser_poset(k, l, n), _family("be", k, l, n))
    if kind == "colored":
        ns = _parse_ints(kind, rest)
        return Builtin(text, colored_poset(ns), _family("colored", *ns, side="poset"))
    if kind == "kk":
        (d,) = _parse_ints(kind, rest, 1)
        check_generators(d, d)  # before the d caps are listed
        return _pure_powers(text, [2] * d, field)
    if kind == "cl":
        return _pure_powers(text, _parse_ints(kind, rest), field)
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
            raise PosetError(f"torus: expected 1 or 2 integers, got {excerpt(rest)}")
        p, n = (vals + [1])[:2]
        ks = [p] * n
        return _ring_builtin(text, torus_ring(ks, field), _family("torus", *ks))
    if kind == "diamond":
        (n,) = _parse_ints(kind, rest, 1)
        return _ring_builtin(text, diamond_ring(n, field), _family("diamond", n))
    if kind == "leck":
        ds_text, comma, kk_text = rest.partition(",")
        ds = _parse_ints(kind, ds_text, sep="+")
        (kk_d,) = _parse_ints(kind, kk_text if comma else "0", 1)
        return _ring_builtin(text, leck_ring(ds, kk_d, field), None)
    raise PosetError(f"unknown builtin poset {excerpt(spec_str)}")


def ring_builtin(spec_str: str, field: FieldSpec = FieldSpec()) -> Builtin:
    b = builtin(spec_str, field)
    if b.ring_spec is None:
        raise RingError(f"{excerpt(spec_str)} is not a ring builtin")
    return b


def _colored(ns, side):
    """Mermin-Murai, on colored square-free products of nonincreasing factor sizes.
    Per factor the toset runs bottom first then the variables; the bottom is
    grouped with the first variable, every other variable is a block by itself.
    Starts go by the hyperrectangle chaser (the dual-side counterpart of the
    star side's), blocks lexicographically: on the ring, a domination order."""
    if any(n < 1 for n in ns):
        raise OrderError("factor sizes must be positive")
    if ns != sorted(ns, reverse=True):
        raise OrderError("factor sizes must be nonincreasing")
    tosets = [[n] + list(range(n)) for n in ns]
    if side == "ring":
        tosets = [[_spider_rep(a, n - 1, 1) for a in t] for n, t in zip(ns, tosets)]
    elif side != "poset":
        raise OrderError(f"unknown side {excerpt(side)}")
    return tosets, [[1] + list(range(3, n + 2)) for n in ns], "hc", {"kind": "lex"}


def _spider_power(params, side, ring=False):
    """Bezrukov-Elsasser, on the n-th spider power: border-chaser starts, and
    inside each block the "dom-by-block" domination order, which compares
    coordinates in lower legs first.  `ring` gives the toset in the tree
    ring's coordinates.

    The published rule scans leg labels from the largest down, taking unused
    coordinates largest-first and filling the last comparison slots first;
    that gives the same permutation as sorting by (leg, coordinate)."""
    k, length, n = params
    _spider_size(k, length)
    toset = [j + h * (k + 1) for j in range(k + 1) for h in range(length)]
    toset.append((k + 1) * length)  # the head rides in the last leg's block
    if ring:
        toset = [_spider_rep(a, k, length) for a in toset]
    return [toset] * n, [[1 + j * length for j in range(k + 1)]] * n, "bc", "dom-by-block"


def _torus(ks, side):
    """Colexicographic starts over the two legs of each factor, lex inside blocks."""
    if ks != sorted(ks):
        raise OrderError("torus parameters must be nondecreasing")
    tosets = [[(a, 0) for a in range(p)] + [(0, b) for b in range(1, p + 1)] for p in ks]
    return tosets, [[1, p + 1] for p in ks], "colex", {"kind": "lex"}


def _diamond(params, side):
    """Lexicographic starts over blocks {1,x1} | {x2} | {x3,top}, colex inside."""
    (n,) = params
    toset = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 2)]
    return [toset] * n, [[1, 3, 4]] * n, "lex", {"kind": "colex"}


def _spider_power_size(k, length, n):
    return ((k + 1) * length + 1) ** n


# per family: its parameter count (None for any), its element count, and its
# order from its parameters and side, as (factor tosets, cuts, starts kind,
# blocks) of a block recipe; only colored reads the side
_FAMILIES = {
    "colored": (None, lambda *ns: prod(n + 1 for n in ns), _colored),
    "be": (3, _spider_power_size, _spider_power),
    "be-ring": (3, _spider_power_size, lambda params, side: _spider_power(params, side, ring=True)),
    "torus": (None, lambda *ks: prod(2 * p for p in ks), _torus),
    "diamond": (1, lambda n: 5 ** n, _diamond),
}


def _resolve_family(poset, recipe):
    """The published order a family-default recipe names, recording that recipe.

    The be-ring order is the dual of the spider-power order, ranked in ring
    coordinates: position p becomes n - 1 - p.
    """
    fam, params = recipe["family"], list(recipe["params"])
    if fam not in _FAMILIES:
        raise OrderError(f"unknown family recipe {excerpt(fam)}")
    # checked before any factor toset or family poset is built; the bound
    # keeps the size arithmetic small
    arity, size, order = _FAMILIES[fam]
    fits = arity in (None, len(params)) and all(0 <= v <= poset.n for v in params)
    if not fits or size(*params) != poset.n:
        raise OrderError(f"{fam} order parameters {excerpt(params)} do not fit {poset.n} elements")
    tosets, cuts, starts, blocks = order(params, recipe.get("side", "poset"))
    block = {"kind": "block", "cuts": cuts, "starts": {"kind": starts}, "blocks": blocks}
    table = table_from_vectors(poset, *_factor_positions(poset, tosets), block, recipe)
    if fam == "be-ring":
        return OrderTable(poset, [poset.n - 1 - p for p in table.position], recipe)
    return table


def order_from_recipe(poset: RankedPoset, recipe) -> OrderTable:
    """Regenerate an order table from its serialized recipe, of any kind RECIPE_FIELDS lists."""
    _recipe_kind(recipe)  # nested recipes too, once
    return _resolve(poset, recipe)


def _resolve(poset, recipe):
    """The order of a recipe that `_recipe_kind` has checked."""
    kind = recipe["kind"]
    if kind in VECTOR_KINDS:
        return table_from_vectors(poset, *_vector_labels(poset), recipe)
    if kind == "explicit":
        return OrderTable(poset, recipe["positions"], recipe)
    if kind == "dual":
        # the inner recipe lives on the primal side; dualizing brings it back
        return dual_order(_resolve(dual(poset), recipe["of"]))
    if kind == "degree-major":
        return degree_major_order(poset, recipe.get("per_rank"), recipe.get("default"))
    if kind == "family-default":
        return _resolve_family(poset, recipe)
    if kind == "tensor-degree-lex":
        return tensor_monomial_order(poset, recipe["sizes"])
    if kind == "rep-lex":
        return rep_lex_order(poset)
    return degree_rep_lex_order(poset)
