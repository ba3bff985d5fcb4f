"""Truncated graded quotients of polynomial rings over exact fields.

A ring model is built degree by degree up to an explicit truncation D: the
degree-i slice of the ideal is spanned by generator multiples (exact for a
homogeneous ideal, no Groebner machinery needed), each a sparse row with one
entry per generator term.  Monomials are reduced to normal form against the
slice's sparse RREF, and monomials with equal nonzero residue are grouped
into classes, each of which keeps that residue.  Classes are numbered once,
degree by degree, and these ids are the elements of the poset of monomials.
Everything downstream (Hilbert functions, the poset of monomials, order
checks) speaks in terms of these ids; any statement involving degrees is
implicitly "up to degree D".

A ring whose generators split its variables into components (two variables
share one when a generator uses both) is the tensor product of the
components' rings, and is built that way: each component is eliminated on
its own, at the product's D, and the factors are folded pairwise.  This is
exact: the factor ideals use disjoint variables, so their initial ideals are
coprime and, by Buchberger's first criterion, standard monomials and normal
forms factor.  A product's residue is the Kronecker product of its factors'
residues, and classes merge by that full residue, since factor classes with
proportional residues glue in the product.  The result equals one
elimination over all the variables, field for field.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import accumulate
from math import comb
from operator import add, itemgetter
from typing import Optional, Sequence

from .errors import OrderError, RingError, excerpt
from .linalg import RATIONALS, FieldSpec, rref  # RATIONALS is re-exported
from .orders import OrderTable, explicit_order
from .poset import RankedPoset, check_count, check_series

FOLD_COUNT = "the ring would have {{}} products of factor classes of degree <= {}"  # .format(D)


class Polynomial:
    """Sparse polynomial with Fraction coefficients keyed by exponent tuples."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {}
        for exp, coef in dict(terms).items():
            c = Fraction(coef)
            if c != 0:
                self.terms[tuple(int(e) for e in exp)] = c

    def is_zero(self):
        return not self.terms

    def degree(self):
        if self.is_zero():
            raise RingError("zero polynomial has no degree")
        degs = {sum(e) for e in self.terms}
        if len(degs) != 1:
            raise RingError("polynomial is not homogeneous")
        return degs.pop()

    def is_homogeneous(self):
        return len({sum(e) for e in self.terms}) <= 1

    def to_json(self):
        return [
            {"exp": list(e), "coef": str(c)}
            for e, c in sorted(self.terms.items())
        ]

    @classmethod
    def from_json(cls, data, d=None):
        """Parse [{"exp": [int, ...], "coef": rational}, ...]; RingError on any other shape.

        Given a variable count d, every term's exponents must be d
        nonnegative integers, zero-coefficient terms included: those are
        dropped, so no later check sees them.
        """
        if not isinstance(data, list):
            raise RingError(f"a polynomial is a list of terms, got {excerpt(data)}")
        terms = {}
        for t in data:
            exp = t.get("exp") if isinstance(t, dict) else None
            if not isinstance(exp, list) or any(type(a) is not int for a in exp):
                raise RingError(f"a term needs a list of integers under 'exp', got {excerpt(t)}")
            if d is not None and (len(exp) != d or min(exp, default=0) < 0):
                raise RingError(f"exponents {excerpt(exp)} need {d} nonnegative entries")
            try:
                terms[tuple(exp)] = Fraction(t.get("coef"))
            except (TypeError, ValueError, ZeroDivisionError, OverflowError):
                raise RingError(f"coefficient {excerpt(t.get('coef'))} is not a rational number") from None
        return cls(terms)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"Polynomial({self.terms!r})"


def monomial(exp):
    return Polynomial({tuple(exp): 1})


def field_terms(poly: Polynomial, F: FieldSpec) -> dict:
    """The polynomial's terms as scalars of F, dropping those that vanish there."""
    terms = ((exp, F.of(coef)) for exp, coef in poly.terms.items())
    return {exp: c for exp, c in terms if c}


def check_generator(g: Polynomial, d: int, what: str = "generator"):
    """Refuse a generator unless it is homogeneous in d nonnegative exponents; `what` names it."""
    if any(len(e) != d for e in g.terms):
        raise RingError(f"{what} exponent length must match variable count")
    if any(a < 0 for e in g.terms for a in e):
        raise RingError(f"{what} exponents must be nonnegative")
    if not g.is_homogeneous():
        raise RingError(f"{what}s must be homogeneous")


@dataclass(frozen=True)
class QuotientRingSpec:
    """K[x_1..x_d]/H truncated at degree D, H given by homogeneous generators."""

    d: int
    field: FieldSpec
    generators: tuple
    D: int

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        if self.d < 1:
            raise RingError("need at least one variable")
        if self.D < 0:
            raise RingError("truncation degree must be nonnegative")
        for g in self.generators:
            if g.is_zero():
                raise RingError("generators must be nonzero")
            check_generator(g, self.d)
            if g.degree() == 0:
                raise RingError("unit ideal: degree-0 generator makes 1 lie in H")

    def to_json(self):
        return {
            "d": self.d,
            "field": self.field.to_json(),
            "generators": [g.to_json() for g in self.generators],
            "D": self.D,
        }

    @classmethod
    def from_json(cls, data):
        keys = ("d", "field", "generators", "D")
        missing = [key for key in keys if key not in data] if isinstance(data, dict) else keys
        if missing:
            raise RingError(f"ring spec lacks {', '.join(missing)}")
        d, D, gens = data["d"], data["D"], data["generators"]
        if type(d) is not int or type(D) is not int:
            raise RingError(f"ring spec d and D must be integers, got {excerpt(d)} and {excerpt(D)}")
        if not isinstance(gens, list):
            raise RingError(f"ring spec generators must be a list, got {excerpt(gens)}")
        field = FieldSpec.from_json(data["field"])
        return cls(d, field, tuple(Polynomial.from_json(g, d) for g in gens), D)

    def with_field(self, field_spec: FieldSpec) -> "QuotientRingSpec":
        return QuotientRingSpec(self.d, field_spec, self.generators, self.D)


@dataclass(frozen=True)
class MonomialClass:
    """Monomials of one degree sharing a nonzero residue; rep is the lex-least.

    The residue is the shared normal form, a sparse row over the normal-form
    coordinates of the degree (its non-pivot monomials, lex ascending).
    """

    degree: int
    rep: tuple
    residue: dict = dc_field(compare=False, repr=False)


def monomials_by_degree(d, D):
    """Per degree 0..D, its exponent vectors in d variables, lex ascending; built from x_d's powers."""
    table = [[(i,)] for i in range(D + 1)] if d else [[()]] + [[] for _ in range(D)]
    for _ in range(d - 1):
        table = [[(a,) + m for a in range(i + 1) for m in table[i - a]] for i in range(D + 1)]
    return table


class RingModel:
    """Built quotient ring: its classes, numbered once, their multiplication table
    and the normal forms per degree.

    `classes[x]` is element x of `poset_of_monomials(ring)`: classes run
    degree by degree and, inside a degree, by their rep, and `levels[i]` is
    the range of ids of degree i.  `times[v][x]` is the class id of x_v times
    class x, None when that product is zero or above D; it is well defined,
    as the members of a class differ by an element of H, and `mul` walks it.
    `nf_monomials[i]` are the degree-i normal-form coordinates, lex
    ascending, and `hilb[i]` their count.  Every spec is built per variable
    component (see the module docstring); a spec with one component is a
    product of one factor.
    """

    def __init__(self, spec: QuotientRingSpec):
        self.spec = spec
        self.field = spec.field
        self.classes = []  # list[MonomialClass], indexed by class id
        self._poset = None  # built once, by `poset_of_monomials`
        self._build()

    def _build(self):
        """Eliminate each distinct factor once, fold the factors, then sort into lex.

        Sizes are capped at `DEFAULT_PRODUCT_LIMIT` before they are allocated:
        a factor's monomials up to D before its elimination, and the products
        of factor classes up to D (the fold's work before merging), by the
        bounded `check_series`, before any factor is lifted or folded or a free
        one eliminated.  The latter also bounds the product's Hilbert values,
        as a factor's classes span each of its slices.

        Factor monomials are lifted to the global variable positions, so the
        fold's coordinates, and its classes by rep inside each degree, only
        need sorting at the end.
        """
        spec = self.spec
        free = (1, ())  # a variable in no generator: its classes are x^i, one per degree i
        eliminated = {}
        factors = []
        for variables, gens in _components(spec):
            k = len(variables)
            fgens = tuple(
                Polynomial({tuple(e[v] for v in variables): c for e, c in g.terms.items()})
                for g in gens
            )
            key = (k, fgens)
            if key not in eliminated:
                what = f"a component of {k} variables has {{}} monomials of degree <= {spec.D}"
                check_count((comb(k + spec.D, spec.D),), what)
                factor = None if key == free else _eliminate(k, fgens, spec.D, self.field)
                sizes = [1] * (spec.D + 1) if key == free else [len(ids) for ids in factor[1]]
                eliminated[key] = factor, sizes
            factors.append((variables, key))
        check_series([eliminated[key][1] for _, key in factors], spec.D, FOLD_COUNT.format(spec.D))
        if free in eliminated:  # eliminated only once the fold is known to fit
            eliminated[free] = _eliminate(1, (), spec.D, self.field), None
        pieces = []
        for variables, key in factors:
            nf, levels, classes, times = eliminated[key][0]
            # a factor monomial padded with a zero, read off at each global variable
            at = [variables.index(v) if v in variables else len(variables) for v in range(spec.d)]

            def lift(m):
                return tuple(map((m + (0,)).__getitem__, at))

            nf = [list(map(lift, ms)) for ms in nf]
            classes = [(res, lift(rep)) for res, rep in classes]
            pieces.append((nf, levels, classes, dict(zip(variables, times))))
        while len(pieces) > 1:  # fold neighbours, so that most folds are small
            odd = pieces[len(pieces) & ~1:]
            pairs = zip(pieces[::2], pieces[1::2])
            pieces = [_tensor_slices(*a, *b, self.field.p) for a, b in pairs] + odd
        [(nf, self.levels, classes, times)] = pieces
        order = [x for ids in self.levels for x in sorted(ids, key=lambda x: classes[x][1])]
        self.nf_monomials = [sorted(coords) for coords in nf]
        self.hilb = list(map(len, self.nf_monomials))
        for i, (coords, lex) in enumerate(zip(nf, self.nf_monomials)):
            rank = {m: j for j, m in enumerate(lex)}
            for res, rep in (classes[order[x]] for x in self.levels[i]):
                res = {rank[coords[k]]: v for k, v in res.items()}
                self.classes.append(MonomialClass(i, rep, res))
        new = {x: y for y, x in enumerate(order)} | {None: None}
        self.times = [[new[times[v][x]] for x in order] for v in range(spec.d)]

    @property
    def D(self):
        return self.spec.D

    def hilbert(self):
        return tuple(self.hilb)

    def mul(self, x, exp):
        """Class id of class x times the monomial exp, by `times`; None when it is zero."""
        if len(exp) != self.spec.d or min(exp) < 0:
            raise RingError(f"exponent vector {excerpt(exp)} needs {self.spec.d} nonnegative entries")
        degree = self.classes[x].degree + sum(exp)
        if degree > self.D:
            raise RingError(f"product degree {degree} exceeds truncation {self.D}")
        for row, a in zip(self.times, exp):
            while a and x is not None:
                x, a = row[x], a - 1
        return x


def _eliminate(d, gens, D, field):
    """Coordinates, class levels, (residue, rep) classes and table of K[x_1..x_d]/(gens).

    The degree-i slice of the ideal is spanned by the generator multiples;
    a monomial's normal form is its reduction against the slice's RREF,
    written over the non-pivot monomials (lex ascending), and monomials
    with equal nonzero normal form share a class, whose rep is the first,
    lex-least, of them.  Class ids run degree by degree, and `times[v][x]`
    is read off the live monomials' class ids at rep(x) + e_v.
    """
    p = field.p
    one = field.of(1)
    terms = [(g.degree(), field_terms(g, field)) for g in gens]
    mons = monomials_by_degree(d, D)
    nf_monomials, levels, classes, class_of = [], [], [], {}
    for i in range(D + 1):
        col = {m: j for j, m in enumerate(mons[i])}
        rows = [
            {col[tuple(map(add, exp, m))]: c for exp, c in t.items()}
            for e, t in terms
            if e <= i
            for m in mons[i - e]
        ]
        red, pivots = rref(rows, len(mons[i]), field)
        piv_row = dict(zip(pivots, red))
        nonpiv = [j for j in range(len(mons[i])) if j not in piv_row]
        coord = {j: t for t, j in enumerate(nonpiv)}
        fibers = {}
        for j, m in enumerate(mons[i]):
            row = piv_row.get(j)
            if row is None:
                nf = {coord[j]: one}
            else:
                # nf(e_j) = e_j - pivot_row(j), which vanishes on pivot columns
                nf = {coord[c]: (p - v if p else -v) for c, v in row.items() if c != j}
            if nf:
                x = class_of[m] = fibers.setdefault(tuple(sorted(nf.items())), len(classes))
                if x == len(classes):
                    classes.append((nf, m))
        nf_monomials.append([mons[i][j] for j in nonpiv])
        levels.append(range(len(classes) - len(fibers), len(classes)))
    times = [[class_of.get(m[:v] + (m[v] + 1,) + m[v + 1:]) for _, m in classes] for v in range(d)]
    return nf_monomials, levels, classes, times


def _components(spec: QuotientRingSpec):
    """[(variables, generators)] per variable component, by least variable.

    Two variables share a component when a generator's support, read over
    the rationals, joins them; a variable in no generator is its own.
    """
    components = [({v}, []) for v in range(spec.d)]
    for g in spec.generators:
        support = {v for e in g.terms for v, a in enumerate(e) if a}
        met = [c for c in components if c[0] & support]
        components = [c for c in components if not c[0] & support]
        joined = set().union(*(vs for vs, _ in met))
        components.append((joined, [h for _, gs in met for h in gs] + [g]))
    return sorted(((sorted(vs), gs) for vs, gs in components), key=lambda c: c[0])


def _tensor_slices(nf_a, levels_a, cls_a, times_a, nf_b, levels_b, cls_b, times_b, p):
    """Coordinates, class levels, (residue, rep) classes and table of A (x) B.

    The degree-i coordinates are the products s*t of coordinates with
    deg s + deg t = i, numbered in that order.  Classes x of A and y of B
    give a class with the Kronecker product of their residues and, as the
    variables are disjoint, the sum of their reps as its lex-least member.
    Factor classes with proportional residues (reciprocal scalars) give
    equal products, so pairs merge by the full residue, keeping the least
    rep.  The table is the Cartesian product's read through the merge: a
    variable v of A maps (x, y) to (times_A[v][x], y), one of B to (x, times_B[v][y]).
    """
    nf, levels, classes, pair_id, first = [], [], [], {}, []
    for i in range(len(nf_a)):
        coords, fibers = [], {}
        for a in range(i + 1):
            b = i - a
            off, nb = len(coords), len(nf_b[b])
            coords.extend(tuple(map(add, s, t)) for s in nf_a[a] for t in nf_b[b])
            for x in levels_a[a]:
                ra, rep_a = cls_a[x]
                for y in levels_b[b]:
                    rb, rep_b = cls_b[y]
                    res = {
                        off + k * nb + l: (u * w % p if p else u * w)
                        for k, u in ra.items()
                        for l, w in rb.items()
                    }
                    rep = tuple(map(add, rep_a, rep_b))
                    z = pair_id[x, y] = fibers.setdefault(frozenset(res.items()), len(classes))
                    if z == len(classes):
                        classes.append((res, rep))
                        first.append((x, y))
                    elif rep < classes[z][1]:
                        classes[z] = (res, rep)
        nf.append(coords)
        levels.append(range(len(classes) - len(fibers), len(classes)))
    times = {v: [pair_id.get((row[x], y)) for x, y in first] for v, row in times_a.items()}
    times.update((v, [pair_id.get((x, row[y])) for x, y in first]) for v, row in times_b.items())
    return nf, levels, classes, times


def build_ring(spec: QuotientRingSpec) -> RingModel:
    """Materialize classes, normal forms and Hilbert values up to degree D.

    Tensor rings are built per variable component, with the same result as
    one elimination over all the variables.
    """
    return RingModel(spec)


def poset_of_monomials(ring: RingModel) -> RankedPoset:
    """Classes of degree <= D ordered by monomial division, ranked by degree.

    Element x is the ring's class id x, labelled by its rep.  Covers are
    multiplications by a single variable (the upper shadow of a class is
    exactly its nonzero variable multiples), the live entries of
    `ring.times`, each once per class, as two variables can map one class
    into the same glued class.  It is built on the first call and kept on
    the ring, so every call returns the same object.
    """
    if ring._poset is None:
        covers = [(x, y) for x, ys in enumerate(zip(*ring.times)) for y in set(ys) if y is not None]
        rank = [c.degree for c in ring.classes]
        ring._poset = RankedPoset(len(rank), covers, rank, [c.rep for c in ring.classes])
    return ring._poset


def is_level_linearly_independent(ring: RingModel):
    """True when each degree's distinct residues are linearly independent.

    Classes always span their degree slice, so independence is equivalent to
    the class count matching the Hilbert value; returns (flag, first failing
    degree or None).
    """
    for i in range(ring.D + 1):
        if len(ring.levels[i]) != ring.hilb[i]:
            return False, i
    return True, None


def _sorted_by(poset, key):
    """Every id of the poset sorted by `key`; labels that do not compare raise OrderError."""
    try:
        return sorted(range(poset.n), key=key)
    except TypeError as e:
        raise OrderError(f"representative orders need labels that compare: {e}") from None


def rep_lex_order(poset: RankedPoset) -> OrderTable:
    """Plain lexicographic order on class representatives, across all degrees.

    For a quotient that identifies no monomials this restricts the ambient
    lexicographic order, so it is a monomial order.
    """
    ids = _sorted_by(poset, poset.labels.__getitem__)
    return explicit_order(poset, ids, {"kind": "rep-lex"})


def degree_rep_lex_order(poset: RankedPoset) -> OrderTable:
    """Degree first, then representative lex inside each degree.

    One monomial order `is_macaulay_ring` tries: within a degree lex is translation
    invariant, and across degrees multiplication preserves the degree gap,
    so this is a monomial order on monomial quotients and on rings whose
    only identifications happen inside single degrees of basic factors.
    """
    ids = _sorted_by(poset, lambda x: (poset.rank[x], poset.labels[x]))
    return explicit_order(poset, ids, {"kind": "degree-rep-lex"})


def _cut_labels(poset: RankedPoset, blocks, read, bare=False) -> list:
    """Per element, `read` of its label's parts: the entries at each block of
    positions, as tuples, in block order.  Labels are flat tuples; with `bare`
    any other label is read as a 1-tuple.  A label the blocks do not cut, or
    whose parts `read` rejects (KeyError or TypeError), raises OrderError."""
    order = [v for b in blocks for v in b]
    cuts = [slice(e - len(b), e) for b, e in zip(blocks, accumulate(map(len, blocks)))]
    # one C-level gather per label; itemgetter returns a bare entry for one index
    gather = itemgetter(*order) if len(order) > 1 else lambda flat: tuple(flat[v] for v in order)
    out = []
    for label in poset.labels:
        flat = (label,) if bare and type(label) is not tuple else label
        try:
            if type(flat) is not tuple or len(flat) != len(order):
                raise TypeError
            entries = gather(flat)
            out.append(read([entries[c] for c in cuts]))
        except (KeyError, TypeError):
            raise OrderError(f"label {excerpt(label)} does not match the factor tosets") from None
    return out


def tensor_monomial_order(poset: RankedPoset, blocks: Sequence[Sequence[int]]) -> OrderTable:
    """Factor-wise lexicographic order over per-factor degree-major class orders.

    `blocks` lists each tensor factor's variables (`_components`), and a
    label's key is (degree, exponents) per block, in block order; one block
    of every variable gives `degree_rep_lex_order`'s positions.  When every
    factor's degree-major order is a monomial order, this product order is one
    on the tensor ring; `is_macaulay_ring` tries it on glued factors, where a
    flat degree-major order stops being multiplicative.  Consecutive blocks are
    recorded as the tensor-degree-lex recipe of their sizes, others as positions.
    """
    keys = _cut_labels(poset, blocks, lambda parts: tuple((sum(p), p) for p in parts))
    ids = sorted(range(poset.n), key=keys.__getitem__)
    recipe = {"kind": "tensor-degree-lex", "sizes": list(map(len, blocks))}
    consecutive = [v for b in blocks for v in b] == list(range(sum(map(len, blocks))))
    return explicit_order(poset, ids, recipe if consecutive else None)


def is_monomial_order(ring: RingModel, table: OrderTable):
    """Check multiplicativity: m1 < m2 implies m*m1 < m*m2 when both products live.

    Returns (flag, counterexample) where the counterexample is the first
    failing triple of class representatives (m1, m2, m), ids taken in the
    order m, m1, m2.  Degree-1 multipliers m suffice, for two reasons.
    Zero absorbs in an ideal, so every partial product of a nonzero product
    is nonzero, and strict monotonicity under each variable chains into
    strict monotonicity under every monomial.  Poset ids run degree by
    degree, so the first failing triple has a degree-1 multiplier.  Per
    degree-1 class, the live images must strictly increase along the order.
    The table's poset must be the ring's poset of monomials.
    """
    poset = table.poset
    if poset != poset_of_monomials(ring):
        raise RingError("order table must be over the ring's poset of monomials")
    pos = table.position
    labels = poset.labels
    walk = table.by_position()
    for xm in poset.level(1):
        img = [None if y is None else pos[y] for y in ring.times[labels[xm].index(1)]]
        live = [x for x in walk if img[x] is not None]
        # bad: the live elements with a later-placed one whose image is not above theirs
        low, bad = poset.n, []
        for x in reversed(live):
            if low <= img[x]:
                bad.append(x)
            low = min(low, img[x])
        if bad:
            x1 = min(bad)
            x2 = min(x for x in live if pos[x] > pos[x1] and img[x] <= img[x1])
            return False, (labels[x1], labels[x2], labels[xm])
    return True, None


def recognize_tree_ring(ring: RingModel):
    """Legs [(variable, max exponent)] of a tree ring of single pure powers, or None.

    Its nonzero monomials are pure powers of pairwise-annihilating variables,
    each in a class of its own.  A tree-shaped Hasse graph is not enough:
    K[x,y]/(x - y) at D = 3 is a 4-chain of mixed classes, so None.  The powers
    of x_v are the walk along `times[v]` from the unit; a nonzero mixed
    monomial shows as a live step off a walk (x_v^a x_u with u != v), and
    two powers in one class make the walks longer.  Verdicts are relative to D.
    """
    poset = poset_of_monomials(ring)
    if len(poset.covers) != poset.n - 1:
        return None
    legs = []
    for v, row in enumerate(ring.times):
        x, a = row[0], 0
        while x is not None:
            if any(other[x] is not None for u, other in enumerate(ring.times) if u != v):
                return None
            x, a = row[x], a + 1
        if a:
            legs.append((v, a))
    return legs if sum(a for _, a in legs) == poset.n - 1 else None


# ---------------------------------------------------------------------------
# Tensor products (combined quotients)


def _lift(poly: Polynomial, d_total, offset):
    return Polynomial(
        {
            tuple([0] * offset + list(e) + [0] * (d_total - offset - len(e))): c
            for e, c in poly.terms.items()
        }
    )


def check_generators(*factors):
    """The exponent entries a spec's generators list, generator terms times
    variables, by `check_count`: checked before any generator is listed."""
    return check_count(factors, "the generators would have {} exponent entries")


def tensor_ring(specs: Sequence[QuotientRingSpec], D: Optional[int] = None) -> QuotientRingSpec:
    """Combined quotient on the disjoint union of the variables.

    The default truncation is the sum of the factor truncations, which keeps
    every product of factor classes visible.  The lifted generators are
    counted by `check_generators` before they are listed.
    """
    if not specs:
        raise RingError("tensor of zero rings is not defined")
    fields = {s.field for s in specs}
    if len(fields) != 1:
        raise RingError("tensor factors must share a field")
    d_total = sum(s.d for s in specs)
    check_generators(sum(len(g.terms) for s in specs for g in s.generators), d_total)
    gens = []
    offset = 0
    for s in specs:
        gens.extend(_lift(g, d_total, offset) for g in s.generators)
        offset += s.d
    if D is None:
        D = sum(s.D for s in specs)
    return QuotientRingSpec(d_total, specs[0].field, tuple(gens), D)


def tensor_power(spec: QuotientRingSpec, n: int) -> QuotientRingSpec:
    terms = sum(len(g.terms) for g in spec.generators)
    check_generators(terms, n, spec.d, n)  # n * terms lifted over n * d variables
    return tensor_ring([spec] * n)
