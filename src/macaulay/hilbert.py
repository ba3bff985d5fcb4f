"""Hilbert functions, initial monomial data, segment spaces, Macaulay rings.

Linear algebra here runs on sparse rows (see `linalg`) in two coordinate
systems.  Normal-form coordinates (the non-pivot monomials of each degree)
are an honest basis of the degree slice and are order-free; they are used
to span ideals and measure dimensions.  Basis coordinates re-express vectors over a leveled monomial
basis sorted ascending by a total order, so that RREF pivots read off
initial monomials.

Initial segment spaces follow the dual-side convention: the segment of size
q in a degree consists of the q order-largest classes.  That is the side on
which "the segment space is an ideal" characterizes Macaulay rings.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from operator import add
from typing import Optional, Sequence

from .errors import RingError, ResourceLimitError
from .linalg import add_multiple, express_in_basis, in_row_space, rref, rref_with_transform
from .orders import OrderTable
from .poset import RankedPoset, reachability
from .rings import (
    Polynomial,
    RingModel,
    check_class_poset,
    degree_rep_lex_order,
    field_terms,
    is_level_linearly_independent,
    is_monomial_order,
    monomials_of_degree,
    poset_of_monomials,
)
from .verify import DEFAULT_SUBSET_CAP, MacaulayVerdict, is_macaulay

MAX_ANTICHAIN_GROUND = 24


class RingContext:
    """A ring together with its class poset, whose element ids are the ring's class ids.

    A poset passed in must be the ring's poset of monomials (its labels the
    class reps in id order); any other raises RingError.
    """

    def __init__(self, ring: RingModel, poset: Optional[RankedPoset] = None):
        self.ring = ring
        self.poset = poset if poset is not None else poset_of_monomials(ring)
        check_class_poset(ring, self.poset)
        self._level_masks = [((1 << len(ids)) - 1) << ids.start for ids in ring.levels]
        self.lli, self.lli_fail_degree = is_level_linearly_independent(ring)

    def classes_at(self, degree):
        return self.ring.levels[degree] if degree <= self.ring.D else ()

    def span_dim(self, degree, class_ids):
        """Dimension of the span of class residues inside the degree slice."""
        if not class_ids:
            return 0
        if self.lli:
            return len(class_ids)
        rows = [self.ring.classes[x].residue for x in class_ids]
        return len(rref(rows, self.ring.hilb[degree], self.ring.field)[0])


# ---------------------------------------------------------------------------
# Ideals


class IdealSpec:
    """A homogeneous ideal of the ring, spanned degree by degree.

    Slices are generated by generator multiples, which is exact for
    homogeneous input.  Construction audits closure under multiplication by
    the variables up to degree D.
    """

    def __init__(self, ctx: RingContext, generators: Sequence[Polynomial]):
        self.ctx = ctx
        ring = ctx.ring
        F = ring.field
        self.generators = tuple(generators)
        gens = []
        for g in self.generators:
            if g.is_zero():
                continue
            if any(len(e) != ring.spec.d for e in g.terms):
                raise RingError("ideal generator exponent length must match variable count")
            if any(a < 0 for e in g.terms for a in e):
                raise RingError("ideal generator exponents must be nonnegative")
            if not g.is_homogeneous():
                raise RingError("ideal generators must be homogeneous")
            e = g.degree()
            if e > ring.D:
                raise RingError(f"generator degree {e} exceeds truncation {ring.D}")
            gens.append((e, field_terms(g, F)))
        self._slices = []  # per degree: (rref rows over nf coords, pivots)
        self.dims = []
        for i in range(ring.D + 1):
            rows = [
                self._residue_of(terms, m)
                for e, terms in gens
                if e <= i
                for m in monomials_of_degree(ring.spec.d, i - e)
            ]
            red, pivots = rref(rows, ring.hilb[i], F)
            self._slices.append((red, pivots))
            self.dims.append(len(red))
        self._audit_closure()

    def _residue_of(self, terms, shift):
        """Normal form of sum(coef * x^(exp + shift)), as a sparse row."""
        ring = self.ctx.ring
        vec = {}
        for exp, coef in terms.items():
            x = ring.class_of.get(tuple(map(add, exp, shift)))
            if x is not None:
                add_multiple(vec, coef, ring.classes[x].residue, ring.field)
        return vec

    def _audit_closure(self):
        ring = self.ctx.ring
        d = ring.spec.d
        units = [tuple(int(k == var) for k in range(d)) for var in range(d)]
        for i in range(ring.D):
            red, _ = self._slices[i]
            nxt_red, nxt_piv = self._slices[i + 1]
            mons = ring.nf_monomials[i]
            for row in red:
                terms = {mons[j]: coef for j, coef in row.items()}
                for var, unit in enumerate(units):
                    vec = self._residue_of(terms, unit)
                    if not in_row_space(nxt_red, nxt_piv, vec, ring.field):
                        raise RingError(f"ideal slices not closed under x_{var+1} at degree {i}")

    def slice(self, degree):
        return self._slices[degree]


def ideal_in_ring(ctx: RingContext, generators: Sequence[Polynomial]) -> IdealSpec:
    return IdealSpec(ctx, generators)


def hilbert_function(ctx: RingContext, ideal: IdealSpec) -> dict:
    """Degreewise dimension of the ideal, computed by exact RREF."""
    return {i: ideal.dims[i] for i in range(ctx.ring.D + 1)}


# ---------------------------------------------------------------------------
# Leveled bases and initial monomial data


@dataclass(frozen=True)
class LeveledMonomialBasis:
    """Per degree, an ordered list of class ids whose residues form a basis."""

    levels: tuple


def leveled_basis(ctx: RingContext, table: OrderTable) -> LeveledMonomialBasis:
    """Greedy basis: scan classes ascending by the order, keep independent ones.

    With level linear independence every class is kept, which is the unique
    choice; otherwise the greedy scan makes initial-monomial data
    deterministic and compatible with the order.
    """
    ring = ctx.ring
    F = ring.field
    levels = []
    for i in range(ring.D + 1):
        ids = table.level_in_order(i)
        if ctx.lli:
            levels.append(tuple(ids))
            continue
        kept = []
        rows = []
        for x in ids:
            red, _ = rref(rows + [ring.classes[x].residue], ring.hilb[i], F)
            if len(red) > len(rows):
                rows = red
                kept.append(x)
        if len(kept) != ring.hilb[i]:
            raise RingError(f"degree {i}: classes do not span the slice")
        levels.append(tuple(kept))
    return LeveledMonomialBasis(tuple(levels))


@dataclass
class InitialMonomialData:
    ims: tuple  # per degree, class ids (ascending by the order)
    imv_dims: tuple
    imi_dims: tuple
    imi_classes: tuple  # per degree, frozenset of class ids


def upset_closure(poset: RankedPoset, seed_ids) -> frozenset:
    """All elements weakly above the seeds."""
    seen = set(seed_ids)
    stack = list(seed_ids)
    while stack:
        x = stack.pop()
        for y in poset.up[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return frozenset(seen)


def _basis_coordinates(ctx, degree, cols, vectors):
    """RREF (rows, pivots) of degree-`degree` vectors written over the basis classes `cols`."""
    F = ctx.ring.field
    bas_rows = [ctx.ring.classes[x].residue for x in cols]
    b_red, b_piv, b_tr = rref_with_transform(bas_rows, ctx.ring.hilb[degree], F)
    rows_b = []
    for vec in vectors:
        coeffs = express_in_basis(b_red, b_piv, b_tr, vec, F)
        if coeffs is None:
            raise RingError(f"degree {degree}: ideal slice escapes the leveled basis span")
        rows_b.append(coeffs)
    return rref(rows_b, len(cols), F)


def initial_monomial_data(
    ctx: RingContext, ideal: IdealSpec, table: OrderTable
) -> InitialMonomialData:
    """Initial monomial sets, the dimensions of their span, and of their ideal.

    The degree-i initial monomial set consists of the RREF pivot classes of
    the ideal slice written over the leveled basis with columns ascending by
    the order; so a pivot is the order-least monomial of some slice element.
    """
    ring = ctx.ring
    basis = leveled_basis(ctx, table)
    ims = []
    imv_dims = []
    for i in range(ring.D + 1):
        cols = basis.levels[i]
        _, piv_b = _basis_coordinates(ctx, i, cols, ideal.slice(i)[0])
        ims.append(tuple(cols[c] for c in piv_b))
        imv_dims.append(len(piv_b))
    gens = [x for lvl in ims for x in lvl]
    by_degree = [[] for _ in range(ring.D + 1)]
    for x in upset_closure(ctx.poset, gens):
        by_degree[ctx.poset.rank[x]].append(x)
    imi_classes = tuple(frozenset(here) for here in by_degree)
    imi_dims = tuple(ctx.span_dim(i, sorted(here)) for i, here in enumerate(by_degree))
    return InitialMonomialData(tuple(ims), tuple(imv_dims), imi_dims, imi_classes)


# ---------------------------------------------------------------------------
# Segment spaces


@dataclass
class GradedSubspace:
    """Per-degree dimensions of a graded subspace of the ring."""

    dims: tuple


def dual_segment(table: OrderTable, level: int, q: int):
    """The q order-largest elements of a level (the dual-side initial segment)."""
    return table.level_in_order(level, reverse=True)[:q]


def initial_segment_space(ctx: RingContext, v_dims, table: OrderTable):
    """Span of the per-degree dual segments whose sizes are prescribed by v_dims.

    Returns (GradedSubspace, segment class ids per degree).  Dimensions can
    drop below the segment size exactly when the ring is not level linearly
    independent.
    """
    ring = ctx.ring
    if isinstance(v_dims, dict):
        v_dims = [v_dims.get(i, 0) for i in range(ring.D + 1)]
    v_dims = list(v_dims) + [0] * (ring.D + 1 - len(v_dims))
    segs = []
    dims = []
    for i in range(ring.D + 1):
        q = v_dims[i]
        avail = len(ctx.classes_at(i))
        if q < 0 or q > avail:
            raise RingError(f"degree {i}: requested {q} classes, only {avail} exist")
        seg = tuple(dual_segment(table, i, q))
        segs.append(seg)
        dims.append(ctx.span_dim(i, seg))
    return GradedSubspace(tuple(dims)), tuple(segs)


def segment_is_ideal(ctx: RingContext, segments) -> tuple:
    """Whether per-degree class prefixes are closed under upper shadows.

    A monomial space is an ideal exactly when each level's upper shadow lands
    in the next level's part; returns (flag, first failing degree or None).
    """
    sets = [frozenset(s) for s in segments]
    sets += [frozenset()] * (ctx.ring.D + 1 - len(sets))
    for i in range(ctx.ring.D):
        nxt = sets[i + 1]
        if any(y not in nxt for x in sets[i] for y in ctx.poset.up[x]):
            return False, i
    return True, None


# ---------------------------------------------------------------------------
# Macaulay ring verification


@dataclass
class IdealWitness:
    generator_labels: tuple
    profile: tuple
    failing_degree: int
    kind: str  # "segment-not-ideal" | "hilbert-mismatch"


@dataclass
class RingMacaulayVerdict:
    holds: Optional[bool]
    mode: str
    lli: bool
    lli_fail_degree: Optional[int]
    monomial_order_verified: Optional[bool] = None
    monomial_order_counterexample: Optional[tuple] = None
    order_is_monomial: Optional[bool] = None
    order_counterexample: Optional[tuple] = None
    hypothesis_ok: bool = True
    hypothesis_reason: Optional[str] = None
    scope: str = "full"
    poset_verdict: Optional[MacaulayVerdict] = None
    ideal_witnesses: list = dc_field(default_factory=list)
    ideals_checked: int = 0
    agreement: Optional[bool] = None

    def to_dict(self, poset=None):
        return {
            "holds": self.holds,
            "mode": self.mode,
            "scope": self.scope,
            "order_is_monomial": self.order_is_monomial,
            "order_counterexample": (
                [str(x) for x in self.order_counterexample]
                if self.order_counterexample
                else None
            ),
            "hypotheses": {
                "level_linear_independence": self.lli,
                "lli_failing_degree": self.lli_fail_degree,
                "monomial_order_verified": self.monomial_order_verified,
                "monomial_order_counterexample": (
                    [str(x) for x in self.monomial_order_counterexample]
                    if self.monomial_order_counterexample
                    else None
                ),
                "ok": self.hypothesis_ok,
                "reason": self.hypothesis_reason,
            },
            "poset_verdict": self.poset_verdict.to_dict(poset) if self.poset_verdict else None,
            "ideal_witnesses": [
                {
                    "generators": [str(l) for l in w.generator_labels],
                    "profile": list(w.profile),
                    "failing_degree": w.failing_degree,
                    "kind": w.kind,
                }
                for w in self.ideal_witnesses
            ],
            "ideals_checked": self.ideals_checked,
            "agreement": self.agreement,
        }


def _antichains(poset: RankedPoset, ground):
    """Antichains of the ground elements with their upset masks, streamed depth-first.

    The empty antichain comes first, then the rest in lexicographic order of
    element ids.  A child adds one larger ground element x, comparable with
    no member, to its parent: its upset mask is the parent's OR x's.
    """
    above = reachability(poset)
    up = [sum(1 << y for y in above[x]) for x in range(poset.n)]
    comp = {x: sum(1 << y for y in ground if y in above[x] or x in above[y]) for x in ground}
    stack = [((), sum(1 << x for x in ground), 0)]  # antichain, free elements, upset
    while stack:
        chosen, free, ups = stack.pop()
        yield chosen, ups
        rest = free
        while rest:  # largest first, so that the smallest child pops first
            x = rest.bit_length() - 1
            rest ^= 1 << x
            # -(2 << x) keeps the bits above x
            stack.append((chosen + (x,), free & ~comp[x] & -(2 << x), ups | up[x]))


def _mask_profile(ctx: RingContext, ups):
    """Degreewise dimension of the monomial space spanned by the classes in a mask."""
    if ctx.lli:
        return tuple(map(int.bit_count, map(ups.__and__, ctx._level_masks)))
    return tuple(
        ctx.span_dim(i, [x for x in ids if ups >> x & 1]) for i, ids in enumerate(ctx.ring.levels)
    )


def _segment_failure(ctx: RingContext, table: OrderTable, profile):
    """(first failing degree, kind) of the segment space of a profile, or None."""
    segs = [dual_segment(table, i, q) for i, q in enumerate(profile)]
    ok, fail_deg = segment_is_ideal(ctx, segs)
    if not ok:
        return fail_deg, "segment-not-ideal"
    for i, seg in enumerate(segs):
        if ctx.span_dim(i, seg) != profile[i]:
            return i, "hilbert-mismatch"
    return None


def check_monomial_ideal_profile(ctx: RingContext, table: OrderTable, upset_ids):
    """Segment test for one monomial ideal given as an upset of the class poset.

    Returns (profile, witness or None): the profile is the degreewise
    dimension of the ideal, and the witness describes the first degree where
    the segment space of that profile fails to be an ideal of equal size.
    """
    profile = _mask_profile(ctx, sum(1 << x for x in set(upset_ids)))
    return profile, _segment_failure(ctx, table, profile)


def is_macaulay_ring(
    ring: RingModel,
    table: OrderTable,
    mode: str = "both",
    max_gen_degree: Optional[int] = None,
    allow_non_lli: bool = False,
    monomial_order_candidate: Optional[OrderTable] = None,
    max_subsets: int = DEFAULT_SUBSET_CAP,
    ctx: Optional[RingContext] = None,
) -> RingMacaulayVerdict:
    """Decide whether dual-side segment spaces of ideals are again ideals.

    mode="monomial-ideals" enumerates the monomial ideals generated in
    degrees <= max_gen_degree, as upsets of antichains of the class poset,
    and tests each profile.  The antichains stream depth-first with int
    bitmask upsets: a child's upset is its parent's OR the new element's, and
    under level linear independence its profile is one popcount per degree.
    The segment test reads only the profile, so its result is memoised by
    profile, which is exact: the witnesses and the count are those of testing
    every ideal on its own.  mode="poset" checks the class poset on the
    upper-shadow side, which by the correspondence between the two sides
    needs level linear independence plus a verified monomial order; the
    default candidate is the degree-major representative-lex order.
    mode="both" cross-checks.
    """
    if ctx is None:
        ctx = RingContext(ring)
    poset = ctx.poset
    if table.poset != poset:
        raise RingError("order table must be over the ring's poset of monomials")
    verdict = RingMacaulayVerdict(None, mode, ctx.lli, ctx.lli_fail_degree)
    # informative: the supplied order itself need not be multiplicative
    verdict.order_is_monomial, verdict.order_counterexample = is_monomial_order(ring, table)
    no_lli = f"level linear independence fails at degree {ctx.lli_fail_degree}"

    def refuse(reason):
        verdict.hypothesis_ok = False
        verdict.hypothesis_reason = reason

    def run_poset():
        cand = monomial_order_candidate or degree_rep_lex_order(poset)
        ok, cex = is_monomial_order(ring, cand)
        verdict.monomial_order_verified = ok
        verdict.monomial_order_counterexample = cex
        if not ctx.lli:
            return refuse(no_lli)
        if not ok:
            return refuse("no verified monomial order on the class poset")
        return is_macaulay(poset, table, direction="upper", max_subsets=max_subsets)

    def run_ideals():
        if not ctx.lli and not allow_non_lli:
            return refuse(no_lli)
        if not ctx.lli:
            verdict.scope = "monomial-ideals-only"
        g = max_gen_degree
        if g is None:
            g = min(3, max(ring.D - 1, 0))
        ground = [x for x in range(poset.n) if poset.rank[x] <= g]
        if len(ground) > MAX_ANTICHAIN_GROUND:
            raise ResourceLimitError(f"{len(ground)} generator candidates exceed the antichain cap")
        failures = []
        results = {}  # profile -> segment failure; the segment test reads only the profile
        for checked, (anti, ups) in enumerate(_antichains(poset, ground), 1):
            profile = _mask_profile(ctx, ups)
            if profile not in results:
                results[profile] = _segment_failure(ctx, table, profile)
            if results[profile] is not None:
                labels = tuple(poset.labels[x] for x in anti)
                failures.append(IdealWitness(labels, profile, *results[profile]))
        verdict.ideals_checked = checked
        return failures

    if mode == "poset":
        pv = run_poset()
        verdict.poset_verdict = pv
        verdict.holds = pv.holds if pv is not None else None
    elif mode == "monomial-ideals":
        fails = run_ideals()
        verdict.ideal_witnesses = fails or []
        verdict.holds = None if fails is None else not fails
    elif mode == "both":
        pv = run_poset()
        verdict.poset_verdict = pv
        fails = run_ideals() if verdict.hypothesis_ok else None
        if pv is None or fails is None:
            verdict.holds = None
        else:
            verdict.ideal_witnesses = fails
            verdict.agreement = pv.holds == (not fails)
            verdict.holds = pv.holds and not fails
    else:
        raise RingError(f"unknown mode {mode!r}")
    return verdict
