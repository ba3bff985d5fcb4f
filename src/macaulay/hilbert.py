"""Hilbert functions, initial monomial data, segment spaces, Macaulay rings.

Initial segment spaces follow the dual-side convention: the segment of size
q in a degree consists of the q order-largest classes.  That is the side on
which "the segment space is an ideal" characterizes Macaulay rings.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

from .errors import RingError, ResourceLimitError
from .linalg import add_multiple, extend_echelon, rref
from .linalg import rref_with_transform  # kept bound: bench/spans.py times hilbert.rref_with_transform
from .orders import OrderTable
from .poset import RankedPoset, reachability
from .rings import (
    Polynomial,
    RingModel,
    degree_rep_lex_order,
    field_terms,
    is_level_linearly_independent,
    is_monomial_order,
    poset_of_monomials,
)
from .verify import DEFAULT_SUBSET_CAP, MacaulayVerdict, is_macaulay

MAX_ANTICHAIN_GROUND = 24


class RingContext:
    """A ring together with its class poset, whose element ids are the ring's class ids."""

    def __init__(self, ring: RingModel):
        self.ring = ring
        self.poset = poset_of_monomials(ring)
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

    The degree-i slice is the RREF of x_v times every row of the degree
    i - 1 slice, for every variable x_v, and of the normal forms of the
    degree-i generators.  It is closed under the variables by construction,
    since a generator multiple m * g with deg m >= 1 is x_v * (m' * g).
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
                self._residue_of((ring.mul(0, exp), coef) for exp, coef in terms.items())
                for e, terms in gens
                if e == i
            ]
            if i:
                # coordinate j of degree i - 1 is the residue of the class of nf_monomials[i - 1][j]
                ids = [ring.mul(0, m) for m in ring.nf_monomials[i - 1]]
                rows += [
                    self._residue_of((times[ids[j]], coef) for j, coef in row.items())
                    for row in self._slices[i - 1][0]
                    for times in ring.times
                ]
            red, pivots = rref(rows, ring.hilb[i], F)
            self._slices.append((red, pivots))
            self.dims.append(len(red))

    def _residue_of(self, products):
        """Normal form of sum(coef * class x) over (x, coef) pairs, x None for zero."""
        ring = self.ctx.ring
        vec = {}
        for x, coef in products:
            if x is not None:
                add_multiple(vec, coef, ring.classes[x].residue, ring.field)
        return vec

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
        kept, rows, pivots = [], [], []
        for x in ids:
            if extend_echelon(rows, pivots, ring.classes[x].residue, F):
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


def initial_monomial_data(
    ctx: RingContext, ideal: IdealSpec, table: OrderTable
) -> InitialMonomialData:
    """Initial monomial sets, the dimensions of their span, and of their ideal.

    The degree-i initial monomials are the leveled-basis classes b that are
    the order-least term of some slice element, that is, that lie in the
    slice plus the span of the basis classes above b.  One scan per degree
    walks the basis down from the order-largest class, with rows spanning
    the slice and the classes walked so far: a class that reduces to zero
    against them is initial, and any other adds its remainder to them.
    """
    ring = ctx.ring
    F = ring.field
    basis = leveled_basis(ctx, table)
    ims = []
    for i in range(ring.D + 1):
        rows, pivots = map(list, ideal.slice(i))
        initial = []
        for x in reversed(basis.levels[i]):
            if not extend_echelon(rows, pivots, ring.classes[x].residue, F):
                initial.append(x)
        if len(rows) != ring.hilb[i]:
            raise RingError(f"degree {i}: the ideal slice and the leveled basis do not span it")
        ims.append(tuple(reversed(initial)))
    imv_dims = tuple(map(len, ims))
    gens = [x for lvl in ims for x in lvl]
    by_degree = [[] for _ in range(ring.D + 1)]
    for x in upset_closure(ctx.poset, gens):
        by_degree[ctx.poset.rank[x]].append(x)
    imi_classes = tuple(frozenset(here) for here in by_degree)
    imi_dims = tuple(ctx.span_dim(i, sorted(here)) for i, here in enumerate(by_degree))
    return InitialMonomialData(tuple(ims), imv_dims, imi_dims, imi_classes)


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


def _mask_profile(ctx: RingContext, ups, memo):
    """Degreewise dimension of the monomial space spanned by the classes in a mask.

    Without level linear independence each dimension is an RREF; `memo`
    keeps them by (degree, the mask's bits in that level), which recur
    across the masks of one scan.
    """
    if ctx.lli:
        return tuple(map(int.bit_count, map(ups.__and__, ctx._level_masks)))
    dims = []
    for i, (ids, level) in enumerate(zip(ctx.ring.levels, ctx._level_masks)):
        key = (i, ups & level)
        if key not in memo:
            memo[key] = ctx.span_dim(i, [x for x in ids if ups >> x & 1])
        dims.append(memo[key])
    return tuple(dims)


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


def is_macaulay_ring(
    ring: RingModel,
    table: OrderTable,
    mode: str = "both",
    max_gen_degree: Optional[int] = None,
    allow_non_lli: bool = False,
    monomial_order_candidate: Optional[OrderTable] = None,
    max_subsets: int = DEFAULT_SUBSET_CAP,
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
    if mode not in ("both", "poset", "monomial-ideals"):
        raise RingError(f"unknown mode {mode!r}")
    if max_gen_degree is not None and max_gen_degree < 0:
        raise RingError(f"max_gen_degree must be nonnegative, got {max_gen_degree}")
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

    # each side records its findings and returns its verdict, None when its
    # hypotheses fail
    def run_poset():
        cand = monomial_order_candidate or degree_rep_lex_order(poset)
        ok, cex = is_monomial_order(ring, cand)
        verdict.monomial_order_verified = ok
        verdict.monomial_order_counterexample = cex
        if not ctx.lli:
            return refuse(no_lli)
        if not ok:
            return refuse("no verified monomial order on the class poset")
        pv = is_macaulay(poset, table, direction="upper", max_subsets=max_subsets)
        verdict.poset_verdict = pv
        return pv.holds

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
        spans = {}  # span dimensions without level linear independence
        for checked, (anti, ups) in enumerate(_antichains(poset, ground), 1):
            profile = _mask_profile(ctx, ups, spans)
            if profile not in results:
                results[profile] = _segment_failure(ctx, table, profile)
            if results[profile] is not None:
                labels = tuple(poset.labels[x] for x in anti)
                failures.append(IdealWitness(labels, profile, *results[profile]))
        verdict.ideals_checked = checked
        verdict.ideal_witnesses = failures
        return not failures

    sides = []
    if mode != "monomial-ideals":
        sides.append(run_poset())
    if mode != "poset" and verdict.hypothesis_ok:
        sides.append(run_ideals())
    if None not in sides:
        verdict.holds = all(sides)
        if len(sides) == 2:
            verdict.agreement = sides[0] == sides[1]
    return verdict
