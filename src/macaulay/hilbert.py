"""Hilbert functions, initial monomial data, segment spaces, Macaulay rings.

Initial segment spaces follow the dual-side convention: the segment of size
q in a degree consists of the q order-largest classes.  That is the side on
which "the segment space is an ideal" characterizes Macaulay rings.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cache, reduce
from operator import or_
from typing import Optional, Sequence

from .errors import RingError, ResourceLimitError, excerpt
from .linalg import add_multiple, extend_echelon, rref
from .linalg import rref_with_transform  # kept bound: bench/spans.py times hilbert.rref_with_transform
from .orders import OrderTable
from .poset import upset_mask
from .rings import (
    Polynomial,
    RingModel,
    _components,
    check_generator,
    degree_rep_lex_order,
    field_terms,
    is_level_linearly_independent,
    is_monomial_order,
    poset_of_monomials,
    tensor_monomial_order,
)
from .verify import DEFAULT_SUBSET_CAP, MacaulayVerdict, _level_check, _segments, _subset_ors
from .verify import is_macaulay

MAX_ANTICHAIN_GROUND = 24


class RingContext:
    """A ring together with its class poset, whose element ids are the ring's class ids."""

    def __init__(self, ring: RingModel):
        self.ring = ring
        self.poset = poset_of_monomials(ring)
        self._level_masks = [((1 << len(ids)) - 1) << ids.start for ids in ring.levels]
        self.lli, self.lli_fail_degree = is_level_linearly_independent(ring)

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
            check_generator(g, ring.spec.d, "ideal generator")
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


def leveled_basis(ctx: RingContext, table: OrderTable) -> tuple:
    """Per degree, the basis of class ids a greedy scan ascending by the order keeps.

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
    return tuple(levels)


@dataclass
class InitialMonomialData:
    ims: tuple  # per degree, class ids (ascending by the order)
    imv_dims: tuple
    imi_dims: tuple


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
    The initial ideal is the upset of all the initial monomials in the class
    poset, from one `upset_mask` walk, and its profile is `_mask_profile`'s.
    """
    ring = ctx.ring
    F = ring.field
    basis = leveled_basis(ctx, table)
    ims = []
    for i in range(ring.D + 1):
        rows, pivots = map(list, ideal.slice(i))
        initial = []
        for x in reversed(basis[i]):
            if not extend_echelon(rows, pivots, ring.classes[x].residue, F):
                initial.append(x)
        if len(rows) != ring.hilb[i]:
            raise RingError(f"degree {i}: the ideal slice and the leveled basis do not span it")
        ims.append(tuple(reversed(initial)))
    imi_dims = _mask_profile(ctx, upset_mask(ctx.poset, [x for lvl in ims for x in lvl]), {})
    return InitialMonomialData(tuple(ims), tuple(map(len, ims)), imi_dims)


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
    """Span of the per-degree dual segments whose sizes are prescribed by v_dims,
    a list or a {degree: size} dict; a nonzero size outside 0..D is a RingError.

    Returns (GradedSubspace, segment class ids per degree).  Dimensions can
    drop below the segment size exactly when the ring is not level linearly
    independent.
    """
    ring = ctx.ring
    sizes = v_dims if isinstance(v_dims, dict) else dict(enumerate(v_dims))
    for i, q in sizes.items():
        if q and i not in range(ring.D + 1):
            raise RingError(f"degree {i}: requested {q} classes past the top degree {ring.D}")
    segs, dims = [], []
    for i in range(ring.D + 1):
        q = sizes.get(i, 0)
        avail = len(ctx.poset.level(i))
        if q < 0 or q > avail:
            raise RingError(f"degree {i}: requested {q} classes, only {avail} exist")
        seg = tuple(dual_segment(table, i, q))
        segs.append(seg)
        dims.append(ctx.span_dim(i, seg))
    return GradedSubspace(tuple(dims)), tuple(segs)


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
    hypothesis_reason: Optional[str] = None
    scope: str = "full"
    poset_verdict: Optional[MacaulayVerdict] = None
    ideal_witnesses: list = dc_field(default_factory=list)
    ideals_checked: int = 0
    agreement: Optional[bool] = None
    hypothesis_ok = property(lambda self: self.hypothesis_reason is None)  # each refusal sets a reason

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


def _subset_unions(masks):
    """The OR of every subset of `masks`, streamed over the two halves' subset
    tables (`_subset_ors`): about 2^(k/2) ORs are live for k masks."""
    half = len(masks) // 2
    low, high = _subset_ors(masks[:half]), _subset_ors(masks[half:])
    return (a | b for b in high for a in low)


def _mask_profile(ctx: RingContext, ups, memo):
    """Degreewise dimension of the span of the classes in a mask.

    Without level linear independence each dimension is an RREF; `memo`
    keeps them by (degree, the mask's bits in that level), which recur
    across the masks of one scan; under level linear independence it is unread.
    """
    if ctx.lli:
        return tuple([(ups & m).bit_count() for m in ctx._level_masks])
    dims = []
    for i, level in enumerate(ctx._level_masks):
        key = (i, ups & level)
        if key not in memo:
            memo[key] = ctx.span_dim(i, [x for x in ctx.ring.levels[i] if ups >> x & 1])
        dims.append(memo[key])
    return tuple(dims)


def _segment_test(ctx: RingContext, table: OrderTable):
    """The segment test: profile -> (first failing degree, kind), or None.

    The segment of size q in a degree is its q order-largest classes.  The
    segments of a profile p form an ideal exactly when, in each degree
    i < D, the p_i-segment's upper shadow lies in the p_(i+1)-segment: as a
    prefix OR over degree i + 1's dual order (`verify._segments`), its bit
    length is at most p_(i+1).  Without level linear independence a segment
    may also span less than its size: a "hilbert-mismatch".
    """
    frames = (_segments(ctx.poset, table, i, "upper")[3] for i in range(ctx.ring.D))
    reach = [[m.bit_length() for m in prefix] for prefix in frames]

    @cache  # per scan: many ideals share a profile
    def failure(profile):
        for i, r in enumerate(reach):
            if r[profile[i]] > profile[i + 1]:
                return i, "segment-not-ideal"
        if not ctx.lli:
            for i, q in enumerate(profile):
                if ctx.span_dim(i, dual_segment(table, i, q)) != q:
                    return i, "hilbert-mismatch"
        return None

    return failure


def _safe_degree(ctx: RingContext, table: OrderTable, failure, g, up, poset_holds):
    """The least s such that no subset of a level L_i, s <= i <= g, fails `failure`.

    L_g takes one streamed pass, unless the poset side holds under the same
    order: then every level passes the upper check.  Below a safe degree
    i + 1, the pairs above i of U <= L_i are those of up1(U) <= L_(i+1), so
    i is safe exactly when L_i passes the upper check (`verify._level_check`)
    at the default subset cap, which cannot bind: the kernel scans the smaller
    of two adjacent levels of a ground of at most MAX_ANTICHAIN_GROUND classes.
    Levels past the poset's top are empty and safe.
    """
    level = [up[x] for x in ctx.ring.levels[g]]
    if not ctx.lli or not poset_holds and any(
        failure(_mask_profile(ctx, m, None)) for m in _subset_unions(level)
    ):
        return g + 1
    while g and (g - 1 > ctx.poset.max_rank or not _level_check(
        ctx.poset, table, g - 1, "upper", DEFAULT_SUBSET_CAP)[2]):
        g -= 1
    return g


def is_macaulay_ring(
    ring: RingModel,
    table: OrderTable,
    mode: str = "both",
    max_gen_degree: Optional[int] = None,
    allow_non_lli: bool = False,
    max_subsets: int = DEFAULT_SUBSET_CAP,
) -> RingMacaulayVerdict:
    """Decide whether dual-side segment spaces of ideals are again ideals.

    mode="monomial-ideals" tests every monomial ideal generated in degrees
    <= g = max_gen_degree: the upset of an antichain of the class poset,
    whose segment test (memoised by profile) reads only its profile.  An
    antichain is a chain of degree slices up1(U_(i-1)) <= U_i <= L_i, i <= g.
    Degrees s..g are safe, no subset of their levels failing (`_safe_degree`,
    which reads the poset side's minima, so in mode="both" a holding ring's
    agreement rests on that lemma and the count, not on an independent walk).
    Then pair i of a profile never fails for s <= i < g, as U_(i+1)
    contains up1(U_i), nor at or above g.  An antichain that passes, and
    whose extensions add generators only in degrees >= i >= s, passes with
    all of them: they are counted, not walked, by the memoised
    N(i, B) = sum over U >= B in L_i of N(i + 1, up1(U)), N(g, B) = 2^|L_g - B|.
    The walk goes depth-first over the rest, in lexicographic order of
    element ids, with int bitmask upsets, so witnesses come in that order.
    Without level linear independence no degree is safe and every antichain
    is walked, each span dimension memoised by its degree slice.

    mode="poset" checks the class poset on the upper-shadow side, which by
    the correspondence between the two sides needs level linear independence
    plus a monomial order, worked out from the ring: the given table, the
    degree-rep-lex order, or on several variable components their product
    (`rings.tensor_monomial_order`); a refusal reports
    degree-rep-lex's counterexample.  mode="both" cross-checks.
    """
    if mode not in ("both", "poset", "monomial-ideals"):
        raise RingError(f"unknown mode {excerpt(mode)}")
    if max_gen_degree is not None and max_gen_degree < 0:
        raise RingError(f"max_gen_degree must be nonnegative, got {max_gen_degree}")
    ctx = RingContext(ring)
    poset = ctx.poset
    verdict = RingMacaulayVerdict(None, mode, ctx.lli, ctx.lli_fail_degree)
    # informative: the supplied order itself need not be multiplicative
    verdict.order_is_monomial, verdict.order_counterexample = is_monomial_order(ring, table)
    no_lli = f"level linear independence fails at degree {ctx.lli_fail_degree}"

    def refuse(reason):
        verdict.hypothesis_reason = reason

    # each side records its findings and returns its verdict, None when its
    # hypotheses fail
    def run_poset():
        ok, cex = verdict.order_is_monomial, verdict.order_counterexample
        if not ok:
            ok, cex = is_monomial_order(ring, degree_rep_lex_order(poset))
        blocks = [vs for vs, _ in _components(ring.spec)]  # glued tensor factors
        if not ok and len(blocks) > 1:
            ok = is_monomial_order(ring, tensor_monomial_order(poset, blocks))[0]
        verdict.monomial_order_verified = ok
        verdict.monomial_order_counterexample = None if ok else cex
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
            raise ResourceLimitError(
                f"{len(ground)} generator candidates in degrees <= {g} exceed the antichain cap"
                f" of {MAX_ANTICHAIN_GROUND}"
            )
        g = min(g, ring.D)
        levels, slices = ring.levels, ctx._level_masks
        up = {x: upset_mask(poset, (x,)) for x in ground}
        failure = _segment_test(ctx, table)
        s = _safe_degree(ctx, table, failure, g, up, getattr(verdict.poset_verdict, "holds", False))
        spans = {}  # span dimensions without level linear independence

        @cache
        def count(i, base):  # antichains with these slices below i and U_i >= base
            if i == g:
                return 1 << len(levels[i]) - base.bit_count()
            free = [up[x] for x in levels[i] if not base >> x & 1]
            below = reduce(or_, (up[x] for x in levels[i] if base >> x & 1), 0)
            return sum(count(i + 1, (below | m) & slices[i + 1]) for m in _subset_unions(free))

        checked = 0
        # a passing node whose last generator is x counts its extensions in degrees >= after[x]
        after = [max(poset.rank[x] + 1, s) for x in ground]
        stack = [((), (1 << len(ground)) - 1, 0, s)]  # antichain, free elements, upset, that degree
        while stack:
            anti, free, ups, i = stack.pop()
            profile = _mask_profile(ctx, ups, spans)
            found = failure(profile)
            if found is not None:
                labels = tuple(poset.labels[x] for x in anti)
                verdict.ideal_witnesses.append(IdealWitness(labels, profile, *found))
            rest = free
            if found is None and i <= g:  # so do its extensions in degrees >= i
                checked += count(i, ups & slices[i])
                rest &= (1 << levels[i].start) - 1
            else:
                checked += 1
            while rest:  # largest first, so that the smallest child pops first
                x = rest.bit_length() - 1
                rest ^= 1 << x
                # ids are degree-major, so nothing after x lies below it: drop x's upset
                stack.append((anti + (x,), free & ~up[x] & -(2 << x), ups | up[x], after[x]))
        verdict.ideals_checked = checked
        return not verdict.ideal_witnesses

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
