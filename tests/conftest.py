"""Shared brute-force oracles, independent of the library's fast paths."""
import itertools
from bisect import bisect_right
from fractions import Fraction
from functools import cmp_to_key

import pytest

import macaulay as M
from macaulay.linalg import add_multiple, reduce_vector, rref, rref_with_transform
from macaulay.orders import _check_perm, _dom_key, _icscd, _scd
from macaulay.rings import field_terms, monomials_by_degree, monomials_of_degree


def brute_lower_shadow_labels(labels):
    """Unit decrements of exponent vectors, keeping coordinates nonnegative."""
    out = set()
    for v in labels:
        for i in range(len(v)):
            if v[i] > 0:
                out.add(v[:i] + (v[i] - 1,) + v[i + 1:])
    return out


def brute_upper_shadow_labels(labels, lengths, cap=None):
    """Unit increments staying inside the shape (and under the truncation)."""
    out = set()
    for v in labels:
        for i in range(len(v)):
            w = v[:i] + (v[i] + 1,) + v[i + 1:]
            if lengths[i] is not None and w[i] >= lengths[i]:
                continue
            if cap is not None and sum(w) > cap:
                continue
            out.add(w)
    return out


def brute_min_shadow(poset, level, q, direction="lower"):
    """Minimum shadow size over all q-subsets, by direct enumeration."""
    ids = poset.level(level)
    shadow = poset.lower_shadow if direction == "lower" else poset.upper_shadow
    best = None
    arg = None
    for combo in itertools.combinations(ids, q):
        s = len(shadow(combo))
        if best is None or s < best:
            best, arg = s, combo
    return best, frozenset(arg or ())


def labels_of(poset, ids):
    return sorted(poset.labels[x] for x in ids)


@pytest.fixture(scope="session")
def m34():
    return M.multiset_lattice([3, 4])


@pytest.fixture(scope="session")
def m43():
    return M.multiset_lattice([4, 3])


@pytest.fixture(scope="session")
def m222():
    return M.multiset_lattice([2, 2, 2])


# ---------------------------------------------------------------------------
# Per-element normaliser: the oracle for the one-pass up/down build in
# poset.RankedPoset.


def normalised_poset_oracle(n, covers, rank, labels=None):
    """(covers, up, down, levels) of a ranked poset: the covers sorted, repeats
    kept, then each element's ups and downs as tuple(sorted(set(xs))).  Raises
    PosetError where a cover names an unknown id or fails to raise rank by one,
    or where the ranks do not start at 0 or an element of positive rank has
    no cover below it."""
    from macaulay.poset import _label_key

    covers = tuple(sorted((int(a), int(b)) for a, b in covers))
    labels = tuple(labels) if labels is not None else tuple(range(n))
    if n < 1 or len(rank) != n or len(labels) != n:
        raise M.PosetError("shape")
    if any(not (0 <= a < n and 0 <= b < n) or rank[b] != rank[a] + 1 for a, b in covers):
        raise M.PosetError("cover")
    up, down = [[] for _ in range(n)], [[] for _ in range(n)]
    for a, b in covers:
        up[a].append(b)
        down[b].append(a)
    up = tuple(tuple(sorted(set(xs))) for xs in up)
    down = tuple(tuple(sorted(set(xs))) for xs in down)
    if min(rank) != 0 or any(r > 0 and not down[x] for x, r in enumerate(rank)):
        raise M.PosetError("rank")
    levels = tuple(
        tuple(sorted((x for x in range(n) if rank[x] == i), key=lambda x: _label_key(labels[x])))
        for i in range(max(rank) + 1)
    )
    return covers, up, down, levels


# ---------------------------------------------------------------------------
# Dense exact elimination: the oracle for the sparse kernels in linalg.
# Scalars are Fractions when p is None and ints in 0..p-1 otherwise.


def _norm(x, p):
    return x % p if p else x


def dense_rref(rows, ncols, p=None):
    """Gauss-Jordan on dense lists; pivots only in the first ncols columns."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = pow(mat[r][c], -1, p) if p else 1 / mat[r][c]
        mat[r] = [_norm(inv * v, p) for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [_norm(v - f * w, p) for v, w in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def dense_reduce_vector(rref_rows, pivots, vec, p=None):
    """Residual of vec after clearing its pivot columns against dense RREF rows."""
    v = list(vec)
    for row, c in zip(rref_rows, pivots):
        f = v[c]
        if f != 0:
            v = [_norm(a - f * b, p) for a, b in zip(v, row)]
    return v


def to_dense(row, ncols, p=None):
    zero = 0 if p else Fraction(0)
    out = [zero] * ncols
    for c, v in row.items():
        out[c] = v
    return out


def to_sparse(vec):
    return {c: v for c, v in enumerate(vec) if v != 0}


def rank(rows, ncols, field):
    return len(rref(rows, ncols, field)[0])


def in_row_space(rref_rows, pivots, vec, field):
    return not reduce_vector(rref_rows, pivots, vec, field)[1]


def express_in_basis(basis_rref, basis_pivots, basis_transform, vec, field):
    """Coefficients {basis row index: scalar} of vec, or None if outside the span."""
    w, residual = reduce_vector(basis_rref, basis_pivots, vec, field)
    if residual:
        return None
    out = {}
    for f, trow in zip(w, basis_transform):
        if f:
            add_multiple(out, f, trow, field)
    return out


# ---------------------------------------------------------------------------
# Gray-code walk: the oracle for the split-and-combine level kernel in verify.


def gray_minima(sh, nt):
    """Minimum shadow size over all subsets of each size, and the first
    minimizer in Gray-code order, by walking all 2^k subsets with
    incrementally kept shadow counts."""
    k = len(sh)
    counts = [0] * nt
    best = [0] + [nt + 1] * k
    best_mask = [0] * (k + 1)
    shadow = 0
    size = 0
    mask = 0
    for t in range(1, 1 << k):
        j = (t & -t).bit_length() - 1
        bit = 1 << j
        mask ^= bit
        if mask & bit:
            size += 1
            for idx in sh[j]:
                if counts[idx] == 0:
                    shadow += 1
                counts[idx] += 1
        else:
            size -= 1
            for idx in sh[j]:
                counts[idx] -= 1
                if counts[idx] == 0:
                    shadow -= 1
        if shadow < best[size]:
            best[size] = shadow
            best_mask[size] = mask
    return best, best_mask


# ---------------------------------------------------------------------------
# Triple loop: the oracle for the per-variable monomial-order check in rings.


def triple_loop_monomial_order(ring, table):
    """(flag, first failing (m1, m2, m) triple of class representatives), by
    testing every triple of classes, multipliers m of positive degree."""
    poset = table.poset
    pos = table.position
    class_of = walked_class_of(ring)
    all_classes = [(poset.rank[x], poset.labels[x], x) for x in range(poset.n)]
    for deg_m, rep_m, xm in all_classes:
        if deg_m == 0:
            continue
        for deg1, rep1, x1 in all_classes:
            if deg1 + deg_m > ring.D:
                continue
            for deg2, rep2, x2 in all_classes:
                if x1 == x2 or deg2 + deg_m > ring.D:
                    continue
                if pos[x1] >= pos[x2]:
                    continue
                p1 = class_of[tuple(a + b for a, b in zip(rep1, rep_m))]
                p2 = class_of[tuple(a + b for a, b in zip(rep2, rep_m))]
                if p1 is None or p2 is None:
                    continue
                y1 = poset.id_of(ring.classes[p1].rep)
                y2 = poset.id_of(ring.classes[p2].rep)
                # strict reading: the products must be distinct and ordered
                if y1 == y2 or pos[y1] >= pos[y2]:
                    return False, (rep1, rep2, rep_m)
    return True, None


# ---------------------------------------------------------------------------
# Monomials by walking: a built ring keeps no member lists, so members are
# rebuilt by multiplying the unit class by every monomial up to D.


def walked_class_of(ring):
    """Every monomial m of degree <= D mapped to ring.mul(0, m): its class id,
    None when m is zero in the ring."""
    return {m: ring.mul(0, m) for ms in monomials_by_degree(ring.spec.d, ring.D) for m in ms}


def walked_members(ring):
    """Per class id, the frozenset of the monomials that walked_class_of maps to it."""
    members = [set() for _ in ring.classes]
    for m, x in walked_class_of(ring).items():
        if x is not None:
            members[x].add(m)
    return [frozenset(ms) for ms in members]


# ---------------------------------------------------------------------------
# Whole-ring elimination: the oracle for the per-component ring build in rings.


def elimination_build_oracle(spec):
    """{hilb, nf_monomials, classes, class_of} of spec by one elimination over
    all its variables, whatever its components: the generator multiples of
    each degree are row-reduced, monomials are grouped by normal form, and a
    class is (rep, members, residue) with the lex-least member as rep."""
    field = spec.field.field()
    p = field.p
    gens = [(g.degree(), field_terms(g, field)) for g in spec.generators]
    out = {"hilb": [], "nf_monomials": [], "classes": [], "class_of": {}}
    for i in range(spec.D + 1):
        mons = monomials_of_degree(spec.d, i)
        col = {m: j for j, m in enumerate(mons)}
        rows = [
            {col[tuple(a + b for a, b in zip(exp, m))]: c for exp, c in terms.items()}
            for e, terms in gens
            if e <= i
            for m in monomials_of_degree(spec.d, i - e)
        ]
        red, pivots = rref(rows, len(mons), field)
        piv_row = dict(zip(pivots, red))
        nonpiv = [j for j in range(len(mons)) if j not in piv_row]
        coord = {j: t for t, j in enumerate(nonpiv)}
        fibers = {}
        for j, m in enumerate(mons):
            row = piv_row.get(j)
            if row is None:
                nf = {coord[j]: field.of(1)}
            else:
                nf = {coord[c]: _norm(-v, p) for c, v in row.items() if c != j}
            if nf:
                fibers.setdefault(tuple(sorted(nf.items())), (nf, []))[1].append(m)
            else:
                out["class_of"][m] = None
        classes = sorted((min(ms), frozenset(ms), nf) for nf, ms in fibers.values())
        out["hilb"].append(len(nonpiv))
        out["nf_monomials"].append([mons[j] for j in nonpiv])
        out["classes"].append(classes)
        for idx, (_, members, _) in enumerate(classes):
            for m in members:
                out["class_of"][m] = (i, idx)
    return out


def ring_fields(ring):
    """The fields of a built ring in the shape elimination_build_oracle returns:
    classes grouped by degree, with their members and class ids (mapped back to
    (degree, index)) from walked_class_of, which maps a zero monomial to None."""
    members = walked_members(ring)
    spot = {x: (i, x - ids.start) for i, ids in enumerate(ring.levels) for x in ids}
    spot[None] = None
    return {
        "hilb": list(ring.hilb),
        "nf_monomials": ring.nf_monomials,
        "classes": [[(ring.classes[x].rep, members[x], ring.classes[x].residue) for x in ids]
                    for ids in ring.levels],
        "class_of": {m: spot[x] for m, x in walked_class_of(ring).items()},
    }


def _oracle_lookup(oracle):
    """(classes, next_class) of an elimination_build_oracle result: the classes
    as one list, ids running degree by degree and by rep, and the id of the
    class of rep(x) + e_v, None when that monomial is zero or above D."""
    ids, classes = {}, []
    for i, cs in enumerate(oracle["classes"]):
        ids.update(((i, idx), len(classes) + idx) for idx in range(len(cs)))
        classes.extend(cs)

    def next_class(x, v):
        rep = classes[x][0]
        return ids.get(oracle["class_of"].get(rep[:v] + (rep[v] + 1,) + rep[v + 1:]))

    return classes, next_class


def oracle_times(oracle):
    """The class-multiplication table read off an elimination_build_oracle
    result by the rep + e_v lookup."""
    classes, next_class = _oracle_lookup(oracle)
    d = len(classes[0][0])
    return [[next_class(x, v) for x in range(len(classes))] for v in range(d)]


def member_tree_ring_oracle(spec):
    """recognize_tree_ring by members: from elimination_build_oracle, the class
    poset's covers by the rep + e_v lookup; when they form a tree, every class
    must hold exactly one pure power and no mixed monomial, and the live
    variables must annihilate pairwise.  Returns [(variable, max exponent)] or None."""
    oracle = elimination_build_oracle(spec)
    d, D = spec.d, spec.D
    classes, next_class = _oracle_lookup(oracle)
    covers = {
        (x, y) for x in range(len(classes)) for y in map(next_class, [x] * d, range(d))
        if y is not None
    }
    if len(covers) != len(classes) - 1:
        return None
    legs = {}
    for rep, members, _ in classes[1:]:  # class 0 is the unit
        pures = {
            next(j for j, e in enumerate(m) if e) for m in members
            if sum(1 for e in m if e) == 1
        }
        mixed = any(sum(1 for e in m if e) > 1 for m in members)
        if len(pures) != 1 or mixed:
            return None
        var = pures.pop()
        legs[var] = max(legs.get(var, 0), sum(rep))
    live = sorted(legs)
    for i in live:
        for j in live:
            if i < j and D >= 2:
                exp = tuple((1 if k in (i, j) else 0) for k in range(d))
                if oracle["class_of"].get(exp) is not None:
                    return None
    return [(i, legs[i]) for i in live]


# ---------------------------------------------------------------------------
# Generator multiples over every monomial: the oracle for the slices of
# hilbert.IdealSpec, which are built degree by degree from the one below.


def _shifted_residue(ring, class_of, terms, shift):
    """Normal form of sum(c * x^(exp + shift)) over the terms {exp: c}, each
    monomial's class read off class_of (None when it is zero)."""
    vec = {}
    for exp, c in terms.items():
        x = class_of[tuple(a + b for a, b in zip(exp, shift))]
        if x is not None:
            add_multiple(vec, c, ring.classes[x].residue, ring.field)
    return vec


def closure_audit(ctx, slices):
    """Raise RingError unless, for every degree i < D and every variable x_v,
    x_v times each RREF row of slices[i] lies in the span of slices[i + 1];
    the products are read off the walked monomials, not ring.times."""
    ring = ctx.ring
    d = ring.spec.d
    class_of = walked_class_of(ring)
    units = [tuple(int(k == v) for k in range(d)) for v in range(d)]
    for i in range(ring.D):
        nxt_red, nxt_piv = slices[i + 1]
        for row in slices[i][0]:
            terms = {ring.nf_monomials[i][j]: c for j, c in row.items()}
            for v, unit in enumerate(units):
                vec = _shifted_residue(ring, class_of, terms, unit)
                if not in_row_space(nxt_red, nxt_piv, vec, ring.field):
                    raise M.RingError(f"ideal slices not closed under x_{v + 1} at degree {i}")


def generator_multiple_slices(ctx, gens):
    """(slices, dims) of the ideal of ctx.ring generated by the Polynomials gens:
    the degree-i slice is the RREF of the normal forms of g * m for every
    generator g of degree e <= i and every monomial m of degree i - e, and
    the slices pass `closure_audit`."""
    ring = ctx.ring
    F = ring.field
    d = ring.spec.d
    gens = [(g.degree(), field_terms(g, F)) for g in gens if not g.is_zero()]
    class_of = walked_class_of(ring)
    slices = []
    for i in range(ring.D + 1):
        rows = [
            _shifted_residue(ring, class_of, terms, m)
            for e, terms in gens
            if e <= i
            for m in monomials_of_degree(d, i - e)
        ]
        slices.append(rref(rows, ring.hilb[i], F))
    closure_audit(ctx, slices)
    return slices, [len(red) for red, _ in slices]


# ---------------------------------------------------------------------------
# Basis coordinates: the oracle for the one-scan initial monomials of
# hilbert.initial_monomial_data.


def transform_initial_monomials(ctx, ideal, table):
    """Per degree, the initial monomial classes ascending by the order: the
    leveled basis is row-reduced with its transform, each slice row is written
    over the basis classes, and the RREF pivots of those rows, with columns
    ascending by the order, name the initial classes."""
    ring = ctx.ring
    F = ring.field
    ims = []
    for i, cols in enumerate(M.leveled_basis(ctx, table).levels):
        b_red, b_piv, b_tr = rref_with_transform(
            [ring.classes[x].residue for x in cols], ring.hilb[i], F
        )
        rows = [express_in_basis(b_red, b_piv, b_tr, vec, F) for vec in ideal.slice(i)[0]]
        assert None not in rows, f"degree {i}: ideal slice escapes the leveled basis span"
        ims.append(tuple(cols[c] for c in rref(rows, len(cols), F)[1]))
    return tuple(ims)


# ---------------------------------------------------------------------------
# One RREF per class: the oracle for the echelon scan of hilbert.leveled_basis.


def quadratic_leveled_basis(ctx, table):
    """Per degree, the classes ascending by the order whose residue raises the
    rank of the RREF of the residues kept before it, by one RREF from scratch
    per class, whether or not the ring is level linearly independent.  Raises
    RingError when the kept classes do not span the degree."""
    ring = ctx.ring
    levels = []
    for i in range(ring.D + 1):
        kept, rows = [], []
        for x in table.level_in_order(i):
            red, _ = rref(rows + [ring.classes[x].residue], ring.hilb[i], ring.field)
            if len(red) > len(rows):
                rows = red
                kept.append(x)
        if len(kept) != ring.hilb[i]:
            raise M.RingError(f"degree {i}: classes do not span the slice")
        levels.append(tuple(kept))
    return tuple(levels)


# ---------------------------------------------------------------------------
# List-building antichain loop: the oracle for the streamed bitmask loop in
# hilbert.is_macaulay_ring (mode="monomial-ideals").


def antichain_loop_oracle(ctx, table, max_gen_degree=None):
    """(witnesses, ideals checked) of the monomial-ideal scan, by listing every
    antichain of the low-degree classes, walking each one's upset in the class
    poset, and running the segment test on each upset's profile.  Witnesses are
    (generator labels, profile, failing degree, kind) tuples."""
    from macaulay.hilbert import MAX_ANTICHAIN_GROUND, dual_segment, segment_is_ideal
    from macaulay.poset import reachability

    poset = ctx.poset
    D = ctx.ring.D
    g = max_gen_degree if max_gen_degree is not None else min(3, max(D - 1, 0))
    ground = [x for x in range(poset.n) if poset.rank[x] <= g]
    if len(ground) > MAX_ANTICHAIN_GROUND:
        raise M.ResourceLimitError("antichain cap")
    above = reachability(poset)
    comparable = {
        x: {y for y in ground if y in above[x] or x in above[y]} - {x} for x in ground
    }
    antichains = []

    def extend(i, chosen):
        antichains.append(tuple(chosen))
        for j in range(i, len(ground)):
            x = ground[j]
            if all(x not in comparable[c] for c in chosen):
                chosen.append(x)
                extend(j + 1, chosen)
                chosen.pop()

    extend(0, [])
    witnesses = []
    for anti in antichains:
        seen, stack = set(anti), list(anti)
        while stack:
            for y in poset.up[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        by_degree = [sorted(x for x in seen if poset.rank[x] == i) for i in range(D + 1)]
        profile = tuple(ctx.span_dim(i, by_degree[i]) for i in range(D + 1))
        segs = [tuple(dual_segment(table, i, profile[i])) for i in range(D + 1)]
        ok, fail_deg = segment_is_ideal(ctx, segs)
        bad = None if ok else (fail_deg, "segment-not-ideal")
        for i in range(D + 1):
            if bad is None and ctx.span_dim(i, segs[i]) != profile[i]:
                bad = (i, "hilbert-mismatch")
        if bad is not None:
            witnesses.append((tuple(poset.labels[x] for x in anti), profile) + bad)
    return witnesses, len(antichains)


def check_monomial_ideal_profile(ctx, table, upset_ids):
    """Segment test for one monomial ideal given as an upset of the class poset.

    Returns (profile, witness or None): the profile is the degreewise
    dimension of the ideal, and the witness is the (first failing degree,
    kind) where the segment space of that profile fails to be an ideal of
    equal size.  It runs the library's own profile and segment test on one
    ideal, outside the antichain scan.
    """
    from macaulay.hilbert import _mask_profile, _segment_failure

    profile = _mask_profile(ctx, sum(1 << x for x in set(upset_ids)), {})
    return profile, _segment_failure(ctx, table, profile)


# ---------------------------------------------------------------------------
# Comparator ranking: the oracle for the compiled sort keys in
# orders.rank_vectors.  Chasers compare through a recursive comparator behind
# cmp_to_key, block orders rank their starts and each block separately.


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


def _choices_from_recipe(recipe):
    raw = recipe.get("choices")
    if not raw:
        return None
    # serialized as [[coords...], [perm...]] pairs with 1-based coordinates
    return {tuple(c - 1 for c in coords): tuple(perm) for coords, perm in raw}


def _rank_block(vectors, lengths, recipe):
    cuts0 = [tuple(c - 1 for c in cc) for cc in recipe["cuts"]]
    starts_recipe = recipe["starts"]
    block_recipe = recipe["blocks"]
    rule = block_recipe if callable(block_recipe) else (lambda b: block_recipe)

    def block_index(v):
        return tuple(bisect_right(cc, x) - 1 for cc, x in zip(cuts0, v))

    groups = {}
    for v in vectors:
        groups.setdefault(block_index(v), []).append(v)

    n_blocks = [len(cc) for cc in cuts0]
    start_rank = comparator_rank_vectors(list(groups.keys()), n_blocks, starts_recipe)

    ordered = []
    for b in sorted(groups, key=lambda b: start_rank[b]):
        members = groups[b]
        base = [cuts0[i][b[i]] for i in range(len(lengths))]
        size = [
            (cuts0[i][b[i] + 1] if b[i] + 1 < len(cuts0[i]) else lengths[i]) - base[i]
            for i in range(len(lengths))
        ]
        local = {v: tuple(x - bx for x, bx in zip(v, base)) for v in members}
        local_rank = comparator_rank_vectors(list(set(local.values())), size, rule(b))
        members.sort(key=lambda v: local_rank[local[v]])
        ordered.extend(members)
    return ordered


def comparator_rank_vectors(vectors, lengths, recipe):
    """Rank position vectors by a valid recipe; returns vector -> position dict."""
    kind = recipe["kind"]
    d = len(lengths)
    if kind == "lex":
        ordered = sorted(vectors)
    elif kind == "colex":
        ordered = sorted(vectors, key=lambda v: tuple(reversed(v)))
    elif kind == "dom":
        ordered = sorted(vectors, key=_dom_key(tuple(recipe["perm"])))
    elif kind == "hc":
        hc = _HCComparator(d, _choices_from_recipe(recipe))
        ordered = sorted(vectors, key=cmp_to_key(hc.cmp))
    elif kind == "bc":
        ordered = sorted(vectors, key=cmp_to_key(_bc_cmp(lengths, _choices_from_recipe(recipe))))
    elif kind == "block":
        ordered = _rank_block(vectors, lengths, recipe)
    else:
        raise ValueError(f"unknown vector order recipe {kind!r}")
    return {v: i for i, v in enumerate(ordered)}


# ---------------------------------------------------------------------------
# The definition itself: the oracle for verify.is_macaulay, with the dual
# lemma and the combination of verdicts that the tests check on its results.


def macaulay_by_definition(poset, table, direction="lower"):
    """Literal restatement of the defining containment, as an independent oracle.

    For every level and every subset A, the shadow of the initial segment of
    size |A| must be contained in the first |shadow(A)| elements of the next
    level.  Enumerates subsets directly with fresh set arithmetic; quadratic
    in ways the fast path is not, so keep it to small posets.  Returns
    (flag, first failing (level, A) or None).
    """
    from macaulay.verify import _direction, _level_frames

    _, shadow_of, step = _direction(poset, direction)
    for lvl, source, target in _level_frames(poset, table, step):
        k = len(source)
        for mask in range(1, 1 << k):
            A = [source[j] for j in range(k) if mask >> j & 1]
            seg = source[: len(A)]
            allowed = set(target[: len(shadow_of(A))])
            if not set(shadow_of(seg)) <= allowed:
                return False, (lvl, tuple(A))
    return True, None


def check_dual_lemma(poset, table, **kw):
    """Whether the verdict on (P, o) matches the verdict on (dual P, dual o)."""
    here = M.is_macaulay(poset, table, direction="lower", **kw)
    there = M.is_macaulay(M.dual(poset), M.dual_order(table), direction="lower", **kw)
    return here.holds == there.holds


def merge_verdicts(a, b):
    """Associative combination of verdicts from independent level scans."""
    return M.MacaulayVerdict(
        a.holds and b.holds,
        a.direction,
        a.failures + b.failures,
        a.subsets_examined + b.subsets_examined,
        a.levels_checked + b.levels_checked,
        a.elapsed + b.elapsed,
    )


def is_isomorphic_by_labels(p1, p2, label_map):
    """Check that label_map (label of p1 -> label of p2) is a poset isomorphism."""
    if p1.n != p2.n:
        return False
    try:
        ids = {x: p2.id_of(label_map(p1.labels[x])) for x in range(p1.n)}
    except KeyError:
        return False
    if len(set(ids.values())) != p1.n:
        return False
    c1 = {(ids[a], ids[b]) for a, b in p1.covers}
    return c1 == set(p2.covers)


# ---------------------------------------------------------------------------
# Permutation loop: the oracle for the prefix DFS in
# verify.search_macaulay_order.  Every permutation of a level is tried in
# itertools order and checked whole, with the level minima recomputed each time.


def _level_pair_ok(sh, nt, level):
    """All subsets of a level with shadow lists `sh` satisfy nestedness and
    continuity against `nt` targets; the subset cap is DEFAULT_SUBSET_CAP."""
    from macaulay import verify

    sizes = []
    for size, is_prefix in verify._segments(sh, nt):
        if not is_prefix:
            return False
        sizes.append(size)
    best, _ = verify._level_minima(sh, level, verify.DEFAULT_SUBSET_CAP)
    return all(b >= s for b, s in zip(best[1:], sizes))


def permutation_search_oracle(poset, budget=200_000):
    """The order search as one permutation per budget unit: the first per-level
    order, in canonical order, that passes every level against the one below;
    None when none exists; SearchBudgetExceeded past `budget` permutations."""
    from macaulay.verify import _shadow_lists

    levels = [list(poset.level(i)) for i in range(poset.max_rank + 1)]
    chosen = [None] * len(levels)
    nodes = 0

    def extend(i):
        nonlocal nodes
        if i == len(levels):
            return True
        if i > 0:
            below = chosen[i - 1]
            rows = dict(zip(levels[i], _shadow_lists(poset.down, levels[i], below)))
        for perm in itertools.permutations(levels[i]):
            nodes += 1
            if nodes > budget:
                raise M.SearchBudgetExceeded(f"no verdict within {budget} permutations")
            chosen[i] = list(perm)
            if i > 0 and not _level_pair_ok([rows[x] for x in perm], len(below), i):
                continue
            if extend(i + 1):
                return True
        chosen[i] = None
        return False

    if not extend(0):
        return None
    return M.explicit_order(poset, [x for lvl in chosen for x in lvl])


# ---------------------------------------------------------------------------
# Tree-ring orders through the poset side: the oracles for the ring-side
# orders of families.be_ring_order and families.mermin_murai_order, which
# rank the ring labels directly.


def spider_tuple_of_class(label, k, length, n):
    """The spider-power element that a tensor class exponent vector mirrors."""
    d = k + 1
    out = []
    for f in range(n):
        sub = label[f * d: (f + 1) * d]
        nz = [(j, e) for j, e in enumerate(sub) if e]
        if not nz:
            out.append((k + 1) * length)  # dual rank 0 = the head
        else:
            (j, p), = nz
            out.append(j + (length - p) * (k + 1))
    return tuple(out) if n > 1 else out[0]


def pulled_back_be_ring_order(poset, k, length, n):
    """The dual spider-power order, built on the spider power and read through
    `spider_tuple_of_class`."""
    from macaulay import families as F

    q = F.bezrukov_elsasser_poset(k, length, n)
    od = M.dual_order(F.bezrukov_elsasser_order(q, k, length, n))
    pos = [od.position[q.id_of(spider_tuple_of_class(lab, k, length, n))] for lab in poset.labels]
    return M.OrderTable(
        poset, pos, {"kind": "family-default", "family": "be-ring", "params": [k, length, n]}
    )


def colored_ring_label(label, ns):
    """The square-free exponent vector of an element of the product of dual stars."""
    label = label if len(ns) > 1 else (label,)
    out = []
    for a, n in zip(label, ns):
        sub = [0] * n
        if a != n:  # n is the bottom marker; legs are 0..n-1
            sub[a] = 1
        out.extend(sub)
    return tuple(out)


def pulled_back_mermin_murai_ring_order(poset, ns):
    """The Mermin–Murai order of the product of dual stars, read through
    `colored_ring_label`."""
    from macaulay import families as F

    q = F.colored_poset(ns)
    table = F.mermin_murai_order(q, ns)
    ids = {colored_ring_label(q.labels[x], ns): x for x in range(q.n)}
    pos = [table.position[ids[lab]] for lab in poset.labels]
    return M.OrderTable(poset, pos, {**table.recipe, "side": "ring"})
