"""Shared brute-force oracles, independent of the library's fast paths."""
import itertools
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cmp_to_key

import pytest

import macaulay as M
from macaulay.linalg import add_multiple, reduce_vector, rref, rref_with_transform
from macaulay.orders import _check_perm, _dom_key, _icscd, _scd
from macaulay.poset import label_order
from macaulay.rings import field_terms, monomials_by_degree


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


def unfactored(poset):
    """An equal poset with no recorded factors, so `verify` scans each level
    with the subset kernel instead of reading chain-product minima."""
    return M.RankedPoset(poset.n, poset.covers, poset.rank, poset.labels)


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
    no cover below it.  Levels list each rank's ids in ascending order."""
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
    levels = tuple(tuple(x for x in range(n) if rank[x] == i) for i in range(max(rank) + 1))
    return covers, up, down, levels


# ---------------------------------------------------------------------------
# Recursive walks and the plain convolution: the oracles for the one product
# walk and the bounded count in poset.


def multiset_lattice_oracle(lengths, truncation=None):
    """The grid of exponent vectors by one recursive walk over the coordinates,
    sorted by (rank, vector), with unit increments looked up as covers."""
    cap = sum(l - 1 for l in lengths) if truncation is None else truncation
    vecs = []

    def walk(i, left, prefix):
        if i == len(lengths):
            vecs.append(tuple(prefix))
            return
        top = left if lengths[i] is None else min(left, lengths[i] - 1)
        for v in range(top + 1):
            walk(i + 1, left - v, prefix + [v])

    walk(0, cap, [])
    vecs.sort(key=lambda v: (sum(v), v))
    index = {v: i for i, v in enumerate(vecs)}
    covers = [
        (i, index[w])
        for v, i in index.items()
        for c in range(len(v))
        if (w := v[:c] + (v[c] + 1,) + v[c + 1:]) in index
    ]
    return M.RankedPoset(len(vecs), covers, [sum(v) for v in vecs], vecs)


def _flatten_label(parts):
    out = []
    for lab in parts:
        out.extend(lab if isinstance(lab, tuple) else (lab,))
    return tuple(out)


def cartesian_product_oracle(posets, truncation=None):
    """The product by one recursive walk over factor id tuples, stably sorted by
    (rank, `_label_key` of the flattened label), with covers looked up by tuple."""
    from macaulay.poset import _label_key

    if len(posets) == 1:
        return posets[0] if truncation is None else M.truncate(posets[0], truncation)
    elems = []

    def walk(i, left, prefix):
        if i == len(posets):
            elems.append(prefix)
            return
        p = posets[i]
        for x in range(p.n):
            if p.rank[x] <= left:
                walk(i + 1, left - p.rank[x], prefix + (x,))

    walk(0, math.inf if truncation is None else truncation, ())

    def rank(t):
        return sum(p.rank[x] for p, x in zip(posets, t))

    def label(t):
        return _flatten_label([p.labels[x] for p, x in zip(posets, t)])

    elems.sort(key=lambda t: (rank(t), _label_key(label(t))))
    index = {t: i for i, t in enumerate(elems)}
    covers = [
        (i, index[u])
        for t, i in index.items()
        for c, p in enumerate(posets)
        for y in p.up[t[c]]
        if (u := t[:c] + (y,) + t[c + 1:]) in index
    ]
    return M.RankedPoset(len(elems), covers, list(map(rank, elems)), list(map(label, elems)))


def series_product(series, D):
    """Coefficients 0..D of the product of polynomials given by their coefficient
    lists, or up to the product's degree where that is lower, by plain convolution."""
    D = min(D, sum(len(s) - 1 for s in series))
    out = [1] + [0] * D
    for s in series:
        out = [sum(out[i - j] * c for j, c in enumerate(s[: i + 1])) for i in range(D + 1)]
    return out


# ---------------------------------------------------------------------------
# Upsets as sets, two ways: the oracles for poset.upset_mask.


def reachability(poset):
    """Per element, the set of ids weakly above it, top ranks first."""
    above = [set([x]) for x in range(poset.n)]
    for x in sorted(range(poset.n), key=lambda i: -poset.rank[i]):
        for y in poset.up[x]:
            above[x] |= above[y]
    return above


def upset_closure(poset, seed_ids):
    """All elements weakly above the seeds, by a set-based upward walk."""
    seen = set(seed_ids)
    stack = list(seed_ids)
    while stack:
        x = stack.pop()
        for y in poset.up[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return frozenset(seen)


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
# Shadow position lists: the form the kernel oracles read, and the oracle for
# verify._shadow_masks and for the prefix-OR reading of segments.


def shadow_lists(neigh, source, target):
    """Per source element, the positions in `target` of its neighbours."""
    tpos = {x: j for j, x in enumerate(target)}
    return [tuple(tpos[y] for y in neigh[x]) for x in source]


def row_masks(sh):
    """Each shadow list as an int bitmask over the target positions."""
    return [sum(1 << idx for idx in set(row)) for row in sh]


def segment_pass_oracle(sh, nt):
    """For q = 1..k, the shadow size of the first q sources and whether that
    shadow is the first positions 0..size-1 of the `nt` targets, by set union."""
    shadow = set()
    for row in sh:
        shadow.update(row)
        assert shadow <= set(range(nt))
        yield len(shadow), shadow == set(range(len(shadow)))


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


def quadratic_lean(table, n):
    """Per subset size 0..n, the distinct inclusion-minimal ORs of a subset
    table, sorted by popcount, each candidate tested against every OR kept
    before it: the oracle for the packed `verify._lean`."""
    buckets = [set() for _ in range(n + 1)]
    for mask, m in enumerate(table):
        buckets[mask.bit_count()].add(m)
    lean = []
    for bucket in buckets:
        kept = []  # ORs of equal popcount never contain one another
        for _, group in itertools.groupby(sorted(bucket, key=int.bit_count), int.bit_count):
            kept += [m for m in group if all(map((~m).__and__, kept))]
        lean.append(kept)
    return lean


def per_pair_minima(sh):
    """Minimum shadow size over all subsets of each size, by the split and
    combine of `verify._minima` with one bound test per (lean high OR,
    low size) pair and one popcount per surviving pair: the oracle for the
    packed combine."""
    from macaulay import verify

    rows = row_masks(sh)
    k, lo = len(rows), len(rows) // 2
    low_rows = rows[:lo]
    lean_low = quadratic_lean(verify._subset_ors(low_rows), lo)
    lean_high = quadratic_lean(verify._subset_ors(rows[lo:]), k - lo)
    pops = [[m.bit_count() for m in ors] for ors in lean_low]
    best = [m.bit_count() for m in itertools.accumulate(rows, int.__or__, initial=0)]
    for s, ors in enumerate(lean_high):
        for a in ors:
            pa = a.bit_count()
            d = [0, *sorted(map(int.bit_count, map((~a).__and__, low_rows)))]
            for r, ms in enumerate(lean_low):
                b = best[s + r]
                if pa + d[r] < b:
                    ms = ms[: bisect_left(pops[r], b)]
                    best[s + r] = min((b, *map(int.bit_count, map(a.__or__, ms))))
    return best


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


def glued_by_z_ring():
    """K[x,y,z]/(xz - yz) at D = 3: z-multiplication glues x and y, so products
    tie and no order is a monomial order."""
    spec = M.QuotientRingSpec(3, M.FieldSpec(), [M.Polynomial({(1, 0, 1): 1, (0, 1, 1): -1})], 3)
    return M.build_ring(spec)


def recipe_witness(name, poset):
    """A hand-written monomial-order witness for a ring builtin, read off its
    name: tensor-degree-lex over blocks of 2 variables (torus) or 3 (diamond),
    degree-rep-lex for every other ring.  Independent of the ring's components,
    from which `is_macaulay_ring` works its witness out."""
    kind = name.partition(":")[0]
    if kind in ("torus", "diamond"):
        size = 2 if kind == "torus" else 3
        sizes = [size] * (len(poset.labels[0]) // size)
        return M.order_from_recipe(poset, {"kind": "tensor-degree-lex", "sizes": sizes})
    return M.order_from_recipe(poset, {"kind": "degree-rep-lex"})


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
    field = spec.field
    p = field.p
    gens = [(g.degree(), field_terms(g, field)) for g in spec.generators]
    out = {"hilb": [], "nf_monomials": [], "classes": [], "class_of": {}}
    for i in range(spec.D + 1):
        mons = monomials_by_degree(spec.d, i)[i]
        col = {m: j for j, m in enumerate(mons)}
        rows = [
            {col[tuple(a + b for a, b in zip(exp, m))]: c for exp, c in terms.items()}
            for e, terms in gens
            if e <= i
            for m in monomials_by_degree(spec.d, i - e)[i - e]
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
            for m in monomials_by_degree(d, i - e)[i - e]
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
    for i, cols in enumerate(M.leveled_basis(ctx, table)):
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
# List-building antichain loop: the oracle for the batched bitmask scan in
# hilbert.is_macaulay_ring (mode="monomial-ideals"), and the set-based segment
# test on arbitrary per-degree segments: the oracle for its prefix-mask test.


def segment_is_ideal(ctx, segments):
    """Whether per-degree class sets are closed under upper shadows.

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


def segment_failure_oracle(ctx, table, profile):
    """(first failing degree, kind) of the segment space of a profile, or None,
    from the segments as sets and one span dimension per degree."""
    from macaulay.hilbert import dual_segment

    segs = [tuple(dual_segment(table, i, q)) for i, q in enumerate(profile)]
    ok, fail_deg = segment_is_ideal(ctx, segs)
    if not ok:
        return fail_deg, "segment-not-ideal"
    for i, seg in enumerate(segs):
        if ctx.span_dim(i, seg) != profile[i]:
            return i, "hilbert-mismatch"
    return None


def list_antichains(poset, ground):
    """Every antichain of the ground elements as a tuple, in lexicographic order
    of element ids (the empty one first), from the transitive closure of the
    covers and one recursive extension per element."""
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
    return antichains


def antichain_loop_oracle(ctx, table, max_gen_degree=None):
    """(witnesses, ideals checked) of the monomial-ideal scan, by listing every
    antichain of the low-degree classes, walking each one's upset in the class
    poset, and running the segment test on each upset's profile.  Witnesses are
    (generator labels, profile, failing degree, kind) tuples."""
    from macaulay.hilbert import MAX_ANTICHAIN_GROUND

    poset = ctx.poset
    D = ctx.ring.D
    g = max_gen_degree if max_gen_degree is not None else min(3, max(D - 1, 0))
    ground = [x for x in range(poset.n) if poset.rank[x] <= g]
    if len(ground) > MAX_ANTICHAIN_GROUND:
        raise M.ResourceLimitError("antichain cap")
    antichains = list_antichains(poset, ground)
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
        bad = segment_failure_oracle(ctx, table, profile)
        if bad is not None:
            witnesses.append((tuple(poset.labels[x] for x in anti), profile) + bad)
    return witnesses, len(antichains)


def stream_safe_degree(ctx, table, g):
    """The least s such that no antichain generated in one degree of s..g
    fails the segment test, by one pass over each degree's subsets from g
    down while they pass, each subset's upset walked as a set; g + 1 without
    level linear independence."""
    from macaulay.hilbert import _mask_profile, _segment_test

    failure = _segment_test(ctx, table)
    s = g + 1
    while ctx.lli and s and all(
        failure(_mask_profile(ctx, sum(1 << x for x in upset_closure(ctx.poset, U)), {})) is None
        for r in range(len(ctx.ring.levels[s - 1]) + 1)
        for U in itertools.combinations(ctx.ring.levels[s - 1], r)
    ):
        s -= 1
    return s


def check_monomial_ideal_profile(ctx, table, upset_ids):
    """Segment test for one monomial ideal given as an upset of the class poset.

    Returns (profile, witness or None): the profile is the degreewise
    dimension of the ideal, and the witness is the (first failing degree,
    kind) where the segment space of that profile fails to be an ideal of
    equal size.  It runs the library's own profile and segment test on one
    ideal, outside the antichain scan.
    """
    from macaulay.hilbert import _mask_profile, _segment_test

    profile = _mask_profile(ctx, sum(1 << x for x in set(upset_ids)), {})
    return profile, _segment_test(ctx, table)(profile)


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

    def rule(b):
        if block_recipe != "dom-by-block":
            return block_recipe
        # coordinates in lower blocks lead; ties keep coordinate order
        by_block = sorted(range(len(b)), key=lambda j: (b[j], j))
        return {"kind": "dom", "perm": [j + 1 for j in by_block]}

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
    step = -1 if direction == "lower" else 1
    shadow_of = poset.lower_shadow if direction == "lower" else poset.upper_shadow
    for lvl in range(max(0, -step), poset.max_rank + 1 - max(0, step)):
        source = table.level_in_order(lvl, reverse=step > 0)
        target = table.level_in_order(lvl + step, reverse=step > 0)
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


def _level_pair_ok(sh, nt):
    """All subsets of a level with shadow lists `sh` satisfy nestedness and
    continuity against `nt` targets."""
    from macaulay import verify

    sizes = []
    for size, is_prefix in segment_pass_oracle(sh, nt):
        if not is_prefix:
            return False
        sizes.append(size)
    best = verify._minima(row_masks(sh))  # the caller applies the cap
    return all(b >= s for b, s in zip(best[1:], sizes))


def permutation_search_oracle(poset, guard=200_000):
    """The order search as a permutation loop: the first per-level order,
    permuting each level in label order, that passes every level against the
    one below; None when none exists.  Reaching a level i >= 1 whose pair with
    level i - 1 has its smaller side (level i on a tie) over DEFAULT_SUBSET_CAP
    subsets raises ResourceLimitError at once, naming that side.  Past `guard`
    permutations it gives up with SearchBudgetExceeded, a runaway guard that
    says nothing about the search's own budget."""
    from macaulay import verify

    levels = [list(label_order(poset, lvl)) for lvl in poset.levels]
    chosen = [None] * len(levels)
    tried = 0

    def extend(i):
        nonlocal tried
        if i == len(levels):
            return True
        k = len(levels[i])
        if i > 0:
            scanned, n = (i, k) if k <= len(levels[i - 1]) else (i - 1, len(levels[i - 1]))
            if 2 ** n > verify.DEFAULT_SUBSET_CAP:
                raise M.ResourceLimitError(
                    f"level {scanned} has {n} elements; 2^{n} subsets exceed the cap of "
                    f"{verify.DEFAULT_SUBSET_CAP}"
                )
            below = chosen[i - 1]
            rows = dict(zip(levels[i], shadow_lists(poset.down, levels[i], below)))
        for perm in itertools.permutations(levels[i]):
            tried += 1
            if tried > guard:
                raise M.SearchBudgetExceeded(f"oracle guard of {guard} permutations tripped")
            chosen[i] = list(perm)
            if i > 0 and not _level_pair_ok([rows[x] for x in perm], len(below)):
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


def acceptance_constructions():
    """The ten named constructions at desk sizes, each with a total order.

    Families with a published Macaulay order carry it; the Leck family has
    none and rides with the representative-lex order (its duality behaviour
    is what gets exercised, not Macaulayness).  Returns (name, poset, order,
    expect_macaulay) tuples.
    """
    from macaulay import families as F

    out = []
    for name in ("star:3", "spider:2,2", "be:1,2,2", "kk:3", "cl:3,4", "colored:2,2",
                 "be-ring:3,2,2", "torus:3,2", "diamond:2"):
        b = F.builtin(name)
        out.append((name, b.poset, b.default_order(), True))
    leck = F.builtin("leck:2,1")
    out.append(("leck:2,1", leck.poset, M.rep_lex_order(leck.poset), None))
    return out
