"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All arithmetic is exact, so every equality below is sharp (zero tolerance);
the only tolerances are the per-criterion wall-clock budgets, asserted as
stated.  Run with -s to see the per-criterion lines.
"""
import random
import time

import macaulay as M
from macaulay import families as F
from macaulay.cli import main
from macaulay.hilbert import (
    RingContext,
    ideal_in_ring,
    initial_monomial_data,
    initial_segment_space,
    is_macaulay_ring,
    upset_closure,
)
from macaulay.orders import degree_major_order
from macaulay.rings import degree_rep_lex_order

from conftest import check_monomial_ideal_profile

PRIME = M.FieldSpec("prime", 32003)
QQ_FIELD = M.RATIONALS


class criterion:
    """Context manager asserting the wall-clock budget and printing one line."""

    def __init__(self, number, label, budget_seconds):
        self.number = number
        self.label = label
        self.budget = budget_seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] criterion {self.number}: {self.label} ({elapsed:.2f}s)")
        if exc_type is None and self.budget is not None:
            assert elapsed < self.budget, (
                f"criterion {self.number} took {elapsed:.2f}s, budget {self.budget}s"
            )
        return False


def test_criterion_01_kruskal_katona(capsys):
    with criterion(1, "square-free grids are Macaulay under lex", 1.0):
        assert main(["check-poset", "--poset", "multiset:2,2,2,2", "--order", "lex"]) == 0
        assert main(["check-poset", "--poset", "multiset:2,2,2", "--order", "lex"]) == 0
        capsys.readouterr()


def test_criterion_02_sorted_caps():
    with criterion(2, "sorted caps pass, unsorted caps fail with the singleton witness", 5.0):
        for shape in [(3, 4), (2, 3, 4), (2, 2, 5)]:
            p = M.multiset_lattice(shape)
            assert M.is_macaulay(p, M.lex_order(p)).holds, shape
        p43 = M.multiset_lattice([4, 3])
        v = M.is_macaulay(p43, M.lex_order(p43))
        assert not v.holds
        f = v.failures[0]
        assert f.level == 3 and f.reason == "nestedness" and f.size == 1
        size, witness = M.min_shadow(p43, 3, 1)
        assert size == 1
        assert {p43.labels[x] for x in witness} == {(3, 0)}
        # independent oracle: brute-force enumeration of all level-3 singletons
        brute = min(
            (len(p43.lower_shadow([x])), p43.labels[x]) for x in p43.level(3)
        )
        assert brute == (1, (3, 0))
        assert len(p43.lower_shadow(f.segment)) == 2


def test_criterion_03_dual_lemma_all_constructions():
    with criterion(3, "dual-lemma agreement on the ten named constructions", 10.0):
        cons = F.acceptance_constructions()
        assert len(cons) == 10
        for name, poset, order, expect in cons:
            here = M.is_macaulay(poset, order).holds
            there = M.is_macaulay(M.dual(poset), M.dual_order(order)).holds
            assert here == there, name
            if expect is not None:
                assert here == expect, name


def test_criterion_04_colored_products():
    with criterion(4, "colored square-free products are Macaulay", 10.0):
        for ns in [(2, 2), (3, 2)]:
            p = F.colored_poset(ns)
            o = F.mermin_murai_order(p, ns)
            assert M.is_macaulay(p, o).holds, ns


def test_criterion_05_spider_powers_ring_side():
    with criterion(5, "spider-power duals are Macaulay under the block order", 60.0):
        for (k, l, n) in [(1, 2, 2), (2, 2, 2)]:
            p = F.bezrukov_elsasser_poset(k, l, n)
            o = F.bezrukov_elsasser_order(p, k, l, n)
            v = M.is_macaulay(M.dual(p), M.dual_order(o))
            assert v.holds, (k, l, n)


def test_criterion_06_torus():
    with criterion(6, "glued-leg quotients: cycles and Macaulay block order", 60.0):
        for ks in [[3], [3, 3]]:
            b = M.build_ring(F.torus_ring(ks, PRIME))
            p = M.poset_of_monomials(b)
            assert M.is_macaulay(p, F.torus_order(p, ks)).holds, ks
        for prm in (2, 3, 4):
            ring = M.build_ring(F.torus_basic_ring(prm, PRIME))
            poset = M.poset_of_monomials(ring)
            assert poset.n == 2 * prm and len(poset.covers) == 2 * prm
            deg = [0] * poset.n
            for a, b2 in poset.covers:
                deg[a] += 1
                deg[b2] += 1
            assert all(d == 2 for d in deg), prm  # single 2p-cycle


def test_criterion_07_diamond():
    with criterion(7, "diamond powers are Macaulay under the block order", 60.0):
        for n in (1, 2):
            ring = M.build_ring(F.diamond_ring(n, PRIME))
            p = M.poset_of_monomials(ring)
            assert M.is_macaulay(p, F.diamond_order(p, n)).holds, n


def _correspondence_payload(field):
    """Integer-valued outcomes of the mode cross-check, for the field audit."""
    payload = []
    cases = [
        ("cl34", F.cl_ring([3, 4], field), lambda p: M.lex_order(p), None),
        (
            "colored22",
            F.colored_sf_ring([2, 2], field, D=4),
            lambda p: F.mermin_murai_order(p, [2, 2], side="ring"),
            lambda p: F.tensor_monomial_order(p, [2, 2]),
        ),
    ]
    for name, spec, order_fn, cand_fn in cases:
        ctx = RingContext(M.build_ring(spec))
        table = order_fn(ctx.poset)
        v = is_macaulay_ring(
            ctx.ring,
            table,
            mode="both",
            monomial_order_candidate=cand_fn(ctx.poset) if cand_fn else None,
        )
        payload.append(
            (name, v.holds, v.agreement, v.ideals_checked, len(v.ideal_witnesses))
        )
    return payload


def test_criterion_08_correspondence_cross_check():
    with criterion(8, "poset mode and monomial-ideal mode agree, witnesses included", 60.0):
        for name, holds, agreement, checked, witnesses in _correspondence_payload(QQ_FIELD):
            assert holds is True and agreement is True and witnesses == 0, name
            assert checked > 0
        # witness mapping exercised on a failing ring: the poset witness's
        # upset is a monomial ideal the ideal mode also flags
        ctx = RingContext(M.build_ring(F.cl_ring([4, 3], QQ_FIELD)))
        lex = M.lex_order(ctx.poset)
        v = is_macaulay_ring(ctx.ring, lex, mode="both")
        assert v.holds is False and v.agreement is True
        pf = v.poset_verdict.failures[0]
        profile, bad = check_monomial_ideal_profile(
            ctx, lex, upset_closure(ctx.poset, pf.witness)
        )
        assert bad is not None
        assert profile in {w.profile for w in v.ideal_witnesses}


def _mixed_order_payload(field):
    spec = M.QuotientRingSpec(2, field, [], 2)
    ctx = RingContext(M.build_ring(spec))
    o = degree_major_order(ctx.poset, per_rank={1: {"kind": "lex"}}, default={"kind": "colex"})
    ok, _ = M.is_monomial_order(ctx.ring, o)
    ideal = ideal_in_ring(ctx, [M.Polynomial({(1, 0): 1, (0, 1): 1})])
    data = initial_monomial_data(ctx, ideal, o)
    return (ok, ideal.dims[2], data.imv_dims[2], data.imi_dims[2])


def test_criterion_09_mixed_order_initial_ideal_gap():
    with criterion(9, "degree-mixed order: dim gap 2 < 3 and not a monomial order", None):
        ok, hilb2, imv2, imi2 = _mixed_order_payload(QQ_FIELD)
        assert ok is False
        assert hilb2 == 2 and imv2 == 2 and imi2 == 3
        assert hilb2 < imi2


def _non_lli_payload(field):
    spec = M.QuotientRingSpec(
        3, field, [M.Polynomial({(2, 0, 0): 1, (1, 1, 0): 1, (1, 0, 1): -1})], 2
    )
    ctx = RingContext(M.build_ring(spec))
    lli, deg = M.is_level_linearly_independent(ctx.ring)
    ideal = ideal_in_ring(
        ctx, [M.monomial((0, 0, 2)), M.monomial((0, 1, 1)), M.monomial((0, 2, 0))]
    )
    space, segs = initial_segment_space(ctx, {2: 3}, M.lex_order(ctx.poset))
    seg_labels = tuple(sorted(ctx.poset.labels[x] for x in segs[2]))
    return (lli, deg, len(ctx.ring.levels[2]), ctx.ring.hilb[2], ideal.dims[2], space.dims[2], seg_labels)


def test_criterion_10_non_lli_example():
    with criterion(10, "dependent classes: 6 classes vs dim 5, segment dim drops to 2", None):
        lli, deg, nclasses, hilb2, hilb_i2, seg_dim, seg_labels = _non_lli_payload(QQ_FIELD)
        assert lli is False and deg == 2
        assert nclasses == 6 and hilb2 == 5
        assert hilb_i2 == 3 and seg_dim == 2
        assert hilb_i2 > seg_dim
        assert seg_labels == ((1, 0, 1), (1, 1, 0), (2, 0, 0))


RANDOM_SEED = 20260809


def _random_ideal_payload(field):
    out = []
    rng = random.Random(RANDOM_SEED)
    specs = [
        ("kk3", F.kk_ring(3, field)),
        ("cl34", F.cl_ring([3, 4], field)),
        ("t3", F.torus_ring([3], field)),
    ]
    for name, spec in specs:
        ctx = RingContext(M.build_ring(spec))
        cand = degree_rep_lex_order(ctx.poset)
        ok, _ = M.is_monomial_order(ctx.ring, cand)
        assert ok, name
        for trial in range(20):
            gens = []
            for _ in range(rng.randint(1, 2)):
                degree = rng.randint(1, min(2, ctx.ring.D))
                classes = list(ctx.classes_at(degree))
                k = min(rng.randint(2, 3), len(classes))
                terms = {
                    ctx.poset.labels[x]: rng.randint(1, 5)
                    for x in rng.sample(classes, k)
                }
                gens.append(M.Polynomial(terms))
            ideal = ideal_in_ring(ctx, gens)
            data = initial_monomial_data(ctx, ideal, cand)
            out.append((name, trial, tuple(ideal.dims), data.imv_dims, data.imi_dims))
    return out


def test_criterion_11_reduction_to_monomial_ideals():
    with criterion(11, "random ideals: ideal, span and monomial-ideal dims all agree", 60.0):
        rows = _random_ideal_payload(QQ_FIELD)
        assert len(rows) == 60
        for name, trial, dims, imv, imi in rows:
            assert dims == imv == imi, (name, trial)


def test_criterion_12_field_cross_audit():
    with criterion(12, "rationals and the 32003 prime field give identical integers", None):
        assert _correspondence_payload(QQ_FIELD) == _correspondence_payload(PRIME)
        assert _mixed_order_payload(QQ_FIELD) == _mixed_order_payload(PRIME)
        assert _non_lli_payload(QQ_FIELD) == _non_lli_payload(PRIME)
        assert _random_ideal_payload(QQ_FIELD) == _random_ideal_payload(PRIME)
