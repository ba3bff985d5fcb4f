"""Spans and exact work counters at the package's layer boundaries.

While installed, the tracer replaces public functions on the modules that
bind them, and methods on the classes that define them, with wrappers that
record a span (id, parent id, name, start, end) and, for some, an exact
counter.  Spans stay in memory; `run.py` writes them out when it ends.
Nothing in `src/` changes.

A layer's self time is the duration of its spans minus the time covered by
their child spans, so nested calls are counted once, in the innermost layer.
"""
from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

import jobs  # noqa: F401  (puts the checkout's src/ first on sys.path)
from macaulay import cli, families, hilbert, linalg, orders, poset, rings, verify


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_rref(counts, args, kwargs, result):
    rows = _arg(args, kwargs, 0, "rows")
    counts["linalg.rref_calls"] += 1
    counts["linalg.rref_cells"] += len(rows) * (len(rows[0]) if rows else 0)
    counts["linalg.pivots"] += len(result[1])


def _count_scan(counts, args, kwargs, verdict):
    p = _arg(args, kwargs, 0, "poset")
    counts["verify.subsets"] += verdict.subsets_examined
    counts["verify.levels"] += verdict.levels_checked
    widest = max(len(p.level(i)) for i in range(p.max_rank + 1))
    counts["verify.max_level"] = max(counts["verify.max_level"], widest)


def _count_min_shadow(counts, args, kwargs, result):
    p, level, q = (_arg(args, kwargs, i, n) for i, n in enumerate(("poset", "level", "q")))
    if q > 0:  # q == 0 returns before the subset walk
        counts["verify.subsets"] += 1 << len(p.level(level))


def _counter(name):
    def count(counts, args, kwargs, result):
        counts[name] += 1

    return count


def _count_ring_check(counts, args, kwargs, verdict):
    counts["hilbert.ideals_checked"] += verdict.ideals_checked


_FAMILY_ORDERS = (
    "lex_order", "rep_lex_order", "torus_order", "diamond_order", "be_ring_order",
    "bezrukov_elsasser_order", "mermin_murai_order", "tensor_monomial_order",
)

# (owner, attribute, span name, counter); owners are the modules that bind
# the function where the package calls it, or the class that defines it.
WRAPPED = [
    (poset.RankedPoset, "__init__", "poset.build", None),
    *[(families, f, "poset.build", None)
      for f in ("multiset_lattice", "cartesian_power", "cartesian_product", "dual")],
    (orders.OrderTable, "__init__", "orders.table", None),
    (orders.OrderTable, "level_in_order", "orders.table", _counter("orders.level_in_order_calls")),
    (orders, "lex_order", "orders.table", None),
    (cli, "order_from_recipe", "orders.table", None),
    (hilbert, "degree_rep_lex_order", "orders.table", None),
    *[(families, f, "orders.table", None) for f in _FAMILY_ORDERS],
    *[(m, "is_macaulay", "verify.scan", _count_scan) for m in (verify, hilbert, cli)],
    (verify, "min_shadow", "verify.min_shadow", _count_min_shadow),
    (verify, "search_macaulay_order", "verify.search", None),
    *[(m, "rref", "linalg.rref", _count_rref) for m in (linalg, rings, hilbert)],
    *[(m, "rref_with_transform", "linalg.rref", None) for m in (linalg, hilbert)],
    (rings.RingModel, "__init__", "rings.build", _counter("rings.builds")),
    *[(m, "poset_of_monomials", "rings.class_poset", None) for m in (hilbert, families)],
    (hilbert, "is_monomial_order", "rings.monomial_order", _counter("rings.monomial_order_calls")),
    (hilbert.RingContext, "__init__", "hilbert.context", None),
    (cli, "is_macaulay_ring", "hilbert.ring_check", _count_ring_check),
    *[(m, "ideal_in_ring", "hilbert.ideal", None) for m in (hilbert, cli)],
    *[(m, "initial_monomial_data", "hilbert.initial_data", None) for m in (hilbert, cli)],
    (hilbert, "initial_segment_space", "hilbert.segment_space", None),
    (families, "builtin", "families.builtin", None),
    (cli, "main", "cli.main", None),
]

# Per-layer metrics in report order, with units.
PER_LAYER = {
    "poset.build_s": "s",
    "orders.table_s": "s",
    "orders.level_in_order_calls": "count",
    "verify.scan_s": "s",
    "verify.min_shadow_s": "s",
    "verify.search_s": "s",
    "verify.subsets": "count",
    "verify.levels": "count",
    "verify.max_level": "count",
    "verify.subsets_per_s": "1/s",
    "linalg.rref_s": "s",
    "linalg.rref_calls": "count",
    "linalg.rref_cells": "count",
    "linalg.pivots": "count",
    "rings.build_s": "s",
    "rings.builds": "count",
    "rings.class_poset_s": "s",
    "rings.monomial_order_s": "s",
    "rings.monomial_order_calls": "count",
    "hilbert.context_s": "s",
    "hilbert.ring_check_self_s": "s",
    "hilbert.ideals_checked": "count",
    "hilbert.ideals_per_s": "1/s",
    "hilbert.ideal_s": "s",
    "hilbert.initial_data_s": "s",
    "hilbert.segment_space_s": "s",
    "families.builtin_s": "s",
    "cli.self_s": "s",
    "cli.report_bytes": "bytes",
    "trace.overhead_s": "s",
}

# Counters that must repeat exactly from one pass to the next.
EXACT_COUNTERS = (
    "orders.level_in_order_calls", "verify.subsets", "verify.levels", "verify.max_level",
    "linalg.rref_calls", "linalg.rref_cells", "linalg.pivots", "rings.builds",
    "rings.monomial_order_calls", "hilbert.ideals_checked",
)

# metric -> span name whose self time it reports
_SELF_TIMES = {
    "poset.build_s": "poset.build",
    "orders.table_s": "orders.table",
    "verify.scan_s": "verify.scan",
    "verify.min_shadow_s": "verify.min_shadow",
    "verify.search_s": "verify.search",
    "linalg.rref_s": "linalg.rref",
    "rings.build_s": "rings.build",
    "rings.class_poset_s": "rings.class_poset",
    "rings.monomial_order_s": "rings.monomial_order",
    "hilbert.context_s": "hilbert.context",
    "hilbert.ring_check_self_s": "hilbert.ring_check",
    "hilbert.ideal_s": "hilbert.ideal",
    "hilbert.initial_data_s": "hilbert.initial_data",
    "hilbert.segment_space_s": "hilbert.segment_space",
    "families.builtin_s": "families.builtin",
    "cli.self_s": "cli.main",
}


class Tracer:
    """In-memory spans and counters for one pass at a time."""

    def __init__(self):
        self.spans = []  # (id, parent id or None, name, start, end)
        self.counts = Counter()
        self._stack = []

    def reset(self):
        self.spans = []
        self.counts = Counter()

    def _open(self):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, name, sid, parent, t0):
        self.spans[sid] = (sid, parent, name, t0, time.perf_counter())
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        opened = self._open()
        try:
            yield
        finally:
            self._close(name, *opened)

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, *opened)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry in WRAPPED for the duration of the block."""
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in WRAPPED]
        try:
            for (owner, attr, name, count), (_, _, fn) in zip(WRAPPED, originals):
                setattr(owner, attr, self._wrap(fn, name, count))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def self_times(self):
        covered = defaultdict(float)
        for sid, parent, name, t0, t1 in self.spans:
            if parent is not None:
                covered[parent] += t1 - t0
        out = defaultdict(float)
        for sid, parent, name, t0, t1 in self.spans:
            out[name] += (t1 - t0) - covered[sid]
        return out

    def layer_metrics(self, report_bytes):
        """Per-layer metrics of the pass just traced, except trace.overhead_s."""
        st = self.self_times()
        out = {m: st[span] for m, span in _SELF_TIMES.items()}
        out.update({c: self.counts[c] for c in EXACT_COUNTERS})
        scan = out["verify.scan_s"] + out["verify.min_shadow_s"]
        out["verify.subsets_per_s"] = out["verify.subsets"] / scan if scan else 0.0
        check = out["hilbert.ring_check_self_s"]
        out["hilbert.ideals_per_s"] = out["hilbert.ideals_checked"] / check if check else 0.0
        out["cli.report_bytes"] = report_bytes
        return out

    def records(self):
        """The spans of the pass just traced, as [id, parent, name, start, end] from its start."""
        base = self.spans[0][3] if self.spans else 0.0
        return [[sid, parent, name, t0 - base, t1 - base] for sid, parent, name, t0, t1 in self.spans]
