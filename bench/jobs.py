"""The benchmark's workloads: seeded job lists, job execution and output checks.

Every job calls the package only through its public functions, looked up on
the module at call time, so that the tracer in `spans.py` sees each call.
The seed fixes the job order and, in `glued-ring`, the ideal generators; the
library receives only the generated inputs.

Importing this module puts the checkout's `src/` first on `sys.path` and
refuses any other copy of the package.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import macaulay  # noqa: E402
from macaulay import cli, families, hilbert, orders, rings, verify  # noqa: E402

if Path(macaulay.__file__).resolve().parent != ROOT / "src" / "macaulay":
    raise ImportError(f"macaulay imported from {macaulay.__file__}, not from {ROOT / 'src'}")

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Job:
    key: str  # stable name; expected outputs are stored under it
    kind: str  # "verify" | "min_shadow" | "search" | "ideal" | "cli"
    args: tuple


def _grid_jobs(rng):
    # multiset:4,6,7 has a 22-element middle level: 2^22 subsets, exactly the
    # default cap, so it is the largest level the verifier accepts today.
    return [
        Job("multiset:4,6,7/lex/lower", "verify", ("multiset:4,6,7", "lex", "lower")),
        Job("multiset:5,5,5/lex/upper", "verify", ("multiset:5,5,5", "lex", "upper")),
        Job("multiset:2,2,2,2,2,2/lex/lower", "verify", ("multiset:2,2,2,2,2,2", "lex", "lower")),
        Job("be:2,2,2/family/lower", "verify", ("be:2,2,2", "family", "lower")),
        Job("multiset:6,5,4/lex/lower", "verify", ("multiset:6,5,4", "lex", "lower")),
        Job("min_shadow:multiset:4,6,7/level7/q11", "min_shadow", ("multiset:4,6,7", 7, 11)),
        Job("search:be:1,2,2", "search", ("be:1,2,2",)),
    ]


# (descriptor, field, spec factory, order factory); each descriptor reads as
# in `families.builtin`, e.g. torus:3,3 is the torus ring on three factors.
_GLUED_RINGS = [
    ("torus:3,3", "p:32003",
     lambda field: families.torus_ring([3, 3, 3], field),
     lambda poset: families.torus_order(poset, [3, 3, 3])),
    ("diamond:2", "q",
     lambda field: families.diamond_ring(2, field),
     lambda poset: families.diamond_order(poset, 2)),
    ("torus:3,2", "q",
     lambda field: families.torus_ring([3, 3], field),
     lambda poset: families.torus_order(poset, [3, 3])),
    ("be-ring:3,2,2", "p:32003",
     lambda field: families.be_ring(1, 2, 2, field),
     lambda poset: families.be_ring_order(poset, 1, 2, 2)),
    ("kk:6", "p:32003",
     lambda field: families.kk_ring(6, field),
     lambda poset: orders.lex_order(poset)),
]


def _random_form(rng, d, degree, nterms):
    """A homogeneous polynomial with `nterms` distinct terms and small nonzero coefficients."""
    terms = {}
    while len(terms) < nterms:
        exp = [0] * d
        for _ in range(degree):
            exp[rng.randrange(d)] += 1
        terms[tuple(exp)] = rng.choice((-1, 1)) * rng.randint(1, 9)
    return rings.Polynomial(terms)


def _glued_jobs(rng):
    # The generator shape (one linear and one quadratic form, three terms
    # each) is fixed, so every seed asks for the same amount of elimination.
    jobs = []
    for desc, field, make_spec, make_order in _GLUED_RINGS:
        spec = make_spec(rings.FieldSpec.from_json(field))
        gens = (_random_form(rng, spec.d, 1, 3), _random_form(rng, spec.d, 2, 3))
        jobs.append(Job(f"{desc}/{field}", "ideal", (spec, make_order, gens)))
    return jobs


_CLI_ARGS = [
    ["--spec", "cl:5,5,5", "--order", "lex", "--mode", "both"],
    ["--spec", "cl:4,4,4", "--order", "lex", "--mode", "both"],
    ["--spec", "torus:3,2", "--order", "family-default"],
    ["--spec", "diamond:2", "--order", "family-default"],
    ["--spec", "colored-ring:2,2,2", "--order", "family-default"],
    ["--spec", "be-ring:3,2,2", "--order", "family-default"],
    ["--spec", "kk:6", "--order", "lex", "--mode", "poset"],
    ["--spec", "torus:3,2", "--order", "family-default", "--field", "q"],
    ["--spec", "leck:2+2,1", "--order", "rep-lex"],
]


def _cli_jobs(rng):
    return [
        Job(" ".join(args), "cli", tuple(["check-ring", *args, "--json"])) for args in _CLI_ARGS
    ]


WORKLOADS = {"grid-scan": _grid_jobs, "glued-ring": _glued_jobs, "cli-ring-check": _cli_jobs}


def make_jobs(workload, seed):
    """The workload's job list, in the order the seed gives it."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = WORKLOADS[workload](rng)
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# Running a job


def _grid_order(built, recipe):
    return built.default_order() if recipe == "family" else orders.lex_order(built.poset)


def run_job(job):
    """Run one job through the public API and return its raw output."""
    if job.kind == "verify":
        desc, recipe, direction = job.args
        built = families.builtin(desc)
        verdict = verify.is_macaulay(built.poset, _grid_order(built, recipe), direction=direction)
        return {"verdict": verdict.to_dict(built.poset)}
    if job.kind == "min_shadow":
        desc, level, q = job.args
        poset = families.builtin(desc).poset
        size, witness = verify.min_shadow(poset, level, q)
        return {"size": size, "witness": sorted(str(poset.labels[x]) for x in witness)}
    if job.kind == "search":
        (desc,) = job.args
        table = verify.search_macaulay_order(families.builtin(desc).poset)
        return {"labels_in_order": None if table is None else [str(l) for l in table.labels_in_order()]}
    if job.kind == "ideal":
        spec, make_order, gens = job.args
        ring = rings.build_ring(spec)
        ctx = hilbert.RingContext(ring)
        table = make_order(ctx.poset)
        ideal = hilbert.ideal_in_ring(ctx, gens)
        hf = hilbert.hilbert_function(ctx, ideal)
        data = hilbert.initial_monomial_data(ctx, ideal, table)
        space, _ = hilbert.initial_segment_space(ctx, ideal.dims, table)
        return {
            "ring_hilbert": list(ring.hilbert()),
            "lli": ctx.lli,
            "ideal_dims": list(ideal.dims),
            "hilbert": [hf[i] for i in range(ring.D + 1)],
            "imv_dims": list(data.imv_dims),
            "imi_dims": list(data.imi_dims),
            "segment_dims": list(space.dims),
        }
    if job.kind == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(job.args))
        text = buf.getvalue()
        return {"exit": code, "report": json.loads(text), "stdout_bytes": len(text.encode())}
    raise ValueError(f"unknown job kind {job.kind!r}")


# ---------------------------------------------------------------------------
# Checking outputs


def comparable(job, output):
    """The part of an output that must match the recorded one, as plain JSON."""
    if job.kind == "cli":
        report = {k: v for k, v in output["report"].items() if k != "timing"}
        output = {"exit": output["exit"], "report": report}
    return json.loads(json.dumps(output, sort_keys=True, default=str))


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def check(job, output, expected, seed):
    """Mismatches between a job's output and what it must be (empty when correct).

    Fixed jobs must equal their recorded output.  A `glued-ring` job is
    compared in full only at the default seed; at any seed its ring Hilbert
    function must equal the recorded one and its ideal must satisfy
    invariants that hold for every generator choice.
    """
    got = comparable(job, output)
    want = expected.get(job.key)
    if want is None:
        return [f"{job.key}: no recorded output"]
    if job.kind != "ideal" or seed == DEFAULT_SEED:
        return [] if got == want else [f"{job.key}: output differs from the recorded one"]
    bad = []
    if (got["ring_hilbert"], got["lli"]) != (want["ring_hilbert"], want["lli"]):
        bad.append("ring Hilbert function or level linear independence differs from the recorded one")
    if got["hilbert"] != got["ideal_dims"]:
        bad.append("hilbert_function disagrees with the ideal's dimensions")
    if got["imv_dims"] != got["ideal_dims"]:
        bad.append("initial monomial space dims differ from the ideal's dims")
    if any(v > h for v, h in zip(got["ideal_dims"], got["ring_hilbert"])):
        bad.append("ideal dims exceed the ring's Hilbert function")
    if got["lli"]:
        if got["segment_dims"] != got["ideal_dims"]:
            bad.append("segment-space dims differ from the requested profile")
        if any(i < v for i, v in zip(got["imi_dims"], got["imv_dims"])):
            bad.append("initial monomial ideal is smaller than the initial monomial space")
    return [f"{job.key}: {b}" for b in bad]
