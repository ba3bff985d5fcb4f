"""Checks of the benchmark itself, kept out of the package's test suite.

    python3 -m pytest -q bench/selftest.py      # or: python3 bench/selftest.py

Takes about half a minute: the smoke test runs the CLI workload once
untraced and once traced.
"""
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

# Jobs cheap enough to run twice per workload; together they touch every layer.
CHEAP = {
    "grid-scan": {"be:2,2,2/family/lower", "multiset:6,5,4/lex/lower"},
    "glued-ring": {"be-ring:3,2,2/p:32003", "kk:6/p:32003", "diamond:2/q"},
    "cli-ring-check": {
        "--spec be-ring:3,2,2 --order family-default",
        "--spec torus:3,2 --order family-default",
        "--spec leck:2+2,1 --order rep-lex",
    },
}


def _bench_json():
    with open(jobs.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_counters_repeat_and_outputs_check():
    guard = run.Guard()
    for workload, keys in CHEAP.items():
        expected = jobs.load_expected()[workload]
        for seed in (jobs.DEFAULT_SEED, 7):
            job_list = [j for j in jobs.make_jobs(workload, seed) if j.key in keys]
            assert len(job_list) == len(keys)
            tracer = spans.Tracer()
            with tracer.installed():
                passes = run.run_passes(job_list, 0, guard, tracer) + run.run_passes(job_list, 0, guard, tracer)
            first, second = (p.layers for p in passes)
            assert {c: first[c] for c in spans.EXACT_COUNTERS} == {c: second[c] for c in spans.EXACT_COUNTERS}
            assert run.check_passes(job_list, passes, expected, seed) == (2 * len(keys), 0, [])
    assert guard.events == []


def test_probe_excludes_its_slices_and_scales_to_reference_speed():
    probe = speed.Probe(period=0.01)
    work = 40
    _, wall, ref = probe.measure(lambda: [speed.calibration_slice() for _ in range(work)])
    assert len(probe.slices) > 2 + work // 10  # slices ran inside the work too
    slice_s = sum(probe.slices) / len(probe.slices)
    assert 0.75 < wall / (work * slice_s) < 1.33
    assert 0.75 < ref / (work * speed.REF_SLICE_S) < 1.33
    try:
        probe.measure(lambda: 1 / 0)
    except ZeroDivisionError:
        pass
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_tracer_restores_the_package():
    before = [owner.__dict__[attr] for owner, attr, _, _ in spans.WRAPPED]
    with spans.Tracer().installed():
        pass
    assert [owner.__dict__[attr] for owner, attr, _, _ in spans.WRAPPED] == before


def test_smoke_prints_every_metric_with_its_unit():
    bench = _bench_json()
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        done = _run(["--workload", "cli-ring-check", "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                    jobs.ROOT)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.strip().splitlines()
        last = json.loads(lines[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in bench[kind]}
        assert {k: v["unit"] for k, v in last["metrics"].items()} == want
        for name, unit in want.items():
            assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines[:-1])
        assert any(line.split()[:1] == ["failed_ratio"] for line in lines[:-1])


def test_fails_without_the_package_source():
    bare = jobs.ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(jobs.ROOT / "BENCHMARK.json", bare)
    for path in _bench_json()["paths"]:
        shutil.copytree(jobs.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        done = _run(["--workload", "grid-scan", "--seed", "0", "--seconds", "1", "--trace", "0"], bare)
        assert done.returncode != 0
        assert not any(line.startswith("{") for line in done.stdout.splitlines())
    finally:
        shutil.rmtree(bare)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
