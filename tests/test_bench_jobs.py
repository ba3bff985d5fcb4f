"""Every benchmark job's output at the default seed equals its recorded one."""
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_workload_matches_the_recorded_outputs(monkeypatch):
    # the benchmark run is otherwise the only place an output change shows
    monkeypatch.syspath_prepend(str(BENCH))
    import jobs

    expected = jobs.load_expected()
    seed = jobs.DEFAULT_SEED
    bad = [
        message
        for workload in jobs.WORKLOADS
        for job in jobs.make_jobs(workload, seed)
        for message in jobs.check(job, jobs.run_job(job), expected[workload], seed)
    ]
    assert expected.keys() == jobs.WORKLOADS.keys() and not bad
