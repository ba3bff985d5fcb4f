"""Record the expected output of every job at the default seed.

    python3 bench/record.py

Run it only on a commit whose outputs are known to be right: the benchmark
fails every later run whose outputs differ from what this writes to
`bench/expected.json`.
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import jobs  # noqa: E402


def main():
    expected = {}
    for workload in jobs.WORKLOADS:
        expected[workload] = {
            job.key: jobs.comparable(job, jobs.run_job(job))
            for job in jobs.make_jobs(workload, jobs.DEFAULT_SEED)
        }
    with open(jobs.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
