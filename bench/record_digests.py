"""Record the correctness digest of every job of every workload variant.

    python3 bench/record_digests.py [WORKLOAD ...]

Run from the root of a checkout of the commit whose answers are taken as
correct.  Rewrites the named workloads (default: all) in
``bench/digests.json``; the other workloads keep their recorded digests.
Every job is expected to pass: a job that raises, exits non-zero or reports
``fail`` is not recorded, and nothing is written.
"""

from __future__ import annotations

import json
import sys

import run


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads

    names = argv or list(workloads.WORKLOADS)
    recorded = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.is_file() else {}
    for name in names:
        recorded[name] = {}
        for variant in range(workloads.VARIANTS):
            workload = workloads.build(name, variant, run.OUT / f"record-{name}-{variant}")
            digests = {}
            for job in workload.jobs:
                _, _, got, error = run.run_job(job)
                if error:
                    sys.stderr.write(f"{name} variant {variant} {job.name}:\n{error}")
                    return 1
                digests[job.name] = got
            recorded[name][str(variant)] = digests
            print(name, variant, len(digests), "jobs", flush=True)
    run.DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
