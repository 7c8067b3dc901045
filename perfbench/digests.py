"""Record digests.json for the default seed.

Usage (from the repository root): python3 perfbench/digests.py

Runs the warm-up jobs and the first RECORDED_JOBS timed jobs of every
workload for run.DEFAULT_SEED, untimed, checks each output, and stores the
digest of the fields the mathematics fixes (check.digest_fields).  run.py
compares each job of a default-seed run that has a digest against them (a
20 s --trace 0 run does 100-180 jobs); every job also gets the any-seed
checks of check.py.  Record again only when gen.py changes: a
program change that alters a digest gives a wrong answer.
"""

from __future__ import annotations

import json
import os
import shutil

import check
import gen
import run

RECORDED_JOBS = 400  # timed jobs per workload


def main() -> int:
    cli_main = run.import_cli()
    recorded = {"seed": run.DEFAULT_SEED, "jobs": {}}
    workdir = os.path.join(run.HERE, ".work", f"digests-{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner = run.JobRunner(cli_main, workdir, {})
        for workload in gen.WORKLOADS:
            warmups, timed = gen.generate(workload, run.DEFAULT_SEED)
            table = {}
            for job in warmups + [next(timed) for _ in range(RECORDED_JOBS)]:
                code, stdout, _ = runner.execute(job)
                reason = check.check(job, code, stdout)
                if reason:
                    raise SystemExit(f"{job['id']} ({job['class']}): {reason}")
                table[job["id"]] = check.digest(job, json.loads(stdout))
            recorded["jobs"][workload] = table
            print(f"{workload}: {len(table)} digests")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(run.HERE, "digests.json"), "w") as handle:
        json.dump(recorded, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
