"""Regenerate ``perfbench/reference/`` from the program at the default
workload seed.

The stored files are the gate that ``check.py`` applies on that seed, so
regenerate them only when a change of outputs is intended and stated:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time

import check
import run
import workloads


def main() -> None:
    os.makedirs(run.RUNS_DIR, exist_ok=True)
    workers = len(os.sched_getaffinity(0))
    for workload in workloads.WORKLOADS:
        tree = workloads.make_tree(workload, workloads.DEFAULT_SEED, workers)
        out_dir = tempfile.mkdtemp(prefix="ref-", dir=run.RUNS_DIR)
        try:
            deadline = time.monotonic() + run.RUN_LIMIT_S
            if run.spawn(workload, workloads.DEFAULT_SEED, workers, "run",
                         deadline, out_dir) is None:
                raise SystemExit(f"{workload}: the run failed")
            dest = os.path.join(check.REFERENCE_DIR, workload)
            os.makedirs(dest, exist_ok=True)
            for name in workloads.expected_csvs(tree):
                shutil.copyfile(os.path.join(out_dir, name),
                                os.path.join(dest, name))
                print(f"wrote {os.path.join(dest, name)}")
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
