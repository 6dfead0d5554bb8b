"""Which process sets a run's peak resident set: the parent or a worker.

    python3 scripts/peak_rss.py configs/quenched_shift.yaml --threads 2

Runs ``hitlaw run --config CONFIG`` in this process (``hitlaw.cli.main``,
imported from this checkout's ``src/``) into a temporary directory, then
prints one JSON line: the run's exit code, the parent's peak resident set
and the largest worker's, in MiB, from ``getrusage`` (``ru_maxrss``), and
which of the two is larger.  The benchmark's ``peak_rss_mb`` reports only
that maximum.  A run on one worker forks none, so its worker peak reads 0.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import tempfile


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("config", help="path to the config tree")
    ap.add_argument("--threads", type=int, default=None,
                    help="worker count (overrides the config; 0 = all cores)")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    from hitlaw.cli import main as hitlaw_main

    run = ["run", "--config", args.config]
    if args.threads is not None:
        run += ["--threads", str(args.threads)]
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(sys.stderr):   # the CLI's file list
            code = hitlaw_main(run + ["--out", out])
    # ru_maxrss is in KiB on Linux; for children it is the largest reaped one
    parent, worker = (resource.getrusage(who).ru_maxrss / 1024.0 for who in
                      (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    print(json.dumps({"exit": code, "parent_mib": round(parent, 2),
                      "largest_worker_mib": round(worker, 2),
                      "peak": "parent" if parent >= worker else "worker"}))
    return code


if __name__ == "__main__":
    sys.exit(main())
