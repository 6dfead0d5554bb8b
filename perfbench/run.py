"""hitlaw benchmark: end-to-end timings of four exact-engine workloads, and
a traced per-layer breakdown.

    python3 perfbench/run.py --workload annealed --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  Every repetition starts a fresh interpreter
(``child.py``) that builds the config tree from the workload seed, calls
``build_config`` and ``run_experiment``, and writes its artifacts, which
are then checked (``check.py``).  The loop is closed: one repetition at a
time, each with the worker count set to the usable cores.  The last line
of standard output is one JSON object with the metrics named in
``BENCHMARK.json``; the lines before it name each metric with its unit, and
give the machine facts.

``--trace 0`` measures for about ``--seconds`` seconds, at least five
repetitions of about a second each, and reports medians over them of

- ``wall_ref_s``: from the ``run_experiment`` call until the manifest is
  written, at the reference speed (below);
- ``setup_s``: from interpreter start until ``build_config`` returns, over
  six extra set-up-only starts and the repetitions, unscaled;
- ``cpu_ref_s``: user plus system CPU of the run process and its workers,
  at the reference speed;
- ``items_per_ref_s``: work items that did not fail, per second of
  ``wall_ref_s``;
- ``peak_rss_mb``: the larger of the run process's and its largest
  worker's peak resident set.

On a shared host the speed the CPU gives one tenant drifts by up to 40%
within a minute, as other tenants load it, so unscaled medians of a
30-second run moved by 6-20% between runs of the same code.  Each
repetition therefore also times a fixed calibration loop, on as many
processes as it has workers, just before and just after the run
(``child.calibration_s``), and its timings are scaled by ``REF_CAL_S``
over the mean of the two: a repetition that ran while the host was slow
is scaled down by as much as the loop was slowed.  A change to the
program moves the scaled times as it moves the real ones; the unscaled
wall times and the loop's time are printed and kept in the result file.

Failed items (truncated, raised, a ledger bound violated, or a mismatch
with the reference) are counted in ``failed`` against ``attempted``; the
failed share is ``failed / attempted``.

``--trace 1`` makes three runs: untraced at the usable cores, untraced at
one worker, and traced at one worker in process (``spans.py``).  The
spans go to ``.perfbench_runs/spans-<workload>-seed<seed>.json``; the
parallel efficiency is the one-worker wall time over workers times the
parallel wall time, and the tracing overhead is the number of spans times
the measured cost of one, over the traced wall time.

Workloads, and what each one is for:

- ``quenched-markov``: quenched_shift on a symmetric 2-state Markov base,
  n 10 and 12, 20 seeds: the only workload where the Markov window
  extension (a per-symbol Python loop) matters; the rest is the one-column
  survival recursion, one automaton per item.
- ``annealed``: annealed_shift as shipped but with 50 windows (n 12): the
  same recursion, with all windows sharing one automaton, and 50 short
  items that expose per-item dispatch cost.
- ``ledger``: ledger as shipped but with 3 seeds (27 items): the only
  workload that runs the ledger's batched recursions.
- ``circle``: circle_law at r 1e-2 and 1e-3 (about 460 and 4,030 bits),
  4 seeds, 2,500 trials: the exact bigint scan; no shift layer runs.

Each is cut to about a second a repetition at two workers, so that a run
holds a dozen or more repetitions and their median is steady.

Which end-to-end metric each layer should move, and where (on every other
workload the prediction is no change):

- ``base_process.*`` (window extension): wall_ref_s and cpu_ref_s on
  quenched-markov.
- ``survival.*`` (one-column recursion): wall_ref_s and cpu_ref_s on
  annealed and quenched-markov.
- ``ledger.*`` (batched recursions): wall_ref_s and cpu_ref_s on ledger.
- ``circle.*`` (exact scan): wall_ref_s and cpu_ref_s on circle.
- ``experiments.*`` (runner, dispatch, artifact writing): wall_ref_s on
  annealed, where dispatch cost matters most.
- ``fiber.busy_s``, ``stats.busy_s``: at most a few percent anywhere;
  watched for regressions.
- ``config.build_config.busy_s``: setup_s on every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from statistics import median

import check
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
SETUP_STARTS = 6
MIN_REPS = 5
RUN_LIMIT_S = 170      # every child is stopped by then, so a run ends in time
LAST_START_S = 120     # no repetition starts later than this into a run
# Timings are scaled to the speed at which child.calibration_s() takes this
# long.  On the 2-vCPU Xeon host the benchmark was written on it took 0.11
# to 0.28 s (median 0.18 s), so there scaled times read about 45% below
# unscaled ones.
REF_CAL_S = 0.1


class BenchError(Exception):
    """The benchmark cannot run here at all."""


def spawn(workload: str, seed: int, workers: int, mode: str, deadline: float,
          out_dir: str | None = None, trace_file: str | None = None):
    """Run ``child.py`` once, stopping it at the ``time.monotonic()``
    deadline; its JSON report plus ``setup_s``, or None if it failed.  The
    child and anything it started are gone on return."""
    cmd = [sys.executable, CHILD, "--root", ROOT, "--workload", workload,
           "--seed", str(seed), "--workers", str(workers), "--mode", mode]
    if out_dir:
        cmd += ["--out", out_dir]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - started))
    except subprocess.TimeoutExpired:
        out = b""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0 or not out.strip():
        return None
    report = json.loads(out.decode().splitlines()[-1])
    report["setup_s"] = report["setup_end"] - started
    return report


def repetition(workload: str, seed: int, workers: int, deadline: float,
               mode: str = "run", trace_file: str | None = None) -> dict:
    """One checked run: the child's report, the items attempted and failed,
    and the problems found."""
    tree = workloads.make_tree(workload, seed, workers)
    attempted = len(workloads.items(tree))
    out_dir = tempfile.mkdtemp(prefix="out-", dir=RUNS_DIR)
    try:
        report = spawn(workload, seed, workers, mode, deadline, out_dir,
                       trace_file)
        if report is None:
            failed, problems = attempted, ["the run raised or timed out"]
        else:
            failed, problems = check.check_output(workload, tree, seed, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return {"report": report, "attempted": attempted, "failed": failed,
            "problems": problems}


def measure(workload: str, seed: int, seconds: float, workers: int,
            deadline: float):
    """End-to-end metrics over repetitions for about ``seconds`` seconds."""
    start = time.monotonic()
    setups = []
    for _ in range(SETUP_STARTS):
        report = spawn(workload, seed, workers, "setup", deadline)
        if report is None:
            raise BenchError("a set-up-only start failed")
        setups.append(report["setup_s"])
    reps: list = []
    durations: list = []
    while True:
        elapsed = time.monotonic() - start
        if elapsed > LAST_START_S:
            break
        if len(reps) >= MIN_REPS and elapsed + median(durations) > seconds:
            break
        t0 = time.monotonic()
        reps.append(repetition(workload, seed, workers, deadline))
        durations.append(time.monotonic() - t0)
        if reps[-1]["report"] is None:
            break          # the program is broken; more runs say no more
    good = [r for r in reps if r["report"] is not None]
    if not good:
        return None, reps

    def scaled(r, key):
        return r["report"][key] * REF_CAL_S / r["report"]["cal_s"]

    metrics = {
        "wall_ref_s": median(scaled(r, "wall_s") for r in good),
        "setup_s": median(setups + [r["report"]["setup_s"] for r in good]),
        "cpu_ref_s": median(scaled(r, "cpu_s") for r in good),
        "items_per_ref_s": median((r["attempted"] - r["failed"]) / scaled(r, "wall_s")
                                  for r in good),
        "peak_rss_mb": median(r["report"]["peak_rss_mb"] for r in good),
    }
    return metrics, reps


def trace(workload: str, seed: int, workers: int, deadline: float):
    """Per-layer metrics from one traced run, with the parallel efficiency
    from two untraced runs."""
    spans_file = os.path.join(RUNS_DIR, f"spans-{workload}-seed{seed}.json")
    parallel = repetition(workload, seed, workers, deadline)
    serial = repetition(workload, seed, 1, deadline)
    traced = repetition(workload, seed, 1, deadline, mode="trace",
                        trace_file=spans_file)
    reps = [parallel, serial, traced]
    if any(r["report"] is None for r in reps):
        return None, reps
    with open(spans_file, encoding="utf-8") as fh:
        recorded = json.load(fh)["spans"]
    metrics = spans.layer_metrics(recorded, parallel["attempted"])
    wall_1 = serial["report"]["wall_s"]
    metrics["experiments.parallel_efficiency"] = wall_1 / (
        workers * parallel["report"]["wall_s"])
    # the spans' own cost: the wall-time difference to the untraced run at
    # one worker (both kept in the result file) is far below run-to-run noise
    metrics["trace.overhead_share"] = (len(recorded) * traced["report"]["span_cost_s"]
                                       / traced["report"]["wall_s"])
    return metrics, reps


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if not os.path.isfile(os.path.join(ROOT, "src", "hitlaw", "__init__.py")):
        raise BenchError(f"no hitlaw sources under {ROOT}/src")
    os.makedirs(RUNS_DIR, exist_ok=True)
    workers = len(os.sched_getaffinity(0))
    # an untimed start first, so that byte-compiling the sources is not timed
    warm = spawn(args.workload, args.seed, workers, "setup", deadline)
    if warm is None:
        raise BenchError("the program cannot be imported and configured")
    machine = {"usable_cores": workers, "cpu_count": os.cpu_count(),
               "workers": workers, "python": warm["python"],
               "numpy": warm["numpy"]}

    if args.trace:
        metrics, reps = trace(args.workload, args.seed, workers, deadline)
    else:
        metrics, reps = measure(args.workload, args.seed, args.seconds,
                                workers, deadline)
    if metrics is None:
        raise BenchError("no repetition finished: "
                         + "; ".join(p for r in reps for p in r["problems"]))
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = [p for r in reps for p in r["problems"]]
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, machine=machine, problems=problems,
                  repetitions=[r["report"] for r in reps])
    record_file = os.path.join(
        RUNS_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_file, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    for problem in problems:
        print(f"problem: {problem}")
    print("machine: " + json.dumps(machine))
    print(f"repetitions: {len(reps)}, items attempted: {attempted}, "
          f"failed: {failed} (failed share {failed / attempted:.4g})")
    good = [r["report"] for r in reps if r["report"] is not None]
    walls = sorted(r["wall_s"] for r in good)
    print(f"unscaled wall time per repetition: fastest {walls[0]:.4g}, median "
          f"{median(walls):.4g}, slowest {walls[-1]:.4g} s; calibration loop "
          f"median {median(r['cal_s'] for r in good):.4g} s")
    for name, m in result["metrics"].items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
