"""One benchmark repetition, in a fresh interpreter.

Builds the workload's config tree, calls ``hitlaw.config.build_config`` and
then ``hitlaw.experiments.run_experiment``, exactly as a researcher's script
would, and prints one JSON line with its timings, including the time of a
calibration loop run just before and just after ``run_experiment``.
``--mode setup`` stops after ``build_config``; ``--mode trace`` runs with
spans (one worker, in process) and writes them to ``--trace-file``.

    python3 perfbench/child.py --root . --workload annealed --seed 0 \
        --workers 2 --out .perfbench_runs/out --mode run
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import sys
import time


CAL_ROUNDS = 100_000


def _calibration_loop(_=None) -> float:
    import numpy
    mat = numpy.array([[0.3, 0.7], [0.7, 0.3]])
    vec = numpy.ones(2)
    num, mask, acc = 3 ** 300, (1 << 1024) - 1, 0
    t0 = time.perf_counter()
    for i in range(CAL_ROUNDS):
        vec = mat @ vec
        num = (num * 3) & mask
        acc += i * i % 7
    return time.perf_counter() - t0


def calibration_s(workers: int) -> float:
    """Mean seconds that ``workers`` processes at once take for a fixed loop
    of the operations the engines spend their time in: a 2x2 matrix-vector
    product, a bigint multiply-and-mask and small-integer arithmetic.  Timed
    around each repetition, it gives the speed the host lent the benchmark
    just then, on as many cores as the run uses."""
    if workers <= 1:
        return _calibration_loop()
    # fork, as the program's own pool does: spawn would import numpy again
    # in every worker of every repetition
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        times = pool.map(_calibration_loop, range(workers), chunksize=1)
    return sum(times) / len(times)


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--out")
    ap.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    ap.add_argument("--trace-file")
    args = ap.parse_args()

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    import numpy
    import hitlaw
    from hitlaw import config, experiments
    import workloads
    if not os.path.abspath(hitlaw.__file__).startswith(src + os.sep):
        raise SystemExit(f"hitlaw imported from {hitlaw.__file__}, not from {src}")

    tracer = None
    if args.mode == "trace":
        import spans
        tracer = spans.Tracer()
        spans.instrument(tracer, experiments)

    tree = workloads.make_tree(args.workload, args.seed, args.workers)
    if tracer is None:
        cfg = config.build_config(tree)
    else:
        with tracer.span("config.build_config"):
            cfg = config.build_config(tree)
    report = {"setup_end": time.monotonic(),
              "python": sys.version.split()[0], "numpy": numpy.__version__}
    if args.mode != "setup":
        cal_before = calibration_s(args.workers)
        cpu0 = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        if tracer is None:
            experiments.run_experiment(cfg, args.out)
        else:
            with tracer.span("experiments.run_experiment"):
                experiments.run_experiment(cfg, args.out)
        report["wall_s"] = time.perf_counter() - t0
        report["cpu_s"] = (_cpu(resource.RUSAGE_SELF)
                           + _cpu(resource.RUSAGE_CHILDREN) - cpu0)
        report["cal_s"] = (cal_before + calibration_s(args.workers)) / 2
        # ru_maxrss is in KiB on Linux; for children it is the largest one
        report["peak_rss_mb"] = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0
    if tracer is not None:
        report["span_cost_s"] = spans.span_cost()
        with open(args.trace_file, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": tracer.spans}, fh)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
