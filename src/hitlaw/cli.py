"""Command-line entry point: run, validate, list-experiments.

Exit codes: 0 success, 1 config validation failure, 2 budget exhaustion
(the run priced some item over ``operation_budget`` column-state reads and
cut it before any of its work; the other results were written, with one
truncation marker per cut item in the manifest), 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from .config import EXPERIMENT_KINDS, _parse, load_tree


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hitlaw",
        description="Hitting-time statistics laboratory for randomly driven "
                    "symbol streams and expanding circle maps")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment from a config file")
    run.add_argument("--config", required=True, help="path to the config tree")
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument("--threads", type=int, default=None,
                     help="worker count (overrides config; 0 = all cores)")
    run.add_argument("--seed", type=int, default=None,
                     help="replace the config's seed list with this one seed")

    val = sub.add_parser("validate", help="check a config file")
    val.add_argument("--config", required=True)

    sub.add_parser("list-experiments", help="print the experiment kinds")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "list-experiments":
        for kind in EXPERIMENT_KINDS:
            print(kind)
        return 0

    try:
        tree = load_tree(args.config)
    except Exception as exc:
        print(json.dumps({"errors": [f"cannot read config: {exc}"]}),
              file=sys.stderr)
        return 1

    if args.command == "run" and args.seed is not None:
        tree = dict(tree, seeds=[args.seed])
    if args.command == "run" and args.threads is not None:
        tree = dict(tree, threads=args.threads)
    cfg, problems = _parse(tree)
    if args.command == "validate" or problems:
        print(json.dumps({"errors": problems}, indent=2),
              file=sys.stderr if args.command == "run" else sys.stdout)
        return 1 if problems else 0
    try:
        from .experiments import _one_blas_thread, _workers, run_experiment
        if _workers(cfg.threads) == 1:
            _one_blas_thread()   # as a forked worker does; no thread server spins
        out_dir = args.out or cfg.output_dir or "out"
        manifest = run_experiment(cfg, out_dir)
    except Exception:
        traceback.print_exc()
        return 3
    print(json.dumps({"output_dir": out_dir,
                      "files": sorted(manifest["files"]),
                      "truncated": manifest["truncated"]}, indent=2))
    return 2 if manifest["truncated"] else 0


if __name__ == "__main__":
    sys.exit(main())
