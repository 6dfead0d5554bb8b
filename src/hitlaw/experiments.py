"""Experiment drivers: sweeps, parallel execution, artifact files.

Every experiment is a list of independent work items (seed and grid point),
a top-level worker function, and a reducer that assembles CSV rows and a
JSON report.  Workers never share state; items are dispatched in a fixed
order and merged by that order, so the emitted bytes do not depend on the
worker count.  Floats are formatted with 17 significant digits, which
round-trips doubles exactly.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .base_process import make_rng, sample_window
from .circle import CircleRDS, quenched_law_statistic
from .config import ExperimentConfig
from .errors import PrecisionBudgetError, ResourceLimitError
from .fiber import Pattern, density_ratio, marginal_cylinder_measure, sample_fiber_prefix
from .ledger import (compute_ledger, estimate_entropies, gap_schedule,
                     verify_sandwich)
from .stats import ks_to_exponential, trend_report
from .survival import (_annealed_curve, _rescaled_k, _windows_survival,
                       rescaled_survival)

SURVIVAL_COLUMNS = ("seed", "t", "k", "survival", "exp_minus_t", "abs_err")
ANNEALED_COLUMNS = ("t", "k", "mean_survival", "stderr", "exp_minus_t", "abs_err")
LEDGER_COLUMNS = ("seed", "n", "t", "g", "k", "M", "G", "H", "K", "delta_sum",
                  "lemma_lhs", "lemma_rhs", "sandwich_gap")
CIRCLE_COLUMNS = ("seed", "r", "t", "empirical_survival", "exp_minus_t",
                  "Delta_r", "trials", "censored_count")
ENTROPY_COLUMNS = ("n", "smb_mean", "smb_stderr", "ow_mean", "ow_stderr",
                   "censored", "samples")
SINGULARITY_COLUMNS = ("draw", "match_count", "log_ratio")


@dataclass
class RunResult:
    artifacts: dict          # filename -> ("csv", header, rows) | ("json", obj)
    truncated: list          # human-readable truncation markers


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _workers(threads: int) -> int:
    """Effective worker count: ``threads``, or the usable cores (CPU
    affinity) when it is 0."""
    return threads or len(os.sched_getaffinity(0))


def _parallel_map(fn, items, threads: int):
    """Order-preserving map; thread count never changes the results, only
    how they are computed."""
    threads = _workers(threads)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(fn, items, chunksize=1))


def _draw_pattern(cfg: ExperimentConfig, seed, n: int) -> Pattern:
    """A marginal-law target word: fresh noise window plus one fiber draw."""
    pat_window = sample_window(cfg.base, [seed, 1], n)
    xs = sample_fiber_prefix(cfg.fiber, pat_window, n, make_rng([seed, 2]))
    return Pattern(tuple(xs), cfg.fiber.fiber_alphabet_size)


def _survival_step_cap(cfg: ExperimentConfig, n: int) -> int:
    return max(1, cfg.operation_budget // (n * cfg.fiber.fiber_alphabet_size))


# ----------------------------------------------------------------------
# quenched_shift


def _quenched_item(args):
    cfg, n, seed = args
    pat = _draw_pattern(cfg, seed, n)
    mu_a = marginal_cylinder_measure(cfg.fiber, cfg.base, pat)
    k_max = math.floor(cfg.t_grid[-1] / mu_a)
    cap = _survival_step_cap(cfg, n)
    if k_max > cap:
        return ("truncated",
                f"quenched n={n} seed={seed}: k={k_max} over step cap {cap}")
    window = sample_window(cfg.base, [seed, 0], k_max + n + 1)
    curve = rescaled_survival(cfg.fiber, cfg.base, window, pat, cfg.t_grid,
                              step_cap=cap)
    rows = [(seed, t, int(k), v, math.exp(-t), abs(v - math.exp(-t)))
            for t, k, v in zip(curve.t_grid, curve.k_values, curve.values)]
    return ("ok", n, seed, rows, ks_to_exponential(curve).sup_abs_err)


def _reduce_sweep(results, keys, stat: str):
    """Rows and per-seed ``stat`` of the finished items grouped by sweep key,
    in key order, with each key's median; and the truncation markers."""
    rows, per_key, medians = {}, {}, []
    for key in keys:
        done = [out for out in results if out[0] == "ok" and out[1] == key]
        rows[key] = [row for out in done for row in out[3]]
        stats = {out[2]: out[4] for out in done}
        medians.append(float(np.median(list(stats.values()))) if stats
                       else float("nan"))
        per_key[key] = {stat: stats, f"median_{stat}": medians[-1]}
    truncated = sorted({out[1] for out in results if out[0] == "truncated"})
    return rows, per_key, medians, truncated


def run_quenched_shift(cfg: ExperimentConfig) -> RunResult:
    items = [(cfg, n, seed) for n in cfg.n_grid for seed in cfg.seeds]
    results = _parallel_map(_quenched_item, items, cfg.threads)
    rows, per_n, medians, truncated = _reduce_sweep(results, cfg.n_grid,
                                                    "sup_abs_err")
    artifacts = {f"survival_n{n}.csv": ("csv", SURVIVAL_COLUMNS, rows[n])
                 for n in cfg.n_grid}
    report = {"per_n": {str(n): per_n[n] for n in cfg.n_grid}}
    if len(cfg.n_grid) >= 3:
        report["trend"] = trend_report(medians, xs=list(cfg.n_grid)).to_json_dict()
    artifacts["report.json"] = ("json", report)
    return RunResult(artifacts=artifacts, truncated=truncated)


# ----------------------------------------------------------------------
# annealed_shift


def _annealed_chunk(args):
    """Exact survival of one contiguous run of windows in one kernel call,
    or the word length's truncation marker.  Every chunk draws the same word,
    so that the parent process never samples (nor imports numpy.random)."""
    cfg, n, windows = args
    pat = _draw_pattern(cfg, cfg.seeds[0], n)
    mu_a = marginal_cylinder_measure(cfg.fiber, cfg.base, pat)
    try:
        ks = _rescaled_k(np.asarray(cfg.t_grid), mu_a, _survival_step_cap(cfg, n))
    except ResourceLimitError as exc:   # every window shares the word's k
        return ("truncated", f"annealed n={n}: {exc}")
    return ("ok", ks, mu_a, _windows_survival(cfg.fiber, pat, (
        sample_window(cfg.base, [cfg.seeds[0], 0, widx], int(ks[-1]) + n + 1)
        for widx in windows), ks))


def run_annealed_shift(cfg: ExperimentConfig) -> RunResult:
    artifacts: dict = {}
    truncated: list = []
    report: dict = {"per_n": {}}
    # one contiguous chunk of windows per worker; the kernel's block mode
    # keeps each window's values independent of the split
    chunks = min(_workers(cfg.threads), cfg.trials)
    bounds = [cfg.trials * i // chunks for i in range(chunks + 1)]
    for n in cfg.n_grid:
        items = [(cfg, n, range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
        results = _parallel_map(_annealed_chunk, items, cfg.threads)
        if results[0][0] == "truncated":
            truncated.append(results[0][1])
            artifacts[f"annealed_n{n}.csv"] = ("csv", ANNEALED_COLUMNS, [])
            continue
        curve = _annealed_curve(np.asarray(cfg.t_grid), results[0][1],
                                np.concatenate([out[3] for out in results]),
                                results[0][2])
        rows = [(t, int(k), m, se, math.exp(-t), abs(m - math.exp(-t)))
                for t, k, m, se in zip(cfg.t_grid, curve.k_values, curve.mean,
                                       curve.stderr)]
        artifacts[f"annealed_n{n}.csv"] = ("csv", ANNEALED_COLUMNS, rows)
        report["per_n"][str(n)] = {"sup_abs_err": ks_to_exponential(curve).sup_abs_err,
                                   "windows": curve.n_windows}
    artifacts["report.json"] = ("json", report)
    return RunResult(artifacts=artifacts, truncated=sorted(truncated))


# ----------------------------------------------------------------------
# ledger


def _ledger_item(args):
    cfg, n, t, seed = args
    pat = _draw_pattern(cfg, seed, n)
    mu_a = marginal_cylinder_measure(cfg.fiber, cfg.base, pat)
    k = math.floor(t / mu_a)
    if k < 1:
        return ("truncated", f"ledger n={n} t={t} seed={seed}: k=0, t too small")
    g = min(gap_schedule(n, cfg.fiber.h0), k)
    jmax = max(cfg.jmax_factor * k, g)
    window = sample_window(cfg.base, [seed, 0], k + g + jmax + n + 1)
    try:
        led = compute_ledger(cfg.fiber, cfg.base, window, pat, t, g, jmax=jmax,
                             op_budget=cfg.operation_budget)
    except ResourceLimitError as exc:
        return ("truncated", f"ledger n={n} t={t} seed={seed}: {exc}")
    row = (seed, n, t, led.g, led.k, led.M, led.G, led.H, led.K,
           led.delta_sum, led.lemma_lhs, led.lemma_rhs, led.sandwich_gap)
    ok = (led.lemma_lhs <= led.lemma_rhs + 1e-12
          and led.delta_sum <= led.G + led.H + led.K + 1e-12)
    return ("ok", row, ok)


def run_ledger(cfg: ExperimentConfig) -> RunResult:
    items = [(cfg, n, t, seed) for n in cfg.n_grid for t in cfg.t_grid
             for seed in cfg.seeds]
    results = _parallel_map(_ledger_item, items, cfg.threads)
    rows = [out[1] for out in results if out[0] == "ok"]
    truncated = sorted({out[1] for out in results if out[0] == "truncated"})
    checks = [out[2] for out in results if out[0] == "ok"]
    # the product-vs-exponential sandwich is part of the same verification pass
    rng = make_rng(cfg.seeds[0])
    sandwich_ok = all(verify_sandwich(rng.uniform(0, eps, size=50), eps)
                      for eps in (0.01, 0.1, 0.5) for _ in range(100))
    report = {
        "rows": len(rows),
        "bound_violations": int(sum(1 for c in checks if not c)),
        "sandwich_sweep_ok": bool(sandwich_ok),
    }
    return RunResult(artifacts={"ledger.csv": ("csv", LEDGER_COLUMNS, rows),
                                "report.json": ("json", report)},
                     truncated=truncated)


# ----------------------------------------------------------------------
# entropy


def _entropy_item(args):
    cfg, n = args
    est = estimate_entropies(cfg.fiber, cfg.base, [n], cfg.trials,
                             seed=cfg.seeds[0])
    smb = est.smb_slopes[n]
    ow = est.ow_slopes[n]
    return (n, float(smb.mean()), float(smb.std(ddof=1) / math.sqrt(smb.size)),
            float(ow.mean()) if ow.size else float("nan"),
            float(ow.std(ddof=1) / math.sqrt(ow.size)) if ow.size > 1 else float("nan"),
            est.censored[n], cfg.trials, est.widened_uncertainty)


def run_entropy(cfg: ExperimentConfig) -> RunResult:
    results = _parallel_map(_entropy_item, [(cfg, n) for n in cfg.n_grid],
                            cfg.threads)
    rows = [out[:7] for out in results]
    n_top = max(cfg.n_grid)
    h_hat = next(out[1] for out in results if out[0] == n_top)
    report = {
        "h_hat": h_hat,
        "h0": cfg.fiber.h0,
        "ow_slope_at_largest_n": next(out[3] for out in results if out[0] == n_top),
        "widened_uncertainty": bool(any(out[7] for out in results)),
    }
    return RunResult(artifacts={"entropy.csv": ("csv", ENTROPY_COLUMNS, rows),
                                "entropy.json": ("json", report)},
                     truncated=[])


# ----------------------------------------------------------------------
# circle_law


def _circle_item(args):
    cfg, r, seed = args
    rds = CircleRDS(multipliers=cfg.multipliers)
    k_max = math.floor(cfg.t_grid[-1] / (2.0 * r))
    bits = sample_window(rds.base, [seed, 0], max(k_max, 1))
    y = float(make_rng([seed, 1]).random())
    try:
        out = quenched_law_statistic(rds, bits, y, r, cfg.t_grid,
                                     trials=cfg.trials, seed=[seed, 2])
    except PrecisionBudgetError as exc:
        return ("truncated", f"circle r={r} seed={seed}: {exc}")
    rows = [(seed, r, t, s, math.exp(-t), out.delta_r, out.trials,
             out.censored_count)
            for t, s in zip(out.t_grid, out.survival)]
    return ("ok", r, seed, rows, out.delta_r)


def run_circle_law(cfg: ExperimentConfig) -> RunResult:
    items = [(cfg, r, seed) for r in cfg.r_grid for seed in cfg.seeds]
    results = _parallel_map(_circle_item, items, cfg.threads)
    rows, per_r, medians, truncated = _reduce_sweep(results, cfg.r_grid, "delta_r")
    report: dict = {
        # standing model facts the run relies on but does not re-estimate
        "assumptions": "sample measures are Lebesgue for every noise sequence "
                       "(integer multipliers preserve Lebesgue); correlation "
                       "decay for Lipschitz observables is classical for "
                       "expanding maps and is not re-measured here",
        "per_r": {repr(r): per_r[r] for r in cfg.r_grid},
    }
    if len(cfg.r_grid) >= 3:
        report["trend"] = trend_report(
            medians, xs=[-math.log10(r) for r in cfg.r_grid]).to_json_dict()
    artifacts = {"circle.csv": ("csv", CIRCLE_COLUMNS,
                                [row for r in cfg.r_grid for row in rows[r]]),
                 "report.json": ("json", report)}
    return RunResult(artifacts=artifacts, truncated=truncated)


# ----------------------------------------------------------------------
# singularity


def run_singularity(cfg: ExperimentConfig) -> RunResult:
    n = cfg.n_grid[0]
    seed = cfg.seeds[0]
    rows = []
    logs = []
    for i in range(cfg.trials):
        window = sample_window(cfg.base, [seed, i, 0], n)
        # the marginal of the symmetric family is the fair coin, so a
        # marginal-law word is a uniform bit string
        word = Pattern(tuple(make_rng([seed, i, 1]).integers(0, 2, size=n)), 2)
        out = density_ratio(cfg.fiber, cfg.base, window, word)
        rows.append((i, out.match_count, out.log_ratio))
        logs.append(out.log_ratio)
    logs_arr = np.asarray(logs)
    report = {
        "n": n,
        "draws": cfg.trials,
        "fraction_abs_log_ratio_ge_10": float((np.abs(logs_arr) >= 10.0).mean()),
        "mean_log_ratio": float(logs_arr.mean()),
        "std_log_ratio": float(logs_arr.std(ddof=1)),
    }
    return RunResult(artifacts={"singularity.csv": ("csv", SINGULARITY_COLUMNS, rows),
                                "singularity.json": ("json", report)},
                     truncated=[])


_RUNNERS = {
    "quenched_shift": run_quenched_shift,
    "annealed_shift": run_annealed_shift,
    "ledger": run_ledger,
    "entropy": run_entropy,
    "circle_law": run_circle_law,
    "singularity": run_singularity,
}


def _strict(obj):
    """``obj`` with each non-finite float, such as the median of a sweep key
    with no finished item, as None: strict JSON writes it as null."""
    if isinstance(obj, dict):
        return {key: _strict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(value) for value in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def write_artifacts(cfg: ExperimentConfig, result: RunResult, out_dir: str) -> dict:
    """Write CSV/JSON artifacts plus a manifest with checksums; returns the
    manifest dict."""
    os.makedirs(out_dir, exist_ok=True)
    checksums = {}
    for name in sorted(result.artifacts):
        kind, *payload = result.artifacts[name]
        path = os.path.join(out_dir, name)
        if kind == "csv":
            header, rows = payload
            with open(path, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                for row in rows:
                    writer.writerow([_fmt(v) for v in row])
        else:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(_strict(payload[0]), fh, indent=2, sort_keys=True,
                          allow_nan=False)
                fh.write("\n")
        with open(path, "rb") as fh:
            checksums[name] = hashlib.sha256(fh.read()).hexdigest()
    manifest = {
        "experiment": cfg.experiment,
        "config_hash": cfg.config_hash(),
        "code_version": __version__,
        "files": checksums,
        "truncated": result.truncated,
        "workers": _workers(cfg.threads),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def run_experiment(cfg: ExperimentConfig, out_dir: str) -> dict:
    result = _RUNNERS[cfg.experiment](cfg)
    return write_artifacts(cfg, result, out_dir)
