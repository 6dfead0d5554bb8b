"""Experiment driver: one table of experiment kinds, one parallel dispatch,
artifact files.

``KINDS`` maps each kind to ``(items, price, worker, reduce)``: the run's
work items ``(cfg, *key)`` in a fixed order; an item's priced parts (see
``_run_item``), or None for a kind not yet priced; the worker, which
computes an item's admitted parts and returns ``(key, payload)`` pairs;
and the reducer from all pairs, in item order, to the CSV rows (the shift
kinds generate theirs from the payloads as ``write_artifacts`` writes them)
and JSON report.  ``run_experiment`` runs every item through ``_run_item``
in one dispatch to directly forked workers (``_parallel_map``), which claim
item indices along a pipe; results merge in item order, so the emitted
bytes do not depend on the worker count.  Floats are written with 17
significant digits, which round-trips doubles exactly.
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import json
import math
import os
import pickle
import select

import numpy as np

from . import __version__
from .base_process import BaseProcess, make_rng, sample_window
from .circle import CircleRDS, quenched_law_statistic
from .config import ExperimentConfig
from .fiber import Pattern, density_ratio, marginal_cylinder_measure, sample_fiber_prefix
from .ledger import (_ledger_price, entropy_slopes, gap_schedule,
                     ledger_checkpoints, verify_sandwich)
from .stats import _rescaled_k, ks_to_exponential, trend_report
from .survival import _windows_survival

SURVIVAL_COLUMNS = ("seed", "t", "k", "survival", "exp_minus_t", "abs_err")
ANNEALED_COLUMNS = ("t", "k", "mean_survival", "stderr", "exp_minus_t", "abs_err")
LEDGER_COLUMNS = ("seed", "n", "t", "g", "k", "M", "G", "H", "K", "delta_sum",
                  "lemma_lhs", "lemma_rhs", "sandwich_gap")
CIRCLE_COLUMNS = ("seed", "r", "t", "empirical_survival", "exp_minus_t",
                  "Delta_r", "trials", "censored_count")
ENTROPY_COLUMNS = ("n", "smb_mean", "smb_stderr", "ow_mean", "ow_stderr",
                   "censored", "samples")
SINGULARITY_COLUMNS = ("draw", "match_count", "log_ratio")
# CSV lines formatted and written a chunk at a time (``write_artifacts``)
_WRITE_ROWS = 256


def _workers(threads: int) -> int:
    """Effective worker count: ``threads``, or the usable cores (CPU
    affinity) when it is 0."""
    return threads or len(os.sched_getaffinity(0))


def _one_blas_thread():
    """A forked worker runs numpy's OpenBLAS, if any, on one thread, as the
    workers share out the cores; setting the count starts a thread server
    whose idle thread would spin a core for 0.1 s, so stop it.  The CLI
    calls it for a one-worker run too; ``run_experiment`` in one process
    never does, so a library caller's count stands."""
    libs = os.path.join(np.__path__[0], os.pardir, "numpy.libs")
    for name in os.listdir(libs) if os.path.isdir(libs) else ():
        lib = "openblas" in name and ctypes.CDLL(os.path.join(libs, name))
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            lib.scipy_openblas_set_num_threads64_(1)
            lib.blas_thread_shutdown_()


def _serve(fn, items, token, out):
    """A forked worker's loop (see ``_parallel_map``).  It leaves only through
    ``os._exit``, so the parent's ``finally`` blocks, ``atexit`` hooks and
    unflushed stdio never run here."""
    try:
        _one_blas_thread()
        while True:
            # the token is the next index: one claimant holds it at a time, and
            # an 8-byte pipe read is whole, as the pipe holds one message only
            i = int.from_bytes(os.read(token[0], 8), "little")
            os.write(token[1], (i + 1).to_bytes(8, "little"))
            if i >= len(items):
                os._exit(0)
            try:
                msg = pickle.dumps((i, True, fn(items[i])), pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                import traceback   # loaded on the error path only
                exc.add_note("".join(traceback.format_exception(exc)))
                msg = pickle.dumps((i, False, exc), pickle.HIGHEST_PROTOCOL)
            msg = memoryview(len(msg).to_bytes(8, "little") + msg)
            while msg:
                msg = msg[os.write(out, msg):]
    finally:
        os._exit(1)   # only an error gets here


def _parallel_map(fn, items, threads: int):
    """Order-preserving map; thread count never changes the results, only
    how they are computed.  One worker or one item runs in this process,
    with OpenBLAS at whatever thread count the caller's process has.  Else
    min(threads, items) forked workers inherit ``fn`` and ``items``, so
    nothing is pickled to them.  Each claims the next index by reading it,
    as 8 bytes, from a shared pipe and writing back the one after, and sends
    ``(index, ok, result or exception)`` on its own pipe as a length-prefixed
    pickle.
    The parent polls those pipes and raises a worker's exception, with its
    traceback as a note, or if a worker dies or leaves a claimed index
    unanswered; it reaps every worker on every path."""
    threads = _workers(threads)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    token = os.pipe()
    os.write(token[1], (0).to_bytes(8, "little"))
    workers, results, poller = {}, {}, select.poll()
    try:
        for _ in range(min(threads, len(items))):
            fd, out = os.pipe()
            try:
                if (pid := os.fork()) == 0:
                    _serve(fn, items, token, out)
            except BaseException:
                os.close(fd)   # a fork that failed leaves no worker to own it
                raise
            finally:
                os.close(out)
            workers[fd] = (pid, bytearray())
            poller.register(fd, select.POLLIN)
        while workers:
            for fd, _ in poller.poll():
                pid, buf = workers[fd]
                buf += (chunk := os.read(fd, 1 << 16))
                while len(buf) >= 8 and len(buf) >= (
                        end := 8 + int.from_bytes(buf[:8], "little")):
                    i, ok, value = pickle.loads(buf[8:end])
                    del buf[:end]
                    if not ok:
                        raise value
                    results[i] = value
                if not chunk:
                    poller.unregister(fd)
                    os.close(fd)
                    del workers[fd]
                    if code := os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]):
                        raise ChildProcessError(f"a worker exited with code {code}")
        if len(results) < len(items):
            raise ChildProcessError("a worker exited with an item claimed but unanswered")
        return [results[i] for i in range(len(items))]
    finally:
        for pid, _ in workers.values():
            import signal   # only a failed map leaves a worker to kill
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fd in (*workers, *token):
            os.close(fd)


def _items(cfg: ExperimentConfig, *grids) -> list:
    """One work item ``(cfg, *key)`` per key of the grids' product."""
    return [(cfg, *key) for key in itertools.product(*grids)]


def _chunks(cfg: ExperimentConfig, keys) -> list:
    """``keys`` (a range or tuple) as one contiguous chunk per worker, and
    at most one per key.  Each key keeps its own noise keys, and the kernel
    treats its columns independently, so the split changes no value."""
    pieces = min(_workers(cfg.threads), len(keys))
    bounds = [len(keys) * i // pieces for i in range(pieces + 1)]
    return [keys[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _shift_items(cfg: ExperimentConfig) -> list:
    """Chunks ``(cfg, n, keys)`` of one word length, one per worker:
    quenched seeds or annealed windows, which the kernel cuts into calls."""
    keys = cfg.seeds if cfg.experiment == "quenched_shift" else range(cfg.trials)
    return _items(cfg, cfg.n_grid, _chunks(cfg, keys))


def _draw_pattern(cfg: ExperimentConfig, seed, n: int) -> Pattern:
    """A marginal-law target word: fresh noise window plus one fiber draw."""
    pat_window = sample_window(cfg.base, [seed, 1], n)
    xs = sample_fiber_prefix(cfg.fiber, pat_window, n, make_rng([seed, 2]))
    return Pattern(tuple(xs), cfg.fiber.fiber_alphabet_size)


def _sweep_report(done, keys, xs, per: str, label, stat: str):
    """Group finished sweep items, keyed ``(sweep key, subkey)`` with
    payloads ``(rows, stat)``, by sweep key: each key's rows, concatenated
    in item order, and a report with its per-item ``stat`` by subkey and
    their median.  With three keys or more it adds the trend of the
    medians, fitted over the keys that finished an item; when fewer than
    three did, the trend is null and ``trend_skipped`` says why."""
    rows = {key: [] for key in keys}
    stats = {key: {} for key in keys}
    for (key, sub), (item_rows, item_stat) in done:
        rows[key].extend(item_rows)
        stats[key][sub] = item_stat
    per_key, fitted = {}, []
    for key, x in zip(keys, xs):
        values = sorted(stats[key].values())
        # np.median's (a + b) / 2 of the middle pair, which is the one middle
        # value for an odd count, without the numpy.ma import np.median costs
        mid = len(values) // 2
        median = float(values[mid] + values[~mid]) / 2 if values else float("nan")
        per_key[label(key)] = {stat: stats[key], f"median_{stat}": median}
        if values:
            fitted.append((x, median))
    report: dict = {per: per_key}
    if len(keys) >= 3 and len(fitted) >= 3:
        fit_xs, medians = zip(*fitted)
        report["trend"] = trend_report(medians, xs=fit_xs).to_json_dict()
    elif len(keys) >= 3:
        report["trend"] = None
        report["trend_skipped"] = (f"{len(fitted)} of {len(keys)} sweep keys "
                                   "finished an item; a trend needs 3")
    return rows, report


# ----------------------------------------------------------------------
# quenched_shift and annealed_shift


def _price_shift(args):
    """Per word of a chunk, ``(label, price, columns)``: n states times
    k(t_max) + n - 1 reads per column (none at k(t_max) = 0), for a quenched
    seed's one column or an annealed word's ``cfg.trials``, which every chunk
    prices alike.  A column is ``(key, word, k(t) row, noise key)``."""
    cfg, n, keys = args
    if cfg.experiment == "quenched_shift":
        groups = [(f"quenched n={n} seed={s}", s, 1, [(s, [s, 0])]) for s in keys]
    else:
        s = cfg.seeds[0]
        groups = [(f"annealed n={n}", s, cfg.trials, [(w, [s, 0, w]) for w in keys])]
    for label, seed, copies, columns in groups:
        pat = _draw_pattern(cfg, seed, n)
        mu = marginal_cylinder_measure(cfg.fiber, cfg.base, pat)
        ks = [_rescaled_k(t, mu) for t in cfg.t_grid]
        yield (label, copies * n * (ks[-1] + n - 1) if ks[-1] else 0,
               [(key, pat, ks, noise) for key, noise in columns])


def _shift_chunk(args, parts):
    """Exact rescaled survival of a chunk's admitted columns, per column
    ``((n, key), (ks, values))``; the kernel draws each column's window as
    it reads it, and a chunk with no admitted column calls no kernel."""
    cfg, n, _ = args
    columns = [column for part in parts for column in part]
    if not columns:
        return []
    values = _windows_survival(cfg.fiber, (
        (pat, ks, sample_window(cfg.base, noise, n)) for _, pat, ks, noise in columns))
    return [((n, key), (ks, row)) for (key, _, ks, _), row in zip(columns, values)]


def _reduce_quenched(cfg: ExperimentConfig, done) -> dict:
    # the report groups each word length's payloads in item order, and its
    # rows are generated from them as the file is written
    curves = [((n, seed), ([(seed, ks, values)], ks_to_exponential(values, cfg.t_grid)))
              for (n, seed), (ks, values) in done]
    payloads, report = _sweep_report(curves, cfg.n_grid, cfg.n_grid, "per_n", str,
                                     "sup_abs_err")
    artifacts = {f"survival_n{n}.csv": ("csv", SURVIVAL_COLUMNS, (
                     (seed, t, int(k), v, math.exp(-t), abs(v - math.exp(-t)))
                     for seed, ks, values in payloads[n]
                     for t, k, v in zip(cfg.t_grid, ks, values)))
                 for n in cfg.n_grid}
    artifacts["report.json"] = ("json", report)
    return artifacts


def _reduce_annealed(cfg: ExperimentConfig, done) -> dict:
    artifacts: dict = {}
    per_n: dict = {}
    for n in cfg.n_grid:
        finished = [payload for (m, _), payload in done if m == n]
        rows = []
        if finished:
            # one word, so one k; windows on the fast axis as the kernel lays
            # them out, since the mean's last digits follow the memory layout
            values = np.stack([v for _, v in finished], axis=1).T
            mean = values.mean(axis=0)
            windows = len(finished)
            stderr = (values.std(axis=0, ddof=1) / math.sqrt(windows) if windows > 1
                      else np.zeros(len(cfg.t_grid)))
            rows = ((t, int(k), m, se, math.exp(-t), abs(m - math.exp(-t)))
                    for t, k, m, se in zip(cfg.t_grid, finished[0][0], mean, stderr))
            per_n[str(n)] = {"sup_abs_err": ks_to_exponential(mean, cfg.t_grid),
                             "windows": windows}
        artifacts[f"annealed_n{n}.csv"] = ("csv", ANNEALED_COLUMNS, rows)
    artifacts["report.json"] = ("json", {"per_n": per_n})
    return artifacts


# ----------------------------------------------------------------------
# ledger


def _price_ledger(args):
    """Per t of one (n, seed), ``(label, price, (word, g, (t, k, jmax)))``
    with gap g = min(gap schedule, k), or price None at k = 0."""
    cfg, n, seed = args
    pat = _draw_pattern(cfg, seed, n)
    mu = marginal_cylinder_measure(cfg.fiber, cfg.base, pat)
    gap = gap_schedule(n, cfg.fiber.h0)
    for t in cfg.t_grid:
        k = _rescaled_k(t, mu)
        g, jmax = min(gap, k), cfg.jmax_factor * k
        yield (f"ledger n={n} t={t} seed={seed}",
               _ledger_price(n, k, g, jmax) if k else None, (pat, g, (t, k, jmax)))


def _ledger_item(args, parts):
    """The admitted t's of one (n, seed) share the word and window, and
    those of one gap share one sweep (``ledger_checkpoints``), at the
    largest of them; the first item dispatched runs the sandwich check, cut
    t's or not, so the parent draws none."""
    cfg, n, seed = args
    out, groups = [], {}
    if (n, seed) == (cfg.n_grid[-1], cfg.seeds[0]):
        rng = make_rng(cfg.seeds[0])
        out.append(("sandwich", all(verify_sandwich(
            rng.uniform(0, eps, size=(100, 50)), eps) for eps in (0.01, 0.1, 0.5))))
    for pat, g, checkpoint in parts:
        groups.setdefault(g, []).append(checkpoint)
    if parts:
        window = sample_window(cfg.base, [seed, 0], n)
    for g, checkpoints in groups.items():
        for led in ledger_checkpoints(cfg.fiber, window, pat, g, checkpoints):
            row = (seed, *(getattr(led, name) for name in LEDGER_COLUMNS[1:]))
            out.append(((n, led.t, seed), row))
    return out


def _reduce_ledger(cfg: ExperimentConfig, done) -> dict:
    # rows in (n, t, seed) order, whatever order the items ran in; the n
    # and t grids increase, the seeds keep their listed order
    sandwich_ok = all(ok for key, ok in done if key == "sandwich")
    done = sorted((out for out in done if out[0] != "sandwich"),
                  key=lambda out: (*out[0][:2], cfg.seeds.index(out[0][2])))
    report = {
        "rows": len(done),
        # ErrorLedger raises on a violated bound, so every written row holds both
        "bound_violations": 0,
        "sandwich_sweep_ok": bool(sandwich_ok),
    }
    return {"ledger.csv": ("csv", LEDGER_COLUMNS, [row for _, row in done]),
            "report.json": ("json", report)}


# ----------------------------------------------------------------------
# entropy


def _stderr(values: np.ndarray) -> float:
    """Standard error of the mean, nan for fewer than two values."""
    if values.size < 2:
        return float("nan")
    return float(values.std(ddof=1) / math.sqrt(values.size))


def _entropy_item(args):
    """One word length's slope means; more than half its return-time scans
    censored widens the run's uncertainty."""
    cfg, n = args
    smb, ow, censored = entropy_slopes(cfg.fiber, cfg.base, n, cfg.trials,
                                       seed=cfg.seeds[0])
    row = (n, float(smb.mean()), _stderr(smb),
           float(ow.mean()) if ow.size else float("nan"), _stderr(ow),
           censored, cfg.trials)
    return [((n,), (row, censored > cfg.trials / 2))]


def _reduce_entropy(cfg: ExperimentConfig, done) -> dict:
    rows = [row for _, (row, _) in done]
    top = next(row for row in rows if row[0] == max(cfg.n_grid))
    report = {
        "h_hat": top[1],
        "h0": cfg.fiber.h0,
        "ow_slope_at_largest_n": top[3],
        "widened_uncertainty": bool(any(widened for _, (_, widened) in done)),
    }
    return {"entropy.csv": ("csv", ENTROPY_COLUMNS, rows),
            "entropy.json": ("json", report)}


# ----------------------------------------------------------------------
# circle_law


def _circle_item(args):
    cfg, r, seed = args
    rds = CircleRDS(multipliers=cfg.multipliers)
    bits = sample_window(BaseProcess.bernoulli([0.5, 0.5]), [seed, 0], 1)
    y = float(make_rng([seed, 1]).random())
    out = quenched_law_statistic(rds, bits, y, r, cfg.t_grid,
                                 trials=cfg.trials, seed=[seed, 2])
    rows = [(seed, r, t, s, math.exp(-t), out.delta_r, out.trials,
             out.censored_count)
            for t, s in zip(out.t_grid, out.survival)]
    return [((r, seed), (rows, out.delta_r))]


def _reduce_circle(cfg: ExperimentConfig, done) -> dict:
    rows, report = _sweep_report(done, cfg.r_grid,
                                 [-math.log10(r) for r in cfg.r_grid],
                                 "per_r", repr, "delta_r")
    # standing model facts the run relies on but does not re-estimate
    report["assumptions"] = ("sample measures are Lebesgue for every noise "
                             "sequence (integer multipliers preserve Lebesgue); "
                             "correlation decay for Lipschitz observables is "
                             "classical for expanding maps and is not "
                             "re-measured here")
    return {"circle.csv": ("csv", CIRCLE_COLUMNS,
                           [row for r in cfg.r_grid for row in rows[r]]),
            "report.json": ("json", report)}


# ----------------------------------------------------------------------
# singularity


def _singularity_chunk(args):
    cfg, draws = args
    n = cfg.n_grid[0]
    seed = cfg.seeds[0]
    rows = []
    for i in draws:
        window = sample_window(cfg.base, [seed, i, 0], n)
        # the marginal of the symmetric family is the fair coin, so a
        # marginal-law word is a uniform bit string
        word = Pattern(tuple(make_rng([seed, i, 1]).integers(0, 2, size=n)), 2)
        out = density_ratio(cfg.fiber, cfg.base, window, word)
        rows.append((i, out.match_count, out.log_ratio))
    return [((draws,), rows)]


def _reduce_singularity(cfg: ExperimentConfig, done) -> dict:
    rows = [row for _, chunk in done for row in chunk]
    logs = np.asarray([row[2] for row in rows])
    report = {
        "n": cfg.n_grid[0],
        "draws": cfg.trials,
        "fraction_abs_log_ratio_ge_10": float((np.abs(logs) >= 10.0).mean()),
        "mean_log_ratio": float(logs.mean()),
        "std_log_ratio": float(logs.std(ddof=1)) if logs.size > 1 else float("nan"),
    }
    return {"singularity.csv": ("csv", SINGULARITY_COLUMNS, rows),
            "singularity.json": ("json", report)}


# kind -> (items, price, worker, reduce), in config.EXPERIMENT_KINDS order
KINDS = {
    "quenched_shift": (_shift_items, _price_shift, _shift_chunk, _reduce_quenched),
    "annealed_shift": (_shift_items, _price_shift, _shift_chunk, _reduce_annealed),
    # heaviest word length first; the reducer restores (n, t, seed) order
    "ledger": (lambda cfg: _items(cfg, cfg.n_grid[::-1], cfg.seeds),
               _price_ledger, _ledger_item, _reduce_ledger),
    "entropy": (lambda cfg: _items(cfg, cfg.n_grid),
                None, _entropy_item, _reduce_entropy),
    "circle_law": (lambda cfg: _items(cfg, cfg.r_grid, cfg.seeds),
                   None, _circle_item, _reduce_circle),
    "singularity": (lambda cfg: _items(cfg, _chunks(cfg, range(cfg.trials))),
                    None, _singularity_chunk, _reduce_singularity),
}


def _run_item(item) -> tuple:
    """One work item, in whichever process runs it: ``(markers, pairs)``.
    The kind's price function draws only the item's words and yields
    ``(label, price, part)`` per priced unit; a part priced over
    ``operation_budget`` column-state reads (kernel column-reads times
    automaton states), or None at k = 0, gets a marker, the rest the worker."""
    cfg = item[0]
    _, price, worker, _ = KINDS[cfg.experiment]
    if price is None:
        return [], worker(item)
    budget, markers, admitted = cfg.operation_budget, [], []
    for label, cost, part in price(item):
        if cost is None:
            markers.append(f"{label}: k=0, t too small")
        elif cost > budget:
            markers.append(f"{label}: needs {cost} column-state reads, "
                           f"over the budget {budget}")
        else:
            admitted.append(part)
    return markers, worker(item, admitted)


def _strict(obj):
    """``obj`` with each non-finite float, such as the median of a sweep key
    with no finished item, as None: strict JSON writes it as null."""
    if isinstance(obj, dict):
        return {key: _strict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(value) for value in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _csv_text(header, rows):
    """The CSV text of ``rows`` in chunks of ``_WRITE_ROWS`` lines, the header
    line first.  Floats are in round-trip form; no field holds a comma, quote
    or newline, so no field needs CSV quoting.  One %-format per tuple of
    value types formats a whole row."""
    lines, fmts = [",".join(header) + "\n"], {}
    for row in rows:
        # built at its final size: ``tuple(map(...))`` shrinks a larger
        # tuple, so each one freed waits on a free list that no later one
        # takes from, up to 2,000 (176 KiB for six columns)
        types = (*map(type, row),)
        if types not in fmts:
            fmts[types] = ",".join("%.17g" if issubclass(t, (float, np.floating))
                                   else "%s" for t in types) + "\n"
        lines.append(fmts[types] % row)
        if len(lines) == _WRITE_ROWS:
            yield "".join(lines)
            lines = []
    if lines:
        yield "".join(lines)


def _write_text(path: str, chunks) -> str:
    """Write the text ``chunks`` to ``path`` as UTF-8, one write each; returns
    the SHA-256 of the bytes written, so the file is never read back."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in chunks:
            data = chunk.encode()
            fh.write(data)
            digest.update(data)
    return digest.hexdigest()


def write_artifacts(cfg: ExperimentConfig, artifacts: dict, truncated: list,
                    out_dir: str) -> dict:
    """Write the artifacts (filename -> ``("csv", header, rows)`` or
    ``("json", obj)``) plus a manifest with checksums and the truncation
    markers; returns the manifest dict.  ``rows`` may be any iterable, a
    generator included: rows are formatted and written ``_WRITE_ROWS`` at a
    time, so no file's whole text is held, and each checksum is the SHA-256
    of the bytes as they are written."""
    os.makedirs(out_dir, exist_ok=True)
    checksums = {}
    for name in sorted(artifacts):
        kind, *payload = artifacts[name]
        chunks = (_csv_text(*payload) if kind == "csv" else
                  [json.dumps(_strict(payload[0]), indent=2, sort_keys=True,
                              allow_nan=False) + "\n"])
        checksums[name] = _write_text(os.path.join(out_dir, name), chunks)
    manifest = {
        "experiment": cfg.experiment,
        "config_hash": cfg.config_hash(),
        "code_version": __version__,
        "files": checksums,
        "truncated": truncated,
        "workers": _workers(cfg.threads),
    }
    _write_text(os.path.join(out_dir, "manifest.json"),
                [json.dumps(manifest, indent=2, sort_keys=True) + "\n"])
    return manifest


def run_experiment(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Run every work item of the config's kind in one dispatch, reduce the
    finished ones and write the artifacts; returns the manifest dict."""
    items, _, _, reduce = KINDS[cfg.experiment]
    results = _parallel_map(_run_item, items(cfg), cfg.threads)
    truncated = sorted({marker for markers, _ in results for marker in markers})
    done = [pair for _, pairs in results for pair in pairs]
    return write_artifacts(cfg, reduce(cfg, done), truncated, out_dir)
