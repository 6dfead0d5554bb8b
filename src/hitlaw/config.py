"""Experiment configuration: one human-editable key/value tree per run.

Files are YAML (JSON works too, being a YAML subset).  ``validate`` returns
a list of violation strings rather than raising, so the CLI can report all
problems at once; ``build_config`` turns a clean tree into typed model
objects.  Seeds are always explicit in the file: runs never pull ambient
entropy.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np
import yaml

from .base_process import BaseProcess
from .circle import required_bits
from .fiber import FiberMeasure

EXPERIMENT_KINDS = ("quenched_shift", "annealed_shift", "ledger", "entropy",
                    "circle_law", "singularity")

_SHIFT_KINDS = ("quenched_shift", "annealed_shift", "ledger", "entropy",
                "singularity")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seeds: tuple
    trials: int
    threads: int
    operation_budget: int
    output_dir: str | None
    base: BaseProcess | None
    fiber: FiberMeasure | None
    n_grid: tuple
    t_grid: tuple
    r_grid: tuple
    multipliers: tuple
    precision_bits: int | None
    jmax_factor: int
    raw: dict = field(repr=False)

    def config_hash(self) -> str:
        # the worker count changes how a run computes, never what it writes
        science = {k: v for k, v in self.raw.items() if k != "threads"}
        canon = json.dumps(science, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def load_tree(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        tree = yaml.safe_load(fh)
    if not isinstance(tree, dict):
        raise ValueError("config file must hold a key/value tree")
    return tree


def _expand_t_grid(spec) -> list:
    if isinstance(spec, dict):
        start, stop, step = spec.get("start", 0.0), spec.get("stop"), spec.get("step")
        if stop is None or step is None or step <= 0:
            return []
        count = int(round((stop - start) / step))
        return [start + i * step for i in range(count + 1)]
    if isinstance(spec, (list, tuple)):
        return [float(t) for t in spec]
    return []


def _check_matrix(mat, what: str, violations: list) -> None:
    try:
        a = np.asarray(mat, dtype=float)
    except Exception:
        violations.append(f"{what}: not a numeric matrix")
        return
    if a.ndim != 2:
        violations.append(f"{what}: not a matrix")
        return
    for i, row in enumerate(a):
        if np.any(row <= 0.0) or np.any(row >= 1.0):
            violations.append(f"{what}: row {i} has entries outside (0, 1)")
        if abs(float(row.sum()) - 1.0) > 1e-12:
            violations.append(f"{what}: row {i} not stochastic")


def _check_grid(values, what: str, violations: list, *, integer=False) -> None:
    if not values:
        violations.append(f"{what}: grid empty or malformed")
        return
    arr = list(values)
    if any(b <= a for a, b in zip(arr, arr[1:])):
        violations.append(f"{what}: grid not strictly increasing")
    if integer and any(int(v) != v or v < 1 for v in arr):
        violations.append(f"{what}: entries must be integers >= 1")


def validate(tree: dict) -> list:
    """All config violations, as strings; an empty list means runnable."""
    v: list = []
    kind = tree.get("experiment")
    if kind not in EXPERIMENT_KINDS:
        v.append(f"experiment: unknown kind {kind!r}; expected one of "
                 f"{', '.join(EXPERIMENT_KINDS)}")
        return v

    seeds = tree.get("seeds")
    if not isinstance(seeds, list) or not seeds or \
            any(not isinstance(s, int) for s in seeds):
        v.append("seeds: must be a non-empty list of integers (no ambient entropy)")
    if not isinstance(tree.get("trials", 1), int) or tree.get("trials", 1) < 1:
        v.append("trials: must be an integer >= 1")
    budget = tree.get("operation_budget", 10**8)
    if not isinstance(budget, int) or budget <= 0:
        v.append("operation_budget: must be a positive integer")
    threads = tree.get("threads", 0)
    if not isinstance(threads, int) or threads < 0:
        v.append("threads: must be an integer >= 0 (0 = all cores)")

    sweep = tree.get("sweep", {}) or {}
    if kind in _SHIFT_KINDS:
        base = tree.get("base") or {}
        bkind = base.get("kind")
        if bkind == "bernoulli":
            w = base.get("weights")
            _check_matrix([w] if w else None, "base.weights", v)
        elif bkind == "markov":
            _check_matrix(base.get("transition"), "base.transition", v)
        else:
            v.append("base.kind: must be 'bernoulli' or 'markov'")
        fiber = tree.get("fiber") or {}
        _check_matrix(fiber.get("matrix"), "fiber.matrix", v)
        _check_grid(sweep.get("n"), "sweep.n", v, integer=True)
    if kind in ("quenched_shift", "annealed_shift", "ledger"):
        _check_grid(_expand_t_grid(sweep.get("t")), "sweep.t", v)
        ts = _expand_t_grid(sweep.get("t"))
        if ts and ts[0] < 0:
            v.append("sweep.t: grid must start at t >= 0")
    if kind == "ledger" and _expand_t_grid(sweep.get("t")):
        if _expand_t_grid(sweep.get("t"))[0] <= 0:
            v.append("sweep.t: ledger needs strictly positive t values")
    if kind == "singularity":
        ns = sweep.get("n")
        if not ns or len(ns) != 1:
            v.append("sweep.n: singularity runs use exactly one word length")
        base = tree.get("base") or {}
        fiber_mat = (tree.get("fiber") or {}).get("matrix")
        symmetric = False
        try:
            w = np.asarray(base.get("weights"), dtype=float)
            m = np.asarray(fiber_mat, dtype=float)
            symmetric = (w.shape == (2,) and np.allclose(w, 0.5, atol=1e-12)
                         and m.shape == (2, 2)
                         and abs(m[0, 0] - m[1, 1]) <= 1e-12
                         and abs(m[0, 1] - m[1, 0]) <= 1e-12)
        except Exception:
            pass
        if not symmetric:
            v.append("singularity: needs the symmetric two-symbol family "
                     "(fair-coin base, fiber matrix [[p, 1-p], [1-p, p]])")

    if kind == "circle_law":
        circle = tree.get("circle", {}) or {}
        muls = circle.get("multipliers", [2, 3])
        if (not isinstance(muls, list) or len(muls) != 2
                or any(not isinstance(m, int) or m < 2 for m in muls)):
            v.append("circle.multipliers: need two integers >= 2")
        _check_grid(_expand_t_grid(sweep.get("t")), "sweep.t", v)
        rs = sweep.get("r")
        if not isinstance(rs, list) or not rs or \
                any(not 0.0 < float(r) < 0.5 for r in rs):
            v.append("sweep.r: need radii inside (0, 1/2)")
        elif any(b >= a for a, b in zip(rs, rs[1:])):
            v.append("sweep.r: radii must be strictly decreasing")
        bits = circle.get("precision_bits")
        ts = _expand_t_grid(sweep.get("t"))
        if bits is not None and rs and ts and isinstance(muls, list) and len(muls) == 2:
            horizon = math.floor(max(ts) / (2.0 * min(float(r) for r in rs)))
            need = required_bits(horizon, max(muls))
            if bits < need:
                v.append(f"circle.precision_bits: horizon {horizon} needs "
                         f">= {need} bits, got {bits}")
    return v


def build_config(tree: dict) -> ExperimentConfig:
    """Typed config from a validated tree (raises on violations)."""
    problems = validate(tree)
    if problems:
        raise ValueError("invalid config: " + "; ".join(problems))
    kind = tree["experiment"]
    sweep = tree.get("sweep", {}) or {}
    base = fiber = None
    if kind in _SHIFT_KINDS:
        b = tree["base"]
        base = (BaseProcess.bernoulli(b["weights"]) if b["kind"] == "bernoulli"
                else BaseProcess.markov(b["transition"], b.get("stationary")))
        fiber = FiberMeasure(np.asarray(tree["fiber"]["matrix"], dtype=float))
    circle = tree.get("circle", {}) or {}
    ledger_opts = tree.get("ledger", {}) or {}
    return ExperimentConfig(
        experiment=kind,
        seeds=tuple(tree["seeds"]),
        trials=int(tree.get("trials", 1)),
        threads=int(tree.get("threads", 0)),
        operation_budget=int(tree.get("operation_budget", 10**8)),
        output_dir=tree.get("output_dir"),
        base=base,
        fiber=fiber,
        n_grid=tuple(int(n) for n in sweep.get("n", ())),
        t_grid=tuple(_expand_t_grid(sweep.get("t"))),
        r_grid=tuple(float(r) for r in sweep.get("r", ())),
        multipliers=tuple(circle.get("multipliers", (2, 3))),
        precision_bits=circle.get("precision_bits"),
        jmax_factor=int(ledger_opts.get("jmax_factor", 4)),
        raw=tree,
    )
