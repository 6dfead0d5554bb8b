"""Experiment configuration: one human-editable key/value tree per run.

Files are YAML (JSON works too, being a YAML subset).  One pass reads a
tree: it checks the shape of each key and builds the model objects a run
uses (``BaseProcess``, ``FiberMeasure``, ``CircleRDS``, ``BallTarget``),
turning each constructor's error into a violation string that names the
key.  A model rule therefore lives only in its constructor, or in the
module that enforces it at run time.  ``validate`` returns the pass's
violations, all at once and without raising, so the CLI can report every
problem; ``build_config`` returns its typed config, or raises with them.
Seeds are always explicit in the file: runs never pull ambient entropy.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .base_process import BaseProcess
from .circle import MIN_LAW_TRIALS, BallTarget, CircleRDS
from .fiber import FiberMeasure, _check_base_alphabet, _is_binary_symmetric
from .ledger import JMAX_FACTOR
from .stats import _check_t_grid, _rescaled_ks

EXPERIMENT_KINDS = ("quenched_shift", "annealed_shift", "ledger", "entropy",
                    "circle_law", "singularity")

_SHIFT_KINDS = ("quenched_shift", "annealed_shift", "ledger", "entropy",
                "singularity")

# Most points a {start, stop, step} grid may expand to.
_MAX_GRID = 10**6


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
    jmax_factor: int

    def config_hash(self) -> str:
        # the parsed science inputs: the worker count and the output
        # directory change how and where a run computes, never what it writes
        science = {f.name: getattr(self, f.name) for f in fields(self)
                   if f.name not in ("threads", "output_dir")}
        # arrays, then the model objects by their fields alone: an object
        # may cache what it derives from them, once it has drawn noise
        canon = json.dumps(science, sort_keys=True, separators=(",", ":"),
                           default=lambda x: x.tolist() if isinstance(x, np.ndarray)
                           else {f.name: getattr(x, f.name) for f in fields(x)})
        return hashlib.sha256(canon.encode()).hexdigest()


def load_tree(path: str) -> dict:
    import yaml   # only a file needs its parser; a caller with a tree skips it
    with open(path, "r", encoding="utf-8") as fh:
        tree = yaml.safe_load(fh)
    if not isinstance(tree, dict):
        raise ValueError("config file must hold a key/value tree")
    return tree


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _real(x) -> float | None:
    """``x`` as a float when it is a finite number, else None."""
    if isinstance(x, (int, float)) and not isinstance(x, bool) \
            and abs(x) <= sys.float_info.max:
        return float(x)
    return None


def _expand_t_grid(spec):
    """A ``sweep.t`` list as is, or {start, stop, step} spelled out to stop."""
    if not isinstance(spec, dict):
        return spec
    start, stop, step = (_real(spec.get("start", 0.0)), _real(spec.get("stop")),
                         _real(spec.get("step")))
    if None in (start, stop, step) or step <= 0 or \
            not (stop - start) / step < _MAX_GRID:
        return None
    points = math.floor((stop - start) / step + 1e-9) + 1   # 1e-9: float error
    return [start + i * step for i in range(points)]


def _grid(values, what: str, v: list, integer=False, sign=1, rule=None) -> tuple:
    """A grid of finite numbers, or of integers >= 1, that the ``rule``
    function accepts, by default one that strictly increases (``sign`` -1:
    decreases); () after appending why not to ``v``."""
    if not isinstance(values, list) or (not values and rule is None):
        v.append(f"{what}: grid missing, malformed or over {_MAX_GRID} points")
        return ()
    values = [x if _is_int(x) and x >= 1 else None for x in values] if integer \
        else [_real(x) for x in values]
    if None in values:
        v.append(f"{what}: entries must be "
                 + ("integers >= 1" if integer else "finite numbers"))
    elif rule is not None:
        checked = _attempt(v, what, rule, values)
        return () if checked is None else tuple(checked.tolist())
    elif any(sign * (b - a) <= 0 for a, b in zip(values, values[1:])):
        v.append(f"{what}: grid not strictly {'in' if sign > 0 else 'de'}creasing")
    else:
        return tuple(values)
    return ()


def _section(tree: dict, key: str, v: list) -> dict:
    sub = tree.get(key) or {}
    if isinstance(sub, dict):
        return sub
    v.append(f"{key}: must be a key/value tree")
    return {}


def _attempt(v: list, key: str, make, *args):
    """``make(*args)``, or None after appending its error to ``v``."""
    try:
        return make(*args)
    except (ValueError, TypeError, OverflowError) as exc:
        v.append(f"{key}: {exc}")
        return None


def _parse(tree: dict) -> tuple:
    """The one pass over a tree: ``(config, [])`` when it is runnable, else
    ``(None, violations)``."""
    kind = tree.get("experiment")
    if kind not in EXPERIMENT_KINDS:
        return None, [f"experiment: unknown kind {kind!r}; expected one of "
                      f"{', '.join(EXPERIMENT_KINDS)}"]
    v: list = []
    seeds = tree.get("seeds")
    if not isinstance(seeds, list) or not seeds or \
            any(not _is_int(s) or s < 0 for s in seeds):
        v.append("seeds: must be a non-empty list of integers >= 0 "
                 "(no ambient entropy)")
    elif len(set(seeds)) < len(seeds):
        # a repeated seed repeats its rows but keys one report entry
        v.append("seeds: must be distinct")
    trials = tree.get("trials", 1)
    if not _is_int(trials) or trials < 1:
        v.append("trials: must be an integer >= 1")
    elif kind == "circle_law" and trials < MIN_LAW_TRIALS:
        v.append(f"trials: circle_law needs at least {MIN_LAW_TRIALS}")
    budget = tree.get("operation_budget", 10**8)
    # every price is at least its k, so a budget below 2**63 keeps every
    # admitted k inside the kernels' int64
    if not _is_int(budget) or not 0 < budget < 2**63:
        v.append("operation_budget: must be an integer in [1, 2**63 - 1]")
    threads = tree.get("threads", 0)
    if not _is_int(threads) or threads < 0:
        v.append("threads: must be an integer >= 0 (0 = all cores)")
    output_dir = tree.get("output_dir")
    if not isinstance(output_dir, (str, type(None))):
        v.append("output_dir: must be a path")

    sweep = _section(tree, "sweep", v)
    base = fiber = None
    n_grid = t_grid = r_grid = ()
    if kind in _SHIFT_KINDS:
        b = _section(tree, "base", v)
        base = _attempt(v, "base", BaseProcess, b.get("kind"), b.get("weights"),
                        b.get("transition"), b.get("stationary"))
        fiber = _attempt(v, "fiber.matrix", FiberMeasure,
                         _section(tree, "fiber", v).get("matrix"))
        if base and fiber:
            _attempt(v, "fiber.matrix", _check_base_alphabet, fiber, base)
        n_grid = _grid(sweep.get("n"), "sweep.n", v, integer=True)
    if kind == "singularity":
        if len(n_grid) > 1:
            v.append("sweep.n: singularity runs use exactly one word length")
        if base and fiber and not _is_binary_symmetric(fiber, base):
            v.append("base, fiber.matrix: singularity needs a fair-coin base "
                     "and a fiber matrix [[p, 1-p], [1-p, p]]")
    if kind in ("quenched_shift", "annealed_shift", "ledger", "circle_law"):
        t_grid = _grid(_expand_t_grid(sweep.get("t")), "sweep.t", v,
                       rule=_check_t_grid)
        if kind == "ledger" and t_grid and t_grid[0] <= 0:
            v.append("sweep.t: ledger needs strictly positive t values")
    ledger = _section(tree, "ledger", v) if kind == "ledger" else {}
    jmax_factor = ledger.get("jmax_factor", JMAX_FACTOR)
    # ledger_checkpoints needs jmax = jmax_factor * k to cover k, hence g <= k
    if not _is_int(jmax_factor) or jmax_factor < 1:
        v.append("ledger.jmax_factor: must be an integer >= 1")

    rds = CircleRDS()
    if kind == "circle_law":
        circle = _section(tree, "circle", v)
        rds = _attempt(v, "circle.multipliers", CircleRDS,
                       circle.get("multipliers", (2, 3)))
        r_grid = _grid(sweep.get("r"), "sweep.r", v, sign=-1)
        for r in r_grid:
            target = _attempt(v, "sweep.r", BallTarget, 0.0, r)
            if target and t_grid:   # the scan's int64 k row
                _attempt(v, "sweep.r", _rescaled_ks, t_grid, target.measure)
    if v:
        return None, v
    return ExperimentConfig(
        experiment=kind, seeds=tuple(seeds), trials=trials, threads=threads,
        operation_budget=budget, output_dir=output_dir, base=base, fiber=fiber,
        n_grid=n_grid, t_grid=t_grid, r_grid=r_grid,
        multipliers=rds.multipliers, jmax_factor=jmax_factor), []


def validate(tree: dict) -> list:
    """All config violations, as strings; an empty list means runnable."""
    return _parse(tree)[1]


def build_config(tree: dict) -> ExperimentConfig:
    """Typed config from a valid tree (raises ValueError on violations)."""
    cfg, problems = _parse(tree)
    if problems:
        raise ValueError("invalid config: " + "; ".join(problems))
    return cfg
