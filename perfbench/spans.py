"""Spans around the layer calls of ``hitlaw.experiments``, and the
per-layer metrics derived from them.

The traced run wraps, in the ``hitlaw.experiments`` namespace, every public
function that module imports from another ``hitlaw`` module, plus its own
``write_artifacts``; the runner code itself is traced unedited.  A span is
named ``<module>.<function>`` and records its start, end, parent and the
work item it belongs to.  Work counters are computed from each call's
arguments and return value only, so two traced runs of the same inputs
give the same counts.
"""

from __future__ import annotations

import inspect
import itertools
import os
import time
from contextlib import contextmanager

CIRCLE_RADII = {0.01: "r1e-2", 0.001: "r1e-3"}


class Tracer:
    """Spans kept in memory, in the order they were opened."""

    def __init__(self):
        self.spans: list = []
        self.item = None
        self._stack: list = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "item": self.item, "start": time.perf_counter() - self._t0,
               "end": None, "attrs": attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._stack.pop()


def _survival_work(args, curve) -> dict:
    # the recursion reads coordinates 1 .. k_max + n - 1 for one column
    k_max = int(curve.k_values.max())
    return {"column_steps": k_max + args["pat"].n - 1 if k_max else 0}


def _ledger_work(args, led) -> dict:
    # survival columns 0..k+g over n-1+jmax reads; return columns 1..k over
    # jmax reads; delayed-mask columns 1..k over g+jmax reads
    k, g, n, jmax = led.k, led.g, led.n, led.jmax
    return {"column_steps": (k + g + 1) * (n - 1 + jmax) + k * jmax
            + k * (g + jmax)}


def _circle_work(args, res) -> dict:
    from hitlaw.circle import required_bits
    k_max = int(res.k_values[-1])
    return {"r": float(args["r"]), "trials": int(res.trials),
            "trial_step_cap": int(res.trials) * k_max,
            "precision_bits": required_bits(k_max, args["rds"].max_multiplier),
            "censored": int(res.censored_count)}


def _artifact_work(args, manifest) -> dict:
    return {"artifact_bytes": sum(
        os.path.getsize(os.path.join(args["out_dir"], name))
        for name in manifest["files"])}


_WORK = {
    "sample_window": lambda args, _: {"symbols": int(args["length"])},
    "rescaled_survival": _survival_work,
    "compute_ledger": _ledger_work,
    "quenched_law_statistic": _circle_work,
    "write_artifacts": _artifact_work,
}


def _wrap(tracer: Tracer, name: str, fn, work):
    sig = inspect.signature(fn)

    def traced(*args, **kwargs):
        with tracer.span(name) as rec:
            out = fn(*args, **kwargs)
        if work is not None:
            rec["attrs"].update(work(sig.bind(*args, **kwargs).arguments, out))
        return out
    return traced


def instrument(tracer: Tracer, experiments) -> None:
    """Wrap the layer calls of the ``hitlaw.experiments`` module in spans,
    and run its work items serially, one ``experiments.item`` span each."""
    for name, fn in list(vars(experiments).items()):
        if not inspect.isfunction(fn) or name.startswith("_"):
            continue
        owner = fn.__module__
        if not owner.startswith("hitlaw."):
            continue
        if owner == experiments.__name__ and name != "write_artifacts":
            continue
        layer = owner.rsplit(".", 1)[1]
        setattr(experiments, name,
                _wrap(tracer, f"{layer}.{name}", fn, _WORK.get(name)))

    if not hasattr(experiments, "_parallel_map"):
        return   # items then go unattributed; every layer span still counts

    item_ids = itertools.count()

    def serial_map(fn, items, threads):
        out = []
        for item in items:
            tracer.item = next(item_ids)
            key = list(item[1:]) if isinstance(item, tuple) else None
            with tracer.span("experiments.item", key=repr(key)):
                out.append(fn(item))
        tracer.item = None
        return out
    experiments._parallel_map = serial_map


def span_cost(samples: int = 2000) -> float:
    """Seconds that wrapping adds to one call, measured on a no-op."""
    probe = _wrap(Tracer(), "probe", lambda: None, None)
    t0 = time.perf_counter()
    for _ in range(samples):
        probe()
    return (time.perf_counter() - t0) / samples


def _self_times(spans) -> dict:
    """Span id -> duration minus the time its children cover.  Spans nest
    strictly and children of one span run one after another."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans, items: int) -> dict:
    """Per-layer metrics of one traced run, from its spans."""
    def named(name):
        return [s for s in spans if s["name"] == name]

    def busy(group):
        return sum(s["end"] - s["start"] for s in group)

    def total(group, key):
        return sum(s["attrs"].get(key, 0) for s in group)

    def per_unit_ns(seconds, count):
        return seconds * 1e9 / count if count else 0.0

    m: dict = {}
    windows = named("base_process.sample_window")
    m["base_process.sample_window.calls"] = len(windows)
    m["base_process.sample_window.busy_s"] = busy(windows)
    m["base_process.symbols"] = total(windows, "symbols")
    m["base_process.ns_per_symbol"] = per_unit_ns(
        busy(windows), m["base_process.symbols"])

    for layer, fn in (("survival", "rescaled_survival"),
                      ("ledger", "compute_ledger")):
        calls = named(f"{layer}.{fn}")
        m[f"{layer}.{fn}.calls"] = len(calls)
        m[f"{layer}.{fn}.busy_s"] = busy(calls)
        m[f"{layer}.column_steps"] = total(calls, "column_steps")
        m[f"{layer}.ns_per_column_step"] = per_unit_ns(
            busy(calls), m[f"{layer}.column_steps"])

    scans = named("circle.quenched_law_statistic")
    for r, label in CIRCLE_RADII.items():
        at_r = [s for s in scans if s["attrs"].get("r") == r]
        m[f"circle.{label}.busy_s"] = busy(at_r)
        m[f"circle.precision_bits.{label}"] = max(
            (s["attrs"]["precision_bits"] for s in at_r), default=0)
    m["circle.trials"] = total(scans, "trials")
    m["circle.trial_step_cap"] = total(scans, "trial_step_cap")
    m["circle.censored"] = total(scans, "censored")

    own = _self_times(spans)
    m["experiments.items"] = items
    m["experiments.self_s"] = sum(
        own[s["id"]] for s in spans
        if s["name"] in ("experiments.run_experiment", "experiments.item"))
    writes = named("experiments.write_artifacts")
    m["experiments.write_artifacts.busy_s"] = busy(writes)
    m["experiments.artifact_bytes"] = total(writes, "artifact_bytes")

    m["fiber.busy_s"] = busy([s for s in spans if s["name"].startswith("fiber.")])
    m["stats.busy_s"] = busy([s for s in spans if s["name"].startswith("stats.")])
    m["config.build_config.busy_s"] = busy(named("config.build_config"))
    return m
