"""Curve comparison and convergence diagnostics shared by both engines.

The reference curve everywhere is exp(-t); convergence to it is checked on
fixed dense t-grids (a continuous limit is pinned down by a dense set of
times), and trends across a model-size grid stand in for the limits that
finite experiments cannot take.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


def _check_t_grid(t_grid) -> np.ndarray:
    """The rescaled times of a comparison with exp(-t), as floats."""
    t = np.asarray(t_grid, dtype=float)
    if t.size == 0 or t[0] < 0 or np.any(np.diff(t) <= 0):
        raise ValueError("t grid must be non-empty, strictly increasing and "
                         "start at t >= 0")
    return t


def _rescaled_k(t: float, measure: float) -> int:
    """k(t) = floor(t / measure) as a Python int, so that a price built from
    it cannot overflow: the steps a survival at rescaled time t reads for a
    target of that measure, or 2**63, over every budget, past a float's range."""
    try:
        return math.floor(float(t) / measure)
    except (ZeroDivisionError, OverflowError):
        return 0 if t == 0 else 2**63


def ks_to_exponential(observed, t_grid) -> float:
    """Sup distance between an observed survival curve and exp(-t) on its
    t grid."""
    observed = np.asarray(observed, dtype=float)
    t = np.asarray(t_grid, dtype=float)
    if t.size == 0:
        raise ValueError("t grid must be non-empty")
    if observed.shape != t.shape:
        raise ValueError("curve and grid lengths differ")
    return float(np.max(np.abs(observed - np.exp(-t))))


class TrendReport(NamedTuple):
    """Monotonicity verdict and a log-scale slope for a short value grid."""

    xs: np.ndarray
    values: np.ndarray
    nonincreasing: bool
    log_slope: float

    def to_json_dict(self) -> dict:
        return {
            "xs": [float(x) for x in self.xs],
            "values": [float(v) for v in self.values],
            "nonincreasing": bool(self.nonincreasing),
            "log_slope": float(self.log_slope),
        }


def trend_report(values, xs=None) -> TrendReport:
    """Is the sequence nonincreasing, and how fast does it fall?

    The slope is a least-squares fit of log(values) against ``xs``
    (default: the index), with values floored at 1e-300 so exact zeros do
    not poison the fit.  Needs at least 3 points.
    """
    v = np.asarray(values, dtype=float)
    if v.size < 3:
        raise ValueError("need at least 3 grid points for a trend")
    x = np.arange(v.size, dtype=float) if xs is None else np.asarray(xs, dtype=float)
    if x.shape != v.shape:
        raise ValueError("xs and values lengths differ")
    noninc = bool(np.all(np.diff(v) <= 0.0))
    logs = np.log(np.maximum(v, 1e-300))
    slope = float(np.polyfit(x, logs, 1)[0])
    return TrendReport(xs=x, values=v, nonincreasing=noninc, log_slope=slope)


def dkw_band(n_samples: int, alpha: float = 0.01) -> float:
    """Two-sided DKW confidence half-width for an empirical CDF."""
    if n_samples < 1 or not 0.0 < alpha < 1.0:
        raise ValueError("need n_samples >= 1 and alpha in (0, 1)")
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n_samples))
