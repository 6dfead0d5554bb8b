"""Random Bernoulli sample measures on the fiber shift, and their marginal.

Each base symbol selects a row of a stochastic matrix W; fiber coordinate i
is drawn from the row picked by the i-th noise symbol.  Cylinder measures
are therefore exact products, the noise-averaged marginal is an exact
transfer-matrix product, and for the symmetric two-symbol family the
fiber-to-marginal density ratio is available in closed form, which makes
the mutual-singularity diagnostic exact as well.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .base_process import BaseProcess, BaseWindow, _check_stochastic
from .errors import UnsupportedConfigError

_ATOL = 1e-12


@dataclass(frozen=True)
class FiberMeasure:
    """Row-stochastic matrix W: row = base symbol, column = fiber symbol.

    Entries strictly inside (0, 1), so the largest entry q_max is < 1 and
    every n-cylinder has measure at most q_max**n ("exponentially small
    cylinders" with rate h0 = -log q_max and constant 1).
    """

    W: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.W, dtype=float)
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 2:
            raise ValueError("W must be a matrix with at least 2 columns")
        _check_stochastic(w, "W")
        object.__setattr__(self, "W", w)

    @property
    def base_alphabet_size(self) -> int:
        return int(self.W.shape[0])

    @property
    def fiber_alphabet_size(self) -> int:
        return int(self.W.shape[1])

    @property
    def q_max(self) -> float:
        return float(self.W.max())

    @property
    def h0(self) -> float:
        """Exact small-cylinder decay rate, -log(q_max)."""
        return -float(np.log(self.q_max))


@dataclass(frozen=True)
class Pattern:
    """Target word on the fiber alphabet; its cylinder is the hit set."""

    symbols: tuple
    alphabet_size: int

    def __post_init__(self):
        sym = tuple(int(s) for s in self.symbols)
        if len(sym) < 1:
            raise ValueError("pattern must have length >= 1")
        if any(s < 0 or s >= self.alphabet_size for s in sym):
            raise ValueError("pattern symbols out of range")
        object.__setattr__(self, "symbols", sym)

    @property
    def n(self) -> int:
        return len(self.symbols)


def _check_compatible(fm: FiberMeasure, pat: Pattern) -> None:
    if pat.alphabet_size != fm.fiber_alphabet_size:
        raise ValueError(
            f"pattern alphabet {pat.alphabet_size} does not match fiber alphabet "
            f"{fm.fiber_alphabet_size}")


def _check_base_alphabet(fm: FiberMeasure, proc: BaseProcess) -> None:
    if fm.base_alphabet_size != proc.alphabet_size:
        raise ValueError(
            f"fiber matrix has {fm.base_alphabet_size} rows; the base alphabet "
            f"has {proc.alphabet_size} symbols")


def fiber_cylinder_measure(fm: FiberMeasure, window: BaseWindow, pat: Pattern,
                           offset: int = 0) -> float:
    """Exact cylinder measure of the pattern under the noise seen from ``offset``.

    Product of one W entry per coordinate: row = noise symbol at
    offset + i, column = pattern symbol i.
    """
    _check_compatible(fm, pat)
    if offset < 0:
        raise ValueError("offset must be >= 0")
    return float(_cylinder_measures(fm, window.prefix(offset + pat.n), pat,
                                    np.array([offset]))[0])


def _cylinder_measures(fm: FiberMeasure, symbols: np.ndarray, pat: Pattern,
                       offsets: np.ndarray) -> np.ndarray:
    """The cylinder measure of the pattern seen from each offset, reading
    noise ``symbols[offset + i]`` for pattern coordinate i."""
    idx = offsets[:, np.newaxis] + np.arange(pat.n)[np.newaxis, :]
    return fm.W[symbols[idx], np.asarray(pat.symbols)[np.newaxis, :]].prod(axis=1)


def marginal_cylinder_measure(fm: FiberMeasure, proc: BaseProcess, pat: Pattern) -> float:
    """Noise-averaged cylinder measure, exactly.

    Bernoulli base: coordinates decouple, so the answer is a product of
    averaged columns.  Markov base: product of column-weighted transition
    matrices against the stationary vector, cost O(n s^2).
    """
    _check_compatible(fm, pat)
    _check_base_alphabet(fm, proc)
    w = fm.W
    if proc.kind == "bernoulli":
        col_means = proc.weights @ w   # one averaged factor per fiber symbol
        return float(np.prod(col_means[list(pat.symbols)]))
    v = proc.stationary * w[:, pat.symbols[0]]
    for y in pat.symbols[1:]:
        v = (v @ proc.transition) * w[:, y]
    return float(v.sum())


class DensityRatio(NamedTuple):
    """Fiber-to-marginal cylinder ratio for one (noise window, word) pair."""

    ratio: float
    log_ratio: float
    match_count: int
    n: int


def binary_symmetric_model(p: float) -> tuple[BaseProcess, FiberMeasure]:
    """Fair-coin noise driving the two-symbol fiber family with matrix
    [[p, 1-p], [1-p, p]].

    The marginal is the fair Bernoulli measure for every p, while the
    sample measures concentrate elsewhere as soon as p != 1/2, which is
    what the density-ratio diagnostic quantifies.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")
    proc = BaseProcess.bernoulli([0.5, 0.5])
    fm = FiberMeasure(np.array([[p, 1.0 - p], [1.0 - p, p]]))
    return proc, fm


def _is_binary_symmetric(fm: FiberMeasure, proc: BaseProcess) -> bool:
    if proc.kind != "bernoulli" or proc.alphabet_size != 2:
        return False
    if np.max(np.abs(proc.weights - 0.5)) > _ATOL:
        return False
    w = fm.W
    if w.shape != (2, 2):
        return False
    return abs(w[0, 0] - w[1, 1]) <= _ATOL and abs(w[0, 1] - w[1, 0]) <= _ATOL


def density_ratio(fm: FiberMeasure, proc: BaseProcess, window: BaseWindow,
                  pat: Pattern) -> DensityRatio:
    """Exact ratio (fiber cylinder measure) / (marginal cylinder measure)
    for the symmetric two-symbol family.

    With diagonal entry p and n coordinates the ratio is
    p**matches * (1-p)**(n - matches) * 2**n, where ``matches`` counts
    coordinates where the noise symbol equals the word symbol.  The log
    ratio (natural log) is returned alongside, since for long words the
    ratio itself under- or overflows by design.
    """
    if not _is_binary_symmetric(fm, proc):
        raise UnsupportedConfigError(
            "density_ratio needs the symmetric two-symbol family: fair-coin base "
            "and fiber matrix [[p, 1-p], [1-p, p]]")
    _check_compatible(fm, pat)
    n = pat.n
    p = float(fm.W[0, 0])
    if abs(p - 0.5) <= _ATOL:
        warnings.warn("p = 1/2 makes the sample and marginal measures equal; "
                      "the density ratio is identically 1", stacklevel=2)
    matches = int(np.sum(window.prefix(n) == np.asarray(pat.symbols)))
    log_ratio = (matches * np.log(p) + (n - matches) * np.log(1.0 - p)
                 + n * np.log(2.0))
    with np.errstate(over="ignore"):
        ratio = float(np.exp(log_ratio))
    return DensityRatio(ratio=ratio, log_ratio=float(log_ratio),
                        match_count=matches, n=n)


def sample_fiber_prefix(fm: FiberMeasure, window: BaseWindow, length: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Draw fiber coordinates 0..length-1, coordinate i from the row picked
    by noise symbol i: the count of the row's b - 1 inner cdf breakpoints
    below its uniform, so that a row summing to just under 1 never draws b."""
    if length < 0:
        raise ValueError("length must be >= 0")
    rows = window.prefix(length)
    cum = np.cumsum(fm.W, axis=1)[rows, :-1]     # (length, b - 1)
    u = rng.random(length)
    return (u[:, np.newaxis] > cum).sum(axis=1).astype(np.int64)
