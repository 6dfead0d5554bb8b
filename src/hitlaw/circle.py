"""Random compositions of expanding circle maps with exact arithmetic.

Each noise bit selects one of two integer multipliers; the map is
x -> m x (mod 1).  Points are exact rationals: a uniform draw is a random
numerator over a power-of-two denominator, and one map step multiplies the
numerator and drops the overflow, so orbits are computed exactly rather
than in floating point (which loses one bit per doubling and is not a
simulation of the map).

Sampled points carry a precision budget: a B-bit uniform point stays a
faithful stand-in for a Lebesgue-random point only while the orbit length
times log2(multiplier) stays well below B.  Asking an orbit to outrun the
budget raises; it never silently degrades.  Exact rational seeds (period
probes, oracle configurations) carry no budget since their arithmetic
never loses information.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .base_process import BaseProcess, BaseWindow, make_rng
from .errors import PrecisionBudgetError
from .stats import _check_t_grid, ks_to_exponential

_GUARD_BITS = 64

# Fewest start points quenched_law_statistic accepts for one survival curve.
MIN_LAW_TRIALS = 100


def required_bits(steps: int, max_multiplier: int) -> int:
    """Precision needed for a sampled point to survive ``steps`` map
    applications: ceil(steps * log2(m)) plus 64 guard bits."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    return math.ceil(steps * math.log2(max_multiplier)) + _GUARD_BITS


@dataclass(frozen=True)
class CirclePoint:
    """Exact point numerator/denominator in [0, 1).

    ``budget_bits`` is set on sampled dyadic points (denominator 2**B) and
    limits how many map steps they may take; None marks an exact rational
    seed with no budget.
    """

    numerator: int
    denominator: int
    budget_bits: int | None = None

    def __post_init__(self):
        if self.denominator < 1 or not 0 <= self.numerator < self.denominator:
            raise ValueError("need 0 <= numerator < denominator")

    @classmethod
    def from_fraction(cls, numerator: int, denominator: int) -> "CirclePoint":
        return cls(numerator % denominator if denominator >= 1 else 0, denominator)

    @classmethod
    def uniform(cls, rng: np.random.Generator, precision_bits: int) -> "CirclePoint":
        if precision_bits < 1:
            raise ValueError("precision_bits must be >= 1")
        nbytes = (precision_bits + 7) // 8
        raw = int.from_bytes(rng.bytes(nbytes), "big")
        num = raw >> (nbytes * 8 - precision_bits)
        return cls(num, 1 << precision_bits, budget_bits=precision_bits)

    @property
    def value(self) -> float:
        return self.numerator / self.denominator

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


def circle_distance(point: CirclePoint, y) -> Fraction:
    """Exact circle distance between a point and a rational/float center."""
    d = abs(point.as_fraction() - Fraction(y)) % 1
    return min(d, 1 - d)


@dataclass(frozen=True)
class CircleRDS:
    """Pair of expanding multipliers driven by a two-symbol base process.

    Every map x -> m x mod 1 with integer m >= 2 preserves Lebesgue
    measure, so the sample measures are Lebesgue for every noise sequence.
    """

    multipliers: tuple = (2, 3)
    base: BaseProcess = None

    def __post_init__(self):
        ms = tuple(self.multipliers)
        if len(ms) != 2 or not all(isinstance(m, numbers.Integral) and m >= 2
                                   for m in ms):
            raise ValueError("multipliers must be two integers >= 2")
        object.__setattr__(self, "multipliers", tuple(map(int, ms)))
        base = self.base if self.base is not None else BaseProcess.bernoulli([0.5, 0.5])
        if base.alphabet_size != 2:
            raise ValueError("circle driving process must have alphabet {0, 1}")
        object.__setattr__(self, "base", base)

    @property
    def max_multiplier(self) -> int:
        return max(self.multipliers)


@dataclass(frozen=True)
class BallTarget:
    """Open ball on the circle; Lebesgue measure min(2r, 1)."""

    center: float
    radius: float

    def __post_init__(self):
        if not 0.0 <= self.center < 1.0:
            raise ValueError("center must lie in [0, 1)")
        if not 0.0 < self.radius < 0.5:
            raise ValueError("radius must lie in (0, 1/2)")

    @property
    def measure(self) -> float:
        return min(2.0 * self.radius, 1.0)

    def horizon(self, t: float) -> int:
        """k(t) = floor(t / measure): the map steps a survival at t reads."""
        return math.floor(t / self.measure)


def _bits_sequence(bits, steps: int) -> list:
    """Normalize the noise bits to a plain list of 0/1 of length >= steps."""
    if isinstance(bits, BaseWindow):
        arr = bits.prefix(steps)
    else:
        arr = np.asarray(bits, dtype=np.int64)
        if arr.size < steps:
            raise ValueError(f"need {steps} noise bits, got {arr.size}")
        arr = arr[:steps]
    if arr.size and (arr.min() < 0 or arr.max() > 1):
        raise ValueError("noise bits must be 0 or 1")
    return [int(b) for b in arr]


def _check_budget(x0: CirclePoint, steps: int, max_m: int) -> None:
    if x0.budget_bits is None:
        return
    need = required_bits(steps, max_m)
    if x0.budget_bits < need:
        raise PrecisionBudgetError(
            f"orbit of {steps} steps needs {need} bits, point carries "
            f"{x0.budget_bits}")


class RandomOrbit:
    """Lazy exact orbit f^1(x0), f^2(x0), ..., f^steps(x0)."""

    def __init__(self, rds: CircleRDS, bits, x0: CirclePoint, steps: int):
        if steps < 0:
            raise ValueError("steps must be >= 0")
        _check_budget(x0, steps, rds.max_multiplier)
        self._bits = _bits_sequence(bits, steps)
        self._x0 = x0
        self._muls = rds.multipliers
        self.steps = steps

    def __iter__(self):
        num, den = self._x0.numerator, self._x0.denominator
        budget = self._x0.budget_bits
        if den & (den - 1) == 0:
            mask = den - 1
            for b in self._bits:
                num = (num * self._muls[b]) & mask
                yield CirclePoint(num, den, budget)
        else:
            for b in self._bits:
                num = (num * self._muls[b]) % den
                yield CirclePoint(num, den, budget)

    def points(self) -> list:
        return list(self)


def random_orbit(rds: CircleRDS, bits, x0: CirclePoint, steps: int) -> RandomOrbit:
    """Exact orbit accessor under the maps selected by ``bits``."""
    return RandomOrbit(rds, bits, x0, steps)


def _ball_segments(target: BallTarget, denominator: int):
    """Integer numerator ranges representing the open ball, possibly split
    by the wraparound; exact via rational arithmetic."""
    c = Fraction(target.center)
    rho = Fraction(target.radius)
    lo = math.floor((c - rho) * denominator) + 1     # smallest num strictly inside
    hi = math.ceil((c + rho) * denominator) - 1      # largest num strictly inside
    if lo > hi:
        return []
    if lo < 0:
        return [(0, hi), (lo + denominator, denominator - 1)]
    if hi >= denominator:
        return [(0, hi - denominator), (lo, denominator - 1)]
    return [(lo, hi)]


def _scan_to_ball(num: int, den: int, bits: list, muls: tuple, segments,
                  cap: int) -> int | None:
    mask = den - 1 if den & (den - 1) == 0 else None
    if not segments:
        return None
    (lo1, hi1) = segments[0]
    two = len(segments) > 1
    if two:
        (lo2, hi2) = segments[1]
    if mask is not None:
        for k in range(1, cap + 1):
            num = (num * muls[bits[k - 1]]) & mask
            if lo1 <= num <= hi1:
                return k
            if two and lo2 <= num <= hi2:
                return k
    else:
        for k in range(1, cap + 1):
            num = (num * muls[bits[k - 1]]) % den
            if lo1 <= num <= hi1:
                return k
            if two and lo2 <= num <= hi2:
                return k
    return None


def hitting_time_ball(rds: CircleRDS, bits, x0: CirclePoint, target: BallTarget,
                      cap: int) -> int | None:
    """First k in [1, cap] with f^k(x0) inside the ball, None if censored.

    A start inside the ball does not count: the first visit at k >= 1 is a
    return in that case.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    _check_budget(x0, cap, rds.max_multiplier)
    bit_list = _bits_sequence(bits, cap)
    segments = _ball_segments(target, x0.denominator)
    return _scan_to_ball(x0.numerator, x0.denominator, bit_list,
                         rds.multipliers, segments, cap)


@dataclass(frozen=True)
class CircleLawResult:
    """Empirical rescaled hitting-time survival against exp(-t)."""

    radius: float
    t_grid: np.ndarray
    k_values: np.ndarray
    survival: np.ndarray
    delta_r: float
    trials: int
    censored_count: int
    widened_uncertainty: bool

    @property
    def observed(self) -> np.ndarray:
        return self.survival


def quenched_law_statistic(rds: CircleRDS, bits, y: float, r: float, t_grid,
                           trials: int, seed, cap: int | None = None) -> CircleLawResult:
    """Empirical survival of rescaled ball hitting times for one fixed noise
    sequence, plus its sup distance to exp(-t).

    Start points are uniform B-bit dyadics with B budgeted for the scan
    horizon; survival at t is the fraction of trials with hitting time
    beyond floor(t / (2r)).  If a cap below the largest grid point is
    forced, censored scans count as surviving and the result is flagged.
    """
    if trials < MIN_LAW_TRIALS:
        raise ValueError(f"need at least {MIN_LAW_TRIALS} trials")
    t = _check_t_grid(t_grid)
    target = BallTarget(center=y, radius=r)
    ks = np.array([target.horizon(ti) for ti in t], dtype=np.int64)
    k_max = int(ks[-1])
    scan_cap = k_max if cap is None else int(cap)
    widened = scan_cap < k_max
    bits_list = _bits_sequence(bits, scan_cap) if scan_cap else []
    precision = required_bits(scan_cap, rds.max_multiplier) if scan_cap else _GUARD_BITS
    den = 1 << precision
    segments = _ball_segments(target, den)
    rng = make_rng(seed)
    muls = rds.multipliers

    taus = np.empty(trials, dtype=np.int64)
    censored = 0
    for i in range(trials):
        x0 = CirclePoint.uniform(rng, precision)
        hit = (_scan_to_ball(x0.numerator, den, bits_list, muls, segments,
                             scan_cap) if scan_cap else None)
        if hit is None:
            censored += 1
            taus[i] = scan_cap + 1
        else:
            taus[i] = hit
    survival = np.array([(taus > k).mean() if k <= scan_cap else (taus > scan_cap).mean()
                         for k in ks])
    delta_r = ks_to_exponential(survival, t).sup_abs_err
    return CircleLawResult(radius=r, t_grid=t, k_values=ks, survival=survival,
                           delta_r=delta_r, trials=trials, censored_count=censored,
                           widened_uncertainty=widened)


def aperiodicity_probe(rds: CircleRDS, bits, trials: int, horizon: int, seed,
                       points=None) -> float:
    """Fraction of start points whose orbit returns exactly to the start
    within ``horizon`` steps (exact integer equality).

    Uniform sampled points give fraction 0 in practice (the periodic set is
    Lebesgue-null, and exact equality on a 2**B grid is astronomically
    rare); explicit rational ``points`` can be supplied to exhibit the
    periodic exceptions.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    bit_list = _bits_sequence(bits, horizon)
    rng = make_rng(seed)
    if points is None:
        precision = required_bits(horizon, rds.max_multiplier)
        points = [CirclePoint.uniform(rng, precision) for _ in range(trials)]
    else:
        points = list(points)
    periodic = 0
    for x0 in points:
        _check_budget(x0, horizon, rds.max_multiplier)
        num0 = x0.numerator
        periodic += _scan_to_ball(num0, x0.denominator, bit_list, rds.multipliers,
                                  [(num0, num0)], horizon) is not None
    return periodic / len(points)
