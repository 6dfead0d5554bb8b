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

The start points of a hitting law share one denominator 2**B and are
scanned together as a filtered exact predicate: a cheap window test
decides a step whenever it can certify the answer, and exact arithmetic
decides the rest.  The top W = ``_WINDOW_BITS`` bits A of every live
numerator sit in the high bits of one uint64 array, so a step
A <- m A (mod 2**W) is one numpy product whose overflow wraps exactly.
After j steps of a block with multiplier product P, the exact numerator
lies in [A u, A u + P (u - 1)] (mod 2**B), u = 2**(B - W).  A trial whose
interval lies inside the ball is a hit, one whose interval meets no point
of the ball is a miss, and one whose interval straddles an edge of the
ball is decided exactly as (P N) mod 2**B from its block-start numerator
N.  A block ends before P passes ``_BLOCK_PRODUCT`` (20 steps for
multipliers (2, 3)); then each survivor's numerator advances once by P
and its window is read afresh.  When B <= W the window is the whole
numerator and no step falls back.  A single point, whatever its
denominator, is scanned one exact step at a time, which is faster for one
point.
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

# Top numerator bits the block scan keeps per trial in one uint64 word.
_WINDOW_BITS = 62
# A block ends before its multiplier product passes this.
_BLOCK_PRODUCT = 1 << 32

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
        (num,) = _uniform_numerators(rng, precision_bits, 1)
        return cls(num, 1 << precision_bits, budget_bits=precision_bits)

    @property
    def value(self) -> float:
        return self.numerator / self.denominator

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


def _uniform_numerators(rng: np.random.Generator, precision_bits: int,
                        count: int) -> list:
    """``count`` uniform ``precision_bits``-bit numerators from one draw,
    the same ones ``count`` calls of ``rng.bytes`` would give: a call reads
    whole little-endian uint32 words, and the uint32 stream does not depend
    on how it is split into calls.  The words are read in place, so the
    draw holds one copy of its bytes."""
    nbytes = (precision_bits + 7) // 8
    stride = 4 * ((nbytes + 3) // 4)
    words = rng.integers(0, 2**32, size=count * stride // 4, dtype=np.uint32)
    raw = memoryview(words.astype("<u4", copy=False)).cast("B")
    drop = nbytes * 8 - precision_bits
    return [int.from_bytes(raw[i:i + nbytes], "big") >> drop
            for i in range(0, count * stride, stride)]


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
    return arr.tolist()


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
        for b in self._bits:
            num = num * self._muls[b] % den
            yield CirclePoint(num, den, budget)

    def points(self) -> list:
        return list(self)


def random_orbit(rds: CircleRDS, bits, x0: CirclePoint, steps: int) -> RandomOrbit:
    """Exact orbit accessor under the maps selected by ``bits``."""
    return RandomOrbit(rds, bits, x0, steps)


def _ball_arc(target: BallTarget, denominator: int):
    """The numerators strictly inside the open ball, as one arc lo, lo + 1,
    ..., lo + span (mod denominator): ``(lo, span)`` with 0 <= lo <
    denominator, or None when the ball holds no numerator.  Exact via
    rational arithmetic."""
    c = Fraction(target.center)
    rho = Fraction(target.radius)
    lo = math.floor((c - rho) * denominator) + 1     # smallest num strictly inside
    hi = math.ceil((c + rho) * denominator) - 1      # largest num strictly inside
    if lo > hi:
        return None
    return lo % denominator, hi - lo


def _step_scan(num: int, den: int, bits: list, muls: tuple, arc,
               cap: int) -> int | None:
    """First k in [1, cap] at which the orbit of num/den lies on ``arc``,
    or None: one exact step at a time, the fastest scan for one point and
    the only one for a denominator that is not a power of two."""
    if arc is None:
        return None
    lo, span = arc
    hi = lo + span
    wrap = hi - den                        # last numerator past 0, if >= 0
    if den & (den - 1) == 0:
        mask = den - 1
        for k in range(1, cap + 1):
            num = (num * muls[bits[k - 1]]) & mask
            if lo <= num <= hi or num <= wrap:
                return k
    else:
        for k in range(1, cap + 1):
            num = (num * muls[bits[k - 1]]) % den
            if lo <= num <= hi or num <= wrap:
                return k
    return None


def _scan_to_ball(nums: list, den: int, bits: list, muls: tuple, arc,
                  cap: int) -> list:
    """_step_scan for each of many numerators over one ``den`` = 2**B, all
    at once (the filtered exact scan of the module docstring)."""
    if arc is None:
        return [None] * len(nums)
    lo, span = arc
    mask = den - 1
    width = den.bit_length() - 1
    shift = max(width - _WINDOW_BITS, 0)
    top = (1 << (width - shift)) - 1       # largest window value A
    pad = 64 - (width - shift)             # A sits in the high bits of a word
    factors = [np.uint64(m % 2**64) for m in muls]
    taus = [None] * len(nums)
    exact = list(nums)                     # block-start numerators, by trial
    ids = np.arange(len(nums))             # live trials, aligned with window
    window = np.array([(n >> shift) << pad for n in exact], dtype=np.uint64)
    prod = 1
    for k in range(1, cap + 1):
        m = muls[bits[k - 1]]
        if prod > 1 and prod * m > _BLOCK_PRODUCT:
            live = ids.tolist()
            for i in live:
                exact[i] = (exact[i] * prod) & mask
            window = np.array([(exact[i] >> shift) << pad for i in live],
                              dtype=np.uint64)
            prod = 1
        prod *= m
        window *= factors[bits[k - 1]]
        # numerator in [A u, A u + d], u = 2**shift: it may meet the arc for
        # A in [ceil((lo - d) / u), floor((lo + span) / u)] and surely lies
        # inside it for A in [ceil(lo / u), floor((lo + span - d) / u)]
        d = prod * ((1 << shift) - 1)
        meet = -((d - lo) >> shift)
        flag = ((window - ((meet & top) << pad))
                <= (min(((lo + span) >> shift) - meet, top) << pad))
        if not flag.any():
            continue
        at = np.flatnonzero(flag)
        sure = -((-lo) >> shift)
        sure_len = ((lo + span - d) >> shift) - sure
        if sure_len >= 0:
            inside = (window[at] - ((sure & top) << pad)) <= (sure_len << pad)
            hits, straddles = at[inside].tolist(), at[~inside].tolist()
        else:
            hits, straddles = [], at.tolist()
        for j in straddles:
            n = (exact[int(ids[j])] * prod) & mask
            if (n - lo) & mask <= span:
                hits.append(j)
        if hits:
            for i in ids[hits].tolist():
                taus[i] = k
            keep = np.ones(ids.size, dtype=bool)
            keep[hits] = False
            window, ids = window[keep], ids[keep]
            if not ids.size:
                break
    return taus


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
    return _step_scan(x0.numerator, x0.denominator, bit_list, rds.multipliers,
                      _ball_arc(target, x0.denominator), cap)


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
    precision = required_bits(scan_cap, rds.max_multiplier)
    den = 1 << precision
    nums = _uniform_numerators(make_rng(seed), precision, trials)
    hits = _scan_to_ball(nums, den, _bits_sequence(bits, scan_cap), rds.multipliers,
                         _ball_arc(target, den), scan_cap)
    censored = hits.count(None)
    taus = np.array([scan_cap + 1 if hit is None else hit for hit in hits],
                    dtype=np.int64)
    survival = np.array([(taus > min(k, scan_cap)).mean() for k in ks])
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
        points = [CirclePoint(num, 1 << precision, precision)
                  for num in _uniform_numerators(rng, precision, trials)]
    else:
        points = list(points)
    if not points:
        raise ValueError("need at least one start point")
    periodic = 0
    for x0 in points:
        _check_budget(x0, horizon, rds.max_multiplier)
        num0 = x0.numerator
        periodic += _step_scan(num0, x0.denominator, bit_list, rds.multipliers,
                               (num0, 0), horizon) is not None
    return periodic / len(points)
