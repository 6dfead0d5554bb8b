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
budget raises; it never silently degrades.  Exact rational seeds (oracle
configurations) carry no budget since their arithmetic never loses
information.

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
N.  A block ends before P passes ``_BLOCK_PRODUCT`` = 2**(W - 12), so
that at most about 2**-11 of live trial-steps straddle.  A hit marks its
trial dead, and dead trials leave the window when their block ends; then
each survivor's numerator advances once by P and its window is read
afresh.  When B <= W the window is the whole numerator and no step falls
back.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import NamedTuple

import numpy as np

from .base_process import BaseWindow, make_rng
from .errors import PrecisionBudgetError
from .stats import _check_t_grid, _rescaled_ks, ks_to_exponential

_GUARD_BITS = 64

# Top numerator bits the block scan keeps per trial in one uint64 word.
_WINDOW_BITS = 62
# A block ends before its multiplier product passes this, so that at most
# about 2**-11 of live trial-steps straddle a ball's edge.
_BLOCK_PRODUCT = 1 << (_WINDOW_BITS - 12)

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
    """Pair of expanding multipliers driven by noise bits: bit b applies
    ``multipliers[b]``.

    Every map x -> m x mod 1 with integer m >= 2 preserves Lebesgue
    measure, so the sample measures are Lebesgue for every noise sequence.
    """

    multipliers: tuple = (2, 3)

    def __post_init__(self):
        ms = tuple(self.multipliers)
        if len(ms) != 2 or not all(isinstance(m, numbers.Integral) and m >= 2
                                   for m in ms):
            raise ValueError("multipliers must be two integers >= 2")
        object.__setattr__(self, "multipliers", tuple(map(int, ms)))

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


def _bits_sequence(bits, steps: int) -> list:
    """The first ``steps`` noise bits of a window or a sequence, as a plain
    list of 0/1."""
    if isinstance(bits, BaseWindow):
        bits = bits.prefix(steps)
    arr = np.asarray(bits, dtype=np.int64)[:steps]
    if arr.size < steps:
        raise ValueError(f"need {steps} noise bits, got {arr.size}")
    if arr.size and (arr.min() < 0 or arr.max() > 1):
        raise ValueError("noise bits must be 0 or 1")
    return arr.tolist()


def random_orbit(rds: CircleRDS, bits, x0: CirclePoint, steps: int) -> list:
    """Exact orbit f^1(x0), f^2(x0), ..., f^steps(x0) under the maps
    selected by ``bits``; raises at the call when a sampled point's budget
    is too small for ``steps``."""
    need = required_bits(steps, rds.max_multiplier)
    if x0.budget_bits is not None and x0.budget_bits < need:
        raise PrecisionBudgetError(
            f"orbit of {steps} steps needs {need} bits, point carries "
            f"{x0.budget_bits}")
    num, den, muls = x0.numerator, x0.denominator, rds.multipliers
    points = []
    for b in _bits_sequence(bits, steps):
        num = num * muls[b] % den
        points.append(CirclePoint(num, den, x0.budget_bits))
    return points


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


def _scan_to_ball(nums: list, den: int, bits: list, muls: tuple, arc,
                  cap: int) -> list:
    """For each of many numerators over one ``den`` = 2**B, the first k in
    [1, cap] at which its orbit lies on ``arc``, or None, all at once (the
    filtered exact scan of the module docstring)."""
    if arc is None:
        return [None] * len(nums)
    lo, span = arc
    mask = den - 1
    width = den.bit_length() - 1
    shift = max(width - _WINDOW_BITS, 0)
    top = (1 << (width - shift)) - 1       # largest window value A
    pad = 64 - (width - shift)             # A sits in the high bits of a word
    # numerator in [A u, A u + d], u = 2**shift: it may meet the arc for
    # A in [ceil((lo - d) / u), far] and surely lies inside it for
    # A in [sure, floor((lo + span - d) / u)]
    far, sure = (lo + span) >> shift, -((-lo) >> shift)
    sure_at = (sure & top) << pad
    factors = [np.uint64(m % 2**64) for m in muls]
    taus = [None] * len(nums)
    # aligned with window: block-start numerators, trial ids, and not yet hit
    exact, ids, alive = nums, np.arange(len(nums)), np.ones(len(nums), dtype=bool)
    left = len(nums)
    window = np.array([(n >> shift) << pad for n in exact], dtype=np.uint64)
    prod = 1
    for k in range(1, cap + 1):
        m = muls[bits[k - 1]]
        if prod > 1 and prod * m > _BLOCK_PRODUCT:
            exact = [(n * prod) & mask for n in compress(exact, alive.tolist())]
            window = np.array([(n >> shift) << pad for n in exact], dtype=np.uint64)
            ids, alive = ids[alive], np.ones(len(exact), dtype=bool)
            prod = 1
        prod *= m
        window *= factors[bits[k - 1]]
        d = prod * ((1 << shift) - 1)
        meet = -((d - lo) >> shift)
        at = ((window - ((meet & top) << pad))
              <= (min(far - meet, top) << pad)).nonzero()[0]
        if at.size:
            at = at[alive[at]]             # dead trials stay until block end
        if not at.size:
            continue
        sure_len = ((lo + span - d) >> shift) - sure
        if sure_len >= 0:
            inside = (window[at] - sure_at) <= (sure_len << pad)
            hits, straddles = at[inside].tolist(), at[~inside].tolist()
        else:
            hits, straddles = [], at.tolist()
        for j in straddles:
            n = (exact[j] * prod) & mask
            if (n - lo) & mask <= span:
                hits.append(j)
        if hits:
            alive[hits] = False
            for i in ids[hits].tolist():
                taus[i] = k
            left -= len(hits)
            if not left:
                break
    return taus


class CircleLawResult(NamedTuple):
    """Empirical rescaled hitting-time survival against exp(-t)."""

    radius: float
    t_grid: np.ndarray
    k_values: np.ndarray
    survival: np.ndarray
    delta_r: float
    trials: int
    censored_count: int


def quenched_law_statistic(rds: CircleRDS, bits, y: float, r: float, t_grid,
                           trials: int, seed) -> CircleLawResult:
    """Empirical survival of rescaled ball hitting times for one fixed noise
    sequence, plus its sup distance to exp(-t).

    Start points are uniform B-bit dyadics with B budgeted for the scan
    horizon; survival at t is the fraction of trials with hitting time
    beyond floor(t / (2r)); a scan runs to the largest grid point, and
    one censored there survives every grid point.
    """
    if trials < MIN_LAW_TRIALS:
        raise ValueError(f"need at least {MIN_LAW_TRIALS} trials")
    t = _check_t_grid(t_grid)
    target = BallTarget(center=y, radius=r)
    ks = _rescaled_ks(t, target.measure)
    k_max = int(ks[-1])
    precision = required_bits(k_max, rds.max_multiplier)
    den = 1 << precision
    nums = _uniform_numerators(make_rng(seed), precision, trials)
    hits = _scan_to_ball(nums, den, _bits_sequence(bits, k_max), rds.multipliers,
                         _ball_arc(target, den), k_max)
    censored = hits.count(None)
    taus = np.array([k_max + 1 if hit is None else hit for hit in hits],
                    dtype=np.int64)
    survival = np.array([(taus > k).mean() for k in ks])
    delta_r = ks_to_exponential(survival, t)
    return CircleLawResult(radius=r, t_grid=t, k_values=ks, survival=survival,
                           delta_r=delta_r, trials=trials, censored_count=censored)
