import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hitlaw import circle
from hitlaw.base_process import BaseProcess, make_rng, sample_window
from hitlaw.circle import (BallTarget, CirclePoint, CircleRDS, circle_distance,
                           quenched_law_statistic, random_orbit, required_bits)
from hitlaw.errors import PrecisionBudgetError


FAIR = BaseProcess.bernoulli([0.5, 0.5])


@pytest.fixture
def rds():
    return CircleRDS()


def test_point_validation_and_budget():
    with pytest.raises(ValueError):
        CirclePoint(5, 4)
    with pytest.raises(ValueError):
        CirclePoint(-1, 4)
    p = CirclePoint.uniform(make_rng(1), 128)
    assert p.budget_bits == 128
    assert 0 <= p.numerator < p.denominator == 2**128


def test_rds_validation():
    with pytest.raises(ValueError):
        CircleRDS(multipliers=(1, 3))
    assert CircleRDS().max_multiplier == 3


def test_orbit_third_under_doubling_is_period_two(rds):
    x0 = CirclePoint.from_fraction(1, 3)
    pts = random_orbit(rds, [0] * 6, x0, 6)
    vals = [p.as_fraction() for p in pts]
    assert vals == [Fraction(2, 3), Fraction(1, 3)] * 3


def test_orbit_zero_fixed_point(rds):
    x0 = CirclePoint.from_fraction(0, 1)
    pts = random_orbit(rds, [0, 1, 1, 0], x0, 4)
    assert all(p.numerator == 0 for p in pts)


def test_orbit_matches_rational_oracle(rds):
    rng = make_rng(7)
    for _ in range(100):
        q = int(rng.integers(2, 10**6))
        a = int(rng.integers(0, q))
        bits = rng.integers(0, 2, size=100)
        x0 = CirclePoint.from_fraction(a, q)
        got = [p.numerator for p in random_orbit(rds, bits, x0, 100)]
        num = a
        want = []
        for b in bits:
            num = (num * rds.multipliers[int(b)]) % q
            want.append(num)
        assert got == want


def test_noise_bits_must_be_binary(rds):
    # a window on a binary base is read unchecked; any other noise is checked
    x0 = CirclePoint.from_fraction(1, 7)
    three = sample_window(BaseProcess.bernoulli([0.1, 0.1, 0.8]), 3, 1)
    with pytest.raises(ValueError, match="0 or 1"):
        random_orbit(rds, three, x0, 40)
    with pytest.raises(ValueError, match="0 or 1"):
        random_orbit(rds, [0, 1, 2], x0, 3)
    fair = sample_window(BaseProcess.bernoulli([0.5, 0.5]), 3, 1)
    want = random_orbit(rds, fair.prefix(40).tolist(), x0, 40)
    assert random_orbit(rds, fair, x0, 40) == want


def test_orbit_budget_enforced(rds):
    p = CirclePoint.uniform(make_rng(2), required_bits(50, 3))
    random_orbit(rds, [0] * 50, p, 50)   # fits
    with pytest.raises(PrecisionBudgetError):
        random_orbit(rds, [0] * 500, p, 500)
    # exact rational seeds carry no budget
    random_orbit(rds, [0] * 500, CirclePoint.from_fraction(1, 3), 500)


def test_orbit_requires_enough_bits(rds):
    with pytest.raises(ValueError):
        random_orbit(rds, [0, 1], CirclePoint.from_fraction(1, 3), 5)


def test_circle_distance_exact():
    p = CirclePoint.from_fraction(1, 8)
    assert circle_distance(p, 0.875) == Fraction(1, 4)
    assert circle_distance(p, Fraction(1, 8)) == 0


def test_uniform_pushforward_stays_uniform(rds):
    # Lebesgue is preserved by each map: push 1e5 uniform points through
    # 20 random steps and compare the empirical law to uniform (DKW band).
    n = 10**5
    steps = 20
    rng = make_rng(11)
    bits = sample_window(FAIR, 13, steps)
    precision = required_bits(steps, rds.max_multiplier)
    vals = np.empty(n)
    for i in range(n):
        x = CirclePoint.uniform(rng, precision)
        for p in random_orbit(rds, bits, x, steps):
            pass
        vals[i] = p.value
    vals.sort()
    grid = (np.arange(1, n + 1)) / n
    dkw = math.sqrt(math.log(2 / 0.01) / (2 * n))
    sup = np.max(np.maximum(np.abs(grid - vals), np.abs(grid - 1 / n - vals)))
    assert sup < dkw


def test_hitting_counts_from_one(rds):
    # start inside the ball: the first visit at k >= 1 is what counts
    target = BallTarget(center=0.0, radius=0.05)

    def scan(num, den, bits):
        return circle._scan_to_ball([num], den, bits, rds.multipliers,
                                    circle._ball_arc(target, den), len(bits))
    assert scan(0, 2**8, [0] * 10) == [1]    # 0 stays at 0 under doubling
    # 3/8 -> 1/8 -> 3/8 under x3, never within 0.05 of 0
    assert scan(3, 8, [1] * 50) == [None]


def test_hitting_mean_near_kac_value(rds):
    # heuristic diagnostic: mean hitting time ~ 1/(ball measure); the exact
    # escape rate depends on the hole placement, so keep a generous band
    r = 0.01
    trials = 10**4
    cap = 2000
    precision = required_bits(cap, rds.max_multiplier)
    den = 1 << precision
    nums = circle._uniform_numerators(make_rng(21), precision, trials)
    arc = circle._ball_arc(BallTarget(center=0.61803, radius=r), den)
    hits = [k for k in circle._scan_to_ball(nums, den, [0] * cap,   # doubling map
                                            rds.multipliers, arc, cap)
            if k is not None]
    mean = sum(hits) / len(hits)
    assert abs(mean - 1 / (2 * r)) / (1 / (2 * r)) < 0.1


def test_quenched_law_statistic_basics(rds):
    bits = sample_window(FAIR, 31, 10)
    out = quenched_law_statistic(rds, bits, y=0.3, r=0.05, t_grid=[0.0, 0.5, 1.0],
                                 trials=200, seed=5)
    assert out.survival[0] == 1.0
    assert np.all(np.diff(out.survival) <= 1e-12)
    assert out.delta_r == pytest.approx(
        float(np.max(np.abs(out.survival - np.exp(-out.t_grid)))))
    with pytest.raises(ValueError):
        quenched_law_statistic(rds, bits, 0.3, 0.05, [0.0, 1.0], trials=50, seed=5)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4100), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_uniform_numerators_match_per_point_bytes(precision, count, seed):
    # one bulk draw gives the numerators, and leaves the generator in the
    # state, that one rng.bytes call per point would
    rng, ref_rng = make_rng(seed), make_rng(seed)
    nbytes = (precision + 7) // 8
    want = [int.from_bytes(ref_rng.bytes(nbytes), "big") >> (8 * nbytes - precision)
            for _ in range(count)]
    assert circle._uniform_numerators(rng, precision, count) == want
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert rng.random() == ref_rng.random()


def _one_step_hits(nums, den, bits, muls, inside, cap):
    """First k at which each orbit meets ``inside(num)``, stepped in the test."""
    out = []
    for num in nums:
        hit = None
        for k in range(1, cap + 1):
            num = num * muls[bits[k - 1]] % den
            if inside(num):
                hit = k
                break
        out.append(hit)
    return out


def _in_ball(den, center, radius):
    """Exact membership of num/den in the open ball, by circle distance."""
    return lambda num: circle_distance(CirclePoint(num, den), center) < radius


# a 36-bit window with block products up to 2**32: straddles are frequent,
# so the exact fallback runs often, and widths of 1 to 100 bits fall on
# both sides of the window and past the 64-bit guard floor
_SMALL_WINDOW, _SMALL_BLOCK = 36, 1 << 32


@settings(max_examples=400, deadline=None)
@given(muls=st.tuples(st.integers(2, 2**70), st.integers(2, 2**70))
       | st.sampled_from([(2, 3), (2, 5), (3, 4)]),
       width=st.integers(1, 100), seed=st.integers(0, 2**32 - 1),
       center=st.floats(0.0, 1.0, exclude_max=True) | st.sampled_from([0.0, 0.01, 0.99]),
       radius=st.floats(1e-6, 0.49), one_point=st.booleans(),
       count=st.integers(1, 25), cap=st.integers(1, 60))
# an orbit whose window interval straddles the ball's edge from outside
@example(muls=(3, 4), width=51, seed=273, center=0.015625, radius=0.015625,
         one_point=False, count=1, cap=33)
# in the 62-bit window, a ball 2**13 units wide, narrower than the window
# interval by step 12, so no hit is sure there: the hit at step 12 is
# decided exactly
@example(muls=(2, 3), width=100, seed=0, center=0.2610373738314807,
         radius=1e-15, one_point=False, count=1, cap=40)
# in the 62-bit window, a ball 2**46.4 units wide: the hit at step 29,
# inside the first block, straddles the ball's edge
@example(muls=(2, 3), width=100, seed=0, center=0.21038600974451893,
         radius=1e-5, one_point=False, count=1, cap=50)
# trial 1 hits at step 2, and its window re-enters the ball later in the
# same block while trial 0 is live until step 29
@example(muls=(2, 3), width=100, seed=0, center=0.5, radius=0.05,
         one_point=False, count=3, cap=40)
def test_block_scan_matches_one_step_scan(muls, width, seed, center, radius,
                                          one_point, count, cap):
    rng = make_rng(seed)
    den = 1 << width
    nums = circle._uniform_numerators(rng, width, count)
    bits = [int(b) for b in rng.integers(0, 2, size=cap)]
    if one_point:
        arc, inside = (nums[0], 0), nums[0].__eq__
    else:
        arc = circle._ball_arc(BallTarget(center, radius), den)
        inside = _in_ball(den, center, radius)
    want = _one_step_hits(nums, den, bits, muls, inside, cap)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(circle, "_WINDOW_BITS", _SMALL_WINDOW)
        mp.setattr(circle, "_BLOCK_PRODUCT", _SMALL_BLOCK)
        assert circle._scan_to_ball(nums, den, bits, muls, arc, cap) == want
    assert circle._scan_to_ball(nums, den, bits, muls, arc, cap) == want


def _fraction_arc(target, denominator):
    """The arc as ``Fraction`` arithmetic gave it, the integer formula's
    oracle."""
    c, rho = Fraction(target.center), Fraction(target.radius)
    lo = math.floor((c - rho) * denominator) + 1
    hi = math.ceil((c + rho) * denominator) - 1
    return None if lo > hi else (lo % denominator, hi - lo)


_BELOW_ONE = math.nextafter(1.0, 0.0)


def _no_fraction(*args):
    raise AssertionError("Fraction built")


@settings(max_examples=400, deadline=None)
@given(center=st.floats(0.0, 1.0, exclude_max=True)
       | st.sampled_from([0.0, _BELOW_ONE]),
       radius=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)
       | st.sampled_from([0.1, 0.01, 1e-3]),
       bits=st.integers(1, 5000))
@example(center=0.0, radius=0.1, bits=1)
@example(center=_BELOW_ONE, radius=1e-3, bits=5000)
@example(center=0.5, radius=0.25, bits=2)      # both edges on numerators
@example(center=0.61803, radius=0.01, bits=5000)
def test_ball_arc_is_the_fraction_formula(center, radius, bits):
    # in integers: a run's parent never loads fractions for it
    target = BallTarget(center, radius)
    want = _fraction_arc(target, 1 << bits)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(circle, "Fraction", _no_fraction, raising=False)
        assert circle._ball_arc(target, 1 << bits) == want

