import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hitlaw import circle
from hitlaw.base_process import BaseProcess, make_rng, sample_window
from hitlaw.circle import (BallTarget, CirclePoint, CircleRDS,
                           aperiodicity_probe, circle_distance,
                           hitting_time_ball, quenched_law_statistic,
                           random_orbit, required_bits)
from hitlaw.errors import PrecisionBudgetError


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
    with pytest.raises(ValueError):
        CircleRDS(base=BaseProcess.bernoulli([0.2, 0.3, 0.5]))
    assert CircleRDS().max_multiplier == 3


def test_orbit_third_under_doubling_is_period_two(rds):
    x0 = CirclePoint.from_fraction(1, 3)
    pts = random_orbit(rds, [0] * 6, x0, 6).points()
    vals = [p.as_fraction() for p in pts]
    assert vals == [Fraction(2, 3), Fraction(1, 3)] * 3


def test_orbit_zero_fixed_point(rds):
    x0 = CirclePoint.from_fraction(0, 1)
    pts = random_orbit(rds, [0, 1, 1, 0], x0, 4).points()
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
    bits = sample_window(rds.base, 13, steps)
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
    x0 = CirclePoint.from_fraction(0, 1)
    assert hitting_time_ball(rds, [0] * 10, x0, target, 10) == 1   # stays at 0
    x1 = CirclePoint.from_fraction(1, 3)
    assert hitting_time_ball(rds, [0] * 50, x1, target, 50) is None


def test_hitting_mean_near_kac_value(rds):
    # heuristic diagnostic: mean hitting time ~ 1/(ball measure); the exact
    # escape rate depends on the hole placement, so keep a generous band
    r = 0.01
    target = BallTarget(center=0.61803, radius=r)
    trials = 10**4
    cap = 2000
    rng = make_rng(21)
    bits = [0] * cap   # doubling map
    precision = required_bits(cap, rds.max_multiplier)
    total = 0
    hits = 0
    for _ in range(trials):
        x0 = CirclePoint.uniform(rng, precision)
        k = hitting_time_ball(rds, bits, x0, target, cap)
        if k is not None:
            total += k
            hits += 1
    mean = total / hits
    assert abs(mean - 1 / (2 * r)) / (1 / (2 * r)) < 0.1


def test_quenched_law_statistic_basics(rds):
    bits = sample_window(rds.base, 31, 10)
    out = quenched_law_statistic(rds, bits, y=0.3, r=0.05, t_grid=[0.0, 0.5, 1.0],
                                 trials=200, seed=5)
    assert out.survival[0] == 1.0
    assert np.all(np.diff(out.survival) <= 1e-12)
    assert out.delta_r == pytest.approx(
        float(np.max(np.abs(out.survival - np.exp(-out.t_grid)))))
    with pytest.raises(ValueError):
        quenched_law_statistic(rds, bits, 0.3, 0.05, [0.0, 1.0], trials=50, seed=5)


def test_quenched_law_widened_when_capped(rds):
    bits = sample_window(rds.base, 32, 10)
    out = quenched_law_statistic(rds, bits, y=0.3, r=0.05, t_grid=[0.0, 1.0],
                                 trials=100, seed=6, cap=3)
    assert out.widened_uncertainty


def test_aperiodicity_probe_uniform_is_zero(rds):
    bits = sample_window(rds.base, 41, 50)
    frac = aperiodicity_probe(rds, bits, trials=1000, horizon=50, seed=8)
    assert frac == 0.0


def test_aperiodicity_probe_forced_points(rds):
    assert aperiodicity_probe(rds, [0] * 50, 1, 50, 0,
                              points=[CirclePoint.from_fraction(0, 1)]) == 1.0
    assert aperiodicity_probe(rds, [0] * 50, 1, 50, 0,
                              points=[CirclePoint.from_fraction(1, 3)]) == 1.0


def test_aperiodicity_probe_needs_a_start_point(rds):
    with pytest.raises(ValueError, match="start point"):
        aperiodicity_probe(rds, [0] * 5, trials=0, horizon=5, seed=0)
    with pytest.raises(ValueError, match="start point"):
        aperiodicity_probe(rds, [0] * 5, trials=3, horizon=5, seed=0, points=[])


_DENOMINATORS = st.integers(1, 60) | st.sampled_from([2 ** j for j in range(1, 12)])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10**6), _DENOMINATORS), min_size=1,
                max_size=4),
       st.lists(st.integers(0, 1), min_size=1, max_size=40),
       st.sampled_from([(2, 3), (2, 5), (3, 4), (6, 7)]))
def test_aperiodicity_probe_matches_orbit_returns(fractions, bits, multipliers):
    rds = CircleRDS(multipliers=multipliers)
    points = [CirclePoint.from_fraction(p, q) for p, q in fractions]
    returns = sum(any(y.numerator == x0.numerator
                      for y in random_orbit(rds, bits, x0, len(bits)))
                  for x0 in points)
    probe = aperiodicity_probe(rds, bits, trials=0, horizon=len(bits), seed=0,
                               points=points)
    assert probe == returns / len(points)


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


# a 36-bit window: with block products up to 2**32 straddles are frequent,
# so the exact fallback runs often, and widths of 1 to 100 bits fall on
# both sides of the window and past the 64-bit guard floor
_SMALL_WINDOW = 36


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
        assert circle._scan_to_ball(nums, den, bits, muls, arc, cap) == want
    assert circle._scan_to_ball(nums, den, bits, muls, arc, cap) == want


@settings(max_examples=300, deadline=None)
@given(den=st.integers(3, 2**40).filter(lambda d: d & (d - 1)),
       num=st.integers(0, 2**40), bits=st.lists(st.integers(0, 1), min_size=1,
                                                 max_size=60),
       muls=st.sampled_from([(2, 3), (2, 5), (3, 4), (6, 7)]),
       center=st.floats(0.0, 1.0, exclude_max=True) | st.sampled_from([0.0, 0.01, 0.99]),
       radius=st.floats(1e-6, 0.49))
# 1/7 -> 2/7 -> 4/7 -> 1/7 lands on the part of the ball past 0
@example(den=7, num=1, bits=[0, 0, 0], muls=(2, 3), center=0.95, radius=0.2)
# the ball starts below 0: 2/5 -> 4/5 lies at distance 1/4 < 0.3 from 0.05
@example(den=5, num=2, bits=[0], muls=(2, 3), center=0.05, radius=0.3)
def test_hitting_time_ball_matches_exact_distance_scan(den, num, bits, muls,
                                                       center, radius):
    # non-dyadic denominators take the one-step scan's % branch
    rds = CircleRDS(multipliers=muls)
    x0 = CirclePoint.from_fraction(num, den)
    (want,) = _one_step_hits([x0.numerator], den, bits, muls,
                             _in_ball(den, center, radius), len(bits))
    assert hitting_time_ball(rds, bits, x0, BallTarget(center, radius),
                             len(bits)) == want
