import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hitlaw.base_process import sample_window
from hitlaw.circle import CircleRDS, quenched_law_statistic
from hitlaw.config import validate
from hitlaw.fiber import Pattern, binary_symmetric_model
from hitlaw.stats import _check_t_grid, dkw_band, ks_to_exponential, trend_report
from hitlaw.survival import rescaled_survival


def test_ks_exact_match_is_zero():
    t = np.arange(0.0, 5.01, 0.1)
    assert ks_to_exponential(np.exp(-t), t) == 0.0


def test_ks_constant_one_curve():
    t = np.arange(0.0, 5.01, 0.1)
    assert ks_to_exponential(np.ones_like(t), t) == pytest.approx(1.0 - math.exp(-5.0))


def test_ks_matches_recomputation():
    rng = np.random.default_rng(3)
    t = np.sort(rng.uniform(0, 5, size=40))
    obs = np.clip(np.exp(-t) + rng.normal(0, 0.02, size=40), 0, 1)
    assert ks_to_exponential(obs, t) == pytest.approx(
        max(abs(o - math.exp(-ti)) for o, ti in zip(obs, t)), abs=1e-15)


def test_ks_grid_refinement_only_grows():
    t = np.arange(0.0, 5.01, 0.5)
    fine = np.arange(0.0, 5.01, 0.1)
    obs_c = 1.0 / (1.0 + t)
    obs_f = 1.0 / (1.0 + fine)
    assert ks_to_exponential(obs_f, fine) >= ks_to_exponential(obs_c, t)


def test_ks_validation():
    with pytest.raises(ValueError, match="lengths differ"):
        ks_to_exponential(np.array([1.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="non-empty"):
        ks_to_exponential(np.array([]), np.array([]))


def test_trend_basic_and_validation():
    rep = trend_report([0.3, 0.2, 0.1])
    assert rep.nonincreasing
    assert rep.log_slope < 0
    with pytest.raises(ValueError):
        trend_report([0.1, 0.2])
    rep2 = trend_report([0.1, 0.2, 0.3])
    assert not rep2.nonincreasing
    assert rep2.log_slope > 0


def test_trend_handles_exact_zeros():
    rep = trend_report([0.5, 0.0, 0.0])
    assert rep.nonincreasing


def test_trend_json_roundtrip():
    d = trend_report([0.3, 0.2, 0.1], xs=[6, 10, 14]).to_json_dict()
    assert d["nonincreasing"] is True
    assert len(d["values"]) == 3


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-400, 400), st.floats(1e-300, 1.0)),
                min_size=3, max_size=12, unique_by=lambda point: point[0]))
def test_trend_slope_is_the_least_squares_fit(points):
    # np.polyfit, the LAPACK fit the closed form replaced, is its oracle;
    # the xs are word lengths or -log10 radii, here in steps of 1/8
    xs, values = zip(*sorted((x / 8, v) for x, v in points))
    want = np.polyfit(xs, np.log(values), 1)[0]
    got = trend_report(values, xs=xs).log_slope
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_trend_over_one_x_has_no_slope():
    # strictly decreasing radii can share one -log10(r): r = 0.1 and the two
    # floats below it all give 1.0, where a fit has no slope
    rs = [0.1, math.nextafter(0.1, 0.0), math.nextafter(math.nextafter(0.1, 0.0), 0.0)]
    rep = trend_report([0.3, 0.2, 0.1], xs=[-math.log10(r) for r in rs])
    assert rep.nonincreasing and math.isnan(rep.log_slope)
    assert rep.to_json_dict()["xs"] == [1.0, 1.0, 1.0]


def test_dkw_band_value():
    assert dkw_band(10**5, 0.01) == pytest.approx(
        math.sqrt(math.log(200.0) / (2 * 10**5)))
    with pytest.raises(ValueError):
        dkw_band(0)


# Each t grid, and whether the one t-grid rule accepts it.
_T_GRIDS = {
    "empty": ([], False),
    "starts-at-minus-1": ([-1.0, 0.0, 1.0], False),
    "not-increasing": ([0.0, 1.0, 1.0], False),
    "valid": ([0.0, 0.5, 1.0], True),
}


def _error(call):
    """The ValueError message of ``call()``, or None if it returns."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("grid, accepted", list(_T_GRIDS.values()), ids=list(_T_GRIDS))
def test_every_t_grid_consumer_applies_the_one_rule(grid, accepted):
    want = _error(lambda: _check_t_grid(grid))
    assert (want is None) == accepted
    proc, fm = binary_symmetric_model(0.3)
    pat = Pattern((0, 1, 1), 2)
    shift = {"experiment": "quenched_shift", "seeds": [1],
             "base": {"kind": "bernoulli", "weights": [0.5, 0.5]},
             "fiber": {"matrix": [[0.3, 0.7], [0.7, 0.3]]},
             "sweep": {"n": [3], "t": list(grid)}}
    circle = {"experiment": "circle_law", "seeds": [1], "trials": 100,
              "sweep": {"t": list(grid), "r": [0.05]}}
    annealed = dict(shift, experiment="annealed_shift", trials=2)
    for tree in (shift, annealed, circle):
        assert validate(tree) == ([] if accepted else [f"sweep.t: {want}"])
    calls = (
        lambda: rescaled_survival(fm, proc, sample_window(proc, 1, 100), pat, grid),
        lambda: quenched_law_statistic(CircleRDS(), [0, 1] * 10, 0.3, 0.05, grid,
                                       trials=100, seed=1),
    )
    for call in calls:
        assert _error(call) == want
