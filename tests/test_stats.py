import math

import numpy as np
import pytest

from hitlaw.base_process import sample_window
from hitlaw.circle import CircleRDS, quenched_law_statistic
from hitlaw.config import validate
from hitlaw.fiber import Pattern, binary_symmetric_model
from hitlaw.stats import _check_t_grid, dkw_band, ks_to_exponential, trend_report
from hitlaw.survival import annealed_survival, rescaled_survival


def test_ks_exact_match_is_zero():
    t = np.arange(0.0, 5.01, 0.1)
    rep = ks_to_exponential(np.exp(-t), t_grid=t)
    assert rep.sup_abs_err == 0.0


def test_ks_constant_one_curve():
    t = np.arange(0.0, 5.01, 0.1)
    rep = ks_to_exponential(np.ones_like(t), t_grid=t)
    assert rep.sup_abs_err == pytest.approx(1.0 - math.exp(-5.0))


def test_ks_matches_recomputation():
    rng = np.random.default_rng(3)
    t = np.sort(rng.uniform(0, 5, size=40))
    obs = np.clip(np.exp(-t) + rng.normal(0, 0.02, size=40), 0, 1)
    rep = ks_to_exponential(obs, t_grid=t)
    assert rep.sup_abs_err == pytest.approx(
        max(abs(o - math.exp(-ti)) for o, ti in zip(obs, t)), abs=1e-15)


def test_ks_grid_refinement_only_grows():
    t = np.arange(0.0, 5.01, 0.5)
    fine = np.arange(0.0, 5.01, 0.1)
    obs_c = 1.0 / (1.0 + t)
    obs_f = 1.0 / (1.0 + fine)
    assert (ks_to_exponential(obs_f, t_grid=fine).sup_abs_err
            >= ks_to_exponential(obs_c, t_grid=t).sup_abs_err)


def test_ks_accepts_curve_objects():
    class Dummy:
        t_grid = np.array([0.0, 1.0])
        observed = np.array([1.0, 0.3])
        stderr = np.array([0.0, 0.01])

    rep = ks_to_exponential(Dummy())
    assert rep.sup_abs_err == pytest.approx(abs(0.3 - math.exp(-1)))
    assert rep.stderr is not None


def test_ks_validation():
    with pytest.raises(ValueError):
        ks_to_exponential(np.array([1.0]))
    with pytest.raises(ValueError):
        ks_to_exponential(np.array([]), t_grid=np.array([]))


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
    for tree in (shift, circle):
        assert validate(tree) == ([] if accepted else [f"sweep.t: {want}"])
    calls = (
        lambda: rescaled_survival(fm, proc, sample_window(proc, 1, 100), pat, grid),
        lambda: annealed_survival(fm, proc, pat, grid, n_windows=2, seed=1),
        lambda: quenched_law_statistic(CircleRDS(), [0, 1] * 10, 0.3, 0.05, grid,
                                       trials=100, seed=1),
    )
    for call in calls:
        assert _error(call) == want
