import itertools
import math

import numpy as np
import pytest

from hitlaw.base_process import BaseProcess, make_rng, sample_window
from hitlaw.errors import UnsupportedConfigError
from hitlaw.fiber import (FiberMeasure, Pattern, binary_symmetric_model,
                          density_ratio, fiber_cylinder_measure,
                          marginal_cylinder_measure, sample_fiber_prefix)
from hitlaw.ledger import compute_ledger, entrance_sum, hits_sum
from hitlaw.survival import (conditional_return_survival, quenched_survival,
                             rescaled_survival)

from conftest import random_base, random_fiber_measure


def test_fiber_measure_validation():
    with pytest.raises(ValueError):
        FiberMeasure([[0.0, 1.0], [0.5, 0.5]])
    with pytest.raises(ValueError):
        FiberMeasure([[0.4, 0.4], [0.5, 0.5]])
    fm = FiberMeasure([[0.3, 0.7], [0.7, 0.3]])
    assert fm.q_max == 0.7
    assert fm.h0 == pytest.approx(-math.log(0.7))


def test_pattern_validation():
    with pytest.raises(ValueError):
        Pattern((), 2)
    with pytest.raises(ValueError):
        Pattern((0, 2), 2)
    assert Pattern((0, 1), 2).n == 2


class _FixedWindow:
    """Minimal window stub with prescribed symbols."""

    def __init__(self, symbols):
        self._sym = np.asarray(symbols, dtype=np.int64)
        self.label = "fixed"

    def __len__(self):
        return self._sym.size

    def prefix(self, length):
        return self._sym[:length]


def test_fiber_cylinder_hand_values(coin_pair):
    _, fm = coin_pair
    win = _FixedWindow([0, 1])
    assert fiber_cylinder_measure(fm, win, Pattern((0, 0), 2)) == pytest.approx(0.3 * 0.7)
    assert fiber_cylinder_measure(fm, win, Pattern((1,), 2)) == pytest.approx(fm.W[0, 1])


def test_fiber_cylinder_sums_to_one_and_qmax_bound():
    rng = make_rng(3)
    for s, b in [(2, 2), (2, 3), (3, 2)]:
        fm = random_fiber_measure(rng, s, b)
        win = _FixedWindow(rng.integers(0, s, size=6))
        for n in range(1, 7):
            vals = [fiber_cylinder_measure(fm, win, Pattern(wd, b))
                    for wd in itertools.product(range(b), repeat=n)]
            assert abs(math.fsum(vals) - 1.0) < 1e-10
            assert all(v <= fm.q_max**n + 1e-15 for v in vals)


def test_fiber_cylinder_shift_equivariance():
    rng = make_rng(4)
    fm = random_fiber_measure(rng, 2, 2)
    proc = BaseProcess.bernoulli([0.5, 0.5])
    win = sample_window(proc, seed=9, length=20)
    pat = Pattern((0, 1, 1), 2)
    for k in (0, 3, 7):
        assert fiber_cylinder_measure(fm, win, pat, offset=k) == pytest.approx(
            fiber_cylinder_measure(fm, win.shifted(k), pat, offset=0), abs=0)


# each exact entry point, as one read of a window: (fm, proc, window, word)
_EXACT_READS = {
    "quenched_survival": lambda fm, proc, w, pat: quenched_survival(
        fm, w, pat, offset=2, k_max=40).values.tolist(),
    "conditional_return_survival": lambda fm, proc, w, pat:
        conditional_return_survival(fm, w, pat, offset=3, k_max=30).values.tolist(),
    "rescaled_survival": lambda fm, proc, w, pat: rescaled_survival(
        fm, proc, w, pat, [0.0, 0.5, 1.0, 2.0]).values.tolist(),
    "compute_ledger": lambda fm, proc, w, pat: compute_ledger(
        fm, proc, w, pat, t=1.0, g=2),
    "hits_sum": lambda fm, proc, w, pat: hits_sum(fm, w, pat, 25),
    "entrance_sum": lambda fm, proc, w, pat: entrance_sum(fm, w, pat, 25, 3),
    "fiber_cylinder_measure": lambda fm, proc, w, pat: fiber_cylinder_measure(
        fm, w, pat, offset=5),
    "sample_fiber_prefix": lambda fm, proc, w, pat: sample_fiber_prefix(
        fm, w, 20, make_rng(4)).tolist(),
}


@pytest.mark.parametrize("entry", sorted(_EXACT_READS))
def test_short_window_reads_like_a_presized_one(entry, markov_proc):
    # a window draws the noise it is read for, so a 1-symbol window gives
    # exactly what a window pre-sized past every read gives
    fm = FiberMeasure([[0.3, 0.7], [0.7, 0.3]])
    pat = Pattern((0, 1, 1), 2)
    read = _EXACT_READS[entry]
    short = read(fm, markov_proc, sample_window(markov_proc, 11, 1), pat)
    assert short == read(fm, markov_proc, sample_window(markov_proc, 11, 2000), pat)


def test_marginal_binary_symmetric_is_fair_coin(coin_pair):
    proc, fm = coin_pair
    for pat in [Pattern((0,) * 5, 2), Pattern((0, 1, 1, 0), 2), Pattern((1,), 2)]:
        assert marginal_cylinder_measure(fm, proc, pat) == pytest.approx(
            2.0 ** -pat.n, rel=1e-12)


def test_marginal_single_symbol_bernoulli():
    rng = make_rng(5)
    fm = random_fiber_measure(rng, 3, 2)
    proc = random_base(rng, 3)
    got = marginal_cylinder_measure(fm, proc, Pattern((1,), 2))
    assert got == pytest.approx(float(proc.weights @ fm.W[:, 1]), rel=1e-14)


def test_marginal_markov_matches_monte_carlo(markov_proc):
    fm = FiberMeasure([[0.3, 0.7], [0.7, 0.3]])
    pat = Pattern((0, 0), 2)
    exact = marginal_cylinder_measure(fm, markov_proc, pat)
    n_win = 10**5
    rng = make_rng(12)
    # one long stationary window gives n_win stationary offsets
    win = sample_window(markov_proc, seed=100, length=n_win + pat.n)
    rows = win.prefix(n_win + pat.n)
    vals = fm.W[rows[:-1], 0] * fm.W[rows[1:], 0]
    mean = float(vals.mean())
    # conservative i.i.d.-style band, inflated for the chain's correlation
    sigma = float(vals.std(ddof=1)) / math.sqrt(n_win) * 3.0
    assert abs(mean - exact) < 3 * sigma


def test_marginal_bernoulli_matches_monte_carlo():
    rng = make_rng(17)
    fm = random_fiber_measure(rng, 2, 3)
    proc = random_base(rng, 2)
    pat = Pattern((2, 0, 1), 3)
    exact = marginal_cylinder_measure(fm, proc, pat)
    n_win = 10**5
    win = sample_window(proc, seed=55, length=n_win + pat.n)
    rows = win.prefix(n_win + pat.n)
    vals = np.ones(n_win)
    for j, y in enumerate(pat.symbols):
        vals *= fm.W[rows[j:j + n_win], y]
    sigma = float(vals.std(ddof=1)) / math.sqrt(n_win)
    assert abs(float(vals.mean()) - exact) < 3 * sigma


def test_density_ratio_window_equals_pattern(coin_pair):
    proc, fm = coin_pair
    n = 12
    win = _FixedWindow([0, 1] * (n // 2))
    pat = Pattern(tuple([0, 1] * (n // 2)), 2)
    out = density_ratio(fm, proc, win, pat)
    assert out.match_count == n
    assert out.ratio == pytest.approx(0.6**n, rel=1e-12)


def test_density_ratio_rejects_other_shapes(markov_proc):
    fm = FiberMeasure([[0.3, 0.7], [0.7, 0.3]])
    win = _FixedWindow([0, 1])
    with pytest.raises(UnsupportedConfigError):
        density_ratio(fm, markov_proc, win, Pattern((0,), 2))
    asym = FiberMeasure([[0.3, 0.7], [0.6, 0.4]])
    with pytest.raises(UnsupportedConfigError):
        density_ratio(asym, BaseProcess.bernoulli([0.5, 0.5]), win, Pattern((0,), 2))


def test_density_ratio_p_half_warns_and_is_one():
    proc, fm = binary_symmetric_model(0.5)
    win = _FixedWindow([0, 1, 1, 0])
    with pytest.warns(UserWarning):
        out = density_ratio(fm, proc, win, Pattern((1, 1, 0, 0), 2))
    assert out.ratio == 1.0


def test_density_ratio_dispersion_at_n200(coin_pair):
    proc, fm = coin_pair
    n, draws = 200, 1000
    rng = make_rng(2024)
    hits = 0
    for i in range(draws):
        win = sample_window(proc, [2024, i], n)
        pat = Pattern(tuple(rng.integers(0, 2, size=n)), 2)
        if abs(density_ratio(fm, proc, win, pat).log_ratio) >= 10.0:
            hits += 1
    # CLT on the match count puts this near 0.885; see the acceptance suite
    # for the (stricter) gate that this statistic is measured against.
    assert hits / draws > 0.8


def test_sample_fiber_prefix_empty_and_band(coin_pair):
    proc, fm = coin_pair
    rng = make_rng(8)
    win = sample_window(proc, seed=3, length=10**5)
    state = rng.bit_generator.state
    empty = sample_fiber_prefix(fm, win, 0, rng)
    assert empty.size == 0 and empty.dtype == np.int64
    assert rng.bit_generator.state == state   # an empty draw consumes nothing
    n = 10**5
    xs = sample_fiber_prefix(fm, win, n, rng)
    rows = win.prefix(n)
    mask = rows == 0
    frac = float(np.mean(xs[mask] == 0))
    sigma = math.sqrt(0.3 * 0.7 / int(mask.sum()))
    assert abs(frac - 0.3) < 3 * sigma


def test_sample_fiber_prefix_pattern_frequency_matches_marginal():
    rng = make_rng(9)
    fm = random_fiber_measure(rng, 2, 2)
    proc = random_base(rng, 2)
    pat = Pattern((0, 1, 0), 2)
    exact = marginal_cylinder_measure(fm, proc, pat)
    trials = 10**5
    win = sample_window(proc, seed=77, length=3)
    count = 0
    for i in range(trials):
        w = sample_window(proc, [77, i], 3)
        xs = sample_fiber_prefix(fm, w, 3, rng)
        count += int(tuple(xs) == pat.symbols)
    sigma = math.sqrt(exact * (1 - exact) / trials)
    assert abs(count / trials - exact) < 3 * sigma


class _Uniforms:
    """Stands in for a generator whose one ``random`` call returns preset
    uniforms."""

    def __init__(self, u):
        self._u = np.asarray(u, dtype=float)

    def random(self, size):
        assert size == self._u.size
        return self._u


def _on_and_beside(breakpoints):
    """Uniforms at 0, just under 1, and on each breakpoint and one double
    either side of it."""
    u = [0.0, np.nextafter(1.0, 0.0)]
    for c in breakpoints:
        u += [np.nextafter(c, 0.0), c, np.nextafter(c, 1.0)]
    return [x for x in u if 0.0 <= x < 1.0]


@pytest.mark.parametrize("matrix", [
    [[0.25, 0.75], [0.5, 0.5]],
    [[0.5, 0.25, 0.25], [0.1, 0.2, 0.7]],   # 0.1 + 0.2 rounds up
])
def test_fiber_draw_is_the_count_of_cdf_entries_below_the_uniform(matrix):
    # on rows whose cdf ends at 1, counting the inner breakpoints below u is
    # counting all b entries, ties on a breakpoint included
    fm = FiberMeasure(np.array(matrix))
    cum = np.cumsum(fm.W, axis=1)
    assert (cum[:, -1] == 1.0).all()
    u = np.array(_on_and_beside(cum[:, :-1].ravel().tolist()))
    for row in range(fm.base_alphabet_size):
        window = _FixedWindow([row] * u.size)
        want = (u[:, np.newaxis] > cum[[row] * u.size]).sum(axis=1)
        got = sample_fiber_prefix(fm, window, u.size, _Uniforms(u))
        assert got.dtype == np.int64 and got.tolist() == want.tolist()


@pytest.mark.parametrize("matrix", [
    [[0.25, 0.75 - 4e-13], [0.5, 0.5]],
    [[0.2, 0.7, 0.1 - 4e-13], [0.1, 0.1, 0.8]],
])
def test_fiber_draw_on_a_row_summing_below_one_stays_in_the_alphabet(matrix):
    # such a row passes the stochastic check; a uniform above its last cdf
    # entry still draws its last symbol, not b
    fm = FiberMeasure(np.array(matrix))
    b = fm.fiber_alphabet_size
    assert np.cumsum(fm.W[0])[-1] < 1.0
    u = [1.0 - 2.0**-50, np.nextafter(1.0, 0.0), 0.0]
    got = sample_fiber_prefix(fm, _FixedWindow([0, 0, 0]), 3, _Uniforms(u))
    assert got.tolist() == [b - 1, b - 1, 0]
