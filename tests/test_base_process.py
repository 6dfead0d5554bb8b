import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hitlaw.base_process import (_DRAW_BLOCK, BaseProcess, _WindowBuffer,
                                 base_cylinder_prob, make_rng,
                                 psi_mixing_coefficient, sample_window)


def test_bernoulli_window_shape_and_range():
    proc = BaseProcess.bernoulli([0.5, 0.5])
    win = sample_window(proc, seed=1, length=8)
    assert len(win) == 8
    assert all(win[i] in (0, 1) for i in range(8))


def test_degenerate_weights_rejected():
    with pytest.raises(ValueError):
        BaseProcess.bernoulli([1.0, 0.0])
    with pytest.raises(ValueError):
        BaseProcess.bernoulli([0.6, 0.5])


def test_zero_length_window_rejected():
    proc = BaseProcess.bernoulli([0.5, 0.5])
    with pytest.raises(ValueError):
        sample_window(proc, seed=1, length=0)


_SPLIT_PROCESSES = (BaseProcess.bernoulli([0.3, 0.7]),
                    BaseProcess.bernoulli([0.2, 0.3, 0.5]),
                    BaseProcess.markov([[0.9, 0.1], [0.2, 0.8]]))


@settings(max_examples=60, deadline=None)
@given(proc=st.sampled_from(_SPLIT_PROCESSES), seed=st.integers(0, 2**32 - 1),
       first=st.integers(1, 40), steps=st.lists(st.integers(1, 300), max_size=6))
def test_window_reproducible_and_extension_deterministic(proc, seed, first, steps):
    # reads in pieces, by prefix or by index, draw what one read of the
    # whole draws: callers may pass any window length
    whole = first + sum(steps)
    pieces = sample_window(proc, seed, first)
    stop = first
    for i, step in enumerate(steps):
        stop += step
        if i % 2:
            pieces[stop - 1]
        else:
            pieces.prefix(stop)
    assert len(pieces) == whole
    assert np.array_equal(pieces.prefix(whole),
                          sample_window(proc, seed, whole).prefix(whole))


@settings(max_examples=80, deadline=None)
@given(raw=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=5),
       seed=st.integers(0, 2**32 - 1),
       splits=st.lists(st.integers(1, 200), min_size=1, max_size=5))
def test_bernoulli_extension_draws_what_rng_choice_draws(raw, seed, splits):
    # each extension is the draw rng.choice(size, extra, p=weights) makes
    weights = np.asarray(raw) / sum(raw)
    proc = BaseProcess.bernoulli(weights)
    win = sample_window(proc, seed, splits[0])
    ref_rng = make_rng(seed)
    want = [ref_rng.choice(weights.size, size=splits[0], p=proc.weights)]
    stop = splits[0]
    for extra in splits[1:]:
        stop += extra
        win.prefix(stop)
        want.append(ref_rng.choice(weights.size, size=extra, p=proc.weights))
    assert np.array_equal(win.prefix(stop), np.concatenate(want))


def _markov_reference(proc, rng, size, state=None):
    """The per-symbol chain draw: one searchsorted call per symbol."""
    cum = np.cumsum(proc.transition, axis=1)
    u = rng.random(size)
    out = []
    for i in range(size):
        row = np.cumsum(proc.stationary) if state is None else cum[state]
        state = int(np.searchsorted(row, u[i], side="right"))
        out.append(state)
    return out


@settings(max_examples=25, deadline=None)
@given(raw=st.integers(2, 5).flatmap(
           lambda s: st.lists(st.lists(st.floats(0.05, 1.0), min_size=s, max_size=s),
                              min_size=s, max_size=s)),
       seed=st.integers(0, 2**32 - 1),
       short=st.lists(st.integers(1, 300), min_size=1, max_size=4),
       long=st.sampled_from([1] + [_DRAW_BLOCK + d for d in range(-1, 3)]),
       at=st.integers(0, 4))
def test_markov_extension_draws_what_the_per_symbol_loop_draws(raw, seed, short, long, at):
    # reads of 1 to past _DRAW_BLOCK symbols, the first read included, by
    # prefix or by index, draw the chain of one searchsorted per symbol
    q = np.asarray(raw) / np.sum(raw, axis=1, keepdims=True)
    proc = BaseProcess.markov(q)
    first, *splits = short[:at] + [long] + short[at:]
    win = sample_window(proc, seed, first)
    ref_rng = make_rng(seed)
    want = _markov_reference(proc, ref_rng, first)
    stop = first
    for i, extra in enumerate(splits):
        stop += extra
        if i % 2:
            win[stop - 1]
        else:
            win.prefix(stop)
        want += _markov_reference(proc, ref_rng, extra, want[-1])
    assert win.prefix(stop).tolist() == want


class _PresetRng:
    """Stands in for a generator: returns preset uniforms in order."""

    def __init__(self, draws):
        self._draws = list(draws)

    def random(self, size):
        out, self._draws = self._draws[:size], self._draws[size:]
        return np.asarray(out)


@pytest.mark.parametrize("proc, draws, want", [
    # transition row 0 sums to 1 - 5e-13, within the stochasticity check
    (BaseProcess.markov([[0.6, 0.4 - 5e-13], [0.4, 0.6]]),
     [0.0, 1.0 - 1e-13, 1.0 - 1e-13], [0, 1, 1]),
    # the stationary vector sums to 1 - 5e-13
    (BaseProcess.markov([[0.5, 0.5], [0.5, 0.5]], stationary=[0.5, 0.5 - 5e-13]),
     [1.0 - 1e-13, 0.0], [1, 0]),
])
def test_markov_draw_below_one_stays_in_alphabet(proc, draws, want):
    # a cumulative row that ends just under 1 must not map u < 1 past it
    buf = _WindowBuffer(proc, _PresetRng(draws), len(draws))
    assert buf.symbols.tolist() == want


def test_shifted_window_shares_realization():
    proc = BaseProcess.bernoulli([0.3, 0.7])
    win = sample_window(proc, seed=5, length=30)
    view = win.shifted(7)
    assert len(view) == 23
    assert view[0] == win[7]
    view.prefix(40)   # extends the shared buffer
    assert len(win) == 47


def test_markov_empirical_frequency_near_stationary():
    proc = BaseProcess.markov([[0.9, 0.1], [0.2, 0.8]])
    n = 10**5
    win = sample_window(proc, seed=7, length=n)
    freq0 = float(np.mean(win.prefix(n) == 0))
    pi0 = proc.stationary[0]
    lam = 0.7   # second eigenvalue of the chain
    sigma = math.sqrt(pi0 * (1 - pi0) * (1 + lam) / (1 - lam) / n)
    assert abs(freq0 - pi0) < 3 * sigma


def test_base_cylinder_prob_bernoulli():
    assert base_cylinder_prob(BaseProcess.bernoulli([0.5, 0.5]), [0, 1]) == pytest.approx(0.25)
    assert base_cylinder_prob(BaseProcess.bernoulli([0.3, 0.7]), [1]) == pytest.approx(0.7)


def test_base_cylinder_prob_markov_hand_value():
    proc = BaseProcess.markov([[0.9, 0.1], [0.2, 0.8]])
    assert proc.stationary == pytest.approx([2 / 3, 1 / 3])
    assert base_cylinder_prob(proc, [0, 1]) == pytest.approx((2 / 3) * 0.1)


def test_base_cylinder_prob_validation():
    proc = BaseProcess.bernoulli([0.5, 0.5])
    with pytest.raises(ValueError):
        base_cylinder_prob(proc, [])
    with pytest.raises(ValueError):
        base_cylinder_prob(proc, [0, 2])


@pytest.mark.parametrize("s", [2, 3])
def test_cylinder_probs_sum_to_one(s):
    rng = make_rng(11)
    w = rng.uniform(0.1, 1.0, size=s)
    proc_b = BaseProcess.bernoulli(w / w.sum())
    q = rng.uniform(0.1, 1.0, size=(s, s))
    proc_m = BaseProcess.markov(q / q.sum(axis=1, keepdims=True))
    for proc in (proc_b, proc_m):
        for n in range(1, 7):
            total = math.fsum(base_cylinder_prob(proc, word)
                              for word in itertools.product(range(s), repeat=n))
            assert abs(total - 1.0) < 1e-10


def test_psi_mixing_bernoulli_exactly_zero():
    proc = BaseProcess.bernoulli([0.3, 0.7])
    for gap in (0, 3, 10):
        assert psi_mixing_coefficient(proc, gap, 2, 2) == 0.0


def _enumerated_psi(proc, gap, n, m):
    """Direct enumeration over all cylinder pairs; the independent oracle."""
    s = proc.alphabet_size
    worst = 0.0
    power = np.linalg.matrix_power(proc.transition, gap + 1)
    for u in itertools.product(range(s), repeat=n):
        pu = base_cylinder_prob(proc, u)
        for v in itertools.product(range(s), repeat=m):
            pv = base_cylinder_prob(proc, v)
            joint = pu * power[u[-1], v[0]] * pv / proc.stationary[v[0]]
            worst = max(worst, abs(joint / (pu * pv) - 1.0))
    return worst


def test_psi_mixing_markov_closed_form_and_oracle(markov_proc):
    got = psi_mixing_coefficient(markov_proc, 0, 1, 1)
    q = markov_proc.transition
    pi = markov_proc.stationary
    expected = max(abs(q[i, j] / pi[j] - 1.0) for i in range(2) for j in range(2))
    assert got == pytest.approx(expected, rel=1e-12)
    for gap, n, m in [(0, 1, 1), (0, 2, 2), (3, 2, 1), (5, 1, 2)]:
        assert psi_mixing_coefficient(markov_proc, gap, n, m) == pytest.approx(
            _enumerated_psi(markov_proc, gap, n, m), rel=1e-10)


def test_psi_mixing_second_eigenvalue_decay(markov_proc):
    lam = 0.7
    psi0 = psi_mixing_coefficient(markov_proc, 0, 1, 1)
    psi20 = psi_mixing_coefficient(markov_proc, 20, 1, 1)
    assert psi20 <= psi0 * lam**20 * (1 + 1e-9)
    values = [psi_mixing_coefficient(markov_proc, g, 1, 1) for g in range(31)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
