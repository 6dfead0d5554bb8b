import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hitlaw.base_process import (_DRAW_BLOCK, BaseProcess, _WindowBuffer,
                                 make_rng, sample_window)


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


@settings(max_examples=12, deadline=None)
@given(s=st.integers(2, 5), stay=st.sampled_from([0.9, 0.99, 1 - 1e-3, 1 - 1e-6]),
       seed=st.integers(0, 2**32 - 1),
       reads=st.lists(st.integers(1, 3 * _DRAW_BLOCK // 2), min_size=1, max_size=2))
def test_sticky_markov_extension_draws_what_the_per_symbol_loop_draws(s, stay, seed, reads):
    # a chain that stays put with probability `stay` (off-diagonal entries
    # down to 1e-6 / 4) unpins most steps: its runs last about 1 / (1 - stay)
    # steps, so they outlive the vectorized rounds and are walked one
    # symbol at a time, across read and _DRAW_BLOCK boundaries
    q = np.full((s, s), (1 - stay) / (s - 1))
    np.fill_diagonal(q, stay)
    proc = BaseProcess.markov(q)
    win = sample_window(proc, seed, reads[0])
    ref_rng = make_rng(seed)
    want = _markov_reference(proc, ref_rng, reads[0])
    for extra in reads[1:]:
        win.prefix(len(want) + extra)
        want += _markov_reference(proc, ref_rng, extra, want[-1])
    assert win.prefix(len(want)).tolist() == want


@settings(max_examples=40, deadline=None)
@given(stay=st.sampled_from([0.6, 1 - 1e-6]), seed=st.integers(0, 2**32 - 1),
       reads=st.lists(st.integers(1, 100), min_size=1, max_size=3))
def test_short_markov_draws_are_those_of_the_per_symbol_loop(stay, seed, reads):
    # the quenched-markov benchmark chain and a sticky one: a read shorter
    # than _RUN_HANDOFF is walked whole, a longer one goes through the rounds
    proc = BaseProcess.markov([[stay, 1 - stay], [1 - stay, stay]])
    win = sample_window(proc, seed, reads[0])
    ref_rng = make_rng(seed)
    want = _markov_reference(proc, ref_rng, reads[0])
    for extra in reads[1:]:
        win.prefix(len(want) + extra)
        want += _markov_reference(proc, ref_rng, extra, want[-1])
    assert np.array_equal(win.prefix(len(want)), want)


class _PresetRng:
    """Stands in for a generator: returns preset uniforms in order."""

    def __init__(self, draws):
        self._draws = list(draws)

    def random(self, size):
        out, self._draws = self._draws[:size], self._draws[size:]
        return np.asarray(out)


@pytest.mark.parametrize("weights", [
    [0.3, 0.7],
    [0.2, 0.7, 0.1],   # cumsum ends at 1 - 2**-53, so the cdf is rescaled
    [0.1, 0.2, 0.7],   # cumsum's second entry rounds to 0.30000000000000004
    [0.1, 0.1, 0.15, 0.3, 0.35],
])
def test_bernoulli_draws_on_the_cdf_entries_are_those_of_searchsorted(weights):
    # a uniform exactly on a cdf entry, or one double either side of it, at
    # 0.0 and at the largest double below 1 gets searchsorted's symbol
    proc = BaseProcess.bernoulli(weights)
    cdf = _WindowBuffer(proc, _PresetRng([]), 0)._cdf
    draws = [0.0, np.nextafter(1.0, 0.0)]
    for c in cdf[:-1].tolist():
        draws += [np.nextafter(c, 0.0), c, np.nextafter(c, 1.0)]
    buf = _WindowBuffer(proc, _PresetRng(draws), len(draws))
    assert buf.symbols.tolist() == cdf.searchsorted(draws, side="right").tolist()
    assert buf.symbols.tolist()[:2] == [0, len(weights) - 1]


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


def test_markov_draws_on_the_cell_edges_stay_those_of_the_per_symbol_loop():
    # row 0 ends its first cell where row 1 ends its second, so the rows'
    # breakpoints 0.2, 0.5, 0.7 and 0.75 are four, not six.  Uniforms on a
    # breakpoint, at 0.0, inside each cell, in the top cell [0.75, 1), whose
    # step pins the chain at 2, and either side of a breakpoint inside one
    # _CELL_BINS bin cover every cell edge; 2,000 of them make enough runs
    # to go through the vectorized rounds
    proc = BaseProcess.markov([[0.2, 0.3, 0.5], [0.2, 0.5, 0.3], [0.5, 0.25, 0.25]])
    edges = [0.0, 0.2, 0.5, 0.7, 0.75, 0.1, 0.35, 0.6, 0.72, 0.9, 1.0 - 1e-16,
             0.2 - 1e-12, 0.2 + 1e-12, 0.7 - 1e-12, 0.7 + 1e-12]
    draws = np.random.default_rng(3).choice(edges, 2000).tolist()
    buf = _WindowBuffer(proc, _PresetRng(draws), len(draws))
    assert buf.symbols.tolist() == _markov_reference(proc, _PresetRng(draws), len(draws))
    # by hand: the first symbol reads the stationary law; then, on
    # breakpoints, 0.2 takes 0 to 1 and 0.5 keeps 1; 0.0 pins 0; 0.5 takes
    # 0 to 2; 0.75 and 0.9 pin 2; 0.2 takes 2 to 0, and 0.7 takes 0 to 2
    draws = [proc.stationary[0] / 2, 0.2, 0.5, 0.0, 0.5, 0.75, 0.9, 0.2, 0.7]
    buf = _WindowBuffer(proc, _PresetRng(draws), len(draws))
    assert buf.symbols.tolist() == [0, 1, 1, 0, 2, 2, 2, 0, 2]


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
    assert proc.stationary == pytest.approx([2 / 3, 1 / 3])   # by hand
    pi0 = proc.stationary[0]
    lam = 0.7   # second eigenvalue of the chain
    sigma = math.sqrt(pi0 * (1 - pi0) * (1 + lam) / (1 - lam) / n)
    assert abs(freq0 - pi0) < 3 * sigma
