import csv
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle_enum
from conftest import random_base, random_fiber_measure

from hitlaw import ledger, survival
from hitlaw.base_process import BaseProcess, make_rng, sample_window
from hitlaw.config import build_config
from hitlaw.experiments import _draw_pattern, _shift_items, run_experiment
from hitlaw.fiber import (FiberMeasure, Pattern, fiber_cylinder_measure,
                          sample_fiber_prefix)
from hitlaw.survival import (SurvivalCurve, build_automaton,
                             conditional_return_survival, quenched_survival,
                             rescaled_survival)


def test_automaton_hand_transitions():
    aut = build_automaton(Pattern((0, 0), 2))
    assert aut.delta[1, 0] == 2
    assert aut.delta[1, 1] == 0
    assert aut.border == 1
    assert (aut.n, aut.b) == (2, 2)
    aut = build_automaton(Pattern((0, 1), 2))
    assert aut.delta[1, 0] == 1   # failed match keeps the fresh '0'
    assert aut.delta[1, 1] == 2
    assert aut.border == 0


def test_automaton_prefix_step_and_full_read():
    rng = make_rng(1)
    for _ in range(50):
        b = int(rng.integers(2, 4))
        n = int(rng.integers(1, 4))
        pat = Pattern(tuple(rng.integers(0, b, size=n)), b)
        aut = build_automaton(pat)
        for i in range(n):
            assert aut.delta[i, pat.symbols[i]] == i + 1
        # reading the whole word from any state visits the accepting state
        for start in range(n):
            state = start
            seen = False
            for c in pat.symbols:
                state = int(aut.delta[state, c])
                seen = seen or state == n
            assert seen


def test_automaton_occurrences_match_naive_scan():
    rng = make_rng(2)
    for _ in range(30):
        b = int(rng.integers(2, 4))
        n = int(rng.integers(1, 4))
        pat = Pattern(tuple(rng.integers(0, b, size=n)), b)
        aut = build_automaton(pat)
        for length in range(0, 9):
            for word in itertools.product(range(b), repeat=length):
                state = 0
                visits = []
                for pos, c in enumerate(word):
                    state = int(aut.delta[state, c])
                    if state == n:
                        visits.append(pos)
                naive = [p + n - 1 for p in range(length - n + 1)
                         if word[p:p + n] == pat.symbols]
                assert visits == naive


def _random_config(rng, max_n=3, max_b=3):
    s = int(rng.integers(2, 4))
    b = int(rng.integers(2, max_b + 1))
    n = int(rng.integers(1, max_n + 1))
    fm = random_fiber_measure(rng, s, b)
    proc = random_base(rng, s)
    win = sample_window(proc, int(rng.integers(0, 2**32)), 40)
    pat = Pattern(tuple(rng.integers(0, b, size=n)), b)
    return fm, proc, win, pat


def test_quenched_survival_matches_enumeration():
    rng = make_rng(3)
    for _ in range(25):
        fm, _, win, pat = _random_config(rng)
        offset = int(rng.integers(0, 3))
        k_max = int(rng.integers(1, 7))
        got = quenched_survival(fm, win, pat, offset=offset, k_max=k_max)
        want = oracle_enum.enum_quenched_survival(
            fm.W, win.prefix(len(win)), pat.symbols, offset, k_max)
        assert np.max(np.abs(got.values - want)) < 1e-12


def test_conditional_survival_matches_enumeration():
    rng = make_rng(4)
    for _ in range(25):
        fm, _, win, pat = _random_config(rng)
        offset = int(rng.integers(0, 3))
        k_max = int(rng.integers(1, 7))
        got = conditional_return_survival(fm, win, pat, offset=offset, k_max=k_max)
        want = oracle_enum.enum_conditional_survival(
            fm.W, win.prefix(len(win)), pat.symbols, offset, k_max)
        assert np.max(np.abs(got.values - want)) < 1e-12


def test_quenched_single_symbol_closed_form(coin_pair):
    _, fm = coin_pair
    proc = BaseProcess.bernoulli([0.5, 0.5])
    win = sample_window(proc, seed=21, length=30)
    pat = Pattern((0,), 2)
    curve = quenched_survival(fm, win, pat, offset=2, k_max=12)
    rows = win.prefix(15)
    expected = 1.0
    for i in range(1, 13):
        expected *= 1.0 - fm.W[rows[2 + i], 0]
        assert curve.values[i] == pytest.approx(expected, abs=1e-15)


def test_quenched_doubled_symbol_hand_value():
    fm = FiberMeasure([[0.5, 0.5], [0.5, 0.5]])
    proc = BaseProcess.bernoulli([0.5, 0.5])
    win = sample_window(proc, seed=1, length=10)
    curve = quenched_survival(fm, win, Pattern((0, 0), 2), k_max=2)
    assert curve.values[0] == 1.0
    assert curve.values[2] == pytest.approx(0.625, abs=1e-15)


def test_conditional_hand_values(coin_pair):
    # i.i.d. fiber with P(0) = p: joint survival p * (1-p)^j for the word "0"
    fm = FiberMeasure([[0.3, 0.7], [0.3, 0.7]])
    proc = BaseProcess.bernoulli([0.5, 0.5])
    win = sample_window(proc, seed=2, length=20)
    curve = conditional_return_survival(fm, win, Pattern((0,), 2), k_max=10)
    for j in range(11):
        assert curve.values[j] == pytest.approx(0.3 * 0.7**j, rel=1e-12)
    # word "00", fair coin: joint value at j=1 is P(001*) = 1/8
    fm2 = FiberMeasure([[0.5, 0.5], [0.5, 0.5]])
    curve2 = conditional_return_survival(fm2, win, Pattern((0, 0), 2), k_max=1)
    assert curve2.values[0] == pytest.approx(0.25, abs=1e-15)
    assert curve2.values[1] == pytest.approx(0.125, abs=1e-15)


def test_survival_monotone_and_first_occurrence_mass():
    rng = make_rng(6)
    for _ in range(10):
        fm, _, win, pat = _random_config(rng)
        curve = quenched_survival(fm, win, pat, k_max=10)
        assert curve.values[0] == 1.0
        diffs = -np.diff(curve.values)
        assert np.all(diffs >= -1e-15)


def test_decomposition_identity():
    rng = make_rng(7)
    for _ in range(10):
        fm, _, win, pat = _random_config(rng)
        g = int(rng.integers(1, 8))
        mu = fiber_cylinder_measure(fm, win, pat, offset=0)
        cond = conditional_return_survival(fm, win, pat, offset=0, k_max=g)
        entered = mu - cond.values[g]
        assert entered >= -1e-12
        assert cond.values[0] == pytest.approx(mu, abs=1e-15)


def test_survival_curve_invariants_enforced():
    with pytest.raises(ValueError):
        SurvivalCurve(k_grid=np.array([0, 1]), values=np.array([0.5, 0.9]))
    with pytest.raises(ValueError):
        SurvivalCurve(k_grid=np.array([1, 0]), values=np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        SurvivalCurve(k_grid=np.array([0, 1]), values=np.array([1.0, 1.5]))


def test_rescaled_survival_basics(coin_pair):
    proc, fm = coin_pair
    n = 6
    pat = Pattern((0, 1, 0, 0, 1, 1), 2)
    t_grid = [0.0, 0.5, 1.0, 2.0]
    k_max = math.floor(2.0 * 2**n)
    win = sample_window(proc, seed=31, length=k_max + n + 1)
    curve = rescaled_survival(fm, proc, win, pat, t_grid)
    assert curve.values[0] == 1.0
    assert curve.k_values[0] == 0
    assert np.all(curve.k_values == [math.floor(t * 2**n) for t in t_grid])
    full = quenched_survival(fm, win, pat, k_max=k_max)
    for t, k, v in zip(curve.t_grid, curve.k_values, curve.values):
        assert v == full.values[int(k)]


def test_rescaled_single_symbol_closed_form():
    fm = FiberMeasure([[0.3, 0.7], [0.3, 0.7]])
    proc = BaseProcess.bernoulli([0.5, 0.5])
    pat = Pattern((0,), 2)
    win = sample_window(proc, seed=8, length=200)
    curve = rescaled_survival(fm, proc, win, pat, [0.0, 0.1, 0.3])
    p_marg = 0.3   # both rows equal, so the marginal equals the fiber law
    for t, v in zip(curve.t_grid, curve.values):
        assert v == pytest.approx((1 - 0.3) ** math.floor(t / p_marg), rel=1e-12)


def test_a_k_past_int64_names_its_t_and_measure(coin_pair):
    # a 1,100-symbol word's mu(A) underflows to 0, so k(1) leaves int64
    proc, fm = coin_pair
    win = sample_window(proc, seed=1, length=10)
    with pytest.raises(ValueError, match=r"leaves int64 at t=1\.0 for the measure 0\.0"):
        rescaled_survival(fm, proc, win, Pattern((0,) * 1100, 2), [0.0, 1.0])


def _fair_run(tmp_path, monkeypatch, name, **overrides):
    """Manifest and column-state reads of a run on the fair-coin base with
    the p = 0.3 symmetric fiber, whose marginal gives mu(A) = 2**-n."""
    reads = []
    kernel = survival._lockstep

    def counting(mats, syms, V, record, **kw):
        last = np.broadcast_to(record, (len(syms), np.shape(record)[-1]))[:, -1]
        reads.append(sum(len(sym) * int(r) for sym, r in zip(syms, last)) * V.shape[1])
        return kernel(mats, syms, V, record, **kw)
    monkeypatch.setattr(survival, "_lockstep", counting)
    tree = {"experiment": "quenched_shift", "seeds": [1], "threads": 1,
            "base": {"kind": "bernoulli", "weights": [0.5, 0.5]},
            "fiber": {"matrix": [[0.3, 0.7], [0.7, 0.3]]},
            "sweep": {"n": [10], "t": [0.0, 4.0]}}
    manifest = run_experiment(build_config(dict(tree, **overrides)),
                              str(tmp_path / name))
    return manifest, sum(reads)


def test_rescaled_step_cap(coin_pair, tmp_path, monkeypatch):
    # the library has no cap: it computes the k(t) it is asked for
    proc, fm = coin_pair
    pat = Pattern((0,) * 10, 2)
    win = sample_window(proc, seed=1, length=50)
    curve = rescaled_survival(fm, proc, win, pat, [0.0, 4.0])
    assert curve.k_values.tolist() == [0, 4096]
    # a run prices a quenched seed at what its kernel column reads, n states
    # over k(t_max) + n - 1 reads, 10 x 4,105, and truncates it over budget
    # before drawing its window
    manifest, reads = _fair_run(tmp_path, monkeypatch, "at", operation_budget=41050)
    assert manifest["truncated"] == [] and reads == 41050
    manifest, reads = _fair_run(tmp_path, monkeypatch, "over", operation_budget=41049)
    assert manifest["truncated"] == ["quenched n=10 seed=1: needs 41050 "
                                     "column-state reads, over the budget 41049"]
    assert reads == 0


def test_annealed_step_cap(tmp_path, monkeypatch):
    # an annealed word is priced at all its windows, 3 x 41,050, in every
    # chunk: three chunks of one window each truncate it alike, once
    annealed = dict(experiment="annealed_shift", trials=3, threads=3)
    manifest, _ = _fair_run(tmp_path, monkeypatch, "at", operation_budget=123150,
                            **annealed)
    assert manifest["truncated"] == []
    # t = 0 reads k = 0, where every window survives: mean 1, stderr 0
    rows = [row.split(",") for row in
            (tmp_path / "at" / "annealed_n10.csv").read_text().splitlines()[1:]]
    assert rows[0][1:4] == ["0", "1", "0"]
    assert [row[1] for row in rows] == ["0", "4096"]
    manifest, _ = _fair_run(tmp_path, monkeypatch, "over", operation_budget=123149,
                            **annealed)
    assert manifest["truncated"] == ["annealed n=10: needs 123150 column-state "
                                     "reads, over the budget 123149"]
    assert (tmp_path / "over" / "annealed_n10.csv").read_text() == \
        "t,k,mean_survival,stderr,exp_minus_t,abs_err\n"


def test_annealed_survival_degenerate_and_zero_variance(coin_pair, tmp_path):
    # an annealed run's mean is the mean of its windows' rescaled curves:
    # one window gives that window's curve with stderr 0, and at t = 0
    # every window survives, so five windows give mean 1 and stderr 0
    proc, fm = coin_pair
    t_grid = [0.0, 0.5, 1.0]
    for windows in (1, 5):
        cfg = build_config({"experiment": "annealed_shift", "seeds": [17],
                            "trials": windows, "threads": 1,
                            "base": {"kind": "bernoulli", "weights": [0.5, 0.5]},
                            "fiber": {"matrix": fm.W.tolist()},
                            "sweep": {"n": [3], "t": t_grid}})
        run_experiment(cfg, str(tmp_path / str(windows)))
        with open(tmp_path / str(windows) / "annealed_n3.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        mean = [float(row["mean_survival"]) for row in rows]
        pat = _draw_pattern(cfg, 17, 3)
        curves = np.array([rescaled_survival(fm, proc, sample_window(proc, [17, 0, w], 3),
                                             pat, t_grid).values
                           for w in range(windows)])
        if windows == 1:
            assert mean == curves[0].tolist()
            assert [row["stderr"] for row in rows] == ["0"] * 3
        else:
            assert mean == pytest.approx(curves.mean(axis=0).tolist(), rel=1e-12)
            assert mean[0] == 1.0
            assert float(rows[0]["stderr"]) == 0.0


def test_quenched_chunk_pairs_each_seed_with_its_word_and_horizon(tmp_path):
    # four seeds in one chunk at one worker, on a Markov base, where words
    # of one length differ in marginal measure and so in k(t): each seed's
    # column is its own library curve, bit for bit, whatever its companions
    cfg = build_config({
        "experiment": "quenched_shift", "seeds": [3, 4, 5, 6], "threads": 1,
        "base": {"kind": "markov", "transition": [[0.7, 0.3], [0.4, 0.6]]},
        "fiber": {"matrix": [[0.3, 0.7], [0.7, 0.3]]},
        "sweep": {"n": [8], "t": [0.0, 0.5, 1.5, 3.0, 5.0]}})
    assert len(_shift_items(cfg)) == 1
    run_experiment(cfg, str(tmp_path))
    with open(tmp_path / "survival_n8.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    horizons = set()
    for seed in cfg.seeds:
        mine = [row for row in rows if row["seed"] == str(seed)]
        curve = rescaled_survival(cfg.fiber, cfg.base,
                                  sample_window(cfg.base, [seed, 0], 8),
                                  _draw_pattern(cfg, seed, 8), cfg.t_grid)
        assert [int(row["k"]) for row in mine] == curve.k_values.tolist()
        assert [float(row["survival"]) for row in mine] == curve.values.tolist()
        horizons.add(int(curve.k_values[-1]))
    assert len(horizons) == len(cfg.seeds)


def _sample_hitting(fm, window, pat, rng, cap):
    """A Monte Carlo hitting time of a fresh fiber point, from coordinate 1."""
    return ledger._first_occurrence(fm, window, pat.symbols, (), rng, cap)


def _automaton_walk(fm, window, aut, rng, cap, start_state, first_coord, block):
    """Reference for the block matcher: the border-automaton walk it
    replaced, one step per fiber coordinate drawn from ``first_coord`` on,
    with the same draws in the same blocks (4,096 symbols in a run); the
    first hit k in [1, cap], or None."""
    n, delta = aut.n, aut.delta.tolist()
    state, coord, last = start_state, first_coord, cap + n - 1
    while coord <= last:
        end = min(coord + block, last + 1)
        xs = sample_fiber_prefix(fm, window.shifted(coord), end - coord, rng)
        for i, x in enumerate(xs.tolist()):
            state = delta[state][x]
            if state == n:
                return coord + i - n + 1
        coord = end
    return None


def _words(b):
    """Words of 1-12 symbols, half of them repeating a short period, so
    that self-overlapping words come up often."""
    plain = st.lists(st.integers(0, b - 1), min_size=1, max_size=12)
    periodic = st.tuples(st.lists(st.integers(0, b - 1), min_size=1, max_size=3),
                         st.integers(1, 12)).map(lambda pr: (pr[0] * 12)[:pr[1]])
    return st.one_of(plain, periodic)


@settings(max_examples=300, deadline=None)
@given(case=st.integers(2, 3).flatmap(lambda b: st.tuples(st.just(b), _words(b))),
       cap=st.one_of(st.integers(1, 40), st.integers(4000, 4200), st.integers(1, 9000)),
       block=st.sampled_from([1, 2, 5, 4096]), returning=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(case=(2, [0]), cap=1, block=4096, returning=False, seed=0)
@example(case=(2, [1, 1, 1]), cap=4094, block=4096, returning=True, seed=7)
def test_block_matcher_matches_the_automaton_walk(case, cap, block, returning, seed):
    b, symbols = case
    rng = make_rng(seed)
    s = int(rng.integers(2, 4))
    fm, proc = random_fiber_measure(rng, s, b), random_base(rng, s)
    window = sample_window(proc, [seed, 0], 1)
    pat = Pattern(tuple(symbols), b)
    aut = build_automaton(pat)
    head, state, first = ((pat.symbols[1:], aut.border, pat.n) if returning
                          else ((), 0, 1))
    walked, draws = make_rng([seed, 1]), make_rng([seed, 1])
    want = _automaton_walk(fm, window, aut, walked, cap, state, first, block)
    # short blocks put many block boundaries inside an occurrence
    with mock.patch.object(ledger, "_SCAN_BLOCK", block):
        got = ledger._first_occurrence(fm, window, pat.symbols, head, draws, cap)
    assert got == want
    # the matcher drew what the walk drew, so a later draw is the same too
    assert draws.random() == walked.random()


def test_sample_hitting_geometric_case():
    # near-certain symbol: hitting time 1 with probability ~0.999
    fm = FiberMeasure([[0.999, 0.001], [0.999, 0.001]])
    proc = BaseProcess.bernoulli([0.5, 0.5])
    win = sample_window(proc, seed=4, length=10)
    rng = make_rng(40)
    pat = Pattern((0,), 2)
    hits = sum(_sample_hitting(fm, win, pat, rng, 10**4) == 1 for _ in range(10**4))
    sigma = math.sqrt(0.999 * 0.001 / 10**4)
    assert abs(hits / 10**4 - 0.999) < 3 * sigma


def test_sample_hitting_censored_never_raises(coin_pair):
    proc, fm = coin_pair
    win = sample_window(proc, seed=5, length=10)
    pat = Pattern((0,) * 8, 2)
    out = _sample_hitting(fm, win, pat, make_rng(1), 3)
    assert out is None or 1 <= out <= 3


def test_sample_hitting_empirical_cdf_matches_exact(coin_pair):
    proc, fm = coin_pair
    pat = Pattern((0, 0, 1), 2)
    k_max = 60
    win = sample_window(proc, seed=6, length=k_max + pat.n + 1)
    exact = quenched_survival(fm, win, pat, k_max=k_max)
    trials = 10**4
    rng = make_rng(60)
    taus = np.array([_sample_hitting(fm, win, pat, rng, k_max) or (k_max + 1)
                     for _ in range(trials)])
    emp = np.array([(taus > k).mean() for k in range(k_max + 1)])
    assert np.max(np.abs(emp - exact.values)) < 1.36 / math.sqrt(trials) * 1.5
