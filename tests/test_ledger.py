import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle_enum
from conftest import random_base, random_fiber_measure

from hitlaw import ledger
from hitlaw.base_process import BaseProcess, make_rng, sample_window
from hitlaw.config import build_config
from hitlaw.experiments import KINDS, _run_item, run_experiment
from hitlaw.fiber import (FiberMeasure, Pattern, fiber_cylinder_measure,
                          marginal_cylinder_measure)
from hitlaw.ledger import (_ledger_price, compute_ledger, entrance_sum,
                           entropy_slopes, gap_schedule, hits_sum,
                           ledger_checkpoints, verify_recursion_bound,
                           verify_sandwich)
from hitlaw.survival import (_lockstep, build_automaton,
                             conditional_return_survival, full_step_matrices,
                             masked_arrival_matrices, quenched_survival)


def _slow_ledger(fm, proc, window, pat, t, g, jmax):
    """Independent reference: per-offset enumeration, no batching."""
    syms = window.prefix(len(window))
    mu_a = marginal_cylinder_measure(fm, proc, pat)
    k = math.floor(t / mu_a)
    n = pat.n
    mu = np.array([fiber_cylinder_measure(fm, window, pat, offset=i)
                   for i in range(1, k + 1)])
    S = {i: oracle_enum.enum_quenched_survival(fm.W, syms, pat.symbols, i, jmax)
         for i in range(0, k + g + 1)}
    C = {i: oracle_enum.enum_conditional_survival(fm.W, syms, pat.symbols, i, jmax)
         for i in range(1, k + 1)}
    J = {i: oracle_enum.enum_gap_joint(fm.W, syms, pat.symbols, i, g, jmax)
         for i in range(1, k + 1)}
    delta = np.array([max(abs(S[i][j] * mu[i - 1] - C[i][j])
                          for j in range(1, jmax + 1)) for i in range(1, k + 1)])
    G = math.fsum(mu[i - 1] - C[i][g] for i in range(1, k + 1))
    K = math.fsum(mu[i - 1] * (1.0 - S[i][g]) for i in range(1, k + 1))
    H = math.fsum(max(abs(J[i][j] - mu[i - 1] * S[i + g][j])
                      for j in range(1, jmax + 1)) for i in range(1, k + 1))
    prod_term = float(np.prod(1.0 - mu))
    prefix = np.concatenate([[1.0], np.cumprod(1.0 - mu)[:-1]])
    return dict(k=k, M=math.fsum(mu), G=G, H=H, K=K,
                delta_sum=math.fsum(delta),
                lemma_lhs=abs(S[0][k] - prod_term),
                lemma_rhs=math.fsum(delta * prefix),
                sandwich_gap=abs(prod_term - math.exp(-math.fsum(mu))))


def test_ledger_matches_enumeration_reference():
    rng = make_rng(100)
    for trial in range(6):
        s = int(rng.integers(2, 4))
        b = 2
        n = int(rng.integers(1, 4))
        fm = random_fiber_measure(rng, s, b, min_entry=0.2)
        proc = random_base(rng, s)
        pat = Pattern(tuple(rng.integers(0, b, size=n)), b)
        mu_a = marginal_cylinder_measure(fm, proc, pat)
        k_target = int(rng.integers(2, 5))
        t = (k_target + 0.5) * mu_a
        g = int(rng.integers(1, k_target + 1))
        jmax = k_target + 2
        window = sample_window(proc, [100, trial], k_target + g + jmax + n + 2)
        got = compute_ledger(fm, proc, window, pat, t, g, jmax=jmax)
        want = _slow_ledger(fm, proc, window, pat, t, g, jmax)
        assert got.k == want["k"]
        for name in ("M", "G", "H", "K", "delta_sum", "lemma_lhs", "lemma_rhs",
                     "sandwich_gap"):
            assert getattr(got, name) == pytest.approx(want[name], abs=1e-12), name


def test_ledger_mixing_term_vanishes_at_gap_n(coin_pair):
    proc, fm = coin_pair
    for n, t in [(3, 2.0), (5, 1.0)]:
        pat = Pattern(tuple([0, 1] * n)[:n], 2)
        mu_a = marginal_cylinder_measure(fm, proc, pat)
        k = math.floor(t / mu_a)
        for g in (n, n + 2):
            jmax = k
            window = sample_window(proc, [7, n, g], k + g + jmax + n + 2)
            led = compute_ledger(fm, proc, window, pat, t, g, jmax=jmax)
            assert led.H <= 1e-12


def test_ledger_short_return_bound(coin_pair):
    proc, fm = coin_pair
    rng = make_rng(41)
    for trial in range(5):
        n = int(rng.integers(2, 6))
        pat = Pattern(tuple(rng.integers(0, 2, size=n)), 2)
        t = 1.5
        k = math.floor(t / marginal_cylinder_measure(fm, proc, pat))
        g = int(rng.integers(1, min(k, 6) + 1))
        window = sample_window(proc, [41, trial], k + g + k + n + 2)
        led = compute_ledger(fm, proc, window, pat, t, g, jmax=k)
        assert led.K <= g * fm.q_max**n * led.M + 1e-12


def test_ledger_n1_closed_form():
    fm = FiberMeasure([[0.3, 0.7], [0.6, 0.4]])
    proc = BaseProcess.bernoulli([0.5, 0.5])
    pat = Pattern((0,), 2)
    t = 1.0
    mu_a = marginal_cylinder_measure(fm, proc, pat)   # 0.45
    k = math.floor(t / mu_a)
    g = 1
    window = sample_window(proc, 5, k + g + 4 * k + 3)
    led = compute_ledger(fm, proc, window, pat, t, g)
    rows = window.prefix(k + g + 1)
    p = fm.W[rows, 0]
    # single-symbol cylinders make every discrepancy vanish identically
    assert led.delta_sum == 0.0
    assert led.lemma_lhs == 0.0
    assert led.H <= 1e-15
    assert led.M == pytest.approx(math.fsum(p[1:k + 1]), abs=1e-15)
    # G = K = sum_i mu_i * (1 - prod of next g misses), exact for n = 1
    expected_g = math.fsum(p[i] * (1.0 - np.prod(1.0 - p[i + 1: i + 1 + g]))
                           for i in range(1, k + 1))
    assert led.G == pytest.approx(expected_g, rel=1e-12)
    assert led.K == pytest.approx(expected_g, rel=1e-12)


def test_recursion_bound_small_sweep():
    rng = make_rng(77)
    for trial in range(40):
        s = int(rng.integers(2, 4))
        b = int(rng.integers(2, 4))
        n = int(rng.integers(1, 4))
        fm = random_fiber_measure(rng, s, b, min_entry=0.1)
        proc = random_base(rng, s)
        pat = Pattern(tuple(rng.integers(0, b, size=n)), b)
        mu_a = marginal_cylinder_measure(fm, proc, pat)
        k_target = int(rng.integers(1, 65))
        t = (k_target + 0.5) * mu_a
        window = sample_window(proc, [77, trial], 2 * k_target + n + 2)
        lhs, rhs, ok = verify_recursion_bound(fm, proc, window, pat, t)
        assert ok, (lhs, rhs)
        # the ledger evaluates the same two sides at g = 1, jmax = k
        led = compute_ledger(fm, proc, window, pat, t, g=1,
                             jmax=ledger._horizon(fm, proc, pat, t))
        assert (lhs, rhs) == (led.lemma_lhs, led.lemma_rhs)


def test_recursion_bound_pair_example(coin_pair):
    proc, fm = coin_pair
    pat = Pattern((0, 0), 2)
    t = 64.5 / 4.0   # k = 64 at mu(A) = 1/4
    window = sample_window(proc, 9, 64 + 64 + 4)
    lhs, rhs, ok = verify_recursion_bound(fm, proc, window, pat, t)
    assert ok and lhs <= rhs + 1e-12


def test_sandwich_examples_and_sweep():
    assert verify_sandwich([], 0.5)
    assert verify_sandwich([0.0, 0.0], 0.25)
    assert verify_sandwich([0.5], 0.5)   # 0.5 between e^-1 and e^-1/4
    rng = make_rng(13)
    for eps in (0.01, 0.1, 0.5):
        for _ in range(200):
            xs = rng.uniform(0.0, eps, size=int(rng.integers(1, 50)))
            assert verify_sandwich(xs, eps)
    with pytest.raises(ValueError):
        verify_sandwich([0.2], 0.1)
    with pytest.raises(ValueError):
        verify_sandwich([0.1], 0.6)


def test_sandwich_checks_a_block_row_by_row():
    # a 2-D block holds one sequence a row, drawn as the runner draws them
    rng = make_rng(21)
    for eps in (0.01, 0.1, 0.5):
        block = rng.uniform(0.0, eps, size=(100, 50))
        assert verify_sandwich(block, eps)
        assert all(verify_sandwich(row, eps) for row in block)
    block[7, 3] = 0.6
    with pytest.raises(ValueError):
        verify_sandwich(block, 0.5)


def test_gap_schedule_values():
    assert gap_schedule(8, math.log(2.0)) == 4
    assert gap_schedule(1, 0.01) == 1   # raw floor would be 0
    h0 = -math.log(0.7)
    gaps = [gap_schedule(n, h0) for n in range(1, 40)]
    assert all(a <= b for a, b in zip(gaps, gaps[1:]))


def test_ledger_budget(tmp_path, monkeypatch):
    # a run prices a ledger item before it draws the noise window: n=8,
    # t=2 on the fair coin is k=512, g=2 and jmax=2048, priced 26,301,608
    # (k*n*b would be 8,192); at that budget the item runs, one below it
    # is truncated without a call
    calls = []

    def recording(fm, window, pat, g, checkpoints):
        calls.append(checkpoints[-1][2])   # the jmax the one sweep runs to
        return ledger_checkpoints(fm, window, pat, g, checkpoints)
    monkeypatch.setattr("hitlaw.experiments.ledger_checkpoints", recording)
    tree = {"experiment": "ledger", "seeds": [5], "threads": 1,
            "base": {"kind": "bernoulli", "weights": [0.5, 0.5]},
            "fiber": {"matrix": [[0.3, 0.7], [0.7, 0.3]]},
            "sweep": {"n": [8], "t": [2.0]}}
    at = run_experiment(build_config(dict(tree, operation_budget=26301608)),
                        str(tmp_path / "at"))
    assert at["truncated"] == [] and calls == [2048]
    over = run_experiment(build_config(dict(tree, operation_budget=26301607)),
                          str(tmp_path / "over"))
    assert over["truncated"] == ["ledger n=8 t=2.0 seed=5: needs 26301608 "
                                 "column-state reads, over the budget 26301607"]
    assert calls == [2048]
    # t=1 (k=256, jmax=1024) is priced 6,597,288: under a budget of 10^7
    # it finishes and t=2 gets its marker, from one sweep to t=1's jmax
    calls.clear()
    both = run_experiment(build_config(dict(tree, operation_budget=10**7,
                                            sweep={"n": [8], "t": [1.0, 2.0]})),
                          str(tmp_path / "both"))
    assert _ledger_price(8, 256, 2, 1024) == 6597288
    assert both["truncated"] == ["ledger n=8 t=2.0 seed=5: needs 26301608 "
                                 "column-state reads, over the budget 10000000"]
    assert calls == [1024]
    rows = (tmp_path / "both" / "ledger.csv").read_text().splitlines()[1:]
    assert [row.split(",")[2:5] for row in rows] == [["1", "2", "256"]]


def test_ledger_price_counts_every_recursion(coin_pair, monkeypatch):
    # the price is column-reads times states of the survival, conditional
    # and delayed-mask recursions,
    # n [(k+g+1)(n-1+jmax) + k jmax] + (n+1) k (g+jmax): the block-mode reads
    # to each column's entry, then jmax sweep reads a column, n states for
    # a survival or conditional column and n+1 for a delayed-mask one; the
    # marginal of the symmetric family is the fair coin, so k = floor(t 2**n)
    proc, fm = coin_pair
    window = sample_window(proc, 5, 1)
    reads = []
    kernel, sweep = ledger._lockstep, ledger._sweep

    def counting(mats, syms, V, record):
        reads.append(sum(len(sym) * record[-1] for sym in syms) * V.shape[1])
        return kernel(mats, syms, V, record)

    def counting_sweep(mats, symbols, first, entry, jmax):
        columns = entry.any(axis=2).sum(axis=0)   # per family
        reads.append(jmax * int(columns @ [3, 3, 4]))
        return sweep(mats, symbols, first, entry, jmax)
    monkeypatch.setattr(ledger, "_lockstep", counting)
    monkeypatch.setattr(ledger, "_sweep", counting_sweep)
    # n=3, t=1: k=8, jmax=32 prices at 2,978
    compute_ledger(fm, proc, window, Pattern((0, 1, 1), 2), t=1.0, g=2)
    assert sum(reads) == _ledger_price(3, 8, 2, 32) == 2978
    assert _ledger_price(8, 512, 2, 2048) == 26301608


def test_the_driver_admits_a_price_at_the_budget():
    # the n=3, t=1 item on the fair coin is k=8, g=1, jmax=32, priced 2,844:
    # a budget of 2,844 admits it and one of 2,843 writes its exact marker;
    # as the first item dispatched it runs the sandwich check either way
    tree = {"experiment": "ledger", "seeds": [5], "threads": 1,
            "base": {"kind": "bernoulli", "weights": [0.5, 0.5]},
            "fiber": {"matrix": [[0.3, 0.7], [0.7, 0.3]]},
            "sweep": {"n": [3], "t": [1.0]}}
    assert _ledger_price(3, 8, 1, 32) == 2844
    [item] = KINDS["ledger"][0](build_config(dict(tree, operation_budget=2844)))
    markers, pairs = _run_item(item)
    assert markers == [] and [key for key, _ in pairs] == ["sandwich", (3, 1.0, 5)]
    [item] = KINDS["ledger"][0](build_config(dict(tree, operation_budget=2843)))
    markers, pairs = _run_item(item)
    assert markers == ["ledger n=3 t=1.0 seed=5: needs 2844 column-state reads, "
                       "over the budget 2843"]
    assert [key for key, _ in pairs] == ["sandwich"]


def test_ledger_checkpoints_refuse_out_of_contract_input(coin_pair):
    # a checkpoint needs 1 <= g <= k <= jmax, and checkpoints ascend in k
    # and jmax; the fair-coin marginal gives k = 8 at t = 0.5 for n = 4
    _, fm = coin_pair
    window = sample_window(BaseProcess.bernoulli([0.5, 0.5]), 3, 1)
    pat = Pattern((0, 1, 1, 0), 2)
    with pytest.raises(ValueError, match="need 1 <= g <= k; got g=20, k=8"):
        ledger_checkpoints(fm, window, pat, 20, [(0.5, 8, 32)])
    with pytest.raises(ValueError, match="checkpoints must ascend"):
        ledger_checkpoints(fm, window, pat, 2, [(1.0, 16, 64), (0.5, 8, 32)])
    with pytest.raises(ValueError, match="jmax must cover both k and g"):
        ledger_checkpoints(fm, window, pat, 2, [(0.5, 8, 4)])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 40),
       st.integers(1, 100), st.integers(0, 2**32 - 1))
def test_sweep_masses_match_a_read_by_read_loop(families, states, columns, jmax,
                                                seed):
    # every column's mass after each of its jmax reads appears once, and
    # 0 before its entry and after its last read
    rng = make_rng(seed)
    mats = rng.random((3, states, states))
    mats /= mats.sum(axis=1, keepdims=True) * rng.uniform(1.0, 1.2, (3, 1, states))
    first = 2
    symbols = rng.integers(0, 3, size=first + columns + jmax)
    entry = rng.random((columns, families, states))
    got = np.full((columns, families, jmax + 1), np.nan)
    for a, lo, masses in ledger._sweep(mats, symbols, first, entry, jmax):
        for c in range(masses.shape[2]):
            j = a - first - (lo + c) + 1 + np.arange(masses.shape[1])   # reads
            inside = (1 <= j) & (j <= jmax)
            assert np.all(masses[:, ~inside, c] == 0.0)
            assert np.isnan(got[lo + c][:, j[inside]]).all()
            got[lo + c][:, j[inside]] = masses[:, inside, c]
    for p in range(columns):
        v = entry[p].T
        for j in range(1, jmax + 1):
            v = mats[symbols[first + p + j - 1]] @ v
            assert np.max(np.abs(got[p, :, j] - v.sum(axis=0))) < 1e-12


def _per_block_sweep(mats, symbols, first, entry, jmax):
    """Reference for ``ledger._sweep``: the same yields, each block's
    backward chain run on its own, one product per coordinate."""
    columns, families, states = entry.shape
    V = np.zeros_like(entry)
    ones_T = mats.sum(axis=1)
    stop = first + columns - 1 + jmax
    for a in range(first, stop, ledger._SWEEP_BLOCK):
        L = min(ledger._SWEEP_BLOCK, stop - a)
        T, ones = list(mats[symbols[a:a + L]]), list(ones_T[symbols[a:a + L]])
        chain = np.zeros((L + 1, L + states, states))
        chain[L, L:] = np.eye(states)
        steps = list(chain)
        for e in range(L - 1, -1, -1):
            np.dot(steps[e + 1], T[e], out=steps[e])
            steps[e][e] = ones[e]
        lo = min(max(a - first - jmax + 1, 0), columns)
        mid, hi = min(a - first, columns), min(a + L - first, columns)
        live = V[lo:mid].reshape(-1, states)
        entering = (chain[first - a + np.arange(mid, hi)]
                    @ entry[mid:hi].transpose(0, 2, 1))
        masses = np.empty((families, L, hi - lo))
        masses[:, :, :mid - lo] = (chain[0, :max(L, 2)] @ live.T)[:L].reshape(
            L, mid - lo, families).transpose(2, 0, 1)
        masses[:, :, mid - lo:] = entering[:, :L].transpose(2, 1, 0)
        past = np.arange(L)[:, np.newaxis] + a - first - np.arange(lo, hi)[:L] >= jmax
        masses[:, :, :L][:, past] = 0.0
        V[lo:mid] = (live @ chain[0, L:].T).reshape(mid - lo, families, states)
        V[mid:hi] = entering[:, L:].transpose(0, 2, 1)
        yield a, lo, masses


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3), st.integers(1, 9), st.integers(2, 3), st.integers(1, 200),
       st.integers(1, 300), st.sampled_from([1, 2, 3, None]),
       st.integers(0, 2**32 - 1))
# one block; a ragged last block with columns entering across the edge of
# one-block chunks; a chunk edge inside the entering columns of 3-block chunks
@example(2, 3, 2, 1, 1, 1, 0)
@example(3, 9, 3, 70, 20, 1, 1)
@example(2, 5, 3, 200, 40, 3, 2)
def test_chained_sweep_matches_the_per_block_chains(symbols, states, families,
                                                    columns, jmax, per_chunk, seed):
    # the chains of a chunk advance together, one stacked product per
    # symbol and step, bit for bit as each block's own chain; chunks of
    # 1, 2 or 3 blocks, or of every block
    rng = make_rng(seed)
    mats = rng.random((symbols, states, states))
    mats /= mats.sum(axis=1, keepdims=True) * rng.uniform(1.0, 1.2, (symbols, 1, states))
    first = int(rng.integers(0, 5))
    noise = rng.integers(0, symbols, size=first + columns + jmax)
    entry = rng.random((columns, families, states))
    blocks = -(-(columns - 1 + jmax) // ledger._SWEEP_BLOCK)
    gemm = (per_chunk or blocks) * (ledger._SWEEP_BLOCK + states) * states**2
    with mock.patch.object(ledger, "_CHAIN_GEMM", gemm):
        got = list(ledger._sweep(mats, noise, first, entry, jmax))
    want = list(_per_block_sweep(mats, noise, first, entry, jmax))
    assert len(got) == len(want) == blocks
    for (a, lo, masses), (a_want, lo_want, masses_want) in zip(got, want):
        assert (a, lo) == (a_want, lo_want)
        assert np.array_equal(masses, masses_want), a


@st.composite
def _sweep_case(draw):
    """A random model on 2 or 3 noise symbols, a word of length 1-4, k
    offsets, a gap, and a jmax over which each column spans at least three
    sweep blocks, out of the enumeration oracle's reach."""
    s = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 4))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    fm = random_fiber_measure(rng, s, 2)
    window = sample_window(random_base(rng, s), draw(st.integers(0, 2**32 - 1)), 1)
    pat = Pattern(tuple(int(x) for x in rng.integers(0, 2, size=n)), 2)
    k = draw(st.integers(1, 12))
    g = draw(st.integers(1, k))
    jmax = draw(st.integers(2 * ledger._SWEEP_BLOCK + 1, 3 * ledger._SWEEP_BLOCK))
    return fm, window, pat, k, g, jmax


@settings(max_examples=40, deadline=None)
@given(_sweep_case())
def test_sweep_matches_per_offset_curves(case):
    fm, window, pat, k, g, jmax = case
    n = pat.n
    [(d, s0_at_k, c_at_g, s_at_g, h)] = ledger._sweep_terms(fm, window, pat,
                                                            [(k, jmax)], g)
    S = [quenched_survival(fm, window, pat, p, jmax).values
         for p in range(k + g + 1)]
    C = [None] + [c.values / c.values[0] for c in
                  (conditional_return_survival(fm, window, pat, i, jmax)
                   for i in range(1, k + 1))]
    offsets = range(1, k + 1)
    assert abs(s0_at_k - S[0][k]) < 1e-12
    assert np.max(np.abs(d - [np.abs(S[i][1:] - C[i][1:]).max()
                              for i in offsets])) < 1e-12
    assert np.max(np.abs(c_at_g - [C[i][g] for i in offsets])) < 1e-12
    assert np.max(np.abs(s_at_g - [S[i][g] for i in offsets])) < 1e-12
    # the delayed-mask recursion of offset i, one column: g unmasked reads
    # from the accepting state, then arrivals into it die
    aut = build_automaton(pat)
    syms = window.prefix(k + g + jmax + n)
    for i in offsets:
        V = np.eye(n + 1)[[n]]
        _lockstep(full_step_matrices(fm, aut), [syms[np.newaxis, i + n:i + n + g]],
                  V, [g])
        masses = _lockstep(masked_arrival_matrices(fm, aut),
                           [syms[np.newaxis, i + n + g:i + n + g + jmax]], V,
                           np.arange(1, jmax + 1))[:, 0]
        assert abs(h[i - 1] - np.abs(masses - S[i + g][1:]).max()) < 1e-12


@st.composite
def _checkpoints_case(draw):
    """A random model and word as in ``_sweep_case``, 1-3 checkpoints (k,
    jmax) ascending in both, with k <= jmax, the last jmax over two sweep
    blocks or more, and a gap at most the least k."""
    s = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 4))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    fm = random_fiber_measure(rng, s, 2)
    window = sample_window(random_base(rng, s), draw(st.integers(0, 2**32 - 1)), 1)
    pat = Pattern(tuple(int(x) for x in rng.integers(0, 2, size=n)), 2)
    block = ledger._SWEEP_BLOCK
    ks = sorted(draw(st.lists(st.integers(1, 12), min_size=1, max_size=3)))
    jmaxes = sorted([draw(st.integers(k, 3 * block)) for k in ks[:-1]]
                    + [draw(st.integers(block + 1, 3 * block))])
    g = draw(st.integers(1, ks[0]))
    return fm, window, pat, list(zip(ks, jmaxes)), g


@settings(max_examples=60, deadline=None)
@given(_checkpoints_case())
def test_sweep_checkpoints_match_their_own_sweeps(case):
    # one sweep at the last checkpoint reads every earlier one bit for bit
    # as that checkpoint's own sweep
    fm, window, pat, checkpoints, g = case
    together = ledger._sweep_terms(fm, window, pat, checkpoints, g)
    assert len(together) == len(checkpoints)
    for checkpoint, terms in zip(checkpoints, together):
        [alone] = ledger._sweep_terms(fm, window, pat, [checkpoint], g)
        for got, want in zip(terms, alone):
            assert np.array_equal(got, want), checkpoint


def test_sweep_checkpoint_whose_own_sweep_ends_on_a_one_coordinate_block():
    # k + g + jmax = 33 puts the lone sweep's last block at one coordinate;
    # a one-row product there would go through gemv, and on this model it
    # rounds otherwise than the same row inside a longer block
    rng = make_rng([5, 2064])
    s, n = int(rng.integers(2, 4)), int(rng.integers(1, 5))
    fm = random_fiber_measure(rng, s, 2)
    window = sample_window(random_base(rng, s), [9, 2064], 1)
    pat = Pattern(tuple(int(x) for x in rng.integers(0, 2, size=n)), 2)
    together = ledger._sweep_terms(fm, window, pat, [(3, 27), (24, 64)], 3)
    [alone] = ledger._sweep_terms(fm, window, pat, [(3, 27)], 3)
    for got, want in zip(together[0], alone):
        assert np.array_equal(got, want)


def test_hits_sum_and_entrance_sum_match_public_ops(coin_pair):
    proc, fm = coin_pair
    pat = Pattern((0, 1, 0), 2)
    k, g = 40, 3
    window = sample_window(proc, 23, k + g + pat.n + 1)
    m = hits_sum(fm, window, pat, k)
    direct = math.fsum(fiber_cylinder_measure(fm, window, pat, offset=i)
                       for i in range(1, k + 1))
    assert m == pytest.approx(direct, abs=1e-14)
    gsum = entrance_sum(fm, window, pat, k, g)
    direct_g = math.fsum(
        fiber_cylinder_measure(fm, window, pat, offset=i)
        - conditional_return_survival(fm, window, pat, offset=i, k_max=g).values[g]
        for i in range(1, k + 1))
    assert gsum == pytest.approx(direct_g, abs=1e-12)
    assert hits_sum(fm, window, pat, 0) == 0.0


def test_mean_hits_law_quick(coin_pair):
    proc, fm = coin_pair
    pat = Pattern(tuple(make_rng(3).integers(0, 2, size=8)), 2)
    t = 1.0
    mu_a = marginal_cylinder_measure(fm, proc, pat)
    k = math.floor(t / mu_a)
    n_win = 200
    ms = np.array([hits_sum(fm, sample_window(proc, [900, i], k + pat.n + 1), pat, k)
                   for i in range(n_win)])
    se = ms.std(ddof=1) / math.sqrt(n_win)
    assert abs(ms.mean() - k * mu_a) < 3 * se


def test_hits_variance_decays_with_n(coin_pair):
    proc, fm = coin_pair
    t = 1.0
    variances = []
    for n in (6, 10, 14):
        pat = Pattern(tuple(make_rng([5, n]).integers(0, 2, size=n)), 2)
        k = math.floor(t / marginal_cylinder_measure(fm, proc, pat))
        ms = [hits_sum(fm, sample_window(proc, [901, n, i], k + n + 1), pat, k)
              for i in range(60)]
        variances.append(np.var(ms, ddof=1))
    assert variances[0] > variances[1] > variances[2]


def test_entrance_mean_decays_with_n(coin_pair):
    # Entrance mass is exactly zero unless the word overlaps itself within
    # the gap, so the decay shows up as a monotone trend of means over
    # marginal-drawn words, with exact-zero ties once self-overlaps die out.
    proc, fm = coin_pair
    t = 1.0
    means = []
    for n in (6, 10, 14):
        g = gap_schedule(n, fm.h0)
        vals = []
        for i in range(64):
            rng = make_rng([902, n, i])
            pat = Pattern(tuple(rng.integers(0, 2, size=n)), 2)
            k = math.floor(t / marginal_cylinder_measure(fm, proc, pat))
            win = sample_window(proc, [903, n, i], k + g + n + 1)
            vals.append(entrance_sum(fm, win, pat, k, g))
        means.append(float(np.mean(vals)))
    # ties at the tail are exact zeros seen through 1e-16 roundoff
    assert means[0] >= means[1] - 1e-12 and means[1] >= means[2] - 1e-12
    assert means[0] > means[2] + 1e-12


def test_entropy_slopes_binary(coin_pair):
    proc, fm = coin_pair
    h_true = -(0.3 * math.log(0.3) + 0.7 * math.log(0.7))
    for n in (6, 10):
        smb, ow, censored = entropy_slopes(fm, proc, n, samples=40, seed=303,
                                           cap=10**5)
        # cylinder slopes can never undershoot the exact small-cylinder rate
        assert smb.min() >= fm.h0 - 1e-12
        assert censored <= 40 / 2 and ow.size == 40 - censored
    # the cylinder-slope estimate of h, at the largest n
    assert abs(smb.mean() - h_true) / h_true < 0.1
    assert fm.h0 == pytest.approx(-math.log(0.7))
