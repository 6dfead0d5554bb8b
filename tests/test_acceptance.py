"""Acceptance suite: the package's statistical and exactness gates.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and asserts its gate at the stated tolerance.  The gates and tolerances are
fixed upstream of this repository and are not tuned here.

Known red: the singularity-diagnostic gate (criterion 10) demands
|log ratio| >= 10 in at least 95% of draws at p = 0.3, n = 200.  With the
natural-log convention used throughout this package, the exact binomial
computation puts that fraction at ~0.885 (matches of a marginal-law word
against fair-coin noise are Bin(200, 1/2), and the CLT band around the
mean drift |200 log(1.4) - 100 log(7/3)| ~ 17.4 with sigma ~ 6.0 leaves
~11% of draws below the threshold).  The gate is asserted as stated rather
than weakened; see the test docstring for the arithmetic.
"""

import math

import numpy as np

import oracle_enum
from conftest import random_base, random_fiber_measure

from hitlaw.base_process import BaseProcess, make_rng, sample_window
from hitlaw.circle import (CirclePoint, CircleRDS, quenched_law_statistic,
                           random_orbit, required_bits)
from hitlaw.fiber import (Pattern, binary_symmetric_model, density_ratio,
                          marginal_cylinder_measure, sample_fiber_prefix)
from hitlaw.ledger import (compute_ledger, entropy_slopes, hits_sum,
                           verify_recursion_bound, verify_sandwich)
from hitlaw.stats import dkw_band, ks_to_exponential
from hitlaw.survival import (conditional_return_survival, quenched_survival,
                             rescaled_survival)

T_GRID = tuple(round(0.1 * i, 10) for i in range(51))
# the circle maps' noise bits, a fair coin
FAIR = BaseProcess.bernoulli([0.5, 0.5])


def _report(num: int, name: str, passed: bool, detail: str) -> bool:
    print(f"[acceptance] criterion {num:2d} ({name}): "
          f"{'PASS' if passed else 'FAIL'} -- {detail}")
    return passed


def _draw_marginal_pattern(proc, fm, seed, n):
    window = sample_window(proc, [seed, 1], n)
    xs = sample_fiber_prefix(fm, window, n, make_rng([seed, 2]))
    return Pattern(tuple(xs), fm.fiber_alphabet_size)


def test_criterion_1_oracle_exactness():
    """Survival recursions match exhaustive enumeration to 1e-12."""
    rng = make_rng(1001)
    worst = 0.0
    for trial in range(200):
        s = int(rng.integers(2, 4))
        b = int(rng.integers(2, 4))
        n = int(rng.integers(1, 4))
        k = 8
        fm = random_fiber_measure(rng, s, b)
        proc = random_base(rng, s)
        win = sample_window(proc, [1001, trial], k + 2 * n + 4)
        pat = Pattern(tuple(rng.integers(0, b, size=n)), b)
        offset = int(rng.integers(0, 2))
        got_q = quenched_survival(fm, win, pat, offset=offset, k_max=k).values
        want_q = oracle_enum.enum_quenched_survival(
            fm.W, win.prefix(len(win)), pat.symbols, offset, k)
        got_c = conditional_return_survival(fm, win, pat, offset=offset,
                                            k_max=k).values
        want_c = oracle_enum.enum_conditional_survival(
            fm.W, win.prefix(len(win)), pat.symbols, offset, k)
        worst = max(worst, float(np.max(np.abs(got_q - want_q))),
                    float(np.max(np.abs(got_c - want_c))))
    passed = worst < 1e-12
    assert _report(1, "oracle exactness", passed,
                   f"max |recursion - enumeration| = {worst:.2e} over 200 configs")


def test_criterion_2_lemma_checks():
    """Recursion bound on 1000 random configs; sandwich on 3 x 1e4 draws."""
    rng = make_rng(1002)
    bound_fails = 0
    for trial in range(1000):
        s = int(rng.integers(2, 4))
        b = int(rng.integers(2, 4))
        n = int(rng.integers(1, 4))
        fm = random_fiber_measure(rng, s, b, min_entry=0.1)
        proc = random_base(rng, s)
        pat = Pattern(tuple(rng.integers(0, b, size=n)), b)
        mu_a = marginal_cylinder_measure(fm, proc, pat)
        k_target = int(rng.integers(1, 65))
        t = (k_target + 0.5) * mu_a
        window = sample_window(proc, [1002, trial], 2 * k_target + n + 2)
        _, _, ok = verify_recursion_bound(fm, proc, window, pat, t)
        bound_fails += not ok
    sandwich_fails = 0
    for eps in (0.01, 0.1, 0.5):
        for _ in range(10**4):
            xs = rng.uniform(0.0, eps, size=int(rng.integers(1, 60)))
            sandwich_fails += not verify_sandwich(xs, eps)
    passed = bound_fails == 0 and sandwich_fails == 0
    assert _report(2, "lemma checks", passed,
                   f"recursion-bound failures {bound_fails}/1000, "
                   f"sandwich failures {sandwich_fails}/30000")


def test_criterion_3_ledger_identities():
    """delta <= G+H+K; H = 0 once the gap clears the word; K bound."""
    proc, fm = binary_symmetric_model(0.3)
    rng = make_rng(1003)
    rows = 0
    delta_fails = h_fails = k_fails = 0
    configs = []
    for n in (2, 3, 4, 5, 6):
        for t in (0.5, 1.5):
            for g_kind in ("small", "word", "wide"):
                configs.append((n, t, g_kind))
    for idx, (n, t, g_kind) in enumerate(configs):
        pat = _draw_marginal_pattern(proc, fm, [1003, idx], n)
        mu_a = marginal_cylinder_measure(fm, proc, pat)
        k = math.floor(t / mu_a)
        g = {"small": 1, "word": n, "wide": n + 2}[g_kind]
        if not 1 <= g <= k:
            continue
        jmax = 4 * k
        window = sample_window(proc, [1003, idx], k + g + jmax + n + 2)
        led = compute_ledger(fm, proc, window, pat, t, g, jmax=jmax)
        rows += 1
        delta_fails += led.delta_sum > led.G + led.H + led.K + 1e-12
        if g >= n:
            h_fails += led.H > 1e-12
        k_fails += led.K > g * fm.q_max**n * led.M + 1e-12
    # random asymmetric configurations exercise the same identities
    for trial in range(40):
        s = int(rng.integers(2, 4))
        b = int(rng.integers(2, 4))
        n = int(rng.integers(2, 5))
        fm2 = random_fiber_measure(rng, s, b, min_entry=0.1)
        proc2 = random_base(rng, s)
        pat = Pattern(tuple(rng.integers(0, b, size=n)), b)
        mu_a = marginal_cylinder_measure(fm2, proc2, pat)
        k = int(rng.integers(4, 40))
        t = (k + 0.5) * mu_a
        g = int(rng.integers(1, min(k, n + 3) + 1))
        jmax = 4 * k
        window = sample_window(proc2, [1003, 99, trial], k + g + jmax + n + 2)
        led = compute_ledger(fm2, proc2, window, pat, t, g, jmax=jmax)
        rows += 1
        delta_fails += led.delta_sum > led.G + led.H + led.K + 1e-12
        if g >= n:
            h_fails += led.H > 1e-12
        k_fails += led.K > g * fm2.q_max**n * led.M + 1e-12
    passed = delta_fails == 0 and h_fails == 0 and k_fails == 0
    assert _report(3, "ledger identities", passed,
                   f"{rows} configs: delta fails {delta_fails}, "
                   f"H fails {h_fails}, K fails {k_fails}")


def test_criterion_4_mean_hits_law():
    """Sample mean of M over 500 windows within 3 SE of k * mu(A)."""
    proc, fm = binary_symmetric_model(0.3)
    n, t = 10, 1.0
    pat = _draw_marginal_pattern(proc, fm, 1004, n)
    mu_a = marginal_cylinder_measure(fm, proc, pat)
    k = math.floor(t / mu_a)
    ms = np.array([hits_sum(fm, sample_window(proc, [1004, i], k + n + 1), pat, k)
                   for i in range(500)])
    se = float(ms.std(ddof=1)) / math.sqrt(500)
    gap = abs(float(ms.mean()) - k * mu_a)
    passed = gap < 3 * se
    assert _report(4, "mean law for M", passed,
                   f"|mean - k mu(A)| = {gap:.5f} vs 3 SE = {3 * se:.5f}")


def test_criterion_5_quenched_exponential_law():
    """Sup-error medians fall over n in {6,10,14}; n=14 under 0.05 for 90%."""
    proc, fm = binary_symmetric_model(0.3)
    n_seeds = 50
    medians = []
    frac_small = None
    for n in (6, 10, 14):
        sups = []
        for seed in range(n_seeds):
            pat = _draw_marginal_pattern(proc, fm, [1005, n, seed], n)
            mu_a = marginal_cylinder_measure(fm, proc, pat)
            k_max = math.floor(T_GRID[-1] / mu_a)
            window = sample_window(proc, [1005, n, seed, 0], k_max + n + 1)
            curve = rescaled_survival(fm, proc, window, pat, T_GRID)
            sups.append(ks_to_exponential(curve.values, curve.t_grid))
        sups = np.asarray(sups)
        medians.append(float(np.median(sups)))
        if n == 14:
            frac_small = float((sups < 0.05).mean())
    passed = (medians[0] > medians[1] > medians[2]) and frac_small >= 0.9
    assert _report(5, "quenched exponential law", passed,
                   f"medians {[round(m, 4) for m in medians]}, "
                   f"n=14 fraction under 0.05 = {frac_small:.2f}")


def test_criterion_6_annealed_law():
    """200-window average at n=12 within 0.05 of exp(-t)."""
    proc, fm = binary_symmetric_model(0.3)
    n = 12
    pat = _draw_marginal_pattern(proc, fm, 1006, n)
    mu_a = marginal_cylinder_measure(fm, proc, pat)
    k_max = math.floor(T_GRID[-1] / mu_a)
    curves = np.empty((200, len(T_GRID)))
    for i in range(200):
        window = sample_window(proc, [1006, i], k_max + n + 1)
        curves[i] = rescaled_survival(fm, proc, window, pat, T_GRID).values
    sup = ks_to_exponential(curves.mean(axis=0), np.asarray(T_GRID))
    passed = sup < 0.05
    assert _report(6, "annealed exponential law", passed,
                   f"sup |mean - exp(-t)| = {sup:.4f} over 200 windows")


def test_criterion_7_entropy_estimates():
    """Cylinder slopes within 5%, return-time slopes within 10%."""
    results = {}
    for p in (0.3, 0.5):
        proc, fm = binary_symmetric_model(p)
        smb, ow, _ = entropy_slopes(fm, proc, 14, samples=100, seed=1007)
        h_true = -(p * math.log(p) + (1 - p) * math.log(1 - p))
        smb_err = abs(smb.mean() - h_true) / h_true
        ow_err = abs(ow.mean() - h_true) / h_true
        results[p] = (smb_err, ow_err)
    passed = all(smb < 0.05 and ow < 0.10 for smb, ow in results.values())
    detail = ", ".join(f"p={p}: smb {smb:.3f}, ow {ow:.3f}"
                       for p, (smb, ow) in results.items())
    assert _report(7, "entropy estimates", passed, detail)


def test_criterion_8_circle_exactness():
    """Rational orbits match the independent oracle; pushforward stays
    uniform within the DKW band."""
    rds = CircleRDS()
    rng = make_rng(1008)
    mismatches = 0
    for _ in range(100):
        q = int(rng.integers(2, 10**9))
        a = int(rng.integers(0, q))
        bits = rng.integers(0, 2, size=100)
        got = [p.numerator for p in random_orbit(rds, bits, CirclePoint.from_fraction(a, q), 100)]
        num = a
        for step, bit in enumerate(bits):
            num = (num * rds.multipliers[int(bit)]) % q
            if got[step] != num:
                mismatches += 1
                break
    n = 10**5
    steps = 20
    bits = sample_window(FAIR, [1008, 1], steps)
    precision = required_bits(steps, rds.max_multiplier)
    vals = np.empty(n)
    for i in range(n):
        point = CirclePoint.uniform(rng, precision)
        for point in random_orbit(rds, bits, point, steps):
            pass
        vals[i] = point.value
    vals.sort()
    grid = np.arange(1, n + 1) / n
    sup = float(np.max(np.maximum(np.abs(grid - vals), np.abs(grid - 1 / n - vals))))
    band = dkw_band(n, alpha=0.01)
    passed = mismatches == 0 and sup < band
    assert _report(8, "circle exactness", passed,
                   f"oracle mismatches {mismatches}/100, "
                   f"pushforward sup-dev {sup:.5f} vs DKW {band:.5f}")


def test_criterion_9_circle_exponential_law():
    """Delta_r under 0.05 for 90% of seeds at r=1e-3; medians nonincreasing."""
    rds = CircleRDS()
    medians = []
    frac_small = None
    for r in (1e-1, 1e-2, 1e-3):
        deltas = []
        for seed in range(30):
            k_max = math.floor(T_GRID[-1] / (2.0 * r))
            bits = sample_window(FAIR, [1009, seed, 0], k_max)
            y = float(make_rng([1009, seed, 1]).random())
            out = quenched_law_statistic(rds, bits, y, r, T_GRID, trials=10**4,
                                         seed=[1009, seed, 2])
            deltas.append(out.delta_r)
        deltas = np.asarray(deltas)
        medians.append(float(np.median(deltas)))
        if r == 1e-3:
            frac_small = float((deltas < 0.05).mean())
    passed = (frac_small >= 0.9
              and medians[0] >= medians[1] >= medians[2])
    assert _report(9, "circle exponential law", passed,
                   f"medians over r {[round(m, 4) for m in medians]}, "
                   f"r=1e-3 fraction under 0.05 = {frac_small:.2f}")


def test_criterion_10_singularity_diagnostic():
    """Gate as stated upstream: |log ratio| >= 10 in >= 95% of draws.

    Expected to FAIL by honest arithmetic: with words drawn from the
    marginal (fair coin) and fair-coin noise, matches are Bin(200, 1/2);
    |log ratio| = |17.44 + 0.847 (matches - 100)| in natural log, and
    P(|log ratio| >= 10) = P(matches >= 92) + P(matches <= 67) ~ 0.885.
    Only a log-base-2 reading would clear 0.95 (~0.96); this package uses
    natural logs everywhere, so the gate is asserted unchanged and left red.
    """
    proc, fm = binary_symmetric_model(0.3)
    n, draws = 200, 1000
    hits = 0
    for i in range(draws):
        window = sample_window(proc, [1010, i, 0], n)
        word = Pattern(tuple(make_rng([1010, i, 1]).integers(0, 2, size=n)), 2)
        if abs(density_ratio(fm, proc, window, word).log_ratio) >= 10.0:
            hits += 1
    frac = hits / draws
    passed = frac >= 0.95
    assert _report(10, "singularity diagnostic", passed,
                   f"fraction |log ratio| >= 10: {frac:.3f} (needs >= 0.95; "
                   f"binomial expectation ~0.885, see docstring)")


def test_criterion_11_reproducibility(tmp_path):
    """Identical config and seeds give byte-identical CSVs at any worker
    count."""
    from hitlaw.config import build_config
    from hitlaw.experiments import run_experiment

    shift_tree = {
        "experiment": "quenched_shift",
        "seeds": [1, 2, 3, 4],
        "base": {"kind": "bernoulli", "weights": [0.5, 0.5]},
        "fiber": {"matrix": [[0.3, 0.7], [0.7, 0.3]]},
        "sweep": {"n": [4, 6], "t": {"start": 0.0, "stop": 3.0, "step": 0.5}},
    }
    circle_tree = {
        "experiment": "circle_law",
        "seeds": [1, 2],
        "trials": 200,
        "circle": {"multipliers": [2, 3]},
        "sweep": {"t": [0.0, 0.5, 1.0, 2.0], "r": [0.05]},
    }
    identical = True
    for label, tree in (("shift", shift_tree), ("circle", circle_tree)):
        outputs = []
        for threads in (1, 3, 1):
            tree = dict(tree, threads=threads)
            out = tmp_path / f"{label}_{threads}_{len(outputs)}"
            run_experiment(build_config(tree), str(out))
            outputs.append({
                f.name: f.read_bytes()
                for f in out.iterdir() if f.name != "manifest.json"
            })
        identical &= outputs[0] == outputs[1] == outputs[2]
    assert _report(11, "reproducibility", identical,
                   "shift and circle artifacts byte-identical at 1 and 3 workers")
