"""Exact error accounting for the product approximation of hitting laws.

For a target cylinder A, time horizon t and gap g, the survival probability
differs from the product of per-step one-miss probabilities by at most a
sum of per-offset discrepancies delta_i; each delta_i splits into a short
ENTRANCE mass (G), a MIXING discrepancy across the gap (H) and a short
RETURN mass (K).  Everything here is computed exactly from the automaton
recursion of :mod:`hitlaw.survival`, batched across the k offsets, with
compensated summation for the long accumulations.

The suprema defining delta and H run over all j >= 1 in principle; they are
evaluated over j <= jmax and therefore reported as certified lower bounds
of the true suprema.  The recursion-bound check stays valid under this
truncation because the unrolled recursion only ever consults j <= k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base_process import BaseProcess, BaseWindow, make_rng, sample_window
from .errors import ResourceLimitError
from .fiber import (FiberMeasure, Pattern, _check_compatible, _cylinder_measures,
                    fiber_cylinder_measure, marginal_cylinder_measure,
                    sample_fiber_prefix)
from .survival import (_lockstep, _scan_hitting, build_automaton,
                       full_step_matrices, masked_arrival_matrices,
                       masked_step_matrices)

_TOL = 1e-12
# Reads per per-read kernel call: bounds the (reads, columns) mass slabs.
_SLAB = 64


@dataclass(frozen=True)
class ErrorLedger:
    """All error terms for one (noise window, cylinder, t, gap) configuration.

    M is the expected-hits sum, G the short-entrance mass, H the mixing
    discrepancy, K the short-return mass, delta_sum the total per-offset
    discrepancy (a certified lower bound of its sup-defined value, see the
    module docstring).  lemma_lhs/lemma_rhs are the two sides of the
    recursion bound; sandwich_gap is the distance between the one-miss
    product and exp(-M).
    """

    n: int
    t: float
    g: int
    k: int
    jmax: int
    M: float
    G: float
    H: float
    K: float
    delta_sum: float
    lemma_lhs: float
    lemma_rhs: float
    sandwich_gap: float

    def __post_init__(self):
        for name in ("M", "G", "H", "K", "delta_sum", "lemma_lhs", "lemma_rhs",
                     "sandwich_gap"):
            if getattr(self, name) < -_TOL:
                raise ValueError(f"ledger entry {name} must be nonnegative")
        if self.lemma_lhs > self.lemma_rhs + _TOL:
            raise ValueError("recursion bound violated: lhs > rhs")
        if self.delta_sum > self.G + self.H + self.K + _TOL:
            raise ValueError("delta_sum exceeds G + H + K")


def _column_symbols(symbols: np.ndarray, first: int, columns: int,
                    reads: int) -> np.ndarray:
    """Noise of ``columns`` recursions started one coordinate apart, as a
    (columns, reads) view: column c's r-th read consumes
    ``symbols[first + c + r - 1]``."""
    return np.lib.stride_tricks.sliding_window_view(
        symbols[first:first + columns + reads - 1], reads)


def _delta_terms(fm: FiberMeasure, window: BaseWindow, pat: Pattern, k: int,
                 jmax: int, g: int | None, op_budget: int | None):
    """Batched exact evaluation of the per-offset discrepancies, refused
    before any read when its recursions cost more than ``op_budget``.

    Returns (mu, delta, both sides of the recursion bound, the one-miss
    product) and, when a gap g is given, also (conditional mass at g,
    survival at g, mixing sup) per offset.
    """
    n = pat.n
    gap = g or 0
    # column-reads times states of the survival, conditional and, with a
    # gap, delayed-mask recursions below
    price = n * ((k + gap + 1) * (n - 1 + jmax) + k * jmax)
    if g is not None:
        price += (n + 1) * k * (g + jmax)
    if op_budget is not None and price > op_budget:
        raise ResourceLimitError(
            f"ledger recursions need {price} column-state reads, over the "
            f"budget {op_budget}")
    symbols = window.prefix(k + gap + jmax + n)
    aut = build_automaton(pat)
    masked = masked_step_matrices(fm, aut)

    offsets = np.arange(1, k + 1, dtype=np.int64)
    mu = _cylinder_measures(fm, symbols, pat, offsets)

    # survival recursions for offsets 0..k+gap; offset i's first read is
    # coordinate i+1, and its j-th survival value lands after j+n-1 reads
    s_sym = _column_symbols(symbols, 1, k + gap + 1, n - 1 + jmax)
    s_V = np.tile(np.eye(n)[0], (k + gap + 1, 1))
    _lockstep(masked, s_sym[:, :n - 1], s_V, [])

    # conditional (return) recursions for offsets 1..k, starting from the
    # word's border state, first read at coordinate i+n
    c_sym = _column_symbols(symbols, n + 1, k, jmax)
    c_V = np.tile(np.eye(n)[aut.border], (k, 1))

    if g is not None:
        # delayed-mask recursions: all n+1 states, unmasked over the gap,
        # then arrivals into the accepting state die
        arr_masked = masked_arrival_matrices(fm, aut)
        h_sym = _column_symbols(symbols, n + 1, k, g + jmax)
        h_V = np.tile(np.eye(n + 1)[n], (k, 1))
        _lockstep(full_step_matrices(fm, aut), h_sym[:, :g], h_V, [])

    d_sup = np.zeros(k)
    h_sup = np.zeros(k) if g is not None else None
    c_at_g = s_at_g = None
    s0_at_k = None
    # masses at every j, a slab of _SLAB reads at a time
    for j0 in range(0, jmax, _SLAB):
        j1 = min(j0 + _SLAB, jmax)
        s_mass = _lockstep(masked, s_sym[:, n - 1 + j0:n - 1 + j1], s_V)
        c_mass = _lockstep(masked, c_sym[:, j0:j1], c_V)
        np.maximum(d_sup, np.abs(s_mass[:, 1:k + 1] - c_mass).max(axis=0),
                   out=d_sup)
        if g is not None:
            h_mass = _lockstep(arr_masked, h_sym[:, g + j0:g + j1], h_V)
            np.maximum(h_sup,
                       np.abs(h_mass - s_mass[:, 1 + g:k + g + 1]).max(axis=0),
                       out=h_sup)
            if j0 < g <= j1:
                c_at_g = c_mass[g - j0 - 1]
                s_at_g = s_mass[g - j0 - 1, 1:k + 1]
        if j0 < k <= j1:
            s0_at_k = float(s_mass[k - j0 - 1, 0])
    assert s0_at_k is not None   # callers validate jmax >= k >= 1
    # both sides of the recursion bound, against the one-miss product
    delta = d_sup * mu
    one_minus = 1.0 - mu
    prod_term = float(np.prod(one_minus))
    prefix = np.concatenate([[1.0], np.cumprod(one_minus)[:-1]])
    lemma = (abs(s0_at_k - prod_term), math.fsum(delta * prefix))
    return mu, delta, lemma, prod_term, c_at_g, s_at_g, h_sup


def _horizon(fm: FiberMeasure, proc: BaseProcess, pat: Pattern, t: float) -> int:
    """k = floor(t / mu(A)) for a word on the fiber alphabet at t > 0, with
    mu(A) the noise-averaged cylinder measure."""
    _check_compatible(fm, pat)
    if t <= 0:
        raise ValueError("t must be positive")
    k = math.floor(t / marginal_cylinder_measure(fm, proc, pat))
    if k < 1:
        raise ValueError(f"t={t} gives k=0; nothing to compute")
    return k


def hits_sum(fm: FiberMeasure, window: BaseWindow, pat: Pattern, k: int) -> float:
    """M: the sum over offsets 1..k of the cylinder measure seen from there."""
    _check_compatible(fm, pat)
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return 0.0
    offsets = np.arange(1, k + 1, dtype=np.int64)
    return math.fsum(_cylinder_measures(fm, window.prefix(k + pat.n), pat, offsets))


def entrance_sum(fm: FiberMeasure, window: BaseWindow, pat: Pattern, k: int,
                 g: int) -> float:
    """G: summed mass of "in the cylinder and back within g steps", offsets
    1..k, via a g-step batched recursion."""
    _check_compatible(fm, pat)
    if k < 1 or g < 1:
        raise ValueError("need k >= 1 and g >= 1")
    n = pat.n
    symbols = window.prefix(k + g + n)
    offsets = np.arange(1, k + 1, dtype=np.int64)
    mu = _cylinder_measures(fm, symbols, pat, offsets)
    aut = build_automaton(pat)
    masses = _lockstep(masked_step_matrices(fm, aut),
                       _column_symbols(symbols, n + 1, k, g),
                       np.tile(np.eye(n)[aut.border], (k, 1)), [g])
    return math.fsum(mu * (1.0 - masses[0]))


def compute_ledger(fm: FiberMeasure, proc: BaseProcess, window: BaseWindow,
                   pat: Pattern, t: float, g: int, jmax: int | None = None,
                   op_budget: int | None = None) -> ErrorLedger:
    """Exact M, G, H, K, delta and both sides of the recursion bound for the
    cylinder of ``pat`` at horizon t with gap g.

    k = floor(t / mu(A)) with mu(A) the noise-averaged cylinder measure;
    requires 1 <= g <= k, and jmax defaults to 4k.  The recursions read
    noise symbols 0 .. k + g + jmax + n - 1, drawing those the window lacks.
    ``op_budget`` bounds their column-reads times automaton states,
    n [(k+g+1)(n-1+jmax) + k jmax] + (n+1) k (g+jmax); a ledger priced over
    it raises ResourceLimitError before reading any noise.
    """
    k = _horizon(fm, proc, pat, t)
    if not 1 <= g <= k:
        raise ValueError(f"need 1 <= g <= k; got g={g}, k={k}")
    jmax = 4 * k if jmax is None else jmax
    if jmax < max(k, g):
        raise ValueError("jmax must cover both k and g")

    mu, delta, lemma, prod_term, c_at_g, s_at_g, h_sup = _delta_terms(
        fm, window, pat, k, jmax, g, op_budget)
    m_sum = math.fsum(mu)
    return ErrorLedger(
        n=pat.n, t=float(t), g=int(g), k=int(k), jmax=int(jmax),
        M=m_sum,
        G=math.fsum(mu * (1.0 - c_at_g)),
        H=math.fsum(mu * h_sup),
        K=math.fsum(mu * (1.0 - s_at_g)),
        delta_sum=math.fsum(delta),
        lemma_lhs=lemma[0],
        lemma_rhs=lemma[1],
        sandwich_gap=abs(prod_term - math.exp(-m_sum)),
    )


def verify_recursion_bound(fm: FiberMeasure, proc: BaseProcess,
                           window: BaseWindow, pat: Pattern, t: float,
                           jmax: int | None = None,
                           op_budget: int | None = None):
    """Both sides of the survival-vs-product bound, evaluated exactly.

    Returns (lhs, rhs, passed): lhs is |survival(k) - prod(1 - mu_i)|, rhs
    the discrepancy-weighted prefix-product sum.  jmax defaults to k, which
    already certifies the bound (the unrolled recursion consults j < k).
    ``op_budget`` prices the recursions as in :func:`compute_ledger`, with
    no gap terms.
    """
    k = _horizon(fm, proc, pat, t)
    jmax = k if jmax is None else jmax
    if jmax < k:
        raise ValueError("jmax must be >= k")

    (lhs, rhs) = _delta_terms(fm, window, pat, k, jmax, None, op_budget)[2]
    return lhs, rhs, bool(lhs <= rhs + _TOL)


def verify_sandwich(xs, eps: float) -> bool:
    """Check exp(-(1+2e) sum x) <= prod(1-x) <= exp(-(1-2e) sum x) for
    x_1..x_k in [0, eps], 0 < eps <= 1/2, within 1e-14 slack."""
    if not 0.0 < eps <= 0.5:
        raise ValueError("eps must lie in (0, 1/2]")
    x = np.asarray(xs, dtype=float)
    if x.size and (x.min() < 0.0 or x.max() > eps):
        raise ValueError("inputs must lie in [0, eps]")
    total = math.fsum(x)
    prod = float(np.prod(1.0 - x))
    lower = math.exp(-(1.0 + 2.0 * eps) * total)
    upper = math.exp(-(1.0 - 2.0 * eps) * total)
    return lower - 1e-14 <= prod <= upper + 1e-14


def gap_schedule(n: int, h0: float) -> int:
    """Gap floor(exp(h0 n / 4)), clamped to >= 1 (the raw floor can be 0 for
    small n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if h0 <= 0:
        raise ValueError("h0 must be positive")
    return max(1, math.floor(math.exp(h0 * n / 4.0)))


@dataclass(frozen=True)
class EntropyEstimates:
    """Per-n entropy slopes from cylinder decay and from return times.

    smb_slopes[n] holds -(1/n) log mu_omega(n-cylinder of x) samples,
    ow_slopes[n] holds (1/n) log R_n samples (censored scans excluded,
    counted in censored[n]).  h_hat averages the cylinder slopes at the
    largest n; h0 is the exact small-cylinder rate -log q_max.
    """

    n_values: tuple
    smb_slopes: dict
    ow_slopes: dict
    censored: dict
    h_hat: float
    h0: float
    cap: int
    widened_uncertainty: bool = False

    def ow_mean(self, n: int) -> float:
        vals = self.ow_slopes[n]
        return float(np.mean(vals)) if len(vals) else float("nan")


def estimate_entropies(fm: FiberMeasure, proc: BaseProcess, n_range,
                       samples: int, seed, cap: int = 10**6) -> EntropyEstimates:
    """Sample entropy slopes: cylinder-measure decay along fresh (noise,
    fiber) draws, and return times of each draw's own n-prefix.

    Scans are capped at ``cap`` steps; a censoring rate above 50% at any n
    flags the estimate as widened.
    """
    ns = tuple(int(n) for n in n_range)
    if len(ns) == 0 or any(n < 1 for n in ns):
        raise ValueError("n_range must be non-empty with n >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    smb: dict = {}
    ow: dict = {}
    censored: dict = {}
    widened = False
    for n in ns:
        smb_vals = np.empty(samples)
        ow_vals = []
        cens = 0
        for i in range(samples):
            window = sample_window(proc, [seed, n, i], n)
            rng = make_rng([seed, n, i, 1])
            xs = sample_fiber_prefix(fm, window, n, rng)
            prefix_word = Pattern(tuple(xs), fm.fiber_alphabet_size)
            mu = fiber_cylinder_measure(fm, window, prefix_word)
            smb_vals[i] = -math.log(mu) / n
            aut = build_automaton(prefix_word)
            ret = _scan_hitting(fm, window, aut, rng, cap,
                                start_state=aut.border, first_coord=n)
            if ret is None:
                cens += 1
            else:
                ow_vals.append(math.log(ret) / n)
        smb[n] = smb_vals
        ow[n] = np.asarray(ow_vals)
        censored[n] = cens
        if cens > samples / 2:
            widened = True
    n_top = max(ns)
    return EntropyEstimates(n_values=ns, smb_slopes=smb, ow_slopes=ow,
                            censored=censored,
                            h_hat=float(np.mean(smb[n_top])),
                            h0=fm.h0, cap=cap,
                            widened_uncertainty=widened)
