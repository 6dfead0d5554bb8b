"""Exact error accounting for the product approximation of hitting laws.

For a target cylinder A, time horizon t and gap g, the survival probability
differs from the product of per-step one-miss probabilities by at most a
sum of per-offset discrepancies delta_i; each delta_i splits into a short
ENTRANCE mass (G), a MIXING discrepancy across the gap (H) and a short
RETURN mass (K).  Everything here is computed exactly from the automaton
recursion of :mod:`hitlaw.survival`, batched across the k offsets, with
compensated summation for the long accumulations.  The recursions of all
offsets advance in one sweep over absolute noise coordinate (``_sweep``),
where every live recursion shares each coordinate's matrix and the
backward chains of a chunk of blocks advance together; one sweep at the
largest of several (k, jmax) checkpoints of one word, window and gap
reads every smaller one at its own cutoffs (``ledger_checkpoints``).

The suprema defining delta and H run over all j >= 1 in principle; they are
evaluated over j <= jmax and therefore reported as certified lower bounds
of the true suprema.  The recursion-bound check stays valid under this
truncation because the unrolled recursion only ever consults j <= k.

The entropy kind's slopes live here too (``entropy_slopes``), one word
length a call: cylinder decay, exact for each draw, and Monte Carlo return
times, found by matching the drawn word against fresh fiber coordinates
block by block (``_first_occurrence``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base_process import BaseProcess, BaseWindow, make_rng, sample_window
from .fiber import (FiberMeasure, Pattern, _check_compatible, _cylinder_measures,
                    fiber_cylinder_measure, marginal_cylinder_measure,
                    sample_fiber_prefix)
from .stats import _rescaled_k
from .survival import (_lockstep, build_automaton, full_step_matrices,
                       masked_arrival_matrices, masked_step_matrices)

_TOL = 1e-12
# jmax = JMAX_FACTOR k unless a caller or a run's ledger.jmax_factor sets it
JMAX_FACTOR = 4
# Coordinates per block of the ledger sweep: 32 ran faster than 8 or 16.
_SWEEP_BLOCK = 32
# A chunk of chains stacks m n k <= 2^18 in one product: this bounds the
# sweep's memory, and OpenBLAS runs such a gemm on one thread
_CHAIN_GEMM = 2**18


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


def _sweep(mats: np.ndarray, symbols: np.ndarray, first: int, entry: np.ndarray,
           jmax: int):
    """Column p of each family (``entry`` is (columns, families, states))
    enters with its ``entry`` row before coordinate ``first + p`` and reads
    ``jmax`` coordinates, x applying ``mats[symbols[x]]`` to every live
    column.  Per block of coordinates a .. a+L-1, yields (a, lo, masses):
    ``masses[f, l, p - lo]`` is column (p, f)'s mass after coordinate a + l,
    0 outside its reads.  A block's backward chain holds at step e the rows
    1^T T_l ... T_e, zero for l < e, over the suffix T_{L-1} ... T_e, T_l
    the matrix of a + l.  A chunk's chains advance together, one stacked
    product per symbol and step (identity steps pad a ragged last block,
    exactly); columns entering at e take theirs in one batched product.
    Per block, one (L, states) @ (states, columns) product gives the masses
    of the columns live at a; it never has one row, which numpy would hand
    to gemv, rounding otherwise than gemm: a column's masses then do not
    depend on where the sweep stops (at up to about 200 product columns;
    wider, BLAS may round a last bit otherwise at some widths)."""
    columns, families, states = entry.shape
    V = np.zeros_like(entry)
    mats = np.concatenate([mats, np.eye(states)[np.newaxis]])
    ones_T = mats.sum(axis=1)   # 1^T T per matrix
    stop = first + columns - 1 + jmax   # one past the last coordinate read
    B = _SWEEP_BLOCK
    blocks = -(-(stop - first) // B)
    codes = np.full((blocks, B), len(mats) - 1)   # the last symbol is the pad
    codes.flat[:stop - first] = symbols[first:stop]
    chunks = -(-blocks // max(1, _CHAIN_GEMM // ((B + states) * states**2)))
    size = -(-blocks // chunks)
    for b0 in range(0, blocks, size):
        code = codes[b0:b0 + size]
        chain = np.tile(np.eye(B + states, states, -B), (len(code), 1, 1))
        step = np.empty_like(chain)
        # column p0 + i enters at position i % B of the chunk's block i // B
        p0, p1 = min(b0 * B, columns), min((b0 + len(code)) * B, columns)
        entering = np.empty((p1 - p0, B + states, families))
        # at step e, the blocks reading symbol c are order[e, ends[e][c-1]:ends[e][c]]
        order = np.argsort(code.T, axis=1, kind="stable")
        ends = (code.T[:, :, np.newaxis] <= np.arange(len(mats))).sum(axis=1).tolist()
        for e in range(B - 1, -1, -1):
            for T, lo_c, hi_c in zip(mats, [0] + ends[e], ends[e]):
                if lo_c < hi_c:
                    rows = order[e, lo_c:hi_c]
                    step[rows] = (chain[rows].reshape(-1, states) @ T).reshape(
                        -1, B + states, states)
            step[:, e] = ones_T[code[:, e]]
            chain, step = step, chain
            if e < p1 - p0:
                entering[e::B] = (chain[:len(range(e, p1 - p0, B))]
                                  @ entry[p0 + e:p1:B].transpose(0, 2, 1))
        for a, chain0 in zip(range(first + b0 * B, stop, B), chain):
            L = min(B, stop - a)
            # live at a: lo .. mid-1; entering at coordinate first + p: mid .. hi-1
            lo = min(max(a - first - jmax + 1, 0), columns)
            mid, hi = min(a - first, columns), min(a + L - first, columns)
            live = V[lo:mid].reshape(-1, states)
            masses = np.empty((families, L, hi - lo))
            # two rows at least: numpy hands a one-row product to gemv
            masses[:, :, :mid - lo] = (chain0[:max(L, 2)] @ live.T)[:L].reshape(
                L, mid - lo, families).transpose(2, 0, 1)
            masses[:, :, mid - lo:] = entering[mid - p0:hi - p0, :L].transpose(2, 1, 0)
            # zero past each column's last read; only the first L columns have any
            past = np.arange(L)[:, np.newaxis] + a - first - np.arange(lo, hi)[:L] >= jmax
            masses[:, :, :L][:, past] = 0.0
            V[lo:mid] = (live @ chain0[B:].T).reshape(mid - lo, families, states)
            V[mid:hi] = entering[mid - p0:hi - p0, B:].transpose(0, 2, 1)
            yield a, lo, masses


def _ledger_price(n: int, k: int, g: int, jmax: int) -> int:
    """Column-reads times states of :func:`compute_ledger`'s survival,
    conditional and delayed-mask recursions,
    n [(k+g+1)(n-1+jmax) + k jmax] + (n+1) k (g+jmax)."""
    return n * ((k + g + 1) * (n - 1 + jmax) + k * jmax) + (n + 1) * k * (g + jmax)


def _sweep_terms(fm: FiberMeasure, window: BaseWindow, pat: Pattern,
                 checkpoints, g: int) -> list:
    """Per checkpoint (k, jmax), ascending in both, (d, s0_at_k, c_at_g,
    s_at_g, h) from one sweep at the last, for a gap g >= 1: per offset i =
    1..k, d_i = sup_{j <= jmax} |survival from i - return recursion of i|;
    survival from 0 at j = k; return recursion and survival of i at j = g,
    and h_i = sup_{j <= jmax} |delayed-mask of i - survival from i+g|.  The
    sweep is laid out in absolute coordinate, so an earlier checkpoint
    reads its columns at their own cutoffs (see ``_sweep`` for when that is
    bit for bit its own sweep)."""
    n = pat.n
    k, jmax = checkpoints[-1]
    symbols = window.prefix(k + g + jmax + n)
    aut = build_automaton(pat)
    # column p of each family reads its j = 1..jmax from coordinate n + p,
    # so compared values meet in one column: survival from offset p (n-1
    # reads from p+1 to its entry), the return recursion of offset p (from
    # the border state), the delayed-mask one of offset p-g (g full reads
    # from the accepting state); the first two leave state n empty
    entry = np.zeros((k + g + 1, 3, n + 1))
    s_V = np.tile(np.eye(n)[0], (k + g + 1, 1))
    _lockstep(masked_step_matrices(fm, aut),
              [_column_symbols(symbols, 1, k + g + 1, n - 1)], s_V, [n - 1])
    entry[:, 0, :n] = s_V
    entry[1:k + 1, 1, aut.border] = 1.0
    h_V = np.tile(np.eye(n + 1)[n], (k, 1))
    _lockstep(full_step_matrices(fm, aut), [_column_symbols(symbols, n + 1, k, g)],
              h_V, [g])
    entry[g + 1:, 2] = h_V

    # per checkpoint and column, the sup over j <= jmax of |family -
    # survival|; the last checkpoint's runs over whole blocks, an earlier
    # one's takes, in the block holding a column's cutoff, the rows up to it
    sup = np.zeros((len(checkpoints), 2, k + g + 1))
    cutoffs = [jmax_c for _, jmax_c in checkpoints[:-1]]
    # every family's mass at j = g and at each checkpoint's j = k
    at = {j: np.zeros((3, k + g + 1)) for j in {g, *(k_c for k_c, _ in checkpoints)}}
    for a, lo, masses in _sweep(masked_arrival_matrices(fm, aut), symbols, n,
                                entry, jmax):
        L, width = masses.shape[1:]
        hi = lo + width
        diff = np.abs(masses[1:] - masses[0])
        for c, j in enumerate(cutoffs):
            # column p reads its j at row p - base; p0 .. p1-1 do so here
            base = a - n - j + 1
            p0, p1 = max(lo, base), min(hi, base + L)
            if p0 < p1:
                rows = np.arange(L)[:, np.newaxis] <= np.arange(p0, p1) - base
                upto = np.where(rows, diff[:, :, p0 - lo:p1 - lo], 0.0).max(axis=1)
                sup[c][:, p0:p1] = np.maximum(sup[-1][:, p0:p1], upto)
        span = sup[-1][:, lo:hi]
        np.maximum(span, diff.max(axis=1), out=span)
        for j, values in at.items():
            base = a - n - j + 1
            p0, p1 = max(lo, base), min(hi, base + L)
            if p0 < p1:
                values[:, p0:p1] = masses[:, np.arange(p0, p1) - base,
                                          np.arange(p0 - lo, p1 - lo)]
    return [(sup_c[0, 1:k_c + 1], float(at[k_c][0, 0]), at[g][1, 1:k_c + 1],
             at[g][0, 1:k_c + 1], sup_c[1, g + 1:k_c + g + 1])
            for (k_c, _), sup_c in zip(checkpoints, sup)]


def _bound_sides(mu: np.ndarray, delta: np.ndarray, s0_at_k: float) -> tuple:
    """Both sides of the recursion bound, |survival(k) - prod(1 - mu_i)| and
    sum_i delta_i prod_{l<i} (1 - mu_l), and the one-miss product."""
    one_minus = 1.0 - mu
    prod_term = float(np.prod(one_minus))
    prefix = np.concatenate([[1.0], np.cumprod(one_minus)[:-1]])
    return abs(s0_at_k - prod_term), math.fsum(delta * prefix), prod_term


def _horizon(fm: FiberMeasure, proc: BaseProcess, pat: Pattern, t: float) -> int:
    """k = floor(t / mu(A)) for a word on the fiber alphabet at t > 0, with
    mu(A) the noise-averaged cylinder measure."""
    _check_compatible(fm, pat)
    if t <= 0:
        raise ValueError("t must be positive")
    k = _rescaled_k(t, marginal_cylinder_measure(fm, proc, pat))
    if k < 1:
        raise ValueError(f"t={t} gives k=0; nothing to compute")
    return k


def hits_sum(fm: FiberMeasure, window: BaseWindow, pat: Pattern, k: int) -> float:
    """M: the sum over offsets 1..k of the cylinder measure seen from there."""
    _check_compatible(fm, pat)
    if k < 0:
        raise ValueError("k must be >= 0")
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
                       [_column_symbols(symbols, n + 1, k, g)],
                       np.tile(np.eye(n)[aut.border], (k, 1)), [g])
    return math.fsum(mu * (1.0 - masses[0]))


def compute_ledger(fm: FiberMeasure, proc: BaseProcess, window: BaseWindow,
                   pat: Pattern, t: float, g: int,
                   jmax: int | None = None) -> ErrorLedger:
    """Exact M, G, H, K, delta and both sides of the recursion bound for the
    cylinder of ``pat`` at horizon t with gap g.

    k = floor(t / mu(A)) with mu(A) the noise-averaged cylinder measure;
    requires 1 <= g <= k <= jmax, and jmax defaults to JMAX_FACTOR k.  The
    recursions read noise symbols 0 .. k + g + jmax + n - 1, drawing those
    the window lacks, and cost ``_ledger_price`` column-state reads.  This
    takes no budget; a run prices each t with the ledger's price function
    (``experiments._price_ledger``) before it draws any noise.
    """
    k = _horizon(fm, proc, pat, t)
    jmax = JMAX_FACTOR * k if jmax is None else jmax
    return ledger_checkpoints(fm, window, pat, g, [(t, k, jmax)])[0]


def ledger_checkpoints(fm: FiberMeasure, window: BaseWindow, pat: Pattern,
                       g: int, checkpoints) -> list:
    """The :func:`compute_ledger` result at each checkpoint (t, k, jmax),
    ascending in k and jmax, each with 1 <= g <= k <= jmax, from one sweep
    at the last (``_sweep_terms``) and one read of the offsets' cylinder
    measures: the ledgers of one word, window and gap at several t."""
    kj = [(k, jmax) for _, k, jmax in checkpoints]
    for k, jmax in kj:
        if not 1 <= g <= k:
            raise ValueError(f"need 1 <= g <= k; got g={g}, k={k}")
        if jmax < k:
            raise ValueError("jmax must cover both k and g")
    if any(a > b for pair in zip(kj, kj[1:]) for a, b in zip(*pair)):
        raise ValueError("checkpoints must ascend in k and jmax")
    offsets = np.arange(1, kj[-1][0] + 1, dtype=np.int64)
    mus = _cylinder_measures(fm, window.prefix(offsets.size + pat.n), pat, offsets)
    ledgers = []
    for (t, k, jmax), (d_sup, s0_at_k, c_at_g, s_at_g, h_sup) in zip(
            checkpoints, _sweep_terms(fm, window, pat, kj, g)):
        mu = mus[:k]
        delta = d_sup * mu
        lhs, rhs, prod_term = _bound_sides(mu, delta, s0_at_k)
        m_sum = math.fsum(mu)
        ledgers.append(ErrorLedger(
            n=pat.n, t=float(t), g=int(g), k=int(k), jmax=int(jmax), M=m_sum,
            G=math.fsum(mu * (1.0 - c_at_g)), H=math.fsum(mu * h_sup),
            K=math.fsum(mu * (1.0 - s_at_g)), delta_sum=math.fsum(delta),
            lemma_lhs=lhs, lemma_rhs=rhs,
            sandwich_gap=abs(prod_term - math.exp(-m_sum))))
    return ledgers


def verify_recursion_bound(fm: FiberMeasure, proc: BaseProcess,
                           window: BaseWindow, pat: Pattern, t: float):
    """Both sides of the survival-vs-product bound, evaluated exactly.

    Returns (lhs, rhs, passed): lhs is |survival(k) - prod(1 - mu_i)|, rhs
    the discrepancy-weighted prefix-product sum.  The recursions run to
    jmax = k, which certifies the bound (the unrolled recursion consults
    j < k).  They run in one sweep with gap 1, as every sweep has a gap;
    the survival and return families that the bound reads do not depend on
    it, so lhs and rhs are ``compute_ledger(..., g=1, jmax=k)``'s lemma_lhs
    and lemma_rhs (``_bound_sides`` evaluates both).
    """
    k = _horizon(fm, proc, pat, t)
    offsets = np.arange(1, k + 1, dtype=np.int64)
    mu = _cylinder_measures(fm, window.prefix(k + pat.n), pat, offsets)
    d_sup, s0_at_k = _sweep_terms(fm, window, pat, [(k, k)], 1)[0][:2]
    lhs, rhs, _ = _bound_sides(mu, d_sup * mu, s0_at_k)
    return lhs, rhs, bool(lhs <= rhs + _TOL)


def verify_sandwich(xs, eps: float) -> bool:
    """Check exp(-(1+2e) sum x) <= prod(1-x) <= exp(-(1-2e) sum x) for
    x_1..x_k in [0, eps], 0 < eps <= 1/2, within 1e-14 slack; a 2-D ``xs``
    holds one sequence a row, and passes when every row does."""
    if not 0.0 < eps <= 0.5:
        raise ValueError("eps must lie in (0, 1/2]")
    x = np.atleast_2d(np.asarray(xs, dtype=float))
    if x.size and (x.min() < 0.0 or x.max() > eps):
        raise ValueError("inputs must lie in [0, eps]")
    total = np.array([math.fsum(row) for row in x])
    prod = np.prod(1.0 - x, axis=1)
    lower = np.exp(-(1.0 + 2.0 * eps) * total)
    upper = np.exp(-(1.0 - 2.0 * eps) * total)
    return bool(np.all((lower - 1e-14 <= prod) & (prod <= upper + 1e-14)))


def gap_schedule(n: int, h0: float) -> int:
    """Gap floor(exp(h0 n / 4)), clamped to >= 1 (the raw floor can be 0 for
    small n); 2**1024, past every float, where exp overflows."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if h0 <= 0:
        raise ValueError("h0 must be positive")
    try:
        return max(1, math.floor(math.exp(h0 * n / 4.0)))
    except OverflowError:
        return 2**1024


# Fiber coordinates a hitting-time scan draws per call; a scan draws whole
# blocks, so the generator's state after it depends on this
_SCAN_BLOCK = 4096


def _first_occurrence(fm: FiberMeasure, window: BaseWindow, word, head,
                      rng: np.random.Generator, cap: int) -> int | None:
    """The first k in [1, cap] at which ``word`` occurs starting at fiber
    coordinate k, or None if it is censored at ``cap``.

    Coordinates 1 .. len(head) are the known ``head`` (a return time knows
    ``word[1:]``, a fresh hitting time nothing); the rest are drawn lazily,
    ``_SCAN_BLOCK`` at a time and the last block cut at coordinate
    cap + n - 1.  Each block is joined to the last n - 1 coordinates before
    it and matched by n vectorized comparisons, so memory stays O(n +
    block)."""
    n = len(word)
    text = np.asarray(head, dtype=np.int64)
    coord, last = text.size + 1, cap + n - 1   # next coordinate to draw, last one
    while coord <= last:
        end = min(coord + _SCAN_BLOCK, last + 1)
        tail = text[max(text.size - n + 1, 0):]
        text = np.concatenate([tail, sample_fiber_prefix(fm, window.shifted(coord),
                                                         end - coord, rng)])
        hit = np.ones(max(text.size - n + 1, 0), dtype=bool)
        for j, y in enumerate(word):
            hit &= text[j:j + hit.size] == y
        if hit.any():
            return coord - tail.size + int(hit.argmax())
        coord = end
    return None


def entropy_slopes(fm: FiberMeasure, proc: BaseProcess, n: int, samples: int,
                   seed, cap: int = 10**6):
    """Entropy slopes at word length n from ``samples`` fresh (noise, fiber)
    draws x: cylinder decay -(1/n) log mu_omega(n-cylinder of x), and
    return time (1/n) log R_n of x to its own n-prefix, scanned up to
    ``cap`` steps.  Returns (smb, ow, censored): ow holds the slopes of
    the scans that found a return, and censored counts the others."""
    if n < 1 or samples < 1:
        raise ValueError("need n >= 1 and samples >= 1")
    smb, ow = np.empty(samples), []
    for i in range(samples):
        window = sample_window(proc, [seed, n, i], n)
        rng = make_rng([seed, n, i, 1])
        xs = sample_fiber_prefix(fm, window, n, rng)
        mu = fiber_cylinder_measure(fm, window, Pattern(tuple(xs), fm.fiber_alphabet_size))
        smb[i] = -math.log(mu) / n
        ret = _first_occurrence(fm, window, xs, xs[1:], rng, cap)
        if ret is not None:
            ow.append(math.log(ret) / n)
    return smb, np.asarray(ow), samples - len(ow)
