"""Exact quenched survival probabilities for pattern hitting times.

The hit set is the cylinder of a fixed word; the hitting time of a fiber
point is the first k >= 1 such that the word occurs starting at coordinate
k.  Because fiber coordinates are independent given the noise, the
probability of surviving (no occurrence yet) evolves by a linear recursion
over the states of the word's border automaton, with one stochastic step
matrix per base symbol.  That recursion is the estimator of record here;
Monte Carlo sampling of hitting times is provided as a cross-check only.

Occurrences starting at coordinate 0 do not count as hits (hitting times
start at k = 1); they do define the conditioning block for return times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base_process import BaseProcess, BaseWindow, sample_window
from .errors import ResourceLimitError
from .fiber import (FiberMeasure, Pattern, _check_compatible,
                    fiber_cylinder_measure, marginal_cylinder_measure,
                    sample_fiber_prefix)
from .stats import _check_t_grid


@dataclass(frozen=True)
class PatternAutomaton:
    """Border automaton of a word: state = length of the longest suffix of
    the text read so far that is a prefix of the word; state n means the
    word just ended here.

    ``delta`` has a row for every state 0..n; the row for state n carries
    the continuation transitions (used when scanning past an occurrence),
    and equals the row of the word's longest proper border.
    """

    pattern: Pattern
    delta: np.ndarray   # (n+1, b) int
    border: int         # longest proper border of the full word

    @property
    def n(self) -> int:
        return self.pattern.n

    @property
    def b(self) -> int:
        return self.pattern.alphabet_size


def build_automaton(pat: Pattern) -> PatternAutomaton:
    """Classic prefix-function construction, O(n * alphabet)."""
    n, b = pat.n, pat.alphabet_size
    y = pat.symbols
    delta = np.zeros((n + 1, b), dtype=np.int64)
    delta[0, y[0]] = 1
    x = 0   # state of the longest proper border of the prefix read so far
    for i in range(1, n):
        delta[i, :] = delta[x, :]
        delta[i, y[i]] = i + 1
        x = int(delta[x, y[i]])
    delta[n, :] = delta[x, :]
    return PatternAutomaton(pattern=pat, delta=delta, border=x)


def masked_step_matrices(fm: FiberMeasure, aut: PatternAutomaton) -> np.ndarray:
    """Per-base-symbol step matrices on states 0..n-1, with all mass that
    would enter the accepting state dropped.  Shape (s, n, n), column =
    current state."""
    return np.ascontiguousarray(full_step_matrices(fm, aut)[:, :aut.n, :aut.n])


def full_step_matrices(fm: FiberMeasure, aut: PatternAutomaton) -> np.ndarray:
    """Per-base-symbol step matrices on all n+1 states, nothing dropped;
    the accepting state transitions onward through its border."""
    n = aut.n
    mats = np.zeros((fm.base_alphabet_size, n + 1, n + 1))
    for st in range(n + 1):
        for c in range(aut.b):
            mats[:, int(aut.delta[st, c]), st] += fm.W[:, c]
    return mats


def masked_arrival_matrices(fm: FiberMeasure, aut: PatternAutomaton) -> np.ndarray:
    """All n+1 states kept, but arrivals into the accepting state dropped.

    Used when occurrences start counting only after a delay: mass already
    sitting in the accepting state keeps evolving, new completions die.
    """
    mats = full_step_matrices(fm, aut)
    mats[:, aut.n, :] = 0.0
    return mats


# Block jumps use the cached products of all s**L blocks of L reads, with L
# the largest length such that s**L <= _BLOCK_CODES (a block code fits a
# uint8); runs shorter than 4 * s**L reads step one read at a time.
_BLOCK_CODES = 256


def _block_length(s: int, reads: int) -> int:
    length = 1
    while s ** (length + 1) <= _BLOCK_CODES:
        length += 1
    return length if reads >= 4 * s ** length else 1


def _lockstep(mats: np.ndarray, sym: np.ndarray, V: np.ndarray, record=None,
              block: int | None = None) -> np.ndarray:
    """Advance a (columns, states) block ``V`` of automaton distributions in
    place, in lockstep over every read of ``sym`` (columns, reads): read r
    of column c applies ``mats[sym[c, r-1]]``.  Returns column masses, one
    row per record.

    Per-read mode (``record=None``) records after every read; each read is
    one stacked (s*states, states) product and a per-column select.
    Otherwise ``record`` holds nondecreasing read counts in 0..reads, and
    while no record falls inside the next L reads the block jumps L reads
    at once (``block`` overrides L).  Block mode does one matrix-vector
    product per column, so a column's values do not depend on which other
    columns share the call; per-read mode makes no such promise.
    """
    columns, reads = sym.shape
    s, states = mats.shape[0], mats.shape[1]
    if record is None:
        sym = sym.astype(np.intp)   # so the per-read index sum needs no cast
        stacked = mats.reshape(s * states, states).T
        first_row = np.arange(columns) * s   # row of column c's symbol 0
        ones = np.ones(states)
        out = np.empty((reads, columns))
        v = V
        for r in range(reads):
            v = (v @ stacked).reshape(columns * s, states).take(
                first_row + sym[:, r], axis=0)
            out[r] = v @ ones
        V[...] = v
        return out
    length = block or _block_length(s, reads)
    prods = mats
    for _ in range(length - 1):   # code c*s + a: block c, then symbol a
        prods = (mats[np.newaxis] @ prods[:, np.newaxis]).reshape(-1, states, states)
    weights = s ** np.arange(length - 1, -1, -1)
    v = V[:, :, np.newaxis]
    out = np.empty((len(record), columns))
    r = 0
    for i, stop in enumerate([*record, reads]):
        jumps = (stop - r) // length
        span = sym[:, r:r + jumps * length].reshape(columns, jumps, length)
        for codes in (span @ weights).T:
            v = np.matmul(prods[codes], v)
        for syms in sym[:, r + jumps * length:stop].T:
            v = np.matmul(mats[syms], v)
        r = stop
        if i < len(record):
            out[i] = v[:, :, 0].sum(axis=1)
    V[...] = v[:, :, 0]
    return out


def _windows_survival(fm: FiberMeasure, pat: Pattern, windows,
                      k_grid: np.ndarray) -> np.ndarray:
    """Exact P(no occurrence starts at coordinates 1..k) at each k of the
    nondecreasing ``k_grid``, for every window of an iterable at once.
    Shape (windows, k_grid size)."""
    n = pat.n
    # survival at k is decided after reading coordinates 1 .. k+n-1
    record = np.where(k_grid == 0, 0, k_grid + n - 1)
    rows = np.stack([w.prefix(int(record[-1]) + 1)[1:] for w in windows])
    return _lockstep(masked_step_matrices(fm, build_automaton(pat)), rows,
                     np.tile(np.eye(n)[0], (rows.shape[0], 1)), record).T


@dataclass(frozen=True)
class SurvivalCurve:
    """Values of a survival probability on an increasing k-grid."""

    k_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.k_grid, dtype=np.int64)
        v = np.asarray(self.values, dtype=float)
        if k.size != v.size or k.size == 0:
            raise ValueError("grid and values must be non-empty and equally long")
        if np.any(np.diff(k) <= 0):
            raise ValueError("k grid must be strictly increasing")
        if np.any(v < -1e-12) or np.any(v > 1.0 + 1e-12):
            raise ValueError("survival values must lie in [0, 1]")
        if np.any(np.diff(v) > 1e-12):
            raise ValueError("survival values must be nonincreasing in k")
        object.__setattr__(self, "k_grid", k)
        object.__setattr__(self, "values", v)

    def value_at(self, k: int) -> float:
        idx = np.searchsorted(self.k_grid, k)
        if idx >= self.k_grid.size or self.k_grid[idx] != k:
            raise ValueError(f"k={k} is not on this curve's grid")
        return float(self.values[idx])


def _curve_grid(fm: FiberMeasure, pat: Pattern, offset: int, k_max: int,
                k_grid) -> np.ndarray:
    """The k grid (default 0..k_max) of an exact curve seen from ``offset``,
    once the word fits the fiber."""
    _check_compatible(fm, pat)
    if offset < 0 or k_max < 0:
        raise ValueError("offset and k_max must be >= 0")
    if k_grid is None:
        return np.arange(k_max + 1, dtype=np.int64)
    grid = np.asarray(k_grid, dtype=np.int64)
    if grid.size == 0 or np.any(np.diff(grid) <= 0) or grid[0] < 0:
        raise ValueError("k grid must be strictly increasing and nonnegative")
    if grid[-1] > k_max:
        raise ValueError("k grid exceeds k_max")
    return grid


def quenched_survival(fm: FiberMeasure, window: BaseWindow, pat: Pattern,
                      offset: int = 0, k_max: int = 0,
                      k_grid=None) -> SurvivalCurve:
    """Exact P(no occurrence starts at coordinates 1..k) for each k on the
    grid (default 0..k_max), under the noise seen from ``offset``.

    Cost O(k_max * n * b); the curve reads noise symbols
    offset .. offset + k_max + n - 1, drawing those the window lacks.
    """
    grid = _curve_grid(fm, pat, offset, k_max, k_grid)
    values = _windows_survival(fm, pat, [window.shifted(offset)], grid)[0]
    return SurvivalCurve(k_grid=grid, values=values)


def conditional_return_survival(fm: FiberMeasure, window: BaseWindow, pat: Pattern,
                                offset: int = 0, k_max: int = 0,
                                k_grid=None) -> SurvivalCurve:
    """Exact joint probability P(word occupies coordinates 0..n-1 and no
    occurrence starts at coordinates 1..j), for each j on the grid.

    Dividing by the cylinder measure (the value at j = 0) turns this into
    the conditional return-time survival.  The automaton starts from the
    word's longest proper border, i.e. the state reached after reading the
    word, and the recursion runs from coordinate n onward.
    """
    grid = _curve_grid(fm, pat, offset, k_max, k_grid)
    n = pat.n
    weight = fiber_cylinder_measure(fm, window, pat, offset)
    aut = build_automaton(pat)
    symbols = window.prefix(offset + n + int(grid[-1]))[offset + n:]
    values = weight * _lockstep(masked_step_matrices(fm, aut), symbols[np.newaxis],
                                np.eye(n)[[aut.border]], grid)[:, 0]
    return SurvivalCurve(k_grid=grid, values=values)


@dataclass(frozen=True)
class RescaledCurve:
    """Quenched survival viewed on the rescaled time grid t = k * mu(A)."""

    t_grid: np.ndarray
    k_values: np.ndarray
    values: np.ndarray
    mu_a: float

    @property
    def observed(self) -> np.ndarray:
        return self.values


def _rescaled_k(t: np.ndarray, mu_a: float, step_cap: int) -> np.ndarray:
    """k(t) = floor(t / mu(A)) for each t, refused over the step cap."""
    ks = np.array([math.floor(ti / mu_a) for ti in t], dtype=np.int64)
    if ks[-1] > step_cap:
        offending = float(t[int(np.argmax(ks > step_cap))])
        raise ResourceLimitError(
            f"rescaled survival needs k={int(ks.max())} steps at t={offending}, "
            f"over the step cap {step_cap}")
    return ks


def rescaled_survival(fm: FiberMeasure, proc: BaseProcess, window: BaseWindow,
                      pat: Pattern, t_grid, step_cap: int = 10**7) -> RescaledCurve:
    """Exact survival at k(t) = floor(t / mu(A)) for each t, where mu(A) is
    the noise-averaged cylinder measure; the value at t = 0 is 1."""
    t = _check_t_grid(t_grid)
    mu_a = marginal_cylinder_measure(fm, proc, pat)
    ks = _rescaled_k(t, mu_a, step_cap)
    curve = quenched_survival(fm, window, pat, k_max=int(ks[-1]),
                              k_grid=np.unique(ks))
    values = curve.values[np.searchsorted(curve.k_grid, ks)]
    return RescaledCurve(t_grid=t, k_values=ks, values=values, mu_a=mu_a)


_SCAN_BLOCK = 4096


def _scan_hitting(fm: FiberMeasure, window: BaseWindow, aut: PatternAutomaton,
                  rng: np.random.Generator, cap: int, start_state: int,
                  first_coord: int) -> int | None:
    """Draw fiber coordinates lazily from ``first_coord`` onward and return
    the first hit k in [1, cap], or None if censored at ``cap``.

    An arrival in the accepting state at coordinate c is an occurrence
    ending there, i.e. starting at k = c - n + 1.  Memory stays O(n): only
    the automaton state survives between blocks.
    """
    n = aut.n
    delta_rows = [tuple(int(x) for x in row) for row in aut.delta]
    state = start_state
    coord = first_coord
    last_coord = cap + n - 1
    while coord <= last_coord:
        end = min(coord + _SCAN_BLOCK, last_coord + 1)
        xs = sample_fiber_prefix(fm, window.shifted(coord), end - coord, rng).tolist()
        for i, x in enumerate(xs):
            state = delta_rows[state][x]
            if state == n:
                return coord + i - n + 1
        coord = end
    return None


def sample_hitting_time(fm: FiberMeasure, window: BaseWindow, pat: Pattern,
                        rng: np.random.Generator, cap: int) -> int | None:
    """Monte Carlo hitting time: first k in [1, cap] with an occurrence
    starting at coordinate k in a freshly drawn fiber point, or None
    (censored) if no hit happens by ``cap``.

    The window extends itself as the scan proceeds, so any cap within the
    noise realization's reach is valid; censoring is an answer, not an
    error.
    """
    _check_compatible(fm, pat)
    if cap < 1:
        raise ValueError("cap must be >= 1")
    aut = build_automaton(pat)
    return _scan_hitting(fm, window, aut, rng, cap, start_state=0, first_coord=1)


@dataclass(frozen=True)
class AnnealedCurve:
    """Monte Carlo average of rescaled survival over independent noise windows."""

    t_grid: np.ndarray
    k_values: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    n_windows: int
    mu_a: float

    @property
    def observed(self) -> np.ndarray:
        return self.mean


def annealed_survival(fm: FiberMeasure, proc: BaseProcess, pat: Pattern,
                      t_grid, n_windows: int, seed,
                      step_cap: int = 10**7) -> AnnealedCurve:
    """Average the exact rescaled survival over ``n_windows`` independent
    noise realizations; reports the mean and its standard error per t.

    Window i uses the stream keyed by (seed, i).
    """
    if n_windows < 1:
        raise ValueError("n_windows must be >= 1")
    t = _check_t_grid(t_grid)
    mu_a = marginal_cylinder_measure(fm, proc, pat)
    ks = _rescaled_k(t, mu_a, step_cap)
    values = _windows_survival(fm, pat, (sample_window(proc, [seed, i], pat.n)
                                         for i in range(n_windows)), ks)
    return _annealed_curve(t, ks, values, mu_a)


def _annealed_curve(t: np.ndarray, ks: np.ndarray, values: np.ndarray,
                    mu_a: float) -> AnnealedCurve:
    """Mean and standard error over the windows, one row of ``values`` each."""
    n_windows = values.shape[0]
    stderr = (values.std(axis=0, ddof=1) / math.sqrt(n_windows) if n_windows > 1
              else np.zeros(t.size))
    return AnnealedCurve(t_grid=t, k_values=ks, mean=values.mean(axis=0),
                         stderr=stderr, n_windows=n_windows, mu_a=mu_a)
