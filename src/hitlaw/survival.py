"""Exact quenched survival probabilities for pattern hitting times.

The hit set is the cylinder of a fixed word; the hitting time of a fiber
point is the first k >= 1 such that the word occurs starting at coordinate
k.  Because fiber coordinates are independent given the noise, the
probability of surviving (no occurrence yet) evolves by a linear recursion
over the states of the word's border automaton, with one stochastic step
matrix per base symbol.  That recursion is the estimator of record here;
Monte Carlo hitting times (``_scan_hitting``) serve only the return-time
entropy estimates.

Occurrences starting at coordinate 0 do not count as hits (hitting times
start at k = 1); they do define the conditioning block for return times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base_process import BaseProcess, BaseWindow
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


def _block_length(s: int, reads: np.ndarray) -> np.ndarray:
    length = 1
    while s ** (length + 1) <= _BLOCK_CODES:
        length += 1
    return np.where(reads >= 4 * s ** length, length, 1)


def _lockstep(mats: np.ndarray, sym: np.ndarray, V: np.ndarray, record,
              block: int | None = None, words=0) -> np.ndarray:
    """Advance a (columns, states) block ``V`` of automaton distributions in
    place, in lockstep over the reads of the (columns, reads) ``sym``: read
    r of column c applies ``mats[sym[c, r-1]]``.  Returns column masses,
    one row per record.

    Masses are recorded at the nondecreasing read counts of ``record``, one
    list for all columns or one row per column, and each column stops at its
    last record, so rows of ``sym`` may be padded.  ``mats`` stacks one
    word's (s, states, states) matrices per word, column c on word
    ``words[c]``.  Each column runs the schedule of its one-column call: L
    from its read count (``block`` overrides it), and between records first
    the L-read blocks, through its word's table of s**L products, then the
    single reads.  Identity steps pad each stretch to the longest column's,
    so one step is one gather from the tables and one batched product.  An
    identity step is exact and each column gets its own product, so a
    column's values are bit-identical to its one-column call.  Masses after
    every read, as the ledger's suprema need, come from ``ledger._sweep``.
    """
    mats = mats[np.newaxis] if mats.ndim == 3 else mats
    s, states = mats.shape[1:3]
    record = np.broadcast_to(np.asarray(record, dtype=np.int64),
                             (len(sym), np.shape(record)[-1]))
    reads = record[:, -1]
    length = np.full(len(sym), block) if block else _block_length(s, reads)
    bounds = np.column_stack([0 * reads, record])
    jumps, singles = np.divmod(np.diff(bounds, axis=1), length[:, np.newaxis])
    steps = jumps + singles   # per stretch: the blocks, then the single reads
    offset = np.cumsum([0, *steps.max(axis=0)])
    # columns of one word, block length and records share a schedule; one
    # opaque key per column groups them (np.unique on rows, axis=0, is 5-10
    # times slower)
    spec = np.ascontiguousarray(np.column_stack(
        [np.broadcast_to(words, len(sym)), length, record]))
    keys = spec.view(np.dtype((np.void, spec.itemsize * spec.shape[1]))).ravel()
    _, heads, group = np.unique(keys, return_index=True, return_inverse=True)
    # group g's entries start at first[g]: its word's s**L block products,
    # then its s matrices; the last entry is the identity, and every index
    # fits the narrowest dtype that holds the table's length
    first = np.cumsum([0, *s ** length[heads] + s]).tolist()
    table = np.empty((first[-1] + 1, states, states))
    table[-1] = np.eye(states)
    idx = np.full((offset[-1], len(sym)), first[-1], np.min_scalar_type(first[-1]))
    for g, h in enumerate(heads):   # h: the group's first column
        w, L = spec[h, :2].tolist()
        prods = mats[w]
        for _ in range(L - 1):   # code c*s + a: block c, then symbol a
            prods = (mats[w][np.newaxis] @ prods[:, np.newaxis]).reshape(-1, states, states)
        table[first[g]:first[g + 1]] = np.concatenate([prods, mats[w]])
        cols = np.flatnonzero(group == g)
        seg = np.repeat(np.arange(steps[h].size), steps[h])   # each step's stretch
        j = np.arange(seg.size) - (np.cumsum(steps[h]) - steps[h])[seg]   # its place
        # a step's first read: the blocks every L reads, then single reads
        at = bounds[h, seg] + j + (L - 1) * np.minimum(j, jumps[h, seg])
        # reads gathered along one axis of a view from the group's first row
        # to its last: three times faster than a (rows, reads) fancy gather;
        # a strided view (the ledger's) is copied only as far as it is read
        span = sym[cols[0]:cols[-1] + 1, :reads[h]]
        code = np.zeros((cols.size, seg.size), dtype=idx.dtype)
        for pos in np.minimum(at + np.arange(L)[:, np.newaxis], reads[h] - 1):
            code = code * s + span.take(pos, axis=1)[cols - cols[0]]
        single = j >= jumps[h, seg]
        code[:, single] = span.take(at[single], axis=1)[cols - cols[0]]
        code[:, single] += s ** L
        code += first[g]
        idx[np.ix_(offset[seg] + j, cols)] = code.T
    v = V[:, :, np.newaxis]
    out = np.empty((record.shape[1], len(sym)))
    for i in range(record.shape[1]):
        for step in idx[offset[i]:offset[i + 1]]:
            v = np.matmul(table.take(step, axis=0), v)
        out[i] = v[:, :, 0].sum(axis=1)
    V[...] = v[:, :, 0]
    return out


def _check_survival(values: np.ndarray) -> None:
    """Survival values lie in [0, 1] and do not increase along the last axis."""
    if np.any(values < -1e-12) or np.any(values > 1.0 + 1e-12):
        raise ValueError("survival values must lie in [0, 1]")
    if np.any(np.diff(values) > 1e-12):
        raise ValueError("survival values must be nonincreasing in k")


def _windows_survival(fm: FiberMeasure, pats, windows, ks) -> np.ndarray:
    """Exact P(no occurrence of ``pats[c]`` starts at coordinates 1..k) under
    ``windows[c]`` at each k of ``ks`` (one nondecreasing row, or one per
    column), in one kernel call.  The words share one length.  Shape
    (columns, records)."""
    words = {pat: i for i, pat in enumerate(dict.fromkeys(pats))}
    n = pats[0].n
    # survival at k is decided after reading coordinates 1 .. k+n-1
    record = np.broadcast_to(np.where(ks == 0, 0, ks + n - 1),
                             (len(pats), np.shape(ks)[-1]))
    rows = [w.prefix(int(r[-1]) + 1)[1:] for w, r in zip(windows, record)]
    sym = np.zeros((len(rows), record[:, -1].max()), dtype=rows[0].dtype)
    for row, symbols in zip(sym, rows):
        row[:symbols.size] = symbols
    mats = np.stack([masked_step_matrices(fm, build_automaton(p)) for p in words])
    values = _lockstep(mats, sym, np.tile(np.eye(n)[0], (len(rows), 1)), record,
                       words=[words[p] for p in pats]).T
    _check_survival(values)
    return values


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
        _check_survival(v)
        object.__setattr__(self, "k_grid", k)
        object.__setattr__(self, "values", v)


def _curve_grid(fm: FiberMeasure, pat: Pattern, offset: int,
                k_max: int) -> np.ndarray:
    """The k grid 0..k_max of an exact curve seen from ``offset``, once the
    word fits the fiber."""
    _check_compatible(fm, pat)
    if offset < 0 or k_max < 0:
        raise ValueError("offset and k_max must be >= 0")
    return np.arange(k_max + 1, dtype=np.int64)


def quenched_survival(fm: FiberMeasure, window: BaseWindow, pat: Pattern,
                      offset: int = 0, k_max: int = 0) -> SurvivalCurve:
    """Exact P(no occurrence starts at coordinates 1..k) for k = 0..k_max,
    under the noise seen from ``offset``.

    Cost O(k_max * n * b); the curve reads noise symbols
    offset .. offset + k_max + n - 1, drawing those the window lacks.
    """
    grid = _curve_grid(fm, pat, offset, k_max)
    values = _windows_survival(fm, [pat], [window.shifted(offset)], grid)[0]
    return SurvivalCurve(k_grid=grid, values=values)


def conditional_return_survival(fm: FiberMeasure, window: BaseWindow, pat: Pattern,
                                offset: int = 0, k_max: int = 0) -> SurvivalCurve:
    """Exact joint probability P(word occupies coordinates 0..n-1 and no
    occurrence starts at coordinates 1..j), for j = 0..k_max.

    Dividing by the cylinder measure (the value at j = 0) turns this into
    the conditional return-time survival.  The automaton starts from the
    word's longest proper border, i.e. the state reached after reading the
    word, and the recursion runs from coordinate n onward.
    """
    grid = _curve_grid(fm, pat, offset, k_max)
    n = pat.n
    weight = fiber_cylinder_measure(fm, window, pat, offset)
    aut = build_automaton(pat)
    symbols = window.prefix(offset + n + k_max)[offset + n:]
    values = weight * _lockstep(masked_step_matrices(fm, aut), symbols[np.newaxis],
                                np.eye(n)[[aut.border]], grid)[:, 0]
    return SurvivalCurve(k_grid=grid, values=values)


@dataclass(frozen=True)
class RescaledCurve:
    """Quenched survival viewed on the rescaled time grid t = k * mu(A)."""

    t_grid: np.ndarray
    k_values: np.ndarray
    values: np.ndarray


def _rescaled_k(t: np.ndarray, mu_a: float) -> np.ndarray:
    """k(t) = floor(t / mu(A)) for each t."""
    return np.array([math.floor(ti / mu_a) for ti in t], dtype=np.int64)


def rescaled_survival(fm: FiberMeasure, proc: BaseProcess, window: BaseWindow,
                      pat: Pattern, t_grid) -> RescaledCurve:
    """Exact survival at k(t) = floor(t / mu(A)) for each t, where mu(A) is
    the noise-averaged cylinder measure; the value at t = 0 is 1."""
    t = _check_t_grid(t_grid)
    ks = _rescaled_k(t, marginal_cylinder_measure(fm, proc, pat))
    values = _windows_survival(fm, [pat], [window], ks)[0]
    return RescaledCurve(t_grid=t, k_values=ks, values=values)


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
