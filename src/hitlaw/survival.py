"""Exact quenched survival probabilities for pattern hitting times.

The hit set is the cylinder of a fixed word; the hitting time of a fiber
point is the first k >= 1 such that the word occurs starting at coordinate
k.  Because fiber coordinates are independent given the noise, the
probability of surviving (no occurrence yet) evolves by a linear recursion
over the states of the word's border automaton, with one stochastic step
matrix per base symbol.  That recursion is the estimator of record here;
the return-time entropy slopes (``ledger.entropy_slopes``) find their
Monte Carlo return times by matching the word itself, without the
automaton.

Occurrences starting at coordinate 0 do not count as hits (hitting times
start at k = 1); they do define the conditioning block for return times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .base_process import BaseProcess, BaseWindow
from .fiber import (FiberMeasure, Pattern, _check_compatible,
                    fiber_cylinder_measure, marginal_cylinder_measure)
from .stats import _check_t_grid, _rescaled_ks


class PatternAutomaton(NamedTuple):
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


def _call_bytes(s: int, n: int, record: np.ndarray) -> tuple:
    """Bytes a kernel call holds for an n-letter word on s noise symbols read
    through ``record``, (per word, per column): a word's step matrices and
    table of s**L + s products, n x n doubles each; a column's window (1.4 kB
    of objects), symbol row, step indices and codes (8 bytes a step) and
    gathered step matrix.  Calls of 8 MiB and more traced within 10% of it,
    plus up to 2 MiB of temporaries that do not grow with them."""
    L = int(_block_length(s, record[-1]))
    steps = int(sum(np.divmod(np.diff(record, prepend=0), L)).sum())
    symbol = np.min_scalar_type(s - 1).itemsize
    return ((s ** L + 2 * s) * 8 * n * n,
            1536 + 2 * symbol * int(record[-1]) + 8 * steps + 8 * n * n)


def _lockstep(mats: np.ndarray, syms, V: np.ndarray, record,
              block: int | None = None) -> np.ndarray:
    """Advance a (columns, states) block ``V`` of automaton distributions in
    place, in lockstep over the reads of ``syms``, one (columns, reads)
    block per word holding the next rows of ``V``: read r of a column of
    word w applies ``mats[w][sym[r-1]]``.  Returns column masses, one row
    per record.

    ``mats`` stacks the words' (s, states, states) matrices, or is one
    word's.  Masses are recorded at the nondecreasing read counts of
    ``record``, one row per word or one row for all, and a word's block is
    read through its last record.  Each word has one schedule, its
    one-column call's: L from its read count (``block`` overrides it), and
    between records first the L-read blocks, through the word's table of
    s**L products, then the single reads.  Identity steps pad each stretch
    to the longest word's, so one step is one gather from the tables and
    one batched product.  An identity step is exact and each column gets
    its own product, so a column's values are bit-identical to its
    one-column call.  Masses after every read, as the ledger's suprema
    need, come from ``ledger._sweep``.
    """
    mats = mats[np.newaxis] if mats.ndim == 3 else mats
    s, states = mats.shape[1:3]
    record = np.broadcast_to(np.asarray(record, dtype=np.int64),
                             (len(mats), np.shape(record)[-1]))
    reads = record[:, -1]
    length = np.full(len(mats), block) if block else _block_length(s, reads)
    bounds = np.column_stack([0 * reads, record])
    jumps, singles = np.divmod(np.diff(bounds, axis=1), length[:, np.newaxis])
    steps = jumps + singles   # per stretch: the blocks, then the single reads
    offset = np.cumsum([0, *steps.max(axis=0)])
    # word w's entries start at first[w]: its s**L block products, then its
    # s matrices; the last entry is the identity, and every index fits the
    # narrowest dtype that holds the table's length
    first = np.cumsum([0, *s ** length + s]).tolist()
    table = np.empty((first[-1] + 1, states, states))
    table[-1] = np.eye(states)
    idx = np.full((offset[-1], len(V)), first[-1], np.min_scalar_type(first[-1]))
    start = np.cumsum([0, *map(len, syms)])   # word w's columns start at start[w]
    for w, (L, span) in enumerate(zip(length.tolist(), syms)):
        prods = mats[w]
        for _ in range(L - 1):   # code c*s + a: block c, then symbol a
            prods = (mats[w][np.newaxis] @ prods[:, np.newaxis]).reshape(-1, states, states)
        table[first[w]:first[w + 1]] = np.concatenate([prods, mats[w]])
        seg = np.repeat(np.arange(steps[w].size), steps[w])   # each step's stretch
        j = np.arange(seg.size) - (np.cumsum(steps[w]) - steps[w])[seg]   # its place
        # a step's first read: the blocks every L reads, then single reads
        at = bounds[w, seg] + j + (L - 1) * np.minimum(j, jumps[w, seg])
        # reads gathered along one axis: three times faster than a (rows,
        # reads) fancy gather; a strided view (the ledger's) is copied only
        # as far as it is read
        span = span[:, :reads[w]]
        code = np.zeros((len(span), seg.size), dtype=idx.dtype)
        for pos in np.minimum(at + np.arange(L)[:, np.newaxis], reads[w] - 1):
            code = code * s + span.take(pos, axis=1)
        single = j >= jumps[w, seg]
        code[:, single] = span.take(at[single], axis=1)
        code[:, single] += s ** L
        code += first[w]
        idx[offset[seg] + j, start[w]:start[w + 1]] = code.T
    v = V[:, :, np.newaxis]
    out = np.empty((record.shape[1], len(V)))
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


# Bytes a kernel call holds at most, by ``_call_bytes`` (chosen in the README)
_CALL_BYTES = 16 * 2**20


def _windows_survival(fm: FiberMeasure, columns) -> list:
    """Exact P(no occurrence of ``word`` starts at coordinates 1..k) under
    ``window`` at each k of ``ks``, a row per ``(word, ks, window)`` of one
    word length.  The columns fill kernel calls of ``_CALL_BYTES`` at most, a
    column over it alone, and a run of one word and ks object counts its
    table once a call; a generator's windows are drawn just before their call."""
    rows, call, held, last = [], [], 0, (None, None)
    for word, ks, window in columns:
        if opens := word is not last[0] or ks is not last[1]:
            last, ks = (word, ks), np.asarray(ks)
            # survival at k is decided after reading coordinates 1 .. k+n-1
            record = np.where(ks == 0, 0, ks + word.n - 1)
            table, size = _call_bytes(fm.base_alphabet_size, word.n, record)
        if call and held + size + table * opens > _CALL_BYTES:
            rows += _call_survival(fm, call)
            call, held, opens = [], 0, True
        if opens:
            call.append((word, record, []))
            held += table
        call[-1][2].append(window)
        held += size
    return rows + _call_survival(fm, call) if call else rows


def _call_survival(fm: FiberMeasure, call) -> list:
    """One kernel call's rows, for groups ``(word, record, windows)``."""
    words, records, windows = zip(*call)
    syms = [np.stack([window.prefix(record[-1] + 1)[1:] for window in group])
            for group, record in zip(windows, records)]
    mats = np.stack([masked_step_matrices(fm, build_automaton(p)) for p in words])
    V = np.tile(np.eye(words[0].n)[0], (sum(map(len, syms)), 1))
    values = _lockstep(mats, syms, V, records).T
    _check_survival(values)
    return list(values)


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
    values = _windows_survival(fm, [(pat, grid, window.shifted(offset))])[0]
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
    values = weight * _lockstep(masked_step_matrices(fm, aut), [symbols[np.newaxis]],
                                np.eye(n)[[aut.border]], grid)[:, 0]
    return SurvivalCurve(k_grid=grid, values=values)


class RescaledCurve(NamedTuple):
    """Quenched survival viewed on the rescaled time grid t = k * mu(A)."""

    t_grid: np.ndarray
    k_values: np.ndarray
    values: np.ndarray


def rescaled_survival(fm: FiberMeasure, proc: BaseProcess, window: BaseWindow,
                      pat: Pattern, t_grid) -> RescaledCurve:
    """Exact survival at k(t) = floor(t / mu(A)) for each t, where mu(A) is
    the noise-averaged cylinder measure; the value at t = 0 is 1."""
    t = _check_t_grid(t_grid)
    mu_a = marginal_cylinder_measure(fm, proc, pat)
    ks = _rescaled_ks(t, mu_a)
    values = _windows_survival(fm, [(pat, ks, window)])[0]
    return RescaledCurve(t_grid=t, k_values=ks, values=values)

