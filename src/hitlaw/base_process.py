"""Driving noise process: an invertible ergodic symbol stream.

The driving system is realized as a stationary Bernoulli or finite-state
Markov stream.  Both are exponentially psi-mixing, and their laws are
given exactly (weights, or a transition matrix and its stationary vector),
so every downstream quantity that needs the base law gets it exactly
rather than by estimation.

Windows are finite realizations of the (two-sided) noise: they extend to
the right on demand, deterministically for a given seed, and shifted views
share the underlying buffer so that "the same noise seen k steps later"
is literally the same realization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

_STOCHASTIC_ATOL = 1e-12
_DRAW_BLOCK = 1 << 16
# Once fewer runs than this are live, their tails are walked one symbol at a
# time.  A vectorized round costs about 5 us however few runs it advances,
# against about 90 ns a symbol for the list walk, so a round pays only while
# dozens of runs share it.  A sticky chain's runs last ~1 / (1 - diagonal)
# steps: at diagonal 1 - 1e-6, rounds alone took about 5.6 us a symbol.
_RUN_HANDOFF = 32
# [0, 1) is cut into this many equal bins, so that u * _CELL_BINS is exact
# and its floor names u's bin.  A bin that no breakpoint splits gives every
# u in it one cell, read from a table; only the draws in the few split bins
# are searched.  The lookup costs about 5 ns a draw, a search about 15.
_CELL_BINS = 1 << 12


def make_rng(seed) -> np.random.Generator:
    """One documented generator: PCG64 keyed by a 64-bit seed.

    ``seed`` may be an int or a sequence of ints; independent worker
    streams use composite keys ``(experiment_seed, worker_index)``.
    """
    return np.random.default_rng(seed)


def _check_stochastic(a: np.ndarray, what: str) -> None:
    """The one rule for probability vectors and the rows of stochastic
    matrices: entries strictly inside (0, 1), each summing to 1 within
    1e-12 (a vector is one row)."""
    if not np.all((a > 0.0) & (a < 1.0)):
        raise ValueError(f"{what} entries must lie strictly inside (0, 1)")
    if np.max(np.abs(a.sum(axis=-1) - 1.0)) > _STOCHASTIC_ATOL:
        raise ValueError(f"{what} not stochastic: sums must be 1 within "
                         f"{_STOCHASTIC_ATOL}")


def _check_probability_vector(w: np.ndarray, what: str) -> None:
    if w.ndim != 1 or w.size < 2:
        raise ValueError(f"{what} must be a vector of length >= 2")
    _check_stochastic(w, what)


def stationary_distribution(q: np.ndarray) -> np.ndarray:
    """Stationary vector of a stochastic matrix, via the unit left eigenvector."""
    vals, vecs = np.linalg.eig(q.T)
    idx = int(np.argmin(np.abs(vals - 1.0)))
    pi = np.real(vecs[:, idx])
    pi = pi / pi.sum()
    return pi


@dataclass(frozen=True)
class BaseProcess:
    """Stationary law of the driving symbols over the alphabet {0..s}.

    kind is "bernoulli" (``weights`` is a probability vector) or "markov"
    (``transition`` is a stochastic matrix and ``stationary`` its invariant
    vector).  All entries must lie strictly inside (0, 1): degenerate
    weights would break the mixing and small-cylinder hypotheses downstream.
    """

    kind: str
    weights: np.ndarray | None = None
    transition: np.ndarray | None = None
    stationary: np.ndarray | None = None

    def __post_init__(self):
        if self.kind == "bernoulli":
            if self.weights is None:
                raise ValueError("bernoulli process needs a weight vector")
            w = np.asarray(self.weights, dtype=float)
            _check_probability_vector(w, "weights")
            object.__setattr__(self, "weights", w)
        elif self.kind == "markov":
            if self.transition is None:
                raise ValueError("markov process needs a transition matrix")
            q = np.asarray(self.transition, dtype=float)
            if q.ndim != 2 or q.shape[0] != q.shape[1] or q.shape[0] < 2:
                raise ValueError("transition must be a square matrix of size >= 2")
            _check_stochastic(q, "transition")
            pi = (
                stationary_distribution(q)
                if self.stationary is None
                else np.asarray(self.stationary, dtype=float)
            )
            _check_probability_vector(pi, "stationary vector")
            if np.max(np.abs(pi @ q - pi)) > 1e-10:
                raise ValueError("stationary vector does not satisfy pi Q = pi")
            object.__setattr__(self, "transition", q)
            object.__setattr__(self, "stationary", pi)
        else:
            raise ValueError(f"unknown base process kind: {self.kind!r}")

    @classmethod
    def bernoulli(cls, weights) -> "BaseProcess":
        return cls(kind="bernoulli", weights=np.asarray(weights, dtype=float))

    @classmethod
    def markov(cls, transition, stationary=None) -> "BaseProcess":
        return cls(kind="markov", transition=np.asarray(transition, dtype=float),
                   stationary=stationary)

    @property
    def alphabet_size(self) -> int:
        if self.kind == "bernoulli":
            return int(self.weights.size)
        return int(self.transition.shape[0])

    @cached_property
    def _chain_steps(self) -> tuple:
        """The chain walk's tables (see ``_WindowBuffer``), built once per
        process object: the breakpoints that cut [0, 1) into cells, the cell
        of each bin (-1 where a breakpoint splits it), each cell's step map
        (as an array and as tuples), and whether it pins."""
        cum = np.cumsum(self.transition, axis=1)
        cum[:, -1] = 1.0   # so that no draw u < 1 falls past a row's end
        # sorted by hand: a plain np.unique imports numpy.ma
        breaks = np.array(sorted({c for c in cum[:, :-1].ravel().tolist() if c < 1.0}))
        grid = np.arange(_CELL_BINS + 1) / _CELL_BINS
        lo_cell = breaks.searchsorted(grid[:-1], side="right")
        bins = np.where(lo_cell == breaks.searchsorted(grid[1:]), lo_cell, -1)
        lower = np.concatenate(([0.0], breaks))
        # row x's searchsorted(side="right") of any u in a cell counts the
        # row's entries at or below the cell's lower edge
        step = (cum <= lower[:, None, None]).sum(axis=2).astype(
            np.min_scalar_type(self.alphabet_size - 1))
        pinned = (step == step[:, :1]).all(axis=1)
        return breaks, bins, step, pinned, [tuple(m) for m in step.tolist()]


class _WindowBuffer:
    """Growable symbol buffer shared by a window and all its shifted views.

    Extension draws from the stored generator, so it is deterministic for a
    given seed and independent of how the extensions are interleaved.
    Symbols are kept in the smallest unsigned dtype that holds the alphabet.

    A Bernoulli symbol counts the cdf entries at or below its uniform, one
    comparison pass per breakpoint: the last entry is 1 > u, so this is the
    searchsorted(side="right") of ``rng.choice``, ties included.

    A Markov extension draws one uniform per symbol at once and walks them
    in blocks of ``_DRAW_BLOCK`` steps.  The transition rows' breakpoints cut
    [0, 1) into cells; inside one cell every row's searchsorted is the same,
    so each step's map is its cell's, which one search against the
    breakpoints gives (or a bin table, see ``_CELL_BINS``).  A step
    whose map sends every state to one symbol pins the chain there and fixes
    its symbol outright.  The unpinned steps form runs, each starting from
    the symbol before it; every live run advances one step per vectorized
    round, and once fewer than ``_RUN_HANDOFF`` are live their tails are
    walked one symbol at a time, as is a whole block shorter than
    ``_RUN_HANDOFF`` steps.  The symbols are those of one searchsorted
    per step, however the draws are split into reads or blocks.
    """

    def __init__(self, proc: BaseProcess, rng: np.random.Generator, length: int):
        self.proc = proc
        self.rng = rng
        self.symbols = np.empty(0, dtype=np.min_scalar_type(proc.alphabet_size - 1))
        if proc.kind == "bernoulli":
            # the draw rng.choice(size, p=weights) makes, with p checked once
            self._cdf = np.cumsum(proc.weights)
            self._cdf /= self._cdf[-1]
        else:
            # last entry pinned to 1, so that no draw u < 1 falls past it
            self._cdf = np.cumsum(proc.stationary)
            self._cdf[-1] = 1.0
        if length > 0:
            self.extend_to(length)

    def extend_to(self, length: int) -> None:
        extra = length - self.symbols.size
        if extra <= 0:
            return
        u = self.rng.random(extra)
        if self.proc.kind == "bernoulli":
            first, *rest = self._cdf[:-1].tolist()
            block = (u >= first).astype(self.symbols.dtype)
            for c in rest:
                block += u >= c
        else:
            block = np.empty(extra, dtype=self.symbols.dtype)
            if self.symbols.size:
                state, start = int(self.symbols[-1]), 0
            else:
                state = block[0] = int(self._cdf.searchsorted(u[0], side="right"))
                start = 1
            for lo in range(start, extra, _DRAW_BLOCK):
                chunk = self._walk(u[lo:lo + _DRAW_BLOCK], state)
                block[lo:lo + chunk.size] = chunk
                state = int(chunk[-1])
        self.symbols = np.concatenate([self.symbols, block.astype(self.symbols.dtype, copy=False)])

    def _walk(self, u: np.ndarray, state: int) -> np.ndarray:
        """The chain's symbols for the uniforms ``u``, after ``state``."""
        breaks, bins, step, pinned, maps = self.proc._chain_steps
        if u.size < _RUN_HANDOFF:
            return np.array([state := maps[c][state] for c in breaks.searchsorted(
                u, side="right").tolist()], dtype=step.dtype)
        cell = bins[(u * _CELL_BINS).astype(np.intp)]
        split = (cell < 0).nonzero()[0]
        cell[split] = breaks.searchsorted(u[split], side="right")
        # step.ravel()[s * c + x] is cell c's map of state x
        flat, key = step.ravel(), cell * step.shape[1]
        sym = flat[key]   # right at pinned steps; the runs overwrite the rest
        free = np.zeros(u.size + 2, dtype=bool)   # unpinned steps, between pinned ends
        np.logical_not(pinned[cell], out=free[1:-1])
        edges = (free[1:] != free[:-1]).nonzero()[0]
        starts, lengths = edges[::2], edges[1::2] - edges[::2]
        prev = sym[starts - 1]   # the pinned symbol before each run
        if starts.size and starts[0] == 0:
            prev[0] = state
        order = np.argsort(lengths, kind="stable")
        starts, lengths, prev = starts[order], lengths[order], prev[order]
        # round r advances every run longer than r, a suffix by length
        r = first = 0
        while starts.size - first >= _RUN_HANDOFF:
            at = starts[first:] + r
            prev[first:] = sym[at] = flat[key[at] + prev[first:]]
            r += 1
            first = int(lengths.searchsorted(r, side="right"))
        for lo, hi, x in zip((starts[first:] + r).tolist(),
                             (starts[first:] + lengths[first:]).tolist(),
                             prev[first:].tolist()):
            sym[lo:hi] = [x := maps[c][x] for c in cell[lo:hi].tolist()]
        return sym


class BaseWindow:
    """One noise realization seen from ``start_index`` onward.

    Every read draws the symbols it needs, so no caller sizes a window.
    ``shifted(k)`` returns a view of the same realization k steps later;
    views share the buffer, so a read through any of them extends all.
    """

    def __init__(self, buf: _WindowBuffer, start_index: int = 0):
        self._buf = buf
        self.proc = buf.proc
        self.start_index = start_index

    def __len__(self) -> int:
        """Symbols drawn so far from this window's start."""
        return max(0, self._buf.symbols.size - self.start_index)

    def __getitem__(self, i: int) -> int:
        # a negative i reads an empty prefix, so it raises IndexError
        return int(self.prefix(i + 1)[i])

    def prefix(self, length: int) -> np.ndarray:
        """Symbols 0..length-1 of this window (no copy), drawn as needed."""
        self._buf.extend_to(self.start_index + length)
        return self._buf.symbols[self.start_index:self.start_index + length]

    def shifted(self, k: int) -> "BaseWindow":
        if k < 0:
            raise ValueError("windows only extend to the right; shift must be >= 0")
        return BaseWindow(self._buf, self.start_index + k)


def sample_window(proc: BaseProcess, seed, length: int) -> BaseWindow:
    """A stationary window reproducible from ``seed``, with its first
    ``length`` symbols drawn; later reads draw the rest of the same
    realization, however they are split."""
    if length < 1:
        raise ValueError("window length must be >= 1")
    buf = _WindowBuffer(proc, make_rng(seed), length)
    return BaseWindow(buf)
