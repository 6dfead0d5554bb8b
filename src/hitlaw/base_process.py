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

import numpy as np

_STOCHASTIC_ATOL = 1e-12
_DRAW_BLOCK = 1 << 16


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


class _WindowBuffer:
    """Growable symbol buffer shared by a window and all its shifted views.

    Extension draws from the stored generator, so it is deterministic for a
    given seed and independent of how the extensions are interleaved.
    Symbols are kept in the smallest unsigned dtype that holds the alphabet.
    A Markov extension draws its uniforms at once, maps each one through
    every transition row in bulk, and walks the maps in blocks of
    ``_DRAW_BLOCK`` steps: the symbols are those of one searchsorted per step.
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
            # last entries pinned to 1, so that no draw u < 1 falls past them
            self._cdf = np.cumsum(proc.stationary)
            self._cdf[-1] = 1.0
            self._cum = np.cumsum(proc.transition, axis=1)
            self._cum[:, -1] = 1.0
        if length > 0:
            self.extend_to(length)

    def extend_to(self, length: int) -> None:
        extra = length - self.symbols.size
        if extra <= 0:
            return
        u = self.rng.random(extra)
        if self.proc.kind == "bernoulli":
            block = self._cdf.searchsorted(u, side="right")
        else:
            block = np.empty(extra, dtype=self.symbols.dtype)
            if self.symbols.size:
                state, start = int(self.symbols[-1]), 0
            else:
                state = block[0] = int(self._cdf.searchsorted(u[0], side="right"))
                start = 1
            for lo in range(start, extra, _DRAW_BLOCK):
                chunk = u[lo:lo + _DRAW_BLOCK]
                # step i maps each state x to row x's searchsorted of u[i]
                maps = zip(*[row.searchsorted(chunk, side="right").tolist()
                             for row in self._cum])
                block[lo:lo + chunk.size] = [state := step[state] for step in maps]
        self.symbols = np.concatenate([self.symbols, block.astype(self.symbols.dtype, copy=False)])


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
