"""The lockstep recursion kernel against the enumeration oracle and
against a read-by-read loop, and its columns against their one-column
calls."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_enum
from conftest import random_fiber_measure

from hitlaw import survival
from hitlaw.base_process import BaseProcess, make_rng, sample_window
from hitlaw.fiber import Pattern
from hitlaw.survival import (_lockstep, build_automaton,
                             masked_arrival_matrices, masked_step_matrices)


@st.composite
def _case(draw):
    """A random model, word, column count, forced block length and k grid
    (small enough to enumerate); records fall on and off block
    boundaries."""
    s = draw(st.integers(2, 4))
    b = draw(st.integers(2, 3))
    n = draw(st.integers(1, 3))
    k_max = draw(st.integers(1, 9 - n))
    grid = draw(st.lists(st.integers(0, k_max), min_size=1, max_size=k_max + 1,
                         unique=True).map(sorted))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    fm = random_fiber_measure(rng, s, b)
    pat = Pattern(tuple(int(x) for x in rng.integers(0, b, size=n)), b)
    columns = draw(st.integers(1, 4))
    rows = rng.integers(0, s, size=(columns, k_max + n))
    return fm, pat, rows, np.asarray(grid), draw(st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@given(_case())
def test_quenched_start_matches_enumeration(case):
    fm, pat, rows, grid, block = case
    n = pat.n
    V = np.zeros((rows.shape[0], n))
    V[:, 0] = 1.0
    record = np.where(grid == 0, 0, grid + n - 1)
    got = _lockstep(masked_step_matrices(fm, build_automaton(pat)),
                    [rows[:, 1:int(record[-1]) + 1]], V, record, block=block)
    for c, syms in enumerate(rows):
        want = oracle_enum.enum_quenched_survival(fm.W, syms, pat.symbols, 0,
                                                  int(grid[-1]))
        assert np.max(np.abs(got[:, c] - want[grid])) < 1e-12


@settings(max_examples=60, deadline=None)
@given(_case())
def test_conditional_start_matches_enumeration(case):
    fm, pat, rows, grid, block = case
    n = pat.n
    aut = build_automaton(pat)
    V = np.zeros((rows.shape[0], n))
    V[:, aut.border] = 1.0
    got = _lockstep(masked_step_matrices(fm, aut), [rows[:, n:n + int(grid[-1])]],
                    V, grid, block=block)
    for c, syms in enumerate(rows):
        weight = np.prod(fm.W[syms[:n], list(pat.symbols)])
        want = oracle_enum.enum_conditional_survival(fm.W, syms, pat.symbols, 0,
                                                     int(grid[-1]))
        assert np.max(np.abs(weight * got[:, c] - want[grid])) < 1e-12


@pytest.mark.parametrize("columns", [1, 50])
def test_block_mode_matches_a_read_by_read_loop(columns):
    rng = make_rng(11)
    fm = random_fiber_measure(rng, 2, 2)
    pat = Pattern(tuple(int(x) for x in rng.integers(0, 2, size=12)), 2)
    mats = masked_arrival_matrices(fm, build_automaton(pat))
    reads = 20_000
    sym = rng.integers(0, 2, size=(columns, reads)).astype(np.uint8)
    v0 = rng.random((columns, pat.n + 1))
    v0 /= v0.sum(axis=1, keepdims=True)
    record = np.array([0, 1, 7, 8, 9, 1023, 1024, 5001, 12_345, 19_999, reads])
    block_V = v0.copy()
    blocked = _lockstep(mats, [sym], block_V, record)
    # the reference: one matrix-vector product per column and read
    v = v0[:, :, np.newaxis]
    per_read = np.empty((reads, columns))
    for r in range(reads):
        v = mats[sym[:, r]] @ v
        per_read[r] = v[:, :, 0].sum(axis=1)
    assert blocked[0] == pytest.approx(v0.sum(axis=1), abs=1e-15)
    assert np.max(np.abs(blocked[1:] - per_read[record[1:] - 1])) < 1e-13
    assert np.max(np.abs(block_V - v[:, :, 0])) < 1e-13
    assert per_read[-1].min() < 0.5   # the run is long enough to matter


def test_block_mode_columns_do_not_depend_on_companions():
    # three words on seven columns with their own records (repeats
    # included), column c on word c % 3, one block of columns a word; each
    # block stops at its word's last record, so word 2's rows are read only
    # in part.  Words 0 and 1 share their last record; their five columns
    # read 4 * 3**5 or more and take blocks of 5, word 2's take single reads
    rng = make_rng(12)
    fm = random_fiber_measure(rng, 3, 2)
    pats = [Pattern((0, 1, 1, 0, 1), 2), Pattern((1, 1, 1, 0, 0), 2),
            Pattern((0, 0, 1, 0, 1), 2)]
    mats = np.stack([masked_step_matrices(fm, build_automaton(p)) for p in pats])
    sym = rng.integers(0, 3, size=(7, 2_000)).astype(np.uint8)
    record = np.array([[0, 3, 500, 1_001, 2_000], [1, 1, 7, 1_998, 2_000],
                       [0, 10, 10, 480, 499]])
    order = [c for w in range(3) for c in range(w, 7, 3)]   # columns by word
    batch = np.zeros((7, pats[0].n))
    batch[:, 0] = 1.0
    together = _lockstep(mats, [sym[w::3] for w in range(3)], batch, record)
    for i, c in enumerate(order):
        w = c % 3
        alone = np.zeros((1, pats[0].n))
        alone[0, 0] = 1.0
        row = sym[c:c + 1, :record[w, -1]]
        assert np.array_equal(_lockstep(mats[w], [row], alone, record[w])[:, 0],
                              together[:, i])
        assert np.array_equal(alone[0], batch[i])


@st.composite
def _columns_case(draw):
    """A random binary model, one to three words of one length, each with
    its own records k(t) = floor(t / mu) on a shared t grid, as the
    records of a run follow mu(A), a function of the word: rows repeat
    entries and differ between words.  One to four columns, each on one of
    the words with its own noise row, drawn from a sticky two-state chain.
    With at most 4 block codes a binary noise alphabet has L = 2, so a word
    read for 16 reads takes blocks and a shorter one single steps."""
    n = draw(st.integers(1, 3))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    fm = random_fiber_measure(rng, 2, 2)
    t = np.linspace(0.0, 1.0, draw(st.integers(1, 6)))
    pats, records = [], []
    for blocks in draw(st.lists(st.booleans(), min_size=1, max_size=3)):
        pats.append(Pattern(tuple(int(x) for x in rng.integers(0, 2, size=n)), 2))
        k_max = 17 - n if blocks else draw(st.integers(0, 12 - n))
        ks = np.floor(t * draw(st.floats(0.3, 1.0)) * k_max).astype(np.int64)
        ks[-1] = k_max
        records.append(ks)
    columns = [(w, np.cumsum(rng.random(records[w][-1] + n) < 0.2) % 2)
               for w in draw(st.lists(st.integers(0, len(pats) - 1),
                                      min_size=1, max_size=4))]
    return fm, pats, np.array(records), columns


@settings(max_examples=30, deadline=None)
@given(_columns_case())
def test_per_word_records_match_one_column_calls(case):
    fm, pats, word_ks, columns = case
    n = pats[0].n
    mats = np.stack([masked_step_matrices(fm, build_automaton(p)) for p in pats])
    records = np.where(word_ks == 0, 0, word_ks + n - 1)
    # one block a word, its columns in their drawn order; a word with no
    # column has an empty block
    order = sorted(range(len(columns)), key=lambda c: columns[c][0])
    syms = [np.zeros((0, last), dtype=np.int64) for last in records[:, -1]]
    for w, row in columns:
        syms[w] = np.vstack([syms[w], row[1:records[w, -1] + 1]])
    V = np.tile(np.eye(n)[0], (len(columns), 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(survival, "_BLOCK_CODES", 4)
        together = _lockstep(mats, syms, V, records)
        for i, c in enumerate(order):
            w, row = columns[c]
            alone_V = np.eye(n)[[0]]
            alone = _lockstep(mats[w], [row[np.newaxis, 1:records[w, -1] + 1]],
                              alone_V, records[w])
            assert np.array_equal(alone[:, 0], together[:, i])
            assert np.array_equal(alone_V[0], V[i])
            want = oracle_enum.enum_quenched_survival(fm.W, row, pats[w].symbols,
                                                      0, int(word_ks[w, -1]))
            assert np.max(np.abs(together[:, i] - want[word_ks[w]])) < 1e-12


@st.composite
def _stream_case(draw):
    """A random binary fiber over a Bernoulli or sticky Markov base; one to
    four words of one length, each with one to five columns, in word order,
    and its own nondecreasing k row (zeros allowed) of a shared length; and
    where the call cap falls between one column's bytes and four columns'."""
    n = draw(st.integers(1, 4))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    fm = random_fiber_measure(rng, 2, 2)
    stay = draw(st.sampled_from([None, 0.9, 0.97]))
    proc = (BaseProcess.bernoulli([0.5, 0.5]) if stay is None else
            BaseProcess.markov([[stay, 1 - stay], [1 - stay, stay]]))
    words, records = [], draw(st.integers(1, 5))
    for _ in range(draw(st.integers(1, 4))):
        pat = Pattern(tuple(int(x) for x in rng.integers(0, 2, size=n)), 2)
        ks = sorted(draw(st.lists(st.integers(0, 40), min_size=records,
                                  max_size=records)))
        words.append((pat, ks, draw(st.integers(1, 5))))
    return fm, proc, words, draw(st.floats(0.0, 1.0))


@settings(max_examples=40, deadline=None)
@given(_stream_case())
def test_kernel_cuts_a_stream_into_calls_as_it_reads_it(case):
    fm, proc, words, where = case
    columns = [(pat, ks, [w, c]) for w, (pat, ks, count) in enumerate(words)
               for c in range(count)]
    weights = {id(pat): survival._call_bytes(
        2, pat.n, np.where(np.asarray(ks) == 0, 0, np.asarray(ks) + pat.n - 1))
        for pat, ks, _ in words}
    one = [sum(weights[id(pat)]) for pat, _, _ in words]
    cap = int(min(one) + where * (4 * max(one) - min(one)))
    read, calls = [0], []

    def stream():
        for pat, ks, key in columns:
            read[0] += 1
            yield pat, ks, sample_window(proc, key, 1)

    def lockstep(mats, syms, V, record, block=None):
        calls.append((read[0], [len(group) for group in syms]))
        return _lockstep(mats, syms, V, record, block)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(survival, "_CALL_BYTES", cap)
        mp.setattr(survival, "_lockstep", lockstep)
        rows = survival._windows_survival(fm, stream())
    assert len(rows) == len(columns)
    for (pat, ks, key), row in zip(columns, rows):
        alone = survival._windows_survival(fm, [(pat, ks, sample_window(proc, key, 1))])
        assert np.array_equal(alone[0], row)
    # the cut rule: a call holds each of its runs of one word's columns as
    # one table and their columns, fits the cap unless it holds one column,
    # and would not fit it with the next column; it starts with at most its
    # own columns and those before it read, plus one
    start = 0
    for i, (seen, groups) in enumerate(calls):
        held = 0
        for count in groups:
            table, size = weights[id(columns[start][0])]
            held += table + count * size
            start += count
        assert seen <= start + 1
        assert held <= cap or sum(groups) == 1
        if i + 1 < len(calls):
            table, size = weights[id(columns[start][0])]
            opens = columns[start][0] is not columns[start - 1][0]
            assert held + size + table * opens > cap
    assert start == len(columns)
