"""The forked dispatcher behind ``experiments._parallel_map``: order, error
paths, and no child process left behind on any of them."""

import mmap
import os
import signal

import pytest

from hitlaw.experiments import _parallel_map


@pytest.fixture(autouse=True)
def no_hang_no_orphan():
    # a hung dispatcher fails the test instead of stalling the suite, and
    # every test ends with no child process left, running or unreaped
    def hung(signum, frame):
        raise TimeoutError("the dispatcher hung")
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_many_items_come_back_in_order():
    # far more results than one pipe holds, so the parent must drain the
    # workers' pipes while they still claim indices
    items = list(range(20_000))
    assert _parallel_map(lambda i: (i, -i), items, 2) == [(i, -i) for i in items]


def test_each_index_is_claimed_once_with_more_workers_than_cores():
    # a lost update of the shared counter would run some item twice; each
    # item marks its own byte of a mapping the forked workers share
    runs = mmap.mmap(-1, 3_000)

    def mark(i):
        runs[i] += 1
        return i
    workers = 3 * len(os.sched_getaffinity(0))
    assert _parallel_map(mark, list(range(3_000)), workers) == list(range(3_000))
    assert runs[:] == b"\1" * 3_000


def test_results_larger_than_a_pipe_arrive_whole():
    got = _parallel_map(lambda i: bytes([i]) * (200_000 + i), list(range(6)), 3)
    assert got == [bytes([i]) * (200_000 + i) for i in range(6)]


def _fails_at_seven(i):
    if i == 7:
        raise ValueError(f"item {i} is bad")
    return i


def test_a_worker_exception_reaches_the_parent_with_its_traceback():
    with pytest.raises(ValueError) as info:
        _parallel_map(_fails_at_seven, list(range(20)), 2)
    assert str(info.value) == "item 7 is bad"
    [note] = info.value.__notes__
    assert note.startswith("Traceback (most recent call last):")
    assert "in _fails_at_seven" in note and "ValueError: item 7 is bad" in note


def test_an_unpicklable_result_is_raised_as_its_pickling_error():
    with pytest.raises(AttributeError, match="pickle") as info:
        _parallel_map(lambda i: (lambda: i), [0, 1], 2)
    assert "Traceback" in info.value.__notes__[0]


@pytest.mark.parametrize("die", [
    lambda: os._exit(0),      # a clean exit: the claimed item goes unanswered
    lambda: os._exit(3),
    lambda: os.kill(os.getpid(), signal.SIGKILL),
])
def test_a_worker_that_dies_mid_item_makes_the_parent_raise(die):
    def fn(i):
        if i == 5:
            die()
        return i
    with pytest.raises(ChildProcessError, match="worker exited with"):
        _parallel_map(fn, list(range(40)), 2)


def test_one_worker_or_one_item_runs_in_this_process():
    pid = os.getpid()
    assert _parallel_map(lambda i: os.getpid(), [0, 1, 2], 1) == [pid] * 3
    assert _parallel_map(lambda i: os.getpid(), [0], 4) == [pid]
    assert all(p != pid for p in _parallel_map(lambda i: os.getpid(), [0, 1], 2))
