"""Benchmark workloads: one config tree per (workload, seed, workers).

The workload seed sets every seed list in the tree; the program only ever
sees the generated tree.  Each workload also states what a correct run
produces (items, CSV files and their row counts), so outputs can be checked
on any seed, not only on the one with stored reference files.
"""

from __future__ import annotations

DEFAULT_SEED = 0

_T_GRID = {"start": 0.0, "stop": 5.0, "step": 0.1}
_T_POINTS = 51
_FIBER = {"matrix": [[0.3, 0.7], [0.7, 0.3]]}
_FAIR = {"kind": "bernoulli", "weights": [0.5, 0.5]}
# A symmetric chain keeps the marginal law of the target words near uniform,
# so the recursion length, which scales as 1 / mu(A), varies little between
# workload seeds (at n 10 and 14, 4% quartile spread of the total over
# seeds, against 7% for the chain [[0.7, 0.3], [0.4, 0.6]]).  Any Markov
# chain runs the same per-symbol window-extension loop.
_MARKOV = {"kind": "markov", "transition": [[0.6, 0.4], [0.4, 0.6]]}


def _seeds(seed: int, count: int) -> list:
    return [seed * 1000 + i for i in range(count)]


def _quenched_markov(seed: int) -> dict:
    return {"experiment": "quenched_shift", "seeds": _seeds(seed, 20),
            "operation_budget": 10**8, "base": _MARKOV, "fiber": _FIBER,
            "sweep": {"n": [10, 12], "t": _T_GRID}}


def _annealed(seed: int) -> dict:
    return {"experiment": "annealed_shift", "seeds": _seeds(seed, 1),
            "trials": 50, "operation_budget": 10**8, "base": _FAIR,
            "fiber": _FIBER, "sweep": {"n": [12], "t": _T_GRID}}


def _ledger(seed: int) -> dict:
    return {"experiment": "ledger", "seeds": _seeds(seed, 3),
            "operation_budget": 10**8, "base": _FAIR, "fiber": _FIBER,
            "sweep": {"n": [4, 6, 8], "t": [0.5, 1.0, 2.0]},
            "ledger": {"jmax_factor": 4}}


def _circle(seed: int) -> dict:
    # 4 seeds and 2,500 trials rather than the shipped 30 and 10^4: like the
    # other workloads, a repetition takes about a second at two workers, so
    # a run holds enough of them for the fastest to be steady
    return {"experiment": "circle_law", "seeds": _seeds(seed, 4),
            "trials": 2_500, "circle": {"multipliers": [2, 3]},
            "sweep": {"t": _T_GRID, "r": [0.01, 0.001]}}


_TREES = {
    "quenched-markov": _quenched_markov,
    "annealed": _annealed,
    "ledger": _ledger,
    "circle": _circle,
}

WORKLOADS = tuple(_TREES)


def make_tree(workload: str, seed: int, workers: int) -> dict:
    """The config tree of one run, with an explicit worker count."""
    tree = _TREES[workload](seed)
    tree["threads"] = workers
    return tree


def items(tree: dict) -> list:
    """Work items in dispatch order, each a tuple identifying one item."""
    sweep = tree["sweep"]
    kind = tree["experiment"]
    if kind == "quenched_shift":
        return [(n, s) for n in sweep["n"] for s in tree["seeds"]]
    if kind == "annealed_shift":
        return [(n, w) for n in sweep["n"] for w in range(tree["trials"])]
    if kind == "ledger":
        return [(n, t, s) for n in sweep["n"] for t in sweep["t"]
                for s in tree["seeds"]]
    return [(r, s) for r in sweep["r"] for s in tree["seeds"]]


def expected_csvs(tree: dict) -> dict:
    """CSV file name -> number of data rows a complete run writes."""
    sweep = tree["sweep"]
    kind = tree["experiment"]
    seeds = len(tree["seeds"])
    if kind == "quenched_shift":
        return {f"survival_n{n}.csv": seeds * _T_POINTS for n in sweep["n"]}
    if kind == "annealed_shift":
        return {f"annealed_n{n}.csv": _T_POINTS for n in sweep["n"]}
    if kind == "ledger":
        return {"ledger.csv": len(items(tree))}
    return {"circle.csv": len(items(tree)) * _T_POINTS}
