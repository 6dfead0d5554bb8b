import copy
import csv
import ctypes
import datetime
import glob
import hashlib
import io
import json
import os
import re
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import hitlaw
from hitlaw.base_process import sample_window
from hitlaw.cli import main
from hitlaw.config import EXPERIMENT_KINDS, build_config, validate
from hitlaw.experiments import (KINDS, _draw_pattern, _parallel_map, _sweep_report,
                                run_experiment, write_artifacts)
from hitlaw.survival import rescaled_survival


def _tiny_tree(**overrides):
    tree = {
        "experiment": "quenched_shift",
        "seeds": [1, 2],
        "trials": 1,
        "threads": 1,
        "base": {"kind": "bernoulli", "weights": [0.5, 0.5]},
        "fiber": {"matrix": [[0.3, 0.7], [0.7, 0.3]]},
        "sweep": {"n": [2, 3], "t": {"start": 0.0, "stop": 2.0, "step": 0.5}},
    }
    tree.update(overrides)
    return tree


def _write(tmp_path, tree, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(tree))
    return str(path)


def test_validate_clean_config():
    assert validate(_tiny_tree()) == []


def test_validate_reports_bad_rows_and_grids():
    tree = _tiny_tree()
    tree["fiber"] = {"matrix": [[0.4, 0.5], [0.5, 0.5]]}
    tree["sweep"]["n"] = [3, 2]
    problems = validate(tree)
    assert any("not stochastic" in p for p in problems)
    assert any("sweep.n" in p for p in problems)


def test_validate_requires_explicit_seeds():
    tree = _tiny_tree()
    tree.pop("seeds")
    assert any("seeds" in p for p in validate(tree))


@pytest.mark.parametrize("bits", ["many", 1, 10**6])
def test_circle_precision_bits_is_ignored(tmp_path, bits):
    # the circle law sizes its precision from the scan horizon itself, so
    # a precision_bits key is an unknown key like any other
    tree = {
        "experiment": "circle_law",
        "seeds": [1],
        "trials": 100,
        "threads": 1,
        "circle": {"multipliers": [2, 3]},
        "sweep": {"t": [0.0, 0.5, 1.0], "r": [0.05]},
    }
    with_key = copy.deepcopy(tree)
    with_key["circle"]["precision_bits"] = bits
    hashes, csvs = [], []
    for name, t in (("plain", tree), ("keyed", with_key)):
        cfg = _write(tmp_path, t, f"{name}.yaml")
        assert main(["validate", "--config", cfg]) == 0
        assert main(["run", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        hashes.append(manifest["config_hash"])
        csvs.append((tmp_path / name / "circle.csv").read_bytes())
    assert hashes[0] == hashes[1] == build_config(with_key).config_hash()
    assert csvs[0] == csvs[1]


def test_unknown_kind_short_circuits():
    assert validate({"experiment": "nope"})[0].startswith("experiment:")


def test_cli_validate_and_exit_codes(tmp_path, capsys):
    good = _write(tmp_path, _tiny_tree(), "good.yaml")
    assert main(["validate", "--config", good]) == 0
    bad_tree = _tiny_tree()
    bad_tree["fiber"] = {"matrix": [[0.9, 0.2], [0.5, 0.5]]}
    bad = _write(tmp_path, bad_tree, "bad.yaml")
    assert main(["validate", "--config", bad]) == 1
    out = capsys.readouterr().out
    assert "not stochastic" in out


def test_cli_list_experiments(capsys):
    assert main(["list-experiments"]) == 0
    out = capsys.readouterr().out
    assert "quenched_shift" in out and "circle_law" in out
    # the listed kinds are the dispatched ones, in the same order
    assert tuple(KINDS) == EXPERIMENT_KINDS
    assert out.split() == list(KINDS)


def test_cli_run_artifact_shape(tmp_path):
    cfg = _write(tmp_path, _tiny_tree())
    out_dir = str(tmp_path / "out")
    assert main(["run", "--config", cfg, "--out", out_dir]) == 0
    names = sorted(os.listdir(out_dir))
    assert names == ["manifest.json", "report.json", "survival_n2.csv",
                     "survival_n3.csv"]
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["truncated"] == []
    assert set(manifest["files"]) == {"report.json", "survival_n2.csv",
                                      "survival_n3.csv"}
    header = (tmp_path / "out" / "survival_n2.csv").read_text().splitlines()[0]
    assert header == "seed,t,k,survival,exp_minus_t,abs_err"


def test_cli_seed_override(tmp_path):
    cfg = _write(tmp_path, _tiny_tree())
    out_dir = str(tmp_path / "o1")
    assert main(["run", "--config", cfg, "--out", out_dir, "--seed", "7"]) == 0
    rows = (tmp_path / "o1" / "survival_n2.csv").read_text().splitlines()[1:]
    assert all(row.startswith("7,") for row in rows)


def test_run_byte_identical_across_worker_counts(tmp_path):
    tree = _tiny_tree(seeds=[1, 2, 3])
    outs = {}
    for threads, name in [(1, "a"), (3, "b"), (1, "c")]:
        tree["threads"] = threads
        cfg = build_config(tree)
        out_dir = str(tmp_path / name)
        run_experiment(cfg, out_dir)
        outs[name] = {
            f: (tmp_path / name / f).read_bytes()
            for f in os.listdir(tmp_path / name) if f != "manifest.json"
        }
    assert outs["a"] == outs["b"] == outs["c"]


def test_run_budget_truncation_exit_code(tmp_path):
    tree = _tiny_tree()
    tree["operation_budget"] = 4   # under every seed's n (k(t_max) + n - 1)
    cfg = _write(tmp_path, tree)
    out_dir = str(tmp_path / "out")
    code = main(["run", "--config", cfg, "--out", out_dir])
    assert code == 2
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    # one marker per item, worded as the annealed and ledger ones: the item,
    # then its price
    assert [m.split(":")[0] for m in manifest["truncated"]] == [
        "quenched n=2 seed=1", "quenched n=2 seed=2",
        "quenched n=3 seed=1", "quenched n=3 seed=2"]
    for marker in manifest["truncated"]:
        assert re.fullmatch(r"quenched n=\d seed=\d: needs \d+ column-state "
                            r"reads, over the budget 4", marker)


def test_budget_stays_inside_int64(tmp_path):
    # every price is at least its k, so a budget below 2**63 admits only k
    # inside int64; the fair-coin marginal gives an n=64 word k = 2**64 at
    # t = 1, which the largest budget cuts and a larger one may not reach
    tree = _tiny_tree(seeds=[1], sweep={"n": [64], "t": [0.0, 1.0]})
    huge = _write(tmp_path, dict(tree, operation_budget=10**30), "huge.yaml")
    assert main(["run", "--config", huge, "--out", str(tmp_path / "huge")]) == 1
    top = _write(tmp_path, dict(tree, operation_budget=2**63 - 1), "top.yaml")
    assert main(["run", "--config", top, "--out", str(tmp_path / "top")]) == 2
    manifest = json.loads((tmp_path / "top" / "manifest.json").read_text())
    assert manifest["truncated"] == [
        f"quenched n=64 seed=1: needs {64 * (2**64 + 63)} column-state reads, "
        f"over the budget {2**63 - 1}"]


def test_words_past_the_float_range_are_over_budget(tmp_path):
    # on the fair coin an n=1060 word's mu(A) is subnormal, so t / mu(A) is
    # inf, and an n=1100 word's underflows to 0; at n=8000 the ledger's gap
    # exp(h0 n / 4) overflows too.  Each such word is priced over every
    # budget, so the run exits 2 with its markers, and its n=2 rows are
    # those of a run of n=2 alone
    for kind, ns, name, markers in (
            ("quenched_shift", [1060, 1100], "survival_n2.csv",
             ["quenched n={n} seed=0"]),
            ("annealed_shift", [1060, 1100], "annealed_n2.csv", ["annealed n={n}"]),
            ("ledger", [1060, 1100, 8000], "ledger.csv",
             ["ledger n={n} t=0.5 seed=0", "ledger n={n} t=1.0 seed=0"])):
        outs = []
        for grid in ([2, *ns], [2]):
            tree = _tiny_tree(experiment=kind, seeds=[0], trials=3,
                              sweep={"n": grid, "t": [0.5, 1.0]})
            cfg = _write(tmp_path, tree, f"{kind}{len(grid)}.yaml")
            out = tmp_path / f"{kind}{len(grid)}"
            assert main(["run", "--config", cfg, "--out", str(out)]) == (
                2 if ns[0] in grid else 0), kind
            manifest = json.loads((out / "manifest.json").read_text())
            assert [m.split(":")[0] for m in manifest["truncated"]] == (
                [m.format(n=n) for n in ns for m in markers] if ns[0] in grid
                else []), kind
            outs.append((out / name).read_bytes())
        assert outs[0] == outs[1] and outs[0].count(b"\n") > 1, kind


def test_seeds_that_read_nothing_cost_nothing(tmp_path):
    # at t = 0 every k(t) is 0 and the kernel reads no symbol, so a budget
    # under n (n - 1) still finishes every seed and word
    for kind in ("quenched_shift", "annealed_shift"):
        tree = _tiny_tree(experiment=kind, trials=2, operation_budget=5,
                          sweep={"n": [3], "t": [0.0]})
        cfg = _write(tmp_path, tree, f"{kind}.yaml")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / kind)]) == 0


def test_run_ledger_and_singularity_kinds(tmp_path):
    ledger_tree = {
        "experiment": "ledger",
        "seeds": [1, 2],
        "threads": 1,
        "base": {"kind": "bernoulli", "weights": [0.5, 0.5]},
        "fiber": {"matrix": [[0.3, 0.7], [0.7, 0.3]]},
        "sweep": {"n": [2, 3], "t": [0.5, 1.0]},
    }
    cfg = build_config(ledger_tree)
    manifest = run_experiment(cfg, str(tmp_path / "led"))
    report = json.loads((tmp_path / "led" / "report.json").read_text())
    assert report["bound_violations"] == 0
    assert report["sandwich_sweep_ok"] is True

    # over-budget ledger items are truncated with the offending n and t named
    # (a ledger item prices its recursions' column-state reads)
    ledger_tree["operation_budget"] = 10
    manifest = run_experiment(build_config(ledger_tree), str(tmp_path / "led2"))
    assert manifest["truncated"]
    for marker in manifest["truncated"]:
        assert re.fullmatch(r"ledger n=\d t=[\d.]+ seed=\d: needs \d+ "
                            r"column-state reads, over the budget 10", marker)

    sing_tree = {
        "experiment": "singularity",
        "seeds": [3],
        "trials": 50,
        "threads": 1,
        "base": {"kind": "bernoulli", "weights": [0.5, 0.5]},
        "fiber": {"matrix": [[0.3, 0.7], [0.7, 0.3]]},
        "sweep": {"n": [50]},
    }
    run_experiment(build_config(sing_tree), str(tmp_path / "sing"))
    data = json.loads((tmp_path / "sing" / "singularity.json").read_text())
    assert data["draws"] == 50
    assert 0.0 <= data["fraction_abs_log_ratio_ge_10"] <= 1.0


def test_run_circle_and_entropy_kinds(tmp_path):
    circle_tree = {
        "experiment": "circle_law",
        "seeds": [1, 2],
        "trials": 200,
        "threads": 1,
        "circle": {"multipliers": [2, 3]},
        "sweep": {"t": [0.0, 0.5, 1.0], "r": [0.05]},
    }
    run_experiment(build_config(circle_tree), str(tmp_path / "c"))
    header = (tmp_path / "c" / "circle.csv").read_text().splitlines()[0]
    assert header == "seed,r,t,empirical_survival,exp_minus_t,Delta_r,trials,censored_count"

    entropy_tree = {
        "experiment": "entropy",
        "seeds": [5],
        "trials": 10,
        "threads": 1,
        "base": {"kind": "bernoulli", "weights": [0.5, 0.5]},
        "fiber": {"matrix": [[0.3, 0.7], [0.7, 0.3]]},
        "sweep": {"n": [4, 6]},
    }
    run_experiment(build_config(entropy_tree), str(tmp_path / "e"))
    report = json.loads((tmp_path / "e" / "entropy.json").read_text())
    assert report["h0"] > 0
    assert report["h_hat"] >= report["h0"] - 1e-12


def test_an_entropy_run_censored_at_every_scan_is_widened(tmp_path):
    # no return to a 40-symbol word comes within the 10**6-step scan cap
    tree = _tiny_tree(experiment="entropy", seeds=[0], trials=3, sweep={"n": [40]})
    run_experiment(build_config(tree), str(tmp_path))
    with open(tmp_path / "entropy.csv", newline="") as fh:
        [row] = list(csv.DictReader(fh))
    assert row["censored"] == row["samples"] == "3"
    assert row["ow_mean"] == row["ow_stderr"] == "nan"
    report = json.loads((tmp_path / "entropy.json").read_text())
    assert report["widened_uncertainty"] is True
    assert report["ow_slope_at_largest_n"] is None


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_runs_of_one_draw_write_null_spreads_without_warning(tmp_path):
    entropy = _tiny_tree(experiment="entropy", seeds=[5], trials=1, sweep={"n": [4]})
    run_experiment(build_config(entropy), str(tmp_path / "e"))
    header, row = (tmp_path / "e" / "entropy.csv").read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["smb_stderr"] == "nan"

    singularity = _tiny_tree(experiment="singularity", seeds=[3], trials=1,
                             sweep={"n": [20]})
    run_experiment(build_config(singularity), str(tmp_path / "s"))
    report = json.loads((tmp_path / "s" / "singularity.json").read_text())
    assert report["draws"] == 1
    assert report["std_log_ratio"] is None

    # one window: its stderr is 0 and its mean is that window's curve
    annealed = build_config(_tiny_tree(experiment="annealed_shift", seeds=[4],
                                       trials=1, sweep={"n": [2, 3],
                                                        "t": [0.0, 0.5, 1.0]}))
    run_experiment(annealed, str(tmp_path / "a"))
    for n in (2, 3):
        with open(tmp_path / "a" / f"annealed_n{n}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["stderr"] for row in rows] == ["0"] * 3
        single = rescaled_survival(annealed.fiber, annealed.base,
                                   sample_window(annealed.base, [4, 0, 0], n),
                                   _draw_pattern(annealed, 4, n), annealed.t_grid)
        assert [float(row["mean_survival"]) for row in rows] == single.values.tolist()


def test_shipped_configs_validate():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg_dir = os.path.join(here, "configs")
    for name in os.listdir(cfg_dir):
        with open(os.path.join(cfg_dir, name)) as fh:
            tree = yaml.safe_load(fh)
        assert validate(tree) == [], name


@pytest.mark.parametrize("name, counts", [("quenched_shift", [150, 100, 50, 0]),
                                          ("annealed_shift", [1, 1, 1, 0]),
                                          ("ledger", [90, 80, 40, 0])])
def test_the_price_stage_alone_predicts_the_run(tmp_path, name, counts):
    # a kind's price function, called on every item in this process, yields
    # exactly the markers a two-worker run writes, at its own budget and below
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(here, "configs", f"{name}.yaml")) as fh:
        shipped = yaml.safe_load(fh)
    items, price, _, _ = KINDS[name]
    got = []
    for budget in (1, 10**4, 10**6, shipped["operation_budget"]):
        tree = dict(shipped, threads=2, operation_budget=budget)
        markers = sorted({
            f"{label}: k=0, t too small" if cost is None else
            f"{label}: needs {cost} column-state reads, over the budget {budget}"
            for item in items(build_config(tree)) for label, cost, _ in price(item)
            if cost is None or cost > budget})
        out = tmp_path / str(budget)
        code = main(["run", "--config", _write(tmp_path, tree, f"{budget}.yaml"),
                     "--out", str(out)])
        assert json.loads((out / "manifest.json").read_text())["truncated"] == markers
        assert code == (2 if markers else 0)
        got.append(len(markers))
    assert got == counts


def test_every_kind_byte_identical_across_worker_counts(tmp_path, monkeypatch):
    from hitlaw import survival
    # kernel calls of at most 10,000 bytes (``survival._call_bytes``) in
    # place of the shipped cap, so that the shift chunks below make several
    # calls each; forked workers inherit the patch
    monkeypatch.setattr(survival, "_CALL_BYTES", 10_000)
    # 7 windows split into 1, 2 and 3 chunks; n=8 runs long enough for
    # the kernel's block jumps, and both word lengths share one pool; an
    # n=4 call takes 3 windows (768 bytes of table, 2,494 a window), and
    # an n=8 window, over the cap with its 133,120-byte table, runs alone
    annealed = _tiny_tree(experiment="annealed_shift", seeds=[4], trials=7,
                          sweep={"n": [4, 8],
                                 "t": {"start": 0.0, "stop": 5.0, "step": 0.5}})
    # n=12 is over the budget and n=2 is not, in the same pool
    annealed_truncated = _tiny_tree(
        experiment="annealed_shift", seeds=[4], trials=5, operation_budget=10000,
        sweep={"n": [2, 12], "t": [0.0, 2.0, 5.0]})
    # at n=8, t=0.005 is k=1, under the gap schedule's 2, so each (8, seed)
    # runs two gap groups; below n=8 it is k=0, truncated
    ledger = _tiny_tree(experiment="ledger", seeds=[1, 2, 3],
                        sweep={"n": [2, 4, 8], "t": [0.005, 0.5, 1.0]})
    quenched = _tiny_tree(seeds=[1, 2, 3], sweep={"n": [2, 3, 4], "t": [0.0, 1.0]})
    # a Markov base gives every word its own mu(A), so the words of one
    # call have their own records and pad: at n=4 a call takes about three
    # words of 3,100-3,400 bytes; at n=10 the budget puts half the seeds
    # over it (10 (k(t_max) + 9) > 53,000, 4 of 8 in each half), and each
    # admitted seed, over the cap with its 208,000-byte table, runs alone
    quenched_markov = _tiny_tree(
        seeds=list(range(1, 17)), operation_budget=53_000,
        base={"kind": "markov", "transition": [[0.8, 0.2], [0.3, 0.7]]},
        sweep={"n": [4, 10], "t": [0.0, 1.0, 2.5, 5.0]})
    # at n=10 and t=0.5 (k=512, jmax=2048) the ledger sweep runs its 81
    # blocks in two chunks, and its live product passes OpenBLAS's
    # threading threshold, so a pooled run differs from an in-process one
    # in how many BLAS threads each product gets
    ledger_n10 = _tiny_tree(experiment="ledger", seeds=[1, 2, 3, 4],
                            ledger={"jmax_factor": 4},
                            sweep={"n": [10], "t": [0.25, 0.5]})
    entropy = _tiny_tree(experiment="entropy", seeds=[5], trials=10,
                         sweep={"n": [4, 6]})
    singularity = _tiny_tree(experiment="singularity", seeds=[3], trials=7,
                             sweep={"n": [20]})
    circle = dict(_CIRCLE, seeds=[1, 2],
                  sweep={"t": [0.0, 0.5, 1.0], "r": [0.2, 0.1, 0.05]})
    for label, tree in (("annealed", annealed),
                        ("annealed_truncated", annealed_truncated),
                        ("ledger", ledger), ("ledger_n10", ledger_n10),
                        ("quenched", quenched),
                        ("quenched_markov", quenched_markov),
                        ("entropy", entropy), ("singularity", singularity),
                        ("circle", circle)):
        outs, truncated = [], []
        for threads in (1, 2, 3):
            out_dir = tmp_path / f"{label}{threads}"
            manifest = run_experiment(build_config(dict(tree, threads=threads)),
                                      str(out_dir))
            outs.append({f: (out_dir / f).read_bytes()
                         for f in os.listdir(out_dir) if f != "manifest.json"})
            truncated.append(manifest["truncated"])
        assert outs[0] == outs[1] == outs[2], label
        assert truncated[0] == truncated[1] == truncated[2], label
        assert bool(truncated[0]) == (label in ("annealed_truncated", "ledger",
                                                "quenched_markov")), label


def test_threads_zero_follows_cpu_affinity(tmp_path, monkeypatch):
    from hitlaw import experiments
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
    assert experiments._workers(0) == 3
    assert experiments._workers(2) == 2
    seen = []

    def fake_map(fn, items, threads):
        seen.append((len(items), experiments._workers(threads)))
        return [fn(item) for item in items]
    monkeypatch.setattr(experiments, "_parallel_map", fake_map)
    tree = _tiny_tree(experiment="annealed_shift", seeds=[4], trials=7,
                      threads=0, sweep={"n": [3], "t": [0.0, 1.0]})
    manifest = run_experiment(build_config(tree), str(tmp_path / "a"))
    assert seen == [(3, 3)]   # one chunk of windows per usable core
    assert manifest["workers"] == 3
    # one chunk of seeds per usable core too, whatever a word's tables weigh
    quenched = _tiny_tree(seeds=list(range(50)), threads=0,
                          sweep={"n": [14], "t": [0.0, 0.1]})
    run_experiment(build_config(quenched), str(tmp_path / "q"))
    assert seen[1:] == [(3, 3)]


def test_shift_worker_memory_does_not_grow_with_columns(tmp_path):
    from hitlaw import survival
    # in process at one worker a chunk holds every window or seed, and the
    # worker holds one kernel call's tables, windows, symbols and step
    # indices at a time, at most ``_CALL_BYTES`` by ``survival._call_bytes``,
    # so 10 times the columns add less than a call's worth.  One call for
    # all windows holds 104 MiB more at 2,000 windows than at 200; calls cut
    # by reads alone hold 183 MiB more at 1,000 short-horizon seeds (a 0.2
    # MB table each at n=10, few reads) than at 100
    grid = {"start": 0.0, "stop": 5.0, "step": 0.1}
    annealed = _tiny_tree(experiment="annealed_shift", seeds=[0],
                          operation_budget=10**10, sweep={"n": [12], "t": grid})
    quenched = _tiny_tree(operation_budget=10**10, sweep={"n": [14], "t": grid})
    short = _tiny_tree(operation_budget=10**10,
                       sweep={"n": [10], "t": [0.0, 0.5, 1.0]})
    for label, tree, key, counts in (
            ("annealed", annealed, "trials", (200, 2_000)),
            ("quenched", quenched, "seeds", (list(range(10)), list(range(60)))),
            ("short", short, "seeds", (list(range(100)), list(range(1_000))))):
        peaks = []
        for count in counts:
            cfg = build_config(dict(tree, **{key: count}))
            tracemalloc.start()
            try:
                run_experiment(cfg, str(tmp_path / f"{label}{len(peaks)}"))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < survival._CALL_BYTES, (label, peaks)


def test_a_shift_chunk_under_the_call_cap_is_one_kernel_call(tmp_path, monkeypatch):
    from hitlaw import survival
    # the kernel counts a word's table once for each run of columns that
    # share the word and k row objects, and an annealed chunk hands every
    # window the same two, so the chunk is one call on one table.  A k row
    # copied for each window writes the same bytes but stacks a table a
    # window, so each call is recorded as (tables, columns a table)
    calls = []
    lockstep = survival._lockstep

    def counted(mats, syms, *args):
        calls.append((len(mats), [len(s) for s in syms]))
        return lockstep(mats, syms, *args)
    monkeypatch.setattr(survival, "_lockstep", counted)
    annealed = _tiny_tree(experiment="annealed_shift", seeds=[4], trials=50,
                          sweep={"n": [3, 4], "t": [0.0, 1.0, 5.0]})
    run_experiment(build_config(annealed), str(tmp_path / "annealed"))
    assert calls == [(1, [50]), (1, [50])]
    # a quenched chunk's seeds each draw their own word, one group each
    calls.clear()
    run_experiment(build_config(_tiny_tree(seeds=list(range(10)))),
                   str(tmp_path / "quenched"))
    assert calls == [(10, [1] * 10), (10, [1] * 10)]


def test_parent_memory_does_not_grow_with_quenched_rows(tmp_path, monkeypatch):
    from hitlaw import survival
    # in process, so the trace sees the parent's reduce and write; kernel
    # calls of at most 100,000 bytes keep the worker's share level (the test
    # above bounds it), so what grows is the parent's: a k row and 51
    # values a curve.  A curve's rows, lines and file text held whole take
    # about 24 KB, 22 MB over 900 curves; the bound allows 3 KB a curve
    monkeypatch.setattr(survival, "_CALL_BYTES", 100_000)
    tree = _tiny_tree(operation_budget=10**10,
                      sweep={"n": [2], "t": {"start": 0.0, "stop": 5.0, "step": 0.1}})
    peaks = []
    for count in (100, 1_000):
        cfg = build_config(dict(tree, seeds=list(range(count))))
        tracemalloc.start()
        try:
            run_experiment(cfg, str(tmp_path / str(count)))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len((tmp_path / "1000" / "survival_n2.csv").read_text().splitlines()) == 51_001
    assert peaks[1] - peaks[0] < 900 * 3_000, peaks


def test_config_hash_ignores_worker_count():
    one = build_config(_tiny_tree(threads=1))
    three = build_config(_tiny_tree(threads=3))
    assert one.config_hash() == three.config_hash()
    assert build_config(_tiny_tree(seeds=[1, 3])).config_hash() != one.config_hash()


def test_config_hash_reads_only_the_science_inputs(tmp_path):
    # a date is valid YAML that JSON cannot hold; the parse ignores the key
    cfg = _write(tmp_path, dict(_tiny_tree(), note=datetime.date(2020, 1, 1)))
    assert "note: 2020-01-01" in open(cfg).read()
    assert main(["validate", "--config", cfg]) == 0
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config_hash"] == build_config(_tiny_tree()).config_hash()
    elsewhere = build_config(_tiny_tree(output_dir="elsewhere", threads=2))
    assert elsewhere.config_hash() == manifest["config_hash"]


def test_config_hash_is_the_same_once_markov_windows_are_drawn(tmp_path):
    # at one worker the run draws its Markov windows in this process, and
    # the base process object keeps what it derived for them; at two the
    # workers draw them.  The hash reads the model objects' fields alone,
    # so both runs write the hash of the config as parsed
    tree = _tiny_tree(base={"kind": "markov", "transition": [[0.7, 0.3], [0.4, 0.6]]})
    want = build_config(tree).config_hash()
    hashes = []
    for threads in (1, 2):
        cfg = build_config(dict(tree, threads=threads))
        run_experiment(cfg, str(tmp_path / str(threads)))
        manifest = json.loads((tmp_path / str(threads) / "manifest.json").read_text())
        hashes.append(manifest["config_hash"])
    assert hashes == [want, want]


def test_only_a_ledger_run_reads_the_ledger_section(tmp_path):
    # jmax_factor sizes the ledger's recursions alone, so any other kind
    # ignores a ledger section like an unknown key: it neither checks it
    # nor hashes it
    circle = dict(_CIRCLE, ledger={"jmax_factor": 0})
    assert validate(circle) == []
    cfg = _write(tmp_path, circle)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "circle")]) == 0
    manifest = json.loads((tmp_path / "circle" / "manifest.json").read_text())
    assert manifest["config_hash"] == build_config(_CIRCLE).config_hash()
    plain = build_config(_tiny_tree()).config_hash()
    keyed = build_config(_tiny_tree(ledger={"jmax_factor": 7})).config_hash()
    assert keyed == plain


def _csv_writer_fmt(value):
    """How each CSV value was once formatted for ``csv.writer``."""
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def test_csv_values_keep_the_bytes_csv_writer_wrote(tmp_path):
    # CSV lines are joined by hand; csv.writer, which wrote them before,
    # is the oracle, and the bytes are pinned as well
    header = ("a", "b", "c", "d", "e", "f")
    # a row is formatted by the value types it holds, and the types change
    # from row to row: int then float, np.float64 then float, a bool
    rows = [(3, np.int64(-7), 0.1, np.float64(1 / 3), float("nan"), float("inf")),
            (0, np.int64(2**40), -0.0, np.float64(-1e-300), np.float64("nan"), -np.inf),
            (2.5, 7, np.float64(0.1), 1 / 3, False, np.float64("inf")),
            (np.int64(5), True, -0.0, np.float64(-0.0), 1e300, float("nan"))]
    write_artifacts(build_config(_tiny_tree()), {"x.csv": ("csv", header, rows)}, [],
                    str(tmp_path))
    old = io.StringIO()
    writer = csv.writer(old, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_csv_writer_fmt(v) for v in row] for row in rows)
    got = (tmp_path / "x.csv").read_bytes()
    assert got == old.getvalue().encode()
    assert got == (b"a,b,c,d,e,f\n"
                   b"3,-7,0.10000000000000001,0.33333333333333331,nan,inf\n"
                   b"0,1099511627776,-0,-1e-300,nan,-inf\n"
                   b"2.5,7,0.10000000000000001,0.33333333333333331,False,inf\n"
                   b"5,True,-0,-0,1.0000000000000001e+300,nan\n")


@pytest.mark.parametrize("values, want", [
    ([0.25], 0.25),
    ([0.3, 0.1, 0.2], 0.2),
    # (0.1 + 0.7) / 2 rounds to 0.39999999999999997, not to 0.4
    ([5.0, 0.7, 0.05, 0.1], 0.39999999999999997),
    ([0.7, 0.1], 0.39999999999999997),
])
def test_sweep_report_median_is_numpys(values, want):
    done = [((2, i), ([("row", i)], v)) for i, v in enumerate(values)]
    rows, report = _sweep_report(done, [2], [2.0], "per_n", str, "sup_abs_err")
    assert rows == {2: [("row", i) for i in range(len(values))]}
    median = report["per_n"]["2"]["median_sup_abs_err"]
    assert median == float(np.median(values)) == want
    assert type(median) is float


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_report_of_a_sweep_key_with_no_finished_item_is_strict_json(tmp_path):
    # at this budget every n=14 item is over it, so n=14 has no median
    tree = _tiny_tree(operation_budget=10000,
                      sweep={"n": [2, 3, 14], "t": [0.0, 1.0, 2.0]})
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, tree), "--out", str(out)]) == 2
    for name in ("report.json", "manifest.json"):
        json.loads((out / name).read_text(), parse_constant=_reject_constant)
    report = json.loads((out / "report.json").read_text())
    assert report["per_n"]["14"] == {"sup_abs_err": {}, "median_sup_abs_err": None}
    assert report["per_n"]["2"]["median_sup_abs_err"] > 0
    # two word lengths finished: too few for a trend, and no verdict from n=14
    assert report["trend"] is None
    assert report["trend_skipped"].startswith("2 of 3 sweep keys")


def test_annealed_over_budget_exits_2_with_one_marker_per_word_length(tmp_path):
    tree = _tiny_tree(experiment="annealed_shift", trials=5, operation_budget=4)
    cfg = _write(tmp_path, tree)
    outs = []
    for threads in (1, 3):
        out = tmp_path / f"t{threads}"
        assert main(["run", "--config", cfg, "--out", str(out),
                     "--threads", str(threads)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert [m.split(":")[0] for m in manifest["truncated"]] == \
            ["annealed n=2", "annealed n=3"]
        for n in (2, 3):
            assert (out / f"annealed_n{n}.csv").read_text() == \
                "t,k,mean_survival,stderr,exp_minus_t,abs_err\n"
        outs.append({f: (out / f).read_bytes() for f in os.listdir(out)
                     if f != "manifest.json"})
    assert outs[0] == outs[1]


_CIRCLE = {
    "experiment": "circle_law",
    "seeds": [1],
    "trials": 100,
    "threads": 1,
    "circle": {"multipliers": [2, 3]},
    "sweep": {"t": [0.0, 0.5, 1.0], "r": [0.05]},
}

_MARKOV = {"kind": "markov", "transition": [[0.7, 0.3], [0.4, 0.6]]}

# one tiny tree per kind, on a Markov base where the kind allows one (a
# singularity run needs the fair coin, a circle run draws its own bits)
_GUARD_TREES = [
    _tiny_tree(base=_MARKOV, sweep={"n": [3, 4], "t": [0.0, 1.0]}),
    _tiny_tree(experiment="annealed_shift", trials=3, base=_MARKOV),
    _tiny_tree(experiment="ledger", base=_MARKOV, sweep={"n": [2, 3], "t": [0.5, 1.0]}),
    _tiny_tree(experiment="entropy", trials=5, base=_MARKOV, sweep={"n": [4]}),
    dict(_CIRCLE, seeds=[1, 2], sweep={"t": [0.0, 1.0], "r": [0.2, 0.1, 0.05]}),
    _tiny_tree(experiment="singularity", trials=3, sweep={"n": [10]}),
]


@pytest.mark.parametrize("tree", _GUARD_TREES, ids=[t["experiment"] for t in _GUARD_TREES])
def test_every_manifest_checksum_is_the_sha256_of_its_file(tmp_path, monkeypatch, tree):
    # checksums come from the bytes as they are written; at 3 rows a write
    # every CSV here takes several writes, and the files stay the same
    from hitlaw import experiments
    outs = []
    for rows in (experiments._WRITE_ROWS, 3):
        monkeypatch.setattr(experiments, "_WRITE_ROWS", rows)
        out = tmp_path / str(rows)
        manifest = run_experiment(build_config(tree), str(out))
        assert json.loads((out / "manifest.json").read_text()) == manifest
        assert set(manifest["files"]) == set(os.listdir(out)) - {"manifest.json"}
        for name, digest in manifest["files"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
        outs.append({f: (out / f).read_bytes() for f in os.listdir(out)})
    assert outs[0] == outs[1]


def _fresh_python(code: str):
    """What ``code``, run in a fresh interpreter, prints as JSON."""
    src = os.path.dirname(os.path.dirname(hitlaw.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def test_a_run_of_each_kind_never_imports_numpy_ma(tmp_path):
    # numpy.ma costs 7.5-10 ms in a fresh interpreter, and a plain np.unique
    # or np.median imports it; no run needs a masked array
    assert [tree["experiment"] for tree in _GUARD_TREES] == list(EXPERIMENT_KINDS)
    got = _fresh_python(f"""if True:
        import json, sys
        from hitlaw.config import build_config
        from hitlaw.experiments import run_experiment
        loaded = []
        for i, tree in enumerate({_GUARD_TREES!r}):
            run_experiment(build_config(tree), {str(tmp_path)!r} + f"/{{i}}")
            if "numpy.ma" in sys.modules:
                loaded.append(tree["experiment"])
        print(json.dumps({{"ma_after": loaded}}))
        """)
    assert got == {"ma_after": []}
    assert len(os.listdir(tmp_path)) == len(EXPERIMENT_KINDS)


def test_importing_the_program_leaves_numpy_random_unloaded():
    # the generator is imported where the first noise is drawn, and the yaml
    # parser where a file is read, so their costs stay out of set-up; the
    # workers are forked directly, with no process pool to import
    got = _fresh_python("""if True:
        import json, sys
        import hitlaw.cli, hitlaw.experiments
        print(json.dumps([m for m in ("numpy.random", "numpy.ma", "yaml",
                                      "concurrent.futures")
                          if m in sys.modules]))
        """)
    assert got == []


def test_importing_the_program_leaves_the_error_path_and_exact_modules_unloaded():
    # traceback and signal are imported where an error is reported or a
    # worker killed, and fractions (with decimal) only by the exact circle
    # checks, so a run's parent holds none of them
    got = _fresh_python("""if True:
        import json, sys
        import hitlaw.cli, hitlaw.experiments
        print(json.dumps([m for m in ("fractions", "decimal", "signal",
                                      "traceback")
                          if m in sys.modules]))
        """)
    assert got == []


def test_a_run_of_each_kind_never_imports_fractions(tmp_path):
    # the circle ball's arc is integer arithmetic, so even a circle run
    # leaves fractions and decimal unloaded
    got = _fresh_python(f"""if True:
        import json, sys
        from hitlaw.config import build_config
        from hitlaw.experiments import run_experiment
        loaded = []
        for i, tree in enumerate({_GUARD_TREES!r}):
            run_experiment(build_config(tree), {str(tmp_path)!r} + f"/{{i}}")
            loaded += [(tree["experiment"], m) for m in ("fractions", "decimal")
                       if m in sys.modules]
        print(json.dumps(loaded))
        """)
    assert got == []
    assert len(os.listdir(tmp_path)) == len(EXPERIMENT_KINDS)


def test_an_internal_error_exits_3_with_its_traceback(tmp_path, monkeypatch, capsys):
    def broken(cfg, out_dir):
        raise RuntimeError("the run broke")
    monkeypatch.setattr("hitlaw.experiments.run_experiment", broken)
    assert main(["run", "--config", _write(tmp_path, _tiny_tree()),
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert "RuntimeError: the run broke" in err


def _has_avx512():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return "avx512f" in fh.read().split()
    except OSError:
        return False


@pytest.mark.skipif(not _has_avx512(),
                    reason="OpenBLAS's SkylakeX kernel needs AVX-512")
def test_the_blas_kernel_changes_no_byte(tmp_path):
    # OPENBLAS_CORETYPE forces the kernel that numpy's OpenBLAS runs.  The
    # shipped quenched config's trend slope, and the circle config's (from
    # its medians), once came from a LAPACK fit whose last digit moved
    # between Haswell (AVX2) and SkylakeX (AVX-512)
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(hitlaw.__file__))
    circle_medians = "[0.10452030010562399, 0.016855262157806486, 0.007806219515457735]"
    outs = []
    for core in ("Haswell", "SkylakeX"):
        out = tmp_path / core
        env = dict(os.environ, OPENBLAS_CORETYPE=core, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        subprocess.run([sys.executable, "-m", "hitlaw.cli", "run", "--config",
                        os.path.join(here, "configs", "quenched_shift.yaml"),
                        "--threads", "1", "--out", str(out)],
                       env=env, check=True, capture_output=True)
        slope = subprocess.run(
            [sys.executable, "-c", "from hitlaw.stats import trend_report; "
             f"print(repr(trend_report({circle_medians}, xs=[1, 2, 3]).log_slope))"],
            env=env, check=True, capture_output=True, text=True).stdout
        outs.append((slope, {f: (out / f).read_bytes() for f in os.listdir(out)}))
    assert outs[0] == outs[1]


def test_peak_rss_script_names_the_process_that_sets_the_peak(tmp_path):
    # scripts/peak_rss.py runs the CLI in its own process on two workers and
    # reports both peaks, in MiB, where the benchmark reports their maximum
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, os.path.join(here, "scripts", "peak_rss.py"),
         _write(tmp_path, _tiny_tree()), "--threads", "2"],
        check=True, capture_output=True, text=True).stdout
    got = json.loads(out.splitlines()[-1])
    assert got["exit"] == 0 and got["parent_mib"] > 0 and got["largest_worker_mib"] > 0
    assert got["peak"] == ("parent" if got["parent_mib"] >= got["largest_worker_mib"]
                           else "worker")


def test_the_runner_binds_each_layer_function_it_calls_at_import():
    # perfbench/spans.py wraps the layer functions it finds in this
    # namespace before a config is built; a name imported later, inside a
    # runner or a worker, would escape its span and read 0 in the trace
    from hitlaw import base_process, circle, experiments, fiber, ledger, stats
    owners = {"sample_window": base_process, "quenched_law_statistic": circle,
              "ledger_checkpoints": ledger, "marginal_cylinder_measure": fiber,
              "ks_to_exponential": stats}
    namespace = vars(experiments)
    for name, owner in owners.items():
        assert namespace.get(name) is vars(owner)[name], name


def test_a_pooled_ledger_run_leaves_numpy_random_unloaded_in_the_parent(tmp_path):
    # the sandwich check draws its sequences in a worker, so a run on two
    # workers imports the generator in its workers only
    tree = _tiny_tree(experiment="ledger", threads=2, sweep={"n": [2, 3], "t": [0.5]})
    got = _fresh_python(f"""if True:
        import json, sys
        from hitlaw.config import build_config
        from hitlaw.experiments import run_experiment
        run_experiment(build_config({tree!r}), {str(tmp_path)!r})
        print(json.dumps("numpy.random" in sys.modules))
        """)
    assert got is False
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["sandwich_sweep_ok"] is True and report["rows"] == 4


@pytest.mark.parametrize("threads", [1, 2])
def test_a_failed_sandwich_check_reads_false(tmp_path, monkeypatch, threads):
    # forked workers inherit the patch
    monkeypatch.setattr("hitlaw.experiments.verify_sandwich", lambda xs, eps: False)
    tree = _tiny_tree(experiment="ledger", threads=threads,
                      sweep={"n": [2, 3], "t": [0.5]})
    run_experiment(build_config(tree), str(tmp_path))
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["sandwich_sweep_ok"] is False and report["rows"] == 4


def _blas_threads(_):
    """The thread count of the OpenBLAS that numpy loaded, read through the
    get entry point matching the set one that the pool initializer calls,
    and the threads the process runs."""
    [path] = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                    "numpy.libs", "*openblas*"))
    get_threads = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    return get_threads(), len(os.listdir("/proc/self/task"))


def test_pool_workers_run_blas_on_one_thread():
    # a forked worker would otherwise keep the parent's count, one thread a
    # core; the thread server that setting the count starts is stopped, so
    # no idle BLAS thread spins in a worker, and the parent keeps its count
    parent = _blas_threads(None)[0]
    assert _parallel_map(_blas_threads, [0, 1, 2], 2) == [(1, 1)] * 3
    assert _blas_threads(None)[0] == parent


def test_a_one_worker_cli_run_puts_blas_on_one_thread(tmp_path):
    # the CLI owns its process, so a one-worker run sets the count as a
    # forked worker does; run_experiment alone leaves a caller's count be
    tree = _tiny_tree(experiment="ledger", sweep={"n": [2, 3], "t": [0.5]})
    config = _write(tmp_path, tree)
    got = _fresh_python(f"""if True:
        import ctypes, glob, json, os
        import numpy as np
        from hitlaw.cli import main
        from hitlaw.config import build_config
        from hitlaw.experiments import run_experiment
        [path] = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                        "numpy.libs", "*openblas*"))
        get_threads = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        before = get_threads()
        run_experiment(build_config({tree!r}), {str(tmp_path / "lib")!r})
        library = get_threads()
        code = main(["run", "--config", {config!r}, "--out",
                     {str(tmp_path / "cli")!r}, "--threads", "1"])
        print(json.dumps([before, library, code, get_threads()]))
        """)
    before, library, code, after = got
    assert (library, code, after) == (before, 0, 1)


# Each tree breaks one rule that a run depends on; the key that names it.
_BAD_TREES = {
    "singularity-near-fair-coin": ("base", _tiny_tree(
        experiment="singularity", trials=5, sweep={"n": [10]},
        base={"kind": "bernoulli", "weights": [0.500001, 0.499999]})),
    "fiber-rows-vs-base-alphabet": ("fiber.matrix", _tiny_tree(
        base={"kind": "bernoulli", "weights": [0.2, 0.3, 0.5]})),
    "markov-stationary-not-invariant": ("base", _tiny_tree(
        base={"kind": "markov", "transition": [[0.6, 0.4], [0.4, 0.6]],
              "stationary": [0.3, 0.7]})),
    "circle-too-few-trials": ("trials", dict(_CIRCLE, trials=50)),
    "ledger-jmax-factor-zero": ("ledger.jmax_factor", _tiny_tree(
        experiment="ledger", ledger={"jmax_factor": 0},
        sweep={"n": [2, 3], "t": [0.5, 1.0]})),
    "threads-boolean": ("threads", _tiny_tree(threads=True)),
    "seeds-repeated": ("seeds", _tiny_tree(seeds=[0, 0, 1])),
    "base-not-a-tree": ("base", _tiny_tree(base=[1, 2])),
    "sweep-not-a-tree": ("sweep", _tiny_tree(sweep=[1])),
    "t-stop-string": ("sweep.t", _tiny_tree(
        sweep={"n": [2, 3], "t": {"start": 0.0, "stop": "two", "step": 0.5}})),
    "n-string": ("sweep.n", _tiny_tree(sweep={"n": ["two"], "t": [0.0, 1.0]})),
    "r-string": ("sweep.r", dict(_CIRCLE, sweep={"t": [0.0, 1.0], "r": ["wide"]})),
    # k(1) = floor(1 / 2e-300) leaves the scan's int64 k row
    "r-past-int64": ("sweep.r", dict(_CIRCLE, sweep={"t": [0.0, 1.0], "r": [1.0e-300]})),
}


@pytest.mark.parametrize("key, tree", list(_BAD_TREES.values()),
                         ids=list(_BAD_TREES))
def test_model_rule_violations_exit_1(tmp_path, capsys, key, tree):
    assert any(p.startswith(key) for p in validate(tree))
    cfg = _write(tmp_path, tree)
    assert main(["validate", "--config", cfg]) == 1
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "Traceback" not in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


_VALID_TREES = [
    _tiny_tree(),
    _tiny_tree(experiment="annealed_shift", trials=3,
               base={"kind": "markov", "transition": [[0.6, 0.4], [0.3, 0.7]]}),
    _tiny_tree(experiment="ledger", sweep={"n": [2], "t": [0.5, 1.0]},
               ledger={"jmax_factor": 4}),
    _tiny_tree(experiment="singularity", sweep={"n": [10]}),
    _tiny_tree(experiment="entropy", sweep={"n": [4]}),
    dict(_CIRCLE, circle={"multipliers": [2, 3], "precision_bits": 200}),
]

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


def _paths(node, prefix=()):
    """Every key or index path below ``node``."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def _mutated_tree(draw):
    """A valid tree with one to three of its values, at any depth, replaced
    by arbitrary JSON-like values."""
    tree = copy.deepcopy(draw(st.sampled_from(_VALID_TREES)))
    paths = draw(st.lists(st.sampled_from(list(_paths(tree))), min_size=1,
                          max_size=3, unique=True))
    # deepest first, so that every path still exists when it is replaced
    for path in sorted(paths, key=len, reverse=True):
        node = tree
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = draw(_JSON_VALUES)
    return tree


@settings(max_examples=300, deadline=None)
@given(_mutated_tree())
def test_validate_is_total_and_agrees_with_build_config(tree):
    problems = validate(tree)
    assert isinstance(problems, list)
    assert all(isinstance(p, str) and ": " in p for p in problems)
    try:
        build_config(tree)
    except ValueError:
        built = False
    else:
        built = True
    assert built == (problems == [])


def test_t_grid_range_stops_at_stop():
    def expanded(start, stop, step):
        return build_config(_tiny_tree(sweep={"n": [2], "t": {
            "start": start, "stop": stop, "step": step}})).t_grid
    assert expanded(0.0, 1.0, 0.6) == (0.0, 0.6)
    # 0.3 / 0.1 is 2.9999999999999996 in floats, and still gives 4 points
    assert expanded(0.0, 0.3, 0.1) == (0.0, 0.1, 0.2, 0.30000000000000004)
    # every shipped range grid keeps the points, hence the config hash, of
    # start + i * step for i = 0..50
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for name in ("quenched_shift.yaml", "annealed_shift.yaml"):
        with open(os.path.join(here, "configs", name)) as fh:
            assert build_config(yaml.safe_load(fh)).t_grid == \
                tuple(0.0 + i * 0.1 for i in range(51)), name


def test_over_budget_items_do_no_work(tmp_path, monkeypatch):
    # an over-budget item draws its word, never its noise window, and calls
    # no kernel; an n=14 ledger at the default budget (about 4.6e10
    # column-state reads) is refused before any of its work
    from hitlaw import experiments
    noise_keys = []
    draw = experiments.sample_window

    def recording(proc, seed, length):
        noise_keys.append(seed)
        return draw(proc, seed, length)

    def refuse(*args, **kwargs):
        raise AssertionError("an over-budget item reached a kernel")
    monkeypatch.setattr(experiments, "sample_window", recording)
    monkeypatch.setattr(experiments, "_windows_survival", refuse)
    monkeypatch.setattr(experiments, "ledger_checkpoints", refuse)
    trees = {
        "quenched": _tiny_tree(operation_budget=4),
        "annealed": _tiny_tree(experiment="annealed_shift", trials=5,
                               operation_budget=4),
        "ledger": _tiny_tree(experiment="ledger", operation_budget=10,
                             sweep={"n": [2, 3], "t": [1.0, 2.0]}),
        "ledger_n14": _tiny_tree(experiment="ledger", seeds=[1],
                                 sweep={"n": [14], "t": [1.0]}),
    }
    for name, tree in trees.items():
        cfg = _write(tmp_path, tree, f"{name}.yaml")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / name)]) == 2, name
    # word windows are keyed [seed, 1]; noise windows [seed, 0, ...]
    assert noise_keys and all(key[1] == 1 for key in noise_keys)


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _priced_outcomes(tree, out):
    """(finished, truncated) of a priced run: each finished item's label
    and price, recomputed from the k, g and n columns of its CSV, and each
    truncation marker."""
    kind, n_grid = tree["experiment"], tree["sweep"]["n"]
    finished = []
    if kind == "quenched_shift":
        for n in n_grid:
            k_max = {}
            for row in _csv_rows(out / f"survival_n{n}.csv"):
                k_max[row["seed"]] = max(k_max.get(row["seed"], 0), int(row["k"]))
            finished += [(f"quenched n={n} seed={seed}", n * (k + n - 1) if k else 0)
                         for seed, k in k_max.items()]
    elif kind == "annealed_shift":
        for n in n_grid:
            ks = [int(row["k"]) for row in _csv_rows(out / f"annealed_n{n}.csv")]
            if ks:
                finished.append((f"annealed n={n}", tree["trials"] * n
                                 * (max(ks) + n - 1) if max(ks) else 0))
    else:
        for row in _csv_rows(out / "ledger.csv"):
            n, k, g = int(row["n"]), int(row["k"]), int(row["g"])
            jmax = tree["ledger"]["jmax_factor"] * k
            finished.append((f"ledger n={n} t={float(row['t'])} seed={row['seed']}",
                             n * ((k + g + 1) * (n - 1 + jmax) + k * jmax)
                             + (n + 1) * k * (g + jmax)))
    truncated = json.loads((out / "manifest.json").read_text())["truncated"]
    return finished, truncated


def _item_labels(tree):
    """The label of each item a priced run counts once: a quenched seed of a
    word length, an annealed word length, a ledger (n, t, seed)."""
    ns, seeds, ts = tree["sweep"]["n"], tree["seeds"], tree["sweep"]["t"]
    if tree["experiment"] == "quenched_shift":
        return [f"quenched n={n} seed={s}" for n in ns for s in seeds]
    if tree["experiment"] == "annealed_shift":
        return [f"annealed n={n}" for n in ns]
    return [f"ledger n={n} t={t} seed={s}" for n in ns for t in ts for s in seeds]


@st.composite
def _budgeted_tree(draw):
    """A small valid tree of any kind, with a random operation budget."""
    kind = draw(st.sampled_from(EXPERIMENT_KINDS))
    tree = _tiny_tree(
        experiment=kind, threads=1,
        seeds=draw(st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True)),
        trials=draw(st.integers(1, 3)),
        operation_budget=draw(st.integers(1, 2000) | st.integers(1, 2 * 10**6)),
        ledger={"jmax_factor": draw(st.integers(1, 3))},
        sweep={"n": sorted(draw(st.sets(st.integers(1, 8), min_size=1, max_size=2))),
               "t": draw(st.sampled_from([[0.0, 1.0], [0.0, 0.5, 2.0],
                                          {"start": 0.0, "stop": 3.0, "step": 0.6}]))})
    if draw(st.booleans()):
        tree["base"] = {"kind": "markov", "transition": [[0.8, 0.2], [0.3, 0.7]]}
    if kind == "ledger":
        tree["sweep"]["t"] = draw(st.sampled_from([[0.5, 1.0], [0.05, 2.0]]))
    elif kind == "entropy":
        tree.update(trials=2, sweep={"n": [2, 4]})
    elif kind == "singularity":
        tree.update(base={"kind": "bernoulli", "weights": [0.5, 0.5]},
                    sweep={"n": [10]})
    elif kind == "circle_law":
        tree = dict(_CIRCLE, seeds=tree["seeds"][:1],
                    operation_budget=tree["operation_budget"])
    return tree


@settings(max_examples=60, deadline=None)
@given(_budgeted_tree())
def test_every_finished_item_is_within_the_budget(tree):
    budget = tree["operation_budget"]
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "out"
        cfg = _write(pathlib.Path(tmp), tree)
        assert main(["run", "--config", cfg, "--out", str(out)]) in (0, 2)
        if tree["experiment"] not in ("quenched_shift", "annealed_shift", "ledger"):
            return
        finished, truncated = _priced_outcomes(tree, out)
    assert all(price <= budget for _, price in finished), finished
    # every item either finished or was truncated, and not both
    labels = [label for label, _ in finished] + [m.split(": ")[0] for m in truncated]
    assert sorted(labels) == sorted(_item_labels(tree))
    for marker in truncated:
        if marker.endswith(": k=0, t too small"):
            continue
        price = re.fullmatch(r".*: needs (\d+) column-state reads, over the "
                             rf"budget {budget}", marker)
        assert price and int(price.group(1)) > budget, marker
