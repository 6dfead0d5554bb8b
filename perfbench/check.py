"""Output checks for one benchmark repetition.

Every run is checked for invariants: no truncation, manifest checksums
that match the files, the expected rows for every work item and, on the
ledger, both bound checks on every row.  On the default workload seed the
CSVs are also compared with the stored reference files: ``circle.csv``
byte for byte (the circle engine is exact), the shift CSVs within 1e-12
absolute on float columns (the oracle tolerance, which leaves room for
float reassociation) and exactly on integer columns.

The result is the set of failed work items, so a fault is counted against
the items it affects.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import workloads

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")
SHIFT_TOL = 1e-12
_INT_COLUMNS = {"seed", "n", "k", "g", "trials", "censored_count"}
_LEDGER_TOL = 1e-12   # the slack of the ledger runner's own bound check


def _read_rows(path: str):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _item_of(kind: str, name: str, header, row):
    """The work item a CSV row belongs to, or None for rows that pool all
    items of one word length (the annealed mean)."""
    col = dict(zip(header, row))
    if kind == "quenched_shift":
        return (int(name[len("survival_n"):-len(".csv")]), int(col["seed"]))
    if kind == "ledger":
        return (int(col["n"]), float(col["t"]), int(col["seed"]))
    if kind == "circle_law":
        return (float(col["r"]), int(col["seed"]))
    return None


def _fields_match(header, got, want) -> bool:
    if len(got) != len(want):
        return False
    for column, a, b in zip(header, got, want):
        if a == b:
            continue
        if column in _INT_COLUMNS:
            return False
        try:
            if not abs(float(a) - float(b)) <= SHIFT_TOL:
                return False
        except ValueError:
            return False
    return True


def _ledger_row_ok(header, row) -> bool:
    v = {c: float(x) for c, x in zip(header, row) if c not in _INT_COLUMNS}
    return (v["lemma_lhs"] <= v["lemma_rhs"] + _LEDGER_TOL
            and v["delta_sum"] <= v["G"] + v["H"] + v["K"] + _LEDGER_TOL)


def check_output(workload: str, tree: dict, seed: int, out_dir: str):
    """Check one run's output directory.

    Returns (failed_items, problems): the number of work items that failed
    and one line per problem found.
    """
    kind = tree["experiment"]
    all_items = workloads.items(tree)
    problems: list = []
    failed: set = set()

    def fail_all(reason: str):
        problems.append(reason)
        failed.update(all_items)

    try:
        with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        fail_all(f"manifest unreadable: {exc}")
        return len(failed), problems
    for name, digest in manifest.get("files", {}).items():
        with open(os.path.join(out_dir, name), "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != digest:
                fail_all(f"{name}: checksum differs from the manifest")
    if manifest.get("truncated"):
        problems.append(f"truncated: {manifest['truncated']}")
    if kind == "ledger":
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        if report.get("bound_violations") != 0:
            problems.append(f"ledger bound_violations = {report.get('bound_violations')}")
        if report.get("sandwich_sweep_ok") is not True:
            fail_all("ledger sandwich sweep failed")

    per_item = max(1, sum(workloads.expected_csvs(tree).values()) // len(all_items))
    for name, want_rows in workloads.expected_csvs(tree).items():
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            fail_all(f"{name}: missing")
            continue
        header, rows = _read_rows(path)
        if kind == "annealed_shift":
            if len(rows) != want_rows:
                fail_all(f"{name}: {len(rows)} rows, expected {want_rows}")
        else:
            counts: dict = {}
            for row in rows:
                item = _item_of(kind, name, header, row)
                counts[item] = counts.get(item, 0) + 1
                if kind == "ledger" and not _ledger_row_ok(header, row):
                    failed.add(item)
                    problems.append(f"{name}: bound violated for item {item}")
            expected_items = [it for it in all_items
                              if kind != "quenched_shift" or name == f"survival_n{it[0]}.csv"]
            for item in expected_items:
                if counts.get(item, 0) != per_item:
                    failed.add(item)
                    problems.append(f"{name}: item {item} has {counts.get(item, 0)} "
                                    f"rows, expected {per_item}")
        if seed == workloads.DEFAULT_SEED:
            _compare_reference(workload, kind, name, path, header, rows,
                               all_items, failed, problems)
    if problems and not failed:
        # a fault no row pins down, such as a truncation marker or a
        # report count, fails the whole run
        failed.update(all_items)
    return len(failed), problems


def _compare_reference(workload, kind, name, path, header, rows, all_items,
                       failed, problems) -> None:
    ref_path = os.path.join(REFERENCE_DIR, workload, name)
    if kind == "circle_law":
        with open(path, "rb") as a, open(ref_path, "rb") as b:
            if a.read() == b.read():
                return
    ref_header, ref_rows = _read_rows(ref_path)
    if header != ref_header or len(rows) != len(ref_rows):
        failed.update(all_items)
        problems.append(f"{name}: shape differs from the reference")
        return
    exact = kind == "circle_law"
    bad = 0
    for got, want in zip(rows, ref_rows):
        if got == want or (not exact and _fields_match(header, got, want)):
            continue
        bad += 1
        item = _item_of(kind, name, header, got)
        if item is None:
            failed.update(all_items)
        else:
            failed.add(item)
    if bad or exact:   # the circle file reaches here only if its bytes differ
        problems.append(f"{name}: {bad} rows differ from the reference"
                        + (" (byte comparison)" if exact else ""))
