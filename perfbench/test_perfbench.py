"""Self-checks of the benchmark. Run with `python3 -m pytest perfbench`.

The end-to-end tests start `run.py` the way it is run for measurement;
the gate tests call its pass runner in-process on one instance.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT = ("sat.decisions", "sat.conflicts", "sat.propagations", "sat.solve_calls",
         "sat.clauses_loaded", "sat.sessions", "encoding.formulas",
         "encoding.vars", "encoding.clauses", "oracle.calls")
CELL_EXACT = ("cell", "status", "digest", "decisions", "conflicts",
              "propagations", "solve_calls", "vars", "clauses")


def bench(workload, seed, trace, cwd=ROOT, hash_seed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cells(workload, seed, trace) -> list:
    path = HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    with open(path) as fh:
        return [{k: row.get(k) for k in CELL_EXACT} for row in json.load(fh)["cells"]]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_runs_repeat_exactly(workload):
    first = result(bench(workload, 0, 1, hash_seed="1"))
    first_cells = cells(workload, 0, 1)
    second = result(bench(workload, 0, 1, hash_seed="2"))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(run.PER_LAYER)
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first_cells == cells(workload, 0, 1)
    assert all(row["digest"] for row in first_cells)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_unseen_seed_runs_cleanly(workload):
    out = result(bench(workload, 987654321, 0))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert set(out["metrics"]) == set(run.END_TO_END)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("oracle-sweep", 0, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture
def one_unit():
    sys.path.insert(0, str(ROOT / "src"))
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        wl = workloads.build("completion", 0)
        workloads.attach_reference(wl, workloads.load_reference())
        wl.units = wl.units[:1]
        yield wl
    finally:
        signal.signal(signal.SIGALRM, previous)
        sys.path.remove(str(ROOT / "src"))


def failures(p):
    return [r for r in p["rows"] if r["status"] != "ok"]


def test_reference_gate_names_the_wrong_cells(one_unit):
    unit = one_unit.units[0]
    assert unit.reference is not None, "seed 0 must be in reference.json"
    assert not failures(run.run_pass(one_unit, deadline=float("inf")))
    unit.reference = dict(unit.reference, **{"iar/c": "0" * 16})
    bad = failures(run.run_pass(one_unit, deadline=float("inf")))
    assert bad and all(r["group"] == "iar/c" and r["status"] == "mismatch"
                       for r in bad)
    assert len(bad) == sum(1 for c in unit.cells if c.group == "iar/c")


def test_agreement_gate_without_reference(one_unit):
    one_unit.units[0].reference = None
    p = run.run_pass(one_unit, deadline=float("inf"))
    assert not failures(p)
    rows = [dict(r) for r in p["rows"]]
    odd = next(i for i, r in enumerate(rows) if r["group"] == "ar/c")
    rows[odd]["digest"] = "f" * 16
    run.check_against_reference(one_unit, rows)
    assert [r["cell"] for r in rows if r["status"] == "mismatch"] == [rows[odd]["cell"]]


def test_capped_requests_are_rows_not_gaps(one_unit, monkeypatch):
    monkeypatch.setattr(run, "REQUEST_CAP_S", 1e-4)
    p = run.run_pass(one_unit, deadline=float("inf"))
    assert len(p["rows"]) == len(one_unit.units[0].cells)
    capped = [r for r in p["rows"] if r["status"] == "capped"]
    assert capped and all(r["cell"].count("/") == 4 for r in capped)


def test_benchmark_json_lists_what_run_prints():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
