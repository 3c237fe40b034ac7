"""Layered query-answering benchmark for repairqa.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one client, closed loop: the next `filters.answer_query`
request is sent when the previous one has returned. A pass sends every
cell of every instance of the workload once and checks every answer set;
passes repeat until `--seconds` have gone by (at least one pass).

Timings are adjusted for the speed of the host: see `probe_s`.

`--trace 0` prints the end-to-end metrics. `--trace 1` alternates untraced
and traced passes, prints the per-layer metrics of the traced passes and
`trace_overhead`, the relative drop in queries per second that tracing
causes. The last line of standard output is one JSON object; per-cell rows
and the environment go to `perfbench/out/<workload>-seed<N>-trace<T>.json`.

The program is imported from `src/` next to this directory; the benchmark
exits with code 2 and prints no result when it is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import tracer as tracer_mod
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

# one request may take this long before it is cut and recorded as capped
REQUEST_CAP_S = 20.0
# cells not started by then are recorded as skipped, so a run ends in time
RUN_DEADLINE_S = 150.0
SETUP_REPEATS = 7
# fastest time of `probe_s` on an uncontended core of the reference host
# (2-vCPU x86-64 VM, CPython 3.11.7); adjusted timings read in its speed
PROBE_REF_S = 0.65e-3
PROBE_STEPS = 5000
# per-cell medians use at most this many untraced passes
MEDIAN_PASSES = 15

END_TO_END = {"queries_per_s": "1/s", "query_ms_p50": "ms", "query_ms_p90": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "sat.solve_ms": "ms", "sat.solve_us_per_decision": "us",
    "sat.decisions": "count", "sat.conflicts": "count",
    "sat.propagations": "count", "sat.solve_calls": "count",
    "sat.load_ms": "ms", "sat.clauses_loaded": "count", "sat.sessions": "count",
    "sat.maximize_ms": "ms", "sat.mus_ms": "ms",
    "encoding.build_ms": "ms", "encoding.formulas": "count",
    "encoding.vars": "count", "encoding.clauses": "count",
    "encoding.max_ms": "ms", "model.reach_ms": "ms",
    "filters.preprocess_ms": "ms", "filters.trivial_share": "ratio",
    "filters.self_ms": "ms", "oracle.ms": "ms", "oracle.calls": "count",
    "trace_overhead": "ratio",
}
COUNTERS = ("decisions", "conflicts", "propagations", "solve_calls")


class RequestCapped(BaseException):
    """Raised by the interval timer inside a request that overran its cap.

    A BaseException, so that no `except Exception` in the program under
    test can swallow it.
    """


def _on_alarm(signum, frame):
    raise RequestCapped()


# ----------------------------------------------------------------------
# host speed
#
# Passes repeat identical, deterministic work, yet on a shared 2-vCPU host
# the same pass runs up to twice as slow for tens of seconds to minutes at a
# time, because of load from outside this process; a fixed pure-Python loop
# slows down in step (correlation about 0.9 per instance). The benchmark
# times that loop before and after every instance and every set-up, and
# scales each measured time by PROBE_REF_S / (mean of the two probes): an
# adjusted time is the time the work would take at the reference speed.
# The loop runs no code of the program, with the collector off, so a change
# to the program cannot change the adjustment. Raw timings are kept in the
# result file.


def _probe_work() -> int:
    table: dict = {}
    trail: list = []
    for i in range(PROBE_STEPS):
        key = i & 255
        table[key] = table.get(key, 0) + 1
        trail.append(-key if i & 1 else key)
        if len(trail) > 64:
            del trail[:32]
    return len(table)


def probe_s() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _probe_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed_factor(before: float, after: float) -> float:
    return PROBE_REF_S / ((before + after) / 2)


# ----------------------------------------------------------------------
# one request, one pass


def run_cell(answer_query, unit, cell, deadline: float, tracer) -> dict:
    row = {"instance": unit.index, "cell": cell.name, "group": cell.group,
           "status": "ok"}
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        row.update(status="skipped", detail="run deadline passed", ms=0.0)
        return row
    before = tracer.snapshot() if tracer else None
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, min(REQUEST_CAP_S, remaining))
        try:
            start = time.perf_counter()
            report = answer_query(cell.request)
            elapsed = time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except RequestCapped:
        row.update(status="capped", ms=(time.perf_counter() - start) * 1e3,
                   detail=f"over the {min(REQUEST_CAP_S, remaining):.1f} s cap")
        return row
    except Exception as exc:  # recorded as a failed cell; the pass goes on
        row.update(status="error", ms=(time.perf_counter() - start) * 1e3,
                   detail=f"{type(exc).__name__}: {exc}")
        return row
    row["ms"] = elapsed * 1e3
    row["answers"] = report.answers
    row["digest"] = workloads.answer_digest(report.answers)
    for name in COUNTERS:
        row[name] = report.solver_stats[name]
    row["entering"] = len(cell.request.instance.answers)
    row["trivial"] = len(report.trivial_answers)
    if not report.complete:
        row.update(status="incomplete", detail="report.complete is False")
    if tracer:
        row["layers"] = tracer.delta(before, tracer.snapshot())
    return row


def run_pass(wl, deadline: float, tracer=None, stop_at=None) -> dict:
    """Send every cell once, instance by instance; with `stop_at` the pass
    ends early, at an instance boundary, once that monotonic time is due."""
    answer_query = wl.rq.filters.answer_query
    rows, unit_s, unit_adj = [], [], []
    before = tracer.snapshot() if tracer else None
    start = time.perf_counter()
    probe = probe_s()
    for unit in wl.units:
        if stop_at is not None and time.monotonic() >= stop_at:
            break
        first_row = len(rows)
        unit_start = time.perf_counter()
        expected = None
        if wl.uses_oracle:
            expected = {f"{sem}/{rep}": wl.rq.oracle.oracle_answers(
                unit.instance, sem, rep).answers
                for sem in workloads.SEMANTICS for rep in workloads.REPAIRS}
        for cell in unit.cells:
            row = run_cell(answer_query, unit, cell, deadline, tracer)
            if expected is not None and row["status"] == "ok" \
                    and row["answers"] != expected[cell.group]:
                row.update(status="mismatch", detail=(
                    f"oracle says {sorted(expected[cell.group])}, "
                    f"got {sorted(row['answers'])}"))
            rows.append(row)
        unit_s.append(time.perf_counter() - unit_start)
        probe, previous = probe_s(), probe
        factor = speed_factor(previous, probe)
        unit_adj.append(unit_s[-1] * factor)
        for row in rows[first_row:]:
            row["adj_ms"] = row["ms"] * factor
    wall = time.perf_counter() - start
    if not wl.uses_oracle:
        check_against_reference(wl, rows)
    for row in rows:
        row.pop("answers", None)
    out = {"traced": tracer is not None, "wall_s": wall, "unit_s": unit_s,
           "unit_adj_s": unit_adj, "complete": len(unit_s) == len(wl.units),
           "rows": rows}
    if tracer:
        out["layers"] = tracer.delta(before, tracer.snapshot())
    return out


def check_against_reference(wl, rows: list) -> None:
    """Mark cells whose answer set differs from the committed reference.

    A seed without a committed reference falls back to agreement: within
    one (instance, semantics, repair) group every cell must return the
    group's most common answer set.
    """
    by_unit: dict = {}
    for row in rows:
        by_unit.setdefault(row["instance"], []).append(row)
    for unit in wl.units:
        unit_rows = by_unit.get(unit.index, [])
        if unit.reference_error:
            for row in unit_rows:
                if row["status"] == "ok":
                    row.update(status="mismatch", detail=unit.reference_error)
            continue
        want = unit.reference
        if want is None:
            votes: dict = {}
            for row in unit_rows:
                if row["status"] == "ok":
                    votes.setdefault(row["group"], Counter())[row["digest"]] += 1
            want = {}
            for group, counter in votes.items():
                (top, n), *rest = counter.most_common()
                if not rest or rest[0][1] < n:
                    want[group] = top
        for row in unit_rows:
            if row["status"] != "ok":
                continue
            if row["digest"] != want.get(row["group"]):
                source = "reference" if unit.reference is not None else "majority"
                row.update(status="mismatch", detail=(
                    f"digest {row['digest']} differs from the {source} "
                    f"{want.get(row['group'])} for {row['group']}"))


def mark_changed(first: list, rows: list) -> None:
    """Flag cells whose answers or solver counters differ from the first pass."""
    keys = ("digest",) + COUNTERS
    for ref, row in zip(first, rows):
        if row["status"] == "ok" and ref["status"] == "ok" \
                and any(row[k] != ref[k] for k in keys):
            row.update(status="nondeterministic", detail=(
                f"pass gave {[row[k] for k in keys]}, "
                f"first pass {[ref[k] for k in keys]}"))


# ----------------------------------------------------------------------
# metrics
#
# Each instance's time and each cell's time is the median of its adjusted
# times over the passes of a run (the last pass may stop early at an
# instance boundary; its instances still count). Throughput is requests per
# pass over the sum of the instance times; the median and p90 are taken over
# the cell times. Set-up time is the median of its adjusted repeats.


def layer_metrics(p: dict) -> dict:
    """Per-layer totals of one traced pass."""
    layers = p["layers"]
    rows = [r for r in p["rows"] if "layers" in r]

    def ms(*names):
        return sum(layers[n][1] for n in names) * 1e3

    count = {k: sum(r[k] for r in rows) for k in COUNTERS}
    blocking = ("filters.preprocess", "encoding.build", "sat.load",
                "sat.session", "sat.solve")
    self_ms = sum(r["ms"] - sum(r["layers"][n][1] for n in blocking) * 1e3
                  for r in rows)
    entering = sum(r["entering"] for r in rows)
    return {
        "sat.solve_ms": ms("sat.solve"),
        "sat.solve_us_per_decision":
            ms("sat.solve") * 1e3 / max(count["decisions"], 1),
        "sat.decisions": count["decisions"],
        "sat.conflicts": count["conflicts"],
        "sat.propagations": count["propagations"],
        "sat.solve_calls": count["solve_calls"],
        "sat.load_ms": ms("sat.load", "sat.session"),
        "sat.clauses_loaded": layers["sat.load"][0],
        "sat.sessions": layers["sat.session"][0],
        "sat.maximize_ms": ms("sat.maximize"),
        "sat.mus_ms": ms("sat.mus"),
        "encoding.build_ms": ms("encoding.build"),
        "encoding.formulas": layers["encoding.build"][0],
        "encoding.vars": layers["encoding.vars"][0],
        "encoding.clauses": layers["encoding.clauses"][0],
        "encoding.max_ms": ms("encoding.max"),
        "model.reach_ms": ms("model.reach"),
        "filters.preprocess_ms": ms("filters.preprocess"),
        "filters.trivial_share":
            sum(r["trivial"] for r in rows) / max(entering, 1),
        "filters.self_ms": self_ms,
        "oracle.ms": ms("oracle"),
        "oracle.calls": layers["oracle"][0],
    }


class Tally:
    """What a run keeps of its passes."""

    def __init__(self):
        self.passes: list[dict] = []  # wall_s, requests, traced, layer metrics
        self.attempted = 0
        self.failures: list[dict] = []
        self.first: list = []         # rows of the first pass
        self.shown: list = []         # rows for the result file
        self.cell_ms: list = []       # fastest raw untraced time per cell
        self.cell_adj: list = []      # adjusted ms per cell, one array per pass
        # adjusted seconds per instance and pass, untraced and traced
        self.unit_adj: dict = {False: [], True: []}

    def add(self, p: dict) -> None:
        rows = p["rows"]
        if self.passes:
            mark_changed(self.first, rows)
        else:
            self.first = rows
        summary = {"traced": p["traced"], "wall_s": p["wall_s"],
                   "requests": len(rows), "complete": p["complete"],
                   "speed_factor": sum(p["unit_adj_s"]) / sum(p["unit_s"])}
        if p["traced"] and p["complete"]:
            summary["layers"] = layer_metrics(p)
            if not any(q["traced"] for q in self.passes):
                self.shown = rows
        elif not p["traced"]:
            ms = [r["ms"] for r in rows]
            self.cell_ms = [min(b, n) for b, n in zip(self.cell_ms, ms)] \
                + self.cell_ms[len(ms):] if self.cell_ms else ms
            if len(self.cell_adj) < MEDIAN_PASSES:
                self.cell_adj.append(array("d", (r["adj_ms"] for r in rows)))
            if not self.shown:
                self.shown = rows
        per_unit = self.unit_adj[p["traced"]]
        for i, t in enumerate(p["unit_adj_s"]):
            if i == len(per_unit):
                per_unit.append([])
            per_unit[i].append(t)
        self.attempted += len(rows)
        for row in rows:
            if row["status"] != "ok":
                failure = dict(row, pass_index=len(self.passes))
                failure.pop("layers", None)
                self.failures.append(failure)
        self.passes.append(summary)

    def queries_per_s(self, traced: bool) -> float:
        return len(self.cell_ms) / sum(
            statistics.median(ts) for ts in self.unit_adj[traced])

    def end_to_end(self, setup_s: list) -> dict:
        cells = [statistics.median(a[i] for a in self.cell_adj if i < len(a))
                 for i in range(len(self.cell_ms))]
        return {
            "queries_per_s": self.queries_per_s(False),
            "query_ms_p50": statistics.median(cells),
            "query_ms_p90": statistics.quantiles(cells, n=10)[8],
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self) -> dict:
        """Raw layer totals of the fastest complete traced pass."""
        traced = min((q for q in self.passes if "layers" in q),
                     key=lambda q: q["wall_s"])
        out = dict(traced["layers"])
        out["trace_overhead"] = 1.0 - (self.queries_per_s(True)
                                       / self.queries_per_s(False))
        return out

    def cell_rows(self) -> list:
        """Rows of the first traced pass (else the first pass), with ms
        replaced by the fastest raw time over the untraced passes."""
        rows = []
        for row, ms in zip(self.shown, self.cell_ms):
            row = dict(row, ms=ms)
            row.pop("adj_ms", None)
            layers = row.pop("layers", None)
            if layers:
                row["vars"] = layers["encoding.vars"][0]
                row["clauses"] = layers["encoding.clauses"][0]
                row["layer_ms"] = {n: c_s[1] * 1e3 for n, c_s in layers.items()
                                   if n in tracer_mod.LAYERS and c_s[0]}
            rows.append(row)
        return rows


# ----------------------------------------------------------------------
# result file


def environment() -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count()}


def write_result(args, wl, setup_raw_s, tally: Tally, metrics) -> Path:
    doc = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "probe_ref_s": PROBE_REF_S, "setup_raw_s": setup_raw_s,
        "instances": [dict(u.size(), index=u.index,
                           reference="committed" if u.reference is not None
                           else ("oracle" if wl.uses_oracle else "agreement"))
                      for u in wl.units],
        "passes": tally.passes,
        "metrics": metrics,
        "attempted": tally.attempted,
        "failures": tally.failures,
        "cells": tally.cell_rows(),
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    return path


# ----------------------------------------------------------------------
# entry point


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    if not (SRC / "repairqa" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'repairqa'}; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    setup_s, setup_raw_s = [], []
    probe = probe_s()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl = workloads.build(args.workload, args.seed)
        setup_raw_s.append(time.perf_counter() - start)
        probe, previous = probe_s(), probe
        setup_s.append(setup_raw_s[-1] * speed_factor(previous, probe))
    if not wl.uses_oracle:
        workloads.attach_reference(wl, workloads.load_reference())
    origin = Path(wl.rq.filters.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        print(f"perfbench: repairqa imported from {origin}, not from {SRC}",
              file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_alarm)
    tally = Tally()
    start = time.monotonic()
    # one full pass (one untraced and one traced with --trace 1) always runs
    full_passes = 1 + args.trace
    while True:
        stop_at = start + args.seconds if len(tally.passes) >= full_passes else None
        if args.trace == 1 and len(tally.passes) % 2 == 1:
            with tracer_mod.Tracer(wl.rq) as tracer:
                tally.add(run_pass(wl, deadline, tracer, stop_at))
        else:
            tally.add(run_pass(wl, deadline, stop_at=stop_at))
        now = time.monotonic()
        if len(tally.passes) >= full_passes and now - start >= args.seconds:
            break
        if now >= deadline:
            break

    if args.trace:
        units = PER_LAYER
        values = tally.per_layer() if len(tally.passes) >= 2 else {}
    else:
        units, values = END_TO_END, tally.end_to_end(setup_s)
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units if name in values}
    path = write_result(args, wl, setup_raw_s, tally, metrics)

    for row in tally.failures[:20]:
        print(f"FAILED pass {row['pass_index']} instance {row['instance']} "
              f"{row['cell']}: {row['status']}: {row.get('detail', '')}")
    print(f"{args.workload} seed {args.seed}: {len(tally.passes)} passes of "
          f"{wl.requests_per_pass} requests, {len(tally.failures)} failed; "
          f"cells written to {path.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    complete = len(metrics) == len(units)
    print(json.dumps({"correct": not tally.failures and complete,
                      "attempted": tally.attempted,
                      "failed": len(tally.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
