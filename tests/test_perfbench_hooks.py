"""The names perfbench reaches into the package by, checked without a run.

`perfbench/tracer.py` wraps functions and methods by attribute name,
`perfbench/workloads.py` builds its requests through the request API, and
`perfbench/run.py` reads solver counters from the report by key; a rename in
the package breaks the benchmark only when it runs. These tests load those
files from disk and check those names against the package.
"""

import ast
import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

from repairqa.encoding import EncodingSpec
from repairqa.filters import FilterRequest, answer_query
from repairqa.oracle import oracle_answers
from repairqa.verify import combos_for

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def run_counters() -> tuple:
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["COUNTERS"]):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no COUNTERS")


def test_every_wrapped_name_resolves_and_is_restored(ex1, monkeypatch):
    tracer = load_perfbench("tracer")
    modules = {path.partition(".")[0] for path, _, _ in tracer.WRAPPED}
    rq = SimpleNamespace(**{m: importlib.import_module(f"repairqa.{m}")
                            for m in modules})
    # count each name's calls under the tracer's wrappers
    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for path, attr, _ in tracer.WRAPPED:
        owner = tracer._owner(rq, path)
        monkeypatch.setattr(owner, attr,
                            counting(f"{path}.{attr}", owner.__dict__[attr]))
    originals = [tracer._owner(rq, path).__dict__[attr]
                 for path, attr, _ in tracer.WRAPPED]
    # the expected answers come first, so the traced oracle layer stays empty
    cells = [(EncodingSpec(combo.semantics, combo.repair, combo.max_variant,
                           combo.neg_variant), combo.algorithm,
              oracle_answers(ex1, combo.semantics, combo.repair).answers)
             for combo in combos_for(ex1)]
    with tracer.Tracer(rq) as traced:
        # the wrappers pass each request's answers through
        for spec, algorithm, want in cells:
            report = rq.filters.answer_query(FilterRequest(ex1, spec, algorithm))
            assert report.answers == want, (spec, algorithm)
        totals = traced.snapshot()
    # requests run through every wrapped name but the runner's oracle, so no
    # per-layer metric reads a silent zero
    assert sorted(f"{path}.{attr}" for path, attr, _ in tracer.WRAPPED
                  if not calls[f"{path}.{attr}"]) == ["oracle.oracle_answers"]
    assert [layer for layer, (n, _) in totals.items() if not n] == ["oracle"]
    assert [tracer._owner(rq, path).__dict__[attr]
            for path, attr, _ in tracer.WRAPPED] == originals


def test_report_carries_every_benchmark_counter(ex1):
    report = answer_query(FilterRequest(ex1, EncodingSpec("ar", "p", "p1", 1),
                                        "simple"))
    counters = run_counters()
    assert counters
    for name in counters:
        assert isinstance(report.solver_stats[name], int), name


def test_workload_cells_answer_through_the_request_api(ex1):
    # the cells are built as a benchmark set-up builds them: four positional
    # EncodingSpec fields, FilterRequest(instance, spec, algorithm), and the
    # combinations verify.combos_for lists
    workloads = load_perfbench("workloads")
    rq = SimpleNamespace(**{m: importlib.import_module(f"repairqa.{m}")
                            for m in ("encoding", "filters", "verify")})
    cells = workloads._cells(rq, ex1, None)
    assert len(cells) == len(combos_for(ex1))
    for cell in cells:
        want = oracle_answers(ex1, cell.semantics, cell.repair).answers
        assert answer_query(cell.request).answers == want, cell.name


def test_every_workload_builds_and_matches_its_committed_instances(monkeypatch):
    # set-up runs the package's generators and request API, and checks each
    # drawn instance against the fingerprint the reference committed for it
    workloads = load_perfbench("workloads")
    rq = SimpleNamespace(**{m: importlib.import_module(f"repairqa.{m}")
                            for m in ("encoding", "filters", "generate", "model",
                                      "oracle", "sat", "verify")})
    # the real import drops repairqa from sys.modules, under the other tests
    monkeypatch.setattr(workloads, "import_repairqa", lambda: rq)
    reference = workloads.load_reference()
    requests = {}
    for name in workloads.WORKLOADS:
        for seed in (0, 29, 987654321):
            wl = workloads.build(name, seed)
            workloads.attach_reference(wl, reference)
            assert [u.reference_error for u in wl.units
                    if u.reference_error] == [], (name, seed)
            if seed == 0:
                requests[name] = wl.requests_per_pass
    assert requests == {"completion": 540, "pareto": 1620, "oracle-sweep": 23490}
