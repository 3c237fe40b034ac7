"""The names perfbench reaches into the package by, checked without a run.

`perfbench/tracer.py` wraps functions and methods by attribute name, and
`perfbench/run.py` reads solver counters from the report by key; a rename in
the package breaks the benchmark only when it runs. These tests load both
files from disk and check those names against the package.
"""

import ast
import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

from repairqa.encoding import EncodingSpec
from repairqa.filters import FilterRequest, answer_query

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_counters() -> tuple:
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["COUNTERS"]):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no COUNTERS")


def test_every_wrapped_name_resolves_and_is_restored(ex1):
    tracer = load_tracer()
    modules = {path.partition(".")[0] for path, _, _ in tracer.WRAPPED}
    rq = SimpleNamespace(**{m: importlib.import_module(f"repairqa.{m}")
                            for m in modules})
    originals = [tracer._owner(rq, path).__dict__[attr]
                 for path, attr, _ in tracer.WRAPPED]
    spec = EncodingSpec("iar", "c", "c", 1)
    with tracer.Tracer(rq) as traced:
        report = rq.filters.answer_query(FilterRequest(ex1, spec, "maxsat"))
        totals = traced.snapshot()
    assert report.answers == {"q(a)"}
    # the request runs through the wrapped names, not around them
    for layer in ("filters.preprocess", "encoding.build", "encoding.max",
                  "sat.solve", "sat.session"):
        assert totals[layer][0] > 0, layer
    assert [tracer._owner(rq, path).__dict__[attr]
            for path, attr, _ in tracer.WRAPPED] == originals


def test_report_carries_every_benchmark_counter(ex1):
    report = answer_query(FilterRequest(ex1, EncodingSpec("ar", "p", "p1", 1),
                                        "simple"))
    counters = run_counters()
    assert counters
    for name in counters:
        assert isinstance(report.solver_stats[name], int), name
