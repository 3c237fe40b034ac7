"""Per-layer tracing from outside the package.

`Tracer` replaces the public entry points of each layer with timing
wrappers for the traced run only and puts the originals back afterwards.
`repairqa.filters` and `repairqa.encoding` import their helpers by name,
so those are wrapped in the importing module's namespace; solver methods
are wrapped on the `SolverSession` class itself.

Each wrapper adds its call count and elapsed time to one running table of
layer totals. The runner reads the table before and after a request, so a
request's spans are the difference of two snapshots.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

# (owner, attribute, layer). Owner names a module of the package or the
# SolverSession class.
WRAPPED = (
    ("sat.SolverSession", "solve", "sat.solve"),
    ("sat.SolverSession", "add_clause", "sat.load"),
    ("sat.SolverSession", "__init__", "sat.session"),
    ("filters", "maximize_soft", "sat.maximize"),
    ("filters", "enumerate_mus", "sat.mus"),
    ("filters", "build_single_formula", "encoding.build"),
    ("filters", "build_multi_formula", "encoding.build"),
    ("encoding", "encode_max", "encoding.max"),
    ("encoding", "reachable_set", "model.reach"),
    ("encoding", "reachable_minus_set", "model.reach"),
    ("filters", "remove_self_inconsistent", "filters.preprocess"),
    ("filters", "extract_trivial_answers", "filters.preprocess"),
    ("oracle", "oracle_answers", "oracle"),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in WRAPPED))
# sizes of the formulas `encoding.build` returns, summed
SIZES = ("encoding.vars", "encoding.clauses")


def _owner(rq: SimpleNamespace, path: str):
    module, _, cls = path.partition(".")
    obj = getattr(rq, module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Install with `with Tracer(rq) as tracer:`; read `tracer.snapshot()`."""

    def __init__(self, rq: SimpleNamespace):
        self.rq = rq
        # layer -> [calls, seconds]; sizes -> [total, 0]
        self.totals = {name: [0, 0.0] for name in LAYERS + SIZES}
        self._saved: list[tuple[object, str, object]] = []

    def snapshot(self) -> dict:
        return {name: (c, s) for name, (c, s) in self.totals.items()}

    @staticmethod
    def delta(before: dict, after: dict) -> dict:
        return {name: (after[name][0] - before[name][0],
                       after[name][1] - before[name][1]) for name in after}

    def _wrap(self, fn, layer: str):
        slot = self.totals[layer]
        clock = time.perf_counter
        if layer != "encoding.build":
            def timed(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    slot[1] += clock() - start
                    slot[0] += 1
            return timed
        nvars, nclauses = self.totals["encoding.vars"], self.totals["encoding.clauses"]

        def timed_build(*args, **kwargs):
            start = clock()
            try:
                formula = fn(*args, **kwargs)
            finally:
                slot[1] += clock() - start
                slot[0] += 1
            nvars[0] += formula.nvars
            nclauses[0] += len(formula.hard)
            return formula
        return timed_build

    def __enter__(self) -> "Tracer":
        for path, attr, layer in WRAPPED:
            owner = _owner(self.rq, path)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
