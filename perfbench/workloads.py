"""Seeded workloads for the query-answering benchmark.

A workload turns a seed into a list of units. A unit is one prioritized
instance together with the `answer_query` requests (cells) the benchmark
sends for it and what their answers are checked against.

Instances for `completion` and `pareto` are drawn from the package's own
generator and kept only when their closure work lies inside a fixed band
(see `closure_work`). The band states the input size: per-instance cost of
the same generator spreads over an order of magnitude from seed to seed,
and without the band a handful of instances per pass would make
run-to-run figures depend mostly on which seed was drawn.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

SEMANTICS = ("ar", "iar", "brave")
REPAIRS = ("s", "p", "c")


@dataclass(frozen=True)
class Shape:
    """A banded random-instance workload (`completion`, `pareto`)."""

    facts: int
    conflicts: int
    answers: int
    max_cause_size: int
    priority: tuple  # (mode, levels, p) as priority_for_mode takes them
    instances: int
    max_variants: tuple  # cells with these maximality variants are run
    band: tuple  # accepted closure work, inclusive
    # variants the committed reference additionally requires to agree
    reference_variants: tuple = ()


SHAPES = {
    # The c encoding's completion and transitive-closure block dominates.
    "completion": Shape(facts=16, conflicts=24, answers=8, max_cause_size=3,
                        priority=("score", 5, 0.0), instances=20,
                        max_variants=("c",), band=(700, 1000),
                        reference_variants=("c", "p1", "p2")),
    # No c block; many solver calls per request and per-sweep reloads.
    "pareto": Shape(facts=30, conflicts=60, answers=8, max_cause_size=3,
                    priority=("random", 0, 0.8), instances=20,
                    max_variants=("s", "p1", "p2"), band=(19000, 24000),
                    reference_variants=("s", "p1", "p2")),
}

# criterion-2 stream: many tiny formulas, every cell checked by the oracle
ORACLE_SWEEP_INSTANCES = 150
ORACLE_SWEEP_MAX_FACTS = 8

WORKLOADS = ("completion", "pareto", "oracle-sweep")


def import_repairqa() -> SimpleNamespace:
    """Import the package afresh, so that each set-up pays the import."""
    for name in [m for m in sys.modules
                 if m == "repairqa" or m.startswith("repairqa.")]:
        del sys.modules[name]
    mods = ("encoding", "filters", "generate", "model", "oracle", "sat", "verify")
    return SimpleNamespace(**{m: importlib.import_module(f"repairqa.{m}")
                              for m in mods})


@dataclass
class Cell:
    semantics: str
    repair: str
    max_variant: str
    neg_variant: int
    algorithm: str
    request: object  # repairqa.filters.FilterRequest

    @property
    def group(self) -> str:
        return f"{self.semantics}/{self.repair}"

    @property
    def name(self) -> str:
        return (f"{self.semantics}/{self.repair}/{self.max_variant}"
                f"/neg{self.neg_variant}/{self.algorithm}")


@dataclass
class Unit:
    index: int
    instance: object  # repairqa.model.PrioritizedInstance
    cells: list[Cell]
    closure_work: Optional[int] = None
    # group -> committed answer digest; None when the seed has no reference
    reference: Optional[dict] = None
    reference_error: Optional[str] = None

    def size(self) -> dict:
        inst = self.instance
        return {"facts": len(inst.universe),
                "conflicts": len(inst.conflicts.sorted_pairs()),
                "priority_edges": len(inst.priority.sorted_edges()),
                "answers": len(inst.answers), "closure_work": self.closure_work,
                "fingerprint": fingerprint(inst), "cells": len(self.cells)}


@dataclass
class Workload:
    name: str
    seed: int
    rq: SimpleNamespace
    units: list[Unit] = field(default_factory=list)

    @property
    def uses_oracle(self) -> bool:
        return self.name == "oracle-sweep"

    @property
    def requests_per_pass(self) -> int:
        return sum(len(u.cells) for u in self.units)


def answer_digest(answers) -> str:
    return hashlib.sha256("\n".join(sorted(answers)).encode()).hexdigest()[:16]


def fingerprint(instance) -> str:
    doc = [list(instance.universe), instance.conflicts.sorted_pairs(),
           sorted(instance.conflicts.self_inconsistent),
           instance.priority.sorted_edges(),
           [[a.answer_id, sorted(sorted(c) for c in a.causes)]
            for a in instance.answers]]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:16]


def closure_work(instance) -> int:
    """Sum over distinct causes of non-trivial answers of |R| * |pairs in R|.

    R is the cause's closure in the directed conflict graph (a -> b when a
    and b conflict and a is not preferred to b); facts without out-edges are
    dropped from causes first, and answers left with an empty cause are
    trivial. The c encoding emits about 2|R||pairs| clauses per cause, and
    request cost follows this figure closely. Computed here from the raw
    conflict and priority data so the band does not depend on the code
    under test.
    """
    pairs = instance.conflicts.sorted_pairs()
    bad = instance.conflicts.self_inconsistent
    out: dict = {}
    for a, b in pairs:
        if a in bad or b in bad:
            continue
        if not instance.priority.prefers(a, b):
            out.setdefault(a, set()).add(b)
        if not instance.priority.prefers(b, a):
            out.setdefault(b, set()).add(a)
    causes = set()
    for ans in instance.answers:
        usable = [c for c in ans.causes if not (c & bad)]
        reduced = [frozenset(f for f in c if out.get(f)) for c in usable]
        if reduced and all(reduced):
            causes.update(reduced)
    work = 0
    for cause in causes:
        reach = set(cause)
        frontier = list(cause)
        while frontier:
            for g in out.get(frontier.pop(), ()):
                if g not in reach:
                    reach.add(g)
                    frontier.append(g)
        inside = sum(1 for a, b in pairs if a in reach and b in reach)
        work += len(reach) * inside
    return work


def _banded_instances(rq: SimpleNamespace, name: str, shape: Shape, seed: int):
    rng = random.Random(f"perfbench:{name}:{seed}")
    mode, levels, p = shape.priority
    found = []
    while len(found) < shape.instances:
        inst = rq.generate.random_instance(shape.facts, shape.conflicts,
                                           shape.answers, shape.max_cause_size,
                                           seed=rng.getrandbits(32))
        prio = rq.generate.priority_for_mode(inst, mode, rng.getrandbits(32),
                                             levels=levels, p=p)
        inst = inst.with_priority(prio)
        work = closure_work(inst)
        if shape.band[0] <= work <= shape.band[1]:
            found.append((inst, work))
    return found


def _cells(rq: SimpleNamespace, instance, max_variants) -> list[Cell]:
    out = []
    for combo in rq.verify.combos_for(instance):
        if max_variants is not None and combo.max_variant not in max_variants:
            continue
        spec = rq.encoding.EncodingSpec(combo.semantics, combo.repair,
                                        combo.max_variant, combo.neg_variant)
        request = rq.filters.FilterRequest(instance, spec, combo.algorithm)
        out.append(Cell(combo.semantics, combo.repair, combo.max_variant,
                        combo.neg_variant, combo.algorithm, request))
    return out


def load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def attach_reference(wl: Workload, reference: dict) -> None:
    """Give each unit its committed digests, if the seed has them."""
    seed_ref = reference.get(wl.name, {}).get(str(wl.seed))
    if seed_ref is None:
        return
    for unit, ref in zip(wl.units, seed_ref):
        found = fingerprint(unit.instance)
        if ref["fingerprint"] != found:
            unit.reference_error = (
                f"instance {unit.index} fingerprint {found} differs from "
                f"the reference's {ref['fingerprint']}")
        unit.reference = ref["digests"]


def build(name: str, seed: int, for_reference: bool = False) -> Workload:
    """One full set-up: fresh import, instances, priorities and cells.

    With `for_reference` the cells cover every maximality variant the
    committed reference requires to agree.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rq = import_repairqa()
    wl = Workload(name, seed, rq)
    if name == "oracle-sweep":
        for i in range(ORACLE_SWEEP_INSTANCES):
            inst = rq.generate.verification_instance(
                i, seed, max_facts=ORACLE_SWEEP_MAX_FACTS)
            wl.units.append(Unit(i, inst, _cells(rq, inst, None)))
        return wl
    shape = SHAPES[name]
    max_variants = shape.reference_variants if for_reference else shape.max_variants
    for i, (inst, work) in enumerate(_banded_instances(rq, name, shape, seed)):
        wl.units.append(Unit(i, inst, _cells(rq, inst, max_variants), work))
    return wl
