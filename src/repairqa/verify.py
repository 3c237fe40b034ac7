"""Agreement harness: every algorithm/encoding combination versus the oracle.

For each instance the brute-force oracle fixes the expected answer set per
semantics and repair notion; the SAT pipeline is then run over every valid
combination of maximality variant, blocking variant, and algorithm, and any
disagreement is reported with the instance spelled out in full.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional

from .encoding import REPAIRS, SEMANTICS, EncodingSpec, max_variants
from .errors import CapacityError
from .files import example_instance, instance_documents
from .filters import ALGORITHMS, FilterRequest, answer_query, valid_pairing
from .generate import verification_instance
from .model import PrioritizedInstance
from .oracle import family_answers, repair_family

# keys in the order ar, brave, iar: combos_for lists its cells in this order
ALGOS_FOR = {sem: tuple(a for a in ALGORITHMS if valid_pairing(sem, a))
             for sem in sorted(SEMANTICS)}


@dataclass(frozen=True)
class Combo:
    semantics: str
    repair: str
    max_variant: str
    neg_variant: int
    algorithm: str


def combos_for(instance: PrioritizedInstance) -> list[Combo]:
    """All valid combinations for this instance.

    The maximality encodings are `max_variants`' for the instance. Blocking
    variants only matter when causes get blocked, so "brave" runs a single
    one.
    """
    out = []
    for sem, algos in ALGOS_FOR.items():
        negs = (1, 2) if sem in ("ar", "iar") else (1,)
        for repair in REPAIRS:
            for mv in max_variants(repair, instance):
                for neg in negs:
                    for algo in algos:
                        out.append(Combo(sem, repair, mv, neg, algo))
    return out


@dataclass
class Mismatch:
    trial: int
    combo: Combo
    expected: tuple[str, ...]
    got: tuple[str, ...]
    kb_doc: dict
    answers_doc: dict

    def render(self) -> str:
        import json
        lines = [
            f"trial {self.trial}: {self.combo.semantics}/{self.combo.repair}"
            f"/{self.combo.max_variant}/neg{self.combo.neg_variant}"
            f"/{self.combo.algorithm}",
            f"  expected {sorted(self.expected)}, got {sorted(self.got)}",
            "  instance:",
            "  " + json.dumps(self.kb_doc, sort_keys=True),
            "  answers:",
            "  " + json.dumps(self.answers_doc, sort_keys=True),
        ]
        return "\n".join(lines)


@dataclass
class VerifyOutcome:
    trials: int = 0
    combos_checked: int = 0
    # (semantics, repair) groups left unchecked: their oracle is over its cap
    groups_skipped: int = 0
    mismatches: list[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def check_instance(instance: PrioritizedInstance, trial: int = 0,
                   mutate: Optional[str] = None,
                   conflict_budget: Optional[int] = None
                   ) -> tuple[int, int, list[Mismatch]]:
    """Compare the pipeline against the oracle on one instance, up to the
    first mismatch.

    Returns the combinations checked, the (semantics, repair) groups skipped
    because their oracle is over its cap, and the mismatches.
    """
    expected: dict[tuple[str, str], frozenset[str]] = {}
    skipped = 0
    for repair in REPAIRS:
        try:
            family = repair_family(instance, repair)
        except CapacityError:
            skipped += len(SEMANTICS)
            continue
        for sem in SEMANTICS:
            expected[(sem, repair)] = family_answers(instance, family, sem).answers
    checked = 0
    mismatches: list[Mismatch] = []
    for combo in combos_for(instance):
        if (combo.semantics, combo.repair) not in expected:
            continue
        spec = EncodingSpec(combo.semantics, combo.repair, combo.max_variant,
                            combo.neg_variant,
                            omit_acyclicity=mutate == "drop-acyc")
        report = answer_query(FilterRequest(
            instance, spec, combo.algorithm, conflict_budget=conflict_budget))
        checked += 1
        want = expected[(combo.semantics, combo.repair)]
        if report.answers != want:
            kb_doc, ans_doc = instance_documents(instance)
            mismatches.append(Mismatch(trial, combo, tuple(sorted(want)),
                                       tuple(sorted(report.answers)),
                                       kb_doc, ans_doc))
            break
    return checked, skipped, mismatches


def _worker(args) -> tuple[int, int, list[Mismatch]]:
    trial, seed, max_facts, max_conflicts, mutate, budget = args
    instance = example_instance() if trial == 0 else \
        verification_instance(trial, seed, max_facts=max_facts,
                              max_conflicts=max_conflicts)
    return check_instance(instance, trial, mutate, budget)


def run_verification(trials: int, max_facts: int = 8, seed: int = 0,
                     mutate: Optional[str] = None,
                     conflict_budget: Optional[int] = None,
                     jobs: int = 1, max_conflicts: int = 12) -> VerifyOutcome:
    """Run the agreement suite over the fixture (trial 0) plus seeded random
    instances, stopping at the first trial with a mismatch. With `jobs` above
    1 the trials run in a process pool of at most `jobs` workers, and never
    more workers than trials or CPUs."""
    if mutate not in (None, "drop-acyc"):
        raise ValueError(f"unknown mutation {mutate!r}")
    tasks = [(i, seed, max_facts, max_conflicts, mutate, conflict_budget)
             for i in range(trials)]
    workers = max(1, min(jobs, trials, os.cpu_count() or 1))
    outcome = VerifyOutcome()
    with ProcessPoolExecutor(max_workers=workers) if jobs > 1 else nullcontext() as pool:
        results = pool.map(_worker, tasks) if pool else map(_worker, tasks)
        for checked, skipped, mismatches in results:
            outcome.trials += 1
            outcome.combos_checked += checked
            outcome.groups_skipped += skipped
            outcome.mismatches.extend(mismatches)
            if mismatches:
                if pool:
                    pool.shutdown(cancel_futures=True)  # drop trials not yet started
                break
    return outcome
