"""Acceptance suite.

One test per criterion, each printing a single PASS/FAIL line. Run with
`pytest tests/test_acceptance.py -v -s` to see the lines as they complete.
"""

import os
import random
import time

import numpy as np
import pytest

from repairqa.cli import main
from repairqa.encoding import EncodingSpec
from repairqa.files import example_instance, load_instance
from repairqa.filters import FilterRequest, answer_query, classify_answers
from repairqa.generate import priority_for_mode, random_instance, verification_instance
from repairqa.model import is_score_structured
from repairqa.oracle import (enumerate_completion_repairs, enumerate_pareto_repairs,
                             enumerate_repairs, oracle_answers)
from repairqa.sat import SAT, UNSAT, enumerate_mus, maximize_soft, solve_clauses
from repairqa.verify import ALGOS_FOR, run_verification

from conftest import loaded

REPORT = []


def record(number, name, ok, detail=""):
    line = f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    REPORT.append(line)
    print(line, flush=True)
    assert ok, line


# ----------------------------------------------------------------------
# criterion 1: exact reproduction of the worked example


def test_criterion_1_worked_example():
    start = time.perf_counter()
    inst = example_instance()
    alpha, beta, gamma, delta = 0, 1, 2, 3

    sub = enumerate_repairs(inst)
    pareto = enumerate_pareto_repairs(inst)
    completion = enumerate_completion_repairs(inst)
    ok = sub.as_set() == {frozenset({alpha, gamma}), frozenset({beta, delta})}
    ok &= pareto.as_set() == sub.as_set()
    ok &= completion.as_set() == {frozenset({alpha, gamma})}
    ok &= completion.completion_count == 3

    expected = {("iar", "c"): {"q(a)"}, ("ar", "p"): {"q(a)"},
                ("iar", "p"): set(), ("brave", "p"): {"q(a)"}}
    for (sem, repair), want in expected.items():
        ok &= oracle_answers(inst, sem, repair).answers == want
        variants = {"p": ("p1", "p2"), "c": ("c",)}[repair]
        negs = (1, 2) if sem in ("ar", "iar") else (1,)
        for variant in variants:
            for neg in negs:
                for algo in ALGOS_FOR[sem]:
                    spec = EncodingSpec(sem, repair, variant, neg)
                    got = answer_query(FilterRequest(inst, spec, algo)).answers
                    if got != want:
                        record(1, "worked-example reproduction", False,
                               f"{sem}/{repair}/{variant}/neg{neg}/{algo}: {sorted(got)}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    record(1, "worked-example reproduction", ok, f"{elapsed:.2f}s")


# ----------------------------------------------------------------------
# criterion 2: master oracle equivalence on 500 random instances


def test_criterion_2_master_oracle_equivalence():
    start = time.perf_counter()
    outcome = run_verification(trials=501, max_facts=8, seed=0)
    elapsed = time.perf_counter() - start
    ok = outcome.ok and outcome.trials == 501 and elapsed < 300.0
    detail = (f"{outcome.trials - 1} random instances, "
              f"{outcome.combos_checked} combination runs, "
              f"{len(outcome.mismatches)} mismatches, {elapsed:.1f}s")
    if outcome.mismatches:
        print(outcome.mismatches[0].render())
    record(2, "master oracle equivalence", ok, detail)


# ----------------------------------------------------------------------
# criterion 3: score-structured priorities collapse the two optimal notions


def score_structured_stream(count, seed=100):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(3, 8)
        m = rng.randint(0, min(12, n * (n - 1) // 2))
        inst = random_instance(n, m, 3, 3, seed=rng.randint(0, 10**9))
        levels = rng.choice([2, 5])
        prio = priority_for_mode(inst, "score", rng.randint(0, 10**9),
                                 levels=levels)
        inst = inst.with_priority(prio)
        assert is_score_structured(inst.conflicts, inst.priority)
        out.append(inst)
    return out


def test_criterion_3_score_structured_collapse():
    start = time.perf_counter()
    mismatches = 0
    for inst in score_structured_stream(200):
        if (enumerate_pareto_repairs(inst).as_set()
                != enumerate_completion_repairs(inst).as_set()):
            mismatches += 1
            continue
        for sem in ("ar", "iar", "brave"):
            p_spec = EncodingSpec(sem, "p", "p1", 1)
            c_spec = EncodingSpec(sem, "c", "c", 1)
            p_ans = answer_query(FilterRequest(inst, p_spec, "simple")).answers
            c_ans = answer_query(FilterRequest(inst, c_spec, "simple")).answers
            if p_ans != c_ans:
                mismatches += 1
    elapsed = time.perf_counter() - start
    record(3, "score-structured repair collapse", mismatches == 0,
           f"200 instances, {mismatches} mismatches, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# criterion 4: containment chains on the criterion 2 and 3 instance streams


def _trivial_answers_for(inst, repair):
    from repairqa.filters import preprocess
    # the first-round trivial answers are the same under every semantics
    return set(preprocess(inst, repair, "iar")[0])


def test_criterion_4_containment_chains():
    start = time.perf_counter()
    instances = [example_instance()]
    instances += [verification_instance(i, 0, max_facts=8) for i in range(1, 501)]
    instances += score_structured_stream(200)
    violations = 0
    for inst in instances:
        families = {r: None for r in ("s", "p", "c")}
        families["s"] = enumerate_repairs(inst).as_set()
        families["p"] = enumerate_pareto_repairs(inst).as_set()
        families["c"] = enumerate_completion_repairs(inst).as_set()
        if not (families["c"] <= families["p"] <= families["s"]):
            violations += 1
        for repair in ("s", "p", "c"):
            iar = oracle_answers(inst, "iar", repair).answers
            ar = oracle_answers(inst, "ar", repair).answers
            brave = oracle_answers(inst, "brave", repair).answers
            if not (iar <= ar <= brave):
                violations += 1
            if not _trivial_answers_for(inst, repair) <= iar:
                violations += 1
    elapsed = time.perf_counter() - start
    record(4, "containment chains", violations == 0,
           f"{len(instances)} instances, {violations} violations, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# criterion 5: solver correctness against exhaustive evaluation


def _truth_table(nvars, clauses):
    """Boolean vector over all assignments; True where the formula holds."""
    idx = np.arange(1 << nvars, dtype=np.uint32)
    ok = np.ones(1 << nvars, dtype=bool)
    for clause in clauses:
        sat = np.zeros(1 << nvars, dtype=bool)
        for lit in clause:
            col = (idx >> (abs(lit) - 1) & 1).astype(bool)
            sat |= col if lit > 0 else ~col
        ok &= sat
    return ok


def test_criterion_5_solver_correctness():
    start = time.perf_counter()
    rng = random.Random(2024)
    mismatches = 0
    for trial in range(1000):
        nvars = rng.randint(1, 20)
        n_clauses = rng.randint(0, 60)
        clauses = [[rng.choice([-1, 1]) * rng.randint(1, nvars)
                    for _ in range(rng.randint(1, 3))]
                   for _ in range(n_clauses)]
        table = _truth_table(nvars, clauses)
        want_sat = bool(table.any())
        if solve_clauses(nvars, clauses).is_sat != want_sat:
            mismatches += 1
            continue
        if nvars <= 18:
            softs = sorted(rng.sample(range(1, nvars + 1),
                                      rng.randint(0, min(nvars, 6))))
            idx = np.arange(1 << nvars, dtype=np.uint32)
            counts = np.zeros(1 << nvars, dtype=np.uint8)
            for s in softs:
                counts += (idx >> (s - 1) & 1).astype(np.uint8)
            best = int(counts[table].max()) if want_sat else None
            res = maximize_soft(loaded(nvars, clauses), softs)
            if want_sat:
                if res.status != SAT or res.optimum != best:
                    mismatches += 1
                    continue
            elif res.status != UNSAT:
                mismatches += 1
                continue
            if want_sat and softs:
                muses = enumerate_mus(loaded(nvars, clauses), softs)
                singles = {next(iter(s)) for s in muses if len(s) == 1}
                scan = set()
                for s in softs:
                    col = (idx >> (s - 1) & 1).astype(bool)
                    if not bool((table & col).any()):
                        scan.add(s)
                if singles != scan:
                    mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 120.0
    record(5, "solver correctness", ok,
           f"1000 formulas, {mismatches} mismatches, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# criterion 6: the harness must catch a known-bad encoding


def test_criterion_6_mutation_sensitivity():
    outcome = run_verification(trials=500, max_facts=8, seed=0,
                               mutate="drop-acyc")
    caught = not outcome.ok
    exit_code = main(["verify", "--trials", "2", "--seed", "0",
                      "--mutate", "drop-acyc"])
    record(6, "mutation sensitivity", caught and exit_code != 0,
           f"mismatch on trial {outcome.mismatches[0].trial}" if caught else "missed")


# ----------------------------------------------------------------------
# criterion 7 (optional): published dataset cross-check


def test_criterion_7_optional_dataset():
    kb = os.environ.get("REPAIRQA_PHYSICIANS_KB")
    ans = os.environ.get("REPAIRQA_PHYSICIANS_ANS")
    if not kb or not ans:
        print("criterion 7 (optional dataset check): SKIPPED (inputs not provided)")
        pytest.skip("external dataset not provided")
    inst = load_instance(kb, ans)
    classes = classify_answers(inst, "s", algorithm="iarcauses")
    counts = {}
    for cls in classes.values():
        counts[cls] = counts.get(cls, 0) + 1
    triv_iar = counts.get("trivial", 0) + counts.get("iar-not-trivial", 0)
    ok = (triv_iar == 1655 and counts.get("ar-not-iar", 0) == 7
          and counts.get("brave-not-ar", 0) == 77
          and counts.get("not-brave", 0) == 0)
    record(7, "published dataset row", ok, str(counts))
