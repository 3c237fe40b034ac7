import pytest

from repairqa.errors import CapacityError
from repairqa.generate import verification_instance
from repairqa.model import make_answer, make_instance
from repairqa.oracle import (enumerate_completion_repairs, enumerate_pareto_repairs,
                             enumerate_repairs, oracle_answers)

from conftest import ALPHA, BETA, DELTA, GAMMA, small_instances


class TestSubsetRepairs:
    def test_worked_example(self, ex1):
        fam = enumerate_repairs(ex1)
        assert fam.as_set() == {frozenset({ALPHA, GAMMA}), frozenset({BETA, DELTA})}

    def test_no_conflicts_single_repair(self):
        inst = make_instance(range(3), [])
        fam = enumerate_repairs(inst)
        assert fam.as_set() == {frozenset({0, 1, 2})}

    def test_single_conflict_two_repairs(self):
        inst = make_instance(range(3), [(0, 1)])
        fam = enumerate_repairs(inst)
        assert fam.as_set() == {frozenset({0, 2}), frozenset({1, 2})}

    def test_self_inconsistent_excluded_everywhere(self):
        inst = make_instance(range(3), [(0, 1)], self_inconsistent=[0])
        fam = enumerate_repairs(inst)
        # the conflict with fact 0 dies with it, so fact 1 is uncontested
        assert fam.as_set() == {frozenset({1, 2})}

    def test_cap(self):
        pairs = [(i, i + 1) for i in range(24)]
        inst = make_instance(range(25), pairs)
        with pytest.raises(CapacityError):
            enumerate_repairs(inst)


class TestParetoRepairs:
    def test_worked_example_keeps_both(self, ex1):
        assert enumerate_pareto_repairs(ex1).as_set() == enumerate_repairs(ex1).as_set()

    def test_dominating_fact_prunes(self):
        inst = make_instance([0, 1], [(0, 1)], [(0, 1)])
        fam = enumerate_pareto_repairs(inst)
        assert fam.as_set() == {frozenset({0})}

    def test_empty_priority_keeps_all(self):
        inst = make_instance(range(4), [(0, 1), (2, 3)])
        assert (enumerate_pareto_repairs(inst).as_set()
                == enumerate_repairs(inst).as_set())


def _improvable_by_some_set(instance, repair):
    """The definition itself: some consistent set of conflicting facts holds a
    fact outside `repair` preferred to every conflicting fact it drops from
    `repair`. Exponential in the conflicting facts."""
    bad = instance.conflicts.self_inconsistent
    pairs = [p for p in instance.conflicts.sorted_pairs() if not set(p) & bad]
    nodes = sorted({f for p in pairs for f in p})
    prefers = instance.priority.prefers
    for mask in range(1 << len(nodes)):
        chosen = {f for k, f in enumerate(nodes) if mask >> k & 1}
        if any(a in chosen and b in chosen for a, b in pairs):
            continue
        dropped = [a for a in nodes if a in repair and a not in chosen]
        if any(b not in repair and all(prefers(b, a) for a in dropped)
               for b in chosen):
            return True
    return False


def test_single_fact_pareto_test_matches_the_set_definition():
    # the oracle decides Pareto optimality with the single-fact test alone
    compared = 0
    for seed in (0, 1):
        for i in range(300):
            inst = verification_instance(i, seed, max_facts=10, max_conflicts=20)
            pareto = enumerate_pareto_repairs(inst).as_set()
            for repair in enumerate_repairs(inst).repairs:
                assert (repair in pareto) != _improvable_by_some_set(inst, repair), \
                    (seed, i, sorted(repair))
                compared += 1
    assert compared >= 2500


class TestCompletionRepairs:
    def test_worked_example(self, ex1):
        fam = enumerate_completion_repairs(ex1)
        assert fam.as_set() == {frozenset({ALPHA, GAMMA})}
        assert fam.completion_count == 3

    def test_total_priority_single_completion(self):
        inst = make_instance(range(3), [(0, 1), (1, 2)], [(0, 1), (1, 2)])
        fam = enumerate_completion_repairs(inst)
        assert fam.completion_count == 1
        assert len(fam.repairs) == 1

    def test_single_open_conflict(self):
        inst = make_instance([0, 1], [(0, 1)])
        fam = enumerate_completion_repairs(inst)
        assert fam.completion_count == 2
        assert fam.as_set() == {frozenset({0}), frozenset({1})}

    def test_pair_cap(self):
        pairs = [(i, i + 1) for i in range(18)]
        inst = make_instance(range(19), pairs)
        with pytest.raises(CapacityError):
            enumerate_completion_repairs(inst)


class TestOracleAnswers:
    def test_worked_example_verdicts(self, ex1):
        assert oracle_answers(ex1, "ar", "p").answers == {"q(a)"}
        assert oracle_answers(ex1, "iar", "p").answers == set()
        assert oracle_answers(ex1, "iar", "c").answers == {"q(a)"}
        assert oracle_answers(ex1, "brave", "p").answers == {"q(a)"}

    def test_iar_reports_intersection(self, ex1):
        res = oracle_answers(ex1, "iar", "c")
        assert res.intersection == {ALPHA, GAMMA}
        assert oracle_answers(ex1, "iar", "p").intersection == frozenset()

    def test_uncontested_cause_holds_everywhere(self):
        inst = make_instance(range(4), [(0, 1)],
                             answers=[make_answer("a", [[2, 3]])])
        for sem in ("brave", "ar", "iar"):
            for repair in ("s", "p", "c"):
                assert oracle_answers(inst, sem, repair).answers == {"a"}

    def test_conflicting_cause_holds_nowhere(self):
        inst = make_instance(range(3), [(0, 1)],
                             answers=[make_answer("a", [[0, 1]])])
        for sem in ("brave", "ar", "iar"):
            for repair in ("s", "p", "c"):
                assert oracle_answers(inst, sem, repair).answers == set()


# ----------------------------------------------------------------------
# structural properties on random instances


def test_family_inclusion_chain():
    for inst in small_instances(60, seed=31):
        sub = enumerate_repairs(inst).as_set()
        pareto = enumerate_pareto_repairs(inst).as_set()
        completion = enumerate_completion_repairs(inst).as_set()
        assert completion <= pareto <= sub
        for repair in sub:
            for a, b in inst.conflicts.sorted_pairs():
                assert not (a in repair and b in repair)


def test_score_structured_collapses_families():
    from repairqa.model import is_score_structured
    checked = 0
    for inst in small_instances(60, seed=32):
        if not is_score_structured(inst.conflicts, inst.priority):
            continue
        assert (enumerate_pareto_repairs(inst).as_set()
                == enumerate_completion_repairs(inst).as_set())
        checked += 1
    assert checked > 20


def test_semantic_chain_on_oracle():
    for inst in small_instances(40, seed=33):
        for repair in ("s", "p", "c"):
            iar = oracle_answers(inst, "iar", repair).answers
            ar = oracle_answers(inst, "ar", repair).answers
            brave = oracle_answers(inst, "brave", repair).answers
            assert iar <= ar <= brave


def test_total_priorities_have_unique_pareto_repair():
    import random
    from repairqa.model import build_score_priority
    rng = random.Random(34)
    for _ in range(25):
        # distinct scores make every priority total on its conflicts
        inst = small_instances(1, seed=rng.randint(0, 10**6), max_facts=6)[0]
        scores = {f: rng.sample(range(100), 1)[0] for f in inst.universe}
        while len(set(scores.values())) < len(scores):
            scores = {f: rng.randint(0, 10**6) for f in inst.universe}
        total = inst.with_priority(
            build_score_priority(inst.conflicts, scores))
        fam = enumerate_completion_repairs(total)
        assert fam.completion_count == 1
        assert len(fam.repairs) == 1
        assert enumerate_pareto_repairs(total).as_set() == fam.as_set()
