import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repairqa import filters, model
from repairqa.encoding import (MAXIMALITY, REPAIRS, SEMANTICS, EncodingSpec,
                               build_multi_formula, max_variants)
from repairqa.errors import CapacityError, PairingError
from repairqa.filters import (ALGORITHMS, CLASS_AR, CLASS_IAR, CLASS_TRIVIAL,
                              FilterRequest, answer_query, classify_answers,
                              extract_trivial_answers, grounded_facts,
                              remove_self_inconsistent, valid_pairing)
from repairqa.generate import priority_for_mode, random_instance, verification_instance
from repairqa.model import (EMPTY_PRIORITY, PrioritizedInstance, make_answer,
                            make_instance)
from repairqa.oracle import family_answers, oracle_answers, repair_family
from repairqa.sat import SolverSession
from repairqa.verify import combos_for

from conftest import small_instances

ALGOS_FOR = {
    "ar": ("simple", "maxsat", "muses", "assume"),
    "brave": ("simple", "maxsat", "muses", "assume", "cause"),
    "iar": ("simple", "maxsat", "muses", "assume", "cause", "iarcauses", "iarfacts"),
}


def spec_for(sem, repair, variant=None, neg=1):
    variant = variant or {"s": "s", "p": "p1", "c": "c"}[repair]
    return EncodingSpec(sem, repair, variant, neg)


def run(inst, sem, repair, algo, variant=None, neg=1, **kw):
    return answer_query(FilterRequest(inst, spec_for(sem, repair, variant, neg),
                                      algo, **kw))


class TestRemoveSelfInconsistent:
    def test_identity_without_unary_conflicts(self, ex1):
        cleaned, removed = remove_self_inconsistent(ex1)
        assert removed == frozenset()
        assert cleaned is ex1

    def test_causes_with_bad_facts_dropped(self):
        inst = make_instance(range(3), [(1, 2)], self_inconsistent=[0],
                             answers=[make_answer("a", [[0], [1]])])
        cleaned, removed = remove_self_inconsistent(inst)
        assert removed == {0}
        assert cleaned.answers[0].causes == (frozenset({1}),)

    def test_answer_without_causes_left_dropped(self):
        inst = make_instance(range(2), [], self_inconsistent=[0],
                             answers=[make_answer("a", [[0]])])
        cleaned, _ = remove_self_inconsistent(inst)
        assert cleaned.answers == ()

    def test_answer_without_causes_left_is_settled(self):
        # every cause of "a" holds the self-inconsistent 0, so it is in no repair
        inst = make_instance(range(3), [(1, 2)], self_inconsistent=[0],
                             answers=[make_answer("a", [[0]]),
                                      make_answer("b", [[1]])])
        report = run(inst, "ar", "p", "simple")
        assert report.settled_answers == {"a", "b"}
        assert report.answers == frozenset()
        assert report.residue.answers == ()

    def test_preprocessing_accounts_for_every_answer(self):
        # trivial, settled and left open partition the answers, including
        # those whose every cause holds a self-inconsistent fact
        cells = dropped = 0
        for seed in (0, 1):
            for i in range(500):
                inst = verification_instance(i, seed, 8)
                bad = inst.conflicts.self_inconsistent
                dropped += sum(all(c & bad for c in a.causes) for a in inst.answers)
                ids = [a.answer_id for a in inst.answers]
                for repair in REPAIRS:
                    for variant in max_variants(repair, inst):
                        for sem in ("ar", "iar", "brave"):
                            report = run(inst, sem, repair, "simple", variant)
                            parts = (report.trivial_answers, report.settled_answers,
                                     [a.answer_id for a in report.residue.answers])
                            assert sorted(aid for part in parts for aid in part) \
                                == sorted(ids), (seed, i, sem, repair, variant)
                            cells += 1
        assert dropped >= 100
        assert cells > 15000

    def test_conflicts_touching_bad_facts_dropped(self):
        inst = make_instance(range(3), [(0, 1), (1, 2)], [(1, 2)],
                             self_inconsistent=[0])
        cleaned, _ = remove_self_inconsistent(inst)
        assert cleaned.conflicts.sorted_pairs() == [(1, 2)]
        assert cleaned.priority.sorted_edges() == [(1, 2)]
        assert 0 not in cleaned.universe


class TestTrivialAnswers:
    def test_worked_example_has_none(self, ex1):
        trivial, _, remaining = extract_trivial_answers(ex1, "p", "ar")
        assert trivial == ()
        assert remaining.answers == ex1.answers

    def test_dominating_fact_makes_answer_trivial(self):
        inst = make_instance(range(2), [(0, 1)], [(0, 1)],
                             answers=[make_answer("a", [[0]])])
        trivial, _, remaining = extract_trivial_answers(inst, "p", "ar")
        assert trivial == ("a",)
        assert remaining.answers == ()

    def test_conflict_free_cause_is_trivial(self):
        inst = make_instance(range(3), [(0, 1)],
                             answers=[make_answer("a", [[2]])])
        trivial, _, _ = extract_trivial_answers(inst, "p", "ar")
        assert trivial == ("a",)

    def test_safe_facts_deleted_from_surviving_causes(self):
        # under s or p the admissible-set checks would settle the answer
        inst = make_instance(range(3), [(0, 1)],
                             answers=[make_answer("a", [[0, 2]])])
        _, _, remaining = extract_trivial_answers(inst, "c", "ar")
        assert remaining.answers[0].causes == (frozenset({0}),)


def _completion_counterexample():
    # 0 > 1 > 3 and 2 > 1, with 2 and 3 left unordered: 0 is safe and 1
    # lost. Only {0, 2} is a completion repair, since 3 > 2 closes a cycle
    # through the lost fact 1; the residue {2, 3} alone has {2} and {3}.
    return make_instance(range(4), [(0, 1), (1, 2), (1, 3), (2, 3)],
                         [(0, 1), (2, 1), (1, 3)],
                         answers=[make_answer("x", [[2]]), make_answer("y", [[3]])])


def _settling_instance():
    # 0 beats 1 outright; once 1 is lost, 2 has no rival left it does not beat
    return make_instance(range(5), [(0, 1), (1, 2), (3, 4)], [(0, 1)],
                         answers=[make_answer("trivial", [[0]]),
                                  make_answer("held", [[1, 3], [2]]),
                                  make_answer("refuted", [[1], [1, 4]]),
                                  make_answer("open", [[3], [1]])])


class TestGroundedFixpoint:
    def test_fixpoint_goes_past_the_first_round(self):
        inst = _settling_instance()
        first, safe, lost = grounded_facts(inst)
        assert first == {0}
        assert safe == {0, 2} and lost == {1}

    def test_settled_answers_and_reduced_causes(self):
        # the priority is score-structured, so c drops the settled facts too;
        # under s or p the admissible-set checks would settle "open" as well
        trivial, settled, remaining = extract_trivial_answers(_settling_instance(),
                                                              "c", "ar")
        assert trivial == ("trivial",)
        assert settled == {"held": True, "refuted": False}
        assert remaining.answers == (make_answer("open", [[3]]),)
        assert remaining.universe == (3, 4)
        assert remaining.conflicts.sorted_pairs() == [(3, 4)]

    def test_completion_residue_is_kept_without_score_structure(self):
        inst = _completion_counterexample()
        _, safe, lost = grounded_facts(inst)
        # the residue p would read, had the checks left it an answer
        residue = inst.without_facts(safe | lost)
        assert residue.universe == (2, 3)
        # the residue's completion repairs miss the priority path 2 > 1 > 3
        full = repair_family(inst, "c").as_set()
        assert full == {frozenset({0, 2})}
        assert {r | safe for r in repair_family(residue, "c").repairs} != full
        _, _, kept = extract_trivial_answers(inst, "c", "ar")
        assert kept.universe == inst.universe
        score = _settling_instance()
        assert extract_trivial_answers(score, "c", "ar")[2].universe == (3, 4)

    @pytest.mark.parametrize("repair", ["p", "c"])
    def test_report_names_settled_answers(self, repair):
        # under p the admissible-set checks settle "open" too: {3} is
        # admissible, and its partner 4 is unbeaten
        settled = {"held", "refuted"} | ({"open"} if repair == "p" else set())
        for sem, want in (("iar", {"trivial", "held"}),
                          ("ar", {"trivial", "held"}),
                          ("brave", {"trivial", "held", "open"})):
            report = run(_settling_instance(), sem, repair, "simple")
            assert report.answers == want
            assert report.trivial_answers == {"trivial"}
            assert report.settled_answers == settled

    @pytest.mark.parametrize("sem", ["ar", "iar", "brave"])
    def test_completion_residue_needs_score_structure(self, sem):
        inst = _completion_counterexample()
        assert not inst.score_structured
        want = oracle_answers(inst, sem, "c").answers
        assert want == {"x"}
        for algo in ALGORITHMS:
            if valid_pairing(sem, algo):
                assert run(inst, sem, "c", algo).answers == want, algo

    def test_settled_facts_against_the_oracle(self):
        # denser than the verify default, so the fixpoint runs several rounds
        checked = reduced = 0
        for i in range(300):
            inst = verification_instance(i, 0, max_facts=10, max_conflicts=20)
            for repair in ("s", "p", "c"):
                work = inst.with_priority(EMPTY_PRIORITY) if repair == "s" else inst
                cleaned, _ = remove_self_inconsistent(work)
                try:
                    full = repair_family(cleaned, repair).as_set()
                except CapacityError:
                    continue
                _, safe, lost = grounded_facts(cleaned)
                for r in full:
                    assert safe <= r and not lost & r, (i, repair)
                # for c without score structure the residue keeps every fact
                if repair != "c" or cleaned.score_structured:
                    residue = cleaned.without_facts(safe | lost)
                else:
                    residue = cleaned
                assert {r | safe for r in repair_family(residue, repair).repairs} \
                    == full, (i, repair)
                # preprocessing hands the strategies that residue
                for sem in ("ar", "iar", "brave"):
                    _, _, left = extract_trivial_answers(cleaned, repair, sem)
                    if left.answers:
                        assert left.universe == residue.universe, (i, repair, sem)
                        reduced += len(left.universe) < len(cleaned.universe)
                checked += 1
        assert checked > 850
        assert reduced > 50


def _check_lost_from_the_start(inst):
    """Check the fixpoint and the verdicts it and the admissible-set checks
    give on `inst` as given, self-inconsistent facts included, for s and p;
    returns how many answers they decided."""
    bad = inst.conflicts.self_inconsistent
    decided = 0
    for repair in ("s", "p"):
        view = inst.without_priority() if repair == "s" else inst
        first, safe, lost = grounded_facts(view)
        assert bad <= lost and not bad & (first | safe)
        # on every other fact the fixpoint is that of the cleaned instance
        assert (first, safe, lost - bad) == grounded_facts(
            remove_self_inconsistent(view)[0])
        family = repair_family(view, repair)
        for sem in SEMANTICS:
            want = family_answers(view, family, sem).answers
            trivial, settled, _ = extract_trivial_answers(view, repair, sem)
            assert set(trivial) <= want, (repair, sem)
            for aid, held in settled.items():
                assert held == (aid in want), (repair, sem, aid)
            decided += len(trivial) + len(settled)
    return decided


class TestSelfInconsistentFactsAreLost:
    def test_a_self_inconsistent_partner_makes_no_fact_safe(self):
        # 0 is in no repair, so it beats nothing: 1 and 2 stay contested
        inst = make_instance(range(3), [(0, 1), (1, 2)], self_inconsistent=[0],
                             answers=[make_answer("b", [[0]]), make_answer("c", [[2]])])
        assert grounded_facts(inst) == (frozenset(), frozenset(), {0})
        assert extract_trivial_answers(inst, "p", "ar")[:2] == (
            (), {"b": False, "c": False})
        assert oracle_answers(inst, "ar", "p").answers == set()
        _check_lost_from_the_start(inst)

    def test_verification_stream_against_the_oracle(self):
        instances = decided = 0
        for i in range(300):
            inst = verification_instance(i, 0, 8)
            if inst.conflicts.self_inconsistent:
                decided += _check_lost_from_the_start(inst)
                instances += 1
        assert instances > 40 and decided > 500, (instances, decided)

    @given(pairs=st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5))
                         .filter(lambda p: p[0] < p[1]), max_size=10),
           unary=st.frozensets(st.integers(0, 5), min_size=1, max_size=2),
           causes=st.lists(st.lists(st.frozensets(st.integers(0, 5), min_size=1,
                                                  max_size=3),
                                    min_size=1, max_size=3),
                           min_size=1, max_size=3),
           seed=st.integers(0, 999))
    @settings(max_examples=100, deadline=None)
    def test_generated_instances_against_the_oracle(self, pairs, unary, causes,
                                                    seed):
        priority = model.build_random_priority(model.ConflictSet(pairs), 0.6, seed)
        inst = make_instance(range(6), pairs, priority.edges,
                             [make_answer(f"a{i}", c) for i, c in enumerate(causes)],
                             self_inconsistent=unary)
        _check_lost_from_the_start(inst)

    def test_each_view_builds_one_graph_and_restricts_once(self, monkeypatch):
        build, restrict = model.directed_conflict_graph, PrioritizedInstance.without_facts
        builds, restricted = [], {}

        def counted_build(*args):
            builds.append(args)
            return build(*args)

        def counted_restrict(self, drop):
            out = restrict(self, drop)
            restricted[id(out)] = out
            return out

        monkeypatch.setattr(model, "directed_conflict_graph", counted_build)
        monkeypatch.setattr(PrioritizedInstance, "without_facts", counted_restrict)
        requests = 0
        for i in range(150):
            inst = verification_instance(i, 0, 8)
            if not inst.conflicts.self_inconsistent:
                continue
            views = 1 if inst.priority.is_empty() else 2
            builds.clear()
            restricted.clear()
            counts = []
            for _ in range(2):
                for combo in combos_for(inst):
                    spec = EncodingSpec(combo.semantics, combo.repair,
                                        combo.max_variant, combo.neg_variant)
                    answer_query(FilterRequest(inst, spec, combo.algorithm))
                    requests += 1
                counts.append((len(builds), len(restricted)))
            # asking every request again restricts and builds nothing more
            assert counts[0] == counts[1], i
            # a view restricts to its safe and lost facts, and for c under a
            # general priority to its self-inconsistent ones
            assert len(restricted) <= 2 * views, i
            assert len(builds) <= views + len(restricted), i
        assert requests > 6000


@pytest.fixture(scope="module")
def dense_families():
    """(instance, repair, family) for s and p over the dense instances of the
    fixpoint's oracle test, skipping families over the oracle caps."""
    out = []
    for i in range(300):
        inst = verification_instance(i, 0, max_facts=10, max_conflicts=20)
        for repair in ("s", "p"):
            try:
                out.append((inst, repair, repair_family(inst, repair)))
            except CapacityError:
                continue
    return out


class TestAdmissibleChecks:
    # each semantics has one check: brave holds (or, with no conflict-free
    # cause, fails), iar fails, ar fails
    @pytest.mark.parametrize("sem, verdicts", [
        ("brave", {True, False}), ("iar", {False}), ("ar", {False})])
    def test_check_agrees_with_the_oracle(self, dense_families, sem, verdicts):
        decided = dict.fromkeys(verdicts, 0)
        for inst, repair, family in dense_families:
            want = family_answers(inst, family, sem).answers
            settled = filters.preprocess(inst, repair, sem)[1]
            # c keeps the fixpoint's verdicts alone
            fixpoint = filters.preprocess(inst.without_priority() if repair == "s"
                                          else inst, "c", sem)[1]
            assert fixpoint.items() <= settled.items()
            for aid, held in settled.items():
                assert held == (aid in want), (sem, repair, aid)
                if aid not in fixpoint:
                    decided[held] += 1
        # each verdict the check can give, it gives often
        assert min(decided.values()) > 300, decided

    @pytest.mark.parametrize("inst", [
        # 1 beats 0 outright: the fixpoint refutes the cause {0}
        make_instance(range(2), [(0, 1)], [(1, 0)],
                      answers=[make_answer("q", [[0]])]),
        # a triangle where 0 beats 1: {1} is conflict-free, but it cannot
        # counter-attack 0, and no check decides it
        make_instance(range(3), [(0, 1), (1, 2), (0, 2)], [(0, 1)],
                      answers=[make_answer("q", [[1]])]),
    ])
    def test_conflict_free_cause_that_is_not_admissible_stays_out(self, inst):
        assert oracle_answers(inst, "brave", "p").answers == set()
        for algo in ALGOS_FOR["brave"]:
            assert run(inst, "brave", "p", algo).answers == set(), algo

    @pytest.mark.parametrize("sem", ["brave", "iar"])
    def test_subset_repairs_never_reach_the_solver(self, monkeypatch, sem):
        sessions = []
        init = SolverSession.__init__

        def counting(self, *args, **kwargs):
            sessions.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SolverSession, "__init__", counting)
        reached = 0
        for inst in small_instances(30, seed=45):
            for algo in ALGOS_FOR[sem]:
                report = run(inst, sem, "s", algo)
                assert report.solver_stats["solve_calls"] == 0, algo
                reached += len(report.settled_answers)
        assert sessions == [] and reached

    def test_priority_free_view_is_built_once(self, monkeypatch, ex1):
        build = model.directed_conflict_graph
        calls = []

        def counting(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(model, "directed_conflict_graph", counting)
        fresh = make_instance(ex1.universe, ex1.conflicts.sorted_pairs(),
                              ex1.priority.sorted_edges(), ex1.answers)
        for sem in ("ar", "iar", "brave"):
            for algo in ALGOS_FOR[sem]:
                run(fresh, sem, "s", algo)
        assert len(calls) == 1 and calls[0][1].is_empty()
        assert fresh.without_priority() is fresh.without_priority()


class TestWorkedExampleVerdicts:
    @pytest.mark.parametrize("algo", ALGOS_FOR["ar"])
    def test_pareto_ar(self, ex1, algo):
        assert run(ex1, "ar", "p", algo).answers == {"q(a)"}

    @pytest.mark.parametrize("algo", ALGOS_FOR["iar"])
    def test_pareto_iar(self, ex1, algo):
        assert run(ex1, "iar", "p", algo).answers == set()

    @pytest.mark.parametrize("algo", ALGOS_FOR["iar"])
    def test_completion_iar(self, ex1, algo):
        assert run(ex1, "iar", "c", algo).answers == {"q(a)"}

    @pytest.mark.parametrize("algo", ALGOS_FOR["brave"])
    def test_pareto_brave(self, ex1, algo):
        assert run(ex1, "brave", "p", algo).answers == {"q(a)"}


class TestPipelineMechanics:
    def test_invalid_pairing_rejected_before_solving(self, ex1):
        with pytest.raises(PairingError):
            run(ex1, "brave", "s", "iarcauses")

    def test_valid_pairing_is_the_hand_written_table(self):
        assert set(ALGORITHMS) == set(ALGOS_FOR["iar"])
        for sem in (*ALGOS_FOR, "bogus"):
            for algo in (*ALGORITHMS, "bogus"):
                assert valid_pairing(sem, algo) == (algo in ALGOS_FOR.get(sem, ())), \
                    (sem, algo)

    def test_preprocess_refuses_p1_exactly_outside_max_variants(self, ex1):
        # the fixture's priority is not score-structured, the settling one's
        # is; the request check sits in answer_query, before preprocessing
        refused = set()
        for name, inst in (("ex1", ex1), ("score", _settling_instance())):
            for repair in REPAIRS:
                allowed = "p1" in max_variants(repair, inst)
                if "p1" not in MAXIMALITY[repair]:
                    assert not allowed
                    with pytest.raises(ValueError):
                        EncodingSpec("ar", repair, "p1")
                    continue
                try:
                    answer_query(FilterRequest(
                        inst, EncodingSpec("ar", repair, "p1"), "simple"))
                except PairingError:
                    refused.add((name, repair))
                assert allowed == ((name, repair) not in refused), (name, repair)
        assert refused == {("ex1", "c")}

    def test_completion_with_pareto_maximality_needs_structure(self, ex1):
        # the fixture's priority is not score-structured
        with pytest.raises(PairingError):
            run(ex1, "ar", "c", "simple", variant="p1")

    def test_trivial_only_instance_never_solves(self):
        inst = make_instance(range(3), [],
                             answers=[make_answer("a", [[0]]),
                                      make_answer("b", [[1, 2]])])
        report = run(inst, "ar", "p", "simple")
        assert report.answers == {"a", "b"}
        assert report.trivial_answers == {"a", "b"}
        assert report.solver_stats["solve_calls"] == 0

    def test_subset_repairs_ignore_priority(self, ex1):
        # with preferences ignored, nothing is trivially safe in the fixture
        report = run(ex1, "iar", "s", "simple")
        assert report.answers == set()
        inst = make_instance(range(2), [(0, 1)], [(0, 1)],
                             answers=[make_answer("a", [[0]])])
        assert run(inst, "iar", "s", "simple").answers == set()
        assert run(inst, "iar", "p", "simple").answers == {"a"}

    def test_budget_exhaustion_flags_incomplete(self):
        # under s the admissible-set checks would decide every answer; c
        # keeps the fixpoint's verdicts only, and it decides none here
        inst = make_instance(range(3), [(0, 1), (1, 2), (0, 2)],
                             answers=[make_answer("a", [[0]]),
                                      make_answer("b", [[1]]),
                                      make_answer("c", [[2]])])
        report = run(inst, "brave", "c", "maxsat", conflict_budget=0)
        assert not report.complete

    def test_fact_cache_shares_solves(self, ex1):
        # both answers hinge on alpha, which neither the fixpoint nor the
        # admissible-set checks decide: each of its partners is beaten. One
        # solve must settle both
        inst = ex1.with_answers([make_answer("a1", [[0]]),
                                 make_answer("a2", [[0]])])
        report = run(inst, "iar", "p", "iarcauses")
        assert report.answers == set()
        assert report.solver_stats["solve_calls"] == 1

    def test_iarfacts_skips_solving_on_cached_facts(self):
        inst1 = make_instance(range(2), [(0, 1)], [(1, 0)],
                              answers=[make_answer("a1", [[0]])])
        inst2 = make_instance(range(2), [(0, 1)], [(1, 0)],
                              answers=[make_answer("a1", [[0]]),
                                       make_answer("a2", [[0]])])
        one = run(inst1, "iar", "p", "iarfacts")
        two = run(inst2, "iar", "p", "iarfacts")
        assert one.solver_stats["solve_calls"] == two.solver_stats["solve_calls"]

    @pytest.mark.parametrize("sem, algo, causes, want", [
        ("brave", "maxsat", {"a": [[0]], "b": [[1]]}, {"a", "b"}),
        ("iar", "iarfacts", {"a": [[0], [1]]}, set()),
    ])
    def test_sweep_loads_each_formula_into_one_session(self, monkeypatch, sem,
                                                       algo, causes, want):
        # 0 and 1 clash without priority, so no one model shows both
        # activators: the sweep needs a second round. Under s the
        # admissible-set checks would decide both answers; c keeps them open
        counts = {"sessions": 0, "formulas": 0, "rounds": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(SolverSession, "__init__",
                            counting("sessions", SolverSession.__init__))
        monkeypatch.setattr(filters, "build_multi_formula",
                            counting("formulas", filters.build_multi_formula))
        monkeypatch.setattr(filters, "maximize_soft",
                            counting("rounds", filters.maximize_soft))
        inst = make_instance(range(2), [(0, 1)],
                             answers=[make_answer(a, c) for a, c in causes.items()])
        assert run(inst, sem, "c", algo).answers == want
        assert counts["formulas"] == 1
        assert counts["rounds"] >= 2
        assert counts["sessions"] == counts["formulas"]

    def test_conflict_graph_built_once_per_request(self, monkeypatch, ex1):
        build = model.directed_conflict_graph
        calls = []

        def counting(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(model, "directed_conflict_graph", counting)
        fresh = make_instance(ex1.universe, ex1.conflicts.sorted_pairs(),
                              ex1.priority.sorted_edges(), ex1.answers)
        assert run(fresh, "iar", "c", "iarcauses").answers == {"q(a)"}
        assert len(calls) == 1

    def test_conflict_graph_built_once_with_a_residue(self, monkeypatch):
        build = model.directed_conflict_graph
        calls = []

        def counting(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(model, "directed_conflict_graph", counting)
        inst = _settling_instance()
        report = run(inst, "brave", "p", "simple")
        assert report.answers == {"trivial", "held", "open"}
        # one graph for the instance and one for its residue, however many
        # requests read them
        assert len(calls) == 2
        for sem, algos in ALGOS_FOR.items():
            for algo in algos:
                run(inst, sem, "p", algo)
        assert len(calls) == 2

    def test_requests_validate_no_priority_again(self, monkeypatch):
        # a priority is validated where it enters; what a request derives
        # from a valid instance restricts it, so it is valid already
        validate = model.validate_priority
        checked = []

        def counting(conflicts, priority):
            checked.append(priority)
            return validate(conflicts, priority)

        instances = [verification_instance(i, 0, max_facts=8) for i in range(20)]
        monkeypatch.setattr(model, "validate_priority", counting)
        residues = 0
        for inst in instances:
            for combo in combos_for(inst):
                spec = EncodingSpec(combo.semantics, combo.repair,
                                    combo.max_variant, combo.neg_variant)
                answer_query(FilterRequest(inst, spec, combo.algorithm))
                residue = filters.preprocess(inst, combo.repair, combo.semantics)[2]
                residues += (not residue.priority.is_empty()
                             and len(residue.universe) < len(inst.universe))
        # some cells keep a priority on a residue that lost facts
        assert residues
        assert [p for p in checked if not p.is_empty()] == []

    def test_per_view_state_does_not_leak_between_requests(self):
        # the instances the fixpoint decides facts of, so each view holds
        # restrictions; on some, c under a general priority and p restrict
        # the same view to different dropped sets
        instances = [inst for seed in (0, 1) for i in range(60)
                     if grounded_facts(inst := verification_instance(i, seed, 10, 20))[2]]
        assert len(instances) > 20
        assert sum(not inst.score_structured for inst in instances) >= 3

        def copy(inst):
            return make_instance(inst.universe, inst.conflicts.pairs,
                                 inst.priority.edges, inst.answers,
                                 inst.conflicts.self_inconsistent, inst.labels)

        def outcome(inst, spec, algorithm):
            report = answer_query(FilterRequest(inst, spec, algorithm))
            residue = report.residue
            return (report.answers, report.trivial_answers, report.settled_answers,
                    residue.universe, residue.answers)

        interval = sys.getswitchinterval()
        # switch threads often, so requests on one view interleave
        sys.setswitchinterval(1e-5)
        try:
            for inst in instances:
                cells = [(EncodingSpec(c.semantics, c.repair, c.max_variant,
                                       c.neg_variant), c.algorithm)
                         for c in combos_for(inst)]
                fresh = [outcome(copy(inst), *cell) for cell in cells]
                shared = copy(inst)
                assert [outcome(shared, *cell) for cell in cells] == fresh
                shared = copy(inst)
                assert [outcome(shared, *cell) for cell in cells[::-1]] == fresh[::-1]
                shared = copy(inst)
                with ThreadPoolExecutor(4) as pool:
                    threaded = list(pool.map(lambda cell: outcome(shared, *cell),
                                             cells, timeout=60))
                assert threaded == fresh
        finally:
            sys.setswitchinterval(interval)

    def test_timings_reported(self, ex1):
        report = run(ex1, "iar", "c", "iarcauses")
        assert set(report.timings_ms) == {"preprocess_ms", "filter_ms"}


class TestCauseTolerance:
    def test_superset_and_inconsistent_causes_change_nothing(self):
        for inst in small_instances(12, seed=41):
            conflict_pair = next(iter(inst.conflicts.sorted_pairs()), None)
            noisy_answers = []
            for ans in inst.answers:
                causes = list(ans.causes)
                base = set(causes[0])
                extra = base | {min(inst.universe)}
                causes.append(frozenset(extra))
                if conflict_pair:
                    causes.append(frozenset(base | set(conflict_pair)))
                noisy_answers.append(make_answer(ans.answer_id, causes))
            noisy = inst.with_answers(noisy_answers)
            for sem in ("ar", "iar", "brave"):
                for repair in ("s", "p", "c"):
                    want = run(inst, sem, repair, "simple").answers
                    got = run(noisy, sem, repair, "simple").answers
                    assert got == want, (sem, repair)


class TestCrossAlgorithmAgreement:
    def test_all_algorithms_match_oracle(self):
        for inst in small_instances(15, seed=42):
            for sem, algos in ALGOS_FOR.items():
                for repair in ("s", "p", "c"):
                    want = oracle_answers(inst, sem, repair).answers
                    for algo in algos:
                        got = run(inst, sem, repair, algo).answers
                        assert got == want, (sem, repair, algo)

    def test_semantic_chain_via_pipeline(self):
        for inst in small_instances(10, seed=43):
            for repair in ("s", "p", "c"):
                iar = run(inst, "iar", repair, "simple")
                ar = run(inst, "ar", repair, "simple")
                brave = run(inst, "brave", repair, "simple")
                assert iar.trivial_answers <= iar.answers <= ar.answers <= brave.answers

    @pytest.mark.parametrize("seed", [11, 28])
    def test_completion_cells_agree_beyond_the_verify_sweep(self, seed):
        # 16 facts, larger than the instances `verify` draws, under a
        # score-structured priority: the completion and pareto repairs
        # coincide, so every c cell (maximality c, p1 or p2, both blocking
        # variants, every algorithm) must give one answer set per semantics
        inst = random_instance(16, 24, 8, max_cause_size=3, seed=seed)
        inst = inst.with_priority(priority_for_mode(inst, "score", seed, levels=5))
        got = {}
        for combo in combos_for(inst):
            if combo.repair != "c":
                continue
            spec = EncodingSpec(combo.semantics, combo.repair, combo.max_variant,
                                combo.neg_variant)
            report = answer_query(FilterRequest(inst, spec, combo.algorithm))
            got.setdefault(combo.semantics, {}).setdefault(
                report.answers, []).append(combo)
        for sem, answer_sets in got.items():
            assert len(answer_sets) == 1, (sem, answer_sets)
        assert {c.max_variant for cells in got["ar"].values() for c in cells} \
            == {"c", "p1", "p2"}


class TestClassifyAnswers:
    def test_worked_example_completion(self, ex1):
        assert classify_answers(ex1, "c") == {"q(a)": CLASS_IAR}

    def test_worked_example_pareto(self, ex1):
        assert classify_answers(ex1, "p") == {"q(a)": CLASS_AR}

    def test_conflict_free_answer_is_trivial(self):
        inst = make_instance(range(2), [],
                             answers=[make_answer("a", [[0]])])
        assert classify_answers(inst, "s") == {"a": CLASS_TRIVIAL}

    def test_classes_partition_the_answers(self):
        for inst in small_instances(8, seed=44):
            for repair in ("s", "p", "c"):
                classes = classify_answers(inst, repair)
                assert set(classes) == {a.answer_id for a in inst.answers}

    def test_unknown_algorithm_is_rejected(self, ex1):
        with pytest.raises(PairingError, match="bogus"):
            classify_answers(ex1, "p", algorithm="bogus")

    def test_unknown_repair_type_is_rejected(self, ex1):
        with pytest.raises(ValueError, match=r"'x'.*s, p, c"):
            classify_answers(ex1, "x")

    def test_known_algorithm_falls_back_where_it_cannot_compute(self, ex1):
        # iarcauses computes iar only; ar and brave fall back to simple
        assert classify_answers(ex1, "p", algorithm="iarcauses") == {"q(a)": CLASS_AR}


def _ask_every_activator(psi, hard):
    session = SolverSession(psi.nvars)
    for clause in hard:
        session.add_clause(clause)
    statuses = [session.solve([v]).status for v in psi.soft_units]
    st = session.stats
    return statuses, st.decisions, st.conflicts, st.propagations, st.solve_calls


def test_repeated_clauses_change_no_solver_step():
    # a formula keeps the clauses its blocks emit, repeats included; the
    # session must take a repeat without a different decision or verdict
    repeats = 0
    for seed in (0, 1):
        for i in range(150):
            inst = verification_instance(i, seed, max_facts=10, max_conflicts=20)
            for repair in REPAIRS:
                for sem in ("ar", "iar", "brave"):
                    residue = filters.preprocess(inst, repair, sem)[2]
                    if not residue.answers:
                        continue
                    for variant in max_variants(repair, inst):
                        for neg in (1, 2):
                            spec = EncodingSpec(sem, repair, variant, neg)
                            psi = build_multi_formula(residue, spec,
                                                      list(residue.answers))
                            unique = list(dict.fromkeys(psi.hard))
                            repeats += len(psi.hard) - len(unique)
                            assert (_ask_every_activator(psi, psi.hard)
                                    == _ask_every_activator(psi, unique)), (seed, i, spec)
    assert repeats >= 3000
