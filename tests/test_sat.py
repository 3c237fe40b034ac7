import itertools
import random

import pytest

from repairqa.errors import BudgetExceededError
from repairqa.sat import (SAT, UNSAT, SolverSession, enumerate_mus, lit_true,
                          maximize_soft, solve_clauses)

from conftest import loaded


def brute_models(n, clauses):
    for bits in itertools.product([False, True], repeat=n):
        model = {i + 1: bits[i] for i in range(n)}
        if all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses):
            yield model


def brute_sat(n, clauses):
    return next(brute_models(n, clauses), None) is not None


class TestSolve:
    def test_contradictory_units(self):
        assert solve_clauses(1, [[1], [-1]]).status == UNSAT

    def test_empty_formula(self):
        res = solve_clauses(0, [])
        assert res.status == SAT and res.model == {}

    def test_empty_clause(self):
        assert solve_clauses(2, [[1, 2], []]).status == UNSAT

    def test_model_is_total(self):
        res = solve_clauses(4, [[1, 2]])
        assert set(res.model) == {1, 2, 3, 4}

    def test_repeatable(self):
        session = SolverSession(3)
        session.add_clause([1, -2])
        session.add_clause([2, 3])
        first = session.solve()
        second = session.solve()
        assert first.status == second.status == SAT
        assert first.model == second.model

    def test_random_agreement_with_truth_tables(self):
        rng = random.Random(3)
        for _ in range(300):
            n = rng.randint(1, 8)
            clauses = [[rng.choice([-1, 1]) * rng.randint(1, n)
                        for _ in range(rng.randint(1, 3))]
                       for _ in range(rng.randint(0, 24))]
            assert solve_clauses(n, clauses).is_sat == brute_sat(n, clauses)


class TestAssumptions:
    def test_conflicting_assumptions_yield_core(self):
        session = SolverSession(1)
        res = session.solve([1, -1])
        assert res.status == UNSAT
        assert res.core <= {1, -1} and res.core

    def test_session_reusable_after_unsat(self):
        session = SolverSession(2)
        session.add_clause([1, 2])
        assert session.solve([-1, -2]).status == UNSAT
        assert session.solve([-1]).status == SAT
        assert session.solve([2]).status == SAT

    def test_core_is_unsatisfiable_subset(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 7)
            clauses = [[rng.choice([-1, 1]) * rng.randint(1, n)
                        for _ in range(rng.randint(1, 3))]
                       for _ in range(rng.randint(0, 18))]
            session = SolverSession(n)
            for c in clauses:
                session.add_clause(c)
            assumps = [rng.choice([-1, 1]) * rng.randint(1, n)
                       for _ in range(rng.randint(0, 4))]
            res = session.solve(assumps)
            want = brute_sat(n, clauses + [[a] for a in assumps])
            assert res.is_sat == want
            if not res.is_sat:
                assert res.core <= set(assumps)
                assert not brute_sat(n, clauses + [[a] for a in res.core])


class TestMaximizeSoft:
    def test_mutual_exclusion(self):
        res = maximize_soft(loaded(2, [[-1, -2]]), [1, 2])
        assert res.status == SAT and res.optimum == 1

    def test_no_hard_clauses(self):
        res = maximize_soft(loaded(3, []), [1, 2, 3])
        assert res.optimum == 3

    def test_unsat_hard(self):
        res = maximize_soft(loaded(1, [[1], [-1]]), [1])
        assert res.status == UNSAT and res.optimum == 0

    def test_fixed_assumptions_respected(self):
        res = maximize_soft(loaded(2, []), [1, 2], assumptions=[-1])
        assert res.optimum == 1 and not res.model[1]

    def test_random_agreement_with_brute_force(self):
        rng = random.Random(9)
        for _ in range(200):
            n = rng.randint(1, 8)
            clauses = [[rng.choice([-1, 1]) * rng.randint(1, n)
                        for _ in range(rng.randint(1, 3))]
                       for _ in range(rng.randint(0, 20))]
            softs = sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))
            best = max((sum(m[s] for s in softs) for m in brute_models(n, clauses)),
                       default=None)
            res = maximize_soft(loaded(n, clauses), softs)
            if best is None:
                assert res.status == UNSAT
            else:
                assert res.status == SAT and res.optimum == best
                assert sum(1 for s in softs if lit_true(res.model, s)) == best

    def test_one_session_many_soft_sets(self):
        # counters are cached per soft set: reusing a session across soft
        # sets and assumptions must keep every optimum exact
        rng = random.Random(17)
        for _ in range(100):
            n = rng.randint(1, 7)
            clauses = [[rng.choice([-1, 1]) * rng.randint(1, n)
                        for _ in range(rng.randint(1, 3))]
                       for _ in range(rng.randint(0, 14))]
            session = loaded(n, clauses)
            for _ in range(4):
                softs = sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))
                assumps = [rng.choice([-1, 1]) * rng.randint(1, n)
                           for _ in range(rng.randint(0, 2))]
                units = clauses + [[a] for a in assumps]
                best = max((sum(m[s] for s in softs) for m in brute_models(n, units)),
                           default=None)
                res = maximize_soft(session, softs, assumps)
                if best is None:
                    assert res.status == UNSAT
                else:
                    assert res.status == SAT and res.optimum == best


class TestEnumerateMus:
    def test_single_blocked_soft(self):
        assert enumerate_mus(loaded(2, [[-1]]), [1, 2]) == [frozenset({1})]

    def test_forced_chain(self):
        assert enumerate_mus(loaded(2, [[-1, -2], [2]]), [1]) == [frozenset({1})]

    def test_unsat_hard_marker(self):
        assert enumerate_mus(loaded(1, [[1], [-1]]), [1]) == [frozenset()]

    def test_no_mus_when_all_fit(self):
        assert enumerate_mus(loaded(2, [[1, 2]]), [1, 2]) == []

    def test_pairwise_conflicts(self):
        # any two of the three softs clash, every single one is fine
        hard = [[-1, -2], [-1, -3], [-2, -3]]
        muses = enumerate_mus(loaded(3, hard), [1, 2, 3])
        assert muses == [frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})]

    def test_singletons_match_unsat_scan(self):
        rng = random.Random(13)
        for _ in range(150):
            n = rng.randint(1, 7)
            clauses = [[rng.choice([-1, 1]) * rng.randint(1, n)
                        for _ in range(rng.randint(1, 3))]
                       for _ in range(rng.randint(0, 16))]
            if not brute_sat(n, clauses):
                continue
            softs = sorted(rng.sample(range(1, n + 1), rng.randint(0, min(n, 5))))
            muses = enumerate_mus(loaded(n, clauses), softs)
            singles = {next(iter(s)) for s in muses if len(s) == 1}
            scan = {s for s in softs if not brute_sat(n, clauses + [[s]])}
            assert singles == scan
            for mus in muses:
                assert not brute_sat(n, clauses + [[l] for l in mus])
                for drop in mus:
                    rest = [l for l in mus if l != drop]
                    assert brute_sat(n, clauses + [[l] for l in rest])

    def test_returns_every_mus_of_a_brute_force_scan(self):
        rng = random.Random(29)
        several = 0
        for _ in range(400):
            n = rng.randint(3, 7)
            # mostly negative clauses over mostly positive softs, so that
            # softs clash in several ways
            clauses = [[(-1 if rng.random() < 0.6 else 1) * rng.randint(1, n)
                        for _ in range(rng.randint(2, 3))]
                       for _ in range(rng.randint(0, 14))]
            softs = [v if rng.random() < 0.7 else -v
                     for v in rng.sample(range(1, n + 1), rng.randint(2, min(n, 6)))]
            # a subset of softs is satisfiable iff some model satisfies all of it
            fits = {frozenset(l for l in softs if lit_true(m, l))
                    for m in brute_models(n, clauses)}
            unsat = [frozenset(c) for k in range(len(softs) + 1)
                     for c in itertools.combinations(softs, k)
                     if not any(fit >= set(c) for fit in fits)]
            want = [s for s in unsat if not any(t < s for t in unsat)]
            want.sort(key=lambda s: (len(s), sorted(s)))
            assert enumerate_mus(loaded(n, clauses), softs) == want
            several += len(want) >= 2
        assert several >= 50


class TestBudget:
    def test_budget_error_distinct_from_unsat(self):
        # forcing >0 softs over a chain of exclusions needs real search
        hard = [[-1, -2], [-2, -3], [-1, -3]]
        with pytest.raises(BudgetExceededError):
            maximize_soft(loaded(3, hard, conflict_budget=0), [1, 2, 3])

    def test_level_zero_refutation_is_not_budget(self):
        res = solve_clauses(1, [[1], [-1]], conflict_budget=0)
        assert res.status == UNSAT

    def test_budgeted_session_recovers(self):
        session = SolverSession(3, conflict_budget=0)
        session.add_clause([1, 2])
        session.add_clause([-1, 2])
        session.add_clause([1, -2])
        session.add_clause([-1, -2, 3])
        try:
            session.solve([-3])
        except BudgetExceededError:
            pass
        session.conflict_budget = None
        assert session.solve([-3]).status == UNSAT


class FullScanSession(SolverSession):
    """Reference branching: rescan from variable 1 at every decision."""

    def _pick_branch_lit(self):
        for v in range(1, self.nvars + 1):
            if self._assign[v] is None:
                return v
        return None


def counters(session):
    stats = session.stats.as_dict()
    del stats["wall_ms"]
    return stats


class TestScanCursor:
    def test_branches_exactly_like_the_full_scan(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(8, 30)

            def clause():
                return [rng.choice([-1, 1]) * rng.randint(1, n)
                        for _ in range(rng.randint(2, 3))]

            clauses = [clause() for _ in range(rng.randint(n, 4 * n))]
            sessions = [loaded(n, clauses), FullScanSession(n)]
            for c in clauses:
                sessions[1].add_clause(c)
            for _ in range(6):
                assumps = [rng.choice([-1, 1]) * rng.randint(1, n + 2)
                           for _ in range(rng.randint(0, 5))]
                got, want = (s.solve(assumps) for s in sessions)
                assert (got.status, got.model, got.core) == \
                    (want.status, want.model, want.core)
                assert counters(sessions[0]) == counters(sessions[1])
                if rng.random() < 0.5:
                    extra = clause()
                    for s in sessions:
                        s.add_clause(extra)


class TestAddClause:
    def test_duplicate_literals_are_merged(self):
        session = SolverSession(3)
        session.add_clause([2, 2, 3, 2, 3])
        assert session._clauses == [[2, 3]]
        assert session._original == [(2, 2, 3, 2, 3)]
        assert session.solve([-2]).model[3] is True

    def test_repeated_unit_literal_propagates(self):
        session = SolverSession(2)
        session.add_clause([1, 1])
        assert session._clauses == []
        assert session.solve([-1]).status == UNSAT

    def test_tautology_is_dropped(self):
        session = SolverSession(2)
        session.add_clause([1, 2, -1])
        assert session._clauses == []
        assert session.solve([-1, -2]).status == SAT

    def test_clause_satisfied_at_level_zero_is_dropped(self):
        session = SolverSession(3)
        session.add_clause([1])
        session.add_clause([-1, 2, 3])  # the false literal is simplified away
        session.add_clause([2, 1])
        assert session._clauses == [[2, 3]]
        assert session.solve([-2]).model == {1: True, 2: False, 3: True}

    def test_clause_falsified_at_level_zero_refutes(self):
        session = SolverSession(2)
        session.add_clause([1])
        session.add_clause([2])
        session.add_clause([-1, -2, -1])
        res = session.solve()
        assert res.status == UNSAT and res.core == frozenset()
        session.add_clause([1, 2])  # nothing revives a refuted session
        assert session.solve().status == UNSAT

    def test_literal_above_nvars_grows_the_session(self):
        session = SolverSession(2)
        session.add_clause([1, -5])
        assert session.nvars == 5
        session.add_clause([7, -7])  # a dropped tautology still grows it
        assert session.nvars == 7
        assert set(session.solve([5]).model) == set(range(1, 8))

    def test_generator_argument(self):
        session = SolverSession(2)
        session.add_clause(lit for lit in (-1, 2))
        assert session._original == [(-1, 2)]
        assert session._clauses == [[-1, 2]]
        assert session.solve([1]).model[2] is True

    def test_clause_added_after_a_solve(self):
        session = SolverSession(3)
        session.add_clause([1, 2])
        assert session.solve().model[1] is True
        session.add_clause([-1])
        assert session.solve().model == {1: False, 2: True, 3: True}
        session.add_clause([-2, 3])
        session.add_clause([-3, -2])
        assert session.solve().status == UNSAT
