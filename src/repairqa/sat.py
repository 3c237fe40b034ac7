"""Self-contained complete SAT engine.

Conflict-driven clause learning with two watched literals, incremental
solving under assumptions (with assumption cores), exact maximization of
satisfied unit-soft literals, and enumeration of minimal unsatisfiable
subsets of unit-soft sets. Maximization and MUS enumeration run on a
`SolverSession` the caller has loaded and owns, so one formula is loaded
once and then asked many questions under assumptions.

Everything is deterministic: decisions pick the lowest unassigned variable,
positive phase first.
Branching is amortised through a scan cursor that backtracking lowers again.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import BudgetExceededError

SAT = "SAT"
UNSAT = "UNSAT"


@dataclass
class SolverStats:
    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0
    solve_calls: int = 0
    wall_s: float = 0.0

    def as_dict(self) -> dict:
        return {
            "decisions": self.decisions,
            "conflicts": self.conflicts,
            "propagations": self.propagations,
            "solve_calls": self.solve_calls,
            "wall_ms": round(self.wall_s * 1000.0, 3),
        }


@dataclass(frozen=True)
class SolveResult:
    status: str
    model: Optional[dict[int, bool]] = None
    core: Optional[frozenset[int]] = None  # subset of the assumption literals

    @property
    def is_sat(self) -> bool:
        return self.status == SAT


class SolverSession:
    """One clause database; clauses are append-only, solving is repeatable.

    Counters go to `stats`, which several sessions may share.
    """

    def __init__(self, nvars: int = 0, conflict_budget: Optional[int] = None,
                 stats: Optional[SolverStats] = None):
        self.nvars = 0
        self.conflict_budget = conflict_budget
        self.stats = SolverStats() if stats is None else stats
        # soft literals -> outputs of the cardinality counter over them
        self._counters: dict[tuple[int, ...], list[int]] = {}
        self._ok = True  # False once the hard clauses are refuted outright
        self._clauses: list[list[int]] = []      # watched clause database
        self._original: list[tuple[int, ...]] = []  # as added, for model checking
        self._watches: defaultdict[int, list[list[int]]] = defaultdict(list)
        self._assign: list[Optional[bool]] = [None]
        self._level: list[int] = [0]
        self._reason: list[Optional[list[int]]] = [None]
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._cursor = 1  # every variable below it is assigned
        self.ensure_vars(nvars)

    # ------------------------------------------------------------------
    # clause/variable management

    def ensure_vars(self, n: int) -> None:
        grow = n - self.nvars
        if grow > 0:  # in place: add_clause holds an alias of _assign
            self.nvars = n
            self._assign += [None] * grow
            self._level += [0] * grow
            self._reason += [None] * grow

    def _value(self, lit: int) -> Optional[bool]:
        v = self._assign[abs(lit)]
        if v is None:
            return None
        return v if lit > 0 else not v

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add a hard clause; duplicates removed, tautologies dropped."""
        lits = tuple(lits)
        if 0 in lits:
            raise ValueError(f"clause {list(lits)} holds literal 0")
        self._original.append(lits)
        # level-0 simplification keeps the watch invariants intact
        assert not self._trail_lim, "clauses may only be added between solves"
        assign, nvars = self._assign, self.nvars
        out: list[int] = []  # clauses are short: a list dedups faster than a set
        keep = self._ok  # a dropped clause still grows the session
        for lit in lits:
            v = lit if lit > 0 else -lit
            if v > nvars:
                self.ensure_vars(v)
                nvars = v
            if not keep:
                continue
            val = assign[v]
            if val is None:
                if lit in out:
                    continue
                if -lit in out:
                    keep = False  # tautology
                    continue
                out.append(lit)
            elif val == (lit > 0):
                keep = False  # permanently satisfied
        if not keep:
            return
        if not out:
            self._ok = False
        elif len(out) == 1:
            self._enqueue(out[0], None)
            if self._propagate() is not None:
                self._ok = False
        else:
            self._attach(out)

    def _attach(self, clause: list[int]) -> None:
        self._clauses.append(clause)
        self._watches[clause[0]].append(clause)
        self._watches[clause[1]].append(clause)

    # ------------------------------------------------------------------
    # core CDCL machinery

    def _enqueue(self, lit: int, reason: Optional[list[int]]) -> None:
        v = abs(lit)
        self._assign[v] = lit > 0
        self._level[v] = len(self._trail_lim)
        self._reason[v] = reason
        self._trail.append(lit)

    def _propagate(self) -> Optional[list[int]]:
        while self._qhead < len(self._trail):
            lit = self._trail[self._qhead]
            self._qhead += 1
            self.stats.propagations += 1
            false_lit = -lit
            ws = self._watches[false_lit]
            self._watches[false_lit] = kept = []
            i = 0
            while i < len(ws):
                clause = ws[i]
                i += 1
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) is True:
                    kept.append(clause)
                    continue
                for k in range(2, len(clause)):
                    if self._value(clause[k]) is not False:
                        clause[1], clause[k] = clause[k], clause[1]
                        self._watches[clause[1]].append(clause)
                        break
                else:
                    kept.append(clause)
                    if self._value(first) is False:
                        kept.extend(ws[i:])
                        return clause
                    self._enqueue(first, clause)
        return None

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _new_level(self) -> None:
        self._trail_lim.append(len(self._trail))

    def _backtrack(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        limit = self._trail_lim[level]
        assign, reason, cursor = self._assign, self._reason, self._cursor
        for lit in self._trail[limit:]:
            v = lit if lit > 0 else -lit
            assign[v] = None
            reason[v] = None
            if v < cursor:
                cursor = v
        self._cursor = cursor
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._qhead = min(self._qhead, len(self._trail))

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP learning; returns (learned clause, backjump level)."""
        cur_level = self._decision_level()
        seen: set[int] = set()
        learned_tail: list[int] = []
        counter = 0
        p: Optional[int] = None
        index = len(self._trail) - 1
        clause: Sequence[int] = conflict
        while True:
            for q in clause:
                if p is not None and abs(q) == abs(p):
                    continue
                v = abs(q)
                if v in seen or self._level[v] == 0:
                    continue
                seen.add(v)
                if self._level[v] == cur_level:
                    counter += 1
                else:
                    learned_tail.append(q)
            while abs(self._trail[index]) not in seen:
                index -= 1
            p = self._trail[index]
            v = abs(p)
            seen.discard(v)
            index -= 1
            counter -= 1
            if counter == 0:
                break
            clause = self._reason[v]
        learned = [-p] + sorted(learned_tail, key=lambda l: -self._level[abs(l)])
        backjump = self._level[abs(learned[1])] if len(learned) > 1 else 0
        return learned, backjump

    def _pick_branch_lit(self) -> Optional[int]:
        assign, v, top = self._assign, self._cursor, self.nvars
        while v <= top and assign[v] is not None:
            v += 1
        self._cursor = v
        return v if v <= top else None

    def _analyze_final(self, failed: int) -> frozenset[int]:
        """Assumptions implicated in forcing the failed assumption false."""
        core = {failed}
        if not self._trail_lim:
            return frozenset(core)
        seen = {abs(failed)}
        bottom = self._trail_lim[0]
        for i in range(len(self._trail) - 1, bottom - 1, -1):
            lit = self._trail[i]
            v = abs(lit)
            if v not in seen:
                continue
            reason = self._reason[v]
            if reason is None:
                core.add(lit)  # an assumption decision
            else:
                for q in reason:
                    if abs(q) != v and self._level[abs(q)] > 0:
                        seen.add(abs(q))
            seen.discard(v)
        return frozenset(core)

    # ------------------------------------------------------------------
    # public solving API

    def solve(self, assumptions: Sequence[int] = ()) -> SolveResult:
        """Complete decision under the given assumption literals."""
        start = time.perf_counter()
        try:
            return self._solve(list(assumptions))
        finally:
            self.stats.wall_s += time.perf_counter() - start

    def _solve(self, assumptions: list[int]) -> SolveResult:
        if 0 in assumptions:
            raise ValueError(f"assumptions {assumptions} hold literal 0")
        self.stats.solve_calls += 1
        for lit in assumptions:
            self.ensure_vars(abs(lit))
        if not self._ok:
            return SolveResult(UNSAT, core=frozenset())
        self._backtrack(0)
        self._qhead = 0
        conflicts_here = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_here += 1
                if self._decision_level() == 0:
                    self._ok = False
                    return SolveResult(UNSAT, core=frozenset())
                if self.conflict_budget is not None and conflicts_here > self.conflict_budget:
                    self._backtrack(0)
                    raise BudgetExceededError(
                        f"conflict budget {self.conflict_budget} exceeded")
                learned, backjump = self._analyze(conflict)
                self._backtrack(backjump)
                if len(learned) == 1:
                    self._enqueue(learned[0], None)
                else:
                    self._attach(learned)
                    self._enqueue(learned[0], learned)
                continue
            level = self._decision_level()
            if level < len(assumptions):
                a = assumptions[level]
                val = self._value(a)
                if val is True:
                    self._new_level()  # placeholder level keeps indexing aligned
                    continue
                if val is False:
                    core = self._analyze_final(a)
                    self._backtrack(0)
                    return SolveResult(UNSAT, core=core)
                self._new_level()
                self._enqueue(a, None)
                continue
            lit = self._pick_branch_lit()
            if lit is None:
                model = {v: bool(self._assign[v]) for v in range(1, self.nvars + 1)}
                self._check_model(model)
                self._backtrack(0)
                return SolveResult(SAT, model=model)
            self.stats.decisions += 1
            self._new_level()
            self._enqueue(lit, None)

    def _check_model(self, model: dict[int, bool]) -> None:
        # cheap total soundness check before a model ever leaves the engine
        for clause in self._original:
            for lit in clause:
                if model[abs(lit)] == (lit > 0):
                    break
            else:
                raise AssertionError(f"model fails clause {clause}")


def lit_true(model: dict[int, bool], lit: int) -> bool:
    return model[abs(lit)] == (lit > 0)


def solve_clauses(nvars: int, clauses: Iterable[Iterable[int]],
                  assumptions: Sequence[int] = (),
                  conflict_budget: Optional[int] = None) -> SolveResult:
    """One-shot decision for a clause list."""
    session = SolverSession(nvars, conflict_budget=conflict_budget)
    for clause in clauses:
        session.add_clause(clause)
    return session.solve(assumptions)


@dataclass(frozen=True)
class MaxSatResult:
    status: str
    model: Optional[dict[int, bool]]
    optimum: int


def _at_least_counter(session: SolverSession, lits: Sequence[int]) -> list[int]:
    """Sequential counter; returns outputs where outputs[k-1] forces >= k true.

    Built once per session and soft set: the clauses only constrain the
    fresh counter variables, so they leave every later question about the
    hard clauses unchanged.
    """
    key = tuple(lits)
    if key in session._counters:
        return session._counters[key]
    n = len(lits)
    prev: list[int] = []
    for i in range(1, n + 1):
        lit = lits[i - 1]
        base = session.nvars
        session.ensure_vars(base + i)
        cur = list(range(base + 1, base + i + 1))
        for j in range(1, len(cur) + 1):
            c = cur[j - 1]
            above = prev[j - 1] if j - 1 < len(prev) else None  # c[i-1][j]
            diag = prev[j - 2] if j >= 2 else None              # c[i-1][j-1]
            if above is not None:
                session.add_clause([-c, above, lit])
                if j >= 2:
                    session.add_clause([-c, above, diag])
            else:
                session.add_clause([-c, lit])
                if j >= 2:
                    session.add_clause([-c, diag])
        prev = cur
    session._counters[key] = prev
    return prev


def maximize_soft(session: SolverSession, soft_lits: Sequence[int],
                  assumptions: Sequence[int] = ()) -> MaxSatResult:
    """Maximize the number of satisfied soft literals (all weight one).

    Linear search on the count: start from a model, demand one more satisfied
    soft via an incremental cardinality counter until that fails.
    """
    result = session.solve(assumptions)
    if not result.is_sat:
        return MaxSatResult(UNSAT, None, 0)
    best_model = result.model
    best = sum(1 for l in soft_lits if lit_true(best_model, l))
    if soft_lits and best < len(soft_lits):
        outputs = _at_least_counter(session, soft_lits)
        k = best + 1
        while k <= len(soft_lits):
            result = session.solve(list(assumptions) + [outputs[k - 1]])
            if not result.is_sat:
                break
            best_model = result.model
            best = sum(1 for l in soft_lits if lit_true(best_model, l))
            k = best + 1
    return MaxSatResult(SAT, best_model, best)


def enumerate_mus(session: SolverSession,
                  soft_lits: Sequence[int]) -> list[frozenset[int]]:
    """All minimal subsets of soft literals unsatisfiable with the hard clauses.

    Seed-shrink loop over a map of unexplored subsets. A satisfiable seed is
    blocked from below at the softs its model satisfies rather than grown to
    a maximal satisfiable subset: every subset of a satisfiable set is
    satisfiable, so the block loses no MUS, and the seed lies inside the set,
    so the map loses the seed and the loop ends. An unsatisfiable seed is
    shrunk to a minimal core in one pass over its softs and blocked from
    above. If the hard clauses alone are unsatisfiable the marker
    [frozenset()] is returned.
    """
    # asked once up front: otherwise every seed would shrink to the empty
    # core one soft per solve call
    if not session.solve().is_sat:
        return [frozenset()]
    map_session = SolverSession(len(soft_lits),
                                conflict_budget=session.conflict_budget,
                                stats=session.stats)
    muses: list[frozenset[int]] = []
    m = len(soft_lits)
    while True:
        seed_res = map_session.solve()
        if not seed_res.is_sat:
            break
        chosen = [i for i in range(m) if seed_res.model[i + 1]]
        test = session.solve([soft_lits[i] for i in chosen])
        if test.is_sat:
            excluded = [i + 1 for i in range(m)
                        if not lit_true(test.model, soft_lits[i])]
            if not excluded:
                break  # every soft fits at once: no MUS can exist
            map_session.add_clause(excluded)
        else:
            core = test.core or frozenset()
            cur = [i for i in chosen if soft_lits[i] in core] or list(chosen)
            i = 0
            while i < len(cur):
                trial = cur[:i] + cur[i + 1:]
                probe = session.solve([soft_lits[j] for j in trial])
                if probe.is_sat:
                    i += 1
                else:  # cur[:i] are necessary, so the core keeps them in front
                    kept = [j for j in trial
                            if probe.core and soft_lits[j] in probe.core]
                    cur = kept or trial
            muses.append(frozenset(soft_lits[j] for j in cur))
            map_session.add_clause([-(j + 1) for j in cur])
    muses.sort(key=lambda s: (len(s), sorted(s)))
    return muses
