"""Answer filtering: preprocessing plus seven SAT-backed strategies.

Preprocessing runs the grounded fixpoint, which settles the answers that
facts safe in or lost from every optimal repair decide; a self-inconsistent
fact is in no repair, so it is lost from the start. For s and p
repairs, three admissible-set checks on the residue then settle more: brave
holds, iar fails or ar fails. Completion repairs are only some of the Pareto
ones, so c keeps the fixpoint's verdicts alone. The strategies get the rest
on the residual instance.

Every strategy computes the same answer set for a given semantics and repair
notion; they differ in how they drive the solver (one formula per answer,
one shared formula with soft activators maximized, enumerated as cores, or
assumed one at a time, plus cause- and fact-grained variants for the
intersection semantics). `STRATEGIES` is the one table of the strategies and
the semantics each computes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from .encoding import (MAXIMALITY, SEMANTICS, CnfFormula, EncodingSpec,
                       build_multi_formula, build_single_formula, max_variants)
from .errors import BudgetExceededError, PairingError
from .model import FactId, PotentialAnswer, PrioritizedInstance, make_answer
from .sat import UNSAT, SolverSession, SolverStats, enumerate_mus, maximize_soft

CLASS_TRIVIAL = "trivial"
CLASS_IAR = "iar-not-trivial"
CLASS_AR = "ar-not-iar"
CLASS_BRAVE = "brave-not-ar"
CLASS_NONE = "not-brave"


@dataclass(frozen=True)
class FilterRequest:
    instance: PrioritizedInstance
    spec: EncodingSpec
    algorithm: str
    conflict_budget: Optional[int] = None


@dataclass
class FilterReport:
    answers: frozenset[str]
    trivial_answers: frozenset[str]
    settled_answers: frozenset[str]
    removed_self_inconsistent: frozenset[FactId]
    # the instance the strategy solved, holding the answers left open
    residue: PrioritizedInstance
    timings_ms: dict[str, float]
    solver_stats: dict
    complete: bool = True


# ----------------------------------------------------------------------
# preprocessing


def remove_self_inconsistent(instance: PrioritizedInstance
                             ) -> tuple[PrioritizedInstance, frozenset[FactId]]:
    """Drop self-inconsistent facts, their conflicts, and the causes using them."""
    bad = instance.conflicts.self_inconsistent
    if not bad:
        return instance, frozenset()
    answers = []
    for ans in instance.answers:
        causes = [c for c in ans.causes if not (c & bad)]
        if causes:
            answers.append(PotentialAnswer(ans.answer_id, tuple(causes)))
    return instance.without_facts(bad, answers), frozenset(bad)


def grounded_facts(instance: PrioritizedInstance
                   ) -> tuple[frozenset[FactId], frozenset[FactId], frozenset[FactId]]:
    """The first-round safe facts, then all safe and all lost facts.

    The grounded extension of the attack relation "a attacks b iff they
    conflict and b is not preferred to a": a fact is safe once every partner
    it is not preferred to is lost, and the partners of a safe fact are lost.
    Safe facts are in every optimal repair, lost facts in none. A worklist
    keeps, per fact, the count of its directed-conflict-graph successors not
    yet lost, so the fixpoint costs one pass over the conflicts. A lost fact
    never runs out of successors: the safe fact that first beat it stays.
    A self-inconsistent fact is in no repair, so it is lost from the start.
    """
    dcg = instance.dcg()
    neighbors = instance.conflicts.neighbors
    lost = set(instance.conflicts.self_inconsistent)
    pending = {f: len(dcg.out(f)) for f in instance.universe if f not in lost}
    work = [f for f, n in pending.items() if not n]
    first = frozenset(work)
    safe: set[FactId] = set()
    while work:
        f = work.pop()
        safe.add(f)
        for g in neighbors(f):
            if g in lost:
                continue
            lost.add(g)
            for h in neighbors(g):
                if g in dcg.out(h):
                    pending[h] -= 1
                    if not pending[h]:
                        work.append(h)
    return first, frozenset(safe), frozenset(lost)


def _admissible_rule(instance: PrioritizedInstance, safe: frozenset[FactId],
                     lost: frozenset[FactId], semantics: str
                     ) -> Callable[[tuple[frozenset[FactId], ...]], Optional[bool]]:
    """The admissible-set check of `semantics` on the residue of s and p
    repairs: a function from an answer's conflict-free reduced causes to
    True or False where the check decides the answer, else None.

    The residue's optimal repairs are the stable extensions of the attack
    relation `dcg().out` lists (a fact's attackers), and under an acyclic
    priority every admissible set, one that counter-attacks each attacker
    of its facts, lies in one of them. An unbeaten fact, one that no
    partner is preferred to, is admissible alone, and so is a conflict-free
    set of unbeaten facts.
    """
    if semantics == "brave":
        out = instance.dcg().out

        def admissible(cause):
            return all(out(a) & cause for b in cause for a in out(b) - lost)
        return lambda causes: True if any(map(admissible, causes)) else None
    dominators = instance.priority.dominators_of
    neighbors = instance.conflicts.neighbors
    unbeaten = frozenset(f for f in instance.universe if f not in safe
                         and f not in lost and not dominators(f) - lost)
    if semantics == "iar":
        # an unbeaten fact's repair misses its partners
        contested = set().union(*map(neighbors, unbeaten))
        return lambda causes: False if all(c & contested for c in causes) else None

    def ar_refuted(causes):
        # for each cause no earlier pick has a partner in, pick an unbeaten
        # partner of one of its facts that clashes with no earlier pick: one
        # repair holds every pick and misses all their partners
        hit: set[FactId] = set()
        for cause in causes:
            if cause & hit:
                continue
            pick = next((u for f in cause for u in neighbors(f) & unbeaten
                         if u not in hit), None)
            if pick is None:
                return None
            hit |= neighbors(pick)
        return False
    return ar_refuted


def extract_trivial_answers(instance: PrioritizedInstance, repair: str,
                            semantics: str
                            ) -> tuple[tuple[str, ...], dict[str, bool],
                                       PrioritizedInstance]:
    """Settle what the grounded fixpoint and, for s and p repairs, the
    admissible-set checks decide, and return the rest.

    Returns the trivial answers (a cause lies within the first-round safe
    facts), the answers settled beyond those, and the instance to filter the
    remaining answers on, with their reduced causes: the causes holding no
    lost fact, stripped of safe facts. Safe facts are in every s, p and c
    repair and lost facts in none, so the fixpoint settles an answer under
    every semantics: True when a reduced cause is empty, False when none is
    left.

    For s and p repairs a cause that is not conflict-free is in no repair,
    so it is dropped too, and three checks on the residue follow, one per
    semantics (see `_admissible_rule`):
    - brave holds when a reduced cause is admissible. Without a priority
      every conflict-free cause is, so brave/s is decided exactly;
    - iar fails when every reduced cause holds a partner of an unbeaten
      fact. Without a priority every residual fact is unbeaten, so iar/s is
      decided exactly;
    - ar fails when a greedy conflict-free set of unbeaten facts has a
      partner in every reduced cause.
    Completion repairs are only some of the Pareto ones, so an admissible
    set need not lie in one, and c keeps the fixpoint's verdicts only.

    The returned instance also drops the safe and lost facts with their
    conflicts and priority edges where its `repair` repairs plus the safe
    facts are then the full ones: for s and p, and for c when the priority
    is score-structured. Under other priorities the dropped facts carry
    priority paths that constrain completions, so for c the facts stay.
    With no fact lost but self-inconsistent ones, every safe fact conflicts
    with those alone and dropping it would change nothing the encoders read,
    and with no answer left no strategy reads the instance, so it is kept,
    self-inconsistent facts included, in both cases.
    """
    first, safe, lost = grounded_facts(instance)
    decide = None if repair == "c" else _admissible_rule(instance, safe, lost,
                                                         semantics)
    neighbors = instance.conflicts.neighbors
    trivial: list[str] = []
    settled: dict[str, bool] = {}
    kept = []
    for ans in instance.answers:
        if any(c <= first for c in ans.causes):
            trivial.append(ans.answer_id)
            continue
        reduced = tuple(dict.fromkeys(c - safe for c in ans.causes if not c & lost))
        if decide is not None:
            reduced = tuple(c for c in reduced
                            if not any(neighbors(f) & c for f in c))
        if not reduced or not all(reduced):
            settled[ans.answer_id] = bool(reduced)
        elif decide is not None and (verdict := decide(reduced)) is not None:
            settled[ans.answer_id] = verdict
        else:
            kept.append(PotentialAnswer(ans.answer_id, reduced))
    if (kept and lost > instance.conflicts.self_inconsistent
            and (repair != "c" or instance.score_structured)):
        return tuple(trivial), settled, instance.without_facts(safe | lost, kept)
    return tuple(trivial), settled, instance.with_answers(kept)


def preprocess(instance: PrioritizedInstance, repair: str, semantics: str
               ) -> tuple[tuple[str, ...], dict[str, bool], PrioritizedInstance]:
    """Derive the instance the encoders read for `repair`: drop the priority
    for plain subset repairs, which ignore it, settle what the grounded
    fixpoint and the admissible-set checks of `semantics` decide, and drop
    the self-inconsistent facts the residue still holds.

    Returns the trivial and settled answers and the residual instance on
    which the strategies decide the remaining answers.
    """
    if repair == "s":
        instance = instance.without_priority()
    trivial, settled, residue = extract_trivial_answers(instance, repair,
                                                        semantics)
    return trivial, settled, remove_self_inconsistent(residue)[0]


# ----------------------------------------------------------------------
# the seven filtering strategies


@dataclass
class _Ctx:
    budget: Optional[int]
    stats: SolverStats = field(default_factory=SolverStats)
    held: set = field(default_factory=set)


def _verdict_is_hold(spec: EncodingSpec, is_sat: bool) -> bool:
    # every/intersection semantics hold on refutation, possibility on a model
    if spec.semantics in ("ar", "iar"):
        return not is_sat
    return is_sat


def _session(psi: CnfFormula, ctx: _Ctx) -> SolverSession:
    """Load one formula into the one session every question about it uses."""
    session = SolverSession(psi.nvars, conflict_budget=ctx.budget, stats=ctx.stats)
    for clause in psi.hard:
        session.add_clause(clause)
    return session


def _holds(instance, spec, answer, ctx) -> bool:
    """Decide one answer with a formula of its own."""
    psi = build_single_formula(instance, spec, answer)
    return _verdict_is_hold(spec, _session(psi, ctx).solve().is_sat)


def _sweep_activators(psi: CnfFormula, var_of: dict, one_round: bool,
                      ctx: _Ctx) -> set:
    """Keys of `var_of` whose activator is true in some model of `psi`.

    Maximize true activators, block each one observed, and repeat until no
    new one turns up; `one_round` stops after the first round, for formulas
    whose every reachable activator is reachable jointly. Every round asks
    the same session under assumptions.
    """
    session = _session(psi, ctx)
    observed: set = set()
    assumed: list[int] = []
    while len(observed) < len(var_of):
        res = maximize_soft(session, psi.soft_units, assumed)
        if res.status == UNSAT:
            break
        new = {key for key, v in var_of.items()
               if key not in observed and res.model[v]}
        if not new:
            break
        observed |= new
        assumed += [-var_of[key] for key in sorted(new)]
        if one_round:
            break
    return observed


def filter_simple(instance: PrioritizedInstance, spec: EncodingSpec, ctx: _Ctx) -> None:
    for ans in instance.answers:
        if _holds(instance, spec, ans, ctx):
            ctx.held.add(ans.answer_id)


def filter_all_maxsat(instance: PrioritizedInstance, spec: EncodingSpec,
                      ctx: _Ctx) -> None:
    """Sweep the answer activators of one shared formula.

    Under the intersection semantics one round suffices: each cause has its
    own variables, so every individually reachable activator is reachable
    jointly.
    """
    answers = instance.answers
    psi = build_multi_formula(instance, spec, list(answers))
    var_of = {a.answer_id: psi.answer_var(a.answer_id) for a in answers}
    observed = _sweep_activators(psi, var_of, spec.semantics == "iar", ctx)
    ctx.held |= {aid for aid in var_of if _verdict_is_hold(spec, aid in observed)}


def filter_all_muses(instance: PrioritizedInstance, spec: EncodingSpec,
                     ctx: _Ctx) -> None:
    """Singleton activator cores decide the verdicts outright."""
    answers = instance.answers
    psi = build_multi_formula(instance, spec, list(answers))
    muses = enumerate_mus(_session(psi, ctx), psi.soft_units)
    unsat_alone = {next(iter(s)) for s in muses if len(s) == 1}
    ctx.held |= {a.answer_id for a in answers
                 if _verdict_is_hold(spec, psi.answer_var(a.answer_id) not in unsat_alone)}


def filter_assumptions(instance: PrioritizedInstance, spec: EncodingSpec,
                       ctx: _Ctx) -> None:
    answers = instance.answers
    psi = build_multi_formula(instance, spec, list(answers))
    session = _session(psi, ctx)
    for ans in answers:
        res = session.solve([psi.answer_var(ans.answer_id)])
        if _verdict_is_hold(spec, res.is_sat):
            ctx.held.add(ans.answer_id)


def filter_cause_by_cause(instance: PrioritizedInstance, spec: EncodingSpec,
                          ctx: _Ctx) -> None:
    for ans in instance.answers:
        if any(_holds(instance, spec, make_answer(ans.answer_id, [cause]), ctx)
               for cause in ans.causes):
            ctx.held.add(ans.answer_id)


def filter_iar_causes(instance: PrioritizedInstance, spec: EncodingSpec,
                      ctx: _Ctx) -> None:
    """Check causes fact by fact, caching per-fact verdicts across answers."""
    iar_facts: set[FactId] = set()
    non_iar: set[FactId] = set()
    for ans in instance.answers:
        for cause in ans.causes:
            if ans.answer_id in ctx.held or cause & non_iar:
                continue
            all_iar = True
            for fact in sorted(cause - iar_facts):
                if _holds(instance, spec, make_answer(str(fact), [[fact]]), ctx):
                    iar_facts.add(fact)
                else:
                    non_iar.add(fact)
                    all_iar = False
                    break
            if all_iar:
                ctx.held.add(ans.answer_id)


def filter_iar_facts(instance: PrioritizedInstance, spec: EncodingSpec,
                     ctx: _Ctx) -> None:
    """Classify whole fact batches per answer with the activator sweep.

    A fact lies in the intersection of the optimal repairs iff it lies in
    every one of them, so each batch is one "ar" formula over one-fact
    answers.
    """
    fact_spec = replace(spec, semantics="ar")
    iar_facts: set[FactId] = set()
    non_iar: set[FactId] = set()
    for ans in instance.answers:
        relevant = ans.all_facts() - iar_facts - non_iar
        if relevant:
            facts = sorted(relevant)
            psi = build_multi_formula(instance, fact_spec,
                                      [make_answer(str(f), [[f]]) for f in facts])
            var_of = {f: psi.answer_var(str(f)) for f in facts}
            new_non = _sweep_activators(psi, var_of, False, ctx)
            iar_facts |= relevant - new_non
            non_iar |= new_non
        if ans.answer_id not in ctx.held:
            if any(not (cause - iar_facts) for cause in ans.causes):
                ctx.held.add(ans.answer_id)


# name -> (strategy, the semantics it computes)
STRATEGIES = {
    "simple": (filter_simple, SEMANTICS),
    "maxsat": (filter_all_maxsat, SEMANTICS),
    "muses": (filter_all_muses, SEMANTICS),
    "assume": (filter_assumptions, SEMANTICS),
    "cause": (filter_cause_by_cause, ("iar", "brave")),
    "iarcauses": (filter_iar_causes, ("iar",)),
    "iarfacts": (filter_iar_facts, ("iar",)),
}
ALGORITHMS = tuple(STRATEGIES)


def valid_pairing(semantics: str, algorithm: str) -> bool:
    return algorithm in STRATEGIES and semantics in STRATEGIES[algorithm][1]


# ----------------------------------------------------------------------
# the high-level pipeline


def answer_query(request: FilterRequest) -> FilterReport:
    """Preprocess, settle what the grounded fixpoint and the admissible-set
    checks decide, then run the chosen strategy on the rest."""
    spec = request.spec
    if not valid_pairing(spec.semantics, request.algorithm):
        raise PairingError(
            f"algorithm {request.algorithm!r} cannot compute {spec.semantics!r}")
    if spec.max_variant not in max_variants(spec.repair, request.instance):
        raise PairingError(
            "pareto-style maximality stands in for completion repairs only "
            "under score-structured priorities")
    t0 = time.perf_counter()
    trivial, settled, remaining = preprocess(request.instance, spec.repair,
                                             spec.semantics)
    t1 = time.perf_counter()

    ctx = _Ctx(budget=request.conflict_budget)
    complete = True
    if remaining.answers:
        try:
            STRATEGIES[request.algorithm][0](remaining, spec, ctx)
        except BudgetExceededError:
            complete = False
    t2 = time.perf_counter()

    return FilterReport(
        answers=(frozenset(trivial) | {a for a, held in settled.items() if held}
                 | ctx.held),
        trivial_answers=frozenset(trivial),
        settled_answers=frozenset(settled),
        removed_self_inconsistent=request.instance.conflicts.self_inconsistent,
        residue=remaining,
        timings_ms={"preprocess_ms": round((t1 - t0) * 1000.0, 3),
                    "filter_ms": round((t2 - t1) * 1000.0, 3)},
        solver_stats=ctx.stats.as_dict(),
        complete=complete,
    )


def classify_answers(instance: PrioritizedInstance, repair_type: str,
                     algorithm: str = "simple") -> dict[str, str]:
    """Bucket every answer by the strongest semantics it satisfies; requests
    run unbudgeted, as an answer left undecided would land in a weaker class.
    A known algorithm that cannot compute a semantics leaves it to `simple`."""
    if algorithm not in STRATEGIES:
        raise PairingError(f"unknown algorithm {algorithm!r}")
    if repair_type not in MAXIMALITY:
        raise ValueError(f"unknown repair type {repair_type!r}; "
                         f"expected one of {', '.join(MAXIMALITY)}")
    max_variant = MAXIMALITY[repair_type][0]
    reports = {}
    for sem in ("iar", "ar", "brave"):
        algo = algorithm if valid_pairing(sem, algorithm) else "simple"
        spec = EncodingSpec(sem, repair_type, max_variant, neg_variant=1)
        reports[sem] = answer_query(FilterRequest(instance, spec, algo))
    trivial = reports["iar"].trivial_answers
    out = {}
    for ans in instance.answers:
        aid = ans.answer_id
        if aid in trivial:
            out[aid] = CLASS_TRIVIAL
        elif aid in reports["iar"].answers:
            out[aid] = CLASS_IAR
        elif aid in reports["ar"].answers:
            out[aid] = CLASS_AR
        elif aid in reports["brave"].answers:
            out[aid] = CLASS_BRAVE
        else:
            out[aid] = CLASS_NONE
    return out
