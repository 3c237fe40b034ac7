"""Brute-force ground truth for repairs and query answers on small instances.

Enumerates maximal conflict-free subsets, filters them down to the preference
aware families, and evaluates all three answer semantics directly from their
definitions. Everything here is exponential and capped; it exists to validate
the SAT pipeline, not to scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import CapacityError
from .model import FactId, PrioritizedInstance, reaches

DEFAULT_FACT_CAP = 22
DEFAULT_PAIR_CAP = 16


@dataclass(frozen=True)
class RepairFamily:
    kind: str  # "s" | "p" | "c"
    repairs: tuple[frozenset[FactId], ...]
    completion_count: Optional[int] = None

    def as_set(self) -> frozenset[frozenset[FactId]]:
        return frozenset(self.repairs)

    def intersection(self) -> frozenset[FactId]:
        if not self.repairs:
            return frozenset()
        out = set(self.repairs[0])
        for r in self.repairs[1:]:
            out &= r
        return frozenset(out)


def _core(instance: PrioritizedInstance):
    """Conflicting facts, their adjacency, and the always-safe free facts.

    Self-inconsistent facts belong to no repair, and conflicts touching them
    never constrain anything else, so both are dropped here.
    """
    bad = instance.conflicts.self_inconsistent
    pairs = [(a, b) for a, b in instance.conflicts.sorted_pairs()
             if a not in bad and b not in bad]
    nodes = sorted({f for p in pairs for f in p})
    adj = {v: set() for v in nodes}
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    free = frozenset(instance.universe) - set(nodes) - bad
    return nodes, pairs, adj, free


def _maximal_independent_sets(nodes, adj):
    """All maximal independent sets, via pivoted clique search on the complement."""
    node_set = set(nodes)
    comp = {v: node_set - adj[v] - {v} for v in nodes}
    found = []

    def extend(current, candidates, excluded):
        if not candidates and not excluded:
            found.append(frozenset(current))
            return
        pivot = max(sorted(candidates | excluded), key=lambda u: len(comp[u] & candidates))
        for v in sorted(candidates - comp[pivot]):
            extend(current | {v}, candidates & comp[v], excluded & comp[v])
            candidates = candidates - {v}
            excluded = excluded | {v}

    extend(set(), set(nodes), set())
    return found


def enumerate_repairs(instance: PrioritizedInstance) -> RepairFamily:
    """All inclusion-maximal conflict-free fact sets."""
    nodes, _pairs, adj, free = _core(instance)
    if len(nodes) > DEFAULT_FACT_CAP:
        raise CapacityError(
            f"{len(nodes)} conflicting facts exceed the cap {DEFAULT_FACT_CAP}")
    if not nodes:
        return RepairFamily("s", (frozenset(free),))
    repairs = sorted({mis | free for mis in _maximal_independent_sets(nodes, adj)},
                     key=sorted)
    return RepairFamily("s", tuple(repairs))


def _beats_via_single_fact(instance, repair, nodes, adj) -> Optional[FactId]:
    """A fact outside the repair preferred to all of its in-repair rivals.

    Adding such a fact and dropping exactly its rivals is an improvement;
    `enumerate_pareto_repairs` says why the converse holds too.
    """
    prefers = instance.priority.prefers
    for b in nodes:
        if b in repair:
            continue
        rivals = adj[b] & repair
        if rivals and all(prefers(b, a) for a in rivals):
            return b
    return None


def enumerate_pareto_repairs(instance: PrioritizedInstance) -> RepairFamily:
    """Repairs no set of facts improves upon (Pareto-optimal repairs).

    A consistent set improves a repair when one of its facts outside the
    repair is preferred to every fact of the repair it drops. The single-fact
    test is exact (Staworko, Chomicki & Marcinkowski, 2012): that fact has
    rivals in a maximal repair, a consistent set containing it drops them all,
    so it is preferred to each of them.
    """
    base = enumerate_repairs(instance)
    nodes, _pairs, adj, _free = _core(instance)
    return RepairFamily("p", tuple(
        repair for repair in base.repairs
        if _beats_via_single_fact(instance, repair, nodes, adj) is None))


def _unique_repair_for_total_order(nodes, adj, pred, free):
    """Peel off non-dominated facts, discard their rivals, repeat."""
    remaining = set(nodes)
    repair = set(free)
    while remaining:
        top = {a for a in remaining if not (pred[a] & remaining)}
        repair |= top
        losers = {a for a in remaining - top if adj[a] & top}
        remaining -= top
        remaining -= losers
    return frozenset(repair)


def enumerate_completion_repairs(instance: PrioritizedInstance) -> RepairFamily:
    """Repairs optimal under some acyclic total orientation of the conflicts.

    Enumerates every acyclic completion of the priority relation over the
    conflict pairs (pruning cyclic branches early) and collects the unique
    optimal repair each induces.
    """
    nodes, pairs, adj, free = _core(instance)
    prefers = instance.priority.prefers
    fixed = [(a, b) for a, b in pairs if prefers(a, b)] + \
            [(b, a) for a, b in pairs if prefers(b, a)]
    open_pairs = [(a, b) for a, b in pairs
                  if not prefers(a, b) and not prefers(b, a)]
    if len(open_pairs) > DEFAULT_PAIR_CAP:
        raise CapacityError(f"{len(open_pairs)} unoriented conflict pairs exceed "
                            f"the cap {DEFAULT_PAIR_CAP}")

    succ = {v: set() for v in nodes}
    pred = {v: set() for v in nodes}
    for a, b in fixed:
        succ[a].add(b)
        pred[b].add(a)

    repairs: set[frozenset[FactId]] = set()
    count = 0

    def orient(i):
        nonlocal count
        if i == len(open_pairs):
            count += 1
            repairs.add(_unique_repair_for_total_order(nodes, adj, pred, free))
            return
        a, b = open_pairs[i]
        for hi, lo in ((a, b), (b, a)):
            if reaches(succ, lo, hi):
                continue  # this orientation would close a cycle
            succ[hi].add(lo)
            pred[lo].add(hi)
            orient(i + 1)
            succ[hi].remove(lo)
            pred[lo].remove(hi)

    if nodes:
        orient(0)
    else:
        count = 1
        repairs.add(frozenset(free))
    return RepairFamily("c", tuple(sorted(repairs, key=sorted)),
                        completion_count=count)


def repair_family(instance: PrioritizedInstance, repair_type: str) -> RepairFamily:
    if repair_type == "s":
        return enumerate_repairs(instance)
    if repair_type == "p":
        return enumerate_pareto_repairs(instance)
    if repair_type == "c":
        return enumerate_completion_repairs(instance)
    raise ValueError(f"unknown repair type {repair_type!r}")


@dataclass(frozen=True)
class OracleAnswers:
    answers: frozenset[str]
    intersection: Optional[frozenset[FactId]] = None


def oracle_answers(instance: PrioritizedInstance, semantics: str,
                   repair_type: str) -> OracleAnswers:
    """Evaluate a semantics directly over the enumerated repair family."""
    return family_answers(instance, repair_family(instance, repair_type), semantics)


def family_answers(instance: PrioritizedInstance, family: RepairFamily,
                   semantics: str) -> OracleAnswers:
    """Evaluate a semantics over a repair family built once.

    A repair supports an answer when it contains one of its listed supporting
    sets (supersets and inconsistent sets are harmless: the former witness
    entailment exactly like the real support they contain, the latter fit in
    no repair).
    """
    def entails(repair, answer):
        return any(cause <= repair for cause in answer.causes)

    if semantics == "brave":
        names = {a.answer_id for a in instance.answers
                 if any(entails(r, a) for r in family.repairs)}
        return OracleAnswers(frozenset(names))
    if semantics == "ar":
        names = {a.answer_id for a in instance.answers
                 if family.repairs and all(entails(r, a) for r in family.repairs)}
        return OracleAnswers(frozenset(names))
    if semantics == "iar":
        body = family.intersection()
        names = {a.answer_id for a in instance.answers
                 if any(cause <= body for cause in a.causes)}
        return OracleAnswers(frozenset(names), intersection=body)
    raise ValueError(f"unknown semantics {semantics!r}")
