"""Domain model for prioritized knowledge bases at the conflict-graph level.

Facts are dense non-negative integers (labels are kept separately, for
reporting only). Conflicts are unordered fact pairs plus a set of
self-inconsistent facts; the priority relation is an acyclic set of ordered
pairs, each covering a conflict pair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

FactId = int


def _norm_pair(a: FactId, b: FactId) -> tuple[FactId, FactId]:
    return (a, b) if a < b else (b, a)


class ConflictSet:
    """Binary conflicts plus self-inconsistent (unary-conflict) facts."""

    __slots__ = ("pairs", "self_inconsistent", "_adj")

    def __init__(self, pairs: Iterable[tuple[FactId, FactId]],
                 self_inconsistent: Iterable[FactId] = ()):
        normalized = set()
        for a, b in pairs:
            if a == b:
                raise ValueError(f"conflict pair ({a},{b}) relates a fact to itself")
            normalized.add(_norm_pair(a, b))
        self.pairs: frozenset[tuple[FactId, FactId]] = frozenset(normalized)
        self.self_inconsistent: frozenset[FactId] = frozenset(self_inconsistent)
        adj: dict[FactId, set[FactId]] = {}
        for a, b in self.pairs:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        self._adj = {f: frozenset(ns) for f, ns in adj.items()}

    def facts(self) -> frozenset[FactId]:
        """All facts that occur in some conflict (binary or unary)."""
        return frozenset(self._adj) | self.self_inconsistent

    def neighbors(self, fact: FactId) -> frozenset[FactId]:
        return self._adj.get(fact, frozenset())

    def conflicts_with(self, a: FactId, b: FactId) -> bool:
        return _norm_pair(a, b) in self.pairs

    def sorted_pairs(self) -> list[tuple[FactId, FactId]]:
        return sorted(self.pairs)

    def __eq__(self, other):
        return (isinstance(other, ConflictSet)
                and self.pairs == other.pairs
                and self.self_inconsistent == other.self_inconsistent)

    def __hash__(self):
        return hash((self.pairs, self.self_inconsistent))

    def __repr__(self):
        return f"ConflictSet(pairs={sorted(self.pairs)}, self_inconsistent={sorted(self.self_inconsistent)})"


class PriorityRelation:
    """Ordered pairs (a, b) meaning fact a is preferred to conflicting fact b."""

    __slots__ = ("edges", "_above")

    def __init__(self, edges: Iterable[tuple[FactId, FactId]] = ()):
        self.edges: frozenset[tuple[FactId, FactId]] = frozenset(tuple(e) for e in edges)
        above: dict[FactId, set[FactId]] = {}
        for a, b in self.edges:
            above.setdefault(b, set()).add(a)
        self._above = {f: frozenset(s) for f, s in above.items()}

    def prefers(self, a: FactId, b: FactId) -> bool:
        return (a, b) in self.edges

    def dominators_of(self, fact: FactId) -> frozenset[FactId]:
        """Facts preferred to `fact`."""
        return self._above.get(fact, frozenset())

    def is_empty(self) -> bool:
        return not self.edges

    def sorted_edges(self) -> list[tuple[FactId, FactId]]:
        return sorted(self.edges)

    def __eq__(self, other):
        return isinstance(other, PriorityRelation) and self.edges == other.edges

    def __hash__(self):
        return hash(self.edges)

    def __repr__(self):
        return f"PriorityRelation({sorted(self.edges)})"


EMPTY_PRIORITY = PriorityRelation()


@dataclass(frozen=True)
class PotentialAnswer:
    """A candidate answer with the fact sets that would support it.

    The sets may be supersets of minimal supports and may even contain
    conflicting or self-inconsistent facts; the filtering pipeline tolerates
    both.
    """

    answer_id: str
    causes: tuple[frozenset[FactId], ...]

    def __post_init__(self):
        if not self.causes:
            raise ValueError(f"answer {self.answer_id!r} has no causes")
        for c in self.causes:
            if not c:
                raise ValueError(f"answer {self.answer_id!r} has an empty cause")

    def all_facts(self) -> frozenset[FactId]:
        out: set[FactId] = set()
        for c in self.causes:
            out |= c
        return frozenset(out)


def make_answer(answer_id: str, causes: Iterable[Iterable[FactId]]) -> PotentialAnswer:
    return PotentialAnswer(answer_id, tuple(frozenset(c) for c in causes))


@dataclass(frozen=True)
class PriorityViolation:
    """First failed validity condition, with a witness."""

    kind: str  # "edge-not-conflict" | "symmetric-pair" | "cycle"
    witness: tuple

    def __str__(self):
        return f"{self.kind}: {self.witness}"


def validate_priority(conflicts: ConflictSet,
                      priority: PriorityRelation) -> Optional[PriorityViolation]:
    """Return None when valid, else a report naming the first violation.

    A valid relation orients only conflict pairs, never both directions of a
    pair, and is acyclic.
    """
    for a, b in sorted(priority.edges):
        if not conflicts.conflicts_with(a, b):
            return PriorityViolation("edge-not-conflict", (a, b))
    for a, b in sorted(priority.edges):
        if (b, a) in priority.edges:
            return PriorityViolation("symmetric-pair", (a, b))
    cycle = _find_cycle(priority.edges)
    if cycle is not None:
        return PriorityViolation("cycle", tuple(cycle))
    return None


def reaches(succ: Mapping[FactId, Iterable[FactId]], src: FactId,
            dst: FactId) -> bool:
    """Whether `dst` is reachable from `src` (itself included) along `succ`."""
    seen = {src}
    stack = [src]
    while stack:
        v = stack.pop()
        if v == dst:
            return True
        for w in succ.get(v, ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return False


def _find_cycle(edges: frozenset[tuple[FactId, FactId]]) -> Optional[list[FactId]]:
    """The first cycle a depth-first search meets, visiting roots and
    successors in sorted order; iterative, so long chains do not recurse."""
    succ: dict[FactId, list[FactId]] = {}
    for a, b in sorted(edges):
        succ.setdefault(a, []).append(b)
    done: set[FactId] = set()
    for root in sorted(succ):
        if root in done:
            continue
        path, on_path, pending = [root], {root}, [iter(succ[root])]
        while pending:
            for w in pending[-1]:
                if w in on_path:
                    return path[path.index(w):]
                if w not in done:
                    path.append(w)
                    on_path.add(w)
                    pending.append(iter(succ.get(w, ())))
                    break
            else:
                done.add(path[-1])
                on_path.remove(path.pop())
                pending.pop()
    return None


class DirectedConflictGraph:
    """Edge a -> b iff {a,b} is a conflict and a is not preferred to b."""

    __slots__ = ("out_edges",)

    def __init__(self, out_edges: Mapping[FactId, frozenset[FactId]]):
        self.out_edges = dict(out_edges)

    def out(self, fact: FactId) -> frozenset[FactId]:
        return self.out_edges.get(fact, frozenset())


def directed_conflict_graph(conflicts: ConflictSet,
                            priority: PriorityRelation) -> DirectedConflictGraph:
    """Build the directed conflict graph; self-inconsistent facts are excluded."""
    bad = conflicts.self_inconsistent
    out: dict[FactId, set[FactId]] = {}
    for a, b in conflicts.pairs:
        if a in bad or b in bad:
            continue
        out.setdefault(a, set())
        out.setdefault(b, set())
        if not priority.prefers(a, b):
            out[a].add(b)
        if not priority.prefers(b, a):
            out[b].add(a)
    return DirectedConflictGraph({f: frozenset(s) for f, s in out.items()})


def reachable_set(dcg: DirectedConflictGraph, seed: Iterable[FactId]) -> frozenset[FactId]:
    """Closure of `seed` under outgoing edges; seed facts are always included."""
    out = dcg.out
    result = set(seed)
    frontier = list(result)
    while frontier:
        for g in out(frontier.pop()):
            if g not in result:
                result.add(g)
                frontier.append(g)
    return frozenset(result)


def reachable_minus_set(dcg: DirectedConflictGraph, priority: PriorityRelation,
                        seed: Iterable[FactId]) -> frozenset[FactId]:
    """Fixpoint closure used by the variable-lean maximality encoding.

    Starting from the seed, repeatedly add every non-dominated contradictor of
    every fact preferred to a fact already in the set. `dcg` is the directed
    conflict graph of the same priority relation.
    """
    dominators, out = priority.dominators_of, dcg.out
    result = set(seed)
    frontier = list(result)
    while frontier:
        for b in dominators(frontier.pop()):
            for g in out(b):
                if g not in result:
                    result.add(g)
                    frontier.append(g)
    return frozenset(result)


def build_score_priority(conflicts: ConflictSet,
                         scores: Mapping[FactId, int]) -> PriorityRelation:
    """Orient each conflict pair toward the strictly higher score."""
    edges = []
    for a, b in conflicts.sorted_pairs():
        try:
            sa, sb = scores[a], scores[b]
        except KeyError as missing:
            raise ValueError(f"no score for conflicting fact {missing.args[0]}") from None
        if sa > sb:
            edges.append((a, b))
        elif sb > sa:
            edges.append((b, a))
    return PriorityRelation(edges)


def build_random_priority(conflicts: ConflictSet, p: float,
                          rng_seed: int) -> PriorityRelation:
    """Orient each conflict pair with probability p, skipping cyclic choices.

    Pairs are visited in sorted order and each draws its own orientation, so
    the result is reproducible for a fixed seed.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability p={p} outside [0, 1]")
    rng = random.Random(rng_seed)
    succ: dict[FactId, set[FactId]] = {}
    edges: list[tuple[FactId, FactId]] = []
    for a, b in conflicts.sorted_pairs():
        if rng.random() >= p:
            continue
        hi, lo = (a, b) if rng.random() < 0.5 else (b, a)
        if reaches(succ, lo, hi):
            continue  # hi -> lo would close a cycle
        edges.append((hi, lo))
        succ.setdefault(hi, set()).add(lo)
    return PriorityRelation(edges)


def is_score_structured(conflicts: ConflictSet, priority: PriorityRelation) -> bool:
    """Decide whether some scoring function induces the relation.

    Conflicting but incomparable pairs force equal scores, so collapse them
    into components and check that the strict preferences between components
    are acyclic.
    """
    parent: dict[FactId, FactId] = {}

    def find(x: FactId) -> FactId:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: FactId, y: FactId):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for a, b in conflicts.pairs:
        if not priority.prefers(a, b) and not priority.prefers(b, a):
            union(a, b)
    comp_edges = set()
    for a, b in priority.edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        comp_edges.add((ra, rb))
    return _find_cycle(frozenset(comp_edges)) is None


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


@dataclass(frozen=True)
class PrioritizedInstance:
    """A knowledge base reduced to its conflict structure plus candidate answers.

    The constructor validates the priority and that answer ids are distinct;
    its restrictions do not again."""

    universe: tuple[FactId, ...]
    conflicts: ConflictSet
    priority: PriorityRelation
    answers: tuple[PotentialAnswer, ...]
    labels: Mapping[FactId, str] = field(default_factory=dict)

    def __post_init__(self):
        self._check_facts()
        seen: set[str] = set()
        for ans in self.answers:
            if ans.answer_id in seen:
                raise ValueError(f"duplicate answer id {ans.answer_id!r}")
            seen.add(ans.answer_id)
        violation = validate_priority(self.conflicts, self.priority)
        if violation is not None:
            raise ValueError(f"invalid priority relation, {violation}")

    def _check_facts(self) -> None:
        known = set(self.universe)
        if len(known) != len(self.universe):
            raise ValueError("duplicate fact ids in universe")
        for group in (self.conflicts.facts(), *(a.all_facts() for a in self.answers)):
            stray = group - known
            if stray:
                raise ValueError(f"facts {sorted(stray)} not declared in the universe")

    def _restricted(self, universe, conflicts, priority, answers) -> "PrioritizedInstance":
        """This instance on part of its facts, conflicts and priority edges; a
        restriction of a valid priority is valid, so only facts are checked."""
        out = object.__new__(PrioritizedInstance)
        out.__dict__.update(universe=universe, conflicts=conflicts, priority=priority,
                            answers=tuple(answers), labels=self.labels)
        out._check_facts()
        return out

    def label(self, fact: FactId) -> str:
        return self.labels.get(fact, str(fact))

    @cached_property
    def _dcg(self) -> DirectedConflictGraph:
        return directed_conflict_graph(self.conflicts, self.priority)

    def dcg(self) -> DirectedConflictGraph:
        return self._dcg

    @cached_property
    def score_structured(self) -> bool:
        return is_score_structured(self.conflicts, self.priority)

    @cached_property
    def _priority_free(self) -> "PrioritizedInstance":
        return self._restricted(self.universe, self.conflicts, EMPTY_PRIORITY,
                                self.answers)

    def without_priority(self) -> "PrioritizedInstance":
        """This instance with an empty priority, as subset repairs read it;
        built once per instance, so what it derives is too."""
        return self if self.priority.is_empty() else self._priority_free

    def with_priority(self, priority: PriorityRelation) -> "PrioritizedInstance":
        return PrioritizedInstance(self.universe, self.conflicts, priority,
                                   self.answers, self.labels)

    def with_answers(self, answers: Sequence[PotentialAnswer]) -> "PrioritizedInstance":
        """`answers` in place of the answers, sharing the graph."""
        out = self._restricted(self.universe, self.conflicts, self.priority, answers)
        out.__dict__["_dcg"] = self._dcg
        return out

    @cached_property
    def grounded(self) -> tuple[frozenset[FactId], frozenset[FactId], frozenset[FactId]]:
        return grounded_facts(self)

    @cached_property
    def _restrictions(self) -> dict[frozenset[FactId], "PrioritizedInstance"]:
        return {}

    def without_facts(self, drop: frozenset[FactId]) -> "PrioritizedInstance":
        """This instance on the facts outside `drop`, with their conflicts and
        priority edges and no answers; built once per dropped set, with its
        own graph."""
        if drop not in self._restrictions:
            kept = drop.isdisjoint
            self._restrictions[drop] = self._restricted(
                tuple(f for f in self.universe if f not in drop),
                ConflictSet(filter(kept, self.conflicts.pairs),
                            self.conflicts.self_inconsistent - drop),
                PriorityRelation(filter(kept, self.priority.edges)), ())
        return self._restrictions[drop]


def make_instance(universe: Iterable[FactId],
                  conflict_pairs: Iterable[tuple[FactId, FactId]],
                  priority_edges: Iterable[tuple[FactId, FactId]] = (),
                  answers: Iterable[PotentialAnswer] = (),
                  self_inconsistent: Iterable[FactId] = (),
                  labels: Optional[Mapping[FactId, str]] = None) -> PrioritizedInstance:
    return PrioritizedInstance(
        tuple(sorted(set(universe))),
        ConflictSet(conflict_pairs, self_inconsistent),
        PriorityRelation(priority_edges),
        tuple(answers),
        dict(labels or {}),
    )
