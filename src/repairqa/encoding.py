"""Propositional encodings for repair-based query answering.

Builds CNF formulas whose models correspond to partial fact selections
extendable to an optimal repair, combined with clauses that force or block
query supports. Two blocking-clause variants are supported, three maximality
encodings (plus the trivial one for plain subset repairs), and one assembler:
every answer gets an activator literal, and a single-answer formula is the
one-answer formula with its activator asserted. A cause or a fact is asked
as a one-cause answer. Each block adds its clauses to the formula and returns
the facts those clauses range over; maximality and consistency are scoped by
the facts the blocking or forcing clauses return. An `EncodingSpec` carries
every setting the assembler reads. The encoders read the instance they are
given; `filters.preprocess` derives it for the repair notion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import CapacityError
from .model import (FactId, PotentialAnswer, PrioritizedInstance,
                    reachable_minus_set, reachable_set)

VarKey = tuple

SEMANTICS = ("ar", "iar", "brave")
REPAIRS = ("s", "p", "c")
MAX_VARIANTS = ("s", "p1", "p2", "c")
# maximality encodings that may serve each repair notion, the default first;
# `max_variants` narrows this to an instance
MAXIMALITY = {"s": ("s",), "p": ("p1", "p2"), "c": ("c", "p1", "p2")}

DEFAULT_NODE_CAP = 64


def max_variants(repair: str, instance: PrioritizedInstance) -> tuple[str, ...]:
    """The maximality encodings serving `repair` on `instance`, the default
    first. The completion notion borrows "p1"/"p2" only under a
    score-structured priority, where its repairs are the pareto ones."""
    if repair == "c" and not instance.score_structured:
        return ("c",)
    return MAXIMALITY[repair]


@dataclass(frozen=True)
class EncodingSpec:
    """Which semantics, repair notion, maximality and blocking variants to use,
    the completion block's fact cap, and whether to drop its acyclicity rows
    (a known-bad mutation for the agreement harness). Whether the maximality
    serves the repair on a given instance is `max_variants`' rule.
    """

    semantics: str
    repair: str
    max_variant: str
    neg_variant: int = 1
    node_cap: int = DEFAULT_NODE_CAP
    omit_acyclicity: bool = False

    def __post_init__(self):
        if self.semantics not in SEMANTICS:
            raise ValueError(f"unknown semantics {self.semantics!r}")
        if self.repair not in REPAIRS:
            raise ValueError(f"unknown repair type {self.repair!r}")
        if self.max_variant not in MAX_VARIANTS:
            raise ValueError(f"unknown maximality variant {self.max_variant!r}")
        if self.neg_variant not in (1, 2):
            raise ValueError(f"blocking variant must be 1 or 2, got {self.neg_variant}")
        if type(self.node_cap) is not int or self.node_cap < 1:
            raise ValueError(f"node cap must be a positive int, got {self.node_cap!r}")
        if self.max_variant not in MAXIMALITY[self.repair]:
            raise ValueError(
                f"maximality {self.max_variant!r} incompatible with repair {self.repair!r}")


class CnfFormula:
    """Interned tagged variables, hard clauses, and unit soft literals.

    Hard clauses are kept as emitted, repeats included (about 1% of them): a
    solver session takes a repeat with the same decisions, conflicts and
    verdicts.
    """

    def __init__(self):
        self.keys: list[VarKey] = []
        self.index: dict[VarKey, int] = {}
        self.hard: list[tuple[int, ...]] = []
        self.soft_units: list[int] = []

    # -- variables ------------------------------------------------------

    def var(self, key: VarKey) -> int:
        idx = self.index.get(key)
        if idx is None:
            self.keys.append(key)
            idx = len(self.keys)
            self.index[key] = idx
        return idx

    def fact_var(self, fact: FactId, ns: Optional[int] = None) -> int:
        return self.var(("fact", ns, fact))

    def answer_var(self, answer_id: str) -> int:
        return self.var(("answer", answer_id))

    def key_of(self, var: int) -> VarKey:
        return self.keys[var - 1]

    @property
    def nvars(self) -> int:
        return len(self.keys)

    # -- clauses --------------------------------------------------------

    def add(self, lits: Iterable[int]) -> None:
        self.hard.append(tuple(lits))

    def add_soft_unit(self, var: int) -> None:
        if var not in self.soft_units:
            self.soft_units.append(var)


# ----------------------------------------------------------------------
# building blocks


def _sorted_out(instance: PrioritizedInstance, fact: FactId) -> list[FactId]:
    return sorted(instance.dcg().out(fact))


def encode_neg_cause(formula: CnfFormula, instance: PrioritizedInstance,
                     cause: Iterable[FactId], variant: int, activator: VarKey,
                     ns: Optional[int] = None) -> frozenset[FactId]:
    """Clauses stating that the cause does not survive in the selected repair.

    Variant 1 emits a single clause of non-dominated contradictors; variant 2
    additionally justifies each cause fact individually. The activator's
    negation guards the (first) clause, so a cause with no contradictor at
    all leaves the activator false in every model: the cause always survives.
    Returns the contradictors, plus the cause itself for variant 2.
    """
    cause = sorted(set(cause))
    bad = set(cause) & instance.conflicts.self_inconsistent
    if bad:
        raise ValueError(f"cause contains self-inconsistent facts {sorted(bad)}; "
                         "preprocess the instance first")
    guard = -formula.var(activator)
    if variant == 1:
        lits = [guard]
        seen: set[FactId] = set()
        for a in cause:
            for b in _sorted_out(instance, a):
                if b not in seen:
                    seen.add(b)
                    lits.append(formula.fact_var(b, ns))
        formula.add(lits)
        return frozenset(seen)
    formula.add([guard] + [-formula.fact_var(a, ns) for a in cause])
    read = set(cause)
    for a in cause:
        out = _sorted_out(instance, a)
        read.update(out)
        formula.add([formula.fact_var(a, ns)] + [formula.fact_var(b, ns) for b in out])
    return frozenset(read)


def encode_neg_query(formula: CnfFormula, instance: PrioritizedInstance,
                     answer: PotentialAnswer, variant: int) -> frozenset[FactId]:
    """Block every cause of the answer, each block guarded by the answer's
    activator variable. Returns the facts the blocks read."""
    activator = ("answer", answer.answer_id)
    read: set[FactId] = set()
    for cause in answer.causes:
        read |= encode_neg_cause(formula, instance, cause, variant,
                                 activator=activator)
    return frozenset(read)


def encode_pos_query(formula: CnfFormula,
                     answer: PotentialAnswer) -> frozenset[FactId]:
    """Require some cause of the answer to be fully selected when the
    answer's activator is true. Returns the facts of its causes."""
    selectors = [formula.var(("causesel", answer.answer_id, i))
                 for i in range(len(answer.causes))]
    formula.add([-formula.answer_var(answer.answer_id)] + selectors)
    for sel, cause in zip(selectors, answer.causes):
        for a in sorted(cause):
            formula.add([-sel, formula.fact_var(a)])
    return answer.all_facts()


def encode_consistency(formula: CnfFormula, instance: PrioritizedInstance,
                       scope: Iterable[FactId],
                       ns: Optional[int] = None) -> None:
    """No conflict pair inside the scope may be selected together."""
    scope = set(scope)
    for a, b in instance.conflicts.sorted_pairs():
        if a in scope and b in scope:
            formula.add([-formula.fact_var(a, ns), -formula.fact_var(b, ns)])


def encode_max(formula: CnfFormula, instance: PrioritizedInstance, variant: str,
               scope: Iterable[FactId], ns: Optional[int] = None,
               node_cap: int = DEFAULT_NODE_CAP,
               omit_acyclicity: bool = False) -> frozenset[FactId]:
    """Clauses ensuring the selection extends to an optimal repair.

    Returns the closure the clauses range over. The "s" variant is empty
    (every consistent set extends to a maximal one). "p1" works over the
    reachability closure of the scope, "p2" over the leaner dominator-driven
    closure, whose undominated facts get no row but stay in the returned
    scope of consistency, and "c" over the reachability closure with kill
    arcs: every dropped fact picks a kept partner it is not preferred to, and
    those arcs plus the priority must form no cycle (Staworko, Chomicki &
    Marcinkowski, 2012). Transitive-closure rows start only from the smaller
    end of each open pair; they are unit or binary over priority arcs and
    ternary only over open kill arcs, so the block grows with open pairs times
    arcs. The closure is capped.
    """
    if variant == "s":
        return frozenset()
    dcg = instance.dcg()
    if variant == "p1":
        reach = reachable_set(dcg, scope)
        for a in sorted(reach):
            formula.add([formula.fact_var(a, ns)]
                        + [formula.fact_var(b, ns) for b in sorted(dcg.out(a))])
        return reach

    if variant == "p2":
        # the closure already holds every row's body
        closure = reachable_minus_set(dcg, instance.priority, scope)
        for a in sorted(closure):
            for b in sorted(instance.priority.dominators_of(a)):
                formula.add([-formula.fact_var(a, ns)]
                            + [formula.fact_var(g, ns) for g in sorted(dcg.out(b))])
        return closure

    if variant == "c":
        reach = reachable_set(dcg, scope)
        if len(reach) > node_cap:
            raise CapacityError(
                f"completion encoding over {len(reach)} facts exceeds the cap of "
                f"{node_cap}; raise the cap explicitly to proceed")

        def pref(src, dst):
            return formula.var(("pref", ns, src, dst))

        def trans(a, b):
            return formula.var(("trans", ns, a, b))

        # a dropped fact needs a kill arc from a kept partner it is not
        # preferred to
        for a in sorted(reach):
            partners = sorted(dcg.out(a))
            formula.add([formula.fact_var(a, ns)] + [pref(b, a) for b in partners])
            for b in partners:
                formula.add([-pref(b, a), formula.fact_var(b, ns)])
        if not omit_acyclicity:
            # the kill arcs and the priority must form no cycle; the priority
            # is acyclic, so every cycle runs through an open pair and its
            # smaller end, and closure rows from those ends refute it
            prefers = instance.priority.prefers
            arcs: list[tuple[FactId, FactId, bool]] = []  # (src, dst, open)
            starts = set()
            for a, b in instance.conflicts.pairs:
                if a not in reach or b not in reach:
                    continue
                if prefers(a, b):
                    arcs.append((a, b, False))
                elif prefers(b, a):
                    arcs.append((b, a, False))
                else:
                    arcs += [(a, b, True), (b, a, True)]
                    starts.add(a)
            arcs.sort()
            for f in sorted(starts):
                for src, dst, is_open in arcs:
                    formula.add(([-trans(f, src)] if src != f else [])
                                + ([-pref(src, dst)] if is_open else [])
                                + ([trans(f, dst)] if dst != f else []))
        return reach

    raise ValueError(f"unknown maximality variant {variant!r}")


# ----------------------------------------------------------------------
# formula assembly

def _scoped_block(formula: CnfFormula, instance: PrioritizedInstance,
                  spec: EncodingSpec, seed: frozenset[FactId],
                  ns: Optional[int]) -> None:
    """Maximality and consistency over the seed, the facts the blocking or
    forcing clauses read, and the facts maximality reads."""
    used = encode_max(formula, instance, spec.max_variant, seed, ns=ns,
                      node_cap=spec.node_cap,
                      omit_acyclicity=spec.omit_acyclicity)
    encode_consistency(formula, instance, seed | used, ns=ns)


def build_single_formula(instance: PrioritizedInstance, spec: EncodingSpec,
                         answer: PotentialAnswer) -> CnfFormula:
    """Formula deciding one answer under the chosen semantics.

    It is the one-answer multi formula with the answer's activator asserted,
    so satisfiability answers the query: a "brave" formula is satisfiable iff
    the answer holds in some optimal repair; an "ar"/"iar" formula is
    unsatisfiable iff the answer holds in every optimal repair (respectively
    their intersection).
    """
    formula = build_multi_formula(instance, spec, [answer])
    formula.add(formula.soft_units)
    formula.soft_units.clear()
    return formula


def build_multi_formula(instance: PrioritizedInstance, spec: EncodingSpec,
                        answers: Sequence[PotentialAnswer]) -> CnfFormula:
    """One formula covering many answers.

    Each answer gets an activator variable, emitted as a unit soft literal so
    that callers may treat it as a soft clause, an assumption, or a candidate
    core. An activator can be true only when the answer's condition holds in
    the model, so maximizing true activators sweeps whole answer sets at once.
    Subset repairs ignore the priority, so an "s" formula takes an instance
    without one, as `filters.preprocess` derives it.
    """
    if spec.repair == "s" and not instance.priority.is_empty():
        raise ValueError("subset repairs take an instance without a priority")
    if not answers:
        raise ValueError("no answers to encode")
    formula = CnfFormula()
    if spec.semantics in ("ar", "brave"):
        seed: set[FactId] = set()
        for ans in answers:
            if spec.semantics == "ar":
                seed |= encode_neg_query(formula, instance, ans, spec.neg_variant)
            else:
                seed |= encode_pos_query(formula, ans)
        _scoped_block(formula, instance, spec, frozenset(seed), None)
    else:  # iar: per distinct cause, namespaced; guards per answer
        ns_of: dict[frozenset, int] = {}
        for ans in answers:
            activator = ("answer", ans.answer_id)
            for cause in ans.causes:
                key = frozenset(cause)
                first_time = key not in ns_of
                ns = ns_of.setdefault(key, len(ns_of))
                read = encode_neg_cause(formula, instance, cause, spec.neg_variant,
                                        activator=activator, ns=ns)
                if first_time:
                    _scoped_block(formula, instance, spec, read, ns)
    for ans in answers:
        formula.add_soft_unit(formula.answer_var(ans.answer_id))
    return formula


# ----------------------------------------------------------------------
# DIMACS export


def _render_key(key: VarKey) -> str:
    tag = key[0]
    if tag == "fact":
        ns, fact = key[1], key[2]
        return f"fact({fact})" if ns is None else f"fact({fact})@cause{ns}"
    if tag == "answer":
        return f"answer({key[1]})"
    if tag == "causesel":
        return f"cause_sel({key[1]},{key[2]})"
    if tag not in ("pref", "trans"):
        return repr(key)
    ns, src, dst = key[1:]
    base = f"pref_in({src}->{dst})" if tag == "pref" else f"reaches({src},{dst})"
    return base if ns is None else f"{base}@cause{ns}"


def export_dimacs(formula: CnfFormula, weighted: bool = False) -> bytes:
    """Serialize to DIMACS CNF, or WCNF with unit-weight softs when asked."""
    lines = []
    for i, key in enumerate(formula.keys, start=1):
        lines.append(f"c var {i} = {_render_key(key)}")
    if weighted:
        top = len(formula.soft_units) + 1
        nclauses = len(formula.hard) + len(formula.soft_units)
        lines.append(f"p wcnf {formula.nvars} {nclauses} {top}")
        for clause in formula.hard:
            lines.append(" ".join([str(top)] + [str(l) for l in clause] + ["0"]))
        for unit in formula.soft_units:
            lines.append(f"1 {unit} 0")
    else:
        lines.append(f"p cnf {formula.nvars} {len(formula.hard)}")
        for clause in formula.hard:
            lines.append(" ".join([str(l) for l in clause] + ["0"]))
    return ("\n".join(lines) + "\n").encode("utf-8")
