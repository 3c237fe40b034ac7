import pytest

from repairqa.encoding import (REPAIRS, CnfFormula, EncodingSpec,
                               build_multi_formula, build_single_formula,
                               encode_consistency, encode_max, encode_neg_cause,
                               encode_neg_query, encode_pos_query, export_dimacs,
                               max_variants)
from repairqa.errors import CapacityError
from repairqa.filters import preprocess, remove_self_inconsistent
from repairqa.generate import priority_for_mode, random_instance, verification_instance
from repairqa.model import (PriorityRelation, make_answer, make_instance,
                            reachable_minus_set)
from repairqa.oracle import enumerate_completion_repairs, enumerate_pareto_repairs
from repairqa.sat import solve_clauses

from conftest import ALPHA, BETA, DELTA, GAMMA, loaded, small_instances


def lits_as_keys(formula, clause):
    return [(l > 0, formula.key_of(abs(l))) for l in clause]


class TestEncodingSpec:
    def test_subset_repair_requires_trivial_maximality(self):
        with pytest.raises(ValueError, match="incompatible"):
            EncodingSpec("ar", "s", "p1", 1)

    def test_pareto_repair_rejects_completion_maximality(self):
        with pytest.raises(ValueError, match="incompatible"):
            EncodingSpec("ar", "p", "c", 1)

    def test_completion_repair_allows_pareto_maximality(self):
        EncodingSpec("ar", "c", "p1", 1)
        EncodingSpec("ar", "c", "p2", 2)

    def test_unknown_values_rejected(self):
        with pytest.raises(ValueError):
            EncodingSpec("all", "p", "p1", 1)
        with pytest.raises(ValueError):
            EncodingSpec("ar", "p", "p1", 3)

    @pytest.mark.parametrize("cap", [0, -3, "64", 64.0, True])
    def test_node_cap_must_be_a_positive_integer(self, cap):
        # a cap below 1 would refuse every c request at encoding time
        with pytest.raises(ValueError, match="node cap"):
            EncodingSpec("ar", "c", "c", 1, node_cap=cap)

    def test_node_cap_of_one_accepted(self):
        assert EncodingSpec("ar", "c", "c", 1, node_cap=1).node_cap == 1


def fact_clause(formula, clause, ns=None):
    """Render a clause over fact variables as a set of (sign, fact) pairs."""
    out = set()
    for lit in clause:
        key = formula.key_of(abs(lit))
        assert key[0] == "fact" and key[1] == ns
        out.add((lit > 0, key[2]))
    return out


class TestNegCause:
    # the activator's negation guards the first clause only
    ACT = ("answer", "a")

    def test_variant1_beta(self, ex1):
        f = CnfFormula()
        read = encode_neg_cause(f, ex1, {BETA}, 1, self.ACT)
        clauses = f.hard
        assert read == {ALPHA, GAMMA}
        assert len(clauses) == 1
        assert clauses[0][0] == -f.var(self.ACT)
        assert fact_clause(f, clauses[0][1:]) == {(True, ALPHA), (True, GAMMA)}

    def test_variant1_alpha(self, ex1):
        f = CnfFormula()
        assert encode_neg_cause(f, ex1, {ALPHA}, 1, self.ACT) == {DELTA}
        clauses = f.hard
        assert fact_clause(f, clauses[0][1:]) == {(True, DELTA)}

    def test_variant2_beta(self, ex1):
        f = CnfFormula()
        read = encode_neg_cause(f, ex1, {BETA}, 2, self.ACT)
        clauses = f.hard
        assert read == {ALPHA, BETA, GAMMA}
        assert clauses[0][0] == -f.var(self.ACT)
        assert fact_clause(f, clauses[0][1:]) == {(False, BETA)}
        assert fact_clause(f, clauses[1]) == {(True, BETA), (True, ALPHA), (True, GAMMA)}

    def test_self_inconsistent_cause_rejected(self):
        inst = make_instance([0, 1], [(0, 1)], self_inconsistent=[0])
        f = CnfFormula()
        with pytest.raises(ValueError, match="self-inconsistent"):
            encode_neg_cause(f, inst, {0}, 1, self.ACT)


class TestNegQuery:
    def test_single_mode(self, ex1):
        # past the activator guard, one block per cause of the single answer
        f = CnfFormula()
        assert encode_neg_query(f, ex1, ex1.answers[0], 1) == {ALPHA, GAMMA, DELTA}
        clauses = f.hard
        assert [fact_clause(f, c[1:]) for c in clauses] == [
            {(True, DELTA)}, {(True, ALPHA), (True, GAMMA)}]

    def test_multi_mode_adds_activator(self, ex1):
        f = CnfFormula()
        encode_neg_query(f, ex1, ex1.answers[0], 1)
        clauses = f.hard
        activator = f.answer_var("q(a)")
        assert all(clause[0] == -activator for clause in clauses)

    def test_contradictor_free_cause_gives_false_clause(self):
        # a fact without conflicts cannot be blocked: under its activator the
        # clause is empty, so the formula is unsatisfiable
        inst = make_instance([0, 1, 2], [(1, 2)],
                             answers=[make_answer("a", [[0]])])
        f = CnfFormula()
        assert encode_neg_query(f, inst, inst.answers[0], 1) == frozenset()
        clauses = f.hard
        activator = f.answer_var("a")
        assert clauses == [(-activator,)]
        assert not solve_clauses(f.nvars, f.hard + [(activator,)]).is_sat


class TestPosQuery:
    def test_selector_expansion(self, ex1):
        f = CnfFormula()
        assert encode_pos_query(f, ex1.answers[0]) == {ALPHA, BETA}
        clauses = f.hard
        sel0 = f.index[("causesel", "q(a)", 0)]
        sel1 = f.index[("causesel", "q(a)", 1)]
        assert clauses[0] == (-f.answer_var("q(a)"), sel0, sel1)
        assert clauses[1] == (-sel0, f.fact_var(ALPHA))
        assert clauses[2] == (-sel1, f.fact_var(BETA))

    def test_single_cause(self):
        ans = make_answer("a", [[4]])
        f = CnfFormula()
        assert encode_pos_query(f, ans) == {4}
        clauses = f.hard
        assert len(clauses) == 2 and len(clauses[0]) == 2

    def test_multi_mode_adds_negated_answer(self, ex1):
        f = CnfFormula()
        encode_pos_query(f, ex1.answers[0])
        clauses = f.hard
        assert clauses[0][0] == -f.answer_var("q(a)")

    def test_forced_cause_stays_satisfiable_with_max(self, ex1):
        # the repair {alpha, gamma} supports the first cause, asked as a
        # one-cause answer
        spec = EncodingSpec("brave", "p", "p1", 1)
        formula = build_single_formula(ex1, spec, make_answer("a", [[ALPHA]]))
        res = solve_clauses(formula.nvars, formula.hard)
        assert res.is_sat
        assert frozenset({ALPHA, GAMMA}) in enumerate_pareto_repairs(ex1).as_set()


class TestConsistency:
    def test_full_scope_has_one_clause_per_pair(self, ex1):
        f = CnfFormula()
        encode_consistency(f, ex1, {0, 1, 2, 3})
        clauses = f.hard
        assert len(clauses) == 4
        assert all(len(c) == 2 and all(l < 0 for l in c) for c in clauses)

    def test_empty_scope(self, ex1):
        f = CnfFormula()
        encode_consistency(f, ex1, set())
        assert f.hard == []

    def test_singleton_scope(self, ex1):
        f = CnfFormula()
        encode_consistency(f, ex1, {ALPHA})
        assert f.hard == []


class TestEncodeMax:
    def test_subset_variant_is_empty(self, ex1):
        f = CnfFormula()
        used = encode_max(f, ex1, "s", {0, 1, 2, 3})
        assert f.hard == [] and used == frozenset()

    def test_p1_expansion(self, ex1):
        f = CnfFormula()
        used = encode_max(f, ex1, "p1", {DELTA, ALPHA, GAMMA})
        clauses = f.hard
        assert used == {ALPHA, BETA, GAMMA, DELTA}
        got = {frozenset(fact_clause(f, c)) for c in clauses}
        assert got == {
            frozenset({(True, ALPHA), (True, DELTA)}),
            frozenset({(True, BETA), (True, ALPHA), (True, GAMMA)}),
            frozenset({(True, GAMMA), (True, BETA)}),
            frozenset({(True, DELTA), (True, GAMMA), (True, ALPHA)}),
        }

    def test_p2_scope_stays_in_closure(self, ex1):
        f = CnfFormula()
        used = encode_max(f, ex1, "p2", {BETA})
        clauses = f.hard
        closure = reachable_minus_set(ex1.dcg(), ex1.priority, {BETA})
        assert used <= closure | {ALPHA, GAMMA}
        for clause in clauses:
            assert {k for _, k in fact_clause(f, clause)} <= used

    def test_completion_kill_arcs_refute_only_the_cyclic_choice(self, ex1):
        f = CnfFormula()
        used = encode_max(f, ex1, "c", {DELTA})
        assert used == {ALPHA, BETA, GAMMA, DELTA}
        assert {key[0] for key in f.keys} == {"fact", "pref", "trans"}
        # one kill arc into each fact from every partner it is not preferred to
        kills = {(key[2], key[3]) for key in f.keys if key[0] == "pref"}
        assert kills == {(ALPHA, BETA), (GAMMA, DELTA), (ALPHA, DELTA),
                         (DELTA, ALPHA), (BETA, GAMMA), (GAMMA, BETA)}
        session = loaded(f.nvars, f.hard)
        pref = lambda a, b: f.index[("pref", None, a, b)]
        # with the priority arcs alpha->beta and gamma->delta, only delta->alpha
        # together with beta->gamma closes a cycle
        assert not session.solve([pref(DELTA, ALPHA), pref(BETA, GAMMA)]).is_sat
        sat_count = sum(
            session.solve([pref(*da), pref(*bc)]).is_sat
            for da in ((ALPHA, DELTA), (DELTA, ALPHA))
            for bc in ((BETA, GAMMA), (GAMMA, BETA)))
        assert sat_count == 3

    def test_completion_cap(self, ex1):
        f = CnfFormula()
        with pytest.raises(CapacityError):
            encode_max(f, ex1, "c", {DELTA}, node_cap=3)


class TestSingleFormulas:
    def test_ar_formula_unsat_when_answer_holds(self, ex1):
        for variant in ("p1", "p2"):
            for neg in (1, 2):
                spec = EncodingSpec("ar", "p", variant, neg)
                formula = build_single_formula(ex1, spec, ex1.answers[0])
                assert not solve_clauses(formula.nvars, formula.hard).is_sat

    def test_iar_single_fact_sat_with_witness(self, ex1):
        # a fact is asked as a one-fact answer; its one cause is namespace 0
        spec = EncodingSpec("iar", "p", "p1", 1)
        formula = build_single_formula(ex1, spec, make_answer("a", [[ALPHA]]))
        res = solve_clauses(formula.nvars, formula.hard)
        assert res.is_sat
        assert res.model[formula.index[("fact", 0, BETA)]]
        assert res.model[formula.index[("fact", 0, DELTA)]]

    def test_completion_iar_fact_unsat(self, ex1):
        spec = EncodingSpec("iar", "c", "c", 1)
        formula = build_single_formula(ex1, spec, make_answer("a", [[ALPHA]]))
        assert not solve_clauses(formula.nvars, formula.hard).is_sat

    def test_iar_answer_uses_disjoint_namespaces(self, ex1):
        spec = EncodingSpec("iar", "p", "p1", 1)
        formula = build_single_formula(ex1, spec, ex1.answers[0])
        namespaces = {key[1] for key in formula.keys if key[0] == "fact"}
        assert namespaces == {0, 1}

    def test_blocks_range_over_the_seed_and_its_closure(self, ex1):
        # the guarded blocking clauses read the seed; the p1 block closes it
        # under the conflict graph and consistency ranges over both
        blocks = CnfFormula()
        seed = encode_neg_query(blocks, ex1, ex1.answers[0], 1)
        assert seed == {ALPHA, GAMMA, DELTA}
        spec = EncodingSpec("ar", "p", "p1", 1)
        formula = build_single_formula(ex1, spec, ex1.answers[0])
        # the formula opens with those blocking clauses
        assert formula.hard[:len(blocks.hard)] == blocks.hard
        assert {key[2] for key in formula.keys if key[0] == "fact"} \
            == {ALPHA, BETA, GAMMA, DELTA}


class TestMultiFormulas:
    def test_ar_activator_false_in_every_model(self, ex1):
        spec = EncodingSpec("ar", "p", "p1", 1)
        psi = build_multi_formula(ex1, spec, list(ex1.answers))
        assert psi.soft_units == [psi.answer_var("q(a)")]
        assert not solve_clauses(psi.nvars, psi.hard, [psi.answer_var("q(a)")]).is_sat
        assert solve_clauses(psi.nvars, psi.hard).is_sat

    def test_brave_activator_true_in_some_model(self, ex1):
        spec = EncodingSpec("brave", "p", "p1", 1)
        psi = build_multi_formula(ex1, spec, list(ex1.answers))
        assert solve_clauses(psi.nvars, psi.hard, [psi.answer_var("q(a)")]).is_sat

    def test_iar_fact_set_activators(self, ex1):
        # the shared formula over one-fact answers that iarfacts sweeps
        spec = EncodingSpec("ar", "p", "p1", 1)
        psi = build_multi_formula(ex1, spec, [make_answer(str(f), [[f]])
                                              for f in (ALPHA, BETA)])
        assert psi.soft_units == [psi.answer_var(str(ALPHA)), psi.answer_var(str(BETA))]
        assert solve_clauses(psi.nvars, psi.hard, [psi.answer_var(str(ALPHA))]).is_sat
        assert solve_clauses(psi.nvars, psi.hard, [psi.answer_var(str(BETA))]).is_sat

    def test_empty_targets_rejected(self, ex1):
        spec = EncodingSpec("iar", "p", "p1", 1)
        with pytest.raises(ValueError):
            build_multi_formula(ex1, spec, [])

    def test_subset_repairs_refuse_a_prioritized_instance(self, ex1):
        # preprocessing drops the priority for s; an encoder handed one would
        # miss the contradictors the priority makes dominated
        spec = EncodingSpec("ar", "s", "s", 1)
        with pytest.raises(ValueError, match="without a priority"):
            build_multi_formula(ex1, spec, list(ex1.answers))
        with pytest.raises(ValueError, match="without a priority"):
            build_single_formula(ex1, spec, ex1.answers[0])
        plain = ex1.with_priority(PriorityRelation(()))
        assert build_multi_formula(plain, spec, list(plain.answers)).hard


class TestDimacs:
    def test_empty_formula(self):
        assert export_dimacs(CnfFormula()) == b"p cnf 0 0\n"

    def test_two_literal_clause(self):
        f = CnfFormula()
        a, b = f.var(("answer", "x")), f.var(("answer", "y"))
        f.add([a, -b])
        text = export_dimacs(f).decode()
        assert "p cnf 2 1" in text
        assert "1 -2 0" in text

    def test_weighted_header(self, ex1):
        spec = EncodingSpec("ar", "p", "p1", 1)
        psi = build_multi_formula(ex1, spec, list(ex1.answers))
        text = export_dimacs(psi, weighted=True).decode()
        top = len(psi.soft_units) + 1
        assert f"p wcnf {psi.nvars} {len(psi.hard) + len(psi.soft_units)} {top}" in text

    def test_export_round_trips_through_independent_evaluation(self, ex1):
        # parse the emitted text back and refute it by exhaustive evaluation
        spec = EncodingSpec("ar", "p", "p1", 1)
        formula = build_single_formula(ex1, spec, ex1.answers[0])
        clauses = []
        nvars = 0
        for line in export_dimacs(formula).decode().splitlines():
            if line.startswith("c"):
                continue
            if line.startswith("p"):
                nvars = int(line.split()[2])
                continue
            lits = [int(tok) for tok in line.split()[:-1]]
            clauses.append(lits)
        assert nvars == formula.nvars
        satisfiable = any(
            all(any((bits >> (abs(l) - 1) & 1) == (l > 0) for l in c) for c in clauses)
            for bits in range(1 << nvars))
        assert not satisfiable


# ----------------------------------------------------------------------
# cross-variant properties


def test_encoding_is_deterministic(ex1):
    spec = EncodingSpec("iar", "c", "c", 2)
    one = build_single_formula(ex1, spec, ex1.answers[0])
    two = build_single_formula(ex1, spec, ex1.answers[0])
    assert one.keys == two.keys
    assert one.hard == two.hard


def _facts_in(formula, ns):
    """The facts in namespace `ns` that the formula's clauses mention,
    decoded through the variable keys."""
    return {key[2] for clause in formula.hard
            for key in (formula.key_of(abs(lit)) for lit in clause)
            if key[0] == "fact" and key[1] == ns}


def test_blocks_return_the_facts_their_clauses_mention():
    # the assembler scopes maximality and consistency by what the blocks
    # return, so a block that under-reports silently drops clauses
    checked = rowless = 0
    for i in range(120):
        for s in (0, 1):
            inst, _ = remove_self_inconsistent(
                verification_instance(i, s, max_facts=10, max_conflicts=20))
            dcg = inst.dcg()
            for ans in inst.answers:
                for variant in (1, 2):
                    f = CnfFormula()
                    assert encode_neg_query(f, inst, ans, variant) == _facts_in(f, None)
                    for cause in ans.causes:
                        for ns in (None, 1):
                            f = CnfFormula()
                            read = encode_neg_cause(f, inst, cause, variant,
                                                    ("answer", "a"), ns=ns)
                            assert read == _facts_in(f, ns)
                f = CnfFormula()
                assert encode_pos_query(f, ans) == _facts_in(f, None)
                for max_variant in ("s", "p1", "p2", "c"):
                    for ns in (None, 1):
                        f = CnfFormula()
                        used = encode_max(f, inst, max_variant, ans.all_facts(), ns=ns)
                        expected = _facts_in(f, ns)
                        if max_variant == "p2":
                            # an undominated fact of the closure gets no row,
                            # yet consistency must still cover it
                            expected |= reachable_minus_set(dcg, inst.priority,
                                                            ans.all_facts())
                        assert used == expected
                        rowless += used != _facts_in(f, ns)
                        checked += 1
    assert checked > 3000 and rowless > 0


def test_one_fact_answers_encode_alike_under_iar_and_ar():
    # a fact is in the intersection of the optimal repairs iff it is in every
    # one of them; iarfacts relies on the two formulas being the same CNF
    checked = 0
    for i in range(0, 300, 10):
        inst = verification_instance(i, 0, max_facts=10, max_conflicts=20)
        for repair in REPAIRS:
            # the residue iarfacts reads
            residue = preprocess(inst, repair, "iar")[2]
            facts = sorted({f for a in residue.answers for c in a.causes for f in c})
            for variant in max_variants(repair, inst):
                for neg in (1, 2):
                    iar = EncodingSpec("iar", repair, variant, neg)
                    ar = EncodingSpec("ar", repair, variant, neg)
                    for f in facts:
                        ans = make_answer(str(f), [[f]])
                        assert (build_single_formula(residue, iar, ans).hard
                                == build_single_formula(residue, ar, ans).hard)
                        checked += 1
    assert checked > 500


def test_neg_variants_equisatisfiable_on_random_instances():
    for inst in small_instances(40, seed=21):
        for ans in inst.answers:
            if any(c & inst.conflicts.self_inconsistent for c in ans.causes):
                continue
            for sem in ("ar", "iar"):
                spec1 = EncodingSpec(sem, "p", "p1", 1)
                spec2 = EncodingSpec(sem, "p", "p1", 2)
                f1 = build_single_formula(inst, spec1, ans)
                f2 = build_single_formula(inst, spec2, ans)
                assert (solve_clauses(f1.nvars, f1.hard).is_sat
                        == solve_clauses(f2.nvars, f2.hard).is_sat)


def test_max_variants_equisatisfiable_when_score_structured():
    from repairqa.model import is_score_structured
    checked = 0
    for inst in small_instances(60, seed=22):
        if not is_score_structured(inst.conflicts, inst.priority):
            continue
        for ans in inst.answers:
            if any(c & inst.conflicts.self_inconsistent for c in ans.causes):
                continue
            verdicts = set()
            for repair, variant in (("p", "p1"), ("p", "p2"), ("c", "c")):
                spec = EncodingSpec("ar", repair, variant, 1)
                f = build_single_formula(inst, spec, ans)
                verdicts.add(solve_clauses(f.nvars, f.hard).is_sat)
            assert len(verdicts) == 1
            checked += 1
    assert checked > 20


def test_completion_models_never_carry_cyclic_orders():
    # the true kill arcs of a model plus the priority arcs form no cycle
    open_arcs = 0
    for inst in small_instances(30, seed=23):
        nodes = sorted(inst.conflicts.facts() - inst.conflicts.self_inconsistent)
        if not nodes:
            continue
        f = CnfFormula()
        encode_max(f, inst, "c", set(nodes))
        res = solve_clauses(f.nvars, f.hard)
        assert res.is_sat  # a completion always exists
        kills = [(key[2], key[3]) for key, var in f.index.items()
                 if key[0] == "pref" and res.model[var]]
        prefers = inst.priority.prefers
        open_arcs += sum(1 for a, b in kills if not prefers(a, b))
        edges = kills + [(a, b) for a, b in inst.priority.sorted_edges()
                         if a in nodes and b in nodes]
        succ = {}
        for a, b in edges:
            succ.setdefault(a, set()).add(b)
        seen, done = set(), set()

        def has_cycle(v):
            seen.add(v)
            for w in succ.get(v, ()):
                if w in seen and w not in done:
                    return True
                if w not in seen and has_cycle(w):
                    return True
            done.add(v)
            return False

        assert not any(has_cycle(v) for v in list(succ) if v not in seen)
    assert open_arcs > 30


def test_completion_block_models_are_the_completion_repairs():
    # the satisfiable fact selections of the c block are exactly the repairs
    # induced by the acyclic completions, restricted to the conflicting facts
    checked = 0
    for inst in small_instances(80, seed=24, max_facts=9, max_conflicts=14):
        prepped, _ = remove_self_inconsistent(inst)
        nodes = sorted(prepped.conflicts.facts())
        if not nodes:
            continue
        f = CnfFormula()
        encode_max(f, prepped, "c", set(nodes))
        encode_consistency(f, prepped, nodes)
        session = loaded(f.nvars, f.hard)
        fact_vars = [f.fact_var(a) for a in nodes]
        models = set()
        for bits in range(1 << len(nodes)):
            chosen = [bits >> i & 1 for i in range(len(nodes))]
            if session.solve([v if bit else -v
                              for v, bit in zip(fact_vars, chosen)]).is_sat:
                models.add(frozenset(a for a, bit in zip(nodes, chosen) if bit))
        expected = {r & set(nodes) for r in enumerate_completion_repairs(inst).repairs}
        assert models == expected, inst.priority.sorted_edges()
        checked += 1
    assert checked > 60


def _score_instance():
    inst = random_instance(9, 16, 2, max_cause_size=3, seed=5)
    return inst.with_priority(priority_for_mode(inst, "score", 3, levels=3))


@pytest.mark.parametrize("which", ["ex1", "score"])
def test_completion_block_skips_refuted_directions(ex1, which):
    inst = ex1 if which == "ex1" else _score_instance()
    prefers = inst.priority.prefers
    pairs = inst.conflicts.sorted_pairs()
    open_pairs = {(a, b) for a, b in pairs if not prefers(a, b) and not prefers(b, a)}
    # closure rows start only from the smaller end of each open pair
    starts = {a for a, _ in open_pairs}
    assert starts and len(starts) < len(inst.conflicts.facts())
    f = CnfFormula()
    encode_max(f, inst, "c", set(inst.conflicts.facts()))
    assert {key[0] for key in f.keys} == {"fact", "pref", "trans"}
    # no kill arc runs against the priority
    for a, b in pairs:
        for hi, lo in ((a, b), (b, a)):
            if prefers(hi, lo):
                assert ("pref", None, hi, lo) in f.index
                assert ("pref", None, lo, hi) not in f.index
    rows = [clause for clause in f.hard
            if any(f.key_of(abs(l))[0] == "trans" for l in clause)]
    assert any(len(row) == 3 for row in rows)
    for row in rows:
        keys = [f.key_of(abs(l)) for l in row]
        assert {k[2] for k in keys if k[0] == "trans"} <= starts
        # a row reads a kill arc only over an open pair, and only such a row
        # is ternary
        arcs = [tuple(sorted(k[2:])) for k in keys if k[0] == "pref"]
        assert len(arcs) <= 1 and set(arcs) <= open_pairs
        assert len(row) < 3 or arcs
