import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repairqa.model import (ConflictSet, PrioritizedInstance, PriorityRelation,
                            build_random_priority,
                            build_score_priority, directed_conflict_graph,
                            is_score_structured, make_answer, make_instance,
                            reachable_minus_set, reachable_set, reaches,
                            validate_priority)
from repairqa.model import _find_cycle

from conftest import ALPHA, BETA, DELTA, GAMMA


def conflicts(*pairs, unary=()):
    return ConflictSet(pairs, unary)


class TestValidatePriority:
    def test_worked_example_is_valid(self, ex1):
        assert validate_priority(ex1.conflicts, ex1.priority) is None

    def test_empty_priority_is_valid(self):
        assert validate_priority(conflicts((0, 1), (1, 2)), PriorityRelation()) is None

    def test_cycle_is_reported(self):
        report = validate_priority(conflicts((0, 1), (1, 2), (0, 2)),
                                   PriorityRelation([(0, 1), (1, 2), (2, 0)]))
        assert report is not None and report.kind == "cycle"
        assert set(report.witness) == {0, 1, 2}

    def test_non_conflict_edge_is_reported(self):
        report = validate_priority(conflicts((0, 1)), PriorityRelation([(0, 2)]))
        assert report is not None and report.kind == "edge-not-conflict"
        assert report.witness == (0, 2)

    def test_symmetric_pair_is_reported(self):
        report = validate_priority(conflicts((0, 1)),
                                   PriorityRelation([(0, 1), (1, 0)]))
        assert report is not None and report.kind == "symmetric-pair"

    CHAIN = 1200  # deeper than Python's default recursion limit

    def test_long_chain_is_valid(self):
        n = self.CHAIN
        chain = [(i, i + 1) for i in range(n - 1)]
        inst = make_instance(range(n), chain, chain)
        assert len(inst.priority.edges) == n - 1
        assert inst.score_structured

    def test_closed_long_chain_names_the_whole_cycle(self):
        n = self.CHAIN
        chain = [(i, i + 1) for i in range(n - 1)]
        report = validate_priority(conflicts(*chain, (0, n - 1)),
                                   PriorityRelation(chain + [(n - 1, 0)]))
        assert report.kind == "cycle" and report.witness == tuple(range(n))
        with pytest.raises(ValueError, match=r"cycle: \(0, 1, 2, "):
            make_instance(range(n), chain + [(0, n - 1)], chain + [(n - 1, 0)])


class TestDirectedConflictGraph:
    def test_worked_example_edges(self, ex1):
        dcg = ex1.dcg()
        assert {f: set(dcg.out(f)) for f in range(4)} == {
            ALPHA: {DELTA},
            BETA: {ALPHA, GAMMA},
            GAMMA: {BETA},
            DELTA: {ALPHA, GAMMA},
        }

    def test_unprioritized_pair_is_symmetric(self):
        dcg = directed_conflict_graph(conflicts((0, 1)), PriorityRelation())
        assert dcg.out(0) == {1} and dcg.out(1) == {0}

    def test_dominated_direction_removed(self):
        dcg = directed_conflict_graph(conflicts((0, 1)), PriorityRelation([(0, 1)]))
        assert dcg.out(0) == frozenset() and dcg.out(1) == {0}

    def test_self_inconsistent_excluded(self):
        dcg = directed_conflict_graph(conflicts((0, 1), unary=[0]), PriorityRelation())
        assert dcg.out_edges == {}


class TestReachability:
    def test_worked_example_closure(self, ex1):
        assert reachable_set(ex1.dcg(), {BETA}) == {ALPHA, BETA, GAMMA, DELTA}

    def test_empty_seed(self, ex1):
        assert reachable_set(ex1.dcg(), set()) == frozenset()

    def test_single_edge(self):
        dcg = directed_conflict_graph(conflicts((0, 1)), PriorityRelation([(0, 1)]))
        assert reachable_set(dcg, {1}) == {0, 1}

    def test_reaches_its_own_source(self):
        assert reaches({}, 3, 3)

    def test_reaches_not_an_unconnected_node(self):
        succ = {0: [1], 1: [2], 3: [0]}
        assert reaches(succ, 0, 2) and not reaches(succ, 0, 3)

    def test_reaches_terminates_on_a_cycle(self):
        succ = {0: {1}, 1: {2}, 2: {0}, 3: {0}}
        assert reaches(succ, 1, 0) and not reaches(succ, 0, 3)

    def test_minus_closure_no_dominators(self, ex1):
        assert reachable_minus_set(ex1.dcg(), ex1.priority, {ALPHA}) == {ALPHA}

    def test_minus_closure_two_steps(self, ex1):
        assert reachable_minus_set(ex1.dcg(), ex1.priority, {BETA}) == {BETA, DELTA}

    def test_minus_closure_empty_priority(self):
        dcg = directed_conflict_graph(conflicts((0, 1), (1, 2)), PriorityRelation())
        assert reachable_minus_set(dcg, PriorityRelation(), {0, 2}) == {0, 2}


class TestScorePriority:
    def test_direct_comparison(self):
        prio = build_score_priority(conflicts((0, 1), (1, 2)), {0: 3, 1: 1, 2: 2})
        assert prio.edges == {(0, 1), (2, 1)}

    def test_equal_scores_mean_no_edges(self):
        prio = build_score_priority(conflicts((0, 1), (1, 2)), {0: 1, 1: 1, 2: 1})
        assert prio.is_empty()

    def test_worked_example_scores(self, ex1):
        prio = build_score_priority(ex1.conflicts, {0: 2, 1: 1, 2: 2, 3: 1})
        assert prio.edges == {(0, 1), (2, 3), (0, 3), (2, 1)}

    def test_missing_score_rejected(self):
        with pytest.raises(ValueError, match="no score"):
            build_score_priority(conflicts((0, 1)), {0: 1})


class TestRandomPriority:
    def test_zero_probability_gives_empty(self):
        assert build_random_priority(conflicts((0, 1), (1, 2)), 0.0, 3).is_empty()

    def test_triangle_never_cyclic(self):
        cs = conflicts((0, 1), (1, 2), (0, 2))
        for seed in range(40):
            prio = build_random_priority(cs, 1.0, seed)
            assert len(prio.edges) <= 3
            assert validate_priority(cs, prio) is None

    def test_deterministic_for_fixed_seed(self):
        cs = conflicts((0, 1), (1, 2), (2, 3), (0, 3))
        a = build_random_priority(cs, 0.7, 42)
        b = build_random_priority(cs, 0.7, 42)
        assert a == b

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            build_random_priority(conflicts((0, 1)), 1.5, 0)


class TestScoreStructured:
    def test_worked_example_priority_is_not(self, ex1):
        # incomparable pairs force s(alpha)=s(delta) and s(beta)=s(gamma),
        # which the two strict edges then contradict
        assert not is_score_structured(ex1.conflicts, ex1.priority)

    def test_score_built_priority_always_is(self):
        cs = conflicts((0, 1), (1, 2), (2, 3), (0, 3), (0, 2))
        for seed in range(25):
            scores = {f: (seed * (f + 3)) % 4 + 1 for f in range(4)}
            assert is_score_structured(cs, build_score_priority(cs, scores))

    def test_empty_priority_is(self):
        assert is_score_structured(conflicts((0, 1)), PriorityRelation())


# ----------------------------------------------------------------------
# property tests

pair_lists = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda t: t[0] != t[1]),
    max_size=12)


def _prio_for(pairs, seed, p):
    return build_random_priority(ConflictSet(pairs), p, seed)


@given(pairs=pair_lists, seed=st.integers(0, 999), p=st.floats(0, 1))
@settings(max_examples=120, deadline=None)
def test_random_priority_always_valid(pairs, seed, p):
    cs = ConflictSet(pairs)
    assert validate_priority(cs, build_random_priority(cs, p, seed)) is None


@given(pairs=pair_lists, seed=st.integers(0, 999))
@settings(max_examples=120, deadline=None)
def test_dcg_edges_match_definition(pairs, seed):
    cs = ConflictSet(pairs)
    prio = _prio_for(pairs, seed, 0.6)
    dcg = directed_conflict_graph(cs, prio)
    for a in range(8):
        for b in range(8):
            expected = cs.conflicts_with(a, b) and not prio.prefers(a, b)
            assert (b in dcg.out(a)) == expected


@given(pairs=pair_lists, seed=st.integers(0, 999),
       drop=st.frozensets(st.integers(0, 7), max_size=4),
       unary=st.sets(st.integers(0, 7), max_size=2))
@settings(max_examples=120, deadline=None)
def test_graph_carried_past_dropped_facts_matches_a_fresh_build(pairs, seed, drop,
                                                                 unary):
    inst = make_instance(range(8), pairs, _prio_for(pairs, seed, 0.6).edges,
                         self_inconsistent=unary)
    inst.dcg()
    out = inst.without_facts(drop)
    assert set(out.universe) == set(range(8)) - drop
    assert not any(a in drop or b in drop for a, b in out.conflicts.pairs)
    assert out.dcg().out_edges == directed_conflict_graph(
        out.conflicts, out.priority).out_edges


@given(pairs=pair_lists, seed=st.integers(0, 999),
       seed_facts=st.sets(st.integers(0, 7), max_size=5),
       extra=st.sets(st.integers(0, 7), max_size=3))
@settings(max_examples=120, deadline=None)
def test_reachable_monotone_and_idempotent(pairs, seed, seed_facts, extra):
    dcg = directed_conflict_graph(ConflictSet(pairs), _prio_for(pairs, seed, 0.5))
    base = reachable_set(dcg, seed_facts)
    assert base <= reachable_set(dcg, seed_facts | extra)
    assert reachable_set(dcg, base) == base


@given(pairs=pair_lists, seed=st.integers(0, 999),
       seed_facts=st.sets(st.integers(0, 7), max_size=5))
@settings(max_examples=120, deadline=None)
def test_minus_closure_replays_its_rule(pairs, seed, seed_facts):
    cs = ConflictSet(pairs)
    prio = _prio_for(pairs, seed, 0.7)
    dcg = directed_conflict_graph(cs, prio)
    closure = reachable_minus_set(dcg, prio, seed_facts)
    assert seed_facts <= closure
    # every non-seed member is justified by the step rule, and the set is closed
    justified = set(seed_facts)
    changed = True
    while changed:
        changed = False
        for a in sorted(justified):
            for b in prio.dominators_of(a):
                for g in dcg.out(b):
                    if g not in justified:
                        justified.add(g)
                        changed = True
    assert closure == frozenset(justified)


def _frontier_reachable(dcg, seed):
    # the loop reachable_set ran before it shared one walk with the minus closure
    result = set(seed)
    frontier = [f for f in result if f in dcg.out_edges]
    while frontier:
        nxt = []
        for f in frontier:
            for g in dcg.out(f):
                if g not in result:
                    result.add(g)
                    nxt.append(g)
        frontier = nxt
    return frozenset(result)


def _frontier_reachable_minus(dcg, priority, seed):
    # the loop reachable_minus_set ran before it shared one walk
    result = set(seed)
    frontier = list(result)
    while frontier:
        nxt = []
        for a in frontier:
            for b in priority.dominators_of(a):
                for g in dcg.out(b):
                    if g not in result:
                        result.add(g)
                        nxt.append(g)
        frontier = nxt
    return frozenset(result)


@given(pairs=pair_lists, seed=st.integers(0, 999), p=st.floats(0, 1),
       seed_facts=st.sets(st.integers(0, 11), max_size=6))
@settings(max_examples=200, deadline=None)
def test_closures_match_their_frontier_loops(pairs, seed, p, seed_facts):
    # facts 8-11 lie outside every graph drawn here
    prio = _prio_for(pairs, seed, p)
    dcg = directed_conflict_graph(ConflictSet(pairs), prio)
    assert reachable_set(dcg, seed_facts) == _frontier_reachable(dcg, seed_facts)
    assert (reachable_minus_set(dcg, prio, seed_facts)
            == _frontier_reachable_minus(dcg, prio, seed_facts))


@given(pairs=pair_lists, data=st.data())
@settings(max_examples=120, deadline=None)
def test_score_priority_is_score_structured(pairs, data):
    cs = ConflictSet(pairs)
    facts = sorted({f for p in pairs for f in p})
    scores = {f: data.draw(st.integers(1, 4)) for f in facts}
    prio = build_score_priority(cs, scores)
    assert validate_priority(cs, prio) is None
    assert is_score_structured(cs, prio)


def _recursive_find_cycle(edges):
    """The recursive cycle search `_find_cycle` replaced, kept as a reference."""
    succ = {}
    for a, b in sorted(edges):
        succ.setdefault(a, []).append(b)
    color, path = {}, []

    def visit(v):
        color[v] = "gray"
        path.append(v)
        for w in succ.get(v, ()):
            if color.get(w) == "gray":
                return path[path.index(w):]
            if w not in color:
                found = visit(w)
                if found is not None:
                    return found
        path.pop()
        color[v] = "black"
        return None

    for v in sorted(succ):
        if v not in color:
            found = visit(v)
            if found is not None:
                return found
    return None


@given(edges=st.frozensets(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                           max_size=25))
@settings(max_examples=300, deadline=None)
def test_cycle_witness_matches_the_recursive_search(edges):
    assert _find_cycle(edges) == _recursive_find_cycle(edges)


def test_instance_rejects_dangling_answer_facts():
    with pytest.raises(ValueError, match="not declared"):
        make_instance([0, 1], [(0, 1)], (), [make_answer("a", [[5]])])


def test_instance_rejects_duplicate_answer_ids():
    # with both kept, the last "a" written would decide the verdict of both
    with pytest.raises(ValueError, match="duplicate answer id 'a'"):
        make_instance(range(4), [(0, 1), (2, 3)],
                      answers=[make_answer("a", [[0]]), make_answer("a", [[2, 3]])])


def test_instance_rejects_invalid_priority():
    with pytest.raises(ValueError, match="invalid priority"):
        make_instance([0, 1, 2], [(0, 1)], [(1, 2)])


def test_with_priority_rejects_a_cyclic_relation():
    inst = make_instance([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError, match="invalid priority"):
        inst.with_priority(PriorityRelation([(0, 1), (1, 2), (2, 0)]))


def test_constructor_rejects_a_cyclic_relation():
    cs = conflicts((0, 1), (1, 2), (0, 2))
    with pytest.raises(ValueError, match="invalid priority"):
        PrioritizedInstance((0, 1, 2), cs,
                            PriorityRelation([(0, 1), (1, 2), (2, 0)]), ())


def test_restrictions_check_their_facts(ex1):
    kept = ex1.without_facts(frozenset({GAMMA}))
    assert kept.universe == (ALPHA, BETA, DELTA)
    assert kept.priority.sorted_edges() == [(ALPHA, BETA)]
    with pytest.raises(ValueError, match="not declared"):
        kept.with_answers([make_answer("a", [[GAMMA]])])
    with pytest.raises(ValueError, match="not declared"):
        ex1.with_answers([make_answer("a", [[7]])])
