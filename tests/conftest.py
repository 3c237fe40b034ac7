import random

import pytest

from repairqa.generate import priority_for_mode, random_instance
from repairqa.model import make_answer, make_instance
from repairqa.sat import SolverSession

ALPHA, BETA, GAMMA, DELTA = 0, 1, 2, 3


@pytest.fixture
def ex1():
    """Four facts, four conflicts, two priority edges, one two-cause answer."""
    return make_instance(
        range(4),
        [(ALPHA, BETA), (GAMMA, DELTA), (ALPHA, DELTA), (BETA, GAMMA)],
        [(ALPHA, BETA), (GAMMA, DELTA)],
        answers=[make_answer("q(a)", [[ALPHA], [BETA]])],
        labels={0: "alpha", 1: "beta", 2: "gamma", 3: "delta"},
    )


def loaded(nvars, clauses, **kw):
    """A solver session holding the given clauses."""
    session = SolverSession(nvars, **kw)
    for clause in clauses:
        session.add_clause(clause)
    return session


def small_instances(count, seed=0, max_facts=7, max_conflicts=10, answers=2):
    """Deterministic stream of small instances with varied priorities."""
    rng = random.Random(seed)
    modes = [("none", 0, 0.0), ("score", 2, 0.0), ("score", 5, 0.0),
             ("random", 0, 0.5), ("random", 0, 0.8)]
    out = []
    for i in range(count):
        n = rng.randint(2, max_facts)
        m = rng.randint(0, min(max_conflicts, n * (n - 1) // 2))
        inst = random_instance(n, m, answers, max_cause_size=3,
                               seed=rng.randint(0, 10**9),
                               unary=1 if i % 6 == 3 and n > 2 else 0)
        mode, levels, p = modes[i % len(modes)]
        prio = priority_for_mode(inst, mode, rng.randint(0, 10**9),
                                 levels=levels, p=p)
        out.append(inst.with_priority(prio))
    return out
