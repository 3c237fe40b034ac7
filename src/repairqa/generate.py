"""Synthetic instance and priority generation, reproducible per seed."""

from __future__ import annotations

import random

from .model import (PriorityRelation, PrioritizedInstance, build_random_priority,
                    build_score_priority, make_answer, make_instance)


def random_instance(facts: int, conflicts: int, answers: int,
                    max_cause_size: int, seed: int,
                    unary: int = 0) -> PrioritizedInstance:
    """Random binary conflicts without duplicates, causes drawn from the universe."""
    if facts < 1:
        raise ValueError("need at least one fact")
    max_pairs = facts * (facts - 1) // 2
    if conflicts > max_pairs:
        raise ValueError(f"{conflicts} conflicts impossible over {facts} facts "
                         f"(max {max_pairs})")
    if unary > facts:
        raise ValueError("more self-inconsistent facts than facts")
    rng = random.Random(seed)
    all_pairs = [(a, b) for a in range(facts) for b in range(a + 1, facts)]
    pairs = sorted(rng.sample(all_pairs, conflicts))
    self_inc = sorted(rng.sample(range(facts), unary)) if unary else []
    answer_list = []
    for i in range(answers):
        n_causes = rng.randint(1, 3)
        causes = []
        for _ in range(n_causes):
            size = rng.randint(1, max(1, max_cause_size))
            causes.append(sorted(rng.sample(range(facts), min(size, facts))))
        answer_list.append(make_answer(f"a{i}", causes))
    return make_instance(range(facts), pairs, (), answer_list,
                         self_inconsistent=self_inc)


def random_scores(instance: PrioritizedInstance, levels: int,
                  seed: int) -> dict[int, int]:
    """One score per fact, uniform over 1..levels."""
    if levels < 1:
        raise ValueError("need at least one score level")
    rng = random.Random(seed)
    return {f: rng.randint(1, levels) for f in instance.universe}


def priority_for_mode(instance: PrioritizedInstance, mode: str, seed: int,
                      levels: int = 0, p: float = 0.0) -> PriorityRelation:
    """Build a priority relation the way the experiments do.

    mode "none" leaves every pair unordered, "score" orders by random fact
    scores (always score-structured), "random" orients pairs independently
    with probability p, skipping orientations that would close a cycle.
    """
    if mode == "none":
        return PriorityRelation()
    if mode == "score":
        return build_score_priority(instance.conflicts,
                                    random_scores(instance, levels, seed))
    if mode == "random":
        return build_random_priority(instance.conflicts, p, seed)
    raise ValueError(f"unknown priority mode {mode!r}")


# the mixed priority diet used by the verification suite
PRIORITY_MIX = (
    ("none", 0, 0.0),
    ("score", 2, 0.0),
    ("score", 5, 0.0),
    ("random", 0, 0.5),
    ("random", 0, 0.8),
)


def verification_instance(index: int, seed: int, max_facts: int = 8,
                          max_conflicts: int = 12) -> PrioritizedInstance:
    """Deterministic stream of small instances with a varied priority mix."""
    rng = random.Random((seed * 1_000_003) ^ index)
    n = rng.randint(3, max(3, max_facts))
    m = rng.randint(0, min(max_conflicts, n * (n - 1) // 2))
    unary = 1 if index % 5 == 2 and n > 3 else 0
    inst = random_instance(n, m, answers=3, max_cause_size=3,
                           seed=rng.randint(0, 2**30), unary=unary)
    mode, levels, p = PRIORITY_MIX[index % len(PRIORITY_MIX)]
    priority = priority_for_mode(inst, mode, rng.randint(0, 2**30),
                                 levels=levels, p=p)
    return inst.with_priority(priority)
