"""Command-line interface.

Subcommands: filter (answer a query under a chosen semantics), genpriority
(derive a priority relation for an instance), geninstance (synthesize a
random instance), verify (agreement suite against the brute-force oracle),
and bench (timing table with solver counters). Exit codes: 0 success,
1 verify found a mismatch, 2 invalid usage, combination, input or file
(argparse enforces each count flag's floor), 3 solver budget exhausted
(partial results flagged).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .encoding import (DEFAULT_NODE_CAP, SEMANTICS, CnfFormula, EncodingSpec,
                       build_multi_formula, export_dimacs)
from .files import (load_instance, result_document, save_instance, write_json)
from .filters import ALGORITHMS, FilterRequest, answer_query, preprocess
from .generate import priority_for_mode, random_instance
from .model import is_score_structured
from .verify import run_verification

REPAIR_FLAGS = {"s": ("s", "s"), "p1": ("p", "p1"), "p2": ("p", "p2"), "c": ("c", "c")}

EXIT_OK = 0
EXIT_BAD_COMBINATION = 2
EXIT_BUDGET = 3


def _spec_from_flags(args) -> EncodingSpec:
    repair, max_variant = REPAIR_FLAGS[args.repair]
    return EncodingSpec(args.sem, repair, max_variant, args.neg,
                        node_cap=args.node_cap)


def _at_least(floor: int):
    """An argparse type for a count flag: an integer no smaller than `floor`."""
    def count(text: str) -> int:
        value = int(text)
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be at least {floor}, got {value}")
        return value
    return count


def _add_filter_flags(parser, with_algo=True):
    parser.add_argument("--sem", required=True, choices=SEMANTICS)
    parser.add_argument("--repair", required=True, choices=tuple(REPAIR_FLAGS))
    parser.add_argument("--neg", type=int, default=1, choices=(1, 2))
    if with_algo:
        parser.add_argument("--algo", required=True, choices=ALGORITHMS)
    parser.add_argument("--kb", required=True, help="knowledge-base JSON file")
    parser.add_argument("--ans", required=True, help="potential-answers JSON file")
    parser.add_argument("--budget", type=_at_least(0), default=None,
                        help="conflict budget per solver call")
    parser.add_argument("--node-cap", type=_at_least(1), default=DEFAULT_NODE_CAP,
                        help="fact cap for the completion encoding")


def cmd_filter(args) -> int:
    spec = _spec_from_flags(args)
    instance = load_instance(args.kb, args.ans)
    report = answer_query(FilterRequest(instance, spec, args.algo,
                                        conflict_budget=args.budget))
    if args.dump_cnf:
        # the formula the strategies solve: the residue's remaining answers
        residue = preprocess(instance, spec.repair, spec.semantics)[3]
        formula = (build_multi_formula(residue, spec, list(residue.answers))
                   if residue.answers else CnfFormula())
        with open(args.dump_cnf, "wb") as handle:
            handle.write(export_dimacs(formula, weighted=bool(formula.soft_units)))
    doc = result_document(args.sem, args.repair, args.neg, args.algo, report)
    if args.out:
        write_json(args.out, doc)
    else:
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        print()
    return EXIT_OK if report.complete else EXIT_BUDGET


def cmd_genpriority(args) -> int:
    instance = load_instance(args.kb)
    if args.mode == "score":
        if args.levels is None:
            print("error: --mode score requires --levels", file=sys.stderr)
            return EXIT_BAD_COMBINATION
        priority = priority_for_mode(instance, "score", args.seed,
                                     levels=args.levels)
    else:
        if args.p is None:
            print("error: --mode random requires --p", file=sys.stderr)
            return EXIT_BAD_COMBINATION
        priority = priority_for_mode(instance, "random", args.seed, p=args.p)
    doc = {
        "mode": args.mode,
        "seed": args.seed,
        "priority": [list(e) for e in priority.sorted_edges()],
        "score_structured": is_score_structured(instance.conflicts, priority),
    }
    if args.levels is not None:
        doc["levels"] = args.levels
    if args.p is not None:
        doc["p"] = args.p
    if args.out:
        write_json(args.out, doc)
    else:
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        print()
    return EXIT_OK


def cmd_geninstance(args) -> int:
    try:
        instance = random_instance(args.facts, args.conflicts, args.answers,
                                   args.max_cause_size, args.seed,
                                   unary=args.unary)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_COMBINATION
    if args.priority_mode != "none":
        priority = priority_for_mode(instance, args.priority_mode, args.seed,
                                     levels=args.levels, p=args.p)
        instance = instance.with_priority(priority)
    save_instance(instance, args.out_kb, args.out_ans)
    return EXIT_OK


def cmd_verify(args) -> int:
    outcome = run_verification(args.trials, max_facts=args.max_facts,
                               seed=args.seed, mutate=args.mutate,
                               jobs=args.jobs, max_conflicts=args.max_conflicts)
    print(f"trials: {outcome.trials}")
    print(f"combinations checked: {outcome.combos_checked}")
    print(f"groups skipped over the oracle caps: {outcome.groups_skipped}")
    print(f"mismatches: {len(outcome.mismatches)}")
    if outcome.mismatches:
        print("first counterexample:")
        print(outcome.mismatches[0].render())
        return 1
    return EXIT_OK


def cmd_bench(args) -> int:
    instance = load_instance(args.kb, args.ans)
    spec = _spec_from_flags(args)
    rows = []
    for algo in args.algo.split(","):
        algo = algo.strip()
        pre = flt = 0.0
        complete = True
        for _ in range(args.repeat):
            report = answer_query(FilterRequest(
                instance, spec, algo, conflict_budget=args.budget))
            pre += report.timings_ms["preprocess_ms"]
            flt += report.timings_ms["filter_ms"]
            complete = complete and report.complete
        rows.append({
            "semantics": args.sem,
            "repair": args.repair,
            "encoding": f"neg{args.neg}",
            "algorithm": algo,
            "preprocess_ms": round(pre / args.repeat, 3),
            "filter_ms": round(flt / args.repeat, 3),
            "result_count": len(report.answers),
            "complete": complete,
            **{key: report.solver_stats[key]
               for key in ("decisions", "conflicts", "propagations")},
        })
        if not complete:
            break
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    text = buffer.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if rows[-1]["complete"] else EXIT_BUDGET


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repairqa",
        description="Query answering over inconsistent prioritized knowledge bases")
    sub = parser.add_subparsers(dest="command", required=True)

    p_filter = sub.add_parser("filter", help="compute the answers holding "
                                             "under a semantics")
    _add_filter_flags(p_filter)
    p_filter.add_argument("--out", default=None, help="result JSON path "
                                                      "(stdout when omitted)")
    p_filter.add_argument("--dump-cnf", default=None,
                          help="also export the multi-answer encoding as "
                               "DIMACS CNF/WCNF")
    p_filter.set_defaults(func=cmd_filter)

    p_gp = sub.add_parser("genpriority", help="build a priority relation "
                                              "over an instance's conflicts")
    p_gp.add_argument("--kb", required=True)
    p_gp.add_argument("--mode", required=True, choices=("score", "random"))
    p_gp.add_argument("--levels", type=int, default=None,
                      help="number of score levels (score mode)")
    p_gp.add_argument("--p", type=float, default=None,
                      help="orientation probability (random mode)")
    p_gp.add_argument("--seed", type=int, default=0)
    p_gp.add_argument("--out", default=None)
    p_gp.set_defaults(func=cmd_genpriority)

    p_gi = sub.add_parser("geninstance", help="synthesize a random instance")
    p_gi.add_argument("--facts", type=int, required=True)
    p_gi.add_argument("--conflicts", type=int, required=True)
    p_gi.add_argument("--answers", type=_at_least(0), required=True)
    p_gi.add_argument("--max-cause-size", type=_at_least(1), required=True)
    p_gi.add_argument("--seed", type=int, required=True)
    p_gi.add_argument("--unary", type=int, default=0,
                      help="number of self-inconsistent facts")
    p_gi.add_argument("--priority-mode", choices=("none", "score", "random"),
                      default="none")
    p_gi.add_argument("--levels", type=int, default=2)
    p_gi.add_argument("--p", type=float, default=0.5)
    p_gi.add_argument("--out-kb", required=True)
    p_gi.add_argument("--out-ans", required=True)
    p_gi.set_defaults(func=cmd_geninstance)

    p_verify = sub.add_parser("verify", help="cross-validate the pipeline "
                                             "against the brute-force oracle")
    p_verify.add_argument("--trials", type=_at_least(1), required=True)
    p_verify.add_argument("--max-facts", type=_at_least(3), default=8)
    p_verify.add_argument("--max-conflicts", type=_at_least(0), default=12)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--jobs", type=_at_least(1), default=1)
    p_verify.add_argument("--mutate", choices=("drop-acyc",), default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="time the filtering pipeline")
    _add_filter_flags(p_bench, with_algo=False)
    p_bench.add_argument("--algo", required=True,
                         help="one algorithm or a comma-separated list")
    p_bench.add_argument("--repeat", type=_at_least(1), default=5)
    p_bench.add_argument("--out", default=None, help="CSV path (stdout when omitted)")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:  # usage errors exit 2, --help 0
        return stop.code
    try:
        return args.func(args)
    except (ValueError, OSError) as err:  # the package's errors are ValueErrors
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_COMBINATION


if __name__ == "__main__":
    sys.exit(main())
