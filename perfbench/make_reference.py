"""Build the committed answer-digest reference for `completion` and `pareto`.

    python3 perfbench/make_reference.py --workload completion --seeds 0-31

Their instances exceed the oracle's caps, so `run.py` checks them against
this file instead. For each seed and instance every cell of the reference
variants runs (for `completion` the c repair through the c, p1 and p2
maximality encodings, which coincide under score-structured priorities;
for `pareto` the s and p repairs), and one digest per (semantics, repair)
group is recorded only when every strategy, maximality and blocking
variant of the group agrees. Otherwise the script names the disagreeing
cells, writes nothing and exits with code 1. New seeds are merged into
`reference.json`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def reference_for(name: str, seed: int) -> tuple[list, list]:
    wl = workloads.build(name, seed, for_reference=True)
    entries, disagreements = [], []
    for unit in wl.units:
        seen: dict = {}
        for cell in unit.cells:
            report = wl.rq.filters.answer_query(cell.request)
            if not report.complete:
                disagreements.append(f"seed {seed} instance {unit.index} "
                                     f"{cell.name}: incomplete")
                continue
            seen.setdefault(cell.group, {}).setdefault(
                workloads.answer_digest(report.answers), []).append(cell.name)
        digests = {}
        for group, by_digest in sorted(seen.items()):
            if len(by_digest) > 1:
                disagreements.append(f"seed {seed} instance {unit.index} {group}: "
                                     f"{by_digest}")
            digests[group] = next(iter(by_digest))
        entries.append({"fingerprint": workloads.fingerprint(unit.instance),
                        "digests": digests})
    return entries, disagreements


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SHAPES))
    ap.add_argument("--seeds", required=True, help="e.g. 0-31 or 0,5,7-9")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))

    table, failed = {}, []
    for seed in parse_seeds(args.seeds):
        entries, disagreements = reference_for(args.workload, seed)
        failed += disagreements
        if not disagreements:
            table[str(seed)] = entries
        print(f"{args.workload} seed {seed}: "
              f"{'ok' if not disagreements else 'DISAGREE'}", flush=True)
    for line in failed:
        print(line, file=sys.stderr)
    if failed:
        return 1
    reference = workloads.load_reference()
    table = dict(reference.get(args.workload, {}), **table)
    reference[args.workload] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    with open(workloads.REFERENCE_FILE, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
