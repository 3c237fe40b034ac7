"""JSON input and output formats.

Knowledge-base file: {"facts": [{"id": int, "label": str?}],
"conflicts": [[a, b] | [a]], "priority": [[preferred, other]]}.
Answers file: {"query": str, "answers": [{"id": str, "causes": [[int, ...]]}]}.
Result file: see `result_document`. All writers are deterministic.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import Optional

from .errors import InputError
from .filters import FilterReport
from .model import PrioritizedInstance, make_answer, make_instance

SCHEMA_VERSION = 2


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as err:
        raise InputError(f"{path}: {err.strerror or err}") from None
    except UnicodeDecodeError:
        raise InputError(f"{path}: not UTF-8 text") from None
    except json.JSONDecodeError as err:
        raise InputError(f"{path}: parse error at line {err.lineno}, "
                         f"column {err.colno}: {err.msg}") from None
    except RecursionError:
        raise InputError(f"{path}: nested too deeply to parse") from None


def _is_fact_list(entry) -> bool:
    # exactly int: JSON's true and false parse to bool, an int subclass
    return isinstance(entry, list) and all(type(f) is int for f in entry)


def _list_field(doc, name: str, source: str, required: bool = False) -> list:
    if not isinstance(doc, dict):
        raise InputError(f"{source}: expected a JSON object, got {type(doc).__name__}")
    if required and name not in doc:
        raise InputError(f"{source}: missing field {name!r}")
    value = doc.get(name, [])
    if not isinstance(value, list):
        raise InputError(f"{source}: field {name!r} is not a list")
    return value


def parse_instance(kb_doc, answers_doc, source: str = "<input>",
                   answers_source: Optional[str] = None) -> PrioritizedInstance:
    """Validate both documents; errors name `source` for the knowledge base
    and `answers_source` (default: `source`) for the answers."""
    ans_source = answers_source or source
    fact_entries = _list_field(kb_doc, "facts", source, required=True)
    conflict_entries = _list_field(kb_doc, "conflicts", source)
    priority_entries = _list_field(kb_doc, "priority", source)
    labels = {}
    ids = []
    for entry in fact_entries:
        if not isinstance(entry, dict) or "id" not in entry:
            raise InputError(f"{source}: fact {entry!r} is not an object with an \"id\"")
        fid = entry["id"]
        if type(fid) is not int or fid < 0:
            raise InputError(f"{source}: fact id {fid!r} is not a non-negative integer")
        if fid in labels:
            raise InputError(f"{source}: duplicate fact id {fid}")
        label = entry.get("label", str(fid))
        if not isinstance(label, str):
            raise InputError(f"{source}: label {label!r} of fact {fid} is not a string")
        ids.append(fid)
        labels[fid] = label
    known = set(ids)
    pairs = []
    unary = []
    for entry in conflict_entries:
        if not _is_fact_list(entry) or not 1 <= len(entry) <= 2:
            raise InputError(f"{source}: conflict {entry!r} is not a 1- or 2-element list")
        stray = set(entry) - known
        if stray:
            raise InputError(f"{source}: conflict {entry!r} references unknown facts "
                             f"{sorted(stray)}")
        if len(entry) == 1:
            unary.append(entry[0])
        else:
            pairs.append((entry[0], entry[1]))
    edges = []
    for entry in priority_entries:
        if not _is_fact_list(entry) or len(entry) != 2:
            raise InputError(f"{source}: priority entry {entry!r} is not a pair")
        stray = set(entry) - known
        if stray:
            raise InputError(f"{source}: priority {entry!r} references unknown facts "
                             f"{sorted(stray)}")
        edges.append((entry[0], entry[1]))
    answers = []
    seen_ids = set()
    for entry in _list_field(answers_doc, "answers", ans_source):
        if not isinstance(entry, dict) or not isinstance(entry.get("id"), str):
            raise InputError(f"{ans_source}: answer {entry!r} is not an object "
                             "with a string \"id\"")
        aid = entry["id"]
        if aid in seen_ids:
            raise InputError(f"{ans_source}: duplicate answer id {aid!r}")
        seen_ids.add(aid)
        causes = entry.get("causes", [])
        if not causes:
            raise InputError(f"{ans_source}: answer {aid!r} has no causes")
        if not isinstance(causes, list):
            raise InputError(f"{ans_source}: causes of answer {aid!r} are not a list")
        for cause in causes:
            if not _is_fact_list(cause):
                raise InputError(f"{ans_source}: cause {cause!r} of answer {aid!r} "
                                 "is not a list of fact ids")
            stray = set(cause) - known
            if stray:
                raise InputError(f"{ans_source}: cause {cause!r} of answer {aid!r} "
                                 f"references unknown facts {sorted(stray)}")
            if not cause:
                raise InputError(f"{ans_source}: answer {aid!r} has an empty cause")
        answers.append(make_answer(aid, causes))
    try:
        return make_instance(ids, pairs, edges, answers, self_inconsistent=unary,
                             labels=labels)
    except ValueError as err:
        raise InputError(f"{source}: {err}") from None


def load_instance(kb_path: str, answers_path: Optional[str] = None
                  ) -> PrioritizedInstance:
    """Read both files; without an answers file the instance has no answers."""
    kb_doc = _load_json(kb_path)
    answers_doc = _load_json(answers_path) if answers_path else {"answers": []}
    return parse_instance(kb_doc, answers_doc, source=kb_path,
                          answers_source=answers_path)


def instance_documents(instance: PrioritizedInstance):
    kb_doc = {
        "facts": [{"id": f, "label": instance.label(f)} for f in instance.universe],
        "conflicts": ([list(p) for p in instance.conflicts.sorted_pairs()]
                      + [[f] for f in sorted(instance.conflicts.self_inconsistent)]),
        "priority": [list(e) for e in instance.priority.sorted_edges()],
    }
    answers_doc = {
        "query": "q",
        "answers": [{"id": a.answer_id, "causes": [sorted(c) for c in a.causes]}
                    for a in instance.answers],
    }
    return kb_doc, answers_doc


def write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def save_instance(instance: PrioritizedInstance, kb_path: str,
                  answers_path: str) -> None:
    kb_doc, answers_doc = instance_documents(instance)
    write_json(kb_path, kb_doc)
    write_json(answers_path, answers_doc)


def result_document(semantics: str, repair_flag: str, neg_variant: int,
                    algorithm: str, report: FilterReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "semantics": semantics,
        "repair": repair_flag,
        "encoding": {"neg": neg_variant, "max": repair_flag},
        "algorithm": algorithm,
        "trivial": sorted(report.trivial_answers),
        "settled": sorted(report.settled_answers),
        "answers": sorted(report.answers),
        "removed_self_inconsistent": sorted(report.removed_self_inconsistent),
        "timings_ms": report.timings_ms,
        "solver_stats": report.solver_stats,
        "complete": report.complete,
    }


def example_instance() -> PrioritizedInstance:
    """The four-fact fixture shipped with the package."""
    kb = json.loads(resources.files("repairqa.data")
                    .joinpath("example1_kb.json").read_text())
    ans = json.loads(resources.files("repairqa.data")
                     .joinpath("example1_answers.json").read_text())
    return parse_instance(kb, ans, source="example1")
