import csv
import json
import random
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repairqa import cli, filters, verify
from repairqa.cli import main
from repairqa.errors import InputError
from repairqa.encoding import EncodingSpec
from repairqa.files import (example_instance, instance_documents, load_instance,
                            parse_instance, save_instance)
from repairqa.filters import FilterRequest, answer_query
from repairqa.generate import random_instance, verification_instance
from repairqa.model import make_answer, make_instance
from repairqa.verify import run_verification


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def fixture_paths(tmp_path, ex1):
    kb = tmp_path / "kb.json"
    ans = tmp_path / "ans.json"
    save_instance(ex1, str(kb), str(ans))
    return str(kb), str(ans)


class TestLoading:
    def test_example_fixture_shape(self):
        inst = example_instance()
        assert len(inst.universe) == 4
        assert len(inst.conflicts.pairs) == 4
        assert len(inst.priority.edges) == 2
        assert len(inst.answers) == 1
        assert len(inst.answers[0].causes) == 2
        assert inst.label(0) == "alpha"

    def test_empty_conflicts_accepted(self, tmp_path):
        kb = write(tmp_path, "kb.json", {"facts": [{"id": 0}], "conflicts": [],
                                         "priority": []})
        ans = write(tmp_path, "ans.json", {"query": "q", "answers": []})
        inst = load_instance(kb, ans)
        assert inst.universe == (0,)

    def test_priority_must_cover_a_conflict(self, tmp_path):
        kb = write(tmp_path, "kb.json",
                   {"facts": [{"id": 0}, {"id": 1}, {"id": 2}],
                    "conflicts": [[0, 1]], "priority": [[0, 2]]})
        ans = write(tmp_path, "ans.json", {"query": "q", "answers": []})
        with pytest.raises(InputError, match="edge-not-conflict"):
            load_instance(kb, ans)

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "kb.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(InputError, match="line 2"):
            load_instance(str(path), str(path))

    def test_dangling_cause_fact_rejected(self, tmp_path):
        kb = write(tmp_path, "kb.json", {"facts": [{"id": 0}], "conflicts": []})
        ans = write(tmp_path, "ans.json",
                    {"query": "q", "answers": [{"id": "a", "causes": [[7]]}]})
        with pytest.raises(InputError, match="unknown facts"):
            load_instance(kb, ans)

    def test_unary_conflicts_become_self_inconsistent(self):
        inst = parse_instance({"facts": [{"id": 0}, {"id": 1}],
                               "conflicts": [[0], [0, 1]], "priority": []},
                              {"query": "q", "answers": []})
        assert inst.conflicts.self_inconsistent == {0}

    def test_round_trip(self, tmp_path, ex1):
        kb, ans = tmp_path / "kb.json", tmp_path / "ans.json"
        save_instance(ex1, str(kb), str(ans))
        again = load_instance(str(kb), str(ans))
        assert again.universe == ex1.universe
        assert again.conflicts == ex1.conflicts
        assert again.priority == ex1.priority
        assert again.answers == ex1.answers
        assert instance_documents(again) == instance_documents(ex1)


class TestFilterCommand:
    def test_completion_iar(self, fixture_paths, tmp_path):
        kb, ans = fixture_paths
        out = tmp_path / "out.json"
        code = main(["filter", "--sem", "iar", "--repair", "c",
                     "--algo", "iarcauses", "--kb", kb, "--ans", ans,
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["answers"] == ["q(a)"]
        assert doc["complete"] is True
        assert doc["schema_version"] == 2

    def test_settled_answers_reported(self, tmp_path, capsys):
        # 0 beats 1, which leaves 2 unbeaten: "held" needs 2, "refuted" needs 1
        inst = make_instance(range(4), [(0, 1), (1, 2)], [(0, 1)],
                             answers=[make_answer("trivial", [[3]]),
                                      make_answer("held", [[2]]),
                                      make_answer("refuted", [[1]])])
        kb, ans = str(tmp_path / "kb.json"), str(tmp_path / "ans.json")
        save_instance(inst, kb, ans)
        assert main(["filter", "--sem", "ar", "--repair", "p1", "--algo", "simple",
                     "--kb", kb, "--ans", ans]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trivial"] == ["trivial"]
        assert doc["settled"] == ["held", "refuted"]
        assert doc["answers"] == ["held", "trivial"]
        assert doc["solver_stats"]["solve_calls"] == 0

    def test_pareto_iar_empty(self, fixture_paths, tmp_path, capsys):
        kb, ans = fixture_paths
        code = main(["filter", "--sem", "iar", "--repair", "p1",
                     "--algo", "simple", "--kb", kb, "--ans", ans])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["answers"] == []

    def test_invalid_combination_exits_2(self, fixture_paths):
        kb, ans = fixture_paths
        code = main(["filter", "--sem", "brave", "--repair", "s",
                     "--algo", "iarcauses", "--kb", kb, "--ans", ans])
        assert code == 2

    @pytest.mark.parametrize("repeat", ["0", "-1"])
    def test_bench_repeat_below_one_exits_2(self, fixture_paths, capsys, repeat):
        kb, ans = fixture_paths
        code = main(["bench", "--sem", "brave", "--repair", "s", "--algo", "simple",
                     "--kb", kb, "--ans", ans, "--repeat", repeat])
        assert code == 2
        assert "--repeat" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-4"])
    def test_verify_trials_below_one_exits_2(self, capsys, trials):
        assert main(["verify", "--trials", trials, "--seed", "0"]) == 2
        assert "--trials" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--jobs", "0"), ("--jobs", "-2"), ("--max-facts", "2"),
        ("--max-facts", "-1")])
    def test_verify_flag_below_its_floor_exits_2(self, capsys, flag, value):
        assert main(["verify", "--trials", "3", flag, value]) == 2
        err = capsys.readouterr().err
        assert flag in err and value in err

    def test_mutate_is_not_a_filter_flag(self, fixture_paths, capsys):
        # a known-bad encoding belongs to the harness, not to served answers
        kb, ans = fixture_paths
        code = main(["filter", "--sem", "iar", "--repair", "c", "--algo", "simple",
                     "--kb", kb, "--ans", ans, "--mutate", "drop-acyc"])
        assert code == 2
        out, err = capsys.readouterr()
        assert not out
        assert "--mutate" in err

    @pytest.mark.parametrize("command", ["filter", "bench"])
    def test_negative_budget_exits_2(self, fixture_paths, capsys, command):
        kb, ans = fixture_paths
        code = main([command, "--sem", "brave", "--repair", "s", "--algo", "simple",
                     "--kb", kb, "--ans", ans, "--budget", "-5"])
        assert code == 2
        assert "--budget" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["filter", "bench"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_node_cap_below_one_exits_2(self, fixture_paths, capsys, command, value):
        kb, ans = fixture_paths
        code = main([command, "--sem", "brave", "--repair", "c", "--algo", "simple",
                     "--kb", kb, "--ans", ans, "--node-cap", value])
        assert code == 2
        err = capsys.readouterr().err
        assert "--node-cap" in err and value in err

    def test_bench_invalid_pairing_exits_2_without_rows(self, fixture_paths, capsys):
        kb, ans = fixture_paths
        code = main(["bench", "--sem", "brave", "--repair", "s",
                     "--algo", "simple,iarcauses", "--kb", kb, "--ans", ans,
                     "--repeat", "1"])
        assert code == 2
        out, err = capsys.readouterr()
        assert not out
        assert "algorithm 'iarcauses' cannot compute 'brave'" in err

    @pytest.mark.parametrize("algos, bad", [("simple,bogus", "'bogus'"),
                                            (",", "''")])
    def test_bench_unknown_algorithm_exits_2_before_any_request(
            self, fixture_paths, capsys, monkeypatch, algos, bad):
        def no_request(*_):
            raise AssertionError("a request ran")
        monkeypatch.setattr(cli, "answer_query", no_request)
        kb, ans = fixture_paths
        code = main(["bench", "--sem", "brave", "--repair", "s", "--algo", algos,
                     "--kb", kb, "--ans", ans, "--repeat", "1"])
        assert code == 2
        out, err = capsys.readouterr()
        assert not out
        assert "--algo" in err and f"unknown algorithm {bad}" in err

    def test_invalid_pairing_writes_no_dump(self, fixture_paths, tmp_path, capsys):
        kb, ans = fixture_paths
        dump = tmp_path / "psi.cnf"
        code = main(["filter", "--sem", "brave", "--repair", "s",
                     "--algo", "iarcauses", "--kb", kb, "--ans", ans,
                     "--dump-cnf", str(dump)])
        assert code == 2
        assert "algorithm 'iarcauses' cannot compute 'brave'" in capsys.readouterr().err
        assert not dump.exists()

    @pytest.mark.parametrize("bad", ["directory", "not-utf8"])
    def test_unreadable_input_exits_2_naming_it(self, fixture_paths, tmp_path,
                                                capsys, bad):
        kb, ans = fixture_paths
        if bad == "directory":
            kb = tmp_path / "kbdir"
            kb.mkdir()
        else:
            kb = tmp_path / "latin1.json"
            kb.write_bytes('{"facts": [{"id": 0, "label": "café"}]}'.encode("latin-1"))
        code = main(["filter", "--sem", "brave", "--repair", "s", "--algo", "simple",
                     "--kb", str(kb), "--ans", ans])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {kb}: ") and ans not in err

    @pytest.mark.parametrize("target", ["filter-out", "dump-cnf", "bench-out",
                                        "geninstance-out-kb"])
    def test_output_into_missing_directory_exits_2_naming_it(
            self, fixture_paths, tmp_path, capsys, target):
        kb, ans = fixture_paths
        missing = str(tmp_path / "missing" / "out.txt")
        query = ["--sem", "brave", "--repair", "s", "--kb", kb, "--ans", ans]
        argv = {
            "filter-out": ["filter", *query, "--algo", "simple", "--out", missing],
            "dump-cnf": ["filter", *query, "--algo", "simple", "--dump-cnf", missing],
            "bench-out": ["bench", *query, "--algo", "simple", "--repeat", "1",
                          "--out", missing],
            "geninstance-out-kb": ["geninstance", "--facts", "4", "--conflicts", "2",
                                   "--answers", "1", "--max-cause-size", "1",
                                   "--seed", "0", "--out-kb", missing,
                                   "--out-ans", str(tmp_path / "a.json")],
        }[target]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and missing in err
        assert not out

    @pytest.mark.parametrize("kb_doc, ans_doc, bad", [
        ({"facts": [{"label": "x"}]}, {"answers": []}, "kb"),
        ({"facts": [1, 2]}, {"answers": []}, "kb"),
        ([1, 2], {"answers": []}, "kb"),
        ({"facts": [{"id": 0}], "conflicts": [[0, [1]]]}, {"answers": []}, "kb"),
        ({"facts": [{"id": 0}]}, [1, 2], "ans"),
        ({"facts": [{"id": 0}]}, {"answers": [{"causes": [[0]]}]}, "ans"),
        ({"facts": [{"id": 0}]}, {"answers": [{"id": "a", "causes": [0]}]}, "ans"),
        ({"facts": [{"id": 0}]}, {"answers": [{"id": "a", "causes": [[0]]},
                                              {"id": "a", "causes": [[0]]}]}, "ans"),
        # JSON booleans parse to bool, an int subclass, and are no fact ids
        ({"facts": [{"id": True}]}, {"answers": []}, "kb"),
        ({"facts": [{"id": 0}, {"id": 1}], "conflicts": [[True, 0]]},
         {"answers": []}, "kb"),
        ({"facts": [{"id": 0}, {"id": 1}], "conflicts": [[0, 1]],
          "priority": [[True, False]]}, {"answers": []}, "kb"),
        ({"facts": [{"id": 0}, {"id": 1}]},
         {"answers": [{"id": "a", "causes": [[True]]}]}, "ans"),
        ({"facts": [{"id": 0, "label": 7}]}, {"answers": []}, "kb"),
    ], ids=["fact-without-id", "facts-not-objects", "kb-not-object",
            "conflict-not-fact-ids", "answers-not-object", "answer-without-id",
            "cause-not-list", "duplicate-answer-id", "bool-fact-id",
            "bool-conflict", "bool-priority", "bool-cause", "label-not-string"])
    def test_malformed_input_exits_2_naming_the_file(self, tmp_path, capsys,
                                                      kb_doc, ans_doc, bad):
        paths = {"kb": write(tmp_path, "kb.json", kb_doc),
                 "ans": write(tmp_path, "ans.json", ans_doc)}
        code = main(["filter", "--sem", "brave", "--repair", "s", "--algo", "simple",
                     "--kb", paths["kb"], "--ans", paths["ans"]])
        assert code == 2
        err = capsys.readouterr().err
        other = "ans" if bad == "kb" else "kb"
        assert paths[bad] in err and paths[other] not in err

    def test_deeply_nested_input_exits_2_naming_it(self, fixture_paths, tmp_path):
        _, ans = fixture_paths
        kb = tmp_path / "deep.json"
        kb.write_text("[" * 200_000 + "]" * 200_000)
        proc = subprocess.run(
            [sys.executable, "-m", "repairqa.cli", "filter", "--sem", "brave",
             "--repair", "s", "--algo", "simple", "--kb", str(kb), "--ans", ans],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr == f"error: {kb}: nested too deeply to parse\n"

    @pytest.mark.parametrize("closed", [False, True])
    def test_priority_chain_deeper_than_the_recursion_limit(self, tmp_path, capsys,
                                                             closed):
        n = 1200
        chain = [[i, i + 1] for i in range(n - 1)]
        kb = write(tmp_path, "kb.json", {
            "facts": [{"id": i} for i in range(n)],
            "conflicts": chain + [[0, n - 1]] * closed,
            "priority": chain + [[n - 1, 0]] * closed})
        ans = write(tmp_path, "ans.json", {"answers": [{"id": "a", "causes": [[0]]},
                                                       {"id": "b", "causes": [[1]]}]})
        code = main(["filter", "--sem", "ar", "--repair", "p1", "--algo", "simple",
                     "--kb", kb, "--ans", ans])
        out, err = capsys.readouterr()
        if closed:
            assert code == 2
            assert err == (f"error: {kb}: invalid priority relation, "
                           f"cycle: {tuple(range(n))}\n")
        else:
            assert code == 0 and json.loads(out)["answers"] == ["a"]

    def test_budget_exhaustion_exits_3(self, tmp_path):
        # under s the admissible-set checks would decide every answer; c
        # keeps the fixpoint's verdicts only, and it decides none here
        inst = make_instance(range(3), [(0, 1), (1, 2), (0, 2)],
                             answers=[make_answer("a", [[0]]),
                                      make_answer("b", [[1]]),
                                      make_answer("c", [[2]])])
        kb, ans = tmp_path / "kb.json", tmp_path / "ans.json"
        save_instance(inst, str(kb), str(ans))
        code = main(["filter", "--sem", "brave", "--repair", "c",
                     "--algo", "maxsat", "--kb", str(kb), "--ans", str(ans),
                     "--budget", "0", "--out", str(tmp_path / "o.json")])
        assert code == 3
        doc = json.loads((tmp_path / "o.json").read_text())
        assert doc["complete"] is False

    def test_dump_cnf(self, fixture_paths, tmp_path):
        kb, ans = fixture_paths
        dump = tmp_path / "psi.wcnf"
        assert main(["filter", "--sem", "ar", "--repair", "p1",
                     "--algo", "simple", "--kb", kb, "--ans", ans,
                     "--out", str(tmp_path / "o.json"),
                     "--dump-cnf", str(dump)]) == 0
        text = dump.read_text()
        assert "p wcnf" in text and "c var 1" in text

    def test_dump_cnf_is_the_solved_formula(self, tmp_path):
        # 0 beats 1, so 0 is trivially safe, 1 lost and then 2 safe. On the
        # path 3 - 4 - 5 - 6, 4 beats 3: {4} is admissible, so the checks
        # settle "admissible", but {3} is not, so only "open" is left to the
        # solver ({3, 5} is admissible, so it holds)
        inst = make_instance(range(7), [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)],
                             [(0, 1), (4, 3)],
                             answers=[make_answer("trivial", [[0]]),
                                      make_answer("settledyes", [[2]]),
                                      make_answer("settledno", [[1]]),
                                      make_answer("admissible", [[4]]),
                                      make_answer("open", [[3]])])
        kb, ans = tmp_path / "kb.json", tmp_path / "ans.json"
        save_instance(inst, str(kb), str(ans))
        dump = tmp_path / "psi.wcnf"
        assert main(["filter", "--sem", "brave", "--repair", "p1",
                     "--algo", "maxsat", "--kb", str(kb), "--ans", str(ans),
                     "--out", str(tmp_path / "o.json"),
                     "--dump-cnf", str(dump)]) == 0
        names = {line.split(" = ")[1] for line in dump.read_text().splitlines()
                 if line.startswith("c var ")}
        assert "answer(open)" in names
        assert not {"answer(trivial)", "answer(settledyes)", "answer(settledno)",
                    "answer(admissible)", "fact(0)", "fact(1)", "fact(2)"} & names
        doc = json.loads((tmp_path / "o.json").read_text())
        assert doc["answers"] == ["admissible", "open", "settledyes", "trivial"]
        assert doc["settled"] == ["admissible", "settledno", "settledyes"]

    @pytest.mark.parametrize("sem, suffix", [("ar", ""), ("iar", "@cause0")])
    def test_dump_cnf_names_completion_variables(self, fixture_paths, tmp_path,
                                                  sem, suffix):
        # the README's library example: no fact is safe, so under c the
        # answer reaches the solver; iar namespaces the block per cause
        kb, ans = fixture_paths
        dump = tmp_path / "psi.wcnf"
        assert main(["filter", "--sem", sem, "--repair", "c", "--algo", "simple",
                     "--kb", kb, "--ans", ans, "--out", str(tmp_path / "o.json"),
                     "--dump-cnf", str(dump)]) == 0
        names = {line.split(" = ")[1] for line in dump.read_text().splitlines()
                 if line.startswith("c var ")}
        assert {f"pref_in(0->1){suffix}", f"reaches(0,1){suffix}"} <= names
        if not suffix:
            assert not any("@cause" in name for name in names)
        doc = json.loads((tmp_path / "o.json").read_text())
        assert doc["trivial"] == [] and doc["settled"] == []
        assert doc["solver_stats"]["solve_calls"] > 0

    def test_dump_cnf_preprocesses_once(self, fixture_paths, tmp_path, monkeypatch):
        calls = []
        original = filters.extract_trivial_answers

        def counted(*args):
            calls.append(args)
            return original(*args)
        monkeypatch.setattr(filters, "extract_trivial_answers", counted)
        kb, ans = fixture_paths
        assert main(["filter", "--sem", "ar", "--repair", "c", "--algo", "simple",
                     "--kb", kb, "--ans", ans, "--out", str(tmp_path / "o.json"),
                     "--dump-cnf", str(tmp_path / "psi.wcnf")]) == 0
        assert len(calls) == 1


class TestGenPriority:
    def test_single_level_scores_are_empty(self, fixture_paths, tmp_path, capsys):
        kb, _ = fixture_paths
        assert main(["genpriority", "--kb", kb, "--mode", "score",
                     "--levels", "1", "--seed", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["priority"] == [] and doc["score_structured"] is True

    def test_zero_probability_is_empty(self, fixture_paths, capsys):
        kb, _ = fixture_paths
        assert main(["genpriority", "--kb", kb, "--mode", "random",
                     "--p", "0", "--seed", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["priority"] == []

    def test_byte_identical_for_fixed_seed(self, fixture_paths, tmp_path):
        kb, _ = fixture_paths
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert main(["genpriority", "--kb", kb, "--mode", "random",
                         "--p", "0.8", "--seed", "11", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_mode_parameter_exits_2(self, fixture_paths):
        kb, _ = fixture_paths
        assert main(["genpriority", "--kb", kb, "--mode", "score",
                     "--seed", "1"]) == 2

    @pytest.mark.parametrize("mode, flag, value", [
        ("score", "--levels", "0"), ("random", "--levels", "-1"),
        ("random", "--p", "1.5"), ("score", "--p", "-0.5")])
    def test_setting_out_of_range_exits_2(self, fixture_paths, capsys,
                                          mode, flag, value):
        kb, _ = fixture_paths
        assert main(["genpriority", "--kb", kb, "--mode", mode,
                     "--levels", "2", "--p", "0.5", flag, value]) == 2
        err = capsys.readouterr().err
        assert flag in err and value in err

    @pytest.mark.parametrize("mode, used, unused", [
        ("score", "levels", "p"), ("random", "p", "levels")])
    def test_records_only_the_setting_its_mode_reads(self, fixture_paths,
                                                     capsys, mode, used, unused):
        kb, _ = fixture_paths
        assert main(["genpriority", "--kb", kb, "--mode", mode,
                     "--levels", "3", "--p", "0.4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc[used] == {"levels": 3, "p": 0.4}[used]
        assert unused not in doc


class TestGenInstance:
    def test_conflict_free_instance_is_all_trivial(self, tmp_path):
        kb, ans = tmp_path / "kb.json", tmp_path / "ans.json"
        assert main(["geninstance", "--facts", "4", "--conflicts", "0",
                     "--answers", "2", "--max-cause-size", "2", "--seed", "5",
                     "--out-kb", str(kb), "--out-ans", str(ans)]) == 0
        inst = load_instance(str(kb), str(ans))
        from repairqa.filters import extract_trivial_answers
        trivial, _, _ = extract_trivial_answers(inst, "p", "ar")
        assert set(trivial) == {a.answer_id for a in inst.answers}

    def test_complete_conflict_graph_gives_singleton_repairs(self):
        inst = random_instance(6, 15, 1, 2, seed=8)
        from repairqa.oracle import enumerate_repairs
        fam = enumerate_repairs(inst)
        assert fam.as_set() == {frozenset({f}) for f in range(6)}

    def test_conflicts_drawn_as_sampling_the_full_pair_list_would(self):
        def listed_draw(facts, conflicts, unary, seed):
            rng = random.Random(seed)
            every = [(a, b) for a in range(facts) for b in range(a + 1, facts)]
            pairs = sorted(rng.sample(every, conflicts))
            return pairs, sorted(rng.sample(range(facts), unary))

        rng = random.Random(11)
        for _ in range(300):
            facts = rng.randint(1, 40)
            conflicts = rng.randint(0, facts * (facts - 1) // 2)
            unary, seed = rng.randint(0, facts), rng.randint(0, 10**6)
            inst = random_instance(facts, conflicts, 0, 1, seed, unary=unary)
            assert listed_draw(facts, conflicts, unary, seed) == (
                inst.conflicts.sorted_pairs(), sorted(inst.conflicts.self_inconsistent))

    def test_infeasible_parameters_exit_2(self, tmp_path):
        assert main(["geninstance", "--facts", "3", "--conflicts", "9",
                     "--answers", "1", "--max-cause-size", "1", "--seed", "1",
                     "--out-kb", str(tmp_path / "k.json"),
                     "--out-ans", str(tmp_path / "a.json")]) == 2

    @pytest.mark.parametrize("flag, value", [
        ("--answers", "-1"), ("--max-cause-size", "0"), ("--max-cause-size", "-2"),
        ("--facts", "0"), ("--conflicts", "-1"), ("--unary", "-1"),
        ("--levels", "-3"), ("--p", "1.5"), ("--p", "-0.1"), ("--p", "nan")])
    def test_count_below_its_floor_exits_2(self, tmp_path, capsys, flag, value):
        counts = {"--facts": "4", "--conflicts": "1", "--answers": "2",
                  "--max-cause-size": "2", flag: value}
        kb = tmp_path / "k.json"
        assert main(["geninstance", "--seed", "0",
                     *(arg for item in counts.items() for arg in item),
                     "--out-kb", str(kb), "--out-ans", str(tmp_path / "a.json")]) == 2
        err = capsys.readouterr().err
        assert flag in err and value in err
        assert not kb.exists()

    def test_deterministic_output(self, tmp_path):
        files = []
        for tag in ("x", "y"):
            kb = tmp_path / f"kb{tag}.json"
            ans = tmp_path / f"ans{tag}.json"
            assert main(["geninstance", "--facts", "7", "--conflicts", "9",
                         "--answers", "3", "--max-cause-size", "3",
                         "--seed", "77", "--unary", "1", "--priority-mode",
                         "score", "--levels", "3",
                         "--out-kb", str(kb), "--out-ans", str(ans)]) == 0
            files.append((kb.read_bytes(), ans.read_bytes()))
        assert files[0] == files[1]

    GEN = ["geninstance", "--facts", "8", "--conflicts", "10", "--answers", "2",
           "--max-cause-size", "2", "--seed", "1"]

    def test_zero_orientation_probability_orients_nothing(self, tmp_path):
        kb = tmp_path / "kb.json"
        assert main(self.GEN + ["--priority-mode", "random", "--p", "0",
                                "--out-kb", str(kb),
                                "--out-ans", str(tmp_path / "a.json")]) == 0
        assert json.loads(kb.read_text())["priority"] == []

    def test_zero_score_levels_exit_2(self, tmp_path, capsys):
        kb = tmp_path / "kb.json"
        assert main(self.GEN + ["--priority-mode", "score", "--levels", "0",
                                "--out-kb", str(kb),
                                "--out-ans", str(tmp_path / "a.json")]) == 2
        err = capsys.readouterr().err
        assert "--levels" in err and "got 0" in err
        assert not kb.exists()


class TestVerifyCommand:
    def test_fixture_only_run_agrees(self, capsys):
        assert main(["verify", "--trials", "1", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "mismatches: 0" in out

    def test_mutant_is_caught(self, capsys):
        code = main(["verify", "--trials", "2", "--seed", "0",
                     "--mutate", "drop-acyc"])
        assert code != 0
        out = capsys.readouterr().out
        assert "first counterexample" in out

    def test_budget_is_not_a_verify_flag(self, capsys):
        # a spent budget leaves answers undecided, which the oracle comparison
        # would report as a false counterexample
        assert main(["verify", "--trials", "30", "--budget", "0"]) == 2
        out, err = capsys.readouterr()
        assert "counterexample" not in out
        assert "--budget" in err

    @pytest.mark.parametrize("value", ["-1", "-3"])
    def test_max_conflicts_below_zero_exits_2(self, capsys, value):
        assert main(["verify", "--trials", "3", "--max-conflicts", value]) == 2
        err = capsys.readouterr().err
        assert "--max-conflicts" in err and value in err

    def test_capped_oracle_group_is_skipped_and_counted(self, capsys):
        # trial 5 of seed 1 has 18 unordered conflict pairs, over the
        # completion oracle's cap: its three c groups are skipped
        assert main(["verify", "--trials", "6", "--max-facts", "10",
                     "--max-conflicts", "20", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "groups skipped over the oracle caps: 3" in out
        assert "mismatches: 0" in out

    def test_check_instance_skips_only_capped_groups(self):
        inst = verification_instance(5, 1, max_facts=10, max_conflicts=20)
        checked, skipped, mismatches = verify.check_instance(inst, 5)
        assert skipped == 3 and not mismatches
        assert checked == sum(c.repair != "c" for c in verify.combos_for(inst))

    def test_check_instance_builds_each_family_once(self, monkeypatch):
        from repairqa import oracle
        calls = []
        original = oracle.repair_family

        def counted(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(oracle, "repair_family", counted)
        monkeypatch.setattr(verify, "repair_family", counted, raising=False)
        for i in range(4):
            inst = verification_instance(i, 0, max_facts=9)
            checked, skipped, mismatches = verify.check_instance(inst, i)
            assert checked and not skipped and not mismatches
        assert calls == ["s", "p", "c"] * 4

    def test_default_run_skips_nothing(self, capsys):
        assert main(["verify", "--trials", "6", "--seed", "1"]) == 0
        assert "groups skipped over the oracle caps: 0" in capsys.readouterr().out

    def test_parallel_jobs_agree(self, capsys):
        assert main(["verify", "--trials", "6", "--seed", "4",
                     "--jobs", "2"]) == 0
        assert "mismatches: 0" in capsys.readouterr().out

    def test_parallel_run_stops_where_the_serial_one_does(self):
        serial, parallel = (run_verification(2, seed=0, mutate="drop-acyc", jobs=jobs)
                            for jobs in (1, 2))
        assert parallel.trials == serial.trials
        assert parallel.combos_checked == serial.combos_checked
        first = [(o.mismatches[0].trial, o.mismatches[0].combo) for o in (serial, parallel)]
        assert first[0] == first[1]

    def test_parallel_run_cancels_pending_trials(self, monkeypatch):
        started = []
        release = threading.Event()

        class GatedPool(ThreadPoolExecutor):
            """One worker thread; every trial after the first waits until the
            pool is shut down, so only a cancelled trial never starts."""

            def __init__(self, max_workers):
                super().__init__(max_workers=1)

            def map(self, fn, *iterables, **kwargs):
                def gated(task):
                    started.append(task[0])
                    if task[0]:
                        release.wait(timeout=60)
                    return fn(task)
                return super().map(gated, *iterables, **kwargs)

            def shutdown(self, wait=True, *, cancel_futures=False):
                super().shutdown(wait=False, cancel_futures=cancel_futures)
                release.set()
                super().shutdown(wait=wait)

        monkeypatch.setattr(verify, "ProcessPoolExecutor", GatedPool)
        outcome = run_verification(20, seed=0, mutate="drop-acyc", jobs=2)
        assert outcome.trials == 1 and outcome.mismatches
        # trial 0 mismatches; at most the trial the worker had taken runs too
        assert started[0] == 0 and len(started) <= 2

    def test_thirty_fact_slice_matches_the_oracle(self):
        # instances three times the default size, where the fixpoint and the
        # admissible-set checks settle more; the floors keep the slice from
        # passing by skipping groups over the oracle caps
        outcome = run_verification(20, max_facts=30, max_conflicts=60, seed=5)
        assert outcome.trials == 20 and not outcome.mismatches
        assert outcome.trials * 9 - outcome.groups_skipped >= 150
        assert outcome.combos_checked >= 2500

    def test_pool_never_outnumbers_the_trials(self, monkeypatch):
        # a thread stand-in records the worker count and starts no process
        sizes = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(verify, "ProcessPoolExecutor", RecordingPool)
        outcome = run_verification(2, seed=0, jobs=64)
        assert outcome.trials == 2 and outcome.ok
        assert len(sizes) == 1 and 1 <= sizes[0] <= 2


BENCH_HEADER = ["semantics", "repair", "encoding", "algorithm", "preprocess_ms",
                "filter_ms", "result_count", "complete", "decisions", "conflicts",
                "propagations"]


class TestBenchCommand:
    def test_rows_consistent_across_algorithms(self, fixture_paths, tmp_path):
        kb, ans = fixture_paths
        out = tmp_path / "bench.csv"
        assert main(["bench", "--sem", "iar", "--repair", "c",
                     "--algo", "simple,iarcauses,iarfacts", "--kb", kb,
                     "--ans", ans, "--repeat", "2", "--out", str(out)]) == 0
        reader = csv.DictReader(out.read_text().splitlines())
        assert reader.fieldnames == BENCH_HEADER
        rows = list(reader)
        assert len(rows) == 3
        assert {row["result_count"] for row in rows} == {"1"}
        assert {row["complete"] for row in rows} == {"True"}

    def test_counter_columns_match_the_request(self, fixture_paths, ex1, capsys):
        kb, ans = fixture_paths
        assert main(["bench", "--sem", "iar", "--repair", "c", "--algo",
                     "maxsat,muses", "--kb", kb, "--ans", ans, "--repeat", "2"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [row["algorithm"] for row in rows] == ["maxsat", "muses"]
        for row in rows:
            stats = answer_query(FilterRequest(
                ex1, EncodingSpec("iar", "c", "c", 1), row["algorithm"])).solver_stats
            assert stats["decisions"] > 0
            for key in ("decisions", "conflicts", "propagations"):
                assert int(row[key]) == stats[key]

    def test_exhausted_budget_prints_partial_rows_and_exits_3(self, fixture_paths,
                                                              capsys):
        kb, ans = fixture_paths
        code = main(["bench", "--sem", "ar", "--repair", "c", "--algo",
                     "simple,maxsat,muses", "--kb", kb, "--ans", ans,
                     "--budget", "0", "--repeat", "1"])
        assert code == 3
        reader = csv.DictReader(capsys.readouterr().out.splitlines())
        assert reader.fieldnames == BENCH_HEADER
        rows = list(reader)
        # simple finishes within the budget; maxsat runs out; muses never runs
        assert [(row["algorithm"], row["complete"]) for row in rows] == [
            ("simple", "True"), ("maxsat", "False")]


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "repairqa.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "filter" in proc.stdout
