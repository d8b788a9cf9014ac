import hashlib
import json
import math
import tracemalloc
import warnings
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogassign.latency import Degenerate, Empirical
from fogassign.scenario import (
    NodeSpec,
    Scenario,
    ScenarioError,
    bundled_scenario,
    bundled_scenario_names,
    load_scenario,
    scenario_from_config,
)
from fogassign.solver import UtilityTable, solve_capacitated, solve_uncapacitated, validate_plan
from fogassign.utility import Step, TaskSpec

from conftest import assert_one_record_a_line, plan_scenario, random_scenario, tie_heavy_scenario

GOLDEN = Path(__file__).parent / "golden"

MINIMAL = {
    "name": "tiny",
    "seed": 3,
    "nodes": [
        {"id": "a", "capacity": "inf", "options": ["x"]},
        {"id": "b", "capacity": 2, "options": ["x", "y"]},
    ],
    "tasks": [
        {
            "id": "t1",
            "utility": {"kind": "step", "tv": 0.5},
            "intrinsic": [
                {"node": "a", "option": "x", "value": 0.9},
                {"node": "b", "option": "y", "value": 0.7},
            ],
        }
    ],
    "latency": [
        {"node": "a", "option": "x", "dist": {"kind": "uniform", "lo": 0.1, "hi": 0.6}},
        {"task": "t1", "node": "b", "option": "y", "dist": {"kind": "degenerate", "value": 0.2}},
    ],
}


def write(tmp_path, cfg, name="scen.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


class TestLoad:
    def test_minimal_round_trip(self, tmp_path):
        scen = load_scenario(write(tmp_path, MINIMAL))
        assert scen.name == "tiny"
        assert scen.node("b").capacity == 2
        assert scen.node("a").infinite
        assert scen.dist("t1", "b", "y").value == 0.2
        out = tmp_path / "saved.json"
        scen.save(out)
        again = load_scenario(out)
        assert again.content_hash() == scen.content_hash()

    def test_bundled_names(self):
        names = bundled_scenario_names()
        assert "vii_d_base" in names and "vii_d_two_cap" in names

    def test_bundled_base_shape(self):
        scen = bundled_scenario("vii_d_base")
        assert len(scen.tasks) == 10
        assert [n.id for n in scen.nodes] == ["gateway", "cloud"]
        assert all(n.infinite for n in scen.nodes)
        gw = scen.dist("t03", "gateway", "o1")
        assert (gw.lo, gw.hi) == (0.1, 0.6)
        t07 = next(t for t in scen.tasks if t.id == "t07")
        assert t07.time_utility.ts == pytest.approx(1.0)

    def test_unknown_bundle(self):
        with pytest.raises(ScenarioError):
            bundled_scenario("nope")

    def test_empirical_file_reference(self, tmp_path):
        (tmp_path / "lat.csv").write_text("0.2\n0.4\n0.6\n")
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["latency"][0]["dist"] = {"kind": "empirical", "file": "lat.csv"}
        scen = load_scenario(write(tmp_path, cfg))
        assert scen.dist("t1", "a", "x").n == 3

    def test_empirical_file_takes_comments_and_blank_lines(self, tmp_path):
        # A comment may hold anything, "_" and non-ASCII text included.
        text = "# latência_s, from probe_1\n0.2\n\n  0.4  # µs? no, s\r\n0.6\n#\n"
        (tmp_path / "lat.csv").write_text(text, encoding="utf-8")
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["latency"][0]["dist"] = {"kind": "empirical", "file": "lat.csv"}
        scen = load_scenario(write(tmp_path, cfg))
        assert scen.dist("t1", "a", "x") == Empirical([0.2, 0.4, 0.6])

    @pytest.mark.parametrize(
        "text, extra, message",
        [
            ("0.2\n", {"samples": [0.5]}, "empirical takes samples or file, not both"),
            ("", {}, "empirical distribution needs at least one sample, got zero samples"),
            ("abc\n", {}, "{dir}/lat.csv: line 1 ('abc') is not a finite number"),
            ("0.1 0.2\n", {}, "{dir}/lat.csv: line 1 ('0.1 0.2') is not a finite number"),
            ("0.1 0.2\n0.3 0.4\n", {},
             "{dir}/lat.csv: line 1 ('0.1 0.2') is not a finite number"),
            ("0.1\n0.2 0.3\n", {}, "{dir}/lat.csv: line 2 ('0.2 0.3') is not a finite number"),
            ("0.1,0.2\n", {}, "{dir}/lat.csv: line 1 ('0.1,0.2') is not a finite number"),
            ("# ms\n\n1_000\n", {}, "{dir}/lat.csv: line 3 ('1_000') is not a finite number"),
            ("0.1\nnan\n", {}, "{dir}/lat.csv: line 2 ('nan') is not a finite number"),
            ("# only a comment\n", {},
             "empirical distribution needs at least one sample, got zero samples"),
        ],
        ids=["samples-and-file", "empty-file", "not-a-number", "one-line-of-two",
             "two-lines-of-two", "ragged", "comma-pair", "underscore", "nan", "comment-only"],
    )
    def test_bad_empirical_file_is_one_error(self, tmp_path, text, extra, message):
        # One located error naming the samples file, and no warning before it.
        (tmp_path / "lat.csv").write_text(text)
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["latency"][0]["dist"] = {"kind": "empirical", "file": "lat.csv", **extra}
        path = write(tmp_path, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScenarioError) as info:
                load_scenario(path)
        assert str(info.value).startswith(
            f"{path}: latency[0] dist: " + message.format(dir=tmp_path))

    def test_not_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario(p)

    def test_not_utf8(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_bytes(b'{"name": "\xff"}')
        with pytest.raises(ScenarioError) as info:
            load_scenario(p)
        assert str(info.value) == (f"{p}: not valid JSON: 'utf-8' codec can't decode byte 0xff "
                                   "in position 10: invalid start byte")


class TestValidation:
    def test_mixture_weights_off(self, tmp_path):
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["latency"][0]["dist"] = {
            "kind": "mixture",
            "components": [{"kind": "uniform", "lo": 0, "hi": 1},
                           {"kind": "degenerate", "value": 0.5}],
            "weights": [0.5, 0.4],
        }
        with pytest.raises(ScenarioError, match="sum to 1"):
            load_scenario(write(tmp_path, cfg))

    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("latency", 0, "dist"), {"kind": "mixture", "weights": [float("nan"), 1.0],
                                      "components": [{"kind": "degenerate", "value": 0.2},
                                                     {"kind": "degenerate", "value": 0.3}]},
             "mixture weights"),
            (("latency", 1, "dist", "value"), float("nan"), "degenerate value"),
            (("latency", 0, "dist", "hi"), float("inf"), "uniform hi"),
            (("tasks", 0, "utility", "tv"), float("nan"), "step tv"),
            (("tasks", 0, "utility", "tv"), -0.5, "step tv"),
            (("tasks", 0, "utility", "tv"), 10**400, "step tv"),
            (("nodes", 1, "capacity"), 2.7, "capacity"),
            (("nodes", 1, "capacity"), True, "capacity"),
            (("seed",), -1, "seed"),
            (("seed",), 1.5, "seed"),
            (("seed",), True, "seed"),
            (("latency", 0, "dist"), {"kind": "uniform", "lo": False, "hi": True}, "uniform lo"),
            (("tasks", 0, "utility"), {"kind": "step", "tv": True}, "step tv"),
            (("latency", 0, "dist"), {"kind": "gev", "shape": "0.3", "scale": "0.1",
                                      "loc": "0.5"}, "gev shape"),
            (("latency", 0, "dist"), {"kind": "mixture", "weights": ["0.5", 0.5],
                                      "components": [{"kind": "degenerate", "value": 0.2},
                                                     {"kind": "degenerate", "value": 0.3}]},
             "mixture weights"),
            (("tasks", 0, "risk_budget"), True, "task 't1': risk_budget"),
            (("tasks", 0, "quality_floor"), "0.5", "task 't1': quality_floor"),
            (("tasks", 0, "intrinsic", 0, "value"), "0.6", r"task 't1' intrinsic\[0\]: value"),
            (("latency", 0, "dist"), {"kind": "empirical", "samples": [0.2, True]},
             r"latency\[0\] dist: empirical samples must be numbers \(got True\)"),
            (("latency", 0, "dist"), {"kind": "empirical", "samples": ["0.2"]},
             r"latency\[0\] dist: empirical samples must be numbers \(got '0.2'\)"),
            (("latency", 0, "dist"), {"kind": "empirical", "samples": [0.2, [0.3]]},
             r"latency\[0\] dist: empirical samples must be numbers \(got \[0.3\]\)"),
            (("latency", 0, "dist"), {"kind": "empirical", "samples": [0.2, 10**400]},
             r"latency\[0\] dist: empirical samples must be finite"),
            # Ids, references and text are JSON strings, never coerced to one.
            (("tasks", 0, "id"), 5, r"tasks\[0\]: id must be a string \(got 5\)"),
            (("tasks", 0, "id"), ["t1"], r"tasks\[0\]: id must be a string \(got \['t1'\]\)"),
            (("nodes", 0, "id"), 5, r"nodes\[0\]: id must be a string \(got 5\)"),
            (("nodes", 1, "options"), "xy",
             r"node 'b': options must be a list of strings \(got 'xy'\)"),
            (("nodes", 1, "options"), ["x", 5], r"node 'b': options must be a string \(got 5\)"),
            (("tasks", 0, "intrinsic", 0, "node"), 5,
             r"task 't1' intrinsic\[0\]: node must be a string \(got 5\)"),
            (("tasks", 0, "intrinsic", 1, "option"), None,
             r"task 't1' intrinsic\[1\]: option must be a string \(got None\)"),
            (("latency", 0, "node"), ["a"], r"latency\[0\]: node must be a string"),
            (("latency", 0, "option"), 5, r"latency\[0\]: option must be a string"),
            (("latency", 1, "task"), ["t1"], r"latency\[1\]: task must be a string"),
            (("name",), ["x"], r"name must be a string \(got \['x'\]\)"),
            (("notes",), 5, r"notes must be a string \(got 5\)"),
            # Finite bounds whose span overflows to inf.
            (("latency", 0, "dist"), {"kind": "uniform", "lo": -1e308, "hi": 1e308},
             r"latency\[0\] dist: uniform hi - lo must be finite"),
            (("tasks", 0, "utility"), {"kind": "wrf", "te": -1e308, "ts": 1e308},
             r"task 't1' utility: wrf ts - te must be finite"),
            (("tasks", 0, "utility"), {"kind": "wrf", "te": -0.5, "ts": 0.4},
             r"task 't1' utility: wrf te must be >= 0 \(got -0.5\)"),
        ],
        ids=["mixture-nan-weight", "degenerate-nan", "uniform-inf-hi", "step-nan-tv",
             "step-negative-tv", "step-huge-tv", "fractional-capacity", "bool-capacity",
             "negative-seed", "fractional-seed", "bool-seed", "bool-uniform-bounds",
             "bool-step-tv", "string-gev-params", "string-mixture-weight",
             "bool-risk-budget", "string-quality-floor", "string-intrinsic-value",
             "bool-empirical-sample", "string-empirical-sample", "nested-empirical-sample",
             "huge-empirical-sample", "int-task-id", "list-task-id", "int-node-id",
             "string-options", "int-option", "int-intrinsic-node", "null-intrinsic-option",
             "list-latency-node", "int-latency-option", "list-latency-task", "list-name",
             "int-notes", "uniform-overflowing-span", "wrf-overflowing-span",
             "wrf-negative-te"],
    )
    def test_non_finite_or_invalid_parameter_rejected(self, tmp_path, path, value, field):
        cfg = json.loads(json.dumps(MINIMAL))
        target = cfg
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ScenarioError, match=field):
            load_scenario(write(tmp_path, cfg))

    @pytest.mark.parametrize(
        "path, message",
        [
            (("tasks", 0, "utility", "tv"), "task 't1' utility: missing field 'tv'"),
            (("tasks", 0, "utility"), "task 't1': missing field 'utility'"),
            (("tasks", 0, "id"), "tasks[0]: missing field 'id'"),
            (("tasks", 0, "intrinsic", 1, "value"),
             "task 't1' intrinsic[1]: missing field 'value'"),
            (("nodes", 1, "options"), "node 'b': missing field 'options'"),
            (("latency", 0, "dist", "hi"), "latency[0] dist: missing field 'hi'"),
            (("latency", 1, "option"), "latency[1]: missing field 'option'"),
            (("nodes",), "invalid scenario config: missing field 'nodes'"),
        ],
        ids=["utility-field", "utility", "task-id", "intrinsic-value", "node-options",
             "dist-field", "latency-option", "nodes"],
    )
    def test_missing_field_names_its_record(self, path, message):
        cfg = json.loads(json.dumps(MINIMAL))
        target = cfg
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
        with pytest.raises(ScenarioError) as info:
            scenario_from_config(cfg)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "entry, message",
        [
            (3, "latency[0]: "),
            ({"node": "a", "option": "x", "dist": {"kind": "empirical", "file": "nope.csv"}},
             "latency[0] dist: "),
        ],
        ids=["not-a-mapping", "missing-empirical-file"],
    )
    def test_bad_latency_entry_is_located(self, tmp_path, entry, message):
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["latency"][0] = entry
        path = write(tmp_path, cfg)
        with pytest.raises(ScenarioError) as info:
            load_scenario(path)
        assert str(info.value).startswith(f"{path}: {message}")

    # Sections are JSON arrays and records JSON objects: anything else is
    # named by file, record and field, never read as empty or iterated.
    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("tasks",), {}, "invalid scenario config: tasks must be a list of objects (got {})"),
            (("latency",), {},
             "invalid scenario config: latency must be a list of objects (got {})"),
            (("nodes",), "ab",
             "invalid scenario config: nodes must be a list of objects (got 'ab')"),
            (("tasks", 0, "intrinsic"), {},
             "task 't1': intrinsic must be a list of objects (got {})"),
            (("tasks", 0, "intrinsic"), "a",
             "task 't1': intrinsic must be a list of objects (got 'a')"),
            (("tasks", 0), 5, "tasks[0]: must be a JSON object (got 5)"),
            (("tasks", 0, "intrinsic", 1), ["b", "y"],
             "task 't1' intrinsic[1]: must be a JSON object (got ['b', 'y'])"),
            (("tasks", 0, "utility"), 0.5, "task 't1' utility: must be a JSON object (got 0.5)"),
            (("latency", 0, "dist"), "uniform",
             "latency[0] dist: must be a JSON object (got 'uniform')"),
            (("latency", 0, "dist"), {"kind": "empirical", "samples": 5},
             "latency[0] dist: samples must be a list of numbers (got 5)"),
            (("latency", 0, "dist"), {"kind": "mixture", "weights": {"a": 1.0},
                                      "components": [{"kind": "degenerate", "value": 0.2}]},
             "latency[0] dist: weights must be a list of numbers (got {'a': 1.0})"),
            (("latency", 0, "dist"), {"kind": "mixture", "weights": [1.0],
                                      "components": {"kind": "degenerate", "value": 0.2}},
             "latency[0] dist: components must be a list of objects "
             "(got {'kind': 'degenerate', 'value': 0.2})"),
            (("latency", 0, "dist"), {"kind": "mixture", "weights": [0.5, 0.5],
                                      "components": [{"kind": "degenerate", "value": 0.2},
                                                     {"kind": "uniform", "lo": 0.1}]},
             "latency[0] dist components[1]: missing field 'hi'"),
            (("latency", 0, "dist"), {"kind": 5}, "latency[0] dist: kind must be a string (got 5)"),
        ],
        ids=["tasks-object", "latency-object", "nodes-string", "intrinsic-object",
             "intrinsic-string", "task-number", "intrinsic-entry-list", "utility-number",
             "dist-string", "samples-number", "weights-object", "components-object",
             "component-field", "kind-number"],
    )
    def test_malformed_section_or_record_is_named(self, tmp_path, path, value, message):
        cfg = json.loads(json.dumps(MINIMAL))
        target = cfg
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        scen = write(tmp_path, cfg)
        with pytest.raises(ScenarioError) as info:
            load_scenario(scen)
        assert str(info.value) == f"{scen}: {message}"

    def test_dangling_intrinsic(self, tmp_path):
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["tasks"][0]["intrinsic"].append({"node": "ghost", "option": "x", "value": 0.5})
        with pytest.raises(ScenarioError, match="unknown pair"):
            load_scenario(write(tmp_path, cfg))

    def test_missing_latency_for_offered_pair(self, tmp_path):
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["latency"] = cfg["latency"][:1]  # drop the (b, y) model
        with pytest.raises(ScenarioError, match="no latency model"):
            load_scenario(write(tmp_path, cfg))

    def test_negative_support_rejected(self, tmp_path):
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["latency"][0]["dist"] = {"kind": "uniform", "lo": -0.05, "hi": 0.6}
        with pytest.raises(ScenarioError, match="support below 0"):
            load_scenario(write(tmp_path, cfg))

    def test_gev_negative_support_rejected(self, tmp_path):
        cfg = json.loads(json.dumps(MINIMAL))
        # support lower bound loc - scale/shape = -0.52
        cfg["latency"][0]["dist"] = {"kind": "gev", "shape": 0.1, "scale": 0.1, "loc": 0.48}
        with pytest.raises(ScenarioError, match="support below 0"):
            load_scenario(write(tmp_path, cfg))

    def test_duplicate_ids(self, tmp_path):
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["nodes"].append(cfg["nodes"][0])
        path = write(tmp_path, cfg)
        with pytest.raises(ScenarioError) as info:
            load_scenario(path)
        assert str(info.value) == f"{path}: duplicate node ids: 'a'"

    @pytest.mark.parametrize("edit, message", [
        (lambda cfg: cfg["tasks"].append(cfg["tasks"][0]), "duplicate task ids: 't1'"),
        (lambda cfg: cfg["latency"].append(
            {"task": "ghost", "node": "a", "option": "x", "dist": {"kind": "degenerate", "value": 0.2}}),
         "latency entry references unknown task 'ghost'"),
        (lambda cfg: cfg["latency"].append(
            {"node": "a", "option": "y", "dist": {"kind": "degenerate", "value": 0.2}}),
         "latency entry references unknown pair ('a', 'y')"),
        # Node b offers x, but task t1 is offered only a/x and b/y.
        (lambda cfg: cfg["latency"].append(
            {"task": "t1", "node": "b", "option": "x", "dist": {"kind": "degenerate", "value": 0.2}}),
         "latency entry for task 't1' references pair ('b', 'x'), which the task is not offered"),
        (lambda cfg: cfg["latency"][0]["dist"].update(kind="weibull"),
         "latency[0] dist: unknown distribution kind 'weibull'"),
        (lambda cfg: cfg["tasks"][0]["utility"].update(kind="cliff"),
         "task 't1' utility: unknown time-utility kind 'cliff'"),
    ], ids=["duplicate-task", "latency-unknown-task", "latency-unknown-pair",
            "latency-pair-not-offered", "unknown-latency-kind", "unknown-utility-kind"])
    def test_rejected_config_names_the_fault(self, edit, message):
        cfg = json.loads(json.dumps(MINIMAL))
        edit(cfg)
        with pytest.raises(ScenarioError) as info:
            scenario_from_config(cfg)
        assert str(info.value) == message

    @pytest.mark.parametrize("index, match", [
        (0, "every task, node 'a', option 'x'"),
        (1, "task 't1', node 'b', option 'y'"),
    ], ids=["shared", "task-specific"])
    def test_duplicate_latency_entry(self, tmp_path, index, match):
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["latency"].append(cfg["latency"][index])
        with pytest.raises(ScenarioError, match=f"duplicate latency entry for {match}"):
            load_scenario(write(tmp_path, cfg))

    def test_duplicate_intrinsic_entry(self, tmp_path):
        cfg = json.loads((resources.files("fogassign") / "scenarios" / "vii_d_base.json").read_text())
        cfg["tasks"][0]["intrinsic"].append({"node": "cloud", "option": "o1", "value": 0.1})
        with pytest.raises(ScenarioError,
                           match="task 't01': duplicate intrinsic entry for node 'cloud', option 'o1'"):
            load_scenario(write(tmp_path, cfg))

    def test_duplicate_node_option(self, tmp_path):
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["nodes"][1]["options"] = ["x", "y", "x"]
        with pytest.raises(ScenarioError, match="node b: option 'x' listed twice"):
            load_scenario(write(tmp_path, cfg))

    def test_task_entry_overrides_shared_entry(self, tmp_path):
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["latency"].append(
            {"task": "t1", "node": "a", "option": "x", "dist": {"kind": "degenerate", "value": 0.3}}
        )
        assert load_scenario(write(tmp_path, cfg)).dist("t1", "a", "x").value == 0.3

    def test_empty_tasks_is_valid(self, tmp_path):
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["tasks"] = []
        cfg["latency"] = []
        scen = load_scenario(write(tmp_path, cfg))
        plan = solve_capacitated(scen)
        assert plan.decisions == {} and plan.total_utility == 0.0

    def test_node_invariants(self):
        with pytest.raises(ScenarioError):
            NodeSpec(id="z", options=())
        with pytest.raises(ScenarioError):
            NodeSpec(id="z", options=("x",), capacity=0)


class TestHash:
    def test_stable_under_field_reordering(self, tmp_path):
        scrambled = {k: MINIMAL[k] for k in reversed(list(MINIMAL))}
        scrambled["tasks"] = [
            {k: t[k] for k in reversed(list(t))} for t in scrambled["tasks"]
        ]
        a = load_scenario(write(tmp_path, MINIMAL, "a.json"))
        b = load_scenario(write(tmp_path, scrambled, "b.json"))
        assert a.content_hash() == b.content_hash()

    def test_shared_vs_explicit_latency_spelling(self, tmp_path):
        explicit = json.loads(json.dumps(MINIMAL))
        explicit["latency"][0]["task"] = "t1"  # same triple, spelled per task
        a = load_scenario(write(tmp_path, MINIMAL, "a.json"))
        b = load_scenario(write(tmp_path, explicit, "b.json"))
        assert a.content_hash() == b.content_hash()

    # A shared entry reaches only the tasks offered its pair, so spelling
    # each one out for those tasks alone is the same scenario.
    def test_shared_entries_spelled_per_offered_task_hash_alike(self):
        cfg = json.loads((GOLDEN / "every_kind.scenario.json").read_text())
        shared = [e for e in cfg["latency"] if "task" not in e]
        assert shared
        per_task = [e for e in cfg["latency"] if "task" in e]
        spelled = {(e["task"], e["node"], e["option"]) for e in per_task}
        for e in shared:
            for t in cfg["tasks"]:
                triple = (t["id"], e["node"], e["option"])
                offered = {(i["node"], i["option"]) for i in t["intrinsic"]}
                if triple[1:] in offered and triple not in spelled:
                    per_task.append({"task": t["id"], **e})
        a = scenario_from_config(cfg, GOLDEN)
        b = scenario_from_config({**cfg, "latency": per_task}, GOLDEN)
        assert a.latency.keys() == b.latency.keys()
        assert a.content_hash() == b.content_hash()

    # Node b offers x, but no task is offered b/x: the entry adds nothing.
    def test_shared_entry_no_task_is_offered_adds_nothing(self):
        unused = json.loads(json.dumps(MINIMAL))
        unused["latency"].append(
            {"node": "b", "option": "x", "dist": {"kind": "degenerate", "value": 0.2}})
        a, b = scenario_from_config(MINIMAL), scenario_from_config(unused)
        assert a.latency.keys() == b.latency.keys() == {("t1", "a", "x"), ("t1", "b", "y")}
        assert a.content_hash() == b.content_hash()

    def test_notes_do_not_change_hash(self, tmp_path):
        noted = json.loads(json.dumps(MINIMAL))
        noted["notes"] = "commentary only"
        a = load_scenario(write(tmp_path, MINIMAL, "a.json"))
        b = load_scenario(write(tmp_path, noted, "b.json"))
        assert a.content_hash() == b.content_hash()

    def test_semantic_change_changes_hash(self, tmp_path):
        changed = json.loads(json.dumps(MINIMAL))
        changed["tasks"][0]["intrinsic"][0]["value"] = 0.91
        a = load_scenario(write(tmp_path, MINIMAL, "a.json"))
        b = load_scenario(write(tmp_path, changed, "b.json"))
        assert a.content_hash() != b.content_hash()

    def test_memory_does_not_grow_with_tasks(self):
        scen = plan_scenario(1, 1000, 40)
        tracemalloc.start()
        try:
            scen.content_hash()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # the whole canonical form and its text peak near 8.6 MB

    def test_capacity_override(self):
        base = bundled_scenario("vii_d_base")
        capped = base.with_node_capacity("gateway", 2)
        assert capped.node("gateway").capacity == 2
        assert base.node("gateway").infinite  # original untouched
        assert capped.content_hash() != base.content_hash()
        with pytest.raises(KeyError):
            base.with_node_capacity("nope", 2)


# The canonical form as one dict tree, its hash as one JSON text, and the
# writer over that tree: the references that ``content_hash`` and ``save``,
# which build the form one record at a time, must equal byte for byte.
def reference_config(scen) -> dict:
    return {
        "name": scen.name,
        "seed": scen.seed,
        "nodes": [
            {"id": n.id, "capacity": "inf" if n.capacity is None else n.capacity,
             "options": list(n.options)}
            for n in scen.nodes
        ],
        "tasks": [
            {
                "id": t.id,
                "utility": t.time_utility.to_config(),
                "quality_floor": t.quality_floor,
                "risk_budget": t.risk_budget,
                "intrinsic": [{"node": z, "option": x, "value": t.intrinsic[(z, x)]}
                              for (z, x) in sorted(t.intrinsic)],
            }
            for t in scen.tasks
        ],
        "latency": [
            {"task": j, "node": z, "option": x, "dist": scen.latency[(j, z, x)].to_config()}
            for (j, z, x) in sorted(scen.latency)
        ],
        "notes": scen.notes,
    }


def reference_hash(scen) -> str:
    canonical = reference_config(scen)
    del canonical["notes"]
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def reference_file(scen) -> bytes:
    parts = []
    for i, (key, value) in enumerate(reference_config(scen).items()):
        parts.append(f"{',' if i else '{'}\n  {json.dumps(key)}: ")
        if isinstance(value, list) and value:
            parts.extend(f"{',' if k else '['}\n    {json.dumps(record)}"
                         for k, record in enumerate(value))
            parts.append("\n  ]")
        else:
            parts.append(json.dumps(value))
    parts.append("\n}\n")
    return "".join(parts).encode("utf-8")


def assert_saves_and_loads_back(scen, path):
    """``scen.save(path)`` writes the reference file, which loads back to
    equal records and hash, one record a line; the hash is the reference's."""
    scen.save(path)
    assert path.read_bytes() == reference_file(scen)
    assert scen.content_hash() == reference_hash(scen)
    again = load_scenario(path)
    assert again.to_config() == scen.to_config() == reference_config(scen)
    assert again.content_hash() == scen.content_hash()
    assert_one_record_a_line(path, scen.to_config())


class TestSave:
    @pytest.mark.parametrize("name", bundled_scenario_names())
    def test_bundled(self, tmp_path, name):
        assert_saves_and_loads_back(bundled_scenario(name), tmp_path / "saved.json")

    @pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.scenario.json")))
    def test_golden(self, tmp_path, name):
        assert_saves_and_loads_back(load_scenario(GOLDEN / name), tmp_path / "saved.json")

    def test_random_scenarios(self, tmp_path):
        for seed in range(200):
            assert_saves_and_loads_back(random_scenario(seed), tmp_path / "saved.json")

    def test_tie_heavy_scenarios(self, tmp_path):
        for seed in range(300):
            assert_saves_and_loads_back(tie_heavy_scenario(seed), tmp_path / "saved.json")

    def test_plan_scenarios(self, tmp_path):
        for seed in (1, 2, 3):
            assert_saves_and_loads_back(plan_scenario(seed, 1000, 40), tmp_path / "saved.json")

    # json.dumps escapes every non-ASCII character and every quote,
    # backslash and control character, in ids and notes alike.
    def test_non_ascii_and_escaped_text(self, tmp_path):
        scen = load_scenario(write(tmp_path, MINIMAL))
        task = replace(scen.tasks[0], id="tâche-µ\u2603")
        latency = {(task.id, z, x): dist for (_, z, x), dist in scen.latency.items()}
        scen = replace(scen, name="名前", tasks=[task], latency=latency,
                       notes='quote " backslash \\ tab \t newline \n end')
        scen.validate()
        path = tmp_path / "saved.json"
        assert_saves_and_loads_back(scen, path)
        assert path.read_text(encoding="utf-8").isascii()
        assert load_scenario(path).tasks[0].id == "tâche-µ\u2603"

    def test_empty_latency_section(self, tmp_path):
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["tasks"][0]["intrinsic"] = []
        cfg["latency"] = []
        scen = load_scenario(write(tmp_path, cfg))
        path = tmp_path / "saved.json"
        assert_saves_and_loads_back(scen, path)
        assert '\n  "latency": [],\n' in path.read_text(encoding="utf-8")

    # Every line is encoded before the file is opened: a value JSON cannot
    # encode leaves the file that was there.
    def test_value_json_cannot_encode_leaves_the_file(self, tmp_path):
        path = tmp_path / "saved.json"
        path.write_text("before\n")
        scen = replace(bundled_scenario("vii_d_base"), seed=np.int64(3))
        with pytest.raises(TypeError):
            scen.save(path)
        assert path.read_text() == "before\n"

    # Files written in any other layout still load, such as the indented
    # one that earlier versions saved.
    def test_indented_layout_loads(self, tmp_path):
        scen = bundled_scenario("vii_d_base")
        path = tmp_path / "indented.json"
        path.write_text(json.dumps(scen.to_config(), indent=2) + "\n", encoding="utf-8")
        assert load_scenario(path).to_config() == scen.to_config()
        saved = tmp_path / "saved.json"
        scen.save(saved)
        assert saved.stat().st_size < path.stat().st_size


def test_solver_requires_uncapacitated(tmp_path):
    scen = load_scenario(write(tmp_path, MINIMAL))
    from fogassign.solver import WrongSolverError

    with pytest.raises(WrongSolverError, match="solve_capacitated"):
        solve_uncapacitated(scen)


def test_programmatic_scenario_validation(tmp_path):
    task = TaskSpec(id="t", time_utility=Step(0.5), intrinsic={("z", "x"): 0.5})
    with pytest.raises(ScenarioError, match="no latency model"):
        Scenario(
            name="s",
            tasks=[task],
            nodes=[NodeSpec(id="z", options=("x",))],
            latency={},
        ).validate()
    # Node z offers y, but task t is not offered z/y.
    scen = Scenario(name="s", tasks=[task], nodes=[NodeSpec(id="z", options=("x", "y"))],
                    latency={("t", "z", "x"): Degenerate(0.2), ("t", "z", "y"): Degenerate(0.2)})
    with pytest.raises(ScenarioError) as info:
        scen.validate()
    assert str(info.value) == (
        "latency entry for task 't' references pair ('z', 'y'), which the task is not offered")
    # A scalar field the reader would refuse in the saved file.
    base = bundled_scenario("vii_d_base")
    for key, value in [("seed", -1), ("seed", True), ("seed", np.int64(3)), ("seed", 3.0),
                       ("seed", "3"), ("name", 5), ("name", None), ("notes", b"bytes")]:
        scen = replace(base, **{key: value})
        kind = "an integer >= 0" if key == "seed" else "a string"
        with pytest.raises(ScenarioError) as info:
            scen.validate()
        assert str(info.value) == f"{key} must be {kind} (got {value!r})"
    # A capacity the reader would refuse, refused as the reader words it.
    path = tmp_path / "capped.json"
    assert base.nodes[0].id == "gateway"
    # The reader takes 2.0 as 2, and JSON cannot hold a numpy integer.
    for cap, in_file in [(True, True), (False, True), (0, True), (-1, True), (2.5, True),
                         ("2", True), (2.0, False), (np.int64(2), False)]:
        with pytest.raises(ScenarioError) as info:
            base.with_node_capacity("gateway", cap)
        assert str(info.value) == (
            f"node 'gateway': capacity must be 'inf' or an integer >= 1 (got {cap!r})")
        if in_file:
            cfg = base.to_config()
            cfg["nodes"][0]["capacity"] = cap
            path.write_text(json.dumps(cfg), encoding="utf-8")
            with pytest.raises(ScenarioError) as read:
                load_scenario(path)
            assert str(read.value) == f"{path}: {info.value}"
    # An id that is not a string, which save and content_hash cannot encode.
    for kind in ["tasks", "nodes"]:
        records = list(getattr(base, kind))
        records[1] = replace(records[1], id=7)
        scen = replace(base, **{kind: records})
        with pytest.raises(ScenarioError) as info:
            scen.validate()
        assert str(info.value) == f"{kind}[1]: id must be a string (got 7)"


# -- every scenario that loads can be planned --------------------------------

_SPECIALS = st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0])


def _mostly(normal):
    """``normal`` 31 times in 32, otherwise a special value."""
    return st.integers(0, 31).flatmap(lambda i: _SPECIALS if i == 31 else normal)


_VALUES = _mostly(st.floats(1e-3, 1e3))
_FRACTIONS = _mostly(st.floats(0.0, 1.0))


@st.composite
def _weights(draw, k, values=_VALUES):
    raw = draw(st.lists(values, min_size=k, max_size=k))
    total = sum(raw)
    return [w / total for w in raw] if total > 0 else raw


@st.composite
def _simple_dist(draw, values=_VALUES):
    # Upper parameters are offsets from the lower ones, so that most draws
    # are ordered and in support; a special offset (-1, NaN, ...) is not.
    kind = draw(st.sampled_from(["gev", "uniform", "degenerate", "empirical"]))
    if kind == "gev":
        shape, scale = draw(values), draw(values)
        return {"kind": kind, "shape": shape, "scale": scale,
                "loc": scale / shape + draw(values) if shape else draw(values)}
    if kind == "uniform":
        lo = draw(values)
        return {"kind": kind, "lo": lo, "hi": lo + draw(values)}
    if kind == "degenerate":
        return {"kind": kind, "value": draw(values)}
    return {"kind": kind, "samples": draw(st.lists(values, min_size=1, max_size=5))}


def _dists(values):
    """Latency model configs of every kind, parameters drawn from ``values``."""
    return st.one_of(
        _simple_dist(values),
        st.integers(1, 3).flatmap(
            lambda k: st.fixed_dictionaries(
                {
                    "kind": st.just("mixture"),
                    "components": st.lists(_simple_dist(values), min_size=k, max_size=k),
                    "weights": _weights(k, values),
                }
            )
        ),
    )


def _utilities(values):
    return st.one_of(
        st.fixed_dictionaries({"kind": st.just("step"), "tv": values}),
        st.fixed_dictionaries({"kind": st.just("exp"), "k": values}),
        values.flatmap(
            lambda te: values.map(lambda dt: {"kind": "wrf", "te": te, "ts": te + dt})
        ),
    )


_DISTS, _UTILITIES = _dists(_VALUES), _utilities(_VALUES)


@st.composite
def _scenario_configs(draw):
    n_nodes = draw(st.integers(1, 3))
    n_finite = draw(st.integers(0, min(2, n_nodes)))
    nodes = []
    for z in range(n_nodes):
        capacity = draw(_mostly(st.integers(1, 3))) if z < n_finite else "inf"
        options = [f"x{i}" for i in range(draw(st.integers(1, 2)))]
        nodes.append({"id": f"z{z}", "capacity": capacity, "options": options})
    pairs = [(n["id"], x) for n in nodes for x in n["options"]]
    shared = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    tasks = []
    latency = [{"node": z, "option": x, "dist": draw(_DISTS)} for z, x in shared]
    for j in range(draw(st.integers(0, 4))):
        offered = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
        tasks.append(
            {
                "id": f"j{j}",
                "utility": draw(_UTILITIES),
                "quality_floor": draw(_FRACTIONS),
                "risk_budget": draw(_FRACTIONS),
                "intrinsic": [
                    {"node": z, "option": x, "value": draw(_FRACTIONS)} for z, x in offered
                ],
            }
        )
        latency += [
            {"task": f"j{j}", "node": z, "option": x, "dist": draw(_DISTS)} for z, x in offered
        ]
    return {"name": "prop", "seed": 0, "nodes": nodes, "tasks": tasks, "latency": latency}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_scenario_configs())
def test_loaded_scenarios_plan_cleanly(cfg):
    try:
        scen = scenario_from_config(cfg)
    except ScenarioError:
        return
    table = UtilityTable(scen)
    for i, t in enumerate(scen.tasks):
        for z, x in t.intrinsic:
            u = float(table.utility[i, table.columns.index((z, x))])
            assert math.isfinite(u) and 0.0 <= u <= 1.0, (t.id, z, x, u)
    assert validate_plan(scen, solve_capacitated(scen)) == []


# -- the hash and the file equal the one-shot references ---------------------

# Ids and text of any Unicode character: non-ASCII, quotes, backslashes and
# control characters, which JSON escapes.
_TEXT = st.text(st.characters(codec="utf-8"), max_size=4)


@st.composite
def _valid_configs(draw):
    """Scenario configs that load: text ids and notes, shared and per-task
    latency entries of every kind, and sections that may be empty."""
    values, fractions = st.floats(1e-3, 1e3), st.floats(0.0, 1.0)
    dists = _dists(values)
    nodes = [
        {"id": z, "capacity": draw(st.sampled_from(["inf", 1, 2])),
         "options": draw(st.lists(_TEXT, min_size=1, max_size=2, unique=True))}
        for z in draw(st.lists(_TEXT, min_size=1, max_size=3, unique=True))
    ]
    pairs = [(n["id"], x) for n in nodes for x in n["options"]]
    shared = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    latency = [{"node": z, "option": x, "dist": draw(dists)} for z, x in shared]
    tasks = []
    for j in draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True)):
        offered = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
        tasks.append({
            "id": j,
            "utility": draw(_utilities(values)),
            "quality_floor": draw(fractions),
            "risk_budget": draw(fractions),
            "intrinsic": [{"node": z, "option": x, "value": draw(fractions)} for z, x in offered],
        })
        # A pair without a shared entry needs one for the task; a pair with
        # one may override it.
        latency += [{"task": j, "node": z, "option": x, "dist": draw(dists)}
                    for z, x in offered if (z, x) not in shared or draw(st.booleans())]
    return {"name": draw(_TEXT), "seed": draw(st.integers(0, 2**64)), "notes": draw(_TEXT),
            "nodes": nodes, "tasks": tasks, "latency": latency}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_valid_configs())
def test_hash_and_file_equal_the_one_shot_references(tmp_path_factory, cfg):
    path = tmp_path_factory.getbasetemp() / "property.scenario.json"
    assert_saves_and_loads_back(scenario_from_config(cfg), path)
