import json

import pytest

from fogassign.scenario import (
    NodeSpec,
    Scenario,
    ScenarioError,
    bundled_scenario,
    bundled_scenario_names,
    load_scenario,
)
from fogassign.solver import solve_capacitated, solve_uncapacitated
from fogassign.utility import Step, TaskSpec

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
        assert scen.task("t07").time_utility.ts == pytest.approx(1.0)

    def test_unknown_bundle(self):
        with pytest.raises(ScenarioError):
            bundled_scenario("nope")

    def test_empirical_file_reference(self, tmp_path):
        (tmp_path / "lat.csv").write_text("0.2\n0.4\n0.6\n")
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["latency"][0]["dist"] = {"kind": "empirical", "file": "lat.csv"}
        scen = load_scenario(write(tmp_path, cfg))
        assert scen.dist("t1", "a", "x").n == 3

    def test_not_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario(p)


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
            (("nodes", 1, "capacity"), 2.7, "capacity"),
        ],
        ids=["mixture-nan-weight", "degenerate-nan", "uniform-inf-hi", "step-nan-tv",
             "step-negative-tv", "fractional-capacity"],
    )
    def test_non_finite_or_invalid_parameter_rejected(self, tmp_path, path, value, field):
        cfg = json.loads(json.dumps(MINIMAL))
        target = cfg
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ScenarioError, match=field):
            load_scenario(write(tmp_path, cfg))

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
        with pytest.raises(ScenarioError, match="duplicate node"):
            load_scenario(write(tmp_path, cfg))

    @pytest.mark.parametrize("index, match", [
        (0, "every task, node 'a', option 'x'"),
        (1, "task 't1', node 'b', option 'y'"),
    ], ids=["shared", "task-specific"])
    def test_duplicate_latency_entry(self, tmp_path, index, match):
        cfg = json.loads(json.dumps(MINIMAL))
        cfg["latency"].append(cfg["latency"][index])
        with pytest.raises(ScenarioError, match=f"duplicate latency entry for {match}"):
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

    def test_capacity_override(self):
        base = bundled_scenario("vii_d_base")
        capped = base.with_node_capacity("gateway", 2)
        assert capped.node("gateway").capacity == 2
        assert base.node("gateway").infinite  # original untouched
        assert capped.content_hash() != base.content_hash()


def test_solver_requires_uncapacitated(tmp_path):
    scen = load_scenario(write(tmp_path, MINIMAL))
    from fogassign.solver import WrongSolverError

    with pytest.raises(WrongSolverError, match="solve_capacitated"):
        solve_uncapacitated(scen)


def test_programmatic_scenario_validation():
    task = TaskSpec(id="t", time_utility=Step(0.5), intrinsic={("z", "x"): 0.5})
    with pytest.raises(ScenarioError, match="no latency model"):
        Scenario(
            name="s",
            tasks=[task],
            nodes=[NodeSpec(id="z", options=("x",))],
            latency={},
        ).validate()
