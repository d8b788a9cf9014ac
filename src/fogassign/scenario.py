"""Scenario configuration: the tasks, nodes, and latency models of one run.

A scenario file is a single JSON document::

    {
      "name": "example", "seed": 7, "notes": "free text, not hashed",
      "nodes": [{"id": "gw", "capacity": 3, "options": ["o1"]},
                {"id": "cloud", "capacity": "inf", "options": ["o1"]}],
      "tasks": [{"id": "t1",
                 "utility": {"kind": "wrf", "te": 0.3, "ts": 0.4},
                 "quality_floor": 0.0, "risk_budget": 1.0,
                 "intrinsic": [{"node": "gw", "option": "o1", "value": 0.6}]}],
      "latency": [{"node": "gw", "option": "o1",
                   "dist": {"kind": "uniform", "lo": 0.1, "hi": 0.6}}]
    }

A latency entry without a "task" field applies to every task (a common
case: per-node latency models shared by the whole task set); entries with
a "task" override the shared one for that triple.  A second entry for the
same shared pair, or for the same triple, is an error.  Loading validates all
cross references and rejects any latency model whose support dips below
zero, so downstream expectations never see negative completion times.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from .latency import LatencyDistribution, dist_from_config
from .utility import TaskSpec, utility_from_config

__all__ = [
    "NodeSpec",
    "Scenario",
    "ScenarioError",
    "load_scenario",
    "scenario_from_config",
    "bundled_scenario",
    "bundled_scenario_names",
]


class ScenarioError(ValueError):
    """A scenario file violated the schema or an invariant."""


@dataclass(frozen=True)
class NodeSpec:
    """An execution point: finite task capacity or None for unlimited."""

    id: str
    options: tuple[str, ...]
    capacity: int | None = None

    def __post_init__(self):
        if len(self.options) == 0:
            raise ScenarioError(f"node {self.id}: must offer at least one option")
        if self.capacity is not None and self.capacity < 1:
            raise ScenarioError(f"node {self.id}: finite capacity must be >= 1")

    @property
    def infinite(self) -> bool:
        return self.capacity is None


@dataclass
class Scenario:
    name: str
    tasks: list[TaskSpec]
    nodes: list[NodeSpec]
    latency: dict[tuple[str, str, str], LatencyDistribution]
    seed: int = 0
    notes: str = ""

    def node(self, node_id: str) -> NodeSpec:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(node_id)

    def task(self, task_id: str) -> TaskSpec:
        for t in self.tasks:
            if t.id == task_id:
                return t
        raise KeyError(task_id)

    def dist(self, task_id: str, node_id: str, option_id: str) -> LatencyDistribution:
        return self.latency[(task_id, node_id, option_id)]

    def with_node_capacity(self, node_id: str, capacity: int | None) -> "Scenario":
        """Copy of the scenario with one node's capacity replaced.

        Tasks and latency models are shared (immutable by convention);
        used for capacity sweeps over a fixed topology.
        """
        if node_id not in {n.id for n in self.nodes}:
            raise KeyError(node_id)
        nodes = [
            replace(n, capacity=capacity) if n.id == node_id else n for n in self.nodes
        ]
        return Scenario(
            name=self.name,
            tasks=self.tasks,
            nodes=nodes,
            latency=self.latency,
            seed=self.seed,
            notes=self.notes,
        )

    def validate(self) -> None:
        node_ids = [n.id for n in self.nodes]
        if len(set(node_ids)) != len(node_ids):
            raise ScenarioError("duplicate node ids")
        task_ids = [t.id for t in self.tasks]
        if len(set(task_ids)) != len(task_ids):
            raise ScenarioError("duplicate task ids")
        offered = {(n.id, x) for n in self.nodes for x in n.options}
        for t in self.tasks:
            for zx in t.intrinsic:
                if zx not in offered:
                    raise ScenarioError(
                        f"task {t.id}: intrinsic utility references unknown pair {zx}"
                    )
                if (t.id, *zx) not in self.latency:
                    raise ScenarioError(
                        f"task {t.id}: no latency model for offered pair {zx}"
                    )
        known_tasks = set(task_ids)
        for (j, z, x), dist in self.latency.items():
            if j not in known_tasks:
                raise ScenarioError(f"latency entry references unknown task {j!r}")
            if (z, x) not in offered:
                raise ScenarioError(f"latency entry references unknown pair ({z!r}, {x!r})")
            if dist.support_lo() < -1e-12:
                raise ScenarioError(
                    f"latency model for ({j}, {z}, {x}) has support below 0 "
                    f"(lower bound {dist.support_lo()!r}); negative completion "
                    "times are rejected rather than truncated"
                )

    # -- canonical form, hashing, serialization -----------------------------

    def canonical(self) -> dict:
        """Ordering- and representation-independent content of the scenario.

        Notes are documentation and excluded; shared latency entries are
        expanded to their per-task triples so equivalent spellings hash
        identically.
        """
        return {
            "name": self.name,
            "seed": self.seed,
            "nodes": [
                {
                    "id": n.id,
                    "capacity": "inf" if n.capacity is None else n.capacity,
                    "options": list(n.options),
                }
                for n in self.nodes
            ],
            "tasks": [
                {
                    "id": t.id,
                    "utility": t.time_utility.to_config(),
                    "quality_floor": t.quality_floor,
                    "risk_budget": t.risk_budget,
                    "intrinsic": [
                        {"node": z, "option": x, "value": t.intrinsic[(z, x)]}
                        for (z, x) in sorted(t.intrinsic)
                    ],
                }
                for t in self.tasks
            ],
            "latency": [
                {"task": j, "node": z, "option": x, "dist": self.latency[(j, z, x)].to_config()}
                for (j, z, x) in sorted(self.latency)
            ],
        }

    def content_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def to_config(self) -> dict:
        cfg = self.canonical()
        cfg["notes"] = self.notes
        return cfg

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_config(), indent=2) + "\n")


def _capacity_from_config(n: dict) -> int | None:
    cap = n.get("capacity", "inf")
    if cap == "inf":
        return None
    value = float(cap)
    if not value.is_integer():
        raise ScenarioError(
            f"node {n['id']}: capacity must be an integer or 'inf' (got {cap!r})"
        )
    return int(value)


def scenario_from_config(cfg: dict, base_dir=None) -> Scenario:
    try:
        nodes = [
            NodeSpec(
                id=str(n["id"]),
                options=tuple(str(x) for x in n["options"]),
                capacity=_capacity_from_config(n),
            )
            for n in cfg["nodes"]
        ]
        tasks = []
        for trec in cfg["tasks"]:
            intrinsic = {
                (str(e["node"]), str(e["option"])): float(e["value"])
                for e in trec.get("intrinsic", [])
            }
            tasks.append(
                TaskSpec(
                    id=str(trec["id"]),
                    time_utility=utility_from_config(trec["utility"]),
                    intrinsic=intrinsic,
                    quality_floor=float(trec.get("quality_floor", 0.0)),
                    risk_budget=float(trec.get("risk_budget", 1.0)),
                )
            )
        latency: dict[tuple[str, str, str], LatencyDistribution] = {}
        shared = [e for e in cfg.get("latency", []) if "task" not in e]
        specific = [e for e in cfg.get("latency", []) if "task" in e]
        seen = set()
        for e in shared + specific:
            task = f"task {str(e['task'])!r}" if "task" in e else "every task"
            triple = (task, str(e["node"]), str(e["option"]))
            if triple in seen:
                raise ScenarioError(
                    f"duplicate latency entry for {task}, node {triple[1]!r}, option {triple[2]!r}"
                )
            seen.add(triple)
        for e in shared:
            dist = dist_from_config(e["dist"], base_dir)
            for t in tasks:
                latency[(t.id, str(e["node"]), str(e["option"]))] = dist
        for e in specific:
            latency[(str(e["task"]), str(e["node"]), str(e["option"]))] = dist_from_config(
                e["dist"], base_dir
            )
        scenario = Scenario(
            name=str(cfg.get("name", "unnamed")),
            tasks=tasks,
            nodes=nodes,
            latency=latency,
            seed=int(cfg.get("seed", 0)),
            notes=str(cfg.get("notes", "")),
        )
    except ScenarioError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid scenario config: {exc}") from exc
    scenario.validate()
    return scenario


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file, reporting the first violation."""
    path = Path(path)
    try:
        cfg = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON: {exc}") from exc
    try:
        return scenario_from_config(cfg, base_dir=path.parent)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def bundled_scenario_names() -> list[str]:
    pkg = resources.files("fogassign") / "scenarios"
    return sorted(p.name.removesuffix(".json") for p in pkg.iterdir() if p.name.endswith(".json"))


def bundled_scenario(name: str) -> Scenario:
    """Load one of the scenarios shipped with the package."""
    res = resources.files("fogassign") / "scenarios" / f"{name}.json"
    if not res.is_file():
        raise ScenarioError(
            f"no bundled scenario {name!r}; available: {bundled_scenario_names()}"
        )
    cfg = json.loads(res.read_text())
    return scenario_from_config(cfg)
