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

A latency entry without a "task" field applies to every task offered its
(node, option) (a common case: per-node latency models shared by the whole
task set); entries with a "task" override the shared one for that triple.
A second entry for the same shared pair, or for the same triple, is an
error, and so is a per-task entry for a pair its task is not offered.
Loading validates all cross references and rejects any latency model whose
support dips below zero, so downstream expectations never see negative
completion times.

Records are read by ``latency.Fields``, the reader of every JSON input: a
bad field is a ``ScenarioError`` naming the file, the record and the field.

One generator, ``Scenario._fields``, defines the canonical form: shared
entries spelled per task, records in a fixed order.  ``to_config`` builds
it as a dict; ``content_hash`` and ``save`` encode it one record at a
time, so neither holds the whole dict tree, and the hash never holds the
whole text.  ``save`` still holds its encoded lines until it writes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from importlib import resources

from .latency import (Fields, LatencyDistribution, _integer, _load_json, _string,
                      dist_from_config)
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


# The fields of the canonical form that are lists of records.
_SECTIONS = ("nodes", "tasks", "latency")
# The encoder of ``json.dumps(..., sort_keys=True, separators=(",", ":"))``,
# the spelling that ``content_hash`` hashes.
_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class NodeSpec:
    """An execution point: finite task capacity or None for unlimited."""

    id: str
    options: tuple[str, ...]
    capacity: int | None = None

    def __post_init__(self):
        if len(self.options) == 0:
            raise ScenarioError(f"node {self.id}: must offer at least one option")
        for i, x in enumerate(self.options):
            if x in self.options[:i]:
                raise ScenarioError(f"node {self.id}: option {x!r} listed twice")
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
        return replace(self, nodes=nodes)

    def validate(self) -> None:
        # The scalar fields as the reader takes them, so that a validated
        # scenario saves to a file that loads.
        for key, value in (("name", self.name), ("notes", self.notes)):
            if not isinstance(value, str):
                raise ScenarioError(f"{key} must be a string (got {value!r})")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ScenarioError(f"seed must be an integer >= 0 (got {self.seed!r})")
        for kind, records in (("node", self.nodes), ("task", self.tasks)):
            seen = set()
            for r in records:
                if r.id in seen:
                    raise ScenarioError(f"duplicate {kind} ids: {r.id!r}")
                seen.add(r.id)
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
        tasks = {t.id: t for t in self.tasks}
        for (j, z, x), dist in self.latency.items():
            if j not in tasks:
                raise ScenarioError(f"latency entry references unknown task {j!r}")
            if (z, x) not in offered:
                raise _unknown_pair(z, x)
            if (z, x) not in tasks[j].intrinsic:
                raise ScenarioError(
                    f"latency entry for task {j!r} references pair ({z!r}, {x!r}), "
                    "which the task is not offered"
                )
            if dist.support_lo() < -1e-12:
                raise ScenarioError(
                    f"latency model for ({j}, {z}, {x}) has support below 0 "
                    f"(lower bound {dist.support_lo()!r}); negative completion "
                    "times are rejected rather than truncated"
                )

    # -- canonical form, hashing, serialization -----------------------------

    def _fields(self):
        """The canonical form, one top-level field at a time, in file order.

        Yields ``(key, value)``; the value of each of ``_SECTIONS`` is an
        iterator that builds its records one at a time.  Shared latency
        entries are expanded to their per-task triples, so equivalent
        spellings hash identically.  ``notes`` comes last; it is
        documentation and not hashed.
        """
        yield "name", self.name
        yield "seed", self.seed
        yield "nodes", (
            {
                "id": n.id,
                "capacity": "inf" if n.capacity is None else n.capacity,
                "options": list(n.options),
            }
            for n in self.nodes
        )
        yield "tasks", (
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
        )
        yield "latency", (
            {"task": j, "node": z, "option": x, "dist": self.latency[(j, z, x)].to_config()}
            for (j, z, x) in sorted(self.latency)
        )
        yield "notes", self.notes

    def content_hash(self) -> str:
        """SHA-256 of the canonical form without notes, spelled as
        ``json.dumps(form, sort_keys=True, separators=(",", ":"))`` spells
        it, but fed to the hash one record at a time, so that neither the
        form nor its text is ever whole."""
        fields = dict(self._fields())
        del fields["notes"]
        digest = hashlib.sha256()
        for i, key in enumerate(sorted(fields)):
            digest.update(f"{',' if i else '{'}{_COMPACT.encode(key)}:".encode())
            if key in _SECTIONS:
                sep = b"["
                for record in fields[key]:
                    digest.update(sep + _COMPACT.encode(record).encode())
                    sep = b","
                digest.update(b"[]" if sep == b"[" else b"]")
            else:
                digest.update(_COMPACT.encode(fields[key]).encode())
        digest.update(b"}")
        return digest.hexdigest()

    def to_config(self) -> dict:
        """The canonical form with notes, as one dict: the records ``save`` writes."""
        return {key: list(value) if key in _SECTIONS else value for key, value in self._fields()}

    def save(self, path) -> None:
        """Write ``to_config()`` as JSON, one record per line.

        Each top-level field is on its own line, indented by 2 spaces, and
        each record of ``nodes``, ``tasks`` and ``latency`` on its own line,
        indented by 4, as ``json.dumps(record)`` writes it.  Every string and
        number is spelled as ``json.dumps`` spells it, so the file loads to
        equal records and the same ``content_hash``; a reader takes any JSON
        layout.  Each line is encoded by the C encoder (``json.dumps(...,
        indent=...)`` would use the pure-Python one, at two to four times
        the cost) as its record is built, and all of them before the file is
        opened, so a value JSON cannot encode leaves an existing file as it
        was.
        """
        parts = []
        for i, (key, value) in enumerate(self._fields()):
            parts.append(f"{',' if i else '{'}\n  {json.dumps(key)}: ")
            if key in _SECTIONS:
                start = len(parts)
                parts.extend(f"{',' if k else '['}\n    {json.dumps(record)}"
                             for k, record in enumerate(value))
                parts.append("\n  ]" if len(parts) > start else "[]")
            else:
                parts.append(json.dumps(value))
        parts.append("\n}\n")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(parts)


def _unknown_pair(node: str, option: str) -> ScenarioError:
    return ScenarioError(f"latency entry references unknown pair ({node!r}, {option!r})")


def _capacity(cap) -> int | None:
    return None if cap == "inf" else _integer(cap, 1, "capacity must be 'inf' or an integer >= 1")


def scenario_from_config(cfg: dict, base_dir=None) -> Scenario:
    root = Fields(cfg, "invalid scenario config", ScenarioError)
    nodes = [
        NodeSpec(
            id=n.text("id"),
            options=tuple(n.apply(_string, x, "options") for x in n.array("options", "strings")),
            capacity=n.apply(_capacity, n.value("capacity", "inf")),
        )
        for n in root.records("nodes", "node")
    ]
    tasks = []
    for trec in root.records("tasks", "task"):
        intrinsic = {}
        for e in trec.records("intrinsic", default=[]):
            pair = (e.text("node"), e.text("option"))
            if pair in intrinsic:
                raise trec.fail(
                    f"duplicate intrinsic entry for node {pair[0]!r}, option {pair[1]!r}"
                )
            intrinsic[pair] = e.number("value")
        time_utility = utility_from_config(trec.record("utility"))
        task_id = trec.text("id")
        floor = trec.number("quality_floor", default=0.0)
        budget = trec.number("risk_budget", default=1.0)
        # TaskSpec names the task in its own errors.
        tasks.append(root.apply(TaskSpec, task_id, time_utility, intrinsic, floor, budget))
    latency: dict[tuple[str, str, str], LatencyDistribution] = {}
    seen = set()
    for e in root.records("latency", default=[]):
        node, option = e.text("node"), e.text("option")
        dist = dist_from_config(e.record("dist"), base_dir)
        task = e.text("task") if "task" in e.fields else None
        owner = "every task" if task is None else f"task {task!r}"
        if (owner, node, option) in seen:
            raise ScenarioError(
                f"duplicate latency entry for {owner}, node {node!r}, option {option!r}"
            )
        seen.add((owner, node, option))
        if task is not None:  # an entry for one task overrides a shared one
            latency[(task, node, option)] = dist
        elif not any(option in n.options for n in nodes if n.id == node):
            raise _unknown_pair(node, option)
        else:
            for t in tasks:
                if (node, option) in t.intrinsic:
                    latency.setdefault((t.id, node, option), dist)
    scenario = Scenario(
        name=root.text("name", default="unnamed"),
        tasks=tasks,
        nodes=nodes,
        latency=latency,
        seed=root.integer("seed", default=0),
        notes=root.text("notes", default=""),
    )
    scenario.validate()
    return scenario


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file, reporting the first violation."""
    return _load_json(path, scenario_from_config, ScenarioError)


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
    with resources.as_file(res) as path:  # a real file even from a zipped package
        return _load_json(path, scenario_from_config, ScenarioError)
