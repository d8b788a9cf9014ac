"""Time-dependent task utilities and expected-utility evaluation.

A task's value decomposes into an intrinsic quality ``A`` in [0, 1] for
each (node, option) it may run on, and a nonincreasing time-utility
``f(t)`` in [0, 1] applied to its completion latency.  The value of a
completed task is the product ``A * f(t)``; the planning value of a
placement is its expectation over the latency distribution.

Three time-utility families are provided:

* ``Step(tv)`` -- full value up to a hard deadline tv, nothing after.
* ``ExpDecay(k)`` -- ``exp(-k t)``, a soft preference for speed.
* ``WaitReadyFirst(te, ts)`` -- flat at 1 until te (delays below te are
  imperceptible or masked by other system components), then a linear
  ramp hitting 0 at ts.

All three are monotone, so the tail-risk event ``f(T) < q`` maps exactly
to a latency threshold and no sampling is needed to check risk budgets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .latency import LatencyDistribution, _require_finite, expect_transform

__all__ = [
    "TimeUtility",
    "Step",
    "ExpDecay",
    "WaitReadyFirst",
    "TaskSpec",
    "UtilityReport",
    "risk_probability",
    "expected_utility",
    "utility_from_config",
    "OptionNotOffered",
]


class OptionNotOffered(LookupError):
    """The requested (node, option) pair is not offered for this task."""


class TimeUtility:
    """Nonincreasing map from completion time to residual value in [0, 1]."""

    def value(self, t):
        out = self._value(np.asarray(t, dtype=float))
        return float(out) if np.ndim(t) == 0 else out

    def _value(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def latency_budget(self, q):
        """Largest t with value(t) >= q, for q in (0, 1]; accepts arrays.

        This is the generalized inverse used to turn the event
        ``f(T) < q`` into the exact latency event ``T > budget``, and the
        integrand ``F(budget(s))`` of the layer-cake expectation.
        """
        raise NotImplementedError

    def to_config(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Step(TimeUtility):
    """1 for t <= tv, 0 afterwards (hard deadline, boundary inclusive)."""

    tv: float

    def __post_init__(self):
        _require_finite("step", tv=self.tv)
        if self.tv < 0.0:
            raise ValueError(f"step tv must be >= 0 (got {self.tv!r})")

    def _value(self, t):
        return np.where(t <= self.tv, 1.0, 0.0)

    def latency_budget(self, q):
        return np.full(np.shape(q), self.tv)

    def to_config(self):
        return {"kind": "step", "tv": self.tv}


@dataclass(frozen=True)
class ExpDecay(TimeUtility):
    k: float

    def __post_init__(self):
        _require_finite("exp", k=self.k)
        if not (self.k > 0.0):
            raise ValueError("decay rate k must be > 0")

    def _value(self, t):
        return np.exp(-self.k * t)

    def latency_budget(self, q):
        with np.errstate(divide="ignore"):  # q = 0: any latency is worth 0
            return -np.log(q) / self.k

    def to_config(self):
        return {"kind": "exp", "k": self.k}


@dataclass(frozen=True)
class WaitReadyFirst(TimeUtility):
    """Flat at 1 until te, linear down to 0 at ts, 0 afterwards."""

    te: float
    ts: float

    def __post_init__(self):
        _require_finite("wrf", te=self.te, ts=self.ts)
        if not (self.te < self.ts):
            raise ValueError("wait-readily-first requires te < ts")

    def _value(self, t):
        return np.clip((self.ts - np.maximum(t, self.te)) / (self.ts - self.te), 0.0, 1.0)

    def latency_budget(self, q):
        return self.te + (1.0 - q) * (self.ts - self.te)

    def to_config(self):
        return {"kind": "wrf", "te": self.te, "ts": self.ts}


def utility_from_config(cfg: dict) -> TimeUtility:
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ValueError(f"time-utility config must be a mapping with a 'kind': {cfg!r}")
    kind = cfg["kind"]
    if kind == "step":
        return Step(tv=float(cfg["tv"]))
    if kind == "exp":
        return ExpDecay(k=float(cfg["k"]))
    if kind == "wrf":
        return WaitReadyFirst(te=float(cfg["te"]), ts=float(cfg["ts"]))
    raise ValueError(f"unknown time-utility kind {kind!r}")


@dataclass
class TaskSpec:
    """One task: its timeliness preference, risk limits, and offered options.

    ``intrinsic`` maps (node_id, option_id) to the quality A of that
    execution option; pairs missing from the map are not offered to the
    task at all.  ``quality_floor`` (q) and ``risk_budget`` (P') bound the
    probability of finishing with time-value below q.
    """

    id: str
    time_utility: TimeUtility
    intrinsic: dict[tuple[str, str], float] = field(default_factory=dict)
    quality_floor: float = 0.0
    risk_budget: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.quality_floor <= 1.0):
            raise ValueError(f"task {self.id}: quality floor must lie in [0,1]")
        if not (0.0 <= self.risk_budget <= 1.0):
            raise ValueError(f"task {self.id}: risk budget must lie in [0,1]")
        for key, a in self.intrinsic.items():
            if not (0.0 <= a <= 1.0):
                raise ValueError(f"task {self.id}: intrinsic utility {a!r} at {key} outside [0,1]")


@dataclass(frozen=True)
class UtilityReport:
    """Expected utility of one placement plus its timeliness risk.

    ``utility`` is forced to 0 whenever the placement is risk-infeasible,
    mirroring how the option maximizer scores such options.
    """

    utility: float
    risk: float
    feasible: bool


def risk_probability(f: TimeUtility, dist: LatencyDistribution, q: float) -> float:
    """Exact P(f(T) < q) via the monotone inverse of f.

    For q in (0, 1], ``f(T) < q`` holds exactly when T exceeds the largest
    latency still worth q, so the probability is one CDF evaluation; q = 0
    is impossible because f is nonnegative.
    """
    if not (0.0 <= q <= 1.0):
        raise ValueError("quality floor q must lie in [0,1]")
    if q == 0.0:
        return 0.0
    return float(1.0 - dist.cdf(f.latency_budget(q)))


def expected_utility(
    task: TaskSpec, node_id: str, option_id: str, dist: LatencyDistribution
) -> UtilityReport:
    """Score placing ``task`` on (node_id, option_id) with latency ``dist``."""
    try:
        a = task.intrinsic[(node_id, option_id)]
    except KeyError:
        raise OptionNotOffered(
            f"task {task.id} has no intrinsic utility for ({node_id}, {option_id})"
        ) from None
    f = task.time_utility
    risk = risk_probability(f, dist, task.quality_floor)
    feasible = risk <= task.risk_budget
    if not feasible:
        return UtilityReport(utility=0.0, risk=risk, feasible=False)
    u = a * expect_transform(dist, f)
    return UtilityReport(utility=u, risk=risk, feasible=True)
