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

Each family computes its values with one formula over its parameters,
which are floats for one utility and (tasks, 1) columns when
``UtilityColumns`` evaluates many tasks' utilities at once.  The same
parameter list is the family's config record: its ``kind`` tag (``step``,
``exp``, ``wrf``) plus one number per parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .latency import ConfigRecord, LatencyDistribution, _parametric_from_config, expect_transform

__all__ = [
    "TimeUtility",
    "Step",
    "ExpDecay",
    "WaitReadyFirst",
    "UtilityColumns",
    "TaskSpec",
    "UtilityReport",
    "risk_probability",
    "expected_utility",
    "utility_from_config",
    "OptionNotOffered",
]


class OptionNotOffered(LookupError):
    """The requested (node, option) pair is not offered for this task."""


class TimeUtility(ConfigRecord):
    """Nonincreasing map from completion time to residual value in [0, 1].

    A family names its parameter fields in ``_params`` and computes its
    values with ``_value(t, *params, out)``, which writes into ``out`` and
    returns it.
    """

    def value(self, t):
        t = np.asarray(t, dtype=float)
        out = self._value(t, *(getattr(self, p) for p in self._params), out=np.empty_like(t))
        return float(out) if t.ndim == 0 else out

    @staticmethod
    def _value(t: np.ndarray, *params, out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def latency_budget(self, q):
        """Largest t with value(t) >= q, for q in (0, 1]; accepts arrays.

        This is the generalized inverse used to turn the event
        ``f(T) < q`` into the exact latency event ``T > budget``, and the
        integrand ``F(budget(s))`` of the layer-cake expectation.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class Step(TimeUtility):
    """1 for t <= tv, 0 afterwards (hard deadline, boundary inclusive)."""

    tv: float
    kind = "step"
    _params = ("tv",)

    def __post_init__(self):
        self._require_finite()
        if self.tv < 0.0:
            raise ValueError(f"step tv must be >= 0 (got {self.tv!r})")

    @staticmethod
    def _value(t, tv, out):
        return np.less_equal(t, tv, out=out)

    def latency_budget(self, q):
        return np.full(np.shape(q), self.tv)


@dataclass(frozen=True)
class ExpDecay(TimeUtility):
    k: float
    kind = "exp"
    _params = ("k",)

    def __post_init__(self):
        self._require_finite()
        if not (self.k > 0.0):
            raise ValueError("decay rate k must be > 0")

    @staticmethod
    def _value(t, k, out):
        with np.errstate(over="ignore"):  # k * t beyond the float range is worth 0
            np.multiply(-k, t, out=out)
            return np.exp(out, out=out)

    def latency_budget(self, q):
        with np.errstate(divide="ignore"):  # q = 0: any latency is worth 0
            return -np.log(q) / self.k


@dataclass(frozen=True)
class WaitReadyFirst(TimeUtility):
    """Flat at 1 until te, linear down to 0 at ts, 0 afterwards."""

    te: float
    ts: float
    kind = "wrf"
    _params = ("te", "ts")

    def __post_init__(self):
        self._require_finite()
        if not (self.te < self.ts):
            raise ValueError("wait-readily-first requires te < ts")

    @staticmethod
    def _value(t, te, ts, out):
        # (ts - max(t, te)) / (ts - te) clipped to [0, 1]; np.maximum and
        # np.minimum give np.clip's values without its wrapper.
        np.maximum(t, te, out=out)
        with np.errstate(over="ignore"):  # a ramp overflowing to -inf clips to 0
            np.subtract(ts, out, out=out)
            np.divide(out, ts - te, out=out)
        np.maximum(out, 0.0, out=out)
        return np.minimum(out, 1.0, out=out)

    def latency_budget(self, q):
        return self.te + (1.0 - q) * (self.ts - self.te)


class UtilityColumns:
    """Many tasks' time utilities, evaluated one family at a time.

    ``value(t, out)`` puts ``utilities[i].value(t[..., i, :])`` into
    ``out[..., i, :]`` for every i with one formula call per family, whose
    parameters are (tasks, 1) columns built here once; ``out`` may be
    ``t``.  A family whose tasks are one contiguous range is evaluated in
    place through views; any other family is gathered and scattered back.
    """

    def __init__(self, utilities):
        utilities = list(utilities)
        members: dict[type, list[int]] = {}
        for i, f in enumerate(utilities):
            members.setdefault(type(f), []).append(i)
        self._families = []
        for family, idx in members.items():
            cols = [np.array([getattr(utilities[i], p) for i in idx])[:, None]
                    for p in family._params]
            contiguous = idx[-1] - idx[0] == len(idx) - 1
            rows = slice(idx[0], idx[-1] + 1) if contiguous else np.array(idx)
            self._families.append((family._value, rows, cols))

    def value(self, t: np.ndarray, out: np.ndarray) -> np.ndarray:
        for formula, rows, cols in self._families:
            sub = out[..., rows, :]
            formula(t[..., rows, :], *cols, out=sub)
            if not isinstance(rows, slice):
                out[..., rows, :] = sub
        return out


PARAMETRIC_KINDS = {cls.kind: cls for cls in (Step, ExpDecay, WaitReadyFirst)}


def utility_from_config(cfg: dict) -> TimeUtility:
    return _parametric_from_config(cfg, PARAMETRIC_KINDS, "time-utility")


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
