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

Each family computes its values and latency budgets with one formula
each over its parameters, which are floats for one utility and (tasks, 1)
columns when ``latency.Columns``, the grouped evaluator that the latency
kinds share, evaluates many tasks' utilities at once.
The same parameter list is the family's config record: its ``kind`` tag
(``step``, ``exp``, ``wrf``) plus one number per parameter.

``expected_utilities`` scores many placements at once, grouped by family
and latency kind; ``expected_utility`` is its one-placement form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .latency import (
    Columns,
    ConfigRecord,
    LatencyDistribution,
    _record_from_config,
    expect_transforms,
)

__all__ = [
    "TimeUtility",
    "Step",
    "ExpDecay",
    "WaitReadyFirst",
    "TaskSpec",
    "UtilityReport",
    "risk_probability",
    "risk_probabilities",
    "expected_utility",
    "expected_utilities",
    "utility_from_config",
    "OptionNotOffered",
]


class OptionNotOffered(LookupError):
    """The requested (node, option) pair is not offered for this task."""


class TimeUtility(ConfigRecord):
    """Nonincreasing map from completion time to residual value in [0, 1].

    A family names its parameter fields in ``_params`` and computes its
    values with ``_value(t, *params, out)``, which writes into ``out`` and
    returns it, and its budgets with ``_latency_budget(q, *params)``.
    """

    def value(self, t):
        t = np.asarray(t, dtype=float)
        out = self._value(t, *self._args(), out=np.empty_like(t))
        return float(out) if t.ndim == 0 else out

    def latency_budget(self, q):
        """Largest t with value(t) >= q, for q in (0, 1]; accepts arrays.

        This is the generalized inverse used to turn the event
        ``f(T) < q`` into the exact latency event ``T > budget``, and the
        integrand ``F(budget(s))`` of the layer-cake expectation.
        """
        return self._latency_budget(q, *self._args())

    @staticmethod
    def _value(t: np.ndarray, *params, out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @staticmethod
    def _latency_budget(q, *params):
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

    @staticmethod
    def _latency_budget(q, tv):
        return np.full(np.broadcast_shapes(np.shape(q), np.shape(tv)), tv)


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

    @staticmethod
    def _latency_budget(q, k):
        # q = 0: any latency is worth 0; a tiny k puts the budget past the
        # float range, at inf.
        with np.errstate(divide="ignore", over="ignore"):
            return -np.log(q) / k


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
        if not math.isfinite(self.ts - self.te):
            raise ValueError(
                f"wrf ts - te must be finite (got te={self.te!r}, ts={self.ts!r})")
        if self.te < 0.0:
            raise ValueError(f"wrf te must be >= 0 (got {self.te!r})")

    @staticmethod
    def _value(t, te, ts, out):
        # (ts - max(t, te)) / (ts - te) clipped to [0, 1], in three passes:
        # (ts - t) / (ts - te) clipped to [0, 1].  Rounding is monotone, so
        # for t <= te, fl(ts - t) >= fl(ts - te) and the quotient is at least
        # 1: it clips to exactly 1, the value at max(t, te) = te.  For t > te
        # both forms compute the same quotient.  clip keeps a -0.0 quotient
        # where the lower clip by maximum gave +0.0, but with te >= 0 none
        # arises: ts > 0, and for t > ts, |ts - t| >= ulp(ts) while
        # ts - te <= ts, so the quotient cannot underflow to zero.  The
        # method skips np.clip's dispatch, about 0.8 us a call, which small
        # calls such as one task's column of draws would pay.
        with np.errstate(over="ignore"):  # a ramp overflowing to -inf clips to 0
            np.subtract(ts, t, out=out)
            np.divide(out, ts - te, out=out)
        return out.clip(0.0, 1.0, out=out)

    @staticmethod
    def _latency_budget(q, te, ts):
        return te + (1.0 - q) * (ts - te)


KINDS = {cls.kind: cls for cls in (Step, ExpDecay, WaitReadyFirst)}


def utility_from_config(cfg) -> TimeUtility:
    return _record_from_config(cfg, KINDS, "time-utility")


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
    """Exact P(f(T) < q): ``risk_probabilities`` of one pair."""
    return float(risk_probabilities([f], [dist], [q])[0])


def risk_probabilities(utilities, dists, q) -> np.ndarray:
    """Exact P(f(T) < q) for each time-utility ``utilities[i]``, latency
    ``dists[i]`` and quality floor ``q[i]``, via the monotone inverse of f.

    For q in (0, 1], ``f(T) < q`` holds exactly when T exceeds the largest
    latency still worth q, so each probability is one CDF evaluation: one
    budget formula per time-utility family and one CDF call per latency
    group (both through ``Columns``).  q = 0 is impossible
    because f is nonnegative.
    """
    if not all(0.0 <= x <= 1.0 for x in q):  # also rejects NaN
        raise ValueError("quality floor q must lie in [0,1]")
    q = np.asarray(q, dtype=float)
    risk = np.zeros(len(q))
    bound = np.flatnonzero(q > 0.0)
    if bound.size:
        budget = Columns(utilities[i] for i in bound).latency_budget(q[bound, None])
        risk[bound] = 1.0 - Columns(dists[i] for i in bound)._eval_cdf(budget)[:, 0]
    return risk


def expected_utility(
    task: TaskSpec, node_id: str, option_id: str, dist: LatencyDistribution
) -> UtilityReport:
    """Score placing ``task`` on (node_id, option_id) with latency ``dist``:
    ``expected_utilities`` of one placement."""
    utility, risk, feasible = expected_utilities([task], [(node_id, option_id)], [dist])
    return UtilityReport(utility=float(utility[0]), risk=float(risk[0]), feasible=bool(feasible[0]))


def expected_utilities(tasks, pairs, dists) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score placing each task ``tasks[i]`` on the (node, option) pair
    ``pairs[i]`` with latency ``dists[i]``.

    Returns arrays of utility, risk and feasibility, the fields of each
    placement's ``UtilityReport``.  A placement is feasible when its risk
    (``risk_probabilities`` at the task's quality floor) fits the task's
    risk budget; its utility is then the intrinsic quality of the pair
    times ``expect_transforms`` of its latency and time-utility, and 0
    otherwise.  Raises ``OptionNotOffered`` for a pair the task has no
    intrinsic quality for.
    """
    a = np.array([_intrinsic(t, z, x) for t, (z, x) in zip(tasks, pairs)], dtype=float)
    fs = [t.time_utility for t in tasks]
    risk = risk_probabilities(fs, dists, [t.quality_floor for t in tasks])
    feasible = risk <= np.array([t.risk_budget for t in tasks], dtype=float)
    ok = np.flatnonzero(feasible)
    utility = np.zeros(len(tasks))
    utility[ok] = a[ok] * expect_transforms([dists[i] for i in ok], [fs[i] for i in ok])
    return utility, risk, feasible


def _intrinsic(task: TaskSpec, node_id: str, option_id: str) -> float:
    try:
        return task.intrinsic[(node_id, option_id)]
    except KeyError:
        raise OptionNotOffered(
            f"task {task.id} has no intrinsic utility for ({node_id}, {option_id})"
        ) from None
