"""Latency-aware task admission and placement for fog computing.

The package models task completion latencies as random variables, scores
placements by expected utility (intrinsic quality times a nonincreasing
time-utility), solves the admission-and-placement problem exactly for
topologies with up to two capacitated nodes, and ships the measurement
side: a benchmark server, a probing client, and CDF characterization
tools including a serverless spin-down model.
"""

from .characterize import (
    CdfErrorCurve,
    ServerlessModel,
    cdf_distance,
    error_curve,
    estimate_cdf,
    fit_serverless_regimes,
    ks_statistic,
    serverless_latency,
)
from .latency import (
    Degenerate,
    Empirical,
    Gev,
    LatencyDistribution,
    Mixture,
    Uniform,
    expect_transform,
    gev_from_quantiles,
    make_rng,
)
from .scenario import NodeSpec, Scenario, bundled_scenario, load_scenario
from .simulate import emit, run_baseline, simulate
from .solver import (
    AssignmentPlan,
    Placement,
    UtilityTable,
    brute_force_optimum,
    solve_capacitated,
    solve_uncapacitated,
    validate_plan,
)
from .utility import (
    ExpDecay,
    Step,
    TaskSpec,
    TimeUtility,
    UtilityReport,
    WaitReadyFirst,
    expected_utility,
    risk_probability,
)

__version__ = "0.1.0"
