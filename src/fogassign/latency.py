"""Random-variable models for end-to-end task completion latencies.

Every distribution supports vectorized CDF and quantile evaluation,
inverse-transform sampling from a caller-owned ``numpy.random.Generator``,
and expectations of time-utilities (the building block for expected task
utilities).  Distribution objects are immutable after construction and
safe to share across threads; all randomness comes from the RNG stream
the caller passes in.

Heavy-tailed completion times (Frechet-type extreme value laws with a
positive shape parameter) are first-class here because they fit measured
fog latencies well.  Expectations use the layer-cake identity.  A
time-utility f is nonincreasing with values in [0, 1], so

    E[f(T)] = int_0^1 P(f(T) >= s) ds = int_0^1 F(f^-1(s)) ds,

where ``f^-1(s)`` is the largest latency still worth s.  The integrand is
a CDF over a bounded interval, so the tail never has to be truncated.

A model's config record is its ``kind`` tag plus its fields (see
``ConfigRecord``); ``empirical`` and ``mixture`` records have their own code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "LatencyDistribution",
    "Gev",
    "Uniform",
    "Empirical",
    "Mixture",
    "Degenerate",
    "expect_transform",
    "gev_from_quantiles",
    "dist_from_config",
    "make_rng",
    "FitError",
]

MIXTURE_WEIGHT_TOL = 1e-9
# Mixture._quantile's k-section splits each bracket into
# max(2, _KSECTION_POINTS // n) parts for n probabilities at once, so each
# mixture-CDF call sees about 64 points: 63 for a scalar quantile, and 22 or
# more probabilities bisect.
_KSECTION_POINTS = 64

# Composite 16-point Gauss-Legendre rule in s = f(t).  The rule on [-1, 1]
# is symmetric, so only its positive half is tabulated (computing it would
# load an eigenvalue solver at import).
_GL_X = np.array((0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
                  0.6178762444026438, 0.755404408355003, 0.8656312023878318,
                  0.9445750230732326, 0.9894009349916499))
_GL_W = np.array((0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
                  0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
                  0.062253523938647456, 0.027152459411754176))
# The rule mapped onto [0, 1].
_GL_NODES = 0.5 + 0.5 * np.concatenate([-_GL_X[::-1], _GL_X])
_GL_WEIGHTS = 0.5 * np.concatenate([_GL_W[::-1], _GL_W])
# Panel edges: the images under f of the distribution's breakpoints and of
# a quantile ladder (1e-1..1e-14 in both tails plus the 5% grid), and the
# dyadic points 2^-j, which grade the panels toward s = 0 where an
# exponential budget -ln(s)/k diverges.
_TAIL_P = 10.0 ** -np.arange(1, 15)
_QUANTILE_LADDER = np.concatenate([_TAIL_P, 0.05 * np.arange(1, 20), 1.0 - _TAIL_P])
_DYADIC_EDGES = 2.0 ** -np.arange(1, 64)


class FitError(ValueError):
    """No distribution in the allowed family matches the requested summary."""


def make_rng(seed_or_rng) -> np.random.Generator:
    """Return a Generator, passing existing generators through unchanged."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def _as_array(t):
    return np.asarray(t, dtype=float)


def _number(value, *name: str) -> float:
    """``value`` as a float, or a ValueError naming the field ``" ".join(name)``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{' '.join(name)} must be a number (got {value!r})")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{' '.join(name)} must be finite (got {value!r})") from None


def _maybe_scalar(out, t):
    if np.ndim(t) == 0:
        return float(out)
    return out


class ConfigRecord:
    """A model stored as ``{"kind": kind, field: value, ...}``.

    A parametric kind lists its numeric fields in ``_params``, in constructor
    order, and ``to_config``, ``_require_finite`` and
    ``_parametric_from_config`` read that list; other kinds override
    ``to_config``."""

    kind: str
    _params: tuple[str, ...] = ()

    def to_config(self) -> dict:
        cfg = {"kind": self.kind}
        for p in self._params:
            cfg[p] = getattr(self, p)
        return cfg

    def _require_finite(self) -> None:
        """Reject NaN and infinite parameters, naming the offending field."""
        for p in self._params:
            if not math.isfinite(getattr(self, p)):
                raise ValueError(f"{self.kind} {p} must be finite (got {getattr(self, p)!r})")


class LatencyDistribution(ConfigRecord):
    """Base class for completion-time distributions (values in seconds)."""

    def cdf(self, t):
        """P(T <= t); accepts scalars or arrays, total over the reals."""
        tarr = _as_array(t)
        if np.isnan(tarr).any():
            raise ValueError("cdf argument must not be NaN")
        out = self._cdf(tarr)
        return _maybe_scalar(out, t)

    def quantile(self, p):
        """Generalized inverse of the CDF for p in the open interval (0,1)."""
        parr = _as_array(p)
        if not np.all((parr > 0.0) & (parr < 1.0)):  # also rejects NaN
            raise ValueError("quantile probability must lie strictly in (0, 1)")
        out = self._quantile(parr)
        return _maybe_scalar(out, p)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n values by transforming one uniform variate per draw."""
        if n < 1:
            raise ValueError("sample size must be >= 1")
        return self.from_uniform(rng.random(n))

    def from_uniform(self, u: np.ndarray) -> np.ndarray:
        """Draws from uniform variates in [0, 1), one per element; any shape.

        ``u`` is clamped in place and a new array of its shape is returned,
        so ``from_uniform(rng.random(n))`` is ``sample(rng, n)``.
        """
        # Guard against u == 0.0, which rng.random can emit but the
        # quantile functions treat as a limit.  np.maximum is np.clip's
        # lower bound without its wrapper; u is never NaN.
        np.maximum(u, 1e-15, out=u)
        return self._quantile(u)

    # Subclass surface -----------------------------------------------------

    def _cdf(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _quantile(self, p: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def support_lo(self) -> float:
        """Infimum of the support; used to reject negative-latency models."""
        raise NotImplementedError

    def breakpoints(self) -> tuple[float, ...]:
        """Points where the CDF has kinks or jumps (for grid construction)."""
        return ()


@dataclass(frozen=True)
class Gev(LatencyDistribution):
    """Three-parameter extreme-value law restricted to positive shape.

    With shape xi > 0 (Frechet / inverse-Weibull type) the support is
    ``(loc - scale/xi, inf)`` and ``F(t) = exp(-(1 + xi (t - loc)/scale)^(-1/xi))``.
    """

    shape: float
    scale: float
    loc: float
    kind = "gev"
    _params = ("shape", "scale", "loc")

    def __post_init__(self):
        self._require_finite()
        if not (self.shape > 0.0):
            raise ValueError("shape must be > 0 (heavy-tailed type only)")
        if not (self.scale > 0.0):
            raise ValueError("scale must be > 0")

    def _cdf(self, t):
        z = 1.0 + self.shape * (t - self.loc) / self.scale
        out = np.zeros_like(z)
        pos = z > 0.0
        with np.errstate(over="ignore", divide="ignore"):
            out[pos] = np.exp(-z[pos] ** (-1.0 / self.shape))
        return out

    def _quantile(self, p):
        with np.errstate(over="ignore"):  # a steep upper tail saturates at inf
            return self.loc + self.scale * ((-np.log(p)) ** (-self.shape) - 1.0) / self.shape

    def support_lo(self):
        return self.loc - self.scale / self.shape

    def breakpoints(self):
        return (self.support_lo(),)


@dataclass(frozen=True)
class Uniform(LatencyDistribution):
    lo: float
    hi: float
    kind = "uniform"
    _params = ("lo", "hi")

    def __post_init__(self):
        self._require_finite()
        if not (self.lo < self.hi):
            raise ValueError("uniform bounds require lo < hi")

    def _cdf(self, t):
        return np.clip((t - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def _quantile(self, p):
        return self.lo + p * (self.hi - self.lo)

    def support_lo(self):
        return self.lo

    def breakpoints(self):
        return (self.lo, self.hi)


class Empirical(LatencyDistribution):
    """Right-continuous step CDF with jumps of 1/N at each sorted sample."""

    def __init__(self, samples):
        arr = np.sort(_as_array(samples).ravel())
        if arr.size == 0:
            raise ValueError("empirical distribution needs at least one sample")
        if not np.all(np.isfinite(arr)):
            raise ValueError("empirical samples must be finite")
        if arr[0] < 0.0:
            raise ValueError("empirical samples must be nonnegative")
        self.samples = arr
        self.samples.setflags(write=False)

    @property
    def n(self) -> int:
        return int(self.samples.size)

    def _cdf(self, t):
        return np.searchsorted(self.samples, t, side="right") / self.n

    def _quantile(self, p):
        # Generalized inverse: the ceil(p*n)-th order statistic.  The small
        # nudge keeps p*n values that are integers up to float fuzz exact.
        idx = np.ceil(p * self.n - 1e-12).astype(int) - 1
        return self.samples[np.clip(idx, 0, self.n - 1)]

    def support_lo(self):
        return float(self.samples[0])

    def breakpoints(self):
        return tuple(np.unique(self.samples))

    def __repr__(self):
        return f"Empirical(n={self.n})"

    def __eq__(self, other):
        return isinstance(other, Empirical) and np.array_equal(self.samples, other.samples)

    def to_config(self):
        return {"kind": "empirical", "samples": [float(x) for x in self.samples]}


@dataclass(frozen=True)
class Degenerate(LatencyDistribution):
    """Point mass; handy for deterministic latencies and edge-case tests."""

    value: float
    kind = "degenerate"
    _params = ("value",)

    def __post_init__(self):
        self._require_finite()

    def _cdf(self, t):
        return np.where(t >= self.value, 1.0, 0.0)

    def _quantile(self, p):
        return np.full_like(p, self.value)

    def support_lo(self):
        return self.value

    def breakpoints(self):
        return (self.value,)


class Mixture(LatencyDistribution):
    """Convex combination of component distributions.

    The CDF is the weighted sum of the component CDFs; the quantile is the
    generalized inverse found by k-section on the mixture CDF, which
    narrows each bracket to one of k equal parts per CDF call and stops
    at float resolution, so quantiles on a jump land on its atom exactly.
    """

    def __init__(self, components, weights):
        components = tuple(components)
        w = np.array(weights, dtype=float)
        if len(components) == 0 or w.size != len(components):
            raise ValueError("mixture needs matching nonempty components and weights")
        if not np.all(np.isfinite(w)):
            raise ValueError(f"mixture weights must be finite (got {w.tolist()!r})")
        if np.any(w < 0.0):
            raise ValueError("mixture weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > MIXTURE_WEIGHT_TOL:
            raise ValueError(f"mixture weights must sum to 1 (got {float(w.sum())!r})")
        self.components = components
        self.weights = w
        self.weights.setflags(write=False)

    def _cdf(self, t):
        out = np.zeros_like(_as_array(t))
        for w, c in zip(self.weights, self.components):
            out = out + w * c._cdf(t)
        return out

    def _quantile(self, p):
        comp_q = np.stack([c._quantile(p) for c in self.components])
        # Invariant: cdf(lo) < p <= cdf(hi).  The answer is at least the
        # smallest component quantile, so lo starts one float below it.
        lo = np.nextafter(comp_q.min(axis=0), -np.inf).ravel()
        hi = comp_q.max(axis=0).ravel()
        # k-section: one CDF call per step on the k-1 interior points of
        # every bracket.  The CDF is nondecreasing, so the count of points
        # below p picks the new bracket [pts[cnt], pts[cnt+1]] of
        # pts = [lo, interior..., hi].  The loop runs until no float lies
        # strictly inside any bracket; an infinite hi (a saturated Gev
        # quantile) cannot shrink and ends the loop as it is.
        k = max(2, _KSECTION_POINTS // p.size)
        frac = np.arange(1, k) / k
        rows = np.arange(p.size)
        p_col = p.reshape(-1, 1)
        for _ in range(200):
            lo_, hi_ = lo[:, None], hi[:, None]
            pts = np.concatenate([lo_, lo_ + (hi_ - lo_) * frac, hi_], axis=1)
            cnt = (self._cdf(pts[:, 1:-1]) < p_col).sum(axis=1)
            lo = pts[rows, cnt]
            hi = pts[rows, cnt + 1]
            if np.all((hi <= np.nextafter(lo, np.inf)) | np.isinf(hi)):
                break
        return hi.reshape(p.shape)

    def from_uniform(self, u):
        # Composition from a single uniform per draw: the cumulative-weight
        # bracket picks the component and the rescaled residual drives it.
        # Unlike bisection on the mixture CDF this reproduces atoms of
        # discrete components exactly.
        # Counting thresholds and integer-index gathers cost less here than
        # searchsorted and boolean masks.
        # The draws are flattened first, so the flat gather indices fit
        # an input of any shape.
        np.maximum(u, 1e-15, out=u)  # in place, as the base class does
        cum = np.concatenate([[0.0], np.cumsum(self.weights)])
        flat = u.ravel()
        idx = np.zeros(flat.shape, dtype=np.intp)
        for threshold in cum[1:-1]:
            idx += flat >= threshold
        out = np.empty(flat.shape)
        for i, c in enumerate(self.components):
            sel = np.flatnonzero(idx == i)
            if sel.size == 0:
                continue
            # Rounding can carry the residual to 1; the component's own
            # from_uniform clamps the lower end in place.
            residual = (flat[sel] - cum[i]) / self.weights[i]
            out[sel] = c.from_uniform(np.minimum(residual, 1.0 - 1e-16, out=residual))
        return out.reshape(u.shape)

    def support_lo(self):
        return min(c.support_lo() for c in self.components)

    def breakpoints(self):
        pts: set[float] = set()
        for c in self.components:
            pts.update(c.breakpoints())
        return tuple(sorted(pts))

    def __repr__(self):
        return f"Mixture({list(self.components)!r}, weights={self.weights.tolist()!r})"

    def __eq__(self, other):
        return (
            isinstance(other, Mixture)
            and self.components == other.components
            and np.array_equal(self.weights, other.weights)
        )

    def to_config(self):
        return {
            "kind": "mixture",
            "components": [c.to_config() for c in self.components],
            "weights": [float(w) for w in self.weights],
        }


def expect_transform(dist: LatencyDistribution, f) -> float:
    """E[f(T)] for a time-utility f: nonincreasing, with values in [0, 1].

    Discrete distributions are averaged exactly and mixtures are the
    weighted sum of their components.  Continuous ones use the layer-cake
    identity ``E[f(T)] = integral over (0, 1) of F(f.latency_budget(s)) ds``
    on a fixed composite Gauss-Legendre rule with one vectorized CDF call;
    the panel edges (module constants above) keep kinks and steep
    stretches of the integrand off panel interiors.
    """
    if isinstance(dist, Degenerate):
        return f.value(dist.value)
    if isinstance(dist, Empirical):
        return float(np.mean(f.value(dist.samples)))
    if isinstance(dist, Mixture):
        return float(
            sum(w * expect_transform(c, f) for w, c in zip(dist.weights, dist.components))
        )
    knots = np.concatenate([dist.breakpoints(), dist._quantile(_QUANTILE_LADDER)])
    edges = np.unique(np.concatenate([[0.0, 1.0], f.value(knots), _DYADIC_EDGES]))
    width = np.diff(edges)
    s = edges[:-1, None] + width[:, None] * _GL_NODES
    val = float(width @ (dist._cdf(f.latency_budget(s)) @ _GL_WEIGHTS))
    return min(max(val, 0.0), 1.0)


# ---------------------------------------------------------------------------
# Quantile-matched construction
# ---------------------------------------------------------------------------

def _gev_a(p: float, xi: float) -> float:
    """(Q(p) - loc)/scale for the positive-shape extreme value CDF."""
    return ((-math.log(p)) ** (-xi) - 1.0) / xi


def _quantile_ratio(xi: float) -> float:
    return (_gev_a(0.9, xi) - _gev_a(0.5, xi)) / (_gev_a(0.5, xi) - _gev_a(0.1, xi))


_XI_MIN = 1e-9
_XI_MAX = 2.0


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float) -> float:
    """A root of ``f`` in [xa, xb], where f(xa) and f(xb) differ in sign.

    Brent's method (Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 4), operation for operation as the widely used
    C ``brentq`` that the tests compare it with, so both return the same
    float for the same ``f``, bracket and tolerances.  ``xcur`` is
    the best estimate and ``xblk`` the other end of a bracket of the root.
    A secant or inverse-quadratic step is taken when it is at most half
    the step before last and inside 3/4 of the bracket, else the bracket
    is bisected; no step is shorter than the tolerance.  Stops when the
    half-bracket is below delta = (xtol + rtol*|xcur|)/2, or raises
    FitError after 100 iterations.
    """
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise FitError(f"f({xa}) and f({xb}) must differ in sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise FitError(f"root finder did not converge in 100 iterations (last x={xcur})")


def gev_from_quantiles(median: float, p10: float, p90: float) -> Gev:
    """Construct the positive-shape Gev whose 10/50/90 quantiles match.

    The asymmetry ratio (p90 - median)/(median - p10) pins the shape, which
    is found on (0, 2] by ``_brentq``, Brent's bracketing root finder
    (Brent, *Algorithms for Minimization without Derivatives*, 1973,
    ch. 4); scale and location follow in closed form.  Raises FitError
    when the triple is not achievable, which happens whenever the upper
    spread is not sufficiently heavier than the lower one.
    """
    if not (0.0 < p10):
        raise FitError("p10 must be positive")
    if not (p10 < median):
        raise FitError(f"quantiles must satisfy p10 < median (got p10={p10}, median={median})")
    if not (median < p90):
        raise FitError(f"quantiles must satisfy median < p90 (got median={median}, p90={p90})")
    target = (p90 - median) / (median - p10)
    lo, hi = _quantile_ratio(_XI_MIN), _quantile_ratio(_XI_MAX)
    if target <= lo:
        raise FitError(
            f"asymmetry ratio {target:.4f} at or below the shape->0 limit {lo:.4f}; "
            "the triple is too symmetric for a positive-shape fit"
        )
    if target > hi:
        raise FitError(
            f"asymmetry ratio {target:.4f} above the shape=2 limit {hi:.4f}; "
            "upper tail too heavy for shapes in (0, 2]"
        )
    xi = _brentq(lambda x: _quantile_ratio(x) - target, _XI_MIN, _XI_MAX, xtol=1e-14, rtol=8.9e-16)
    scale = (p90 - p10) / (_gev_a(0.9, xi) - _gev_a(0.1, xi))
    loc = median - scale * _gev_a(0.5, xi)
    fitted = Gev(shape=float(xi), scale=float(scale), loc=float(loc))
    for p, want in ((0.1, p10), (0.5, median), (0.9, p90)):
        got = fitted.quantile(p)
        if abs(got - want) > 1e-6 * max(1.0, abs(want)):
            raise FitError(
                f"fit verification failed at p={p}: wanted {want}, got {got}"
            )
    return fitted


# ---------------------------------------------------------------------------
# Config (de)serialization
# ---------------------------------------------------------------------------

def _parametric_from_config(cfg, kinds: dict, what: str):
    """The model ``cfg`` records, for a kind in ``kinds`` (tag -> class);
    ``what`` names the model family in errors."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ValueError(f"{what} config must be a mapping with a 'kind': {cfg!r}")
    cls = kinds.get(cfg["kind"]) if isinstance(cfg["kind"], str) else None
    if cls is None:
        raise ValueError(f"unknown {what} kind {cfg['kind']!r}")
    return cls(*[_number(cfg[p], cls.kind, p) for p in cls._params])


PARAMETRIC_KINDS = {cls.kind: cls for cls in (Gev, Uniform, Degenerate)}


def dist_from_config(cfg: dict, base_dir=None) -> LatencyDistribution:
    """Build a distribution from its tagged config record.

    ``{"kind": "empirical", "file": "lat.csv"}`` reads one latency per line,
    resolved relative to base_dir when the path is not absolute.
    """
    kind = cfg.get("kind") if isinstance(cfg, dict) else None
    if kind == "empirical":
        if "file" in cfg:
            path = Path(cfg["file"])
            if base_dir is not None and not path.is_absolute():
                path = Path(base_dir) / path
            return Empirical(np.loadtxt(path, ndmin=1))
        samples = cfg["samples"]
        if not set(map(type, samples)) <= {int, float}:  # no bool, str or nested list
            bad = next(x for x in samples if type(x) not in (int, float))
            raise ValueError(f"empirical samples must be numbers (got {bad!r})")
        try:
            return Empirical(samples)
        except OverflowError:  # an integer beyond the float range
            raise ValueError("empirical samples must be finite") from None
    if kind == "mixture":
        comps = [dist_from_config(c, base_dir) for c in cfg["components"]]
        return Mixture(comps, [_number(w, "mixture", "weights") for w in cfg["weights"]])
    return _parametric_from_config(cfg, PARAMETRIC_KINDS, "distribution")
