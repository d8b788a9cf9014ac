"""Random-variable models for end-to-end task completion latencies.

Every distribution supports vectorized CDF and quantile evaluation,
inverse-transform sampling from a caller-owned ``numpy.random.Generator``,
and expectations of time-utilities (the building block for expected task
utilities).  Distribution objects are immutable after construction and
safe to share across threads; all randomness comes from the RNG stream
the caller passes in.

Each kind computes its CDF and quantile with static formulas over its
parameters, which are floats for one distribution and (rows, 1) columns
when ``Columns``, the grouped evaluator that the time-utility families of
``utility`` share, evaluates a group of records at once; the bound methods
are adapters over the same formulas.  ``expect_transforms`` and
``Columns.median`` score many distributions in one formula call per group,
with results ``==`` to the per-distribution calls.  A group of mixtures is
handled one component position at a time in both: its components at each
position form a group of their own.

Heavy-tailed completion times (Frechet-type extreme value laws with a
positive shape parameter) are first-class here because they fit measured
fog latencies well.  Expectations use the layer-cake identity.  A
time-utility f is nonincreasing with values in [0, 1], so

    E[f(T)] = int_0^1 P(f(T) >= s) ds = int_0^1 F(f^-1(s)) ds,

where ``f^-1(s)`` is the largest latency still worth s.  The integrand is
a CDF over a bounded interval, so the tail never has to be truncated.

A model's config record is its ``kind`` tag plus its fields (see
``ConfigRecord``), and its class reads it; ``KINDS`` lists the classes.
Each input format has one reader here: ``Fields`` and ``_load_json`` for
JSON records, ``_read_numbers`` for numeric text (a samples ``file``, and
the bench dataset and ``/fsp`` bodies of ``benchnet``).
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
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
    "Columns",
    "expect_transform",
    "expect_transforms",
    "gev_from_quantiles",
    "dist_from_config",
    "make_rng",
    "FitError",
]

MIXTURE_WEIGHT_TOL = 1e-9
# The k-section (``_ksection``) behind the mixture quantile and the shape
# fit of ``gev_from_quantiles`` splits each of n brackets into
# max(2, _KSECTION_POINTS // n) parts per step, so each call of the
# inverted function sees about 64 points: 63 for a scalar quantile or a
# shape fit, and 22 or more brackets, such as a group of medians, bisect.
# For a nondecreasing function the result does not depend on k.
_KSECTION_POINTS = 64
# Group formula calls take blocks of rows whose largest temporary holds
# about this many elements (128 KB of float64, sized for a core's L2
# cache), the panel points of eight to twelve pairs.  Each block of the
# layer-cake fill makes about ten numpy calls, so larger blocks save
# formula calls on big tables: the fill of a 1,000-task, 4,778-pair
# benchmark scenario runs 492 layer-cake blocks here against 1,595 at
# 1 << 12, and took 0.062 s against 0.081 s (0.064, 0.060 and 0.063 s at
# 1 << 13, 1 << 15 and 1 << 16; medians of 9 on a 2-vCPU x86-64 machine).
# The block size never changes a result, but larger blocks raise a
# process's peak memory on the small tables.
_CHUNK_ELEMENTS = 1 << 14

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


def _integer(value, minimum, error: str) -> int:
    """``value`` as an int >= ``minimum``; a bool, a fraction, a string or
    a smaller number raises a ValueError with ``error`` and the value."""
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not whole or value < minimum:
        raise ValueError(f"{error} (got {value!r})")
    return int(value)


def _string(value, name: str) -> str:
    """``value`` if it is a string, or a ValueError naming the field ``name``."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string (got {value!r})")
    return value


class Fields:
    """A JSON object of an input file, read a field at a time by the rules
    above: the one reader of every input record.  A bad field raises ``error``
    as ``<record>: <field> <problem>``, the location built only then; a
    record's ``name`` is its field, or (section, position, kind) for an item
    of a section, shown as ``kind`` and its string "id", else ``section[i]``.
    """

    __slots__ = ("fields", "_name", "_error", "_parent")

    def __init__(self, fields, name="", error: type[ValueError] = ValueError, parent=None):
        self.fields, self._name, self._error, self._parent = fields, name, error, parent
        if not isinstance(fields, dict):
            raise self.fail(f"must be a JSON object (got {fields!r})")

    def where(self) -> str:
        name = self._name
        if isinstance(name, tuple):
            section, i, kind = name
            rid = self.fields.get("id") if kind and isinstance(self.fields, dict) else None
            name = f"{kind} {rid!r}" if isinstance(rid, str) else f"{section}[{i}]"
        parent = self._parent
        return name if parent is None or parent._parent is None else f"{parent.where()} {name}"

    def fail(self, problem: str) -> ValueError:
        """The error, to raise, that locates ``problem`` at this record."""
        where = self.where()
        return self._error(f"{where}: {problem}" if where else problem)

    def apply(self, rule, *args, **kwargs):
        """``rule(*args, **kwargs)``, a ValueError or OSError it raises located here."""
        try:
            return rule(*args, **kwargs)
        except (ValueError, OSError) as exc:
            raise self.fail(str(exc)) from None

    def value(self, key: str, default=...):
        """Field ``key`` as it stands; ``default``, if given, when it is missing."""
        value = self.fields.get(key, default)
        if value is ...:
            raise self.fail(f"missing field {key!r}")
        return value

    # A string or float field, by far the most common, skips its rule, which
    # would return it as it is; a default goes through the rule.
    def text(self, key: str, default=...) -> str:
        value = self.fields.get(key)
        return value if type(value) is str else self.apply(_string, self.value(key, default), key)

    def number(self, key: str, *kind: str, default=...) -> float:
        """Field ``key`` as a float; errors call it ``kind key``."""
        value = self.fields.get(key)
        if type(value) is float:
            return value
        return self.apply(_number, self.value(key, default), *kind, key)

    def integer(self, key: str, default=...) -> int:
        """Field ``key`` as an int >= 0: a count, a size or a seed."""
        return self.apply(_integer, self.value(key, default), 0, f"{key} must be an integer >= 0")

    def array(self, key: str, of: str, default=...) -> list:
        """Field ``key``, a JSON array of ``of``, as it stands."""
        value = self.value(key, default)
        if not isinstance(value, list):
            raise self.fail(f"{key} must be a list of {of} (got {value!r})")
        return value

    def record(self, key: str, default=...) -> Fields:
        return Fields(self.value(key, default), key, self._error, self)

    def records(self, key: str, kind: str | None = None, default=...) -> list[Fields]:
        """Field ``key``, a section of records, each named by ``kind``."""
        return [Fields(item, (key, i, kind), self._error, self)
                for i, item in enumerate(self.array(key, "objects", default))]


def _load_json(path, read, error: type[ValueError] = ValueError, role: str = ""):
    """``read(cfg, directory)`` of the UTF-8 JSON file ``path``; a bad file or
    record raises ``error`` naming the file first (after ``role`` if given)."""
    name = f"{role} {path}" if role else str(path)
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise error(f"{name}: not valid JSON: {exc}") from exc
    try:
        return read(cfg, Path(path).parent)
    except ValueError as exc:
        raise error(f"{name}: {exc}") from exc


def _read_numbers(text: str, whole_line: bool = False) -> np.ndarray:
    """The numbers in ``text`` by the one rule for numeric text: lines as
    ``str.splitlines`` splits them, ``#`` starts a comment, blank lines are
    skipped, and a line's value is its first comma-separated field (with
    ``whole_line``, the line), stripped: an ASCII decimal number without
    ``_`` that ``float`` reads as finite.  The first line that is not raises
    ``line N ('...') is not a finite number``, N counting every line."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    fields = list(filter(None, map(str.strip, lines)))
    if "," in text and not whole_line:  # without one, each field is its whole line
        fields = [field.partition(",")[0].strip() for field in fields]
    with contextlib.suppress(ValueError):  # a field float() refuses is named below
        # float() takes "_" and non-ASCII digits: a text with either is tested a field at a time.
        if text.isascii() and "_" not in text or all(map(_finite_number, fields)):
            values = np.fromiter(map(float, fields), float, len(fields))
            if np.isfinite(values).all():
                return values
    # Only a refused text pays for finding the bad line's number.
    numbered = (i for i, line in enumerate(lines, 1) if line.strip())
    i = next(i for i, field in zip(numbered, fields) if not _finite_number(field))
    raise ValueError(f"line {i} ({text.splitlines()[i - 1].strip()!r}) is not a finite number")


def _finite_number(field: str) -> bool:
    try:
        return field.isascii() and "_" not in field and math.isfinite(float(field))
    except ValueError:
        return False


def _load_numbers(path, role: str = "", whole_line: bool = False) -> np.ndarray:
    """``_read_numbers`` of the UTF-8 text file ``path``; a bad file or line
    raises a ValueError naming the file first (after ``role`` if given)."""
    try:
        return _read_numbers(Path(path).read_text(encoding="utf-8"), whole_line)
    except ValueError as exc:  # not UTF-8, or a line that is not a number
        raise ValueError(f"{role} {path}: {exc}" if role else f"{path}: {exc}") from None


def _maybe_scalar(out, t):
    if np.ndim(t) == 0:
        return float(out)
    return out


class ConfigRecord:
    """A model stored as ``{"kind": kind, field: value, ...}``.

    A parametric kind lists its numeric fields in ``_params``, in constructor
    order, and ``to_config``, ``_from_config``, ``_require_finite`` and the
    formula arguments (``_args`` for one record, ``_columns`` for a group)
    read that list; other kinds override them."""

    kind: str
    _params: tuple[str, ...] = ()

    def to_config(self) -> dict:
        cfg = {"kind": self.kind}
        for p in self._params:
            cfg[p] = getattr(self, p)
        return cfg

    @classmethod
    def _from_config(cls, rec: Fields, base_dir=None):
        return rec.apply(cls, *[rec.number(p, cls.kind) for p in cls._params])

    def _group_key(self):
        """Records with equal keys share formula calls in ``Columns``."""
        return type(self)

    def _args(self) -> tuple:
        """The arguments of the kind's formulas: the ``_params`` values."""
        return tuple([getattr(self, p) for p in self._params])

    @classmethod
    def _columns(cls, group) -> tuple:
        """The formula arguments of ``group``, one record per row."""
        return tuple(np.array([getattr(r, p) for r in group])[:, None] for p in cls._params)

    def _require_finite(self) -> None:
        """Reject NaN and infinite parameters, naming the offending field."""
        for p in self._params:
            if not math.isfinite(getattr(self, p)):
                raise ValueError(f"{self.kind} {p} must be finite (got {getattr(self, p)!r})")


class LatencyDistribution(ConfigRecord):
    """Base class for completion-time distributions (values in seconds).

    A kind computes its CDF and quantile with static formulas
    ``_cdf(t, *args)`` and ``_quantile(p, *args)`` over the arguments that
    ``_args()`` returns: its ``_params`` values for one distribution, and
    (rows, 1) columns of them (``_columns``) when ``Columns`` evaluates a
    group of distributions at once.  The methods below are
    adapters over those formulas.
    """

    linear = False  # a weighted sum of its components (``expect_transforms``)
    atoms = None  # a discrete kind's equally likely values (or one), as a property

    def cdf(self, t):
        """P(T <= t); accepts scalars or arrays, total over the reals."""
        tarr = _as_array(t)
        if np.isnan(tarr).any():
            raise ValueError("cdf argument must not be NaN")
        return _maybe_scalar(self._eval_cdf(tarr), t)

    def quantile(self, p):
        """Generalized inverse of the CDF for p in the open interval (0,1)."""
        parr = _as_array(p)
        if not np.all((parr > 0.0) & (parr < 1.0)):  # also rejects NaN
            raise ValueError("quantile probability must lie strictly in (0, 1)")
        return _maybe_scalar(self._eval_quantile(parr), p)

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
        return self._eval_quantile(u)

    def _eval_cdf(self, t: np.ndarray) -> np.ndarray:
        """The CDF formula at ``t``, unchecked; ``Columns`` has its twin."""
        return self._cdf(t, *self._args())

    def _eval_quantile(self, p: np.ndarray) -> np.ndarray:
        return self._quantile(p, *self._args())

    # Subclass surface -----------------------------------------------------

    @staticmethod
    def _cdf(t: np.ndarray, *args) -> np.ndarray:
        raise NotImplementedError

    @staticmethod
    def _quantile(p: np.ndarray, *args) -> np.ndarray:
        raise NotImplementedError

    def support_lo(self) -> float:
        """Infimum of the support; used to reject negative-latency models."""
        raise NotImplementedError

    def breakpoints(self) -> tuple[float, ...]:
        """Points where the CDF has kinks or jumps (for grid construction)."""
        return ()


def _power(base, exponent):
    """``base ** exponent``, each element as numpy raises it on its own.

    numpy raises one float64 scalar with C ``pow`` and an array with its
    own vector loop, and the two can differ in the last bit, so a scalar
    base under an exponent column is raised one element at a time.
    """
    if np.ndim(base) == 0 and np.ndim(exponent) > 0:
        return np.array([base ** e for e in exponent.ravel().tolist()]).reshape(exponent.shape)
    return base ** exponent


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

    def _group_key(self):
        # numpy raises an array to the scalar power -1 by its reciprocal,
        # which can differ in the last bit from its general power loop, so
        # shape 1 forms its own group and keeps a scalar exponent.
        return Gev, self.shape == 1.0

    @classmethod
    def _columns(cls, group):
        shape, scale, loc = super()._columns(group)
        return (1.0 if group[0].shape == 1.0 else shape), scale, loc

    @staticmethod
    def _cdf(t, shape, scale, loc):
        z = 1.0 + shape * (t - loc) / scale
        out = np.zeros_like(z)
        pos = z > 0.0
        if isinstance(shape, np.ndarray):  # a column: one exponent per point
            shape = np.broadcast_to(shape, z.shape)[pos]
        w = z[pos]  # raised, negated and exponentiated in place
        with np.errstate(over="ignore", divide="ignore"):
            np.exp(np.negative(np.power(w, -1.0 / shape, out=w), out=w), out=w)
        out[pos] = w
        return out

    @staticmethod
    def _quantile(p, shape, scale, loc):
        with np.errstate(over="ignore"):  # a steep upper tail saturates at inf
            return loc + scale * (_power(-np.log(p), -shape) - 1.0) / shape

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
        if not math.isfinite(self.hi - self.lo):
            raise ValueError(f"uniform hi - lo must be finite (got lo={self.lo!r}, hi={self.hi!r})")

    @staticmethod
    def _cdf(t, lo, hi):
        with np.errstate(over="ignore"):  # far beyond a narrow support: clipped to 0 or 1
            return np.clip((t - lo) / (hi - lo), 0.0, 1.0)

    @staticmethod
    def _quantile(p, lo, hi):
        return lo + p * (hi - lo)

    def support_lo(self):
        return self.lo

    def breakpoints(self):
        return (self.lo, self.hi)


class Empirical(LatencyDistribution):
    """Right-continuous step CDF with jumps of 1/N at each sorted sample.

    Its formula argument is the sorted sample array; a group of equal
    sample counts stacks them, one row per distribution.
    """

    kind = "empirical"
    atoms = property(lambda self: self.samples)

    def __init__(self, samples):
        try:
            arr = np.sort(_as_array(samples), axis=None)  # flattened
        except OverflowError:  # an integer beyond the float range
            raise ValueError("empirical samples must be finite") from None
        if arr.size == 0:
            raise ValueError("empirical distribution needs at least one sample, got zero samples")
        if not np.isfinite(arr).all():
            raise ValueError("empirical samples must be finite")
        if arr[0] < 0.0:
            raise ValueError("empirical samples must be nonnegative")
        self.samples = arr
        self.samples.setflags(write=False)

    @property
    def n(self) -> int:
        return int(self.samples.size)

    def _args(self):
        return (self.samples,)

    def _group_key(self):
        return Empirical, self.n

    @classmethod
    def _columns(cls, group):
        return (np.stack([d.samples for d in group]),)

    @staticmethod
    def _cdf(t, samples):
        n = samples.shape[-1]
        if samples.ndim == 1:
            return np.searchsorted(samples, t, side="right") / n
        # Rows of t against rows of samples: count the samples at or below
        # each point, a block of rows at a time.
        out = np.empty(t.shape)
        step = max(1, _CHUNK_ELEMENTS // (t.shape[1] * n))
        for i in range(0, len(t), step):
            rows = slice(i, i + step)
            out[rows] = np.count_nonzero(samples[rows, None, :] <= t[rows, :, None], axis=-1) / n
        return out

    @staticmethod
    def _quantile(p, samples):
        # Generalized inverse: the ceil(p*n)-th order statistic.  The small
        # nudge keeps p*n values that are integers up to float fuzz exact.
        n = samples.shape[-1]
        idx = np.clip(np.ceil(p * n - 1e-12).astype(int) - 1, 0, n - 1)
        if samples.ndim == 1:
            return samples[idx]
        return samples[np.arange(len(samples))[:, None], idx]

    def support_lo(self):
        return float(self.samples[0])

    def breakpoints(self):
        return tuple(np.unique(self.samples))

    def __repr__(self):
        return f"Empirical(n={self.n})"

    def __eq__(self, other):
        return isinstance(other, Empirical) and np.array_equal(self.samples, other.samples)

    def to_config(self):
        return {"kind": self.kind, "samples": [float(x) for x in self.samples]}

    @classmethod
    def _from_config(cls, rec, base_dir=None):
        if "file" in rec.fields:
            if "samples" in rec.fields:
                raise rec.fail("empirical takes samples or file, not both")
            path = Path(base_dir or "") / rec.text("file")
            samples = rec.apply(_load_numbers, path, whole_line=True)
        else:
            samples = rec.array("samples", "numbers")
            if not set(map(type, samples)) <= {int, float}:  # no bool, str or nested list
                bad = next(x for x in samples if type(x) not in (int, float))
                raise rec.fail(f"empirical samples must be numbers (got {bad!r})")
        return rec.apply(cls, samples)


@dataclass(frozen=True)
class Degenerate(LatencyDistribution):
    """Point mass; handy for deterministic latencies and edge-case tests."""

    value: float
    kind = "degenerate"
    _params = ("value",)
    atoms = property(lambda self: self.value)

    def __post_init__(self):
        self._require_finite()

    @staticmethod
    def _cdf(t, value):
        return np.where(t >= value, 1.0, 0.0)

    @staticmethod
    def _quantile(p, value):
        return np.full(np.broadcast_shapes(np.shape(p), np.shape(value)), value)

    def support_lo(self):
        return self.value

    def breakpoints(self):
        return (self.value,)


_SIGN_BIT = np.uint64(1 << 63)


def _float_order(x) -> np.ndarray:
    """uint64 images of float64 values, in the floats' order.

    Adjacent floats map to adjacent integers, and -0.0 sits just below 0.0.
    """
    bits = np.asarray(x, dtype=float).view(np.uint64)
    return np.where(bits & _SIGN_BIT, ~bits, bits | _SIGN_BIT)


def _order_float(key) -> np.ndarray:
    """The float64 values of ``_float_order`` images."""
    return np.where(key & _SIGN_BIT, key ^ _SIGN_BIT, ~key).view(np.float64)


def _ksection(cdf, p, lo, hi):
    """The smallest float x in [lo, hi] with ``cdf(x) >= p``, elementwise,
    or hi where there is none.

    The search runs over the floats' ordered integer images
    (``_float_order``).  One CDF call per step evaluates k - 1 floats
    strictly inside every bracket, and the count of those below p picks the
    new bracket.  Each step shrinks every bracket that is not yet two
    adjacent floats, and a bracket holds at most 2^64 floats, so the search
    ends exactly, after at most 64 steps at k = 2.  ``cdf`` receives points
    of shape (rows, -1) when ``lo`` has any dimension (row i of a group
    belongs to distribution i).

    The package's one root finder: ``Mixture._quantile`` inverts the
    mixture CDF with it and ``gev_from_quantiles`` the Gev quantile ratio.
    ``cdf`` should be nondecreasing; where its float values wobble, as the
    ratio's do, the search still ends, next to one of the crossings of p.
    """
    p = np.asarray(p)[..., None]
    klo = _float_order(lo) - np.uint64(1)
    khi = _float_order(hi)
    k = np.uint64(max(2, _KSECTION_POINTS // max(klo.size, 1)))
    steps = np.arange(1, k, dtype=np.uint64)
    # Points near an infinite hi can overflow inside the CDF formulas.
    with np.errstate(over="ignore"):
        while np.any(khi - klo > 1):
            # floor((span - 1) * j / k) for j = 1..k-1, without overflow.
            q, r = np.divmod(khi - klo - np.uint64(1), k)
            pts = (klo + np.uint64(1))[..., None] + q[..., None] * steps + r[..., None] * steps // k
            x = _order_float(pts)
            values = cdf(x.reshape(len(x), -1)).reshape(x.shape) if x.ndim > 1 else cdf(x)
            below = np.count_nonzero(values < p, axis=-1)[..., None]
            ends = np.concatenate([klo[..., None], pts, khi[..., None]], axis=-1)
            klo = np.take_along_axis(ends, below, axis=-1)[..., 0]
            khi = np.take_along_axis(ends, below + 1, axis=-1)[..., 0]
    return _order_float(khi) + 0.0  # -0.0 reads as 0.0


class Mixture(LatencyDistribution):
    """Convex combination of component distributions.

    The CDF is the weighted sum of the component CDFs; the quantile is the
    generalized inverse, found exactly by k-section (``_ksection``) between
    the smallest and largest component quantiles, so quantiles on a jump
    land on its atom.  The formula arguments are the weights and the
    components; for a group of mixtures with equal component keys they are
    one weight column and one ``Columns`` per component position.
    """

    kind = "mixture"
    linear = True

    def __init__(self, components, weights):
        components = tuple(components)
        try:
            w = np.asarray(weights)
        except ValueError:  # a ragged nesting such as [[0.5], 0.5]
            w = None
        # One int or float per component: no strings, bools or nesting.
        if (w is None or w.dtype.kind not in "iuf" or len(components) == 0
                or w.shape != (len(components),)):
            raise ValueError("mixture needs matching nonempty components and weights")
        w = w.astype(float)
        if not np.isfinite(w).all():
            raise ValueError(f"mixture weights must be finite (got {w.tolist()!r})")
        if (w < 0.0).any():
            raise ValueError("mixture weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > MIXTURE_WEIGHT_TOL:
            raise ValueError(f"mixture weights must sum to 1 (got {float(w.sum())!r})")
        self.components = components
        self.weights = w
        self.weights.setflags(write=False)

    def _args(self):
        return self.weights, self.components

    def _group_key(self):
        return Mixture, tuple(c._group_key() for c in self.components)

    @classmethod
    def _columns(cls, group):
        weights = [np.array(w)[:, None] for w in zip(*(d.weights for d in group))]
        return weights, [Columns(c) for c in zip(*(d.components for d in group))]

    @staticmethod
    def _cdf(t, weights, components):
        out = np.zeros_like(t)
        for w, c in zip(weights, components):
            out = out + w * c._eval_cdf(t)
        return out

    @staticmethod
    def _quantile(p, weights, components):
        comp_q = np.stack([c._eval_quantile(p) for c in components])
        return _ksection(lambda t: Mixture._cdf(t, weights, components), p,
                         comp_q.min(axis=0), comp_q.max(axis=0))

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
            "kind": self.kind,
            "components": [c.to_config() for c in self.components],
            "weights": [float(w) for w in self.weights],
        }

    @classmethod
    def _from_config(cls, rec, base_dir=None):
        comps = [dist_from_config(c, base_dir) for c in rec.records("components")]
        weights = [rec.apply(_number, w, cls.kind, "weights")
                   for w in rec.array("weights", "numbers")]
        return rec.apply(cls, comps, weights)


def _group_rows(keys) -> list[np.ndarray]:
    """Positions of equal keys, one index array per key in first-seen order."""
    members: dict = {}
    for i, key in enumerate(keys):
        members.setdefault(key, []).append(i)
    return [np.array(idx) for idx in members.values()]


class Columns:
    """Many records' formulas (latency kinds or time-utility families), one
    call per group of records.

    Row i of an argument's second-to-last axis belongs to ``records[i]``, as
    the (rows, 1) parameter columns broadcast: time-utility formulas take
    leading axes too, a latency CDF takes (rows, points), the shape
    ``Empirical._cdf`` assumes.  Records with equal ``_group_key`` form a
    group, and ``groups`` holds each group's rows (a slice when they are
    contiguous), kind and formula arguments (``_columns``), built here once.
    Every result is ``==`` to the one its record's own method gives.
    """

    def __init__(self, records):
        records = list(records)
        self.size = len(records)
        self.groups = []
        for idx in _group_rows(r._group_key() for r in records):
            kind = type(records[idx[0]])
            contiguous = idx[-1] - idx[0] == len(idx) - 1
            rows = slice(int(idx[0]), int(idx[-1]) + 1) if contiguous else idx
            self.groups.append((rows, kind, kind._columns([records[i] for i in idx])))

    def _eval_cdf(self, t) -> np.ndarray:
        """Row i of ``t``, of shape (len, points), through ``records[i]``'s CDF."""
        return self._rows("_cdf", t)

    def _eval_quantile(self, p) -> np.ndarray:
        """Row i of ``p`` through ``records[i]``'s quantile; a 0-d ``p`` is
        every distribution's quantile at p, as ``quantile(p)`` gives it."""
        p = np.asarray(p, dtype=float)
        if p.ndim:
            return self._rows("_quantile", p)
        out = np.empty(self.size)
        for rows, kind, args in self.groups:
            out[rows] = kind._quantile(p, *args).reshape(-1)
        return out

    def median(self) -> np.ndarray:
        """Each distribution's ``quantile(0.5)``."""
        return self._eval_quantile(0.5)

    def latency_budget(self, q) -> np.ndarray:
        """Row i of ``q`` through ``records[i]``'s time-utility budget."""
        return self._rows("_latency_budget", q)

    def value(self, t: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``records[i].value(t[..., i, :])`` into ``out[..., i, :]``; ``out``
        may be ``t``.  A group of contiguous rows is written in place through
        views; any other group is gathered and scattered back."""
        for rows, kind, args in self.groups:
            sub = out[..., rows, :]
            kind._value(t[..., rows, :], *args, out=sub)
            if not isinstance(rows, slice):
                out[..., rows, :] = sub
        return out

    def _rows(self, formula: str, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        for rows, kind, args in self.groups:
            out[..., rows, :] = getattr(kind, formula)(x[..., rows, :], *args)
        return out


def expect_transform(dist: LatencyDistribution, f) -> float:
    """E[f(T)] for a time-utility f: ``expect_transforms`` of one pair."""
    return float(expect_transforms([dist], [f])[0])


def expect_transforms(dists, utilities) -> np.ndarray:
    """E[f(T)] for each distribution ``dists[i]`` under the time-utility
    ``utilities[i]``: f nonincreasing, with values in [0, 1].

    A discrete kind is averaged exactly over its ``atoms``, and a ``linear``
    one is the weighted sum of its components.  Continuous ones use the
    layer-cake identity ``E[f(T)] = integral over (0, 1) of
    F(f.latency_budget(s)) ds`` on a fixed composite Gauss-Legendre rule;
    the panel edges (module constants above) keep kinks and steep stretches
    of the integrand off panel interiors.

    A time-utility family computes values and budgets with static formulas
    ``_value(t, *params, out)`` and ``_latency_budget(q, *params)`` over
    its ``_params``.  Pairs are grouped by latency group key and
    time-utility family and scored a block of rows at a time: a discrete
    kind's atoms with one formula call, a continuous kind with one
    layer-cake call per panel count (``_layer_cake``).  A group of a linear
    kind, whose members share their component keys, scores its components
    by position, as ``Columns`` evaluates them: one recursive call per
    position, summed from 0.0 in component order.  A pair's result does not
    depend on the other pairs scored with it.
    """
    dists, fs = list(dists), list(utilities)
    out = np.empty(len(dists))
    for rows in _group_rows((d._group_key(), type(f)) for d, f in zip(dists, fs)):
        group, gfs = [dists[i] for i in rows], [fs[i] for i in rows]
        kind, family = type(group[0]), type(gfs[0])
        if kind.linear:
            total = np.zeros(len(rows))
            for c in range(len(group[0].components)):
                weights = np.array([d.weights[c] for d in group])
                total = total + weights * expect_transforms([d.components[c] for d in group], gfs)
            out[rows] = total
            continue
        fargs = family._columns(gfs)
        # Blocks of rows keep each call's arrays near _CHUNK_ELEMENTS: a discrete
        # row holds its atoms, a continuous row about 128 candidate panel edges.
        discrete = kind.atoms is not None
        block = max(1, _CHUNK_ELEMENTS // (np.size(group[0].atoms) if discrete else 128))
        for i in range(0, len(rows), block):
            sub = slice(i, i + block)
            part, fa = group[sub], _select(fargs, sub)
            if discrete:
                atoms = np.array([d.atoms for d in part]).reshape(len(part), -1)
                values = family._value(atoms, *fa, out=np.empty(atoms.shape))
                out[rows[sub]] = values.mean(axis=1)
            else:
                breakpoints = np.array([d.breakpoints() for d in part], dtype=float)
                out[rows[sub]] = _layer_cake(kind, kind._columns(part), family, fa, breakpoints)
    return out


def _select(args, rows) -> list:
    """Rows ``rows`` of each column argument; a scalar argument stays."""
    return [a[rows] if np.ndim(a) else a for a in args]


def _layer_cake(kind, largs, family, fargs, breakpoints) -> np.ndarray:
    """``expect_transforms`` for rows of one continuous kind (formula
    arguments ``largs``) under time-utilities of one family (``fargs``).

    Each row's panel edges are its sorted distinct candidates, as
    ``np.unique`` gives them.  Rows are grouped by panel count rather than
    padded, so each row's dot products keep their length and order, and
    each formula call takes a block of rows whose point array stays near
    ``_CHUNK_ELEMENTS``.
    """
    knots = np.concatenate([breakpoints, kind._quantile(_QUANTILE_LADDER, *largs)], axis=1)
    rows = len(knots)
    cand = np.concatenate([
        np.broadcast_to([0.0, 1.0], (rows, 2)),
        family._value(knots, *fargs, out=np.empty_like(knots)),
        np.broadcast_to(_DYADIC_EDGES, (rows, _DYADIC_EDGES.size)),
    ], axis=1)
    cand.sort(axis=1)
    keep = np.ones(cand.shape, dtype=bool)
    np.not_equal(cand[:, 1:], cand[:, :-1], out=keep[:, 1:])
    counts = keep.sum(axis=1)
    out = np.empty(rows)
    for n_edges in np.unique(counts).tolist():
        sel = np.flatnonzero(counts == n_edges)
        edges = cand[sel][keep[sel]].reshape(len(sel), n_edges)
        block = max(1, _CHUNK_ELEMENTS // (n_edges * _GL_NODES.size))
        for i in range(0, len(sel), block):
            r = sel[i:i + block]
            e = edges[i:i + block]
            width = np.diff(e, axis=1)
            s = e[:, :-1, None] + width[:, :, None] * _GL_NODES
            budget = family._latency_budget(s.reshape(len(r), -1), *_select(fargs, r))
            cdf = kind._cdf(budget, *_select(largs, r)).reshape(s.shape)
            inner = cdf @ _GL_WEIGHTS
            # The weights sum to 1 only up to rounding: a panel whose CDF is 1
            # at every node, where the deficits 1 - cdf (>= 0) have a weighted
            # sum of 0, counts as exactly 1 (cheaper than a minimum per panel).
            inner[np.subtract(1.0, cdf, out=cdf) @ _GL_WEIGHTS == 0.0] = 1.0
            out[r] = (width[:, None, :] @ inner[:, :, None])[:, 0, 0]
    return np.minimum(np.maximum(out, 0.0), 1.0)


# ---------------------------------------------------------------------------
# Quantile-matched construction
# ---------------------------------------------------------------------------

def _gev_a(p: float, xi):
    """(Q(p) - loc)/scale for the positive-shape extreme value CDF; xi may be an array."""
    return ((-math.log(p)) ** (-xi) - 1.0) / xi


def _quantile_ratio(xi):
    return (_gev_a(0.9, xi) - _gev_a(0.5, xi)) / (_gev_a(0.5, xi) - _gev_a(0.1, xi))


_XI_MIN = 1e-9
_XI_MAX = 2.0


def gev_from_quantiles(median: float, p10: float, p90: float) -> Gev:
    """Construct the positive-shape Gev whose 10/50/90 quantiles match.

    The asymmetry ratio (p90 - median)/(median - p10) pins the shape on
    [1e-9, 2], found by ``_ksection`` (which also inverts the mixture CDF)
    over ``_quantile_ratio``.  That ratio is increasing only up to
    rounding: near shape 1e-9 its float values wobble by about 1e-7
    relative, and any crossing of the target is returned there, as Brent's
    method returned one.  Scale and location follow in closed form.
    Raises FitError when the triple is not achievable, which happens
    whenever the upper spread is not sufficiently heavier than the lower one.
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
    xi = float(_ksection(_quantile_ratio, target, _XI_MIN, _XI_MAX))
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

def _record_from_config(cfg, kinds: dict, what: str, base_dir=None):
    """``cfg`` (a dict or its ``Fields``) read by its kind's class in ``kinds``, a tag table."""
    rec = cfg if isinstance(cfg, Fields) else Fields(cfg)
    cls = kinds.get(rec.text("kind"))
    if cls is None:
        raise rec.fail(f"unknown {what} kind {rec.fields['kind']!r}")
    return cls._from_config(rec, base_dir)


KINDS = {cls.kind: cls for cls in (Gev, Uniform, Empirical, Mixture, Degenerate)}


def dist_from_config(cfg, base_dir=None) -> LatencyDistribution:
    """Build a distribution from its tagged config record (a dict or its
    ``Fields``); a file it names resolves relative to base_dir unless absolute."""
    return _record_from_config(cfg, KINDS, "distribution", base_dir)
