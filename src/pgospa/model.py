"""Data model for multi-Bernoulli (MB) set densities.

An MB density is an ordered list of Bernoulli components, each pairing an
existence probability ``r`` with a single-object density (Gaussian or a
Dirac point mass).  ``MBDensity`` holds it as four arrays, its only state:
``r`` (n,), ``means`` (n, D), ``covs`` (n, D, D), zero for a Dirac, and the
Dirac mask ``dirac`` (n,); ``components``, ``densities`` and ``mb[k]`` are
views built from them.  ``MBDensity.from_arrays`` builds one from copies of
those arrays, checked in one pass that also puts the covariances in normal
form in one batched call.  A clean document takes one structural pass over
its components, then the same checks on its stacked fields; a per-field
walk decides faulty and odd documents and is the only code that reports a
fault.  An MB mixture adds normalized weights over several MB densities.
All types are immutable after construction and safe to share across
threads; numpy arrays are stored read-only.

JSON schemas
------------
MB density::

    {"components": [{"r": 0.7,
                     "density": {"type": "gaussian", "mean": [...], "cov": [[...]]}},
                    {"r": 0.4,
                     "density": {"type": "dirac", "location": [...]}}]}

MB mixture::

    {"mixture": [{"weight": 0.4, "mb": { ... MB ... }}, ...]}

Point set::

    {"points": [[...], [...], ...]}

All numbers are IEEE doubles written in decimal text.  Serialization is
canonical (sorted keys, no whitespace), so ``serialize(validate(x))`` is a
fixed point of load/serialize round trips.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "SchemaError",
    "DimensionMismatchError",
    "GaussianDensity",
    "DiracDensity",
    "SingleObjectDensity",
    "BernoulliComponent",
    "MBDensity",
    "MBMixture",
    "MetricParams",
    "append_zero_components",
    "mb_from_dict",
    "mb_to_dict",
    "mbm_from_dict",
    "mbm_to_dict",
    "points_from_dict",
    "points_to_dict",
    "load_document",
    "load_mb",
    "load_mbm",
    "load_points",
    "canonical_json",
    "serialize_mb",
]

COV_SYMMETRY_TOL = 1e-9
COV_EIG_TOL = 1e-9
MIXTURE_WARN_TOL = 1e-6


class SchemaError(ValueError):
    """Input document is malformed or violates a field constraint."""


class DimensionMismatchError(ValueError):
    """State dimensions of the operands disagree."""


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value, what: str) -> float:
    """``value`` as a float; booleans, strings, other non-numbers and
    numbers beyond the double range are schema errors."""
    if _is_number(value):
        try:
            return float(value)
        except OverflowError:
            pass
    raise SchemaError(f"{what} is not a number")


def _float_array(value, what: str) -> np.ndarray:
    """``value`` as a float array; strings, booleans and other non-numbers
    are schema errors.  Integers beyond 64 bits make an object array, which
    is admitted when every entry is a number within the double range."""
    try:
        arr = np.asarray(value)
        if arr.dtype.kind == "O" and all(_is_number(v) for v in arr.flat):
            return np.asarray(value, dtype=float)
        if arr.dtype.kind in "iuf" and not _holds_bool(value, arr.ndim):
            return arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        pass
    raise SchemaError(f"{what} is not an array of numbers")


def _leaves(value, depth: int):
    """Iterator over the entries of the ``depth``-deep nested sequence
    ``value``."""
    for _ in range(depth - 1):
        value = itertools.chain.from_iterable(value)
    return iter(value)


def _holds_bool(value, depth: int) -> bool:
    """True if a boolean is among the entries of the ``depth``-deep nested
    sequence ``value``: numpy reads ``[1.0, True]`` as a float array."""
    if depth == 0 or isinstance(value, np.ndarray):
        return False
    return bool in map(type, _leaves(value, depth))


def _state_vector(value, what: str) -> np.ndarray:
    arr = _float_array(value, what)
    if arr.ndim != 1 or arr.size == 0:
        raise SchemaError(f"{what} must be a non-empty 1-D real vector")
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{what} contains non-finite entries")
    return _readonly(arr)


def _psd_normal_form(covs: np.ndarray) -> np.ndarray:
    """Symmetrize a stack of covariances (n, D, D) and clamp eigenvalues in
    [-COV_EIG_TOL, 0) to zero, clamping only the matrices that need it.
    Batched LAPACK calls give the bits of per-matrix ones, and the result
    is a fixed point of this function, which keeps serialized documents
    byte-stable under repeated load/validate cycles.
    """
    asym = np.abs(covs - covs.swapaxes(-1, -2))
    if asym.max() > COV_SYMMETRY_TOL:
        per_matrix = asym.reshape(-1, asym.shape[-1] ** 2).max(axis=1)
        a = per_matrix[per_matrix > COV_SYMMETRY_TOL][0]
        raise SchemaError(
            f"covariance is not symmetric (max asymmetry {a:.3g} > {COV_SYMMETRY_TOL:g})"
        )
    covs = (covs + covs.swapaxes(-1, -2)) / 2.0
    for i in np.flatnonzero(np.linalg.eigvalsh(covs)[:, 0] < 0.0):
        covs[i] = _clamp_psd(covs[i])
    return covs


def _clamp_psd(cov: np.ndarray) -> np.ndarray:
    for _ in range(4):
        w = np.linalg.eigvalsh(cov)
        if w[0] >= 0.0:
            return cov
        if w[0] < -COV_EIG_TOL:
            raise SchemaError(
                f"covariance has eigenvalue {w[0]:.3g} below -{COV_EIG_TOL:g}"
            )
        w_clamped, vec = np.linalg.eigh(cov)
        cov = (vec * np.maximum(w_clamped, 0.0)) @ vec.T
        cov = (cov + cov.T) / 2.0
    # clamping has not settled: shift the diagonal, doubling the shift until
    # the smallest eigenvalue is >= 0, so the result is a fixed point
    w = np.linalg.eigvalsh(cov)
    shift, base = -w[0], cov
    while w[0] < 0.0:
        cov = base + shift * np.eye(cov.shape[0])
        cov = (cov + cov.T) / 2.0
        w = np.linalg.eigvalsh(cov)
        shift *= 2.0
    return cov


def _gaussian_fields(mean, cov) -> tuple:
    """Mean vector and covariance, checked but not in PSD normal form."""
    mean = _state_vector(mean, "gaussian mean")
    cov = _float_array(cov, "covariance")
    if cov.ndim != 2 or cov.shape != (mean.size, mean.size):
        raise SchemaError(
            f"covariance must be {mean.size}x{mean.size}, got {cov.shape}"
        )
    if not np.all(np.isfinite(cov)):
        raise SchemaError("covariance contains non-finite entries")
    return mean, cov


@dataclass(frozen=True, eq=False)
class GaussianDensity:
    """Gaussian single-object density with mean vector and PSD covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __init__(self, mean, cov):
        mean, cov = _gaussian_fields(mean, cov)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", _readonly(_psd_normal_form(cov[None])[0]))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True, eq=False)
class DiracDensity:
    """Point-mass single-object density at a fixed location."""

    location: np.ndarray

    def __init__(self, location):
        object.__setattr__(self, "location", _state_vector(location, "dirac location"))

    @property
    def dim(self) -> int:
        return self.location.shape[0]


SingleObjectDensity = Union[GaussianDensity, DiracDensity]


@dataclass(frozen=True, eq=False)
class BernoulliComponent:
    """Existence probability in [0, 1] paired with a single-object density.

    The type admits r == 0 so padded densities can be represented; the JSON
    loaders reject r == 0 unless explicitly relaxed.
    """

    r: float
    density: SingleObjectDensity

    def __init__(self, r, density):
        r = float(r)
        if not np.isfinite(r) or r < 0.0 or r > 1.0:
            raise SchemaError(f"existence probability out of range (r={r!r})")
        if not isinstance(density, (GaussianDensity, DiracDensity)):
            raise SchemaError("density must be GaussianDensity or DiracDensity")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "density", density)

    @property
    def dim(self) -> int:
        return self.density.dim


def _stack(rs: list, means: list, covs: list) -> tuple:
    """The (r, means, covs, dirac) arrays of n checked components; a None
    covariance marks a Dirac, and means of several lengths a mismatch."""
    try:
        stacked = np.array(means, dtype=float) if means else np.zeros((0, 0))
    except ValueError:
        dims = sorted({m.shape[0] for m in means})
        raise DimensionMismatchError(f"components mix state dimensions {dims}") from None
    dim = stacked.shape[1]
    zero = np.zeros((dim, dim))
    cov_stack = np.concatenate([zero if c is None else c for c in covs] or [zero[:0]])
    dirac = np.array([c is None for c in covs], dtype=bool)
    return np.array(rs, dtype=float), stacked, cov_stack.reshape(len(covs), dim, dim), dirac


def _checked_fields(r, means, covs, dirac) -> tuple:
    """The four arrays of an MB density, checked as ``MBDensity.from_arrays``
    documents, with the Gaussian covariances put in normal form in place."""
    n, dim = r.size, means.shape[-1] if means.ndim == 2 else 0
    shapes = (r.shape, dirac.shape, means.shape, covs.shape[:1])
    if shapes != ((n,), (n,), (n, dim), (n,)) or (n and not dim) or dirac.dtype != bool:
        raise SchemaError(f"r, dirac, means and covs must be shaped (n,), boolean (n,), "
                          f"(n, D >= 1) and (n, D, D), got {shapes[:3]} and {covs.shape}")
    if covs.shape[1:] != (dim, dim):
        raise DimensionMismatchError(f"covariances of shape {covs.shape[1:]} for {dim}-D means")
    if not (np.isfinite(means).all() and np.isfinite(covs).all()):
        raise SchemaError("means or covariances contain non-finite entries")
    if n and not (r.min() >= 0.0 and r.max() <= 1.0):  # NaN fails too
        raise SchemaError("existence probability out of range [0, 1]")
    if not dirac.any():
        return r, means, _psd_normal_form(covs) if n else covs, dirac
    if covs[dirac].any():
        raise SchemaError("a dirac component has a non-zero covariance")
    if not dirac.all():
        covs[~dirac] = _psd_normal_form(covs[~dirac])
    return r, means, covs, dirac


def _view(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as
    given, without its constructor's checks."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _fill(mb, r, means, covs, dirac):
    """Set the four stacked arrays of ``mb``, read-only: r (n,), means
    (n, D), covs (n, D, D), zero for a Dirac, and the Dirac mask (n,)."""
    for name, arr in (("r", r), ("means", means), ("covs", covs), ("dirac", dirac)):
        arr.setflags(write=False)
        object.__setattr__(mb, name, arr)
    return mb


@dataclass(frozen=True, eq=False)
class MBDensity:
    """Ordered list of Bernoulli components as four read-only arrays; the
    empty list is the certainly-empty set density."""

    r: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    dirac: np.ndarray

    def __init__(self, components=()):
        components = tuple(components)
        dens = [c.density for c in components]
        covs = [None if isinstance(d, DiracDensity) else d.cov for d in dens]
        means = [d.location if c is None else d.mean for d, c in zip(dens, covs)]
        _fill(self, *_stack([c.r for c in components], means, covs))

    @classmethod
    def from_arrays(cls, r, means, covs, dirac) -> "MBDensity":
        """The MB density holding copies of its four arrays, all finite: r (n,)
        in [0, 1], means (n, D >= 1), covs (n, D, D), zero for a Dirac, and the
        boolean Dirac mask (n,).  Gaussian covariances are put in normal form in
        one batched pass.  Raises ``SchemaError`` or ``DimensionMismatchError``."""
        try:
            r, means, covs = (np.array(a, dtype=float) for a in (r, means, covs))
        except (TypeError, ValueError):
            raise SchemaError("r, means and covs must be arrays of numbers") from None
        return _fill(object.__new__(cls), *_checked_fields(r, means, covs, np.array(dirac)))

    def __len__(self) -> int:
        return len(self.r)

    def __getitem__(self, k) -> BernoulliComponent:
        # views of the checked, read-only arrays, built without re-checking
        k = range(len(self))[k]
        if self.dirac[k]:
            density = _view(DiracDensity, location=self.means[k])
        else:
            density = _view(GaussianDensity, mean=self.means[k], cov=self.covs[k])
        return _view(BernoulliComponent, r=float(self.r[k]), density=density)

    @property
    def dim(self) -> int | None:
        return self.means.shape[1] if len(self.r) else None

    @property
    def existence(self) -> np.ndarray:
        return self.r

    @property
    def components(self) -> tuple:
        return tuple(self[k] for k in range(len(self)))

    @property
    def densities(self) -> tuple:
        return tuple(c.density for c in self.components)


def _point_masses(points: np.ndarray) -> MBDensity:
    """Unit-existence Dirac components at the rows of an (n, D) array."""
    n, shape = points.shape[:1], points.shape[1:]
    return MBDensity.from_arrays(np.ones(n), points, np.zeros(n + shape * 2), np.ones(n, bool))


@dataclass(frozen=True, eq=False)
class MBMixture:
    """Weighted list of MB densities with weights normalized to sum 1."""

    entries: tuple  # of (weight, MBDensity)

    def __init__(self, entries):
        entries = tuple((float(w), mb) for w, mb in entries)
        if not entries:
            raise SchemaError("mixture must contain at least one entry")
        for w, mb in entries:
            if not np.isfinite(w) or w < 0.0:
                raise SchemaError(f"mixture weight out of range (w={w!r})")
            if not isinstance(mb, MBDensity):
                raise SchemaError("mixture entries must wrap MBDensity values")
        dims = {mb.dim for _, mb in entries if mb.dim is not None}
        if len(dims) > 1:
            raise DimensionMismatchError(
                f"mixture entries mix state dimensions {sorted(dims)}"
            )
        total = sum(w for w, _ in entries)
        if not (np.isfinite(total) and total > 0.0):
            raise SchemaError("mixture weights must have a positive finite sum")
        if abs(total - 1.0) > MIXTURE_WARN_TOL:
            warnings.warn(
                f"mixture weights sum to {total:.9g}; renormalizing", stacklevel=3
            )
        if abs(total - 1.0) > 1e-12:
            entries = tuple((w / total, mb) for w, mb in entries)
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def dim(self) -> int | None:
        for _, mb in self.entries:
            if mb.dim is not None:
                return mb.dim
        return None


@dataclass(frozen=True)
class MetricParams:
    """Cut-off c > 0, exponent p >= 1, cardinality penalty alpha in (0, 2],
    with c**p / alpha finite."""

    c: float = 10.0
    p: float = 2.0
    alpha: float = 2.0

    def __post_init__(self):
        if not (np.isfinite(self.c) and self.c > 0.0):
            raise ValueError(f"cut-off c must be positive and finite, got {self.c!r}")
        if not (np.isfinite(self.p) and self.p >= 1.0):
            raise ValueError(f"exponent p must satisfy 1 <= p < inf, got {self.p!r}")
        if not (np.isfinite(self.alpha) and 0.0 < self.alpha <= 2.0):
            raise ValueError(f"alpha must lie in (0, 2], got {self.alpha!r}")
        try:
            cpa = self.c**self.p / self.alpha
        except OverflowError:
            cpa = np.inf
        if not np.isfinite(cpa):
            raise ValueError(
                f"c**p / alpha overflows (c={self.c!r}, p={self.p!r}, alpha={self.alpha!r})"
            )


def append_zero_components(mb: MBDensity, k: int, dim: int | None = None) -> MBDensity:
    """Return ``mb`` extended with ``k`` components of zero existence
    probability.  Metric values are unchanged by this padding."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return mb
    d = mb.dim if mb.dim is not None else (dim if dim is not None else 1)
    own = (mb.r, mb.means.reshape(-1, d), mb.covs.reshape(-1, d, d), mb.dirac)
    pad = (np.zeros(k), np.zeros((k, d)), np.zeros((k, d, d)), np.ones(k, dtype=bool))
    return MBDensity.from_arrays(*map(np.concatenate, zip(own, pad)))


# ---------------------------------------------------------------------------
# JSON (de)serialization


def _require_mapping(data, what: str) -> dict:
    if not isinstance(data, dict):
        raise SchemaError(f"{what} must be a JSON object, got {type(data).__name__}")
    return data


_NUMBER_TYPES = frozenset({int, float})
_ITEM_KEYS = frozenset({"r", "density"})
_GAUSSIAN_KEYS = frozenset({"type", "mean", "cov"})
_DIRAC_KEYS = frozenset({"type", "location"})


def _number_stack(values: list, depth: int):
    """The ``depth``-deep nested lists ``values`` as one float array, or None
    unless every entry is a plain int or float: no boolean, string, null or
    numpy scalar."""
    if not _NUMBER_TYPES.issuperset(map(type, _leaves(values, depth))):
        return None
    arr = np.array(values)
    if arr.dtype.kind not in "if":  # integers beyond 64 bits: the walk converts them
        return None
    return arr.astype(float, copy=False)


def _stacked_fields(raw: list, allow_zero_existence: bool):
    """The (r, means, covs, dirac) arrays of a clean non-empty components
    list, or None when any doubt remains.  One structural pass proves that
    every item and density has exactly the keys of its kind, and every
    field is checked once on its whole-document stack.  Nothing here
    raises: a fault or an odd input returns None, and the per-field walk
    decides the document and reports its fault."""
    rs, means, covs, dirac = [], [], [], []
    try:
        for item in raw:
            if type(item) is not dict or item.keys() != _ITEM_KEYS:
                return None
            density = item["density"]
            if type(density) is not dict:
                return None
            kind = density.get("type")
            if kind == "gaussian" and density.keys() == _GAUSSIAN_KEYS:
                means.append(density["mean"])
                covs.append(density["cov"])
            elif kind == "dirac" and density.keys() == _DIRAC_KEYS:
                means.append(density["location"])
            else:
                return None
            rs.append(item["r"])
            dirac.append(kind == "dirac")
        r, means = _number_stack(rs, 1), _number_stack(means, 2)
        if r is None or means is None or (r.min() == 0.0 and not allow_zero_existence):
            return None
        n, dim = means.shape
        gauss = _number_stack(covs, 3) if covs else np.zeros((0, dim, dim))
        if gauss is None:
            return None
        dirac = np.array(dirac, dtype=bool)
        cov_stack = np.zeros((n,) + gauss.shape[1:])
        cov_stack[~dirac] = gauss
        return _checked_fields(r, means, cov_stack, dirac)
    except (TypeError, ValueError):  # non-iterables, ragged stacks, SchemaError
        return None


def _walked_fields(raw: list, allow_zero_existence: bool):
    """The (r, means, covs, dirac) arrays of a components list, each field
    checked in document order, then all covariances in one batched pass;
    raises the document's ``SchemaError`` or ``DimensionMismatchError``."""
    rs, means, covs = [], [], []
    for k, item in enumerate(raw):
        item = _require_mapping(item, f"component {k}")
        if "r" not in item or "density" not in item:
            raise SchemaError(f"component {k} requires 'r' and 'density'")
        r = _number(item["r"], f"component {k}: existence probability")
        if not np.isfinite(r) or r > 1.0 or r < 0.0 or (r == 0.0 and not allow_zero_existence):
            raise SchemaError(
                f"component {k}: existence probability out of range (r={r!r})"
            )
        density = _require_mapping(item["density"], "density")
        kind = density.get("type")
        if kind == "gaussian":
            if "mean" not in density or "cov" not in density:
                raise SchemaError("gaussian density requires 'mean' and 'cov'")
            mean, cov = _gaussian_fields(density["mean"], density["cov"])
        elif kind == "dirac":
            if "location" not in density:
                raise SchemaError("dirac density requires 'location'")
            mean, cov = _state_vector(density["location"], "dirac location"), None
        else:
            raise SchemaError(f"unknown density type {kind!r}")
        rs.append(r)
        means.append(mean)
        covs.append(cov)
    return _checked_fields(*_stack(rs, means, covs))


def mb_from_dict(data, allow_zero_existence: bool = False) -> MBDensity:
    """Validate a parsed MB description.  A clean document takes one
    structural pass and one check per stacked field; any fault or odd input
    (extra keys, integers beyond 64 bits, ...) is decided by the per-field
    walk, the only code that raises.  The walk checks each field in
    document order, then all covariances in one batched pass, so a document
    with several faults may report one that is not its first.
    ``allow_zero_existence`` relaxes the default (0, 1] range to [0, 1]."""
    data = _require_mapping(data, "MB density")
    if "components" not in data:
        raise SchemaError("MB density requires a 'components' list")
    raw = data["components"]
    if not isinstance(raw, list):
        raise SchemaError("'components' must be a list")
    fields = _stacked_fields(raw, allow_zero_existence) if raw else None
    if fields is None:
        fields = _walked_fields(raw, allow_zero_existence)
    return _fill(object.__new__(MBDensity), *fields)


def mb_to_dict(mb: MBDensity) -> dict:
    rows = zip(mb.r.tolist(), mb.dirac.tolist(), mb.means.tolist(), mb.covs.tolist())
    return {
        "components": [
            {"r": r, "density": {"type": "dirac", "location": m}}
            if dirac
            else {"r": r, "density": {"type": "gaussian", "mean": m, "cov": c}}
            for r, dirac, m, c in rows
        ]
    }


def mbm_from_dict(data, allow_zero_existence: bool = False) -> MBMixture:
    data = _require_mapping(data, "MB mixture")
    if "mixture" not in data:
        raise SchemaError("MB mixture requires a 'mixture' list")
    raw = data["mixture"]
    if not isinstance(raw, list):
        raise SchemaError("'mixture' must be a list")
    entries = []
    for k, item in enumerate(raw):
        item = _require_mapping(item, f"mixture entry {k}")
        if "weight" not in item or "mb" not in item:
            raise SchemaError(f"mixture entry {k} requires 'weight' and 'mb'")
        entries.append(
            (
                _number(item["weight"], f"mixture entry {k}: weight"),
                mb_from_dict(item["mb"], allow_zero_existence),
            )
        )
    return MBMixture(entries)


def mbm_to_dict(mix: MBMixture) -> dict:
    return {
        "mixture": [{"weight": w, "mb": mb_to_dict(mb)} for w, mb in mix.entries]
    }


def points_from_dict(data) -> np.ndarray:
    data = _require_mapping(data, "point set")
    if "points" not in data:
        raise SchemaError("point set requires a 'points' list")
    raw = data["points"]
    if not isinstance(raw, list):
        raise SchemaError("'points' must be a list of vectors")
    if not raw:
        return np.zeros((0, 0))
    arr = _float_array(raw, "'points'")
    if arr.ndim != 2:
        raise SchemaError("'points' must be a list of equal-length vectors")
    if not np.all(np.isfinite(arr)):
        raise SchemaError("point set contains non-finite entries")
    return arr


def points_to_dict(points: np.ndarray) -> dict:
    return {"points": np.asarray(points, dtype=float).tolist()}


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, compact separators, no NaN."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def serialize_mb(mb: MBDensity) -> str:
    return canonical_json(mb_to_dict(mb))


def load_document(path):
    """The JSON document at ``path``.  Text that is not UTF-8, and arrays or
    objects nested too deep to decode, are schema errors."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise SchemaError(
                f"invalid JSON: not UTF-8 text ({exc.reason} at byte {exc.start})"
            ) from None
        except RecursionError:
            raise SchemaError("invalid JSON: nesting too deep to decode") from None


def load_mb(path, allow_zero_existence: bool = False) -> MBDensity:
    return mb_from_dict(load_document(path), allow_zero_existence)


def load_mbm(path, allow_zero_existence: bool = False) -> MBMixture:
    return mbm_from_dict(load_document(path), allow_zero_existence)


def load_points(path) -> np.ndarray:
    return points_from_dict(load_document(path))
