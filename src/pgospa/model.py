"""Data model for multi-Bernoulli (MB) set densities.

An MB density is an ordered list of Bernoulli components, each pairing an
existence probability ``r`` with a single-object density (Gaussian or a
Dirac point mass).  An MB mixture adds normalized weights over several MB
densities.  All types are immutable after construction and safe to share
across threads; numpy arrays are stored read-only.

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
    "density_from_dict",
    "density_to_dict",
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


def _number(value, what: str) -> float:
    """``value`` as a float; booleans, non-numbers and numbers beyond the
    double range are schema errors."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise SchemaError(f"{what} is not a number")


def _float_array(value, what: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(f"{what} is not an array of numbers")


def _state_vector(value, what: str) -> np.ndarray:
    arr = _float_array(value, what)
    if arr.ndim != 1 or arr.size == 0:
        raise SchemaError(f"{what} must be a non-empty 1-D real vector")
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{what} contains non-finite entries")
    return _readonly(arr)


def _psd_normal_form(cov: np.ndarray) -> np.ndarray:
    """Symmetrize and clamp eigenvalues in [-COV_EIG_TOL, 0) to zero.

    The result is a fixed point of this function, which keeps serialized
    documents byte-stable under repeated load/validate cycles.
    """
    asym = np.abs(cov - cov.T).max() if cov.size else 0.0
    if asym > COV_SYMMETRY_TOL:
        raise SchemaError(
            f"covariance is not symmetric (max asymmetry {asym:.3g} > {COV_SYMMETRY_TOL:g})"
        )
    cov = (cov + cov.T) / 2.0
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
    w = np.linalg.eigvalsh(cov)
    if w[0] < 0.0:
        cov = cov + (-w[0]) * np.eye(cov.shape[0])
        cov = (cov + cov.T) / 2.0
    return cov


@dataclass(frozen=True, eq=False)
class GaussianDensity:
    """Gaussian single-object density with mean vector and PSD covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __init__(self, mean, cov):
        mean = _state_vector(mean, "gaussian mean")
        cov = _float_array(cov, "covariance")
        if cov.ndim != 2 or cov.shape != (mean.size, mean.size):
            raise SchemaError(
                f"covariance must be {mean.size}x{mean.size}, got {cov.shape}"
            )
        if not np.all(np.isfinite(cov)):
            raise SchemaError("covariance contains non-finite entries")
        cov = _psd_normal_form(cov)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", _readonly(cov))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def key(self) -> tuple:
        return ("gaussian", self.mean.tobytes(), self.cov.tobytes())


@dataclass(frozen=True, eq=False)
class DiracDensity:
    """Point-mass single-object density at a fixed location."""

    location: np.ndarray

    def __init__(self, location):
        object.__setattr__(self, "location", _state_vector(location, "dirac location"))

    @property
    def dim(self) -> int:
        return self.location.shape[0]

    def key(self) -> tuple:
        return ("dirac", self.location.tobytes())


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


@dataclass(frozen=True, eq=False)
class MBDensity:
    """Ordered list of Bernoulli components; the empty list is the
    certainly-empty set density."""

    components: tuple

    def __init__(self, components=()):
        components = tuple(components)
        dims = {c.dim for c in components}
        if len(dims) > 1:
            raise DimensionMismatchError(
                f"components mix state dimensions {sorted(dims)}"
            )
        object.__setattr__(self, "components", components)

    def __len__(self) -> int:
        return len(self.components)

    @property
    def dim(self) -> int | None:
        return self.components[0].dim if self.components else None

    @property
    def existence(self) -> np.ndarray:
        return np.array([c.r for c in self.components], dtype=float)

    @property
    def densities(self) -> tuple:
        return tuple(c.density for c in self.components)


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
    pad = BernoulliComponent(0.0, DiracDensity(np.zeros(d)))
    return MBDensity(mb.components + (pad,) * k)


# ---------------------------------------------------------------------------
# JSON (de)serialization


def _require_mapping(data, what: str) -> dict:
    if not isinstance(data, dict):
        raise SchemaError(f"{what} must be a JSON object, got {type(data).__name__}")
    return data


def density_from_dict(data) -> SingleObjectDensity:
    data = _require_mapping(data, "density")
    kind = data.get("type")
    if kind == "gaussian":
        if "mean" not in data or "cov" not in data:
            raise SchemaError("gaussian density requires 'mean' and 'cov'")
        return GaussianDensity(data["mean"], data["cov"])
    if kind == "dirac":
        if "location" not in data:
            raise SchemaError("dirac density requires 'location'")
        return DiracDensity(data["location"])
    raise SchemaError(f"unknown density type {kind!r}")


def density_to_dict(density: SingleObjectDensity) -> dict:
    if isinstance(density, GaussianDensity):
        return {
            "type": "gaussian",
            "mean": density.mean.tolist(),
            "cov": density.cov.tolist(),
        }
    if isinstance(density, DiracDensity):
        return {"type": "dirac", "location": density.location.tolist()}
    raise TypeError(f"not a single-object density: {density!r}")


def mb_from_dict(data, allow_zero_existence: bool = False) -> MBDensity:
    """Validate a parsed MB description.

    Covariances are symmetrized and near-zero negative eigenvalues clamped.
    ``allow_zero_existence`` relaxes the default (0, 1] range to [0, 1].
    """
    data = _require_mapping(data, "MB density")
    if "components" not in data:
        raise SchemaError("MB density requires a 'components' list")
    raw = data["components"]
    if not isinstance(raw, list):
        raise SchemaError("'components' must be a list")
    comps = []
    for k, item in enumerate(raw):
        item = _require_mapping(item, f"component {k}")
        if "r" not in item or "density" not in item:
            raise SchemaError(f"component {k} requires 'r' and 'density'")
        r = _number(item["r"], f"component {k}: existence probability")
        if not np.isfinite(r) or r > 1.0 or r < 0.0 or (r == 0.0 and not allow_zero_existence):
            raise SchemaError(
                f"component {k}: existence probability out of range (r={r!r})"
            )
        comps.append(BernoulliComponent(r, density_from_dict(item["density"])))
    return MBDensity(comps)


def mb_to_dict(mb: MBDensity) -> dict:
    return {
        "components": [
            {"r": c.r, "density": density_to_dict(c.density)} for c in mb.components
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
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError("'points' must be a list of equal-length vectors")
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
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_mb(path, allow_zero_existence: bool = False) -> MBDensity:
    return mb_from_dict(load_document(path), allow_zero_existence)


def load_mbm(path, allow_zero_existence: bool = False) -> MBMixture:
    return mbm_from_dict(load_document(path), allow_zero_existence)


def load_points(path) -> np.ndarray:
    return points_from_dict(load_document(path))
