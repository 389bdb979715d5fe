"""Data model for multi-Bernoulli (MB) set densities.

An MB density is an ordered list of Bernoulli components, each pairing an
existence probability ``r`` with a single-object density (Gaussian or a
Dirac point mass).  ``MBDensity`` holds it as four arrays, its only state:
``r`` (n,), ``means`` (n, D), ``covs`` (n, D, D), zero for a Dirac, and the
Dirac mask ``dirac`` (n,); ``components``, ``densities`` and ``mb[k]`` are
views built from them.  ``MBDensity.from_arrays`` builds one from copies of
those arrays, checked in one pass that also puts the covariances in normal
form in one batched call.  Clean documents (one, the two of an ``eval``,
the entries of a mixture, or a whole Monte Carlo run) take one
structural pass over their components, which flattens each document's
nested fields as it is reached; each field of all of them is then read
into one array, and those same checks run once on the stack.  A
per-field walk decides faulty and odd documents: it builds each
component in document order with the public constructors and is the
only code that reports a fault.  An MB mixture adds normalized
weights over several MB densities.
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
import sys
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
    "doc_kind",
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
    with np.errstate(over="ignore"):
        sym = (covs + covs.swapaxes(-1, -2)) / 2.0
    big = np.isinf(sym)
    if big.any():  # the sum overflowed: halve first, exact at this magnitude
        sym[big] = (covs / 2.0 + covs.swapaxes(-1, -2) / 2.0)[big]
    covs = sym
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
        # the densities' means and covariances are C-contiguous float arrays
        # (``_readonly``, or rows of a checked stack), joined as raw bytes
        components = tuple(components)
        dens = [c.density for c in components]
        dirac = [isinstance(d, DiracDensity) for d in dens]
        means = [d.location if k else d.mean for d, k in zip(dens, dirac)]
        dims = set(map(len, means))
        if len(dims) > 1:
            raise DimensionMismatchError(f"components mix state dimensions {sorted(dims)}")
        n, dim = len(means), dims.pop() if dims else 0
        zero = bytes(8 * dim * dim)
        covs = b"".join([zero if k else d.cov for d, k in zip(dens, dirac)])
        _fill(self, np.array([c.r for c in components], dtype=float),
              np.frombuffer(b"".join(means)).reshape(n, dim).copy(),
              np.frombuffer(covs).reshape(n, dim, dim).copy(), np.array(dirac, dtype=bool))

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
            # name the first caller outside this module, at stack level
            # ``level``: 2 is this constructor's own caller
            level, frame = 2, sys._getframe(1)
            while frame.f_globals is globals():
                level, frame = level + 1, frame.f_back
            warnings.warn(
                f"mixture weights sum to {total:.9g}; renormalizing", stacklevel=level
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
    with c**p / alpha finite and not below the smallest normal float."""

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
        values = f"(c={self.c!r}, p={self.p!r}, alpha={self.alpha!r})"
        if not np.isfinite(cpa):
            raise ValueError(f"c**p / alpha overflows {values}")
        # below the normal range c**p / alpha loses its precision or rounds
        # to 0.0, and distinct MB densities may then score 0.0
        if cpa < sys.float_info.min:
            raise ValueError(f"c**p / alpha underflows {values}")


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
_LIST_TYPE, _FLOAT_TYPE = {list}, {float}
_ITEM_KEYS = frozenset({"r", "density"})
_GAUSSIAN_KEYS = frozenset({"type", "mean", "cov"})
_DIRAC_KEYS = frozenset({"type", "location"})


def _flat_entries(values: list, depth: int):
    """The entries of the ``depth``-deep nested sequences ``values`` as one
    flat list, and their shape, or None unless each of the depth - 1 outer
    levels holds sequences of one length.  Levels of lists, all json makes,
    are flattened by length; a level without entries ends the shape, as it
    ends numpy's.  Any other container is read by ``_nested_entries``."""
    flat, shape = values, [len(values)]
    for _ in range(depth - 1):
        if not flat:
            break
        if set(map(type, flat)) != _LIST_TYPE:
            return _nested_entries(values, depth)
        lengths = set(map(len, flat))
        if len(lengths) > 1:
            return None
        shape += lengths
        flat = list(itertools.chain.from_iterable(flat))
    return flat, shape


def _nested_entries(values, depth: int):
    """The entries and shape of numpy's reading of the ``depth``-deep nested
    containers ``values``, or None unless every entry is a plain int or
    float and numpy reads them as a regular array of numbers."""
    try:
        if not _NUMBER_TYPES.issuperset(map(type, _leaves(values, depth))):
            return None
        arr = np.array(values)
    except (TypeError, ValueError, OverflowError):  # non-iterables, ragged stacks
        return None
    if arr.dtype.kind not in "if":
        return None
    return arr.ravel().tolist(), list(arr.shape)


def _number_array(flat: list, shape) -> np.ndarray | None:
    """The entries ``flat`` as a float array of ``shape``, or None unless
    every entry is a plain int or float: no boolean, string, null or numpy
    scalar.  They take one type check and one ``np.array`` call, with no
    dtype to discover when all are floats, and the array is reshaped, so
    numpy need not discover a nested shape."""
    types = set(map(type, flat))
    if not _NUMBER_TYPES.issuperset(types):
        return None
    arr = np.array(flat, float if types == _FLOAT_TYPE else None).reshape(shape)
    if arr.dtype.kind not in "if":  # integers beyond 64 bits: the walk converts them
        return None
    return arr.astype(float, copy=False)


def _joined(parts: list):
    """One float array of the rows of the ``_flat_entries`` results
    ``parts``, in order, or None unless every part is regular, all have rows
    of one shape, and every entry is a plain int or float."""
    if None in parts:
        return None
    flats, shapes = zip(*parts)
    rows = {tuple(shape[1:]) for shape in shapes}
    if len(rows) > 1:
        return None
    flat = flats[0] if len(flats) == 1 else list(itertools.chain.from_iterable(flats))
    return _number_array(flat, (sum(shape[0] for shape in shapes), *rows.pop()))


def _unchecked_fields(rs, mean_parts, cov_parts, dirac, allow_zero_existence: bool):
    """The unchecked (r, means, covs, dirac) arrays of the components whose
    existence probabilities are ``rs`` and Dirac flags ``dirac``, with their
    means and Gaussian covariances flattened into ``mean_parts`` and
    ``cov_parts`` (``_flat_entries``), one array call per field, or None
    unless every stack is regular and every leaf a plain number."""
    if not rs:
        return np.zeros(0), np.zeros((0, 0)), np.zeros((0, 0, 0)), np.zeros(0, bool)
    r, means = _number_array(rs, len(rs)), _joined(mean_parts)
    if r is None or means is None or (r.min() == 0.0 and not allow_zero_existence):
        return None
    n, dim = means.shape
    gauss = _joined(cov_parts) if cov_parts else np.zeros((0, dim, dim))
    if gauss is None or gauss.shape[1:] != (dim, dim):
        return None
    dirac = np.array(dirac, dtype=bool)
    cov_stack = np.zeros((n, dim, dim))
    cov_stack[~dirac] = gauss
    return r, means, cov_stack, dirac


def _stacked_mbs(raws, allow_zero_existence: bool):
    """The MB densities of the components lists ``raws``, or None when any
    doubt remains.  One structural pass over the lists proves that every
    item and density has exactly the keys of its kind; each list's means
    and covariances are flattened as it is reached (``_flat_entries``), so
    that no list of it outlives it.  Each field of all the lists is then
    made one array by one call, all of them are checked in one
    ``_checked_fields`` pass, and the stack is sliced back into one density
    per list.  A fault or an odd input in any list, anything that is not a
    list, or lists of several state dimensions give None; nothing here
    raises, but an error raised while iterating ``raws`` propagates."""
    rs, dirac, sizes, mean_parts, cov_parts = [], [], [], [], []
    for raw in raws:
        if type(raw) is not list:
            return None
        means, covs = [], []
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
        if means:
            mean_parts.append(_flat_entries(means, 2))
        if covs:
            cov_parts.append(_flat_entries(covs, 3))
        sizes.append(len(raw))
    try:
        fields = _unchecked_fields(rs, mean_parts, cov_parts, dirac, allow_zero_existence)
        if fields is None:
            return None
        r, means, covs, dirac = _checked_fields(*fields)
    except ValueError:  # SchemaError, DimensionMismatchError
        return None
    mbs, start = [], 0
    for n in sizes:
        end = start + n
        mbs.append(_fill(object.__new__(MBDensity), r[start:end], means[start:end],
                         covs[start:end], dirac[start:end]))
        start = end
    return mbs


def _walked_mb(raw: list, allow_zero_existence: bool) -> MBDensity:
    """The MB density of a components list, each component checked in
    document order and built by the component constructors, then the
    components' state dimensions against each other; raises the first
    fault as ``SchemaError`` or ``DimensionMismatchError``."""
    components = []
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
            density = GaussianDensity(density["mean"], density["cov"])
        elif kind == "dirac":
            if "location" not in density:
                raise SchemaError("dirac density requires 'location'")
            density = DiracDensity(density["location"])
        else:
            raise SchemaError(f"unknown density type {kind!r}")
        components.append(BernoulliComponent(r, density))
    return MBDensity(components)


def mb_from_dict(data, allow_zero_existence: bool = False) -> MBDensity:
    """Validate a parsed MB description.  A clean document takes one
    structural pass and one check per stacked field; any fault or odd input
    (extra keys, integers beyond 64 bits, ...) is decided by the per-field
    walk, the only code that raises.  The walk checks each component in
    document order and reports the first faulty one; state dimensions that
    differ between components are reported after every component passed.
    ``allow_zero_existence`` relaxes the default (0, 1] range to [0, 1]."""
    data = _require_mapping(data, "MB density")
    if "components" not in data:
        raise SchemaError("MB density requires a 'components' list")
    raw = data["components"]
    if not isinstance(raw, list):
        raise SchemaError("'components' must be a list")
    mbs = _stacked_mbs((raw,), allow_zero_existence)
    return _walked_mb(raw, allow_zero_existence) if mbs is None else mbs[0]


def doc_kind(data) -> str | None:
    """The kind of a parsed document: "mb", "mbm" or "points", by the first
    of the keys "components", "mixture" and "points" that it holds; None
    for any other document."""
    if isinstance(data, dict):
        for key, kind in (("components", "mb"), ("mixture", "mbm"), ("points", "points")):
            if key in data:
                return kind
    return None


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


def _stacked_entries(raw: list, allow_zero_existence: bool):
    """The (weight, MB density) entries of the mixture list ``raw``, every
    MB density from one ``_stacked_mbs`` call, or None when any doubt
    remains: an entry that is not an object with a number weight and an
    object holding 'components', a weight beyond the double range, or a
    declined stack.  Nothing here raises."""
    weights, lists = [], []
    for item in raw:
        if type(item) is not dict:
            return None
        weight, mb = item.get("weight"), item.get("mb")
        if type(weight) not in _NUMBER_TYPES or type(mb) is not dict or "components" not in mb:
            return None
        try:
            weights.append(float(weight))
        except OverflowError:
            return None
        lists.append(mb["components"])
    mbs = _stacked_mbs(lists, allow_zero_existence)
    return None if mbs is None else list(zip(weights, mbs))


def mbm_from_dict(data, allow_zero_existence: bool = False) -> MBMixture:
    """Validate a parsed MB mixture.  A clean document reads every entry's
    MB density in one ``_stacked_mbs`` call; any fault or odd input is
    decided by reading the entries one by one in document order, each
    weight before its MB density, which reports the first faulty entry.
    The weights are checked, and renormalized, by ``MBMixture``."""
    data = _require_mapping(data, "MB mixture")
    if "mixture" not in data:
        raise SchemaError("MB mixture requires a 'mixture' list")
    raw = data["mixture"]
    if not isinstance(raw, list):
        raise SchemaError("'mixture' must be a list")
    entries = _stacked_entries(raw, allow_zero_existence)
    if entries is None:
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
    return _point_array(raw)


def _point_array(value) -> np.ndarray:
    """The point set ``value`` as an (n, D) float array, as ``eval`` reads
    it: no rows is the (0, 0) empty set; anything but a 2-D array of finite
    numbers with at least one coordinate is a schema error."""
    arr = _float_array(value, "'points'")
    if arr.ndim and not len(arr):
        return np.zeros((0, 0))
    if arr.ndim != 2:
        raise SchemaError("'points' must be a list of equal-length vectors")
    if not arr.shape[1]:
        raise SchemaError("'points' vectors must have at least one coordinate")
    if not np.all(np.isfinite(arr)):
        raise SchemaError("point set contains non-finite entries")
    return arr


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
