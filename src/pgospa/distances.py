"""Base distances between single-object densities.

Three metrics are provided, selected by :class:`BaseDistanceKind`:

* ``w2`` (default): 2-Wasserstein distance between Gaussians,
  ``[||mx - my||^2 + tr(Px + Py - 2 (Py^{1/2} Px Py^{1/2})^{1/2})]^{1/2}``.
  A Dirac density is treated as a Gaussian with zero covariance, so a
  Gaussian-vs-Dirac pair yields ``[||mx - my||^2 + tr(Px)]^{1/2}`` and a
  Dirac-vs-Dirac pair reduces exactly to the Euclidean distance.
* ``hellinger``: Hellinger distance between Gaussians with strictly
  positive-definite covariances; bounded in [0, 1].
* ``euclidean``: Euclidean distance, valid only between Dirac densities.

Matrix square roots use symmetric eigendecomposition with eigenvalues
clamped at zero (tolerance 1e-9), which is robust at the small state
dimensions typical of tracking problems.  Scalar entry points order their
arguments canonically before computing, so ``d(a, b)`` and ``d(b, a)``
return bit-identical values, and exact equality of the operands returns
exactly 0.0.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .model import (
    DimensionMismatchError,
    DiracDensity,
    GaussianDensity,
)

__all__ = [
    "BaseDistanceKind",
    "base_distance",
    "cutoff",
    "euclidean_dirac",
    "euclidean_matrix",
    "gaussian_hellinger",
    "gaussian_w2",
    "pairwise_base_distance",
    "w2_stack",
]

PSD_SQRT_TOL = 1e-9
HELLINGER_MIN_EIG = 1e-12


class BaseDistanceKind(str, Enum):
    W2 = "w2"
    HELLINGER = "hellinger"
    EUCLIDEAN = "euclidean"

    @classmethod
    def from_string(cls, name: str) -> "BaseDistanceKind":
        try:
            return cls(name)
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown base distance {name!r} (expected one of {valid})")


def _check_dims(px, py) -> None:
    if px.dim != py.dim:
        raise DimensionMismatchError(
            f"densities have dimensions {px.dim} and {py.dim}"
        )


def _mean_of(d) -> np.ndarray:
    return d.mean if isinstance(d, GaussianDensity) else d.location


def _cov_of(d) -> np.ndarray:
    if isinstance(d, GaussianDensity):
        return d.cov
    return np.zeros((d.dim, d.dim))


def _check_hellinger_operands(densities) -> None:
    for d in densities:
        if not isinstance(d, GaussianDensity):
            raise ValueError("Hellinger distance requires Gaussian densities")
        if float(np.linalg.eigvalsh(d.cov).min()) <= HELLINGER_MIN_EIG:
            raise ValueError(
                "Hellinger distance requires strictly positive-definite covariances"
            )


def euclidean_matrix(ax, ay) -> np.ndarray:
    """Euclidean distances between the rows of (m, D) and (n, D) arrays."""
    return np.sqrt(((ax[:, None, :] - ay[None, :, :]) ** 2).sum(-1))


def _psd_sqrt(mats: np.ndarray) -> np.ndarray:
    """Square roots of stacked symmetric PSD matrices (..., D, D)."""
    w, v = np.linalg.eigh(mats)
    scale = max(1.0, float(np.abs(w).max())) if w.size else 1.0
    if w.size and float(w.min()) < -PSD_SQRT_TOL * scale:
        raise ValueError(
            f"matrix square root failed: eigenvalue {w.min():.3g} below tolerance"
        )
    s = np.sqrt(np.clip(w, 0.0, None))
    return (v * s[..., None, :]) @ np.swapaxes(v, -1, -2)


def w2_stack(mx, Px, my, Py) -> np.ndarray:
    """Elementwise 2-Wasserstein distances for broadcast Gaussian stacks.

    ``mx``/``my`` broadcast over (..., D) and ``Px``/``Py`` over (..., D, D).
    """
    mx = np.asarray(mx, dtype=float)
    my = np.asarray(my, dtype=float)
    Px = np.asarray(Px, dtype=float)
    Py = np.asarray(Py, dtype=float)
    dm2 = ((mx - my) ** 2).sum(-1)
    dim = mx.shape[-1]
    if dim == 1:
        # 1-D shortcut: the cross term collapses to (sqrt(Px) - sqrt(Py))^2
        sx = np.sqrt(np.clip(Px[..., 0, 0], 0.0, None))
        sy = np.sqrt(np.clip(Py[..., 0, 0], 0.0, None))
        tt = (sx - sy) ** 2
    else:
        sy = _psd_sqrt(Py)
        inner = sy @ Px @ sy
        lam = np.linalg.eigvalsh(inner)
        scale = max(1.0, float(np.abs(lam).max())) if lam.size else 1.0
        if lam.size and float(lam.min()) < -PSD_SQRT_TOL * scale:
            raise ValueError(
                f"matrix square root failed: eigenvalue {lam.min():.3g} below tolerance"
            )
        cross = np.sqrt(np.clip(lam, 0.0, None)).sum(-1)
        tt = (
            np.trace(Px, axis1=-2, axis2=-1)
            + np.trace(Py, axis1=-2, axis2=-1)
            - 2.0 * cross
        )
    return np.sqrt(np.maximum(dm2 + tt, 0.0))


def _hellinger_stack(mx, Px, my, Py) -> np.ndarray:
    mx = np.asarray(mx, dtype=float)
    my = np.asarray(my, dtype=float)
    Px = np.asarray(Px, dtype=float)
    Py = np.asarray(Py, dtype=float)
    M = (Px + Py) / 2.0
    _, ldx = np.linalg.slogdet(Px)
    _, ldy = np.linalg.slogdet(Py)
    _, ldm = np.linalg.slogdet(M)
    dm = mx - my
    shape = np.broadcast_shapes(M.shape[:-2], dm.shape[:-1])
    Mb = np.broadcast_to(M, shape + M.shape[-2:])
    dmb = np.broadcast_to(dm, shape + dm.shape[-1:])
    sol = np.linalg.solve(Mb, dmb[..., None])[..., 0]
    quad = np.einsum("...i,...i->...", dmb, sol)
    bc = np.exp(0.25 * ldx + 0.25 * ldy - 0.5 * ldm - quad / 8.0)
    return np.sqrt(np.clip(1.0 - bc, 0.0, None))


def gaussian_w2(px, py) -> float:
    """2-Wasserstein distance; Dirac inputs are zero-covariance Gaussians."""
    _check_dims(px, py)
    if px.key() == py.key():
        return 0.0
    if py.key() < px.key():
        px, py = py, px
    if isinstance(px, DiracDensity) and isinstance(py, DiracDensity):
        return euclidean_dirac(px, py)
    return float(w2_stack(_mean_of(px), _cov_of(px), _mean_of(py), _cov_of(py)))


def gaussian_hellinger(px, py) -> float:
    """Hellinger distance between strictly positive-definite Gaussians."""
    _check_dims(px, py)
    _check_hellinger_operands((px, py))
    if px.key() == py.key():
        return 0.0
    if py.key() < px.key():
        px, py = py, px
    return float(_hellinger_stack(px.mean, px.cov, py.mean, py.cov))


def euclidean_dirac(px, py) -> float:
    """Euclidean distance between two Dirac point masses."""
    if not isinstance(px, DiracDensity) or not isinstance(py, DiracDensity):
        raise ValueError("euclidean base distance requires Dirac densities")
    _check_dims(px, py)
    diff = px.location - py.location
    return float(np.sqrt((diff * diff).sum()))


def cutoff(d, c):
    """Saturate a distance at the cut-off level: min(d, c)."""
    return np.minimum(d, c)


def base_distance(px, py, kind: BaseDistanceKind = BaseDistanceKind.W2) -> float:
    kind = BaseDistanceKind(kind)
    if kind is BaseDistanceKind.W2:
        return gaussian_w2(px, py)
    if kind is BaseDistanceKind.HELLINGER:
        return gaussian_hellinger(px, py)
    return euclidean_dirac(px, py)


def pairwise_base_distance(
    xs, ys, kind: BaseDistanceKind = BaseDistanceKind.W2
) -> np.ndarray:
    """Distance matrix between two sequences of single-object densities.

    Returns an (len(xs), len(ys)) array.  Pairs whose operands are exactly
    equal evaluate to exactly 0.0.
    """
    kind = BaseDistanceKind(kind)
    xs = list(xs)
    ys = list(ys)
    if not xs or not ys:
        return np.zeros((len(xs), len(ys)))
    dims = {d.dim for d in xs} | {d.dim for d in ys}
    if len(dims) > 1:
        raise DimensionMismatchError(f"densities mix state dimensions {sorted(dims)}")

    if kind is BaseDistanceKind.EUCLIDEAN:
        if not all(isinstance(d, DiracDensity) for d in xs + ys):
            raise ValueError("euclidean base distance requires Dirac densities")
        return euclidean_matrix(
            np.stack([d.location for d in xs]), np.stack([d.location for d in ys])
        )

    if kind is BaseDistanceKind.HELLINGER:
        _check_hellinger_operands(xs + ys)
        mx = np.stack([d.mean for d in xs])
        my = np.stack([d.mean for d in ys])
        Px = np.stack([d.cov for d in xs])
        Py = np.stack([d.cov for d in ys])
        out = _hellinger_stack(
            mx[:, None, :], Px[:, None, :, :], my[None, :, :], Py[None, :, :, :]
        )
    else:
        mx = np.stack([_mean_of(d) for d in xs])
        my = np.stack([_mean_of(d) for d in ys])
        Px = np.stack([_cov_of(d) for d in xs])
        Py = np.stack([_cov_of(d) for d in ys])
        out = w2_stack(
            mx[:, None, :], Px[:, None, :, :], my[None, :, :], Py[None, :, :, :]
        )

    if any(isinstance(d, GaussianDensity) for d in xs + ys):
        rows_of = {}
        for i, d in enumerate(xs):
            rows_of.setdefault(d.key(), []).append(i)
        for j, d in enumerate(ys):
            for i in rows_of.get(d.key(), ()):
                out[i, j] = 0.0
    return out
