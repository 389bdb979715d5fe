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

``pairwise_base_distance`` reads the arrays of two ``MBDensity`` values
(or of two sequences of densities); the scalar entry points are its 1 x 1
entry with the operands in a canonical order, so ``d(a, b)`` and
``d(b, a)`` are bit-identical.  Exactly equal operands give exactly 0.0.
Matrix square roots use symmetric eigendecomposition with eigenvalues
clamped at zero (tolerance 1e-9), which is robust at the small state
dimensions typical of tracking problems.

The metric only uses ``min(d, c)``, so ``pairwise_base_distance`` takes an
optional cut-off ``c`` and then returns the clipped matrix.  W2 and
Euclidean, which is W2 between zero covariances, share one kernel,
``w2_stack``, and one selection rule: without ``c`` every pair is
computed, and with ``c`` only the pairs that pass the gate.  W2^2 is
||mx - my||^2 plus the Bures term, which is non-negative, so a pair whose
mean gap alone reaches c (with a slack for rounding, see
``W2_GATE_SLACK``) saturates and is not computed.  The remaining pairs are
computed exactly as without ``c``, so the clipped matrix is bit-identical
to ``np.minimum(D, c)`` of the full one.  A zero covariance has a zero
square root and a zero Bures term, so a pair with a Dirac side takes no
eigen-solve.  Where ||mx - my||^2 overflows but the coordinate differences
do not, the distance is taken in scaled form; an overflowing coordinate
difference gives an infinite, hence saturated, distance.  Neither prints a
warning.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .model import BernoulliComponent, DimensionMismatchError, MBDensity

__all__ = [
    "BaseDistanceKind",
    "base_distance",
    "cutoff",
    "euclidean_dirac",
    "gaussian_hellinger",
    "gaussian_w2",
    "pairwise_base_distance",
    "w2_stack",
]

PSD_SQRT_TOL = 1e-9
HELLINGER_MIN_EIG = 1e-12
# Relative slack of the W2 cut-off gate: a pair is computed only if
# ||mx - my||^2 < c^2 (1 + slack) + slack (tr Px + tr Py).  The Bures term
# is >= 0 in exact arithmetic; the slack covers its rounding and that of
# c^2, so every pruned pair's computed distance is >= c.  The Bures term's
# rounding scales with the traces: square roots of eigenvalues near zero
# lift it to about sqrt(eps) (tr Px + tr Py), and it stays below 3e-8 of
# the traces on random ill-conditioned and singular pairs up to 8-D.
W2_GATE_SLACK = 1e-6


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


def _root(dm2, diff, tt=None) -> np.ndarray:
    """``sqrt(max(dm2 + tt, 0))``, ``dm2 = ||diff||^2`` over the last axis.
    Where ``dm2`` overflowed but ``diff`` is finite it is taken in scaled
    form, ``s sqrt(||diff / s||^2 + tt / s^2)`` with ``s = max |diff|``."""
    out = np.sqrt(dm2 if tt is None else np.maximum(dm2 + tt, 0.0))
    big = np.isinf(dm2)
    if big.any():
        big = big & np.isfinite(diff).all(-1)
        out = np.array(out)
        s = np.abs(diff[big]).max(-1)
        scaled = ((diff[big] / s[:, None]) ** 2).sum(-1)
        if tt is not None:
            scaled = np.maximum(scaled + np.broadcast_to(tt, dm2.shape)[big] / s / s, 0.0)
        with np.errstate(over="ignore"):
            out[big] = s * np.sqrt(scaled)
    return out


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


def _bures_cross(Px, sy) -> np.ndarray:
    """tr (sy Px sy)^{1/2} for broadcast stacks, with ``sy`` = Py^{1/2}."""
    lam = np.linalg.eigvalsh(sy @ Px @ sy)
    scale = max(1.0, float(np.abs(lam).max())) if lam.size else 1.0
    if lam.size and float(lam.min()) < -PSD_SQRT_TOL * scale:
        raise ValueError(
            f"matrix square root failed: eigenvalue {lam.min():.3g} below tolerance"
        )
    return np.sqrt(np.clip(lam, 0.0, None)).sum(-1)


def w2_stack(mx, Px, my, Py) -> np.ndarray:
    """Elementwise 2-Wasserstein distances for broadcast Gaussian stacks.

    ``mx``/``my`` broadcast over (..., D) and ``Px``/``Py`` over (..., D, D).
    """
    mx, Px, my, Py = (np.asarray(a, dtype=float) for a in (mx, Px, my, Py))
    with np.errstate(over="ignore"):
        diff = mx - my
        dm2 = (diff**2).sum(-1)
    if mx.shape[-1] == 1:
        # 1-D shortcut: the cross term collapses to (sqrt(Px) - sqrt(Py))^2
        sx = np.sqrt(np.clip(Px[..., 0, 0], 0.0, None))
        sy = np.sqrt(np.clip(Py[..., 0, 0], 0.0, None))
        tt = (sx - sy) ** 2
    else:
        # a zero covariance has a zero root and a zero Bures term: solve
        # only the non-zero Py, and the pairs of two non-zero covariances
        with np.errstate(over="ignore"):
            tt = np.trace(Px, axis1=-2, axis2=-1) + np.trace(Py, axis1=-2, axis2=-1)
        live_y = Py.any((-2, -1))
        if live_y.any():
            sy = np.zeros_like(Py)
            sy[live_y] = _psd_sqrt(Py[live_y])
            both = Px.any((-2, -1)) & live_y
            if both.all():  # no zero covariance, so no gathered copies
                tt = tt - 2.0 * _bures_cross(Px, sy)
            elif both.any():
                stack = both.shape + Px.shape[-2:]
                tt = np.array(tt)
                tt[both] -= 2.0 * _bures_cross(
                    np.broadcast_to(Px, stack)[both], np.broadcast_to(sy, stack)[both]
                )
    with np.errstate(over="ignore"):
        return _root(dm2, diff, tt)


def _hellinger_stack(mx, Px, my, Py) -> np.ndarray:
    mx, Px, my, Py = (np.asarray(a, dtype=float) for a in (mx, Px, my, Py))
    M = (Px + Py) / 2.0
    _, ldx = np.linalg.slogdet(Px)
    _, ldy = np.linalg.slogdet(Py)
    _, ldm = np.linalg.slogdet(M)
    with np.errstate(over="ignore"):
        dm = mx - my
    shape = np.broadcast_shapes(M.shape[:-2], dm.shape[:-1])
    Mb = np.broadcast_to(M, shape + M.shape[-2:])
    dmb = np.broadcast_to(dm, shape + dm.shape[-1:])
    sol = np.linalg.solve(Mb, dmb[..., None])[..., 0]
    quad = np.einsum("...i,...i->...", dmb, sol)
    bc = np.exp(0.25 * ldx + 0.25 * ldy - 0.5 * ldm - quad / 8.0)
    return np.sqrt(np.clip(1.0 - bc, 0.0, None))


def _as_mb(densities) -> MBDensity:
    """An ``MBDensity``, or a sequence of densities as one (unit existences)."""
    if isinstance(densities, MBDensity):
        return densities
    return MBDensity(BernoulliComponent(1.0, d) for d in densities)


def _w2_matrix(mx, Px, my, Py, c=None) -> np.ndarray:
    """W2 matrix between (m, D) and (n, D) stacks.  With a cut-off ``c``,
    pairs whose mean gap proves d >= c are set to ``c``; every other entry
    is computed by the same operations as in the full matrix."""
    if c is None:
        return w2_stack(
            mx[:, None, :], Px[:, None, :, :], my[None, :, :], Py[None, :, :, :]
        )
    with np.errstate(over="ignore"):
        dm2 = ((mx[:, None, :] - my[None, :, :]) ** 2).sum(-1)
        tr = np.trace(Px, axis1=1, axis2=2)[:, None] + np.trace(Py, axis1=1, axis2=2)
        bound = c * c * (1.0 + W2_GATE_SLACK) + W2_GATE_SLACK * tr
        # where the bound overflows, an overflowed ||dm||^2 may lie below it
        i, j = np.nonzero((dm2 < bound) | (np.isinf(dm2) & np.isinf(bound)))
    out = np.full(dm2.shape, float(c))
    out[i, j] = w2_stack(mx[i], Px[i], my[j], Py[j])
    return out


def pairwise_base_distance(
    xs, ys, kind: BaseDistanceKind = BaseDistanceKind.W2, *, c=None
) -> np.ndarray:
    """Distance matrix between two ``MBDensity`` values, or between two
    sequences of single-object densities.

    Returns an (len(xs), len(ys)) array.  Pairs whose operands are exactly
    equal evaluate to exactly 0.0.  With a cut-off ``c`` the result is
    ``np.minimum(D, c)`` of the full matrix ``D``, bit for bit; W2 and
    Euclidean pairs whose mean gap alone proves saturation are then not
    computed.
    """
    kind = BaseDistanceKind(kind)
    x, y = _as_mb(xs), _as_mb(ys)
    if not len(x) or not len(y):
        return np.zeros((len(x), len(y)))
    if x.dim != y.dim:
        raise DimensionMismatchError(f"densities mix state dimensions {sorted({x.dim, y.dim})}")
    (mx, Px, dx), (my, Py, dy) = (x.means, x.covs, x.dirac), (y.means, y.covs, y.dirac)

    if kind is BaseDistanceKind.EUCLIDEAN and not (dx.all() and dy.all()):
        raise ValueError("euclidean base distance requires Dirac densities")
    if kind is BaseDistanceKind.HELLINGER:
        if dx.any() or dy.any():
            raise ValueError("Hellinger distance requires Gaussian densities")
        if np.linalg.eigvalsh(np.concatenate([Px, Py]))[:, 0].min() <= HELLINGER_MIN_EIG:
            raise ValueError(
                "Hellinger distance requires strictly positive-definite covariances"
            )
        out = _hellinger_stack(
            mx[:, None, :], Px[:, None, :, :], my[None, :, :], Py[None, :, :, :]
        )
    else:  # W2, and Euclidean: W2 between zero covariances
        out = _w2_matrix(mx, Px, my, Py, c)

    if not (dx.all() and dy.all()):  # bit-for-bit equal operands give exactly 0
        i, j = np.nonzero((mx.view(np.int64)[:, None] == my.view(np.int64)[None]).all(-1))
        if len(i):
            same = (dx[i] == dy[j]) & (Px[i].view(np.int64) == Py[j].view(np.int64)).all((1, 2))
            out[i[same], j[same]] = 0.0
    return out if c is None else np.minimum(out, c)


def base_distance(px, py, kind: BaseDistanceKind = BaseDistanceKind.W2) -> float:
    """Distance between two single-object densities: the 1 x 1 entry of
    ``pairwise_base_distance`` with the operands in canonical order."""
    x, y = _as_mb([px]), _as_mb([py])

    def key(mb):  # a Dirac sorts first
        return not mb.dirac[0], mb.means.tobytes(), mb.covs.tobytes()

    if key(y) < key(x):
        x, y = y, x
    return float(pairwise_base_distance(x, y, kind)[0, 0])


def gaussian_w2(px, py) -> float:
    """2-Wasserstein distance; Dirac inputs are zero-covariance Gaussians."""
    return base_distance(px, py, BaseDistanceKind.W2)


def gaussian_hellinger(px, py) -> float:
    """Hellinger distance between strictly positive-definite Gaussians."""
    return base_distance(px, py, BaseDistanceKind.HELLINGER)


def euclidean_dirac(px, py) -> float:
    """Euclidean distance between two Dirac point masses."""
    return base_distance(px, py, BaseDistanceKind.EUCLIDEAN)


def cutoff(d, c):
    """Saturate a distance at the cut-off level: min(d, c)."""
    return np.minimum(d, c)
