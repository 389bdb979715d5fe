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

``pairwise_blocks`` computes the distance matrices of several pairs of
``MBDensity`` values at once, as one padded stack, their operands held as
padded stacks too; ``pairwise_base_distance``, on two ``MBDensity``
values (or two sequences of densities), is its one-block case.  The
scalar entry points are the
1 x 1 entry of the latter with the operands in a canonical order, so
``d(a, b)`` and ``d(b, a)`` are bit-identical.  Exactly equal operands
give exactly 0.0: the pairs whose first mean coordinates have equal bits
are the candidates, and only they are compared bit for bit on the full
mean, the kind and the covariance.
Matrix square roots use symmetric eigendecomposition with eigenvalues
clamped at zero (tolerance 1e-9), which is robust at the small state
dimensions typical of tracking problems.

The metric only uses ``min(d, c)``, so ``pairwise_base_distance`` takes an
optional cut-off ``c`` and then returns the clipped matrix.  W2 and
Euclidean, which is W2 between zero covariances, share one kernel,
``w2_stack``, called once per ``pairwise_blocks`` call, and one selection
rule: without ``c`` every pair is computed, and with ``c`` only the pairs
that pass the gate.  W2^2 is
||mx - my||^2 plus the Bures term, which is non-negative, so a pair whose
mean gap alone reaches c (with a slack for rounding, see
``W2_GATE_SLACK``) saturates and is not computed.  The remaining pairs are
computed exactly as without ``c``, so the clipped matrix is bit-identical
to ``np.minimum(D, c)`` of the full one.  The gate sums the squared mean
gaps one coordinate at a time, so it holds no (m, n, D) temporary.  A zero
covariance has a zero square root and a zero Bures term, so a pair with a
Dirac side takes no eigen-solve.  Where ||mx - my||^2 overflows but the
coordinate differences do not, the distance is taken in scaled form; an
overflowing coordinate difference gives an infinite, hence saturated,
distance.  Where the Bures term is not finite (covariances near the double
range overflow its traces or ``Py^{1/2} Px Py^{1/2}``), the pair is taken
in scaled form too: W2 is homogeneous, so it is computed with means / s
and covariances / s^2 for a power of two s and multiplied by s.  Pairs
whose plain form is finite keep its bits, and none of this prints a
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
    "pairwise_blocks",
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


def _root(dm2, diff, tt) -> np.ndarray:
    """``sqrt(max(dm2 + tt, 0))``, ``dm2 = ||diff||^2`` over the last axis.
    Where ``dm2`` overflowed but ``diff`` is finite it is taken in scaled
    form, ``s sqrt(||diff / s||^2 + tt / s^2)`` with ``s = max |diff|``."""
    out = np.sqrt(np.maximum(dm2 + tt, 0.0))
    big = np.isinf(dm2)
    if big.any():
        big = big & np.isfinite(diff).all(-1)
        out = np.array(out)
        s = np.abs(diff[big]).max(-1)
        scaled = ((diff[big] / s[:, None]) ** 2).sum(-1)
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
    """tr (sy Px sy)^{1/2} for broadcast stacks, with ``sy`` = Py^{1/2}.
    A product that overflows is not solved and gives NaN, so that
    ``w2_stack`` takes its pair in scaled form."""
    with np.errstate(over="ignore", invalid="ignore"):
        prod = sy @ Px @ sy
    ok = np.isfinite(prod).all((-2, -1))
    lam = np.linalg.eigvalsh(np.where(ok[..., None, None], prod, 0.0))
    scale = max(1.0, float(np.abs(lam).max())) if lam.size else 1.0
    if lam.size and float(lam.min()) < -PSD_SQRT_TOL * scale:
        raise ValueError(
            f"matrix square root failed: eigenvalue {lam.min():.3g} below tolerance"
        )
    return np.where(ok, np.sqrt(np.clip(lam, 0.0, None)).sum(-1), np.nan)


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
            if both.any():
                stack = both.shape + Px.shape[-2:]
                tt = np.array(tt)
                tt[both] -= 2.0 * _bures_cross(
                    np.broadcast_to(Px, stack)[both], np.broadcast_to(sy, stack)[both]
                )
    with np.errstate(over="ignore"):
        out = _root(dm2, diff, tt)
    bad = ~np.isfinite(tt)
    if bad.any():
        bad = bad & np.isfinite(Px).all((-2, -1)) & np.isfinite(Py).all((-2, -1))
        if bad.any():
            out = _w2_scaled(out, bad, mx, Px, my, Py)
    return out


def _w2_scaled(out, bad, mx, Px, my, Py) -> np.ndarray:
    """``out`` with the pairs at ``bad``, whose Bures term is not finite,
    taken in scaled form: W2 is homogeneous, so a pair is computed with
    means / s and covariances / s^2 for a power of two ``s^2 >= max |P|``
    and the result multiplied by ``s``."""
    out = np.array(out)
    bad = np.broadcast_to(bad, out.shape)
    mx, my = (np.broadcast_to(a, out.shape + a.shape[-1:])[bad] for a in (mx, my))
    Px, Py = (np.broadcast_to(a, out.shape + a.shape[-2:])[bad] for a in (Px, Py))
    big = np.maximum(np.abs(Px).max((1, 2)), np.abs(Py).max((1, 2)))
    s = np.ldexp(1.0, -(-np.frexp(big)[1] // 2))
    v, m = s[:, None], s[:, None, None]  # s^2 may overflow: divide twice
    with np.errstate(over="ignore"):
        out[bad] = s * w2_stack(mx / v, Px / m / m, my / v, Py / m / m)
    return out[()]  # a scalar for 1 x 1 operands, as from the plain form


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


def _stacked(sides, rows) -> list:
    """The means, covs and Dirac masks of the MB densities ``sides``, of
    ``rows`` rows each, as (B, R, ...) stacks with R = max(rows): block b's
    rows first, then padding rows, Diracs at NaN.  No padded pair passes
    the W2 gate, since a NaN gap compares false, and a Dirac flag over the
    padded stack is all-true exactly where it is over the real rows."""
    if len(sides) == 1:
        return [sides[0].means[None], sides[0].covs[None], sides[0].dirac[None]]
    valid = np.arange(max(rows)) < np.array(rows)[:, None]
    stacks = []
    for field, pad in (("means", np.nan), ("covs", 0.0), ("dirac", True)):
        flat = np.concatenate([getattr(mb, field) for mb in sides])
        stacks.append(np.full(valid.shape + flat.shape[1:], pad, flat.dtype))
        stacks[-1][valid] = flat
    return stacks


def _nonzero(mask) -> tuple:
    """``np.nonzero(mask)``, several times faster on a sparse mask."""
    return np.unravel_index(np.flatnonzero(mask), mask.shape)


def _gate(mx, Px, my, Py, c) -> np.ndarray:
    """The pairs of (B, rows, ...) stacks that the W2 gate computes: those
    whose mean gap does not prove d >= c."""
    with np.errstate(over="ignore"):
        # one coordinate at a time, in place: no (B, rows, cols, D) temporary
        dm2 = np.zeros((mx.shape[0], mx.shape[1], my.shape[1]))
        for k in range(mx.shape[-1]):
            gap = mx[:, :, None, k] - my[:, None, :, k]
            gap *= gap
            dm2 += gap
        del gap
        tx, ty = np.trace(Px, axis1=2, axis2=3), np.trace(Py, axis1=2, axis2=3)
        bound = tx[:, :, None] + ty[:, None, :]
        bound *= W2_GATE_SLACK
        bound += c * c * (1.0 + W2_GATE_SLACK)
        # where the bound overflows, an overflowed ||dm||^2 may lie below it
        return (dm2 < bound) | (np.isinf(dm2) & np.isinf(bound))


def pairwise_blocks(blocks, kind: BaseDistanceKind = BaseDistanceKind.W2, *, c=None) -> tuple:
    """Distance matrices of the pairs ``(x, y)`` of ``MBDensity`` values in
    ``blocks`` as one padded (B, M, N) stack, with the (B, 2) array of
    block sizes ``(m_b, n_b)``: ``D[b, :m_b, :n_b]`` is
    ``pairwise_base_distance(*blocks[b], kind, c=c)``, bit for bit, M and N
    are the largest sizes, and the padding holds no distance.  A block with
    an empty side has no entries to compute.  The blocks' operands are held
    as padded (B, rows, ...) stacks, and the W2 pairs of all blocks that
    pass the gate (every pair without ``c``) go through one ``w2_stack``
    call.  Hellinger blocks are checked and computed one at a time, in
    block order: the first block with a Dirac or a covariance that is not
    strictly positive-definite raises its own fault."""
    kind = BaseDistanceKind(kind)
    sizes = [(len(x.r), len(y.r)) for x, y in blocks]
    # without a cut-off every real pair is computed, and clipping is a no-op
    cut = np.inf if c is None else float(c)
    D = np.full((len(blocks), max(m for m, _ in sizes), max(n for _, n in sizes)), cut)
    live = [k for k, (m, n) in enumerate(sizes) if m and n]
    sizes = np.array(sizes, dtype=np.intp)
    if not live:
        return D, sizes
    xs, ys = [blocks[k][0] for k in live], [blocks[k][1] for k in live]
    dims = {mb.means.shape[1] for mb in xs + ys}
    if len(dims) > 1:
        raise DimensionMismatchError(f"densities mix state dimensions {sorted(dims)}")
    m, n = [len(x.r) for x in xs], [len(y.r) for y in ys]
    (mx, Px, dx), (my, Py, dy) = _stacked(xs, m), _stacked(ys, n)
    # the stack's index of each live block
    live = np.array(live)

    if kind is BaseDistanceKind.EUCLIDEAN and not (dx.all() and dy.all()):
        raise ValueError("euclidean base distance requires Dirac densities")
    if kind is BaseDistanceKind.HELLINGER:
        for k, x, y in zip(live, xs, ys):
            # each block checks its own operands, so the first faulty one raises
            if x.dirac.any() or y.dirac.any():
                raise ValueError("Hellinger distance requires Gaussian densities")
            least = np.linalg.eigvalsh(np.concatenate([x.covs, y.covs]))[:, 0].min()
            if least <= HELLINGER_MIN_EIG:
                raise ValueError(
                    "Hellinger distance requires strictly positive-definite covariances"
                )
            D[k, : len(x.r), : len(y.r)] = _hellinger_stack(
                x.means[:, None, :], x.covs[:, None], y.means[None, :, :], y.covs[None]
            )
    else:  # W2, and Euclidean: W2 between zero covariances
        b, i, j = _nonzero(_gate(mx, Px, my, Py, cut))
        D[live[b], i, j] = w2_stack(mx[b, i], Px[b, i], my[b, j], Py[b, j])

    # bit-for-bit equal operands give exactly 0
    bx, by = mx.view(np.int64), my.view(np.int64)
    # candidates: an equal first coordinate; padded pairs only touch padding
    b, i, j = _nonzero(bx[:, :, None, 0] == by[:, None, :, 0])
    if len(b):
        same = (
            (bx[b, i] == by[b, j]).all(1)
            & (dx[b, i] == dy[b, j])
            & (Px[b, i].view(np.int64) == Py[b, j].view(np.int64)).all((1, 2))
        )
        D[live[b[same]], i[same], j[same]] = 0.0
    np.minimum(D, cut, out=D)
    return D, sizes


def pairwise_base_distance(
    xs, ys, kind: BaseDistanceKind = BaseDistanceKind.W2, *, c=None
) -> np.ndarray:
    """Distance matrix between two ``MBDensity`` values, or between two
    sequences of single-object densities: the one-block case of
    ``pairwise_blocks``.

    Returns an (len(xs), len(ys)) array.  Pairs whose operands are exactly
    equal evaluate to exactly 0.0.  With a cut-off ``c`` the result is
    ``np.minimum(D, c)`` of the full matrix ``D``, bit for bit; W2 and
    Euclidean pairs whose mean gap alone proves saturation are then not
    computed.
    """
    return pairwise_blocks([(_as_mb(xs), _as_mb(ys))], kind, c=c)[0][0]


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
