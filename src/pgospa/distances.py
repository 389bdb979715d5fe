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
dimensions typical of tracking problems.  The public ``w2_stack`` checks
every finite covariance of both operands against that tolerance, from
its eigenvalues alone, and then calls the kernel ``_w2``, which roots
only what enters a Bures term.  ``pairwise_blocks`` calls the kernel
directly: every ``MBDensity`` holds its covariances in PSD normal form.

The metric only uses ``min(d, c)``, so ``pairwise_base_distance`` takes an
optional cut-off ``c`` and then returns the clipped matrix.  W2 and
Euclidean, which is W2 between zero covariances, share one kernel,
``_w2``, called once per ``pairwise_blocks`` call, and one selection
rule: without ``c`` every pair is computed, and with ``c`` only the pairs
that pass the gate.  W2^2 is ||mx - my||^2 plus the Bures term, which is
non-negative, so a pair whose mean gap alone reaches c saturates.  The
reference rule (R) computes a pair if

    ||mx - my||^2 <= s (tx + ty) + c^2 (1 + s),

the squared gap summed one coordinate at a time, s = ``W2_GATE_SLACK``
covering rounding and tx, ty the absolute covariance traces, or if both
sides overflow; every pair that (R) leaves out has a computed distance of
at least c.  The gate (``_gate``) tests the same inequality in product
form, |mx|^2 + |my|^2 - 2 mx.my - s (tx + ty), from one batched matmul
of the means augmented with per-row and per-column terms, against
``c^2 (1 + s)`` with a relative margin kappa = (4 L + 8) 2^-52, L = D + 2,
on the row and column scales |m|^2 + t and an absolute one of
(4 L + 8) 2^-1022; ``_gate`` derives that margin, for any summation order
of the matmul, FMA included, so that the gate computes every pair that
(R) computes.  Rows and columns whose scale exceeds max / 16 (squared
norms or traces that overflow or come near it) take (R) itself against
their whole block, and NaN padding passes neither test.  A small stack
(``_PRODUCT_MIN``: fewer than 2^14 pair coordinates, as a 70 x 72 2-D
block) takes (R) alone, in fewer numpy calls than the product form.  The gate is
never below (R): bit-equal operands always pass it, at every admitted c,
since their product form is within the absolute margin of 0 and their
squared gap under (R) is exactly 0 against a bound that is never
negative.  So ``pairwise_blocks`` applies the equal-operand rule and the
clip at c to the computed pairs alone, and sets every other entry to c:
the clipped matrix is bit-identical to ``np.minimum(D, c)`` of the full
one.  A zero covariance has a zero square root and a zero Bures term, so
a pair with a Dirac side takes no eigen-solve: the kernel roots ``Py``
only for the pairs of two non-zero covariances.  Where ||mx - my||^2
overflows but the coordinate differences do not, the distance is taken
in scaled form, ``s sqrt(||diff / s||^2 + tt / s^2)`` with s = max |diff|;
an overflowing coordinate difference gives an infinite, hence saturated,
distance.  Where ||mx - my||^2 plus the trace terms falls below the
normal range but the means differ (the squares of a gap below about
1e-154 underflow), the distance takes the same scaled form, with s at
least the root of the trace terms, so distinct means never read 0.0.
Where the Bures term is not finite (covariances near the double range
overflow its traces or ``Py^{1/2} Px Py^{1/2}``), the pair is taken in
scaled form too: W2 is homogeneous, so it is computed with means / s and
covariances / s^2 for a power of two s and multiplied by s.  Pairs whose
plain form is finite and normal keep its bits, and none of this prints a
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
# Relative slack of the W2 cut-off gate: a pair is left out only if
# ||mx - my||^2 > c^2 (1 + slack) + slack (|tr Px| + |tr Py|).  The Bures term
# is >= 0 in exact arithmetic; the slack covers its rounding and that of
# c^2, so every pruned pair's computed distance is >= c.  The Bures term's
# rounding scales with the traces: square roots of eigenvalues near zero
# lift it to about sqrt(eps) (tr Px + tr Py), and it stays below 3e-8 of
# the traces on random ill-conditioned and singular pairs up to 8-D.
W2_GATE_SLACK = 1e-6
_NORMAL_MIN = np.finfo(float).tiny  # 2^-1022
# the largest row scale |m|^2 + |tr P| that the W2 gate's product form
# takes; larger rows take the per-coordinate rule
_H_MAX = np.finfo(float).max / 16.0
# below this many pair coordinates (B M N D) a stack takes the
# per-coordinate rule, which makes fewer numpy calls than the product form
_PRODUCT_MIN = 2**14


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
    """``sqrt(max(dm2 + tt, 0))``, ``dm2 = ||diff||^2`` over the last axis,
    taken in scaled form, ``s sqrt(||diff / s||^2 + tt / s^2)``, where the
    plain form loses the gap: where ``dm2`` overflowed but ``diff`` is
    finite, with ``s = max |diff|``, and where ``dm2 + tt`` is >= 0 but
    below the normal range and ``diff`` is not zero (the squares of a tiny
    gap underflow), with ``s = max(max |diff|, sqrt(tt))``, which keeps
    ``tt / s^2`` at most 1."""
    sq = dm2 + tt
    out = np.sqrt(np.maximum(sq, 0.0))
    redo = (sq < _NORMAL_MIN) | np.isinf(dm2)
    if not redo.any():
        return out
    shape = np.shape(redo)
    k = np.flatnonzero(redo)
    diff = np.broadcast_to(diff, shape + diff.shape[-1:]).reshape(-1, diff.shape[-1])[k]
    tt, sq = (np.broadcast_to(a, shape).reshape(-1)[k] for a in (tt, sq))
    tiny = sq < _NORMAL_MIN
    gap = np.abs(diff).max(-1)
    s = np.where(tiny, np.maximum(gap, np.sqrt(np.maximum(tt, 0.0))), gap)
    # a negative sum is the rounding of a Bures term, and stays 0
    ok = np.isfinite(gap) & (gap > 0.0) & (sq >= 0.0)
    k, diff, tt, s = k[ok], diff[ok], tt[ok], s[ok]
    scaled = np.maximum(((diff / s[:, None]) ** 2).sum(-1) + tt / s / s, 0.0)
    out = np.array(out)  # a copy, also of a scalar
    out.reshape(-1)[k] = s * np.sqrt(scaled)
    return out


def _eig_roots(w) -> np.ndarray:
    """The roots of the eigenvalues ``w`` of symmetric PSD matrices, clamped
    at 0; an eigenvalue below ``-PSD_SQRT_TOL * max(1, max |w|)`` raises."""
    if w.size and w.min() < -PSD_SQRT_TOL * max(1.0, np.abs(w).max()):
        raise ValueError(f"matrix square root failed: eigenvalue {w.min():.3g} below tolerance")
    return np.sqrt(np.clip(w, 0.0, None))


def _psd_sqrt(mats: np.ndarray) -> np.ndarray:
    """Square roots of stacked symmetric PSD matrices (..., D, D)."""
    w, v = np.linalg.eigh(mats)
    return (v * _eig_roots(w)[..., None, :]) @ np.swapaxes(v, -1, -2)


def _bures_cross(Px, sy) -> np.ndarray:
    """tr (sy Px sy)^{1/2} for broadcast stacks, with ``sy`` = Py^{1/2}.
    A product that overflows is not solved and gives NaN, so that
    ``_w2`` takes its pair in scaled form."""
    with np.errstate(over="ignore", invalid="ignore"):
        prod = sy @ Px @ sy
    ok = np.isfinite(prod).all((-2, -1))
    lam = np.linalg.eigvalsh(np.where(ok[..., None, None], prod, 0.0))
    return np.where(ok, _eig_roots(lam).sum(-1), np.nan)


def w2_stack(mx, Px, my, Py) -> np.ndarray:
    """Elementwise 2-Wasserstein distances for broadcast Gaussian stacks.

    ``mx``/``my`` broadcast over (..., D) and ``Px``/``Py`` over (..., D, D).
    Every finite covariance of both sides, in the shapes given, is checked
    from its eigenvalues, one ``eigvalsh`` per side: an eigenvalue below
    the square-root tolerance raises ``matrix square root failed``, in 1-D
    too.  The distances are then those of the kernel ``_w2``.
    """
    mx, Px, my, Py = (np.asarray(a, dtype=float) for a in (mx, Px, my, Py))
    for P in (Px, Py):
        # a matrix with a non-finite entry has no eigenvalues to check
        finite = np.isfinite(P).all((-2, -1))[..., None, None]
        _eig_roots(np.linalg.eigvalsh(np.where(finite, P, 0.0)))
    return _w2(mx, Px, my, Py)


def _w2(mx, Px, my, Py) -> np.ndarray:
    """The W2 kernel of ``w2_stack``, on float arrays whose covariances the
    caller has checked or holds in PSD normal form.  A zero covariance has
    a zero root and a zero Bures term, so ``Py`` is rooted, and the Bures
    term solved, only on the pairs of two non-zero covariances."""
    with np.errstate(over="ignore"):
        diff = mx - my
        dm2 = (diff**2).sum(-1)
    if mx.shape[-1] == 1:
        # 1-D shortcut: the cross term collapses to (sqrt(Px) - sqrt(Py))^2
        sx = np.sqrt(np.clip(Px[..., 0, 0], 0.0, None))
        sy = np.sqrt(np.clip(Py[..., 0, 0], 0.0, None))
        tt = (sx - sy) ** 2
    else:
        with np.errstate(over="ignore"):
            tt = np.trace(Px, axis1=-2, axis2=-1) + np.trace(Py, axis1=-2, axis2=-1)
        both = Px.any((-2, -1)) & Py.any((-2, -1))
        if both.any():
            stack = both.shape + Px.shape[-2:]
            tt = np.array(tt)
            tt[both] -= 2.0 * _bures_cross(
                np.broadcast_to(Px, stack)[both], _psd_sqrt(np.broadcast_to(Py, stack)[both])
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
        out[bad] = s * _w2(mx / v, Px / m / m, my / v, Py / m / m)
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


def _coordinate_gate(mx, tx, my, ty, cc) -> np.ndarray:
    """The per-coordinate gate (R) of broadcast stacks of means and absolute
    traces: ``||mx - my||^2 <= slack (tx + ty) + cc``, the squared gap summed
    one coordinate at a time in place, or both sides overflowing.  Called
    under ``_gate``'s ``np.errstate``."""
    dm2 = mx[..., 0] - my[..., 0]
    dm2 *= dm2
    for k in range(1, mx.shape[-1]):
        gap = mx[..., k] - my[..., k]
        gap *= gap
        dm2 += gap
    bound = tx + ty
    bound *= W2_GATE_SLACK
    bound += cc
    return (dm2 <= bound) | (np.isinf(dm2) & np.isinf(bound))


def _gate_term(means, traces, kappa) -> tuple:
    """Per row of a (B, rows, D) stack of means and absolute traces t: the
    gate's row term ``|m|^2 - slack t - kappa h``, ``h = |m|^2 + t``, NaN
    where ``h > _H_MAX``, and the mask of those rows, which take the
    per-coordinate rule (NaN padding is not among them)."""
    sq = np.einsum("bik,bik->bi", means, means)
    h = sq + traces
    term = sq - W2_GATE_SLACK * traces
    term -= kappa * h
    huge = h > _H_MAX
    if huge.any():
        term[huge] = np.nan
    return term, huge


def _gate(mx, Px, my, Py, c) -> np.ndarray:
    """The (B, rows, cols) mask of pairs of (B, rows, ...) stacks that the
    W2 gate computes: every pair that the per-coordinate rule (R) of the
    module docstring computes, and every pair of bit-equal operands, but
    no pair with a NaN (padding) mean.

    Product form.  With t the absolute traces, s = ``W2_GATE_SLACK``,
    ``h = |m|^2 + t`` and ``alpha = |m|^2 - s t - kappa h`` per row (and the
    same ``beta`` per column), one batched matmul of the rows
    ``(-2 mx, alpha_x, 1)`` and ``(my, 1, beta_y)`` gives, for L = D + 2,

        M = -2 mx.my + alpha_x + beta_y,

    and a pair is computed if ``M <= tau = cc (1 + kappa) + (4 L + 8)
    2^-1022``, with ``cc = c^2 (1 + s)`` and ``kappa = (4 L + 8) 2^-52``.
    Rows and columns with ``h > max / 16`` take (R) itself, and so does a
    stack of fewer than ``_PRODUCT_MIN`` pair coordinates (B M N D), for
    which (R) makes fewer numpy calls.

    Margin.  IEEE doubles, u = 2^-53, gamma_k = k u / (1 - k u); a product
    or an FMA that underflows errs by at most eta = 2^-1075 besides its
    relative error, a sum that underflows is exact.  Let A, B be the exact
    |mx|^2, |my|^2, Delta = A + B - 2 mx.my the exact squared gap, and a
    row and a column have h <= max / 16, so no step below overflows.

    1. |mx|^2 in any summation order is A (1 +- gamma_D) +- 1.01 D eta,
       and alpha_x takes three roundings of terms below 1.01 h_x, so
       ``alpha_x - A <= -s tx - kappa h_x + (1.02 gamma_D + 2.03 u) h_x
       + (2.1 D + 2) eta``.
    2. M is a dot product of L terms whose products -2 mx_k my_k, alpha_x 1
       and 1 beta_y are exact but for underflow (-2 x is exact).  In any
       summation order, with or without FMA, each term passes at most L
       roundings, so M is within ``gamma_L (A + B + |alpha_x| + |beta_y|)
       + 1.01 L eta <= 2.03 gamma_L (h_x + h_y) + ...`` of its exact value.
    3. Hence ``M <= Delta - s (tx + ty) - (kappa - K)(h_x + h_y)
       + 5.3 L eta`` with ``K = (3.1 L + 2.1) u``, and ``kappa - K >=
       kappa / 2``.
    4. If cc < max / 2: tx + ty <= max / 8, so the bound T of (R) is
       finite, and (R) computes the pair only if its coordinate sum
       dm2 <= T.  Each difference, square and sum of dm2 shrinks it by at
       most a factor 1 - u, so
       ``Delta <= (dm2 + D eta) (1 + gamma_{D+2})``, and ``T <= s (tx + ty)
       (1 + 3.01 u) + cc (1 + u) + 2 eta``.  So ``Delta - s (tx + ty) <=
       cc (1 + gamma_{L+1}) + 1.01e-6 (3.01 u + 1.01 gamma_L)(h_x + h_y)
       + 1.01 L eta``; the middle term is below (kappa / 2)(h_x + h_y), and
       ``M <= cc (1 + gamma_{L+1}) + 6.4 L eta < tau``, because kappa >
       gamma_{L+1} + 3 u and (4 L + 8) 2^-1022 >> 6.4 L eta.
    5. If cc >= max / 2, tau >= max / 2, while every regular pair has
       ``M <= 1.01 (A + B + |alpha_x| + |beta_y|) <= 0.26 max``.
    6. Bit-equal operands have Delta = 0, so by 3, M <= 5.3 L eta < tau.
       Under (R) their gap is exactly 0 and the bound is >= 0, so ``<=``
       takes them.

    (R) with absolute traces and ``<=`` computes a superset of (R) with
    the signed traces and ``<``, which the gate replaced.  NaN padding
    makes its terms and h NaN, so it passes neither test."""
    n = 4 * (mx.shape[-1] + 2) + 8
    kappa = n * 2.0**-52
    cc = c * c * (1.0 + W2_GATE_SLACK)
    tau = cc * (1.0 + kappa) + n * _NORMAL_MIN
    with np.errstate(over="ignore", invalid="ignore"):
        tx, ty = np.abs(Px.trace(axis1=2, axis2=3)), np.abs(Py.trace(axis1=2, axis2=3))
        if mx.shape[0] * mx.shape[1] * my.shape[1] * mx.shape[2] < _PRODUCT_MIN:
            return _coordinate_gate(mx[:, :, None], tx[:, :, None], my[:, None], ty[:, None], cc)
        (ax, huge_x), (ay, huge_y) = _gate_term(mx, tx, kappa), _gate_term(my, ty, kappa)
        X = np.concatenate([-2.0 * mx, ax[..., None], np.ones(ax.shape + (1,))], axis=2)
        Y = np.concatenate([my, np.ones(ay.shape + (1,)), ay[..., None]], axis=2)
        keep = np.matmul(X, Y.transpose(0, 2, 1)) <= tau
        if huge_x.any():
            for b, i in zip(*np.nonzero(huge_x)):
                keep[b, i] |= _coordinate_gate(mx[b, i], tx[b, i], my[b], ty[b], cc)
        if huge_y.any():
            for b, j in zip(*np.nonzero(huge_y)):
                keep[b, :, j] |= _coordinate_gate(mx[b], tx[b], my[b, j], ty[b, j], cc)
    return keep


def _real_pairs(m, n) -> tuple:
    """The (b, i, j) indices, in C order, of the pairs of blocks of m_b rows
    and n_b columns in a padded stack."""
    rows = np.arange(max(m)) < np.array(m)[:, None]
    cols = np.arange(max(n)) < np.array(n)[:, None]
    return _nonzero(rows[:, :, None] & cols[:, None, :])


def _same_operands(sides, b, i, j) -> np.ndarray:
    """The positions k of the pairs ``(x[b_k, i_k], y[b_k, j_k])`` of the
    stacked sides, each ``(means, covs, dirac)``, whose operands are
    bit-for-bit equal: the pairs whose first mean coordinates have equal
    bits are the candidates, and only they are compared on the full mean,
    the kind and the covariance."""
    (mx, Px, dx), (my, Py, dy) = sides
    bx, by = mx.view(np.int64), my.view(np.int64)
    k = np.flatnonzero(bx[:, :, 0][b, i] == by[:, :, 0][b, j])
    if len(k):
        b, i, j = b[k], i[k], j[k]
        k = k[
            (bx[b, i] == by[b, j]).all(1)
            & (dx[b, i] == dy[b, j])
            & (Px[b, i].view(np.int64) == Py[b, j].view(np.int64)).all((1, 2))
        ]
    return k


def pairwise_blocks(blocks, kind: BaseDistanceKind = BaseDistanceKind.W2, *, c=None) -> tuple:
    """Distance matrices of the pairs ``(x, y)`` of ``MBDensity`` values in
    ``blocks`` as one padded (B, M, N) stack, with the (B, 2) array of
    block sizes ``(m_b, n_b)``: ``D[b, :m_b, :n_b]`` is
    ``pairwise_base_distance(*blocks[b], kind, c=c)``, bit for bit, M and N
    are the largest sizes, and the padding holds no distance.  A block with
    an empty side has no entries to compute.  The blocks' operands are held
    as padded (B, rows, ...) stacks, and the W2 pairs of all blocks that
    pass the gate (every pair without ``c``) go through one call of the
    kernel ``_w2``; the equal-operand rule and the clip at ``c`` touch
    those pairs only, every other entry is ``c``.  Hellinger blocks are
    checked and computed in full one at a time, in block order: the first
    block with a Dirac or a covariance that is not strictly
    positive-definite raises its own fault."""
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
    sides = _stacked(xs, m), _stacked(ys, n)
    (mx, Px, dx), (my, Py, dy) = sides
    # the stack's index of each live block
    live = np.array(live)

    if kind is BaseDistanceKind.EUCLIDEAN and not (dx.all() and dy.all()):
        raise ValueError("euclidean base distance requires Dirac densities")
    if kind is BaseDistanceKind.HELLINGER:
        d = []
        for x, y in zip(xs, ys):
            # each block checks its own operands, so the first faulty one raises
            if x.dirac.any() or y.dirac.any():
                raise ValueError("Hellinger distance requires Gaussian densities")
            least = np.linalg.eigvalsh(np.concatenate([x.covs, y.covs]))[:, 0].min()
            if least <= HELLINGER_MIN_EIG:
                raise ValueError(
                    "Hellinger distance requires strictly positive-definite covariances"
                )
            block = _hellinger_stack(
                x.means[:, None, :], x.covs[:, None], y.means[None, :, :], y.covs[None]
            )
            d.append(block.ravel())
        d = np.concatenate(d)
        b, i, j = _real_pairs(m, n)
    else:  # W2, and Euclidean: W2 between zero covariances
        b, i, j = _real_pairs(m, n) if c is None else _nonzero(_gate(mx, Px, my, Py, cut))
        d = _w2(mx[b, i], Px[b, i], my[b, j], Py[b, j])
    # bit-for-bit equal operands give exactly 0
    d[_same_operands(sides, b, i, j)] = 0.0
    D[live[b], i, j] = np.minimum(d, cut)
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
