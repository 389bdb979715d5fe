"""Probabilistic GOSPA between multi-Bernoulli set densities.

For MB densities X (n_X components) and Y (n_Y components) with n_X <= n_Y,
the metric is

    d(X, Y)^p = min over one-to-one matchings of all X components into Y of
        sum over matched (i, j) of
            min(rx_i, ry_j) * min(d_ij, c)^p + |rx_i - ry_j| * c^p / alpha
        + (c^p / alpha) * sum of ry_j over unmatched j,

with d_ij the base distance between the single-object densities.  The
matching minimization is reduced to one rectangular assignment by
subtracting each larger-side component's unmatched cost ry_j * c^p/alpha
from its column and adding the constant (c^p/alpha) * sum_j ry_j; the
reduction preserves the optimum for every alpha in (0, 2].  The reported
value is re-accumulated from the matched pairs in the original
non-negative form, which avoids cancellation (d(f, f) is exactly zero).

For alpha = 2 the optimum decomposes into four non-negative terms, all in
p-th-power units: expected localization error and existence-probability
mismatch over the matched pairs, plus expected missed and false detection
errors (c^p/2 times the unmatched existence mass on each side).  A matched
pair whose cut-off distance saturates (d_ij >= c) contributes exactly the
same cost as leaving both components unmatched, and is reported as
unmatched.

``gospa`` evaluates point sets.  Its result is by definition the metric
above on the lifted MB densities (all existence probabilities one, Dirac
densities at the points) with the Euclidean base distance; both entry
points are thin adapters over one array-level core.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .assignment import solve_assignment
from .distances import (
    BaseDistanceKind,
    base_distance,
    euclidean_matrix,
    pairwise_base_distance,
)
from .model import (
    BernoulliComponent,
    DimensionMismatchError,
    MBDensity,
    MBMixture,
    MetricParams,
)

__all__ = ["PGospaResult", "bernoulli_pgospa", "pgospa", "gospa", "mbm_pgospa"]

NEAR_TIE_ABS_TOL = 1e-9
NEAR_TIE_MAX_SIZE = 64


@dataclass(frozen=True)
class PGospaResult:
    """Metric value with optimal matching and, for alpha = 2, its
    decomposition (p-th-power units)."""

    total: float
    matched_pairs: tuple
    localization: float | None
    existence_mismatch: float | None
    missed: float | None
    false_det: float | None
    c: float
    p: float
    alpha: float
    base: str
    near_tie: bool | None = None

    def to_dict(self) -> dict:
        if self.localization is None:
            decomposition = None
        else:
            decomposition = {
                "localization": self.localization,
                "existence_mismatch": self.existence_mismatch,
                "missed": self.missed,
                "false": self.false_det,
            }
        return {
            "total": self.total,
            "p": self.p,
            "c": self.c,
            "alpha": self.alpha,
            "base": self.base,
            "decomposition": decomposition,
            "matched_pairs": [list(pair) for pair in self.matched_pairs],
            "near_tie": self.near_tie,
        }


def bernoulli_pgospa(
    bx: BernoulliComponent,
    by: BernoulliComponent,
    params: MetricParams,
    base: BaseDistanceKind = BaseDistanceKind.W2,
) -> float:
    """Metric between two single-Bernoulli densities:
    (min(rx, ry) * min(d, c)^p + |rx - ry| * c^p/alpha)^(1/p)."""
    d = base_distance(bx.density, by.density, base)
    dc = min(d, params.c)
    cpa = params.c**params.p / params.alpha
    value = min(bx.r, by.r) * dc**params.p + abs(bx.r - by.r) * cpa
    return float(value ** (1.0 / params.p))


def _second_best_total_p(reduced, pair_cost, ry, cpa, pairs):
    """Best objective over matchings differing from ``pairs``, or inf."""
    n = reduced.shape[1]
    forbid_bound = 2.0 * float(np.abs(reduced).sum()) + 1.0
    best = np.inf
    matched = set(pairs)
    for i, j in pairs:
        work = reduced.copy()
        work[i, j] = forbid_bound
        rid, cid = linear_sum_assignment(work)
        alt = sorted(zip(rid.tolist(), cid.tolist()))
        if (i, j) in alt:
            continue
        cols = {jj for _, jj in alt}
        total_p = sum(float(pair_cost[a, b]) for a, b in alt)
        total_p += sum(float(ry[jj] * cpa) for jj in range(n) if jj not in cols)
        if set(alt) != matched:
            best = min(best, total_p)
    return best


def _core(rx, ry, D, params, base, swapped, detect_near_ties) -> PGospaResult:
    """Metric from the smaller side's existence probabilities ``rx``, the
    larger side's ``ry`` and their base-distance matrix ``D`` (len(rx) x
    len(ry)).  ``swapped`` tells that the smaller side is the caller's second
    operand, so reported pairs and the missed/false terms are turned back;
    ``base`` is the label reported with the result."""
    nx, ny = len(rx), len(ry)
    p, c, alpha = params.p, params.c, params.alpha
    cpa = c**p / alpha
    with_decomposition = alpha == 2.0

    if ny == 0:
        zero = 0.0 if with_decomposition else None
        return PGospaResult(0.0, (), zero, zero, zero, zero, c, p, alpha, base)

    near_tie = None
    if nx == 0:
        pairs = ()
        total_p = float((ry * cpa).sum())
        gamma = ()
        loc = mism = 0.0
        missed_a = 0.0
        false_b = float(total_p)
        if detect_near_ties:
            near_tie = False
    else:
        Dc = np.minimum(D, c)
        loc_term = np.minimum(rx[:, None], ry[None, :]) * Dc**p
        mis_term = np.abs(rx[:, None] - ry[None, :]) * cpa
        pair_cost = loc_term + mis_term
        reduced = pair_cost - (ry * cpa)[None, :]
        pairs = solve_assignment(reduced).pairs
        matched_cols = {j for _, j in pairs}
        total_p = float(sum(pair_cost[i, j] for i, j in pairs))
        total_p += float(sum(ry[j] * cpa for j in range(ny) if j not in matched_cols))
        if with_decomposition:
            gamma = tuple((i, j) for i, j in pairs if D[i, j] < c)
            loc = float(sum(loc_term[i, j] for i, j in gamma))
            mism = float(sum(mis_term[i, j] for i, j in gamma))
            grows = {i for i, _ in gamma}
            gcols = {j for _, j in gamma}
            missed_a = float(sum(rx[i] * cpa for i in range(nx) if i not in grows))
            false_b = float(sum(ry[j] * cpa for j in range(ny) if j not in gcols))
        if detect_near_ties and max(nx, ny) <= NEAR_TIE_MAX_SIZE:
            second = _second_best_total_p(reduced, pair_cost, ry, cpa, pairs)
            if np.isfinite(second):
                gap = second ** (1.0 / p) - total_p ** (1.0 / p)
                near_tie = bool(gap <= NEAR_TIE_ABS_TOL)
            else:
                near_tie = False

    total = float(total_p ** (1.0 / p))

    if with_decomposition:
        report_pairs = gamma
        missed, false = missed_a, false_b
    else:
        report_pairs = pairs
        loc = mism = missed = false = None

    if swapped:
        report_pairs = tuple(sorted((j, i) for i, j in report_pairs))
        if with_decomposition:
            missed, false = false, missed

    return PGospaResult(
        total, report_pairs, loc, mism, missed, false, c, p, alpha, base, near_tie
    )


def pgospa(
    fx: MBDensity,
    fy: MBDensity,
    params: MetricParams,
    base: BaseDistanceKind = BaseDistanceKind.W2,
    *,
    detect_near_ties: bool = False,
) -> PGospaResult:
    """Metric between two MB densities, with optimal matching and, for
    alpha = 2, the four-way decomposition.

    ``detect_near_ties`` additionally reports whether a different matching
    comes within ``NEAR_TIE_ABS_TOL`` of the optimal metric value (the
    decomposition is then sensitive to the deterministic tie-break).
    """
    base = BaseDistanceKind(base)
    if fx.dim is not None and fy.dim is not None and fx.dim != fy.dim:
        raise DimensionMismatchError(
            f"MB densities have dimensions {fx.dim} and {fy.dim}"
        )
    swapped = len(fx) > len(fy)
    a, b = (fy, fx) if swapped else (fx, fy)
    D = pairwise_base_distance(a.densities, b.densities, base)
    return _core(
        a.existence, b.existence, D, params, base.value, swapped, detect_near_ties
    )


def gospa(x_points, y_points, params: MetricParams) -> PGospaResult:
    """GOSPA between finite point sets with the Euclidean base distance.

    By definition this is ``pgospa`` with the Euclidean base distance on
    the lifted MB densities (unit existence probabilities, Dirac densities
    at the points), and it runs the same computation; the
    existence-mismatch term is identically zero.
    """
    X = np.asarray(x_points, dtype=float)
    Y = np.asarray(y_points, dtype=float)
    if X.size == 0:
        X = X.reshape(0, Y.shape[1] if Y.ndim == 2 and Y.size else 0)
    if Y.size == 0:
        Y = Y.reshape(0, X.shape[1] if X.ndim == 2 and X.size else 0)
    if X.ndim != 2 or Y.ndim != 2:
        raise ValueError("point sets must be 2-D arrays of state vectors")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
        raise ValueError("point sets contain non-finite entries")
    if len(X) and len(Y) and X.shape[1] != Y.shape[1]:
        raise DimensionMismatchError(
            f"point sets have dimensions {X.shape[1]} and {Y.shape[1]}"
        )
    swapped = len(X) > len(Y)
    A, B = (Y, X) if swapped else (X, Y)
    D = euclidean_matrix(A, B) if len(A) else np.zeros((0, len(B)))
    base = BaseDistanceKind.EUCLIDEAN.value
    return _core(np.ones(len(A)), np.ones(len(B)), D, params, base, swapped, False)


def mbm_pgospa(
    mix: MBMixture,
    ref: MBDensity,
    params: MetricParams,
    base: BaseDistanceKind = BaseDistanceKind.W2,
) -> float:
    """Weighted sum of the metric between each mixture component and the
    reference MB density."""
    if not isinstance(mix, MBMixture) or len(mix) == 0:
        raise ValueError("mixture must contain at least one entry")
    return float(
        sum(w * pgospa(mb, ref, params, base).total for w, mb in mix.entries)
    )
