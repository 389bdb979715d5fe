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

``pgospa`` is the array-level core: it reads the existence vectors and the
base-distance matrix of its two MB densities and does the assignment, the
decomposition and the orientation swap.  ``gospa`` evaluates point sets:
its result is by definition the metric above on the lifted MB densities
(all existence probabilities one, Dirac densities at the points) with the
Euclidean base distance, and it calls ``pgospa`` on exactly those.
Totals and terms are summed strictly left to right over index arrays, in
the order of the matched pairs and then of the unmatched indices.  One
elementwise helper, ``_pair_terms``, is the pair cost of ``pgospa``, of
``bernoulli_pgospa`` (1 x 1, bit for bit) and of the ``sweep-example1`` grid.

The optional near-tie flag asks whether a matching that reports other
pairs comes within ``NEAR_TIE_ABS_TOL`` of the optimum.  A lower bound
from the optimal duals (``_no_near_tie``) answers "no" without another
solve whenever it clears twice that tolerance; every case it leaves
undecided goes to ``_second_best_total_p``, which re-solves the
assignment once per matched pair with that pair forbidden.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .assignment import (
    LEX_REFINE_MAX,
    _duals_rows_complete,
    _left_sum,
    solve_assignment,
)
from .distances import BaseDistanceKind, base_distance, pairwise_base_distance
from .model import (
    BernoulliComponent,
    DimensionMismatchError,
    MBDensity,
    MBMixture,
    MetricParams,
    _point_masses,
)

__all__ = ["PGospaResult", "bernoulli_pgospa", "pgospa", "gospa", "mbm_pgospa"]

NEAR_TIE_ABS_TOL = 1e-9


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
    (min(rx, ry) * min(d, c)^p + |rx - ry| * c^p/alpha)^(1/p), by the pair
    formula of ``pgospa``, whose 1 x 1 total it equals bit for bit."""
    p, c = params.p, params.c
    D = np.minimum([base_distance(bx.density, by.density, base)], c)
    loc, mis = _pair_terms(bx.r, by.r, D, p, c**p / params.alpha)
    return float(float((loc + mis)[0]) ** (1.0 / p))


def _pair_terms(rx, ry, D, p, cpa):
    """The two parts of a matched pair's cost, elementwise over broadcast
    arrays: min(rx, ry) * D^p and |rx - ry| * c^p/alpha, with ``D`` already
    clipped at c and ``cpa`` = c^p/alpha."""
    return np.minimum(rx, ry) * D**p, np.abs(rx - ry) * cpa


def _second_best_total_p(reduced, pair_cost, ry, cpa, pairs, reported):
    """Best objective over the matchings that differ from ``pairs`` in their
    reported pairs (the pairs where the boolean matrix ``reported`` is
    true), or inf."""
    n = reduced.shape[1]
    with np.errstate(over="ignore"):  # inf forbids the entry all the same
        forbid_bound = 2.0 * float(np.abs(reduced).sum()) + 1.0
    best = np.inf
    shown = {pair for pair in pairs if reported[pair]}
    for i, j in pairs:
        work = reduced.copy()
        work[i, j] = forbid_bound
        try:
            rid, cid = linear_sum_assignment(work)
        except ValueError:
            # Infeasible: every matching uses (i, j).  This happens when the
            # bound overflows to inf, which scipy treats as a forbidden entry.
            continue
        alt = sorted(zip(rid.tolist(), cid.tolist()))
        if (i, j) in alt:
            continue
        cols = {jj for _, jj in alt}
        total_p = sum(float(pair_cost[a, b]) for a, b in alt)
        total_p += sum(float(ry[jj] * cpa) for jj in range(n) if jj not in cols)
        if {pair for pair in alt if reported[pair]} != shown:
            best = min(best, total_p)
    return best


def _no_near_tie(reduced, cols, reported, total_p, p) -> bool:
    """True only if the optimal duals prove that every matching which
    reports other pairs than the optimal row-complete matching M*,
    ``i -> cols[i]`` of ``reduced`` (m <= n), exceeds the optimal metric
    value ``total_p ** (1/p)`` by more than twice ``NEAR_TIE_ABS_TOL``;
    False means undecided.

    With feasible duals (u, v) and slacks S = C - u - v, a row-complete
    matching M' costs
        sum_{M'} S + sum_{j used by M* only} (-v_j) + sum_{j used by M' only} v_j
    more than M*, and every term is >= -eps.  A matching that reports
    other pairs moves some row i off cols[i] and thereby loses its own
    reported pair or gains one; column cols[i] then goes free (-v) or takes
    another row (S).  Those two terms bound the excess from below.
    """
    m, n = reduced.shape
    rows = np.arange(m)
    with np.errstate(over="ignore", invalid="ignore"):
        u, v = _duals_rows_complete(reduced, cols)
        S = reduced - u[:, None] - v[None, :]
        eps = 1e-9 * max(1.0, float(np.abs(reduced).max()))
        free = np.ones(n, dtype=bool)
        free[cols] = False
        # finite slacks imply finite duals
        if not (
            np.isfinite(S).all()
            and S.min() >= -eps
            and v.max() <= eps
            and (v[free] >= -eps).all()
        ):
            return False
        others = S.copy()
        others[rows, cols] = np.inf
        # L_j for j = cols[i]: column j goes free or takes another row
        L = np.minimum(-v[cols], others[:, cols].min(axis=0))
        # a row on a reported pair may move anywhere, others must gain one
        may_move = reported | reported[rows, cols][:, None]
        lb = float((L + np.where(may_move, others, np.inf).min(axis=1)).min())
        lb -= (m + n) * eps
        if not lb > 0.0:
            return False
        # widen both totals by their rounding before comparing the roots
        rel = 4.0 * (m + n) * np.finfo(float).eps
        lo = (total_p + lb) * (1.0 - rel)
        hi = total_p * (1.0 + rel)
        return bool(lo ** (1.0 / p) - hi ** (1.0 / p) > 2.0 * NEAR_TIE_ABS_TOL)


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

    ``detect_near_ties`` additionally reports whether a matching that
    reports other pairs comes within ``NEAR_TIE_ABS_TOL`` of the optimal
    metric value (the reported pairs and the decomposition then depend on
    the deterministic tie-break), up to ``LEX_REFINE_MAX`` per side and
    None above.  The dual bound of ``_no_near_tie`` decides "no" where it
    can; the re-solve loop of ``_second_best_total_p`` decides the rest.
    """
    base = BaseDistanceKind(base)
    if len(fx) and len(fy) and fx.dim != fy.dim:
        raise DimensionMismatchError(
            f"MB densities have dimensions {fx.dim} and {fy.dim}"
        )
    # the smaller side is x; ``swapped`` turns the pairs and terms back
    swapped = len(fx) > len(fy)
    a, b = (fy, fx) if swapped else (fx, fy)
    rx, ry = a.r, b.r
    nx, ny = len(rx), len(ry)
    p, c, alpha = params.p, params.c, params.alpha
    D = pairwise_base_distance(a, b, base, c=c)
    cpa = c**p / alpha
    with_decomposition = alpha == 2.0

    near_tie = None
    ry_cpa = ry * cpa
    if nx == 0:  # one matching only: the empty one
        pairs = gamma = ()
        total_p = false = float(ry_cpa.sum())
        loc = mism = missed = 0.0
        if detect_near_ties:
            near_tie = False
    else:
        loc_term, mis_term = _pair_terms(rx[:, None], ry[None, :], D, p, cpa)
        pair_cost = loc_term + mis_term
        reduced = pair_cost - ry_cpa[None, :]
        pairs = solve_assignment(reduced).pairs
        # every row is matched, in row order: pairs[i] = (i, cols[i]), the
        # entry at flat index at[i] of an nx x ny matrix
        cols = np.array([j for _, j in pairs], dtype=np.intp)
        at = np.arange(0, nx * ny, ny) + cols
        free = np.ones(ny, dtype=bool)
        free[cols] = False
        total_p = _left_sum(pair_cost.take(at)) + _left_sum(ry_cpa[free])
        if with_decomposition:
            shown = D.take(at) < c
            hidden = ~shown
            gamma = tuple(pair for pair, s in zip(pairs, shown.tolist()) if s)
            loc = _left_sum(loc_term.take(at[shown]))
            mism = _left_sum(mis_term.take(at[shown]))
            missed = _left_sum(rx[hidden] * cpa)
            # columns outside gamma: the free ones and those of hidden pairs
            free[cols[hidden]] = True
            false = _left_sum(ry_cpa[free])
        if detect_near_ties and max(nx, ny) <= LEX_REFINE_MAX:
            # for alpha = 2 only the pairs with d < c are reported
            reported = D < c if with_decomposition else np.ones(D.shape, bool)
            if _no_near_tie(reduced, cols, reported, total_p, p):
                near_tie = False
            else:
                second = _second_best_total_p(
                    reduced, pair_cost, ry, cpa, pairs, reported
                )
                if np.isfinite(second):
                    gap = second ** (1.0 / p) - total_p ** (1.0 / p)
                    near_tie = bool(gap <= NEAR_TIE_ABS_TOL)
                else:
                    near_tie = False

    total = float(total_p ** (1.0 / p))
    if not with_decomposition:
        gamma = pairs
        loc = mism = missed = false = None
    if swapped:
        gamma = tuple(sorted((j, i) for i, j in gamma))
        missed, false = false, missed
    return PGospaResult(
        total, gamma, loc, mism, missed, false, c, p, alpha, base.value, near_tie
    )


def gospa(x_points, y_points, params: MetricParams) -> PGospaResult:
    """GOSPA between finite point sets with the Euclidean base distance.

    By definition this is ``pgospa`` with the Euclidean base distance on
    the lifted MB densities (unit existence probabilities, Dirac densities
    at the points), which it calls; the existence-mismatch term is
    identically zero.  The lift validates the points (``SchemaError``) and
    ``pgospa`` their dimensions (``DimensionMismatchError``).
    """
    X = np.asarray(x_points, dtype=float)
    Y = np.asarray(y_points, dtype=float)
    if X.size == 0:
        X = X.reshape(0, Y.shape[1] if Y.ndim == 2 and Y.size else 0)
    if Y.size == 0:
        Y = Y.reshape(0, X.shape[1] if X.ndim == 2 and X.size else 0)
    return pgospa(_point_masses(X), _point_masses(Y), params, BaseDistanceKind.EUCLIDEAN)


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
