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

``_score_blocks`` is the one scoring core: from the existence vectors of
B pairs of MB densities and the padded (B, M, N) stack of their clipped
base-distance matrices it builds the costs in place over two grids,
solves each block's assignment, and sums each block's total and
decomposition.  One pass over the stack
(``assignment._single_dip_blocks``) decides every single-dip block in
closed form, whether the stack holds one block or many, and only the
blocks it declines go through ``solve_assignment``.
A stack without padding, as every one-block stack, builds no masks.
``_score`` is its one-block case, which adds the reported pairs and the
near-tie flag.  ``pgospa`` is the dimension check,
the orientation (``_oriented``: the smaller side first),
``pairwise_base_distance`` and ``_score``.  ``_score_pairs`` is the same
for a list of MB pairs, with one ``pairwise_blocks`` call and one
``_score_blocks`` call over all of them; the Monte Carlo run pass scores
all the steps of a run with it and its step loop one MB step at a time,
and ``mbm_pgospa``, ``eval`` and that step loop (``_mixture_totals``) the
entries of a mixture.  ``gospa`` evaluates point sets: its result is by
definition the metric above on the lifted MB densities (all existence
probabilities one, Dirac densities at the points) with the Euclidean
base distance, and it calls ``pgospa`` on exactly those.
Totals and terms are summed strictly left to right, in the order of the
matched pairs and then of the unmatched indices; padding, and entries
outside a sum, enter it as +0.0, which moves no bit of a sum of
non-negative terms.  There is one exception: against an empty MB the
total (all of it false detections) is ``np.sum`` of ry * c^p/alpha, which
adds pairwise, so from 8 components on its last bit may differ from a
left-to-right sum.  Each root is taken with Python's float power.  One
elementwise helper, ``_pair_terms``, is the pair cost of ``pgospa``, of
``bernoulli_pgospa`` (1 x 1, bit for bit) and of the ``sweep-example1`` grid.

The optional near-tie flag asks whether a matching that reports other
pairs comes within ``NEAR_TIE_ABS_TOL`` of the optimum.  Two lower bounds
on the excess of such a matching (``_no_near_tie``) answer "no" without
another solve whenever one clears twice that tolerance: on a block the
closed form decided, in which the matching holds every reported pair,
the depth of its shallowest reported dip; otherwise, or when that does
not clear, a bound from the optimal duals.  Every case they leave
undecided goes to ``_second_best_total_p``, which re-solves the
assignment once per matched pair with that pair forbidden.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .assignment import (
    LEX_REFINE_MAX,
    _TIE_REL_TOL,
    _duals_rows_complete,
    _left_sum,
    _single_dip_blocks,
    linear_sum_assignment,
    solve_assignment,
)
from .distances import BaseDistanceKind, base_distance, pairwise_base_distance, pairwise_blocks
from .model import (
    BernoulliComponent,
    DimensionMismatchError,
    MBDensity,
    MBMixture,
    MetricParams,
    SchemaError,
    _point_masses,
)

__all__ = ["PGospaResult", "bernoulli_pgospa", "pgospa", "gospa", "mbm_pgospa"]

NEAR_TIE_ABS_TOL = 1e-9

# report names of the alpha = 2 decomposition terms, in ``_Scores`` order
DECOMP_KEYS = ("localization", "existence_mismatch", "missed", "false")


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
        decomposition = None
        if self.localization is not None:
            terms = (self.localization, self.existence_mismatch, self.missed, self.false_det)
            decomposition = dict(zip(DECOMP_KEYS, terms))
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
        # scipy returns the rows sorted: the pairs in the order of ``alt``
        free = np.ones(n, dtype=bool)
        free[cid] = False
        total_p = _left_sum(pair_cost[rid, cid]) + _left_sum(ry[free] * cpa)
        if {pair for pair in alt if reported[pair]} != shown:
            best = min(best, total_p)
    return best


def _no_near_tie(reduced, cols, reported, total_p, p, decided=False) -> bool:
    """True only if every matching which reports other pairs than the
    optimal row-complete matching M*, ``i -> cols[i]`` of ``reduced``
    (m <= n), exceeds the optimal metric value ``total_p ** (1/p)`` by more
    than twice ``NEAR_TIE_ABS_TOL``; False means undecided.  ``decided``
    says that ``_single_dip_blocks`` decided ``reduced`` and M* is its
    closed form.

    Dip bound, on a decided block in which M* holds every reported pair.
    Every entry of such a block is within s = tol / (4 (m + n)) of its
    row's maximum top_i (tol as in ``_single_dip_blocks``) apart from the
    dips, and M* takes every dip.  Let depth_i = top_i - C[i, cols[i]].  A
    row that M' moves off cols[i] lands on an entry within s of top_i, so
    it adds at least depth_i - s >= -s to the excess of M' over M*.  A
    matching that reports other pairs can only drop a reported pair of M*,
    so it moves such a row, and its excess is at least the smallest depth
    of a reported row less m s.  A block without a reported pair has no
    other reported pairs to offer, and the bound is +inf.

    Dual bound, in every other case, and wherever the dip bound does not
    clear.  With feasible duals (u, v) and slacks S = C - u - v, a
    row-complete matching M' costs
        sum_{M'} S + sum_{j used by M* only} (-v_j) + sum_{j used by M' only} v_j
    more than M*, and every term is >= -eps.  A matching that reports
    other pairs moves some row i off cols[i] and thereby loses its own
    reported pair or gains one; column cols[i] then goes free (-v) or takes
    another row (S).  Those two terms bound the excess from below.

    Either bound is lowered by (m + n) eps for the rounding of the costs,
    eps = 1e-9 max(1, max |C|), and the two totals are widened by their
    rounding before their roots are compared.
    """
    m, n = reduced.shape
    rows = np.arange(m)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = max(1.0, float(np.abs(reduced).max()))
        eps = 1e-9 * scale
        kept = reported[rows, cols]
        if decided and np.count_nonzero(kept) == np.count_nonzero(reported):
            depth = reduced.max(axis=1) - reduced[rows, cols]
            lb = float(depth[kept].min(initial=np.inf))
            lb -= m * _TIE_REL_TOL * scale / (4 * (m + n))
            if _clears(lb, total_p, p, m + n, eps):
                return True
        return _clears(_dual_bound(reduced, cols, reported, eps), total_p, p, m + n, eps)


def _clears(lb, total_p, p, mn, eps) -> bool:
    """Whether a matching that costs at least ``lb`` more than ``total_p``,
    less ``mn`` eps for the rounding of the costs (mn = m + n), exceeds it by
    more than twice ``NEAR_TIE_ABS_TOL`` in root units, with both totals
    widened by their rounding."""
    lb -= mn * eps
    if not lb > 0.0:
        return False
    rel = 4.0 * mn * np.finfo(float).eps
    lo = (total_p + lb) * (1.0 - rel)
    hi = total_p * (1.0 + rel)
    return bool(lo ** (1.0 / p) - hi ** (1.0 / p) > 2.0 * NEAR_TIE_ABS_TOL)


def _dual_bound(reduced, cols, reported, eps) -> float:
    """The dual bound of ``_no_near_tie`` before its rounding margin, or
    -inf when the duals are not feasible within ``eps``."""
    m, n = reduced.shape
    rows = np.arange(m)
    u, v = _duals_rows_complete(reduced, cols)
    S = reduced - u[:, None] - v[None, :]
    free = np.ones(n, dtype=bool)
    free[cols] = False
    # finite slacks imply finite duals
    if not (
        np.isfinite(S).all()
        and S.min() >= -eps
        and v.max() <= eps
        and (v[free] >= -eps).all()
    ):
        return -np.inf
    others = S.copy()
    others[rows, cols] = np.inf
    # L_j for j = cols[i]: column j goes free or takes another row
    L = np.minimum(-v[cols], others[:, cols].min(axis=0))
    # a row on a reported pair may move anywhere, others must gain one
    may_move = reported | reported[rows, cols][:, None]
    return float((L + np.where(may_move, others, np.inf).min(axis=1)).min())


def _oriented(fx: MBDensity, fy: MBDensity) -> tuple:
    """``(a, b, swapped)``: the operands of one evaluation with the smaller
    side first, ``fx`` on equal sizes; raises on a dimension mismatch."""
    if len(fx) and len(fy) and fx.dim != fy.dim:
        raise DimensionMismatchError(
            f"MB densities have dimensions {fx.dim} and {fy.dim}"
        )
    swapped = len(fx) > len(fy)
    return (fy, fx, True) if swapped else (fx, fy, False)


def _padded(vectors, lengths, width) -> np.ndarray:
    """The 1-D arrays ``vectors`` as the rows of a (B, width) array, padded
    with +0.0."""
    out = np.zeros((len(vectors), width))
    out[np.arange(width) < lengths[:, None]] = np.concatenate(vectors)
    return out


class _Scores(NamedTuple):
    """What ``_score_blocks`` finds for B blocks: per block the metric value
    (a Python float) and its p-th power; for alpha = 2 the (4, B) terms in
    p-th-power units (localization, existence mismatch, missed, false) and
    which matched rows are reported (d < c), else None; the matched column
    of each row, the optimal pair list ``(i, cols[k, i])`` of block k; the
    pair costs and reduced costs of the stack; and which blocks
    ``_single_dip_blocks`` decided."""

    total: list
    total_p: np.ndarray
    terms: np.ndarray | None
    shown: np.ndarray | None
    cols: np.ndarray
    pair_cost: np.ndarray
    reduced: np.ndarray
    decided: np.ndarray


def _score_blocks(rx, ry, D, sizes, params: MetricParams) -> _Scores:
    """The metric of B blocks at once.  Block k scores the existence vectors
    ``rx[k]`` (m_k) and ``ry[k]`` (n_k), m_k <= n_k, with base distances
    ``D[k, :m_k, :n_k]`` clipped at c, where ``D`` is a padded (B, M, N)
    stack and ``sizes`` its (B, 2) block sizes, as from ``pairwise_blocks``.
    Missed and false detections are those of this orientation: a caller
    with the operands in the other order swaps them.

    The pair costs and reduced costs are built over the stack with the
    operations of ``_pair_terms`` in place, two (B, M, N) grids besides
    ``D``: the localization term into ``pair_cost``, the existence
    mismatch term into the second grid, their sum into ``pair_cost``, and
    the reduced costs into the second grid.  Each entry takes the
    operations of ``_pair_terms`` in their order, so it keeps their bits.
    ``pair_cost`` stays for the near-tie re-solve of ``_score``.
    ``_single_dip_blocks`` decides every single-dip block in one pass over
    the stack, one block or many, and only the non-empty blocks it
    declines are solved, one at a time, by ``solve_assignment``.  The
    matched pair costs are gathered with one index, and for alpha = 2 the
    two terms are taken by ``_pair_terms`` from ``rx``, ``ry`` and ``D``
    gathered at the matched pairs, the same operations on the same
    operands as in the grid.  The total and the terms are
    summed left to right along each block's rows or columns, the padding
    masked to +0.0, so each equals the sum over its own block.  A stack in
    which every block is full size, as every one-block stack, is not
    padded: its existence vectors are stacked as they are and no row or
    column mask is built.  A block with an empty side sums its total, all
    of it false detections, with ``np.sum``.  ``decided`` marks the blocks
    that the closed form decided."""
    B, M, N = D.shape
    m, n = sizes[:, 0], sizes[:, 1]
    p, c, alpha = params.p, params.c, params.alpha
    cpa = c**p / alpha
    blocks = sizes.tolist()
    if all(mk == M and nk == N for mk, nk in blocks):
        # nothing to mask: ``rows`` stands for an all-true (B, M) mask
        rx, ry, rows, free = np.array(rx), np.array(ry), True, np.ones((B, N), bool)
    else:
        rx, ry = _padded(rx, m, M), _padded(ry, n, N)
        rows, free = np.arange(M) < m[:, None], np.arange(N) < n[:, None]
    ry_cpa = ry * cpa
    # the operations of _pair_terms, in place over two grids besides D
    pair_cost = np.minimum(rx[:, :, None], ry[:, None, :])
    grid = D**p
    pair_cost *= grid
    np.subtract(rx[:, :, None], ry[:, None, :], out=grid)
    np.abs(grid, out=grid)
    grid *= cpa
    pair_cost += grid
    reduced = np.subtract(pair_cost, ry_cpa[:, None, :], out=grid)
    decided, cols = _single_dip_blocks(reduced, sizes)
    empty = []
    for k, (mk, nk) in enumerate(blocks):
        if not mk:
            empty.append(k)
        elif not decided[k]:
            cols[k, :mk] = [j for _, j in solve_assignment(reduced[k, :mk, :nk]).pairs]
    # every row is matched, in row order: row i of block k to column
    # cols[k, i], the entry at flat index at[k, i] of the stack and at
    # slot[k, i] of a (B, N) array
    step = max(N, 1)
    at = np.arange(0, B * M * step, step).reshape(B, M) + cols
    slot = np.arange(0, B * step, step)[:, None] + cols
    free.put(slot[rows], False)

    # Each sum runs strictly left to right along the last axis of its
    # slice of ``sums``: entries outside it, and padding, enter as +0.0,
    # which moves no bit of a sum of non-negative terms but the sign of a
    # zero, and ``+ 0.0`` undoes that, as in ``_left_sum``.
    decompose = alpha == 2.0
    shown = None
    sums = np.zeros((6 if decompose else 2, B, max(M, N, 1)))
    np.copyto(sums[0, :, :M], pair_cost.take(at), where=rows)
    np.copyto(sums[1, :, :N], ry_cpa, where=free)
    if decompose:
        matched = D.take(at)
        loc_term, mis_term = _pair_terms(rx, ry.take(slot), matched, p, cpa)
        shown = matched < c
        hidden = rows & ~shown
        shown &= rows
        np.copyto(sums[2, :, :M], loc_term, where=shown)
        np.copyto(sums[3, :, :M], mis_term, where=shown)
        np.copyto(sums[4, :, :M], rx * cpa, where=hidden)
        # columns outside gamma: the free ones and those of hidden pairs
        free.put(slot[hidden], True)
        np.copyto(sums[5, :, :N], ry_cpa, where=free)
    with np.errstate(over="ignore"):  # an overflow is inf, as with floats
        sums = np.add.accumulate(sums, axis=2)[:, :, -1] + 0.0
    total_p = sums[0] + sums[1]
    terms = sums[2:] if decompose else None
    for k in empty:
        total_p[k] = ry_cpa[k, : n[k]].sum()
        if decompose:
            terms[3, k] = total_p[k]
    total = [t ** (1.0 / p) for t in total_p.tolist()]
    return _Scores(total, total_p, terms, shown, cols, pair_cost, reduced, decided)


def _score(
    rx,
    ry,
    D,
    params: MetricParams,
    base: BaseDistanceKind,
    *,
    swapped: bool,
    detect_near_ties: bool = False,
) -> PGospaResult:
    """The metric of existence vectors ``rx`` (m) and ``ry`` (n), m <= n,
    with base distances ``D`` (m, n) clipped at c: the one-block case of
    ``_score_blocks``, with the reported pairs and the near-tie flag.
    ``swapped`` turns the pairs and terms back to operands given in the
    other order."""
    nx, ny = D.shape
    p, c, alpha = params.p, params.c, params.alpha
    scores = _score_blocks([rx], [ry], D[None], np.array([D.shape]), params)
    cols = scores.cols[0]
    pairs = tuple(zip(range(nx), cols.tolist()))
    total_p = float(scores.total_p[0])

    near_tie = None
    if detect_near_ties and nx == 0:  # one matching only: the empty one
        near_tie = False
    elif detect_near_ties and max(nx, ny) <= LEX_REFINE_MAX:
        # for alpha = 2 only the pairs with d < c are reported
        reported = D < c if alpha == 2.0 else np.ones(D.shape, bool)
        reduced = scores.reduced[0]
        if _no_near_tie(reduced, cols, reported, total_p, p, bool(scores.decided[0])):
            near_tie = False
        else:
            cpa = c**p / alpha
            second = _second_best_total_p(
                reduced, scores.pair_cost[0], ry, cpa, pairs, reported
            )
            # a second best of inf gives a gap of +inf, or of NaN: no near tie
            gap = second ** (1.0 / p) - total_p ** (1.0 / p)
            near_tie = bool(gap <= NEAR_TIE_ABS_TOL)

    if scores.terms is None:
        gamma = pairs
        loc = mism = missed = false = None
    else:
        gamma = tuple(pair for pair, s in zip(pairs, scores.shown[0].tolist()) if s)
        loc, mism, missed, false = scores.terms[:, 0].tolist()
    if swapped:
        gamma = tuple(sorted((j, i) for i, j in gamma))
        missed, false = false, missed
    return PGospaResult(
        scores.total[0], gamma, loc, mism, missed, false, c, p, alpha, base.value, near_tie
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
    alpha = 2, the four-way decomposition: the dimension check, the
    orientation, the clipped distance matrix, then ``_score``.

    ``detect_near_ties`` additionally reports whether a matching that
    reports other pairs comes within ``NEAR_TIE_ABS_TOL`` of the optimal
    metric value (the reported pairs and the decomposition then depend on
    the deterministic tie-break), up to ``LEX_REFINE_MAX`` per side and
    None above.  The dual bound of ``_no_near_tie`` decides "no" where it
    can; the re-solve loop of ``_second_best_total_p`` decides the rest.
    """
    base = BaseDistanceKind(base)
    a, b, swapped = _oriented(fx, fy)
    D = pairwise_base_distance(a, b, base, c=params.c)
    return _score(
        a.r, b.r, D, params, base, swapped=swapped, detect_near_ties=detect_near_ties
    )


def gospa(x_points, y_points, params: MetricParams) -> PGospaResult:
    """GOSPA between finite point sets with the Euclidean base distance.

    By definition this is ``pgospa`` with the Euclidean base distance on
    the lifted MB densities (unit existence probabilities, Dirac densities
    at the points), which it calls; the existence-mismatch term is
    identically zero.  An array without rows is the empty set, and one with
    rows but no coordinates a ``SchemaError``, as in ``eval``.  The lift
    validates the points (``SchemaError``) and ``pgospa`` their dimensions
    (``DimensionMismatchError``).
    """
    X = np.asarray(x_points, dtype=float)
    Y = np.asarray(y_points, dtype=float)
    if any(P.ndim > 1 and len(P) and not P.size for P in (X, Y)):
        raise SchemaError("'points' vectors must have at least one coordinate")
    if X.size == 0:
        X = X.reshape(0, Y.shape[1] if Y.ndim == 2 and Y.size else 0)
    if Y.size == 0:
        Y = Y.reshape(0, X.shape[1] if X.ndim == 2 and X.size else 0)
    return pgospa(_point_masses(X), _point_masses(Y), params, BaseDistanceKind.EUCLIDEAN)


def _score_pairs(pairs, params: MetricParams, base: BaseDistanceKind) -> tuple:
    """``pgospa``'s totals, bit for bit, of the MB pairs ``(x, y)`` in
    ``pairs``, and for alpha = 2 their (4, B) terms as in ``_Scores`` with x
    first in every pair, else None: each pair oriented in pair order, then
    one ``pairwise_blocks`` call and one ``_score_blocks`` call."""
    xs, ys, swapped = zip(*(_oriented(x, y) for x, y in pairs))
    D, sizes = pairwise_blocks(list(zip(xs, ys)), base, c=params.c)
    scores = _score_blocks([x.r for x in xs], [y.r for y in ys], D, sizes, params)
    terms = scores.terms
    if terms is not None:
        # a swapped pair has x second: missed and false change places
        terms[2:] = np.where(swapped, terms[[3, 2]], terms[2:])
    return scores.total, terms


def _mixture_totals(mix: MBMixture, ref: MBDensity, params, base) -> tuple:
    """``mbm_pgospa``'s value and the metric value of each mixture entry
    against ``ref``, in entry order, from one ``_score_pairs`` call."""
    if not isinstance(mix, MBMixture) or len(mix) == 0:
        raise ValueError("mixture must contain at least one entry")
    totals, _ = _score_pairs([(mb, ref) for _, mb in mix.entries], params, base)
    return float(sum(w * t for (w, _), t in zip(mix.entries, totals))), totals


def mbm_pgospa(
    mix: MBMixture,
    ref: MBDensity,
    params: MetricParams,
    base: BaseDistanceKind = BaseDistanceKind.W2,
) -> float:
    """Weighted sum of the metric between each mixture component and the
    reference MB density, in entry order."""
    return _mixture_totals(mix, ref, params, base)[0]
