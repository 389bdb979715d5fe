"""Exact rectangular linear assignment.

``solve_assignment`` matches every index of the smaller side of an m x n
cost matrix one-to-one into the larger side at globally minimal total
cost.  The optimum is found with scipy's shortest-augmenting-path solver,
which is imported on the first solve (``scipy.optimize`` costs a cold
process about 0.45 s).  A complementary-slackness refinement then
selects the lexicographically smallest optimal pair list in one walk over
the graph of tight edges, so results are reproducible when several
matchings tie.  The refinement runs for matrices up to
``LEX_REFINE_MAX`` on a side; beyond that the solver's (deterministic)
matching is returned directly.  Exact ties are not rare above that size:
for alpha = 2 a row with no pair within the cut-off costs the same in
every column, so all such saturated rows tie exactly at any size.  That
is why ``eval`` reports ``near_tie: null`` above it, and why the closed
form below stops there too.

A single-dip matrix, m <= n <= ``LEX_REFINE_MAX``, needs neither: every
row is flat apart from at most one entry clearly below the rest, and no
two rows dip in one column.  The alpha = 2 costs of ``metric`` have this
form whenever no component has more than one partner within the cut-off
c, since a pair at or beyond c costs what leaving both unmatched costs.
Its smallest optimal pair list is known in closed form, and 1 x 1
matrices are among them.  ``_single_dip_blocks`` decides it for every
block of a padded stack in one array pass, each block with the float
operations of the block on its own.  Its one caller is ``metric``'s
scoring core, which runs it on every stack, one block or many, and
solves only the blocks it declines; ``solve_assignment`` itself tries
no closed form.  The closed form stops at 64 per side because above
that the pairs scipy picks for the flat rows are the ones reported, and
they fix the last bits of the total.

``enumerate_assignment`` is an independent brute-force oracle over all
injections, limited to max(m, n) <= 8, applying the same tie-break rule.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["Assignment", "solve_assignment", "enumerate_assignment", "LEX_REFINE_MAX"]

LEX_REFINE_MAX = 64
ENUMERATE_MAX = 8
_TIE_REL_TOL = 1e-12


@dataclass(frozen=True)
class Assignment:
    """Pair list sorted by row index, plus the summed cost of the pairs."""

    pairs: tuple
    total_cost: float


def linear_sum_assignment(costs):
    """scipy's ``linear_sum_assignment``, imported on the first call.

    Callers look this name up in their module globals on every solve, so a
    wrapper set on ``assignment.linear_sum_assignment`` or
    ``metric.linear_sum_assignment`` sees each call."""
    from scipy.optimize import linear_sum_assignment as solve

    return solve(costs)


def _left_sum(values) -> float:
    """Sum of a 1-D array from 0.0 strictly left to right, the order
    Python's ``sum`` adds in (``np.sum`` adds pairwise, which moves the
    last bits).  Accumulating from the first value instead of from 0.0 can
    only change the sign of a zero partial sum, which ``+ 0.0`` undoes."""
    n = len(values)
    if n > 1:
        with np.errstate(over="ignore"):  # an overflow is inf, as with floats
            values = np.add.accumulate(values)
    return float(values[-1]) + 0.0 if n else 0.0


def _pairs_total(costs: np.ndarray, pairs) -> float:
    n = costs.shape[1]
    return _left_sum(costs.take([i * n + j for i, j in pairs]))


def _check_matrix(costs) -> np.ndarray:
    C = np.asarray(costs, dtype=float)
    if C.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got shape {C.shape}")
    if not np.isfinite(C).all():
        raise ValueError("cost matrix entries must be finite")
    return C


def solve_assignment(costs) -> Assignment:
    """Globally optimal matching of all min(m, n) rows/cols: scipy's
    solver, then the tie walk.

    Ties between optimal matchings are broken toward the lexicographically
    smallest pair list (guaranteed for max(m, n) <= LEX_REFINE_MAX).
    """
    C = _check_matrix(costs)
    m, n = C.shape
    if min(m, n) == 0:
        return Assignment((), 0.0)
    rid, cid = linear_sum_assignment(C)
    pairs = sorted(zip(rid.tolist(), cid.tolist()))
    if max(m, n) <= LEX_REFINE_MAX:
        pairs = _lex_refine(C, pairs)
    return Assignment(tuple(pairs), _pairs_total(C, pairs))


def _single_dip_blocks(C: np.ndarray, sizes: np.ndarray) -> tuple:
    """Which blocks ``C[k, :m_k, :n_k]`` of a padded (B, M, N) stack, with
    ``sizes[k] = (m_k, n_k)``, are finite single-dip matrices with
    0 < m_k <= n_k <= ``LEX_REFINE_MAX``, as a (B,) mask, and for those
    blocks the matched column of each row of their smallest optimal pair
    lists, ``cols[k, :m_k]`` of a (B, M) array.

    In a single-dip matrix every row is flat (within tol / (4 (m + n)) of
    its maximum, tol as in ``_lex_refine``) apart from at most one entry
    more than 1e3 (m + n) tol below it, and no two such dips share a
    column.  Every optimum takes all dips, and the other rows tie wherever
    they go, so the smallest pair list gives them the remaining columns in
    increasing order: the pairs ``_lex_refine`` picks from any optimum.
    Each block takes the float operations of a matrix on its own, over its
    own entries only; the padding enters no test.  A stack with no block
    of an eligible size is declined before any pass over its entries, and
    a stack without padding builds no masks."""
    B, M, N = C.shape
    m, n = sizes[:, 0], sizes[:, 1]
    decided = (0 < m) & (m <= n) & (n <= LEX_REFINE_MAX)
    cols = np.zeros((B, M), dtype=np.intp)
    if not decided.any():
        return decided, cols
    mn = (m + n)[:, None, None]
    padded = bool((m < M).any() or (n < N).any())
    if padded:
        real_rows = np.arange(M) < m[:, None]
        real_cols = np.arange(N) < n[:, None]
        real = real_rows[:, :, None] & real_cols[:, None, :]
    with np.errstate(all="ignore"):  # empty and non-finite blocks are declined
        if padded:
            big = np.where(real, np.abs(C), 0.0).max(axis=(1, 2), keepdims=True, initial=0.0)
            top = np.where(real_cols[:, None, :], C, -np.inf)
            top = top.max(axis=2, keepdims=True, initial=-np.inf)
        else:
            big = np.abs(C).max(axis=(1, 2), keepdims=True, initial=0.0)
            top = C.max(axis=2, keepdims=True, initial=-np.inf)
        tol = _TIE_REL_TOL * np.maximum(1.0, big)
        gap = top - C
        low = gap > 1e3 * mn * tol
        tested = low | (gap <= tol / (4 * mn))
    if padded:
        low &= real
        tested |= ~real
    decided &= np.isfinite(big.reshape(B)) & tested.all(axis=(1, 2))
    if not decided.any():
        return decided, cols
    per_row, per_col = low.sum(axis=2), low.sum(axis=1)
    decided &= np.maximum(per_row.max(axis=1), per_col.max(axis=1)) <= 1
    cols = low.argmax(axis=2)  # the column of each row's one dip
    # the r-th flat row of a block takes its r-th free column
    kept = decided[:, None]
    flat_rows, free = (per_row == 0) & kept, (per_col == 0) & kept
    if padded:
        flat_rows &= real_rows
        free &= real_cols
    free &= free.cumsum(axis=1) <= flat_rows.sum(axis=1, keepdims=True)
    cols[flat_rows] = np.nonzero(free)[1]
    return decided, cols


def enumerate_assignment(costs) -> Assignment:
    """Brute-force optimal matching over all injections (max side <= 8)."""
    C = _check_matrix(costs)
    m, n = C.shape
    if max(m, n) > ENUMERATE_MAX:
        raise ValueError(f"enumeration limited to max(m, n) <= {ENUMERATE_MAX}")
    if min(m, n) == 0:
        return Assignment((), 0.0)
    tol = _TIE_REL_TOL * max(1.0, float(np.abs(C).max()) * min(m, n))

    if m <= n:
        P = _perm_array(n, m)
        totals = C[np.arange(m)[None, :], P].sum(axis=1)
        tmin = float(totals.min())
        # iteration order of permutations is the lexicographic order of the
        # pair lists, so the first near-minimal index is the tie-break winner
        idx = int(np.flatnonzero(totals <= tmin + tol)[0])
        pairs = tuple((i, int(P[idx, i])) for i in range(m))
        return Assignment(pairs, _pairs_total(C, pairs))

    P = _perm_array(n, n)
    blocks = []
    tmin = np.inf
    for rows_sel in itertools.combinations(range(m), n):
        rs = np.array(rows_sel)
        totals = C[rs[:, None], P.T].sum(axis=0)
        blocks.append((rows_sel, totals))
        tmin = min(tmin, float(totals.min()))
    best_pairs = None
    for rows_sel, totals in blocks:
        for idx in np.flatnonzero(totals <= tmin + tol):
            pairs = tuple(zip(rows_sel, (int(j) for j in P[idx])))
            if best_pairs is None or pairs < best_pairs:
                best_pairs = pairs
    return Assignment(best_pairs, _pairs_total(C, best_pairs))


@lru_cache(maxsize=None)
def _perm_array(n: int, k: int) -> np.ndarray:
    perms = list(itertools.permutations(range(n), k))
    return np.array(perms, dtype=np.intp).reshape(len(perms), k)


# ---------------------------------------------------------------------------
# Lexicographic tie-break refinement.
#
# From an optimal matching we build dual potentials (u, v) by Bellman
# relaxation of the complementary-slackness constraints.  The optimal
# matchings are then exactly the matchings that use only tight edges
# (zero reduced cost) and saturate every strictly-negative potential on
# the slack side (Kuhn, "The Hungarian method for the assignment problem",
# 1955).  Padding the smaller side with dummies that may take exactly the
# indices an optimum may leave unmatched turns these into the perfect
# matchings of a square graph.  Dummies sort after real indices, so the
# lexicographically smallest perfect matching there, restricted to real
# pairs, is the lexicographically smallest optimal pair list: each row in
# turn takes the smallest column it can reach by an alternating cycle
# through the rows after it.


def _duals_rows_complete(C: np.ndarray, sigma: np.ndarray):
    """Feasible complementary duals for an optimal row-complete matching."""
    m, n = C.shape
    base = C[np.arange(m), sigma]
    v = np.zeros(n)
    for _ in range(n + 2):
        cand = ((v[sigma] - base)[:, None] + C).min(axis=0)
        new_v = np.minimum(v, cand)
        if np.array_equal(new_v, v):
            break
        v = new_v
    u = base - v[sigma]
    return u, v


def _lex_refine(C: np.ndarray, base_pairs: list) -> list:
    """Lexicographically smallest optimal pair list, from the optimal
    ``base_pairs`` (or ``base_pairs`` when the tie graph is inconsistent)."""
    m, n = C.shape
    k = min(m, n)
    rows, cols = np.array(base_pairs, dtype=np.intp).T
    if m <= n:
        u, v = _duals_rows_complete(C, cols)
    else:
        # duals on the transpose: first component runs over original columns
        v, u = _duals_rows_complete(C.T, rows[np.argsort(cols)])

    scale = max(1.0, float(np.abs(C).max()))
    tol = _TIE_REL_TOL * scale
    tight = (C - u[:, None] - v[None, :]) <= tol
    tight[rows, cols] = True
    if tight.sum() == k:  # only the base edges are tight: a unique optimum
        return list(base_pairs)

    # Square graph: dummy rows m.. (when m < n) may take the columns with
    # v >= -tol, dummy columns n.. (when m > n) the rows with u >= -tol.
    N = max(m, n)
    adj = np.zeros((N, N), dtype=bool)
    adj[:m, :n] = tight
    adj[m:, :n] = v >= -tol
    adj[:m, n:] = (u >= -tol)[:, None]
    match = np.empty(N, dtype=np.intp)
    match[rows] = cols
    taken = np.zeros((2, N), dtype=bool)
    taken[0, rows] = taken[1, cols] = True
    free_rows, free_cols = np.flatnonzero(~taken[0]), np.flatnonzero(~taken[1])
    if not adj[free_rows, free_cols].all():
        return list(base_pairs)
    match[free_rows] = free_cols
    owner = np.empty(N, dtype=np.intp)
    owner[match] = np.arange(N)

    for r in range(m):
        t = match[r]
        if not adj[r, :t].any():
            continue
        # Breadth-first search back from t over the columns of later rows:
        # nxt[j] is the column the owner of j moves to on a path freeing t.
        nxt = np.full(N, -1, dtype=np.intp)
        nxt[t] = t
        later = owner > r
        frontier = np.array([t])
        while frontier.size:
            cand = np.flatnonzero(later & (nxt < 0))
            hits = adj[owner[cand]][:, frontier]
            got = hits.any(axis=1)
            nxt[cand[got]] = frontier[hits[got].argmax(axis=1)]
            frontier = cand[got]
        j = int(np.flatnonzero(adj[r] & (nxt >= 0))[0])
        # rotate: r takes j, the owner of each path column takes the next
        row = r
        while j != t:
            prev = owner[j]
            match[row], owner[j] = j, row
            row, j = prev, nxt[j]
        match[row], owner[t] = t, row

    chosen = [(r, int(match[r])) for r in range(m) if match[r] < n]
    # keep the refinement only if it is still optimal within tie tolerance
    if abs(_pairs_total(C, chosen) - _pairs_total(C, base_pairs)) > tol * max(1, k) * 4:
        return list(base_pairs)
    return chosen
