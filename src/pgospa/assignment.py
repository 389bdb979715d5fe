"""Exact rectangular linear assignment.

``solve_assignment`` matches every index of the smaller side of an m x n
cost matrix one-to-one into the larger side at globally minimal total
cost.  The optimum is found with scipy's shortest-augmenting-path solver;
a complementary-slackness refinement then selects the lexicographically
smallest optimal pair list in one walk over the graph of tight edges, so
results are reproducible when several matchings tie.  The refinement runs
for matrices up to ``LEX_REFINE_MAX`` on a side; beyond that the solver's
(deterministic) matching is returned directly, since exact ties are a
measure-zero event for real-valued costs at that scale.  A 1 x 1 matrix
has one matching and is not refined.

``enumerate_assignment`` is an independent brute-force oracle over all
injections, limited to max(m, n) <= 8, applying the same tie-break rule.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import linear_sum_assignment

__all__ = ["Assignment", "solve_assignment", "enumerate_assignment", "LEX_REFINE_MAX"]

LEX_REFINE_MAX = 64
ENUMERATE_MAX = 8
_TIE_REL_TOL = 1e-12


@dataclass(frozen=True)
class Assignment:
    """Pair list sorted by row index, plus the summed cost of the pairs."""

    pairs: tuple
    total_cost: float


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
    """Globally optimal matching of all min(m, n) rows/cols.

    Ties between optimal matchings are broken toward the lexicographically
    smallest pair list (guaranteed for max(m, n) <= LEX_REFINE_MAX).
    """
    C = _check_matrix(costs)
    m, n = C.shape
    if min(m, n) == 0:
        return Assignment((), 0.0)
    rid, cid = linear_sum_assignment(C)
    pairs = sorted(zip(rid.tolist(), cid.tolist()))
    if 1 < max(m, n) <= LEX_REFINE_MAX:
        pairs = _lex_refine(C, pairs)
    return Assignment(tuple(pairs), _pairs_total(C, pairs))


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
    free_rows = np.setdiff1d(np.arange(N), rows)
    free_cols = np.setdiff1d(np.arange(N), cols)
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
