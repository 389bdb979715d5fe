"""Independent verification machinery for the metric implementation.

The two brute-force evaluators re-derive the metric by exhaustive search
(over permutations, and over assignment sets for alpha = 2) instead of an
assignment solver, sharing only the base-distance computation with the
production path.  The transport oracles evaluate the metric's optimal
transport characterization directly: ``bernoulli_ot_dirac`` solves the
four-atom coupling problem between two Dirac Bernoulli densities both in
closed form and by vertex enumeration of the constraint polytope (the two
must agree), and ``bernoulli_ot_grid`` discretizes Gaussian Bernoulli
densities onto a grid and solves the induced discrete transport problem
exactly as a linear program, yielding a lower bound (up to the reported
discretization slack) on the metric's p-th power.  ``scipy.stats``, which
the grid needs for the Gaussian densities and tails, is imported on the
first ``bernoulli_ot_grid`` call, so importing the package does not load it.

``qospa_base`` implements an alternative existence-weighted base distance
for comparison; it fails the definiteness property (identical inputs with
r < 1 give a nonzero value), which the test suite reproduces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .distances import BaseDistanceKind, pairwise_base_distance
from .model import (
    BernoulliComponent,
    GaussianDensity,
    MBDensity,
    MetricParams,
)

__all__ = [
    "TransportPlan",
    "GridDensity",
    "GridOTResult",
    "brute_force_pgospa",
    "brute_force_assignment_sets",
    "bernoulli_ot_dirac",
    "bernoulli_ot_grid",
    "qospa_base",
]

BRUTE_FORCE_MAX = 7
ASSIGNMENT_SETS_MAX = 10
GRID_MIN_RESOLUTION = 10
GRID_MAX_RESOLUTION_2D = 48
GRID_HALF_WIDTH_SIGMAS = 6.0


def brute_force_pgospa(
    fx: MBDensity,
    fy: MBDensity,
    params: MetricParams,
    base: BaseDistanceKind = BaseDistanceKind.W2,
) -> float:
    """Exhaustive minimum over all permutations of the larger side."""
    swapped = len(fx) > len(fy)
    a, b = (fy, fx) if swapped else (fx, fy)
    nx, ny = len(a), len(b)
    if max(nx, ny) > BRUTE_FORCE_MAX:
        raise ValueError(f"brute force limited to max(n_X, n_Y) <= {BRUTE_FORCE_MAX}")
    p, c, alpha = params.p, params.c, params.alpha
    cpa = c**p / alpha
    if ny == 0:
        return 0.0
    ry = b.existence
    if nx == 0:
        return float(((ry * cpa).sum()) ** (1.0 / p))
    rx = a.existence
    D = pairwise_base_distance(a, b, base)
    Dc = np.minimum(D, c)
    pair_cost = np.minimum(rx[:, None], ry[None, :]) * Dc**p + np.abs(
        rx[:, None] - ry[None, :]
    ) * cpa
    P = _k_perms(ny, ny)
    totals = pair_cost[np.arange(nx)[None, :], P[:, :nx]].sum(axis=1)
    if nx < ny:
        totals = totals + (ry[P[:, nx:]] * cpa).sum(axis=1)
    return float(float(totals.min()) ** (1.0 / p))


def brute_force_assignment_sets(
    fx: MBDensity,
    fy: MBDensity,
    params: MetricParams,
    base: BaseDistanceKind = BaseDistanceKind.W2,
):
    """Exhaustive minimum over all assignment sets for alpha = 2.

    Every partial one-to-one pairing gamma between component indices is
    scored as the sum of matched-pair terms (with the *uncut* base
    distance) plus c^p/2 times the unmatched existence mass on both sides.
    Returns ``(value, gamma)`` with deterministic lexicographic
    tie-breaking on gamma.
    """
    if params.alpha != 2.0:
        raise ValueError("assignment-set evaluation is defined for alpha = 2")
    nx, ny = len(fx), len(fy)
    if nx + ny > ASSIGNMENT_SETS_MAX:
        raise ValueError(
            f"assignment-set enumeration limited to n_X + n_Y <= {ASSIGNMENT_SETS_MAX}"
        )
    p, c = params.p, params.c
    cp2 = c**p / 2.0
    rx = fx.existence
    ry = fy.existence
    unmatched_all = float((rx * cp2).sum() + (ry * cp2).sum())
    if nx == 0 or ny == 0:
        return float(max(unmatched_all, 0.0) ** (1.0 / p)), ()

    D = pairwise_base_distance(fx, fy, base)
    pair_term = np.minimum(rx[:, None], ry[None, :]) * D**p + np.abs(
        rx[:, None] - ry[None, :]
    ) * cp2

    best_val = unmatched_all  # gamma = {} candidate
    best_gamma = ()
    tol = 1e-12 * max(1.0, abs(best_val))
    for k in range(1, min(nx, ny) + 1):
        cols = _k_perms(ny, k)
        for rows_sel in itertools.combinations(range(nx), k):
            rs = np.array(rows_sel)
            matched = pair_term[rs[:, None], cols.T].sum(axis=0)
            unmatched = (
                unmatched_all
                - float((rx[rs] * cp2).sum())
                - (ry[cols] * cp2).sum(axis=1)
            )
            vals = matched + unmatched
            vmin = float(vals.min())
            if vmin < best_val - tol:
                best_val = vmin
                best_gamma = None
                tol = 1e-12 * max(1.0, abs(best_val))
            if vmin <= best_val + tol:
                for idx in np.flatnonzero(vals <= best_val + tol):
                    gamma = tuple(zip(rows_sel, (int(j) for j in cols[int(idx)])))
                    if best_gamma is None or gamma < best_gamma:
                        best_gamma = gamma
    return float(max(best_val, 0.0) ** (1.0 / p)), best_gamma


@lru_cache(maxsize=None)
def _k_perms(n: int, k: int) -> np.ndarray:
    perms = list(itertools.permutations(range(n), k))
    return np.array(perms, dtype=np.intp).reshape(len(perms), k)


@dataclass(frozen=True)
class TransportPlan:
    """Masses on the four atoms (empty, empty), ({x}, empty), (empty, {y}),
    ({x}, {y}) of a coupling between two Dirac Bernoulli densities."""

    q_ee: float
    q_xe: float
    q_ey: float
    q_xy: float

    def total_mass(self) -> float:
        return self.q_ee + self.q_xe + self.q_ey + self.q_xy

    def check_marginals(self, rx: float, ry: float, tol: float = 1e-12) -> bool:
        ok = (
            min(self.q_ee, self.q_xe, self.q_ey, self.q_xy) >= -tol
            and abs(self.total_mass() - 1.0) <= tol
            and abs(self.q_ee + self.q_ey - (1.0 - rx)) <= tol
            and abs(self.q_ee + self.q_xe - (1.0 - ry)) <= tol
        )
        return bool(ok)

    def cost(self, d_pair: float, cpa: float) -> float:
        return self.q_xy * d_pair + (self.q_xe + self.q_ey) * cpa


def _dirac_plan(rx: float, ry: float, q_ee: float) -> TransportPlan:
    return TransportPlan(
        q_ee=q_ee,
        q_xe=(1.0 - ry) - q_ee,
        q_ey=(1.0 - rx) - q_ee,
        q_xy=rx + ry - 1.0 + q_ee,
    )


def bernoulli_ot_dirac(rx: float, x, ry: float, y, params: MetricParams) -> float:
    """p-Wasserstein distance between two Dirac Bernoulli densities, with
    the set-metric cost, via the four-atom transport problem.

    The polytope of feasible couplings is a segment parameterized by the
    both-empty mass; the optimum is evaluated both by enumerating the two
    segment endpoints and by the closed form that puts the both-empty
    mass at 1 - max(rx, ry).  The two routes must agree.
    """
    for r in (rx, ry):
        if not (np.isfinite(r) and 0.0 <= r <= 1.0):
            raise ValueError(f"existence probability out of range (r={r!r})")
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.shape != y.shape:
        raise ValueError("Dirac locations must share a dimension")
    p, c, alpha = params.p, params.c, params.alpha
    cpa = c**p / alpha
    diff = x - y
    d = float(np.sqrt((diff * diff).sum()))
    d_pair = min(d, c) ** p

    lo = max(0.0, 1.0 - rx - ry)
    hi = 1.0 - max(rx, ry)
    vertex_vals = []
    for t in (lo, hi):
        plan = _dirac_plan(rx, ry, t)
        if not plan.check_marginals(rx, ry, tol=1e-9):
            raise RuntimeError(f"infeasible transport plan at q_ee={t!r}")
        vertex_vals.append(plan.cost(d_pair, cpa))
    value_vertex = min(vertex_vals)
    value_closed = min(rx, ry) * d_pair + abs(rx - ry) * cpa
    if abs(value_vertex - value_closed) > 1e-9 * max(1.0, abs(value_closed)):
        raise RuntimeError(
            "transport vertex enumeration disagrees with the closed form: "
            f"{value_vertex!r} vs {value_closed!r}"
        )
    return float(value_closed ** (1.0 / p))


@dataclass(frozen=True)
class GridDensity:
    """Discretization of a density: support points with weights summing to 1."""

    support: np.ndarray  # (n, D)
    weights: np.ndarray  # (n,)
    cell_halfdiag: float
    tail_mass: float

    def __post_init__(self):
        s = float(self.weights.sum())
        if abs(s - 1.0) > 1e-9:
            raise ValueError(f"grid weights sum to {s!r}, expected 1")


@dataclass(frozen=True)
class GridOTResult:
    """Discrete transport value between two Bernoulli densities.

    ``value_p`` is the transport objective in p-th-power units and
    ``value`` its p-th root; ``eps_grid`` is a first-order bound on the
    discretization slack of ``value_p`` (cell displacement plus truncated
    tails), which halves when the resolution doubles.
    """

    value: float
    value_p: float
    eps_grid: float
    resolution: int


def _discretize_gaussian(g: GaussianDensity, resolution: int) -> GridDensity:
    # scipy.stats costs about 0.6 s to import and only the grid oracle uses
    # it, so it is loaded here rather than with the package
    from scipy.stats import multivariate_normal, norm

    dim = g.dim
    var = np.clip(np.diag(g.cov), 0.0, None)
    std = np.maximum(np.sqrt(var), 1e-9)
    half = GRID_HALF_WIDTH_SIGMAS * std
    h = 2.0 * half / resolution
    axes = [
        g.mean[k] - half[k] + (np.arange(resolution) + 0.5) * h[k]
        for k in range(dim)
    ]
    if dim == 1:
        pts = axes[0][:, None]
    else:
        grid = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([gg.ravel() for gg in grid], axis=1)
    pdf = multivariate_normal(mean=g.mean, cov=g.cov, allow_singular=True).pdf(
        pts if dim > 1 else pts[:, 0]
    )
    w = np.asarray(pdf, dtype=float) * float(np.prod(h))
    s = float(w.sum())
    if s <= 0.0:
        raise ValueError("grid too coarse: discretized mass vanished")
    w = w / s
    tail = 2.0 * dim * float(norm.sf(GRID_HALF_WIDTH_SIGMAS))
    return GridDensity(pts, w, float(np.linalg.norm(h / 2.0)), tail)


LP_FEAS_TOL = 1e-9


def _band_arcs(dist: np.ndarray, cpow: float, p: float) -> tuple:
    """Source -> sink arcs at cost dist^p for every pair within c; the pairs
    beyond c are left to the hub."""
    ns = dist.shape[0]
    bi, bj = np.nonzero(dist < cpow ** (1.0 / p))
    return bi, ns + bj, dist[bi, bj] ** p


def _line_arcs(xs: np.ndarray, xt: np.ndarray) -> tuple:
    """Arcs both ways between consecutive points of the merged 1-D sources
    ``xs`` and sinks ``xt``, at cost their gap: shortest paths over them
    cost |x - y|, so for p = 1 they give the optimum of ``_band_arcs`` with
    O(n) arcs instead of O(n^2)."""
    x = np.concatenate([xs, xt])
    order = np.argsort(x, kind="stable")
    gaps = np.diff(x[order])
    a, b = order[:-1], order[1:]
    return np.concatenate([a, b]), np.concatenate([b, a]), np.concatenate([gaps, gaps])


def _transport_lp(arcs: tuple, cpow: float, cpa: float, supply: np.ndarray,
                  demand: np.ndarray, slack_mass: float) -> float:
    """Exact LP value of the transport instance with costs
    min(dist, c)^p to real sinks and cpa to the empty sink.

    Nodes 0..ns-1 are the sources and ns..ns+nt-1 the sinks; ``arcs`` is
    ``(tail, head, cost)`` over those nodes, from ``_band_arcs`` or, for
    1-D grids at p = 1, ``_line_arcs``.  Arcs whose cost saturates at c^p
    are interchangeable, so they are routed through a single hub node
    (source -> hub at c^p, hub -> sink at zero); this preserves the
    optimum exactly and shrinks the LP by the saturated fraction.
    """
    ns, nt = len(supply), len(demand)
    tail, head, arc_cost = arcs
    nb = len(tail)
    use_empty = slack_mass > 0.0
    nvar = nb + ns + nt + (ns if use_empty else 0)
    cost = np.empty(nvar)
    cost[:nb] = arc_cost
    cost[nb : nb + ns] = cpow
    cost[nb + ns : nb + ns + nt] = 0.0
    if use_empty:
        cost[nb + ns + nt :] = cpa
    # node balance rows 0..ns+nt-1: outflow minus inflow equals the supply
    # at a source, inflow minus outflow the demand at a sink
    sign = np.where(np.arange(ns + nt) < ns, 1.0, -1.0)
    rows, cols, vals = [], [], []
    rows.append(tail); cols.append(np.arange(nb)); vals.append(sign[tail])
    rows.append(head); cols.append(np.arange(nb)); vals.append(-sign[head])
    rows.append(np.arange(ns)); cols.append(nb + np.arange(ns)); vals.append(np.ones(ns))
    if use_empty:
        rows.append(np.arange(ns)); cols.append(nb + ns + nt + np.arange(ns)); vals.append(np.ones(ns))
    rows.append(ns + np.arange(nt)); cols.append(nb + ns + np.arange(nt)); vals.append(np.ones(nt))
    # hub balance row
    rows.append(np.full(ns, ns + nt)); cols.append(nb + np.arange(ns)); vals.append(np.ones(ns))
    rows.append(np.full(nt, ns + nt)); cols.append(nb + ns + np.arange(nt)); vals.append(-np.ones(nt))
    nrow = ns + nt + 1
    b_eq = np.concatenate([supply, demand, [0.0]])
    if use_empty:
        rows.append(np.full(ns, ns + nt + 1)); cols.append(nb + ns + nt + np.arange(ns)); vals.append(np.ones(ns))
        nrow += 1
        b_eq = np.concatenate([b_eq, [slack_mass]])
    A = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nrow, nvar),
    )
    res = linprog(
        cost,
        A_eq=A[:-1],  # one balance row is redundant
        b_eq=b_eq[:-1],
        bounds=(0, None),
        method="highs-ipm",
        options={
            "primal_feasibility_tolerance": LP_FEAS_TOL,
            "dual_feasibility_tolerance": LP_FEAS_TOL,
        },
    )
    if res.status != 0:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)


def bernoulli_ot_grid(
    bx: BernoulliComponent,
    by: BernoulliComponent,
    params: MetricParams,
    resolution: int = 200,
) -> GridOTResult:
    """Discrete transport value between Gaussian Bernoulli densities.

    Each Gaussian is discretized to cell centers over +-6 sigma per axis;
    the coupling over {empty} union grid atoms is then solved exactly as a
    linear program.  The both-empty mass can always be taken as
    1 - max(rx, ry), which reduces the problem to a balanced
    transportation instance from the higher-existence side to the other
    side plus an empty sink.
    """
    for b in (bx, by):
        if not isinstance(b.density, GaussianDensity):
            raise ValueError("grid transport requires Gaussian densities")
        if b.density.dim > 2:
            raise ValueError("grid transport supports 1-D and 2-D states only")
    if resolution < GRID_MIN_RESOLUTION:
        raise ValueError(f"grid too coarse: resolution must be >= {GRID_MIN_RESOLUTION}")
    if bx.density.dim == 2 and resolution > GRID_MAX_RESOLUTION_2D:
        raise ValueError(
            f"2-D grid resolution capped at {GRID_MAX_RESOLUTION_2D} per axis"
        )
    p, c, alpha = params.p, params.c, params.alpha
    cpa = c**p / alpha

    if bx.r >= by.r:
        src, snk = bx, by
    else:
        src, snk = by, bx
    gs = _discretize_gaussian(src.density, resolution)
    gt = _discretize_gaussian(snk.density, resolution)

    supply = src.r * gs.weights
    demand = snk.r * gt.weights
    if gs.support.shape[1] == 1 and p == 1.0:
        arcs = _line_arcs(gs.support[:, 0], gt.support[:, 0])
    else:
        diff = gs.support[:, None, :] - gt.support[None, :, :]
        arcs = _band_arcs(np.sqrt((diff * diff).sum(-1)), c**p, p)
    value_p = _transport_lp(arcs, c**p, cpa, supply, demand, src.r - snk.r)

    max_cost = max(c**p, cpa)
    eps_move = p * c ** (p - 1.0) * (gs.cell_halfdiag + gt.cell_halfdiag)
    eps_tail = 2.0 * (gs.tail_mass + gt.tail_mass) * max_cost
    # LP feasibility tolerance allows a little mass misplacement per row
    eps_solver = LP_FEAS_TOL * (len(supply) + len(demand) + 2) * max_cost
    eps_grid = float(eps_move + eps_tail + eps_solver)
    return GridOTResult(
        value=float(max(value_p, 0.0) ** (1.0 / p)),
        value_p=value_p,
        eps_grid=eps_grid,
        resolution=resolution,
    )


def qospa_base(x, y, rx: float, ry: float, params: MetricParams) -> float:
    """Existence-weighted point distance rx*ry*min(d, c) + (1 - rx*ry)*c.

    Kept for comparison only: it is not definite (x == y with rx == ry < 1
    still yields a positive value).
    """
    for r in (rx, ry):
        if not (np.isfinite(r) and 0.0 <= r <= 1.0):
            raise ValueError(f"existence probability out of range (r={r!r})")
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.shape != y.shape:
        raise ValueError("locations must share a dimension")
    diff = x - y
    d = float(np.sqrt((diff * diff).sum()))
    return float(rx * ry * min(d, params.c) + (1.0 - rx * ry) * params.c)
