"""Reduced-sample property suites for the command-line self check.

Four sampled suites check the paper's claims: the metric axioms, agreement
with both brute-force oracles together with the decomposition identity,
the Bernoulli transport lemma, and exact assignment.  Each suite is a
function that draws one seeded random instance and returns its violation
record (a ``reason`` and the serialized instance that reproduces it) or
None.  The table in ``run_selfcheck`` is the one place that names each
check and gives its random stream and sample count; a suite stops at its
first violation.  A fixed Q-OSPA witness then shows why definiteness
matters: Q-OSPA's base distance between two identical Bernoulli components
is positive, P-GOSPA's is zero.  The assignment suite accepts a pluggable
solver so a deliberately faulty solver can be injected to demonstrate
that the harness catches violations.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .assignment import Assignment, enumerate_assignment, solve_assignment
from .metric import bernoulli_pgospa, pgospa
from .model import (
    BernoulliComponent,
    DiracDensity,
    GaussianDensity,
    MBDensity,
    MetricParams,
    mb_to_dict,
)
from .oracles import (
    bernoulli_ot_dirac,
    brute_force_assignment_sets,
    brute_force_pgospa,
    qospa_base,
)

__all__ = ["run_selfcheck", "faulty_solver", "random_gaussian", "random_mb", "random_params"]


def random_gaussian(rng: np.random.Generator, dim: int) -> GaussianDensity:
    mean = rng.uniform(-10.0, 10.0, size=dim)
    A = rng.normal(0.0, 1.0, size=(dim, dim))
    cov = A @ A.T + 0.05 * np.eye(dim)
    return GaussianDensity(mean, cov)


def random_density(rng: np.random.Generator, dim: int):
    if rng.random() < 0.3:
        return DiracDensity(rng.uniform(-10.0, 10.0, size=dim))
    return random_gaussian(rng, dim)


def random_mb(rng: np.random.Generator, max_n: int, dim: int, min_n: int = 0) -> MBDensity:
    n = int(rng.integers(min_n, max_n + 1))
    return MBDensity(
        [
            BernoulliComponent(float(rng.uniform(0.05, 1.0)), random_density(rng, dim))
            for _ in range(n)
        ]
    )


def random_params(rng: np.random.Generator, alpha: float | None = None) -> MetricParams:
    """Random c and p, and a random alpha unless one is given."""
    return MetricParams(
        c=float(rng.uniform(0.5, 10.0)),
        p=float(rng.choice([1.0, 2.0])),
        alpha=float(rng.uniform(0.05, 2.0)) if alpha is None else alpha,
    )


def faulty_solver(costs) -> Assignment:
    """Deliberately suboptimal solver: matches the diagonal prefix."""
    C = np.asarray(costs, dtype=float)
    m, n = C.shape
    k = min(m, n)
    pairs = tuple((i, i) for i in range(k))
    return Assignment(pairs, float(sum(C[i, i] for i in range(k))))


def _axioms(rng):
    dim = int(rng.integers(1, 4))
    params = random_params(rng)
    fx = random_mb(rng, 4, dim)
    fy = random_mb(rng, 4, dim)
    fz = random_mb(rng, 4, dim)
    dxy = pgospa(fx, fy, params).total
    dyx = pgospa(fy, fx, params).total
    dxz = pgospa(fx, fz, params).total
    dzy = pgospa(fz, fy, params).total
    dxx = pgospa(fx, fx, params).total
    if dxy < 0.0:
        reason = "negative value"
    elif abs(dxy - dyx) > 1e-12:
        reason = f"asymmetry {abs(dxy - dyx):.3g}"
    elif dxx > 1e-12:
        reason = f"d(f, f) = {dxx:.3g}"
    elif dxy > dxz + dzy + 1e-9:
        reason = f"triangle violation by {dxy - dxz - dzy:.3g}"
    else:
        return None
    return {
        "reason": reason,
        "params": vars(params),
        "fx": mb_to_dict(fx),
        "fy": mb_to_dict(fy),
        "fz": mb_to_dict(fz),
    }


def _oracle_agreement(rng):
    dim = int(rng.integers(1, 3))
    params = random_params(rng, alpha=2.0)
    fx = random_mb(rng, 4, dim)
    fy = random_mb(rng, 4, dim)
    res = pgospa(fx, fy, params)
    brute = brute_force_pgospa(fx, fy, params)
    sets_val, _ = brute_force_assignment_sets(fx, fy, params)
    ident = res.localization + res.existence_mismatch + res.missed + res.false_det
    if abs(res.total - brute) > 1e-12:
        reason = f"permutation oracle mismatch {abs(res.total - brute):.3g}"
    elif abs(res.total - sets_val) > 1e-12:
        reason = f"assignment-set oracle mismatch {abs(res.total - sets_val):.3g}"
    elif abs(ident - res.total**params.p) > 1e-9:
        reason = f"decomposition identity off by {abs(ident - res.total ** params.p):.3g}"
    else:
        return None
    return {
        "reason": reason,
        "params": vars(params),
        "fx": mb_to_dict(fx),
        "fy": mb_to_dict(fy),
    }


def _bernoulli_transport(rng):
    dim = int(rng.integers(1, 4))
    params = random_params(rng)
    rx = float(rng.uniform(0.05, 1.0))
    ry = float(rng.uniform(0.05, 1.0))
    x = rng.uniform(-10.0, 10.0, size=dim)
    y = rng.uniform(-10.0, 10.0, size=dim)
    bx = BernoulliComponent(rx, DiracDensity(x))
    by = BernoulliComponent(ry, DiracDensity(y))
    lhs = bernoulli_ot_dirac(rx, x, ry, y, params)
    rhs = bernoulli_pgospa(bx, by, params)
    if abs(lhs - rhs) <= 1e-12:
        return None
    return {
        "reason": f"transport value differs by {abs(lhs - rhs):.3g}",
        "params": vars(params),
        "rx": rx,
        "ry": ry,
        "x": x.tolist(),
        "y": y.tolist(),
    }


def _assignment_exactness(rng, solver):
    m = int(rng.integers(1, 6))
    n = int(rng.integers(1, 6))
    C = rng.uniform(-5.0, 5.0, size=(m, n))
    got = solver(C)
    want = enumerate_assignment(C)
    if abs(got.total_cost - want.total_cost) <= 1e-12 and got.pairs == want.pairs:
        return None
    return {
        "reason": (
            f"solver cost {got.total_cost!r} pairs {got.pairs!r}; "
            f"enumeration cost {want.total_cost!r} pairs {want.pairs!r}"
        ),
        "costs": C.tolist(),
    }


def _check_qospa_witness(violations):
    params = MetricParams(c=5.0, p=1.0, alpha=2.0)
    x = np.array([1.0, 2.0])
    q = qospa_base(x, x, 0.8, 0.8, params)
    b = bernoulli_pgospa(
        BernoulliComponent(0.8, DiracDensity(x)),
        BernoulliComponent(0.8, DiracDensity(x)),
        params,
    )
    if not (q > 0.01 and b <= 1e-12):
        violations.append(
            {
                "check": "qospa-witness",
                "reason": f"expected definiteness failure, got q={q!r}, metric={b!r}",
            }
        )


def run_selfcheck(seed: int = 0, solver=solve_assignment) -> dict:
    """Run all suites; returns a report dict with any violations."""
    # check name, random stream [seed, stream], samples, one draw
    suites = (
        ("metric-axioms", 10, 200, _axioms),
        ("oracle-agreement", 11, 100, _oracle_agreement),
        ("bernoulli-transport", 12, 200, _bernoulli_transport),
        ("assignment-exactness", 13, 150, partial(_assignment_exactness, solver=solver)),
    )
    violations = []
    for name, stream, n_samples, draw in suites:
        rng = np.random.default_rng([seed, stream])
        record = next(filter(None, (draw(rng) for _ in range(n_samples))), None)
        if record is not None:
            violations.append({"check": name, **record})
    _check_qospa_witness(violations)
    return {
        "seed": seed,
        "samples": {name: n_samples for name, _, n_samples, _ in suites},
        "violations": violations,
        "ok": not violations,
    }
