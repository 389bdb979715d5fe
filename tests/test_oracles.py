import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from pgospa import (
    BernoulliComponent,
    DiracDensity,
    GaussianDensity,
    MBDensity,
    MetricParams,
    bernoulli_ot_dirac,
    bernoulli_ot_grid,
    bernoulli_pgospa,
    brute_force_assignment_sets,
    brute_force_pgospa,
    qospa_base,
)
from pgospa.oracles import (
    TransportPlan,
    _band_arcs,
    _discretize_gaussian,
    _line_arcs,
    _transport_lp,
)

from conftest import make_mb, make_params

P1 = MetricParams(c=5.0, p=1.0, alpha=2.0)


class TestBruteForcePermutations:
    def test_empty(self):
        assert brute_force_pgospa(MBDensity(), MBDensity(), P1) == 0.0

    def test_single_bernoulli_matches_closed_form(self, rng):
        for _ in range(100):
            dim = int(rng.integers(1, 4))
            bx = BernoulliComponent(float(rng.uniform(0.05, 1)), DiracDensity(rng.uniform(-5, 5, dim)))
            by = BernoulliComponent(float(rng.uniform(0.05, 1)), DiracDensity(rng.uniform(-5, 5, dim)))
            params = make_params(rng)
            got = brute_force_pgospa(MBDensity([bx]), MBDensity([by]), params)
            assert got == bernoulli_pgospa(bx, by, params)

    def test_size_bound(self, rng):
        big = make_mb(rng, 8, 1, min_n=8)
        with pytest.raises(ValueError, match="<= 7"):
            brute_force_pgospa(big, MBDensity(), P1)


class TestAssignmentSets:
    def test_empty(self):
        value, gamma = brute_force_assignment_sets(MBDensity(), MBDensity(), P1)
        assert value == 0.0 and gamma == ()

    def test_far_singletons_left_unmatched(self):
        fx = MBDensity([BernoulliComponent(0.9, DiracDensity([0.0]))])
        fy = MBDensity([BernoulliComponent(0.4, DiracDensity([50.0]))])
        value, gamma = brute_force_assignment_sets(fx, fy, P1)
        assert gamma == ()
        assert value == pytest.approx((0.9 + 0.4) * 2.5, abs=1e-12)

    def test_agrees_with_permutation_oracle(self, rng):
        for _ in range(300):
            dim = int(rng.integers(1, 3))
            params = make_params(rng, alpha=2.0)
            fx = make_mb(rng, 5, dim)
            fy = make_mb(rng, 5, dim)
            value, _ = brute_force_assignment_sets(fx, fy, params)
            assert value == pytest.approx(brute_force_pgospa(fx, fy, params), abs=1e-12)

    def test_requires_alpha_two(self, rng):
        with pytest.raises(ValueError, match="alpha = 2"):
            brute_force_assignment_sets(MBDensity(), MBDensity(), MetricParams(alpha=1.0))

    def test_size_bound(self, rng):
        fx = make_mb(rng, 6, 1, min_n=6)
        fy = make_mb(rng, 6, 1, min_n=6)
        with pytest.raises(ValueError, match="<= 10"):
            brute_force_assignment_sets(fx, fy, P1)


class TestDiracTransport:
    def test_identical(self):
        assert bernoulli_ot_dirac(0.5, [1.0], 0.5, [1.0], P1) == 0.0

    def test_equal_existence(self):
        assert bernoulli_ot_dirac(0.5, [0.0], 0.5, [2.0], P1) == pytest.approx(1.0, abs=1e-12)

    def test_mismatched_existence(self):
        assert bernoulli_ot_dirac(1.0, [0.0], 0.6, [2.0], P1) == pytest.approx(2.2, abs=1e-12)

    def test_equals_bernoulli_metric(self, rng):
        for _ in range(1000):
            dim = int(rng.integers(1, 4))
            rx = float(rng.uniform(0.0, 1.0))
            ry = float(rng.uniform(0.0, 1.0))
            x = rng.uniform(-10, 10, dim)
            y = rng.uniform(-10, 10, dim)
            params = make_params(rng)
            lhs = bernoulli_ot_dirac(rx, x, ry, y, params)
            rhs = bernoulli_pgospa(
                BernoulliComponent(rx, DiracDensity(x)),
                BernoulliComponent(ry, DiracDensity(y)),
                params,
            )
            assert abs(lhs - rhs) <= 1e-12

    def test_invalid_existence(self):
        with pytest.raises(ValueError):
            bernoulli_ot_dirac(1.2, [0.0], 0.5, [0.0], P1)

    def test_plan_marginals(self):
        plan = TransportPlan(q_ee=0.2, q_xe=0.3, q_ey=0.1, q_xy=0.4)
        assert plan.check_marginals(rx=0.7, ry=0.5)
        assert not plan.check_marginals(rx=0.5, ry=0.5)


def _dense_transport_lp(dist, c, p, cpa, supply, demand, slack):
    """Reference dense LP used to cross-check the hub-reduced solver."""
    K = np.minimum(dist, c) ** p
    if slack > 0:
        K = np.concatenate([K, np.full((len(supply), 1), cpa)], axis=1)
        demand = np.concatenate([demand, [slack]])
    ns, nt = K.shape
    rows = np.repeat(np.arange(ns), nt)
    cols = np.tile(np.arange(nt), ns)
    var = np.arange(ns * nt)
    A = sparse.vstack(
        [
            sparse.csr_matrix((np.ones(ns * nt), (rows, var)), shape=(ns, ns * nt)),
            sparse.csr_matrix((np.ones(ns * nt), (cols, var)), shape=(nt, ns * nt)),
        ]
    ).tocsr()[:-1]
    res = linprog(
        K.ravel(),
        A_eq=A,
        b_eq=np.concatenate([supply, demand])[:-1],
        bounds=(0, None),
        method="highs-ds",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0
    return float(res.fun)


class TestGridTransport:
    def test_identical_bernoullis(self):
        b = BernoulliComponent(0.8, GaussianDensity([0.0], [[1.0]]))
        res = bernoulli_ot_grid(b, b, P1, resolution=100)
        assert abs(res.value_p) <= res.eps_grid

    def test_dirac_limit_matches_four_atom_oracle(self):
        bx = BernoulliComponent(0.9, GaussianDensity([0.0], [[1e-6]]))
        by = BernoulliComponent(0.6, GaussianDensity([2.0], [[1e-6]]))
        got = bernoulli_ot_grid(bx, by, P1, resolution=200)
        want = bernoulli_ot_dirac(0.9, [0.0], 0.6, [2.0], P1)
        assert abs(got.value - want) <= 1e-3

    def test_equal_variance_upper_bound(self):
        params = MetricParams(c=5.0, p=2.0, alpha=2.0)
        bx = BernoulliComponent(1.0, GaussianDensity([0.0], [[1.0]]))
        by = BernoulliComponent(1.0, GaussianDensity([2.0], [[1.0]]))
        res = bernoulli_ot_grid(bx, by, params, resolution=200)
        # metric^p equals the squared Gaussian W2, here exactly 4
        assert res.value_p <= 4.0 + res.eps_grid
        assert res.value_p >= 4.0 - res.eps_grid  # two-sided for the Dirac-free case

    def test_bound_on_random_pairs_small_resolution(self, rng):
        for _ in range(10):
            bx = BernoulliComponent(
                float(rng.uniform(0.1, 1.0)),
                GaussianDensity(rng.uniform(-3, 3, 1), [[float(rng.uniform(0.2, 4.0))]]),
            )
            by = BernoulliComponent(
                float(rng.uniform(0.1, 1.0)),
                GaussianDensity(rng.uniform(-3, 3, 1), [[float(rng.uniform(0.2, 4.0))]]),
            )
            params = make_params(rng)
            res = bernoulli_ot_grid(bx, by, params, resolution=60)
            assert res.value_p <= bernoulli_pgospa(bx, by, params) ** params.p + res.eps_grid

    def test_matches_reference_dense_lp(self, rng):
        # independent cross-check of the hub-reduced formulation
        for _ in range(5):
            rx = float(rng.uniform(0.3, 1.0))
            ry = float(rng.uniform(0.1, rx))
            bx = BernoulliComponent(rx, GaussianDensity(rng.uniform(-2, 2, 1), [[float(rng.uniform(0.3, 2.0))]]))
            by = BernoulliComponent(ry, GaussianDensity(rng.uniform(-2, 2, 1), [[float(rng.uniform(0.3, 2.0))]]))
            params = make_params(rng, alpha=2.0)
            res = bernoulli_ot_grid(bx, by, params, resolution=24)
            ga = _discretize_gaussian(bx.density, 24)
            gb = _discretize_gaussian(by.density, 24)
            dist = np.abs(ga.support[:, None, 0] - gb.support[None, :, 0])
            want = _dense_transport_lp(
                dist, params.c, params.p, params.c**params.p / params.alpha,
                rx * ga.weights, ry * gb.weights, rx - ry,
            )
            assert res.value_p == pytest.approx(want, abs=1e-7)

    def test_line_arcs_match_band_arcs_at_p1(self, rng):
        # 1-D at p = 1: shortest paths over the line graph cost |x - y|, so
        # its LP has the optimum of the band LP with O(n) arcs
        for _ in range(6):
            rx = float(rng.uniform(0.3, 1.0))
            ry = float(rng.uniform(0.1, rx))
            ga, gb = (
                _discretize_gaussian(GaussianDensity(rng.uniform(-3, 3, 1), [[float(rng.uniform(0.2, 4.0))]]), 60)
                for _ in range(2)
            )
            c, alpha = float(rng.uniform(0.5, 10.0)), float(rng.uniform(0.05, 2.0))
            xs, xt = ga.support[:, 0], gb.support[:, 0]
            args = (c, c / alpha, rx * ga.weights, ry * gb.weights, rx - ry)
            line = _transport_lp(_line_arcs(xs, xt), *args)
            band = _transport_lp(_band_arcs(np.abs(xs[:, None] - xt[None, :]), c, 1.0), *args)
            exact = _dense_transport_lp(np.abs(xs[:, None] - xt[None, :]), c, 1.0, *args[1:])
            assert line == pytest.approx(exact, abs=1e-7)
            assert band == pytest.approx(exact, abs=1e-7)

    def test_eps_grid_shrinks_with_resolution(self):
        params = MetricParams(c=5.0, p=2.0, alpha=2.0)
        bx = BernoulliComponent(0.9, GaussianDensity([0.0], [[1.0]]))
        by = BernoulliComponent(0.7, GaussianDensity([1.0], [[2.0]]))
        eps = [bernoulli_ot_grid(bx, by, params, resolution=r).eps_grid for r in (50, 100, 200)]
        assert eps[1] < eps[0] and eps[2] < eps[1]

    def test_resolution_guards(self):
        b1 = BernoulliComponent(0.5, GaussianDensity([0.0], [[1.0]]))
        with pytest.raises(ValueError, match="coarse"):
            bernoulli_ot_grid(b1, b1, P1, resolution=4)
        b2 = BernoulliComponent(0.5, GaussianDensity([0.0, 0.0], np.eye(2)))
        with pytest.raises(ValueError, match="capped"):
            bernoulli_ot_grid(b2, b2, P1, resolution=100)
        with pytest.raises(ValueError, match="Gaussian"):
            bernoulli_ot_grid(BernoulliComponent(0.5, DiracDensity([0.0])), b1, P1)

    def test_2d_smoke(self, rng):
        bx = BernoulliComponent(0.8, GaussianDensity([0.0, 0.0], [[1.0, 0.3], [0.3, 1.5]]))
        by = BernoulliComponent(0.7, GaussianDensity([1.0, -0.5], [[0.8, 0.0], [0.0, 0.6]]))
        res = bernoulli_ot_grid(bx, by, P1, resolution=12)
        assert res.value_p <= bernoulli_pgospa(bx, by, P1) ** P1.p + res.eps_grid


class TestQospa:
    def test_perfect_match_full_existence(self):
        x = np.array([1.0, 2.0])
        assert qospa_base(x, x, 1.0, 1.0, P1) == 0.0

    def test_definiteness_failure(self):
        x = np.array([1.0, 2.0])
        val = qospa_base(x, x, 0.8, 0.8, P1)
        assert val == pytest.approx(1.8, abs=1e-12)
        # the metric itself stays definite on the same input
        b = BernoulliComponent(0.8, DiracDensity(x))
        assert bernoulli_pgospa(b, b, P1) == 0.0

    def test_plain_distance(self):
        assert qospa_base([0.0], [2.0], 1.0, 1.0, P1) == pytest.approx(2.0, abs=1e-12)

    def test_invalid_existence(self):
        with pytest.raises(ValueError):
            qospa_base([0.0], [0.0], -0.1, 0.5, P1)


def test_package_names_resolve():
    # the oracle names resolve on first use (PEP 562), importing
    # pgospa.oracles and with it scipy.optimize
    import pgospa
    from pgospa import oracles

    star = {}
    exec("from pgospa import *", star)
    for name in pgospa.__all__:
        assert star[name] is getattr(pgospa, name), name
    assert pgospa.brute_force_pgospa is oracles.brute_force_pgospa
    assert set(pgospa.__all__) <= set(dir(pgospa))
    with pytest.raises(AttributeError, match="no_such_name"):
        pgospa.no_such_name
