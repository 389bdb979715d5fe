import math

import numpy as np
import pytest
from scipy.integrate import quad

from pgospa import (
    BaseDistanceKind,
    BernoulliComponent,
    DiracDensity,
    GaussianDensity,
    MBDensity,
    cutoff,
    euclidean_dirac,
    gaussian_hellinger,
    gaussian_w2,
    pairwise_base_distance,
)
from pgospa.distances import w2_stack

from conftest import make_gaussian


def hellinger_quadrature_1d(m1, v1, m2, v2):
    """Independent oracle: numerical integration of the overlap integral."""

    def integrand(x):
        p = math.exp(-0.5 * (x - m1) ** 2 / v1) / math.sqrt(2 * math.pi * v1)
        q = math.exp(-0.5 * (x - m2) ** 2 / v2) / math.sqrt(2 * math.pi * v2)
        return math.sqrt(p * q)

    lo = min(m1, m2) - 12 * math.sqrt(max(v1, v2))
    hi = max(m1, m2) + 12 * math.sqrt(max(v1, v2))
    bc, _ = quad(integrand, lo, hi, limit=200)
    return math.sqrt(max(0.0, 1.0 - bc))


class TestW2:
    def test_identical_gaussians(self):
        g = GaussianDensity([1.0, 2.0], [[2.0, 0.5], [0.5, 1.0]])
        assert gaussian_w2(g, g) == 0.0

    def test_gaussian_vs_dirac_1d(self):
        # mean 2, variance 4 against a point mass at 0: sqrt(4 + 4)
        g = GaussianDensity([2.0], [[4.0]])
        d = DiracDensity([0.0])
        assert gaussian_w2(g, d) == pytest.approx(math.sqrt(8.0), abs=1e-12)

    def test_2d_diagonal(self):
        # per-dimension closed form: sqrt(25 + 2*(1 + 4 - 2*sqrt(4)))
        gx = GaussianDensity([0.0, 0.0], np.eye(2))
        gy = GaussianDensity([3.0, 4.0], 4.0 * np.eye(2))
        assert gaussian_w2(gx, gy) == pytest.approx(math.sqrt(27.0), abs=1e-10)

    def test_between_diracs_equals_euclidean_exactly(self, rng):
        for _ in range(50):
            dim = int(rng.integers(1, 5))
            a = DiracDensity(rng.uniform(-5, 5, dim))
            b = DiracDensity(rng.uniform(-5, 5, dim))
            assert gaussian_w2(a, b) == euclidean_dirac(a, b)

    def test_commuting_covariances_closed_form(self, rng):
        for _ in range(100):
            dim = int(rng.integers(2, 4))
            mx = rng.uniform(-5, 5, dim)
            my = rng.uniform(-5, 5, dim)
            lx = rng.uniform(0.1, 4.0, dim)
            ly = rng.uniform(0.1, 4.0, dim)
            got = gaussian_w2(GaussianDensity(mx, np.diag(lx)), GaussianDensity(my, np.diag(ly)))
            want = math.sqrt(((mx - my) ** 2).sum() + ((np.sqrt(lx) - np.sqrt(ly)) ** 2).sum())
            assert got == pytest.approx(want, abs=1e-10)

    def test_exact_symmetry(self, rng):
        for _ in range(100):
            dim = int(rng.integers(1, 4))
            a = make_gaussian(rng, dim)
            b = make_gaussian(rng, dim)
            assert gaussian_w2(a, b) == gaussian_w2(b, a)


class TestHellinger:
    def test_identical(self):
        g = GaussianDensity([0.0], [[1.0]])
        assert gaussian_hellinger(g, g) == 0.0

    def test_equal_variance_value_matches_quadrature(self):
        # frozen from the quadrature oracle below
        expected = 0.6272713450233212
        assert hellinger_quadrature_1d(0.0, 1.0, 2.0, 1.0) == pytest.approx(expected, abs=1e-10)
        got = gaussian_hellinger(GaussianDensity([0.0], [[1.0]]), GaussianDensity([2.0], [[1.0]]))
        assert got == pytest.approx(expected, abs=1e-10)

    def test_unequal_variance_value_matches_quadrature(self):
        expected = 0.3265761996599951
        assert hellinger_quadrature_1d(0.0, 1.0, 1.0, 2.0) == pytest.approx(expected, abs=1e-10)
        got = gaussian_hellinger(GaussianDensity([0.0], [[1.0]]), GaussianDensity([1.0], [[2.0]]))
        assert got == pytest.approx(expected, abs=1e-9)

    def test_wide_separation_approaches_one(self):
        got = gaussian_hellinger(GaussianDensity([0.0], [[1.0]]), GaussianDensity([40.0], [[1.0]]))
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_bounded_in_unit_interval(self, rng):
        for _ in range(200):
            dim = int(rng.integers(1, 4))
            h = gaussian_hellinger(make_gaussian(rng, dim), make_gaussian(rng, dim))
            assert 0.0 <= h <= 1.0

    def test_rejects_dirac_and_singular(self):
        g = GaussianDensity([0.0], [[1.0]])
        with pytest.raises(ValueError):
            gaussian_hellinger(g, DiracDensity([0.0]))
        with pytest.raises(ValueError):
            gaussian_hellinger(g, GaussianDensity([0.0], [[0.0]]))


class TestEuclideanDirac:
    def test_values(self):
        assert euclidean_dirac(DiracDensity([1.0]), DiracDensity([1.0])) == 0.0
        assert euclidean_dirac(DiracDensity([0.0]), DiracDensity([2.0])) == 2.0
        assert euclidean_dirac(DiracDensity([0.0, 0.0]), DiracDensity([3.0, 4.0])) == 5.0

    def test_rejects_gaussian(self):
        with pytest.raises(ValueError):
            euclidean_dirac(GaussianDensity([0.0], [[1.0]]), DiracDensity([0.0]))


def test_cutoff():
    assert cutoff(2.0, 5.0) == 2.0
    assert cutoff(7.0, 5.0) == 5.0
    # a 1-D Gaussian with variance 21 against a point mass two apart
    # saturates exactly at the cut-off level 5
    d = gaussian_w2(GaussianDensity([2.0], [[21.0]]), DiracDensity([0.0]))
    assert d == pytest.approx(5.0, abs=1e-12)
    assert cutoff(d, 5.0) == 5.0
    assert cutoff(gaussian_w2(GaussianDensity([2.0], [[25.0]]), DiracDensity([0.0])), 5.0) == 5.0


def _random_gaussian_stack(rng, n, dim):
    means = rng.uniform(-10, 10, size=(n, dim))
    A = rng.normal(0, 1, size=(n, dim, dim))
    covs = A @ np.swapaxes(A, -1, -2) + 0.05 * np.eye(dim)
    return means, covs


class TestMetricProperties:
    def test_w2_axioms_on_random_triples(self, rng):
        # 10,000 triples per dimension batch, fully vectorized
        for dim in (1, 2, 3):
            n = 10_000
            ma, Ca = _random_gaussian_stack(rng, n, dim)
            mb, Cb = _random_gaussian_stack(rng, n, dim)
            mc, Cc = _random_gaussian_stack(rng, n, dim)
            dab = w2_stack(ma, Ca, mb, Cb)
            dba = w2_stack(mb, Cb, ma, Ca)
            dac = w2_stack(ma, Ca, mc, Cc)
            dcb = w2_stack(mc, Cc, mb, Cb)
            assert (dab >= 0.0).all()
            assert np.abs(dab - dba).max() <= 1e-12
            assert (dab <= dac + dcb + 1e-9).all()
            # the raw stack math leaves sqrt-amplified round-off on equal
            # inputs; the public entry points return exact zeros instead
            daa = w2_stack(ma, Ca, ma, Ca)
            assert np.abs(daa).max() <= 1e-6
            # cut-off preserves the triangle inequality
            for c in (0.5, 3.0):
                assert (np.minimum(dab, c) <= np.minimum(dac, c) + np.minimum(dcb, c) + 1e-9).all()

    def test_w2_definiteness(self, rng):
        for _ in range(200):
            dim = int(rng.integers(1, 4))
            a = make_gaussian(rng, dim)
            b = make_gaussian(rng, dim)
            if np.abs(a.mean - b.mean).max() > 0.1:
                assert gaussian_w2(a, b) > 1e-9

    def test_hellinger_axioms_on_random_triples(self, rng):
        n = 2_000
        for dim in (1, 2):
            from pgospa.distances import _hellinger_stack

            ma, Ca = _random_gaussian_stack(rng, n, dim)
            mb, Cb = _random_gaussian_stack(rng, n, dim)
            mc, Cc = _random_gaussian_stack(rng, n, dim)
            dab = _hellinger_stack(ma, Ca, mb, Cb)
            dba = _hellinger_stack(mb, Cb, ma, Ca)
            dac = _hellinger_stack(ma, Ca, mc, Cc)
            dcb = _hellinger_stack(mc, Cc, mb, Cb)
            assert (dab >= 0.0).all() and (dab <= 1.0).all()
            assert np.abs(dab - dba).max() <= 1e-12
            assert (dab <= dac + dcb + 1e-9).all()

    def test_euclidean_axioms_on_random_triples(self, rng):
        n = 10_000
        for dim in (1, 3):
            a = rng.uniform(-10, 10, size=(n, dim))
            b = rng.uniform(-10, 10, size=(n, dim))
            c = rng.uniform(-10, 10, size=(n, dim))
            dab = np.sqrt(((a - b) ** 2).sum(-1))
            dac = np.sqrt(((a - c) ** 2).sum(-1))
            dcb = np.sqrt(((c - b) ** 2).sum(-1))
            assert (dab <= dac + dcb + 1e-9).all()


class TestPairwise:
    def test_matches_scalar_w2(self, rng):
        xs = [make_gaussian(rng, 2) for _ in range(3)] + [DiracDensity(rng.uniform(-5, 5, 2))]
        ys = [make_gaussian(rng, 2) for _ in range(2)] + [DiracDensity(rng.uniform(-5, 5, 2))]
        D = pairwise_base_distance(xs, ys, BaseDistanceKind.W2)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert D[i, j] == pytest.approx(gaussian_w2(x, y), abs=1e-12)

    def test_equal_operands_give_exact_zero(self, rng):
        g = make_gaussian(rng, 2)
        D = pairwise_base_distance([g, make_gaussian(rng, 2)], [g], BaseDistanceKind.W2)
        assert D[0, 0] == 0.0

    def test_euclidean_requires_diracs(self, rng):
        with pytest.raises(ValueError):
            pairwise_base_distance([make_gaussian(rng, 1)], [DiracDensity([0.0])], BaseDistanceKind.EUCLIDEAN)

    def test_empty_sides(self):
        assert pairwise_base_distance([], [DiracDensity([0.0])]).shape == (0, 1)

    def test_cutoff_gate_equals_clipped_full_matrix(self, rng):
        def density(mean):
            if rng.random() < 0.3:
                return DiracDensity(mean)
            A = rng.normal(0.0, 1.0, size=(len(mean), len(mean)))
            S = A @ A.T + 0.05 * np.eye(len(mean))
            return GaussianDensity(mean, float(rng.choice([1e-3, 1.0, 1e12])) * (S + S.T) / 2)

        for _ in range(100):
            dim = int(rng.integers(1, 5))
            c = float(rng.choice([0.3, 2.0, 7.5, 1e3]))
            spread = float(rng.choice([10.0, 1e4]))
            xs = [density(rng.uniform(-spread, spread, dim)) for _ in range(6)]
            ys = [density(rng.uniform(-spread, spread, dim)) for _ in range(5)]
            for x in xs[:4]:
                # same covariance, means c or just beyond c apart along one
                # axis: the Bures term is 0 up to its rounding
                gap = c * float(rng.choice([1.0, 1.0 + 3e-6]))
                if isinstance(x, GaussianDensity):
                    mean = x.mean.copy()
                    mean[int(rng.integers(dim))] += gap
                    ys.append(GaussianDensity(mean, x.cov))
                else:
                    mean = x.location.copy()
                    mean[int(rng.integers(dim))] += gap
                    ys.append(DiracDensity(mean))
            ys.append(xs[0])
            full = pairwise_base_distance(xs, ys)
            gated = pairwise_base_distance(xs, ys, c=c)
            assert np.array_equal(gated, np.minimum(full, c))
            assert np.array_equal(gated < c, full < c)


@pytest.mark.parametrize("kind", list(BaseDistanceKind))
def test_mb_arrays_equal_density_sequences(rng, kind):
    for _ in range(40):
        dim = int(rng.integers(1, 5))
        if kind is BaseDistanceKind.EUCLIDEAN:
            def density():
                return DiracDensity(rng.integers(-2, 3, dim).astype(float))
        else:
            def density():
                if kind is BaseDistanceKind.W2 and rng.random() < 0.3:
                    return DiracDensity(rng.uniform(-5, 5, dim))
                return make_gaussian(rng, dim)
        xs = [density() for _ in range(int(rng.integers(0, 7)))]
        ys = [density() for _ in range(int(rng.integers(0, 7)))] + xs[:2]
        fx = MBDensity([BernoulliComponent(0.5, d) for d in xs])
        fy = MBDensity([BernoulliComponent(0.5, d) for d in ys])
        for c in (None, 3.0):
            got = pairwise_base_distance(fx, fy, kind, c=c)
            want = pairwise_base_distance(fx.densities, fy.densities, kind, c=c)
            assert got.shape == (len(xs), len(ys))
            assert np.array_equal(got, want)


def test_overflowing_squared_gap_is_scaled():
    # 1e160 and 3e160 apart: ||dm||^2 overflows, the coordinates do not
    for dim in (1, 2, 3):
        far = np.zeros(dim)
        far[0] = 3e160
        for kind, make in (
            (BaseDistanceKind.W2, lambda m: GaussianDensity(m, np.eye(dim))),
            (BaseDistanceKind.W2, DiracDensity),
            (BaseDistanceKind.EUCLIDEAN, DiracDensity),
        ):
            xs = [make(np.zeros(dim)), make(np.full(dim, 1e160))]
            ys = [make(far), make(np.zeros(dim))]
            want = 1e160 * np.array([[3.0, 0.0], [math.sqrt(3 + dim), math.sqrt(dim)]])
            for c in (None, 1e200):
                got = pairwise_base_distance(xs, ys, kind, c=c)
                assert np.allclose(got, want, rtol=1e-15, atol=0.0)
            got = pairwise_base_distance(xs, ys, kind, c=1e100)
            assert np.array_equal(got, np.minimum(want, 1e100))


def test_base_distance_kind_parsing():
    assert BaseDistanceKind.from_string("w2") is BaseDistanceKind.W2
    assert BaseDistanceKind.from_string("hellinger") is BaseDistanceKind.HELLINGER
    with pytest.raises(ValueError):
        BaseDistanceKind.from_string("mahalanobis")


def _mixed_mb(rng, dirac, dim):
    """Gaussian components with a Dirac wherever the boolean ``dirac`` is set."""
    n = len(dirac)
    A = rng.normal(size=(n, dim, dim))
    covs = A @ np.swapaxes(A, -1, -2) + 0.05 * np.eye(dim)
    covs[dirac] = 0.0
    means = rng.uniform(-5, 5, (n, dim))
    return MBDensity.from_arrays(rng.uniform(0.1, 1.0, n), means, covs, dirac)


def test_euclidean_is_w2_between_diracs(rng):
    for _ in range(200):
        dim = int(rng.integers(1, 5))
        x, y = (_mixed_mb(rng, np.ones(int(rng.integers(0, 7)), bool), dim) for _ in range(2))
        for c in (None, 0.5, 3.0, 1e200):
            w2 = pairwise_base_distance(x, y, BaseDistanceKind.W2, c=c)
            eu = pairwise_base_distance(x, y, BaseDistanceKind.EUCLIDEAN, c=c)
            assert w2.tobytes() == eu.tobytes()


def test_dirac_side_takes_no_bures_term(rng, monkeypatch):
    from pgospa import distances

    bures = []
    real = distances._bures_cross

    def counting(Px, sy):
        bures.append(np.broadcast_shapes(Px.shape, sy.shape)[:-2])
        return real(Px, sy)

    monkeypatch.setattr(distances, "_bures_cross", counting)
    for dim in (2, 3, 4):
        diracs = _mixed_mb(rng, np.ones(5, bool), dim)
        mixed = _mixed_mb(rng, np.arange(6) % 2 == 0, dim)
        for x, y in ((diracs, mixed), (mixed, diracs)):
            for c in (None, 3.0, 1e3):
                pairwise_base_distance(x, y, c=c)
                w2_stack(x.means[:, None], x.covs[:, None], y.means[None], y.covs[None])
        assert bures == []
        # between two mixed sides, only the Gaussian x Gaussian pairs
        other = _mixed_mb(rng, np.arange(7) % 3 == 0, dim)
        pairwise_base_distance(mixed, other)
        assert [int(np.prod(s)) for s in bures] == [3 * 4]
        bures.clear()


def test_zero_covariance_keeps_the_square_root_check():
    # the root of a non-PSD Py is still taken when its partner is zero
    zero, bad = np.zeros((2, 2)), np.diag([1.0, -1.0])
    with pytest.raises(ValueError, match="matrix square root failed"):
        w2_stack(np.zeros(2), zero, np.ones(2), bad)
    with pytest.raises(ValueError, match="matrix square root failed"):
        Py = np.stack([zero, bad, zero])[None]
        w2_stack(np.zeros((1, 1, 2)), zero[None, None], np.ones((1, 3, 2)), Py)
