import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from pgospa import (
    BaseDistanceKind,
    BernoulliComponent,
    DimensionMismatchError,
    DiracDensity,
    GaussianDensity,
    MBDensity,
    cutoff,
    euclidean_dirac,
    gaussian_hellinger,
    gaussian_w2,
    pairwise_base_distance,
)
from pgospa import distances
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

    def test_mixed_dimensions_raise(self, rng):
        x = MBDensity([BernoulliComponent(0.5, make_gaussian(rng, 2))])
        y = MBDensity([BernoulliComponent(0.5, make_gaussian(rng, 3))])
        with pytest.raises(DimensionMismatchError, match=r"mix state dimensions \[2, 3\]"):
            pairwise_base_distance(x, y)

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
    # nor a square root: a pair with a zero covariance takes no eigen-solve
    roots = []
    real_sqrt = distances._psd_sqrt

    def counting_sqrt(mats):
        roots.append(mats.shape[:-2])
        return real_sqrt(mats)

    monkeypatch.setattr(distances, "_psd_sqrt", counting_sqrt)
    for dim in (2, 3, 4):
        diracs = _mixed_mb(rng, np.ones(5, bool), dim)
        mixed = _mixed_mb(rng, np.arange(6) % 2 == 0, dim)
        for x, y in ((diracs, mixed), (mixed, diracs)):
            for c in (None, 3.0, 1e3):
                pairwise_base_distance(x, y, c=c)
                w2_stack(x.means[:, None], x.covs[:, None], y.means[None], y.covs[None])
        assert bures == [] and roots == []
        # between two mixed sides, only the Gaussian x Gaussian pairs
        other = _mixed_mb(rng, np.arange(7) % 3 == 0, dim)
        pairwise_base_distance(mixed, other)
        assert [int(np.prod(s)) for s in bures] == [3 * 4]
        assert [int(np.prod(s)) for s in roots] == [3 * 4]
        bures.clear()
        roots.clear()


def test_zero_covariance_keeps_the_square_root_check():
    # the root of a non-PSD Py is still taken when its partner is zero
    zero, bad = np.zeros((2, 2)), np.diag([1.0, -1.0])
    with pytest.raises(ValueError, match="matrix square root failed"):
        w2_stack(np.zeros(2), zero, np.ones(2), bad)
    with pytest.raises(ValueError, match="matrix square root failed"):
        Py = np.stack([zero, bad, zero])[None]
        w2_stack(np.zeros((1, 1, 2)), zero[None, None], np.ones((1, 3, 2)), Py)


def test_w2_stack_checks_both_covariances():
    # a non-PSD covariance raises on either side, also against a zero one
    zero, bad = np.zeros((2, 2)), np.diag([1.0, -1.0])
    with pytest.raises(ValueError, match="matrix square root failed"):
        w2_stack(np.ones(2), bad, np.zeros(2), zero)
    with pytest.raises(ValueError, match="matrix square root failed"):
        Px = np.stack([zero, bad, zero])[:, None]
        w2_stack(np.ones((3, 1, 2)), Px, np.zeros((1, 1, 2)), zero[None, None])
    # in 1-D, where no root is taken, a negative variance is not clipped
    for var in (0.0, 1.0):
        for Px, Py in (([[-1.0]], [[var]]), ([[var]], [[-1.0]])):
            with pytest.raises(ValueError, match="matrix square root failed"):
                w2_stack(np.zeros(1), Px, np.ones(1), Py)


def _w2_squared_reference(mx, Px, my, Py) -> float:
    """W2^2 of one pair in plain float64, independent of ``w2_stack``: the
    Bures term in the other root order, tr (Px^{1/2} Py Px^{1/2})^{1/2}."""
    w, v = np.linalg.eigh(Px)
    sx = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    inner = sx @ Py @ sx
    lam = np.linalg.eigvalsh((inner + inner.T) / 2.0)
    bures = np.sqrt(np.clip(lam, 0.0, None)).sum()
    return float(((mx - my) ** 2).sum() + np.trace(Px) + np.trace(Py) - 2.0 * bures)


def _ill_conditioned_cov(rng, dim):
    """A random rotation of eigenvalues spread over a condition number up to
    1e12, a fifth of them singular (1 to dim - 1 eigenvalues zero)."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    spread = rng.uniform(0.0, 1.0, dim)
    spread[:2] = 0.0, 1.0
    w = 10.0 ** rng.uniform(-2.0, 2.0) * 10.0 ** (-rng.uniform(0.0, 12.0) * spread)
    if rng.random() < 0.2:
        w[rng.permutation(dim)[: rng.integers(1, dim)]] = 0.0
    cov = (q * w) @ q.T
    return (cov + cov.T) / 2.0


def test_w2_matches_an_independent_reference():
    # non-commuting, ill-conditioned and singular covariances in 2-8-D, a
    # Dirac on either side in some pairs; the bound is the rounding that
    # W2_GATE_SLACK's comment assumes of the Bures term
    rng = np.random.default_rng(20240925)
    worst = 0.0
    for dim in range(2, 9):
        n = 300
        Px = np.stack([_ill_conditioned_cov(rng, dim) for _ in range(n)])
        Py = np.stack([_ill_conditioned_cov(rng, dim) for _ in range(n)])
        side = rng.random(n)
        Px[side < 0.1] = 0.0
        Py[side > 0.9] = 0.0
        # mean gaps of the order of the covariances' scale
        scale = np.sqrt(np.trace(Px, axis1=1, axis2=2) + np.trace(Py, axis1=1, axis2=2))
        mx = rng.normal(size=(n, dim)) * scale[:, None]
        my = mx + rng.normal(size=(n, dim)) * scale[:, None]
        got = w2_stack(mx, Px, my, Py) ** 2
        for k in range(n):
            want = _w2_squared_reference(mx[k], Px[k], my[k], Py[k])
            err = abs(got[k] - want) / (np.trace(Px[k]) + np.trace(Py[k]))
            worst = max(worst, err)
    assert worst <= 3e-8


def test_equal_operand_filter_matches_the_dense_bitwise_rule(rng):
    # operands that share the first mean coordinate but differ later, in the
    # covariance or in kind, and means of 0.0 against -0.0
    def ulp_up(a, idx):
        a = a.copy()
        a[idx] = np.nextafter(a[idx], np.inf)
        return a

    for dim in (1, 2, 3, 4):
        x = _mixed_mb(rng, np.arange(8) % 3 == 0, dim)
        means, covs, dirac = x.means.copy(), x.covs.copy(), x.dirac.copy()
        means[:2] = 0.0
        means[1, -1] = -0.0
        means[2] = means[3]
        covs[2] = covs[3]
        x = MBDensity.from_arrays(x.r, means, covs, dirac)
        later, cov = [4, 6], [5, 7]  # cov: Gaussian rows
        y_means = np.concatenate(
            [means, -means[:2], ulp_up(means[later], (slice(None), -1)), means[cov]]
        )
        y_covs = np.concatenate(
            [covs, covs[:2], covs[later], ulp_up(covs[cov], (slice(None), 0, 0))]
        )
        y_dirac = np.concatenate([dirac, dirac[:2], dirac[later], dirac[cov]])
        y_dirac[3] = ~y_dirac[3]  # a Dirac against a Gaussian of the same mean
        y_covs[3] = 0.0
        y = MBDensity.from_arrays(np.full(len(y_dirac), 0.5), y_means, y_covs, y_dirac)
        for a, b in ((x, y), (y, x)):
            mx, Px, dx = a.means, a.covs, a.dirac
            my, Py, dy = b.means, b.covs, b.dirac
            same = (
                (mx.view(np.int64)[:, None] == my.view(np.int64)[None]).all(-1)
                & (dx[:, None] == dy[None])
                & (Px.view(np.int64)[:, None] == Py.view(np.int64)[None]).all((-2, -1))
            )
            assert same.any() and not same.all()
            want = np.where(same, 0.0, w2_stack(mx[:, None], Px[:, None], my[None], Py[None]))
            for c in (None, 0.5, 3.0):
                got = pairwise_base_distance(a, b, c=c)
                assert got.tobytes() == (want if c is None else np.minimum(want, c)).tobytes()


@pytest.mark.parametrize("dim", [2, 3])
def test_bures_term_near_the_double_range_is_scaled(dim):
    # tr Px + tr Py and Py^{1/2} Px Py^{1/2} overflow; the distances do not
    eye = np.eye(dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in ((8e307, 2e307), (1e308, 1e308 / 3), (1e200, 1.1e200), (1e308, 1.0)):
            want = math.sqrt(dim) * abs(math.sqrt(a) - math.sqrt(b))
            got = w2_stack(np.zeros(dim), a * eye, np.ones(dim), b * eye)
            assert got == pytest.approx(math.hypot(want, math.sqrt(dim)), rel=1e-12)
            # the scaled form is homogeneous: a plain pair scaled back is exact
            s = 2.0 ** -500
            small = w2_stack(np.zeros(dim), a * s * s * eye, np.ones(dim) * s, b * s * s * eye)
            assert got == small / s
        xs = [GaussianDensity(np.zeros(dim), 8e307 * eye), DiracDensity(np.zeros(dim))]
        ys = [GaussianDensity(np.zeros(dim), b * eye) for b in (2e307, 1e308)]
        full = pairwise_base_distance(xs, ys)
        assert np.isfinite(full).all()
        assert np.array_equal(pairwise_base_distance(xs, ys, c=10.0), np.full((2, 2), 10.0))


def test_tiny_gaps_keep_their_distance():
    # the squares of gaps below about 1e-154 underflow; the root is then
    # taken in scaled form, so distinct points never read 0.0
    for a, b, want in (
        (0.0, 3e-161, 3e-161),
        (0.0, 5e-201, 5e-201),
        (0.0, 5e-324, 5e-324),
        (-2.0**-600, 2.0**-600, 2.0**-599),
    ):
        x, y = DiracDensity([a]), DiracDensity([b])
        for dist in (euclidean_dirac, gaussian_w2):
            assert dist(x, y) == want
            assert dist(y, x) == want
    x, y = DiracDensity([0.0, 0.0]), DiracDensity([3 * 2.0**-540, 4 * 2.0**-540])
    assert euclidean_dirac(x, y) == euclidean_dirac(y, x) == 5 * 2.0**-540
    # a trace term that dominates a tiny gap keeps tt / s^2 finite
    g = GaussianDensity([0.0, 0.0], 1e-310 * np.eye(2))
    d = DiracDensity([1e-320, 0.0])
    tt = float(np.trace(g.cov))
    assert gaussian_w2(g, d) == gaussian_w2(d, g) == pytest.approx(math.sqrt(tt), rel=1e-12)
    # a normal plain form keeps its bits
    for gap in (1e-150, 1e-3, 1.0, 1e150):
        assert euclidean_dirac(DiracDensity([0.0]), DiracDensity([gap])) == math.sqrt(gap * gap)


def _old_gate(mx, Px, my, Py, c):
    """The per-coordinate gate that the product form replaced: a pair of
    (B, rows, ...) stacks is computed if its squared gap, summed one
    coordinate at a time, is below c^2 (1 + s) + s (tr Px + tr Py), or if
    both sides overflow."""
    s = distances.W2_GATE_SLACK
    with np.errstate(over="ignore", invalid="ignore"):
        dm2 = np.zeros((mx.shape[0], mx.shape[1], my.shape[1]))
        for k in range(mx.shape[-1]):
            gap = mx[:, :, None, k] - my[:, None, :, k]
            gap *= gap
            dm2 += gap
        bound = np.trace(Px, axis1=2, axis2=3)[:, :, None] + np.trace(Py, axis1=2, axis2=3)[:, None, :]
        bound *= s
        bound += c * c * (1.0 + s)
        return (dm2 < bound) | (np.isinf(dm2) & np.isinf(bound))


def _gate_blocks(rng, dim, c):
    """MB pairs for the gate: offsets up to 1e8, coordinates of 1e154-1e160
    (whose squared norms overflow) or near 1e-162 (whose squares are
    subnormal), Diracs and Gaussians of covariance scale up to 1e300,
    partners c (1 +- 3e-6) apart along one axis with the same covariance,
    and bit-equal copies."""
    scale = 1.0 if c is None else c

    def side(n, offset):
        if offset is None:
            means = rng.uniform(0.0, 4e-162, (n, dim))
        else:
            means = offset + rng.uniform(-3.0, 3.0, (n, dim)) * scale * float(rng.choice([1.0, 1e3]))
        A = rng.normal(size=(n, dim, dim))
        covs = A @ np.swapaxes(A, -1, -2) + 0.05 * np.eye(dim)
        covs *= rng.choice([1e-300, 1e-3, 1.0, 1e12, 1e300], size=(n, 1, 1))
        dirac = rng.random(n) < 0.3
        covs[dirac] = 0.0
        return means, covs, dirac

    blocks = []
    for _ in range(int(rng.integers(1, 4))):
        offset = [0.0, 1e3, 1e8, -1e8, 1e154, 3e157, 1e160, None][int(rng.integers(8))]
        (mx, Px, dx), (my, Py, dy) = side(int(rng.integers(0, 6)), offset), side(int(rng.integers(0, 5)), offset)
        k = min(len(mx), 3)
        near = mx[:k].copy()
        axis = rng.integers(dim, size=k)
        near[np.arange(k), axis] += scale * rng.choice([1.0 - 3e-6, 1.0, 1.0 + 3e-6], size=k)
        my, Py, dy = (np.concatenate(a) for a in ((my, near, mx[:2]), (Py, Px[:k], Px[:2]), (dy, dx[:k], dx[:2])))
        x = MBDensity.from_arrays(np.full(len(mx), 0.5), mx, Px, dx)
        y = MBDensity.from_arrays(np.full(len(my), 0.5), my, Py, dy)
        blocks.append((x, y))
    return blocks


@pytest.mark.parametrize("product_min", [None, 0], ids=["by-size", "product-form"])
@pytest.mark.parametrize("dim", range(1, 9))
def test_gate_computes_every_pair_of_the_coordinate_rule(dim, product_min, monkeypatch):
    # these stacks are small: at product_min 0 they take the product form
    if product_min is not None:
        monkeypatch.setattr(distances, "_PRODUCT_MIN", product_min)
    rng = np.random.default_rng(dim)
    for _ in range(6):
        for c in (1e-200, 0.3, 10.0, 1e200, None):
            blocks = _gate_blocks(rng, dim, c)
            D, sizes = distances.pairwise_blocks(blocks, c=c)
            full, _ = distances.pairwise_blocks(blocks)
            for k, (m, n) in enumerate(sizes):
                want = full[k, :m, :n] if c is None else np.minimum(full[k, :m, :n], c)
                assert D[k, :m, :n].tobytes() == want.tobytes()
                assert D[k, :m, :n].tobytes() == distances.pairwise_base_distance(*blocks[k], c=c).tobytes()
            if c is None:
                continue
            live = [(x, y) for x, y in blocks if len(x) and len(y)]
            if not live:
                continue
            xs, ys = zip(*live)
            (mx, Px, dx), (my, Py, dy) = (distances._stacked(list(s), [len(mb) for mb in s]) for s in (xs, ys))
            keep = distances._gate(mx, Px, my, Py, c)
            assert not (_old_gate(mx, Px, my, Py, c) & ~keep).any()
            padding = np.isnan(mx[:, :, None, 0]) | np.isnan(my[:, None, :, 0])
            assert not keep[padding].any()
            same = (
                (mx.view(np.int64)[:, :, None] == my.view(np.int64)[:, None]).all(-1)
                & (dx[:, :, None] == dy[:, None])
                & (Px.view(np.int64)[:, :, None] == Py.view(np.int64)[:, None]).all((-2, -1))
            )
            assert keep[same & ~padding].all()
