import itertools
import math

import numpy as np
import pytest

from pgospa import (
    BaseDistanceKind,
    BernoulliComponent,
    DimensionMismatchError,
    DiracDensity,
    GaussianDensity,
    MBDensity,
    MBMixture,
    MetricParams,
    SchemaError,
    append_zero_components,
    bernoulli_pgospa,
    gospa,
    mbm_pgospa,
    pgospa,
)
from pgospa import metric
from pgospa.assignment import _single_dip_blocks, solve_assignment
from pgospa.model import mb_from_dict
from pgospa.oracles import brute_force_assignment_sets, brute_force_pgospa

from conftest import make_gaussian, make_mb, make_params

P1 = MetricParams(c=5.0, p=1.0, alpha=2.0)


def dirac_mb(*locs, r=1.0):
    return MBDensity([BernoulliComponent(r, DiracDensity(np.atleast_1d(l))) for l in locs])


class TestBernoulli:
    def test_definiteness(self):
        b = BernoulliComponent(0.7, GaussianDensity([1.0], [[2.0]]))
        assert bernoulli_pgospa(b, b, P1) == 0.0

    def test_unit_existence_diracs(self):
        bx = BernoulliComponent(1.0, DiracDensity([0.0]))
        by = BernoulliComponent(1.0, DiracDensity([2.0]))
        assert bernoulli_pgospa(bx, by, P1) == pytest.approx(2.0, abs=1e-12)

    def test_existence_mismatch_value(self):
        bx = BernoulliComponent(1.0, DiracDensity([0.0]))
        by = BernoulliComponent(0.6, DiracDensity([2.0]))
        # 0.6 * 2 + 0.4 * 2.5
        assert bernoulli_pgospa(bx, by, P1) == pytest.approx(2.2, abs=1e-12)

    def test_symmetry_exact(self, rng):
        for _ in range(100):
            dim = int(rng.integers(1, 4))
            bx = BernoulliComponent(float(rng.uniform(0.05, 1)), make_gaussian(rng, dim))
            by = BernoulliComponent(float(rng.uniform(0.05, 1)), make_gaussian(rng, dim))
            params = make_params(rng)
            assert bernoulli_pgospa(bx, by, params) == bernoulli_pgospa(by, bx, params)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_equals_pgospa_bit_for_bit(self, p):
        # base_distance's canonical order: the Dirac is x, the Gaussian y
        rng = np.random.default_rng([20240917, int(p)])
        for _ in range(700):
            dim = int(rng.integers(1, 4))
            bx = BernoulliComponent(float(rng.uniform(0.05, 1)), DiracDensity(rng.uniform(-5, 5, dim)))
            by = BernoulliComponent(float(rng.uniform(0.05, 1)), make_gaussian(rng, dim))
            params = MetricParams(
                c=float(rng.uniform(0.5, 15.0)), p=p, alpha=float(rng.uniform(0.1, 2.0))
            )
            want = pgospa(MBDensity([bx]), MBDensity([by]), params).total
            assert bernoulli_pgospa(bx, by, params) == want


class TestPGospa:
    def test_both_empty(self):
        res = pgospa(MBDensity(), MBDensity(), P1)
        assert res.total == 0.0
        assert res.localization == res.existence_mismatch == res.missed == res.false_det == 0.0
        assert res.matched_pairs == ()

    def test_empty_vs_single(self):
        fy = MBDensity([BernoulliComponent(0.8, DiracDensity([1.0]))])
        res = pgospa(MBDensity(), fy, P1)
        assert res.total == pytest.approx(2.0, abs=1e-12)
        assert res.false_det == pytest.approx(2.0, abs=1e-12)
        assert res.localization == 0.0 and res.existence_mismatch == 0.0 and res.missed == 0.0
        # swapped orientation flips missed and false
        res = pgospa(fy, MBDensity(), P1)
        assert res.missed == pytest.approx(2.0, abs=1e-12)
        assert res.false_det == 0.0

    def test_heatmap_point(self):
        truth = dirac_mb(0.0)
        est = MBDensity([BernoulliComponent(0.7, GaussianDensity([2.0], [[5.0]]))])
        res = pgospa(truth, est, P1)
        # min(5, sqrt(4+5)) * 0.7 + 2.5 * 0.3
        assert res.total == pytest.approx(2.85, abs=1e-12)

    def test_saturated_pair_reported_unmatched(self):
        res = pgospa(dirac_mb(0.0), dirac_mb(100.0), P1)
        assert res.total == pytest.approx(5.0, abs=1e-12)
        assert res.matched_pairs == ()
        assert res.localization == 0.0
        assert res.missed == pytest.approx(2.5, abs=1e-12)
        assert res.false_det == pytest.approx(2.5, abs=1e-12)

    def test_brute_force_agreement(self, rng):
        for _ in range(300):
            dim = int(rng.integers(1, 4))
            params = make_params(rng)
            fx = make_mb(rng, 5, dim)
            fy = make_mb(rng, 5, dim)
            res = pgospa(fx, fy, params)
            assert res.total == pytest.approx(brute_force_pgospa(fx, fy, params), abs=1e-12)

    def test_assignment_set_agreement_and_decomposition(self, rng):
        for _ in range(300):
            dim = int(rng.integers(1, 3))
            params = make_params(rng, alpha=2.0)
            fx = make_mb(rng, 5, dim)
            fy = make_mb(rng, 5, dim)
            res = pgospa(fx, fy, params)
            value, _ = brute_force_assignment_sets(fx, fy, params)
            assert res.total == pytest.approx(value, abs=1e-12)
            total_p = res.localization + res.existence_mismatch + res.missed + res.false_det
            assert total_p == pytest.approx(res.total**params.p, abs=1e-9)
            # the reported matching is itself an assignment set achieving
            # the optimum: re-evaluate the four-way split at gamma
            cp2 = params.c**params.p / 2.0
            gam = res.matched_pairs
            from pgospa import pairwise_base_distance

            if len(fx) and len(fy):
                D = pairwise_base_distance(fx.densities, fy.densities)
                rx = fx.existence
                ry = fy.existence
                val_at_gamma = sum(
                    min(rx[i], ry[j]) * D[i, j] ** params.p + abs(rx[i] - ry[j]) * cp2
                    for i, j in gam
                )
                val_at_gamma += cp2 * (
                    sum(rx[i] for i in range(len(fx)) if i not in {i for i, _ in gam})
                    + sum(ry[j] for j in range(len(fy)) if j not in {j for _, j in gam})
                )
                assert val_at_gamma == pytest.approx(res.total**params.p, abs=1e-9)

    def test_metric_axioms(self, rng):
        for _ in range(1000):
            dim = int(rng.integers(1, 4))
            params = make_params(rng)
            fx = make_mb(rng, 5, dim)
            fy = make_mb(rng, 5, dim)
            fz = make_mb(rng, 5, dim)
            dxy = pgospa(fx, fy, params).total
            assert dxy >= 0.0
            assert abs(dxy - pgospa(fy, fx, params).total) <= 1e-12
            assert pgospa(fx, fx, params).total <= 1e-12
            assert dxy <= pgospa(fx, fz, params).total + pgospa(fz, fy, params).total + 1e-9

    def test_zero_existence_padding_invariance(self, rng):
        for _ in range(200):
            dim = int(rng.integers(1, 3))
            params = make_params(rng)
            fx = make_mb(rng, 4, dim)
            fy = make_mb(rng, 4, dim)
            base = pgospa(fx, fy, params).total
            for k in (1, 4):
                assert abs(pgospa(append_zero_components(fx, k, dim), fy, params).total - base) <= 1e-12
                assert abs(pgospa(fx, append_zero_components(fy, k, dim), params).total - base) <= 1e-12

    def test_alpha_not_two_has_no_decomposition(self):
        params = MetricParams(c=5.0, p=1.0, alpha=1.0)
        res = pgospa(dirac_mb(0.0), dirac_mb(1.0, 7.0), params)
        assert res.localization is None
        assert res.missed is None
        assert len(res.matched_pairs) == 1  # full pairing reported
        assert res.to_dict()["decomposition"] is None

    def test_near_tie_flag(self):
        # two optimal matchings: the single component pairs with either
        # neighbour at the same cost
        res = pgospa(dirac_mb(0.0, 4.0), dirac_mb(2.0), P1, detect_near_ties=True)
        assert res.near_tie is True
        res = pgospa(dirac_mb(0.0), dirac_mb(0.5), P1, detect_near_ties=True)
        assert res.near_tie is False
        res = pgospa(dirac_mb(0.0), dirac_mb(0.5), P1)
        assert res.near_tie is None

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            pgospa(dirac_mb([0.0, 1.0]), dirac_mb(1.0), P1)

    def test_hellinger_base(self, rng):
        fx = MBDensity([BernoulliComponent(0.8, make_gaussian(rng, 2))])
        fy = MBDensity([BernoulliComponent(0.5, make_gaussian(rng, 2))])
        res = pgospa(fx, fy, MetricParams(c=0.9, p=1.0, alpha=2.0), BaseDistanceKind.HELLINGER)
        assert res.total >= 0.0
        assert res.base == "hellinger"

    def test_euclidean_base_requires_diracs(self, rng):
        fx = MBDensity([BernoulliComponent(0.8, make_gaussian(rng, 2))])
        with pytest.raises(ValueError):
            pgospa(fx, fx, P1, BaseDistanceKind.EUCLIDEAN)


def tie_heavy_doc(rng, n):
    """MB document with grid-aligned 2-D Diracs and Gaussians, existence
    levels including zero, and a duplicated component."""
    comps = []
    for _ in range(n):
        r = float(rng.choice([0.0, 0.5, 1.0]))
        loc = rng.integers(0, 4, size=2).astype(float).tolist()
        if rng.random() < 0.7:
            density = {"type": "dirac", "location": loc}
        else:
            var = float(rng.choice([0.25, 1.0]))
            density = {"type": "gaussian", "mean": loc, "cov": [[var, 0.0], [0.0, var]]}
        comps.append({"r": r, "density": density})
    if n > 1 and rng.random() < 0.5:
        comps[-1] = comps[0]
    return {"components": comps}


class TestNearTieCertificate:
    """The dual certificate may only answer "no near tie"; every other case
    runs the re-solve loop ``_near_alternative``, so the flag must equal
    the loop's on every input."""

    @pytest.fixture
    def outcomes(self, monkeypatch):
        seen = []
        certify = metric._no_near_tie

        def recorded(*args):
            seen.append(certify(*args))
            return seen[-1]

        monkeypatch.setattr(metric, "_no_near_tie", recorded)
        return seen

    @staticmethod
    def loop_only(monkeypatch, fx, fy, params):
        with monkeypatch.context() as patch:
            patch.setattr(metric, "_no_near_tie", lambda *args: False)
            return pgospa(fx, fy, params, detect_near_ties=True)

    def test_flag_equals_loop_on_tie_heavy_pairs(self, monkeypatch, outcomes):
        rng = np.random.default_rng(7)
        for _ in range(40):
            nx, ny = (int(n) for n in rng.integers(0, 7, size=2))
            fx = mb_from_dict(tie_heavy_doc(rng, nx), allow_zero_existence=True)
            fy = mb_from_dict(tie_heavy_doc(rng, ny), allow_zero_existence=True)
            c = float(rng.choice([0.5, 1.0, 1.5, 3.0]))
            for alpha in (2.0, 1.0, 0.5):
                for p in (1.0, 2.0, 3.0):
                    params = MetricParams(c=c, p=p, alpha=alpha)
                    res = pgospa(fx, fy, params, detect_near_ties=True)
                    assert res == self.loop_only(monkeypatch, fx, fy, params)
        assert outcomes.count(True) > 0  # certified "no near tie"
        assert outcomes.count(False) > 0  # undecided: the loop decides

    def test_true_cases_reach_the_loop(self, outcomes):
        res = pgospa(dirac_mb(0.0, 4.0), dirac_mb(2.0), P1, detect_near_ties=True)
        assert res.near_tie is True and outcomes == [False]
        params = MetricParams(c=5.0, p=2.0, alpha=1.0)
        res = pgospa(dirac_mb(0.0), dirac_mb(100.0, 200.0), params, detect_near_ties=True)
        assert res.near_tie is True and outcomes == [False, False]

    def test_near_tie_solves_call_through_the_module_binding(self, monkeypatch, outcomes):
        # the benchmark's tracer wraps metric.linear_sum_assignment by name
        calls = []
        solve = metric.linear_sum_assignment

        def counted(C):
            calls.append(C.shape)
            return solve(C)

        monkeypatch.setattr(metric, "linear_sum_assignment", counted)
        res = pgospa(dirac_mb(0.0, 4.0), dirac_mb(2.0), P1, detect_near_ties=True)
        assert res.near_tie is True and outcomes == [False]
        assert calls == [(1, 2)]  # one re-solve per matched pair

    def test_bound_holds_on_small_matrices(self):
        # integer costs with ties and column offsets (negative duals); the
        # best matching that reports other pairs is found by enumeration
        rng = np.random.default_rng(3)
        certified = 0
        for trial in range(600):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(m, 6))
            offsets = rng.integers(0, 4, size=n).astype(float)
            C = rng.integers(0, 4, size=(m, n)).astype(float) - offsets
            reported = rng.random((m, n)) < 0.5 if trial % 2 else np.ones((m, n), bool)
            pairs = solve_assignment(C).pairs
            cols = np.array([j for _, j in pairs])
            best = C[np.arange(m), cols].sum()
            shown = {pair for pair in pairs if reported[pair]}
            second = min(
                (
                    C[np.arange(m), perm].sum()
                    for perm in itertools.permutations(range(n), m)
                    if {(i, j) for i, j in enumerate(perm) if reported[i, j]} != shown
                ),
                default=np.inf,
            )
            if metric._no_near_tie(C, cols, reported, best + offsets.sum(), 1.0):
                certified += 1
                assert second - best > 2 * metric.NEAR_TIE_ABS_TOL
        assert 100 < certified < 500

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_dip_bound_holds_on_single_dip_matrices(self, p):
        # Matrices the closed form decides: flat rows jittered inside its flat
        # tolerance, dips at depths whose root-unit gaps straddle twice the
        # near-tie tolerance (at p = 1 every dip is deeper, and the near ties
        # come from reported flat entries), reported dips, and some reported
        # flat entries, matched or not.  The best matching that reports other
        # pairs is found by enumeration.
        rng = np.random.default_rng([4, int(p)])
        twice_tol = 2 * metric.NEAR_TIE_ABS_TOL
        outcomes, near_ties = [], 0
        for trial in range(900):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(m, 6))
            top = rng.uniform(-2.0, 2.0, m)
            C = top[:, None] - rng.uniform(0.0, 0.9e-12 / (4 * (m + n)), (m, n))
            dips = np.flatnonzero(rng.random(m) < 0.7)
            dip_cols = rng.permutation(n)[: len(dips)]
            C[dips, dip_cols] = top[dips] - 10.0 ** rng.uniform(-8.5, -4.0, len(dips))
            decided, cols = _single_dip_blocks(C[None], np.array([C.shape]))
            if not decided[0]:
                continue
            rows, cols = np.arange(m), cols[0]
            reported = np.zeros((m, n), bool)
            shown_dips = rng.random(len(dips)) < 0.8
            reported[dips[shown_dips], dip_cols[shown_dips]] = True
            flat_rows = np.setdiff1d(rows, dips)
            if trial % 3 == 1 and len(flat_rows):  # a matched flat entry
                i = rng.choice(flat_rows)
                reported[i, cols[i]] = True
            elif trial % 3 == 2:  # any entry, mostly an unmatched flat one
                reported[rng.integers(m), rng.integers(n)] = True
            offset = 10.0 ** rng.uniform(1.0, 4.0)  # keeps every total positive
            total_p = math.fsum(C[rows, cols]) + offset
            shown = {(i, j) for i, j in enumerate(cols.tolist()) if reported[i, j]}
            second = min(
                (
                    math.fsum(C[rows, perm]) + offset
                    for perm in itertools.permutations(range(n), m)
                    if {(i, j) for i, j in enumerate(perm) if reported[i, j]} != shown
                ),
                default=np.inf,
            )
            gap = second ** (1.0 / p) - total_p ** (1.0 / p)
            near_ties += gap <= twice_tol
            outcomes.append(metric._no_near_tie(C, cols, reported, total_p, p, True))
            if outcomes[-1]:
                assert gap > twice_tol, (trial, C, reported)
        assert near_ties > 0
        assert outcomes.count(True) > 100  # certified "no near tie"
        assert outcomes.count(False) > 100  # declined

    def test_clear_optimum_is_certified(self, outcomes):
        # each x component has one y component within c; the third y is
        # far from both
        res = pgospa(dirac_mb(0.0, 10.0), dirac_mb(0.5, 10.5, 30.0), P1, detect_near_ties=True)
        assert res.near_tie is False and outcomes == [True]

    @pytest.mark.parametrize("alpha", [2.0, 1.0])
    def test_overflowing_cutoff_agrees_with_loop(self, monkeypatch, outcomes, alpha):
        # c^p / alpha is near the largest float: slacks and bounds overflow
        fx, fy = dirac_mb(0.0, 3.0), dirac_mb(1.0, 2.0, 1e3)
        params = MetricParams(c=1.3e154, p=2.0, alpha=alpha)
        res = pgospa(fx, fy, params, detect_near_ties=True)
        assert len(outcomes) == 1
        assert res == self.loop_only(monkeypatch, fx, fy, params)


class TestGospa:
    def test_identical_sets(self):
        X = np.array([[0.0, 1.0], [2.0, 3.0]])
        assert gospa(X, X, P1).total == 0.0

    def test_single_pair(self):
        res = gospa([[0.0]], [[2.0]], P1)
        assert res.total == pytest.approx(2.0, abs=1e-12)
        assert res.localization == pytest.approx(2.0, abs=1e-12)
        assert res.existence_mismatch == 0.0

    def test_unmatched_singleton(self):
        res = gospa(np.zeros((0, 1)), [[7.0]], P1)
        assert res.total == pytest.approx(2.5, abs=1e-12)
        assert res.false_det == pytest.approx(2.5, abs=1e-12)

    def test_points_without_coordinates_are_a_schema_error(self):
        # rows without coordinates are refused, as ``eval`` refuses them;
        # an array without rows is the empty set
        for x, y in [([[]], [[1.0, 2.0]]), ([[1.0, 2.0]], [[]]), ([[]], [[]])]:
            with pytest.raises(SchemaError, match="at least one coordinate"):
                gospa(x, y, P1)
        want = gospa(np.zeros((0, 2)), [[1.0, 2.0]], P1).total
        assert gospa([], [[1.0, 2.0]], P1).total == want == 2.5

    @pytest.mark.parametrize(
        "points, message",
        [
            ([["1", True]], "'points' is not an array of numbers"),
            ([[True]], "'points' is not an array of numbers"),
            (np.array([[True]]), "'points' is not an array of numbers"),
            ([1.0, 2.0], "'points' must be a list of equal-length vectors"),
            (5.0, "'points' must be a list of equal-length vectors"),
            ([[0.0, np.inf]], "point set contains non-finite entries"),
        ],
    )
    def test_points_are_read_as_eval_reads_them(self, points, message):
        # numeric strings, booleans, 1-D arrays and scalars are no point sets
        for x, y in [(points, [[0.0, 0.0]]), ([[0.0, 0.0]], points)]:
            with pytest.raises(SchemaError, match=message):
                gospa(x, y, P1)

    def test_swapped_orientation_decomposition_sides(self):
        # more ground-truth points than estimates: the surplus is missed
        res = gospa([[0.0], [10.0]], [[0.0]], P1)
        assert res.matched_pairs == ((0, 0),)
        assert res.missed == pytest.approx(2.5, abs=1e-12)
        assert res.false_det == 0.0

    def test_reduction_to_pgospa_on_lifted_mbs(self, rng):
        for _ in range(300):
            dim = int(rng.integers(1, 4))
            nx, ny = int(rng.integers(0, 7)), int(rng.integers(0, 7))
            X = rng.uniform(-10, 10, size=(nx, dim))
            Y = rng.uniform(-10, 10, size=(ny, dim))
            params = make_params(rng)
            fx = dirac_mb(*X) if nx else MBDensity()
            fy = dirac_mb(*Y) if ny else MBDensity()
            assert abs(gospa(X, Y, params).total - pgospa(fx, fy, params).total) <= 1e-12

    def test_equals_pgospa_on_lifted_mbs_exactly(self, rng):
        for k in range(120):
            dim = int(rng.integers(1, 4))
            hi = 64 if k % 10 == 0 else 8
            nx, ny = int(rng.integers(0, hi + 1)), int(rng.integers(0, hi + 1))
            # a coarse grid makes exact distance ties common
            X = rng.integers(-4, 5, size=(nx, dim)).astype(float)
            Y = rng.uniform(-4, 4, size=(ny, dim)).round(int(rng.integers(0, 3)))
            params = make_params(rng, alpha=2.0 if k % 2 else None)
            fx = dirac_mb(*X) if nx else MBDensity()
            fy = dirac_mb(*Y) if ny else MBDensity()
            got = gospa(X, Y, params)
            want = pgospa(fx, fy, params, BaseDistanceKind.EUCLIDEAN)
            assert got.total == want.total
            assert got.matched_pairs == want.matched_pairs
            terms = ("localization", "existence_mismatch", "missed", "false_det")
            for term in terms:
                assert getattr(got, term) == getattr(want, term)

    def test_decomposition_identity(self, rng):
        for _ in range(200):
            dim = int(rng.integers(1, 3))
            X = rng.uniform(-10, 10, size=(int(rng.integers(0, 6)), dim))
            Y = rng.uniform(-10, 10, size=(int(rng.integers(0, 6)), dim))
            params = make_params(rng, alpha=2.0)
            res = gospa(X, Y, params)
            total_p = res.localization + res.existence_mismatch + res.missed + res.false_det
            assert total_p == pytest.approx(res.total**params.p, abs=1e-9)


def test_gap_below_an_underflowing_cutoff_square_is_matched():
    # at p = 1 the cut-off 1e-200 is admitted though c^2 underflows to 0;
    # the gap 5e-201 lies within it, and its square underflows too
    for c in (1.0, 1e-200):
        res = gospa([[0.0]], [[5e-201]], MetricParams(c=c, p=1.0))
        assert res.total == res.localization == 5e-201
        assert res.matched_pairs == ((0, 0),)
    xs = [DiracDensity([0.0]), DiracDensity([1.0]), DiracDensity([-5e-201])]
    ys = [DiracDensity([5e-201]), DiracDensity([0.0]), DiracDensity([1.0])]
    full = metric.pairwise_base_distance(xs, ys)
    gated = metric.pairwise_base_distance(xs, ys, c=1e-200)
    assert gated.tobytes() == np.minimum(full, 1e-200).tobytes()
    assert gated[0, 0] == 5e-201 and gated[1, 2] == 0.0


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_cost_grids_are_the_pair_terms(p):
    # the in-place cost build takes _pair_terms' operations over the stack
    rng = np.random.default_rng(int(2 * p))
    c, alpha = 4.0, 1.5
    params = MetricParams(c=c, p=p, alpha=alpha)
    blocks = random_blocks(rng, c, [(0, 3), (2, 2), (5, 9), (12, 11), (1, 7)])
    D, sizes = stack(blocks, rng)
    rx, ry, _, _ = zip(*blocks)
    scores = metric._score_blocks(list(rx), list(ry), D, sizes, params)
    cpa = c**p / alpha
    rxp = metric._padded(list(rx), sizes[:, 0], D.shape[1])
    ryp = metric._padded(list(ry), sizes[:, 1], D.shape[2])
    loc, mis = metric._pair_terms(rxp[:, :, None], ryp[:, None, :], D, p, cpa)
    assert scores.pair_cost.tobytes() == (loc + mis).tobytes()
    assert scores.reduced.tobytes() == (loc + mis - (ryp * cpa)[:, None, :]).tobytes()


class TestMBM:
    def test_single_entry(self, rng):
        mb = make_mb(rng, 3, 2, min_n=1)
        ref = make_mb(rng, 3, 2)
        mix = MBMixture([(1.0, mb)])
        assert mbm_pgospa(mix, ref, P1) == pytest.approx(pgospa(mb, ref, P1).total, abs=1e-12)

    def test_weighted_sum(self):
        ref = dirac_mb(0.0)
        mb2 = dirac_mb(2.0)  # distance 2
        mb4 = dirac_mb(4.0)  # distance 4
        mix = MBMixture([(0.5, mb2), (0.5, mb4)])
        assert mbm_pgospa(mix, ref, MetricParams(c=10.0, p=1.0, alpha=2.0)) == pytest.approx(3.0, abs=1e-12)

    def test_identical_entries(self, rng):
        mb = make_mb(rng, 3, 1, min_n=1)
        ref = make_mb(rng, 3, 1)
        mix = MBMixture([(0.25, mb), (0.75, mb)])
        assert mbm_pgospa(mix, ref, P1) == pytest.approx(pgospa(mb, ref, P1).total, abs=1e-12)

    def test_empty_mixture_rejected(self):
        with pytest.raises(ValueError):
            mbm_pgospa(MBDensity(), dirac_mb(0.0), P1)  # wrong type counts as empty


class TestCutoffSweep:
    def test_default_scenario_rows_match_brute_force(self):
        from pgospa.cli import _load_scenario

        fx, fy = _load_scenario(None)
        saw_unmatched = False
        for k in range(1, 101):
            c = k / 10.0
            params = MetricParams(c=c, p=1.0, alpha=2.0)
            res = pgospa(fx, fy, params)
            assert res.total == pytest.approx(brute_force_pgospa(fx, fy, params), abs=1e-12)
            total_p = res.localization + res.existence_mismatch + res.missed + res.false_det
            assert total_p == pytest.approx(res.total**params.p, abs=1e-9)
            if res.missed + res.false_det > 0:
                saw_unmatched = True
        # all components pair up once c exceeds the largest matched distance
        res = pgospa(fx, fy, MetricParams(c=10.0, p=1.0, alpha=2.0))
        assert res.missed == 0.0 and res.false_det == 0.0
        assert saw_unmatched
        # c -> 0 limit: every term scales with c
        res = pgospa(fx, fy, MetricParams(c=0.1, p=1.0, alpha=2.0))
        assert res.total <= 0.3


@pytest.mark.parametrize("alpha", [2.0, 1.0])
@pytest.mark.parametrize("detect", [False, True])
def test_two_empty_mbs_field_for_field(alpha, detect):
    params = MetricParams(c=5.0, p=2.0, alpha=alpha)
    res = pgospa(MBDensity(), MBDensity(), params, detect_near_ties=detect)
    zero = 0.0 if alpha == 2.0 else None
    want = metric.PGospaResult(0.0, (), zero, zero, zero, zero, 5.0, 2.0, alpha, "w2",
                               False if detect else None)
    assert res == want
    assert [type(v) for v in vars(res).values()] == [type(v) for v in vars(want).values()]


# ---------------------------------------------------------------------------
# Stacked scoring against a plain loop over each block


def loop_scores(rx, ry, D, p, c, alpha):
    """Total and p-th-power terms of one block (m <= n) from
    ``solve_assignment`` and plain Python sums, each from 0.0 left to right.
    The entries of ``D ** p`` are numpy's, as the metric takes them, and
    against an empty side the total is numpy's sum, as the metric
    documents."""
    m, n = D.shape
    cpa = c**p / alpha
    rx, ry, Dp = rx.tolist(), ry.tolist(), (D**p).tolist()
    loc = [[min(rx[i], ry[j]) * Dp[i][j] for j in range(n)] for i in range(m)]
    mis = [[abs(rx[i] - ry[j]) * cpa for j in range(n)] for i in range(m)]
    cost = [[loc[i][j] + mis[i][j] for j in range(n)] for i in range(m)]
    reduced = np.array([[cost[i][j] - ry[j] * cpa for j in range(n)] for i in range(m)])
    pairs = solve_assignment(reduced.reshape(m, n)).pairs
    matched = {j for _, j in pairs}
    gamma = [(i, j) for i, j in pairs if D[i, j] < c]
    in_gamma = {j for _, j in gamma}
    hidden = [i for i, j in pairs if D[i, j] >= c]
    pair_sum = free_sum = terms_loc = terms_mis = missed = false = 0.0
    for i, j in pairs:
        pair_sum += cost[i][j]
    for j in range(n):
        if j not in matched:
            free_sum += ry[j] * cpa
    total_p = pair_sum + free_sum
    for i, j in gamma:
        terms_loc += loc[i][j]
        terms_mis += mis[i][j]
    for i in hidden:
        missed += rx[i] * cpa
    for j in range(n):
        if j not in in_gamma:
            false += ry[j] * cpa
    if m == 0:
        total_p = false = float(np.sum(np.array(ry) * cpa))
    return total_p ** (1.0 / p), (terms_loc, terms_mis, missed, false)


def random_blocks(rng, c, sides):
    """Blocks (rx, ry, D, swapped) with m <= n after orientation: random
    existences, distances in [0, 1.5 c) clipped at c, and some rows exactly
    flat (every entry at c, or one value across the row)."""
    blocks = []
    for a, b in sides:
        m, n = min(a, b), max(a, b)
        D = np.minimum(rng.uniform(0.0, 1.5 * c, (m, n)), c)
        for i in np.flatnonzero(rng.random(m) < 0.2):
            D[i] = c if rng.random() < 0.5 else rng.uniform(0.0, c)
        blocks.append((rng.uniform(0.05, 1.0, m), rng.uniform(0.05, 1.0, n), D, a > b))
    return blocks


def stack(blocks, rng):
    """The blocks' distances as one (B, M, N) stack with random padding, and
    the (B, 2) block sizes."""
    sizes = np.array([D.shape for _, _, D, _ in blocks], dtype=np.intp)
    D = rng.uniform(0.0, 20.0, (len(blocks),) + tuple(sizes.max(axis=0)))
    for k, (_, _, Dk, _) in enumerate(blocks):
        D[k, : len(Dk), : Dk.shape[1]] = Dk
    return D, sizes


@pytest.mark.parametrize("alpha", [2.0, 1.0])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_stacked_scores_equal_a_loop_per_block(p, alpha):
    rng = np.random.default_rng([int(p), int(alpha)])
    c = 4.0
    params = MetricParams(c=c, p=p, alpha=alpha)
    # empty sides, m > n before orientation, and sides above 64
    sides = [(0, 0), (0, 40), (9, 0), (1, 1), (3, 7), (7, 3), (20, 21), (66, 70), (70, 66)]
    sides += [tuple(rng.integers(0, 71, 2)) for _ in range(9)]
    blocks = random_blocks(rng, c, sides)
    D, sizes = stack(blocks, rng)
    rx, ry, _, _ = zip(*blocks)
    scores = metric._score_blocks(list(rx), list(ry), D, sizes, params)
    for k, (rxk, ryk, Dk, swapped) in enumerate(blocks):
        total, terms = loop_scores(rxk, ryk, Dk, p, c, alpha)
        one = metric._score(rxk, ryk, Dk, params, BaseDistanceKind.W2, swapped=swapped)
        assert scores.total[k].hex() == one.total.hex() == total.hex(), k
        if alpha != 2.0:
            assert scores.terms is None and one.localization is None
            continue
        assert [float(term[k]).hex() for term in scores.terms] == [t.hex() for t in terms], k
        loc, mism, missed, false = terms
        if swapped:  # the operands in the other order
            missed, false = false, missed
        one_terms = [one.localization, one.existence_mismatch, one.missed, one.false_det]
        assert [t.hex() for t in one_terms] == [t.hex() for t in (loc, mism, missed, false)], k
