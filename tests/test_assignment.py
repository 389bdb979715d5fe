import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgospa import assignment, enumerate_assignment, solve_assignment


class TestExamples:
    def test_one_by_one(self):
        res = solve_assignment([[3.0]])
        assert res.pairs == ((0, 0),)
        assert res.total_cost == 3.0

    def test_two_by_two(self):
        res = solve_assignment([[1.0, 2.0], [2.0, 1.0]])
        assert res.pairs == ((0, 0), (1, 1))
        assert res.total_cost == 2.0

    def test_rectangular(self):
        res = solve_assignment([[5.0, 1.0, 9.0], [2.0, 8.0, 3.0]])
        assert res.pairs == ((0, 1), (1, 0))
        assert res.total_cost == 3.0

    def test_empty(self):
        assert solve_assignment(np.zeros((0, 4))).pairs == ()
        assert enumerate_assignment(np.zeros((0, 4))).total_cost == 0.0
        assert solve_assignment(np.zeros((3, 0))).pairs == ()

    def test_identical_entries_lexicographic(self):
        res = solve_assignment(np.ones((3, 5)))
        assert res.pairs == ((0, 0), (1, 1), (2, 2))
        res = solve_assignment(np.ones((5, 3)))
        assert res.pairs == ((0, 0), (1, 1), (2, 2))
        res = enumerate_assignment(np.ones((4, 2)))
        assert res.pairs == ((0, 0), (1, 1))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            solve_assignment([[1.0, float("nan")]])
        with pytest.raises(ValueError, match="finite"):
            enumerate_assignment([[float("inf")]])

    def test_enumeration_size_bound(self):
        with pytest.raises(ValueError, match="<= 8"):
            enumerate_assignment(np.zeros((9, 2)))


class TestSolverBinding:
    """The benchmark's tracer wraps ``assignment.linear_sum_assignment`` by
    name, so every solve must look it up there."""

    def test_solves_call_through_the_module_binding(self, monkeypatch):
        C = [[5.0, 1.0, 9.0], [2.0, 8.0, 3.0]]
        solve_assignment(C)  # the solver import must not rebind the name
        solve = assignment.linear_sum_assignment
        assert solve.__module__ == assignment.__name__
        calls = []

        def counted(C):
            calls.append(C.shape)
            return solve(C)

        monkeypatch.setattr(assignment, "linear_sum_assignment", counted)
        assert solve_assignment(C).pairs == ((0, 1), (1, 0))
        assert calls == [(2, 3)]
        solve_assignment([[3.0]])  # one matching: no solve
        assert calls == [(2, 3)]

    def test_one_by_one_equals_enumeration(self):
        rng = np.random.default_rng(11)
        costs = [*rng.uniform(-1e3, 1e3, size=50), -2.5, -1e-300, 0.0, -0.0]
        for cost in costs:
            got, want = solve_assignment([[cost]]), enumerate_assignment([[cost]])
            assert got.pairs == want.pairs == ((0, 0),)
            assert got.total_cost.hex() == want.total_cost.hex()


class TestOracleAgreement:
    def test_random_float_matrices(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            m, n = rng.integers(1, 8, size=2)
            C = rng.uniform(-10.0, 10.0, size=(m, n))
            got = solve_assignment(C)
            want = enumerate_assignment(C)
            assert abs(got.total_cost - want.total_cost) <= 1e-12
            assert got.pairs == want.pairs

    def test_integer_matrices_with_ties(self):
        rng = np.random.default_rng(202)
        for _ in range(800):
            m, n = rng.integers(1, 7, size=2)
            C = rng.integers(0, 4, size=(m, n)).astype(float)
            got = solve_assignment(C)
            want = enumerate_assignment(C)
            assert got.total_cost == want.total_cost
            assert got.pairs == want.pairs

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(1, 5),
        st.integers(0, 2**31 - 1),
        st.booleans(),
    )
    def test_hypothesis_matrices(self, m, n, seed, integral):
        rng = np.random.default_rng(seed)
        if integral:
            C = rng.integers(-3, 4, size=(m, n)).astype(float)
        else:
            C = rng.normal(0.0, 5.0, size=(m, n))
        got = solve_assignment(C)
        want = enumerate_assignment(C)
        assert abs(got.total_cost - want.total_cost) <= 1e-12
        assert got.pairs == want.pairs


class TestTieRuleBeyondEnumeration:
    @staticmethod
    def _block_diagonal(rng, wide):
        """9-64 per side: blocks of at most 6 x 6 with costs 0-2 (or all
        zero), off-block entries 100; every block has at most as many rows
        as columns if ``wide``, at least as many otherwise."""
        while True:
            blocks, m, n = [], 0, 0
            target = int(rng.integers(9, 65))
            while max(m, n) < target:
                a, b = sorted(int(x) for x in rng.integers(1, 7, size=2))
                if not wide:
                    a, b = b, a
                if max(m + a, n + b) > 64:
                    break
                if rng.random() < 0.3:
                    block = np.zeros((a, b))
                else:
                    block = rng.integers(0, 3, size=(a, b)).astype(float)
                blocks.append((m, n, block))
                m, n = m + a, n + b
            if min(m, n) >= 9:
                break
        C = np.full((m, n), 100.0)
        for i0, j0, block in blocks:
            C[i0 : i0 + block.shape[0], j0 : j0 + block.shape[1]] = block
        return C, blocks

    @pytest.mark.parametrize("wide", [True, False])
    def test_block_diagonal_ties_match_per_block_enumeration(self, wide):
        # every optimum stays inside the blocks, so the lexicographically
        # smallest one is the blockwise smallest ones concatenated
        rng = np.random.default_rng(303 + wide)
        for _ in range(40):
            C, blocks = self._block_diagonal(rng, wide)
            want = []
            total = 0.0
            for i0, j0, block in blocks:
                sub = enumerate_assignment(block)
                want += [(i0 + i, j0 + j) for i, j in sub.pairs]
                total += sub.total_cost
            got = solve_assignment(C)
            assert got.pairs == tuple(want)
            assert got.total_cost == total


class TestStructure:
    def test_row_constant_shift(self):
        # rows-complete case: every matching uses the shifted row, so the
        # optimum moves by exactly the constant and the pair set is stable
        rng = np.random.default_rng(7)
        for _ in range(100):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(m, 8))
            C = rng.uniform(0.0, 5.0, size=(m, n))
            base = solve_assignment(C)
            row = int(rng.integers(0, m))
            shift = float(rng.uniform(0.5, 3.0))
            shifted = C.copy()
            shifted[row] += shift
            res = solve_assignment(shifted)
            assert res.pairs == base.pairs
            assert res.total_cost == pytest.approx(base.total_cost + shift, abs=1e-9)

    def test_pairs_are_a_matching(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            m, n = rng.integers(1, 9, size=2)
            res = solve_assignment(rng.uniform(-1, 1, size=(m, n)))
            rows = [i for i, _ in res.pairs]
            cols = [j for _, j in res.pairs]
            assert len(res.pairs) == min(m, n)
            assert len(set(rows)) == len(rows)
            assert len(set(cols)) == len(cols)

    def test_total_matches_pair_sum(self):
        rng = np.random.default_rng(9)
        C = rng.uniform(-5, 5, size=(6, 4))
        res = solve_assignment(C)
        assert res.total_cost == pytest.approx(sum(C[i, j] for i, j in res.pairs), abs=1e-12)


def test_large_instance_under_a_second():
    rng = np.random.default_rng(55)
    C = rng.uniform(0.0, 1.0, size=(500, 500))
    start = time.perf_counter()
    res = solve_assignment(C)
    elapsed = time.perf_counter() - start
    assert len(res.pairs) == 500
    assert elapsed < 1.0
