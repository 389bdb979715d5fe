import importlib.util
import json
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgospa import MetricParams, assignment, cli, enumerate_assignment, metric, solve_assignment
from pgospa.metric import _pair_terms, pgospa
from pgospa.model import mb_from_dict
from pgospa.montecarlo import generate_runs


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
        solve_assignment([[3.0]])  # a 1 x 1 matrix is solved too
        assert calls == [(2, 3), (1, 1)]

    def test_one_by_one_equals_enumeration(self):
        rng = np.random.default_rng(11)
        costs = [*rng.uniform(-1e3, 1e3, size=50), -2.5, -1e-300, 0.0, -0.0]
        for cost in costs:
            got, want = solve_assignment([[cost]]), enumerate_assignment([[cost]])
            assert got.pairs == want.pairs == ((0, 0),)
            assert got.total_cost.hex() == want.total_cost.hex()

    def test_single_dip_takes_no_solver(self, monkeypatch):
        # each component has at most one partner within c: ``pgospa`` scores
        # the pair in closed form, and the solver's result is the same
        rng = np.random.default_rng(12)

        def mb(n):
            r, shift = rng.uniform(0.05, 1.0, n), rng.uniform(-4.0, 4.0, n)
            return mb_from_dict({"components": [
                {"r": float(r[i]), "density": {"type": "dirac", "location": [100.0 * i + shift[i]]}}
                for i in range(n)
            ]})

        fx, fy = mb(20), mb(22)
        params = MetricParams(c=10.0, p=2.0)
        calls = []
        solve, lsa = metric.solve_assignment, assignment.linear_sum_assignment
        monkeypatch.setattr(metric, "solve_assignment", lambda C: calls.append("solve") or solve(C))
        monkeypatch.setattr(
            assignment, "linear_sum_assignment", lambda C: calls.append("lsa") or lsa(C)
        )
        got = pgospa(fx, fy, params)
        assert calls == []
        assert got.matched_pairs == tuple((i, i) for i in range(20))
        monkeypatch.setattr(metric, "_single_dip_blocks", _decline_all)
        want = pgospa(fx, fy, params)
        assert calls == ["solve", "lsa"]
        assert got == want and got.total.hex() == want.total.hex()


def _decline_all(C, sizes):
    """A stack closed form that decides no block."""
    return np.zeros(len(C), bool), np.zeros(C.shape[:2], dtype=np.intp)


def _single_dip(C):
    """The closed form on the matrix ``C`` as a stack of one block: its
    pair list, or None where it declines the block."""
    decided, cols = assignment._single_dip_blocks(C[None], np.array([C.shape]))
    return list(zip(range(C.shape[0]), cols[0].tolist())) if decided[0] else None


def _refined(C):
    """The pair list of scipy's optimum, refined by the tie walk up to
    ``LEX_REFINE_MAX`` per side: what ``solve_assignment`` reports."""
    rid, cid = assignment.linear_sum_assignment(C)
    pairs = sorted(zip(rid.tolist(), cid.tolist()))
    if max(C.shape) <= assignment.LEX_REFINE_MAX:
        pairs = assignment._lex_refine(C, pairs)
    return tuple(pairs)


def _pair_matrix(rng, m, n, p, c, band):
    """alpha = 2 assignment costs of ``metric``: ``_pair_terms`` minus the
    column's unmatched cost ry c^p/2, with base distances saturated at c
    apart from up to ``band`` entries drawn within c, each in a row and a
    column of its own."""
    cpa = c**p / 2.0
    rx = rng.uniform(0.05, 1.0, size=m)
    ry = rng.uniform(0.05, 1.0, size=n)
    D = np.full((m, n), c)
    k = min(band, m, n)
    D[rng.permutation(m)[:k], rng.permutation(n)[:k]] = rng.uniform(0.0, c, size=k)
    loc, mis = _pair_terms(rx[:, None], ry[None, :], D, p, cpa)
    return loc + mis - (ry * cpa)[None, :]


def _near_dips(rng, m, n, rel):
    """Three matrices, m >= 2 and n >= 3, that are single-dip but for one
    entry: a second dip within ``rel`` of the first in the same row, one in
    the same column, and a dip between the flat and the dip margin."""
    C = np.repeat(rng.uniform(-1.0, 1.0, size=(m, 1)), n, axis=1)
    C[0, 0] -= 0.5
    row, col = C.copy(), C.copy()
    row[0, 1] = C[0, 0] * (1.0 + rel)
    col[1, 0] = C[1, 1] - 0.5 * (1.0 + rel)
    shallow = C.copy()
    shallow[-1, -1] -= max(rel, 1e-13)
    return row, col, shallow


def _planted(rng, m, n):
    """Rows constant up to a few ulps, about half with one dip well below,
    the dips in distinct columns."""
    scale = float(10.0 ** rng.uniform(-3, 6))
    C = np.repeat(rng.uniform(-1.0, 1.0, size=(m, 1)) * scale, n, axis=1)
    C += rng.integers(-3, 4, size=(m, n)) * np.spacing(np.abs(C))
    cols = rng.permutation(max(m, n))
    for i in range(m):
        if cols[i] < n and rng.random() < 0.5:
            C[i, cols[i]] -= scale * rng.uniform(0.01, 2.0)
    return C


class TestSingleDip:
    """The closed form for single-dip matrices gives the pairs of the solve
    and the tie walk it replaces."""

    @staticmethod
    def _check(C):
        """Whether the closed form decides ``C``; where it does, its pairs
        are those of the solve and the tie walk, which up to 8 per side
        give enumeration's result."""
        got, want = _single_dip(C), _refined(C)
        if max(C.shape) <= 8:
            assert solve_assignment(C) == enumerate_assignment(C)
        if got is None:
            return False
        assert tuple(got) == want
        return True

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("c", [1.0, 10.0, 1e3])
    def test_pair_term_matrices(self, p, c):
        rng = np.random.default_rng([int(p), int(c)])
        closed = 0
        for _ in range(150):
            m, n = sorted(int(x) for x in rng.integers(1, 9 if rng.random() < 0.7 else 65, 2))
            closed += self._check(_pair_matrix(rng, m, n, p, c, int(rng.integers(0, m + 1))))
        assert closed > 100  # the common case takes the closed form

    def test_planted_matrices(self):
        rng = np.random.default_rng(404)
        closed = 0
        for _ in range(400):
            m, n = sorted(int(x) for x in rng.integers(1, 9 if rng.random() < 0.7 else 65, 2))
            closed += self._check(_planted(rng, m, n))
        assert closed == 400

    @pytest.mark.parametrize("rel", [0.0, 1e-13, 1e-9])
    def test_near_dips_fall_back(self, rel):
        # a second dip within rel of the first, in the same row or the same
        # column, and a dip between the flat and the dip margin
        rng = np.random.default_rng(505)
        for _ in range(60):
            m = int(rng.integers(2, 9 if rng.random() < 0.7 else 65))
            n = int(rng.integers(max(m, 3), 65))
            for D in _near_dips(rng, m, n, rel):
                assert _single_dip(D) is None
                self._check(D)

    def test_other_shapes_take_the_solver(self):
        # the closed form declines m > n, sides above 64 and empty sides,
        # and a stack of such blocks before it reads any entry
        rng = np.random.default_rng(606)
        shapes = [(3, 2), (9, 5), (65, 64), (2, 65), (65, 65), (70, 90), (0, 3), (0, 0)]
        for m, n in shapes:
            C = _planted(rng, min(m, n), max(m, n))
            assert _single_dip(C.T if m > n else C) is None
        sizes = np.array(shapes)
        stack = types.SimpleNamespace(shape=(len(shapes), *sizes.max(axis=0)))
        decided, cols = assignment._single_dip_blocks(stack, sizes)
        assert not decided.any() and cols.shape == stack.shape[:2]

    @pytest.mark.parametrize("workload", ["mc-tracking", "eval-ties"])
    def test_benchmark_scenes_equal_the_dense_path(self, workload, tmp_path, monkeypatch, capsys):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
        spec.loader.exec_module(workloads)
        # one entry per non-empty scored block: True if the closed form
        # over its stack decided it, as it decides the block on its own
        seen, stack_pass = [], metric._single_dip_blocks

        def decided_checked(C, sizes):
            decided, cols = stack_pass(C, sizes)
            for k, (m, n) in enumerate(sizes.tolist()):
                if m:
                    block = C[k, :m, :n]
                    assert self._check(block) == decided[k]
                    if decided[k]:
                        assert tuple(zip(range(m), cols[k, :m].tolist())) == _refined(block)
                    seen.append(bool(decided[k]))
            return decided, cols

        monkeypatch.setattr(metric, "_single_dip_blocks", decided_checked)
        for request in workloads.generate(workload, 3, tmp_path / "inputs").requests:
            assert cli.main(request.argv) == 0
        capsys.readouterr()
        assert len(seen) > 200 and 0 < sum(seen) < len(seen)


class TestSingleDipBlocks:
    """The closed form over a padded stack decides each block, and gives
    it the pairs, as it does the block on its own."""

    @staticmethod
    def _block(rng, m, n):
        """An m x n block: planted, metric costs, near dips or dense."""
        lo, hi = sorted((m, n))
        kind = int(rng.integers(4))
        if lo == 0:
            C = rng.uniform(-1.0, 1.0, size=(lo, hi))
        elif kind == 0:
            C = _planted(rng, lo, hi)
        elif kind == 1:
            C = _pair_matrix(rng, lo, hi, 2.0, 10.0, int(rng.integers(0, lo + 1)))
        elif kind == 2 and lo >= 2 and hi >= 3:
            C = _near_dips(rng, lo, hi, float(rng.choice([0.0, 1e-13, 1e-9])))[rng.integers(3)]
        else:
            C = rng.uniform(-1.0, 1.0, size=(lo, hi))
        return C if m <= n else C.T

    def test_each_block_as_on_its_own(self):
        rng = np.random.default_rng(707)
        decided_blocks = 0
        for trial in range(120):
            shapes = []
            for _ in range(int(rng.integers(2, 7))):
                m = int(rng.integers(0, 9 if rng.random() < 0.6 else 71))
                # few free columns: n = m or m + 1 half of the time
                few = rng.random() < 0.5
                n = m + int(rng.integers(0, 2)) if few else int(rng.integers(0, 71))
                shapes.append((m, n))
            if trial % 4 == 0:  # a block above 64 next to small ones
                shapes[0] = (int(rng.integers(1, 65)), int(rng.integers(65, 71)))
            blocks = [self._block(rng, m, n) for m, n in shapes]
            sizes = np.array(shapes, dtype=np.intp)
            # padding of any value, NaN included, enters no test
            C = rng.normal(scale=1e6, size=(len(shapes), *sizes.max(axis=0)))
            if trial % 2:
                C[:] = np.nan
            for k, (m, n) in enumerate(shapes):
                C[k, :m, :n] = blocks[k]
            decided, cols = assignment._single_dip_blocks(C, sizes)
            for k, block in enumerate(blocks):
                want = _single_dip(block)
                assert decided[k] == (want is not None)
                if want is None:
                    continue
                m = block.shape[0]
                assert list(zip(range(m), cols[k, :m].tolist())) == want
                assert tuple(want) == _refined(block)
                decided_blocks += 1
        assert decided_blocks > 100


def test_each_block_is_tested_once_and_only_declined_blocks_are_solved(
    tmp_path, monkeypatch, capsys
):
    # a Monte Carlo run directory (8 blocks, one declined) and one-block
    # evals: single-dip, declined, above 64 per side and with an empty side
    root = generate_runs(tmp_path / "rd", n_runs=2, n_steps=4, n_objects=5, seed=5)

    def eval_argv(name, xs, ys):
        argv = ["eval"]
        for side, locs in (("x", xs), ("y", ys)):
            doc = {"components": [
                {"r": 1.0, "density": {"type": "dirac", "location": [loc]}} for loc in locs
            ]}
            path = tmp_path / f"{name}-{side}.json"
            path.write_text(json.dumps(doc))
            argv.append(str(path))
        return argv + ["--c", "5"]

    runs = [
        (["montecarlo", str(root), "--out", str(tmp_path / "o.csv")], 8, 1),
        (eval_argv("dip", [0.0], [2.0, 30.0]), 1, 0),
        (eval_argv("two", [0.0, 1.0], [1.2, 0.1, 40.0]), 1, 1),
        (eval_argv("big", [100.0 * i for i in range(65)], [100.0 * j for j in range(66)]), 1, 1),
        (eval_argv("empty", [], [0.0, 3.0]), 1, 0),
    ]
    tested, declined, solved = [], [], []
    stack_pass, solve = metric._single_dip_blocks, metric.solve_assignment

    def spied_pass(C, sizes):
        decided, cols = stack_pass(C, sizes)
        for k, (m, n) in enumerate(sizes.tolist()):
            tested.append((m, n))
            if m and not decided[k]:
                declined.append(C[k, :m, :n].copy())
        return decided, cols

    monkeypatch.setattr(metric, "_single_dip_blocks", spied_pass)
    monkeypatch.setattr(metric, "solve_assignment", lambda C: solved.append(C.copy()) or solve(C))
    for argv, blocks, n_declined in runs:
        del tested[:], declined[:], solved[:]
        assert cli.main(argv) == 0
        assert len(tested) == blocks
        assert len(declined) == len(solved) == n_declined
        assert all(np.array_equal(a, b) for a, b in zip(declined, solved))
    capsys.readouterr()


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
