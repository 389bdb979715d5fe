import contextlib
import io
import json
import linecache
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgospa import cli, metric, model
from pgospa.cli import main
from pgospa.distances import pairwise_base_distance
from pgospa.metric import mbm_pgospa, pgospa
from pgospa.model import (
    BernoulliComponent,
    DiracDensity,
    GaussianDensity,
    MBDensity,
    MetricParams,
    canonical_json,
    mb_from_dict,
    mbm_from_dict,
)
from pgospa.selfcheck import faulty_solver


def write(path: Path, doc) -> str:
    path.write_text(canonical_json(doc) + "\n", encoding="utf-8")
    return str(path)


def mb_doc(*comps):
    return {"components": list(comps)}


def dirac(r, *loc):
    return {"r": r, "density": {"type": "dirac", "location": list(loc)}}


def gauss(r, mean, cov):
    return {"r": r, "density": {"type": "gaussian", "mean": mean, "cov": cov}}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_identical_mbs(self, tmp_path, capsys):
        f = write(tmp_path / "x.json", mb_doc(gauss(0.7, [1.0], [[2.0]])))
        code, out, _ = run(capsys, "eval", f, f)
        assert code == 0
        doc = json.loads(out)
        assert doc["total"] == 0.0
        assert doc["near_tie"] is False

    def test_unit_dirac_pair(self, tmp_path, capsys):
        fx = write(tmp_path / "x.json", mb_doc(dirac(1.0, 0.0)))
        fy = write(tmp_path / "y.json", mb_doc(dirac(1.0, 2.0)))
        code, out, _ = run(capsys, "eval", fx, fy, "--c", "5", "--p", "1", "--alpha", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["total"] == pytest.approx(2.0, abs=1e-12)
        assert doc["decomposition"]["localization"] == pytest.approx(2.0, abs=1e-12)
        assert doc["matched_pairs"] == [[0, 0]]

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"components": [}', encoding="utf-8")
        good = write(tmp_path / "y.json", mb_doc(dirac(1.0, 0.0)))
        code, _, err = run(capsys, "eval", str(bad), good)
        assert code == 2
        assert "line" in err and "column" in err

    def test_invalid_utf8_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"components": [\xff]}')
        good = write(tmp_path / "y.json", mb_doc(dirac(1.0, 0.0)))
        code, _, err = run(capsys, "eval", str(bad), good)
        assert code == 2
        assert err == "error: invalid JSON: not UTF-8 text (invalid start byte at byte 16)\n"

    def test_over_deep_nesting_exits_2(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        good = write(tmp_path / "y.json", mb_doc(dirac(1.0, 0.0)))
        code, _, err = run(capsys, "eval", good, str(deep))
        assert code == 2
        assert err == "error: invalid JSON: nesting too deep to decode\n"

    def test_schema_violation_exits_2(self, tmp_path, capsys):
        fx = write(tmp_path / "x.json", mb_doc(dirac(1.2, 0.0)))
        fy = write(tmp_path / "y.json", mb_doc(dirac(1.0, 0.0)))
        code, _, err = run(capsys, "eval", fx, fy)
        assert code == 2
        assert "existence probability" in err

    def test_dimension_mismatch_exits_3(self, tmp_path, capsys):
        fx = write(tmp_path / "x.json", mb_doc(dirac(1.0, 0.0)))
        fy = write(tmp_path / "y.json", mb_doc(dirac(1.0, 0.0, 1.0)))
        code, _, err = run(capsys, "eval", fx, fy)
        assert code == 3

    def test_mixture_route(self, tmp_path, capsys):
        ref = write(tmp_path / "ref.json", mb_doc(dirac(1.0, 0.0)))
        mix = write(
            tmp_path / "mix.json",
            {
                "mixture": [
                    {"weight": 0.5, "mb": mb_doc(dirac(1.0, 2.0))},
                    {"weight": 0.5, "mb": mb_doc(dirac(1.0, 4.0))},
                ]
            },
        )
        code, out, _ = run(capsys, "eval", mix, ref, "--c", "10", "--p", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["total"] == pytest.approx(3.0, abs=1e-12)
        assert len(doc["mixture"]["entries"]) == 2

    def test_document_with_components_and_mixture_is_an_mb(self, tmp_path, capsys):
        # read as montecarlo reads it: the empty MB, not the mixture entry
        ref = write(tmp_path / "ref.json", mb_doc(dirac(1.0, 0.0), dirac(1.0, 50.0)))
        both = {"mixture": [{"weight": 1, "mb": mb_doc(dirac(1.0, 3.0))}], "components": []}
        code, out, _ = run(capsys, "eval", write(tmp_path / "both.json", both), ref)
        assert code == 0
        doc = json.loads(out)
        assert doc["total"] == 10.0
        assert doc["decomposition"]["false"] == 100.0

    def test_point_sets_route(self, tmp_path, capsys):
        fx = write(tmp_path / "x.json", {"points": [[0.0]]})
        fy = write(tmp_path / "y.json", {"points": [[2.0]]})
        code, out, _ = run(capsys, "eval", fx, fy, "--c", "5", "--p", "1")
        assert code == 0
        assert json.loads(out)["total"] == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize(
        "x, y, flags",
        [
            ([[0.0]], [[2.0]], []),
            ([[0.0, 0.0], [4.0, 0.0]], [[2.0, 0.0], [9.0, 9.0], [2.0, 3.0]], ["--c", "5"]),
            ([[0.0], [2.0], [50.0]], [[1.0]], ["--alpha", "1", "--p", "1"]),
            ([], [[1.0, 2.0], [3.0, 4.0]], []),
            ([], [], []),
        ],
        ids=["1x1", "2x3-tie", "3x1", "empty-x", "both-empty"],
    )
    def test_point_sets_print_the_lifted_mb_output(self, tmp_path, capsys, x, y, flags):
        # near_tie too: null is reserved for sizes above the near-tie limit
        fx = write(tmp_path / "x.json", {"points": x})
        fy = write(tmp_path / "y.json", {"points": y})
        mx = write(tmp_path / "mx.json", mb_doc(*(dirac(1.0, *v) for v in x)))
        my = write(tmp_path / "my.json", mb_doc(*(dirac(1.0, *v) for v in y)))
        code, out, _ = run(capsys, "eval", fx, fy, *flags)
        assert code == 0
        assert (0, out) == run(capsys, "eval", mx, my, "--base", "euclidean", *flags)[:2]
        assert json.loads(out)["near_tie"] is not None

    def test_points_vs_mb_exits_3(self, tmp_path, capsys):
        fx = write(tmp_path / "x.json", {"points": [[0.0]]})
        fy = write(tmp_path / "y.json", mb_doc(dirac(1.0, 0.0)))
        code, _, _ = run(capsys, "eval", fx, fy)
        assert code == 3

    def test_zero_r_needs_flag(self, tmp_path, capsys):
        fx = write(tmp_path / "x.json", mb_doc(dirac(0.0, 0.0)))
        fy = write(tmp_path / "y.json", mb_doc())
        code, _, _ = run(capsys, "eval", fx, fy)
        assert code == 2
        code, out, _ = run(capsys, "eval", fx, fy, "--allow-zero-r")
        assert code == 0
        assert json.loads(out)["total"] == 0.0

    def test_two_empty_mbs_have_no_near_tie(self, tmp_path, capsys):
        # one matching exists, so no other one can come near it; null is
        # reserved for sizes above the near-tie check's limit
        f = write(tmp_path / "x.json", mb_doc())
        code, out, _ = run(capsys, "eval", f, f)
        assert code == 0
        doc = json.loads(out)
        assert doc["total"] == 0.0 and doc["near_tie"] is False


def test_gospa_subcommand(tmp_path, capsys):
    fx = write(tmp_path / "x.json", {"points": [[0.0, 0.0]]})
    fy = write(tmp_path / "y.json", {"points": [[3.0, 4.0]]})
    code, out, _ = run(capsys, "gospa", fx, fy, "--c", "100", "--p", "2")
    assert code == 0
    assert json.loads(out)["total"] == pytest.approx(5.0, abs=1e-12)


class TestSweeps:
    def test_example1_spot_rows(self, tmp_path, capsys):
        out_csv = tmp_path / "ex1.csv"
        code, _, _ = run(capsys, "sweep-example1", "--out", str(out_csv))
        assert code == 0
        rows = out_csv.read_text().splitlines()
        assert rows[0] == "r,sigma2,pgospa"
        table = {}
        for line in rows[1:]:
            r, s2, v = line.split(",")
            table[(float(r), float(s2))] = float(v)
        assert len(table) == 101 * 301
        assert table[(0.0, 7.5)] == pytest.approx(2.5, abs=1e-9)
        assert table[(1.0, 0.0)] == pytest.approx(2.0, abs=1e-9)
        # sigma^2-invariance beyond the cut-off crossing
        for r in (0.25, 0.75, 1.0):
            assert table[(r, 21.0)] == pytest.approx(table[(r, 29.0)], abs=1e-12)
        # closed form on a thinned subsample
        for (r, s2), v in list(table.items())[::501]:
            expect = min(5.0, math.sqrt(4.0 + s2)) * r + 2.5 * (1.0 - r)
            assert v == pytest.approx(expect, abs=1e-9)

    def test_example1_totals_are_pgospa_bits(self):
        # the CSV pins 12 digits; the totals before formatting must be the
        # bits of one 1 x 1 pgospa call per grid point
        r_grid, s2_grid, totals = cli._example1_totals()
        truth = MBDensity([BernoulliComponent(1.0, DiracDensity([0.0]))])
        rng = np.random.default_rng(11)
        for i, j in zip(rng.integers(0, len(r_grid), 2000), rng.integers(0, len(s2_grid), 2000)):
            r, s2 = r_grid[i], s2_grid[j]
            est = MBDensity([BernoulliComponent(r, GaussianDensity([2.0], [[s2]]))])
            assert totals[i][j] == pgospa(truth, est, cli.EXAMPLE1_PARAMS).total

    def test_example1_takes_one_distance_row(self, tmp_path, capsys, monkeypatch):
        shapes = []

        def counted(xs, ys, *args, **kwargs):
            out = pairwise_base_distance(xs, ys, *args, **kwargs)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(cli, "pairwise_base_distance", counted)
        assert run(capsys, "sweep-example1", "--out", str(tmp_path / "ex1.csv"))[0] == 0
        assert shapes == [(1, 301)]

    def test_example2_rows(self, tmp_path, capsys):
        out_csv = tmp_path / "ex2.csv"
        code, _, _ = run(capsys, "sweep-example2", "--out", str(out_csv))
        assert code == 0
        rows = out_csv.read_text().splitlines()
        assert rows[0] == "c,total,localization,existence_mismatch,missed,false"
        assert len(rows) == 101
        first = [float(x) for x in rows[1].split(",")]
        last = [float(x) for x in rows[-1].split(",")]
        assert first[0] == 0.1 and last[0] == 10.0
        for line in rows[1:]:
            c, total, loc, mism, missed, false = (float(x) for x in line.split(","))
            assert loc + mism + missed + false == pytest.approx(total, abs=1e-9)  # p = 1
        assert last[4] == 0.0 and last[5] == 0.0  # everything pairs up at large c

    def test_example2_custom_scenario(self, tmp_path, capsys):
        scen = write(
            tmp_path / "scen.json",
            {
                "mb_x": mb_doc(dirac(1.0, 0.0, 0.0)),
                "mb_y": mb_doc(dirac(1.0, 3.0, 4.0)),
            },
        )
        out_csv = tmp_path / "ex2.csv"
        code, _, _ = run(capsys, "sweep-example2", "--scenario", scen, "--out", str(out_csv))
        assert code == 0
        rows = out_csv.read_text().splitlines()
        # distance 5 < c only at c = 5.1..10
        row_49 = [float(x) for x in rows[50].split(",")]  # c = 5.0
        row_60 = [float(x) for x in rows[60].split(",")]  # c = 6.0
        assert row_49[2] == 0.0  # still unmatched at the tie point
        assert row_60[2] == pytest.approx(5.0, abs=1e-12)

    # p < 1; Gaussians under the Euclidean base; c^p / 2 leaves the normal
    # range at the first cut-off.  The sweep runs c from 0.1 to 10, so a p
    # whose 10^p / 2 would overflow (p > 308.6) already underflows at
    # c = 0.1 (p > 307.3): this command never reaches the overflow check,
    # and p = 400 stops at c = 0.1 with the underflow
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--p", "0.5"], "1 <= p"),
            (["--base", "euclidean"], "requires Dirac"),
            (["--p", "400"], "underflows"),
        ],
        ids=["p-below-1", "euclidean-gaussians", "power-overflow"],
    )
    def test_example2_fault_writes_no_file(self, tmp_path, capsys, flags, message):
        out_csv = tmp_path / "ex2.csv"
        code, out, err = run(capsys, "sweep-example2", "--out", str(out_csv), *flags)
        assert (code, out) == (3, "")
        assert message in err
        assert not out_csv.exists()


class TestMonteCarloCli:
    def test_synth_and_montecarlo_deterministic(self, tmp_path, capsys):
        rd = tmp_path / "runs"
        code, _, _ = run(capsys, "synth-runs", str(rd), "--runs", "3", "--timesteps", "4", "--seed", "11")
        assert code == 0
        out1 = tmp_path / "rms1.csv"
        out2 = tmp_path / "rms2.csv"
        assert run(capsys, "montecarlo", str(rd), "--out", str(out1))[0] == 0
        assert run(capsys, "montecarlo", str(rd), "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[1]
        assert header.startswith("t,rms_total,rms_localization")


class TestSelfcheck:
    def test_passes_and_is_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "selfcheck", "--seed", "3")
        code2, out2, _ = run(capsys, "selfcheck", "--seed", "3")
        assert code1 == code2 == 0
        assert out1 == out2
        assert json.loads(out1)["ok"] is True

    def test_fault_injection_caught(self, capsys):
        code, out, _ = run(capsys, "selfcheck", "--seed", "3", "--inject-fault")
        assert code == 1
        report = json.loads(out)
        assert report["ok"] is False
        assert report["violations"][0]["check"] == "assignment-exactness"
        assert "costs" in report["violations"][0]


class TestOracleCommands:
    def test_assign(self, tmp_path, capsys):
        f = write(tmp_path / "c.json", {"costs": [[5.0, 1.0, 9.0], [2.0, 8.0, 3.0]]})
        code, out, _ = run(capsys, "oracle", "assign", f)
        assert code == 0
        doc = json.loads(out)
        assert doc["pairs"] == [[0, 1], [1, 0]]
        assert doc["total_cost"] == 3.0

    def test_pgospa(self, tmp_path, capsys):
        fx = write(tmp_path / "x.json", mb_doc(dirac(1.0, 0.0)))
        fy = write(tmp_path / "y.json", mb_doc(gauss(0.7, [2.0], [[5.0]])))
        code, out, _ = run(capsys, "oracle", "pgospa", fx, fy, "--c", "5", "--p", "1")
        assert code == 0
        assert json.loads(out)["total"] == pytest.approx(2.85, abs=1e-12)

    def test_ot_dirac(self, tmp_path, capsys):
        fx = write(tmp_path / "x.json", mb_doc(dirac(1.0, 0.0)))
        fy = write(tmp_path / "y.json", mb_doc(dirac(0.6, 2.0)))
        code, out, _ = run(capsys, "oracle", "ot-dirac", fx, fy, "--c", "5", "--p", "1")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(2.2, abs=1e-12)

    def test_ot_grid(self, tmp_path, capsys):
        fx = write(tmp_path / "x.json", mb_doc(gauss(0.9, [0.0], [[1.0]])))
        fy = write(tmp_path / "y.json", mb_doc(gauss(0.7, [1.0], [[2.0]])))
        code, out, _ = run(capsys, "oracle", "ot-grid", fx, fy, "--c", "5", "--p", "2", "--resolution", "40")
        assert code == 0
        doc = json.loads(out)
        assert doc["value_p"] >= 0.0 and doc["eps_grid"] > 0.0
        assert doc["resolution"] == 40

    def test_qospa(self, tmp_path, capsys):
        fx = write(tmp_path / "x.json", mb_doc(dirac(0.8, 1.0, 2.0)))
        code, out, _ = run(capsys, "oracle", "qospa", fx, fx, "--c", "5")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(1.8, abs=1e-12)

    def test_multi_component_rejected(self, tmp_path, capsys):
        fx = write(tmp_path / "x.json", mb_doc(dirac(0.8, 1.0), dirac(0.5, 2.0)))
        code, _, err = run(capsys, "oracle", "qospa", fx, fx)
        assert code == 2
        assert "exactly one" in err


class TestParseErrorsExit2:
    def _eval_component(self, tmp_path, capsys, component):
        fx = write(tmp_path / "x.json", mb_doc(component))
        fy = write(tmp_path / "y.json", mb_doc(dirac(1.0, 0.0)))
        return run(capsys, "eval", fx, fy)

    def _eval_weight(self, tmp_path, capsys, weight):
        ref = write(tmp_path / "ref.json", mb_doc(dirac(1.0, 0.0)))
        mix = write(
            tmp_path / "mix.json",
            {"mixture": [{"weight": weight, "mb": mb_doc(dirac(1.0, 2.0))}]},
        )
        return run(capsys, "eval", mix, ref)

    def test_null_weight(self, tmp_path, capsys):
        code, _, err = self._eval_weight(tmp_path, capsys, None)
        assert code == 2
        assert "weight" in err

    def test_string_weight(self, tmp_path, capsys):
        assert self._eval_weight(tmp_path, capsys, "x")[0] == 2

    def test_boolean_weight(self, tmp_path, capsys):
        assert self._eval_weight(tmp_path, capsys, True)[0] == 2

    def test_overflowing_weight(self, tmp_path, capsys):
        assert self._eval_weight(tmp_path, capsys, 10**400)[0] == 2

    def test_string_mean(self, tmp_path, capsys):
        code, _, err = self._eval_component(
            tmp_path, capsys, gauss(0.5, "abc", [[1.0]])
        )
        assert code == 2
        assert "mean" in err

    def test_string_cov(self, tmp_path, capsys):
        code, _, err = self._eval_component(tmp_path, capsys, gauss(0.5, [0.0], "abc"))
        assert code == 2
        assert "covariance" in err

    def test_boolean_r(self, tmp_path, capsys):
        code, _, err = self._eval_component(tmp_path, capsys, dirac(True, 0.0))
        assert code == 2
        assert "existence probability" in err

    def test_overflowing_location(self, tmp_path, capsys):
        assert self._eval_component(tmp_path, capsys, dirac(0.5, 10**400))[0] == 2

    def test_overflowing_points(self, tmp_path, capsys):
        fx = write(tmp_path / "x.json", {"points": [[10**400]]})
        fy = write(tmp_path / "y.json", {"points": [[0.0]]})
        assert run(capsys, "eval", fx, fy)[0] == 2

    def test_string_r(self, tmp_path, capsys):
        code, _, err = self._eval_component(tmp_path, capsys, dirac("0.5", 0.0))
        assert code == 2
        assert "existence probability" in err

    def test_string_and_boolean_location(self, tmp_path, capsys):
        code, _, err = self._eval_component(tmp_path, capsys, dirac(0.5, "1", True))
        assert code == 2
        assert "location" in err

    def test_boolean_location(self, tmp_path, capsys):
        assert self._eval_component(tmp_path, capsys, dirac(0.5, True))[0] == 2

    def test_string_cov_entry(self, tmp_path, capsys):
        code, _, err = self._eval_component(tmp_path, capsys, gauss(0.5, [0.0], [["1"]]))
        assert code == 2
        assert "covariance" in err

    def test_string_points(self, tmp_path, capsys):
        fx = write(tmp_path / "x.json", {"points": [["1", 2.0]]})
        fy = write(tmp_path / "y.json", {"points": [[0.0, 0.0]]})
        assert run(capsys, "eval", fx, fy)[0] == 2

    def test_string_weight_number(self, tmp_path, capsys):
        assert self._eval_weight(tmp_path, capsys, "0.5")[0] == 2

    def test_boolean_among_location_numbers(self, tmp_path, capsys):
        fx = write(tmp_path / "x.json", mb_doc(dirac(1.0, 1.0, True)))
        fy = write(tmp_path / "y.json", mb_doc(dirac(1.0, 1.0, 1.0)))
        code, _, err = run(capsys, "eval", fx, fy)
        assert code == 2
        assert "location" in err

    def test_boolean_in_cov_row(self, tmp_path, capsys):
        cov = [[1.0, 0.0], [0.0, True]]
        fx = write(tmp_path / "x.json", mb_doc(gauss(0.5, [0.0, 0.0], cov)))
        fy = write(tmp_path / "y.json", mb_doc(dirac(1.0, 0.0, 0.0)))
        code, _, err = run(capsys, "eval", fx, fy)
        assert code == 2
        assert "covariance" in err

    def test_boolean_among_points(self, tmp_path, capsys):
        fx = write(tmp_path / "x.json", {"points": [[1.0, True]]})
        fy = write(tmp_path / "y.json", {"points": [[1.0, 1.0]]})
        assert run(capsys, "eval", fx, fy)[0] == 2


_ONE_DIRAC = mb_doc(dirac(1.0, 0.0))


@pytest.mark.parametrize(
    "argv, docs, message",
    [
        (["eval", "{0}", "{1}"], [{"components": 5}, _ONE_DIRAC], "'components' must be a list"),
        (["eval", "{0}", "{1}"], [{"mixture": 5}, _ONE_DIRAC], "'mixture' must be a list"),
        (
            ["eval", "{0}", "{1}"],
            [{"mixture": [{"weight": 1.0}]}, _ONE_DIRAC],
            "mixture entry 0 requires 'weight' and 'mb'",
        ),
        (
            ["eval", "{0}", "{1}"],
            [{"points": 5}, {"points": [[0.0]]}],
            "'points' must be a list of vectors",
        ),
        (
            ["eval", "{0}", "{1}"],
            [{"points": [[[1.0]]]}, {"points": [[0.0]]}],
            "'points' must be a list of equal-length vectors",
        ),
        (
            ["sweep-example2", "--scenario", "{0}", "--out", "-"],
            [{"mb_x": _ONE_DIRAC}],
            "scenario requires 'mb_x' and 'mb_y' MB documents",
        ),
        (["oracle", "assign", "{0}"], [{}], "expected an object with a 'costs' matrix"),
        (
            ["oracle", "ot-dirac", "{0}", "{1}"],
            [mb_doc(gauss(1.0, [0.0], [[1.0]])), _ONE_DIRAC],
            "ot-dirac requires Dirac single-object densities",
        ),
        (
            ["eval", "{0}", "{1}"],
            [{"points": [[]]}, {"points": [[0.0]]}],
            "'points' vectors must have at least one coordinate",
        ),
        (
            ["oracle", "assign", "{0}"],
            [{"costs": [["1", 2.0]]}],
            "'costs' is not an array of numbers",
        ),
        (
            ["oracle", "assign", "{0}"],
            [{"costs": [[True, 0.5]]}],
            "'costs' is not an array of numbers",
        ),
        (
            ["oracle", "assign", "{0}"],
            [{"costs": [[1.0, 2.0], [3.0]]}],
            "'costs' is not an array of numbers",
        ),
    ],
)
def test_malformed_documents_exit_2(tmp_path, capsys, argv, docs, message):
    paths = [write(tmp_path / f"doc{k}.json", doc) for k, doc in enumerate(docs)]
    code, out, err = run(capsys, *(arg.format(*paths) for arg in argv))
    assert code == 2
    assert out == ""
    assert err.strip() == f"error: {message}"


_PD = gauss(0.8, [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
_SINGULAR = gauss(0.6, [1.0, 0.0], [[1.0, 0.0], [0.0, 0.0]])
_TWO_DIRACS = [mb_doc(dirac(1.0, 0.0)), mb_doc(dirac(1.0, 1.0))]


def _mixture(*mbs):
    return {"mixture": [{"weight": 1.0 / len(mbs), "mb": mb} for mb in mbs]}


@pytest.mark.parametrize(
    "flags, docs, message",
    [
        (["--c", "1e-200", "--p", "2"], _TWO_DIRACS,
         "c**p / alpha underflows (c=1e-200, p=2.0, alpha=2.0)"),
        (["--c", "5e-324", "--p", "1"], _TWO_DIRACS,
         "c**p / alpha underflows (c=5e-324, p=1.0, alpha=2.0)"),
        # the first faulty mixture entry reports its own fault
        (
            ["--base", "hellinger"],
            [mb_doc(_PD), _mixture(mb_doc(_SINGULAR), mb_doc(dirac(0.5, 0.0, 0.0)))],
            "Hellinger distance requires strictly positive-definite covariances",
        ),
        (
            ["--base", "hellinger"],
            [mb_doc(_PD), _mixture(mb_doc(dirac(0.5, 0.0, 0.0)), mb_doc(_SINGULAR))],
            "Hellinger distance requires Gaussian densities",
        ),
    ],
    ids=["underflow-to-zero", "subnormal", "hellinger-singular-first", "hellinger-dirac-first"],
)
def test_semantic_faults_exit_3(tmp_path, capsys, flags, docs, message):
    paths = [write(tmp_path / f"doc{k}.json", doc) for k, doc in enumerate(docs)]
    code, out, err = run(capsys, "eval", *paths, *flags)
    assert (code, out) == (3, "")
    assert err.strip() == f"error: {message}"


_REF = [gauss(0.9, [0.0, 0.0], [[1.0, 0.2], [0.2, 2.0]]), dirac(0.7, 3.0, 1.0),
        gauss(0.5, [8.0, -2.0], [[0.5, 0.0], [0.0, 0.5]])]


@pytest.mark.parametrize("alpha", [2.0, 1.0])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_mixture_entries_are_scored_as_blocks(tmp_path, capsys, monkeypatch, p, alpha):
    ref = mb_doc(*_REF)
    larger = mb_doc(*_REF, dirac(0.4, 1.0, 1.0), gauss(0.3, [2.0, 2.5], [[1.0, 0.0], [0.0, 1.0]]))
    equal = mb_doc(dirac(0.8, 0.5, 0.0), gauss(0.6, [3.5, 1.0], [[1.0, 0.0], [0.0, 1.0]]),
                   dirac(1.0, 30.0, 30.0))
    # an empty entry, one larger than the reference (scored with the sides
    # swapped) and one of equal size
    mix = {"mixture": [{"weight": 0.2, "mb": mb_doc()}, {"weight": 0.5, "mb": larger},
                       {"weight": 0.3, "mb": equal}]}
    fmix, fref = write(tmp_path / "mix.json", mix), write(tmp_path / "ref.json", ref)
    calls = {"blocks": 0, "pgospa": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(metric, "_score_blocks", counted("blocks", metric._score_blocks))
    monkeypatch.setattr(cli, "pgospa", counted("pgospa", cli.pgospa))
    flags = ["--c", "5", "--p", str(p), "--alpha", str(alpha)]
    code, out, _ = run(capsys, "eval", fmix, fref, *flags)
    assert code == 0
    assert calls == {"blocks": 1, "pgospa": 0}

    params = MetricParams(c=5.0, p=p, alpha=alpha)
    mixture, reference = mbm_from_dict(mix), mb_from_dict(ref)
    want = [pgospa(mb, reference, params).total for _, mb in mixture.entries]
    doc = json.loads(out)
    assert [e["total"].hex() for e in doc["mixture"]["entries"]] == [t.hex() for t in want]
    weighted = float(sum(w * t for (w, _), t in zip(mixture.entries, want)))
    assert doc["total"].hex() == mbm_pgospa(mixture, reference, params).hex() == weighted.hex()


def test_huge_cutoff_near_tie_check_exits_0(tmp_path, capsys):
    # The near-tie re-solve's forbidden entry overflows to inf here.
    fx = write(tmp_path / "x.json", mb_doc(dirac(1.0, 0.0)))
    fy = write(tmp_path / "y.json", mb_doc(dirac(1.0, 1.0)))
    code, out, _ = run(
        capsys, "eval", fx, fy, "--c", "1.3e154", "--p", "2", "--alpha", "1"
    )
    assert code == 0
    assert json.loads(out)["total"] == 1.0


def test_huge_cutoff_prints_no_overflow_warning(tmp_path, capsys):
    # reduced costs near -c^p / alpha sum to -inf, and so does the forbid bound
    fx = write(tmp_path / "x.json", mb_doc(dirac(1.0, 0.0), dirac(1.0, 1.0)))
    fy = write(tmp_path / "y.json", mb_doc(dirac(1.0, 0.0), dirac(1.0, 1.0), dirac(1.0, 2.0)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(
            capsys, "eval", fx, fy, "--c", "1.3e154", "--p", "2", "--alpha", "1"
        )
    assert code == 0 and err == ""
    assert [str(w.message) for w in caught] == []
    assert json.loads(out)["matched_pairs"] == [[0, 0], [1, 1]]


def test_overflowing_mean_gap_saturates_silently(tmp_path, capsys):
    fx = write(tmp_path / "x.json", mb_doc(dirac(1.0, 1e308)))
    fy = write(tmp_path / "y.json", mb_doc(dirac(1.0, -1e308)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "eval", fx, fy)
    assert code == 0
    assert json.loads(out)["total"] == 10.0
    assert err == ""
    assert caught == []


@pytest.mark.parametrize(
    "x, y, base",
    [
        (dirac(1.0, 0.0), dirac(1.0, 1e160), "w2"),
        (dirac(1.0, 0.0), dirac(1.0, 1e160), "euclidean"),
        (
            gauss(1.0, [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
            gauss(1.0, [1e160, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
            "w2",
        ),
    ],
)
def test_overflowing_squared_gap_below_cutoff_is_exact(tmp_path, capsys, x, y, base):
    # ||dm||^2 = 1e320 overflows, but the distance 1e160 is below c
    fx = write(tmp_path / "x.json", mb_doc(x))
    fy = write(tmp_path / "y.json", mb_doc(y))
    code, out, err = run(
        capsys, "eval", fx, fy, "--c", "1e200", "--p", "1", "--base", base
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["total"] == pytest.approx(1e160, rel=1e-15)
    assert doc["matched_pairs"] == [[0, 0]]


def test_near_tie_ignores_saturated_only_alternatives(tmp_path, capsys):
    # at alpha = 2 both matchings report no pair; at alpha = 1 they differ
    fx = write(tmp_path / "x.json", mb_doc(dirac(1.0, 0.0)))
    fy = write(tmp_path / "y.json", mb_doc(dirac(1.0, 100.0), dirac(1.0, 200.0)))
    doc = json.loads(run(capsys, "eval", fx, fy, "--c", "5")[1])
    assert doc["matched_pairs"] == [] and doc["near_tie"] is False
    doc = json.loads(run(capsys, "eval", fx, fy, "--c", "5", "--alpha", "1")[1])
    assert doc["matched_pairs"] == [[0, 0]] and doc["near_tie"] is True


def test_flags_do_not_leak_between_calls(tmp_path, capsys):
    f = write(tmp_path / "x.json", mb_doc(dirac(1.0, 0.0)))
    assert json.loads(run(capsys, "eval", f, f, "--c", "3")[1])["c"] == 3.0
    assert json.loads(run(capsys, "eval", f, f)[1])["c"] == 10.0


def test_overflowing_cutoff_power_exits_3(tmp_path, capsys):
    f = write(tmp_path / "x.json", mb_doc(dirac(1.0, 0.0)))
    code, _, err = run(capsys, "eval", f, f, "--c", "1e200", "--p", "2")
    assert code == 3
    assert "overflows" in err


@pytest.mark.parametrize(
    "x_cov, y",
    [
        # Py^{1/2} Px Py^{1/2} overflows
        ([[8e307, 0.0], [0.0, 8e307]], gauss(1.0, [0.0, 0.0], [[2e307, 0.0], [0.0, 2e307]])),
        # (P + P^T) / 2 overflows on loading, and so does tr Px
        ([[1e308, 0.0], [0.0, 1e308]], gauss(1.0, [0.0, 0.0], [[2e307, 0.0], [0.0, 2e307]])),
        ([[1e308, 0.0], [0.0, 1e308]], dirac(1.0, 0.0, 0.0)),
    ],
)
def test_covariances_near_the_double_range_saturate_silently(tmp_path, capsys, x_cov, y):
    fx = write(tmp_path / "x.json", mb_doc(gauss(1.0, [0.0, 0.0], x_cov)))
    fy = write(tmp_path / "y.json", mb_doc(y))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "eval", fx, fy, "--c", "10")
    assert code == 0 and err == ""
    assert caught == []
    assert json.loads(out)["total"] == 10.0


@pytest.mark.parametrize("module", ["pgospa.cli", "pgospa"])
def test_import_does_not_load_scipy_stats(module):
    # scipy.stats is for the grid oracle alone; loading it with the package
    # made every CLI process start about 0.6 s slower
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        f"import sys, {module}; "
        "print([m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats']])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"


def _fresh_python(*args) -> subprocess.CompletedProcess:
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )


@pytest.mark.parametrize("module", ["pgospa.cli", "pgospa"])
def test_import_loads_no_scipy(module):
    # scipy.optimize alone took about 70 % of a cold eval process
    code = f"import sys, {module}; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    assert _fresh_python("-c", code).stdout.strip() == "[]"


@pytest.mark.parametrize(
    "x, y, solves",
    [
        # the README pair: one matching, no solver
        ([dirac(1.0, 0.0)], [gauss(0.7, [2.0], [[5.0]])], False),
        (
            [dirac(1.0, 0.0), gauss(0.5, [3.0], [[1.0]])],
            [dirac(0.9, 0.5), dirac(0.4, 2.5), gauss(1.0, [9.0], [[2.0]])],
            True,
        ),
    ],
)
def test_cold_eval_prints_the_in_process_output(tmp_path, capsys, x, y, solves):
    fx = write(tmp_path / "x.json", mb_doc(*x))
    fy = write(tmp_path / "y.json", mb_doc(*y))
    argv = ["eval", fx, fy, "--c", "5", "--p", "1"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    # -X importtime lists on stderr every module the process imports
    done = _fresh_python("-X", "importtime", "-m", "pgospa.cli", *argv)
    assert done.stdout == out
    loaded = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
    heavy = {m for m in loaded if m.split(".")[:2] in (["scipy", "optimize"], ["scipy", "sparse"])}
    assert ("scipy.optimize" in heavy) is solves
    if not solves:
        assert heavy == set()


def test_cold_single_dip_eval_loads_no_solver(tmp_path, capsys):
    # each component has at most one partner within c: the assignment is
    # solved in closed form and the dual bound decides the near-tie flag
    fx = write(tmp_path / "x.json", mb_doc(dirac(1.0, 0.0), gauss(0.5, [30.0], [[1.0]])))
    fy = write(
        tmp_path / "y.json",
        mb_doc(dirac(0.9, 0.5), dirac(0.4, 12.5), gauss(1.0, [60.0], [[2.0]])),
    )
    argv = ["eval", fx, fy, "--c", "5", "--p", "1"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["matched_pairs"] == [[0, 0]]
    done = _fresh_python("-X", "importtime", "-m", "pgospa.cli", *argv)
    assert done.stdout == out
    loaded = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
    assert not {m for m in loaded if m.split(".")[:2] in (["scipy", "optimize"], ["scipy", "sparse"])}


def test_assignment_fault_reaches_a_declined_one_block_eval(tmp_path, capsys, monkeypatch):
    # row 0 has two partners within c, so the closed form declines the one
    # block and the solver alone decides it; a single-dip pair never
    # reaches the solver
    declined = ["eval", write(tmp_path / "x.json", mb_doc(dirac(1.0, 0.0), dirac(1.0, 1.0))),
                write(tmp_path / "y.json", mb_doc(dirac(1.0, 1.2), dirac(1.0, 0.1),
                                                  dirac(1.0, 40.0))), "--c", "5"]
    single_dip = ["eval", write(tmp_path / "a.json", mb_doc(dirac(1.0, 0.0))),
                  write(tmp_path / "b.json", mb_doc(dirac(0.7, 2.0), dirac(0.5, 30.0))),
                  "--c", "5"]
    good = [run(capsys, *argv) for argv in (declined, single_dip)]
    assert good[0][0] == good[1][0] == 0
    seen = []
    monkeypatch.setattr(metric, "solve_assignment", lambda C: seen.append(C.shape) or faulty_solver(C))
    code, out, _ = run(capsys, *declined)
    assert code == 0 and seen == [(2, 3)]
    assert out != good[0][1]
    assert run(capsys, *single_dip) == good[1]
    assert seen == [(2, 3)]


def _both_reads(capsys, monkeypatch, argv) -> list:
    """``eval``'s exit code, stdout, stderr and warnings (category, text and
    the source line they point at), first as it runs, then with every
    one-pass read declined, so that each document and each mixture entry
    is read on its own, in order."""
    results = []
    for declined in (False, True):
        with monkeypatch.context() as patch, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if declined:
                patch.setattr(cli, "_stacked_mbs", lambda raws, allow: None)
                patch.setattr(model, "_stacked_entries", lambda raw, allow: None)
            code, out, err = run(capsys, *argv)
        shown = [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
        results.append((code, out, err, shown))
    return results


_G2 = gauss(0.9, [1.0, 2.0], [[1.0, 0.2], [0.2, 2.0]])
_ASYMMETRIC = gauss(0.5, [0.0, 0.0], [[1.0, 3.0], [0.0, 1.0]])


@pytest.mark.parametrize(
    "docs, code, message",
    [
        ([mb_doc(_G2, dirac(1.2, 0.0, 0.0)), mb_doc(dirac(1.0, 0.0, True))], 2,
         "component 1: existence probability out of range (r=1.2)"),
        ([mb_doc(_G2), mb_doc(dirac(0.5, 1.0, 1.0), _ASYMMETRIC)], 2,
         "covariance is not symmetric (max asymmetry 3 > 1e-09)"),
        ([mb_doc(_G2), mb_doc(dirac(1.0, 0.0, 0.0, 1.0))], 3,
         "MB densities have dimensions 2 and 3"),
        ([mb_doc(dirac(0.0, 1.0, 1.0), _G2), mb_doc(dirac(0.0, 1.0, 2.0))], 2,
         "component 0: existence probability out of range (r=0.0)"),
        # the mixture is read first, its entries in order, each weight first
        ([mb_doc(dirac(1.2, 0.0, 0.0)),
          _mixture(mb_doc(_G2, dirac(-1.0, 0.0, 0.0)), mb_doc(dirac(1.0, True, 0.0)))], 2,
         "component 1: existence probability out of range (r=-1.0)"),
        ([{"mixture": [{"weight": 0.5, "mb": mb_doc(_G2)},
                       {"weight": "0.5", "mb": mb_doc(dirac(1.2, 0.0, 0.0))}]}, _ONE_DIRAC], 2,
         "mixture entry 1: weight is not a number"),
        ([mb_doc(dirac(1.2, 0.0, 0.0)), _mixture(mb_doc(_G2), mb_doc(dirac(1.0, 0.0, 0.0, 0.0)))],
         3, "mixture entries mix state dimensions [2, 3]"),
    ],
    ids=["x-and-y-faulty", "y-faulty", "2d-against-3d", "zero-r-without-flag",
         "mixture-entry-before-reference", "weight-before-later-entry", "mixture-dimensions"],
)
def test_one_pass_read_reports_the_first_fault(tmp_path, capsys, monkeypatch, docs, code, message):
    paths = [write(tmp_path / f"doc{k}.json", doc) for k, doc in enumerate(docs)]
    one_pass, per_document = _both_reads(capsys, monkeypatch, ["eval", *paths])
    assert one_pass == per_document == (code, "", f"error: {message}\n", [])


@pytest.mark.parametrize(
    "docs, flags",
    [
        ([mb_doc(), mb_doc(_G2, dirac(0.4, 3.0, 1.0))], []),
        ([mb_doc(dirac(0.4, 3.0, 1.0), _G2), mb_doc()], []),
        ([mb_doc(dirac(0.0, 1.0, 1.0), _G2), mb_doc(dirac(0.0, 1.0, 2.0), dirac(0.7, 0.0, 0.0))],
         ["--allow-zero-r"]),
    ],
    ids=["empty-x", "empty-y", "zero-r-in-both"],
)
def test_one_pass_read_prints_the_per_document_output(tmp_path, capsys, monkeypatch, docs, flags):
    paths = [write(tmp_path / f"doc{k}.json", doc) for k, doc in enumerate(docs)]
    stacked, calls = model._stacked_mbs, []
    monkeypatch.setattr(cli, "_stacked_mbs", lambda raws, allow: calls.append(
        (len(raws), allow)) or stacked(raws, allow))
    code, out, err = run(capsys, "eval", *paths, *flags)
    assert (code, err, calls) == (0, "", [(2, bool(flags))])
    fx, fy = (mb_from_dict(doc, bool(flags)) for doc in docs)
    want = pgospa(fx, fy, MetricParams(), detect_near_ties=True)
    assert out == canonical_json(want.to_dict()) + "\n"
    monkeypatch.undo()
    one_pass, per_document = _both_reads(capsys, monkeypatch, ["eval", *paths, *flags])
    assert one_pass == per_document == (0, out, "", [])


def test_one_pass_mixture_read_warns_as_the_per_entry_read(tmp_path, capsys, monkeypatch):
    mix = {"mixture": [{"weight": 0.3, "mb": mb_doc(_G2)}, {"weight": 0.3, "mb": mb_doc()},
                       {"weight": 0.3, "mb": mb_doc(dirac(0.5, 4.0, 4.0))}]}
    argv = ["eval", write(tmp_path / "ref.json", mb_doc(_G2)), write(tmp_path / "mix.json", mix)]
    stacked, calls = model._stacked_mbs, []
    monkeypatch.setattr(model, "_stacked_mbs", lambda raws, allow: calls.append(
        len(raws)) or stacked(raws, allow))
    one_pass, per_document = _both_reads(capsys, monkeypatch, argv)
    # one pass: the entries, then the reference; declined: one call per document
    assert calls == [3, 1, 1, 1, 1, 1]
    assert one_pass == per_document
    code, out, err, shown = one_pass
    assert (code, err) == (0, "")
    weights = [e["weight"] for e in json.loads(out)["mixture"]["entries"]]
    assert weights == [0.3 / (0.3 + 0.3 + 0.3)] * 3
    # the warning points at the line of cmd_eval that reads the mixture,
    # which Python prints under it on stderr
    [(category, text, filename, lineno)] = shown
    assert (category, text, filename) == (
        UserWarning, "mixture weights sum to 0.9; renormalizing", cli.__file__)
    assert linecache.getline(filename, lineno).strip() == "mix = mbm_from_dict(doc_mix, allow0)"


_junk = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


_KINDS = st.sampled_from(["mb", "mb", "mixture", "points", "junk"])


@st.composite
def _documents(draw):
    """JSON documents shaped like MB, mixture and point-set inputs.  In a
    noisy document any field may be replaced by arbitrary JSON or an
    extreme number."""
    dim = draw(st.shared(st.integers(1, 3), key="dim"))
    extreme = st.floats() | st.integers()
    noisy = draw(st.booleans())

    def mostly(good, bad=_junk):
        return draw(bad) if noisy and draw(st.integers(0, 9)) == 0 else draw(good)

    def number():
        return mostly(st.floats(-20.0, 20.0) | st.integers(-3, 3), extreme)

    def vector():
        return mostly(st.just([number() for _ in range(dim)]))

    def cov():
        diag = draw(st.lists(st.floats(0.01, 10.0), min_size=dim, max_size=dim))
        full = [[number() for _ in range(dim)] for _ in range(dim)]
        return mostly(
            st.just([[diag[i] if i == j else 0.0 for j in range(dim)] for i in range(dim)]),
            st.just(full) | _junk,
        )

    def component():
        if draw(st.booleans()):
            density = {"type": "dirac", "location": vector()}
        else:
            density = {"type": "gaussian", "mean": vector(), "cov": cov()}
        r = mostly(st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0]), extreme | _junk)
        return mostly(st.just({"r": r, "density": density}))

    def mb():
        return {"components": [component() for _ in range(draw(st.integers(0, 4)))]}

    kind = draw(st.shared(_KINDS, key="kind") | _KINDS)
    if kind == "mb":
        return mb()
    if kind == "mixture":
        entries = [
            {"weight": mostly(st.floats(0.0, 2.0), extreme | _junk), "mb": mb()}
            for _ in range(draw(st.integers(0, 3)))
        ]
        return {"mixture": entries}
    if kind == "points":
        return {"points": [vector() for _ in range(draw(st.integers(0, 4)))]}
    return draw(_junk)


@settings(max_examples=300, deadline=None)
@given(
    doc_x=_documents(),
    doc_y=_documents(),
    c=st.one_of(st.floats(0.1, 20.0), st.floats(0.1, 20.0), st.floats(0.1, 20.0), st.floats()),
    p=st.one_of(st.floats(1.0, 4.0), st.just(1.0), st.just(2.0), st.floats()),
    alpha=st.one_of(st.floats(0.1, 2.0), st.just(2.0), st.just(2.0), st.floats()),
    base=st.sampled_from(["w2", "w2", "hellinger", "euclidean"]),
    allow_zero=st.booleans(),
)
def test_eval_exit_codes_on_any_document(
    tmp_path_factory, doc_x, doc_y, c, p, alpha, base, allow_zero
):
    """``eval`` never raises and exits 0, 2 (parse) or 3 (semantic)."""
    d = tmp_path_factory.mktemp("docs")
    fx, fy = d / "x.json", d / "y.json"
    fx.write_text(json.dumps(doc_x), encoding="utf-8")
    fy.write_text(json.dumps(doc_y), encoding="utf-8")
    argv = ["eval", str(fx), str(fy), f"--c={c!r}", f"--p={p!r}", f"--alpha={alpha!r}"]
    argv += [f"--base={base}"] + (["--allow-zero-r"] if allow_zero else [])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            code = main(argv)
    assert code in (0, 2, 3)
