import contextlib
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgospa import cli
from pgospa.cli import main
from pgospa.distances import pairwise_base_distance
from pgospa.metric import pgospa
from pgospa.model import (
    BernoulliComponent,
    DiracDensity,
    GaussianDensity,
    MBDensity,
    canonical_json,
)


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

    def test_point_sets_route(self, tmp_path, capsys):
        fx = write(tmp_path / "x.json", {"points": [[0.0]]})
        fy = write(tmp_path / "y.json", {"points": [[2.0]]})
        code, out, _ = run(capsys, "eval", fx, fy, "--c", "5", "--p", "1")
        assert code == 0
        assert json.loads(out)["total"] == pytest.approx(2.0, abs=1e-12)

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
