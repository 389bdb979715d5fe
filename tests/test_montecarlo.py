import importlib.util
import inspect
import io
import linecache
import math
import os
import shutil
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from pgospa import MetricParams, metric, montecarlo
from pgospa.cli import main
from pgospa.distances import BaseDistanceKind
from pgospa.metric import mbm_pgospa, pgospa
from pgospa.model import canonical_json, load_document, mb_from_dict, mbm_from_dict
from pgospa.montecarlo import evaluate_run_dir, generate_runs, rms_series, write_rms_csv
from pgospa.selfcheck import faulty_solver

P2 = MetricParams(c=10.0, p=2.0, alpha=2.0)


def write_mb(path: Path, components):
    doc = {"components": components}
    path.write_text(canonical_json(doc) + "\n", encoding="utf-8")


def dirac(r, loc):
    return {"r": r, "density": {"type": "dirac", "location": [loc]}}


def build_two_run_dir(root: Path, est_a, est_b):
    (root / "truth").mkdir(parents=True)
    for t in range(3):
        write_mb(root / "truth" / f"t{t:03d}.json", [dirac(1.0, 0.0)])
    for name, loc in (("run000", est_a), ("run001", est_b)):
        d = root / "runs" / name
        d.mkdir(parents=True)
        for t in range(3):
            write_mb(d / f"t{t:03d}.json", [dirac(1.0, loc)])
    return root


def test_rms_of_known_totals(tmp_path):
    # run totals 3 and 4 at every step: quadratic mean sqrt(12.5)
    run_dir = build_two_run_dir(tmp_path / "rd", 3.0, 4.0)
    series = evaluate_run_dir(run_dir, P2)
    assert series.totals == pytest.approx(np.array([[3.0] * 3, [4.0] * 3]))
    agg = rms_series(series)
    assert agg["rms_total"] == pytest.approx(np.full(3, math.sqrt(12.5)), abs=1e-12)


def test_identical_runs_rms_is_constant(tmp_path):
    run_dir = build_two_run_dir(tmp_path / "rd", 2.0, 2.0)
    agg = rms_series(evaluate_run_dir(run_dir, P2))
    assert agg["rms_total"] == pytest.approx(np.full(3, 2.0), abs=1e-12)


def test_permutation_invariance_across_runs(tmp_path):
    a = build_two_run_dir(tmp_path / "a", 3.0, 4.0)
    b = build_two_run_dir(tmp_path / "b", 4.0, 3.0)
    agg_a = rms_series(evaluate_run_dir(a, P2))
    agg_b = rms_series(evaluate_run_dir(b, P2))
    for key in agg_a:
        assert agg_a[key] == pytest.approx(agg_b[key], abs=1e-12)


def test_misaligned_run_files_rejected(tmp_path):
    run_dir = build_two_run_dir(tmp_path / "rd", 3.0, 4.0)
    (run_dir / "runs" / "run001" / "t002.json").unlink()
    with pytest.raises(ValueError, match="misaligned"):
        evaluate_run_dir(run_dir, P2)


def test_decomposition_columns_present_for_mb_runs(tmp_path):
    run_dir = build_two_run_dir(tmp_path / "rd", 3.0, 4.0)
    series = evaluate_run_dir(run_dir, P2)
    assert series.decomposition is not None
    stream = io.StringIO()
    write_rms_csv(stream, series)
    text = stream.getvalue()
    assert "rms_localization" in text.splitlines()[1]
    total_sq = sum(
        rms_series(series)[f"rms_{k}"] ** 2
        for k in ("localization", "existence_mismatch", "missed", "false")
    )
    assert total_sq == pytest.approx(rms_series(series)["rms_total"] ** 2, abs=1e-9)


def test_synthetic_generator_is_deterministic(tmp_path):
    a = generate_runs(tmp_path / "a", n_runs=2, n_steps=4, seed=7)
    b = generate_runs(tmp_path / "b", n_runs=2, n_steps=4, seed=7)
    files_a = sorted(p.relative_to(a) for p in a.rglob("*.json"))
    files_b = sorted(p.relative_to(b) for p in b.rglob("*.json"))
    assert files_a == files_b
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes()
    c = generate_runs(tmp_path / "c", n_runs=2, n_steps=4, seed=8)
    assert any((a / rel).read_bytes() != (c / rel).read_bytes() for rel in files_a)


def test_mixture_estimates_route_and_disable_decomposition(tmp_path):
    root = generate_runs(tmp_path / "mx", n_runs=2, n_steps=3, seed=3, mixture=True)
    doc = load_document(next((root / "runs" / "run000").glob("*.json")))
    assert "mixture" in doc
    series = evaluate_run_dir(root, P2)
    assert series.decomposition is None
    stream = io.StringIO()
    write_rms_csv(stream, series)
    assert stream.getvalue().splitlines()[0] == "t,rms_total"


def test_point_extract_emits_unit_diracs(tmp_path):
    root = generate_runs(tmp_path / "px", n_runs=1, n_steps=3, seed=3, point_extract=0.4)
    for f in (root / "runs" / "run000").glob("*.json"):
        doc = load_document(f)
        for comp in doc["components"]:
            assert comp["r"] == 1.0
            assert comp["density"]["type"] == "dirac"


# ---------------------------------------------------------------------------
# The per-run array pass against per-step scoring

TERMS = {
    "localization": "localization",
    "existence_mismatch": "existence_mismatch",
    "missed": "missed",
    "false": "false_det",
}
KINDS = {"mb": {}, "mixture": {"mixture": True}, "points": {"point_extract": 0.4}}


def per_step(run_dir: Path, params, base):
    """Totals and p-th-power terms scored one step at a time through
    ``pgospa`` and ``mbm_pgospa``."""
    truth_paths = sorted((run_dir / "truth").glob("*.json"))
    truths = [mb_from_dict(load_document(p)) for p in truth_paths]
    runs = sorted(p for p in (run_dir / "runs").iterdir())
    totals = np.zeros((len(runs), len(truths)))
    terms = {key: np.zeros_like(totals) for key in TERMS}
    for ri, rdir in enumerate(runs):
        for ti, (path, truth) in enumerate(zip(truth_paths, truths)):
            doc = load_document(rdir / path.name)
            if "mixture" in doc:
                totals[ri, ti] = mbm_pgospa(mbm_from_dict(doc), truth, params, base)
                continue
            res = pgospa(mb_from_dict(doc), truth, params, base)
            totals[ri, ti] = res.total
            for key, attr in TERMS.items():
                terms[key][ri, ti] = getattr(res, attr) or 0.0
    return totals, terms


def no_fallback(*args):
    raise AssertionError("the run fell back to per-step scoring")


def array_pass_case(kind, alpha, base, p=2.0, objects=5, dim=2):
    """One input of the test below; the id names p and the size only where
    they differ from p = 2 and 5 objects in 2-D."""
    tags = [kind, str(alpha), base]
    tags += [f"p{p:g}"] if p != 2.0 else []
    tags += [f"{objects}x{dim}d"] if (objects, dim) != (5, 2) else []
    return pytest.param(kind, alpha, base, p, objects, dim, id="-".join(tags))


@pytest.mark.parametrize(
    "kind, alpha, base, p, objects, dim",
    [array_pass_case(kind, alpha, "w2") for kind in KINDS for alpha in (2.0, 1.0)]
    + [array_pass_case("points", alpha, "euclidean") for alpha in (2.0, 1.0)]
    + [array_pass_case("mb", alpha, "w2", p=p) for p in (1.0, 3.0) for alpha in (2.0, 1.0)]
    + [array_pass_case("mb", 2.0, "w2", objects=20, dim=4)],
)
def test_array_pass_equals_per_step_scoring(tmp_path, monkeypatch, kind, alpha, base, p,
                                            objects, dim):
    root = generate_runs(tmp_path / kind, n_runs=3, n_steps=6, n_objects=objects, dim=dim,
                         seed=5, **KINDS[kind])
    # one empty estimate: a step with no rows
    (root / "runs" / "run001" / "t002.json").write_text('{"components":[]}\n')
    if kind != "mixture":  # MB runs never fall back to the step loop
        monkeypatch.setattr(montecarlo, "_step_score", no_fallback)
    params = MetricParams(c=3.0, p=p, alpha=alpha)
    series = evaluate_run_dir(root, params, BaseDistanceKind(base))
    totals, terms = per_step(root, params, BaseDistanceKind(base))
    assert series.totals.tobytes() == totals.tobytes()
    if kind == "mixture" or alpha != 2.0:
        assert series.decomposition is None
    else:
        for key in TERMS:
            assert series.decomposition[key].tobytes() == terms[key].tobytes(), key


def break_json(path: Path):
    path.write_text('{"components": [', encoding="utf-8")


def gauss_doc(path: Path, mean):
    density = {"type": "gaussian", "mean": mean, "cov": np.eye(len(mean)).tolist()}
    doc = {"components": [{"r": 0.9, "density": density}]}
    path.write_text(canonical_json(doc) + "\n", encoding="utf-8")


def fault_hellinger(runs):
    break_json(runs / "run000" / "t001.json")  # after a Hellinger fault at t000
    return ["--base", "hellinger"]


def fault_hellinger_clean(runs):
    return ["--base", "hellinger"]  # every document is clean: the distances refuse


def fault_dimension(runs):
    gauss_doc(runs / "run000" / "t001.json", [1.0, 2.0, 3.0])
    break_json(runs / "run000" / "t002.json")
    return []


def fault_dimension_clean(runs):
    for path in (runs / "run000").glob("*.json"):
        gauss_doc(path, [1.0, 2.0, 3.0])
    return []


def fault_truth_range(runs):
    path = runs.parent / "truth" / "t002.json"
    doc = load_document(path)
    doc["components"][1]["r"] = 1.5
    path.write_text(canonical_json(doc) + "\n", encoding="utf-8")
    return []


def fault_range(runs):
    write_mb(runs / "run001" / "t001.json", [dirac(1.5, 0.0)])
    return []


def fault_points(runs):
    (runs / "run001" / "t001.json").write_text('{"points": [[1.0, 2.0]]}\n')
    return []


def fault_list(runs):
    (runs / "run001" / "t003.json").write_text("[]\n")
    return []


@pytest.mark.parametrize(
    "fault, code, message",
    [
        (fault_hellinger, 3, "error: Hellinger distance requires Gaussian densities"),
        (fault_hellinger_clean, 3, "error: Hellinger distance requires Gaussian densities"),
        (fault_dimension, 3, "error: MB densities have dimensions 3 and 2"),
        (fault_dimension_clean, 3, "error: MB densities have dimensions 3 and 2"),
        (fault_truth_range, 2, "error: component 1: existence probability out of range (r=1.5)"),
        (fault_range, 2, "error: component 0: existence probability out of range (r=1.5)"),
        (fault_points, 2, "error: MB density requires a 'components' list"),
        (fault_list, 2, "error: MB density must be a JSON object, got list"),
    ],
)
def test_run_faults_report_the_first_step_error(tmp_path, capsys, fault, code, message):
    # Dirac truths, Gaussian estimates in 2-D; run000 is clean unless the
    # fault is placed there
    root = generate_runs(tmp_path / "rd", n_runs=2, n_steps=4, n_objects=3, seed=2)
    flags = fault(root / "runs")
    assert main(["montecarlo", str(root), "--out", str(tmp_path / "o.csv"), *flags]) == code
    assert capsys.readouterr().err.strip() == message


def test_truth_document_with_an_extra_key_is_scored(tmp_path, monkeypatch):
    # the truths fall back to one document at a time; the runs keep their pass
    root = generate_runs(tmp_path / "rd", n_runs=2, n_steps=4, n_objects=3, seed=6)
    path = root / "truth" / "t001.json"
    doc = load_document(path)
    doc["components"][0]["label"] = "object 0"
    path.write_text(canonical_json(doc) + "\n", encoding="utf-8")
    monkeypatch.setattr(montecarlo, "_step_score", no_fallback)
    series = evaluate_run_dir(root, P2)
    totals, terms = per_step(root, P2, BaseDistanceKind.W2)
    assert series.totals.tobytes() == totals.tobytes()
    for key in TERMS:
        assert series.decomposition[key].tobytes() == terms[key].tobytes(), key


def assert_equals_per_step(root, params):
    series = evaluate_run_dir(root, params)
    totals, terms = per_step(root, params, BaseDistanceKind.W2)
    assert series.totals.tobytes() == totals.tobytes()
    if params.alpha != 2.0:
        assert series.decomposition is None
        return
    for key in TERMS:
        assert series.decomposition[key].tobytes() == terms[key].tobytes(), key


@pytest.mark.parametrize("alpha", [2.0, 1.0])
def test_mb_run_on_the_step_loop_equals_per_step_scoring(tmp_path, monkeypatch, alpha):
    # an extra key in one estimate declines run001's pass: that run alone
    # is scored step by step
    root = generate_runs(tmp_path / "rd", n_runs=3, n_steps=4, n_objects=4, seed=8)
    path = root / "runs" / "run001" / "t002.json"
    doc = load_document(path)
    doc["components"][0]["label"] = "object 0"
    path.write_text(canonical_json(doc) + "\n", encoding="utf-8")
    step_score, scored = montecarlo._step_score, []
    monkeypatch.setattr(montecarlo, "_step_score",
                        lambda path, *args: scored.append(path) or step_score(path, *args))
    assert_equals_per_step(root, MetricParams(c=3.0, p=2.0, alpha=alpha))
    assert scored == sorted((root / "runs" / "run001").glob("*.json"))


def test_steps_of_two_state_dimensions_equal_per_step_scoring(tmp_path):
    # the truth and every run are 2-D at t000 and 3-D at t001
    root = generate_runs(tmp_path / "rd", n_runs=2, n_steps=2, n_objects=3, dim=2, seed=9)
    other = generate_runs(tmp_path / "3d", n_runs=2, n_steps=2, n_objects=3, dim=3, seed=9)
    for src in other.rglob("t001.json"):
        shutil.copy(src, root / src.relative_to(other))
    assert_equals_per_step(root, MetricParams(c=3.0, p=2.0, alpha=2.0))


def test_step_loop_mixture_read_warns_at_its_reader(tmp_path, capsys):
    root = generate_runs(tmp_path / "rd", n_runs=2, n_steps=3, seed=3, mixture=True)
    path = root / "runs" / "run001" / "t001.json"
    doc = load_document(path)
    doc["mixture"][0]["weight"], doc["mixture"][1]["weight"] = 0.5, 0.4
    path.write_text(canonical_json(doc) + "\n", encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["montecarlo", str(root), "--out", str(tmp_path / "o.csv")]) == 0
    assert capsys.readouterr().err == ""
    [(category, text, filename, lineno)] = [
        (w.category, str(w.message), w.filename, w.lineno) for w in caught]
    assert (category, text, filename) == (
        UserWarning, "mixture weights sum to 0.9; renormalizing", montecarlo.__file__)
    # the warning points at the line of _step_score that reads the mixture
    lines, first = inspect.getsourcelines(montecarlo._step_score)
    assert first <= lineno < first + len(lines)
    assert "mbm_from_dict(doc)" in linecache.getline(filename, lineno)


def test_document_with_components_and_mixture_is_an_mb(tmp_path):
    # read as eval reads it: the empty MB, with the decomposition, and not
    # the mixture entry
    root = build_two_run_dir(tmp_path / "rd", 3.0, 4.0)
    mixture = {"mixture": [{"weight": 1, "mb": {"components": [dirac(1.0, 0.0)]}}]}
    doc = dict(mixture, components=[])
    (root / "runs" / "run000" / "t001.json").write_text(canonical_json(doc) + "\n")
    series = evaluate_run_dir(root, P2)
    assert series.totals[0, 1] == math.sqrt(50.0)  # c^p / 2 for the one truth
    assert series.decomposition is not None
    assert series.decomposition["false"][0, 1] == 50.0


def _decline_all(C, sizes):
    """A stack closed form that decides no block."""
    return np.zeros(len(C), bool), np.zeros(C.shape[:2], dtype=np.intp)


def test_assignment_fault_reaches_the_array_pass(tmp_path, monkeypatch):
    root = generate_runs(tmp_path / "rd", n_runs=2, n_steps=4, n_objects=6, seed=4)
    argv = ["montecarlo", str(root), "--out", str(tmp_path / "o.csv")]
    assert main(argv) == 0
    good = (tmp_path / "o.csv").read_text()
    # all 8 blocks of this scene are single-dip: with the stack closed form
    # declining them, every block reaches the solver
    seen = []
    monkeypatch.setattr(metric, "_single_dip_blocks", _decline_all)
    monkeypatch.setattr(metric, "solve_assignment", lambda C: seen.append(C) or faulty_solver(C))
    assert main(argv) == 0
    assert len(seen) == 8
    assert (tmp_path / "o.csv").read_text() != good


def test_assignment_fault_reaches_a_declined_block(tmp_path, monkeypatch):
    # the stack closed form decides 7 of this scene's 8 blocks; the solver
    # alone sees the eighth, and its fault there changes the output
    root = generate_runs(tmp_path / "rd", n_runs=2, n_steps=4, n_objects=5, seed=5)
    argv = ["montecarlo", str(root), "--out", str(tmp_path / "o.csv")]
    assert main(argv) == 0
    good = (tmp_path / "o.csv").read_text()
    seen = []
    monkeypatch.setattr(metric, "solve_assignment", lambda C: seen.append(C) or faulty_solver(C))
    assert main(argv) == 0
    assert len(seen) == 1
    assert (tmp_path / "o.csv").read_text() != good


@pytest.mark.parametrize(
    "module, names",
    [
        (montecarlo, ("load_document", "mb_from_dict", "mbm_from_dict", "pgospa",
                             "mbm_pgospa", "evaluate_run_dir", "write_rms_csv")),
        (metric, ("pairwise_base_distance", "solve_assignment",
                         "linear_sum_assignment", "pgospa")),
    ],
)
def test_traced_bindings_stay_bound(module, names):
    # the benchmark's tracer replaces these module attributes by name
    for name in names:
        assert callable(getattr(module, name)), name


def test_tracer_installs_and_removes_every_binding():
    # every attribute the benchmark's tracer lists must exist, and each goes
    # back when the tracer is removed
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    bound = [(module, attr, getattr(module, attr)) for module, attr, *_ in tracer._targets]
    assert all(callable(fn) for *_, fn in bound)
    try:
        tracer.install()
        for module, attr, fn in bound:
            assert getattr(module, attr) is not fn, attr
    finally:
        tracer.uninstall()
    for module, attr, fn in bound:
        assert getattr(module, attr) is fn, attr


@pytest.mark.parametrize(
    "flag, value, least",
    [("--dim", "0", 1), ("--dim", "-1", 1), ("--objects", "-2", 0), ("--timesteps", "0", 1),
     ("--runs", "0", 1)],
)
def test_synth_runs_rejects_sizes_before_writing(tmp_path, capsys, flag, value, least):
    out = tmp_path / "rd"
    assert main(["synth-runs", str(out), flag, value]) == 3
    assert capsys.readouterr().err.strip() == f"error: {flag} must be at least {least}, got {value}"
    assert not out.exists()


def no_truth(root):
    shutil.rmtree(root / "truth")
    return f"run directory must contain truth/ and runs/: {root}"


def empty_truth(root):
    for path in (root / "truth").iterdir():
        path.unlink()
    return f"no time-step files found in {root / 'truth'}"


def no_runs(root):
    for run_dir in (root / "runs").iterdir():
        shutil.rmtree(run_dir)
    return f"no run subdirectories found in {root / 'runs'}"


@pytest.mark.parametrize("layout", [no_truth, empty_truth, no_runs])
def test_run_directory_layout_faults_exit_3(tmp_path, capsys, layout):
    root = generate_runs(tmp_path / "rd", n_runs=2, n_steps=2, n_objects=2, seed=1)
    message = layout(root)
    assert main(["montecarlo", str(root), "--out", str(tmp_path / "o.csv")]) == 3
    assert capsys.readouterr().err.strip() == f"error: {message}"


# ---------------------------------------------------------------------------
# The parallel read: the runs after the caller's chunk are read in children


def forced_workers(monkeypatch, workers):
    """Make ``workers`` cores usable; returns the list that each fork of
    the calling process appends to."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def five_run_dir(root: Path, mixture: bool) -> Path:
    """Five runs of 4 steps: run002 of mixtures if ``mixture``, an extra
    key in one document of run003, which declines that run's pass, and an
    empty estimate in run004.  With 2 or 3 workers the caller reads run000
    (and run001 with 2), and children read the rest."""
    root = generate_runs(root, n_runs=5, n_steps=4, n_objects=4, seed=11)
    if mixture:
        mixed = generate_runs(root.parent / "mix", n_runs=3, n_steps=4, n_objects=4, seed=11,
                              mixture=True)
        for path in (mixed / "runs" / "run002").glob("*.json"):
            shutil.copy(path, root / "runs" / "run002" / path.name)
    path = root / "runs" / "run003" / "t001.json"
    doc = load_document(path)
    doc["components"][0]["label"] = "object 0"
    path.write_text(canonical_json(doc) + "\n", encoding="utf-8")
    (root / "runs" / "run004" / "t002.json").write_text('{"components":[]}\n')
    return root


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("mixture", [False, True], ids=["mb", "mixture"])
def test_parallel_read_equals_per_step_scoring(tmp_path, monkeypatch, workers, mixture):
    root = five_run_dir(tmp_path / "rd", mixture)
    forks = forced_workers(monkeypatch, workers)
    step_score, scored = montecarlo._step_score, []
    monkeypatch.setattr(montecarlo, "_step_score",
                        lambda path, *args: scored.append(path) or step_score(path, *args))
    params = MetricParams(c=3.0, p=2.0, alpha=2.0)
    series = evaluate_run_dir(root, params)
    assert len(forks) == workers - 1
    assert_no_child_left()
    totals, terms = per_step(root, params, BaseDistanceKind.W2)
    assert series.totals.tobytes() == totals.tobytes()
    if mixture:
        assert series.decomposition is None
    else:
        for key in TERMS:
            assert series.decomposition[key].tobytes() == terms[key].tobytes(), key
    # the runs that children read cleanly are scored from what they sent;
    # only the declined runs are read and scored step by step, by the caller
    declined = ["run002", "run003"] if mixture else ["run003"]
    assert scored == sorted(p for name in declined for p in (root / "runs" / name).glob("*"))


def fault_caller_and_child(runs):
    write_mb(runs / "run000" / "t001.json", [dirac(1.5, 0.0)])
    (runs / "run004" / "t003.json").unlink()
    return 2, "error: component 0: existence probability out of range (r=1.5)"


def fault_child_listing(runs):
    (runs / "run004" / "t003.json").unlink()
    expected = ["t000.json", "t001.json", "t002.json", "t003.json"]
    return 3, f"error: missing/misaligned run files in {runs / 'run004'}: expected {expected}"


def fault_child_json(runs):
    break_json(runs / "run003" / "t002.json")
    return 2, "error: invalid JSON: Expecting value at line 1 column 17"


def fault_child_dimension(runs):
    # clean 3-D documents: the child sends the run, and its scoring raises
    for path in (runs / "run003").glob("*.json"):
        gauss_doc(path, [1.0, 2.0, 3.0])
    return 3, "error: MB densities have dimensions 3 and 2"


def fault_truth(runs):
    # the caller raises before it reads any child's pipe
    fault_truth_range(runs)
    return 2, "error: component 1: existence probability out of range (r=1.5)"


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize(
    "fault",
    [fault_caller_and_child, fault_child_listing, fault_child_json, fault_child_dimension,
     fault_truth],
)
def test_parallel_read_reports_the_first_fault(tmp_path, capsys, monkeypatch, workers, fault):
    root = generate_runs(tmp_path / "rd", n_runs=5, n_steps=4, n_objects=3, seed=2)
    code, message = fault(root / "runs")
    forks = forced_workers(monkeypatch, workers)
    assert main(["montecarlo", str(root), "--out", str(tmp_path / "o.csv")]) == code
    assert capsys.readouterr().err.strip() == message
    assert len(forks) == workers - 1
    assert_no_child_left()


def test_a_run_that_warns_in_a_child_is_read_again_by_the_caller(tmp_path, monkeypatch):
    root = generate_runs(tmp_path / "rd", n_runs=4, n_steps=3, n_objects=3, seed=12)
    densities = montecarlo._densities

    def warning_read(paths):
        paths = list(paths)
        if paths[0].parent.name == "run003":
            warnings.warn("run003 read", UserWarning)
        return densities(paths)

    monkeypatch.setattr(montecarlo, "_densities", warning_read)
    forks = forced_workers(monkeypatch, 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert_equals_per_step(root, P2)
    # the child's warning declined the run; the caller's read warned once
    assert [str(w.message) for w in caught] == ["run003 read"]
    assert len(forks) == 1
    assert_no_child_left()


def test_runs_of_a_child_that_dies_are_read_by_the_caller(tmp_path, monkeypatch):
    root = generate_runs(tmp_path / "rd", n_runs=4, n_steps=3, n_objects=3, seed=13)
    monkeypatch.setattr(montecarlo, "_run_fields", lambda rdir, labels: os._exit(0))
    forks = forced_workers(monkeypatch, 2)
    assert_equals_per_step(root, P2)
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("condition", ["a second thread", "no affinity call"])
def test_no_fork_with_threads_or_without_the_affinity_call(tmp_path, monkeypatch, condition):
    root = generate_runs(tmp_path / "rd", n_runs=3, n_steps=2, n_objects=2, seed=14)
    forks = forced_workers(monkeypatch, 3)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if condition == "a second thread":
        thread.start()
    else:
        monkeypatch.delattr(os, "sched_getaffinity")
    try:
        assert_equals_per_step(root, P2)
    finally:
        stop.set()
        if thread.is_alive():
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []
