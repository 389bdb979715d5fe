"""Set-up, timed loop, correctness gate and result of one benchmark run."""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy
import scipy

import pgospa.assignment
import pgospa.cli
import pgospa.metric

import calibrate
import checks
import tracing
import workloads

SETUP_REPEATS = 5
COLD_RUNS = 5
COLD_TIMEOUT_S = 30
TAIL_BEYOND = 10
# an untraced loop runs on past ``--seconds`` until it has this many
# executions, so that the tail lies well above the median even where one
# request takes half a second
MIN_EXECUTIONS = 3 * TAIL_BEYOND

END_TO_END = {"setup_s": "s", "evals_per_s": "1/s", "eval_ms_p50": "ms",
              "eval_ms_tail": "ms", "cli_cold_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "model.parse_s": "s", "model.parse_calls": "count", "model.parse_bytes": "bytes",
    "model.validate_s": "s", "model.validate_calls": "count",
    "model.components": "count",
    "distances.pairwise_s": "s", "distances.pairwise_calls": "count",
    "distances.pairs": "count", "distances.bytes_computed": "bytes",
    "distances.within_c_frac": "frac",
    "assignment.solve_s": "s", "assignment.solve_calls": "count",
    "assignment.lsa_s": "s", "assignment.refine_s": "s",
    "assignment.refine_eligible_frac": "frac",
    "metric.pgospa_s": "s", "metric.pgospa_calls": "count", "metric.mbm_calls": "count",
    "metric.near_tie_lsa_s": "s", "metric.near_tie_lsa_calls": "count",
    "metric.self_s": "s",
    "montecarlo.evaluate_s": "s", "montecarlo.write_csv_s": "s", "cli.self_s": "s",
    "trace.overhead_frac": "frac",
}
# self times that add up to the time of a traced request
SELF_TIMES = ("model.parse_s", "model.validate_s", "distances.pairwise_s",
              "assignment.lsa_s", "assignment.refine_s", "metric.near_tie_lsa_s",
              "metric.self_s", "montecarlo.evaluate_s", "montecarlo.write_csv_s",
              "cli.self_s")


def execute(argv, tracer=None):
    """One CLI request; returns (exit code, stdout, seconds)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = perf_counter()
        try:
            rc = tracer.call(pgospa.cli.main, argv) if tracer else pgospa.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc = -1
            traceback.print_exc()
        dt = perf_counter() - t0
    return rc, buf.getvalue(), dt


def output(req, stdout: str) -> bytes:
    if req.kind == "mc":
        return Path(req.argv[req.argv.index("--out") + 1]).read_bytes()
    return stdout.encode()


def inputs_dir(work: Path, workload: str, seed: int) -> Path:
    return work / f"{workload}-seed{seed}"


def fresh_env(root: Path) -> dict:
    """Environment of a fresh Python process that imports ``pgospa`` from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def set_up(workload, seed, work: Path):
    """Set up SETUP_REPEATS times, as a fresh harness would before its first
    timed evaluation: start Python and import ``pgospa.cli`` (in a fresh
    process, the only way to repeat an import), generate the inputs on
    disk, and run a warm-up request.  Each repeat is scaled by speed
    readings taken right before and right after it; set-up time is the
    median scaled repeat."""
    base = inputs_dir(work, workload, seed)
    shutil.rmtree(base, ignore_errors=True)
    importer = [sys.executable, "-c", "import pgospa.cli"]
    env = fresh_env(work.parent)
    repeats, scaled, speeds, inputs, warm = [], [], [], None, None
    for k in range(SETUP_REPEATS):
        before = calibrate.speed()
        t0 = perf_counter()
        subprocess.run(importer, cwd=work.parent, env=env, check=True, timeout=COLD_TIMEOUT_S)
        inputs = workloads.generate(workload, seed, base / f"setup{k}")
        warm = execute(["eval", *map(str, inputs.cold_pair)])
        repeats.append(perf_counter() - t0)
        speeds.append((before + calibrate.speed()) / 2.0)
        scaled.append(calibrate.scale(repeats[-1], speeds[-1]))
    for k in range(SETUP_REPEATS - 1):
        shutil.rmtree(base / f"setup{k}")
    info = {"repeats_s": repeats, "kernel_ms": [k * 1e3 for k in speeds],
            "unscaled_s": statistics.median(repeats)}
    return inputs, warm, statistics.median(scaled), info


def timed_loop(inputs, seconds: float, tracer=None, pause=None, pauses=0):
    """Closed loop over the requests until ``seconds`` have passed, and at
    least one full pass and MIN_EXECUTIONS executions.  With a tracer,
    passes alternate untraced and traced, and the loop ends on a pass
    boundary after at least two passes.  ``pause`` is called
    ``pauses`` times between two requests, spread over the loop; its time
    does not count against ``seconds``.

    After each request it runs the calibration kernel, at least
    ``calibrate.READINGS`` times per pass.

    Returns samples (request index, seconds, traced, exit code, same output
    as the first execution), the first output of each request, and
    the local kernel time of each sample (see :func:`_local_speeds`)."""
    reqs = inputs.requests
    first = [None] * len(reqs)
    samples, readings = [], []
    per_request = -(-calibrate.READINGS // len(reqs))
    start = perf_counter()
    deadline = start + seconds
    done = 0
    passes = 0
    while True:
        traced = tracer is not None and passes % 2 == 1
        if traced:
            tracer.install()
        try:
            for i, req in enumerate(reqs):
                rc, stdout, dt = execute(req.argv, tracer if traced else None)
                out = output(req, stdout) if rc == 0 else b""
                if first[i] is None:
                    first[i] = out
                samples.append((i, dt, traced, rc, out == first[i]))
                readings.append([calibrate.kernel() for _ in range(per_request)])
                now = perf_counter()
                if done < pauses and now - start >= (done + 0.5) * seconds / pauses:
                    pause()
                    done += 1
                    paused = perf_counter() - now
                    start, deadline = start + paused, deadline + paused
                if (tracer is None and passes and perf_counter() >= deadline
                        and len(samples) >= MIN_EXECUTIONS):
                    return samples, first, _local_speeds(readings)
        finally:
            if traced:
                tracer.uninstall()
        passes += 1
        if perf_counter() >= deadline and (
                passes >= 2 if tracer else len(samples) >= MIN_EXECUTIONS):
            return samples, first, _local_speeds(readings)


def _local_speeds(readings) -> list:
    """Speed of the machine at each execution: the median of the kernel
    runs made after it and after its neighbours, with enough neighbours on
    each side for ``calibrate.READINGS`` runs.  The machine's speed moves
    within seconds, so a window this narrow follows it more closely than
    one figure per pass."""
    half = -(-calibrate.READINGS // (2 * len(readings[0])))
    return [statistics.median(k for r in readings[max(0, e - half):e + half + 1] for k in r)
            for e in range(len(readings))]


def median_times(samples, speeds=None, traced: bool = False) -> dict:
    """Each request's median execution time in the run; with ``speeds``
    (local kernel seconds per sample) each time is scaled first.  The
    median, not the best: the fastest of a request's scaled times is the
    one whose speed reading was most off, and over ten seeds it spread
    about twice as far as the median latency."""
    times = {}
    for e, (i, dt, tr, _, _) in enumerate(samples):
        if tr == traced:
            times.setdefault(i, []).append(
                dt if speeds is None else calibrate.scale(dt, speeds[e]))
    return {i: statistics.median(t) for i, t in times.items()}


def throughput(reqs, times: dict) -> float:
    """Evaluations per second of one pass, each request at its median time."""
    return sum(reqs[i].evals for i in times) / sum(times.values())


def executions(samples, speeds=None) -> list:
    """Seconds of every untraced execution, each scaled by its local
    kernel time when ``speeds`` is given."""
    return [dt if speeds is None else calibrate.scale(dt, speeds[e])
            for e, (_, dt, traced, _, _) in enumerate(samples) if not traced]


def latency(times) -> dict:
    """Median and tail of at least MIN_EXECUTIONS latencies.  The tail is
    the highest value with TAIL_BEYOND values beyond it."""
    lat = sorted(times)
    n = len(lat)
    tail, pct = lat[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    return {"samples": n, "p50_ms": statistics.median(lat) * 1e3,
            "tail_ms": tail * 1e3, "tail_percentile": pct}


def check_outputs(inputs, first, refs):
    """Content check of each request's first output.  Returns per-request
    verdicts, the reference mode, failure details and input properties."""
    ref = refs.get(inputs.workload, {}).get(str(inputs.seed))
    recorded = inputs.seed in checks.REFERENCE_SEEDS
    mode = "bitwise" if recorded else "reference-free"
    verdicts, detail, stats, pairs = [], [], [], 0
    for i, (req, out) in enumerate(zip(inputs.requests, first)):
        try:
            if recorded and ref is None:
                raise KeyError(f"references.json lacks seed {inputs.seed}")
            why, st = _check_one(req, out, None if ref is None else ref[i])
            ok = all(why.values())
            pairs += ref is not None and checks.pairs_compared(req.kind, ref[i])
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            why, st, ok = {"unreadable": f"{type(exc).__name__}: {exc}"}, [], False
        stats += st
        verdicts.append(ok)
        if not ok:
            detail.append({"request": i, **why})
    return verdicts, {"reference": mode, "pairs_compared": pairs}, detail, _input_props(stats)


def _check_one(req, out: bytes, ref):
    """Checks of one request's output; returns ({check: passed}, stats)."""
    if not out:
        return {"exit": False}, []
    why, stats = {}, []
    if req.kind == "mc":
        why["identity_and_totals"], stats = checks.mc_csv_ok(out.decode(), Path(req.argv[1]))
    else:
        doc = json.loads(out)
        why["identity"] = checks.identity_ok(doc)
        why["total"], stats = checks.eval_total_ok(doc, req.argv[1], req.argv[2])
    if ref is not None:
        why["reference"] = checks.matches_reference(req.kind, out, ref)
    return why, stats


def _input_props(stats) -> dict:
    """Share of pairs within c, and of evaluations too large for the
    lexicographic refinement, from the harness's own distances."""
    if not stats:
        return {"within_c_frac": None, "share_above_lex_refine_max": None}
    limit = getattr(pgospa.assignment, "LEX_REFINE_MAX", None)
    pairs = sum(n * m for n, m, _ in stats)
    return {"within_c_frac": sum(k for _, _, k in stats) / pairs if pairs else None,
            "share_above_lex_refine_max": None if limit is None else
            sum(max(n, m) > limit for n, m, _ in stats) / len(stats)}


def spot_checks(inputs):
    bad = 0
    for x, y in inputs.spot:
        rc, out, _ = execute(["eval", str(x), str(y)])
        if rc != 0 or not checks.brute_force_ok(json.loads(out), x, y):
            bad += 1
    return len(inputs.spot), bad


class ColdRuns:
    """Fresh ``python -m pgospa.cli eval`` processes on the 1x1 pair; each
    call runs one between two reference processes (see
    :func:`calibrate.process_speed`) and checks it printed ``expected``."""

    def __init__(self, inputs, expected: str, root: Path):
        self.env = fresh_env(root)
        self.argv = [sys.executable, "-m", "pgospa.cli", "eval", *map(str, inputs.cold_pair)]
        self.root, self.expected = root, expected
        self.times, self.scaled, self.bad = [], [], 0

    def __call__(self):
        before = calibrate.process_speed(self.root, self.env)
        t0 = perf_counter()
        try:
            proc = subprocess.run(self.argv, cwd=self.root, env=self.env,
                                  capture_output=True, text=True, timeout=COLD_TIMEOUT_S)
            ok = proc.returncode == 0 and proc.stdout == self.expected
        except subprocess.TimeoutExpired:
            ok = False
        self.times.append(perf_counter() - t0)
        ref_s = (before + calibrate.process_speed(self.root, self.env)) / 2.0
        self.scaled.append(self.times[-1] * calibrate.PROCESS_REF_S / ref_s)
        self.bad += not ok


def machine_info() -> dict:
    cpu = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
    }


def _git_commit():
    head = Path(__file__).resolve().parent.parent / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (head.parent / ref[5:]).read_text().strip()
        return ref
    return None


def claims(workload: str, layers: dict) -> dict:
    """The traced shares that justify each workload's place."""
    total = sum(layers[k] for k in SELF_TIMES)
    share = {k: layers[k] / total for k in SELF_TIMES}
    if workload == "eval-large":
        return {"distances.pairwise_s is the largest self time":
                max(share, key=share.get) == "distances.pairwise_s"}
    if workload == "eval-ties":
        return {"assignment.refine_s + metric.near_tie_lsa_s > 1/2":
                share["assignment.refine_s"] + share["metric.near_tie_lsa_s"] > 0.5}
    return {"model.* + assignment.refine_s > 1/2":
            share["model.parse_s"] + share["model.validate_s"]
            + share["assignment.refine_s"] > 0.5}


def run(args, t_start: float, work: Path) -> int:
    import_s = perf_counter() - t_start
    work.mkdir(parents=True, exist_ok=True)
    if args.inject_fault:
        from pgospa.selfcheck import faulty_solver

        pgospa.metric.solve_assignment = faulty_solver
    inputs, warm, setup_s, setup_info = set_up(args.workload, args.seed, work)
    tracer = tracing.Tracer() if args.trace else None
    cold = None if args.trace else ColdRuns(inputs, warm[1], work.parent)
    samples, first, speeds = timed_loop(inputs, args.seconds, tracer, cold,
                                        0 if args.trace else COLD_RUNS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdicts, mode, detail, props = check_outputs(inputs, first, checks.load_references())
    reqs = inputs.requests
    attempted = failed = 0
    for i, _, _, rc, same in samples:
        attempted += reqs[i].evals
        if rc != 0 or not same or not verdicts[i]:
            failed += reqs[i].evals
    spot_n, spot_bad = spot_checks(inputs)
    warm_ok = warm[0] == 0 and checks.identity_ok(json.loads(warm[1]))
    attempted, failed = attempted + spot_n + 1, failed + spot_bad + (not warm_ok)

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_info(),
        "inputs": {**inputs.props, **props},
        "setup": {"first_import_s": import_s, **setup_info},
        "checks": {**mode, "failed_requests": detail[:10],
                   "spot_checks": [spot_n, spot_bad]},
        "passes": len(samples) / len(reqs),
    }
    typical = median_times(samples, speeds)
    if args.trace:
        passes = sum(1 for s in samples if s[2]) // len(reqs)
        metrics = tracer.layer_metrics(passes)
        metrics["trace.overhead_frac"] = (
            1.0 - throughput(reqs, median_times(samples, speeds, True))
            / throughput(reqs, typical))
        total = sum(metrics[k] for k in SELF_TIMES)
        info["layer_share"] = {k: metrics[k] / total for k in SELF_TIMES}
        info["traced_passes"] = passes
        info["claims"] = claims(args.workload, metrics)
        tracer.write(work / f"spans-{args.workload}-seed{args.seed}.json")
        units = PER_LAYER
    else:
        lat = latency(executions(samples, speeds))
        while len(cold.times) < COLD_RUNS:
            cold()
        attempted, failed = attempted + COLD_RUNS, failed + cold.bad
        metrics = {"setup_s": setup_s, "evals_per_s": throughput(reqs, typical),
                   "eval_ms_p50": lat["p50_ms"], "eval_ms_tail": lat["tail_ms"],
                   "cli_cold_s": statistics.median(cold.scaled), "peak_rss_mb": peak_rss_mb}
        info["unscaled"] = {"setup_s": setup_info["unscaled_s"],
                            "evals_per_s": throughput(reqs, median_times(samples)),
                            "latency": latency(executions(samples)),
                            "cli_cold_runs_s": cold.times}
        info["kernel_ms_quartiles"] = [k * 1e3 for k in statistics.quantiles(speeds, n=4)]
        info["latency"] = lat
        units = END_TO_END
    shutil.rmtree(inputs_dir(work, args.workload, args.seed), ignore_errors=True)
    info["failed_frac"] = failed / attempted
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()}}
    with open(work / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    print(json.dumps(info))
    print(json.dumps(result))
    if args.inject_fault:
        return 0 if failed > 0 else 1
    return 0
