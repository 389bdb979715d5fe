"""Monte Carlo evaluation over scenario run directories.

Directory layout::

    run_dir/
      truth/t000.json  t001.json ...          # MB density per time step
      runs/run000/t000.json  t001.json ...    # estimate per run and step
      runs/run001/...

Estimate files may hold MB densities or MB mixtures (the mixture is scored
as the weighted sum of per-component metric values); a document is read
by ``model.doc_kind``, as ``eval`` reads it.  Every run must provide
exactly the time-step files present under ``truth/``.

The truths, and then each run, are scored in one array pass.  Their
documents go through one ``model._stacked_mbs`` call, the reader behind
``mb_from_dict``: each is parsed, walked for structure and flattened as
it is reached, then each field of all steps is read into one array by
one call and checked once.  All steps of a run are then scored by one
``metric._score_pairs`` call, the multi-pair entry that ``mbm_pgospa``
takes too: one stack of distance matrices, one pass of the scoring core
(which decides the single-dip steps in closed form over the stack), and
the run's row of totals and of each term.  Truths that the reader
refuses are read one document at a time through ``mb_from_dict``, which
raises the first fault.  If anything
in a run's pass refuses or raises (a mixture, a faulty or odd document, a
dimension mismatch, a base-distance fault), the run is scored step by
step instead, through the same multi-pair entries: ``_score_pairs`` for
an MB step and ``metric._mixture_totals`` for a mixture step.  Each step
is read only after the steps before it are scored, so the first fault in
step order is the one raised.  Both routes give bit-identical totals and
terms.

Runs are read on every usable core.  With more than one core in the
process's affinity mask, and no other thread running (``fork`` is unsafe
then), the runs are split into contiguous, equal chunks, one per core
and at most one per run.  Before the truths are read, one child is
forked per chunk after the first.  A child lists, decodes and checks the
documents of its runs, as ``_densities`` does for the caller, and sends
each run's fields back over a pipe in run order.  A child never scores,
prints, writes a file or raises to the caller: a run that it cannot read
cleanly (a listing fault, a declined or faulty document, any exception
or warning) is sent as None, and the caller reads that run again itself.
The caller reads the truths and its own chunk as before, then scores
every run in run order, in this process.  So what a run is scored from
holds the same bits whichever process read it, and every message, exit
code and warning comes from the caller, in the same order as on one
core.  The caller always reaps its children, also when it raises.

Aggregation: at each time step the root-mean-square value is
(mean over runs of total^p)^(1/p).  Decomposition series, which live in
p-th-power units, are aggregated by arithmetic mean over runs and then
rooted for display, so the displayed terms stay comparable to the
displayed total.  Decomposition columns are produced only when every
estimate is a plain MB density and alpha = 2.

A small synthetic generator (objects drifting at constant velocity, with
noisy detections, occasional misses, and false components) is included to
exercise the pipeline; it is not a tracking filter.
"""

from __future__ import annotations

import os
import pickle
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distances import BaseDistanceKind
# pgospa and mbm_pgospa are not called here; perfbench/tracing.py wraps them by these names
from .metric import DECOMP_KEYS, _mixture_totals, _score_pairs, mbm_pgospa, pgospa  # noqa: F401
from .model import (
    MBDensity,
    MBMixture,
    MetricParams,
    _fill,
    _point_masses,
    _stacked_mbs,
    canonical_json,
    doc_kind,
    load_document,
    mb_from_dict,
    mb_to_dict,
    mbm_from_dict,
    mbm_to_dict,
)

__all__ = ["RunSeries", "evaluate_run_dir", "rms_series", "write_rms_csv", "generate_runs"]

@dataclass(frozen=True)
class RunSeries:
    """Per-run, per-time-step metric values (runs x timesteps), plus the
    p-th-power decomposition matrices when available."""

    totals: np.ndarray
    decomposition: dict | None
    timesteps: tuple
    p: float


def _timestep_files(directory: Path) -> dict:
    files = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            files[name] = directory / name
    if not files:
        raise ValueError(f"no time-step files found in {directory}")
    return files


# what the step loop reports (cli exit codes 2 and 3); any other exception
# is a fault of the program and propagates from the array pass as it is
_STEP_ERRORS = (ValueError, OSError, RuntimeError)


def _densities(paths) -> list | None:
    """The MB densities of the documents at ``paths`` from one
    ``_stacked_mbs`` call: each document is parsed, walked for structure
    and flattened as it is reached, then each field of all of them is read
    and checked in one pass over their stack.  None if a document is not a clean MB
    document or anything raises."""
    docs = map(load_document, paths)
    try:
        return _stacked_mbs(
            (doc["components"] if doc_kind(doc) == "mb" else None for doc in docs), False
        )
    except _STEP_ERRORS:
        return None


def _step_score(path, truth, params, base) -> tuple:
    """One step scored on its own, as ``_score_pairs`` scores it: its total
    in a list, and its (4, 1) terms, None for a mixture estimate."""
    doc = load_document(path)
    if doc_kind(doc) == "mbm":
        return [_mixture_totals(mbm_from_dict(doc), truth, params, base)[0]], None
    return _score_pairs([(mb_from_dict(doc), truth)], params, base)


def _run_rows(paths, estimates, truths, params, base) -> tuple:
    """One run's totals and p-th-power (4, steps) terms (None unless
    alpha = 2 and every estimate is an MB density), one entry per step.
    All steps of the run's densities ``estimates`` (``_densities``) go
    through one ``_score_pairs`` call; if they are None, or anything there
    raises, each step is read from ``paths`` and scored in turn by
    ``_step_score``, which raises the first fault in step order."""
    if estimates is not None:
        try:
            return _score_pairs(list(zip(estimates, truths)), params, base)
        except _STEP_ERRORS:
            pass
    totals, terms = zip(*(_step_score(path, truth, params, base)
                          for path, truth in zip(paths, truths)))
    if any(t is None for t in terms):
        return np.concatenate(totals), None
    return np.concatenate(totals), np.concatenate(terms, 1)


def _run_paths(rdir: Path, labels: tuple):
    """The time-step files of the run directory ``rdir``; raises unless
    they are exactly the truth's ``labels``."""
    run_files = _timestep_files(rdir)
    if tuple(run_files) != labels:
        raise ValueError(f"missing/misaligned run files in {rdir}: expected {list(labels)}")
    return run_files.values()


def _workers(runs: int) -> int:
    """How many processes read ``runs`` runs: one per usable core, at most
    one per run, and only the calling process where ``fork`` is unsafe
    (other threads are running) or the affinity call is missing."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return min(runs, len(os.sched_getaffinity(0)))


def _run_fields(rdir: Path, labels: tuple) -> list | None:
    """In a child: the (r, means, covs, dirac) arrays of each step of the
    run ``rdir`` as ``_densities`` reads them, or None unless the run is
    listed, read and checked without an exception or a warning.  The
    caller reads a None run again itself, so every message comes from it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            estimates = _densities(_run_paths(rdir, labels))
        except Exception:  # the caller raises it again
            return None
    if caught or estimates is None:
        return None
    return [(mb.r, mb.means, mb.covs, mb.dirac) for mb in estimates]


def _fork_reader(rdirs: list, labels: tuple) -> tuple | None:
    """Fork a child that reads the runs ``rdirs`` (``_run_fields``), then
    pickles each run's fields to a pipe in run order.  Returns the child's
    pid and the pipe's read end, or None if the fork failed.  The child
    never returns into the caller's stack, and ``os._exit`` flushes no
    stdio that it inherited."""
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # the caller reads these runs itself
        os.close(rfd)
        os.close(wfd)
        return None
    if pid == 0:
        try:
            os.close(rfd)
            # all runs are read before the first is sent: a run fills the
            # pipe, and the caller takes it only when it reaches that run
            runs = [_run_fields(rdir, labels) for rdir in rdirs]
            with open(wfd, "wb") as pipe:
                for fields in runs:
                    pickle.dump(fields, pipe, pickle.HIGHEST_PROTOCOL)
        finally:
            os._exit(0)
    os.close(wfd)
    return pid, open(rfd, "rb")


def _received(pipe) -> list | None:
    """The densities of the next run that a child sent on ``pipe``, as
    read-only views like ``_stacked_mbs`` makes, or None if the child
    declined the run or died before sending it."""
    try:
        fields = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):  # the child ended before sending it
        return None
    return None if fields is None else [_fill(object.__new__(MBDensity), *arrays)
                                        for arrays in fields]


def _reap(children: list) -> None:
    """Close the pipe of each (pid, pipe) child, kill the child and wait
    for it.  A child has sent all its runs once the caller took its last
    one; one that the caller left by an exception may still be reading."""
    import signal  # only a forked read needs it: a cold start does not load it

    for pid, pipe in children:
        pipe.close()
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def evaluate_run_dir(
    run_dir,
    params: MetricParams,
    base: BaseDistanceKind = BaseDistanceKind.W2,
) -> RunSeries:
    run_dir = Path(run_dir)
    base = BaseDistanceKind(base)
    truth_dir = run_dir / "truth"
    runs_dir = run_dir / "runs"
    if not truth_dir.is_dir() or not runs_dir.is_dir():
        raise ValueError(f"run directory must contain truth/ and runs/: {run_dir}")
    truth_files = _timestep_files(truth_dir)
    labels = tuple(truth_files)
    run_names = sorted(d for d in os.listdir(runs_dir) if (runs_dir / d).is_dir())
    if not run_names:
        raise ValueError(f"no run subdirectories found in {runs_dir}")
    rdirs = [runs_dir / name for name in run_names]

    # contiguous chunks of runs, the first for the caller; each later one
    # is read by a child while the caller reads the truths and its own
    workers = _workers(len(rdirs))
    bounds = [k * len(rdirs) // workers for k in range(workers + 1)]
    children, pipes = [], {}  # pipes: run index -> the pipe its child sends it on
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            child = _fork_reader(rdirs[lo:hi], labels)
            if child is not None:
                children.append(child)
                pipes.update(dict.fromkeys(range(lo, hi), child[1]))

        truths = _densities(truth_files.values())
        if truths is None:
            truths = [mb_from_dict(load_document(path)) for path in truth_files.values()]

        rows = []
        for i, rdir in enumerate(rdirs):
            estimates = _received(pipes[i]) if i in pipes else None
            if estimates is None:
                paths = _run_paths(rdir, labels)
                estimates = _densities(paths)
            else:  # the child checked the listing
                paths = [rdir / label for label in labels]
            rows.append(_run_rows(paths, estimates, truths, params, base))
    finally:
        _reap(children)
    totals, terms = zip(*rows)
    decomposable = all(t is not None for t in terms)
    return RunSeries(
        totals=np.array(totals, dtype=float),
        decomposition=dict(zip(DECOMP_KEYS, np.stack(terms, 1))) if decomposable else None,
        timesteps=labels,
        p=params.p,
    )


def rms_series(series: RunSeries) -> dict:
    """Per-time-step aggregates: keys 'rms_total' and, when decomposition
    is available, 'rms_<term>' for each term."""
    p = series.p
    out = {"rms_total": (series.totals**p).mean(axis=0) ** (1.0 / p)}
    if series.decomposition is not None:
        for key, mat in series.decomposition.items():
            out[f"rms_{key}"] = mat.mean(axis=0) ** (1.0 / p)
    return out


def write_rms_csv(stream, series: RunSeries) -> None:
    agg = rms_series(series)
    if series.decomposition is not None:
        stream.write(
            "# decomposition terms: per-term mean of p-th powers across runs, then 1/p root\n"
        )
    stream.write(",".join(["t", *agg]) + "\n")
    for ti, row in enumerate(zip(*agg.values())):
        stream.write(",".join([str(ti), *(f"{v:.12g}" for v in row)]) + "\n")


# ---------------------------------------------------------------------------
# Synthetic run generation


def _truth_states(rng: np.random.Generator, n_objects: int, n_steps: int, dim: int):
    pos = rng.uniform(20.0, 80.0, size=(n_objects, dim))
    vel = rng.uniform(-2.0, 2.0, size=(n_objects, dim))
    return np.stack([pos + t * vel for t in range(n_steps)])  # (T, K, dim)


def _estimate_mb(rng: np.random.Generator, truth_t: np.ndarray, dim: int) -> MBDensity:
    r, means, variances = [], [], []
    for pos in truth_t:
        if rng.random() < 0.9:
            means.append(pos + rng.normal(0.0, 0.5, size=dim))
            # Python's float power: numpy's x**2 (x*x) moves ~0.1 % of these bits
            variances.append(rng.uniform(0.3, 1.0) ** 2)
            r.append(rng.uniform(0.5, 0.99))
    for _ in range(rng.poisson(0.5)):
        r.append(rng.uniform(0.2, 0.6))
        means.append(rng.uniform(0.0, 100.0, size=dim))
        variances.append(1.0)
    covs = np.multiply.outer(variances, np.eye(dim))
    return MBDensity.from_arrays(r, np.reshape(means, (-1, dim)), covs, np.zeros(len(r), bool))


def generate_runs(
    out_dir,
    n_runs: int = 4,
    n_steps: int = 10,
    n_objects: int = 3,
    dim: int = 2,
    seed: int = 0,
    mixture: bool = False,
    point_extract: float | None = None,
) -> Path:
    """Write a synthetic run directory and return its path.

    ``mixture`` emits two-entry MB mixtures as estimates.  With
    ``point_extract`` set, estimates are instead unit-existence Dirac MBs
    holding the means of components whose existence probability exceeds
    the threshold (taken from the highest-weight mixture entry).  Runs,
    steps and dim must be at least 1 and objects at least 0; otherwise a
    ``ValueError`` names the ``synth-runs`` flag and nothing is written.
    """
    sizes = (("runs", n_runs, 1), ("timesteps", n_steps, 1), ("objects", n_objects, 0),
             ("dim", dim, 1))
    for flag, value, least in sizes:
        if value < least:
            raise ValueError(f"--{flag} must be at least {least}, got {value}")
    out_dir = Path(out_dir)
    truth_dir = out_dir / "truth"
    truth_dir.mkdir(parents=True, exist_ok=True)
    states = _truth_states(np.random.default_rng([seed, 1]), n_objects, n_steps, dim)
    for t in range(n_steps):
        doc = mb_to_dict(_point_masses(states[t]))
        (truth_dir / f"t{t:03d}.json").write_text(canonical_json(doc) + "\n", encoding="utf-8")
    for run in range(n_runs):
        rdir = out_dir / "runs" / f"run{run:03d}"
        rdir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([seed, 2, run])
        for t in range(n_steps):
            mb = _estimate_mb(rng, states[t], dim)
            if mixture or point_extract is not None:
                other = _estimate_mb(rng, states[t], dim)
                w = float(rng.uniform(0.55, 0.9))
                mix = MBMixture([(w, mb), (1.0 - w, other)])
                if point_extract is not None:  # from the highest-weight entry
                    _, best = max(mix.entries, key=lambda wm: wm[0])
                    doc = mb_to_dict(_point_masses(best.means[best.r > point_extract]))
                else:
                    doc = mbm_to_dict(mix)
            else:
                doc = mb_to_dict(mb)
            (rdir / f"t{t:03d}.json").write_text(canonical_json(doc) + "\n", encoding="utf-8")
    return out_dir
