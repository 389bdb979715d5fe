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
step through ``pgospa`` and ``mbm_pgospa`` instead, which raises the
first fault in step order.  Both give bit-identical totals and terms.

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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distances import BaseDistanceKind
from .metric import _score_pairs, mbm_pgospa, pgospa
from .model import (
    MBDensity,
    MBMixture,
    MetricParams,
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

DECOMP_KEYS = ("localization", "existence_mismatch", "missed", "false")
DECOMP_ATTRS = ("localization", "existence_mismatch", "missed", "false_det")


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


def _run_pass(paths, truths, params, base) -> tuple | None:
    """One run's totals and p-th-power terms (None unless alpha = 2), one
    entry per step, from one array pass: its documents through
    ``_densities`` and all its steps through one ``metric._score_pairs``
    call.  None if anything refuses or raises; the caller then scores the
    run step by step, which reports its first fault."""
    estimates = _densities(paths)
    if estimates is None:
        return None
    try:
        return _score_pairs(list(zip(estimates, truths)), params, base)
    except _STEP_ERRORS:
        return None


def _step_score(path, truth, params, base):
    """One step scored on its own: a ``pgospa`` result, or the total of a
    mixture estimate."""
    doc = load_document(path)
    if doc_kind(doc) == "mbm":
        return mbm_pgospa(mbm_from_dict(doc), truth, params, base)
    return pgospa(mb_from_dict(doc), truth, params, base)


def _step_rows(paths, truths, params, base) -> tuple:
    """``_run_pass``'s totals and terms, scored step by step through
    ``_step_score``; the terms are None unless alpha = 2 and no estimate is
    a mixture."""
    results = [_step_score(path, truth, params, base) for path, truth in zip(paths, truths)]
    totals = [getattr(res, "total", res) for res in results]  # a mixture gives a float
    if params.alpha != 2.0 or any(isinstance(res, float) for res in results):
        return totals, None
    return totals, [[getattr(res, attr) for res in results] for attr in DECOMP_ATTRS]


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

    truths = _densities(truth_files.values())
    if truths is None:
        truths = [mb_from_dict(load_document(path)) for path in truth_files.values()]

    totals = np.zeros((len(run_names), len(labels)))
    decomp = {key: np.zeros_like(totals) for key in DECOMP_KEYS}
    decomposable = params.alpha == 2.0
    for ri, run_name in enumerate(run_names):
        rdir = runs_dir / run_name
        run_files = _timestep_files(rdir)
        if tuple(run_files) != labels:
            raise ValueError(
                f"missing/misaligned run files in {rdir}: expected {list(labels)}"
            )
        paths = run_files.values()
        rows = _run_pass(paths, truths, params, base)
        if rows is None:
            rows = _step_rows(paths, truths, params, base)
        totals[ri], terms = rows
        if terms is None:
            decomposable = False
        elif decomposable:
            for key, row in zip(DECOMP_KEYS, terms):
                decomp[key][ri] = row
    return RunSeries(
        totals=totals,
        decomposition=decomp if decomposable else None,
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
        header = "t,rms_total," + ",".join(f"rms_{k}" for k in DECOMP_KEYS)
        columns = ["rms_total"] + [f"rms_{k}" for k in DECOMP_KEYS]
    else:
        header = "t,rms_total"
        columns = ["rms_total"]
    stream.write(header + "\n")
    for ti in range(len(series.timesteps)):
        cells = [f"{agg[col][ti]:.12g}" for col in columns]
        stream.write(f"{ti}," + ",".join(cells) + "\n")


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
