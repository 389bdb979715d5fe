"""Seeded inputs and CLI requests for the three benchmark workloads.

Every workload is a list of CLI requests (argument lists for
``pgospa.cli.main``) plus the files they read.  Inputs are a pure function
of ``(workload, seed)``; the program only ever sees the generated files.

* ``mc-tracking``: five ``montecarlo`` requests, each on its own
  ``generate_runs`` directory of 4 runs x 50 steps x 20 objects in 4-D:
  20 runs and 1000 evaluations per pass.  Five truth scenes instead of one
  keep the cost of a pass from hanging on a single scene's geometry, and
  five shorter requests give the timed loop more samples.
* ``eval-ties``: 198 ``eval`` requests on 2-D pairs.  Truths are 40-72
  unit-existence Diracs, estimates Gaussian detections plus clutter, 1 or
  3 components more or fewer than the truth.  Truths sit in distinct
  cells of a jittered grid and clutter at least c from every truth, so the
  tie structure, and with it a request's cost, hardly moves with the
  seed.  About a quarter of the requests score a two-entry MB mixture
  against the truth.  Three quarters of the requests are at most 64 per
  side, so the median request is one that the lexicographic refinement
  handles.
* ``eval-large``: 4 ``eval`` requests on 500 x 503 4-D Gaussian MBs with
  full covariances.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("mc-tracking", "eval-ties", "eval-large")

MC_DIRS, MC_RUNS, MC_STEPS, MC_OBJECTS, MC_DIM = 5, 4, 50, 20, 4
TIES_DIM, TIES_SIZES, TIES_OFFSETS, TIES_COPIES = 2, (40, 72), ((-3, 1), (-1, 3)), 3
TIES_REGION, TIES_GRID, TIES_JITTER, TIES_SIGMA = 160.0, 9, 3.0, 1.0
TIES_CLUTTER_GAP = 10.0  # the CLI's default cut-off c
LARGE_REQUESTS, LARGE_DIM, LARGE_SIZE, LARGE_EXTRA = 4, 4, 500, 3
LARGE_REGION = 100.0
SPOT_INSTANCES, SPOT_MAX = 4, 6


@dataclass
class Request:
    """One CLI call and the number of MB-pair evaluations it scores."""

    argv: list
    evals: int
    kind: str  # "mc" | "mb" | "mbm"


@dataclass
class Inputs:
    workload: str
    seed: int
    requests: list
    cold_pair: tuple  # 1x1 files for the fresh-process measurement
    spot: list  # (x_file, y_file) pairs of <= SPOT_MAX components
    props: dict  # input properties recorded with each result


def _write(path: Path, doc) -> int:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    path.write_text(text, encoding="utf-8")
    return len(text.encode("utf-8"))


def _mb(r, means, covs) -> dict:
    """MB document of Gaussian components; ``covs`` of None makes Diracs."""
    if covs is None:
        return {"components": [{"r": ri, "density": {"type": "dirac", "location": m}}
                               for ri, m in zip(r.tolist(), means.tolist())]}
    return {"components": [
        {"r": ri, "density": {"type": "gaussian", "mean": m, "cov": c}}
        for ri, m, c in zip(r.tolist(), means.tolist(), covs.tolist())]}


def _spd(rng, n, dim, lo, hi):
    """``n`` random full covariances with eigenvalues in [lo, hi]."""
    q, _ = np.linalg.qr(rng.normal(size=(n, dim, dim)))
    cov = (q * rng.uniform(lo, hi, size=(n, 1, dim))) @ np.swapaxes(q, 1, 2)
    return (cov + np.swapaxes(cov, 1, 2)) / 2.0


def _clutter(rng, truth_locs, k, region, gap):
    """``k`` uniform points, none within ``gap`` of a truth."""
    dim = truth_locs.shape[1]
    if gap <= 0.0:
        return rng.uniform(0.0, region, size=(k, dim))
    out = np.empty((0, dim))
    while len(out) < k:
        pts = rng.uniform(0.0, region, size=(4 * k, dim))
        d2 = ((pts[:, None, :] - truth_locs[None, :, :]) ** 2).sum(-1).min(axis=1)
        out = np.concatenate([out, pts[d2 >= gap**2]])
    return out[:k]


def _estimate(rng, truth_locs, n_target, region, sigma, miss_frac=0.1, gap=0.0):
    """Gaussian detections of all but ``miss_frac`` of ``truth_locs``, plus
    uniform clutter, none within ``gap`` of a truth, up to ``n_target``
    components, in random order."""
    n, dim = truth_locs.shape
    det = np.sort(rng.permutation(n)[: n - round(miss_frac * n)])[:n_target]
    k = n_target - len(det)
    means = np.concatenate([truth_locs[det] + rng.normal(0.0, sigma, size=(len(det), dim)),
                            _clutter(rng, truth_locs, k, region, gap)])
    covs = np.concatenate([_spd(rng, len(det), dim, 0.2, 2.0), _spd(rng, k, dim, 0.5, 3.0)])
    r = np.concatenate([rng.uniform(0.5, 0.99, size=len(det)), rng.uniform(0.2, 0.6, size=k)])
    order = rng.permutation(n_target)
    return _mb(r[order], means[order], covs[order])


def _cold_pair(root: Path) -> tuple:
    """The README's 1x1 example: Dirac truth at 0, estimate r = 0.7."""
    x, y = root / "cold_x.json", root / "cold_y.json"
    _write(x, _mb(np.array([1.0]), np.array([[0.0]]), None))
    _write(y, _mb(np.array([0.7]), np.array([[2.0]]), np.array([[[5.0]]])))
    return x, y


def _spot_instances(rng, root: Path) -> list:
    """Small 2-D MB pairs for the brute-force oracle spot check."""
    out = []
    for k in range(SPOT_INSTANCES):
        paths = []
        for side in "xy":
            n = int(rng.integers(1, SPOT_MAX + 1))
            doc = _mb(rng.uniform(0.1, 1.0, size=n), rng.uniform(0.0, 15.0, size=(n, 2)),
                      _spd(rng, n, 2, 0.1, 4.0))
            for comp in doc["components"]:
                if rng.random() < 0.3:
                    comp["density"] = {"type": "dirac", "location": comp["density"]["mean"]}
            paths.append(root / f"spot{k}_{side}.json")
            _write(paths[-1], doc)
        out.append(tuple(paths))
    return out


def _gen_mc(rng, seed, root: Path):
    from pgospa.montecarlo import generate_runs

    reqs, nbytes = [], 0
    for k in range(MC_DIRS):
        run_dir = root / f"scene{k}"
        generate_runs(run_dir, n_runs=MC_RUNS, n_steps=MC_STEPS,
                      n_objects=MC_OBJECTS, dim=MC_DIM, seed=seed * MC_DIRS + k)
        nbytes += sum(p.stat().st_size for p in run_dir.rglob("*.json"))
        reqs.append(Request(["montecarlo", str(run_dir), "--out", str(root / f"rms{k}.csv")],
                            MC_RUNS * MC_STEPS, "mc"))
    props = {"directories": MC_DIRS, "runs_per_directory": MC_RUNS, "steps": MC_STEPS,
             "truth_components": MC_OBJECTS, "dim": MC_DIM, "bytes_on_disk": nbytes}
    return reqs, props


def _grid_truths(rng, n):
    """``n`` truths in distinct cells of a TIES_GRID x TIES_GRID grid over
    the region, each jittered within its cell.  Cells are 17.8 wide and
    the jitter at most 3, so no two truths lie within c of each other."""
    cell = TIES_REGION / TIES_GRID
    idx = rng.permutation(TIES_GRID**2)[:n]
    centres = (np.stack([idx // TIES_GRID, idx % TIES_GRID], axis=1) + 0.5) * cell
    return centres + rng.uniform(-TIES_JITTER, TIES_JITTER, size=(n, TIES_DIM))


def _gen_ties(rng, seed, root: Path):
    # Every truth size appears 2 * TIES_COPIES times, with estimate-size
    # offsets that alternate with its parity, and every fourth request
    # scores a mixture, so the seed moves positions and noise but not the
    # mix of sizes or request kinds.  The copies give the latency tail many
    # distinct heavy requests rather than many runs of the same few.
    plan = [(n, off, (i + n) % 4 == 0)
            for n in range(TIES_SIZES[0], TIES_SIZES[1] + 1)
            for _ in range(TIES_COPIES)
            for i, off in enumerate(TIES_OFFSETS[n % 2])]
    reqs, nbytes, sizes = [], 0, []
    for slot in rng.permutation(len(plan)):
        n_truth, off, mixture = plan[slot]
        k = len(reqs)
        locs = _grid_truths(rng, n_truth)
        truth = _mb(np.ones(n_truth), locs, None)
        x = root / f"truth{k:03d}.json"
        nbytes += _write(x, truth)
        n_est = [n_truth + off, n_truth - off] if mixture else [n_truth + off]
        ests = [_estimate(rng, locs, n, TIES_REGION, TIES_SIGMA, gap=TIES_CLUTTER_GAP)
                for n in n_est]
        if mixture:
            w = float(rng.uniform(0.55, 0.9))
            est = {"mixture": [{"weight": w, "mb": ests[0]},
                               {"weight": 1.0 - w, "mb": ests[1]}]}
        else:
            est = ests[0]
        y = root / f"est{k:03d}.json"
        nbytes += _write(y, est)
        sizes += [(n_truth, n) for n in n_est]
        reqs.append(Request(["eval", str(x), str(y)], len(ests),
                            "mbm" if mixture else "mb"))
    return reqs, _size_props(sizes, TIES_DIM, nbytes)


def _gen_large(rng, seed, root: Path):
    n, m = LARGE_SIZE, LARGE_SIZE + LARGE_EXTRA
    reqs, nbytes = [], 0
    for k in range(LARGE_REQUESTS):
        locs = rng.uniform(0.0, LARGE_REGION, size=(n, LARGE_DIM))
        truth = _mb(rng.uniform(0.6, 1.0, size=n), locs, _spd(rng, n, LARGE_DIM, 0.05, 0.5))
        est = _estimate(rng, locs, m, LARGE_REGION, 1.0)
        x, y = root / f"truth{k:03d}.json", root / f"est{k:03d}.json"
        nbytes += _write(x, truth) + _write(y, est)
        reqs.append(Request(["eval", str(x), str(y)], 1, "mb"))
    return reqs, _size_props([(n, m)] * LARGE_REQUESTS, LARGE_DIM, nbytes)


def _size_props(sizes, dim, nbytes) -> dict:
    sides = [max(a, b) for a, b in sizes]
    return {"truth_components": [min(a for a, _ in sizes), max(a for a, _ in sizes)],
            "estimate_components": [min(b for _, b in sizes), max(b for _, b in sizes)],
            "evaluations_per_pass": len(sizes), "max_side": [min(sides), max(sides)],
            "dim": dim, "bytes_on_disk": nbytes}


_GENERATORS = {"mc-tracking": _gen_mc, "eval-ties": _gen_ties, "eval-large": _gen_large}


def generate(workload: str, seed: int, root: Path) -> Inputs:
    """Write the inputs of ``workload`` for ``seed`` under a fresh ``root``."""
    root = Path(root)
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    tag = WORKLOADS.index(workload)
    rng = np.random.default_rng([seed, tag])
    requests, props = _GENERATORS[workload](rng, seed, root)
    spot = _spot_instances(np.random.default_rng([seed, tag, 1]), root)
    return Inputs(workload, seed, requests, _cold_pair(root), spot, props)
