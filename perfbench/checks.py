"""Correctness gate: recorded references plus checks that need none.

References (``references.json``) hold, per seed in ``REFERENCE_SEEDS`` and
per request, what the program printed at the commit that defined the
benchmark: the SHA-256 of the CSV of each ``montecarlo`` request, and for
each ``eval`` request a digest of its total and decomposition terms, bit
for bit.  Matched pairs enter the digest unless the reference reported
``near_tie: true``, because the tie rule decides them then.

Checks that need no reference run on every seed: the alpha = 2 identity
(terms sum to total^p), a mixture total equal to the weighted entry
totals, an optimal total recomputed by this module's own base distances
and scipy's assignment solver, and a brute-force spot check of totals
and matched pairs on small instances.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

REFERENCES = Path(__file__).resolve().parent / "references.json"
REFERENCE_SEEDS = range(100)  # the seeds references.json covers
DECOMP = ("localization", "existence_mismatch", "missed", "false")
C, P, ALPHA = 10.0, 2.0, 2.0  # the CLI defaults every request uses
TOTAL_RTOL = 1e-9


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def eval_digest(out: dict, with_pairs: bool) -> str:
    """Digest of an ``eval`` result: totals and terms as exact hex floats."""
    if "mixture" in out:
        key = ["mbm", float(out["total"]).hex(),
               [[float(e["weight"]).hex(), float(e["total"]).hex()]
                for e in out["mixture"]["entries"]]]
    else:
        dec = out["decomposition"]
        key = ["mb", float(out["total"]).hex(),
               None if dec is None else [float(dec[k]).hex() for k in DECOMP],
               out["matched_pairs"] if with_pairs else None]
    return sha256(json.dumps(key).encode())[:12]


_NEAR_TIE = {True: "T", False: "F", None: "N"}


def reference(kind: str, out: bytes) -> str:
    """Reference of one request's output: the SHA-256 of a CSV, or for an
    ``eval`` request its digest and a near-tie flag."""
    if kind == "mc":
        return sha256(out)
    doc = json.loads(out)
    near_tie = doc.get("near_tie")
    return eval_digest(doc, near_tie is not True) + _NEAR_TIE[near_tie]


def pairs_compared(kind: str, ref: str) -> bool:
    """Whether the reference holds the matched pairs of an MB ``eval``."""
    return kind == "mb" and ref[-1] != "T"


def matches_reference(kind: str, out: bytes, ref: str) -> bool:
    if kind == "mc":
        return sha256(out) == ref
    return eval_digest(json.loads(out), ref[-1] != "T") == ref[:-1]


# -- reference-free checks ------------------------------------------------


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def identity_ok(out: dict) -> bool:
    """alpha = 2: the four terms sum to total^p; a mixture's total is the
    weighted sum of its entry totals."""
    if "mixture" in out:
        entries = out["mixture"]["entries"]
        return _close(out["total"], sum(e["weight"] * e["total"] for e in entries), 1e-12)
    dec = out["decomposition"]
    return dec is not None and _close(sum(dec[k] for k in DECOMP), out["total"] ** P, 1e-9)


def _stack(mb_doc: dict):
    r, means, covs = [], [], []
    for comp in mb_doc["components"]:
        dens = comp["density"]
        r.append(comp["r"])
        if dens["type"] == "dirac":
            loc = np.asarray(dens["location"], dtype=float)
            means.append(loc)
            covs.append(np.zeros((loc.size, loc.size)))
        else:
            means.append(np.asarray(dens["mean"], dtype=float))
            covs.append(np.asarray(dens["cov"], dtype=float))
    return np.array(r), np.array(means), np.array(covs)


def w2_matrix(mx, Px, my, Py) -> np.ndarray:
    """W2 between Gaussian stacks via tr((Px^1/2 Py Px^1/2)^1/2).

    The program roots Py instead; the two forms agree in exact arithmetic.
    """
    dm2 = ((mx[:, None, :] - my[None, :, :]) ** 2).sum(-1)
    tr = np.trace(Px, axis1=1, axis2=2)[:, None] + np.trace(Py, axis1=1, axis2=2)[None, :]
    cross = 0.0
    if Px.any() and Py.any():
        w, v = np.linalg.eigh(Px)
        sx = (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ np.swapaxes(v, 1, 2)
        inner = sx[:, None] @ Py[None, :] @ sx[:, None]
        cross = np.sqrt(np.clip(np.linalg.eigvalsh(inner), 0.0, None)).sum(-1)
    return np.sqrt(np.maximum(dm2 + tr - 2.0 * cross, 0.0))


def optimal_total(x_doc: dict, y_doc: dict):
    """Optimal P-GOSPA total, and (n_x, n_y, pairs with d < c)."""
    rx, mx, Px = _stack(x_doc)
    ry, my, Py = _stack(y_doc)
    sizes = (len(rx), len(ry))
    if len(rx) > len(ry):
        rx, mx, Px, ry, my, Py = ry, my, Py, rx, mx, Px
    cpa = C**P / ALPHA
    if len(rx) == 0:
        return float((ry * cpa).sum() ** (1.0 / P)), (*sizes, 0)
    D = w2_matrix(mx, Px, my, Py)
    cost = np.minimum(rx[:, None], ry[None, :]) * np.minimum(D, C) ** P \
        + np.abs(rx[:, None] - ry[None, :]) * cpa
    rows, cols = linear_sum_assignment(cost - (ry * cpa)[None, :])
    unmatched = np.ones(len(ry), dtype=bool)
    unmatched[cols] = False
    total_p = cost[rows, cols].sum() + (ry[unmatched] * cpa).sum()
    return float(total_p ** (1.0 / P)), (*sizes, int((D < C).sum()))


def _load(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def eval_total_ok(out: dict, x_path, y_path):
    """Compare an ``eval`` total with :func:`optimal_total`.

    Returns (ok, [(n_x, n_y, pairs with d < c) per evaluation])."""
    x_doc, y_doc = _load(x_path), _load(y_path)
    y_docs = [e["mb"] for e in y_doc["mixture"]] if "mixture" in y_doc else [y_doc]
    totals, stats = [], []
    for doc in y_docs:
        t, st = optimal_total(x_doc, doc)
        totals.append(t)
        stats.append(st)
    if "mixture" in out:
        expect = sum(e["weight"] * t for e, t in zip(out["mixture"]["entries"], totals))
    else:
        expect = totals[0]
    return _close(out["total"], expect, TOTAL_RTOL), stats


def mc_csv_ok(csv_text: str, run_dir: Path):
    """Check the montecarlo CSV: the RMS identity per row, and rms_total
    against totals recomputed from the run directory's files."""
    lines = [ln for ln in csv_text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    col = {name: k for k, name in enumerate(header)}
    terms = sum(rows[:, col[f"rms_{k}"]] ** P for k in DECOMP)
    if not np.allclose(terms, rows[:, col["rms_total"]] ** P, rtol=1e-9, atol=1e-12):
        return False, []
    truth_dir = run_dir / "truth"
    steps = sorted(p.name for p in truth_dir.glob("*.json"))
    truths = [_load(truth_dir / s) for s in steps]
    runs = sorted(d for d in (run_dir / "runs").iterdir() if d.is_dir())
    totals_p = np.zeros((len(runs), len(steps)))
    stats = []
    for ri, rdir in enumerate(runs):
        for ti, step in enumerate(steps):
            t, st = optimal_total(_load(rdir / step), truths[ti])
            totals_p[ri, ti] = t**P
            stats.append(st)
    rms = totals_p.mean(axis=0) ** (1.0 / P)
    ok = len(rms) == len(rows) and np.allclose(
        rms, rows[:, col["rms_total"]], rtol=TOTAL_RTOL, atol=1e-12)
    return bool(ok), stats


def lex_smallest_pairs(x_doc: dict, y_doc: dict) -> list:
    """Matched pairs (d < c) of the lexicographically smallest optimal
    matching, found by enumerating every matching of the smaller side.

    ``itertools.permutations`` yields the matchings in lexicographic order
    of their pair lists, so the first one within the tie tolerance of the
    optimum is the one the program must report."""
    rx, mx, Px = _stack(x_doc)
    ry, my, Py = _stack(y_doc)
    swapped = len(rx) > len(ry)
    if swapped:
        rx, mx, Px, ry, my, Py = ry, my, Py, rx, mx, Px
    if len(rx) == 0:
        return []
    cpa = C**P / ALPHA
    D = w2_matrix(mx, Px, my, Py)
    cost = np.minimum(rx[:, None], ry[None, :]) * np.minimum(D, C) ** P \
        + np.abs(rx[:, None] - ry[None, :]) * cpa - (ry * cpa)[None, :]
    perms = np.array(list(itertools.permutations(range(len(ry)), len(rx))))
    rows = np.arange(len(rx))
    totals = cost[rows[None, :], perms].sum(axis=1)
    tol = 1e-9 * max(1.0, float(np.abs(cost).max()))
    best = perms[np.flatnonzero(totals <= totals.min() + tol)[0]]
    pairs = [(int(i), int(j)) for i, j in zip(rows, best) if D[i, j] < C]
    if swapped:
        pairs = sorted((j, i) for i, j in pairs)
    return [list(p) for p in pairs]


def brute_force_ok(out: dict, x_path, y_path) -> bool:
    """Total and alpha = 2 identity against the program's exhaustive
    oracle, and matched pairs against :func:`lex_smallest_pairs`."""
    from pgospa.model import MetricParams, load_mb
    from pgospa.oracles import brute_force_pgospa

    expect = brute_force_pgospa(load_mb(x_path), load_mb(y_path),
                                MetricParams(c=C, p=P, alpha=ALPHA))
    return (_close(out["total"], expect, TOTAL_RTOL) and identity_ok(out)
            and out["matched_pairs"] == lex_smallest_pairs(_load(x_path), _load(y_path)))
