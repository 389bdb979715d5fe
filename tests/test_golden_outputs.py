"""Byte-identity of CLI outputs: SHA-256 of CSVs written by the sweep and
Monte Carlo commands, pinned so that a refactor that moves any printed
digit fails here.  A deliberate change of outputs must re-record these
hashes and say so."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from pgospa.cli import main
from pgospa.distances import BaseDistanceKind, pairwise_base_distance
from pgospa.model import MBDensity, canonical_json

SWEEP_EXAMPLE1 = "3918b7661137474d5f2fad621a446842ac9a89a4974331cf2859a9e5185913c4"

SWEEP_EXAMPLE2 = {
    ():
        "15ecf4f7d685138a7403fdd0579affb1006d1f260b9caeced90e42a8a0b89def",
    ("--p", "2"):
        "f52a842626cb4f3004898f24ba0bcefdecc02c80884109ccfbec441c9eef1d61",
    ("--base", "hellinger"):
        "d3b93c268263022d064b51ae72bbc0291a08b41f3b7863f6c71136256bc44e17",
}

# synth-runs flags of each run directory: 3 runs x 6 steps x 4 objects in 2-D
RUN_DIRS = {
    "mb": (),
    "mixture": ("--mixture",),
    "points": ("--point-extract", "0.7"),
}

MONTECARLO = {
    ("mb", "2"):
        "3a3975eaa93b9d2d0422b9d662c816d9d01f8bc95cebcb24ece8659405551252",
    ("mb", "1"):
        "5196c23d2e20169a2121ef9712624a1d17b9da6d6fc344acfb41d40b7404156b",
    ("mixture", "2"):
        "64447f7eabfcd71db8f740705fa73518dd95e342e21874e7b164ddc290ffe9bf",
    ("mixture", "1"):
        "495a55ca55e997234f07e5057d42316755e7cc5f2f3ae4b3a6fab136f748fdaa",
    ("points", "2"):
        "95a4b3edd988bb5cc5a5c193652dbcaa22b9a553f594e968e74c12bf5f89418f",
    ("points", "1"):
        "db42b8373594dabd2c8b5686ca3540eb5c11fe721a0a37512078d310f7939b28",
}

# SHA-256 of every file of each generated run directory, in path order
RUN_FILES = {
    "mb":
        "e6d986b5375538a3c263a93c645e27e182c8bb2ce8a14741a926587b50a6fa6a",
    "mixture":
        "1b69b33d463c42b30992f5c3ba5d7b1edb944e2a6a8bcb31f6c30b7cc477e41e",
    "points":
        "2344dfccb1370870ea9a24a16773cf8fde788473c24f371fc6de7cff26f15b1d",
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def run_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    dirs = {}
    for kind, flags in RUN_DIRS.items():
        dirs[kind] = root / kind
        argv = ["synth-runs", str(dirs[kind]), "--runs", "3", "--timesteps", "6",
                "--objects", "4", "--dim", "2", "--seed", "11", *flags]
        assert main(argv) == 0
    return dirs


def test_sweep_example1_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep-example1", "--out", str(out)]) == 0
    assert sha256(out) == SWEEP_EXAMPLE1


@pytest.mark.parametrize("flags", list(SWEEP_EXAMPLE2))
def test_sweep_example2_csv(tmp_path, flags):
    out = tmp_path / "sweep.csv"
    assert main(["sweep-example2", "--out", str(out), *flags]) == 0
    assert sha256(out) == SWEEP_EXAMPLE2[flags]


@pytest.mark.parametrize("kind, alpha", list(MONTECARLO))
def test_montecarlo_csv(tmp_path, run_dirs, kind, alpha):
    out = tmp_path / "rms.csv"
    argv = ["montecarlo", str(run_dirs[kind]), "--out", str(out), "--alpha", alpha]
    assert main(argv) == 0
    assert sha256(out) == MONTECARLO[kind, alpha]


@pytest.mark.parametrize("kind", list(RUN_FILES))
def test_synth_run_files(run_dirs, kind):
    digest = hashlib.sha256()
    for path in sorted(run_dirs[kind].rglob("*.json")):
        digest.update(str(path.relative_to(run_dirs[kind])).encode())
        digest.update(path.read_bytes())
    assert digest.hexdigest() == RUN_FILES[kind]


# ``eval`` on seeded MB pairs of 20-64 components per side.  Every third
# request is tie-heavy: 2-D Diracs on an integer grid (exact distance ties)
# and a duplicated component; the others spread Gaussians with diagonal
# covariances and off-grid Diracs.  One digest over the canonical JSON
# printed for every request covers totals, terms, pairs and the near-tie
# flag.  At alpha = 1 saturated pairs are reported, and swapping two of
# them at equal cost makes every request a near tie.
EVAL_PARAMS = {
    ():
        "2f4f2080eb1ddfec842888a1751296fe4dd23bee9f47efc0702d3afacf909f21",
    ("--alpha", "1", "--p", "1"):
        "ed74c3858cb1ce0e3678e5a6b5460a926c5d37d6b3b7fac3e2442cfd15f5336d",
}
# (near_tie true, near_tie false) counts
EVAL_NEAR_TIES = {
    (): (10, 20),
    ("--alpha", "1", "--p", "1"): (30, 0),
}
EVAL_REQUESTS = 30


def eval_doc(rng, n, ties):
    comps = []
    for _ in range(n):
        r = float(rng.choice([0.3, 0.5, 0.8, 1.0]))
        if ties and rng.random() < 0.7:
            loc = rng.integers(0, 24, size=2).astype(float).tolist()
            density = {"type": "dirac", "location": loc}
        elif rng.random() < 0.3:
            density = {"type": "dirac", "location": (rng.random(2) * 80).tolist()}
        else:
            mean = (rng.random(2) * (24 if ties else 80)).tolist()
            var = rng.choice([0.5, 1.0, 2.0], size=2)
            density = {"type": "gaussian", "mean": mean,
                       "cov": [[float(var[0]), 0.0], [0.0, float(var[1])]]}
        comps.append({"r": r, "density": density})
    if ties:
        comps[-1] = comps[0]
    return {"components": comps}


@pytest.fixture(scope="module")
def eval_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("eval")
    files = []
    for k in range(EVAL_REQUESTS):
        rng = np.random.default_rng(1000 + k)
        nx, ny = (int(n) for n in rng.integers(20, 65, size=2))
        pair = []
        for side, n in (("x", nx), ("y", ny)):
            path = root / f"{k}{side}.json"
            doc = eval_doc(rng, n, ties=k % 3 == 0)
            path.write_text(canonical_json(doc) + "\n", encoding="utf-8")
            pair.append(str(path))
        files.append(pair)
    return files


@pytest.mark.parametrize("flags", list(EVAL_PARAMS))
def test_eval_outputs(eval_files, capsys, flags):
    digest = hashlib.sha256()
    near_ties = []
    for fx, fy in eval_files:
        assert main(["eval", fx, fy, *flags]) == 0
        out = capsys.readouterr().out
        near_ties.append(json.loads(out)["near_tie"])
        digest.update(out.encode())
    assert (near_ties.count(True), near_ties.count(False)) == EVAL_NEAR_TIES[flags]
    assert digest.hexdigest() == EVAL_PARAMS[flags]


# SHA-256 of the ``selfcheck`` report and its exit code, per seed and flags;
# the faulty solver's reports hold the reproduction record of a violation
SELFCHECK = {
    ("0",):
        ("f19c68469d9860986baa74c37a76d02530d1e9c0b45b08c55606fa7981f83889", 0),
    ("0", "--inject-fault"):
        ("d910b1af1e81a13cd911553ad62b60c69e99beb1865dcecb5cb0f110fc143062", 1),
    ("3",):
        ("dbda1e0001ab1b77606620853f8bb1a106a708b270e8bcf89c8fb4ef4b38feb9", 0),
    ("3", "--inject-fault"):
        ("2c90c69b8bdc0847e5527659a2f6c3ad3c8158faf232104a515bb9d8f32ec0f7", 1),
}


@pytest.mark.parametrize("args", list(SELFCHECK))
def test_selfcheck_reports(capsys, args):
    code = main(["selfcheck", "--seed", *args])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (digest, code) == SELFCHECK[args]


# ``pairwise_base_distance`` on seeded MB pairs of 0-7 components per side:
# 1-4-D; Diracs mixed with Gaussians whose covariances (some singular) are
# scaled by 1e-3, 1 or 1e6; 5 % of means near 1e155, so their squared gaps
# overflow; and components shared by both sides.  W2 runs on every pair and
# Euclidean on the all-Dirac ones, without a cut-off and at each of
# DISTANCE_CUTOFFS.  One digest over the bytes of every matrix.
DISTANCE_CORPUS = "33c4b555e7eab6122d14591c223751981d0042446e8de59df008dbaf5123368a"
DISTANCE_CUTOFFS = (None, 0.5, 5.0, 30.0, 1e200)
DISTANCE_PAIRS = 400


def corpus_mb(rng, n, dim, dirac_frac):
    dirac = rng.random(n) < dirac_frac
    means = rng.uniform(-20.0, 20.0, (n, dim))
    far = rng.random(n) < 0.05
    far_shape = (far.sum(), dim)
    means[far] = rng.choice([-1e155, 1e155], far_shape) * rng.uniform(0.5, 2.0, far_shape)
    covs = np.zeros((n, dim, dim))
    for k in np.flatnonzero(~dirac):
        scale = rng.choice([1e-3, 1.0, 1e6])
        # singular only at scales whose rounding stays inside the clamp band
        A = rng.normal(size=(dim, dim if scale > 1.0 else int(rng.integers(1, dim + 1))))
        covs[k] = scale * (A @ A.T)
    return MBDensity.from_arrays(rng.uniform(0.1, 1.0, n), means, covs, dirac)


def test_distance_corpus():
    rng = np.random.default_rng(77)
    digest = hashlib.sha256()
    for k in range(DISTANCE_PAIRS):
        dim = int(rng.integers(1, 5))
        frac = 1.0 if k % 4 == 0 else 0.4
        x = corpus_mb(rng, int(rng.integers(0, 8)), dim, frac)
        y = corpus_mb(rng, int(rng.integers(0, 8)), dim, frac)
        shared = rng.permutation(len(x))[: int(rng.integers(0, 3))]
        y = MBDensity.from_arrays(*(np.concatenate([getattr(y, name), getattr(x, name)[shared]])
                                    for name in ("r", "means", "covs", "dirac")))
        kinds = [BaseDistanceKind.W2] + [BaseDistanceKind.EUCLIDEAN] * (frac == 1.0)
        for kind in kinds:
            for c in DISTANCE_CUTOFFS:
                out = pairwise_base_distance(x, y, kind, c=c)
                digest.update(repr(out.shape).encode())
                digest.update(out.tobytes())
    assert digest.hexdigest() == DISTANCE_CORPUS
