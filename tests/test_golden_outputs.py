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
from pgospa.model import canonical_json

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
