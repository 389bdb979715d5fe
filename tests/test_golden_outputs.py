"""Byte-identity of CLI outputs: SHA-256 of CSVs written by the sweep and
Monte Carlo commands, pinned so that a refactor that moves any printed
digit fails here.  A deliberate change of outputs must re-record these
hashes and say so."""

import hashlib
from pathlib import Path

import pytest

from pgospa.cli import main

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
