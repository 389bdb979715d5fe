"""Command-line front end.

Subcommands: ``eval`` (alias ``gospa``), ``sweep-example1``,
``sweep-example2``, ``montecarlo``, ``synth-runs``, ``selfcheck``, and
test-only ``oracle`` subcommands.  ``eval`` takes MB, MB-mixture or
point-set files; a point-set result is by definition P-GOSPA on the lifted
MB densities (unit existence, Dirac densities).  Single results are printed
as JSON; series are written as CSV with 12-significant-digit decimals and
LF line endings, so repeated runs with identical inputs are byte-identical.

Exit codes: 0 ok, 1 property violation (selfcheck), 2 parse error,
3 semantic error (dimension mismatch, incompatible inputs, bad paths).
"""

from __future__ import annotations

import argparse
import importlib.resources
import json
import sys
from contextlib import contextmanager

import numpy as np

from dataclasses import dataclass

from . import montecarlo
from .distances import BaseDistanceKind
# mbm_pgospa is not called here; perfbench/tracing.py wraps it by this name
from .metric import gospa, mbm_pgospa, pgospa  # noqa: F401
from .model import (
    BernoulliComponent,
    DimensionMismatchError,
    DiracDensity,
    GaussianDensity,
    MBDensity,
    MetricParams,
    SchemaError,
    canonical_json,
    load_document,
    mb_from_dict,
    mbm_from_dict,
    points_from_dict,
)
from .oracles import (
    bernoulli_ot_dirac,
    bernoulli_ot_grid,
    brute_force_pgospa,
    qospa_base,
)
from .assignment import enumerate_assignment
from .selfcheck import faulty_solver, run_selfcheck

EXAMPLE1_PARAMS = MetricParams(c=5.0, p=1.0, alpha=2.0)


@dataclass(frozen=True)
class SweepSpec:
    """A swept scenario variable on an inclusive decimal grid."""

    variable: str  # "r" | "sigma2" | "c"
    start: float
    stop: float
    step: float

    def __post_init__(self):
        if self.step <= 0 or self.start > self.stop:
            raise ValueError("sweep requires step > 0 and start <= stop")

    def values(self):
        # integer stepping keeps the grid exactly on decimal ticks
        scale = round(1.0 / self.step)
        lo = round(self.start * scale)
        hi = round(self.stop * scale)
        return [k / scale for k in range(lo, hi + 1)]


EXAMPLE1_R_SWEEP = SweepSpec("r", 0.0, 1.0, 0.01)
EXAMPLE1_SIGMA2_SWEEP = SweepSpec("sigma2", 0.0, 30.0, 0.1)
EXAMPLE2_C_SWEEP = SweepSpec("c", 0.1, 10.0, 0.1)


def _add_param_flags(sub, p_default=2.0):
    sub.add_argument("--c", type=float, default=10.0, help="cut-off distance")
    sub.add_argument("--p", type=float, default=p_default, help="metric exponent")
    sub.add_argument("--alpha", type=float, default=2.0, help="cardinality penalty")
    sub.add_argument(
        "--base",
        choices=[k.value for k in BaseDistanceKind],
        default="w2",
        help="base distance between single-object densities",
    )


def _params(args) -> MetricParams:
    return MetricParams(c=args.c, p=args.p, alpha=args.alpha)


@contextmanager
def _open_out(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh


def _doc_kind(doc) -> str:
    if isinstance(doc, dict):
        if "components" in doc:
            return "mb"
        if "mixture" in doc:
            return "mbm"
        if "points" in doc:
            return "points"
    raise SchemaError("expected an MB, MB-mixture, or point-set document")


def _print_json(obj) -> None:
    print(canonical_json(obj))


def cmd_eval(args) -> int:
    doc_x = load_document(args.file_x)
    doc_y = load_document(args.file_y)
    kx, ky = _doc_kind(doc_x), _doc_kind(doc_y)
    params = _params(args)
    base = BaseDistanceKind(args.base)
    allow0 = args.allow_zero_r
    if kx == "mb" and ky == "mb":
        res = pgospa(
            mb_from_dict(doc_x, allow0),
            mb_from_dict(doc_y, allow0),
            params,
            base,
            detect_near_ties=True,
        )
        _print_json(res.to_dict())
    elif {kx, ky} == {"mb", "mbm"}:
        if kx == "mbm":
            mix, ref = mbm_from_dict(doc_x, allow0), mb_from_dict(doc_y, allow0)
        else:
            mix, ref = mbm_from_dict(doc_y, allow0), mb_from_dict(doc_x, allow0)
        entries = [
            {"weight": w, "total": pgospa(mb, ref, params, base).total}
            for w, mb in mix.entries
        ]
        # the same weighted sum, in entry order, that mbm_pgospa returns
        total = float(sum(e["weight"] * e["total"] for e in entries))
        _print_json(
            {
                "total": total,
                "p": params.p,
                "c": params.c,
                "alpha": params.alpha,
                "base": base.value,
                "mixture": {"entries": entries},
            }
        )
    elif kx == "points" and ky == "points":
        res = gospa(points_from_dict(doc_x), points_from_dict(doc_y), params)
        _print_json(res.to_dict())
    else:
        raise DimensionMismatchError(
            f"unsupported input combination: {kx} vs {ky}"
        )
    return 0


def cmd_sweep_example1(args) -> int:
    """P-GOSPA for a 1-D single-Bernoulli scenario over a grid of existence
    probability r and Gaussian variance sigma^2 (truth: point mass at 0,
    estimate mean 2; c=5, p=1, alpha=2)."""
    truth = MBDensity([BernoulliComponent(1.0, DiracDensity([0.0]))])
    sigma2_grid = EXAMPLE1_SIGMA2_SWEEP.values()
    densities = {s2: GaussianDensity([2.0], [[s2]]) for s2 in sigma2_grid}
    with _open_out(args.out) as fh:
        fh.write("r,sigma2,pgospa\n")
        for r in EXAMPLE1_R_SWEEP.values():
            for s2 in sigma2_grid:
                est = MBDensity([BernoulliComponent(r, densities[s2])])
                total = pgospa(truth, est, EXAMPLE1_PARAMS).total
                fh.write(f"{r:.12g},{s2:.12g},{total:.12g}\n")
    return 0


def _load_scenario(path):
    if path is None:
        ref = importlib.resources.files("pgospa").joinpath("data/example2_scenario.json")
        doc = json.loads(ref.read_text(encoding="utf-8"))
    else:
        doc = load_document(path)
    if not isinstance(doc, dict) or "mb_x" not in doc or "mb_y" not in doc:
        raise SchemaError("scenario requires 'mb_x' and 'mb_y' MB documents")
    return mb_from_dict(doc["mb_x"]), mb_from_dict(doc["mb_y"])


def cmd_sweep_example2(args) -> int:
    """P-GOSPA and its decomposition versus the cut-off c, over
    c = 0.1, 0.2, ..., 10.0 (alpha = 2)."""
    fx, fy = _load_scenario(args.scenario)
    base = BaseDistanceKind(args.base)
    with _open_out(args.out) as fh:
        fh.write("c,total,localization,existence_mismatch,missed,false\n")
        for c in EXAMPLE2_C_SWEEP.values():
            res = pgospa(fx, fy, MetricParams(c=c, p=args.p, alpha=2.0), base)
            fh.write(
                f"{c:.12g},{res.total:.12g},{res.localization:.12g},"
                f"{res.existence_mismatch:.12g},{res.missed:.12g},{res.false_det:.12g}\n"
            )
    return 0


def cmd_montecarlo(args) -> int:
    series = montecarlo.evaluate_run_dir(
        args.run_dir, _params(args), BaseDistanceKind(args.base)
    )
    with _open_out(args.out) as fh:
        montecarlo.write_rms_csv(fh, series)
    return 0


def cmd_synth_runs(args) -> int:
    montecarlo.generate_runs(
        args.out_dir,
        n_runs=args.runs,
        n_steps=args.timesteps,
        n_objects=args.objects,
        dim=args.dim,
        seed=args.seed,
        mixture=args.mixture,
        point_extract=args.point_extract,
    )
    return 0


def cmd_selfcheck(args) -> int:
    if args.inject_fault:
        report = run_selfcheck(seed=args.seed, solver=faulty_solver)
    else:
        report = run_selfcheck(seed=args.seed)
    _print_json(report)
    return 0 if report["ok"] else 1


def cmd_oracle_assign(args) -> int:
    doc = load_document(args.file)
    if not isinstance(doc, dict) or "costs" not in doc:
        raise SchemaError("expected an object with a 'costs' matrix")
    res = enumerate_assignment(np.asarray(doc["costs"], dtype=float))
    _print_json(
        {"pairs": [list(pr) for pr in res.pairs], "total_cost": res.total_cost}
    )
    return 0


def cmd_oracle_pgospa(args) -> int:
    fx = mb_from_dict(load_document(args.file_x), args.allow_zero_r)
    fy = mb_from_dict(load_document(args.file_y), args.allow_zero_r)
    value = brute_force_pgospa(fx, fy, _params(args), BaseDistanceKind(args.base))
    _print_json({"total": value, "p": args.p, "c": args.c, "alpha": args.alpha})
    return 0


def _single_component(path, allow0=False) -> BernoulliComponent:
    mb = mb_from_dict(load_document(path), allow0)
    if len(mb) != 1:
        raise SchemaError(f"{path}: expected exactly one Bernoulli component")
    return mb.components[0]


def cmd_oracle_ot_dirac(args) -> int:
    bx = _single_component(args.file_x, True)
    by = _single_component(args.file_y, True)
    for b in (bx, by):
        if not isinstance(b.density, DiracDensity):
            raise SchemaError("ot-dirac requires Dirac single-object densities")
    value = bernoulli_ot_dirac(
        bx.r, bx.density.location, by.r, by.density.location, _params(args)
    )
    _print_json({"value": value, "p": args.p, "c": args.c, "alpha": args.alpha})
    return 0


def cmd_oracle_ot_grid(args) -> int:
    bx = _single_component(args.file_x, True)
    by = _single_component(args.file_y, True)
    res = bernoulli_ot_grid(bx, by, _params(args), resolution=args.resolution)
    _print_json(
        {
            "value": res.value,
            "value_p": res.value_p,
            "eps_grid": res.eps_grid,
            "resolution": res.resolution,
        }
    )
    return 0


def cmd_oracle_qospa(args) -> int:
    bx = _single_component(args.file_x, True)
    by = _single_component(args.file_y, True)
    for b in (bx, by):
        if not isinstance(b.density, DiracDensity):
            raise SchemaError("qospa requires Dirac single-object densities")
    value = qospa_base(
        bx.density.location, by.density.location, bx.r, by.r, _params(args)
    )
    _print_json({"value": value, "c": args.c})
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgospa",
        description="Probabilistic GOSPA metric between multi-Bernoulli set densities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser(
        "eval",
        aliases=["gospa"],
        help="metric between two files (MB, MBM, or points)",
    )
    pe.add_argument("file_x")
    pe.add_argument("file_y")
    pe.add_argument("--allow-zero-r", action="store_true", help="admit r = 0 components")
    _add_param_flags(pe)
    pe.set_defaults(func=cmd_eval)

    s1 = sub.add_parser("sweep-example1", help="metric over an (r, sigma^2) grid")
    s1.add_argument("--out", default="-")
    s1.set_defaults(func=cmd_sweep_example1)

    s2 = sub.add_parser("sweep-example2", help="metric and decomposition versus c")
    s2.add_argument("--scenario", default=None, help="scenario JSON with mb_x/mb_y")
    s2.add_argument("--out", default="-")
    s2.add_argument("--p", type=float, default=1.0)
    s2.add_argument(
        "--base", choices=[k.value for k in BaseDistanceKind], default="w2"
    )
    s2.set_defaults(func=cmd_sweep_example2)

    mc = sub.add_parser("montecarlo", help="RMS metric series over a run directory")
    mc.add_argument("run_dir")
    mc.add_argument("--out", default="-")
    _add_param_flags(mc)
    mc.set_defaults(func=cmd_montecarlo)

    sr = sub.add_parser("synth-runs", help="generate a synthetic run directory")
    sr.add_argument("out_dir")
    sr.add_argument("--runs", type=int, default=4)
    sr.add_argument("--timesteps", type=int, default=10)
    sr.add_argument("--objects", type=int, default=3)
    sr.add_argument("--dim", type=int, default=2)
    sr.add_argument("--seed", type=int, default=0)
    sr.add_argument("--mixture", action="store_true", help="emit MBM estimates")
    sr.add_argument(
        "--point-extract",
        type=float,
        default=None,
        metavar="THRESH",
        help="emit unit-existence point estimates above this existence threshold",
    )
    sr.set_defaults(func=cmd_synth_runs)

    sc = sub.add_parser("selfcheck", help="run reduced property suites")
    sc.add_argument("--seed", type=int, default=0)
    sc.add_argument(
        "--inject-fault",
        action="store_true",
        help="use a deliberately suboptimal assignment solver (harness test)",
    )
    sc.set_defaults(func=cmd_selfcheck)

    orc = sub.add_parser("oracle", help="test-only verification commands")
    osub = orc.add_subparsers(dest="oracle_command", required=True)

    oa = osub.add_parser("assign", help="brute-force optimal assignment")
    oa.add_argument("file", help="JSON with a 'costs' matrix")
    oa.set_defaults(func=cmd_oracle_assign)

    op = osub.add_parser("pgospa", help="brute-force metric between two MB files")
    op.add_argument("file_x")
    op.add_argument("file_y")
    op.add_argument("--allow-zero-r", action="store_true")
    _add_param_flags(op)
    op.set_defaults(func=cmd_oracle_pgospa)

    od = osub.add_parser("ot-dirac", help="four-atom transport between Dirac Bernoullis")
    od.add_argument("file_x")
    od.add_argument("file_y")
    _add_param_flags(od)
    od.set_defaults(func=cmd_oracle_ot_dirac)

    og = osub.add_parser("ot-grid", help="discretized transport between Gaussian Bernoullis")
    og.add_argument("file_x")
    og.add_argument("file_y")
    og.add_argument("--resolution", type=int, default=200)
    _add_param_flags(og)
    og.set_defaults(func=cmd_oracle_ot_grid)

    oq = osub.add_parser("qospa", help="existence-weighted base distance (non-definite)")
    oq.add_argument("file_x")
    oq.add_argument("file_y")
    _add_param_flags(oq)
    oq.set_defaults(func=cmd_oracle_qospa)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(
            f"error: invalid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}",
            file=sys.stderr,
        )
        return 2
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DimensionMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
