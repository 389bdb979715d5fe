"""Command-line front end.

Subcommands: ``eval`` (alias ``gospa``), ``sweep-example1``,
``sweep-example2``, ``montecarlo``, ``synth-runs``, ``selfcheck``, and
test-only ``oracle`` subcommands.  ``eval`` takes MB, MB-mixture or
point-set files (points are scored as unit-existence Dirac MB densities).
It reads two MB documents in one ``model._stacked_mbs`` pass, as
``mbm_from_dict`` reads the entries of a mixture; on any doubt it reads
each document on its own, in order, which reports the first fault.
``sweep-example1`` takes the pair formula of ``pgospa`` over one distance
row, with the bits of one 1 x 1 call per point.  Results are JSON, series
CSV (12 significant digits, LF endings), byte-identical from run to run.
``oracle`` and ``selfcheck`` import their modules when they run; ``eval``
loads ``scipy.optimize`` only when it solves an assignment.

Exit codes: 0 ok, 1 property violation (selfcheck), 2 parse error,
3 semantic error (dimension mismatch, incompatible inputs, bad paths).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import contextmanager
from dataclasses import astuple

import numpy as np

from . import montecarlo
from .distances import BaseDistanceKind, pairwise_base_distance
# mbm_pgospa is not called here; perfbench/tracing.py wraps it by this name
from .metric import _mixture_totals, _pair_terms, mbm_pgospa, pgospa  # noqa: F401
from .model import (
    BernoulliComponent,
    DimensionMismatchError,
    MBDensity,
    MetricParams,
    SchemaError,
    _float_array,
    _point_masses,
    _stacked_mbs,
    canonical_json,
    doc_kind,
    load_document,
    mb_from_dict,
    mbm_from_dict,
    points_from_dict,
)
from .assignment import enumerate_assignment

EXAMPLE1_PARAMS = MetricParams(c=5.0, p=1.0, alpha=2.0)


def _ticks(start, stop, step) -> tuple:
    """The inclusive decimal grid start, start + step, ..., stop; integer
    stepping keeps it exactly on the ticks."""
    scale = round(1.0 / step)
    return tuple(k / scale for k in range(round(start * scale), round(stop * scale) + 1))


EXAMPLE1_R_SWEEP = _ticks(0.0, 1.0, 0.01)
EXAMPLE1_SIGMA2_SWEEP = _ticks(0.0, 30.0, 0.1)
EXAMPLE2_C_SWEEP = _ticks(0.1, 10.0, 0.1)


def _add_param_flags(sub):
    sub.add_argument("--c", type=float, default=10.0, help="cut-off distance")
    sub.add_argument("--p", type=float, default=2.0, help="metric exponent")
    sub.add_argument("--alpha", type=float, default=2.0, help="cardinality penalty")
    sub.add_argument(
        "--base",
        choices=[k.value for k in BaseDistanceKind],
        default="w2",
        help="base distance between single-object densities",
    )


def _pair_parser(subparsers, name, func, **kwargs):
    """Subcommand on two input files, with the metric parameter flags."""
    sp = subparsers.add_parser(name, **kwargs)
    sp.add_argument("file_x")
    sp.add_argument("file_y")
    _add_param_flags(sp)
    sp.set_defaults(func=func)
    return sp


def _params(args) -> MetricParams:
    return MetricParams(c=args.c, p=args.p, alpha=args.alpha)


@contextmanager
def _open_out(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh


def _print_json(obj) -> None:
    print(canonical_json(obj))


def cmd_eval(args) -> int:
    doc_x = load_document(args.file_x)
    doc_y = load_document(args.file_y)
    kx, ky = doc_kind(doc_x), doc_kind(doc_y)
    if kx is None or ky is None:
        raise SchemaError("expected an MB, MB-mixture, or point-set document")
    params = _params(args)
    base = BaseDistanceKind(args.base)
    allow0 = args.allow_zero_r
    if {kx, ky} == {"mb", "mbm"}:
        doc_mix, doc_ref = (doc_x, doc_y) if kx == "mbm" else (doc_y, doc_x)
        mix = mbm_from_dict(doc_mix, allow0)
        total, totals = _mixture_totals(mix, mb_from_dict(doc_ref, allow0), params, base)
        entries = [{"weight": w, "total": t} for (w, _), t in zip(mix.entries, totals)]
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
        return 0
    if kx == "mb" and ky == "mb":
        # one read of both documents; any doubt goes to one read per document
        raws = (doc_x["components"], doc_y["components"])
        fx, fy = _stacked_mbs(raws, allow0) or (
            mb_from_dict(doc_x, allow0), mb_from_dict(doc_y, allow0)
        )
    elif kx == "points" and ky == "points":
        # P-GOSPA on the lifted MB densities, with the Euclidean base
        fx, fy = (_point_masses(points_from_dict(doc)) for doc in (doc_x, doc_y))
        base = BaseDistanceKind.EUCLIDEAN
    else:
        raise DimensionMismatchError(
            f"unsupported input combination: {kx} vs {ky}"
        )
    _print_json(pgospa(fx, fy, params, base, detect_near_ties=True).to_dict())
    return 0


def _example1_totals():
    """The r grid, the sigma^2 grid and the (r, sigma^2) grid of metric values
    of ``sweep-example1``: one distance row, then ``pgospa``'s pair formula."""
    r_grid, s2_grid = EXAMPLE1_R_SWEEP, EXAMPLE1_SIGMA2_SWEEP
    n, (c, p, alpha) = len(s2_grid), astuple(EXAMPLE1_PARAMS)
    truth = _point_masses(np.zeros((1, 1)))
    estimates = MBDensity.from_arrays(
        np.ones(n), np.full((n, 1), 2.0), np.reshape(s2_grid, (n, 1, 1)), np.zeros(n, bool)
    )
    D = pairwise_base_distance(truth, estimates, BaseDistanceKind.W2, c=c)
    loc, mis = _pair_terms(truth.r, np.array(r_grid)[:, None], D, p, c**p / alpha)
    return r_grid, s2_grid, [[t ** (1.0 / p) for t in row] for row in (loc + mis).tolist()]


def cmd_sweep_example1(args) -> int:
    """P-GOSPA for a 1-D single-Bernoulli scenario over a grid of existence
    probability r and Gaussian variance sigma^2 (truth: point mass at 0,
    estimate mean 2; c=5, p=1, alpha=2)."""
    r_grid, s2_grid, totals = _example1_totals()
    with _open_out(args.out) as fh:
        fh.write("r,sigma2,pgospa\n")
        for r, row in zip(r_grid, totals):
            fh.writelines(f"{r:.12g},{s2:.12g},{t:.12g}\n" for s2, t in zip(s2_grid, row))
    return 0


def _load_scenario(path):
    if path is None:
        import importlib.resources  # only the bundled scenario needs it

        ref = importlib.resources.files("pgospa").joinpath("data/example2_scenario.json")
        doc = json.loads(ref.read_text(encoding="utf-8"))
    else:
        doc = load_document(path)
    if not isinstance(doc, dict) or "mb_x" not in doc or "mb_y" not in doc:
        raise SchemaError("scenario requires 'mb_x' and 'mb_y' MB documents")
    return mb_from_dict(doc["mb_x"]), mb_from_dict(doc["mb_y"])


def cmd_sweep_example2(args) -> int:
    """P-GOSPA and its decomposition versus the cut-off c, over
    c = 0.1, 0.2, ..., 10.0 (alpha = 2): one ``pgospa`` call per c.  Every
    row is computed before ``--out`` is opened, so a fault writes nothing."""
    fx, fy = _load_scenario(args.scenario)
    base = BaseDistanceKind(args.base)
    rows = []
    for c in EXAMPLE2_C_SWEEP:
        res = pgospa(fx, fy, MetricParams(c=c, p=args.p, alpha=2.0), base)
        rows.append(
            f"{c:.12g},{res.total:.12g},{res.localization:.12g},"
            f"{res.existence_mismatch:.12g},{res.missed:.12g},{res.false_det:.12g}\n"
        )
    with _open_out(args.out) as fh:
        fh.write("c,total,localization,existence_mismatch,missed,false\n")
        fh.writelines(rows)
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
    from .selfcheck import faulty_solver, run_selfcheck

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
    res = enumerate_assignment(_float_array(doc["costs"], "'costs'"))
    _print_json(
        {"pairs": [list(pr) for pr in res.pairs], "total_cost": res.total_cost}
    )
    return 0


def cmd_oracle_pgospa(args) -> int:
    from .oracles import brute_force_pgospa

    fx = mb_from_dict(load_document(args.file_x), args.allow_zero_r)
    fy = mb_from_dict(load_document(args.file_y), args.allow_zero_r)
    value = brute_force_pgospa(fx, fy, _params(args), BaseDistanceKind(args.base))
    _print_json({"total": value, "p": args.p, "c": args.c, "alpha": args.alpha})
    return 0


def _single_component(path, dirac_for=None) -> BernoulliComponent:
    """The one component of an MB file, r = 0 admitted, a Dirac if
    ``dirac_for`` names a command."""
    mb = mb_from_dict(load_document(path), True)
    if len(mb) != 1:
        raise SchemaError(f"{path}: expected exactly one Bernoulli component")
    if dirac_for and not mb.dirac[0]:
        raise SchemaError(f"{dirac_for} requires Dirac single-object densities")
    return mb[0]


def cmd_oracle_ot_dirac(args) -> int:
    from .oracles import bernoulli_ot_dirac

    bx = _single_component(args.file_x, "ot-dirac")
    by = _single_component(args.file_y, "ot-dirac")
    value = bernoulli_ot_dirac(
        bx.r, bx.density.location, by.r, by.density.location, _params(args)
    )
    _print_json({"value": value, "p": args.p, "c": args.c, "alpha": args.alpha})
    return 0


def cmd_oracle_ot_grid(args) -> int:
    from .oracles import bernoulli_ot_grid

    bx = _single_component(args.file_x)
    by = _single_component(args.file_y)
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
    from .oracles import qospa_base

    bx = _single_component(args.file_x, "qospa")
    by = _single_component(args.file_y, "qospa")
    value = qospa_base(
        bx.density.location, by.density.location, bx.r, by.r, _params(args)
    )
    _print_json({"value": value, "c": args.c})
    return 0


@functools.cache  # one parser per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgospa",
        description="Probabilistic GOSPA metric between multi-Bernoulli set densities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pe = _pair_parser(
        sub, "eval", cmd_eval, aliases=["gospa"],
        help="metric between two files (MB, MBM, or points)",
    )
    pe.add_argument("--allow-zero-r", action="store_true", help="admit r = 0 components")

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

    op = _pair_parser(
        osub, "pgospa", cmd_oracle_pgospa, help="brute-force metric between two MB files"
    )
    op.add_argument("--allow-zero-r", action="store_true")
    _pair_parser(
        osub, "ot-dirac", cmd_oracle_ot_dirac,
        help="four-atom transport between Dirac Bernoullis",
    )
    og = _pair_parser(
        osub, "ot-grid", cmd_oracle_ot_grid,
        help="discretized transport between Gaussian Bernoullis",
    )
    og.add_argument("--resolution", type=int, default=200)
    _pair_parser(
        osub, "qospa", cmd_oracle_qospa,
        help="existence-weighted base distance (non-definite)",
    )

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
    except (ValueError, OSError, RuntimeError) as exc:  # DimensionMismatchError too
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
