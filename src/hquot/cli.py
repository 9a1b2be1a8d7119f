"""Command-line entry point.

Subcommands:

  verify      run the randomized inequality suite from a sampling config
  solve       solve a quotient-equation problem and write the field + summary
  cone-check  evaluate the cone condition for a problem config
  probe       run the estimate-chain probe on a solve output directory

Exit codes: 0 success, 1 mathematical failure (inequality violation,
non-convergence or a failed quaternionic structure check), 2 usage/config
error.  All randomness is seeded from the config (overridable with --seed)
and reports contain no timestamps, so repeated runs are byte-identical on
one machine with a fixed BLAS thread count (e.g. OMP_NUM_THREADS=1): the
thread count can reorder floating-point sums and move the last digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import fields as fl
from . import oracle, symfun
from .errors import ConeError, ConvergenceError, SamplingError, StructureError
from .grid import load_scalar_field, save_scalar_field
from .probe import run_probe
from .solver import SolverConfig, build_problem, solve

__all__ = ["main", "run_verify", "run_solve", "run_cone_check", "run_probe_cmd"]


def _fail_usage(msg):
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _write_json(path, obj):
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _echo(quiet, *args):
    if not quiet:
        print(*args)


def _positive_int(value):
    return type(value) is int and value >= 1


def run_verify(config_path, out_dir, seed=None, quiet=False):
    try:
        cfg = _load_json(config_path)
        count = cfg["count"]
        the_seed = seed if seed is not None else cfg.get("seed", 20240601)
        n_values = cfg.get("n_values", [2, 3, 4, 5])
        scale = float(cfg.get("scale", 1.0))
        props = cfg.get("propositions")
        algebra_count = cfg.get("algebra_count")
        if type(the_seed) is not int:
            raise ValueError(f"seed must be an integer, got {the_seed!r}")
        if not _positive_int(count):
            raise ValueError(f"count must be an integer >= 1, got {count!r}")
        if algebra_count is not None and not _positive_int(algebra_count):
            raise ValueError(f"algebra_count must be an integer >= 1, got {algebra_count!r}")
        if not (isinstance(n_values, list) and n_values and all(map(_positive_int, n_values))):
            raise ValueError(f"n_values must be a non-empty list of integers >= 1, "
                             f"got {n_values!r}")
        if props is not None and not (isinstance(props, list)
                                      and all(isinstance(x, str) for x in props)):
            raise ValueError(f"propositions must be a list of names, got {props!r}")
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        return _fail_usage(f"bad verify config: {exc}")
    try:
        reports = oracle.run_standard_suite(
            count, the_seed, n_values=n_values, scale=scale,
            propositions=props, algebra_count=algebra_count,
        )
    except (SamplingError, ValueError) as exc:
        return _fail_usage(str(exc))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "config": {"count": count, "seed": the_seed, "n_values": n_values,
                   "scale": scale},
        "reports": [r.to_dict() for r in reports],
        "failures": sum(r.failures for r in reports),
    }
    _write_json(out / "verify_report.json", payload)
    failed = [r for r in reports if not r.passed]
    for r in reports:
        _echo(quiet, f"{r.proposition:28s} n={r.n} k={r.k} l={r.l} "
                     f"checks={r.checks} failures={r.failures}")
    _echo(quiet, f"{len(reports)} reports, {len(failed)} failing")
    return 0 if not failed else 1


def _config_to_solver(cfg_dict, seed=None):
    if seed is not None:
        cfg_dict = dict(cfg_dict, seed=int(seed))
    return SolverConfig.from_dict(cfg_dict)


def run_solve(config_path, out_dir, seed=None, quiet=False):
    try:
        cfg = _config_to_solver(_load_json(config_path), seed)
    except (OSError, ValueError, TypeError, KeyError, json.JSONDecodeError) as exc:
        return _fail_usage(f"bad solve config: {exc}")
    out = Path(out_dir)
    try:
        result = solve(cfg)
    except (ConvergenceError, ConeError) as exc:
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "solve_summary.json", {"config": cfg.to_dict(),
                                                 "converged": False, "error": str(exc)})
        _echo(quiet, f"solve failed: {exc}")
        return 1
    except ValueError as exc:  # a bad expression, or a forcing factor that overflows
        return _fail_usage(f"bad solve config: {exc}")
    out.mkdir(parents=True, exist_ok=True)
    save_scalar_field(out / "u.csv", result.u, cfg.grid)
    summary = {"config": cfg.to_dict(), **result.summary()}
    _write_json(out / "solve_summary.json", summary)
    _echo(quiet, f"converged in {result.iterations} iterations, "
                 f"b = {result.b:.12g}, residual = {result.residual_history[-1]:.3e}")
    for w in result.warnings:
        _echo(quiet, f"warning: {w}")
    return 0


def run_cone_check(config_path, out_dir, seed=None, quiet=False):
    try:
        raw = _load_json(config_path)
        b_offset = raw.pop("b_offset", "auto")
        cfg = _config_to_solver(raw, seed)
        _, omega0, F = build_problem(cfg)
        b = -float(np.mean(F)) if b_offset == "auto" else float(b_offset)
        if not math.isfinite(b):
            raise ValueError(f"b_offset must be finite, got {b_offset!r}")
        if cfg.l > 0:  # at l = 0 the margin does not read the forcing factor
            symfun.require_finite_forcing(cfg.n, cfg.k, cfg.l, float(np.max(F)) + b)
    except (OSError, ValueError, TypeError, KeyError, json.JSONDecodeError) as exc:
        return _fail_usage(f"bad config: {exc}")
    try:
        report = fl.check_cone_condition(fl.eig_field(omega0), F + b, cfg.k, cfg.l)
    except ConeError as exc:
        return _fail_usage(str(exc))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "config": cfg.to_dict(),
        "b_offset": b,
        "satisfied": bool(report.satisfied),
        "worst_margin": report.worst_margin,
        "where": list(report.where),
        "slot": report.slot,
        "delta": report.delta,
    }
    _write_json(out / "cone_report.json", payload)
    _echo(quiet, f"cone condition {'holds' if report.satisfied else 'FAILS'} "
                 f"(margin {report.worst_margin:.6g}, delta {report.delta:.6g})")
    return 0 if report.satisfied else 1


def run_probe_cmd(result_dir, out_dir, p_values, quiet=False):
    rdir = Path(result_dir)
    try:
        summary = _load_json(rdir / "solve_summary.json")
        if not summary.get("converged"):
            return _fail_usage("solve summary reports no converged state")
        cfg = _config_to_solver(summary["config"])
        u, grid = load_scalar_field(rdir / "u.csv")
        if grid != cfg.grid:
            raise ValueError("field grid does not match the config grid")
        b = float(summary["b"])
        _, omega0, F = build_problem(cfg)
    except (OSError, ValueError, TypeError, KeyError, json.JSONDecodeError) as exc:
        return _fail_usage(f"bad probe input: {exc}")
    axes = "-".join(str(a) for a in cfg.active_axes)
    problem_id = f"n{cfg.n}-k{cfg.k}-l{cfg.l}-N{cfg.points_per_axis}-ax{axes}"
    try:
        report = run_probe(u, omega0, F + b, grid, cfg.k, cfg.l,
                           p_values=p_values, backend=cfg.backend,
                           problem_id=problem_id)
    except ConeError as exc:
        _echo(quiet, f"probe hypotheses fail: {exc}")
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "probe_report.json", {"error": str(exc), "mandatory_ok": False})
        return 1
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "probe_report.json").write_text(report.to_json())
    (out / "cherrier.csv").write_text(report.cherrier_csv())
    _echo(quiet, f"eps = {report.eps:.6g}, delta = {report.delta:.6g}, "
                 f"mandatory inequalities {'hold' if report.mandatory_ok else 'FAIL'}")
    return 0 if report.mandatory_ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hquot",
        description="Quotient-equation toolkit: verification oracle, torus solver, estimate probe.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="JSON config path")
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--quiet", action="store_true")

    add_common(sub.add_parser("verify", help="run the randomized inequality suite"))
    add_common(sub.add_parser("solve", help="solve a quotient-equation problem"))
    add_common(sub.add_parser("cone-check", help="evaluate the cone condition"))
    p_probe = sub.add_parser("probe", help="probe a solved state")
    p_probe.add_argument("--result", required=True, help="solve output directory")
    p_probe.add_argument("--p", default="4,8,16,32,64",
                         help="comma-separated probe exponents")
    add_common(p_probe, config=False)

    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return run_verify(args.config, args.out, args.seed, args.quiet)
        if args.command == "solve":
            return run_solve(args.config, args.out, args.seed, args.quiet)
        if args.command == "cone-check":
            return run_cone_check(args.config, args.out, args.seed, args.quiet)
        if args.command == "probe":
            try:
                p_values = tuple(float(x) for x in args.p.split(","))
                if not p_values or not all(math.isfinite(p) and p > 0 for p in p_values):
                    raise ValueError
            except ValueError:
                return _fail_usage(f"bad probe exponent list: {args.p!r}")
            return run_probe_cmd(args.result, args.out, p_values, args.quiet)
    except StructureError as exc:  # a quaternionic structure check failed: mathematical
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
