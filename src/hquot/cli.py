"""Command-line entry point.

Subcommands:

  verify      run the randomized inequality suite from a sampling config
  solve       solve a quotient-equation problem and write the field + summary
  cone-check  evaluate the cone condition for a problem config
  probe       run the estimate-chain probe on a solve output directory

Exit codes: 0 success, 1 mathematical failure (inequality violation,
non-convergence, a failed cone condition or quaternionic structure check),
2 usage/config error.  All randomness is seeded from the config
(``verify --seed`` overrides it) and reports contain no timestamps, so
repeated runs are byte-identical on one machine with a fixed BLAS thread
count (e.g. OMP_NUM_THREADS=1): the thread count can reorder floating-point
sums and move the last digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import config, oracle, symfun
from . import fields as fl
from .errors import ConeError, ConvergenceError, SamplingError, StructureError
from .grid import load_scalar_field, save_scalar_field
from .probe import run_probe
from .solver import SolverConfig, build_problem, solve, start_offset

__all__ = ["main", "run_verify", "run_solve", "run_cone_check", "run_probe_cmd"]


def _fail_usage(msg):
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _load_json(path):
    """The JSON object in ``path``; another JSON value is a ValueError naming the file."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path} does not hold a JSON object: {json.dumps(data)[:40]}")
    return data


def _write_json(path, obj):
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _echo(quiet, *args):
    if not quiet:
        print(*args)


def run_verify(config_path, out_dir, seed=None, quiet=False):
    try:
        cfg = {"seed": 20240601, "n_values": [2, 3, 4, 5], "scale": 1.0,
               "propositions": None, "algebra_count": None, **_load_json(config_path)}
        if seed is not None:
            cfg["seed"] = seed
        config.check(cfg, config.VERIFY)
        if "count" not in cfg:
            raise ValueError("count is required")
        cfg["scale"] = float(cfg["scale"])
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        return _fail_usage(f"bad verify config: {exc}")
    try:
        with np.errstate(over="raise"):
            reports = oracle.run_standard_suite(**cfg)
    except (SamplingError, ValueError) as exc:
        return _fail_usage(str(exc))
    except FloatingPointError as exc:  # samples beyond the float range test nothing
        return _fail_usage(f"scale {cfg['scale']!r} overflows the samples ({exc})")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "verify_report.json", {
        "config": cfg,
        "reports": reports,
        "failures": sum(r["failures"] for r in reports),
    })
    failed = [r for r in reports if r["failures"]]
    for r in reports:
        _echo(quiet, f"{r['proposition']:28s} n={r['n']} k={r['k']} l={r['l']} "
                     f"checks={r['checks']} failures={r['failures']}")
    _echo(quiet, f"{len(reports)} reports, {len(failed)} failing")
    return 0 if not failed else 1


def run_solve(config_path, out_dir, quiet=False):
    try:
        cfg = SolverConfig.from_dict(_load_json(config_path))
    except (OSError, ValueError, TypeError, KeyError, json.JSONDecodeError) as exc:
        return _fail_usage(f"bad solve config: {exc}")
    out = Path(out_dir)
    try:
        u, summary = solve(cfg)
    except (ConvergenceError, ConeError) as exc:
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "solve_summary.json", {"config": cfg.to_dict(),
                                                 "converged": False, "error": str(exc)})
        _echo(quiet, f"solve failed: {exc}")
        return 1
    except ValueError as exc:  # a bad expression, or a forcing factor that overflows
        return _fail_usage(f"bad solve config: {exc}")
    out.mkdir(parents=True, exist_ok=True)
    save_scalar_field(out / "u.csv", u, cfg.grid)
    _write_json(out / "solve_summary.json", {"config": cfg.to_dict(), **summary})
    _echo(quiet, f"converged in {summary['iterations']} iterations, "
                 f"b = {summary['b']:.12g}, residual = {summary['final_residual']:.3e}")
    for w in summary["warnings"]:
        _echo(quiet, f"warning: {w}")
    return 0


def run_cone_check(config_path, out_dir, quiet=False):
    try:
        raw = _load_json(config_path)
        config.check(raw, config.CONE_CHECK)
        b_offset = raw.pop("b_offset", "auto")
        cfg = SolverConfig.from_dict(raw)
        _, omega0, F = build_problem(cfg)
        b = start_offset(F) if b_offset == "auto" else float(b_offset)
        if cfg.l > 0:  # at l = 0 the margin does not read the forcing factor
            symfun.require_finite_forcing(cfg.n, cfg.k, cfg.l, float(np.max(F)) + b)
    except (OSError, ValueError, TypeError, KeyError, json.JSONDecodeError) as exc:
        return _fail_usage(f"bad config: {exc}")
    report = fl.check_cone_condition(np.sort(omega0, axis=-1), F + b, cfg.k, cfg.l)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "cone_report.json", {"config": cfg.to_dict(), "b_offset": b, **report})
    _echo(quiet, f"cone condition {'holds' if report['satisfied'] else 'FAILS'} "
                 f"(margin {report['worst_margin']:.6g}, delta {report['delta']:.6g})")
    return 0 if report["satisfied"] else 1


def run_probe_cmd(result_dir, out_dir, p_values, quiet=False):
    rdir = Path(result_dir)
    try:
        summary = _load_json(rdir / "solve_summary.json")
        if not summary.get("converged"):
            return _fail_usage("solve summary reports no converged state")
        cfg = SolverConfig.from_dict(summary["config"])
        config.check({"b": summary["b"]}, config.PROBE)
        b = float(summary["b"])
        grid, omega0, F = build_problem(cfg)
        F += b  # the effective forcing, in place: the probe holds one F field
        u = load_scalar_field(rdir / "u.csv", grid)
    except (OSError, ValueError, TypeError, KeyError, json.JSONDecodeError) as exc:
        return _fail_usage(f"bad probe input: {exc}")
    axes = "-".join(str(a) for a in cfg.active_axes)
    problem_id = f"n{cfg.n}-k{cfg.k}-l{cfg.l}-N{cfg.points_per_axis}-ax{axes}"
    out = Path(out_dir)
    try:
        report = run_probe(u, omega0, F, grid, cfg.k, cfg.l,
                           p_values=p_values, problem_id=problem_id)
    except ConeError as exc:
        _echo(quiet, f"probe hypotheses fail: {exc}")
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "probe_report.json", {"error": str(exc), "mandatory_ok": False})
        return 1
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "probe_report.json", report)
    rows = [f"{r['p']!r},{r['energy']!r},{r['mass']!r},{r['ratio']!r}\n"
            for r in report["cherrier"]]
    (out / "cherrier.csv").write_text("p,energy,mass,ratio\n" + "".join(rows))
    _echo(quiet, f"eps = {report['eps']:.6g}, delta = {report['delta']:.6g}, "
                 f"mandatory inequalities {'hold' if report['mandatory_ok'] else 'FAIL'}")
    return 0 if report["mandatory_ok"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hquot",
        description="Quotient-equation toolkit: verification oracle, torus solver, estimate probe.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--quiet", action="store_true")

    p_verify = sub.add_parser("verify", help="run the randomized inequality suite")
    add_common(p_verify)
    p_verify.add_argument("--seed", type=int, default=None, help="override the config seed")
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
            return run_solve(args.config, args.out, args.quiet)
        if args.command == "cone-check":
            return run_cone_check(args.config, args.out, args.quiet)
        if args.command == "probe":
            try:
                p_values = tuple(float(x) for x in args.p.split(","))
                if not p_values or not all(math.isfinite(p) and p > 0 for p in p_values):
                    raise ValueError
            except ValueError:
                return _fail_usage(f"bad probe exponent list: {args.p!r}")
            return run_probe_cmd(args.result, args.out, p_values, args.quiet)
    except (StructureError, ConeError) as exc:  # cone-check's: a background outside Gamma_k
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
