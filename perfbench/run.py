"""hquot benchmark: times the public CLI on one workload and checks its outputs.

    python3 perfbench/run.py --workload solve-probe --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; hquot is imported from ``src/``.
Every command of a round runs in a fresh process, as a user's ``hquot``
invocation does, so per-process lazy set-up is paid every time. Rounds repeat
until ``--seconds`` would be exceeded (at least one; two in traced mode).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates traced
and untraced rounds and prints the per-layer metrics of the traced ones,
means per round, plus the tracing overhead. The last line of standard output
is the JSON result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_REPEATS = 5
COMMAND_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# calls into the library from the cli; the rest of a command is cli.io_s
LIBRARY_SPANS = ("solver.solve", "probe.run_probe", "oracle.run_standard_suite")

END_TO_END = [  # (name, unit); GATED ones are never 0 and go in the result line
    ("setup_s", "s"),
    ("round_s", "s"),
    ("peak_rss_mb", "MB"),
    ("solve_s", "s"),
    ("probe_s", "s"),
    ("verify_s", "s"),
    ("fail_frac", "ratio"),
]
GATED = ("setup_s", "round_s", "peak_rss_mb")

_UNITS = {"calls": "count", "self_s": "s", "total_s": "s",
          "points": "count", "matrices": "count", "tuples": "count"}
WORK_FIELDS = ("points", "matrices", "tuples")  # the tracer's per-span work count


def _spans(name, *fields):
    return [(f"{name}.{f}", _UNITS[f]) for f in fields]


ALL = ("calls", "self_s", "total_s")
TIMES = ("self_s", "total_s")

# Call counts fixed by a workload's configuration (probe checks, oracle
# propositions, cli commands) are left out to stay within 128 metrics; the
# traced run's span table still prints them.
PER_LAYER = (
    _spans("cli.run_solve", *TIMES) + _spans("cli.run_probe_cmd", *TIMES)
    + _spans("cli.run_verify", *TIMES) + [("cli.io_s", "s")]
    + [("solver.newton_iters", "count"), ("solver.backtracks", "count"),
       ("solver.matvecs", "count")]
    + _spans("solver.Linearization.apply", *TIMES) + _spans("solver.gmres", *ALL)
    + _spans("solver.linearize", *ALL) + _spans("solver.Linearization.mean_symbol", *ALL)
    + _spans("grid.second_derivative", *ALL) + _spans("grid.first_derivative", *ALL)
    + [("grid.snapshot_io_s", "s")]
    + _spans("fields.eig_field", *ALL, "points")
    + _spans("fields.newton_transform_field", *ALL) + _spans("fields.gradient_pairing", *ALL)
    + _spans("fields.quaternionic_hessian", *ALL) + _spans("fields.omega_u", *ALL)
    + _spans("fields.measure_epsilon", *TIMES) + _spans("fields.check_cone_condition", *ALL)
    + _spans("quaternion.chi_eigh", *ALL, "matrices")
    + _spans("quaternion.chi_eigvals", *ALL, "matrices")
    + [m for f in ("moore_det", "realize", "eigenvalues", "sigma_k_matrix",
                   "sigma_k_minor_sum", "sigma_k_coefficient")
       for m in _spans(f"quaternion.{f}", "calls", "self_s")]
    + _spans("symfun.elementary_all", *ALL, "tuples") + _spans("symfun.sigma_excl_all", *ALL)
    + _spans("symfun.in_gamma_k", *ALL) + _spans("symfun.quotient_root", *ALL)
    + [m for f in ("pointwise_lemma_sweep", "homotopy_integral_check",
                   "weighted_energy_check", "cherrier_table")
       for m in _spans(f"probe.{f}", *TIMES)]
    + [m for p in wl.PROPOSITIONS.values() for m in _spans(f"oracle.{p}", *TIMES)]
    + _spans("oracle.sample_gamma_k", *ALL) + _spans("oracle.sample_hyperhermitian_gamma_k", *ALL)
    + [("oracle.checks", "count"), ("oracle.resample_rounds", "count"),
       ("trace.overhead_s", "s")]
)


def child_env():
    """Environment of every benchmark process: hquot from ``src/`` and BLAS
    and OpenMP pools of one thread each."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # One thread: on a shared 2-core host, two BLAS threads made the batched
    # small eigensolves both slower and several times noisier.
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(args, env, result):
    """Run child.py with ``args``; returns its result object, or one with an
    ``error`` key when the process failed or timed out."""
    result.unlink(missing_ok=True)
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(result), *args],
                              env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {COMMAND_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result.is_file():
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"error": f"process exit {proc.returncode}: {tail[0]}"}
    with open(result) as fh:
        return json.load(fh)


def environment(env):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rec = {"nproc": len(os.sched_getaffinity(0)), "cpu": platform_cpu()}
    rec.update({var: env[var] for var in THREAD_VARS})
    rec.update({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "hquot": str(SRC / "hquot"),
    })
    return rec


def platform_cpu():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def measure_setup(setup, env, workdir):
    """Median wall time of a process that imports hquot and parses the
    workload's config, over SETUP_REPEATS processes."""
    kind, config = setup
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        res = run_child(["setup", kind, config], env, workdir / "setup.json")
        samples.append(perf_counter() - t0)
        if "error" in res:
            raise RuntimeError(f"set-up process failed: {res['error']}")
    return statistics.median(samples), len(samples)


class Round:
    """Outcome of one pass of a workload's command sequence."""

    def __init__(self, traced):
        self.traced = traced
        self.cmd_s = Counter()  # kind -> seconds in hquot.cli.main
        self.rss_kb = 0
        self.attempted = 0
        self.failed = 0
        self.spans = {}
        self.edges = Counter()
        self.io_s = 0.0
        self.values = {}

    @property
    def round_s(self):
        return sum(self.cmd_s.values())

    def add_trace(self, trace, cmd_s):
        for name, st in trace["spans"].items():
            acc = self.spans.setdefault(name, Counter())
            acc.update(st)
        for parent, name, n in trace["edges"]:
            self.edges[(parent, name)] += n
        lib = sum(trace["spans"].get(n, {}).get("total_s", 0.0) for n in LIBRARY_SPANS)
        self.io_s += cmd_s - lib


def run_round(cmds, env, workdir, traced, reference, seed):
    rnd = Round(traced)
    result = workdir / "result.json"
    for cmd in cmds:
        shutil.rmtree(cmd.out, ignore_errors=True)
        res = run_child(["1" if traced else "0", "--", *cmd.argv], env, result)
        rnd.attempted += 1
        if "error" in res:
            ok, why, vals = False, res["error"], {}
        else:
            ok, why, vals = wl.check(cmd, res["rc"], reference, seed)
            rnd.cmd_s[cmd.kind] += res["cmd_s"]
            rnd.rss_kb = max(rnd.rss_kb, res["maxrss_kb"])
            if traced:
                rnd.add_trace(res["trace"], res["cmd_s"])
        rnd.values[cmd.label] = vals
        if not ok:
            rnd.failed += 1
            print(f"FAILED {cmd.label}: {why}", file=sys.stderr)
    return rnd


def end_to_end(rounds, setup_s, attempted, failed):
    med = statistics.median
    return {
        "setup_s": setup_s,
        "round_s": med(r.round_s for r in rounds),
        "peak_rss_mb": med(r.rss_kb for r in rounds) / 1024.0,
        "solve_s": med(r.cmd_s["solve"] for r in rounds),
        "probe_s": med(r.cmd_s["probe"] for r in rounds),
        "verify_s": med(r.cmd_s["verify"] for r in rounds),
        "fail_frac": failed / attempted,
    }


def per_layer(traced, untraced):
    """Per-layer metrics as means per traced round."""
    spans, edges = {}, Counter()
    checks = resamples = io_s = 0.0
    for r in traced:
        for name, st in r.spans.items():
            spans.setdefault(name, Counter()).update(st)
        edges.update(r.edges)
        io_s += r.io_s
        for vals in r.values.values():
            checks += sum(c[-1] for c in vals.get("checks", []))
            resamples += vals.get("resample_rounds", 0)

    def get(name, field):
        return spans.get(name, {}).get(field, 0)

    iters = edges[("solver.solve", "solver.linearize")]
    derived = {
        "cli.io_s": io_s,
        "solver.newton_iters": iters,
        # each line-search trial builds one omega_u under solve, plus the initial one
        "solver.backtracks": edges[("solver.solve", "fields.omega_u")]
        - get("solver.solve", "calls") - iters,
        "solver.matvecs": get("solver.Linearization.apply", "calls"),
        "grid.snapshot_io_s": get("grid.save_scalar_field", "total_s")
        + get("grid.load_scalar_field", "total_s"),
        "oracle.checks": checks,
        "oracle.resample_rounds": resamples,
    }
    n = len(traced)
    out = {}
    for name, _unit in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        if name in derived:
            val = derived[name]
        else:
            span, field = name.rsplit(".", 1)
            val = get(span, "work" if field in WORK_FIELDS else field)
        out[name] = val / n
    out["trace.overhead_s"] = (statistics.median(r.round_s for r in traced)
                               - statistics.median(r.round_s for r in untraced))
    return out, {name: {k: v / n for k, v in st.items()} for name, st in spans.items()}


def measure(workload, seed, seconds, trace, size, workdir):
    """Run the workload; returns (result object, report lines)."""
    env = child_env()
    cmds, setup = wl.build(workload, seed, size, workdir)
    ref_path = HERE / "reference.json"
    reference = json.loads(ref_path.read_text()).get(size, {}).get(workload, {})
    lines = [f"workload {workload}  seed {seed}  size {size}  trace {trace}",
             "env " + json.dumps(environment(env), sort_keys=True)]
    setup_s = n_setup = None
    if not trace:
        setup_s, n_setup = measure_setup(setup, env, workdir)

    rounds, walls = [], []
    t_start = perf_counter()
    while True:
        t0 = perf_counter()
        traced_round = bool(trace) and len(rounds) % 2 == 0
        rounds.append(run_round(cmds, env, workdir, traced_round, reference, seed))
        walls.append(perf_counter() - t0)
        elapsed = perf_counter() - t_start
        if (not trace or len(rounds) >= 2) and elapsed + statistics.median(walls) > seconds:
            break
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)

    if trace:
        traced = [r for r in rounds if r.traced]
        untraced = [r for r in rounds if not r.traced]
        metrics, table = per_layer(traced, untraced)
        units = dict(PER_LAYER)
        lines.append(f"traced rounds {len(traced)}, untraced rounds {len(untraced)}; "
                     f"per-round means over traced rounds")
        lines.append(f"{'span':44s} {'calls':>10s} {'self_s':>10s} {'total_s':>10s} {'work':>10s}")
        for name in sorted(n for n, st in table.items() if st["calls"]):
            st = table[name]
            lines.append(f"{name:44s} {st['calls']:10.1f} {st['self_s']:10.4f} "
                         f"{st['total_s']:10.4f} {st['work']:10.0f}")
    else:
        metrics = end_to_end(rounds, setup_s, attempted, failed)
        units = dict(END_TO_END)
        lines.append(f"rounds {len(rounds)}, commands {attempted}, failed {failed}; "
                     f"setup_s is the median of {n_setup} processes, the other "
                     f"timings medians over rounds")
    for name, val in metrics.items():
        lines.append(f"{name:44s} {val:14.6g} {units[name]}")
    if not trace:
        metrics = {k: metrics[k] for k in GATED}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, lines


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(wl.SIZES), default="full",
                    help="'tiny' runs the same commands at self-test size")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "hquot" / "cli.py").is_file():
        print(f"error: no hquot sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        result, lines = measure(args.workload, args.seed, args.seconds, args.trace,
                                args.size, workdir)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
