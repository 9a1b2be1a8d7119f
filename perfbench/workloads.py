"""The benchmark's workloads: inputs made from a seed, the command sequence of
one round, and the correctness gate applied to every command's output.

A round is a fixed sequence of ``hquot`` commands. Every round of one run uses
the same inputs, so rounds differ only by measurement noise; the seed moves
the inputs between runs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
P_VALUES = "4,8,16,32,64"

# "full" is what the benchmark measures; "tiny" keeps the same command
# sequences at a size the self-tests can afford.
SIZES = {
    "full": {
        "axis4_N": 16,
        "probe_N": 64,
        "probe_fd_N": 16,
        "verify": {"count": 1000, "n_values": [2, 3, 4, 5], "algebra_count": 250},
    },
    "tiny": {
        "axis4_N": 8,
        "probe_N": 16,
        "probe_fd_N": 8,
        "verify": {"count": 40, "n_values": [2, 3], "algebra_count": 8},
    },
}

# why each workload is there: README.md and BENCHMARK.json
WORKLOADS = ("solve-4axis", "solve-probe", "verify-oracle")

# oracle verifier function -> proposition name used in its reports
PROPOSITIONS = {
    "verify_sigma_identities": "sigma-split-identities",
    "verify_newton_maclaurin": "newton-maclaurin",
    "verify_quotient_monotonicity": "quotient-monotonicity",
    "verify_quotient_concavity": "quotient-root-concavity",
    "verify_garding_inequality": "garding-pairing",
    "verify_tuple_minor_quotient": "minor-quotient",
    "verify_deletion_cone": "deletion-cone",
    "verify_minor_quotient": "matrix-minor-quotient",
    "verify_matrix_concavity": "matrix-quotient-concavity",
    "verify_schur_pairing": "schur-diagonal-pairing",
    "verify_moore_realization": "moore-realization",
    "verify_sigma_triple_agreement": "sigma-triple-agreement",
    "verify_realize_homomorphism": "realize-homomorphism",
    "verify_unitary_invariance": "unitary-invariance",
}

# Roundoff tolerance for comparing the default-seed outputs with
# reference.json: |value - ref| <= ATOL + RTOL * |ref|.
RTOL = 1e-9
ATOL = 1e-12
# output values recorded in reference.json; "checks" is compared exactly on
# every seed, the others within the tolerance on DEFAULT_SEED
REFERENCE_KEYS = ("checks", "b", "eps", "delta", "c_min", "min_slack")


@dataclass
class Command:
    """One ``hquot`` invocation of a round and where its outputs go."""

    label: str
    kind: str  # "solve", "probe" or "verify"
    argv: list
    out: Path
    tolerance: float | None = None


def _forcing(rng):
    # amplitude within 5% of 0.1 and a random phase along x0, so every seed
    # gives a state of the same difficulty
    amp = 0.1 * (1.0 + rng.uniform(-0.05, 0.05))
    phase = rng.random()
    return f"{amp!r}*sin(2*pi*(x0 + {phase!r}))"


def _solve_config(rng, seed, n, k, l, N, axes, backend="spectral"):
    return {
        "n": n, "k": k, "l": l, "points_per_axis": N, "active_axes": list(axes),
        "F": _forcing(rng), "tolerance": 1e-9, "backend": backend, "seed": seed,
    }


def _write(path, obj):
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    return str(path)


def build(workload, seed, size, workdir):
    """Write the workload's config files into ``workdir``; return the commands
    of one round and the config used for the setup measurement."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    sz = SIZES[size]
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    cmds = []

    def solve_and_probe(label, cfg, probe):
        cfg_path = _write(workdir / f"{label}.json", cfg)
        sol = workdir / f"{label}-solve"
        cmds.append(Command(f"{label}:solve", "solve",
                            ["solve", "--config", cfg_path, "--out", str(sol), "--quiet"],
                            sol, tolerance=cfg["tolerance"]))
        if probe:
            out = workdir / f"{label}-probe"
            cmds.append(Command(f"{label}:probe", "probe",
                                ["probe", "--result", str(sol), "--out", str(out),
                                 "--p", P_VALUES, "--quiet"], out))
        return cfg_path

    if workload == "solve-4axis":
        cfg = _solve_config(rng, seed, 2, 2, 1, sz["axis4_N"], (0, 1, 4, 5))
        setup = ("solve", solve_and_probe("n2k2l1-ax0145", cfg, probe=False))
    elif workload == "solve-probe":
        cfg_a = _solve_config(rng, seed, 3, 2, 1, sz["probe_N"], (0, 4))
        cfg_b = _solve_config(rng, seed, 1, 1, 0, sz["probe_fd_N"], (0, 1, 2, 3), backend="fd")
        setup = ("solve", solve_and_probe("n3k2l1-ax04", cfg_a, probe=True))
        solve_and_probe("n1k1l0-ax0123-fd", cfg_b, probe=True)
    else:
        cfg = {"seed": 20240601, "scale": 1.0, **sz["verify"]}
        cfg_path = _write(workdir / "verify.json", cfg)
        out = workdir / "verify"
        verify_seed = seed % 2**32
        cmds.append(Command("verify", "verify",
                            ["verify", "--config", cfg_path, "--out", str(out),
                             "--seed", str(verify_seed), "--quiet"], out))
        setup = ("verify", cfg_path)
    return cmds, setup


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def outputs(cmd):
    """Values of ``cmd``'s outputs that the reference pins down, and whether
    the outputs pass the structural gate (raises on missing or bad files)."""
    if cmd.kind == "solve":
        s = _load(cmd.out / "solve_summary.json")
        if not (cmd.out / "u.csv").is_file():
            return False, "u.csv missing", {}
        ok = (s["converged"] is True and s["final_residual"] <= cmd.tolerance
              and s["gamma_margin"] > 0)
        why = (f"converged={s['converged']} residual={s['final_residual']:.3e} "
               f"gamma_margin={s['gamma_margin']:.3e}")
        return ok, why, {"b": s["b"]}
    if cmd.kind == "probe":
        r = _load(cmd.out / "probe_report.json")
        vals = {"eps": r["eps"], "delta": r["delta"],
                "c_min": [w["c_min"] for w in r["weighted_energy"]]}
        # the probe's mandatory inequalities are gated by its exit code:
        # ``hquot probe`` exits 1 when they fail
        return True, "", vals
    r = _load(cmd.out / "verify_report.json")
    reps = r["reports"]
    vals = {"checks": [[x["proposition"], x["n"], x["k"], x["l"], x["checks"]] for x in reps],
            "min_slack": [x["min_slack"] for x in reps],
            "resample_rounds": sum(x["notes"].get("resample_rounds", 0) for x in reps)}
    ok = r["failures"] == 0 and all(x["failures"] == 0 for x in reps)
    return ok, f"{r['failures']} oracle failures", vals


def _close(a, b):
    if isinstance(b, list):
        return isinstance(a, list) and len(a) == len(b) and all(map(_close, a, b))
    if b is None or a is None:
        return a is b
    return abs(a - b) <= ATOL + RTOL * abs(b)


def check(cmd, rc, reference, seed):
    """Gate one finished command. Returns (ok, reason, values)."""
    if rc != 0:
        return False, f"exit code {rc}", {}
    try:
        ok, why, vals = outputs(cmd)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return False, f"unreadable output: {exc!r}", {}
    if not ok:
        return False, why, vals
    ref = reference.get(cmd.label, {})
    if cmd.kind == "verify" and vals["checks"] != ref.get("checks"):
        return False, "check counts differ from the reference", vals
    if seed == DEFAULT_SEED:
        for key in REFERENCE_KEYS[1:]:
            if key in vals and not _close(vals[key], ref.get(key)):
                return False, f"{key} differs from the reference", vals
    return True, "", vals
