"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL lines.

Criterion 7 is split.  7a: the estimate-chain margins and slacks hold on all
solved cases.  7b: the Cherrier ratio C(p) = E(p)/(p M(p)) equals
(1/4) <sigma_1(H(u))>_p, the e^(-pu)-weighted mean of sigma_1 of the
quaternionic Hessian, to 1e-8 relative (measured <= 4.2e-11), and so stays
below the p-independent ceiling (1/4) max sigma_1(H(u)) (measured max ratio
to the ceiling 0.58) for p in {4, ..., 64}.  7b used to assert C(p) <= 2 C(4);
that anchor is not the paper's claim, and no correct probe meets it on the
small-oscillation solved family (C(64)/C(4) is 13.2-15.8), so it was replaced
by the uniform bound the weighted-energy step actually needs.  The test
docstring gives the derivation.
"""

import json
import math
import time

import numpy as np
import pytest

from hquot import fields as fl, oracle, probe, quaternion as qt, symfun
from hquot.cli import main
from hquot.grid import TorusGrid, integrate
from hquot.solver import SolverConfig, build_problem, solve

SEED = 20240601


def _report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:<3} {status}  {desc}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: Moore determinant vs realization determinant
# ---------------------------------------------------------------------------


def test_criterion_1_moore_determinant_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    total = 0
    for n in (2, 3, 4, 5):
        A = qt.random_hyperhermitian_chi(rng, n, count=250)
        p4 = qt.moore_det(A) ** 4
        d = np.linalg.det(qt.realize(A))
        rel = np.abs(p4 - d) / np.maximum(np.maximum(np.abs(p4), np.abs(d)), 1e-12)
        worst = max(worst, float(rel.max()))
        total += len(A)
    elapsed = time.monotonic() - t0
    identity_exact = all(qt.moore_det(np.eye(2 * n)) == 1.0 for n in (2, 3, 4, 5))
    ok = worst <= 1e-8 and identity_exact and elapsed < 30.0
    _report(1, "Moore determinant vs realization (1e-8 rel, 10^3 samples, <30s)",
            ok, f"{total} samples, worst {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: three routes to sigma_k agree
# ---------------------------------------------------------------------------


def test_criterion_2_sigma_triple_agreement():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    total = 0
    for n in (2, 3, 4, 5):
        for _ in range(250):
            A = qt.random_hyperhermitian_chi(rng, n)
            for k in range(n + 1):
                a = qt.sigma_k_matrix(A, k)
                b = qt.sigma_k_minor_sum(A, k)
                c = qt.sigma_k_coefficient(A, k)
                scale = max(abs(a), abs(b), abs(c), 1.0)
                worst = max(worst, abs(a - b) / scale, abs(a - c) / scale)
            total += 1
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8
    _report(2, "sigma_k triple agreement: eigenvalues / minor sums / coefficients (1e-8 rel)",
            ok, f"{total} samples, worst {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: the inequality oracle at 10^4 samples
# ---------------------------------------------------------------------------

INEQUALITY_PROPS = (
    "newton-maclaurin",
    "quotient-monotonicity",
    "quotient-root-concavity",
    "garding-pairing",
    "minor-quotient",
    "deletion-cone",
    "matrix-minor-quotient",
    "matrix-quotient-concavity",
    "schur-diagonal-pairing",
)


def test_criterion_3_inequality_oracle():
    t0 = time.monotonic()
    reports = oracle.run_standard_suite(
        count=10_000, seed=SEED, n_values=(2, 3, 4, 5),
        propositions=INEQUALITY_PROPS,
    )
    elapsed = time.monotonic() - t0
    failures = sum(r["failures"] for r in reports)
    checked = sum(r["checks"] for r in reports)
    slacks = [r["min_slack"] for r in reports if r["min_slack"] is not None]
    ok = failures == 0 and elapsed < 300.0
    _report(3, "inequality oracle: 0 failures at margin -1e-10, 10^4 samples, all (k,l), <5min",
            ok, f"{len(reports)} reports, {checked} checks, min slack {min(slacks):.2e}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 4: Hessian patch tests
# ---------------------------------------------------------------------------


def test_criterion_4_hessian_patch_tests():
    # quadratic patch: band-limited surrogate of |q_a|^2; spectral derivative
    # is exact on it and its origin Hessian equals the true quadratic's
    n, coord = 2, 1
    g = TorusGrid(n, tuple(range(4 * coord, 4 * coord + 4)), 8)
    u = np.zeros(g.shape)
    for axis in g.active_axes:
        x = np.broadcast_to(g.coordinate(axis), g.shape)
        u = u + (1 - np.cos(2 * np.pi * x)) / (2 * np.pi**2)
    H = fl.quaternionic_hessian(u, g)
    expected = np.zeros((2 * n, 2 * n))
    expected[coord, coord] = 4.0
    expected[n + coord, n + coord] = 4.0
    patch_dev = float(np.abs(H[(0,) * g.dim] - expected).max())

    errs = []
    for N in (8, 16, 32):
        g2 = TorusGrid(2, (0, 4), N)
        xa = np.broadcast_to(g2.coordinate(0), g2.shape)
        xb = np.broadcast_to(g2.coordinate(4), g2.shape)
        uu = np.sin(2 * np.pi * xa) + np.cos(2 * np.pi * xb)
        Hs = fl.quaternionic_hessian(uu, g2)
        Hf = fl.quaternionic_hessian(uu, TorusGrid(2, (0, 4), N, "fd"))
        errs.append(float(np.abs(Hs - Hf).max()))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok = patch_dev <= 1e-12 and all(abs(o - 2.0) <= 0.1 for o in orders)
    _report(4, "Hessian patch: 4 E_aa to 1e-12 (spectral); fd order 2.0 +/- 0.1 over N=8,16,32",
            ok, f"patch dev {patch_dev:.1e}, orders {orders[0]:.3f}/{orders[1]:.3f}")


# ---------------------------------------------------------------------------
# criteria 5-7: the solver family
# ---------------------------------------------------------------------------

CASES = [
    # (label, n, k, l, axes, amplitude)
    ("n1-k1-l0-ax0-A0.1", 1, 1, 0, (0,), 0.1),
    ("n1-k1-l0-ax0-A0.5", 1, 1, 0, (0,), 0.5),
    ("n1-k1-l0-ax0123-A0.1", 1, 1, 0, (0, 1, 2, 3), 0.1),
    ("n2-k2-l0-ax04-A0.1", 2, 2, 0, (0, 4), 0.1),
    ("n2-k2-l0-ax04-A0.5", 2, 2, 0, (0, 4), 0.5),
    ("n2-k2-l1-ax05-A0.1", 2, 2, 1, (0, 5), 0.1),
    ("n3-k3-l0-ax0-A0.1", 3, 3, 0, (0,), 0.1),
    ("n3-k3-l0-ax0-A0.5", 3, 3, 0, (0,), 0.5),
    ("n3-k2-l1-ax04-A0.1", 3, 2, 1, (0, 4), 0.1),
]


def _case_config(n, k, l, axes, amp):
    return SolverConfig(n=n, k=k, l=l, points_per_axis=16, active_axes=axes,
                        F=f"{amp}*sin(2*pi*x0)", seed=SEED)


@pytest.fixture(scope="module")
def solved_family():
    out = {}
    for label, n, k, l, axes, amp in CASES:
        cfg = _case_config(n, k, l, axes, amp)
        t0 = time.monotonic()
        res = solve(cfg)
        out[label] = (cfg, res, time.monotonic() - t0)
    return out


def test_criterion_5_constant_forcing_exact():
    c = 0.8
    cfg = SolverConfig(n=2, k=2, l=0, points_per_axis=16, active_axes=(0,), F=f"{c}")
    u, summary = solve(cfg)
    ok = (summary["iterations"] <= 2 and np.abs(u).max() <= 1e-12
          and abs(summary["b"] + c) <= 1e-12)
    _report(5, "constant forcing: u = 0 (1e-12), b = -c (1e-12), <= 2 iterations",
            ok, f"iters {summary['iterations']}, sup|u| {np.abs(u).max():.1e}, "
                f"|b+c| {abs(summary['b'] + c):.1e}")


def test_criterion_6_solver_convergence(solved_family):
    details = []
    ok = True
    for label, (cfg, (u, summary), elapsed) in solved_family.items():
        hist = summary["residual_history"]
        tail = hist[-1] / hist[-2]
        case_ok = (hist[-1] <= 1e-9
                   and summary["gamma_margin"] > 0
                   and tail <= 0.1
                   and elapsed < 300.0)
        ok = ok and case_ok
        details.append(f"{label}: r={hist[-1]:.1e} tail={tail:.1e} "
                       f"margin={summary['gamma_margin']:.2f} {elapsed:.1f}s"
                       + ("" if case_ok else " <-- FAIL"))
    _report(6, "solver family: residual <= 1e-9, cone margin > 0, tail ratio <= 0.1, <5min/case",
            ok, "; ".join(details))


@pytest.fixture(scope="module")
def probed_family(solved_family):
    out = {}
    for label, (cfg, (u, summary), _) in solved_family.items():
        if not summary["cone_condition"]["satisfied"]:
            continue
        grid, om0, F = build_problem(cfg)
        rep = probe.run_probe(u, om0, F + summary["b"], grid, cfg.k, cfg.l,
                              p_values=(4, 8, 16, 32, 64), problem_id=label)
        out[label] = rep
    return out


def test_criterion_7a_estimate_chain(probed_family):
    assert probed_family, "no solved case passed the cone condition"
    details = []
    ok = True
    for label, rep in probed_family.items():
        margins_ok = rep["pointwise"]["all_strict_positive"]
        hom_ok = all(r["slack"] >= -1e-6 and r["weighted_slack"] >= -1e-6
                     for r in rep["homotopy"])
        wen_ok = all(np.isfinite(r["c_min"]) and r["c_min"] > 0
                     for r in rep["weighted_energy"])
        case_ok = margins_ok and hom_ok and wen_ok
        ok = ok and case_ok
        worst_m = min(rep["pointwise"]["margins"].values())
        worst_s = min(min(r["slack"], r["weighted_slack"]) for r in rep["homotopy"])
        details.append(f"{label}: margin {worst_m:.2e} slack {worst_s:.2e}"
                       + ("" if case_ok else " <-- FAIL"))
    _report("7a", "estimate chain: sweep margins > 0, homotopy/energy slacks >= -1e-6",
            ok, "; ".join(details))


def test_criterion_7b_cherrier_two_fold_bound(solved_family, probed_family):
    """The Cherrier ratio C(p) = E(p)/(p M(p)) is bounded uniformly in p.

    With w = exp(-p u / 2), sum_b |v_b(w)|^2 = (p^2/8) e^(-pu) |grad u|^2 and
    sigma_1(H(u)) = Delta u / 2, so one integration by parts on the torus
    gives the exact identity

        C(p) = (1/4) <sigma_1(H(u))>_p,   <f>_p = int e^(-pu) f / int e^(-pu),

    and with it the p-independent ceiling C(p) <= (1/4) max sigma_1(H(u)).
    Per case and per probed p the test asserts

    * identity: the probe's ratio equals the weighted mean, recomputed here
      from the spectral Hessian, to 1e-8 relative (measured: <= 4.2e-11);
    * ceiling: C(p) <= (1/4) max sigma_1(H(u)), with no slack factor
      (measured: max C(p)/ceiling = 0.58).

    The criterion used to read "C(p) within 2x of C(4)".  That anchor is not
    the paper's claim, which needs only a constant independent of p, and no
    correct probe can meet it on the small-oscillation solved family:
    C(p) ~ (p/4) <sum_b |v_b|^2> until p osc(u) is order one, so C(64)/C(4)
    is 13.2-15.8 on every case.  A probe that computed C(p) wrongly failed it
    the same way, so it did not separate right code from wrong.  The old
    ratio is still printed for continuity.  The ratio climbs toward the
    ceiling as p grows (0.89-0.97 of it at p = 1024 on the amplitude-0.1
    cases), but N = 16 under-resolves e^(-pu/2) there: on the amplitude-0.5
    cases the identity error is 2.3e-2 and the discrete ratio overshoots the
    ceiling by 0.3%, so the ladder stops at 64.
    """
    details = []
    ok = True
    for label, rep in probed_family.items():
        cfg, (u, _), _ = solved_family[label]
        grid, _, _ = build_problem(cfg)
        sigma1 = symfun.sigma(fl.eig_field(fl.quaternionic_hessian(u, grid)), 1)
        ceiling = 0.25 * float(sigma1.max())
        shifted = u - u.min()
        ratios = {row["p"]: row["ratio"] for row in rep["cherrier"]}
        worst_err = 0.0
        for p, c in ratios.items():
            weight = np.exp(-p * shifted)
            mean = 0.25 * integrate(weight * sigma1) / integrate(weight)
            worst_err = max(worst_err, abs(c - mean) / abs(mean))
        c_max = max(ratios.values())
        case_ok = worst_err <= 1e-8 and c_max <= ceiling
        ok = ok and case_ok
        details.append(f"{label}: max C(p)/ceiling = {c_max / ceiling:.2f}, "
                       f"identity err {worst_err:.1e}, "
                       f"max C(p)/C(4) = {c_max / ratios[4.0]:.1f}"
                       + ("" if case_ok else " <-- FAIL"))
    _report("7b", "Cherrier ratio C(p) = (1/4)<sigma_1(H(u))>_p (1e-8 rel) "
                  "<= (1/4) max sigma_1(H(u)) for p in {4,...,64}",
            ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 8: byte-identical reruns
# ---------------------------------------------------------------------------


def test_criterion_8_determinism(tmp_path):
    solve_cfg = tmp_path / "solve.json"
    solve_cfg.write_text(json.dumps({
        "n": 2, "k": 2, "l": 0, "points_per_axis": 16, "active_axes": [0, 4],
        "F": "0.1*sin(2*pi*x0)", "seed": SEED,
    }))
    verify_cfg = tmp_path / "verify.json"
    verify_cfg.write_text(json.dumps({
        "count": 200, "seed": SEED, "n_values": [2, 3], "algebra_count": 25,
    }))
    blobs = []
    for tag in ("r1", "r2"):
        base = tmp_path / tag
        assert main(["solve", "--config", str(solve_cfg), "--out", str(base / "sol"),
                     "--quiet"]) == 0
        assert main(["probe", "--result", str(base / "sol"), "--out", str(base / "pr"),
                     "--p", "4,8,16", "--quiet"]) == 0
        assert main(["verify", "--config", str(verify_cfg), "--out", str(base / "ver"),
                     "--quiet"]) == 0
        blobs.append(tuple(
            (base / rel).read_bytes()
            for rel in ("sol/u.csv", "sol/solve_summary.json",
                        "pr/probe_report.json", "pr/cherrier.csv",
                        "ver/verify_report.json")
        ))
    ok = blobs[0] == blobs[1]
    _report(8, "determinism: identical config + seed give byte-identical reports", ok)
