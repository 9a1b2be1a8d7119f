import json
import math

import numpy as np
import pytest

from hquot import fields as fl, probe, symfun
from hquot.errors import ConeError
from hquot.grid import TorusGrid, integrate
from hquot.solver import residual


def _coords(grid, axis):
    return np.broadcast_to(grid.coordinate(axis), grid.shape).copy()


def manufactured_state(n, k, l, axes, N, amp=0.03, seed=0):
    """A potential and forcing that solve the quotient equation exactly.

    The forcing is read off from the state, so the pair (u, F) is a solution
    with b = 0 by construction.
    """
    grid = TorusGrid(n, axes, N)
    rng = np.random.default_rng(seed)
    u = np.zeros(grid.shape)
    for axis in axes:
        u = u + amp * float(rng.uniform(0.5, 1.0)) * np.sin(2 * np.pi * _coords(grid, axis))
    u -= u.max()
    omega0 = fl.identity_form(grid)
    W = fl.omega_u(omega0, u, 1.0, grid)
    lam = fl.eig_field(W)
    sk = symfun.sigma(lam, k)
    sl = symfun.sigma(lam, l) if l > 0 else 1.0
    F = np.log(sk / sl * math.comb(n, l) / math.comb(n, k))
    return grid, u, omega0, F


def test_manufactured_state_is_exact():
    grid, u, om0, F = manufactured_state(2, 2, 1, (0, 5), 12)
    R = residual(u, 0.0, om0, F, grid, 2, 1)
    assert np.abs(R).max() < 1e-12


def test_simpson_nodes():
    t, w = probe.simpson_nodes(0.5)
    assert len(t) == 33 and t[0] == 0.0 and t[-1] == 0.5
    assert w.sum() == pytest.approx(0.5, rel=1e-14)
    # exact on cubics
    val = (w * t**3).sum()
    assert val == pytest.approx(0.5**4 / 4, rel=1e-12)
    with pytest.raises(ValueError):
        probe.simpson_nodes(1.0, count=4)


def test_cherrier_zero_potential():
    g = TorusGrid(1, (0,), 16)
    assert probe.cherrier_table(np.zeros(g.shape), g, [4.0])[0]["ratio"] < 1e-25


def test_cherrier_small_amplitude_series():
    # u = eta sin(2 pi x): C(p) -> (p/4) pi^2 eta^2 as eta -> 0
    g = TorusGrid(1, (0,), 32)
    x = _coords(g, 0)
    p = 2.0
    for eta in (1e-3, 1e-4):
        c = probe.cherrier_table(eta * np.sin(2 * np.pi * x), g, [p])[0]["ratio"]
        pred = (p / 4) * np.pi**2 * eta**2
        assert c == pytest.approx(pred, rel=1e-2)


def test_cherrier_no_overflow_at_large_exponent():
    g = TorusGrid(1, (0,), 16)
    x = _coords(g, 0)
    u = 2.0 * np.sin(2 * np.pi * x)
    c = probe.cherrier_table(u - u.max(), g, [512.0])[0]["ratio"]
    assert np.isfinite(c) and c > 0


@pytest.mark.parametrize("p", [0.0, -4.0, float("nan")])
def test_cherrier_table_rejects_bad_exponent(p):
    g = TorusGrid(1, (0,), 16)
    u = 0.1 * np.sin(2 * np.pi * _coords(g, 0))
    with pytest.raises(ValueError, match="finite and positive"):
        probe.cherrier_table(u, g, [4.0, p])


def test_cherrier_table_shape():
    g = TorusGrid(1, (0,), 16)
    x = _coords(g, 0)
    rows = probe.cherrier_table(0.05 * np.sin(2 * np.pi * x), g, (4, 8))
    assert [r["p"] for r in rows] == [4.0, 8.0]
    assert all(0.0 < r["mass"] <= 1.0 for r in rows)  # min-shifted weight


def test_cherrier_weighted_sigma1_identity():
    # C(p) = (1/4) <sigma_1(H(u))>_p <= (1/4) max sigma_1(H(u)) on fields that
    # vary along every active axis and mix two of them (not solved states)
    for axes in ((0, 5), (0, 1, 2, 3)):
        g = TorusGrid(2, axes, 16)
        u = 0.03 * np.cos(2 * np.pi * (_coords(g, axes[0]) + _coords(g, axes[1])))
        for axis in axes:
            u = u + 0.05 * np.sin(2 * np.pi * _coords(g, axis) + axis)
        sigma1 = symfun.sigma(fl.eig_field(fl.quaternionic_hessian(u, g, "spectral")), 1)
        ceiling = 0.25 * sigma1.max()
        for row in probe.cherrier_table(u, g, (4, 8, 16, 32, 64)):
            weight = np.exp(-row["p"] * (u - u.min()))
            mean = 0.25 * integrate(weight * sigma1, g) / integrate(weight, g)
            assert row["ratio"] == pytest.approx(mean, rel=1e-6)
            assert row["ratio"] <= ceiling


def test_homotopy_check_zero_potential_binomials():
    # at u = 0 the t-integrands are the constants sigma_m(identity) = C(n,m)
    n, k = 3, 3
    g = TorusGrid(n, (0,), 8)
    om0 = fl.identity_form(g)
    a = 1.0
    recs = probe.homotopy_integral_check(np.zeros(g.shape), om0, g, k, p=4.0, a=a)
    eps = fl.measure_epsilon(om0, k)
    for r in recs:
        i = r["i"]
        assert r["display_lhs"] == pytest.approx(eps * math.comb(n, i - 1) * a, rel=1e-12)
        assert r["display_rhs"] == pytest.approx((k / i) * math.comb(n, k - 1) * a, rel=1e-12)
        assert r["slack"] >= -1e-12
        if r["trivial_equality"]:
            assert r["slack"] == pytest.approx(0.0, abs=1e-14)
            assert r["weighted_slack"] == pytest.approx(0.0, abs=1e-14)


def test_homotopy_check_solved_state():
    grid, u, om0, F = manufactured_state(3, 3, 0, (0,), 12, amp=0.04)
    recs = probe.homotopy_integral_check(u, om0, grid, 3, p=4.0)
    assert {r["i"] for r in recs} == {1, 2, 3}
    for r in recs:
        assert r["slack"] >= -1e-9
        assert r["weighted_slack"] >= -1e-9


def test_weighted_energy_zero_potential():
    # u = 0: the gradient term vanishes and c_min = (1/2) sigma_{k-1}(Id)/C(n,k-1)
    n, k = 2, 2
    g = TorusGrid(n, (0,), 8)
    om0 = fl.identity_form(g)
    for p in (4.0, 16.0):
        rec = probe.weighted_energy_check(np.zeros(g.shape), om0, g, k, p)
        assert rec["gradient_term"] == pytest.approx(0.0, abs=1e-20)
        assert rec["c_min"] == pytest.approx(0.5, rel=1e-12)


def test_weighted_energy_stable_in_amplitude():
    vals = []
    for amp in (1e-3, 1e-4):
        grid, u, om0, F = manufactured_state(2, 2, 0, (0,), 12, amp=amp)
        rec = probe.weighted_energy_check(u, om0, grid, 2, 8.0)
        vals.append(rec["c_min"])
    assert vals[0] == pytest.approx(vals[1], rel=1e-2)
    assert vals[1] == pytest.approx(0.5, rel=1e-3)


def test_weighted_energy_bounded_over_p():
    grid, u, om0, F = manufactured_state(2, 2, 0, (0, 4), 12, amp=0.05)
    cs = [probe.weighted_energy_check(u, om0, grid, 2, p)["c_min"] for p in (4, 8, 16, 32)]
    assert all(np.isfinite(c) and 0 < c < 10 for c in cs)
    assert max(cs) / min(cs) < 2.0


def test_weighted_energy_matches_per_node_reference():
    # the t-integrated fields give the same constants as weighting every
    # Simpson node and forming the Newton transform there, for every p
    grid, u, om0, F = manufactured_state(3, 2, 1, (0, 4), 12, amp=0.05)
    n, k = 3, 2
    hess = fl.quaternionic_hessian(u, grid)
    grad = fl.gradient_coefficients(u, grid)
    c = math.factorial(k - 1) * math.factorial(n - k) / math.factorial(n)
    means = probe.homotopy_means(u, om0, grid, k)
    for p in (4, 8, 16, 32, 64):
        weight = np.exp(-p * (u - u.min()))
        L = G = 0.0
        for t, w in zip(*probe.simpson_nodes(0.5)):
            Wt = om0 + t * hess
            sk1 = symfun.sigma(fl.eig_field(Wt), k - 1) / math.comb(n, k - 1)
            L += w * integrate(weight * sk1, grid)
            S = fl.newton_transform_field(Wt, k - 1)
            gp = c * np.einsum("...p,...pq,...q->...", grad.conj(), S, grad).real
            G += w * integrate(weight * gp, grid)
        M0 = integrate(weight, grid)
        for rec in (probe.weighted_energy_check(u, om0, grid, k, p),
                    probe.weighted_energy_check(u, om0, grid, k, p, means=means)):
            assert rec["lhs"] == pytest.approx(L, rel=1e-12)
            assert rec["gradient_term"] == pytest.approx(G, rel=1e-12)
            assert rec["c_min"] == pytest.approx(L / (p * G + M0), rel=1e-12)


def test_run_probe_one_eigh_per_node(monkeypatch):
    # one eigendecomposition per Simpson node of [0, 1/2], shared by the
    # homotopy check, every order and every p
    grid, u, om0, F = manufactured_state(3, 2, 1, (0, 4), 12, amp=0.05)
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    rep = probe.run_probe(u, om0, F, grid, 2, 1, p_values=(4, 8, 16, 32, 64))
    assert rep.mandatory_ok
    assert 0 < len(calls) <= probe.T_NODES


def test_run_probe_one_hessian(monkeypatch):
    # the sweep, the Simpson means and the homotopy check share one Hessian
    grid, u, om0, F = manufactured_state(2, 2, 1, (0, 5), 12, amp=0.03)
    calls = []
    hessian = fl.quaternionic_hessian

    def counted(*args, **kwargs):
        calls.append(1)
        return hessian(*args, **kwargs)

    monkeypatch.setattr(fl, "quaternionic_hessian", counted)
    rep = probe.run_probe(u, om0, F, grid, 2, 1, p_values=(4, 8))
    assert rep.mandatory_ok
    assert len(calls) == 1


def test_pointwise_sweep_manufactured():
    grid, u, om0, F = manufactured_state(2, 2, 1, (0, 5), 12, amp=0.03)
    rep = probe.pointwise_lemma_sweep(u, om0, F, grid, 2, 1)
    assert set(rep.margins) == {
        "excluded-sigma-lower-bound",
        "power-scaling-bound",
        "cone-gap-persistence",
        "cone-gap-floor",
    }
    assert rep.all_strict_positive
    assert rep.equality_residuals["power-scaling-bound"] == 0.0
    assert 0 < rep.eps <= 1.0
    assert rep.delta > 0


def test_pointwise_sweep_monge_ampere_case():
    grid, u, om0, F = manufactured_state(3, 3, 0, (0,), 12, amp=0.05)
    rep = probe.pointwise_lemma_sweep(u, om0, F, grid, 3, 0)
    assert rep.all_strict_positive
    assert "cone-gap-floor" in rep.margins


def test_pointwise_sweep_k1():
    grid, u, om0, F = manufactured_state(1, 1, 0, (0,), 16, amp=0.05)
    rep = probe.pointwise_lemma_sweep(u, om0, F, grid, 1, 0)
    assert rep.all_strict_positive
    assert "excluded-sigma-lower-bound" not in rep.margins  # no admissible order
    assert "cone-gap-floor" not in rep.margins  # degenerate at k = 1


def test_pointwise_sweep_rejects_cone_violation():
    n, k, l = 2, 2, 1
    g = TorusGrid(n, (0,), 8)
    om0 = fl.identity_form(g)
    u = np.zeros(g.shape)
    F = np.full(g.shape, 2.0)  # Ft = e^2 / 2 > 1: condition fails
    with pytest.raises(ConeError):
        probe.pointwise_lemma_sweep(u, om0, F, g, k, l)


def test_probe_with_varying_background():
    # non-identity background: eps is limited by both cone conditions and the
    # whole chain still closes on a solver-produced state
    from hquot.solver import SolverConfig, build_problem, solve

    cfg = SolverConfig(n=2, k=2, l=1, points_per_axis=12, active_axes=(0,),
                       F="0.08*sin(2*pi*x0)",
                       omega0_diag=("1 + 0.15*cos(2*pi*x0)", "1.0"))
    res = solve(cfg)
    assert res.cone_report.satisfied
    grid, om0, F = build_problem(cfg)
    rep = probe.run_probe(res.u, om0, F + res.b, grid, 2, 1, p_values=(4, 8),
                          problem_id="varying-background")
    assert rep.eps < 0.9  # the background spread caps the cone slack
    assert rep.pointwise["all_strict_positive"]
    assert all(r["slack"] >= -1e-9 and r["weighted_slack"] >= -1e-9
               for r in rep.homotopy)
    assert rep.mandatory_ok


def test_run_probe_report_roundtrip():
    grid, u, om0, F = manufactured_state(2, 2, 0, (0,), 12, amp=0.04)
    rep = probe.run_probe(u, om0, F, grid, 2, 0, p_values=(4, 8), problem_id="t")
    assert rep.mandatory_ok
    payload = json.loads(rep.to_json())
    assert payload["problem_id"] == "t"
    assert len(payload["cherrier"]) == 2
    csv = rep.cherrier_csv().splitlines()
    assert csv[0] == "p,energy,mass,ratio"
    assert len(csv) == 3
