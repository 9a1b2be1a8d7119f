import json
import math

import numpy as np
import pytest

from hquot import fields as fl, probe, symfun
from hquot.errors import ConeError
from hquot.grid import TorusGrid, integrate
from hquot.solver import residual


def _inputs(u, omega0, grid, k):
    """What run_probe hands the checks: the Hessian of u, the background's
    spectrum (its sorted entries), eps and the t-integrated means."""
    hess = fl.quaternionic_hessian(u, grid)
    lam0 = np.sort(omega0, axis=-1)
    return hess, lam0, fl.measure_epsilon(lam0, k), probe.homotopy_means(u, omega0, hess, grid, k)


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
    omega0 = np.ones(grid.shape + (grid.n,))
    lam = fl.eig_field(fl.omega_u(omega0, u, grid))
    sk = symfun.sigma(lam, k)
    sl = symfun.sigma(lam, l) if l > 0 else 1.0
    F = np.log(sk / sl * math.comb(n, l) / math.comb(n, k))
    return grid, u, omega0, F


def test_manufactured_state_is_exact():
    grid, u, om0, F = manufactured_state(2, 2, 1, (0, 5), 12)
    R = residual(fl.eig_field(fl.omega_u(om0, u, grid)), 0.0, F, 2, 1)
    assert np.abs(R).max() < 1e-12


def _simpson(a):
    """Composite Simpson nodes and weights on [0, a], 33 of them: an
    independent rule, exact on cubics."""
    t = np.linspace(0.0, a, 33)
    w = np.ones(33)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return t, w * (a / 96.0)


def test_t_nodes():
    for k in range(1, 6):
        t, w1, wh = probe.t_nodes(k)
        assert np.array_equal(t, (np.arange(k) + 0.5) / k)
        for d in range(k):  # exact on every degree below k, on both intervals
            assert (w1 * t**d).sum() == pytest.approx(1.0 / (d + 1), rel=1e-14)
            assert (wh * t**d).sum() == pytest.approx(0.5 ** (d + 1) / (d + 1), rel=1e-14)
    t, w1, wh = probe.t_nodes(1)
    assert (t[0], w1[0], wh[0]) == (0.5, 1.0, 0.5)


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
        sigma1 = symfun.sigma(fl.eig_field(fl.quaternionic_hessian(u, g)), 1)
        ceiling = 0.25 * sigma1.max()
        for row in probe.cherrier_table(u, g, (4, 8, 16, 32, 64)):
            weight = np.exp(-row["p"] * (u - u.min()))
            mean = 0.25 * integrate(weight * sigma1) / integrate(weight)
            assert row["ratio"] == pytest.approx(mean, rel=1e-6)
            assert row["ratio"] <= ceiling


def test_homotopy_check_zero_potential_binomials():
    # at u = 0 the t-integrands are the constants sigma_m(identity) = C(n,m)
    n, k = 3, 3
    g = TorusGrid(n, (0,), 8)
    om0 = np.ones(g.shape + (g.n,))
    u = np.zeros(g.shape)
    _, _, eps, means = _inputs(u, om0, g, k)
    recs = probe.homotopy_integral_check(u, means, g, k, 4.0, eps)
    a = 1.0
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
    _, _, eps, means = _inputs(u, om0, grid, 3)
    recs = probe.homotopy_integral_check(u, means, grid, 3, 4.0, eps)
    assert {r["i"] for r in recs} == {1, 2, 3}
    for r in recs:
        assert r["slack"] >= -1e-9
        assert r["weighted_slack"] >= -1e-9


def test_weighted_energy_zero_potential():
    # u = 0: the gradient term vanishes and c_min = (1/2) sigma_{k-1}(Id)/C(n,k-1)
    n, k = 2, 2
    g = TorusGrid(n, (0,), 8)
    u = np.zeros(g.shape)
    _, _, eps, means = _inputs(u, np.ones(g.shape + (g.n,)), g, k)
    for p in (4.0, 16.0):
        rec = probe.weighted_energy_check(u, means, g, k, p, eps)
        assert rec["gradient_term"] == pytest.approx(0.0, abs=1e-20)
        assert rec["c_min"] == pytest.approx(0.5, rel=1e-12)


def test_weighted_energy_stable_in_amplitude():
    vals = []
    for amp in (1e-3, 1e-4):
        grid, u, om0, F = manufactured_state(2, 2, 0, (0,), 12, amp=amp)
        _, _, eps, means = _inputs(u, om0, grid, 2)
        rec = probe.weighted_energy_check(u, means, grid, 2, 8.0, eps)
        vals.append(rec["c_min"])
    assert vals[0] == pytest.approx(vals[1], rel=1e-2)
    assert vals[1] == pytest.approx(0.5, rel=1e-3)


def test_weighted_energy_bounded_over_p():
    grid, u, om0, F = manufactured_state(2, 2, 0, (0, 4), 12, amp=0.05)
    _, _, eps, means = _inputs(u, om0, grid, 2)
    cs = [probe.weighted_energy_check(u, means, grid, 2, p, eps)["c_min"] for p in (4, 8, 16, 32)]
    assert all(np.isfinite(c) and 0 < c < 10 for c in cs)
    assert max(cs) / min(cs) < 2.0


def _simpson_means(u, om0, hess, grid, k):
    """(L, G, S) of homotopy_means from the 33-node Simpson rule, with
    eig_field for the sigma integrands and newton_transform_field for the
    gradient pairings; the background ``om0`` is embedded as diag(om0, om0)."""
    n = grid.n
    grad = fl.gradient_coefficients(u, grid)
    om0 = np.concatenate([om0, om0], axis=-1)[..., None] * np.eye(2 * n)
    L, G, S = 0.0, np.zeros((k,) + grid.shape), np.zeros((k,) + grid.shape)
    for t, w in zip(*_simpson(0.5)):
        Wt = om0 + t * hess
        L = L + w * symfun.sigma(fl.eig_field(Wt), k - 1)
        for i in range(1, k + 1):
            c = math.factorial(i - 1) * math.factorial(n - i) / math.factorial(n)
            T = fl.newton_transform_field(Wt, i - 1)
            G[i - 1] += w * c * np.einsum("...p,...pq,...q->...", grad.conj(), T, grad).real
    for t, w in zip(*_simpson(1.0)):
        lam = fl.eig_field(om0 + t * hess)
        for m in range(k):
            S[m] += w * symfun.sigma(lam, m)
    return L, G, S


def test_weighted_energy_matches_per_node_reference():
    # the t-integrated fields give the same constants as weighting every
    # Simpson node and forming the Newton transform there, for every p
    grid, u, om0, F = manufactured_state(3, 2, 1, (0, 4), 12, amp=0.05)
    n, k = 3, 2
    hess, _, eps, means = _inputs(u, om0, grid, k)
    L_t, G_t, _ = _simpson_means(u, om0, hess, grid, k)
    for p in (4, 8, 16, 32, 64):
        weight = np.exp(-p * (u - u.min()))
        L = integrate(weight * L_t) / math.comb(n, k - 1)
        G = integrate(weight * G_t[k - 1])
        M0 = integrate(weight)
        rec = probe.weighted_energy_check(u, means, grid, k, p, eps)
        assert rec["lhs"] == pytest.approx(L, rel=1e-12)
        assert rec["gradient_term"] == pytest.approx(G, rel=1e-12)
        assert rec["c_min"] == pytest.approx(L / (p * G + M0), rel=1e-12)


def _coupled(n, axes, N, waves):
    """A potential that mixes quaternionic coordinates: sum of a sin(2 pi (x_P
    + s x_Q)) over ``waves`` = [(a, P, s, Q)]; its Hessian has off-diagonal
    entries, so the eigenvectors of W_t rotate with z and t."""
    grid = TorusGrid(n, axes, N)
    u = sum(a * np.sin(2 * np.pi * (_coords(grid, P) + s * _coords(grid, Q)))
            for a, P, s, Q in waves)
    return grid, u


@pytest.mark.parametrize("n, k, axes, N, waves", [
    (3, 2, (0, 4), 12, [(0.05, 0, 0, 0), (0.04, 4, 0, 4)]),
    (2, 2, (0, 1, 4, 5), 8, [(0.1, 0, 1, 5), (0.05, 1, -1, 4)]),
    (3, 3, (0, 5, 10), 8, [(0.06, 0, 1, 5), (0.04, 5, -1, 10)]),
    (4, 4, (0, 5, 10, 15), 6, [(0.05, 0, 1, 5), (0.04, 10, -1, 15), (0.03, 5, 1, 10)]),
], ids=["n3k2-diagonal", "n2k2-coupled", "n3k3-coupled", "n4k4-coupled"])
def test_means_match_simpson_reference(n, k, axes, N, waves):
    # k midpoint nodes integrate the degree < k integrands exactly, where the
    # eigenvectors mix too; Simpson is exact on cubics, hence at these orders
    grid, u = _coupled(n, axes, N, waves)
    om0 = np.ones(grid.shape + (grid.n,))
    hess = fl.quaternionic_hessian(u, grid)
    diagonal = np.einsum("...ii->...i", hess)[..., None] * np.eye(2 * n)
    assert (np.abs(hess - diagonal).max() > 1e-3) == any(s for _, _, s, _ in waves)
    means = probe.homotopy_means(u, om0, hess, grid, k)
    for got, ref in zip(means, _simpson_means(u, om0, hess, grid, k)):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


def test_run_probe_one_eigh_per_node(monkeypatch):
    # one eigendecomposition per node of t_nodes(k), shared by the homotopy
    # check, every order, both intervals and every p
    grid, u, om0, F = manufactured_state(3, 2, 1, (0, 4), 12, amp=0.05)
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    rep = probe.run_probe(u, om0, F, grid, 2, 1, p_values=(4, 8, 16, 32, 64))
    assert rep["mandatory_ok"]
    assert len(calls) == 2


def test_run_probe_one_hessian(monkeypatch):
    # the sweep, the t-integrated means and the homotopy check share one Hessian
    grid, u, om0, F = manufactured_state(2, 2, 1, (0, 5), 12, amp=0.03)
    calls = []
    hessian = fl.quaternionic_hessian

    def counted(*args, **kwargs):
        calls.append(1)
        return hessian(*args, **kwargs)

    monkeypatch.setattr(fl, "quaternionic_hessian", counted)
    rep = probe.run_probe(u, om0, F, grid, 2, 1, p_values=(4, 8))
    assert rep["mandatory_ok"]
    assert len(calls) == 1


def _approx_by_t(want):
    """``want``, a sweep's per-node margins, compared list by list to 1e-12
    relative (pytest.approx compares lists nested in a dict exactly)."""
    return {name: pytest.approx(v, rel=1e-12) for name, v in want.items()}


def test_pointwise_sweep_manufactured():
    grid, u, om0, F = manufactured_state(2, 2, 1, (0, 5), 12, amp=0.03)
    hess, lam0, eps, _ = _inputs(u, om0, grid, 2)
    rep = probe.pointwise_lemma_sweep(om0, hess, lam0, F, 2, 1, eps)
    assert set(rep["margins"]) == {
        "excluded-sigma-lower-bound",
        "power-scaling-bound",
        "cone-gap-persistence",
        "cone-gap-floor",
    }
    assert rep["all_strict_positive"]
    assert rep["equality_residuals"]["power-scaling-bound"] == 0.0
    assert 0 < rep["eps"] <= 1.0
    assert rep["delta"] > 0


def test_pointwise_sweep_monge_ampere_case():
    grid, u, om0, F = manufactured_state(3, 3, 0, (0,), 12, amp=0.05)
    hess, lam0, eps, _ = _inputs(u, om0, grid, 3)
    rep = probe.pointwise_lemma_sweep(om0, hess, lam0, F, 3, 0, eps)
    assert rep["all_strict_positive"]
    assert "cone-gap-floor" in rep["margins"]
    # at l = 0 the floor is the excluded-sigma bound's i = k term, and
    # persistence reads sigma_{k-1}(W_t|j) alone
    assert rep["margins"] == pytest.approx({
        "excluded-sigma-lower-bound": 0.009975000000000178,
        "power-scaling-bound": 0.18225623519986084,
        "cone-gap-persistence": 0.19219178631987477,
        "cone-gap-floor": 0.009975000000000178,
    }, rel=1e-12)
    assert rep["margins_by_t"] == _approx_by_t({
        "excluded-sigma-lower-bound": [
            0.009975000000000178, 0.11729892863198754, 0.20482235726397502,
            0.2725452858959629, 0.3204677145279503, 0.3485896431599377, 0.35691107179192505,
            0.3454320004239125, 0.3141524290558999, 0.26307235768788734, 0.19219178631987477],
        "power-scaling-bound": [
            None, 26.999999999999996, 11.999999999999996, 6.999999999999999,
            4.499999999999999, 2.9999999999999996, 2.0, 1.0746719175399289,
            0.4987328798049294, 0.18225623519986084, None],
        "cone-gap-persistence": [
            1.0, 0.9192191786319874, 0.8384383572639749, 0.7576575358959627,
            0.6768767145279502, 0.5960958931599376, 0.515315071791925, 0.43453425042391247,
            0.3537534290558999, 0.27297260768788734, 0.19219178631987477],
        "cone-gap-floor": [
            0.009975000000000178, 0.11729892863198754, 0.20482235726397502,
            0.2725452858959629, 0.3204677145279503, 0.3485896431599377, 0.35691107179192505,
            0.3454320004239125, 0.3141524290558999, 0.26307235768788734, 0.19219178631987477],
    })
    assert rep["equality_residuals"] == {"power-scaling-bound": 0.0}


def test_pointwise_sweep_diagonalizes_each_inner_node_once(monkeypatch):
    # lam0 serves t = 0 and the spectrum of W_1 serves t = 1: one eig_field
    # call per SWEEP_T node but t = 0, one symmetric-function table per node,
    # and the margins of a sweep that diagonalized every node again
    grid, u, om0, F = manufactured_state(2, 2, 1, (0, 5), 12, amp=0.03)
    hess, lam0, eps, _ = _inputs(u, om0, grid, 2)
    calls, tables = [], []
    real, real_table = fl.eig_field, symfun.elementary_all

    def counting(W):
        calls.append(1)
        return real(W)

    def counting_table(lam, *args):
        tables.append(1)
        return real_table(lam, *args)

    monkeypatch.setattr(fl, "eig_field", counting)
    monkeypatch.setattr(symfun, "elementary_all", counting_table)
    rep = probe.pointwise_lemma_sweep(om0, hess, lam0, F, 2, 1, eps)
    assert len(calls) == len(probe.SWEEP_T) - 1
    # one table per node, beside the cone check's of lam0 and the sigma_i(W_1)
    # that every node's power-scaling bound reads
    assert len(tables) == len(probe.SWEEP_T) + 2
    assert rep["eps"] == pytest.approx(0.9949999999999999, rel=1e-12)
    assert rep["delta"] == pytest.approx(0.28444013739716073, rel=1e-12)
    assert rep["margins"] == pytest.approx({
        "excluded-sigma-lower-bound": 0.0050000000000001155,
        "power-scaling-bound": 0.13893971186053067,
        "cone-gap-persistence": 0.0014293474241062754,
        "cone-gap-floor": 0.0028586948482126617,
    }, rel=1e-12)
    assert {name: v[-1] for name, v in rep["margins_by_t"].items()} == pytest.approx({
        "excluded-sigma-lower-bound": 0.5153150717919233,
        "power-scaling-bound": None,
        "cone-gap-persistence": 0.14040706978157957,
        "cone-gap-floor": 0.28081413956315915,
    }, rel=1e-12)
    assert rep["equality_residuals"] == {"power-scaling-bound": 0.0}


def test_pointwise_sweep_k1():
    grid, u, om0, F = manufactured_state(1, 1, 0, (0,), 16, amp=0.05)
    hess, lam0, eps, _ = _inputs(u, om0, grid, 1)
    rep = probe.pointwise_lemma_sweep(om0, hess, lam0, F, 1, 0, eps)
    assert rep["all_strict_positive"]
    assert "excluded-sigma-lower-bound" not in rep["margins"]  # no admissible order
    assert "cone-gap-floor" not in rep["margins"]  # degenerate at k = 1
    assert rep["margins"] == pytest.approx({
        "power-scaling-bound": 0.11111111111111105,
        "cone-gap-persistence": 1.0,
    }, rel=1e-12)
    assert rep["margins_by_t"] == _approx_by_t({
        "power-scaling-bound": [
            None, 8.999999999999998, 3.9999999999999996, 2.333333333333333,
            1.4999999999999998, 0.9999999999999998, 0.6666666666666665, 0.4285714285714284,
            0.25, 0.11111111111111105, None],
        "cone-gap-persistence": [1.0] * 11,
    })
    assert rep["equality_residuals"] == {"power-scaling-bound": 0.0}


def test_pointwise_sweep_rejects_cone_violation():
    n, k, l = 2, 2, 1
    g = TorusGrid(n, (0,), 8)
    om0 = np.ones(g.shape + (g.n,))
    u = np.zeros(g.shape)
    F = np.full(g.shape, 2.0)  # Ft = e^2 / 2 > 1: condition fails
    hess, lam0, eps, _ = _inputs(u, om0, g, k)
    with pytest.raises(ConeError):
        probe.pointwise_lemma_sweep(om0, hess, lam0, F, k, l, eps)


def test_probe_with_varying_background():
    # non-identity background: eps is limited by both cone conditions and the
    # whole chain still closes on a solver-produced state
    from hquot.solver import SolverConfig, build_problem, solve

    cfg = SolverConfig(n=2, k=2, l=1, points_per_axis=12, active_axes=(0,),
                       F="0.08*sin(2*pi*x0)",
                       omega0_diag=("1 + 0.15*cos(2*pi*x0)", "1.0"))
    u, summary = solve(cfg)
    assert summary["cone_condition"]["satisfied"]
    grid, om0, F = build_problem(cfg)
    rep = probe.run_probe(u, om0, F + summary["b"], grid, 2, 1, p_values=(4, 8),
                          problem_id="varying-background")
    assert rep["eps"] < 0.9  # the background spread caps the cone slack
    assert rep["pointwise"]["all_strict_positive"]
    assert all(r["slack"] >= -1e-9 and r["weighted_slack"] >= -1e-9
               for r in rep["homotopy"])
    assert rep["mandatory_ok"]


def test_run_probe_report_roundtrip():
    grid, u, om0, F = manufactured_state(2, 2, 0, (0,), 12, amp=0.04)
    rep = probe.run_probe(u, om0, F, grid, 2, 0, p_values=(4, 8), problem_id="t")
    assert rep["mandatory_ok"]
    payload = json.loads(json.dumps(rep))
    assert payload["problem_id"] == "t"
    assert len(payload["cherrier"]) == 2
