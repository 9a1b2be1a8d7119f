import math
import warnings

import numpy as np
import pytest

from hquot import fields as fl, solver, symfun
from hquot.errors import ConeError, ConvergenceError
from hquot.grid import TorusGrid, integrate
from hquot.quaternion import chi_eigh
from hquot.solver import (
    Linearization,
    SolverConfig,
    build_problem,
    gmres,
    linearize,
    normalize_sup,
    residual,
    solve,
)


def _lam(om0, u, grid, backend="spectral"):
    """eig_field(W_u): the residual's input at the potential u."""
    return fl.eig_field(fl.omega_u(om0, u, grid, backend))


def _spectrum(om0, u, grid, backend="spectral"):
    """chi_eigh(W_u): linearize's input at the potential u."""
    return chi_eigh(fl.omega_u(om0, u, grid, backend))


def _sine(grid, axis, amp=1.0, freq=1):
    return amp * np.broadcast_to(
        np.sin(2 * np.pi * freq * grid.coordinate(axis)), grid.shape
    ).copy()


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(n=2, k=1, l=1, points_per_axis=8, active_axes=(0,))
    with pytest.raises(ValueError):
        SolverConfig(n=2, k=2, l=0, points_per_axis=8, active_axes=(0,), tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig.from_dict({"n": 2, "k": 2, "l": 0, "points_per_axis": 8,
                                "active_axes": [0], "bogus": 1})


def test_expression_problem_build():
    cfg = SolverConfig(n=2, k=2, l=0, points_per_axis=8, active_axes=(0,),
                       F="0.1*sin(2*pi*x0)",
                       omega0_diag=("1 + 0.2*cos(2*pi*x0)", "1.0"))
    grid, om0, F = build_problem(cfg)
    x = np.broadcast_to(grid.coordinate(0), grid.shape)
    assert np.allclose(F, 0.1 * np.sin(2 * np.pi * x))
    assert np.allclose(om0[..., 0, 0], 1 + 0.2 * np.cos(2 * np.pi * x))
    assert np.allclose(om0[..., 1, 1], 1.0)
    with pytest.raises(ValueError):
        build_problem(SolverConfig(n=1, k=1, l=0, points_per_axis=8,
                                   active_axes=(0,), F="import os"))


def test_residual_trivial_zeros():
    for n, k, l in ((2, 2, 0), (3, 2, 1)):
        grid = TorusGrid(n, (0,), 8)
        om0 = fl.identity_form(grid)
        u = np.zeros(grid.shape)
        c = 0.4
        F = np.full(grid.shape, c)
        R = residual(_lam(om0, u, grid), -c, F, k, l)
        assert np.abs(R).max() < 1e-14
        R0 = residual(_lam(om0, u, grid), 0.0, np.zeros(grid.shape), k, l)
        assert np.abs(R0).max() < 1e-14


def test_residual_first_order_perturbation():
    # sigma_2 couples the two axes quadratically, so the remainder after
    # subtracting the linear prediction scales like eta^2
    grid = TorusGrid(2, (0, 4), 8)
    om0 = fl.identity_form(grid)
    F = np.zeros(grid.shape)
    k, l = 2, 0
    x = np.broadcast_to(grid.coordinate(0), grid.shape)
    y = np.broadcast_to(grid.coordinate(4), grid.shape)
    v = 0.05 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
    zero = np.zeros(grid.shape)
    base = residual(_lam(om0, zero, grid), 0.0, F, k, l)
    lin = linearize(_spectrum(om0, zero, grid), 0.0, F, grid, k, l)
    predicted = lin.apply(v)
    rema = []
    for eta in (1e-2, 1e-3):
        pert = residual(_lam(om0, eta * v, grid), 0.0, F, k, l)
        rema.append(np.abs(pert - base - eta * predicted).max())
    assert rema[0] < 1e-2
    assert rema[1] < rema[0] / 50  # quadratic remainder: factor 100 per decade


def test_linearize_b_column_and_laplacian():
    grid = TorusGrid(2, (0, 4), 8)
    om0 = fl.identity_form(grid)
    F = np.zeros(grid.shape)
    lin = linearize(_spectrum(om0, np.zeros(grid.shape), grid), 0.0, F, grid, 1, 0)
    coef = math.comb(2, 1)
    assert np.allclose(lin.b_column, -coef)
    v = _sine(grid, 0) + 0.5 * _sine(grid, 4, freq=2)
    from hquot.grid import second_derivative

    lap = 0.5 * (second_derivative(v, grid, 0, 0) + second_derivative(v, grid, 4, 4))
    assert np.abs(lin.apply(v) - lap).max() < 1e-10


@pytest.mark.parametrize("n,k,l,axes,backend", [
    pytest.param(2, 2, 1, (0, 5), "spectral", id="n2k2l1-ax05"),
    pytest.param(1, 1, 0, (0, 1, 2, 3), "fd", id="n1k1l0-ax0123-fd"),
    pytest.param(3, 2, 1, (0, 5, 10), "spectral", id="n3k2l1-ax0510"),
])
def test_linearize_matches_finite_difference(n, k, l, axes, backend):
    grid = TorusGrid(n, axes, 8)
    om0 = fl.identity_form(grid)
    rng = np.random.default_rng(3)
    x, y = (np.broadcast_to(grid.coordinate(a), grid.shape) for a in (axes[0], axes[-1]))
    u = 0.004 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
    for a in axes[1:-1]:  # couple the middle axes too
        u = u + 0.002 * np.cos(2 * np.pi * (x + grid.coordinate(a)))
    F = 0.1 * np.sin(2 * np.pi * x)
    b = -0.05
    lin = linearize(_spectrum(om0, u, grid, backend), b, F, grid, k, l, backend)
    assert lin.ellipticity_margin > 0
    a = rng.normal(size=3)
    v = a[0] * np.sin(2 * np.pi * x) + a[1] * np.cos(2 * np.pi * y) \
        + a[2] * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
    for c in axes[1:-1]:
        v = v + np.sin(2 * np.pi * (grid.coordinate(c) - y))
    v -= v.mean()
    eta = 1e-5
    fd = (residual(_lam(om0, u + eta * v, grid, backend), b, F, k, l)
          - residual(_lam(om0, u - eta * v, grid, backend), b, F, k, l)) / (2 * eta)
    assert np.abs(fd - lin.apply(v)).max() < 1e-6 * (1 + np.abs(fd).max())
    # b column: d residual / d b
    lam = _lam(om0, u, grid, backend)
    fdb = (residual(lam, b + eta, F, k, l) - residual(lam, b - eta, F, k, l)) / (2 * eta)
    assert np.abs(fdb - lin.b_column).max() < 1e-6


@pytest.mark.parametrize("backend", ["spectral", "fd"])
def test_mean_symbol_matches_operator_on_every_mode(backend):
    # constant coefficients on pure pairs and a cross-coordinate pair: apply
    # (FFT or roll stencils) must act on each Fourier mode as mean_symbol()
    grid = TorusGrid(2, (0, 5), 8)
    ones = np.ones(grid.shape)
    lin = Linearization(grid, backend, {(0, 0): 1.3 * ones, (0, 5): 0.4 * ones,
                                        (5, 5): 0.7 * ones}, -ones, 0.7)
    sym = lin.mean_symbol()
    assert sym.shape == grid.shape
    x, y = (np.broadcast_to(grid.coordinate(a), grid.shape) for a in (0, 5))
    freq = np.fft.fftfreq(8, d=1.0 / 8)
    for i, j in np.ndindex(grid.shape):
        phase = 2 * np.pi * (freq[i] * x + freq[j] * y)
        for v in (np.cos(phase), np.sin(phase)):
            assert np.abs(lin.apply(v) - sym[i, j] * v).max() < 1e-9 * (1 + np.abs(sym).max())


def test_residual_invariant_under_constant_shift():
    grid = TorusGrid(2, (0,), 16)
    om0 = fl.identity_form(grid)
    F = 0.2 * np.broadcast_to(np.sin(2 * np.pi * grid.coordinate(0)), grid.shape)
    u = 0.03 * np.broadcast_to(np.cos(2 * np.pi * grid.coordinate(0)), grid.shape)
    r1 = residual(_lam(om0, u, grid), -0.1, F, 2, 0)
    r2 = residual(_lam(om0, u + 5.0, grid), -0.1, F, 2, 0)
    assert np.abs(r1 - r2).max() < 1e-12 * (1 + np.abs(r1).max())


def test_normalize_sup():
    u = np.array([1.0, -2.0, 0.5])
    v = normalize_sup(u)
    assert v.max() == 0.0
    assert np.array_equal(normalize_sup(v), v)
    assert np.array_equal(normalize_sup(np.full(4, 3.3)), np.zeros(4))
    assert int(np.argmax(u)) == int(np.argmax(v))


def _count_eigendecompositions(monkeypatch, cfg):
    """Solve cfg, counting chi_eigh calls (through solver's bound name),
    np.linalg eigensolver calls and omega_u calls (the trial W's)."""
    counts = {"chi_eigh": 0, "lapack": 0, "omega_u": 0}

    def counted(key, f):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return f(*args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, counted("lapack", getattr(np.linalg, name)))
    monkeypatch.setattr(solver, "chi_eigh", counted("chi_eigh", solver.chi_eigh))
    monkeypatch.setattr(fl, "omega_u", counted("omega_u", fl.omega_u))
    res = solve(cfg)
    assert res.converged and res.iterations >= 2
    return counts


def test_solve_one_eigendecomposition_per_trial_step(monkeypatch):
    # every trial W is diagonalized once, and the accepted spectrum is reused
    # by the residual, the cone margin and the next linearization;
    # omega_u runs once at the start and once per trial step.  At n = 2
    # chi_eigh is closed-form, so LAPACK is never called
    # forcing along x0 + x5 couples the axes, so no iterate is diagonal
    cfg = SolverConfig(n=2, k=2, l=1, points_per_axis=16, active_axes=(0, 5),
                       F="0.1*sin(2*pi*(x0 + x5))")
    counts = _count_eigendecompositions(monkeypatch, cfg)
    assert 0 < counts["chi_eigh"] <= counts["omega_u"]
    assert counts["lapack"] == 0


def test_solve_n3_one_lapack_eigendecomposition_per_trial_step(monkeypatch):
    # from n = 3 on, each chi_eigh is one LAPACK eigh and nothing else
    # diagonalizes: the same bound holds for the np.linalg calls
    cfg = SolverConfig(n=3, k=2, l=1, points_per_axis=8, active_axes=(0, 5, 10),
                       F="0.1*sin(2*pi*(x0 + x5)) + 0.05*cos(2*pi*(x5 - x10))")
    counts = _count_eigendecompositions(monkeypatch, cfg)
    assert 0 < counts["lapack"] == counts["chi_eigh"] <= counts["omega_u"]


def test_solve_constant_forcing_exact():
    c = 0.7
    cfg = SolverConfig(n=2, k=2, l=0, points_per_axis=16, active_axes=(0,), F=f"{c}")
    res = solve(cfg)
    assert res.iterations <= 2
    assert np.abs(res.u).max() <= 1e-12
    assert abs(res.b + c) <= 1e-12
    assert res.residual_history[-1] <= 1e-12


def test_solve_sine_monge_ampere():
    cfg = SolverConfig(n=1, k=1, l=0, points_per_axis=16, active_axes=(0,),
                       F="0.5*sin(2*pi*x0)")
    res = solve(cfg)
    assert res.converged
    assert res.residual_history[-1] <= 1e-9
    assert res.u.max() == 0.0
    assert res.gamma_margin > 0
    # quadratic tail
    assert res.residual_history[-1] / res.residual_history[-2] <= 0.1
    # mean-zero gauge: residual unchanged by the sup shift
    grid, om0, F = build_problem(cfg)
    R = residual(_lam(om0, res.u, grid), res.b, F, 1, 0)
    assert np.abs(R).max() <= 2e-9


def test_solve_amplitude_growth():
    osc = {}
    for A in (0.1, 0.2):
        cfg = SolverConfig(n=1, k=1, l=0, points_per_axis=16, active_axes=(0,),
                           F=f"{A}*sin(2*pi*x0)")
        res = solve(cfg)
        osc[A] = float(res.u.max() - res.u.min())
    assert 0 < osc[0.1] < osc[0.2] < 1.0


def test_solve_quotient_case_with_background():
    cfg = SolverConfig(n=2, k=2, l=1, points_per_axis=16, active_axes=(0,),
                       F="0.1*sin(2*pi*x0)",
                       omega0_diag=("1 + 0.1*cos(2*pi*x0)", "1.0"))
    res = solve(cfg)
    assert res.converged and res.residual_history[-1] <= 1e-9
    assert res.cone_report.satisfied
    grid, om0, F = build_problem(cfg)
    assert fl.in_gamma_k_field(_lam(om0, res.u, grid), 2).ok


def test_ellipticity_margin_is_the_cone_margin():
    # on a coupled solved state, linearize's weights are the cone condition's
    # margins at the solved normalization F + b
    k, l = 2, 1
    cfg = SolverConfig(n=2, k=k, l=l, points_per_axis=12, active_axes=(0, 5),
                       F="0.1*sin(2*pi*(x0 + x5))")
    res = solve(cfg)
    grid, om0, F = build_problem(cfg)
    W = fl.omega_u(om0, res.u, grid)
    assert np.abs(W[..., 0, 1]).max() > 1e-3  # eigenvectors mix the axes
    lin = linearize(chi_eigh(W), res.b, F, grid, k, l)
    cone = fl.check_cone_condition(fl.eig_field(W), F + res.b, k, l)
    assert lin.ellipticity_margin == pytest.approx(cone.worst_margin, rel=1e-12)


def test_solve_warns_on_cone_violation():
    # the cone condition fails at the starting normalization b = -mean F:
    # linearize's weights at u = 0 are its margins, so the first Newton step
    # loses ellipticity and the error carries the cone note
    cfg = SolverConfig(n=2, k=2, l=1, points_per_axis=8, active_axes=(0,),
                       F="0.8*sin(2*pi*x0)")
    with pytest.raises(ConvergenceError, match=r"lost ellipticity .*\[cone condition violated"):
        solve(cfg)


def test_solve_checks_cone_condition_at_normalization():
    # a large mean is absorbed by b = -mean F before the cone check, so
    # exp(F) is never formed at the raw forcing
    cfg = SolverConfig(n=2, k=2, l=1, points_per_axis=8, active_axes=(0,),
                       F="800 + 0.1*sin(2*pi*x0)")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = solve(cfg)
    assert res.converged and res.warnings == []
    assert res.b == pytest.approx(-800.0, abs=0.01)
    assert res.cone_report.satisfied


def test_solve_background_outside_cone_raises():
    cfg = SolverConfig(n=2, k=2, l=0, points_per_axis=8, active_axes=(0,),
                       F="0.0", omega0_diag=("1.0", "-0.5"))
    with pytest.raises(ConeError, match=r"background field not in Gamma_2 \(margin "):
        solve(cfg)


def test_solve_iteration_cap():
    cfg = SolverConfig(n=1, k=1, l=0, points_per_axis=16, active_axes=(0,),
                       F="0.5*sin(2*pi*x0)", max_iterations=1, tolerance=1e-12)
    with pytest.raises(ConvergenceError):
        solve(cfg)


def test_solve_fd_backend():
    cfg = SolverConfig(n=1, k=1, l=0, points_per_axis=16, active_axes=(0,),
                       F="0.5*sin(2*pi*x0)", backend="fd")
    res = solve(cfg)
    assert res.residual_history[-1] <= 1e-9
    ref = solve(SolverConfig(n=1, k=1, l=0, points_per_axis=16, active_axes=(0,),
                             F="0.5*sin(2*pi*x0)", backend="spectral"))
    # both solve their own discretization; the states differ at O(h^2)
    assert np.abs(res.u - ref.u).max() < 5e-3


def test_solve_four_axis_linear_case():
    cfg = SolverConfig(n=1, k=1, l=0, points_per_axis=8, active_axes=(0, 1, 2, 3),
                       F="0.1*sin(2*pi*x0)")
    res = solve(cfg)
    assert res.residual_history[-1] <= 1e-9
    assert res.iterations <= 3


def test_solution_matches_compatibility_constant():
    # 1-axis forcing: exp(b) must normalize the mean of exp(F) at top order
    cfg = SolverConfig(n=1, k=1, l=0, points_per_axis=32, active_axes=(0,),
                       F="0.3*sin(2*pi*x0)")
    res = solve(cfg)
    grid, om0, F = build_problem(cfg)
    # integral of sigma_1(W_u) - e^(F+b) sigma_0 = 0 and mean(H) = 0 forces
    # mean(e^(F+b)) = sigma_1(identity) = 1
    assert integrate(np.exp(F + res.b), grid) == pytest.approx(1.0, abs=1e-10)


def _nonsymmetric_system(size=30):
    """A well-conditioned nonsymmetric system whose diagonal spans [1, 10],
    so a Jacobi preconditioner changes the iteration."""
    rng = np.random.default_rng(7)
    A = np.diag(np.linspace(1.0, 10.0, size)) + 0.5 * rng.standard_normal((size, size)) / np.sqrt(size)
    return A, rng.standard_normal(size)


@pytest.mark.parametrize("jacobi", [False, True], ids=["identity", "jacobi"])
def test_gmres_matches_dense_solve(jacobi):
    A, rhs = _nonsymmetric_system()
    d = np.diag(A)
    precond = (lambda v: v / d) if jacobi else (lambda v: v)
    x, info, iterations, relres = gmres(lambda v: A @ v, rhs, precond,
                                        rtol=1e-12, atol=0.0, restart=5, maxiter=100)
    assert info == 0
    assert iterations > 5  # more than one cycle: the restart path ran
    true_relres = np.linalg.norm(rhs - A @ x) / np.linalg.norm(rhs)
    assert relres == true_relres <= 1e-12
    np.testing.assert_allclose(x, np.linalg.solve(A, rhs), rtol=1e-10, atol=1e-12)


def test_gmres_zero_rhs():
    A, _ = _nonsymmetric_system()
    x, info, iterations, relres = gmres(lambda v: A @ v, np.zeros(len(A)), lambda v: v,
                                        rtol=1e-12, atol=0.0, restart=5, maxiter=100)
    assert info == 0 and iterations == 0 and relres == 0.0
    assert not x.any()


def test_gmres_reports_an_exhausted_budget():
    A, rhs = _nonsymmetric_system()
    x, info, iterations, relres = gmres(lambda v: A @ v, rhs, lambda v: v,
                                        rtol=1e-12, atol=0.0, restart=3, maxiter=2)
    assert info == 2 and iterations == 6
    assert 1e-12 < relres == np.linalg.norm(rhs - A @ x) / np.linalg.norm(rhs)


def test_newton_step_raises_when_gmres_does_not_converge(monkeypatch):
    # a variable-coefficient step needs several inner iterations; allow two
    grid = TorusGrid(2, (0, 5), 8)
    om0 = fl.identity_form(grid)
    F = np.zeros(grid.shape)
    x0, x5 = grid.coordinate(0), grid.coordinate(5)
    u = 0.002 * (np.sin(2 * np.pi * (x0 + x5)) + np.cos(2 * np.pi * x0))
    lin = linearize(_spectrum(om0, u, grid), 0.0, F, grid, 2, 1)
    R = residual(_lam(om0, u, grid), 0.0, F, 2, 1)
    step, _ = solver._solve_newton_step(lin, R)
    assert np.isfinite(step).all()
    real = solver.gmres
    monkeypatch.setattr(solver, "gmres",
                        lambda *args, **kw: real(*args, **{**kw, "restart": 2, "maxiter": 1}))
    with pytest.raises(ConvergenceError, match=r"2 GMRES iterations, relative residual \d"):
        solver._solve_newton_step(lin, R)
