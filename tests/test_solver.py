import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from hquot import fields as fl, quaternion as qt, solver, symfun
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


def _lam(om0, u, grid):
    """eig_field(W_u): the residual's input at the potential u."""
    return fl.eig_field(fl.omega_u(om0, u, grid))


def _spectrum(om0, u, grid):
    """chi_eigh(W_u): linearize's input at the potential u."""
    return chi_eigh(fl.omega_u(om0, u, grid))


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
    # the background is its diagonal entries, one per quaternionic coordinate
    assert om0.shape == grid.shape + (2,) and om0.dtype == float
    assert np.allclose(om0[..., 0], 1 + 0.2 * np.cos(2 * np.pi * x))
    assert np.array_equal(om0[..., 1], np.ones(grid.shape))
    # omega0_diag omitted: the identity background, all ones
    _, ident, _ = build_problem(SolverConfig(n=3, k=2, l=1, points_per_axis=8,
                                             active_axes=(0, 5)))
    assert np.array_equal(ident, np.ones((8, 8, 3)))
    with pytest.raises(ValueError):
        build_problem(SolverConfig(n=1, k=1, l=0, points_per_axis=8,
                                   active_axes=(0,), F="import os"))


def test_residual_trivial_zeros():
    for n, k, l in ((2, 2, 0), (3, 2, 1)):
        grid = TorusGrid(n, (0,), 8)
        om0 = np.ones(grid.shape + (grid.n,))
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
    om0 = np.ones(grid.shape + (grid.n,))
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
    om0 = np.ones(grid.shape + (grid.n,))
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
    grid = TorusGrid(n, axes, 8, backend)
    om0 = np.ones(grid.shape + (grid.n,))
    rng = np.random.default_rng(3)
    x, y = (np.broadcast_to(grid.coordinate(a), grid.shape) for a in (axes[0], axes[-1]))
    u = 0.004 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
    for a in axes[1:-1]:  # couple the middle axes too
        u = u + 0.002 * np.cos(2 * np.pi * (x + grid.coordinate(a)))
    F = 0.1 * np.sin(2 * np.pi * x)
    b = -0.05
    lin = linearize(_spectrum(om0, u, grid), b, F, grid, k, l)
    assert lin.ellipticity_margin > 0
    a = rng.normal(size=3)
    v = a[0] * np.sin(2 * np.pi * x) + a[1] * np.cos(2 * np.pi * y) \
        + a[2] * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
    for c in axes[1:-1]:
        v = v + np.sin(2 * np.pi * (grid.coordinate(c) - y))
    v -= v.mean()
    eta = 1e-5
    fd = (residual(_lam(om0, u + eta * v, grid), b, F, k, l)
          - residual(_lam(om0, u - eta * v, grid), b, F, k, l)) / (2 * eta)
    assert np.abs(fd - lin.apply(v)).max() < 1e-6 * (1 + np.abs(fd).max())
    # b column: d residual / d b
    lam = _lam(om0, u, grid)
    fdb = (residual(lam, b + eta, F, k, l) - residual(lam, b - eta, F, k, l)) / (2 * eta)
    assert np.abs(fdb - lin.b_column).max() < 1e-6


def _half_trace_coefficients(spectrum, b, F, grid, k, l):
    """Reference c_PQ = 1/2 Re tr(G B_PQ) for every hessian_basis pair, with
    the whole G = chi_from_spectrum(V, weights) formed."""
    lam, V = spectrum
    E = symfun.forcing_factor(grid.n, k, l, F + b)
    weights = symfun.sigma_excl_all(lam, k - 1) - E[..., None] * symfun.sigma_excl_all(lam, l - 1)
    G = qt.chi_from_spectrum(V, weights)
    return {(P, Q): 0.5 * np.trace(G @ B, axis1=-2, axis2=-1).real
            for P, Q, B in fl.hessian_basis(grid)}


@pytest.mark.parametrize("backend", ["spectral", "fd"])
@pytest.mark.parametrize("n,k,l,axes,N", [
    pytest.param(1, 1, 0, (0, 1, 2, 3), 8, id="n1k1l0-ax0123"),
    pytest.param(2, 2, 1, (0, 1, 4, 5), 8, id="n2k2l1-ax0145"),
    pytest.param(3, 2, 1, (0, 5, 10), 8, id="n3k2l1-ax0510"),
    pytest.param(3, 3, 1, (1, 6, 11), 8, id="n3k3l1-ax1611"),
])
def test_linearize_coefficients_are_half_traces(n, k, l, axes, N, backend):
    # linearize reads only the top rows of G; on coupled states its
    # coefficients must be the half traces of the whole G times B_PQ
    grid = TorusGrid(n, axes, N, backend)
    om0 = np.ones(grid.shape + (n,))
    x = {a: np.broadcast_to(grid.coordinate(a), grid.shape) for a in axes}
    u = 0.004 * np.sin(2 * np.pi * (x[axes[0]] + x[axes[-1]])) \
        + 0.002 * np.cos(2 * np.pi * (x[axes[1]] - x[axes[-1]]))
    F = 0.1 * np.sin(2 * np.pi * (x[axes[0]] + x[axes[1]]))
    spectrum = _spectrum(om0, u, grid)
    lin = linearize(spectrum, -0.05, F, grid, k, l)
    ref = _half_trace_coefficients(spectrum, -0.05, F, grid, k, l)
    scale = max(np.abs(c).max() for c in ref.values())
    for (P, Q), c in ref.items():
        got = lin.coeff.get((P, Q), np.zeros(grid.shape))
        assert np.abs(got - c).max() <= 1e-13 * scale, (P, Q)
    mixed = max((np.abs(c).max() for (P, Q), c in ref.items() if P // 4 != Q // 4), default=0.0)
    # n = 1 has no mixed pair of distinct quaternionic coordinates
    assert mixed > 1e-3 * scale if n > 1 else mixed == 0.0


def test_solve_makes_no_einsum_contraction(monkeypatch):
    # products of three or more factors on the solve path go to matmul (BLAS)
    operands = []
    einsum = np.einsum

    def counting(subscripts, *ops, **kwargs):
        operands.append(len(ops))
        return einsum(subscripts, *ops, **kwargs)

    monkeypatch.setattr(np, "einsum", counting)
    for n, axes in ((2, (0, 1, 4, 5)), (3, (0, 5, 10))):
        cfg = SolverConfig(n=n, k=2, l=1, points_per_axis=8, active_axes=axes,
                           F="0.1*sin(2*pi*(x0 + x5)) + 0.05*cos(2*pi*(x1 - x4))")
        assert solve(cfg)[1]["iterations"] >= 2
    assert max(operands, default=0) < 3


@pytest.mark.parametrize("backend", ["spectral", "fd"])
def test_mean_symbol_matches_operator_on_every_mode(backend):
    # constant coefficients on pure pairs and a cross-coordinate pair: apply
    # (FFT or roll stencils) must act on each Fourier mode as mean_symbol()
    grid = TorusGrid(2, (0, 5), 8, backend)
    ones = np.ones(grid.shape)
    lin = Linearization(grid, {(0, 0): 1.3 * ones, (0, 5): 0.4 * ones,
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
    om0 = np.ones(grid.shape + (grid.n,))
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
    """Solve cfg, counting chi_eigh calls and the matrices each gets (through
    solver's bound name), symfun.elementary_all calls and the tuples each
    gets, np.linalg eigensolver calls, and runs of the pointwise stage (the
    start and one per trial step)."""
    counts = {"chi_eigh": [], "elementary_all": [], "lapack": 0, "stage": 0}

    def eigh(M):
        counts["chi_eigh"].append(math.prod(M.shape[:-2]))
        return real_eigh(M)

    def elementary_all(lam, *args):
        counts["elementary_all"].append(math.prod(lam.shape[:-1]))
        return real_elementary(lam, *args)

    def lapack(f):
        def wrapper(*args, **kwargs):
            counts["lapack"] += 1
            return f(*args, **kwargs)
        return wrapper

    def stage(*args):
        counts["stage"] += 1
        return real_stage(*args)

    real_eigh, real_stage = solver.chi_eigh, solver._pointwise
    real_elementary = symfun.elementary_all
    monkeypatch.setattr(symfun, "elementary_all", elementary_all)
    for name in ("eigh", "eigvalsh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, lapack(getattr(np.linalg, name)))
    monkeypatch.setattr(solver, "chi_eigh", eigh)
    monkeypatch.setattr(solver, "_pointwise", stage)
    u, summary = solve(cfg)
    assert summary["converged"] and summary["iterations"] >= 2
    # no trial is rejected on these states, so the trials are the accepted steps
    assert counts["stage"] == 1 + summary["iterations"]
    # one symmetric-function table per block and trial, beside the start's
    # cone margin and the final cone check on the background spectrum
    points = cfg.grid.num_points
    assert counts["elementary_all"] == [points] + counts["chi_eigh"] + [points]
    # blocks of at most _BLOCK matrices, the last one partial, cover every
    # point once per stage run: one eigendecomposition per point and trial
    assert points % solver._BLOCK and points > solver._BLOCK
    assert max(counts["chi_eigh"]) == solver._BLOCK
    assert sum(counts["chi_eigh"]) == points * counts["stage"]
    return counts


_FOUR_AXIS_F = "0.1*sin(2*pi*(x0 + x5)) + 0.05*cos(2*pi*(x1 - x4))"


def test_solve_one_eigendecomposition_per_trial_step(monkeypatch):
    # every trial W is diagonalized once, block by block, and the accepted
    # eigenvalues and coefficients serve the residual, the cone margin and
    # the next Newton step.  At n = 2 chi_eigh is closed-form, so LAPACK is
    # never called.  Four axes at N = 12 are 20736 points: five whole blocks
    # and a remainder; the forcing couples the axes, so no iterate is diagonal
    cfg = SolverConfig(n=2, k=2, l=1, points_per_axis=12, active_axes=(0, 1, 4, 5),
                       F=_FOUR_AXIS_F)
    counts = _count_eigendecompositions(monkeypatch, cfg)
    assert counts["lapack"] == 0


def test_solve_n3_one_lapack_eigendecomposition_per_trial_step(monkeypatch):
    # from n = 3 on, each chi_eigh is one LAPACK eigh and nothing else
    # diagonalizes
    cfg = SolverConfig(n=3, k=2, l=1, points_per_axis=12, active_axes=(0, 1, 4, 5),
                       F=_FOUR_AXIS_F)
    counts = _count_eigendecompositions(monkeypatch, cfg)
    assert counts["lapack"] == len(counts["chi_eigh"])


@pytest.mark.parametrize("n", [2, 3], ids=["n2", "n3"])
def test_blocked_stage_equals_the_whole_field_route(n):
    # the pointwise stage of solve, block by block, against one chi_eigh on
    # the whole field and the whole-field linearize, residual and
    # gamma_margin: equal bit for bit, on a coupled four-axis state whose
    # point count is not a multiple of the block.  chi_eigh is closed-form
    # at n = 2 and LAPACK at n = 3
    cfg = SolverConfig(n=n, k=2, l=1, points_per_axis=12, active_axes=(0, 1, 4, 5),
                       F=_FOUR_AXIS_F)
    grid, om0, F = build_problem(cfg)
    assert grid.num_points % solver._BLOCK and grid.num_points > solver._BLOCK
    u, summary = solve(cfg)
    b, k, l = summary["b"], cfg.k, cfg.l
    basis = fl.hessian_basis(grid)
    R, bcol, gam, c, ell = solver._pointwise(om0, u, b, F, grid, basis, k, l)
    blocked = solver._linearization(grid, basis, c, ell, bcol)

    W = fl.omega_u(om0, u, grid)
    assert np.abs(W[..., 0, 1]).max() > 1e-3  # eigenvectors mix the axes
    spectrum = chi_eigh(W)
    lam = spectrum[0]
    whole = linearize(spectrum, b, F, grid, k, l)
    assert np.array_equal(R, residual(lam, b, F, k, l))
    assert gam == float(np.min(symfun.gamma_margin(lam, k))) > 0
    assert np.array_equal(bcol, whole.b_column)
    assert np.array_equal(bcol, -symfun.forcing_factor(n, k, l, F + b) * symfun.sigma(lam, l))
    assert blocked.coeff.keys() == whole.coeff.keys()
    assert len(whole.coeff) == len(basis)
    for key, field in whole.coeff.items():
        assert np.array_equal(blocked.coeff[key], field), key
    assert blocked.ellipticity_margin == whole.ellipticity_margin > 0
    # the reported cone margin is the accepted iterate's (u differs from the
    # iterate by the sup shift, which moves the FFT derivatives by roundoff)
    assert summary["gamma_margin"] == pytest.approx(gam, rel=1e-12)


def test_solve_constant_forcing_exact():
    c = 0.7
    cfg = SolverConfig(n=2, k=2, l=0, points_per_axis=16, active_axes=(0,), F=f"{c}")
    u, summary = solve(cfg)
    assert summary["iterations"] <= 2
    assert np.abs(u).max() <= 1e-12
    assert abs(summary["b"] + c) <= 1e-12
    assert summary["residual_history"][-1] <= 1e-12


def test_solve_sine_monge_ampere():
    cfg = SolverConfig(n=1, k=1, l=0, points_per_axis=16, active_axes=(0,),
                       F="0.5*sin(2*pi*x0)")
    u, summary = solve(cfg)
    assert summary["converged"]
    assert summary["residual_history"][-1] <= 1e-9
    assert u.max() == 0.0
    assert summary["gamma_margin"] > 0
    # quadratic tail
    assert summary["residual_history"][-1] / summary["residual_history"][-2] <= 0.1
    # mean-zero gauge: residual unchanged by the sup shift
    grid, om0, F = build_problem(cfg)
    R = residual(_lam(om0, u, grid), summary["b"], F, 1, 0)
    assert np.abs(R).max() <= 2e-9


def test_solve_amplitude_growth():
    osc = {}
    for A in (0.1, 0.2):
        cfg = SolverConfig(n=1, k=1, l=0, points_per_axis=16, active_axes=(0,),
                           F=f"{A}*sin(2*pi*x0)")
        u, summary = solve(cfg)
        osc[A] = float(u.max() - u.min())
    assert 0 < osc[0.1] < osc[0.2] < 1.0


def test_solve_quotient_case_with_background():
    cfg = SolverConfig(n=2, k=2, l=1, points_per_axis=16, active_axes=(0,),
                       F="0.1*sin(2*pi*x0)",
                       omega0_diag=("1 + 0.1*cos(2*pi*x0)", "1.0"))
    u, summary = solve(cfg)
    assert summary["converged"] and summary["residual_history"][-1] <= 1e-9
    assert summary["cone_condition"]["satisfied"]
    grid, om0, F = build_problem(cfg)
    assert symfun.in_gamma_k(_lam(om0, u, grid), 2).all()


def test_ellipticity_margin_is_the_cone_margin():
    # on a coupled solved state, linearize's weights are the cone condition's
    # margins at the solved normalization F + b
    k, l = 2, 1
    cfg = SolverConfig(n=2, k=k, l=l, points_per_axis=12, active_axes=(0, 5),
                       F="0.1*sin(2*pi*(x0 + x5))")
    u, summary = solve(cfg)
    grid, om0, F = build_problem(cfg)
    W = fl.omega_u(om0, u, grid)
    assert np.abs(W[..., 0, 1]).max() > 1e-3  # eigenvectors mix the axes
    lin = linearize(chi_eigh(W), summary["b"], F, grid, k, l)
    cone = fl.check_cone_condition(fl.eig_field(W), F + summary["b"], k, l)
    assert lin.ellipticity_margin == pytest.approx(cone["worst_margin"], rel=1e-12)


def test_solve_warns_on_cone_violation():
    # the cone condition fails at the starting normalization b = -mean F:
    # linearize's weights at u = 0 are its margins, so the first Newton step
    # loses ellipticity and the error names the cone condition
    cfg = SolverConfig(n=2, k=2, l=1, points_per_axis=8, active_axes=(0,),
                       F="0.8*sin(2*pi*x0)")
    with pytest.raises(ConvergenceError, match=r"lost ellipticity .*cone condition violated"):
        solve(cfg)


def test_solve_reports_one_cone_verdict():
    # the start already meets the tolerance, so the solve converges in 0
    # iterations; its one cone verdict is the check at the solved b
    cfg = SolverConfig(n=2, k=2, l=1, points_per_axis=8, active_axes=(0,),
                       F="0.8*sin(2*pi*x0)", tolerance=10.0)
    u, summary = solve(cfg)
    assert summary["iterations"] == 0 and not summary["cone_condition"]["satisfied"]
    assert summary["warnings"] == [f"cone condition violated at the solved normalization "
                                   f"(margin {summary['cone_condition']['worst_margin']:.3e})"]


def test_solve_checks_cone_condition_at_normalization():
    # a large mean is absorbed by b = -mean F before the cone check, so
    # exp(F) is never formed at the raw forcing
    cfg = SolverConfig(n=2, k=2, l=1, points_per_axis=8, active_axes=(0,),
                       F="800 + 0.1*sin(2*pi*x0)")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        u, summary = solve(cfg)
    assert summary["converged"] and summary["warnings"] == []
    assert summary["b"] == pytest.approx(-800.0, abs=0.01)
    assert summary["cone_condition"]["satisfied"]


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


def test_solve_converging_on_the_last_allowed_step():
    # configs/solve_example.json converges in 3 Newton steps; a cap of 3
    # must accept the third, and a cap of 2 must not
    path = Path(__file__).resolve().parents[1] / "configs" / "solve_example.json"
    spec = json.loads(path.read_text())
    u_ref, ref = solve(SolverConfig.from_dict(spec))
    assert ref["iterations"] == 3
    u, summary = solve(SolverConfig.from_dict({**spec, "max_iterations": 3}))
    assert summary["iterations"] == 3 and summary["residual_history"] == ref["residual_history"]
    assert summary["b"] == ref["b"] and u.tobytes() == u_ref.tobytes()
    with pytest.raises(ConvergenceError, match="no convergence in 2 iterations"):
        solve(SolverConfig.from_dict({**spec, "max_iterations": 2}))


def test_solve_fd_backend():
    cfg = SolverConfig(n=1, k=1, l=0, points_per_axis=16, active_axes=(0,),
                       F="0.5*sin(2*pi*x0)", backend="fd")
    u, summary = solve(cfg)
    assert summary["residual_history"][-1] <= 1e-9
    u_ref, _ = solve(SolverConfig(n=1, k=1, l=0, points_per_axis=16, active_axes=(0,),
                                  F="0.5*sin(2*pi*x0)", backend="spectral"))
    # both solve their own discretization; the states differ at O(h^2)
    assert np.abs(u - u_ref).max() < 5e-3


def test_solve_four_axis_linear_case():
    cfg = SolverConfig(n=1, k=1, l=0, points_per_axis=8, active_axes=(0, 1, 2, 3),
                       F="0.1*sin(2*pi*x0)")
    u, summary = solve(cfg)
    assert summary["residual_history"][-1] <= 1e-9
    assert summary["iterations"] <= 3


def test_coupled_state_self_convergence():
    # x0 and x5 belong to different quaternionic coordinates, so the iterates
    # are not diagonal and the mixed-axis Hessian and gradient tables carry
    # the solve.  Spectral b has converged to roundoff by N = 24 (7.8e-16
    # between N = 24 and 32); the fd error against it is 1.12e-2, 3.42e-3
    # and 9.16e-4 at N = 8, 16, 32, an observed order of 1.71, then 1.90.
    F = "0.3*sin(2*pi*(x0 + x5)) + 0.2*cos(2*pi*x5)"

    def run(N, backend):
        cfg = SolverConfig(n=2, k=2, l=1, points_per_axis=N, active_axes=(0, 5), F=F,
                           backend=backend)
        return cfg, solve(cfg)

    cfg, (u, summary) = run(24, "spectral")
    H = fl.quaternionic_hessian(u, cfg.grid)
    assert np.abs(H[..., 0, 1]).max() > 0.1  # an off-diagonal, coupled state
    limit = run(32, "spectral")[1][1]["b"]
    assert abs(summary["b"] - limit) <= 1e-13
    errs = [abs(run(N, "fd")[1][1]["b"] - limit) for N in (8, 16, 32)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert 1.6 <= orders[0] <= 2.1 and 1.8 <= orders[1] <= 2.1, orders


@pytest.mark.parametrize("backend", ["spectral", "fd"])
@pytest.mark.parametrize("n, axes, N, omega0_diag, wave", [
    pytest.param(2, (0, 1, 4, 5), 12, None,
                 lambda x: 0.01 * np.sin(2 * np.pi * (x[0] + x[5]))
                 + 0.005 * np.cos(2 * np.pi * (x[1] - x[4])), id="n2-ax0145"),
    pytest.param(3, (0, 5, 10), 12, None,
                 lambda x: 0.01 * np.sin(2 * np.pi * (x[0] + x[5]))
                 + 0.005 * np.cos(2 * np.pi * (x[5] - x[10])), id="n3-ax0510"),
    pytest.param(2, (0, 5), 16, ("1 + 0.2*cos(2*pi*x0)", "1.0"),
                 lambda x: 0.01 * np.sin(2 * np.pi * (x[0] + x[5]))
                 + 0.005 * np.cos(2 * np.pi * x[5]), id="n2-ax05-background"),
])
def test_manufactured_recovery(monkeypatch, backend, n, axes, N, omega0_diag, wave):
    # F read off a coupled u* with the solver's own discrete Hessian: the
    # discrete problem is solved by u* with b = 0, and solve must find both
    # (worst measured: |b| 2.2e-12 and a relative u error of 8.7e-11, n2-ax0145
    # spectral; every case within 4 Newton iterations)
    k, l = 2, 1
    cfg = SolverConfig(n=n, k=k, l=l, points_per_axis=N, active_axes=axes,
                       omega0_diag=omega0_diag, backend=backend)
    grid, om0, _ = build_problem(cfg)
    u_star = wave({a: np.broadcast_to(grid.coordinate(a), grid.shape) for a in axes})
    W = fl.omega_u(om0, u_star, grid)
    assert np.abs(W[..., 0, 1]).max() > 1e-3  # the eigenvectors mix the axes
    lam = fl.eig_field(W)
    F = np.log(symfun.sigma(lam, k) / symfun.sigma(lam, l) * math.comb(n, l) / math.comb(n, k))
    monkeypatch.setattr(solver, "build_problem", lambda _: (grid, om0, F))
    u, summary = solve(cfg)
    u_ref = normalize_sup(u_star)
    assert abs(summary["b"]) <= 1e-10
    assert np.abs(u - u_ref).max() <= 1e-8 * np.abs(u_ref).max()


def test_solution_matches_compatibility_constant():
    # 1-axis forcing: exp(b) must normalize the mean of exp(F) at top order
    cfg = SolverConfig(n=1, k=1, l=0, points_per_axis=32, active_axes=(0,),
                       F="0.3*sin(2*pi*x0)")
    u, summary = solve(cfg)
    grid, om0, F = build_problem(cfg)
    # integral of sigma_1(W_u) - e^(F+b) sigma_0 = 0 and mean(H) = 0 forces
    # mean(e^(F+b)) = sigma_1(identity) = 1
    assert integrate(np.exp(F + summary["b"])) == pytest.approx(1.0, abs=1e-10)


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


def test_gmres_stops_when_it_stagnates():
    # a tolerance below the roundoff floor is never met: once a cycle no
    # longer lowers the true residual, gmres stops instead of running maxiter
    # cycles (one cycle is longer than the system, so it reaches the floor)
    A = np.linspace(1.0, 10.0, 30)
    rhs = np.random.default_rng(7).standard_normal(30)
    x, info, iterations, relres = gmres(lambda v: A * v, rhs, lambda v: v,
                                        rtol=1e-20, atol=0.0, restart=40, maxiter=100)
    assert 0 < info <= 4 and iterations <= 4 * 30
    assert relres == np.linalg.norm(rhs - A * x) / np.linalg.norm(rhs) < 1e-15


def _newton_step_problem():
    """A variable-coefficient bordered system, which needs several inner
    iterations: (Linearization, residual) at a small coupled potential."""
    grid = TorusGrid(2, (0, 5), 8)
    om0 = np.ones(grid.shape + (grid.n,))
    F = np.zeros(grid.shape)
    x0, x5 = grid.coordinate(0), grid.coordinate(5)
    u = 0.002 * (np.sin(2 * np.pi * (x0 + x5)) + np.cos(2 * np.pi * x0))
    lin = linearize(_spectrum(om0, u, grid), 0.0, F, grid, 2, 1)
    return lin, residual(_lam(om0, u, grid), 0.0, F, 2, 1)


def test_newton_step_raises_when_gmres_does_not_converge(monkeypatch):
    lin, R = _newton_step_problem()
    step, _, record = solver._solve_newton_step(lin, R, 1e-12)
    assert np.isfinite(step).all()
    assert record["rtol"] == 1e-12 and record["relative_residual"] <= 1e-12
    assert record["arnoldi_steps"] > 2
    # one cycle of two Arnoldi steps exhausts the budget
    monkeypatch.setattr(solver, "_LINEAR_RESTART", 2)
    monkeypatch.setattr(solver, "_LINEAR_MAXITER", 1)
    with pytest.raises(ConvergenceError, match=r"did not converge: 2 GMRES iterations, "
                                               r"relative residual \d"):
        solver._solve_newton_step(lin, R, 1e-12)


def _stagnating_gmres(monkeypatch):
    """Make every GMRES solve ask for more than roundoff allows, so it stagnates."""
    real = solver.gmres
    monkeypatch.setattr(solver, "gmres",
                        lambda *args, **kw: real(*args, **{**kw, "rtol": 1e-20, "atol": 0.0}))


def test_newton_step_names_a_stagnated_linear_solve(monkeypatch):
    lin, R = _newton_step_problem()
    _stagnating_gmres(monkeypatch)
    with pytest.raises(ConvergenceError, match=r"stagnated after \d+ restart cycles: "
                                               r"\d+ GMRES iterations"):
        solver._solve_newton_step(lin, R, 1e-12)


def test_solve_names_the_iteration_of_a_failed_linear_solve(monkeypatch):
    # a failed inner solve names its Newton iteration, as the line search does
    _stagnating_gmres(monkeypatch)
    cfg = SolverConfig(n=2, k=2, l=1, points_per_axis=8, active_axes=(0, 5),
                       F="0.1*sin(2*pi*(x0 + x5))")
    with pytest.raises(ConvergenceError, match=r"^aborted at iteration 1: inner linear solve "
                                               r"stagnated after \d+ restart cycles: "):
        solve(cfg)


def test_linear_solves_stop_at_the_accuracy_the_outer_test_needs():
    # inexact Newton: step i asks GMRES for max(1e-12, 0.1 tolerance / |R_i|)
    cfg = SolverConfig(n=2, k=2, l=1, points_per_axis=16, active_axes=(0, 5),
                       F="0.1*sin(2*pi*(x0 + x5))")
    u, summary = solve(cfg)
    hist, records = summary["residual_history"], summary["linear_solves"]
    assert len(records) == summary["iterations"] == len(hist) - 1
    for r, rec in zip(hist, records):
        assert rec["rtol"] == max(1e-12, 0.1 * cfg.tolerance / r)
        assert 0 < rec["arnoldi_steps"] and rec["relative_residual"] <= rec["rtol"]
    assert records[-1]["rtol"] > 1e-6  # the last step needs only a few digits


@pytest.mark.parametrize("spec", [
    # at a fixed 1e-12 inner tolerance both exhausted GMRES on a roundoff floor
    pytest.param(dict(n=1, k=1, l=0, points_per_axis=256, active_axes=(0, 1),
                      F="0.3*sin(2*pi*(x0 + x1))"), id="n1k1l0-N256"),
    pytest.param(dict(n=2, k=2, l=1, points_per_axis=192, active_axes=(0, 5),
                      F="0.3*sin(2*pi*(x0 + x5)) + 0.2*cos(2*pi*x5)"), id="n2k2l1-N192"),
])
def test_fine_two_axis_grids_converge(spec):
    u, summary = solve(SolverConfig(**spec))
    assert summary["converged"] and summary["final_residual"] <= 1e-9
    assert summary["gamma_margin"] > 0


# b and u.flat[::u.size // 7] of solves with every inner tolerance at 1e-12
# (one BLAS thread): the inexact inner solves must keep both within 1e-10,
# a tenth of the outer tolerance
_PINNED_STATES = {
    "coupled-4axis": (
        dict(n=2, k=2, l=1, points_per_axis=16, active_axes=[0, 1, 4, 5],
             F="0.1*sin(2*pi*(x0 + x5)) + 0.05*cos(2*pi*(x1 - x4))"),
        -0.009367714443660404,
        [-0.009596797445409505, -0.01112213328357193, -0.004706855698537738,
         -0.0037225504652514253, -0.01089088027252169, -0.009188800866926491,
         -0.004201720883842002, -0.00476452851932942]),
    "solve_example.json": (
        "solve_example.json",
        -0.007458279905797874,
        [-0.009699921464035505, -0.017003195524934483, -0.02015101212504554,
         -0.017003195524934487, -0.005906780538531624, -0.0007149653217865346,
         -0.0007149653217865329, -0.005906780538531619]),
    "solve_monge_ampere_4axis.json": (
        "solve_monge_ampere_4axis.json",
        -0.0024984392290137132,
        [-0.004996750877548282, -0.00860596667903319, -0.010119942511272162,
         -0.00860596667903319, -0.00306994633577337, -0.0003760340297331091,
         -0.0003760340297331074, -0.003069946335773367]),
}


@pytest.mark.parametrize("name", list(_PINNED_STATES))
def test_solved_states_match_their_pins(name):
    spec, b, samples = _PINNED_STATES[name]
    if isinstance(spec, str):
        path = Path(__file__).resolve().parents[1] / "configs" / spec
        spec = json.loads(path.read_text())
    u, summary = solve(SolverConfig.from_dict(spec))
    assert abs(summary["b"] - b) <= 1e-10
    np.testing.assert_allclose(u.flat[:: u.size // 7], samples, rtol=0, atol=1e-10)
