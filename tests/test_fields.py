import math

import numpy as np
import pytest
import scipy.linalg

from hquot import fields as fl, quaternion as qt, symfun
from hquot.errors import ConeError
from hquot.grid import (
    TorusGrid,
    first_derivative,
    integrate,
    load_scalar_field,
    save_scalar_field,
    second_derivative,
)


def _field(grid, axis, fn):
    return np.broadcast_to(fn(grid.coordinate(axis)), grid.shape).copy()


def _sigma(W, k):
    """Pointwise sigma_k of a matrix field's eigenvalues."""
    return symfun.sigma(fl.eig_field(W), k)


def _unitary(rng, n):
    return qt.QMatrix(qt.random_symplectic_unitary_chi(rng, n), tol=1e-8)


def _hyperhermitian(rng, n):
    return qt.QMatrix(qt.random_hyperhermitian_chi(rng, n), validate=False)


def _assert_hyperhermitian(W):
    assert np.abs(W - np.swapaxes(W, -1, -2).conj()).max() < 1e-10
    assert qt.structure_residual(W) < 1e-10


# ---------------------------------------------------------------------------
# grid and derivatives
# ---------------------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid(1, (0,), 5)  # odd N
    with pytest.raises(ValueError):
        TorusGrid(1, (0, 1, 2, 3, 0), 8)
    with pytest.raises(ValueError):
        TorusGrid(1, (4,), 8)  # out of range for n=1
    g = TorusGrid(2, (0, 4), 8)
    assert g.shape == (8, 8)
    assert g.spacing == 0.125
    assert g.axis_position(4) == 1
    assert g.axis_position(2) is None


@pytest.mark.parametrize("args, field", [
    pytest.param((2, (0, 5.7), 8), "active_axes", id="fractional-axis"),
    pytest.param((2, (0, True), 8), "active_axes", id="bool-axis"),
    pytest.param((2.0, (0,), 8), "n", id="float-n"),
    pytest.param((True, (0,), 8), "n", id="bool-n"),
    pytest.param((2, (0,), 8.0), "points_per_axis", id="float-points"),
])
def test_grid_rejects_non_integers(args, field):
    # no silent truncation: (0, 5.7) is not the grid on axes (0, 5)
    with pytest.raises(ValueError, match=f"^{field} must be"):
        TorusGrid(*args)


def test_first_derivative_backends():
    g = TorusGrid(1, (0,), 32)
    x = _field(g, 0, lambda t: t)
    u = np.sin(2 * np.pi * x)
    exact = 2 * np.pi * np.cos(2 * np.pi * x)
    assert np.abs(first_derivative(u, g, 0, "spectral") - exact).max() < 1e-11
    assert np.abs(first_derivative(u, g, 0, "fd") - exact).max() < 0.05
    assert np.array_equal(first_derivative(u, g, 1, "spectral"), np.zeros_like(u))


def test_second_derivative_symmetry():
    g = TorusGrid(2, (0, 4), 16)
    u = _field(g, 0, lambda t: np.sin(2 * np.pi * t)) * _field(g, 4, lambda t: np.cos(4 * np.pi * t))
    for backend in ("spectral", "fd"):
        a = second_derivative(u, g, 0, 4, backend)
        b = second_derivative(u, g, 4, 0, backend)
        assert np.array_equal(a, b)


def test_integrate_exact_values():
    g = TorusGrid(1, (0,), 16)
    u = _field(g, 0, lambda t: np.sin(2 * np.pi * t))
    assert integrate(np.ones(g.shape), g) == 1.0
    assert abs(integrate(u, g)) < 1e-12
    assert integrate(u**2, g) == pytest.approx(0.5, abs=1e-12)


def test_scalar_field_roundtrip(tmp_path):
    g = TorusGrid(2, (0, 4), 8)
    rng = np.random.default_rng(0)
    u = rng.normal(size=g.shape)
    path = tmp_path / "u.csv"
    save_scalar_field(path, u, g)
    v, g2 = load_scalar_field(path)
    assert g2 == g
    assert np.array_equal(u, v)


def test_malformed_field_file(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# not a field\n")
    with pytest.raises(ValueError):
        load_scalar_field(path)
    g = TorusGrid(1, (0,), 4)
    save_scalar_field(path, np.zeros(g.shape), g)
    text = path.read_text().splitlines()
    path.write_text("\n".join(text[:-1]) + "\n")  # truncate one value
    with pytest.raises(ValueError):
        load_scalar_field(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_field_value_names_its_line(tmp_path, value):
    g = TorusGrid(1, (0,), 4)
    path = tmp_path / "u.csv"
    save_scalar_field(path, np.zeros(g.shape), g)
    lines = path.read_text().splitlines()
    lines[4] = value
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"line 5: non-finite value '{value}'"):
        load_scalar_field(path)


# ---------------------------------------------------------------------------
# quaternionic Hessian
# ---------------------------------------------------------------------------


def test_hessian_of_constant_vanishes():
    g = TorusGrid(2, (0, 4), 8)
    H = fl.quaternionic_hessian(np.full(g.shape, 3.7), g)
    assert np.abs(H).max() < 1e-12


def test_hessian_quadratic_patch():
    # band-limited surrogate of |q_a|^2: each component contributes
    # (1 - cos(2 pi x)) / (2 pi^2), whose Hessian at the origin matches the
    # true quadratic; the spectral backend is exact on it.
    for n, coord in ((1, 0), (2, 1)):
        g = TorusGrid(n, tuple(range(4 * coord, 4 * coord + 4)), 8)
        u = np.zeros(g.shape)
        for axis in g.active_axes:
            u = u + _field(g, axis, lambda t: (1 - np.cos(2 * np.pi * t)) / (2 * np.pi**2))
        H = fl.quaternionic_hessian(u, g, "spectral")
        origin = (0,) * g.dim
        expected = np.zeros((2 * n, 2 * n))
        expected[coord, coord] = 4.0
        expected[n + coord, n + coord] = 4.0
        assert np.abs(H[origin] - expected).max() < 1e-12


def test_hessian_fd_exact_on_true_quadratic():
    # central differences are exact on degree-2 polynomials; evaluate the
    # second-difference stencil of |q|^2 directly at an interior point
    h = 0.01
    x0 = np.array([0.31, -0.2, 0.11, 0.07])
    quad = lambda x: float(x @ x)
    hess = np.zeros((4, 4))
    for a in range(4):
        for b in range(4):
            if a == b:
                ea = np.eye(4)[a]
                hess[a, b] = (quad(x0 + h * ea) - 2 * quad(x0) + quad(x0 - h * ea)) / h**2
            else:
                ea, eb = np.eye(4)[a], np.eye(4)[b]
                hess[a, b] = (
                    quad(x0 + h * ea + h * eb)
                    - quad(x0 + h * ea - h * eb)
                    - quad(x0 - h * ea + h * eb)
                    + quad(x0 - h * ea - h * eb)
                ) / (4 * h**2)
    assert np.allclose(hess, 2 * np.eye(4), atol=1e-9)
    # the quaternionic assembly halves the real trace: diagonal slot = 4


def test_hessian_sine_trace():
    g = TorusGrid(1, (0,), 16)
    u = _field(g, 0, lambda t: np.sin(2 * np.pi * t))
    H = fl.quaternionic_hessian(u, g, "spectral")
    s1 = _sigma(H, 1)
    assert np.abs(s1 - (-2 * np.pi**2) * u).max() < 1e-10
    _assert_hyperhermitian(H)


def test_hessian_backend_convergence_order():
    errs = []
    for N in (8, 16, 32):
        g = TorusGrid(2, (0, 4), N)
        u = _field(g, 0, lambda t: np.sin(2 * np.pi * t)) + _field(
            g, 4, lambda t: np.cos(2 * np.pi * t)
        )
        Hs = fl.quaternionic_hessian(u, g, "spectral")
        Hf = fl.quaternionic_hessian(u, g, "fd")
        errs.append(np.abs(Hs - Hf).max())
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(abs(o - 2.0) <= 0.1 for o in orders)


def test_hessian_off_diagonal_coupling():
    # axes from different quaternionic coordinates produce off-diagonal entries
    g = TorusGrid(2, (0, 5), 12)
    u = _field(g, 0, lambda t: np.sin(2 * np.pi * t)) * _field(g, 5, lambda t: np.sin(2 * np.pi * t))
    H = fl.quaternionic_hessian(u, g, "spectral")
    assert np.abs(H[..., 0, 1]).max() > 1.0
    _assert_hyperhermitian(H)


UNITS = (qt.Quaternion(1.0), qt.I, qt.J, qt.K)  # e_c, unit of real coordinate 4a + c


def _band_limited(axes):
    """A band-limited u on three active axes (n = 3, N = 8), with its Fourier
    modes [(amplitude, 4n-vector of frequencies)] and their phases, so that
    u = sum amp * sin(phase) and partials are exact."""
    n = 3
    g = TorusGrid(n, axes, 8)
    modes = []
    for amp, m in ((0.7, (1, 2, 0)), (-0.4, (0, 1, -1)), (0.3, (1, 0, 1)), (0.2, (2, -1, 1))):
        mm = np.zeros(4 * n)
        mm[list(axes)] = m
        modes.append((amp, mm))
    x = [np.broadcast_to(g.coordinate(a), g.shape) for a in axes]
    phase = [2 * np.pi * sum(m[a] * x[i] for i, a in enumerate(axes)) for _, m in modes]
    u = sum(amp * np.sin(ph) for (amp, _), ph in zip(modes, phase))
    return g, u, modes, phase


def _sample_points():
    return map(tuple, np.random.default_rng(11).integers(0, 8, size=(6, 3)))


@pytest.mark.parametrize("axes", [(2, 7, 11), (3, 6, 9)], ids=["ax2711", "ax369"])
def test_hessian_entries_match_defining_formula(axes):
    # H_ab = 1/2 sum_{c,d} e_c conj(e_d) d2u/dx_{4a+c} dx_{4b+d}, evaluated per
    # point with explicit quaternion units from the exact second partials of
    # a band-limited u; cross-coordinate axes reach the j and k components.
    g, u, modes, phase = _band_limited(axes)
    n = g.n
    H = fl.quaternionic_hessian(u, g, "spectral")
    assert np.array_equal(H, np.swapaxes(H, -1, -2).conj())
    for pt in _sample_points():
        d2 = np.zeros((4 * n, 4 * n))  # exact d2u/dx_P dx_Q at the point
        for (amp, mm), ph in zip(modes, phase):
            d2 += -amp * 4 * np.pi**2 * np.sin(ph[pt]) * np.outer(mm, mm)
        got = qt.QMatrix(H[pt])
        for a in range(n):
            for b in range(n):
                want = qt.Quaternion()
                for c in range(4):
                    for d in range(4):
                        unit = UNITS[c] * UNITS[d].conjugate()
                        want = want + 0.5 * d2[4 * a + c, 4 * b + d] * unit
                assert got.entry(a, b).isclose(want, tol=1e-9), (pt, a, b)


@pytest.mark.parametrize("axes", [(2, 7, 11), (3, 6, 9)], ids=["ax2711", "ax369"])
def test_gradient_entries_match_defining_formula(axes):
    # v_b = 2^(-1/2) sum_c conj(e_c) du/dx_{4b+c}, evaluated per point with
    # explicit quaternion units from the exact first partials.  v_b = X + Y j
    # is stored as column 0 of its embedding: X in slot b, -conj(Y) in n + b.
    g, u, modes, phase = _band_limited(axes)
    n = g.n
    v = fl.gradient_coefficients(u, g, "spectral")
    for pt in _sample_points():
        d1 = np.zeros(4 * n)  # exact du/dx_P at the point
        for (amp, mm), ph in zip(modes, phase):
            d1 += amp * 2 * np.pi * np.cos(ph[pt]) * mm
        for b in range(n):
            want = qt.Quaternion()
            for c in range(4):
                want = want + (d1[4 * b + c] / np.sqrt(2.0)) * UNITS[c].conjugate()
            got = qt.Quaternion.from_complex_pair(v[pt][b], -np.conj(v[pt][n + b]))
            assert got.isclose(want, tol=1e-9), (pt, b)


def test_hessian_basis_leaves_out_single_coordinate_mixed_pairs():
    g = TorusGrid(2, (0, 1, 4, 5), 8)
    pairs = [(P, Q) for P, Q, _ in fl.hessian_basis(g)]
    assert pairs == [(0, 0), (0, 4), (0, 5), (1, 1), (1, 4), (1, 5), (4, 4), (5, 5)]
    for P, Q, B in fl.hessian_basis(g):
        assert np.array_equal(B, B.conj().T)
        assert qt.structure_residual(B) == 0.0


def test_gradient_matches_scalar_derivatives():
    g = TorusGrid(1, (0, 1), 16)
    u = _field(g, 0, lambda t: np.sin(2 * np.pi * t)) + _field(g, 1, lambda t: np.cos(4 * np.pi * t))
    v = fl.gradient_coefficients(u, g)
    d0 = first_derivative(u, g, 0)
    d1 = first_derivative(u, g, 1)
    assert np.abs(v[..., 0] - (d0 - 1j * d1) / np.sqrt(2)).max() < 1e-12
    assert np.abs(v[..., 1]).max() < 1e-12
    gradsq = np.einsum("...p,...p->...", v.conj(), v).real
    assert np.abs(gradsq - 0.5 * (d0**2 + d1**2)).max() < 1e-12


def test_omega_u_affine():
    g = TorusGrid(1, (0,), 8)
    u = _field(g, 0, lambda t: np.sin(2 * np.pi * t))
    om0 = fl.identity_form(g)
    assert np.array_equal(fl.omega_u(om0, np.zeros(g.shape), g), om0)
    assert np.array_equal(fl.omega_u(om0, u, g), om0 + fl.quaternionic_hessian(u, g))


# ---------------------------------------------------------------------------
# sigma fields and cones
# ---------------------------------------------------------------------------


def test_sigma_field_identity():
    g = TorusGrid(3, (0,), 8)
    om = fl.identity_form(g)
    for k in range(4):
        assert np.array_equal(_sigma(om, k), np.full(g.shape, float(math.comb(3, k))))


def test_sigma_field_matches_pointwise_oracle():
    g = TorusGrid(2, (0,), 8)
    rng = np.random.default_rng(3)
    W = np.zeros(g.shape + (4, 4), dtype=complex)
    mats = []
    for i in range(8):
        A = _hyperhermitian(rng, 2)
        mats.append(A)
        W[i] = A.chi
    s2 = _sigma(W, 2)
    for i in range(8):
        assert s2[i] == pytest.approx(qt.sigma_k_matrix(mats[i], 2), rel=1e-10, abs=1e-12)


def test_gamma_field_report():
    g = TorusGrid(3, (0,), 8)
    om = fl.identity_form(g)
    rep = fl.in_gamma_k_field(fl.eig_field(om), 2)
    assert rep.ok and rep.worst_margin == 3.0
    W = om.copy()
    W[..., 0, 0] -= 2.0
    W[..., 3, 3] -= 2.0  # embedding pair of slot 0
    rep2 = fl.in_gamma_k_field(fl.eig_field(W), 2)
    assert not rep2.ok  # eigenvalues (-1, 1, 1): sigma_2 = -1


def test_measure_epsilon_identity_background():
    g = TorusGrid(2, (0,), 8)
    om = fl.identity_form(g)
    eps = fl.measure_epsilon(fl.eig_field(om), 2)
    assert eps == pytest.approx(0.995, abs=1e-6)


def test_cone_condition_binomial_threshold():
    # identity background, constant F: holds iff
    # C(n-1,k-1) > C(n,k)/C(n,l) e^F C(n-1,l-1)
    n, k, l = 3, 2, 1
    g = TorusGrid(n, (0,), 8)
    om = fl.identity_form(g)
    thresh = math.log(
        math.comb(n - 1, k - 1) * math.comb(n, l) / (math.comb(n - 1, l - 1) * math.comb(n, k))
    )
    lam = fl.eig_field(om)
    ok = fl.check_cone_condition(lam, np.full(g.shape, thresh - 0.1), k, l)
    bad = fl.check_cone_condition(lam, np.full(g.shape, thresh + 0.1), k, l)
    assert ok.satisfied and not bad.satisfied


def test_cone_condition_l_zero_always_holds():
    g = TorusGrid(2, (0,), 8)
    om = fl.identity_form(g)
    rep = fl.check_cone_condition(fl.eig_field(om), np.full(g.shape, 25.0), 2, 0)
    assert rep.satisfied


def test_cone_condition_locates_single_point_violation():
    n, k, l = 2, 2, 1
    g = TorusGrid(n, (0,), 8)
    om = fl.identity_form(g)
    diag = np.ones(g.shape)
    diag[5] = 0.35  # sigma_1(.|j) dips below Ft at one point
    W = om.copy()
    W[..., 0, 0] = diag
    W[..., 2, 2] = diag
    rep = fl.check_cone_condition(fl.eig_field(W), np.zeros(g.shape), k, l)
    assert not rep.satisfied
    assert rep.where == (5,)


def test_cone_condition_requires_cone_background():
    g = TorusGrid(2, (0,), 8)
    W = fl.identity_form(g)
    W[..., 0, 0] = -3.0
    W[..., 2, 2] = -3.0
    with pytest.raises(ConeError):
        fl.check_cone_condition(fl.eig_field(W), np.zeros(g.shape), 2, 1)


# ---------------------------------------------------------------------------
# simultaneous diagonalization and pairings
# ---------------------------------------------------------------------------


def test_simultaneous_diagonalize_equal_forms():
    rng = np.random.default_rng(5)
    lam = np.abs(rng.normal(size=3)) + 0.2
    V = _unitary(rng, 3)
    M = (V.conj_transpose() @ qt.QMatrix.diag(lam) @ V).chi
    C, d1, d2 = fl.simultaneous_diagonalize(M, M)
    assert np.allclose(d1, np.ones(3), atol=1e-10)
    assert np.allclose(d2, np.ones(3), atol=1e-10)


def test_simultaneous_diagonalize_identity_first():
    rng = np.random.default_rng(7)
    A = _hyperhermitian(rng, 3)
    C, d1, d2 = fl.simultaneous_diagonalize(np.eye(6, dtype=complex), A.chi)
    assert np.allclose(d1, np.ones(3), atol=1e-10)
    assert np.allclose(np.sort(d2), qt.eigenvalues(A), atol=1e-9)


def test_simultaneous_diagonalize_random_pair():
    rng = np.random.default_rng(9)
    lam = np.abs(rng.normal(size=3)) + 0.3
    V = _unitary(rng, 3)
    M1 = (V.conj_transpose() @ qt.QMatrix.diag(lam) @ V).chi
    M2 = qt.random_hyperhermitian_chi(rng, 3)
    C, d1, d2 = fl.simultaneous_diagonalize(M1, M2)
    assert np.allclose(d1, np.ones(3), atol=1e-9)
    assert qt.structure_residual(C) < 1e-9
    # generalized eigenvalue oracle
    w = scipy.linalg.eigh(M2, M1, eigvals_only=True)
    assert np.allclose(np.sort(d2), w[::2], atol=1e-8)
    r1 = C.conj().T @ M1 @ C
    r2 = C.conj().T @ M2 @ C
    assert np.abs(r1 - np.eye(6)).max() < 1e-9
    assert np.abs(r2 - np.diag(np.diag(r2))).max() < 1e-9


def test_simultaneous_diagonalize_requires_positive_first():
    g = np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)
    with pytest.raises(ConeError):
        fl.simultaneous_diagonalize(g, np.eye(4, dtype=complex))


def test_wedge_minor_coeff():
    # sigma_{i-1}(lam | l): the coefficient relating W^(i-1) ^ Omega^(n-i) ^
    # (slot-l area element) to (i-1)! (n-i)! Omega^n in the diagonal frame
    lam = np.ones(4)
    for i in range(1, 5):
        assert symfun.sigma_excl_all(lam, i - 1)[2] == math.comb(3, i - 1)
    assert symfun.sigma_excl_all(np.array([1.0, 2.0, 3.0]), 0)[0] == 1.0
    rng = np.random.default_rng(11)
    mu = rng.normal(size=5)
    for i in (1, 3, 5):
        for l in range(5):
            assert symfun.sigma_excl_all(mu, i - 1)[l] == pytest.approx(
                symfun.sigma(np.delete(mu, l), i - 1), rel=1e-11, abs=1e-12
            )


def test_gradient_pairing_constant_and_identity():
    g = TorusGrid(3, (0,), 16)
    spectrum = qt.chi_eigh(fl.identity_form(g))
    const = fl.gradient_coefficients(np.full(g.shape, 2.0), g)
    for i in (1, 2, 3):
        assert np.abs(fl.gradient_pairing(const, spectrum, i)).max() < 1e-20
    u = _field(g, 0, lambda t: np.sin(2 * np.pi * t))
    v = fl.gradient_coefficients(u, g)
    gradsq = np.einsum("...p,...p->...", v.conj(), v).real
    for i in (1, 2, 3):
        gp = fl.gradient_pairing(v, spectrum, i)
        # identity weights: (i-1)!(n-i)!/n! * C(n-1,i-1) * |grad|^2-half = |.|^2/n
        assert np.abs(gp - gradsq / 3).max() < 1e-12


def test_projected_pairing_matches_newton_transform():
    # c_i sum_j |(V^H v)_j|^2 sigma_{i-1}(lam|j) = c_i v^H S_{i-1}(W) v, also for
    # the mixed pairing and at W = Id (fully degenerate eigenvalues)
    rng = np.random.default_rng(5)
    for n in (2, 3):
        for axes in ((0, 5), (0, 1, 2, 3)):
            g = TorusGrid(n, axes, 8)
            x = {axis: _field(g, axis, lambda t: t) for axis in axes}
            u = 0.03 * np.cos(2 * np.pi * (x[axes[0]] + x[axes[1]]))
            for axis in axes:
                u = u + 0.05 * np.sin(2 * np.pi * x[axis] + axis)
            grad = fl.gradient_coefficients(u, g)
            alpha = rng.normal(size=grad.shape) + 1j * rng.normal(size=grad.shape)
            identity = fl.identity_form(g)
            for W in (identity, fl.omega_u(identity, u, g)):
                spectrum = qt.chi_eigh(W)
                for i in range(1, n + 1):
                    c = math.factorial(i - 1) * math.factorial(n - i) / math.factorial(n)
                    S = fl.newton_transform_field(W, i - 1)
                    for a, got in ((grad, fl.gradient_pairing(grad, spectrum, i)),
                                   (alpha, fl.gradient_alpha_pairing(grad, alpha, spectrum, i))):
                        ref = c * np.einsum("...p,...pq,...q->...", grad.conj(), S, a)
                        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_mixed_pairing_bound():
    # |mixed pairing| <= (C/d) grad-pairing + C d sigma_{i-1}(W)/C(n,i-1),
    # C = max(1/2, max |alpha|^2 / 2): the two-term bound from Cauchy-Schwarz
    # and Young, checked pointwise for several d
    rng = np.random.default_rng(13)
    n, i = 3, 2
    g = TorusGrid(n, (0, 4), 8)
    u = _field(g, 0, lambda t: np.sin(2 * np.pi * t)) * _field(
        g, 4, lambda t: 1 + 0.3 * np.cos(2 * np.pi * t)
    )
    base = fl.identity_form(g)
    W = base.copy()
    W[..., 0, 0] += 0.4 * _field(g, 0, lambda t: np.sin(4 * np.pi * t))
    W[..., n, n] = W[..., 0, 0]
    spectrum = qt.chi_eigh(W)
    assert fl.in_gamma_k_field(spectrum[0], i).ok
    grad = fl.gradient_coefficients(u, g)
    alpha = rng.normal(size=g.shape + (2 * n,)) + 1j * rng.normal(size=g.shape + (2 * n,))
    lhs = np.abs(fl.gradient_alpha_pairing(grad, alpha, spectrum, i))
    gp = fl.gradient_pairing(grad, spectrum, i)
    wr = _sigma(W, i - 1) / math.comb(n, i - 1)
    amax = np.abs(alpha).max()
    C = max(0.5, amax**2 / 2)
    for d in (0.1, 1.0, 10.0):
        rhs = (C / d) * gp + C * d * wr
        assert (rhs - lhs).min() > -1e-12 * (1 + rhs.max())


def test_integration_by_parts_adjoint():
    g = TorusGrid(1, (0,), 32)
    u = _field(g, 0, lambda t: np.sin(2 * np.pi * t))
    w = _field(g, 0, lambda t: np.cos(2 * np.pi * t) + 0.3 * np.sin(4 * np.pi * t))
    H = fl.quaternionic_hessian(u, g)
    gu = fl.gradient_coefficients(u, g)
    gw = fl.gradient_coefficients(w, g)
    lhs = integrate(w * _sigma(H, 1), g)
    rhs = -integrate(np.einsum("...p,...p->...", gw.conj(), gu).real, g)
    assert abs(lhs - rhs) < 1e-8


def test_weighted_integration_by_parts():
    # moving the derivative onto the weight: int e^(-pu) sigma_1(H(u)) =
    # p int e^(-pu) sum |v(u)|^2 on the boundary-free torus
    g = TorusGrid(1, (0,), 32)
    u = 0.3 * _field(g, 0, lambda t: np.sin(2 * np.pi * t))
    gu = fl.gradient_coefficients(u, g)
    H = fl.quaternionic_hessian(u, g)
    for p in (2.0, 5.0):
        weight = np.exp(-p * u)
        lhs = integrate(weight * _sigma(H, 1), g)
        rhs = p * integrate(weight * np.einsum("...p,...p->...", gu.conj(), gu).real, g)
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))


def test_simultaneous_diagonalize_degenerate_second_form():
    rng = np.random.default_rng(21)
    lam1 = np.abs(rng.normal(size=3)) + 0.5
    V = _unitary(rng, 3)
    M1 = (V.conj_transpose() @ qt.QMatrix.diag(lam1) @ V).chi
    W = _unitary(rng, 3)
    M2 = (W.conj_transpose() @ qt.QMatrix.diag([2.0, 2.0, -1.0]) @ W).chi
    C, d1, d2 = fl.simultaneous_diagonalize(M1, M2)
    r2 = C.conj().T @ M2 @ C
    assert np.abs(r2 - np.diag(np.diag(r2))).max() < 1e-9
