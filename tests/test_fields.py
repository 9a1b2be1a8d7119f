import itertools
import math
import re

import numpy as np
import pytest

from hquot import fields as fl, quaternion as qt, symfun
from hquot.errors import ConeError, StructureError
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


def _eye(grid):
    """The identity background as a full matrix field."""
    m = 2 * grid.n
    return np.broadcast_to(np.eye(m, dtype=complex), grid.shape + (m, m)).copy()


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


def test_grid_rejects_unknown_backend():
    with pytest.raises(ValueError, match="^backend must be"):
        TorusGrid(1, (0,), 8, "bogus")


def test_first_derivative_backends():
    g = TorusGrid(1, (0,), 32)
    x = _field(g, 0, lambda t: t)
    u = np.sin(2 * np.pi * x)
    exact = 2 * np.pi * np.cos(2 * np.pi * x)
    assert np.abs(first_derivative(u, g, 0) - exact).max() < 1e-11
    assert np.abs(first_derivative(u, TorusGrid(1, (0,), 32, "fd"), 0) - exact).max() < 0.05
    assert np.array_equal(first_derivative(u, g, 1), np.zeros_like(u))


def test_second_derivative_symmetry():
    g = TorusGrid(2, (0, 4), 16)
    u = _field(g, 0, lambda t: np.sin(2 * np.pi * t)) * _field(g, 4, lambda t: np.cos(4 * np.pi * t))
    for backend in ("spectral", "fd"):
        gb = TorusGrid(2, (0, 4), 16, backend)
        a = second_derivative(u, gb, 0, 4)
        b = second_derivative(u, gb, 4, 0)
        assert np.array_equal(a, b)


def _complex_fft_derivative(u, pos, order):
    """Reference derivative along array axis pos: the full complex FFT, the
    multiplier ik (Nyquist zeroed) or -k^2, the inverse, the real part."""
    N = u.shape[pos]
    k = 2.0 * np.pi * np.fft.fftfreq(N, d=1.0 / N)
    if order == 1:
        k[N // 2] = 0.0
    s = 1j * k if order == 1 else -(k**2)
    shape = [1] * u.ndim
    shape[pos] = N
    return np.fft.ifft(np.fft.fft(u, axis=pos) * s.reshape(shape), axis=pos).real


@pytest.mark.parametrize("axes,N", [((0,), 16), ((0, 5), 16), ((0, 1, 4), 8), ((0, 1, 4, 5), 8)])
def test_spectral_derivatives_match_complex_fft(axes, N):
    # white noise carries the Nyquist mode; the real half-spectrum transform
    # must give the full complex transform's derivatives on every axis
    grid = TorusGrid(2, axes, N)
    u = np.random.default_rng(len(axes)).normal(size=grid.shape)
    for i, P in enumerate(axes):
        pos = grid.axis_position(P)
        d1 = _complex_fft_derivative(u, pos, 1)
        pairs = [(first_derivative(u, grid, P), d1),
                 (second_derivative(u, grid, P, P), _complex_fft_derivative(u, pos, 2))]
        for Q in axes[i + 1:]:
            mixed = _complex_fft_derivative(d1, grid.axis_position(Q), 1)
            pairs.append((second_derivative(u, grid, Q, P), mixed))
        for got, ref in pairs:
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_integrate_exact_values():
    g = TorusGrid(1, (0,), 16)
    u = _field(g, 0, lambda t: np.sin(2 * np.pi * t))
    assert integrate(np.ones(g.shape)) == 1.0
    assert abs(integrate(u)) < 1e-12
    assert integrate(u**2) == pytest.approx(0.5, abs=1e-12)


def test_scalar_field_roundtrip(tmp_path):
    g = TorusGrid(2, (0, 4), 8)
    rng = np.random.default_rng(0)
    u = rng.normal(size=g.shape)
    path = tmp_path / "u.csv"
    save_scalar_field(path, u, g)
    v = load_scalar_field(path, g)
    assert np.array_equal(u, v)


def _write_v1(path, u, grid):
    """The v1 snapshot format, value by value: two header lines, then one
    shortest-roundtrip decimal per line in C order."""
    axes = ",".join(str(a) for a in grid.active_axes)
    with open(path, "w") as fh:
        fh.write(f"# hquot scalar field v1\n# n={grid.n} N={grid.points_per_axis} axes={axes}\n")
        for v in u.ravel(order="C"):
            fh.write(repr(float(v)) + "\n")


def test_scalar_field_bytes_match_the_v1_format(tmp_path):
    g = TorusGrid(2, (0, 1, 4), 8)
    rng = np.random.default_rng(5)
    u = rng.normal(size=g.shape) * 10.0 ** rng.integers(-300, 300, size=g.shape)
    u.flat[:6] = [0.0, -0.0, 5e-324, -1.7976931348623157e308, 1.0, 0.1]
    save_scalar_field(tmp_path / "u.csv", u, g)
    _write_v1(tmp_path / "ref.csv", u, g)
    assert (tmp_path / "u.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("other", [
    pytest.param(TorusGrid(3, (0, 4), 8), id="n"),
    pytest.param(TorusGrid(2, (0, 4), 16), id="N"),
    pytest.param(TorusGrid(2, (0, 5), 8), id="axes"),
])
def test_field_header_must_match_grid(tmp_path, other):
    # a field is read against its grid; the scheme is not part of the file
    g = TorusGrid(2, (0, 4), 8)
    path = tmp_path / "u.csv"
    u = np.arange(64.0).reshape(g.shape)
    save_scalar_field(path, u, g)
    assert np.array_equal(load_scalar_field(path, TorusGrid(2, (0, 4), 8, "fd")), u)
    with pytest.raises(ValueError, match="does not match the grid's"):
        load_scalar_field(path, other)


def test_malformed_field_file(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# not a field\n")
    g = TorusGrid(1, (0,), 4)
    with pytest.raises(ValueError):
        load_scalar_field(path, g)
    save_scalar_field(path, np.zeros(g.shape), g)
    text = path.read_text().splitlines()
    path.write_text("\n".join(text[:-1]) + "\n")  # truncate one value
    with pytest.raises(ValueError):
        load_scalar_field(path, g)
    path.write_text("\n".join(text[:-2] + ["1.0 2.0"]) + "\n")  # two values on a line
    with pytest.raises(ValueError):
        load_scalar_field(path, g)
    path.write_text("\n".join(text[:2] + ["0.0 0.0"] * 2) + "\n")  # on every line
    with pytest.raises(ValueError, match="2 values on every line"):
        load_scalar_field(path, g)
    # blank and whitespace-only lines are skipped
    path.write_text("\n".join(text[:3] + ["", "  \t"] + text[3:]) + "\n")
    assert np.array_equal(load_scalar_field(path, g), np.zeros(g.shape))


@pytest.mark.parametrize("bad", ["abc", "1,2", "1.0 2.0", "1_0"])
def test_malformed_value_names_its_file_line(tmp_path, bad):
    # the file line, counting the header and blank lines, not numpy's row;
    # 1_0 is a Python float literal that np.loadtxt rejects
    g = TorusGrid(1, (0,), 4)
    path = tmp_path / "u.csv"
    save_scalar_field(path, np.zeros(g.shape), g)
    text = path.read_text().splitlines()
    path.write_text("\n".join(text[:3] + [bad] + text[4:]) + "\n")
    with pytest.raises(ValueError, match=f"^line 4: expected one number, found '{re.escape(bad)}'$"):
        load_scalar_field(path, g)
    path.write_text("\n".join(text[:3] + ["  \t", bad] + text[4:]) + "\n")
    with pytest.raises(ValueError, match=f"^line 5: expected one number, found '{re.escape(bad)}'$"):
        load_scalar_field(path, g)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_field_value_names_its_line(tmp_path, value):
    g = TorusGrid(1, (0,), 4)
    path = tmp_path / "u.csv"
    save_scalar_field(path, np.zeros(g.shape), g)
    lines = path.read_text().splitlines()
    lines[4] = value
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"line 5: non-finite value '{value}'"):
        load_scalar_field(path, g)


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
        H = fl.quaternionic_hessian(u, g)
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
    H = fl.quaternionic_hessian(u, g)
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
        Hs = fl.quaternionic_hessian(u, g)
        Hf = fl.quaternionic_hessian(u, TorusGrid(2, (0, 4), N, "fd"))
        errs.append(np.abs(Hs - Hf).max())
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(abs(o - 2.0) <= 0.1 for o in orders)


def test_hessian_off_diagonal_coupling():
    # axes from different quaternionic coordinates produce off-diagonal entries
    g = TorusGrid(2, (0, 5), 12)
    u = _field(g, 0, lambda t: np.sin(2 * np.pi * t)) * _field(g, 5, lambda t: np.sin(2 * np.pi * t))
    H = fl.quaternionic_hessian(u, g)
    assert np.abs(H[..., 0, 1]).max() > 1.0
    _assert_hyperhermitian(H)


UNITS = tuple(map(tuple, np.eye(4)))  # e_c, unit of real coordinate 4a + c, as (w, x, y, z)


def _hamilton(p, q):
    """The Hamilton product of the quaternions p, q given as (w, x, y, z)."""
    a, b, c, d = p
    e, f, g, h = q
    return np.array([a * e - b * f - c * g - d * h,
                     a * f + b * e + c * h - d * g,
                     a * g - b * h + c * e + d * f,
                     a * h + b * g - c * f + d * e])


def _conj(q):
    """The conjugate of the quaternion q given as (w, x, y, z)."""
    return np.array([q[0], -q[1], -q[2], -q[3]])


def _entry(M, a, b):
    """The quaternion X + Y j in slot (a, b) of an embedding M, as (w, x, y, z)."""
    n = M.shape[-1] // 2
    x, y = M[a, b], M[a, n + b]
    return np.array([x.real, x.imag, y.real, y.imag])


def _column_entry(v, b):
    """The quaternion of coordinate b of a gradient vector v (column 0 of an
    embedding: X in slot b, -conj(Y) in slot n + b)."""
    n = v.shape[-1] // 2
    x, y = v[b], -np.conj(v[n + b])
    return np.array([x.real, x.imag, y.real, y.imag])


@pytest.mark.parametrize("n", range(1, 6))
def test_tables_are_hamilton_products(monkeypatch, n):
    # every hessian_basis block is (1/2) e_c conj(e_d) in slot (a, b), its
    # conjugate in (b, a), zero elsewhere; every per-axis gradient vector is
    # conj(e_c) / sqrt2 in coordinate b
    for P, Q in itertools.combinations_with_replacement(range(4 * n), 2):
        (a, c), (b, d) = divmod(P, 4), divmod(Q, 4)
        basis = {(p, q): B for p, q, B in fl.hessian_basis(TorusGrid(n, sorted({P, Q}), 4))}
        if a == b and c != d:
            assert (P, Q) not in basis
            continue
        B = basis[P, Q]
        q = _hamilton(UNITS[c], _conj(UNITS[d])) / 2
        want = np.zeros((n, n, 4))
        want[b, a] = _conj(q)
        want[a, b] = q
        got = np.array([[_entry(B, r, t) for t in range(n)] for r in range(n)])
        assert np.array_equal(got, want) and qt.structure_residual(B) == 0.0, (P, Q)
    monkeypatch.setattr(fl, "first_derivative", lambda u, grid, P: np.ones(grid.shape))
    for P in range(4 * n):
        g = TorusGrid(n, (P,), 4)
        v = fl.gradient_coefficients(np.zeros(g.shape), g)[0]
        b, c = divmod(P, 4)
        want = np.zeros((n, 4))
        want[b] = _conj(UNITS[c]) / np.sqrt(2.0)
        assert np.array_equal([_column_entry(v, t) for t in range(n)], want), P


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
    H = fl.quaternionic_hessian(u, g)
    assert np.array_equal(H, np.swapaxes(H, -1, -2).conj())
    _assert_hyperhermitian(H)
    for pt in _sample_points():
        d2 = np.zeros((4 * n, 4 * n))  # exact d2u/dx_P dx_Q at the point
        for (amp, mm), ph in zip(modes, phase):
            d2 += -amp * 4 * np.pi**2 * np.sin(ph[pt]) * np.outer(mm, mm)
        for a in range(n):
            for b in range(n):
                want = sum(0.5 * d2[4 * a + c, 4 * b + d] * _hamilton(UNITS[c], _conj(UNITS[d]))
                           for c in range(4) for d in range(4))
                assert math.dist(_entry(H[pt], a, b), want) <= 1e-9, (pt, a, b)


@pytest.mark.parametrize("axes", [(2, 7, 11), (3, 6, 9)], ids=["ax2711", "ax369"])
def test_gradient_entries_match_defining_formula(axes):
    # v_b = 2^(-1/2) sum_c conj(e_c) du/dx_{4b+c}, evaluated per point with
    # explicit quaternion units from the exact first partials.  v_b = X + Y j
    # is stored as column 0 of its embedding: X in slot b, -conj(Y) in n + b.
    g, u, modes, phase = _band_limited(axes)
    n = g.n
    v = fl.gradient_coefficients(u, g)
    for pt in _sample_points():
        d1 = np.zeros(4 * n)  # exact du/dx_P at the point
        for (amp, mm), ph in zip(modes, phase):
            d1 += amp * 2 * np.pi * np.cos(ph[pt]) * mm
        for b in range(n):
            want = sum(d1[4 * b + c] / np.sqrt(2.0) * _conj(UNITS[c]) for c in range(4))
            assert math.dist(_column_entry(v[pt], b), want) <= 1e-9, (pt, b)


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
    # W_u is the embedding diag(d, d) of the background entries d plus H(u),
    # exactly, on a coupled state with a non-constant background
    g = TorusGrid(2, (0, 1, 4, 5), 8)
    x = {axis: _field(g, axis, lambda t: t) for axis in g.active_axes}
    u = 0.1 * np.sin(2 * np.pi * (x[0] + x[5])) + 0.05 * np.cos(2 * np.pi * (x[1] - x[4]))
    d = np.stack([1 + 0.2 * np.cos(2 * np.pi * x[0]), 0.8 + 0.1 * np.sin(2 * np.pi * x[5])],
                 axis=-1)
    embedded = np.concatenate([d, d], axis=-1)[..., None] * np.eye(4)
    for backend in ("spectral", "fd"):
        gb = TorusGrid(2, (0, 1, 4, 5), 8, backend)
        H = fl.quaternionic_hessian(u, gb)
        assert np.abs(H[..., 0, 1]).max() > 1e-2  # off-diagonal: the axes couple
        assert np.array_equal(fl.omega_u(d, np.zeros(g.shape), gb), embedded)
        assert np.array_equal(fl.omega_u(d, u, gb), embedded + H)


# ---------------------------------------------------------------------------
# sigma fields and cones
# ---------------------------------------------------------------------------


def test_sigma_field_identity():
    g = TorusGrid(3, (0,), 8)
    om = _eye(g)
    for k in range(4):
        assert np.array_equal(_sigma(om, k), np.full(g.shape, float(math.comb(3, k))))


def test_sigma_field_matches_pointwise_oracle():
    g = TorusGrid(2, (0,), 8)
    rng = np.random.default_rng(3)
    W = np.zeros(g.shape + (4, 4), dtype=complex)
    mats = []
    for i in range(8):
        A = qt.random_hyperhermitian_chi(rng, 2)
        mats.append(A)
        W[i] = A
    s2 = _sigma(W, 2)
    for i in range(8):
        assert s2[i] == pytest.approx(qt.sigma_k_matrix(mats[i], 2), rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("W", [
    pytest.param(np.full((3, 2, 2), np.nan), id="all-nan"),
    pytest.param(np.diag([1.0, 2.0]), id="unpaired-diagonal"),
])
def test_eig_field_checks_n1_spectra(W):
    # an n = 1 embedding is a real multiple of Id_2; the field is not read
    # off without the pair check every other n gets
    with pytest.raises(StructureError):
        fl.eig_field(W)


def test_gamma_field_report():
    g = TorusGrid(3, (0,), 8)
    om = _eye(g)
    assert np.array_equal(symfun.gamma_margin(fl.eig_field(om), 2), np.full(g.shape, 3.0))
    W = om.copy()
    W[..., 0, 0] -= 2.0
    W[..., 3, 3] -= 2.0  # embedding pair of slot 0
    # eigenvalues (-1, 1, 1): sigma_2 = -1
    assert np.array_equal(symfun.gamma_margin(fl.eig_field(W), 2), np.full(g.shape, -1.0))
    assert not symfun.in_gamma_k(fl.eig_field(W), 2).any()


def test_measure_epsilon_identity_background():
    g = TorusGrid(2, (0,), 8)
    eps = fl.measure_epsilon(np.ones(g.shape + (2,)), 2)
    assert eps == pytest.approx(0.995, abs=1e-6)


@pytest.mark.parametrize("omega0_diag, distinct", [
    (None, 1),
    (["1 + 0.5*cos(2*pi*x0)", "1.0 - 0.3*sin(2*pi*x5)", "0.7"], 180),
])
def test_measure_epsilon_bisects_the_distinct_tuples(monkeypatch, omega0_diag, distinct):
    # feasibility is a test of each tuple, so the field and its distinct rows
    # give the same eps bit for bit; past the one whole-field cone check, the
    # bisection reads the distinct rows only
    from hquot.solver import SolverConfig, build_problem

    cfg = SolverConfig(n=3, k=3, l=0, points_per_axis=16, active_axes=(0, 5),
                       omega0_diag=omega0_diag)
    lam = np.sort(build_problem(cfg)[1], axis=-1)
    rows = np.unique(lam.reshape(-1, 3), axis=0)
    assert len(rows) == distinct and lam.size // 3 == 256
    tuples = []
    real = symfun.elementary_all

    def counting(lam, *args):
        tuples.append(lam.size // lam.shape[-1])
        return real(lam, *args)

    monkeypatch.setattr(symfun, "elementary_all", counting)
    eps = fl.measure_epsilon(lam, 3)
    assert sum(t > distinct for t in tuples) == 1
    assert eps.hex() == fl.measure_epsilon(rows, 3).hex()


def test_cone_condition_binomial_threshold():
    # identity background, constant F: holds iff
    # C(n-1,k-1) > C(n,k)/C(n,l) e^F C(n-1,l-1)
    n, k, l = 3, 2, 1
    g = TorusGrid(n, (0,), 8)
    thresh = math.log(
        math.comb(n - 1, k - 1) * math.comb(n, l) / (math.comb(n - 1, l - 1) * math.comb(n, k))
    )
    lam = np.ones(g.shape + (n,))
    ok = fl.check_cone_condition(lam, np.full(g.shape, thresh - 0.1), k, l)
    bad = fl.check_cone_condition(lam, np.full(g.shape, thresh + 0.1), k, l)
    assert ok["satisfied"] and not bad["satisfied"]


def test_cone_condition_l_zero_always_holds():
    g = TorusGrid(2, (0,), 8)
    rep = fl.check_cone_condition(np.ones(g.shape + (2,)), np.full(g.shape, 25.0), 2, 0)
    assert rep["satisfied"]


def test_cone_condition_locates_single_point_violation():
    n, k, l = 2, 2, 1
    g = TorusGrid(n, (0,), 8)
    d = np.ones(g.shape + (n,))
    d[5, 0] = 0.35  # sigma_1(.|j) dips below Ft at one point
    rep = fl.check_cone_condition(np.sort(d, axis=-1), np.zeros(g.shape), k, l)
    assert not rep["satisfied"]
    assert rep["where"] == (5,)


def test_cone_condition_requires_cone_background():
    g = TorusGrid(2, (0,), 8)
    d = np.ones(g.shape + (2,))
    d[..., 0] = -3.0
    with pytest.raises(ConeError, match=r"background field not in Gamma_2 \(margin "):
        fl.check_cone_condition(np.sort(d, axis=-1), np.zeros(g.shape), 2, 1)
    with pytest.raises(ConeError, match=r"background field not in Gamma_2 \(margin "):
        fl.measure_epsilon(np.sort(d, axis=-1), 2)


# ---------------------------------------------------------------------------
# gradient pairings
# ---------------------------------------------------------------------------


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
    spectrum = qt.chi_eigh(_eye(g))
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
    # c_i sum_j |(V^H v)_j|^2 sigma_{i-1}(lam|j) = c_i v^H S_{i-1}(W) v, also
    # at W = Id (fully degenerate eigenvalues)
    for n in (2, 3):
        for axes in ((0, 5), (0, 1, 2, 3)):
            g = TorusGrid(n, axes, 8)
            x = {axis: _field(g, axis, lambda t: t) for axis in axes}
            u = 0.03 * np.cos(2 * np.pi * (x[axes[0]] + x[axes[1]]))
            for axis in axes:
                u = u + 0.05 * np.sin(2 * np.pi * x[axis] + axis)
            grad = fl.gradient_coefficients(u, g)
            for W in (_eye(g), fl.omega_u(np.ones(g.shape + (n,)), u, g)):
                spectrum = qt.chi_eigh(W)
                for i in range(1, n + 1):
                    c = math.factorial(i - 1) * math.factorial(n - i) / math.factorial(n)
                    S = fl.newton_transform_field(W, i - 1)
                    got = fl.gradient_pairing(grad, spectrum, i)
                    ref = c * np.einsum("...p,...pq,...q->...", grad.conj(), S, grad)
                    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_mixed_pairing_bound():
    # |mixed pairing| <= (C/d) grad-pairing + C d sigma_{i-1}(W)/C(n,i-1),
    # C = max(1/2, max |alpha|^2 / 2): the two-term bound from Cauchy-Schwarz
    # and Young, checked pointwise for several d; the mixed pairing is
    # c_i grad^H S_{i-1}(W) alpha, c_i = (i-1)!(n-i)!/n!
    rng = np.random.default_rng(13)
    n, i = 3, 2
    g = TorusGrid(n, (0, 4), 8)
    u = _field(g, 0, lambda t: np.sin(2 * np.pi * t)) * _field(
        g, 4, lambda t: 1 + 0.3 * np.cos(2 * np.pi * t)
    )
    W = _eye(g)
    W[..., 0, 0] += 0.4 * _field(g, 0, lambda t: np.sin(4 * np.pi * t))
    W[..., n, n] = W[..., 0, 0]
    spectrum = qt.chi_eigh(W)
    assert symfun.in_gamma_k(spectrum[0], i).all()
    grad = fl.gradient_coefficients(u, g)
    alpha = rng.normal(size=g.shape + (2 * n,)) + 1j * rng.normal(size=g.shape + (2 * n,))
    c = math.factorial(i - 1) * math.factorial(n - i) / math.factorial(n)
    S = fl.newton_transform_field(W, i - 1)
    lhs = np.abs(c * np.einsum("...p,...pq,...q->...", grad.conj(), S, alpha))
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
    lhs = integrate(w * _sigma(H, 1))
    rhs = -integrate(np.einsum("...p,...p->...", gw.conj(), gu).real)
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
        lhs = integrate(weight * _sigma(H, 1))
        rhs = p * integrate(weight * np.einsum("...p,...p->...", gu.conj(), gu).real)
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))
