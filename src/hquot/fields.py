"""Hyperhermitian matrix fields on the flat torus.

The background 2-form is the constant identity matrix field, so wedge ratios
reduce to symmetric functions of pointwise eigenvalues:

    W^k ^ Omega^(n-k) / Omega^n   =  sigma_k(W) / C(n, k).

The quaternionic Hessian of a scalar field u has entries

    H_ab = (1/2) sum_{c,d in 0..3} e_c * conj(e_d) * d2u/dx_{4a+c} dx_{4b+d},

a hyperhermitian matrix at each point.  The normalization is anchored by the
quadratic patch test: u = |q_a|^2 produces 4 in diagonal slot (a, a).  The
matching first-derivative coefficients are

    v_b = 2^(-1/2) (d_0 u - i d_1 u - j d_2 u - k d_3 u)   (components of q_b),

stored as the 2n complex numbers of the embedding layout, so that
sum_b |v_b|^2 = |grad u|^2 / 2 and the divergence identity
integrate(w * sigma_1(H(u))) = -integrate(<v(w), v(u)>) holds.

Fields are ndarrays: scalar fields have shape grid.shape, matrix fields
grid.shape + (2n, 2n) (stacked embeddings), gradients grid.shape + (2n,).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import symfun
from .errors import ConeError
from .grid import first_derivative, second_derivative
from .quaternion import (
    I,
    J,
    K,
    QMatrix,
    Quaternion,
    chi_eigh,
    chi_eigvals,
    chi_from_spectrum,
    eig,
)

__all__ = [
    "identity_form",
    "hessian_basis",
    "quaternionic_hessian",
    "gradient_coefficients",
    "omega_u",
    "eig_field",
    "in_gamma_k_field",
    "GammaFieldReport",
    "measure_epsilon",
    "check_cone_condition",
    "ConeConditionReport",
    "simultaneous_diagonalize",
    "newton_transform_field",
    "gradient_pairing",
    "gradient_alpha_pairing",
]

# e_c, the quaternion unit of real coordinate 4a + c
_UNITS = (Quaternion(1.0), I, J, K)
# measure_epsilon keeps this fraction of the bisected margin, so the measured
# eps leaves both cone conditions strictly satisfied
_EPS_SHAVE = 0.995


def identity_form(grid):
    """The constant identity matrix field (the flat background form)."""
    n = grid.n
    W = np.zeros(grid.shape + (2 * n, 2 * n), dtype=complex)
    W[...] = np.eye(2 * n)
    return W


def hessian_basis(grid):
    """[(P, Q, B)] over active axes P <= Q: B is the embedding that the
    quaternionic Hessian gives d2u/dx_P dx_Q, so H(u) = sum B d2u/dx_P dx_Q.

    With P = 4a + c and Q = 4b + d, B is the chi embedding of the
    quaternionic matrix with (1/2) e_c conj(e_d) in slot (a, b) and its
    conjugate in slot (b, a).  Pairs of distinct axes of one quaternionic
    coordinate (a = b, c != d) have B = 0, since e_c conj(e_d) + e_d conj(e_c)
    = 2 delta_cd, and are left out.
    """
    n = grid.n
    axes = grid.active_axes
    basis = []
    for ii, P in enumerate(axes):
        for Q in axes[ii:]:
            (a, c), (b, d) = divmod(P, 4), divmod(Q, 4)
            if a == b and c != d:
                continue
            q = 0.5 * _UNITS[c] * _UNITS[d].conjugate()
            rows = [[0.0] * n for _ in range(n)]
            rows[a][b], rows[b][a] = q, q.conjugate()
            basis.append((P, Q, QMatrix.from_entries(rows).chi))
    return basis


def quaternionic_hessian(u, grid, backend="spectral"):
    """The hyperhermitian second-derivative matrix field of u.

    Each second partial of hessian_basis is computed once and added into the
    nonzero slots of its B, so the output is exactly hyperhermitian.
    """
    u = np.asarray(u, dtype=float)
    n = grid.n
    W = np.zeros(grid.shape + (2 * n, 2 * n), dtype=complex)
    for P, Q, B in hessian_basis(grid):
        d2 = second_derivative(u, grid, P, Q, backend)
        for i, j in zip(*np.nonzero(B)):
            W[..., i, j] += B[i, j] * d2
    return W


def gradient_coefficients(u, grid, backend="spectral"):
    """First-derivative coefficients of u in the embedding layout.

    Returns shape grid.shape + (2n,).  Axis P = 4b + c contributes
    conj(e_c) d_P u / sqrt2 to quaternionic coordinate b, whose 2n-vector is
    column 0 of the chi embedding of the matrix with that entry in row b:
    slot b carries (d_0 - i d_1)u / sqrt2, slot n+b carries (d_2 - i d_3)u / sqrt2.
    """
    u = np.asarray(u, dtype=float)
    n = grid.n
    g = np.zeros(grid.shape + (2 * n,), dtype=complex)
    for P in grid.active_axes:
        b, c = divmod(P, 4)
        rows = [[0.0] * n for _ in range(n)]
        rows[b][0] = _UNITS[c].conjugate() * (1.0 / math.sqrt(2.0))
        v = QMatrix.from_entries(rows).chi[:, 0]
        d1 = first_derivative(u, grid, P, backend)
        for i in np.flatnonzero(v):
            g[..., i] += v[i] * d1
    return g


def omega_u(omega0, u, grid, backend="spectral"):
    """W_u = omega0 + quaternionic_hessian(u)."""
    # a named Hessian gets a fresh array for the sum: numpy would otherwise
    # reuse the temporary in place, which shifts glibc's mmap threshold and
    # raised the solve-4axis benchmark's peak RSS from 157.8 to 160.3 MB
    hessian = quaternionic_hessian(u, grid, backend)
    return np.asarray(omega0, dtype=complex) + hessian


# ---------------------------------------------------------------------------
# pointwise spectra
# ---------------------------------------------------------------------------


def _n_of(W):
    return W.shape[-1] // 2


def eig_field(W):
    """Pointwise eigenvalue tuples, shape grid.shape + (n,), ascending.

    n = 1 matrices are real scalars and are read off directly; exactly
    diagonal fields skip the dense solver as well.
    """
    W = np.asarray(W, dtype=complex)
    n = _n_of(W)
    if n == 1:
        return W[..., :1, 0].real.copy()
    return chi_eigvals(W)


@dataclass
class GammaFieldReport:
    ok: bool
    worst_margin: float
    where: tuple
    order: int

    def __bool__(self):
        return self.ok


def in_gamma_k_field(lam, k):
    """Cone membership at every grid point of the eigenvalue field ``lam``,
    with the worst sigma_i slack.

    Returns a GammaFieldReport: ok iff min over points and 1 <= i <= k of
    sigma_i(lam) is strictly positive; ``where``/``order`` locate the
    minimizing point and order.
    """
    e = symfun.elementary_all(lam, k)[..., 1 : k + 1]
    worst = float(e.min())
    flat_idx = int(np.argmin(e))
    idx = np.unravel_index(flat_idx, e.shape)
    return GammaFieldReport(ok=worst > 0.0, worst_margin=worst,
                            where=tuple(int(i) for i in idx[:-1]), order=int(idx[-1]) + 1)


def measure_epsilon(lam, k):
    """Largest eps (shaved by 0.5%) with omega0 - eps*Id and Id - eps*omega0
    both in Gamma_k at every point, found by bisection on the eigenvalue
    field ``lam`` of omega0."""

    def feasible(eps):
        return bool(
            symfun.in_gamma_k(lam - eps, k).all()
            and symfun.in_gamma_k(1.0 - eps * lam, k).all()
        )

    if not feasible(0.0):
        raise ConeError(f"background field not in Gamma_{k}")
    lo, hi = 0.0, 1.0
    for _ in range(70):
        if feasible(hi):
            lo, hi = hi, 2.0 * hi
        else:
            break
    else:
        return _EPS_SHAVE * lo
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return _EPS_SHAVE * lo


@dataclass
class ConeConditionReport:
    """Local cone condition for the (k, l) quotient against a forcing field.

    margin(z) = min_j [ sigma_{k-1}(lam|j) - Ft(z) sigma_{l-1}(lam|j) ] with
    Ft = C(n,k)/C(n,l) * exp(F); satisfied iff the global minimum is positive.
    ``margin_field`` carries that pointwise minimum over slots;
    ``delta`` is the measured root gap min_{z,j} [ratio^(1/(k-l)) - Ft^(1/(k-l))]
    (for l = 0 the condition is vacuous and delta is the raw sigma margin).
    """

    satisfied: bool
    worst_margin: float
    where: tuple
    slot: int
    delta: float
    k: int
    l: int
    margin_field: np.ndarray = None

    def __bool__(self):
        return self.satisfied


def check_cone_condition(lam, F, k, l):
    """The ConeConditionReport of the eigenvalue field ``lam`` of the
    background against the forcing field F; raises ConeError if ``lam`` is
    not in Gamma_k."""
    n = lam.shape[-1]
    if not 0 <= l < k <= n:
        raise ValueError(f"need 0 <= l < k <= n, got k={k}, l={l}, n={n}")
    gam = in_gamma_k_field(lam, k)
    if not gam.ok:
        raise ConeError(f"background field not in Gamma_{k} (margin {gam.worst_margin:.3e})")
    ft = symfun.forcing_factor(n, k, l, F)
    sk1 = symfun.sigma_excl_all(lam, k - 1)
    if l == 0:
        margin = sk1
        delta = float(sk1.min())
    else:
        sl1 = symfun.sigma_excl_all(lam, l - 1)
        margin = sk1 - ft[..., None] * sl1
        root = 1.0 / (k - l)
        delta = float(((sk1 / sl1) ** root - ft[..., None] ** root).min())
    worst = float(margin.min())
    idx = np.unravel_index(int(np.argmin(margin)), margin.shape)
    return ConeConditionReport(
        satisfied=worst > 0.0,
        worst_margin=worst,
        where=tuple(int(i) for i in idx[:-1]),
        slot=int(idx[-1]),
        delta=delta,
        k=k,
        l=l,
        margin_field=margin.min(axis=-1),
    )


# ---------------------------------------------------------------------------
# simultaneous diagonalization
# ---------------------------------------------------------------------------


def simultaneous_diagonalize(M1, M2, tol=1e-9):
    """Joint diagonalizing basis for a positive M1 and a hyperhermitian M2.

    Returns (C, d1, d2): C is a quaternionic-structured embedding column
    basis with C^H M1 C = diag(d1 doubled) and C^H M2 C = diag(d2 doubled)
    (d1 is identically one: the basis normalizes M1 to the identity).
    Both off-diagonal residuals are checked against ``tol``.
    """
    M1 = np.asarray(M1, dtype=complex)
    M2 = np.asarray(M2, dtype=complex)
    n = _n_of(M1)
    lam1, V1 = chi_eigh(M1)
    if lam1[0] <= 0:
        raise ConeError(f"first form is not positive definite (min eig {lam1[0]:.3e})")
    S = chi_from_spectrum(V1, lam1 ** -0.5)  # M1^(-1/2), stays quaternionic
    B = S @ M2 @ S
    B = (B + B.conj().T) / 2.0
    lam2, C2 = eig(QMatrix(B, validate=False))
    C = S @ C2.chi
    r1 = C.conj().T @ M1 @ C
    r2 = C.conj().T @ M2 @ C
    d1 = np.einsum("ii->i", r1).real[:n].copy()
    d2 = np.einsum("ii->i", r2).real[:n].copy()
    err = max(
        float(np.abs(r1 - np.diag(np.einsum("ii->i", r1))).max()),
        float(np.abs(r2 - np.diag(np.einsum("ii->i", r2))).max()),
    )
    if err > tol * (1.0 + float(max(np.abs(M1).max(), np.abs(M2).max()))):
        raise ConeError(f"joint diagonalization failed: off-diagonal residual {err:.3e}")
    return C, d1, d2


def newton_transform_field(W, m):
    """Pointwise m-th Newton transform field (same shape as W): the spectral
    function lam_j -> sigma_m(lam|j) of W."""
    lam, V = chi_eigh(np.asarray(W, dtype=complex))
    return chi_from_spectrum(V, symfun.sigma_excl_all(lam, m))


def _spectral_pairing(v, a, spectrum, i):
    """c_i sum_j conj((V^H v)_j) (V^H a)_j sigma_{i-1}(lam|j) = c_i v^H S_{i-1}(W) a,

    c_i = (i-1)!(n-i)!/n!, from the spectrum (lam, V) = chi_eigh(W), each
    collapsed eigenvalue weighting its two embedding slots.  Order 1 reads
    no eigenvectors, so V may be None there.
    """
    lam, V = spectrum
    n = lam.shape[-1]
    if not 1 <= i <= n:
        raise ValueError(f"need 1 <= i <= n, got i={i}")
    c = math.factorial(i - 1) * math.factorial(n - i) / math.factorial(n)
    if i == 1:
        return c * np.einsum("...p,...p->...", v.conj(), a)
    pv = np.einsum("...pj,...p->...j", V.conj(), v)
    pa = np.einsum("...pj,...p->...j", V.conj(), a)
    s = np.repeat(symfun.sigma_excl_all(lam, i - 1), 2, axis=-1)
    return c * np.einsum("...j,...j,...j->...", pv.conj(), s, pa)


def gradient_pairing(grad, spectrum, i):
    """The scalar field  (i-1)! (n-i)! / n! * sum_l m_l sigma_{i-1}(lam(W)|l),

    where m_l is the squared magnitude of the two coefficients of direction l
    of ``grad`` (from gradient_coefficients) in the frame diagonalizing W,
    given by ``spectrum`` = chi_eigh(W).  Equals v^H S_{i-1}(W) v;
    nonnegative whenever W is in Gamma_i pointwise.
    """
    return _spectral_pairing(grad, grad, spectrum, i).real


def gradient_alpha_pairing(grad, alpha, spectrum, i):
    """Complex field  (i-1)! (n-i)! / n! * sum_l <v_l, a_l> sigma_{i-1}(W|l),

    the mixed gradient/one-form pairing in the frame diagonalizing W, given
    by ``spectrum`` = chi_eigh(W).  The inner product couples the two
    embedding coefficients of each direction.
    """
    return _spectral_pairing(grad, alpha, spectrum, i)
