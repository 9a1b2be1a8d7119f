"""Hyperhermitian matrix fields on the flat torus.

Wedge ratios against the flat form Omega reduce to symmetric functions of
pointwise eigenvalues:

    W^k ^ Omega^(n-k) / Omega^n   =  sigma_k(W) / C(n, k).

The background form is diagonal, stored as its entries omega0, shape
grid.shape + (n,) (all ones for the identity): its spectrum is omega0 sorted,
and W_u = diag(omega0) + H(u) (add_background).

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

import numpy as np

from . import symfun
from .errors import ConeError
from .grid import first_derivative, second_derivative
from .quaternion import chi_eigh, chi_eigvals, chi_from_spectrum

__all__ = [
    "hessian_basis",
    "assemble_hessian",
    "quaternionic_hessian",
    "gradient_coefficients",
    "add_background",
    "omega_u",
    "eig_field",
    "require_in_gamma",
    "measure_epsilon",
    "check_cone_condition",
    "newton_transform_field",
    "gradient_pairing",
]

# chi(1), chi(i), chi(j), chi(k): the embedded unit e_c of real coordinate 4a + c
_UNITS = np.array([[[1, 0], [0, 1]], [[1j, 0], [0, -1j]],
                   [[0, 1], [-1, 0]], [[0, 1j], [1j, 0]]])
# the fraction of a measured margin that is kept (measure_epsilon's eps, the
# probe's delta), so the strict inequalities it bounds stay strict
SHAVE = 0.995


def hessian_basis(grid):
    """[(P, Q, B)] over active axes P <= Q: B is the embedding that the
    quaternionic Hessian gives d2u/dx_P dx_Q, so H(u) = sum B d2u/dx_P dx_Q.

    With P = 4a + c and Q = 4b + d, B is the chi embedding of the
    quaternionic matrix with (1/2) e_c conj(e_d) in slot (a, b) and its
    conjugate in slot (b, a).  Since chi is a ring homomorphism, the 2 x 2
    block of slot (a, b) is 0.5 chi(e_c) chi(e_d)^H, in rows {a, n+a} and
    columns {b, n+b}.  Pairs of distinct axes of one quaternionic
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
            block = 0.5 * _UNITS[c] @ _UNITS[d].conj().T
            B = np.zeros((2 * n, 2 * n), dtype=complex)
            B[np.ix_((a, n + a), (b, n + b))] = block
            B[np.ix_((b, n + b), (a, n + a))] = block.conj().T
            basis.append((P, Q, B))
    return basis


def assemble_hessian(basis, partials):
    """sum B d2 over the (P, Q, B) of ``basis`` = hessian_basis(grid) and the
    matching second partials ``partials``: whole fields, or the same slice
    of each.  Returns shape d2.shape + (2n, 2n).

    Each d2 is added into the nonzero slots of its B only, so the output is
    exactly hyperhermitian.
    """
    W = np.zeros(partials[0].shape + basis[0][2].shape, dtype=complex)
    for (_, _, B), d2 in zip(basis, partials):
        for i, j in zip(*np.nonzero(B)):
            W[..., i, j] += B[i, j] * d2
    return W


def quaternionic_hessian(u, grid):
    """The hyperhermitian second-derivative matrix field of u: each second
    partial of hessian_basis is computed once and assembled."""
    u = np.asarray(u, dtype=float)
    basis = hessian_basis(grid)
    return assemble_hessian(basis, [second_derivative(u, grid, P, Q) for P, Q, _ in basis])


def gradient_coefficients(u, grid):
    """First-derivative coefficients of u in the embedding layout.

    Returns shape grid.shape + (2n,).  Axis P = 4b + c contributes
    conj(e_c) d_P u / sqrt2 to quaternionic coordinate b, whose 2n-vector is
    column 0 of the chi embedding of the matrix with that entry in row b:
    column 0 of chi(conj(e_c)) = chi(e_c)^H is conj(chi(e_c)[0]), so slot b
    carries (d_0 - i d_1)u / sqrt2 and slot n+b carries (d_2 - i d_3)u / sqrt2.
    """
    u = np.asarray(u, dtype=float)
    n = grid.n
    g = np.zeros(grid.shape + (2 * n,), dtype=complex)
    for P in grid.active_axes:
        b, c = divmod(P, 4)
        v = _UNITS[c][0].conj() / math.sqrt(2.0)
        d1 = first_derivative(u, grid, P)
        for i in np.flatnonzero(v):
            g[..., (b, n + b)[i]] += v[i] * d1
    return g


def add_background(W, omega0):
    """Add the background entries ``omega0`` (shape (..., n)) to the slots
    (a, a) and (n+a, n+a) of the matrix field W, in place; returns W."""
    n = omega0.shape[-1]
    for a in range(2 * n):
        W[..., a, a] += omega0[..., a % n]
    return W


def omega_u(omega0, u, grid):
    """W_u = diag(omega0) + quaternionic_hessian(u)."""
    return add_background(quaternionic_hessian(u, grid), omega0)


# ---------------------------------------------------------------------------
# pointwise spectra
# ---------------------------------------------------------------------------


def eig_field(W):
    """chi_eigvals(W): the pointwise eigenvalue tuples, shape grid.shape + (n,)."""
    return chi_eigvals(W)


def require_in_gamma(e):
    """The least Gamma_k margin min(e_1..e_k) of the background's spectrum, from
    its e = elementary_all(lam, k); raise ConeError unless it is positive."""
    gam = float(e[..., 1:].min())
    if not gam > 0.0:
        raise ConeError(f"background field not in Gamma_{e.shape[-1] - 1} (margin {gam:.3e})")
    return gam


def measure_epsilon(lam, k):
    """Largest eps (shaved by 0.5%) with omega0 - eps*Id and Id - eps*omega0
    both in Gamma_k at every point, found by bisection on [0, 1] on the
    eigenvalue field ``lam`` of omega0.  No eps >= 1 qualifies: the two
    conditions at eps = 1 ask for sigma_1(lam - 1) > 0 and sigma_1(1 - lam)
    > 0, which are exact negatives of each other in floating point.

    The bisection tests the distinct tuples of ``lam`` only: feasibility is
    a test of each tuple, so eps is bit for bit the whole field's."""

    def feasible(eps):
        return bool(
            symfun.in_gamma_k(rows - eps, k).all()
            and symfun.in_gamma_k(1.0 - eps * rows, k).all()
        )

    require_in_gamma(symfun.elementary_all(lam, k))
    rows = lam.reshape(-1, lam.shape[-1])
    rows = rows[np.lexsort(rows.T)]
    rows = rows[np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]]
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return SHAVE * lo


def check_cone_condition(lam, F, k, l):
    """Local cone condition for the (k, l) quotient of the eigenvalue field
    ``lam`` of the background against the forcing field F; raises ConeError
    if ``lam`` is not in Gamma_k.

    margin(z) = min_j [ sigma_{k-1}(lam|j) - Ft(z) sigma_{l-1}(lam|j) ] with
    Ft = C(n,k)/C(n,l) * exp(F).  Returns the dict {"satisfied",
    "worst_margin", "where", "slot", "delta"}: satisfied iff the global
    minimum ``worst_margin`` is positive, ``where`` the grid index tuple and
    ``slot`` the eigenvalue slot of that minimum, and ``delta`` the measured
    root gap min_{z,j} [ratio^(1/(k-l)) - Ft^(1/(k-l))] (for l = 0 the
    condition is vacuous and delta is the raw sigma margin), all from one
    sigma_table of ``lam``.
    """
    n = lam.shape[-1]
    if not 0 <= l < k <= n:
        raise ValueError(f"need 0 <= l < k <= n, got k={k}, l={l}, n={n}")
    e, excl = symfun.sigma_table(lam, k)
    require_in_gamma(e)
    sk1 = excl[k - 1]
    if l == 0:
        margin = sk1
        delta = float(sk1.min())
    else:
        ft = symfun.forcing_factor(n, k, l, F)
        sl1 = excl[l - 1]
        margin = sk1 - ft[..., None] * sl1
        root = 1.0 / (k - l)
        delta = float(((sk1 / sl1) ** root - ft[..., None] ** root).min())
    worst = float(margin.min())
    idx = np.unravel_index(int(np.argmin(margin)), margin.shape)
    return {
        "satisfied": worst > 0.0,
        "worst_margin": worst,
        "where": tuple(int(i) for i in idx[:-1]),
        "slot": int(idx[-1]),
        "delta": delta,
    }


# ---------------------------------------------------------------------------
# Newton transforms and gradient pairings
# ---------------------------------------------------------------------------


def newton_transform_field(W, m):
    """Pointwise m-th Newton transform field (same shape as W): the spectral
    function lam_j -> sigma_m(lam|j) of W."""
    lam, V = chi_eigh(np.asarray(W, dtype=complex))
    return chi_from_spectrum(V, symfun.sigma_excl_all(lam, m))


def gradient_pairing(grad, V, excl, i):
    """The scalar field  c_i v^H S_{i-1}(W) v,  c_i = (i-1)!(n-i)!/n!,

    computed as c_i sum_j |(V^H v)_j|^2 sigma_{i-1}(lam|j) for v = ``grad``
    (from gradient_coefficients), (lam, V) = chi_eigh(W) and ``excl`` =
    sigma_{i-1}(lam|j), each collapsed eigenvalue weighting its two
    embedding slots.  Nonnegative whenever W is in Gamma_i pointwise.
    Order 1 is c_1 |v|^2, since S_0 = Id.
    """
    n = excl.shape[-1]
    if not 1 <= i <= n:
        raise ValueError(f"need 1 <= i <= n, got i={i}")
    c = math.factorial(i - 1) * math.factorial(n - i) / math.factorial(n)
    if i == 1:
        return (c * np.einsum("...p,...p->...", grad.conj(), grad)).real
    pv = np.einsum("...pj,...p->...j", V.conj(), grad)
    s = np.repeat(excl, 2, axis=-1)
    return (c * np.einsum("...j,...j,...j->...", pv.conj(), s, pv)).real
