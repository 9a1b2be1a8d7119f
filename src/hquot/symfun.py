"""Elementary symmetric functions on real tuples and their cone machinery.

Tuples are plain numpy arrays; every function broadcasts over leading axes,
so a "tuple" argument of shape ``(..., n)`` yields results of shape ``(...)``
(or ``(..., n)`` for the per-index variants).  Indices are 0-based.

sigma(lam, -1) is defined as 0 so that formulas with an ``l - 1`` order
degenerate correctly at l = 0.
One spectrum gets one table (sigma_table), the package's only downdate: the
solver, the cone check and the probe read each spectrum through it.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "elementary_all",
    "sigma_table",
    "sigma",
    "sigma_excl_all",
    "in_gamma_k",
    "gamma_margin",
    "quotient",
    "quotient_root",
    "forcing_factor",
    "require_finite_forcing",
    "garding_pairing",
]


def elementary_all(lam, kmax=None):
    """All elementary symmetric polynomials sigma_0..sigma_kmax of ``lam``.

    Uses the stable coefficient recurrence for prod_i (1 + lam_i t): O(n*kmax)
    and well-behaved for mixed-sign entries.  Returns shape ``(..., kmax+1)``.
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    if kmax is None:
        kmax = n
    if not 0 <= kmax <= n:
        raise ValueError(f"kmax must be in [0, {n}], got {kmax}")
    e = np.zeros(lam.shape[:-1] + (kmax + 1,))
    e[..., 0] = 1.0
    for j in range(n):
        x = lam[..., j]
        top = min(j + 1, kmax)
        for m in range(top, 0, -1):
            e[..., m] += x * e[..., m - 1]
    return e


def sigma_table(lam, k):
    """(e, excl) for 1 <= k <= n: e = elementary_all(lam, k), and excl[m] =
    sigma_m(lam|i) for every i, shape (..., n), each m < k, downdated from
    the full polynomial: s_0 = 1, s_m(i) = sigma_m(lam) - lam_i s_{m-1}(i).
    """
    lam = np.asarray(lam, dtype=float)
    e = elementary_all(lam, k)
    excl = [np.ones(lam.shape)]
    for m in range(1, k):
        excl.append(e[..., m, None] - lam * excl[-1])
    return e, excl


def sigma(lam, k):
    """sigma_k(lam); sigma_0 = 1 and sigma_{-1} = 0 by convention."""
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    if k == -1:
        return np.zeros(lam.shape[:-1])[()] if lam.ndim > 1 else 0.0
    if not 0 <= k <= n:
        raise ValueError(f"order k={k} out of range for n={n}")
    return elementary_all(lam, k)[..., k]


def sigma_excl_all(lam, k):
    """sigma_k of ``lam`` with entry i removed, for every i: shape (..., n),
    read from sigma_table(lam, k + 1)."""
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    if k == -1:
        return np.zeros(lam.shape)
    if not 0 <= k <= n - 1:
        raise ValueError(f"order k={k} out of range for deleted tuple of n={n}")
    return sigma_table(lam, k + 1)[1][k]


def in_gamma_k(lam, k):
    """True iff sigma_1..sigma_k are all strictly positive.

    No tolerance is applied; callers that need a margin use gamma_margin.
    Broadcasts: returns a bool array over leading axes.
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"cone order k={k} out of range for n={n}")
    return gamma_margin(lam, k) > 0.0


def gamma_margin(lam, k):
    """min over 1 <= i <= k of sigma_i(lam): positive iff lam in Gamma_k."""
    lam = np.asarray(lam, dtype=float)
    e = elementary_all(lam, k)
    m = e[..., 1 : k + 1].min(axis=-1)
    return float(m) if m.ndim == 0 else m


def quotient(lam, k, l):
    """sigma_k(lam) / sigma_l(lam) for 0 <= l < k; callers keep lam in Gamma_k."""
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    if not 0 <= l < k <= n:
        raise ValueError(f"need 0 <= l < k <= n, got k={k}, l={l}, n={n}")
    e = elementary_all(lam, k)
    return e[..., k] / e[..., l]


def quotient_root(lam, k, l):
    """(sigma_k / sigma_l)^(1/(k-l)); concave and degree-1 homogeneous on Gamma_k."""
    q = quotient(lam, k, l)
    return q ** (1.0 / (k - l))


def forcing_factor(n, k, l, F):
    """Ft = C(n,k)/C(n,l) exp(F): the factor of sigma_l in sigma_k = Ft sigma_l,
    the quotient equation with the identity background; broadcasts over F."""
    return math.comb(n, k) / math.comb(n, l) * np.exp(np.asarray(F, dtype=float))


def require_finite_forcing(n, k, l, top):
    """Raise ValueError if the forcing factor overflows at ``top``, the largest
    value of F + b on the grid, where the factor is largest."""
    with np.errstate(over="ignore"):
        finite = np.isfinite(forcing_factor(n, k, l, top))
    if not finite:
        raise ValueError(f"forcing factor C(n,k)/C(n,l) e^(F+b) is not finite: "
                         f"the largest F + b is {top:.6g}")


def garding_pairing(mu, lam, k):
    """sum_i mu_i * sigma_{k-1}(lam | i).

    For mu, lam in Gamma_k this is >= k * sigma_k(mu)^(1/k) * sigma_k(lam)^(1-1/k),
    in particular positive; equals k*sigma_k(lam) at mu = lam.
    """
    mu = np.asarray(mu, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if mu.shape[-1] != lam.shape[-1]:
        raise ValueError("mu and lam must have the same length")
    w = sigma_excl_all(lam, k - 1)
    return (mu * w).sum(axis=-1)
