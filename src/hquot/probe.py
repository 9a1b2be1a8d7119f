"""Numerical verification of the energy-estimate chain on solved states.

Everything here measures inequalities between wedge-type integrals of the
homotopy family W_t = diag(omega0) + t H(u), omega0 the background's diagonal
entries (fields.add_background).  Against the flat form Omega, the
dictionary between forms and symmetric functions is

    W_t^m ^ Omega^(n-m) / Omega^n                     = sigma_m(W_t) / C(n, m)
    du ^ d_J u ^ W_t^(i-1) ^ Omega^(n-i) / Omega^n    = gradient_pairing(v, chi_eigh(W_t), i)

with v = gradient_coefficients(u), and exp(-p u) weights are stabilized by
shifting u to min 0 (the reported slacks are relative, so the shift cancels;
p * osc(u) never reaches the exponent range).

Measured constants:

  eps    largest margin with W_0 - eps*Id and Id - eps*W_0 in the cone
         (bisection, shaved by 0.5%).
  delta  the cone-gap root margin min_{z,j} [ratio^(1/(k-l)) - Ft^(1/(k-l))]
         from the cone condition, shaved by 0.5% inside the sweeps so strict
         margins stay strictly positive at the measuring point.

The homotopy inequality is asserted in the provable normalization

    eps^(k-i) * I_{i-1} / C(n, i-1)  <=  (k/i) * I_{k-1} / C(n, k-1),

which is what the iteration of the one-step bound yields; the display
variant with a single eps factor and raw sigma integrands is recorded
alongside (it can genuinely fail near eps = 1 for high orders, so it is
logged, not asserted).

Every t-integrand is a polynomial in t of degree at most k - 1: sigma_m(W_t)
for m < k, and the gradient pairing of order i, which reads the Newton
transform S_{i-1}(W_t) = sum_r (-1)^r sigma_{i-1-r}(W_t) W_t^r.  So the
t-integrals are exact (up to roundoff) from the k midpoints of [0, 1] and
their interpolatory weights (``t_nodes``).  ``homotopy_means`` diagonalizes
each node once for every order and both intervals; the fields do not depend
on p, so each p costs three weighted grid integrals.
"""

from __future__ import annotations

import math

import numpy as np

from . import fields as fl
from . import symfun
from .errors import ConeError
from .grid import integrate
from .quaternion import chi_eigh

__all__ = [
    "t_nodes",
    "cherrier_table",
    "homotopy_means",
    "homotopy_integral_check",
    "weighted_energy_check",
    "pointwise_lemma_sweep",
    "run_probe",
]

SWEEP_T = tuple(np.round(np.linspace(0.0, 1.0, 11), 10))


def t_nodes(k):
    """The k midpoints t_j = (j + 1/2)/k of [0, 1] and their interpolatory
    weights on [0, 1] and on [0, 1/2], from one Vandermonde solve: both
    rules are exact on polynomials of degree < k."""
    t = (np.arange(k) + 0.5) / k
    m = np.arange(1.0, k + 1.0)[:, None]
    w = np.linalg.solve(np.vander(t, increasing=True).T, np.hstack([1.0 / m, 0.5**m / m]))
    return t, w[:, 0], w[:, 1]


def _shifted_weight(u, p):
    """exp(-p (u - min u)): the overflow-safe weight; ratios are shift-free."""
    u = np.asarray(u, dtype=float)
    return np.exp(-p * (u - u.min()))


def cherrier_table(u, grid, p_values):
    """Rows (p, E, M, C) with C = E / (p M), E = integral |d exp(-p u / 2)|^2,
    M = integral exp(-p u).

    E and M are computed on the min-shifted potential (the shift cancels in
    the ratio); the gradient magnitude is sum_b |v_b|^2 = |grad|^2 / 2 in the
    module's first-derivative convention.

    Integrating by parts on the torus (sigma_1(H(u)) = Delta u / 2) gives

        C(p) = (1/4) int e^(-pu) sigma_1(H(u)) / int e^(-pu)
             <= (1/4) max sigma_1(H(u))   for every p > 0.

    On a spectral grid the identity is exact up to aliasing of
    e^(-pu/2) on the grid; on an ``fd`` grid it holds only to O(h^2) (on a
    two-axis field at N = 16: 4% relative at p = 4, 14% at p = 64).
    Every p must be finite and positive (ValueError otherwise).
    """
    bad = [p for p in p_values if not (math.isfinite(p) and p > 0)]
    if bad:
        raise ValueError(f"Cherrier exponents must be finite and positive, got {bad}")
    rows = []
    u = np.asarray(u, dtype=float)
    for p in p_values:
        w = _shifted_weight(u, 0.5 * p)
        gw = fl.gradient_coefficients(w, grid)
        E = integrate(np.einsum("...q,...q->...", gw.conj(), gw).real)
        M = integrate(w * w)
        rows.append({"p": float(p), "energy": E, "mass": M, "ratio": E / (p * M)})
    return rows


def homotopy_means(u, omega0, hessian, grid, k):
    """Pointwise t-integrals (L, G, S) along W_t = diag(omega0) + t * hessian,
    ``hessian`` the quaternionic Hessian of u: over [0, 1/2],
    L = int sigma_{k-1}(W_t) dt and G[i-1] = int gradient_pairing(v(u),
    chi_eigh(W_t), i) dt for i = 1..k; over [0, 1], S[m] = int sigma_m(W_t) dt
    for m < k.

    One pass over ``t_nodes(k)`` diagonalizes each node once for every order
    and both intervals.  No field depends on p.
    """
    grad = fl.gradient_coefficients(u, grid)
    L = np.zeros(grid.shape)
    G = np.zeros((k,) + grid.shape)
    S = np.zeros((k,) + grid.shape)
    for t, w1, wh in zip(*t_nodes(k)):
        # W_t is dropped before the pairings: at n = 1 it is the largest
        # array of this loop, which sets the probe's peak memory
        Wt = fl.add_background(t * hessian, omega0)
        spectrum = chi_eigh(Wt)
        del Wt
        e = np.moveaxis(symfun.elementary_all(spectrum[0], k - 1), -1, 0)
        S += w1 * e
        L += wh * e[k - 1]
        for i in range(1, k + 1):
            G[i - 1] += wh * fl.gradient_pairing(grad, spectrum, i)
    return L, G, S


def homotopy_integral_check(u, means, grid, k, p, eps):
    """Slack records for the homotopy integral inequalities, one per order i < k.

    Unweighted: pointwise in z,

        eps^(k-i) * S_{i-1}(z)/C(n,i-1)  <=  (k/i) * S_{k-1}(z)/C(n,k-1),

    with S_m(z) = integral_0^1 sigma_m(W_t(z)) dt, W_t = diag(omega0) + t * H(u);
    ``slack`` is the worst relative slack over the grid.  Weighted (fixed
    upper limit 1/2):

        eps^(k-i) * G_{i-1}  <=  (k/i) * G_{k-1},

    with G_m the exp(-p u)-weighted torus integral of the t-integrated
    gradient pairing at order m+1.  Both read ``means`` from
    ``homotopy_means``.  Each record also carries the single-eps display
    variant with raw sigma integrands (logged only; see the module notes).
    The i = k row is the trivial equality and is flagged.
    """
    n = grid.n
    weight = _shifted_weight(u, p)
    S = means[2]
    G = [integrate(weight * g) for g in means[1]]

    records = []
    for i in range(1, k + 1):
        trivial = i == k
        lhs_pt = eps ** (k - i) * S[i - 1] / math.comb(n, i - 1)
        rhs_pt = (k / i) * S[k - 1] / math.comb(n, k - 1)
        scale = np.maximum(np.abs(lhs_pt), np.abs(rhs_pt))
        rel = (rhs_pt - lhs_pt) / np.where(scale > 0, scale, 1.0)
        lhs_w = eps ** (k - i) * G[i - 1]
        rhs_w = (k / i) * G[k - 1]
        wscale = max(abs(lhs_w), abs(rhs_w), 1e-300)
        records.append({
            "i": i,
            "k": k,
            "a": 1.0,
            "eps": float(eps),
            "trivial_equality": trivial,
            "slack": float(rel.min()),
            "lhs_integral": float(integrate(lhs_pt)),
            "rhs_integral": float(integrate(rhs_pt)),
            "display_lhs": float(eps * integrate(S[i - 1])),
            "display_rhs": float((k / i) * integrate(S[k - 1])),
            "weighted_slack": float((rhs_w - lhs_w) / wscale),
            "weighted_lhs": float(lhs_w),
            "weighted_rhs": float(rhs_w),
            "p": float(p),
        })
    return records


def weighted_energy_check(u, means, grid, k, p, eps):
    """Measure the smallest C with

        L <= C (p * G + M0),

    L  = int_0^(1/2) dt int exp(-pu) sigma_{k-1}(W_t)/C(n,k-1),
    G  = int_0^(1/2) dt int exp(-pu) * gradient_pairing(v(u), chi_eigh(W_t), k),
    M0 = int exp(-pu).

    The t-integrals are taken pointwise first (``means``, from
    ``homotopy_means``).  The constant is existential in the underlying
    estimate, so the check reports c_min = L / (p G + M0) per p; families of
    states are compared through their recorded c_min values.  ``eps`` is
    echoed into the record.
    """
    weight = _shifted_weight(u, p)
    L = integrate(weight * means[0]) / math.comb(grid.n, k - 1)
    G = integrate(weight * means[1][k - 1])
    M0 = integrate(weight)
    c_min = L / (p * G + M0)
    return {
        "p": float(p),
        "lhs": float(L),
        "gradient_term": float(G),
        "mass_term": float(M0),
        "c_min": float(c_min),
        "eps": float(eps),
    }


# ---------------------------------------------------------------------------
# pointwise sweep
# ---------------------------------------------------------------------------


def pointwise_lemma_sweep(omega0, hessian, lam0, F, k, l, eps):
    """Evaluate the pointwise homotopy inequalities on the t-grid SWEEP_T, for
    W_t = diag(omega0) + t * hessian (the quaternionic Hessian of u), with
    ``lam0`` the sorted omega0; ``lam0`` and the spectrum of W_1 serve t = 0, 1.

    With Ft = C(n,k)/C(n,l) exp(F) and the measured eps, delta (both shaved
    by 0.5% so the extremal points keep a strictly positive margin):

      excluded-sigma-lower-bound   sigma_{i-1}(W_t|j) >= ((1-t) eps)^(i-1) C(n-1,i-1),  2 <= i <= k
      power-scaling-bound          sigma_i(W_1) <= t^(-i) sigma_i(W_t),   t > 0, 1 <= i <= k
                                   (equality at t = 1, reported separately)
      cone-gap-persistence  (l>0)  sigma_{k-1}(W_t|j) >= (Ft^r + (1-t) delta)^(1/r) sigma_{l-1}(W_t|j),
                                   r = 1/(k-l)
                            (l=0)  min_j sigma_{k-1}(W_t|j) > 0
      cone-gap-floor        (l>0)  k!(n-k)! sigma_{k-1}(W_t|j) - e^F l!(n-l)! sigma_{l-1}(W_t|j)
                                   >= (k-l) Ft^(1-r) delta (1-t) k!(n-k)! C(n-1,l-1) ((1-t) eps)^(l-1)
                            (l=0)  sigma_{k-1}(W_t|j) >= ((1-t) eps)^(k-1) C(n-1,k-1)

    ``F`` must be the forcing field for which u actually solves the equation
    (include any normalization constant).

    Returns the dict of ``k``, ``l``, ``eps``, ``delta`` (shaved), ``t_grid``
    and: ``margins``, each inequality's worst strictly positive margin over
    the full (t, point, slot) sweep; ``margins_by_t``, the per-node breakdown
    (worst over points/slots at each t, None where the node is an equality
    corner or outside the inequality's range); ``equality_residuals``, the
    residuals of corners that are exact equalities by construction (the
    power-scaling bound at t = 1); and ``all_strict_positive``.
    """
    n = lam0.shape[-1]
    cone = fl.check_cone_condition(lam0, F, k, l)
    if not cone["satisfied"]:
        raise ConeError(
            f"cone condition fails (margin {cone['worst_margin']:.3e}); the sweep "
            "hypotheses are void"
        )
    delta = fl.SHAVE * cone["delta"]
    ft = symfun.forcing_factor(n, k, l, F)
    lam1 = fl.eig_field(fl.add_background(hessian.copy(), omega0))
    sig1 = {i: symfun.sigma(lam1, i) for i in range(1, k + 1)}

    names = ("excluded-sigma-lower-bound", "power-scaling-bound",
             "cone-gap-persistence", "cone-gap-floor")
    by_t = {name: [] for name in names}
    equality = {}
    r = 1.0 / (k - l)
    kf = math.factorial(k) * math.factorial(n - k)
    lf = math.factorial(l) * math.factorial(n - l)

    for t in SWEEP_T:
        # the previous node's fields go before W_t is built: W_t and its
        # spectrum set the probe's peak memory
        lam_t = excl = gaps = thresh = floor = lhs4 = None
        lam_t = (lam0 if t == 0 else lam1 if t == 1
                 else fl.eig_field(fl.add_background(t * hessian, omega0)))
        # at l = 0 the order l - 1 = -1 is a zero field that no margin reads
        excl = {m: symfun.sigma_excl_all(lam_t, m)
                for m in {k - 1, l - 1} | set(range(1, k)) if m >= 0}

        by_t["excluded-sigma-lower-bound"].append(min(
            (float((excl[i - 1]
                    - ((1 - t) * eps) ** (i - 1) * math.comb(n - 1, i - 1)).min())
             for i in range(2, k + 1)),
            default=None,
        ))

        if t == 0:
            by_t["power-scaling-bound"].append(None)
        else:
            gaps = [t ** (-float(i)) * symfun.sigma(lam_t, i) - sig1[i]
                    for i in range(1, k + 1)]
            if t == 1.0:
                equality["power-scaling-bound"] = max(
                    float(np.abs(g).max()) for g in gaps
                )
                by_t["power-scaling-bound"].append(None)
            else:
                by_t["power-scaling-bound"].append(min(float(g.min()) for g in gaps))

        if l == 0:
            by_t["cone-gap-persistence"].append(float(excl[k - 1].min()))
            if k >= 2:
                floor = ((1 - t) * eps) ** (k - 1) * math.comb(n - 1, k - 1)
                by_t["cone-gap-floor"].append(float((excl[k - 1] - floor).min()))
            else:
                by_t["cone-gap-floor"].append(None)  # degenerates to 1 >= 1 at k = 1
        else:
            thresh = (ft**r + (1 - t) * delta) ** (k - l)
            by_t["cone-gap-persistence"].append(
                float((excl[k - 1] - thresh[..., None] * excl[l - 1]).min())
            )
            deff = (k - l) * ft ** (1.0 - r) * delta
            floor = (deff * (1 - t) * kf * math.comb(n - 1, l - 1)
                     * ((1 - t) * eps) ** (l - 1))
            lhs4 = kf * excl[k - 1] - (np.exp(F) * lf)[..., None] * excl[l - 1]
            by_t["cone-gap-floor"].append(float((lhs4 - floor[..., None]).min()))

    margins = {}
    for name, vals in by_t.items():
        finite = [v for v in vals if v is not None]
        if finite:
            margins[name] = min(finite)
    return {
        "k": k,
        "l": l,
        "eps": float(eps),
        "delta": float(delta),
        "t_grid": [float(t) for t in SWEEP_T],
        "margins": margins,
        "margins_by_t": {name: vals for name, vals in by_t.items() if name in margins},
        "equality_residuals": {name: float(v) for name, v in equality.items()},
        "all_strict_positive": all(v > 0.0 for v in margins.values()),
    }


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------


def run_probe(u, omega0, F, grid, k, l, p_values=(4, 8, 16, 32, 64), problem_id="state"):
    """Full probe: Cherrier table, pointwise sweep, homotopy and energy checks.

    ``F`` is the effective forcing of the solved state (normalization
    constant included).  The homotopy records are evaluated at the smallest
    probed p; the weighted-energy constants at every p.  Both checks share
    one set of t-integrated fields from ``homotopy_means``, every check one
    quaternionic Hessian of u, and eps and the sweep the sorted omega0.

    Returns the dict of probe_report.json.  Its ``mandatory_ok`` holds iff
    every sweep margin is strictly positive, every homotopy slack (pointwise
    and weighted) is at least -1e-6, and every c_min is finite and positive.
    """
    u = np.asarray(u, dtype=float)
    lam0 = np.sort(omega0, axis=-1)
    eps = fl.measure_epsilon(lam0, k)
    hess = fl.quaternionic_hessian(u, grid)
    sweep = pointwise_lemma_sweep(omega0, hess, lam0, F, k, l, eps)
    means = homotopy_means(u, omega0, hess, grid, k)
    homotopy = homotopy_integral_check(u, means, grid, k, float(min(p_values)), eps)
    weighted = [weighted_energy_check(u, means, grid, k, p, eps) for p in p_values]
    return {
        "problem_id": problem_id,
        "k": k,
        "l": l,
        "p_values": [float(p) for p in p_values],
        "eps": float(eps),
        "delta": sweep["delta"],
        "cherrier": cherrier_table(u, grid, p_values),
        "pointwise": sweep,
        "homotopy": homotopy,
        "weighted_energy": weighted,
        "mandatory_ok": bool(
            sweep["all_strict_positive"]
            and all(r["slack"] >= -1e-6 and r["weighted_slack"] >= -1e-6 for r in homotopy)
            and all(np.isfinite(r["c_min"]) and r["c_min"] > 0 for r in weighted)),
        "notes": {
            "weight_shift": "exp(-p u) integrals use u - min(u); relative slacks are shift-free",
            "t_quadrature": f"interpolatory on the {k} midpoints of [0, 1], exact on degree < {k}",
        },
    }
