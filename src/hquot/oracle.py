"""Randomized verification of the symmetric-function and matrix inequalities.

Every verifier draws reproducible samples (rejection sampling into the
Gamma_k cone, hyperhermitian conjugations of cone diagonals), evaluates both
sides of one inequality, and reports failures against the strictness margin

    lhs - rhs > -MARGIN * (|lhs| + |rhs| + 1).

Floating point cannot certify open conditions, so near-zero slack is logged
in the report rather than failed.  All sampling is deterministic given the
spec seed; batches are independent, so reports merge associatively.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from . import quaternion as qt
from . import symfun
from .config import VERIFY, check
from .errors import SamplingError

__all__ = [
    "MARGIN",
    "SampleSpec",
    "sample_gamma_k",
    "sample_hyperhermitian_gamma_k",
    "verify_deletion_cone",
    "verify_minor_quotient",
    "verify_matrix_concavity",
    "verify_schur_pairing",
    "verify_sigma_identities",
    "verify_newton_maclaurin",
    "verify_quotient_monotonicity",
    "verify_quotient_concavity",
    "verify_garding_inequality",
    "verify_tuple_minor_quotient",
    "verify_moore_realization",
    "verify_sigma_triple_agreement",
    "verify_realize_homomorphism",
    "verify_unitary_invariance",
    "run_standard_suite",
    "STANDARD_PROPOSITIONS",
]

MARGIN = 1e-10

# ball offset/radius for the Gamma_k rejection sampler; the ball reaches well
# into negative coordinates so that k < n samples exercise the full cone
_CENTER = 0.6
_RADIUS = 1.4
_MAX_ROUNDS = 1000  # its retry budget, in rounds of max(count, 256) draws

_MAX_RESAMPLE = 50  # matrix-concavity resample rounds before SamplingError


@dataclass(frozen=True)
class SampleSpec:
    """Reproducible sampling request: dimension, cone order, count, seed, scale."""

    n: int
    k: int
    count: int
    seed: int = 20240601
    scale: float = 1.0

    def __post_init__(self):
        check({"count": self.count, "scale": self.scale}, VERIFY)
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")


def _rng(spec, tag):
    if not isinstance(tag, tuple):
        tag = (tag,)
    words = tuple(t if isinstance(t, int) else zlib.crc32(str(t).encode()) for t in tag)
    return np.random.default_rng(np.random.SeedSequence((spec.seed, spec.n, spec.k) + words))


def _normalized_slack(lhs, rhs):
    """Slack of the strict inequality lhs > rhs, scaled by |lhs| + |rhs| + 1."""
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    return (lhs - rhs) / (np.abs(lhs) + np.abs(rhs) + 1.0)


def _tally(proposition, spec, l, *slacks):
    """One verify_report.json entry: the outcome of one proposition over one
    sample batch, failing where a slack is not above -MARGIN."""
    slack = np.concatenate([np.ravel(s) for s in slacks]) if slacks else np.empty(0)
    failures = int(np.count_nonzero(~(slack > -MARGIN)))  # a NaN slack fails
    worst = float(slack.min()) if slack.size else None
    return {
        "proposition": proposition, "n": spec.n, "k": spec.k, "l": l,
        "samples": spec.count, "seed": spec.seed, "checks": int(slack.size),
        "failures": failures, "worst_violation": worst if failures else None,
        "min_slack": worst, "notes": {},
    }


def _admissible(spec, ls, first):
    """The list of l, each required to satisfy first <= l < k."""
    ls = list(ls)
    for l in ls:
        if not first <= l < spec.k:
            raise ValueError(f"need {first} <= l < k, got l={l}, k={spec.k}")
    return ls


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def sample_gamma_k(spec, tag=0):
    """Tuples in Gamma_k, shape (count, n), by rejection from a shifted ball.

    Deterministic for a given spec; raises SamplingError after 1000 rounds
    (the default ball accepts a healthy fraction for all k <= n <= 8).
    """
    rng = _rng(spec, ("gamma", tag))
    out = np.empty((spec.count, spec.n))
    filled = 0
    chunk = max(spec.count, 256)
    for _ in range(_MAX_ROUNDS):
        direction = rng.normal(size=(chunk, spec.n))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radius = rng.uniform(0.0, 1.0, size=(chunk, 1)) ** (1.0 / spec.n)
        pts = spec.scale * (_CENTER + _RADIUS * radius * direction)
        keep = pts[symfun.in_gamma_k(pts, spec.k)]
        take = min(len(keep), spec.count - filled)
        out[filled : filled + take] = keep[:take]
        filled += take
        if filled == spec.count:
            return out
    raise SamplingError(
        f"Gamma_{spec.k} sampler exhausted {_MAX_ROUNDS} rounds at {filled}/{spec.count}"
    )


def sample_hyperhermitian_gamma_k(spec, tag=0):
    """(A, lam): stacked embeddings A (count, 2n, 2n) with eigenvalue tuples
    lam (count, n) in Gamma_k, sorted ascending.

    A = U^H diag(lam, lam) U for random quaternionic unitaries U, so lam is
    A's spectrum up to roundoff, and a verifier may read it instead of solving.
    """
    lam = np.sort(sample_gamma_k(spec, tag=tag), axis=1)
    rng = _rng(spec, ("unitary", tag))
    U = qt.random_symplectic_unitary_chi(rng, spec.n, count=spec.count)
    Uh = U.conj().transpose(0, 2, 1)
    Uh *= np.concatenate([lam, lam], axis=1)[:, None, :]
    A = Uh @ U
    # U and Uh go before the symmetrization: with its two temporaries they
    # set the peak memory of verify
    del U, Uh
    A = (A + A.conj().transpose(0, 2, 1)) / 2.0
    return A, lam


# ---------------------------------------------------------------------------
# matrix propositions
# ---------------------------------------------------------------------------


def verify_deletion_cone(spec):
    """lam(A) in Gamma_k implies lam(A | i) in Gamma_{k-1} for every deletion i."""
    A, _ = sample_hyperhermitian_gamma_k(spec, tag=10)
    slacks = []
    for i in range(spec.n):
        sub = qt.chi_delete(A, i)
        mu = qt.chi_eigvals(sub)
        e = symfun.elementary_all(mu, spec.k - 1)
        slacks.append(_normalized_slack(e[:, 1 : spec.k], 0.0))
    return _tally("deletion-cone", spec, None, *slacks)


def verify_minor_quotient(spec, ls):
    """sigma_{k-1}(A|i) / sigma_{l-1}(A|i) > sigma_k(A) / sigma_l(A), cross-multiplied.

    One report per l in ``ls``, in order; the n deletions are diagonalized
    once and shared by every l.
    """
    k = spec.k
    ls = _admissible(spec, ls, 1)
    A, lam = sample_hyperhermitian_gamma_k(spec, tag=11)
    e = symfun.elementary_all(lam, k)
    emus = [symfun.elementary_all(qt.chi_eigvals(qt.chi_delete(A, i)), k - 1)
            for i in range(spec.n)]
    return [_tally("matrix-minor-quotient", spec, l,
                   *(_normalized_slack(emu[:, k - 1] * e[:, l], e[:, k] * emu[:, l - 1])
                     for emu in emus))
            for l in ls]


def verify_matrix_concavity(spec, ls):
    """Midpoint concavity of (sigma_k / sigma_l)^(1/(k-l)) on matrix pairs.

    Reads the spectra of A and B from the sampler, which seeds them, and
    solves only for the spectrum of (A + B)/2.  The matrices with
    eigenvalues in Gamma_k form a convex set (Garding 1959), so only the
    midpoint can leave it, by roundoff; that pair's B (with its spectrum) is
    resampled.  The spectra serve every l in ``ls``; one report per l, in order.
    """
    k = spec.k
    ls = _admissible(spec, ls, 0)
    A, lam_a = sample_hyperhermitian_gamma_k(spec, tag=12)
    B, lam_b = sample_hyperhermitian_gamma_k(spec, tag=13)
    resamples = 0
    for _ in range(_MAX_RESAMPLE):
        lam_mid = qt.chi_eigvals((A + B) / 2.0)
        inside = symfun.in_gamma_k(lam_mid, k)
        if inside.all():
            break
        bad = np.flatnonzero(~inside)
        repl = SampleSpec(spec.n, spec.k, len(bad), spec.seed + 1 + resamples, spec.scale)
        B[bad], lam_b[bad] = sample_hyperhermitian_gamma_k(repl, tag=14)
        resamples += 1
    else:
        raise SamplingError("could not keep concavity segments inside the cone")
    reports = []
    for l in ls:
        fa, mid, fb = symfun.quotient_root(np.stack([lam_a, lam_mid, lam_b]), k, l, check=False)
        report = _tally("matrix-quotient-concavity", spec, l,
                        _normalized_slack(mid, (fa + fb) / 2.0 - 1e-15))
        report["notes"]["resample_rounds"] = resamples
        reports.append(report)
    return reports


def verify_schur_pairing(spec):
    """For lam ascending in Gamma_k and hyperhermitian B with ascending
    eigenvalues mu in Gamma_k:

        sum_i B_ii sigma_{k-1}(lam|i) >= sum_i mu_i sigma_{k-1}(lam|i) > 0.

    Both orderings ascending is the convention; the weights sigma_{k-1}(lam|i)
    are then non-increasing, which is what makes the pairing extremal.
    """
    k = spec.k
    lam = np.sort(sample_gamma_k(spec, tag=15), axis=1)
    B, mu = sample_hyperhermitian_gamma_k(spec, tag=16)
    w = symfun.sigma_excl_all(lam, k - 1)
    diag = np.einsum("cii->ci", B)[:, : spec.n].real
    lhs = (diag * w).sum(axis=1)
    mid = (mu * w).sum(axis=1)
    return _tally("schur-diagonal-pairing", spec, None,
                  _normalized_slack(lhs, mid - 1e-15), _normalized_slack(mid, 0.0))


# ---------------------------------------------------------------------------
# tuple propositions
# ---------------------------------------------------------------------------


def verify_sigma_identities(spec):
    """The three split identities for deleted symmetric functions:

        sigma_k = sigma_k(.|i) + lam_i sigma_{k-1}(.|i)
        sum_i lam_i sigma_{k-1}(.|i) = k sigma_k
        sum_i sigma_k(.|i) = (n - k) sigma_k

    checked as relative deviations, to 1e-10, on unconstrained random tuples
    (the identities are polynomial, no cone needed), every order and index.
    """
    n = spec.n
    rng = _rng(spec, 19)
    lam = spec.scale * rng.uniform(-1.0, 1.0, size=(spec.count, n))
    slacks = []
    for kk in range(1, n + 1):
        s = symfun.sigma(lam, kk)
        w = symfun.sigma_excl_all(lam, kk - 1)
        d = symfun.sigma_excl_all(lam, kk) if kk <= n - 1 else np.zeros_like(lam)
        rel1 = np.abs(d + lam * w - s[:, None]) / (np.abs(s)[:, None] + np.abs(lam * w) + 1.0)
        rel2 = np.abs((lam * w).sum(axis=1) - kk * s) / (np.abs(kk * s) + 1.0)
        rel3 = np.abs(d.sum(axis=1) - (n - kk) * s) / (np.abs((n - kk) * s) + 1.0)
        slacks.extend([1e-10 - rel1, 1e-10 - rel2, 1e-10 - rel3])
    return _tally("sigma-split-identities", spec, None, *slacks)


def verify_newton_maclaurin(spec):
    """Normalized quotient roots are monotone across admissible order pairs:

        [ (s_k/C_k) / (s_l/C_l) ]^(1/(k-l)) <= [ (s_r/C_r) / (s_s/C_s) ]^(1/(r-s))

    for k > l, r > s, k >= r, l >= s, on Gamma_k samples.
    """
    n, k = spec.n, spec.k
    lam = sample_gamma_k(spec, tag=20)
    e = symfun.elementary_all(lam, k)
    C = np.array([math.comb(n, m) for m in range(k + 1)], dtype=float)
    norm = e / C
    slacks = []
    for kk in range(1, k + 1):
        for ll in range(kk):
            lhs = (norm[:, kk] / norm[:, ll]) ** (1.0 / (kk - ll))
            for r in range(1, kk + 1):
                for s in range(min(ll, r - 1) + 1):
                    if (r, s) == (kk, ll):
                        continue
                    rhs = (norm[:, r] / norm[:, s]) ** (1.0 / (r - s))
                    slacks.append(_normalized_slack(rhs, lhs - 1e-15))
    return _tally("newton-maclaurin", spec, None, *slacks)


def verify_quotient_monotonicity(spec, ls):
    """Central-difference partials of sigma_k/sigma_l are positive on Gamma_k,
    with step 1e-5 * (1 + |lam_i|); one report per l in ``ls``, in order."""
    k = spec.k
    ls = _admissible(spec, ls, 0)
    lam = sample_gamma_k(spec, tag=21)
    steps = []
    for i in range(spec.n):
        h = 1e-5 * (1.0 + np.abs(lam[:, i]))
        up = lam.copy()
        dn = lam.copy()
        up[:, i] += h
        dn[:, i] -= h
        steps.append((symfun.elementary_all(up, k), symfun.elementary_all(dn, k)))
    return [_tally("quotient-monotonicity", spec, l,
                   *(_normalized_slack(eu[:, k] / eu[:, l], ed[:, k] / ed[:, l])
                     for eu, ed in steps))
            for l in ls]


def verify_quotient_concavity(spec, ls):
    """Midpoint concavity of (sigma_k/sigma_l)^(1/(k-l)) on tuple pairs in
    Gamma_k; one report per l in ``ls``, in order."""
    k = spec.k
    ls = _admissible(spec, ls, 0)
    lam = sample_gamma_k(spec, tag=22)
    mu = sample_gamma_k(spec, tag=23)
    half = (lam + mu) / 2.0
    reports = []
    for l in ls:
        mid = symfun.quotient_root(half, k, l, check=False)
        avg = (symfun.quotient_root(lam, k, l, check=False)
               + symfun.quotient_root(mu, k, l, check=False)) / 2.0
        reports.append(_tally("quotient-root-concavity", spec, l,
                              _normalized_slack(mid, avg - 1e-15)))
    return reports


def verify_garding_inequality(spec):
    """sum_i mu_i sigma_{k-1}(lam|i) >= k sigma_k(mu)^(1/k) sigma_k(lam)^(1-1/k)."""
    k = spec.k
    lam = sample_gamma_k(spec, tag=24)
    mu = sample_gamma_k(spec, tag=25)
    lhs = symfun.garding_pairing(mu, lam, k, check=False)
    rhs = k * symfun.sigma(mu, k) ** (1.0 / k) * symfun.sigma(lam, k) ** (1.0 - 1.0 / k)
    return _tally("garding-pairing", spec, None, _normalized_slack(lhs, rhs - 1e-15))


def verify_tuple_minor_quotient(spec, ls):
    """sigma_{k-1}(lam|i) sigma_l(lam) > sigma_k(lam) sigma_{l-1}(lam|i) on
    Gamma_k; one report per l in ``ls``, in order."""
    k = spec.k
    ls = _admissible(spec, ls, 1)
    lam = sample_gamma_k(spec, tag=26)
    e = symfun.elementary_all(lam, k)
    wk = symfun.sigma_excl_all(lam, k - 1)
    return [_tally("minor-quotient", spec, l,
                   _normalized_slack(wk * e[:, l, None],
                                     e[:, k, None] * symfun.sigma_excl_all(lam, l - 1)))
            for l in ls]


# ---------------------------------------------------------------------------
# algebra cross-checks
# ---------------------------------------------------------------------------


def verify_moore_realization(spec):
    """|moore_det|^4 equals det(realize), to 1e-8 relative, on a stack of
    random hyperhermitian matrices."""
    A = qt.random_hyperhermitian_chi(_rng(spec, 30), spec.n, spec.scale, count=spec.count)
    p4 = qt.moore_det(A) ** 4
    d = np.linalg.det(qt.realize(A))
    rel = np.abs(p4 - d) / np.maximum(np.maximum(np.abs(p4), np.abs(d)), 1e-12)
    return _tally("moore-realization", spec, None, 1e-8 - rel)


def verify_sigma_triple_agreement(spec):
    """Eigenvalue, minor-sum, and coefficient routes to sigma_k agree to 1e-8 relative.

    Each route runs once on the whole stack of samples.
    """
    A = qt.random_hyperhermitian_chi(_rng(spec, 31), spec.n, spec.scale, count=spec.count)
    a = qt.sigma_k_matrix(A, spec.k)
    b = qt.sigma_k_minor_sum(A, spec.k)
    d = qt.sigma_k_coefficient(A, spec.k)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.maximum(np.abs(d), 1.0))
    rel = np.stack([np.abs(a - b) / scale, np.abs(a - d) / scale], axis=1)
    return _tally("sigma-triple-agreement", spec, None, 1e-8 - rel)


def verify_realize_homomorphism(spec):
    """realize(A @ B) == realize(A) @ realize(B) to 1e-10 relative, on stacks
    of random quaternionic matrices drawn in the order A_1, B_1, A_2, B_2, ..."""
    M = qt.random_qmatrix_chi(_rng(spec, 32), spec.n, spec.scale, count=2 * spec.count)
    A, B = M[0::2], M[1::2]
    lhs = qt.realize(A @ B)
    rhs = qt.realize(A) @ qt.realize(B)
    axes = (-2, -1)
    rel = np.abs(lhs - rhs).max(axis=axes) / (1.0 + np.abs(rhs).max(axis=axes))
    return _tally("realize-homomorphism", spec, None, 1e-10 - rel)


def verify_unitary_invariance(spec):
    """eigenvalues(C* A C) == eigenvalues(A) to 1e-9 relative, for random unitaries C."""
    A, lam = sample_hyperhermitian_gamma_k(spec, tag=33)
    rng = _rng(spec, 34)
    U = qt.random_symplectic_unitary_chi(rng, spec.n, count=spec.count)
    conj = U.conj().transpose(0, 2, 1) @ A @ U
    conj = (conj + conj.conj().transpose(0, 2, 1)) / 2.0
    mu = qt.chi_eigvals(conj)
    rel = np.abs(mu - lam).max(axis=1) / (1.0 + np.abs(lam).max(axis=1))
    return _tally("unitary-invariance", spec, None, 1e-9 - rel)


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

STANDARD_PROPOSITIONS = (
    "sigma-split-identities",
    "newton-maclaurin",
    "quotient-monotonicity",
    "quotient-root-concavity",
    "garding-pairing",
    "minor-quotient",
    "deletion-cone",
    "matrix-minor-quotient",
    "matrix-quotient-concavity",
    "schur-diagonal-pairing",
    "moore-realization",
    "sigma-triple-agreement",
    "realize-homomorphism",
    "unitary-invariance",
)


def run_standard_suite(count, seed, n_values=(2, 3, 4, 5), scale=1.0,
                       propositions=None, algebra_count=None):
    """Run every verifier over all admissible (n, k, l); returns the list of
    verify_report.json entries (``_tally``'s dicts).

    ``algebra_count`` sets the sample count of the algebra cross-checks
    (moore-realization, sigma-triple, homomorphism) independently of the
    inequality count.
    """
    want = set(propositions or STANDARD_PROPOSITIONS)
    unknown = want - set(STANDARD_PROPOSITIONS)
    if unknown:
        raise ValueError(f"unknown propositions: {sorted(unknown)}")
    acount = count if algebra_count is None else algebra_count
    # Both tables are built per call, so a verifier rebound on this module
    # (a tracing wrapper, say) is the one that runs.
    # (name, verifier, first k): one report per (n, k) with k >= first k;
    # sigma-split-identities checks every order itself and runs once per n
    per_k = (
        ("newton-maclaurin", verify_newton_maclaurin, 1),
        ("garding-pairing", verify_garding_inequality, 1),
        ("deletion-cone", verify_deletion_cone, 2),
        ("schur-diagonal-pairing", verify_schur_pairing, 1),
    )
    # (name, verifier, first l): one call per (n, k) reports every l in
    # [first l, k); the reports of one (n, k) are ordered by l, then by row
    per_l = (
        ("quotient-monotonicity", verify_quotient_monotonicity, 0),
        ("quotient-root-concavity", verify_quotient_concavity, 0),
        ("matrix-quotient-concavity", verify_matrix_concavity, 0),
        ("minor-quotient", verify_tuple_minor_quotient, 1),
        ("matrix-minor-quotient", verify_minor_quotient, 1),
    )
    reports = []

    def spec_for(n, k, c=count):
        return SampleSpec(n=n, k=k, count=c, seed=seed, scale=scale)

    for n in n_values:
        if "sigma-split-identities" in want:
            reports.append(verify_sigma_identities(spec_for(n, 1)))
        for k in range(1, n + 1):
            spec = spec_for(n, k)
            reports.extend(fn(spec) for name, fn, first in per_k
                           if name in want and k >= first)
            rows = [fn(spec, range(first, k)) for name, fn, first in per_l
                    if name in want and first < k]
            reports.extend(r for l in range(k) for row in rows for r in row if r["l"] == l)
        aspec = spec_for(n, max(1, n - 1), acount)
        if "moore-realization" in want:
            reports.append(verify_moore_realization(aspec))
        if "sigma-triple-agreement" in want:
            for k in range(1, n + 1):
                reports.append(verify_sigma_triple_agreement(spec_for(n, k, acount)))
        if "realize-homomorphism" in want:
            reports.append(verify_realize_homomorphism(aspec))
        if "unitary-invariance" in want:
            reports.append(verify_unitary_invariance(spec_for(n, max(1, n - 1), count)))
    return reports
