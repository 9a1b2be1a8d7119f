import json
import math
import warnings

import numpy as np
import pytest

from hquot import oracle, quaternion as qt, symfun
from hquot.errors import SamplingError
from hquot.oracle import SampleSpec


def _dumps(report):
    """A report as verify_report.json serializes it."""
    return json.dumps(report, sort_keys=True)


def test_spec_validation():
    with pytest.raises(ValueError):
        SampleSpec(n=3, k=2, count=0)
    with pytest.raises(ValueError):
        SampleSpec(n=3, k=4, count=10)
    with pytest.raises(ValueError):
        SampleSpec(n=3, k=2, count=5, scale=-1.0)


def test_nan_slack_is_a_failure():
    # at scale 1e308 the samples overflow and the slacks are NaN: not a pass
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        reports = oracle.run_standard_suite(count=10, seed=20240601, n_values=(2,), scale=1e308,
                                            propositions=["newton-maclaurin"])
    assert sum(r["failures"] for r in reports) > 0


@pytest.mark.parametrize("scale", [math.nan, math.inf, 0.0])
def test_spec_rejects_non_finite_or_zero_scale(scale):
    with pytest.raises(ValueError, match="scale"):
        SampleSpec(n=3, k=2, count=5, scale=scale)


def test_sampler_membership_and_determinism():
    spec = SampleSpec(n=4, k=3, count=400, seed=99)
    a = oracle.sample_gamma_k(spec)
    b = oracle.sample_gamma_k(spec)
    assert np.array_equal(a, b)
    assert symfun.in_gamma_k(a, 3).all()


def test_sampler_full_cone_is_positive_orthant():
    spec = SampleSpec(n=3, k=3, count=300, seed=5)
    a = oracle.sample_gamma_k(spec)
    assert (a > 0).all()


def test_sampler_reaches_negative_entries():
    spec = SampleSpec(n=3, k=2, count=500, seed=7)
    a = oracle.sample_gamma_k(spec)
    assert (a < 0).any()


def test_sampler_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(oracle, "_MAX_ROUNDS", 1)
    spec = SampleSpec(n=5, k=5, count=50000, seed=1)
    with pytest.raises(SamplingError, match="exhausted 1 rounds"):
        oracle.sample_gamma_k(spec)


def test_hyperhermitian_sampler():
    spec = SampleSpec(n=3, k=2, count=200, seed=13)
    A, lam = oracle.sample_hyperhermitian_gamma_k(spec)
    assert np.abs(A - A.conj().transpose(0, 2, 1)).max() < 1e-12
    for i in range(0, 200, 40):
        assert qt.structure_residual(A[i]) < 1e-12
    mu = qt.chi_eigvals(A)
    assert np.abs(mu - lam).max() < 1e-9


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_seeded_spectra_are_the_sampled_matrices_spectra(n):
    # what lets a verifier read lam instead of solving for it
    for k in range(1, n + 1):
        spec = SampleSpec(n=n, k=k, count=300, seed=23)
        A, lam = oracle.sample_hyperhermitian_gamma_k(spec, tag=4)
        bound = 1e-12 * (1.0 + np.abs(lam).max(axis=1))
        assert (np.abs(qt.chi_eigvals(A) - lam).max(axis=1) <= bound).all()
        # U^H diag(lam, lam) U as the contraction it replaces
        U = qt.random_symplectic_unitary_chi(oracle._rng(spec, ("unitary", 4)), n,
                                             count=spec.count)
        ref = np.einsum("cji,cj,cjk->cik", U.conj(), np.concatenate([lam, lam], axis=1), U)
        ref = (ref + ref.conj().transpose(0, 2, 1)) / 2.0
        axes = (1, 2)
        assert (np.abs(A - ref).max(axis=axes) <= 1e-14 * np.abs(ref).max(axis=axes)).all()


def test_hyperhermitian_sampler_positive_det_at_top_order():
    spec = SampleSpec(n=3, k=3, count=100, seed=17)
    A, _ = oracle.sample_hyperhermitian_gamma_k(spec)
    lam = qt.chi_eigvals(A)
    assert (np.prod(lam, axis=1) > 0).all()


def test_minor_quotient_identity_matrix_arithmetic():
    # C(n-1,k-1)/C(n-1,l-1) > C(n,k)/C(n,l) for the identity
    for n in (3, 4, 5):
        for k in range(2, n + 1):
            for l in range(1, k):
                lhs = math.comb(n - 1, k - 1) / math.comb(n - 1, l - 1)
                rhs = math.comb(n, k) / math.comb(n, l)
                assert lhs > rhs


def test_schur_pairing_diagonal_equality():
    lam = np.sort(np.abs(np.random.default_rng(0).normal(size=5)) + 0.1)
    mu = np.sort(np.abs(np.random.default_rng(1).normal(size=5)) + 0.1)
    w = symfun.sigma_excl_all(lam, 2)
    B = np.diag(np.concatenate([mu, mu])).astype(complex)  # the embedding of diag(mu)
    diag = np.einsum("ii->i", B).real[:5]
    assert (diag * w).sum() == pytest.approx((mu * w).sum(), rel=1e-14)


@pytest.mark.parametrize(
    "fn,extra",
    [
        (oracle.verify_deletion_cone, ()),
        (oracle.verify_minor_quotient, ([1],)),
        (oracle.verify_matrix_concavity, ([1],)),
        (oracle.verify_schur_pairing, ()),
        (oracle.verify_newton_maclaurin, ()),
        (oracle.verify_quotient_monotonicity, ([1],)),
        (oracle.verify_quotient_concavity, ([1],)),
        (oracle.verify_garding_inequality, ()),
        (oracle.verify_tuple_minor_quotient, ([1],)),
    ],
)
def test_inequality_verifiers_pass(fn, extra):
    spec = SampleSpec(n=4, k=3, count=800, seed=2024)
    report = fn(spec, *extra)
    if isinstance(report, list):  # the l-indexed verifiers report per requested l
        (report,) = report
    assert report["failures"] == 0
    assert report["checks"] > 0
    assert report["min_slack"] > -oracle.MARGIN


def test_sigma_identity_verifier():
    report = oracle.verify_sigma_identities(SampleSpec(n=5, k=1, count=2000, seed=8))
    assert report["failures"] == 0
    # per order: count*n splits + count weighted sums + count deleted sums
    assert report["checks"] == 5 * 2000 * (5 + 2)


def test_algebra_verifiers_pass():
    spec = SampleSpec(n=3, k=2, count=60, seed=77)
    for fn in (
        oracle.verify_moore_realization,
        oracle.verify_sigma_triple_agreement,
        oracle.verify_realize_homomorphism,
        oracle.verify_unitary_invariance,
    ):
        report = fn(spec)
        assert report["failures"] == 0


def test_reports_are_deterministic_and_serializable():
    spec = SampleSpec(n=3, k=2, count=200, seed=31)
    r1 = oracle.verify_garding_inequality(spec)
    r2 = oracle.verify_garding_inequality(spec)
    assert _dumps(r1) == _dumps(r2)
    payload = json.loads(_dumps(r1))
    assert payload["proposition"] == "garding-pairing"
    assert payload["failures"] == 0


def test_standard_suite_small():
    reports = oracle.run_standard_suite(count=150, seed=3, n_values=(2, 3), algebra_count=25)
    assert all(r["failures"] == 0 for r in reports)
    names = {r["proposition"] for r in reports}
    assert names == set(oracle.STANDARD_PROPOSITIONS)
    with pytest.raises(ValueError):
        oracle.run_standard_suite(count=10, seed=3, n_values=(2,), propositions=["nope"])


def test_matrix_verifiers_diagonalize_once_per_n_k(monkeypatch):
    calls = []
    real = qt.chi_eigvals

    def counting(M, *args, **kwargs):
        calls.append(np.shape(M))
        return real(M, *args, **kwargs)

    monkeypatch.setattr(qt, "chi_eigvals", counting)
    pairs = [(n, k) for n in (2, 3) for k in range(1, n + 1)]
    reports = oracle.run_standard_suite(count=60, seed=5, n_values=(2, 3),
                                        propositions=["matrix-quotient-concavity"])
    # the sampler seeds the spectra of A and B, so one solve of the count
    # midpoints (A + B)/2 per (n, k), plus one per resample round
    midpoints = len(pairs) + sum(r["notes"]["resample_rounds"] for r in reports if r["l"] == 0)
    assert len(reports) == sum(k for _, k in pairs)
    assert [shape[0] for shape in calls] == [60] * midpoints
    calls.clear()
    reports = oracle.run_standard_suite(count=60, seed=5, n_values=(2, 3),
                                        propositions=["matrix-minor-quotient"])
    # each deletion solve takes the count matrices of one i
    assert len(reports) == sum(k - 1 for _, k in pairs)
    assert [shape[0] for shape in calls] == [60] * sum(n for n, k in pairs if k >= 2)


def test_standard_suite_makes_no_einsum_contraction(monkeypatch):
    # products of three or more factors go to matmul (BLAS), not einsum
    operands = []
    einsum = np.einsum

    def counting(subscripts, *ops, **kwargs):
        operands.append(len(ops))
        return einsum(subscripts, *ops, **kwargs)

    monkeypatch.setattr(np, "einsum", counting)
    reports = oracle.run_standard_suite(count=20, seed=3, n_values=(2, 3, 4), algebra_count=5)
    assert all(r["failures"] == 0 for r in reports)
    assert operands and max(operands) < 3


@pytest.mark.parametrize("proposition,per_report", [("moore-realization", 1),
                                                    ("realize-homomorphism", 3)])
def test_algebra_checks_realize_each_stack_once(monkeypatch, proposition, per_report):
    # no loop over samples: one realize call per stack, whatever the count
    calls = []
    real = qt.realize

    def counting(A):
        calls.append(np.shape(A))
        return real(A)

    monkeypatch.setattr(qt, "realize", counting)
    reports = oracle.run_standard_suite(count=5, seed=7, n_values=(2, 3),
                                        propositions=[proposition], algebra_count=9)
    assert [(r["proposition"], r["n"], r["checks"]) for r in reports] == [
        (proposition, 2, 9), (proposition, 3, 9)]
    assert len(calls) == per_report * len(reports)
    assert all(shape[0] == 9 for shape in calls)


def _moore_realization_slack(spec):
    """Per-sample reference: one embedding at a time from the verifier's stream."""
    rng = oracle._rng(spec, 30)
    mats = [qt.random_hyperhermitian_chi(rng, spec.n, spec.scale) for _ in range(spec.count)]
    p4 = np.array([qt.moore_det(A) for A in mats]) ** 4  # the verifier's array power
    d = [np.linalg.det(qt.realize(A)) for A in mats]
    return [1e-8 - abs(p - q) / max(abs(p), abs(q), 1e-12) for p, q in zip(p4, d)]


def _realize_homomorphism_slack(spec):
    """Per-sample reference drawing A_1, B_1, A_2, B_2, ... from the
    verifier's stream."""
    rng = oracle._rng(spec, 32)
    slack = []
    for _ in range(spec.count):
        A, B = (qt.random_qmatrix_chi(rng, spec.n, spec.scale) for _ in range(2))
        lhs, rhs = qt.realize(A @ B), qt.realize(A) @ qt.realize(B)
        slack.append(1e-10 - np.abs(lhs - rhs).max() / (1.0 + np.abs(rhs).max()))
    return slack


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("verify,reference", [
    pytest.param(oracle.verify_moore_realization, _moore_realization_slack,
                 id="moore-realization"),
    pytest.param(oracle.verify_realize_homomorphism, _realize_homomorphism_slack,
                 id="realize-homomorphism"),
])
def test_stacked_algebra_checks_match_per_sample_loop(verify, reference, n):
    spec = SampleSpec(n=n, k=n - 1, count=40, seed=11, scale=0.8)
    report = verify(spec)
    slack = reference(spec)
    assert report["checks"] == len(slack) == spec.count
    assert report["min_slack"] == min(slack)


def _concavity_reference(spec, l):
    """The concavity report of one l from the sampler's spectra of A and B
    and one eigenvalue solve of (A + B)/2 (valid when the verifier resampled
    nothing)."""
    k = spec.k
    A, lam_a = oracle.sample_hyperhermitian_gamma_k(spec, tag=12)
    B, lam_b = oracle.sample_hyperhermitian_gamma_k(spec, tag=13)

    def f(lam):
        return symfun.quotient_root(lam, k, l, check=False)

    mid = f(qt.chi_eigvals((A + B) / 2.0))
    avg = (f(lam_a) + f(lam_b)) / 2.0 - 1e-15
    slack = (mid - avg) / (np.abs(mid) + np.abs(avg) + 1.0)
    failures = int(np.count_nonzero(slack <= -oracle.MARGIN))
    return {
        "proposition": "matrix-quotient-concavity", "n": spec.n, "k": k, "l": l,
        "samples": spec.count, "checks": slack.size, "failures": failures,
        "worst_violation": float(slack.min()) if failures else None,
        "min_slack": float(slack.min()), "seed": spec.seed, "notes": {"resample_rounds": 0},
    }


@pytest.mark.parametrize("n,k", [(3, 3), (4, 2), (5, 4)])
def test_per_l_reports_do_not_depend_on_the_l_list(n, k):
    spec = SampleSpec(n=n, k=k, count=300, seed=41)
    for l, report in enumerate(oracle.verify_matrix_concavity(spec, range(k))):
        assert _dumps(report) == _dumps(_concavity_reference(spec, l))
    for verify, first in [(oracle.verify_matrix_concavity, 0),
                          (oracle.verify_minor_quotient, 1),
                          (oracle.verify_quotient_monotonicity, 0),
                          (oracle.verify_quotient_concavity, 0),
                          (oracle.verify_tuple_minor_quotient, 1)]:
        together = verify(spec, range(first, k))
        assert [r["l"] for r in together] == list(range(first, k))
        for report in together:
            assert _dumps(verify(spec, [report["l"]])[0]) == _dumps(report)
        for outside in (first - 1, k):
            with pytest.raises(ValueError):
                verify(spec, [first, outside])


# (proposition, n, k, l) of run_standard_suite(count=5, seed=0, n_values=(1, 2, 3),
# algebra_count=3); perfbench/reference.json pins the benchmark's order too
SUITE_ORDER = [
    ("sigma-split-identities", 1, 1, None), ("newton-maclaurin", 1, 1, None),
    ("garding-pairing", 1, 1, None), ("schur-diagonal-pairing", 1, 1, None),
    ("quotient-monotonicity", 1, 1, 0), ("quotient-root-concavity", 1, 1, 0),
    ("matrix-quotient-concavity", 1, 1, 0), ("moore-realization", 1, 1, None),
    ("sigma-triple-agreement", 1, 1, None), ("realize-homomorphism", 1, 1, None),
    ("unitary-invariance", 1, 1, None),
    ("sigma-split-identities", 2, 1, None), ("newton-maclaurin", 2, 1, None),
    ("garding-pairing", 2, 1, None), ("schur-diagonal-pairing", 2, 1, None),
    ("quotient-monotonicity", 2, 1, 0), ("quotient-root-concavity", 2, 1, 0),
    ("matrix-quotient-concavity", 2, 1, 0),
    ("newton-maclaurin", 2, 2, None), ("garding-pairing", 2, 2, None),
    ("deletion-cone", 2, 2, None), ("schur-diagonal-pairing", 2, 2, None),
    ("quotient-monotonicity", 2, 2, 0), ("quotient-root-concavity", 2, 2, 0),
    ("matrix-quotient-concavity", 2, 2, 0),
    ("quotient-monotonicity", 2, 2, 1), ("quotient-root-concavity", 2, 2, 1),
    ("matrix-quotient-concavity", 2, 2, 1), ("minor-quotient", 2, 2, 1),
    ("matrix-minor-quotient", 2, 2, 1),
    ("moore-realization", 2, 1, None), ("sigma-triple-agreement", 2, 1, None),
    ("sigma-triple-agreement", 2, 2, None), ("realize-homomorphism", 2, 1, None),
    ("unitary-invariance", 2, 1, None),
    ("sigma-split-identities", 3, 1, None), ("newton-maclaurin", 3, 1, None),
    ("garding-pairing", 3, 1, None), ("schur-diagonal-pairing", 3, 1, None),
    ("quotient-monotonicity", 3, 1, 0), ("quotient-root-concavity", 3, 1, 0),
    ("matrix-quotient-concavity", 3, 1, 0),
    ("newton-maclaurin", 3, 2, None), ("garding-pairing", 3, 2, None),
    ("deletion-cone", 3, 2, None), ("schur-diagonal-pairing", 3, 2, None),
    ("quotient-monotonicity", 3, 2, 0), ("quotient-root-concavity", 3, 2, 0),
    ("matrix-quotient-concavity", 3, 2, 0),
    ("quotient-monotonicity", 3, 2, 1), ("quotient-root-concavity", 3, 2, 1),
    ("matrix-quotient-concavity", 3, 2, 1), ("minor-quotient", 3, 2, 1),
    ("matrix-minor-quotient", 3, 2, 1),
    ("newton-maclaurin", 3, 3, None), ("garding-pairing", 3, 3, None),
    ("deletion-cone", 3, 3, None), ("schur-diagonal-pairing", 3, 3, None),
    ("quotient-monotonicity", 3, 3, 0), ("quotient-root-concavity", 3, 3, 0),
    ("matrix-quotient-concavity", 3, 3, 0),
    ("quotient-monotonicity", 3, 3, 1), ("quotient-root-concavity", 3, 3, 1),
    ("matrix-quotient-concavity", 3, 3, 1), ("minor-quotient", 3, 3, 1),
    ("matrix-minor-quotient", 3, 3, 1),
    ("quotient-monotonicity", 3, 3, 2), ("quotient-root-concavity", 3, 3, 2),
    ("matrix-quotient-concavity", 3, 3, 2), ("minor-quotient", 3, 3, 2),
    ("matrix-minor-quotient", 3, 3, 2),
    ("moore-realization", 3, 2, None), ("sigma-triple-agreement", 3, 1, None),
    ("sigma-triple-agreement", 3, 2, None), ("sigma-triple-agreement", 3, 3, None),
    ("realize-homomorphism", 3, 2, None), ("unitary-invariance", 3, 2, None),
]


def test_standard_suite_order():
    reports = oracle.run_standard_suite(count=5, seed=0, n_values=(1, 2, 3), algebra_count=3)
    assert [(r["proposition"], r["n"], r["k"], r["l"]) for r in reports] == SUITE_ORDER
