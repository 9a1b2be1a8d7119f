import math

import numpy as np
import pytest

from hquot import symfun


def test_sigma_small_cases():
    assert symfun.sigma([1, 1, 1, 1], 2) == 6.0
    assert symfun.sigma([1, 2, 3], 2) == 11.0
    assert symfun.sigma([5.0, -2.0], 0) == 1.0
    assert symfun.sigma([5.0, -2.0], -1) == 0.0


def test_sigma_order_out_of_range():
    with pytest.raises(ValueError):
        symfun.sigma([1.0, 2.0], 3)
    with pytest.raises(ValueError):
        symfun.sigma([1.0, 2.0], -2)


def test_sigma_matches_subset_enumeration():
    rng = np.random.default_rng(2)
    lam = rng.normal(size=6)
    import itertools

    for k in range(7):
        brute = sum(np.prod([lam[i] for i in idx]) for idx in itertools.combinations(range(6), k))
        assert symfun.sigma(lam, k) == pytest.approx(brute, rel=1e-12, abs=1e-12)


def test_sigma_excl_example():
    assert symfun.sigma_excl_all([1.0, 2.0, 3.0], 1)[1] == 4.0


def test_sigma_excl_matches_delete():
    rng = np.random.default_rng(4)
    lam = rng.normal(size=(40, 5))
    for k in range(5):
        mine = symfun.sigma_excl_all(lam, k)
        for i in range(5):
            ref = symfun.sigma(np.delete(lam, i, axis=1), k)
            assert np.allclose(mine[:, i], ref, rtol=1e-10, atol=1e-12)


def test_sigma_table_reads_every_order_of_one_spectrum():
    # one elementary_all and one downdate give sigma_0..sigma_k and every
    # deleted order below k, each bit for bit what a lower-order table gives
    # (test_sigma_excl_matches_delete checks the deleted sums themselves)
    rng = np.random.default_rng(31)
    lam = rng.normal(size=(7, 5))
    for k in range(1, 6):
        e, excl = symfun.sigma_table(lam, k)
        assert len(excl) == k
        for m in range(k + 1):
            assert np.array_equal(e[..., m], symfun.sigma(lam, m))
        for m in range(k):
            assert np.array_equal(excl[m], symfun.sigma_excl_all(lam, m))


def test_split_identity():
    # sigma_k = sigma_k(.|i) + lam_i sigma_{k-1}(.|i)
    rng = np.random.default_rng(6)
    lam = rng.normal(size=(200, 4))
    for k in range(1, 5):
        s = symfun.sigma(lam, k)
        a = symfun.sigma_excl_all(lam, k) if k <= 3 else 0.0
        b = lam * symfun.sigma_excl_all(lam, k - 1)
        if k <= 3:
            total = a + b
        else:
            total = b  # sigma_4 of a deleted 3-tuple vanishes
        scale = np.abs(lam).max() ** k + 1
        assert np.abs(total - s[:, None]).max() < 1e-10 * scale


def test_weighted_sum_identity():
    # sum_i lam_i sigma_{k-1}(.|i) = k sigma_k
    rng = np.random.default_rng(8)
    lam = rng.normal(size=(200, 5))
    for k in range(1, 6):
        lhs = (lam * symfun.sigma_excl_all(lam, k - 1)).sum(axis=1)
        assert np.allclose(lhs, k * symfun.sigma(lam, k), rtol=1e-9, atol=1e-10)


def test_deleted_sum_identity():
    # sum_i sigma_k(.|i) = (n-k) sigma_k
    rng = np.random.default_rng(10)
    lam = rng.normal(size=(200, 5))
    for k in range(5):
        lhs = symfun.sigma_excl_all(lam, k).sum(axis=1)
        assert np.allclose(lhs, (5 - k) * symfun.sigma(lam, k), rtol=1e-9, atol=1e-10)


def test_gamma_membership():
    assert symfun.in_gamma_k([1.0, 1.0, 1.0], 3)
    assert symfun.in_gamma_k([-1.0, 2.0, 2.0], 1)
    assert not symfun.in_gamma_k([-1.0, 2.0, 2.0], 2)  # sigma_2 = 0 exactly
    rng = np.random.default_rng(12)
    pos = rng.uniform(0.1, 2.0, size=(50, 4))
    for k in range(1, 5):
        assert symfun.in_gamma_k(pos, k).all()


def test_gamma_margin_identity_tuple():
    lam = np.ones(3)
    assert symfun.gamma_margin(lam, 2) == 3.0  # min(C(3,1), C(3,2))


def test_quotient_values():
    n = 5
    ones = np.ones(n)
    for k in range(1, n + 1):
        for l in range(k):
            expected = math.comb(n, k) / math.comb(n, l)
            assert symfun.quotient(ones, k, l) == pytest.approx(expected, rel=1e-12)
    lam = np.array([0.5, 1.5, 2.0])
    assert symfun.quotient(lam, 2, 0) == pytest.approx(symfun.sigma(lam, 2), rel=1e-12)


def test_quotient_root_homogeneity():
    rng = np.random.default_rng(14)
    lam = np.abs(rng.normal(size=6)) + 0.1
    for c in (0.3, 2.5):
        left = symfun.quotient_root(c * lam, 3, 1)
        right = c * symfun.quotient_root(lam, 3, 1)
        assert left == pytest.approx(right, rel=1e-12)


def test_quotient_root_midpoint_concavity():
    rng = np.random.default_rng(16)
    lam = np.abs(rng.normal(size=(300, 5))) + 0.05
    mu = np.abs(rng.normal(size=(300, 5))) + 0.05
    for k, l in ((2, 0), (3, 1), (5, 2)):
        mid = symfun.quotient_root((lam + mu) / 2, k, l)
        avg = (symfun.quotient_root(lam, k, l) + symfun.quotient_root(mu, k, l)) / 2
        assert (mid - avg).min() > -1e-12


def test_newton_maclaurin_chain():
    rng = np.random.default_rng(18)
    lam = np.abs(rng.normal(size=(300, 5))) + 0.05
    n = 5
    # (sigma_k/C_k over sigma_l/C_l)^(1/(k-l)) decreases as (k, l) increase
    def norm_root(k, l):
        num = symfun.sigma(lam, k) / math.comb(n, k)
        den = symfun.sigma(lam, l) / math.comb(n, l)
        return (num / den) ** (1.0 / (k - l))

    assert (norm_root(3, 1) - norm_root(5, 2)).min() > -1e-12
    assert (norm_root(1, 0) - norm_root(2, 0)).min() > -1e-12


def test_garding_pairing_equality_cases():
    rng = np.random.default_rng(20)
    lam = np.abs(rng.normal(size=5)) + 0.1
    for k in range(1, 6):
        same = symfun.garding_pairing(lam, lam, k)
        assert same == pytest.approx(k * symfun.sigma(lam, k), rel=1e-11)
        ones = np.ones(5)
        val = symfun.garding_pairing(ones, lam, k)
        assert val == pytest.approx((5 - k + 1) * symfun.sigma(lam, k - 1), rel=1e-11)


def test_garding_inequality():
    rng = np.random.default_rng(22)
    lam = np.abs(rng.normal(size=(200, 4))) + 0.05
    mu = np.abs(rng.normal(size=(200, 4))) + 0.05
    for k in range(1, 5):
        lhs = symfun.garding_pairing(mu, lam, k)
        rhs = k * symfun.sigma(mu, k) ** (1 / k) * symfun.sigma(lam, k) ** (1 - 1 / k)
        assert (lhs - rhs).min() > -1e-10


def test_quotient_partial_monotonicity():
    rng = np.random.default_rng(24)
    lam = np.abs(rng.normal(size=(100, 4))) + 0.1
    k, l = 3, 1
    for i in range(4):
        h = 1e-5 * (1 + np.abs(lam[:, i]))
        up = lam.copy(); up[:, i] += h
        dn = lam.copy(); dn[:, i] -= h
        diff = symfun.quotient(up, k, l) - symfun.quotient(dn, k, l)
        assert diff.min() > 0


def test_minor_quotient_inequality():
    rng = np.random.default_rng(26)
    lam = np.abs(rng.normal(size=(200, 5))) + 0.05
    for k, l in ((2, 1), (4, 2), (5, 1)):
        e_k = symfun.sigma(lam, k)
        e_l = symfun.sigma(lam, l)
        wk = symfun.sigma_excl_all(lam, k - 1)
        wl = symfun.sigma_excl_all(lam, l - 1)
        gap = wk * e_l[:, None] - e_k[:, None] * wl
        assert gap.min() > 0
