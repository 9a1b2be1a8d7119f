import numpy as np
import pytest

from hquot import fields as fl, quaternion as qt
from hquot.errors import StructureError
from hquot.quaternion import QMatrix, Quaternion


def _hyperhermitian(rng, n, scale=1.0):
    return QMatrix(qt.random_hyperhermitian_chi(rng, n, scale), validate=False)


def _qmatrix(rng, n):
    return QMatrix(qt.random_qmatrix_chi(rng, n), validate=False)


def test_multiplication_table():
    i, j, k = qt.I, qt.J, qt.K
    assert (i * j).isclose(k)
    assert (j * i).isclose(-k)
    assert (j * k).isclose(i)
    assert (k * j).isclose(-i)
    assert (k * i).isclose(j)
    assert (i * k).isclose(-j)
    for unit in (i, j, k):
        assert (unit * unit).isclose(Quaternion(-1.0))


def test_conjugate_norm():
    rng = np.random.default_rng(3)
    for _ in range(50):
        q = Quaternion(*rng.normal(size=4))
        prod = q.conjugate() * q
        assert abs(prod.x) < 1e-14 and abs(prod.y) < 1e-14 and abs(prod.z) < 1e-14
        assert prod.w >= 0.0
        assert abs(prod.w - q.norm_sq()) < 1e-12


def test_complex_pair_roundtrip():
    q = Quaternion(1.0, -2.0, 3.0, 0.5)
    a, b = q.complex_pair()
    assert Quaternion.from_complex_pair(a, b) == q


def test_realize_identity():
    A = QMatrix.identity(3)
    assert np.array_equal(qt.realize(A), np.eye(12))


def test_realize_real_diagonal():
    A = QMatrix.diag([2.0, 3.0])
    R = qt.realize(A)
    assert np.array_equal(R, np.diag([2.0, 3.0] * 4))


def test_realize_symmetric_for_hyperhermitian():
    rng = np.random.default_rng(11)
    A = _hyperhermitian(rng, 4)
    R = qt.realize(A)
    assert np.array_equal(R, R.T)


def test_realize_homomorphism():
    rng = np.random.default_rng(5)
    for _ in range(10):
        A = _qmatrix(rng, 3)
        B = _qmatrix(rng, 3)
        lhs = qt.realize(A @ B)
        rhs = qt.realize(A) @ qt.realize(B)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_from_components_shape_mismatch():
    with pytest.raises(ValueError):
        QMatrix.from_components(np.eye(2), np.eye(2), np.eye(2), np.eye(3))


def _j_pair_matrix():
    # [[1, j], [-j, 1]]: hyperhermitian with eigenvalues (0, 2)
    return QMatrix.from_entries([[1.0, qt.J], [-qt.J, 1.0]])


def test_j_pair_realization_spectrum():
    A = _j_pair_matrix()
    R = qt.realize(A)
    assert R.shape == (8, 8)
    assert np.array_equal(R, R.T)
    w = np.linalg.eigvalsh(R)  # independent dense symmetric oracle
    assert np.allclose(w, [0, 0, 0, 0, 2, 2, 2, 2], atol=1e-12)


def test_j_pair_eigenvalues_and_det():
    A = _j_pair_matrix()
    assert np.allclose(qt.eigenvalues(A), [0.0, 2.0], atol=1e-12)
    assert abs(qt.moore_det(A)) < 1e-12
    assert abs(qt.sigma_k_matrix(A, 2)) < 1e-12


def test_eigenvalues_diagonal():
    A = QMatrix.diag([3.0, -1.0, 2.0])
    assert np.array_equal(qt.eigenvalues(A), [-1.0, 2.0, 3.0])


def test_eigenvalues_two_by_two_closed_form():
    rng = np.random.default_rng(17)
    for _ in range(20):
        a, b = rng.normal(size=2)
        q = Quaternion(*rng.normal(size=4))
        A = QMatrix.from_entries([[a, q], [q.conjugate(), b]])
        disc = np.sqrt((a - b) ** 2 + 4 * q.norm_sq())
        expected = np.sort([(a + b - disc) / 2, (a + b + disc) / 2])
        assert np.allclose(qt.eigenvalues(A), expected, atol=1e-10)
        # realization route as an independent check
        w = np.linalg.eigvalsh(qt.realize(A))
        assert np.allclose(w, np.repeat(expected, 4), atol=1e-10)


def test_eigenvalue_routes_agree():
    # a QMatrix, its embedding, and a stack of embeddings take either route
    rng = np.random.default_rng(23)
    A = _hyperhermitian(rng, 4)
    stack = qt.random_hyperhermitian_chi(rng, 4, count=3)
    for B in (A, A.chi, stack):
        real = qt.eigenvalues(B, "real")
        assert real.shape == np.shape(B)[:-2] + (4,)
        assert np.allclose(qt.eigenvalues(B, "complex"), real, atol=1e-10)


def test_non_hyperhermitian_rejected():
    rng = np.random.default_rng(29)
    B = _qmatrix(rng, 3)
    with pytest.raises(StructureError):
        qt.eigenvalues(B)
    with pytest.raises(StructureError):
        qt.eigenvalues(B, "real")


def test_from_chi_rejects_unstructured():
    rng = np.random.default_rng(30)
    M = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    with pytest.raises(StructureError):
        QMatrix(M)
    with pytest.raises(ValueError):
        QMatrix(np.zeros((5, 5)))  # odd size


def test_moore_det_identity_exact():
    assert qt.moore_det(QMatrix.identity(5)) == 1.0


def test_moore_det_complex_hermitian_embedding():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    X = (X + X.conj().T) / 2
    A = QMatrix(qt.chi_from_split(X, np.zeros((3, 3))), validate=False)
    assert abs(qt.moore_det(A) - np.linalg.det(X).real) < 1e-10


def test_moore_det_vs_realization():
    rng = np.random.default_rng(37)
    for n in (2, 3, 4):
        for _ in range(25):
            A = _hyperhermitian(rng, n)
            p4 = qt.moore_det(A) ** 4
            d = np.linalg.det(qt.realize(A))
            assert abs(p4 - d) <= 1e-8 * max(abs(p4), abs(d), 1e-12)


def test_unitary_invariance():
    rng = np.random.default_rng(41)
    A = _hyperhermitian(rng, 4)
    lam = qt.eigenvalues(A)
    C = QMatrix(qt.random_symplectic_unitary_chi(rng, 4), tol=1e-8)
    assert np.abs((C.conj_transpose() @ C).chi - np.eye(8)).max() < 1e-12
    B = C.conj_transpose() @ A @ C
    assert np.allclose(qt.eigenvalues(QMatrix(B.chi)), lam, atol=1e-9)


def test_principal_minor_conventions():
    A = QMatrix.diag([1.0, 2.0, 3.0])
    assert qt.principal_minor_det(A, range(3)) == 1.0
    assert qt.principal_minor_det(A, []) == qt.moore_det(A)
    assert qt.principal_minor_det(A, [1]) == pytest.approx(3.0, abs=1e-14)
    with pytest.raises(ValueError):
        qt.principal_minor_det(A, [3])


def test_sigma_matrix_basics():
    A = QMatrix.diag([1.0, 2.0, 3.0])
    assert qt.sigma_k_matrix(A, 1) == pytest.approx(6.0, abs=1e-14)
    rng = np.random.default_rng(43)
    B = _hyperhermitian(rng, 3)
    assert qt.sigma_k_matrix(B, 3) == pytest.approx(qt.moore_det(B), rel=1e-12, abs=1e-14)


def test_sigma_triple_agreement():
    rng = np.random.default_rng(47)
    for _ in range(10):
        A = _hyperhermitian(rng, 3)
        for k in range(4):
            a = qt.sigma_k_matrix(A, k)
            b = qt.sigma_k_minor_sum(A, k)
            c = qt.sigma_k_coefficient(A, k)
            scale = max(abs(a), abs(b), abs(c), 1.0)
            assert abs(a - b) <= 1e-8 * scale
            assert abs(a - c) <= 1e-8 * scale


def _char_expansion(A, t):
    """sum_k t^(n-k) sigma_k(A), each sigma_k a sum of principal minors: the
    minor-sum evaluation of moore_det(A + t*Id)."""
    return sum(t ** (A.n - k) * qt.sigma_k_minor_sum(A, k) for k in range(A.n + 1))


def test_char_expansion_zero_matrix():
    n = 3
    A = QMatrix.from_components(*np.zeros((4, n, n)))
    for t in (0.5, 2.0):
        assert _char_expansion(A, t) == pytest.approx(t**n, rel=1e-12)


def test_char_expansion_identity():
    n = 4
    assert _char_expansion(QMatrix.identity(n), 1.0) == pytest.approx(2.0**n, rel=1e-12)


def test_char_expansion_matches_shifted_det():
    rng = np.random.default_rng(53)
    A = _hyperhermitian(rng, 3)
    t = 0.7
    lhs = qt.moore_det(A + t * QMatrix.identity(3))
    rhs = _char_expansion(A, t)
    assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0)


def test_structured_eig_diagonalizes():
    rng = np.random.default_rng(59)
    A = _hyperhermitian(rng, 4)
    lam, C = qt.eig(A)
    D = (C.conj_transpose() @ A @ C).chi
    assert np.abs(D - QMatrix.diag(lam).chi).max() < 1e-10
    assert np.abs((C.conj_transpose() @ C).chi - np.eye(8)).max() < 1e-10
    assert qt.structure_residual(C.chi) < 1e-10


def test_structured_eig_degenerate_spectrum():
    rng = np.random.default_rng(61)
    V = QMatrix(qt.random_symplectic_unitary_chi(rng, 3), tol=1e-8)
    A = V.conj_transpose() @ QMatrix.diag([1.0, 1.0, 2.0]) @ V
    lam, C = qt.eig(QMatrix(A.chi))
    assert np.allclose(lam, [1.0, 1.0, 2.0], atol=1e-10)
    D = (C.conj_transpose() @ QMatrix(A.chi) @ C).chi
    assert np.abs(D - QMatrix.diag(lam).chi).max() < 1e-9


def test_newton_transform_is_sigma_derivative():
    rng = np.random.default_rng(67)
    A = _hyperhermitian(rng, 3)
    E = _hyperhermitian(rng, 3, 0.5)
    for k in (1, 2, 3):
        S = fl.newton_transform_field(A.chi, k - 1)
        h = 1e-6
        plus = qt.sigma_k_matrix(QMatrix((A + h * E).chi), k)
        minus = qt.sigma_k_matrix(QMatrix((A - h * E).chi), k)
        fd = (plus - minus) / (2 * h)
        pairing = 0.5 * np.einsum("ij,ji->", S, E.chi).real  # Re tr(S E) from embeddings
        assert abs(fd - pairing) < 5e-8 * (1 + abs(fd))


def test_chi_eigh_one_by_one_without_lapack(monkeypatch):
    # a hyperhermitian 1 x 1 matrix embeds as lam * Id: the spectrum is read
    # off the diagonal, with V = Id, and broken structure is still rejected
    lam = np.array([[-0.5], [2.0], [3.25]])
    M = lam[..., None] * np.eye(2, dtype=complex)
    ref_w, _ = np.linalg.eigh(M)

    def no_lapack(*args, **kwargs):
        raise AssertionError("LAPACK called on 2 x 2 embeddings")

    monkeypatch.setattr(np.linalg, "eigh", no_lapack)
    got, V = qt.chi_eigh(M)
    assert np.array_equal(got, lam) and np.array_equal(got, ref_w[..., ::2])
    assert V.shape == M.shape and np.array_equal(V, np.broadcast_to(np.eye(2), M.shape))
    assert np.array_equal(qt.chi_from_spectrum(V, got), M)
    for i, j, dev in ((1, 1, 1e-6), (0, 1, 1e-6), (1, 0, 1e-6j), (0, 0, 1e-6j)):
        bad = M.copy()
        bad[1, i, j] += dev
        with pytest.raises(StructureError):
            qt.chi_eigh(bad)
        qt.chi_eigh(bad, tol_scale=1e-5)  # within a looser tolerance


def test_chi_from_spectrum_reassembles():
    rng = np.random.default_rng(71)
    for n in (1, 2, 3):
        A = _hyperhermitian(rng, n)
        lam, V = qt.chi_eigh(A.chi)
        assert np.abs(qt.chi_from_spectrum(V, lam) - A.chi).max() < 1e-12
        S = qt.chi_from_spectrum(V, np.exp(lam))
        assert qt.structure_residual(S) <= 1e-10 * (1 + np.abs(S).max())
        assert np.abs(S - S.conj().T).max() <= 1e-10 * (1 + np.abs(S).max())


def _old_is_exactly_real_diagonal(M):
    """The off-diagonal-copy test that _is_exactly_real_diagonal replaced."""
    off = M - np.einsum("...ii->...i", M)[..., None] * np.eye(M.shape[-1])
    return not off.any() and not M.imag.any()


def _diagonal_test_cases():
    rng = np.random.default_rng(83)
    diag = np.zeros((4, 6, 6), dtype=complex)
    diag[:, range(6), range(6)] = rng.normal(size=(4, 6))
    yield pytest.param(diag, id="diagonal")
    yield pytest.param(qt.random_hyperhermitian_chi(rng, 3, count=4), id="random")
    yield pytest.param(np.zeros((2, 4, 4), dtype=complex), id="zero")
    yield pytest.param(np.zeros((3, 0, 0), dtype=complex), id="empty")
    neg = diag.copy()
    neg[1, 2, 3] = -0.0
    neg[2, 0, 0] = -0.0
    neg[3, 4, 1] = complex(0.0, -0.0)
    yield pytest.param(neg, id="negative-zero")
    for bad in (np.nan, np.inf, -np.inf):
        for place, where in (("diag", (1, 2, 2)), ("off", (1, 2, 3))):
            for part, value in (("real", complex(bad, 0.0)), ("imag", complex(0.0, bad))):
                M = diag.copy()
                M[where] = value
                yield pytest.param(M, id=f"{bad}-{place}-{part}")
    imag = diag.copy()
    imag[0, 1, 1] += 1e-300j
    yield pytest.param(imag, id="tiny-imaginary")


@pytest.mark.parametrize("M", _diagonal_test_cases())
def test_exact_diagonal_test_matches_off_diagonal_copy(M):
    with np.errstate(invalid="ignore"):
        expected = _old_is_exactly_real_diagonal(M)
    assert qt._is_exactly_real_diagonal(M) is expected
    if not np.isfinite(M).all():
        assert not expected  # non-finite input never takes the diagonal shortcut


def test_random_hyperhermitian_stack_draws_as_single_matrices():
    stack = qt.random_hyperhermitian_chi(np.random.default_rng(89), 3, 0.7, count=5)
    rng = np.random.default_rng(89)
    singles = [qt.random_hyperhermitian_chi(rng, 3, 0.7) for _ in range(5)]
    assert np.array_equal(stack, np.stack(singles))


def test_random_qmatrix_stack_draws_as_single_matrices():
    stack = qt.random_qmatrix_chi(np.random.default_rng(90), 3, 0.7, count=5)
    rng = np.random.default_rng(90)
    singles = [qt.random_qmatrix_chi(rng, 3, 0.7) for _ in range(5)]
    assert np.array_equal(stack, np.stack(singles))
    assert qt.structure_residual(stack) == 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_realize_on_a_stack_matches_single_matrices(n):
    rng = np.random.default_rng(113 + n)
    for stack in (qt.random_qmatrix_chi(rng, n, count=3),
                  qt.random_hyperhermitian_chi(rng, n, count=3)):
        R = qt.realize(stack)
        assert R.shape == (3, 4 * n, 4 * n)
        for M, R1 in zip(stack, R):
            assert np.array_equal(R1, qt.realize(QMatrix(M)))
        assert np.array_equal(qt.realize(stack[None]), R[None])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sigma_routes_on_a_stack_match_single_matrices(n):
    rng = np.random.default_rng(97 + n)
    stack = qt.random_hyperhermitian_chi(rng, n, count=6)
    routes = (qt.sigma_k_matrix, qt.sigma_k_minor_sum, qt.sigma_k_coefficient)
    for k in range(n + 1):
        for route in routes:
            got = route(stack, k)
            assert got.shape == (6,)
            want = np.array([route(QMatrix(M), k) for M in stack])
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    bad = stack.copy()
    bad[3] += 1e-3 * rng.normal(size=bad[3].shape)  # one matrix loses hermiticity
    for route in routes:
        with pytest.raises(StructureError):
            route(bad, min(2, n))


def test_exact_diagonal_shortcut_enforces_pairs():
    # diag(1, 2, 1 + 1e-4, 2) is no chi embedding: its entries 0 and n + 0
    # differ by far more than tol_scale * (1 + |A|), as eigvalsh would report
    M = np.diag([1.0, 2.0, 1.0 + 1e-4, 2.0]).astype(complex)
    with pytest.raises(StructureError):
        qt.chi_eigvals(M)
    with pytest.raises(StructureError):
        qt.moore_det(M)
    ok = np.diag([1.0, 2.0, 1.0 + 1e-9, 2.0]).astype(complex)  # within tolerance
    assert np.array_equal(qt.chi_eigvals(ok), [1.0, 2.0])
    assert np.array_equal(qt.chi_eigvals(np.stack([ok, QMatrix.diag([3.0, -1.0]).chi])),
                          [[1.0, 2.0], [-1.0, 3.0]])


def test_pair_spread_is_measured_per_matrix():
    # a hermitian 4 x 4 whose eigenvalue pair spreads by 1e-4 raises alone,
    # and still raises next to a large chi-structured matrix, whose own
    # 1 + |A| would allow that spread
    rng = np.random.default_rng(101)
    X = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    _, V = np.linalg.eigh(X + X.conj().T)
    bad = (V * [1.0, 1.0 + 1e-4, 3.0, 3.0]) @ V.conj().T
    big = 1e5 * qt.random_hyperhermitian_chi(rng, 2)
    assert np.abs(qt.chi_eigvals(big)).max() > 1e4
    for M in (bad, np.stack([bad, big]), np.stack([big, bad])):
        with pytest.raises(StructureError):
            qt.chi_eigvals(M)
    good = qt.random_hyperhermitian_chi(rng, 2, count=3)
    assert np.array_equal(qt.chi_eigvals(np.concatenate([good, big[None]])),
                          np.concatenate([qt.chi_eigvals(good), qt.chi_eigvals(big)[None]]))
