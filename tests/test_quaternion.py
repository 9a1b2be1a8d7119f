import math

import numpy as np
import pytest

from hquot import fields as fl, quaternion as qt
from hquot.errors import StructureError


def _diag_chi(values):
    """Embedding of the real diagonal quaternionic matrix diag(values)."""
    values = np.asarray(values, dtype=float)
    return np.diag(np.concatenate([values, values])).astype(complex)


def _two_by_two(a, q, c):
    """Embedding of the hyperhermitian [[a, q], [conj(q), c]]: q = (w, x, y, z),
    w + x i + y j + z k, puts w + x i in X and y + z i in Y."""
    w, x, y, z = q
    x, y = complex(w, x), complex(y, z)
    return qt.chi_from_split([[a, x], [x.conjugate(), c]], [[0.0, y], [-y, 0.0]])


def test_embedded_units_satisfy_hamilton_relations():
    one, i, j, k = fl._UNITS
    assert np.array_equal(one, np.eye(2))
    for unit in (i, j, k):
        assert np.array_equal(unit @ unit, -one)
    assert np.array_equal(i @ j, k) and np.array_equal(j @ i, -k)
    assert np.array_equal(j @ k, i) and np.array_equal(k @ j, -i)
    assert np.array_equal(k @ i, j) and np.array_equal(i @ k, -j)
    for unit in fl._UNITS:
        assert qt.structure_residual(unit) == 0.0


def test_realize_identity():
    assert np.array_equal(qt.realize(np.eye(6)), np.eye(12))


def test_realize_real_diagonal():
    A = _diag_chi([2.0, 3.0])
    R = qt.realize(A)
    assert np.array_equal(R, np.diag([2.0, 3.0] * 4))


def test_realize_symmetric_for_hyperhermitian():
    rng = np.random.default_rng(11)
    A = qt.random_hyperhermitian_chi(rng, 4)
    R = qt.realize(A)
    assert np.array_equal(R, R.T)


def test_realize_homomorphism():
    rng = np.random.default_rng(5)
    for _ in range(10):
        A = qt.random_qmatrix_chi(rng, 3)
        B = qt.random_qmatrix_chi(rng, 3)
        lhs = qt.realize(A @ B)
        rhs = qt.realize(A) @ qt.realize(B)
        assert np.abs(lhs - rhs).max() < 1e-12


def _j_pair_matrix():
    # [[1, j], [-j, 1]]: hyperhermitian with eigenvalues (0, 2)
    return _two_by_two(1.0, (0.0, 0.0, 1.0, 0.0), 1.0)


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
    A = _diag_chi([3.0, -1.0, 2.0])
    assert np.array_equal(qt.eigenvalues(A), [-1.0, 2.0, 3.0])


def test_eigenvalues_two_by_two_closed_form():
    rng = np.random.default_rng(17)
    for _ in range(20):
        a, b = rng.normal(size=2)
        q = rng.normal(size=4)
        A = _two_by_two(a, q, b)
        disc = np.sqrt((a - b) ** 2 + 4 * np.sum(q * q))
        expected = np.sort([(a + b - disc) / 2, (a + b + disc) / 2])
        assert np.allclose(qt.eigenvalues(A), expected, atol=1e-10)
        # realization route as an independent check
        w = np.linalg.eigvalsh(qt.realize(A))
        assert np.allclose(w, np.repeat(expected, 4), atol=1e-10)


def test_eigenvalue_routes_agree():
    # one embedding and a stack of embeddings take either route
    rng = np.random.default_rng(23)
    A = qt.random_hyperhermitian_chi(rng, 4)
    stack = qt.random_hyperhermitian_chi(rng, 4, count=3)
    for B in (A, stack):
        real = qt.eigenvalues(B, "real")
        assert real.shape == np.shape(B)[:-2] + (4,)
        assert np.allclose(qt.eigenvalues(B, "complex"), real, atol=1e-10)


def test_non_hyperhermitian_rejected():
    rng = np.random.default_rng(29)
    B = qt.random_qmatrix_chi(rng, 3)
    with pytest.raises(StructureError):
        qt.eigenvalues(B)
    with pytest.raises(StructureError):
        qt.eigenvalues(B, "real")


def test_moore_det_identity_exact():
    assert qt.moore_det(np.eye(10)) == 1.0


def test_moore_det_complex_hermitian_embedding():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    X = (X + X.conj().T) / 2
    A = qt.chi_from_split(X, np.zeros((3, 3)))
    assert abs(qt.moore_det(A) - np.linalg.det(X).real) < 1e-10


def test_moore_det_vs_realization():
    rng = np.random.default_rng(37)
    for n in (2, 3, 4):
        for _ in range(25):
            A = qt.random_hyperhermitian_chi(rng, n)
            p4 = qt.moore_det(A) ** 4
            d = np.linalg.det(qt.realize(A))
            assert abs(p4 - d) <= 1e-8 * max(abs(p4), abs(d), 1e-12)


def test_unitary_invariance():
    rng = np.random.default_rng(41)
    A = qt.random_hyperhermitian_chi(rng, 4)
    lam = qt.eigenvalues(A)
    C = qt.random_symplectic_unitary_chi(rng, 4)
    assert qt.structure_residual(C) <= 1e-8 * (1.0 + np.abs(C).max())
    assert np.abs(C.conj().T @ C - np.eye(8)).max() < 1e-12
    B = C.conj().T @ A @ C
    assert qt.structure_residual(B) <= 1e-10 * (1.0 + np.abs(B).max())
    assert np.allclose(qt.eigenvalues(B), lam, atol=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_symplectic_unitary_j_partner_is_a_block_swap(n):
    U = qt.random_symplectic_unitary_chi(np.random.default_rng(60 + n), n, count=40)
    # the eigenbasis the sampler draws from, and the product -J' conj(W)
    rng = np.random.default_rng(60 + n)
    X = rng.normal(size=(40, n, n)) + 1j * rng.normal(size=(40, n, n))
    Y = rng.normal(size=(40, n, n)) + 1j * rng.normal(size=(40, n, n))
    G = qt.chi_from_split((X + X.conj().transpose(0, 2, 1)) / 2.0,
                          (Y - Y.transpose(0, 2, 1)) / 2.0)
    W = np.linalg.eigh(G)[1][..., 0::2]
    assert np.array_equal(U, np.concatenate([W, -qt.jprime(n) @ W.conj()], axis=-1))
    assert qt.structure_residual(U) == 0.0
    assert np.abs(U.conj().transpose(0, 2, 1) @ U - np.eye(2 * n)).max() <= 1e-14


def test_principal_minor_conventions():
    A = _diag_chi([1.0, 2.0, 3.0])
    assert qt.principal_minor_det(A, range(3)) == 1.0
    assert qt.principal_minor_det(A, []) == qt.moore_det(A)
    assert qt.principal_minor_det(A, [1]) == pytest.approx(3.0, abs=1e-14)
    with pytest.raises(ValueError):
        qt.principal_minor_det(A, [3])


def test_sigma_matrix_basics():
    A = _diag_chi([1.0, 2.0, 3.0])
    assert qt.sigma_k_matrix(A, 1) == pytest.approx(6.0, abs=1e-14)
    rng = np.random.default_rng(43)
    B = qt.random_hyperhermitian_chi(rng, 3)
    assert qt.sigma_k_matrix(B, 3) == pytest.approx(qt.moore_det(B), rel=1e-12, abs=1e-14)


def test_sigma_triple_agreement():
    rng = np.random.default_rng(47)
    for _ in range(10):
        A = qt.random_hyperhermitian_chi(rng, 3)
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
    n = A.shape[-1] // 2
    return sum(t ** (n - k) * qt.sigma_k_minor_sum(A, k) for k in range(n + 1))


def test_char_expansion_zero_matrix():
    n = 3
    A = np.zeros((2 * n, 2 * n), dtype=complex)
    for t in (0.5, 2.0):
        assert _char_expansion(A, t) == pytest.approx(t**n, rel=1e-12)


def test_char_expansion_identity():
    n = 4
    assert _char_expansion(np.eye(2 * n), 1.0) == pytest.approx(2.0**n, rel=1e-12)


def test_char_expansion_matches_shifted_det():
    rng = np.random.default_rng(53)
    A = qt.random_hyperhermitian_chi(rng, 3)
    t = 0.7
    lhs = qt.moore_det(A + t * np.eye(6))
    rhs = _char_expansion(A, t)
    assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0)


def test_newton_transform_is_sigma_derivative():
    rng = np.random.default_rng(67)
    A = qt.random_hyperhermitian_chi(rng, 3)
    E = qt.random_hyperhermitian_chi(rng, 3, 0.5)
    for k in (1, 2, 3):
        S = fl.newton_transform_field(A, k - 1)
        h = 1e-6
        plus = qt.sigma_k_matrix(A + h * E, k)
        minus = qt.sigma_k_matrix(A - h * E, k)
        fd = (plus - minus) / (2 * h)
        pairing = 0.5 * np.einsum("ij,ji->", S, E).real  # Re tr(S E) from embeddings
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
        with pytest.raises(StructureError):  # next to a large matrix, whose 1 + |lam| would allow it
            qt.chi_eigh(np.concatenate([bad, 1e5 * M]))
        small = M.copy()
        small[1, i, j] += 1e-4 * dev  # 1e-10: within 1e-8 * (1 + |lam|)
        qt.chi_eigh(small)


def test_chi_from_spectrum_reassembles():
    rng = np.random.default_rng(71)
    for n in (1, 2, 3):
        A = qt.random_hyperhermitian_chi(rng, n)
        lam, V = qt.chi_eigh(A)
        assert np.abs(qt.chi_from_spectrum(V, lam) - A).max() < 1e-12
        S = qt.chi_from_spectrum(V, np.exp(lam))
        assert qt.structure_residual(S) <= 1e-10 * (1 + np.abs(S).max())
        assert np.abs(S - S.conj().T).max() <= 1e-10 * (1 + np.abs(S).max())


def _unitary_conjugate(rng, values):
    """Q diag(values) Q^H for a random complex unitary Q: hermitian, with
    the spectrum of ``values``, but no chi embedding."""
    m = len(values)
    Q, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    return (Q * np.asarray(values, dtype=float)) @ Q.conj().T


def _spectrum_cases():
    """(stack, whether it is an embedding) for chi_eigvals against chi_eigh."""
    rng = np.random.default_rng(83)
    diag = np.zeros((4, 6, 6), dtype=complex)
    diag[:, range(6), range(6)] = rng.normal(size=(4, 6))
    yield pytest.param(diag, False, id="diagonal")  # entries i and n + i differ
    yield pytest.param(qt.random_hyperhermitian_chi(rng, 3, count=4), True, id="random")
    yield pytest.param(np.zeros((2, 4, 4), dtype=complex), True, id="zero")
    yield pytest.param(np.zeros((3, 0, 0), dtype=complex), True, id="empty")
    neg = diag.copy()
    neg[1, 2, 3] = -0.0
    neg[2, 0, 0] = -0.0
    neg[3, 4, 1] = complex(0.0, -0.0)
    yield pytest.param(neg, False, id="negative-zero")
    for bad in (np.nan, np.inf, -np.inf):
        for place, where in (("diag", (1, 2, 2)), ("off", (1, 2, 3))):
            for part, value in (("real", complex(bad, 0.0)), ("imag", complex(0.0, bad))):
                M = diag.copy()
                M[where] = value
                yield pytest.param(M, False, id=f"{bad}-{place}-{part}")
    imag = diag.copy()
    imag[0, 1, 1] += 1e-300j
    yield pytest.param(imag, False, id="tiny-imaginary")
    for n in range(1, 6):
        for scale in (1e-3, 1.0, 1e3):
            stack = qt.random_hyperhermitian_chi(rng, n, scale, count=50)
            yield pytest.param(stack, True, id=f"random-n{n}-{scale:g}")
        paired = np.stack([_diag_chi(v) for v in rng.normal(size=(5, n))])
        paired[2] = _diag_chi(np.full(n, -0.0))
        yield pytest.param(paired, True, id=f"diagonal-n{n}")
        for where in ((0, 0), (0, n), (n - 1, 2 * n - 1)):
            for value in (np.nan, np.inf, complex(0.0, -np.inf)):
                M = paired.copy()
                M[(3,) + where] = value
                yield pytest.param(M, False, id=f"{value}-n{n}-{where[0]}-{where[1]}")
    yield pytest.param(_unitary_conjugate(rng, [1.0, 1.0, 2.0, 2.0]), False, id="Q-diag-1122")
    # hermitian with exact pairs but no embedding: eigh's pair check alone
    # once returned [1, 2, 3] for it
    yield pytest.param(_unitary_conjugate(rng, [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]), False,
                       id="Q-diag-112233")


@pytest.mark.parametrize("M, embedding", _spectrum_cases())
def test_chi_eigvals_is_chi_eigh_without_eigenvectors(M, embedding):
    # one kernel: the eigenvalues of chi_eigh, bit for bit where chi_eigvals
    # hands over to it (n <= 2) and to roundoff of the matrix's scale where
    # eigvalsh replaces eigh, and the same StructureError on non-finite
    # entries, broken pairs and matrices outside the image of chi
    if not embedding:
        with pytest.raises(StructureError):
            qt.chi_eigh(M)
        with pytest.raises(StructureError):
            qt.chi_eigvals(M)
        return
    want = qt.chi_eigh(M)[0]
    got = qt.chi_eigvals(M)
    assert got.shape == want.shape == M.shape[:-2] + (M.shape[-1] // 2,)
    if M.shape[-1] <= 4:
        assert got.tobytes() == want.tobytes()
    else:
        scale = 1.0 + np.abs(want).max(axis=-1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-14 * scale)


def test_paired_spectrum_without_chi_structure_is_rejected():
    # Q diag(1, 1, 2, 2) Q^H is hermitian with doubled eigenvalues, but far
    # from any embedding (structure residual about 0.9): the public routines
    # once returned 2.0, [1, 2] and 3.0 for it
    rng = np.random.default_rng(149)
    for values in ([1.0, 1.0, 2.0, 2.0], [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]):
        M = _unitary_conjugate(rng, values)
        assert qt.structure_residual(M) > 0.1
        for call in (qt.moore_det, qt.eigenvalues, lambda A: qt.sigma_k_matrix(A, 2),
                     lambda A: qt.principal_minor_det(A, [])):
            with pytest.raises(StructureError, match="not hyperhermitian"):
                call(M)


def test_principal_minor_det_checks_its_input():
    # a 6 x 6 identity with one off-diagonal entry set is neither hermitian
    # nor an embedding; deleting nothing once returned 1.0
    M = np.eye(6, dtype=complex)
    M[0, 1] = 5.0
    for indices in ([], [1], [0, 1, 2]):
        with pytest.raises(StructureError, match="not hyperhermitian"):
            qt.principal_minor_det(M, indices)
    with pytest.raises(StructureError, match="not hyperhermitian"):
        qt.moore_det(M)
    ok = np.eye(6, dtype=complex)
    ok[[0, 4], [1, 3]] = 1e-9  # a block slip within 1e-8 * (1 + |A|) still passes
    assert abs(qt.principal_minor_det(ok, []) - 1.0) < 1e-8


_D = 1e-3


@pytest.mark.parametrize("edits", [
    pytest.param([((0, 1), _D), ((3, 4), _D)], id="re-symmetric"),
    pytest.param([((0, 1), _D * 1j), ((3, 4), -_D * 1j)], id="im-antisymmetric"),
    pytest.param([((0, 0), _D)], id="re-X"),
    pytest.param([((3, 4), _D * 1j), ((4, 3), -_D * 1j)], id="im-X"),
    pytest.param([((0, 4), _D), ((4, 0), _D)], id="re-Y"),
    pytest.param([((0, 4), _D * 1j), ((4, 0), -_D * 1j)], id="im-Y"),
])
def test_structure_check_covers_each_relation(edits):
    # an n = 3 embedding with exactly one of its six real relations broken
    # by 1e-3: Re symmetric, Im antisymmetric, X = conj of the lower right
    # block, Y = -conj of the lower left one.  Deleting every index leaves
    # no eigenvalue check behind the structure check, and chi_eigh and
    # chi_eigvals run the structure check before their pair check
    M = qt.random_hyperhermitian_chi(np.random.default_rng(151), 3)
    for where, value in edits:
        M[where] += value
    for call in (lambda A: qt.principal_minor_det(A, range(3)), qt.chi_eigh, qt.chi_eigvals):
        with pytest.raises(StructureError, match="not hyperhermitian"):
            call(M)


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
            assert np.array_equal(R1, qt.realize(M))
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
            want = np.array([route(M, k) for M in stack])
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    bad = stack.copy()
    bad[3] += 1e-3 * rng.normal(size=bad[3].shape)  # one matrix loses hermiticity
    for route in routes:
        with pytest.raises(StructureError):
            route(bad, min(2, n))


def test_exact_diagonal_shortcut_enforces_pairs():
    # diag(1, 2, 1 + 1e-4, 2) is no chi embedding: its entries 0 and n + 0
    # differ by far more than 1e-8 * (1 + |A|), which the closed-form 4 x 4
    # slot check reports
    M = np.diag([1.0, 2.0, 1.0 + 1e-4, 2.0]).astype(complex)
    with pytest.raises(StructureError):
        qt.chi_eigvals(M)
    with pytest.raises(StructureError):
        qt.moore_det(M)
    ok = np.diag([1.0, 2.0, 1.0 + 1e-9, 2.0]).astype(complex)  # within tolerance
    assert np.array_equal(qt.chi_eigvals(ok), [1.0, 2.0])
    assert np.array_equal(qt.chi_eigvals(np.stack([ok, _diag_chi([3.0, -1.0])])),
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


def _no_lapack(monkeypatch):
    def raising(*args, **kwargs):
        raise AssertionError("LAPACK called on 4 x 4 embeddings")

    monkeypatch.setattr(np.linalg, "eigh", raising)


def _check_two_by_two_spectrum(M, lam, V, tol):
    """lam ascending, V unitary, M V = V diag(lam doubled), and V's columns
    2i, 2i + 1 one quaternionic eigenvector and its j-partner."""
    assert lam.shape == M.shape[:-2] + (2,) and V.shape == M.shape
    assert np.all(lam[..., 0] <= lam[..., 1])
    scale = 1.0 + np.abs(lam).max(axis=-1)[..., None, None]
    eye = np.eye(4)
    assert np.all(np.abs(np.swapaxes(V, -1, -2).conj() @ V - eye) <= tol)
    assert np.all(np.abs(qt.chi_from_spectrum(V, lam) - M) <= tol * scale)
    assert np.all(np.abs(M @ V - V * np.repeat(lam, 2, axis=-1)[..., None, :]) <= tol * scale)
    Jp = qt.jprime(2)
    assert np.array_equal(V[..., 1::2], -(Jp @ V[..., 0::2].conj()))
    assert qt.structure_residual(V[..., [0, 2, 1, 3]]) == 0.0


def test_chi_eigh_two_by_two_without_lapack(monkeypatch):
    # n = 2 is diagonalized in closed form: it agrees with LAPACK on random
    # stacks of several scales and needs no eigh call
    rng = np.random.default_rng(127)
    M = np.concatenate([qt.random_hyperhermitian_chi(rng, 2, scale, count=200)
                        for scale in (1e-3, 1.0, 1e3)]).reshape(3, 200, 4, 4)
    ref = np.linalg.eigh(M)[0][..., ::2]
    _no_lapack(monkeypatch)
    lam, V = qt.chi_eigh(M)
    assert np.all(np.abs(lam - ref) <= 1e-14 * np.abs(ref).max(axis=-1, keepdims=True))
    _check_two_by_two_spectrum(M, lam, V, 1e-14)
    one, V1 = qt.chi_eigh(M[1, 7])  # a single matrix
    assert np.array_equal(one, lam[1, 7]) and np.array_equal(V1, V[1, 7])


@pytest.mark.parametrize("a, c", [(3.0, -1.5), (-1.5, 3.0), (2.0, 2.0), (-0.0, 0.0),
                                  (0.0, -0.0), (-0.0, -0.0), (-0.0, 1.0), (1e-300, -0.0)])
def test_chi_eigh_two_by_two_diagonal_is_exact(monkeypatch, a, c):
    # an exactly diagonal matrix returns its sorted diagonal bit for bit, as
    # the pair means of LAPACK do at normal magnitudes (a zero eigenvalue
    # comes back as +0.0; LAPACK rescales 1e-300 and may move the last bit)
    M = _diag_chi([a, c])
    ref = qt._collapse_pairs(np.linalg.eigh(M)[0], 2)
    _no_lapack(monkeypatch)
    lam, V = qt.chi_eigh(M)
    assert lam.tobytes() == (np.sort([a, c]) + 0.0).tobytes()
    assert lam.tobytes() == ref.tobytes() or np.abs(lam).max() < 1e-290
    assert np.array_equal(qt.chi_from_spectrum(V, lam), M)
    _check_two_by_two_spectrum(M, lam, V, 0.0)


def test_chi_eigh_two_by_two_pure_j_part(monkeypatch):
    # q = 0.75 j + 0.5 k has no complex part: the rotation lives in Y alone
    q = (0.0, 0.0, 0.75, 0.5)
    M = _two_by_two(1.0, q, -2.0)
    assert M[0, 1] == 0 and M[0, 3] != 0
    ref = np.linalg.eigh(M)[0][::2]
    _no_lapack(monkeypatch)
    lam, V = qt.chi_eigh(M)
    assert np.abs(lam - ref).max() <= 1e-14 * np.abs(ref).max()
    h = np.hypot(1.5, math.hypot(*q))
    assert np.abs(lam - [-0.5 - h, -0.5 + h]).max() <= 1e-15 * h
    _check_two_by_two_spectrum(M, lam, V, 1e-15)


@pytest.mark.parametrize("slot", range(16))
def test_chi_eigh_two_by_two_checks_every_slot(monkeypatch, slot):
    # every slot is compared with the value a, c, x = X[0, 1], y = Y[0, 1]
    # dictate, matrix by matrix (LAPACK's eigh reads the lower triangle only)
    rng = np.random.default_rng(131)
    M = qt.random_hyperhermitian_chi(rng, 2, count=3)
    big = 1e5 * qt.random_hyperhermitian_chi(rng, 2)  # its 1 + |lam| would allow 1e-6
    _no_lapack(monkeypatch)
    for dev in (1e-6, 1e-6j):
        bad = np.concatenate([M, big[None]])
        bad[1].flat[slot] += dev
        with pytest.raises(StructureError, match="not hyperhermitian"):
            qt.chi_eigh(bad)
        small = np.concatenate([M, big[None]])
        small[1].flat[slot] += 1e-4 * dev  # 1e-10: within 1e-8 * (1 + |lam|)
        qt.chi_eigh(small)


def test_chi_eigh_two_by_two_wide_range_against_exact_values():
    # log-uniform positive definite [[a, q], [conj(q), c]], all entries in
    # 10^(+-8): the larger eigenvalue has no cancellation, and the smaller one,
    # det / big, is as accurate as the determinant a c - |q|^2, whose relative
    # condition is kappa = (a c + |q|^2) / (a c - |q|^2)
    from decimal import Decimal, localcontext
    from fractions import Fraction

    def dec(f):
        return Decimal(f.numerator) / Decimal(f.denominator)

    rng = np.random.default_rng(137)
    mats, exact, kappa = [], [], []
    with localcontext() as ctx:
        ctx.prec = 80
        while len(mats) < 300:
            a, c = 10.0 ** rng.uniform(-8, 8, size=2)
            q = rng.choice([-1.0, 1.0], size=4) * 10.0 ** rng.uniform(-8, 8, size=4)
            fa, fc, r2 = Fraction(a), Fraction(c), sum(Fraction(v) ** 2 for v in q)
            if r2 >= fa * fc:
                continue
            mats.append(_two_by_two(a, q, c))
            big = dec((fa + fc) / 2) + (dec((fc - fa) / 2) ** 2 + dec(r2)).sqrt()
            exact.append([float(dec(fa * fc - r2) / big), float(big)])
            kappa.append(float((fa * fc + r2) / (fa * fc - r2)))
    lam, V = qt.chi_eigh(np.array(mats))
    err = np.abs(lam - exact) / np.array(exact)
    eps = np.finfo(float).eps
    assert err[:, 1].max() <= 4 * eps
    assert np.all(err[:, 0] <= 4 * eps * (1.0 + np.array(kappa)))
    assert err.max() <= 2e-14


def test_chi_eigh_rejects_non_finite_input():
    # every branch names the non-finite entry; before, a NaN off the diagonal
    # of a 4 x 4 identity returned [1, 1] and an inf on it [nan, nan]
    cases = []
    for size in (2, 4, 6):
        for where in ((0, 1), (1, 1), (size - 1, 0)):
            for value in (np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(1.0, np.inf)):
                M = np.eye(size, dtype=complex)
                M[where] = value
                cases.append(M)
    for slot in range(16):
        M = np.stack([np.eye(4, dtype=complex)] * 3)
        M[2].flat[slot] = np.nan
        cases.append(M)
    for M in cases:
        with pytest.raises(StructureError, match="non-finite entry"):
            qt.chi_eigh(M)


def test_eigenvalues_reject_non_finite_input():
    # before, most of these gave a spectrum or numpy's LinAlgError: a NaN at
    # (0, 1) of a 4 x 4 identity [1, 1] from both routes, a NaN on the
    # diagonal of a 6 x 6 one [0, 1, 1] from chi_eigvals
    cases = []
    for size, where in ((4, (0, 1)), (6, (0, 0)), (6, (1, 4)), (4, (3, 2))):
        for value in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
            M = np.eye(size, dtype=complex)
            M[where] = value
            cases.append(M)
    for M in cases:
        with pytest.raises(StructureError, match="non-finite entry"):
            qt.chi_eigvals(M)
        with pytest.raises(StructureError, match="non-finite entry"):
            qt.chi_eigvals(np.stack([np.eye(M.shape[-1]), M]))
        for route in ("complex", "real"):
            with pytest.raises(StructureError, match="non-finite entry"):
                qt.eigenvalues(M, route=route)


def test_chi_eigh_two_by_two_overflow_is_named():
    M = qt.chi_from_split(np.array([[1e200, 1e180], [1e180, 2.0]]), np.zeros((2, 2)))
    with pytest.raises(StructureError, match="overflows"):
        qt.chi_eigh(M)


def test_pair_check_counts_nan_spread_as_violation():
    w = np.array([[1.0, 1.0, 2.0, np.nan]])
    with pytest.raises(StructureError, match="multiplicity 2"):
        qt._collapse_pairs(w, 2)


def _old_collapse_pairs(w, mult, tol_scale):
    """The grouped reduction that the stride slices of _collapse_pairs replaced."""
    grouped = w.reshape(w.shape[:-1] + (w.shape[-1] // mult, mult))
    spread = (grouped.max(axis=-1) - grouped.min(axis=-1)).max(axis=-1, initial=0.0)
    limit = tol_scale * (1.0 + np.abs(grouped).max(axis=(-2, -1), initial=0.0))
    if np.any(spread > limit):
        raise StructureError("eigenvalue multiplicity violated")
    return grouped.mean(axis=-1)


@pytest.mark.parametrize("mult", [2, 4])
def test_collapse_pairs_matches_grouped_reduction(mult):
    # bit for bit, zeros and wide ranges included, and raising alike
    rng = np.random.default_rng(139)
    for shape in ((500, 4 * mult), (7, 9, 3 * mult), (5, 0)):
        base = np.sort(rng.normal(size=shape[:-1] + (shape[-1] // mult,))
                       * 10.0 ** rng.uniform(-8, 8, size=shape[:-1] + (1,)), axis=-1)
        w = np.repeat(base, mult, axis=-1) * (1.0 + 1e-12 * rng.uniform(size=shape))
        w = np.sort(w, axis=-1)
        if w.size:
            w.reshape(-1, shape[-1])[:3] = 0.0
            w.reshape(-1, shape[-1])[3:5] = -0.0
        got, want = qt._collapse_pairs(w, mult), _old_collapse_pairs(w, mult, 1e-8)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        bad = w.copy()
        if bad.size:
            bad.reshape(-1, shape[-1])[4, -1] += 1.0
            with pytest.raises(StructureError):
                _old_collapse_pairs(bad, mult, 1e-8)
            with pytest.raises(StructureError):
                qt._collapse_pairs(bad, mult)
