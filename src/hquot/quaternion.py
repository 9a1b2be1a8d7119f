"""Quaternionic matrix algebra.

A quaternionic n x n matrix A = X + Y*j (X, Y complex n x n) is carried as its
complex 2n x 2n embedding

    chi(A) = [[ X,        Y       ],
              [ -conj(Y), conj(X) ]],

which is an injective ring homomorphism: chi(A @ B) = chi(A) @ chi(B) and
chi(A*) = chi(A)^H.  A is hyperhermitian (conj(a_ij) = a_ji) exactly when
chi(A) is complex hermitian, and then the 2n eigenvalues of chi(A) are the n
real eigenvalues of A, each doubled.  The image of chi is characterised by

    M @ JP == JP @ conj(M),    JP = [[0, I], [-I, 0]],

which is what `structure_residual` measures.

A quaternionic matrix is its embedding: the matrix routines take one
``(2n, 2n)`` embedding or a stack ``(..., 2n, 2n)``.  A quaternion
q = w + x i + y j + z k is the n = 1 case, X = w + x i and Y = y + z i.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from . import symfun
from .errors import StructureError

__all__ = [
    "realize",
    "eigenvalues",
    "moore_det",
    "principal_minor_det",
    "sigma_k_matrix",
    "sigma_k_minor_sum",
    "sigma_k_coefficient",
]

_TOL = 1e-8  # relative tolerance of the spectral structure checks, times 1 + |A|

# ---------------------------------------------------------------------------
# embedding helpers (array level, batch friendly)
# ---------------------------------------------------------------------------


def jprime(n):
    """The antilinear-structure matrix JP = [[0, I_n], [-I_n, 0]]."""
    Jp = np.zeros((2 * n, 2 * n))
    Jp[:n, n:] = np.eye(n)
    Jp[n:, :n] = -np.eye(n)
    return Jp


def chi_from_split(X, Y):
    """Assemble the 2n x 2n embedding from the complex split A = X + Y*j."""
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    n = X.shape[-1]
    M = np.zeros(X.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    M[..., :n, :n] = X
    M[..., :n, n:] = Y
    M[..., n:, :n] = -Y.conj()
    M[..., n:, n:] = X.conj()
    return M


def structure_residual(M):
    """Max deviation of M from the image of chi (the quaternionic subalgebra)."""
    M = np.asarray(M, dtype=complex)
    n = M.shape[-1] // 2
    Jp = jprime(n)
    r = M @ Jp - Jp @ M.conj()
    return float(np.abs(r).max())


def chi_eigvals(M):
    """The eigenvalues of chi_eigh, without eigenvectors: ``(..., n)``
    ascending from stacked hyperhermitian embeddings ``(..., 2n, 2n)``,
    under the same structure checks.  Up to n = 2 this is chi_eigh's
    eigenvalue output; from n = 3 on, the input must be hyperhermitian to
    1e-8 * (1 + |A|) and eigvalsh's pairs must agree to 1e-8 * (1 + max|eig|
    of that matrix).  A violation or a non-finite entry raises StructureError
    (a non-hyperhermitian input or an eigensolver failure, never silently
    fixed).
    """
    M = np.asarray(M, dtype=complex)
    if M.shape[-1] <= 4:
        return chi_eigh(M)[0]
    return _collapse_pairs(np.linalg.eigvalsh(_require_hyperhermitian(M)), 2)


def _collapse_pairs(w, mult):
    """Means of the ascending eigenvalues ``w`` ``(..., mult n)`` in groups
    of ``mult``.  Raises StructureError unless, matrix by matrix, every
    group's spread (last minus first) is at most _TOL * (1 + the largest |w|
    of that matrix); a NaN spread is a violation."""
    groups = [w[..., i::mult] for i in range(mult)]
    spread = (groups[-1] - groups[0]).max(axis=-1, initial=0.0)
    limit = _TOL * (1.0 + np.abs(w).max(axis=-1, initial=0.0))
    if not np.all(spread <= limit):
        worst = np.unravel_index(np.argmax(~(spread <= limit)), np.shape(spread))
        raise StructureError(
            f"eigenvalue multiplicity {mult} violated: spread {spread[worst]:.3e} "
            f"exceeds {_TOL:.1e} * (1 + |A|) = {limit[worst]:.3e}"
        )
    return functools.reduce(np.add, groups) / mult + 0.0  # + 0.0: no -0.0 means


def _require_finite(M):
    """Raise StructureError naming the first non-finite entry of M, if any."""
    finite = np.isfinite(M)
    if not finite.all():
        where = np.unravel_index(np.argmin(finite), M.shape)
        raise StructureError(
            f"embedding has a non-finite entry {complex(M[where])} at {tuple(map(int, where))}"
        )


def chi_eigh(M):
    """Batched (eigenvalues, eigenvectors) of hyperhermitian embeddings.

    Eigenvalues come back pair-collapsed ``(..., n)``, ascending, with the
    eigenvector matrix ``(..., 2n, 2n)``: columns 2i and 2i + 1 span the
    eigenspace of eigenvalue i.  Spectral functions built from these
    (``chi_from_spectrum``) land back in the quaternionic subalgebra because
    paired eigenvalues receive identical weights.

    One dispatch by size, and every branch checks the structure: at n = 1
    the embedding is lam * Id, so lam is read off the diagonal, V is a
    read-only identity, and a slot beyond 1e-8 * (1 + |lam|) of lam * Id
    raises StructureError; at n = 2, (lam, V) come in closed form
    (`_chi_eigh_2x2`), which checks all 16 slots; from n = 3 on, the input
    must be hermitian and in the image of chi (`_require_hyperhermitian`),
    V is the raw complex one from eigh and the eigenvalue pairs are checked.
    Non-finite input raises StructureError naming the entry.
    """
    M = np.asarray(M, dtype=complex)
    if M.shape[-1] == 2:
        a = M[..., 0, 0]
        lam = a.real[..., None].copy()
        # slot by slot, the deviations |M - lam * Id| of a finite lam; an
        # infinite lam fails, and non-finite slots are named below
        with np.errstate(invalid="ignore"):
            worst = np.abs(a.imag)
            for dev in (M[..., 0, 1], M[..., 1, 0], M[..., 1, 1] - a.real):
                worst = np.maximum(worst, np.abs(dev))
        limit = _TOL * (1.0 + np.abs(lam[..., 0]))
        ok = (worst <= limit) & (limit < np.inf)
        if not ok.all():
            _require_finite(M)
            raise StructureError(f"1 x 1 embedding is not a real multiple of Id: {worst[~ok].max():.3e}")
        return lam, np.broadcast_to(np.eye(2, dtype=complex), M.shape)
    if M.shape[-1] == 4:
        return _chi_eigh_2x2(M)
    w, V = np.linalg.eigh(_require_hyperhermitian(M))
    lam = _collapse_pairs(w, 2)
    return lam, V


def _chi_eigh_2x2(M):
    """chi_eigh of 4 x 4 embeddings of [[a, q], [conj(q), c]], q = x + y j.

    With r = |q|, diag(1, w), w = conj(q)/r, turns A into the real
    [[a, r], [r, c]] (w = 1 where r = 0), which one Givens pair (cs, sn)
    diagonalizes (Golub & Van Loan, sym.schur2; Le Bihan & Sangwine 2007):
    the quaternionic eigenvectors are (cs, w sn) for lam_0 and (-sn, w cs)
    for lam_1.  The larger-magnitude eigenvalue is mean +- hypot((c-a)/2, r),
    the other det / big as in LAPACK's dlaev2; an exactly diagonal matrix
    returns (min(a, c), max(a, c)) exactly.  Each of the 16 slots must lie
    within 1e-8 * (1 + max|lam|) of the value that (a, c, x, y) dictate;
    a c and |q|^2 are formed, so entries beyond about 1e150 in magnitude
    overflow and raise StructureError too.  Works slot-major on one
    contiguous (16, P) copy of the stack.
    """
    lead = M.shape[:-2]
    S = np.moveaxis(M, (-2, -1), (0, 1)).reshape(16, -1)
    # non-finite or overflowing values fail the slot check, which names them
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a, c, x, y = S[0].real, S[5].real, S[1], S[3]
        xc, yc = x.conj(), y.conj()
        r2 = x.real * x.real + x.imag * x.imag + y.real * y.real + y.imag * y.imag
        r = np.sqrt(r2)
        diagonal = r == 0
        mean, d = 0.5 * (a + c), 0.5 * (c - a)
        h = np.hypot(d, r)
        big = np.where(mean < 0, mean - h, mean + h)
        small = (a * c - r2) / big
        lo = np.where(diagonal, np.minimum(a, c), np.minimum(big, small))
        hi = np.where(diagonal, np.maximum(a, c), np.maximum(big, small))

        # row-major, M must read  a x 0 y / conj(x) c -y 0 / 0 -conj(y) a conj(x) /
        # conj(y) 0 x c;  slots 0 and 5 must be real, and x, y are read from 1, 3
        worst = np.abs(S[0].imag)
        for dev in (S[5].imag, S[2], S[7], S[8], S[13], S[4] - xc, S[11] - xc, S[14] - x,
                    S[6] + y, S[9] + yc, S[12] - yc, S[10] - a, S[15] - c):
            np.maximum(worst, np.abs(dev), out=worst)
        limit = _TOL * (1.0 + np.maximum(np.abs(lo), np.abs(hi)))
        ok = (worst <= limit) & (limit < np.inf)  # NaN fails; so does an infinite lam
        if not ok.all():
            _require_finite(M)
            i = np.argmax(~ok)
            if not limit[i] < np.inf:
                raise StructureError(f"4 x 4 closed form overflows: a c or |q|^2 leaves the "
                                     f"float range (a = {a[i]:.3e}, c = {c[i]:.3e}, |q| = {r[i]:.3e})")
            raise StructureError(
                f"4 x 4 embedding is not hyperhermitian: slot deviation {worst[i]:.3e} "
                f"exceeds {_TOL:.1e} * (1 + |lam|) = {limit[i]:.3e}"
            )

        # (cs, sn): unit eigenvector of [[a, r], [r, c]] for lam_0, from
        # t = r / (|d| + hypot(d, r)) <= 1 without cancellation
        t = np.where(diagonal, 0.0, r / (np.abs(d) + h))
        g = 1.0 / np.sqrt(1.0 + t * t)
        tg = t * g
        cs = np.where(d >= 0, g, tg)
        sn = np.where(d >= 0, 0.0 - tg, -g)
        u = np.where(diagonal, 1.0, xc / r)  # conj(x) / r: the complex part of w
        v = np.where(diagonal, 0.0, yc / r)  # conj(y) / r: minus j-part of w, conjugated
    del S, a, c, x, y, xc, yc, worst
    # column (alpha, -conj(beta)) of each eigenvector alpha + beta j, then its
    # j-partner (beta, conj(alpha))
    V = np.zeros((4, 4) + r.shape, dtype=complex)
    V[0, 0], V[1, 0], V[3, 0] = cs, sn * u, sn * v
    V[1, 1], V[2, 1], V[3, 1] = -sn * v.conj(), cs, sn * u.conj()
    V[0, 2], V[1, 2], V[3, 2] = -sn, cs * u, cs * v
    V[1, 3], V[2, 3], V[3, 3] = -cs * v.conj(), -sn, cs * u.conj()
    lam = np.stack([lo, hi], axis=-1) + 0.0  # + 0.0: no -0.0, as eigh's pair means
    return lam.reshape(lead + (2,)), np.moveaxis(V, -1, 0).reshape(lead + (4, 4))


def chi_from_spectrum(V, s):
    """Reassemble V diag(s doubled) V^H: the spectral function of a chi_eigh
    spectrum (lam, V) with collapsed weights ``s`` of shape ``(..., n)``."""
    return np.einsum("...ij,...j,...kj->...ik", V, np.repeat(s, 2, axis=-1), V.conj())


def chi_delete(M, i):
    """Remove quaternionic row/column i: drops embedding rows/cols {i, n+i}."""
    M = np.asarray(M, dtype=complex)
    n = M.shape[-1] // 2
    keep = [a for a in range(n) if a != i]
    idx = np.array(keep + [a + n for a in keep], dtype=int)
    return M[..., idx[:, None], idx[None, :]]


def _require_hyperhermitian(A):
    """The embedding of A after checking that it is finite and, matrix by
    matrix, hermitian and in the image of chi (blocks X = conj of the lower
    right one, Y = -conj of the lower left one) to _TOL * (1 + |A|).

    An exact embedding, as every field the solver and the probe build, is
    recognized first by comparing real and imaginary parts (for finite
    floats, x + y == 0 exactly when x == -y), which builds no complex
    temporary; only other input pays for the residual.
    """
    M = np.asarray(A, dtype=complex)
    _require_finite(M)
    n = M.shape[-1] // 2
    re, im = M.real, M.imag
    if (np.array_equal(re, np.swapaxes(re, -1, -2))
            and not (im + np.swapaxes(im, -1, -2)).any()
            and np.array_equal(re[..., :n, :n], re[..., n:, n:])
            and not (im[..., :n, :n] + im[..., n:, n:]).any()
            and not (re[..., :n, n:] + re[..., n:, :n]).any()
            and np.array_equal(im[..., :n, n:], im[..., n:, :n])):
        return M
    axes = (-2, -1)
    err = np.abs(M - np.swapaxes(M, -1, -2).conj()).max(axis=axes, initial=0.0)
    for dev in (M[..., :n, :n] - M[..., n:, n:].conj(), M[..., :n, n:] + M[..., n:, :n].conj()):
        err = np.maximum(err, np.abs(dev).max(axis=axes, initial=0.0))
    if not np.all(err <= _TOL * (1.0 + np.abs(M).max(axis=axes, initial=0.0))):
        raise StructureError(f"matrix is not hyperhermitian (residual {err.max():.3e})")
    return M


def _scalar_or_stack(x):
    """A float for one matrix, the array of per-matrix values for a stack."""
    return float(x) if np.ndim(x) == 0 else x


# ---------------------------------------------------------------------------
# realization matrix
# ---------------------------------------------------------------------------


def realize(A):
    """The real 4n x 4n realization in the block layout

        [[A0, -A1, -A2, -A3],
         [A1,  A0, -A3,  A2],
         [A2,  A3,  A0, -A1],
         [A3, -A2,  A1,  A0]];

    a ring homomorphism on quaternionic matrices, symmetric when A is
    hyperhermitian, with every eigenvalue of multiplicity divisible by 4.
    A stack of embeddings ``(..., 2n, 2n)`` gives ``(..., 4n, 4n)``.
    """
    M = np.asarray(A, dtype=complex)
    n = M.shape[-1] // 2
    X, Y = M[..., :n, :n], M[..., :n, n:]
    A0, A1, A2, A3 = X.real, X.imag, Y.real, Y.imag
    return np.block(
        [
            [A0, -A1, -A2, -A3],
            [A1, A0, -A3, A2],
            [A2, A3, A0, -A1],
            [A3, -A2, A1, A0],
        ]
    )


# ---------------------------------------------------------------------------
# spectra and determinants
# ---------------------------------------------------------------------------


def eigenvalues(A, route="complex"):
    """Real eigenvalues of a hyperhermitian matrix, ascending.

    route="complex" solves the 2n x 2n embedding (eigenvalues doubled),
    route="real" the 4n x 4n realization (quadrupled).  Both take one
    embedding ``(2n, 2n)`` or a stack ``(..., 2n, 2n)``, which returns
    ``(..., n)``, and both reject non-finite entries and enforce the
    multiplicity pattern at width 1e-8 * (1 + |A|).
    """
    if route == "complex":
        return chi_eigvals(A)
    if route == "real":
        w = np.linalg.eigvalsh(realize(_require_hyperhermitian(A)))
        return _collapse_pairs(w, 4)
    raise ValueError(f"unknown route {route!r}")


def moore_det(A):
    """Moore determinant: the product of the real eigenvalues, which is the
    principal minor with nothing deleted.

    Signed (unlike det(realize(A))^(1/4)); satisfies moore_det(Id) = 1 and
    |moore_det(A)|^4 = det(realize(A)).  A stack of embeddings gives one
    determinant per matrix.
    """
    return principal_minor_det(A, ())


def principal_minor_det(A, indices):
    """Moore determinant of A with the rows/columns in ``indices`` deleted.

    ``indices`` is a 0-based set; the full index set yields 1 by convention,
    the empty set yields moore_det(A).  Deleting a symmetric row/column set
    preserves hyperhermitianness, so the sub-determinant is well defined;
    A itself is checked, whatever ``indices`` are.
    A stack of embeddings ``(..., 2n, 2n)`` gives one minor per matrix.
    """
    M = _require_hyperhermitian(A)
    n = M.shape[-1] // 2
    idx = sorted(set(int(i) for i in indices))
    if any(i < 0 or i >= n for i in idx):
        raise ValueError(f"indices out of range for n={n}: {idx}")
    return _scalar_or_stack(_minor_det(M, idx))


def _minor_det(M, idx):
    """principal_minor_det's value, one per matrix: M is an embedding stack
    that _require_hyperhermitian has passed, ``idx`` sorted and in range."""
    for i in reversed(idx):
        M = chi_delete(M, i)
    if M.shape[-1] == 0:
        return np.ones(M.shape[:-2])
    return np.prod(chi_eigvals(M), axis=-1)


def sigma_k_matrix(A, k):
    """sigma_k of the eigenvalue tuple of A.

    Equals the sum of all k x k principal minor Moore determinants and the
    coefficient of t^(n-k) in moore_det(A + t*Id); sigma_n is moore_det.
    Like the two routes below, it takes one embedding ``(2n, 2n)`` (returns
    a float) or a stack ``(..., 2n, 2n)`` (returns one value per matrix).
    """
    lam = eigenvalues(A)
    return _scalar_or_stack(symfun.sigma(lam, k))


def sigma_k_minor_sum(A, k):
    """sigma_k via the sum of k x k principal minors (deleting n-k indices);
    one eigenvalue solve per index set, shared by a whole stack.  A is
    checked here, and chi_eigvals checks each minor of order 3 and up."""
    M = _require_hyperhermitian(A)
    n = M.shape[-1] // 2
    total = np.zeros(M.shape[:-2])
    for I in itertools.combinations(range(n), n - k):
        total += _minor_det(M, I)
    return _scalar_or_stack(total)


def sigma_k_coefficient(A, k):
    """sigma_k via polynomial coefficient extraction from moore_det(A + t*Id).

    The n + 1 nodes are t = s * (j - n/2) with s = 1 + max|lam|; a stack
    makes one eigenvalue solve per node.  The nodes differ from matrix to
    matrix, so the interpolating polynomial is fitted per matrix.
    """
    M = _require_hyperhermitian(A)
    n = M.shape[-1] // 2
    lam = chi_eigvals(M)
    s = 1.0 + np.abs(lam).max(axis=-1, initial=0.0)
    nodes = s[..., None] * (np.arange(n + 1) - n / 2.0)
    eye = np.eye(2 * n)
    # a shift by t * Id keeps the checked structure; from n = 3 on,
    # chi_eigvals checks each node again
    vals = np.stack([np.prod(chi_eigvals(M + nodes[..., j, None, None] * eye), axis=-1)
                     for j in range(n + 1)], axis=-1)
    # coefficients come highest power first
    coeffs = [np.polyfit(x, y, n)[k]
              for x, y in zip(nodes.reshape(-1, n + 1), vals.reshape(-1, n + 1))]
    return _scalar_or_stack(np.reshape(coeffs, s.shape))


# ---------------------------------------------------------------------------
# random generation
# ---------------------------------------------------------------------------


def random_hyperhermitian_chi(rng, n, scale=1.0, count=None):
    """Embeddings ``(count, 2n, 2n)`` of random hyperhermitian matrices, or
    one when count is None: components uniform in [-scale, scale], four
    independent ones off the diagonal, real diagonals.  A stack draws from
    ``rng`` as ``count`` single draws do."""
    squeeze = count is None
    comp = rng.uniform(-scale, scale, size=(1 if squeeze else int(count), 4, n, n))
    T = comp.transpose(0, 1, 3, 2)
    w = (comp[:, 0] + T[:, 0]) / 2.0
    x, y, z = ((comp[:, 1:] - T[:, 1:]) / 2.0).transpose(1, 0, 2, 3)
    M = chi_from_split(w + 1j * x, y + 1j * z)
    return M[0] if squeeze else M


def random_qmatrix_chi(rng, n, scale=1.0, count=None):
    """Random general quaternionic matrices, components uniform in
    [-scale, scale]; drawn and shaped as by random_hyperhermitian_chi."""
    comp = rng.uniform(-scale, scale, size=(1 if count is None else int(count), 4, n, n))
    M = chi_from_split(comp[:, 0] + 1j * comp[:, 1], comp[:, 2] + 1j * comp[:, 3])
    return M[0] if count is None else M


def random_symplectic_unitary_chi(rng, n, count=None):
    """Stacked embeddings of random quaternionic unitaries (C* C = Id).

    Built from the eigenbasis of random hyperhermitian matrices: one
    eigenvector w per doubled pair is kept and its j-partner -J' conj(w) =
    (-conj(w[n:]), conj(w[:n])) is copied in, exactly in the quaternionic subalgebra.
    """
    squeeze = count is None
    m = 1 if squeeze else int(count)
    X = rng.normal(size=(m, n, n)) + 1j * rng.normal(size=(m, n, n))
    Y = rng.normal(size=(m, n, n)) + 1j * rng.normal(size=(m, n, n))
    G = chi_from_split((X + X.conj().transpose(0, 2, 1)) / 2.0, (Y - Y.transpose(0, 2, 1)) / 2.0)
    W = np.linalg.eigh(G)[1][..., 0::2]
    U = np.empty((m, 2 * n, 2 * n), dtype=complex)
    U[..., :n], U[:, :n, n:], U[:, n:, n:] = W, -W[:, n:].conj(), W[:, :n].conj()
    return U[0] if squeeze else U
