"""Damped Newton solver for the quotient equation on the flat torus.

Unknowns are the potential u (mean-zero gauge during iteration) and a real
constant b balancing the torus compatibility constraint:

    sigma_k(W_u) - (C(n,k)/C(n,l)) e^(F + b) sigma_l(W_u) = 0,   W_u = diag(omega0) + H(u).

The equation depends on u only through its second derivatives, so a constant
shift is invisible; without b the discrete system would be overdetermined.
Newton steps solve the bordered linear system

    [ L    g ] [v ]   [-R]
    [ mean 0 ] [db] = [ 0]

with L the second-order coefficient operator obtained by differentiating the
residual through the eigenvalues (Newton transforms), and g the derivative in
b.  The damping keeps every accepted iterate inside Gamma_k by _CONE_MARGIN:
a trial step whose cone margin drops below it is rejected and the step
halved.  That does not make L elliptic.  Its weights
sigma_{k-1}(lam|j) - Ft sigma_{l-1}(lam|j) can drop to <= 0 at an iterate
inside Gamma_k.  Every trial computes L's coefficients, but the ConeError
is raised only when the Newton step from such an iterate is about to use
L: n2k2l1 on axes (0, 5), N = 16, F = 0.6 sin(2 pi (x0 + x5)) passes the
cone check, yet its solve stops there.  The linear solves use restarted GMRES
(Saad & Schultz 1986), right-preconditioned by the constant-coefficient
symbol on the torus, so constant-coefficient problems converge in a single
inner iteration.  Newton is inexact: each linear solve stops at relative
residual max(1e-12, 0.1 tolerance / ||R||_inf), the accuracy the outer
test ||R||_inf <= tolerance needs (the safeguard floor of the
Eisenstat-Walker forcing terms, SIAM J. Sci. Comput. 17, 1996), and a
restart cycle that does not lower the true residual stops GMRES as
stagnated.

Returned potentials are shifted to sup u = 0 (the constant shift changes
neither b nor the residual).
"""

from __future__ import annotations

import ast
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import fields as fl
from . import symfun
from .config import SOLVE, check
from .errors import ConeError, ConvergenceError
from .grid import TorusGrid, second_derivative, symbol
from .quaternion import chi_eigh

__all__ = [
    "SolverConfig",
    "Linearization",
    "build_problem",
    "start_offset",
    "residual",
    "linearize",
    "normalize_sup",
    "gmres",
    "solve",
]

_SAFE_FUNCS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp, "log": np.log,
    "sqrt": np.sqrt, "tanh": np.tanh, "abs": np.abs,
}
_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}

# iteration constants: step halving, the cone safeguard on trial steps, and
# the inner GMRES tolerance floor, restart length and restart-cycle budget
_BACKTRACK = 0.5
_CONE_MARGIN = 1e-10
_LINEAR_RTOL = 1e-12
_LINEAR_RESTART = 80
_LINEAR_MAXITER = 400
# grid points per block of solve's pointwise stage: the four-axis solve's
# peak memory stops falling at this size, and smaller blocks run slower
_BLOCK = 4096


@dataclass
class SolverConfig:
    """Problem + iteration parameters.

    F and the optional diagonal background entries are numpy expressions in
    the grid coordinates x0..x{4n-1} (inactive coordinates evaluate to 0.0).
    Each value must pass its key's test in ``config.SOLVE``, the grid must be
    valid for TorusGrid, and 0 <= l < k <= n.  ``seed`` is a config echo:
    the solver is deterministic and never reads it; the key is accepted and
    recorded in the solve summary's config.
    """

    n: int
    k: int
    l: int
    points_per_axis: int
    active_axes: tuple
    F: str = "0.0"
    omega0_diag: list | None = None  # n expressions; None = identity
    tolerance: float = 1e-9
    max_iterations: int = 30
    backend: str = "spectral"
    seed: int = 20240601

    def __post_init__(self):
        check(vars(self), SOLVE)
        self.active_axes = self.grid.active_axes
        if not 0 <= self.l < self.k <= self.n:
            raise ValueError(f"need 0 <= l < k <= n, got k={self.k}, l={self.l}, n={self.n}")

    @property
    def grid(self):
        return TorusGrid(self.n, self.active_axes, self.points_per_axis, self.backend)

    def to_dict(self):
        return dict(vars(self))

    @classmethod
    def from_dict(cls, data):
        check(data, SOLVE)
        return cls(**data)


def _evaluate(node, names):
    """Value of a parsed expression in the documented grammar: numbers, the
    ``names``, calls of _SAFE_FUNCS, unary +/- and + - * / **.  Numbers are
    floats, so a huge power overflows at once instead of growing an int."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id in names:
        return names[node.id]
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        return _UNARY[type(node.op)](_evaluate(node.operand, names))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](_evaluate(node.left, names), _evaluate(node.right, names))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _SAFE_FUNCS and not node.keywords):
        return _SAFE_FUNCS[node.func.id](*(_evaluate(a, names) for a in node.args))
    raise ValueError(f"{ast.unparse(node)!r} is not allowed")


def evaluate_expression(expr, grid):
    """Evaluate a coordinate expression to a full, finite scalar field.

    Only the documented grammar is accepted (see _evaluate); anything else,
    such as an attribute or a subscript, raises ValueError.
    """
    names = {"pi": np.pi, **grid.coordinates()}
    try:
        with np.errstate(all="ignore"):
            val = _evaluate(ast.parse(expr, mode="eval").body, names)
        out = np.asarray(val, dtype=float)
    except Exception as exc:
        raise ValueError(f"cannot evaluate expression {expr!r}: {exc}") from None
    if not np.isfinite(out).all():
        raise ValueError(f"expression {expr!r} is not finite on the grid")
    return np.broadcast_to(out, grid.shape).copy()


def build_problem(cfg):
    """(grid, omega0, F field) from a config: omega0 holds the background's
    diagonal entries, shape grid.shape + (n,), all ones for the identity.

    Raises ValueError for a wrong number of omega0_diag entries, or an
    expression that does not evaluate to finite values on the grid.
    """
    grid = cfg.grid
    F = evaluate_expression(cfg.F, grid)
    if cfg.omega0_diag is None:
        omega0 = np.ones(grid.shape + (cfg.n,))
    else:
        if len(cfg.omega0_diag) != cfg.n:
            raise ValueError(f"omega0_diag needs {cfg.n} entries")
        omega0 = np.stack([evaluate_expression(e, grid) for e in cfg.omega0_diag], axis=-1)
    return grid, omega0, F


def start_offset(F):
    """b = -mean F, where solve starts; ValueError if the mean overflows."""
    with np.errstate(over="ignore"):
        b = -float(np.mean(F))
    if not math.isfinite(b):
        raise ValueError(f"b = -mean F is not finite ({b}): the mean of F overflows")
    return b


def residual(lam, b, F, k, l):
    """Pointwise sigma_k(W_u) - (C(n,k)/C(n,l)) e^(F+b) sigma_l(W_u) from the
    eigenvalue field ``lam`` of W_u."""
    E = symfun.forcing_factor(lam.shape[-1], k, l, F + b)
    return symfun.sigma(lam, k) - E * symfun.sigma(lam, l)


class Linearization:
    """Derivative of the residual at (u, b) as a bordered linear operator.

    apply(v) implements the second-order part L[v] = sum c_PQ(z) v_,PQ built
    from the Newton transforms of W_u; ``coeff`` holds the real fields c_PQ
    that are not identically zero, and b_column is dR/db.  ellipticity_margin
    is the minimum weight sigma_{k-1}(lam|j) - Ft sigma_{l-1}(lam|j) of the
    transform combination.  Building the operator, by linearize or by a
    Newton step of solve, raises ConeError unless it is positive; an
    iterate inside Gamma_k can still have a weight <= 0.  The derivative
    scheme is the grid's: on a spectral grid each pure pair costs one real
    FFT pair along its axis and each mixed pair two.
    """

    def __init__(self, grid, coeff, b_column, ellipticity_margin):
        self.grid = grid
        self.coeff = coeff  # dict (P, Q), active axes P <= Q -> field
        self.b_column = b_column
        self.ellipticity_margin = ellipticity_margin

    def apply(self, v):
        out = np.zeros_like(v)
        for (P, Q), c in self.coeff.items():
            out += c * second_derivative(v, self.grid, P, Q)
        return out

    def matvec(self, v, db):
        return self.apply(v) + self.b_column * db

    def mean_symbol(self):
        """Fourier symbol of the spatial-mean coefficient operator, for
        preconditioning: sum over pairs of mean(c_PQ) * symbol(P, Q)."""
        sym = np.zeros(self.grid.shape)
        for (P, Q), c in self.coeff.items():
            sym = sym + float(np.mean(c)) * symbol(self.grid, P, Q)
        return sym


def linearize(spectrum, b, F, grid, k, l):
    """The Linearization of the residual at (u, b), from ``spectrum`` =
    chi_eigh(W_u), computed on the whole field at once; raises ConeError
    unless its ellipticity margin is positive.  solve computes the same
    operator block by block (_pointwise).
    """
    E = symfun.forcing_factor(grid.n, k, l, F + b)
    basis = fl.hessian_basis(grid)
    c = np.empty((len(basis), grid.num_points))
    ell = _top_row_coefficients(spectrum, E, basis, k, l, c)
    return _linearization(grid, basis, c, ell, spectrum[0], E, l)


def _top_row_coefficients(spectrum, E, basis, k, l, out):
    """Write the coefficients c_PQ at ``spectrum`` = (lam, V) and forcing
    factors E into the rows of ``out`` (one per pair of ``basis``, the points
    flattened); return the least ellipticity weight.

    The coefficient matrix G = S_{k-1}(W) - Ft S_{l-1}(W) has the
    eigenvectors V of W and the eigenvalues w_j = sigma_{k-1}(lam|j) - Ft
    sigma_{l-1}(lam|j), the ellipticity weights: the cone condition's
    margins at Ft = C(n,k)/C(n,l) e^(F+b).  The coefficients are
    c_PQ = 1/2 Re tr(G B_PQ), B_PQ the Hessian's embedding of d2/dx_P dx_Q
    (fields.hessian_basis).  G B_PQ lies in the image of chi, whose lower
    diagonal block is the conjugate of the upper one, so c_PQ =
    Re sum_{i<n, j} G_ij B_ji: only the top n rows of G are formed.
    """
    lam, V = spectrum
    n = lam.shape[-1]
    weights = symfun.sigma_excl_all(lam, k - 1)
    weights = weights - E[..., None] * symfun.sigma_excl_all(lam, l - 1)
    # conj of the top n rows of G = V diag(weights doubled) V^H:
    # conj(V_top w) @ V^T reads V through a transposed view, with no copy
    Gc = V[..., :n, :] * np.repeat(weights, 2, axis=-1)[..., None, :]
    np.conjugate(Gc, out=Gc)
    Gc = (Gc @ np.swapaxes(V, -1, -2)).reshape(-1, 2 * n * n)
    # c_PQ = Re sum_{i<n, j} conj(G_ij) conj(B_ji): a matrix-vector product
    # over the flattened top-row slots
    for row, (_, _, B) in zip(out, basis):
        row[:] = (Gc @ B[:, :n].T.conj().ravel()).real
    return weights.min()


def _linearization(grid, basis, c, ell, lam, E, l):
    """The Linearization with the coefficient rows ``c`` of ``basis`` (a pair
    whose row is zero on the whole grid is left out), ellipticity margin
    ``ell`` and dR/db = -E sigma_l(lam), E the forcing factors; raises
    ConeError unless ell > 0."""
    ell = float(ell)
    if ell <= 0:
        raise ConeError(f"linearized operator lost ellipticity (min weight {ell:.3e}): "
                        f"cone condition violated at the current iterate")
    coeff = {(P, Q): row.reshape(grid.shape)
             for (P, Q, _), row in zip(basis, c) if np.abs(row).max() > 0}
    return Linearization(grid, coeff, -E * symfun.sigma(lam, l), ell)


def _pointwise(omega0, u, b, F, grid, basis, k, l):
    """The pointwise stage at (u, b), run over blocks of _BLOCK grid points:
    returns (lam, c, ell), the eigenvalue field of W_u and the coefficient
    rows and least ellipticity weight of linearize's operator at (u, b).

    Only the second partials of u, lam and c are whole fields.  Each block's
    W_u and eigenvectors are dropped when the next block is assembled.  No
    arithmetic depends on the blocking, so the results equal the whole-field
    route's bit for bit.
    """
    n, m = grid.n, grid.num_points
    d2 = [second_derivative(u, grid, P, Q).reshape(m) for P, Q, _ in basis]
    om = omega0.reshape(m, n)
    E = symfun.forcing_factor(n, k, l, F + b).reshape(m)
    lam = np.empty((m, n))
    c = np.empty((len(basis), m))
    ell = np.inf
    for s in range(0, m, _BLOCK):
        blk = slice(s, s + _BLOCK)
        W = fl.add_background(fl.assemble_hessian(basis, [d[blk] for d in d2]), om[blk])
        spectrum = chi_eigh(W)
        lam[blk] = spectrum[0]
        ell = np.minimum(ell, _top_row_coefficients(spectrum, E[blk], basis, k, l, c[:, blk]))
    return lam.reshape(grid.shape + (n,)), c, ell


def normalize_sup(u):
    """Shift so the maximum is zero; idempotent, exact for constants."""
    u = np.asarray(u, dtype=float)
    return u - u.max()


def gmres(matvec, rhs, precond, *, rtol, atol, restart, maxiter):
    """Solve A x = rhs by restarted GMRES, right-preconditioned: each cycle
    minimizes ||rhs - A x|| over x0 + M K, K the Krylov space of A M.

    ``matvec`` applies A and ``precond`` applies M, both linear maps of
    vectors.  A cycle takes at most ``restart`` Arnoldi steps (modified
    Gram-Schmidt, Givens rotations); at most ``maxiter`` cycles run.  The
    stopping test reads the true residual: ||rhs - A x|| <= max(atol,
    rtol ||rhs||).  A cycle whose true residual is not below the previous
    one's ends the run: restarted GMRES has stagnated, typically at the
    roundoff floor (Saad 2003, sec. 6.5).  Returns (x, info, iterations,
    relres): info is 0 on convergence and otherwise the number of cycles
    run, ``maxiter`` when the budget ran out and fewer on stagnation;
    iterations counts Arnoldi steps over all cycles, and relres =
    ||rhs - A x|| / ||rhs|| (0 for rhs = 0).
    """
    eps = np.finfo(float).eps
    bnorm = float(np.linalg.norm(rhs))
    tol = max(atol, rtol * bnorm)
    x = np.zeros_like(rhs)
    r, rnorm = rhs, bnorm
    iterations = cycles = 0
    while rnorm > tol and cycles < maxiter:
        V = np.empty((restart + 1, rhs.size))
        H = np.zeros((restart + 1, restart))
        cs, sn = np.zeros(restart), np.zeros(restart)
        g = np.zeros(restart + 1)
        g[0] = rnorm
        V[0] = r / rnorm
        for j in range(restart):
            w = matvec(precond(V[j]))
            w0 = np.linalg.norm(w)
            for i in range(j + 1):
                H[i, j] = V[i] @ w
                w -= H[i, j] * V[i]
            h = np.linalg.norm(w)
            for i in range(j):
                H[i, j], H[i + 1, j] = (cs[i] * H[i, j] + sn[i] * H[i + 1, j],
                                        cs[i] * H[i + 1, j] - sn[i] * H[i, j])
            d = math.hypot(H[j, j], h)
            cs[j], sn[j] = H[j, j] / d, h / d
            H[j, j] = d
            g[j + 1] = -sn[j] * g[j]
            g[j] *= cs[j]
            iterations += 1
            if abs(g[j + 1]) <= tol or h <= eps * w0:  # converged, or exact breakdown
                break
            V[j + 1] = w / h
        y = np.linalg.solve(np.triu(H[: j + 1, : j + 1]), g[: j + 1])
        x = x + precond(y @ V[: j + 1])
        r = rhs - matvec(x)
        cycles += 1
        previous, rnorm = rnorm, float(np.linalg.norm(r))
        if rnorm >= previous:
            break
    info = 0 if rnorm <= tol else cycles
    return x, info, iterations, rnorm / bnorm if bnorm else 0.0


def _solve_newton_step(lin, R, rtol):
    """The Newton step (v, db) from the bordered system at relative
    tolerance ``rtol``, and the linear-solve record of the solve summary:
    rtol, the Arnoldi steps taken and the final relative residual.  Raises
    ConvergenceError when GMRES stagnates or exhausts its cycles."""
    m = R.size
    shape = R.shape
    g = lin.b_column
    gbar = float(np.mean(g))
    # the symbol is real and even, so the preconditioner runs on real FFTs
    # and keeps the half-spectrum of 1/symbol
    sym = lin.mean_symbol()[..., : shape[-1] // 2 + 1]
    zero = np.abs(sym) < 1e-300
    inv_sym = np.where(zero, 0.0, 1.0 / np.where(zero, 1.0, sym))

    def matvec(z):
        v = z[:m].reshape(shape)
        db = z[m]
        top = lin.matvec(v, db)
        return np.concatenate([top.ravel(), [v.mean()]])

    def precond(z):
        r = z[:m].reshape(shape)
        rho = z[m]
        db = float(r.mean()) / gbar
        rhat = np.fft.rfftn(r)
        rhat.flat[0] = 0.0  # mean component is carried by db
        v = np.fft.irfftn(rhat * inv_sym, s=shape, axes=range(len(shape))) + rho
        return np.concatenate([v.ravel(), [db]])

    rhs = np.concatenate([(-R).ravel(), [0.0]])
    sol, info, iterations, relres = gmres(
        matvec, rhs, precond, rtol=rtol, atol=1e-14 * max(1.0, np.abs(rhs).max()),
        restart=_LINEAR_RESTART, maxiter=_LINEAR_MAXITER)
    if info != 0:
        why = ("did not converge" if info == _LINEAR_MAXITER
               else f"stagnated after {info} restart cycles")
        raise ConvergenceError(
            f"inner linear solve {why}: {iterations} GMRES iterations, "
            f"relative residual {relres:.3e} (tolerance {rtol:.3e})")
    v = sol[:m].reshape(shape)
    v = v - v.mean()
    return v, float(sol[m]), {"rtol": rtol, "arnoldi_steps": iterations,
                              "relative_residual": relres}


def solve(cfg):
    """Run the damped Newton iteration; returns (u, summary) with sup u = 0.

    ``summary`` is solve_summary.json without its config echo: b, the
    iteration count, the residual history and its last entry, one
    linear-solve record per Newton step (_solve_newton_step), the accepted
    iterate's cone margin gamma_margin, sup and oscillation of u, the cone
    condition at the solved b, and its warnings.

    Each trial (u, b) runs the pointwise stage once (_pointwise): block by
    block, W_u is assembled from the second partials of u and diagonalized,
    and only the eigenvalues and the linearization's coefficient rows are
    kept, so no whole W_u or eigenvector field exists.  The residual, the
    cone margin and the next Newton step read those.  The start
    W_u = diag(omega0) has the spectrum omega0 sorted.
    A config that build_problem cannot turn into a problem, whose mean F
    overflows, or whose forcing factor overflows at the starting b = -mean F,
    raises ValueError;
    mathematical failures raise ConeError or ConvergenceError.
    """
    grid, omega0, F = build_problem(cfg)
    n, k, l = cfg.n, cfg.k, cfg.l
    basis = fl.hessian_basis(grid)

    lam0 = np.sort(omega0, axis=-1)
    u = np.zeros(grid.shape)
    b = start_offset(F)
    symfun.require_finite_forcing(n, k, l, float(np.max(F)) + b)
    gam = fl.require_in_gamma(lam0, k)  # the start W_u is diag(omega0)

    lam, c, ell = _pointwise(omega0, u, b, F, grid, basis, k, l)
    R = residual(lam, b, F, k, l)
    hist = [float(np.abs(R).max())]
    linear_solves = []
    iterations = 0

    for it in range(1, cfg.max_iterations + 1):
        if hist[-1] <= cfg.tolerance:
            break
        E = symfun.forcing_factor(n, k, l, F + b)
        try:
            lin = _linearization(grid, basis, c, ell, lam, E, l)
        except ConeError as exc:
            raise ConvergenceError(f"aborted at iteration {it}: {exc}") from exc
        # inexact Newton: ask GMRES only for the accuracy the outer test needs
        v, db, record = _solve_newton_step(
            lin, R, max(_LINEAR_RTOL, 0.1 * cfg.tolerance / hist[-1]))
        linear_solves.append(record)
        del lin, c  # every trial builds its own coefficient rows

        step = 1.0
        while step >= 1e-12:
            u_try = u + step * v
            u_try -= u_try.mean()
            b_try = b + step * db
            lam_try, c, ell_try = _pointwise(omega0, u_try, b_try, F, grid, basis, k, l)
            gam_try = float(np.min(symfun.gamma_margin(lam_try, k)))
            if gam_try <= _CONE_MARGIN:
                step *= _BACKTRACK
                continue
            R_try = residual(lam_try, b_try, F, k, l)
            r_try = float(np.abs(R_try).max())
            if r_try < (1.0 - 1e-4 * step) * hist[-1] or r_try <= cfg.tolerance:
                u, b, lam, ell, gam, R = u_try, b_try, lam_try, ell_try, gam_try, R_try
                hist.append(r_try)
                break
            step *= _BACKTRACK
        else:
            raise ConvergenceError(
                f"damping underflow at iteration {it} (residual {hist[-1]:.3e})"
            )
        iterations = it
    if not hist[-1] <= cfg.tolerance:
        raise ConvergenceError(
            f"no convergence in {cfg.max_iterations} iterations "
            f"(residual {hist[-1]:.3e})"
        )

    u = normalize_sup(u)
    cone = fl.check_cone_condition(lam0, F + b, k, l)
    warnings = [] if cone["satisfied"] else [
        f"cone condition violated at the solved normalization "
        f"(margin {cone['worst_margin']:.3e})"]
    return u, {
        "b": b,
        "iterations": iterations,
        "residual_history": hist,
        "final_residual": hist[-1],
        "linear_solves": linear_solves,
        "converged": True,
        "gamma_margin": gam,
        "sup_u": float(u.max()),
        "osc_u": float(u.max() - u.min()),
        "cone_condition": {key: cone[key] for key in ("satisfied", "worst_margin", "delta")},
        "warnings": warnings,
    }
