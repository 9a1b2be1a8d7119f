"""Damped Newton solver for the quotient equation on the flat torus.

Unknowns are the potential u (mean-zero gauge during iteration) and a real
constant b balancing the torus compatibility constraint:

    sigma_k(W_u) - (C(n,k)/C(n,l)) e^(F + b) sigma_l(W_u) = 0,   W_u = W_0 + H(u).

The equation depends on u only through its second derivatives, so a constant
shift is invisible; without b the discrete system would be overdetermined.
Newton steps solve the bordered linear system

    [ L    g ] [v ]   [-R]
    [ mean 0 ] [db] = [ 0]

with L the second-order coefficient operator obtained by differentiating the
residual through the eigenvalues (Newton transforms), and g the derivative in
b.  L is elliptic exactly while the iterate stays inside Gamma_k, which the
damping enforces: any trial step whose cone margin drops below the safeguard
is rejected and the step halved.  The linear solves use restarted GMRES
(Saad & Schultz 1986), right-preconditioned by the constant-coefficient
symbol on the torus, so constant-coefficient problems converge in a single
inner iteration.

Returned potentials are shifted to sup u = 0 (the constant shift changes
neither b nor the residual).
"""

from __future__ import annotations

import ast
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import fields as fl
from . import symfun
from .errors import ConeError, ConvergenceError
from .grid import TorusGrid, second_derivative, symbol
from .quaternion import chi_eigh, chi_from_spectrum

__all__ = [
    "SolverConfig",
    "SolveResult",
    "Linearization",
    "build_problem",
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
# the inner GMRES tolerance and restart-cycle budget
_BACKTRACK = 0.5
_CONE_MARGIN = 1e-10
_LINEAR_RTOL = 1e-12
_LINEAR_MAXITER = 400


@dataclass
class SolverConfig:
    """Problem + iteration parameters.

    F and the optional diagonal background entries are numpy expressions in
    the grid coordinates x0..x{4n-1} (inactive coordinates evaluate to 0.0).
    ``n``, ``k``, ``l``, ``points_per_axis``, ``seed`` and each active axis
    must be integers (not bools or floats), the grid valid for TorusGrid,
    ``tolerance`` finite and positive, ``max_iterations`` an integer >= 1.
    ``seed`` is a config echo: the solver is deterministic and never reads
    it; the key is accepted and recorded in the solve summary's config.
    """

    n: int
    k: int
    l: int
    points_per_axis: int
    active_axes: tuple
    F: str = "0.0"
    omega0_diag: tuple | None = None  # n expressions; None = identity
    tolerance: float = 1e-9
    max_iterations: int = 30
    backend: str = "spectral"
    seed: int = 20240601

    def __post_init__(self):
        for key in ("k", "l", "seed"):
            if type(getattr(self, key)) is not int:
                raise ValueError(f"{key} must be an integer, got {getattr(self, key)!r}")
        # TorusGrid checks n, points_per_axis and the axes
        self.active_axes = self.grid.active_axes
        if not 0 <= self.l < self.k <= self.n:
            raise ValueError(f"need 0 <= l < k <= n, got k={self.k}, l={self.l}, n={self.n}")
        tol = self.tolerance
        if not (type(tol) in (int, float) and math.isfinite(tol) and tol > 0):
            raise ValueError(f"tolerance must be finite and positive, got {tol!r}")
        if not (type(self.max_iterations) is int and self.max_iterations >= 1):
            raise ValueError(f"max_iterations must be an integer >= 1, "
                             f"got {self.max_iterations!r}")
        if self.backend not in ("spectral", "fd"):
            raise ValueError(f"unknown backend {self.backend!r}")

    @property
    def grid(self):
        return TorusGrid(self.n, self.active_axes, self.points_per_axis)

    def to_dict(self):
        d = dict(self.__dict__)
        d["active_axes"] = list(self.active_axes)
        d["omega0_diag"] = list(self.omega0_diag) if self.omega0_diag else None
        return d

    @classmethod
    def from_dict(cls, data):
        data = dict(data)
        if data.get("omega0_diag"):
            data["omega0_diag"] = tuple(data["omega0_diag"])
        allowed = set(cls.__dataclass_fields__)
        unknown = set(data) - allowed
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
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
    """(grid, omega0 field, F field) from a config.

    Raises ValueError for a wrong number of omega0_diag entries, or an
    expression that does not evaluate to finite values on the grid.
    """
    grid = cfg.grid
    F = evaluate_expression(cfg.F, grid)
    if cfg.omega0_diag is None:
        omega0 = fl.identity_form(grid)
    else:
        if len(cfg.omega0_diag) != cfg.n:
            raise ValueError(f"omega0_diag needs {cfg.n} entries")
        omega0 = np.zeros(grid.shape + (2 * cfg.n, 2 * cfg.n), dtype=complex)
        for a, expr in enumerate(cfg.omega0_diag):
            d = evaluate_expression(expr, grid)
            omega0[..., a, a] = d
            omega0[..., cfg.n + a, cfg.n + a] = d
    return grid, omega0, F


@dataclass
class SolveResult:
    u: np.ndarray
    b: float
    iterations: int
    residual_history: list
    converged: bool
    gamma_margin: float
    cone_report: object
    warnings: list = field(default_factory=list)

    def summary(self):
        return {
            "b": self.b,
            "iterations": self.iterations,
            "residual_history": [float(r) for r in self.residual_history],
            "final_residual": float(self.residual_history[-1]),
            "converged": self.converged,
            "gamma_margin": self.gamma_margin,
            "sup_u": float(self.u.max()),
            "osc_u": float(self.u.max() - self.u.min()),
            "cone_condition": {
                "satisfied": bool(self.cone_report.satisfied),
                "worst_margin": self.cone_report.worst_margin,
                "delta": self.cone_report.delta,
            },
            "warnings": list(self.warnings),
        }


def residual(lam, b, F, k, l):
    """Pointwise sigma_k(W_u) - (C(n,k)/C(n,l)) e^(F+b) sigma_l(W_u) from the
    eigenvalue field ``lam`` of W_u."""
    E = symfun.forcing_factor(lam.shape[-1], k, l, F + b)
    return symfun.sigma(lam, k) - E * symfun.sigma(lam, l)


class Linearization:
    """Derivative of the residual at (u, b) as a bordered linear operator.

    apply(v) implements the second-order part L[v] = sum c_PQ(z) v_,PQ built
    from the Newton transforms of W_u; b_column is dR/db.  ellipticity_margin
    is the minimum spectral weight of the transform combination; it must be
    positive (it is, inside Gamma_k when the quotient factor tracks the
    equation) or the operator has lost ellipticity.
    """

    def __init__(self, grid, backend, coeff, b_column, ellipticity_margin):
        self.grid = grid
        self.backend = backend
        self.coeff = coeff  # dict (P, Q), active axes P <= Q -> field
        self.b_column = b_column
        self.ellipticity_margin = ellipticity_margin

    def apply(self, v):
        out = np.zeros_like(v)
        for (P, Q), c in self.coeff.items():
            out += c * second_derivative(v, self.grid, P, Q, self.backend)
        return out

    def matvec(self, v, db):
        return self.apply(v) + self.b_column * db

    def mean_symbol(self):
        """Fourier symbol of the spatial-mean coefficient operator, for
        preconditioning: sum over pairs of mean(c_PQ) * symbol(P, Q)."""
        sym = np.zeros(self.grid.shape)
        for (P, Q), c in self.coeff.items():
            sym = sym + float(np.mean(c)) * symbol(self.grid, P, Q, self.backend)
        return sym


def linearize(spectrum, b, F, grid, k, l, backend="spectral"):
    """The Linearization of the residual at (u, b), from ``spectrum`` =
    chi_eigh(W_u).

    Its coefficient matrix G = S_{k-1}(W) - Ft S_{l-1}(W) has the eigenvectors
    V of W_u and the eigenvalues w_j = sigma_{k-1}(lam|j) - Ft
    sigma_{l-1}(lam|j), the ellipticity weights: the cone condition's
    margins at Ft = C(n,k)/C(n,l) e^(F+b).
    """
    n = grid.n
    lam, V = spectrum
    E = symfun.forcing_factor(n, k, l, F + b)

    weights = symfun.sigma_excl_all(lam, k - 1)
    weights = weights - E[..., None] * symfun.sigma_excl_all(lam, l - 1)
    ell = float(weights.min())
    if ell <= 0:
        raise ConeError(f"linearized operator lost ellipticity (min weight {ell:.3e})")
    G = chi_from_spectrum(V, weights).reshape(-1, 4 * n * n)

    # c_PQ = 1/2 Re tr(G B_PQ) = 1/2 Re sum_ij G_ij B_ji, B_PQ the Hessian's
    # embedding of d2/dx_P dx_Q: a matrix-vector product over flattened slots
    coeff = {}
    for P, Q, B in fl.hessian_basis(grid):
        c = 0.5 * (G @ B.T.ravel()).real
        if np.abs(c).max() > 0:
            coeff[(P, Q)] = c.reshape(grid.shape)

    return Linearization(grid, backend, coeff, -E * symfun.sigma(lam, l), ell)


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
    rtol ||rhs||).  Returns (x, info, iterations, relres): info is 0 on
    convergence and ``maxiter`` otherwise, iterations counts Arnoldi steps
    over all cycles, and relres = ||rhs - A x|| / ||rhs|| (0 for rhs = 0).
    """
    eps = np.finfo(float).eps
    bnorm = float(np.linalg.norm(rhs))
    tol = max(atol, rtol * bnorm)
    x = np.zeros_like(rhs)
    r, rnorm = rhs, bnorm
    iterations = 0
    for _ in range(maxiter):
        if rnorm <= tol:
            break
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
        rnorm = float(np.linalg.norm(r))
    info = 0 if rnorm <= tol else maxiter
    return x, info, iterations, rnorm / bnorm if bnorm else 0.0


def _solve_newton_step(lin, R):
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
        matvec, rhs, precond, rtol=_LINEAR_RTOL, atol=1e-14 * max(1.0, np.abs(rhs).max()),
        restart=80, maxiter=_LINEAR_MAXITER)
    if info != 0:
        raise ConvergenceError(
            f"inner linear solve did not converge: {iterations} GMRES iterations, "
            f"relative residual {relres:.3e}")
    v = sol[:m].reshape(shape)
    v = v - v.mean()
    return v, float(sol[m])


def solve(cfg):
    """Run the damped Newton iteration; returns a SolveResult with sup u = 0.

    Each trial W is diagonalized once and only its spectrum is kept (W itself
    is dropped, which lowers the peak memory); the accepted spectrum is reused.
    A config that build_problem cannot turn into a problem, or whose forcing
    factor overflows at the starting b = -mean F, raises ValueError;
    mathematical failures raise ConeError or ConvergenceError.
    """
    grid, omega0, F = build_problem(cfg)
    k, l = cfg.k, cfg.l
    backend = cfg.backend

    lam0 = fl.eig_field(omega0)
    warnings = []
    u = np.zeros(grid.shape)
    b = -float(np.mean(F))
    symfun.require_finite_forcing(cfg.n, k, l, float(np.max(F)) + b)
    pre_cone = fl.check_cone_condition(lam0, F + b, k, l)
    if not pre_cone.satisfied:
        warnings.append(
            f"cone condition violated for the configured forcing at b = -mean F "
            f"(margin {pre_cone.worst_margin:.3e})"
        )

    spectrum = chi_eigh(fl.omega_u(omega0, u, grid, backend))
    R = residual(spectrum[0], b, F, k, l)
    hist = [float(np.abs(R).max())]
    iterations = 0

    for it in range(1, cfg.max_iterations + 1):
        if hist[-1] <= cfg.tolerance:
            break
        try:
            lin = linearize(spectrum, b, F, grid, k, l, backend)
        except ConeError as exc:
            note = f" [{'; '.join(warnings)}]" if warnings else ""
            raise ConvergenceError(
                f"aborted at iteration {it}: {exc}{note}"
            ) from exc
        v, db = _solve_newton_step(lin, R)

        step = 1.0
        accepted = False
        while step >= 1e-12:
            u_try = u + step * v
            u_try -= u_try.mean()
            b_try = b + step * db
            spectrum_try = chi_eigh(fl.omega_u(omega0, u_try, grid, backend))
            margin = symfun.gamma_margin(spectrum_try[0], k)
            if np.min(margin) <= _CONE_MARGIN:
                step *= _BACKTRACK
                continue
            R_try = residual(spectrum_try[0], b_try, F, k, l)
            r_try = float(np.abs(R_try).max())
            if r_try < (1.0 - 1e-4 * step) * hist[-1] or r_try <= cfg.tolerance:
                u, b, spectrum, R = u_try, b_try, spectrum_try, R_try
                hist.append(r_try)
                accepted = True
                break
            step *= _BACKTRACK
        if not accepted:
            raise ConvergenceError(
                f"damping underflow at iteration {it} (residual {hist[-1]:.3e})"
            )
        iterations = it
    else:
        raise ConvergenceError(
            f"no convergence in {cfg.max_iterations} iterations "
            f"(residual {hist[-1]:.3e})"
        )

    u_out = normalize_sup(u)
    gam = fl.in_gamma_k_field(spectrum[0], k)
    post_cone = fl.check_cone_condition(lam0, F + b, k, l)
    if not post_cone.satisfied:
        warnings.append(
            f"cone condition violated at the solved normalization "
            f"(margin {post_cone.worst_margin:.3e})"
        )
    return SolveResult(
        u=u_out,
        b=b,
        iterations=iterations,
        residual_history=hist,
        converged=True,
        gamma_margin=gam.worst_margin,
        cone_report=post_cone,
        warnings=warnings,
    )
