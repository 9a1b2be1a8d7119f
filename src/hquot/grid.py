"""Discrete period-1 torus grids and periodic differentiation.

Fields live on the flat torus with 4n real coordinates (coordinate 4a+c is
the c-th real component of the a-th quaternionic coordinate).  Only the axes
listed in ``active_axes`` are discretized; fields are constant along the
rest, so derivatives there vanish.  A scalar field is a plain ndarray of
shape ``grid.shape``; form fields carry trailing matrix axes.

A grid is the whole discretization: its ``backend`` picks the difference
scheme of every derivative on it, "spectral" (FFT, exact on band-limited
data) or "fd" (second-order central differences).  The two are independent
implementations and cross-validate each other.  ``symbol`` is the one table
of their Fourier multipliers: spectral differentiation applies it, and the
fd stencils act on each Fourier mode exactly as it says.  Fields are real
and every symbol maps real fields to real fields, so spectral
differentiation runs one real FFT (``rfft``/``irfft``) along the
differentiated axis and multiplies the N//2 + 1 modes it keeps; a mixed
partial is two first derivatives.  A field snapshot holds no scheme;
``load_scalar_field(path, grid)`` reads it against its grid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .config import SOLVE, check

__all__ = [
    "TorusGrid",
    "first_derivative",
    "second_derivative",
    "symbol",
    "integrate",
    "save_scalar_field",
    "load_scalar_field",
]


@dataclass(frozen=True)
class TorusGrid:
    """Equispaced grid on the period-1 torus.

    n: quaternionic dimension (4n real coordinates available).
    active_axes: which real coordinates the fields vary along (at most 4;
        the matrix algebra still runs at full n).
    points_per_axis: N points per active axis, spacing 1/N; N even, >= 4.
    backend: the difference scheme of every derivative on the grid,
        "spectral" or "fd".
    Each value must pass its key's test in ``config.SOLVE``.
    """

    n: int
    active_axes: tuple
    points_per_axis: int
    backend: str = "spectral"

    def __post_init__(self):
        check(vars(self), SOLVE)
        axes = tuple(self.active_axes)
        object.__setattr__(self, "active_axes", axes)
        if len(axes) > 4:
            raise ValueError("at most 4 active axes are supported")
        if len(set(axes)) != len(axes) or sorted(axes) != list(axes):
            raise ValueError("active_axes must be strictly increasing")
        if not all(0 <= a < 4 * self.n for a in axes):
            raise ValueError(f"axes must lie in [0, {4 * self.n})")
        N = self.points_per_axis
        if N < 4 or N % 2:
            raise ValueError("points_per_axis must be even and >= 4")

    @property
    def dim(self):
        return len(self.active_axes)

    @property
    def shape(self):
        return (self.points_per_axis,) * self.dim

    @property
    def spacing(self):
        return 1.0 / self.points_per_axis

    @property
    def num_points(self):
        return self.points_per_axis ** self.dim

    def axis_position(self, axis):
        """Array axis carrying real coordinate ``axis``; None if inactive."""
        try:
            return self.active_axes.index(axis)
        except ValueError:
            return None

    def coordinate(self, axis):
        """Grid values of one real coordinate, broadcastable to grid.shape."""
        pos = self.axis_position(axis)
        if pos is None:
            return 0.0
        x = np.arange(self.points_per_axis) / self.points_per_axis
        shape = [1] * self.dim
        shape[pos] = self.points_per_axis
        return x.reshape(shape)

    def coordinates(self):
        """{'x0': array_or_0.0, ...} for every real coordinate."""
        return {f"x{a}": self.coordinate(a) for a in range(4 * self.n)}


def symbol(grid, P, Q=None):
    """Fourier multiplier of d/dx_P (Q None) or d2/dx_P dx_Q on active axes.

    The one table of derivative symbols, broadcast-shaped over grid.shape.
    First order: ik (spectral) or i sin(kh)/h (fd, the central difference),
    with the Nyquist mode zeroed (the derivative of the Nyquist cosine
    vanishes at every grid point).  Second order on one axis: -k^2 or
    -(2 - 2 cos kh)/h^2 (the three-point stencil).  A mixed symbol is the
    product of its two first-order symbols.
    """
    if Q is not None and Q != P:
        return (symbol(grid, P) * symbol(grid, Q)).real
    N = grid.points_per_axis
    h = grid.spacing
    k = 2.0 * np.pi * np.fft.fftfreq(N, d=1.0 / N)
    if Q is None:
        k[N // 2] = 0.0
        s = 1j * np.sin(k * h) / h if grid.backend == "fd" else 1j * k
    else:
        s = -(2.0 - 2.0 * np.cos(k * h)) / h**2 if grid.backend == "fd" else -(k**2)
    shape = [1] * grid.dim
    shape[grid.axis_position(P)] = N
    return s.reshape(shape)


def first_derivative(u, grid, axis):
    """d/dx_axis of a periodic scalar field; zero for inactive axes."""
    u = np.asarray(u, dtype=float)
    pos = grid.axis_position(axis)
    if pos is None:
        return np.zeros_like(u)
    if grid.backend == "fd":
        h = grid.spacing
        return (np.roll(u, -1, axis=pos) - np.roll(u, 1, axis=pos)) / (2.0 * h)
    return _spectral(u, grid, pos, symbol(grid, axis))


def second_derivative(u, grid, axis_p, axis_q):
    """Mixed second partial d2/dx_p dx_q; symmetric in its axes by construction."""
    u = np.asarray(u, dtype=float)
    pp, qq = grid.axis_position(axis_p), grid.axis_position(axis_q)
    if pp is None or qq is None:
        return np.zeros_like(u)
    if axis_p == axis_q:
        if grid.backend == "fd":
            h = grid.spacing
            return (np.roll(u, -1, axis=pp) - 2.0 * u + np.roll(u, 1, axis=pp)) / h**2
        return _spectral(u, grid, pp, symbol(grid, axis_p, axis_p))
    lo, hi = min(axis_p, axis_q), max(axis_p, axis_q)
    return first_derivative(first_derivative(u, grid, lo), grid, hi)


def _spectral(u, grid, pos, s):
    """Apply the one-axis multiplier ``s`` (a ``symbol`` table) to the real
    field u along array axis ``pos``.  A symbol maps real fields to real
    fields, so one real FFT suffices: it keeps the first N//2 + 1 modes and
    their entries of ``s``."""
    half = [slice(None)] * grid.dim
    half[pos] = slice(grid.points_per_axis // 2 + 1)
    U = np.fft.rfft(u, axis=pos)
    U *= s[tuple(half)]
    return np.fft.irfft(U, n=grid.points_per_axis, axis=pos)


def integrate(f):
    """Integral over the unit-volume torus: the grid mean (midpoint rule,
    which coincides with the trapezoidal rule on periodic data and is exact
    for band-limited fields)."""
    return float(np.asarray(f, dtype=float).mean())


# ---------------------------------------------------------------------------
# field snapshots
# ---------------------------------------------------------------------------
#
# Text format, one value per line in row-major (C) order, values as
# shortest-roundtrip decimal (exact on reload), after a two-line header.

_MAGIC = "# hquot scalar field v1"


def _header(grid):
    axes = ",".join(str(a) for a in grid.active_axes)
    return f"{_MAGIC}\n# n={grid.n} N={grid.points_per_axis} axes={axes}\n"


def save_scalar_field(path, u, grid):
    u = np.asarray(u, dtype=float)
    if u.shape != grid.shape:
        raise ValueError(f"field shape {u.shape} does not match grid {grid.shape}")
    values = "\n".join(map(repr, u.ravel(order="C").tolist()))
    with open(path, "w") as fh:
        fh.write(_header(grid) + values + "\n")


def load_scalar_field(path, grid):
    """The field on ``grid`` in a file written by save_scalar_field.  A header
    other than ``grid``'s raises ValueError naming both, and a line that is
    not one number, or a non-finite value, one naming its file line.  Blank
    lines are skipped."""
    want = _header(grid).splitlines()
    with open(path) as fh:
        head = (fh.readline() + fh.readline()).splitlines()
    if head != want:
        raise ValueError(f"field header {head} does not match the grid's {want}")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no values: the count check names it
            vals = np.loadtxt(path, skiprows=2, comments=None, ndmin=2)
    except ValueError:  # numpy's row counts values, not file lines: name the line
        for number, text in _value_lines(path):
            try:  # the same parser, so the two agree on what a number is
                one = np.loadtxt([text], comments=None).size == 1
            except ValueError:
                one = False
            if not one:
                raise ValueError(f"line {number}: expected one number, found {text!r}") from None
        raise
    if vals.shape[1] != 1:
        raise ValueError(f"{vals.shape[1]} values on every line, expected one")
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        number, text = _value_lines(path)[bad[0]]
        raise ValueError(f"line {number}: non-finite value {text!r}")
    if vals.size != grid.num_points:
        raise ValueError(f"expected {grid.num_points} values, found {vals.size}")
    return vals.reshape(grid.shape)


def _value_lines(path):
    """(file line number, stripped text) of each non-blank line after the
    header of a field file: np.loadtxt's rows, for error messages."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    return [(number, text.strip()) for number, text in enumerate(lines[2:], start=3)
            if text.strip()]
