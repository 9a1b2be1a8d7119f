"""Discrete period-1 torus grids and periodic differentiation.

Fields live on the flat torus with 4n real coordinates (coordinate 4a+c is
the c-th real component of the a-th quaternionic coordinate).  Only the axes
listed in ``active_axes`` are discretized; fields are constant along the
rest, so derivatives there vanish.  A scalar field is a plain ndarray of
shape ``grid.shape``; form fields carry trailing matrix axes.

Two derivative backends are provided: "spectral" (FFT, exact on band-limited
data) and "fd" (second-order central differences).  They are independent
implementations and cross-validate each other.  ``symbol`` is the one table
of their Fourier multipliers: spectral differentiation applies it, and the
fd stencils act on each Fourier mode exactly as it says.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TorusGrid",
    "first_derivative",
    "second_derivative",
    "symbol",
    "integrate",
    "save_scalar_field",
    "load_scalar_field",
]

BACKENDS = ("spectral", "fd")


@dataclass(frozen=True)
class TorusGrid:
    """Equispaced grid on the period-1 torus.

    n: quaternionic dimension (4n real coordinates available).
    active_axes: which real coordinates the fields vary along (at most 4;
        the matrix algebra still runs at full n).
    points_per_axis: N points per active axis, spacing 1/N; N even, >= 4.
    n, points_per_axis and each axis must be integers (not bools or floats).
    """

    n: int
    active_axes: tuple
    points_per_axis: int

    def __post_init__(self):
        for key in ("n", "points_per_axis"):
            if type(getattr(self, key)) is not int:
                raise ValueError(f"{key} must be an integer, got {getattr(self, key)!r}")
        axes = self.active_axes
        if not (isinstance(axes, (list, tuple)) and all(type(a) is int for a in axes)):
            raise ValueError(f"active_axes must be a list of integers, got {axes!r}")
        axes = tuple(axes)
        object.__setattr__(self, "active_axes", axes)
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 1 <= len(axes) <= 4:
            raise ValueError("between 1 and 4 active axes are supported")
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


def _check_backend(backend):
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")


def symbol(grid, P, Q=None, backend="spectral"):
    """Fourier multiplier of d/dx_P (Q None) or d2/dx_P dx_Q on active axes.

    The one table of derivative symbols, broadcast-shaped over grid.shape.
    First order: ik (spectral) or i sin(kh)/h (fd, the central difference),
    with the Nyquist mode zeroed (the derivative of the Nyquist cosine
    vanishes at every grid point).  Second order on one axis: -k^2 or
    -(2 - 2 cos kh)/h^2 (the three-point stencil).  A mixed symbol is the
    product of its two first-order symbols.
    """
    _check_backend(backend)
    if Q is not None and Q != P:
        return (symbol(grid, P, None, backend) * symbol(grid, Q, None, backend)).real
    N = grid.points_per_axis
    h = grid.spacing
    k = 2.0 * np.pi * np.fft.fftfreq(N, d=1.0 / N)
    if Q is None:
        k[N // 2] = 0.0
        s = 1j * np.sin(k * h) / h if backend == "fd" else 1j * k
    else:
        s = -(2.0 - 2.0 * np.cos(k * h)) / h**2 if backend == "fd" else -(k**2)
    shape = [1] * grid.dim
    shape[grid.axis_position(P)] = N
    return s.reshape(shape)


def first_derivative(u, grid, axis, backend="spectral"):
    """d/dx_axis of a periodic scalar field; zero for inactive axes."""
    _check_backend(backend)
    u = np.asarray(u, dtype=float)
    pos = grid.axis_position(axis)
    if pos is None:
        return np.zeros_like(u)
    if backend == "fd":
        h = grid.spacing
        return (np.roll(u, -1, axis=pos) - np.roll(u, 1, axis=pos)) / (2.0 * h)
    U = np.fft.fft(u, axis=pos)
    U *= symbol(grid, axis)
    return np.fft.ifft(U, axis=pos).real


def second_derivative(u, grid, axis_p, axis_q, backend="spectral"):
    """Mixed second partial d2/dx_p dx_q; symmetric in its axes by construction."""
    _check_backend(backend)
    u = np.asarray(u, dtype=float)
    pp, qq = grid.axis_position(axis_p), grid.axis_position(axis_q)
    if pp is None or qq is None:
        return np.zeros_like(u)
    if axis_p == axis_q:
        if backend == "fd":
            h = grid.spacing
            return (np.roll(u, -1, axis=pp) - 2.0 * u + np.roll(u, 1, axis=pp)) / h**2
        U = np.fft.fft(u, axis=pp)
        U *= symbol(grid, axis_p, axis_p)
        return np.fft.ifft(U, axis=pp).real
    lo, hi = min(axis_p, axis_q), max(axis_p, axis_q)
    return first_derivative(first_derivative(u, grid, lo, backend), grid, hi, backend)


def integrate(f, grid):
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


def _parse_header(lines):
    if len(lines) < 2 or lines[0].strip() != _MAGIC:
        raise ValueError("not a scalar field file")
    meta = {}
    for tok in lines[1].lstrip("#").split():
        key, _, val = tok.partition("=")
        meta[key] = val
    return TorusGrid(
        n=int(meta["n"]),
        active_axes=tuple(int(a) for a in meta["axes"].split(",")),
        points_per_axis=int(meta["N"]),
    )


def save_scalar_field(path, u, grid):
    u = np.asarray(u, dtype=float)
    if u.shape != grid.shape:
        raise ValueError(f"field shape {u.shape} does not match grid {grid.shape}")
    with open(path, "w") as fh:
        fh.write(_header(grid))
        for v in u.ravel(order="C"):
            fh.write(repr(float(v)) + "\n")


def load_scalar_field(path):
    """(u, grid) from a file written by save_scalar_field; a non-finite value
    raises ValueError naming its line."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    grid = _parse_header(lines)
    vals = np.array([float(s) for s in lines[2:] if s.strip()], dtype=float)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        number = [i for i, s in enumerate(lines[2:], start=3) if s.strip()][bad[0]]
        raise ValueError(f"line {number}: non-finite value {lines[number - 1].strip()!r}")
    if vals.size != grid.num_points:
        raise ValueError(f"expected {grid.num_points} values, found {vals.size}")
    return vals.reshape(grid.shape), grid

