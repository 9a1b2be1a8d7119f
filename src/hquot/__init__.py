"""Hyperhermitian matrix algebra, symmetric-function cones, and a Hessian
quotient solver on flat quaternionic tori."""

__version__ = "0.1.0"

from .errors import ConeError, ConvergenceError, SamplingError, StructureError
from .grid import TorusGrid, integrate
from .oracle import SampleSpec, run_standard_suite
from .probe import run_probe
from .quaternion import eigenvalues, moore_det
from .solver import SolverConfig, solve

__all__ = [
    "ConeError",
    "ConvergenceError",
    "SamplingError",
    "StructureError",
    "TorusGrid",
    "integrate",
    "SampleSpec",
    "run_standard_suite",
    "run_probe",
    "eigenvalues",
    "moore_det",
    "SolverConfig",
    "solve",
    "__version__",
]
