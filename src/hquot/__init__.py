"""Hyperhermitian matrix algebra, symmetric-function cones, and a Hessian
quotient solver on flat quaternionic tori."""

__version__ = "0.1.0"

from .errors import ConeError, ConvergenceError, SamplingError, StructureError
from .grid import TorusGrid, integrate
from .oracle import SampleSpec, VerificationReport, run_standard_suite
from .probe import ProbeReport, run_probe
from .quaternion import eigenvalues, moore_det
from .solver import SolveResult, SolverConfig, solve

__all__ = [
    "ConeError",
    "ConvergenceError",
    "SamplingError",
    "StructureError",
    "TorusGrid",
    "integrate",
    "SampleSpec",
    "VerificationReport",
    "run_standard_suite",
    "ProbeReport",
    "run_probe",
    "eigenvalues",
    "moore_det",
    "SolveResult",
    "SolverConfig",
    "solve",
    "__version__",
]
