"""Span tracing of hquot's public functions, installed from outside the package.

``install`` replaces each function listed in ``SPANS`` with a timing wrapper
at every place an hquot module binds it: the defining module, modules that
imported the name (``fields`` binds the ``quaternion`` and ``grid`` functions,
``cli`` binds ``run_probe`` and the snapshot functions, the package binds its
re-exports), and class attributes for methods. Lazy ``from .x import f``
imports inside functions read the module attribute at call time, so they see
the wrapper too.

A span's self time is its duration minus the durations of the wrapped calls
made inside it, so nested spans (``eig_field`` -> ``chi_eigvals``) are not
counted twice. Spans are aggregated by name in memory; ``dump`` returns them.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from collections import Counter
from time import perf_counter

import numpy as np

from workloads import PROPOSITIONS

# module.attribute of every wrapped function; methods as module.Class.method
SPANS = [
    "cli.run_solve", "cli.run_probe_cmd", "cli.run_verify",
    "solver.solve", "solver.linearize", "solver.gmres",
    "solver.Linearization.apply", "solver.Linearization.mean_symbol",
    "grid.first_derivative", "grid.second_derivative",
    "grid.save_scalar_field", "grid.load_scalar_field",
    "fields.quaternionic_hessian", "fields.omega_u", "fields.eig_field",
    "fields.newton_transform_field", "fields.gradient_pairing",
    "fields.measure_epsilon", "fields.check_cone_condition",
    "quaternion.chi_eigh", "quaternion.chi_eigvals", "quaternion.moore_det",
    "quaternion.realize", "quaternion.eigenvalues", "quaternion.sigma_k_matrix",
    "quaternion.sigma_k_minor_sum", "quaternion.sigma_k_coefficient",
    "symfun.elementary_all", "symfun.sigma_excl_all", "symfun.in_gamma_k",
    "symfun.quotient_root",
    "probe.run_probe", "probe.pointwise_lemma_sweep", "probe.homotopy_integral_check",
    "probe.weighted_energy_check", "probe.cherrier_table",
    "oracle.run_standard_suite", "oracle.sample_gamma_k",
    "oracle.sample_hyperhermitian_gamma_k",
] + [f"oracle.{fn}" for fn in PROPOSITIONS]

# Spans that also count work: the first argument's items, each item being its
# last WORK_AXES[name] axes (grid points, matrices, eigenvalue tuples).
WORK_AXES = {"fields.eig_field": 2, "quaternion.chi_eigh": 2,
             "quaternion.chi_eigvals": 2, "symfun.elementary_all": 1}


def span_name(target):
    module, _, attr = target.partition(".")
    if module == "oracle" and attr in PROPOSITIONS:
        return f"oracle.{PROPOSITIONS[attr]}"
    return target


class Tracer:
    """In-memory span aggregates: per name calls, total, self time and work;
    per (caller span, span) the number of calls."""

    def __init__(self):
        self.stats = {}
        self.edges = Counter()
        self._stack = []

    def wrap(self, name, fn, work_axes=0):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        edges = self.edges

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if work_axes:
                stats[3] += math.prod(np.shape(args[0])[:-work_axes])
            edges[(stack[-1][0] if stack else None, name)] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt

        return wrapper

    def dump(self):
        return {
            "spans": {name: {"calls": c, "total_s": t, "self_s": s, "work": w}
                      for name, (c, t, s, w) in self.stats.items()},
            "edges": [[parent, name, n] for (parent, name), n in self.edges.items()],
        }


def install(tracer):
    """Wrap every function in SPANS wherever an hquot module binds it."""
    modules = {m: importlib.import_module(f"hquot.{m}")
               for m in ("cli", "solver", "grid", "fields", "quaternion",
                         "symfun", "probe", "oracle")}
    loaded = [mod for name, mod in sys.modules.items()
              if mod is not None and (name == "hquot" or name.startswith("hquot."))]
    for target in SPANS:
        module, *path, leaf = target.split(".")
        owner = modules[module]
        for part in path:
            owner = getattr(owner, part)
        orig = getattr(owner, leaf)
        wrapped = tracer.wrap(span_name(target), orig, WORK_AXES.get(target, 0))
        if path:
            setattr(owner, leaf, wrapped)
            continue
        for mod in loaded:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)
