"""The config keys of every command, each with the one test of its value.

A command's keys are a dict key -> (test, what the value must be):
``SOLVE`` (also the problem a probe reads from a solve summary),
``CONE_CHECK`` (``SOLVE`` and ``b_offset``), ``VERIFY`` and ``PROBE`` (the
summary's ``b``).  Rules that relate two keys (``0 <= l < k <= n``) or shape
the grid (an even ``points_per_axis >= 4``, 1 to 4 increasing axes in
``[0, 4n)``) stay with the objects they describe.
"""

import sys

__all__ = ["SOLVE", "CONE_CHECK", "VERIFY", "PROBE", "check"]


def _number(v):
    # not a bool or a string; NaN fails the comparison, inf and huge ints the bound
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _list(test):
    return lambda v: isinstance(v, (list, tuple)) and len(v) > 0 and all(map(test, v))


def _or_null(test):
    return lambda v: v is None or test(v)


_INTEGER = (lambda v: type(v) is int, "an integer")
_COUNT = (lambda v: type(v) is int and v >= 1, "an integer >= 1")
_POSITIVE = (lambda v: _number(v) and v > 0, "a finite positive number")
_STRING = (lambda v: isinstance(v, str), "an expression string")

SOLVE = {
    "n": _COUNT,
    "k": _INTEGER,
    "l": _INTEGER,
    "points_per_axis": _INTEGER,
    "active_axes": (_list(_INTEGER[0]), "a non-empty list of integers"),
    "F": _STRING,
    "omega0_diag": (_or_null(_list(_STRING[0])), "null or a non-empty list of expression strings"),
    "tolerance": _POSITIVE,
    "max_iterations": _COUNT,
    "backend": (lambda v: v in ("spectral", "fd"), '"spectral" or "fd"'),
    "seed": _INTEGER,
}
CONE_CHECK = {**SOLVE, "b_offset": (lambda v: v == "auto" or _number(v),
                                    '"auto" or a finite number')}
VERIFY = {
    "count": _COUNT,
    "seed": (lambda v: type(v) is int and v >= 0, "an integer >= 0"),
    "n_values": (_list(_COUNT[0]), "a non-empty list of integers >= 1"),
    "scale": _POSITIVE,
    "propositions": (_or_null(_list(_STRING[0])), "null or a non-empty list of proposition names"),
    "algebra_count": (_or_null(_COUNT[0]), "null or an integer >= 1"),
}
PROBE = {"b": (_number, "a finite number")}


def check(data, keys):
    """ValueError for the keys of ``data`` missing from ``keys``, else for the
    first value that fails its key's test; the message names the key."""
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    for key, value in data.items():
        test, what = keys[key]
        if not test(value):
            raise ValueError(f"{key} must be {what}, got {value!r}")
