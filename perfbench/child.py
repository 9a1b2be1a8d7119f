"""One benchmark process: runs what a user's ``hquot`` invocation runs.

    child.py RESULT setup solve|verify CONFIG   import hquot and parse CONFIG
    child.py RESULT 0|1 -- HQUOT_ARGS...        run ``hquot HQUOT_ARGS``,
                                                traced when the mode is 1

Writes a JSON object to RESULT. For a command: the exit code ``rc``, the
wall time ``cmd_s`` spent in ``hquot.cli.main`` (interpreter start, imports
and tracer installation excluded), the process's peak resident set
``maxrss_kb`` and, when traced, the span aggregates.
"""

import json
import resource
import sys
from time import perf_counter

from hquot import cli


def _setup(kind, config):
    with open(config) as fh:
        data = json.load(fh)
    if kind == "solve":
        from hquot.solver import SolverConfig

        SolverConfig.from_dict(data)
    else:
        int(data["count"])
    return {}


def _command(traced, argv):
    tracer = None
    if traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    t0 = perf_counter()
    rc = cli.main(argv)
    cmd_s = perf_counter() - t0
    out = {"rc": rc, "cmd_s": cmd_s,
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        out["trace"] = tracer.dump()
    return out


def main(args):
    result, mode = args[0], args[1]
    if mode == "setup":
        out = _setup(args[2], args[3])
    else:
        if args[2] != "--":
            raise SystemExit(f"child.py: expected '--' before the hquot arguments, got {args[2]!r}")
        out = _command(mode == "1", args[3:])
    with open(result, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
