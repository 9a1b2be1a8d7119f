"""Record reference.json, the default-seed outputs the correctness gate pins.

    python3 perfbench/make_reference.py

Runs one round of every workload at every size on DEFAULT_SEED. Re-record
only when a change to hquot is meant to change these outputs, and review the
new values like any other expected output.
"""

import json
import os
import shutil
import sys

import run
import workloads as wl


def record(workload, size, env):
    workdir = run.WORK / f"reference-{os.getpid()}"
    try:
        cmds, _ = wl.build(workload, wl.DEFAULT_SEED, size, workdir)
        entry = {}
        for cmd in cmds:
            res = run.run_child(["0", "--", *cmd.argv], env, workdir / "result.json")
            if res.get("rc") != 0:
                raise SystemExit(f"{size} {workload} {cmd.label}: {res}")
            ok, why, vals = wl.outputs(cmd)
            if not ok:
                raise SystemExit(f"{size} {workload} {cmd.label}: {why}")
            entry[cmd.label] = {k: vals[k] for k in wl.REFERENCE_KEYS if k in vals}
        return entry
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def dump(obj, depth=0):
    """JSON with one line per dict item and per row of a list of rows."""
    pad, inner = " " * depth, " " * (depth + 1)
    if isinstance(obj, dict):
        items = [f"{inner}{json.dumps(k)}: {dump(obj[k], depth + 1)}" for k in sorted(obj)]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, list) and any(isinstance(x, list) for x in obj):
        return "[\n" + ",\n".join(inner + json.dumps(x) for x in obj) + f"\n{pad}]"
    return json.dumps(obj)


def main():
    env = run.child_env()
    ref = {size: {w: record(w, size, env) for w in wl.WORKLOADS} for size in wl.SIZES}
    path = run.HERE / "reference.json"
    path.write_text(dump(ref) + "\n")
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
