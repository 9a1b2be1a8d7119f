"""Run every workload, untraced and then traced, and print each report.

    python3 perfbench/all.py

Every run uses the default seed, the full size and BENCHMARK.json's
``run_seconds``; call ``run.py`` for another seed or size. Each report ends
with its JSON result line, as ``run.py`` prints it. Exits 1 if any run failed
or found an incorrect output.
"""

import io
import json
import sys
from contextlib import redirect_stdout

import run
import workloads as wl


def main():
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    ok = True
    for trace in (0, 1):
        for workload in wl.WORKLOADS:
            buf = io.StringIO()
            with redirect_stdout(buf):
                rc = run.main(["--workload", workload, "--seed", str(wl.DEFAULT_SEED),
                               "--seconds", str(seconds), "--trace", str(trace)])
            print(buf.getvalue(), flush=True)
            ok = ok and rc == 0 and json.loads(buf.getvalue().splitlines()[-1])["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
