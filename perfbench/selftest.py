"""Self-tests of the benchmark. Run from the checkout root:

    python3 -m pytest -q perfbench/selftest.py

They run the workloads at the "tiny" size, so they take about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads as wl

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=run.ROOT, script=run.HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(wl.DEFAULT_SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_metrics_run_emits():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)
    gated = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    assert gated == [(n, u) for n, u in run.END_TO_END if n in run.GATED]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)


def test_tracer_names_every_standard_proposition():
    sys.path.insert(0, str(run.SRC))
    from hquot.oracle import STANDARD_PROPOSITIONS

    assert sorted(wl.PROPOSITIONS.values()) == sorted(STANDARD_PROPOSITIONS)


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in want}
    if not trace:
        # the report names all end-to-end metrics, gated or not, with units
        for name, unit in run.END_TO_END:
            assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                       for line in lines), name
        assert all(result["metrics"][m]["value"] > 0 for m in run.GATED)


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_traced_and_untraced_outputs_are_byte_identical(workload, tmp_path):
    env = run.child_env()
    written = {}
    for trace in (0, 1):
        # same directory for both, so paths recorded in outputs agree
        workdir = tmp_path / "work"
        cmds, _ = wl.build(workload, wl.DEFAULT_SEED, "tiny", workdir)
        for cmd in cmds:
            res = run.run_child([str(trace), "--", *cmd.argv], env, tmp_path / "r.json")
            assert res.get("rc") == 0, res
            assert ("trace" in res) == bool(trace)
        written[trace] = {p.relative_to(workdir): p.read_bytes()
                          for p in sorted(workdir.rglob("*")) if p.is_file()}
        shutil.rmtree(workdir)
    names = {p.name for p in written[0]}
    assert names & {"u.csv", "solve_summary.json", "probe_report.json", "verify_report.json"}
    assert written[0] == written[1]


def test_gate_rejects_bad_outputs(tmp_path):
    out = tmp_path / "sol"
    out.mkdir()
    cmd = wl.Command("x:solve", "solve", [], out, tolerance=1e-9)
    summary = {"converged": True, "final_residual": 1e-12, "gamma_margin": 0.5, "b": -0.01}
    (out / "u.csv").write_text("")
    (out / "solve_summary.json").write_text(json.dumps(summary))
    ref = {"x:solve": {"b": -0.01}}
    assert wl.check(cmd, 0, ref, wl.DEFAULT_SEED)[0]
    assert not wl.check(cmd, 1, ref, wl.DEFAULT_SEED)[0]
    assert not wl.check(cmd, 0, {"x:solve": {"b": -0.02}}, wl.DEFAULT_SEED)[0]
    assert wl.check(cmd, 0, {"x:solve": {"b": -0.02}}, wl.DEFAULT_SEED + 1)[0]
    (out / "solve_summary.json").write_text(json.dumps(dict(summary, final_residual=1e-6)))
    assert not wl.check(cmd, 0, ref, wl.DEFAULT_SEED)[0]
    (out / "solve_summary.json").write_text(json.dumps(dict(summary, gamma_margin=-1.0)))
    assert not wl.check(cmd, 0, ref, wl.DEFAULT_SEED)[0]
    (out / "solve_summary.json").unlink()
    assert not wl.check(cmd, 0, ref, wl.DEFAULT_SEED)[0]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run("solve-4axis", 0, cwd=tmp_path, script=Path("perfbench/run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
