import json
import re
import warnings
from pathlib import Path

import pytest

from hquot import cli, config, fields, oracle, solver
from hquot.cli import main
from hquot.errors import StructureError
from hquot.grid import load_scalar_field
from hquot.probe import run_probe
from hquot.solver import SolverConfig, build_problem


def _write(path, obj):
    Path(path).write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def solve_cfg(tmp_path):
    return _write(tmp_path / "solve.json", {
        "n": 1, "k": 1, "l": 0,
        "points_per_axis": 16, "active_axes": [0],
        "F": "0.3*sin(2*pi*x0)",
    })


def test_verify_roundtrip(tmp_path):
    cfg = _write(tmp_path / "v.json", {
        "count": 150, "seed": 9, "n_values": [2],
        "algebra_count": 20,
    })
    rc = main(["verify", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 0
    report = (tmp_path / "out" / "verify_report.json").read_bytes()
    payload = json.loads(report)
    assert payload["failures"] == 0
    assert all(r["failures"] == 0 for r in payload["reports"])
    # the config echo is complete: it reruns to the same report
    assert payload["config"] == {"count": 150, "seed": 9, "n_values": [2], "scale": 1.0,
                                 "propositions": None, "algebra_count": 20}
    echo = _write(tmp_path / "echo.json", payload["config"])
    assert main(["verify", "--config", echo, "--out", str(tmp_path / "rerun"), "--quiet"]) == 0
    assert (tmp_path / "rerun" / "verify_report.json").read_bytes() == report


@pytest.mark.parametrize("scale", [1e308, 1e200])
def test_verify_overflowing_scale_is_a_usage_error(tmp_path, capsys, scale):
    # the samples leave the float range, so no inequality is tested: exit 2
    # naming scale, without numpy's overflow warnings
    cfg = _write(tmp_path / "v.json", {"count": 10, "n_values": [2], "scale": scale,
                                       "propositions": ["newton-maclaurin"]})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["verify", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
    assert rc == 2 and "error: scale" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_verify_rejects_zero_count(tmp_path):
    cfg = _write(tmp_path / "v.json", {"count": 0})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2


def test_verify_rejects_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", "--config", str(bad), "--out", str(tmp_path / "o"), "--quiet"]) == 2


def test_verify_seed_override(tmp_path):
    cfg = _write(tmp_path / "v.json", {"count": 100, "seed": 4, "n_values": [2],
                                       "algebra_count": 10})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "a"),
                 "--seed", "99", "--quiet"]) == 0
    payload = json.loads((tmp_path / "a" / "verify_report.json").read_text())
    assert payload["config"]["seed"] == 99
    assert all(r["seed"] == 99 for r in payload["reports"])


def test_verify_seed_reruns_byte_identical(tmp_path):
    cfg = _write(tmp_path / "v.json", {"count": 120, "seed": 4, "n_values": [2],
                                       "algebra_count": 15})
    for d in ("a", "b"):
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / d), "--quiet"]) == 0
    ra = (tmp_path / "a" / "verify_report.json").read_bytes()
    rb = (tmp_path / "b" / "verify_report.json").read_bytes()
    assert ra == rb


@pytest.mark.parametrize("scale", ["nan", "inf"])
def test_verify_rejects_non_finite_scale(tmp_path, capsys, scale):
    cfg = _write(tmp_path / "v.json", {"count": 50, "n_values": [2], "scale": scale})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "scale" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("bad,named", [
    pytest.param({"count": 2.5}, "count must be", id="fractional-count"),
    pytest.param({"algebra_count": "abc"}, "algebra_count must be", id="string-algebra-count"),
    pytest.param({"algebra_count": 2.5}, "algebra_count must be", id="fractional-algebra-count"),
    pytest.param({"algebra_count": 0}, "algebra_count must be", id="zero-algebra-count"),
    pytest.param({"n_values": "23"}, "n_values must be", id="string-n-values"),
    pytest.param({"n_values": [2, 2.5]}, "n_values must be", id="fractional-n"),
    pytest.param({"propositions": "newton-maclaurin"}, "propositions must be",
                 id="string-propositions"),
    pytest.param({"seed": 2.5}, "seed must be", id="fractional-seed"),
    pytest.param({"seed": True}, "seed must be", id="bool-seed"),
    pytest.param({"scale": None}, "scale must be", id="null-scale"),
    pytest.param({"scale": [2.0]}, "scale must be", id="list-scale"),
    pytest.param({"scale": {"value": 2.0}}, "scale must be", id="object-scale"),
    pytest.param({"scale": True}, "scale must be", id="bool-scale"),
    pytest.param({"scale": "2"}, "scale must be", id="string-scale"),
    pytest.param({"scale": 0}, "scale must be", id="zero-scale"),
    pytest.param({"scale": -1.5}, "scale must be", id="negative-scale"),
    pytest.param({"scale": 10**400}, "scale must be", id="huge-integer-scale"),
    pytest.param({"propositions": []}, "propositions must be", id="no-propositions"),
    pytest.param({"seed": -1}, "seed must be", id="negative-seed"),
    pytest.param({"--seed": -1}, "seed must be", id="negative-seed-option"),
    pytest.param({"n_value": [2]}, "unknown config keys: ['n_value']", id="typo-key"),
])
def test_verify_rejects_bad_config(tmp_path, capsys, bad, named):
    # "--seed" in ``bad`` is the command-line override, not a config key
    option = ["--seed", str(bad["--seed"])] if "--seed" in bad else []
    cfg = _write(tmp_path / "v.json", {"count": 10, "n_values": [2], "algebra_count": 3,
                                       "propositions": ["newton-maclaurin"],
                                       **{key: v for key, v in bad.items() if key != "--seed"}})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet",
                 *option]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["verify", "solve", "cone-check", "probe"])
@pytest.mark.parametrize("value", [[1], "x", 3, None], ids=["list", "string", "number", "null"])
def test_config_that_is_not_an_object_is_a_usage_error(tmp_path, capsys, command, value):
    path = tmp_path / "solve_summary.json"
    _write(path, value)
    args = ["--result", str(tmp_path)] if command == "probe" else ["--config", str(path)]
    assert main([command, *args, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{path} does not hold a JSON object" in err
    assert not (tmp_path / "o").exists()


def _raise_structure_error(*args, **kwargs):
    raise StructureError("eigenvalue multiplicity 2 violated")


@pytest.mark.parametrize("command", ["verify", "solve", "cone-check", "probe"])
def test_structure_error_is_a_mathematical_failure(tmp_path, capsys, monkeypatch,
                                                    solve_cfg, command):
    if command == "probe":
        assert main(["solve", "--config", solve_cfg, "--out", str(tmp_path / "sol"),
                     "--quiet"]) == 0
        args = ["--result", str(tmp_path / "sol")]
    elif command == "verify":
        args = ["--config", _write(tmp_path / "v.json", {"count": 10, "n_values": [2]})]
    else:
        args = ["--config", solve_cfg]
    monkeypatch.setattr(oracle, "run_standard_suite", _raise_structure_error)
    monkeypatch.setattr(cli, "solve", _raise_structure_error)
    monkeypatch.setattr(fields, "check_cone_condition", _raise_structure_error)
    monkeypatch.setattr(cli, "run_probe", _raise_structure_error)
    capsys.readouterr()
    assert main([command, *args, "--out", str(tmp_path / "o"), "--quiet"]) == 1
    assert capsys.readouterr().err == "error: eigenvalue multiplicity 2 violated\n"


def test_solve_constant_forcing(tmp_path):
    cfg = _write(tmp_path / "s.json", {
        "n": 2, "k": 2, "l": 0, "points_per_axis": 16, "active_axes": [0],
        "F": "0.25",
    })
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "solve_summary.json").read_text())
    assert summary["converged"]
    assert summary["iterations"] <= 2
    assert abs(summary["b"] + 0.25) < 1e-12
    assert (tmp_path / "out" / "u.csv").exists()


def test_solve_sine_forcing(tmp_path, solve_cfg):
    rc = main(["solve", "--config", solve_cfg, "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "solve_summary.json").read_text())
    assert summary["final_residual"] < 1e-9
    assert summary["sup_u"] == 0.0


def test_solve_bad_config(tmp_path):
    cfg = _write(tmp_path / "s.json", {"n": 2, "k": 1, "l": 1,
                                       "points_per_axis": 8, "active_axes": [0]})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2


@pytest.mark.parametrize("command", ["solve", "cone-check"])
@pytest.mark.parametrize("bad,named", [
    pytest.param({"F": "0.1*sinn(2*pi*x0)"}, "sinn", id="undefined-name"),
    pytest.param({"omega0_diag": ["1.0"]}, "omega0_diag", id="short-omega0"),
    pytest.param({"F": "log(x0)"}, "log(x0)", id="non-finite"),
    pytest.param({"F": "().__class__.__bases__[0].__subclasses__().__len__() * 0 + x0"},
                 "__class__", id="attribute-chain"),
    pytest.param({"F": "9**9**9**9 + x0"}, "9**9**9**9", id="huge-power"),
    pytest.param({"active_axes": [0, 5.7]}, "active_axes must be", id="fractional-axis"),
    pytest.param({"active_axes": [0, True]}, "active_axes must be", id="bool-axis"),
    pytest.param({"n": 2.0}, "n must be", id="fractional-n"),
    pytest.param({"k": True}, "k must be", id="bool-k"),
    pytest.param({"points_per_axis": 8.0}, "points_per_axis must be", id="fractional-points"),
    pytest.param({"seed": 2.5}, "seed must be", id="fractional-seed"),
    pytest.param({"omega0_diag": "12"}, "omega0_diag must be", id="string-omega0"),
    pytest.param({"omega0_diag": {"1": 0, "2": 0}}, "omega0_diag must be", id="object-omega0"),
    pytest.param({"omega0_diag": []}, "omega0_diag must be", id="empty-omega0"),
    pytest.param({"F": 0.25}, "F must be", id="number-F"),
])
def test_bad_problem_is_a_usage_error(tmp_path, capsys, command, bad, named):
    cfg = _write(tmp_path / "s.json", {"n": 2, "k": 2, "l": 1, "points_per_axis": 8,
                                       "active_axes": [0], **bad})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["solve", "cone-check"])
@pytest.mark.parametrize("bad,named", [
    pytest.param({"tolerance": float("inf")}, "tolerance", id="infinite-tolerance"),
    pytest.param({"tolerance": float("nan")}, "tolerance", id="nan-tolerance"),
    pytest.param({"tolerance": 10**401}, "tolerance", id="huge-integer-tolerance"),
    pytest.param({"tolerance": True}, "tolerance", id="bool-tolerance"),
    pytest.param({"tolerance": "1e-9"}, "tolerance", id="string-tolerance"),
    pytest.param({"max_iterations": 2.5}, "max_iterations", id="fractional-iterations"),
    pytest.param({"max_iterations": 0}, "max_iterations", id="zero-iterations"),
    # iteration constants are not config keys
    pytest.param({"initial_step": 0}, "initial_step", id="initial-step"),
    pytest.param({"backtrack_factor": 0.5}, "backtrack_factor", id="backtrack-factor"),
    pytest.param({"cone_margin": float("nan")}, "cone_margin", id="cone-margin"),
    pytest.param({"linear_rtol": 1e-12}, "linear_rtol", id="linear-rtol"),
    pytest.param({"linear_maxiter": 0}, "linear_maxiter", id="linear-maxiter"),
    # nor is a nested grid, which once overrode points_per_axis
    pytest.param({"grid": {"N": 16, "active_axes": [0]}}, "unknown config keys: ['grid']",
                 id="nested-grid"),
])
def test_bad_iteration_config_is_a_usage_error(tmp_path, capsys, command, bad, named):
    cfg = _write(tmp_path / "s.json", {"n": 2, "k": 2, "l": 1, "points_per_axis": 8,
                                       "active_axes": [0, 5], "F": "0.1*sin(2*pi*x0)", **bad})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("b_offset", [
    "-inf",
    "abc",
    pytest.param("1e3", id="numeric-string"),
    pytest.param(True, id="bool"),
    pytest.param(None, id="null"),
    pytest.param([1.0], id="list"),
    pytest.param(float("inf"), id="infinite"),
    pytest.param(float("nan"), id="nan"),
    pytest.param(10**401, id="huge-integer"),
    pytest.param(-10**401, id="huge-negative-integer"),
])
def test_cone_check_rejects_bad_b_offset(tmp_path, capsys, b_offset):
    cfg = _write(tmp_path / "s.json", {"n": 2, "k": 2, "l": 1, "points_per_axis": 8,
                                       "active_axes": [0], "b_offset": b_offset})
    assert main(["cone-check", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "b_offset must be" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,cfg", [
    pytest.param("solve", {"l": 0, "F": "800*sin(2*pi*x0)"}, id="solve"),
    pytest.param("cone-check", {"l": 1, "F": "0.0", "b_offset": 800}, id="cone-check"),
])
def test_overflowing_forcing_factor_is_a_usage_error(tmp_path, capsys, command, cfg):
    path = _write(tmp_path / "s.json", {"n": 2, "k": 2, "points_per_axis": 8,
                                        "active_axes": [0], **cfg})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main([command, "--config", path, "--out", str(tmp_path / "o"), "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "forcing factor" in err
    assert "largest F + b is 800" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["solve", "cone-check"])
def test_overflowing_mean_forcing_is_a_usage_error(tmp_path, capsys, command):
    # the mean of F overflows, so the starting b = -mean F is -inf
    path = _write(tmp_path / "s.json", {"n": 2, "k": 2, "l": 1, "points_per_axis": 8,
                                        "active_axes": [0], "F": "1.7e308"})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main([command, "--config", path, "--out", str(tmp_path / "o"), "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "b = -mean F is not finite" in err
    assert not (tmp_path / "o").exists()


def test_cone_check_at_l0_does_not_read_the_forcing_factor(tmp_path):
    # the l = 0 margin is sigma_{k-1}(lam|j) alone, so a huge b_offset changes nothing
    path = _write(tmp_path / "s.json", {"n": 2, "k": 2, "l": 0, "points_per_axis": 8,
                                        "active_axes": [0], "F": "0.0", "b_offset": 800})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["cone-check", "--config", path, "--out", str(tmp_path / "o"), "--quiet"])
    assert rc == 0
    payload = json.loads((tmp_path / "o" / "cone_report.json").read_text())
    assert payload["satisfied"] and payload["worst_margin"] == payload["delta"] == 1.0


def test_solve_cone_warning_in_summary(tmp_path):
    # the cone condition fails at b = -mean F, so the first Newton step loses
    # ellipticity and the failed summary's error names the cause
    cfg = _write(tmp_path / "s.json", {
        "n": 2, "k": 2, "l": 1, "points_per_axis": 8, "active_axes": [0],
        "F": "0.8*sin(2*pi*x0)",
    })
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 1
    summary = json.loads((tmp_path / "out" / "solve_summary.json").read_text())
    assert not summary["converged"] and "cone condition violated" in summary["error"]


def test_solve_failed_linear_solve_names_its_iteration(tmp_path, monkeypatch):
    # a stagnating GMRES is a mathematical failure: exit 1, and the failed
    # summary's error names the Newton iteration
    real = solver.gmres
    monkeypatch.setattr(solver, "gmres",
                        lambda *args, **kw: real(*args, **{**kw, "rtol": 1e-20, "atol": 0.0}))
    cfg = _write(tmp_path / "s.json", {
        "n": 2, "k": 2, "l": 1, "points_per_axis": 8, "active_axes": [0, 5],
        "F": "0.1*sin(2*pi*(x0 + x5))",
    })
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 1
    summary = json.loads((tmp_path / "out" / "solve_summary.json").read_text())
    assert not summary["converged"]
    assert re.match(r"aborted at iteration 1: inner linear solve stagnated after \d+ "
                    r"restart cycles: ", summary["error"])


@pytest.mark.parametrize("command", ["solve", "cone-check"])
def test_background_outside_cone_is_a_mathematical_failure(tmp_path, capsys, command):
    cfg = _write(tmp_path / "s.json", {
        "n": 2, "k": 2, "l": 0, "points_per_axis": 8, "active_axes": [0],
        "F": "0.0", "omega0_diag": ["1.0", "-0.5"],
    })
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 1
    message = "background field not in Gamma_2 (margin -5.000e-01)"
    if command == "solve":
        summary = json.loads((out / "solve_summary.json").read_text())
        assert not summary["converged"] and summary["error"] == message
    else:
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_background_spectrum_is_never_diagonalized(tmp_path, monkeypatch):
    # the background's spectrum is its sorted diagonal entries: solve and
    # cone-check diagonalize no eigenvalue field, and probe only the sweep's
    # W_1 and its nine inner nodes (at k >= 2 the homotopy nodes use chi_eigh)
    cfg = _write(tmp_path / "s.json", {
        "n": 2, "k": 2, "l": 1, "points_per_axis": 8, "active_axes": [0, 5],
        "F": "0.1*sin(2*pi*(x0 + x5))", "omega0_diag": ["1 + 0.2*cos(2*pi*x0)", "1.0"],
    })
    calls = {"eig_field": 0, "chi_eigvals": 0}

    def counted(name):
        real = getattr(fields, name)

        def wrapper(W):
            calls[name] += 1
            return real(W)
        return wrapper

    for name in calls:
        monkeypatch.setattr(fields, name, counted(name))
    sol = str(tmp_path / "sol")
    for argv, expected in ((["solve", "--config", cfg, "--out", sol], 0),
                           (["cone-check", "--config", cfg, "--out", str(tmp_path / "c")], 0),
                           (["probe", "--result", sol, "--out", str(tmp_path / "p")], 10)):
        assert main([*argv, "--quiet"]) == 0
        assert calls == {"eig_field": expected, "chi_eigvals": expected}, argv[0]
        calls.update(eig_field=0, chi_eigvals=0)


def test_shipped_configs_run(tmp_path):
    # README's solve config and both configs/solve_*.json go through solve,
    # probe and cone-check; README's verify config is the shipped default
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()

    def block(heading):
        return json.loads(readme.split(heading, 1)[1].split("```json", 1)[1].split("```", 1)[0])

    assert block("### Verify config") == json.loads(
        (root / "configs" / "verify_default.json").read_text())
    configs = {"readme": _write(tmp_path / "readme.json", block("### Solve / cone-check config"))}
    configs.update((p.stem, str(p)) for p in sorted((root / "configs").glob("solve_*.json")))
    assert len(configs) == 3
    for name, cfg in configs.items():
        out = tmp_path / name
        assert main(["solve", "--config", cfg, "--out", str(out / "sol"), "--quiet"]) == 0, name
        assert main(["probe", "--result", str(out / "sol"), "--out", str(out / "probe"),
                     "--quiet"]) == 0, name
        assert main(["cone-check", "--config", cfg, "--out", str(out / "cone"),
                     "--quiet"]) == 0, name


def test_cone_check_pass_and_fail(tmp_path):
    good = _write(tmp_path / "good.json", {
        "n": 2, "k": 2, "l": 1, "points_per_axis": 8, "active_axes": [0],
        "F": "0.1*sin(2*pi*x0)",
    })
    assert main(["cone-check", "--config", good, "--out", str(tmp_path / "g"), "--quiet"]) == 0
    bad = _write(tmp_path / "bad.json", {
        "n": 2, "k": 2, "l": 1, "points_per_axis": 8, "active_axes": [0],
        "F": "2.0", "b_offset": 0.0,
    })
    assert main(["cone-check", "--config", bad, "--out", str(tmp_path / "b"), "--quiet"]) == 1
    payload = json.loads((tmp_path / "b" / "cone_report.json").read_text())
    assert not payload["satisfied"]


def test_probe_zero_state(tmp_path):
    cfg = _write(tmp_path / "s.json", {
        "n": 2, "k": 2, "l": 0, "points_per_axis": 8, "active_axes": [0],
        "F": "0.4",
    })
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "sol"), "--quiet"]) == 0
    rc = main(["probe", "--result", str(tmp_path / "sol"), "--out", str(tmp_path / "pr"),
               "--p", "4,8", "--quiet"])
    assert rc == 0
    payload = json.loads((tmp_path / "pr" / "probe_report.json").read_text())
    assert payload["pointwise"]["all_strict_positive"]
    assert all(abs(row["ratio"]) < 1e-20 for row in payload["cherrier"])
    assert (tmp_path / "pr" / "cherrier.csv").exists()


def test_probe_solved_state(tmp_path, solve_cfg):
    assert main(["solve", "--config", solve_cfg, "--out", str(tmp_path / "sol"), "--quiet"]) == 0
    rc = main(["probe", "--result", str(tmp_path / "sol"), "--out", str(tmp_path / "pr"),
               "--p", "4,8,16", "--quiet"])
    assert rc == 0
    payload = json.loads((tmp_path / "pr" / "probe_report.json").read_text())
    assert payload["pointwise"]["all_strict_positive"]
    for rec in payload["homotopy"]:
        assert rec["slack"] >= -1e-6 and rec["weighted_slack"] >= -1e-6


def test_fd_solve_probes_and_cone_checks(tmp_path):
    # the snapshot header names no scheme: the probe reads the field against
    # the config's fd grid, and its report is the library's on that grid
    cfg = _write(tmp_path / "fd.json", {
        "n": 2, "k": 2, "l": 1, "points_per_axis": 8, "active_axes": [0, 5],
        "F": "0.2*sin(2*pi*(x0 + x5))", "backend": "fd",
    })
    sol, pr = tmp_path / "sol", tmp_path / "pr"
    assert main(["solve", "--config", cfg, "--out", str(sol), "--quiet"]) == 0
    assert main(["probe", "--result", str(sol), "--out", str(pr), "--p", "4,8", "--quiet"]) == 0
    assert main(["cone-check", "--config", cfg, "--out", str(tmp_path / "cc"), "--quiet"]) == 0
    summary = json.loads((sol / "solve_summary.json").read_text())
    grid, omega0, F = build_problem(SolverConfig.from_dict(summary["config"]))
    assert grid.backend == "fd"
    report = run_probe(load_scalar_field(sol / "u.csv", grid), omega0, F + summary["b"], grid,
                       2, 1, p_values=(4.0, 8.0), problem_id="n2-k2-l1-N8-ax0-5")
    assert (pr / "probe_report.json").read_text() == json.dumps(report, sort_keys=True,
                                                                indent=2) + "\n"
    assert (pr / "cherrier.csv").read_text() == "p,energy,mass,ratio\n" + "".join(
        f"{r['p']!r},{r['energy']!r},{r['mass']!r},{r['ratio']!r}\n" for r in report["cherrier"])


def test_written_report_key_sets(tmp_path):
    # every command writes the dict its library call returns, so the key
    # sets of the written files are pinned here
    cfg = _write(tmp_path / "s.json", {
        "n": 2, "k": 2, "l": 1, "points_per_axis": 8, "active_axes": [0],
        "F": "0.1*sin(2*pi*x0)",
    })
    vcfg = _write(tmp_path / "v.json", {"count": 20, "seed": 3, "n_values": [2],
                                        "algebra_count": 5})
    sol, pr, cc, ver = tmp_path / "sol", tmp_path / "pr", tmp_path / "cc", tmp_path / "ver"
    assert main(["solve", "--config", cfg, "--out", str(sol), "--quiet"]) == 0
    assert main(["probe", "--result", str(sol), "--out", str(pr), "--p", "4,8", "--quiet"]) == 0
    assert main(["cone-check", "--config", cfg, "--out", str(cc), "--quiet"]) == 0
    assert main(["verify", "--config", vcfg, "--out", str(ver), "--quiet"]) == 0
    cone = json.loads((cc / "cone_report.json").read_text())
    assert set(cone) == {"config", "b_offset", "satisfied", "worst_margin", "where", "slot",
                         "delta"}
    summary = json.loads((sol / "solve_summary.json").read_text())
    assert set(summary) == {"config", "b", "iterations", "residual_history", "final_residual",
                            "linear_solves", "converged", "gamma_margin", "sup_u", "osc_u",
                            "cone_condition", "warnings"}
    assert set(summary["cone_condition"]) == {"satisfied", "worst_margin", "delta"}
    assert len(summary["linear_solves"]) == summary["iterations"] > 0
    for record in summary["linear_solves"]:
        assert set(record) == {"rtol", "arnoldi_steps", "relative_residual"}
    probe = json.loads((pr / "probe_report.json").read_text())
    assert set(probe) == {"problem_id", "k", "l", "p_values", "eps", "delta", "cherrier",
                          "pointwise", "homotopy", "weighted_energy", "mandatory_ok", "notes"}
    assert probe["mandatory_ok"] is True
    assert set(probe["pointwise"]) == {"k", "l", "eps", "delta", "t_grid", "margins",
                                       "margins_by_t", "equality_residuals",
                                       "all_strict_positive"}
    csv = (pr / "cherrier.csv").read_text().splitlines()
    assert csv[0] == "p,energy,mass,ratio" and len(csv) == 3
    verify = json.loads((ver / "verify_report.json").read_text())
    assert set(verify) == {"config", "reports", "failures"}
    assert verify["reports"] and all(
        set(r) == {"proposition", "n", "k", "l", "samples", "checks", "failures",
                   "worst_violation", "min_slack", "seed", "notes"} for r in verify["reports"])


def test_probe_malformed_field(tmp_path, solve_cfg):
    assert main(["solve", "--config", solve_cfg, "--out", str(tmp_path / "sol"), "--quiet"]) == 0
    (tmp_path / "sol" / "u.csv").write_text("# hquot scalar field v1\n# n=1 N=16 axes=0\n1.0\n")
    rc = main(["probe", "--result", str(tmp_path / "sol"), "--out", str(tmp_path / "pr"),
               "--p", "4", "--quiet"])
    assert rc == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_probe_rejects_non_finite_field(tmp_path, capsys, solve_cfg, value):
    assert main(["solve", "--config", solve_cfg, "--out", str(tmp_path / "sol"), "--quiet"]) == 0
    path = tmp_path / "sol" / "u.csv"
    lines = path.read_text().splitlines()
    lines[7] = value
    path.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["probe", "--result", str(tmp_path / "sol"), "--out", str(tmp_path / "pr"),
                   "--p", "4", "--quiet"])
    assert rc == 2 and "line 8: non-finite value" in capsys.readouterr().err
    assert not (tmp_path / "pr").exists()


def test_probe_rejects_bad_problem_in_summary(tmp_path, capsys, solve_cfg):
    assert main(["solve", "--config", solve_cfg, "--out", str(tmp_path / "sol"), "--quiet"]) == 0
    path = tmp_path / "sol" / "solve_summary.json"
    summary = json.loads(path.read_text())
    summary["config"]["F"] = "log(x0)"
    path.write_text(json.dumps(summary))
    rc = main(["probe", "--result", str(tmp_path / "sol"), "--out", str(tmp_path / "pr"),
               "--p", "4", "--quiet"])
    assert rc == 2 and "log(x0)" in capsys.readouterr().err
    assert not (tmp_path / "pr").exists()


@pytest.mark.parametrize("b", ["1e-3", True, "inf", None])
def test_probe_rejects_bad_b_in_summary(tmp_path, capsys, solve_cfg, b):
    assert main(["solve", "--config", solve_cfg, "--out", str(tmp_path / "sol"), "--quiet"]) == 0
    path = tmp_path / "sol" / "solve_summary.json"
    summary = json.loads(path.read_text())
    summary["b"] = b
    path.write_text(json.dumps(summary))
    rc = main(["probe", "--result", str(tmp_path / "sol"), "--out", str(tmp_path / "pr"),
               "--p", "4", "--quiet"])
    assert rc == 2 and "b must be a finite number" in capsys.readouterr().err
    assert not (tmp_path / "pr").exists()


def test_probe_bad_p_list(tmp_path, solve_cfg):
    assert main(["solve", "--config", solve_cfg, "--out", str(tmp_path / "sol"), "--quiet"]) == 0
    rc = main(["probe", "--result", str(tmp_path / "sol"), "--out", str(tmp_path / "pr"),
               "--p", "4,-2", "--quiet"])
    assert rc == 2


@pytest.mark.parametrize("p_list", ["4,nan", "inf"])
def test_probe_rejects_non_finite_p(tmp_path, solve_cfg, p_list):
    assert main(["solve", "--config", solve_cfg, "--out", str(tmp_path / "sol"), "--quiet"]) == 0
    rc = main(["probe", "--result", str(tmp_path / "sol"), "--out", str(tmp_path / "pr"),
               "--p", p_list, "--quiet"])
    assert rc == 2
    assert not (tmp_path / "pr").exists()


def test_full_pipeline_byte_identical(tmp_path, solve_cfg):
    payloads = []
    for d in ("r1", "r2"):
        sol = tmp_path / d / "sol"
        pr = tmp_path / d / "pr"
        assert main(["solve", "--config", solve_cfg, "--out", str(sol), "--quiet"]) == 0
        assert main(["probe", "--result", str(sol), "--out", str(pr), "--p", "4,8", "--quiet"]) == 0
        payloads.append((
            (sol / "u.csv").read_bytes(),
            (sol / "solve_summary.json").read_bytes(),
            (pr / "probe_report.json").read_bytes(),
            (pr / "cherrier.csv").read_bytes(),
        ))
    assert payloads[0] == payloads[1]


def _options(text):
    return set(re.findall(r"(?<![\w-])--[a-z][\w-]*", text))


def test_readme_usage_matches_parser(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    usage = {line.split()[1]: _options(line) for line in block.splitlines()
             if line.startswith("hquot ")}
    assert set(usage) == {"verify", "solve", "cone-check", "probe"}
    for command, documented in usage.items():
        with pytest.raises(SystemExit):
            main([command, "--help"])
        parsed = _options(capsys.readouterr().out) - {"--help"}
        assert documented == parsed, f"hquot {command}: README {sorted(documented)}"


def test_readme_key_table_matches_code():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config keys", 1)[1].split("\n#", 1)[0]
    documented = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            key, commands, what, _default = (cell.strip() for cell in line.split("|")[1:-1])
            for command in commands.split(", "):
                documented[key.strip("`"), command] = what
    tables = {"solve": config.SOLVE, "cone-check": config.CONE_CHECK,
              "verify": config.VERIFY, "probe": config.PROBE}
    code = {(key, command): what for command, keys in tables.items()
            for key, (_test, what) in keys.items()}
    assert documented == code
