import argparse
import dataclasses
import json
import math
import os
import re
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

import grapde
from grapde import load_schema
from grapde.cli import load_problem, main, to_json
from grapde.graph import graph_from_dict, graph_to_dict, path_graph, total_measure
from grapde.nonlinearity import builtin
from grapde.solvers import SolverError

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))
import golden  # noqa: E402  holds the malformed-input probes

REPORT_SCHEMA = load_schema("report")
GRAPH_SCHEMA = load_schema("graph")
PROBLEM_SCHEMA = load_schema("problem")


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run(tmp_path, argv):
    out = tmp_path / "report.json"
    code = main(argv + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    if report is not None:
        jsonschema.validate(report, REPORT_SCHEMA)
    return code, report


def test_version_flag():
    assert main(["--version"]) == 0


def test_malformed_graph_file(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text("{not json")
    problem = _write(tmp_path, "p.json", {"builtin": "mp-example"})
    code = main(["check", "--graph", str(path), "--problem", problem])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_graph_field_rejected(tmp_path, capsys):
    data = graph_to_dict(path_graph(2))
    data["color"] = "blue"
    graph = _write(tmp_path, "graph.json", data)
    problem = _write(tmp_path, "p.json", {"builtin": "mp-example"})
    assert main(["check", "--graph", graph, "--problem", problem]) == 1


def test_unknown_problem_field_rejected(tmp_path, capsys):
    problem = _write(tmp_path, "p.json", {"builtin": "mp-example", "mystery": 1})
    assert main(["check", "--problem", problem]) == 1


def test_graph_and_problem_files_validate_against_schemas(tmp_path):
    data = graph_to_dict(path_graph(3))
    jsonschema.validate(data, GRAPH_SCHEMA)
    problem = {"builtin": "mp-example", "objective": "control-objective"}
    jsonschema.validate(problem, PROBLEM_SCHEMA)
    problem = {
        "F": "u^4*(1+w^2)", "p": 2.0, "scalar": True,
        "hypotheses": {"theta": 4.0, "c1": 8.0, "r1": 4.0},
        "objective": {"F": "w^2"},
    }
    jsonschema.validate(problem, PROBLEM_SCHEMA)


def test_check_passes_for_saddle_example(tmp_path):
    problem = _write(tmp_path, "p.json", {"builtin": "mp-example"})
    code, report = _run(tmp_path, ["check", "--problem", problem])
    assert code == 2  # NONEXIST fails for this coupling, as it should
    verdicts = report["result"]["conditions"]
    assert verdicts["F1"]["verdict"] == "pass"
    assert verdicts["NONEXIST"]["verdict"] == "fail"


def test_check_flags_nonvanishing_origin(tmp_path):
    problem = _write(tmp_path, "p.json", {"F": "1+u^2"})
    code, report = _run(tmp_path, ["check", "--problem", problem])
    assert code == 2
    assert report["result"]["conditions"]["F1"]["verdict"] == "fail"


def test_constants_report(tmp_path):
    problem = _write(tmp_path, "p.json", {"builtin": "mp-example"})
    code, report = _run(tmp_path, ["constants", "--problem", problem])
    assert code == 0
    result = report["result"]
    assert result["n"] == 2 and result["volume"] == 2.0
    assert result["bounds"] is not None
    assert result["bounds"]["lower"] > 0


def test_constants_volume_is_the_certificates_total_measure(tmp_path):
    # the certificates are built from the fsum total measure; on the golden
    # random-12 graph numpy's pairwise sum of mu differs from it in the last bit
    data = golden.GRAPHS["random-12"]()
    g = graph_from_dict(data)
    assert float(np.sum(g.mu)) != total_measure(g)
    graph = _write(tmp_path, "g.json", data)
    problem = _write(tmp_path, "p.json", {"builtin": "mp-example"})
    code, report = _run(tmp_path, ["constants", "--graph", graph, "--problem", problem])
    assert code == 0
    assert report["result"]["volume"] == total_measure(g)


def test_solve_saddle_certified(tmp_path):
    problem = _write(tmp_path, "p.json", {"builtin": "mp-example"})
    code, report = _run(tmp_path, ["solve", "--problem", problem, "--kind", "mp"])
    assert code == 0
    result = report["result"]
    assert result["converged"] and result["certificate"]["satisfied"]


def test_solve_min_not_certifiable(tmp_path):
    problem = _write(tmp_path, "p.json", {"builtin": "unique-example"})
    code, report = _run(tmp_path, ["solve", "--problem", problem, "--kind", "min"])
    assert code == 2
    assert "not certifiable" in report["result"]["error"]


def test_solve_min_names_a_nan_sample_of_the_ball_radius_scan(tmp_path):
    # exp(1000 w) overflows for w > 0.71, so F is inf - inf = NaN at the top
    # ws of every box; without that term the ball radius is 1
    problem = _write(tmp_path, "p.json", {
        "F": "0.05*(u+v) + (exp(1000*w) - exp(1000*w))",
        "hypotheses": {"delta": 0.04, "x0": "v0"},
    })
    code, report = _run(tmp_path, ["solve", "--problem", problem, "--kind", "min"])
    assert code == 2
    assert report["result"]["error"] == (
        "(F2) margin not certifiable: F is NaN at a sample of the box of radius 1 at w = 0.8"
    )


def test_nonexist_certified(tmp_path):
    problem = _write(tmp_path, "p.json", {"builtin": "nonexist-example"})
    code, report = _run(
        tmp_path, ["nonexist", "--problem", problem, "--multistart", "2"]
    )
    assert code == 0
    assert report["result"]["summary"] == "nonexistence certified (sampled)"


def test_scalar_sweep_with_csv(tmp_path):
    problem = _write(
        tmp_path,
        "p.json",
        {
            "F": "u^4*(1+w^2)", "p": 2.0, "scalar": True,
            "hypotheses": {"theta": 4.0, "c1": 8.0, "r1": 4.0},
        },
    )
    graph = _write(tmp_path, "g.json", graph_to_dict(path_graph(2, h1=2.0)))
    csv_path = tmp_path / "branch.csv"
    code, report = _run(
        tmp_path,
        ["sweep", "--graph", graph, "--problem", problem, "--grid", "3", "--csv", str(csv_path)],
    )
    assert code == 0
    assert len(report["result"]["reports"]) == 3
    assert "v" not in report["result"]["reports"][0]
    assert report["result"]["continuity"]["coverage"] == 1.0
    assert csv_path.exists()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "w,norm_u,norm_v,energy,residual,C1,C2,psi"
    assert len(lines) == 4


def test_sweep_without_certificate_constants_flags_every_point(tmp_path):
    problem = _write(tmp_path, "p.json", {"F": "(u^2+v^2)^2*(1+w^2)", "p": 2})
    code, report = _run(tmp_path, ["sweep", "--problem", problem, "--grid", "3"])
    assert code == 2
    reports = report["result"]["reports"]
    assert len(reports) == 3 and all(r["converged"] for r in reports)
    for r in reports:
        assert r["certificate"] is None
        assert r["flags"][0].startswith("certificate unavailable: mountain-pass certificate")


def test_control_needs_objective(tmp_path, capsys):
    problem = _write(tmp_path, "p.json", {"builtin": "mp-example"})
    assert main(["control", "--problem", problem, "--grid", "3"]) == 1


def test_control_with_objective(tmp_path):
    problem = _write(
        tmp_path, "p.json", {"builtin": "mp-example", "objective": {"F": "w^2"}}
    )
    csv_path = tmp_path / "branch.csv"
    code, report = _run(
        tmp_path,
        ["control", "--problem", problem, "--grid", "3", "--csv", str(csv_path)],
    )
    assert code == 0
    assert report["result"]["w_opt"] == 0.0
    assert report["result"]["psi_opt"] == pytest.approx(0.0)
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header == "w,norm_u,norm_v,energy,residual,C1,C2,psi"


# the options each command takes: those its body or its SolverConfig reads
TAKES = {
    "constants": set(),
    "check": {"--seed"},
    "solve": {"--tol", "--kind"},
    "sweep": {"--tol", "--grid", "--kind", "--csv"},
    "control": {"--tol", "--grid", "--kind", "--csv"},
    "nonexist": {"--tol", "--seed", "--multistart"},
    "demo": {"--tol", "--seed", "--grid", "--multistart"},
}


@pytest.mark.parametrize("command", sorted(TAKES))
def test_help_lists_the_options_the_command_reads(capsys, command):
    assert main([command, "--help"]) == 0
    flags = set(re.findall(r"--\w+", capsys.readouterr().out))
    assert flags - {"--help", "--graph", "--problem", "--out", "--deterministic"} == TAKES[command]


@pytest.mark.parametrize("command, option", [
    ("constants", "--grid"), ("constants", "--tol"), ("constants", "--seed"),
    ("check", "--grid"), ("check", "--tol"),
    ("solve", "--grid"), ("solve", "--seed"),
    ("sweep", "--seed"), ("control", "--seed"),
    ("nonexist", "--grid"),
])
def test_command_rejects_an_option_it_does_not_read(tmp_path, capsys, command, option):
    problem = _write(tmp_path, "p.json", {"builtin": "mp-example"})
    assert main([command, "--problem", problem, option, "3"]) == 1
    assert f"unrecognized arguments: {option} 3" in capsys.readouterr().err


def test_report_config_is_null_where_the_command_takes_no_option(tmp_path):
    problem = _write(tmp_path, "p.json", {"builtin": "mp-example"})
    _, report = _run(tmp_path, ["constants", "--problem", problem, "--deterministic"])
    nulls = {"tol": None, "seed": None, "grid": None, "kind": None, "deterministic": True}
    assert report["config"] == nulls
    _, report = _run(tmp_path, ["check", "--problem", problem, "--seed", "3", "--deterministic"])
    assert report["config"] == {**nulls, "seed": 3}


def test_demo_deterministic_reruns_identical(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["demo", "nonexist-example", "--deterministic", "--seed", "7",
            "--multistart", "2"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    assert "timestamp" not in report


def test_timestamp_present_without_deterministic(tmp_path):
    problem = _write(tmp_path, "p.json", {"builtin": "mp-example"})
    code, report = _run(tmp_path, ["constants", "--problem", problem])
    assert "timestamp" in report


def test_demo_control_without_converged_points_is_a_report(tmp_path, monkeypatch):
    def no_points(*args, **kwargs):
        raise SolverError("optimal control failed: no converged grid points")

    monkeypatch.setattr("grapde.cli.optimal_control", no_points)
    code, report = _run(tmp_path, ["demo", "control-objective", "--grid", "3"])
    assert code == 2
    assert report["result"]["control"] == {
        "error": "optimal control failed: no converged grid points"
    }


def test_demo_control_with_an_uncertified_point_exits_2(tmp_path, monkeypatch):
    # a certificate whose lower bound exceeds the norm at w = -1 leaves that
    # converged point uncertified; control exits 2 on it, and so does the
    # demo, which runs the same pipeline
    from grapde import solvers

    real = solvers.solve_report

    def raised_at_minus_1(inst, *args, certificate=None, **kwargs):
        # the sweep hands every point the one certificate it built: change a copy
        if inst.w == -1.0:
            certificate = dataclasses.replace(certificate, lower=certificate.upper)
        return real(inst, *args, certificate=certificate, **kwargs)

    monkeypatch.setattr(solvers, "solve_report", raised_at_minus_1)
    graph = _write(tmp_path, "g.json", graph_to_dict(path_graph(2)))
    code, report = _run(
        tmp_path, ["demo", "control-objective", "--graph", graph, "--grid", "5"]
    )
    assert code == 2
    reports = report["result"]["control"]["branch"]["reports"]
    assert reports[0]["converged"] and not reports[0]["certificate"]["satisfied"]
    assert all(r["certificate"]["satisfied"] for r in reports[1:])
    assert report["config"]["kind"] is None


def test_main_builds_the_parser_once(tmp_path, monkeypatch):
    from grapde import cli

    cli.build_parser.cache_clear()
    built = []
    real = argparse.ArgumentParser.add_subparsers

    def counting(self, **kwargs):
        built.append(self.prog)
        return real(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counting)
    problem = _write(tmp_path, "p.json", {"builtin": "mp-example"})
    for _ in range(2):
        assert _run(tmp_path, ["check", "--problem", problem])[0] == 2
    assert built == ["grapde"]


@pytest.mark.parametrize("field, value", [
    ("p", 7), ("q", 7), ("m1", 2), ("m2", 2), ("J", [0, 0.5]), ("F", "u^4"),
    ("coeffs", {"gamma": 2.0}), ("scalar", True), ("potential", "h2"),
])
def test_builtin_problem_rejects_fields_it_fixes(tmp_path, capsys, field, value):
    data = {"builtin": "mp-example", field: value}
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(data, PROBLEM_SCHEMA)
    problem = _write(tmp_path, "p.json", data)
    assert main(["constants", "--problem", problem]) == 1
    assert field in capsys.readouterr().err


def test_builtin_problem_takes_w_and_hypotheses(tmp_path):
    data = {"builtin": "mp-example", "w": 0.5, "hypotheses": {"theta": 4, "c1": 16}}
    jsonschema.validate(data, PROBLEM_SCHEMA)
    problem = _write(tmp_path, "p.json", data)
    code, report = _run(tmp_path, ["constants", "--problem", problem])
    assert code == 0
    assert "r1" in report["result"]["bounds_error"]


def test_builtin_hypotheses_keep_the_builtin_h3_floor(tmp_path):
    # a file cannot spell the (H3) floor a(r) = r^4 of mp-example; its
    # constants must not drop it
    data = {"builtin": "mp-example", "w": 0.5,
            "hypotheses": {"theta": 4, "c1": 16, "c2": 16, "r1": 4, "r2": 4,
                           "gamma1": 2, "gamma2": 2}}
    problem = _write(tmp_path, "p.json", data)
    _, report = _run(tmp_path, ["check", "--problem", problem])
    assert report["result"]["conditions"]["H3"]["verdict"] == "pass (sampled)"


def test_constants_of_a_one_block_problem_use_its_potential(tmp_path):
    # p = 2 over h2 = 4: b = (1 / (min mu min h2))^(1/2) = 0.5, K1 = vol^(1/2) b
    graph = _write(tmp_path, "g.json", graph_to_dict(path_graph(2, h1=1.0, h2=4.0)))
    problem = _write(
        tmp_path, "p.json",
        {"F": "u^4*(1+w^2)", "p": 2, "scalar": True, "potential": "h2",
         "hypotheses": {"theta": 4, "c1": 8, "r1": 4}},
    )
    code, report = _run(tmp_path, ["constants", "--graph", graph, "--problem", problem])
    result = report["result"]
    assert code == 0
    assert result["b"] == 0.5 and result["K1"] == pytest.approx(2**0.5 * 0.5)
    assert "d" not in result and "K2" not in result
    # the lower bound (1 / (2^p vol c1 b^r1))^(1/(r1-p)) uses the same b
    assert result["bounds"]["lower"] == pytest.approx(0.5)


@pytest.mark.parametrize("problem", [
    {"F": "exp(u^2+v^2)-1-u^2-v^2"},
    {"F": "exp(u^4)-1", "scalar": True},
])
def test_check_counts_an_overflowing_coupling_as_superlinear(tmp_path, problem):
    # F overflows to +inf at every sample of the largest (F3) radius: growth
    # past every bound, not a failure, and no RuntimeWarning leaves the screen
    path = _write(tmp_path, "p.json", problem)
    code, report = _run(tmp_path, ["check", "--problem", path])
    conditions = report["result"]["conditions"]
    assert conditions["F3"]["verdict"] == "pass (sampled)"
    assert "+inf counts as growth" in conditions["F3"]["detail"]
    assert conditions["NONEXIST"]["verdict"] == "fail"
    assert code == 2


@pytest.mark.parametrize("J", [[0, math.inf], [1, -1]])
def test_problem_file_interval_is_validated(tmp_path, capsys, J):
    problem = _write(tmp_path, "p.json", {"F": "(u^2+v^2)^2", "J": J})
    assert main(["check", "--problem", problem]) == 1
    err = capsys.readouterr().err
    # an infinite end is no JSON number (json writes it as Infinity): the parser rejects it
    start = f"{problem}: invalid JSON (Infinity" if math.inf in J else "parameter interval J="
    assert err.startswith("error: " + start) and "w=" not in err


@pytest.mark.parametrize("data", [
    {"F": "(u^2+v^2)^2", "hypotheses": {"L": {"v0": 1.0}, "x0": "v0", "delta": 1.0}},
    {"F": "gamma*(u^2+v^2)^2", "coeffs": {"gamma": {"v0": 1.0, "v9": 2.0}}},
])
def test_vertex_map_missing_a_vertex_is_an_input_error(tmp_path, capsys, data):
    problem = _write(tmp_path, "p.json", data)
    assert main(["check", "--problem", problem]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: vertex function domain mismatch (missing=['v1']")


def test_numeric_hypothesis_l_is_constant_over_the_vertices(tmp_path):
    hypotheses = {"x0": "v0", "delta": 1.0}
    reports = []
    for L in (3.0, {"v0": 3.0, "v1": 3.0}):
        data = {"F": "(u^2+v^2)^2", "hypotheses": {**hypotheses, "L": L}}
        problem = _write(tmp_path, "p.json", data)
        reports.append(_run(tmp_path, ["check", "--problem", problem, "--deterministic"])[1])
    assert reports[0]["result"]["conditions"]["H4"]["verdict"] == "fail"
    assert reports[0] == reports[1]


def test_objective_named_by_a_builtin(tmp_path):
    graph = path_graph(2)
    path = _write(tmp_path, "p.json", {"builtin": "mp-example", "objective": "control-objective"})
    _, objective = load_problem(path, graph)
    assert objective.F == builtin("control-objective", graph).nl.F


@pytest.mark.parametrize("command", ["solve", "nonexist"])
def test_coupling_outside_its_domain_is_an_input_error(tmp_path, capsys, command):
    problem = _write(tmp_path, "p.json", {"F": "u^4*sqrt(u)"})
    assert main([command, "--problem", problem]) == 1
    # one line naming the subexpression, not a traceback
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and re.fullmatch(r"error: .* in '.*sqrt\(u\).*'", err[0])


@pytest.mark.parametrize("name", ["localmin-example", "unique-example"])
def test_demo_of_an_uncertifiable_ball_is_a_report(tmp_path, name):
    code, report = _run(tmp_path, ["demo", name])
    result = report["result"]
    assert code == 2
    assert result["solve"]["error"].startswith("(F2) margin not certifiable")
    assert ("uniqueness" in result) == (name == "unique-example")


def test_importing_the_cli_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(grapde.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import grapde.cli; "
        "print('scipy.optimize' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("command", ["check", "solve"])
def test_hypothesis_x0_not_a_vertex_is_an_input_error(tmp_path, capsys, command):
    data = {"F": "(u^2+v^2)^2", "hypotheses": {"L": 3.0, "x0": "nowhere", "delta": 1.0}}
    problem = _write(tmp_path, "p.json", data)
    assert main([command, "--problem", problem]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: hypotheses.x0 'nowhere'")


@pytest.mark.parametrize("field, value", [
    ("scalar", "no"), ("m1", 1.5), ("m1", True), ("m2", "2"),
])
def test_problem_field_of_the_wrong_type_is_an_input_error(tmp_path, capsys, field, value):
    problem = _write(tmp_path, "p.json", {"F": "(u^2+v^2)^2", field: value})
    assert main(["solve", "--problem", problem]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: '{field}' must be of type")


# --- the report format (cli.to_json) ----------------------------------------

@pytest.mark.parametrize("scalar", [True, False])
def test_one_block_report_has_no_v(tmp_path, scalar):
    data = {"F": "u^4" if scalar else "(u^2+v^2)^2", "scalar": scalar}
    problem = _write(tmp_path, "p.json", data)
    _, report = _run(tmp_path, ["solve", "--problem", problem])
    result = report["result"]
    assert set(result["u"]) == {"v0", "v1"}
    assert ("v" in result) == (not scalar)
    assert "state" not in result


def test_failed_sweep_point_is_null_with_null_jumps_beside_it(tmp_path, monkeypatch):
    from grapde import continuation

    real = continuation.mountain_pass_solve

    def failing_at_0(inst, *args):
        if inst.w == 0.0:
            raise SolverError("stubbed failure")
        return real(inst, *args)

    monkeypatch.setattr(continuation, "mountain_pass_solve", failing_at_0)
    problem = _write(tmp_path, "p.json", {"builtin": "mp-example"})
    code, report = _run(tmp_path, ["sweep", "--problem", problem, "--grid", "3"])
    result = report["result"]
    assert code == 2
    assert result["grid"] == [-1.0, 0.0, 1.0]
    assert result["reports"][1] is None and result["reports"][0]["converged"]
    assert result["jumps"] == [None, None]
    assert [row[2] for row in result["continuity"]["jump_table"]] == [None, None]


def test_each_check_condition_has_verdict_witness_and_detail(tmp_path):
    problem = _write(tmp_path, "p.json", {"builtin": "mp-example"})
    _, report = _run(tmp_path, ["check", "--problem", problem])
    conditions = report["result"]["conditions"]
    for condition in conditions.values():
        assert set(condition) == {"verdict", "witness", "detail"}
    assert conditions["F1"]["witness"] is None
    assert isinstance(conditions["NONEXIST"]["witness"], list)


def test_missing_certificate_is_null(tmp_path):
    problem = _write(tmp_path, "p.json", {"F": "(u^2+v^2)^2"})
    code, report = _run(tmp_path, ["solve", "--problem", problem])
    assert code == 2
    assert report["result"]["converged"] and report["result"]["certificate"] is None


def test_numpy_values_become_json_numbers_and_lists():
    out = to_json({
        "float": np.float64(0.5), "int": np.int64(3), "bool": np.bool_(True),
        "array": np.array([[1.0, 2.0]]), "pairs": [(np.float32(0.25), None)],
    })
    assert out == {
        "float": 0.5, "int": 3, "bool": True, "array": [[1.0, 2.0]], "pairs": [[0.25, None]],
    }
    assert [type(out[k]) for k in ("float", "int", "bool")] == [float, int, bool]
    assert type(out["array"][0][0]) is float and type(out["pairs"][0][0]) is float


# --- input errors: one "error:" line, exit 1 ---------------------------------

@pytest.mark.parametrize("command", ["sweep", "control"])
@pytest.mark.parametrize("grid", ["0", "-1"])
def test_grid_below_one_point_is_an_input_error(tmp_path, capsys, command, grid):
    data = {"builtin": "mp-example", "objective": "control-objective"}
    problem = _write(tmp_path, "p.json", data)
    assert main([command, "--problem", problem, "--grid", grid]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: grid needs at least one point"]


_ZERO_MU_GRAPH = {
    "vertices": [{"id": "v0", "mu": 0.0, "h1": 1.0, "h2": 1.0},
                 {"id": "v1", "mu": 1.0, "h1": 1.0, "h2": 1.0}],
    "edges": [{"a": "v0", "b": "v1", "w": 1.0}],
}


@pytest.mark.parametrize("problem, graph, message", [
    (None, None, "cannot read"),  # no problem file
    ("{not json", None, "invalid JSON"),
    ('{"F": "u^4", "hypotheses": {"zeta": 1}}', None, "unknown hypothesis fields: ['zeta']"),
    ('{"p": 2}', None, "problem file needs either 'builtin' or an 'F' expression"),
    ('{"builtin": "mp-example"}', _ZERO_MU_GRAPH, "'vertices[0].mu' must be > 0, got 0.0"),
])
def test_input_error_is_one_error_line(tmp_path, capsys, problem, graph, message):
    path = tmp_path / "p.json"
    if problem is not None:
        path.write_text(problem)
    argv = ["check", "--problem", str(path)]
    if graph is not None:
        argv += ["--graph", _write(tmp_path, "g.json", graph)]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0], err


_MP_FILES = (graph_to_dict(path_graph(2)), {"builtin": "mp-example"})
# (argv, graph file, problem file) of tools/golden.py's probes and of the
# option values that cannot work
_PROBES = {
    **{name: ([cmd], graph, problem) for name, (cmd, graph, problem) in golden.PROBES.items()},
    "tol-zero": (["solve", "--tol", "0"], *_MP_FILES),
    "tol-negative": (["solve", "--tol", "-1"], *_MP_FILES),
    "tol-nan": (["solve", "--tol", "nan"], *_MP_FILES),
    "multistart-negative": (["nonexist", "--multistart", "-5"], *_MP_FILES),
}
# what the error line of each probe names; {problem} stands for the problem file
_PROBE_NAMES = {
    "problem-theta-string": "'hypotheses.theta' must be of type number",
    "problem-J-number": "'J' must be of type array",
    "problem-F-number": "'F' must be of type string",
    "problem-objective-number": "'objective' must be of type string or object",
    "problem-hypotheses-number": "'hypotheses' must be of type object",
    "problem-array": "the problem file must be of type object",
    "problem-p-string": "'p' must be of type number",
    "graph-vertices-number": "'vertices' must be of type array",
    "graph-vertex-without-h2": "'vertices[0]' misses the vertex fields ['h2']",
    "graph-edge-without-w": "'edges[0]' misses the edge fields ['w']",
    "graph-array": "the graph file must be of type object",
    "graph-w-string": "'edges[0].w' must be of type number",
    "graph-mu-string": "'vertices[0].mu' must be of type number",
    "graph-id-int": "'vertices[0].id' must be of type string",
    "problem-p-nan": "{problem}: invalid JSON (NaN is not a JSON number)",
    "graph-w-huge-int": "'edges[0].w' is non-finite as a float",
    "problem-objective-coeff-string":
        "'objective.coeffs.a' must be of type number or object or array, got 'x'",
    "tol-zero": "tol must be a finite number > 0, got 0.0",
    "tol-negative": "tol must be a finite number > 0, got -1.0",
    "tol-nan": "tol must be a finite number > 0, got nan",
    "multistart-negative": "multistart must be >= 0, got -5",
}


@pytest.mark.parametrize("probe", _PROBES)
def test_malformed_input_is_one_error_line_naming_it(tmp_path, capsys, probe):
    argv, graph, problem = _PROBES[probe]
    files = ["--graph", _write(tmp_path, "g.json", graph),
             "--problem", _write(tmp_path, "p.json", problem)]
    assert main(argv[:1] + files + argv[1:]) == 1
    err = capsys.readouterr().err.splitlines()
    name = _PROBE_NAMES[probe].format(problem=files[3])
    assert len(err) == 1 and err[0].startswith("error: " + name), err


def test_nan_sign_pairing_is_not_negative(tmp_path):
    # exp(u^4) - exp(u^4) is inf - inf = NaN where exp(u^4) overflows, at
    # half the points of the sign box: no evidence of a negative pairing
    problem = _write(tmp_path, "p.json", {"F": "-(u^2+v^2) + exp(u^4) - exp(u^4)"})
    code, report = _run(tmp_path, ["nonexist", "--problem", problem])
    result = report["result"]
    assert code == 2
    assert result["sign_verdict"] == "inconclusive" and not result["certified"]
    vertex, t, _s, _w = result["sign_witness"]
    assert vertex == "v0" and abs(t) > 5.0  # exp(t^4) overflows for |t| > 5.2
    assert result["notes"] == ["sign screen inconclusive: the pairing is NaN at the witness"]


def test_nan_ratio_ladder_is_inconclusive(tmp_path):
    # inf - inf = NaN at every sample of the largest (F3) radii: no ratio there
    # was seen, so (F3) is inconclusive at its first NaN point, not a verdict
    problem = _write(tmp_path, "p.json", {"F": "-(u^2+v^2) + exp(u^4) - exp(u^4)"})
    code, report = _run(tmp_path, ["check", "--problem", problem])
    f3 = report["result"]["conditions"]["F3"]
    assert f3["verdict"] == "inconclusive"
    assert f3["detail"] == "the ratio is NaN at the witness (radius 10)"
    vertex, t, _s, _w = f3["witness"]
    assert vertex == "v0" and abs(t) == 10.0
