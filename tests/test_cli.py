import json

import jsonschema
import pytest

from grapde import load_schema
from grapde.cli import main
from grapde.graph import graph_to_dict, path_graph

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
