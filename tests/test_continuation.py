import csv

import numpy as np
import pytest

from grapde.calculus import OperatorOrder
from grapde.energy import ProblemInstance
from grapde.graph import path_graph
from grapde.nonlinearity import HypothesisSpec, Nonlinearity, builtin
from grapde import continuation
from grapde._optim import bb_minimize
from grapde.continuation import (
    branch_continuity_report,
    branch_to_csv,
    optimal_control,
    sweep,
)
from grapde.solvers import SolverConfig, SolverError, ball_projection, trivial_norm


def _saddle_instance():
    g = path_graph(2)
    prob = builtin("mp-example", g)
    return ProblemInstance(g, prob.ord1, prob.ord2, prob.nl, prob.spec, 0.0)


def _autonomous_instance():
    # coupling independent of the parameter: the branch must be constant in w
    g = path_graph(2)
    spec = HypothesisSpec(theta=4.0, c1=16.0, c2=16.0, r1=4.0, r2=4.0)
    nl = Nonlinearity.from_source(g, "(u^2+v^2)^2", {})
    return ProblemInstance(g, OperatorOrder(1, 3.0), OperatorOrder(1, 2.0), nl, spec, 0.0)


CFG = SolverConfig(w_grid=5)


@pytest.fixture(scope="module")
def saddle_branch():
    return sweep(_saddle_instance(), grid=5, kind="mp", config=CFG)


def test_sweep_converges_everywhere(saddle_branch):
    assert saddle_branch.kind == "mp"
    assert len(saddle_branch.reports) == 5
    assert all(r is not None and r.converged for r in saddle_branch.reports)
    assert all(j is not None for j in saddle_branch.jumps)


def test_sweep_shares_certificate_constants(saddle_branch):
    lowers = {r.certificate.lower for r in saddle_branch.reports}
    uppers = {r.certificate.upper for r in saddle_branch.reports}
    assert len(lowers) == 1 and len(uppers) == 1


def test_sweep_warm_starts_interior_points(saddle_branch):
    assert any("warm start" in r.flags for r in saddle_branch.reports[1:])


def test_sweep_autonomous_branch_is_flat():
    branch = sweep(_autonomous_instance(), grid=3, kind="mp", config=CFG)
    assert all(r is not None and r.converged for r in branch.reports)
    assert max(branch.jumps) < 1e-6


def test_sweep_validates_arguments():
    inst = _saddle_instance()
    with pytest.raises(ValueError, match="kind"):
        sweep(inst, grid=3, kind="saddle")
    with pytest.raises(ValueError, match="increasing"):
        sweep(inst, grid=[0.5, 0.0])
    with pytest.raises(ValueError, match="interval"):
        sweep(inst, grid=[0.0, 2.0])


def test_sweep_min_kind():
    g = path_graph(2)
    spec = HypothesisSpec(theta=4.0, c1=1.0, c2=1.0, r1=4.0, r2=4.0, delta=1.0)
    nl = Nonlinearity.from_source(g, "0.05*(u^2+v^2)", {})
    inst = ProblemInstance(g, OperatorOrder(1, 2.0), OperatorOrder(1, 2.0), nl, spec, 0.0)
    branch = sweep(inst, grid=3, kind="min", config=CFG)
    assert branch.kind == "min"
    assert all(r is not None and r.converged for r in branch.reports)


def test_continuity_report(saddle_branch):
    inst = _saddle_instance()
    report = branch_continuity_report(saddle_branch, inst, CFG)
    assert report.coverage == 1.0
    assert report.norms_in_bounds
    assert report.max_jump is not None and np.isfinite(report.max_jump)
    assert len(report.jump_table) == 4
    assert report.limit_check_distance < 1e-6


def test_continuity_single_point_grid():
    inst = _saddle_instance()
    branch = sweep(inst, grid=[0.0], kind="mp", config=CFG)
    report = branch_continuity_report(branch, inst, CFG)
    assert report.max_jump is None
    assert any("single-point" in n for n in report.notes)


def test_control_constant_objective_ties_to_smallest_parameter():
    inst = _saddle_instance()
    obj = Nonlinearity.from_source(inst.graph, "1", {})
    report = optimal_control(inst, obj, grid=3, kind="mp", config=CFG)
    assert report.w_opt == -1.0  # all psi equal: total measure 2 at every w
    assert report.psi_opt == pytest.approx(2.0)
    assert len(report.table) == 3


def test_control_parameter_only_objective():
    inst = _saddle_instance()
    obj = Nonlinearity.from_source(inst.graph, "w^2", {})
    report = optimal_control(inst, obj, grid=3, kind="mp", config=CFG)
    assert report.w_opt == 0.0
    assert report.psi_opt == pytest.approx(0.0)


def test_branch_to_csv(tmp_path, saddle_branch):
    inst = _saddle_instance()
    path = tmp_path / "branch.csv"
    branch_to_csv(saddle_branch, path, inst)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["w", "norm_u", "norm_v", "energy", "residual", "C1", "C2", "psi"]
    assert len(rows) == 1 + len(saddle_branch.grid)
    for row in rows[1:]:
        assert float(row[0]) in saddle_branch.grid
        assert float(row[3]) > 0  # saddle energy
        assert float(row[5]) <= float(row[1]) + float(row[2]) <= float(row[6])


def test_warm_start_below_the_trivial_norm_is_rejected(monkeypatch):
    # F = 5e-6 (u^2 + v^2) with p = q = 3 has a critical point at u = v = 1e-5;
    # the warm descent toward it stops, residual <= tol, at a norm above 10 tol
    # but below the norm at which solve_report flags a state as trivial
    g = path_graph(2)
    nl = Nonlinearity.from_source(g, "5e-6*(u^2+v^2)", {})
    order = OperatorOrder(1, 3.0)
    inst = ProblemInstance(g, order, order, nl, HypothesisSpec(), 0.0)
    config = SolverConfig()
    warm = np.full(4, 1e-2)
    res = bb_minimize(
        inst.energy, inst.gradient, warm, inst.weights,
        tol=config.tol, project=ball_projection(inst, 1.0),
    )
    assert res.converged
    assert 10.0 * config.tol < inst.norm(res.x) < trivial_norm(inst, config.tol)
    # the warm state is rejected and the point falls back to a cold solve
    monkeypatch.setattr(continuation, "local_min_solve", lambda inst, config: "cold solve")
    assert continuation._solve_point(inst, "min", config, None, 1.0, warm) == "cold solve"
