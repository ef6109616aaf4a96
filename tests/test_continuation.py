import csv
import dataclasses

import numpy as np
import pytest

from grapde.calculus import OperatorOrder
from grapde.energy import ProblemInstance
from grapde.graph import path_graph
from grapde.nonlinearity import HypothesisSpec, Nonlinearity, builtin
from grapde import continuation, solvers
from grapde._optim import bb_minimize
from grapde.continuation import (
    branch_continuity_report,
    branch_to_csv,
    optimal_control,
    sweep,
)
from grapde.solvers import (
    SolverConfig,
    ball_projection,
    local_min_solve,
    trivial_norm,
)


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


@pytest.fixture(scope="module")
def saddle_branch():
    return sweep(_saddle_instance(), grid=5, kind="mp")


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
    branch = sweep(_autonomous_instance(), grid=3, kind="mp")
    assert all(r is not None and r.converged for r in branch.reports)
    assert max(branch.jumps) < 1e-6


def test_sweep_validates_arguments():
    inst = _saddle_instance()
    with pytest.raises(ValueError, match="kind"):
        sweep(inst, grid=3, kind="saddle")
    for grid in (0, -1):
        with pytest.raises(ValueError, match="at least one point"):
            sweep(inst, grid=grid)


def _quadratic_instance():
    g = path_graph(2)
    spec = HypothesisSpec(theta=4.0, c1=1.0, c2=1.0, r1=4.0, r2=4.0, delta=1.0)
    nl = Nonlinearity.from_source(g, "0.05*(u^2+v^2)", {})
    return ProblemInstance(g, OperatorOrder(1, 2.0), OperatorOrder(1, 2.0), nl, spec, 0.0)


def test_sweep_of_a_degenerate_interval_solves_its_one_point():
    inst = _autonomous_instance()
    inst = dataclasses.replace(inst, spec=dataclasses.replace(inst.spec, J=(0.0, 0.0)))
    branch = sweep(inst, grid=3, kind="mp")
    assert list(branch.grid) == [0.0] and len(branch.reports) == 1
    report = branch_continuity_report(branch, inst)
    assert any("single-point" in n for n in report.notes)


def test_sweep_min_kind():
    branch = sweep(_quadratic_instance(), grid=3, kind="min")
    assert branch.kind == "min"
    assert all(r is not None and r.converged for r in branch.reports)


def test_continuity_report(saddle_branch):
    inst = _saddle_instance()
    report = branch_continuity_report(saddle_branch, inst)
    assert report.coverage == 1.0
    assert report.norms_in_bounds
    assert report.max_jump is not None and np.isfinite(report.max_jump)
    assert len(report.jump_table) == 4
    assert report.limit_check_distance < 1e-6


def test_continuity_single_point_grid():
    inst = _saddle_instance()
    branch = sweep(inst, grid=1, kind="mp")
    report = branch_continuity_report(branch, inst)
    assert report.max_jump is None
    assert any("single-point" in n for n in report.notes)


def test_continuity_limit_check_fails_when_the_middle_point_failed():
    inst = _saddle_instance()
    branch = sweep(inst, grid=3, kind="mp")
    branch.reports[1] = None
    report = branch_continuity_report(branch, inst)
    assert report.limit_check_distance == np.inf
    assert any("w0 = 0 failed" in n for n in report.notes)


def test_continuity_limit_check_detects_a_wrong_state_at_the_middle_point(saddle_branch):
    # -x is a critical point with the saddle's energy whenever x is one (F is
    # even), but not on the branch: the re-solve from the neighbour finds x
    inst = _saddle_instance()
    healthy = branch_continuity_report(saddle_branch, inst)
    assert healthy.limit_check_distance < 1e-6
    reports = list(saddle_branch.reports)
    middle = reports[2]
    x = middle.state.flat()
    reports[2] = dataclasses.replace(middle, state=inst.at(0.0).state(-x))
    branch = dataclasses.replace(saddle_branch, reports=reports)
    report = branch_continuity_report(branch, inst)
    assert report.limit_check_distance == pytest.approx(2.0 * inst.norm(x), rel=1e-6)


def test_continuity_limit_check_notes_a_re_solve_that_reached_zero():
    # mp-example's branch is x(w) = x(0) / (1 + w^2): from x(1) = x(0) / 2
    # one Newton step at w = 0 lands on the trivial root, not on x(0)
    inst = _saddle_instance()
    branch = sweep(inst, grid=3, kind="mp")
    report = branch_continuity_report(branch, inst)
    assert report.limit_check_distance == pytest.approx(branch.reports[1].certificate.norm)
    assert any("from w = 1 reached the trivial solution" in n for n in report.notes)


def test_continuity_limit_check_needs_a_converged_neighbour():
    inst = _saddle_instance()
    branch = sweep(inst, grid=3, kind="mp")
    branch.reports[0] = branch.reports[2] = None
    report = branch_continuity_report(branch, inst)
    assert report.limit_check_distance == np.inf
    assert any("no converged point besides w0 = 0" in n for n in report.notes)


def test_control_constant_objective_ties_to_smallest_parameter():
    inst = _saddle_instance()
    obj = Nonlinearity.from_source(inst.graph, "1", {})
    report = optimal_control(inst, obj, grid=3, kind="mp")
    assert report.w_opt == -1.0  # all psi equal: total measure 2 at every w
    assert report.psi_opt == pytest.approx(2.0)
    assert len(report.table) == 3


def test_control_parameter_only_objective():
    inst = _saddle_instance()
    obj = Nonlinearity.from_source(inst.graph, "w^2", {})
    report = optimal_control(inst, obj, grid=3, kind="mp")
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


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that records its calls; return the record."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


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
    # the warm state is rejected and the point falls back to the cold descent
    calls = _counting(monkeypatch, solvers, "bb_minimize")
    report = local_min_solve(inst, config, rho=1.0, start=warm)
    assert "warm start" not in report.flags
    assert [args[2] is warm for args in calls] == [True, False]


def test_min_sweep_computes_the_ball_radius_once(monkeypatch):
    calls = _counting(monkeypatch, solvers, "ball_radius")
    monkeypatch.setattr(continuation, "ball_radius", solvers.ball_radius)
    branch = sweep(_quadratic_instance(), grid=3, kind="min")
    assert branch.reports[0] is not None and "warm start" not in branch.reports[0].flags
    assert len(calls) == 1


def test_mp_sweep_builds_the_certificate_once(monkeypatch):
    # the certificate depends on the spec, the graph and the shared endpoint,
    # not on w; each report holds its own copy, with its own norm
    calls = _counting(monkeypatch, solvers, "bound_certificate_mp")
    monkeypatch.setattr(continuation, "bound_certificate_mp", solvers.bound_certificate_mp)
    branch = sweep(_saddle_instance(), grid=5, kind="mp")
    assert len(calls) == 1
    certs = [r.certificate for r in branch.reports]
    assert len({id(c) for c in certs}) == 5
    assert all(c.constants == certs[0].constants and c.satisfied for c in certs)
    assert len({c.norm for c in certs}) == 5
