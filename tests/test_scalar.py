import math

import numpy as np
import pytest

from _helpers import random_graph
from grapde.calculus import OperatorOrder, laplacian
from grapde.cli import to_json
from grapde.continuation import optimal_control, sweep
from grapde.energy import ProblemInstance, phi_grad
from grapde.graph import complete_graph, path_graph, total_measure
from grapde.nonlinearity import HypothesisSpec, Nonlinearity, SamplingConfig, lipschitz_screen
from grapde.scalar import ScalarInstance
from grapde.solvers import (
    CertificateError,
    SolverError,
    ball_radius,
    bound_certificate_min,
    bound_certificate_mp,
    local_min_solve,
    mountain_pass_solve,
    nonexistence_check,
)
from grapde.spaces import w_norm


def _instance(g, F, coeffs=None, p=2.0, m=1, spec=None, w=0.0):
    nl = Nonlinearity.from_source(g, F, coeffs or {})
    return ScalarInstance(g, OperatorOrder(m, p), nl, spec or HypothesisSpec(), "h1", w)


def test_energy_and_gradient_linear_case():
    g = path_graph(2)
    inst = _instance(g, "0")
    u = np.array([1.0, 0.0])
    assert inst.energy(u) == pytest.approx(1.0)  # ||u||^2 / 2 = 2/2
    assert np.allclose(inst.gradient(u), -laplacian(g, u) + u)


def test_one_block_energy_is_two_block_energy_at_zero_v():
    # the scalar problem is the system with v = 0, bit for bit
    rng = np.random.default_rng(4)
    for _ in range(100):
        g = random_graph(rng)
        order = OperatorOrder(int(rng.integers(1, 4)), float(rng.choice([2.0, 3.0])))
        nl = Nonlinearity.from_source(g, "u^4*(1+w^2)", {})
        one = ScalarInstance(g, order, nl, HypothesisSpec(), "h1", 0.5)
        two = ProblemInstance(g, order, order, nl, HypothesisSpec(), 0.5)
        u = rng.standard_normal(g.n)
        x = np.concatenate([u, np.zeros(g.n)])
        assert one.energy(u) == two.energy(x)
        assert np.array_equal(one.gradient(u), two.gradient(x)[: g.n])


def test_instance_validation():
    g = path_graph(2)
    with pytest.raises(ValueError):
        _instance(g, "0", p=1.5)
    with pytest.raises(ValueError, match="outside"):
        _instance(g, "0", w=3.0)


def test_bounds_hand_values():
    # P2, p = 2, c1 = 1, r1 = 4, theta = 4: lower = (1/8)^(1/2);
    # endpoint of norm 1 gives upper = (4*2*1/2)^(1/2) = 2
    g = path_graph(2)
    spec = HypothesisSpec(theta=4.0, c1=1.0, r1=4.0)
    inst = _instance(g, "u^4", spec=spec)
    u0 = np.array([1.0, 0.0]) / math.sqrt(2.0)
    cert = bound_certificate_mp(inst, (u0,))
    assert cert.lower == pytest.approx(math.sqrt(1.0 / 8.0), rel=1e-12)
    assert cert.upper == pytest.approx(2.0, rel=1e-12)


def test_bounds_named_errors():
    g = path_graph(2)
    inst = _instance(g, "u^4", spec=HypothesisSpec())
    with pytest.raises(CertificateError, match="'theta', 'c1', 'r1'"):
        bound_certificate_mp(inst, (np.array([1.0, 0.0]),))
    bad = _instance(g, "u^4", spec=HypothesisSpec(theta=4.0, c1=1.0, r1=2.0))
    with pytest.raises(CertificateError, match=r"max\{r1\} - p"):
        bound_certificate_mp(bad, (np.array([1.0, 0.0]),))


def test_saddle_solve_quartic():
    # P2 with h = 2, F = u^4: critical points u = (a, b) solve
    # (u_i - u_j) + 2 u_i = 4 u_i^3.  The lowest saddle has
    # a^2 + ab + b^2 = 1 and ab = 1/4, with energy 7/16.
    g = path_graph(2, h1=2.0)
    spec = HypothesisSpec(theta=4.0, c1=1.0, r1=4.0)
    inst = _instance(g, "u^4", spec=spec)
    report = mountain_pass_solve(inst)
    assert report.converged and report.residual <= 1e-8
    assert report.energy == pytest.approx(7.0 / 16.0, abs=1e-8)
    a, b = report.u.values
    assert a * b == pytest.approx(0.25, abs=1e-7)
    assert a * a + b * b == pytest.approx(0.75, abs=1e-7)
    assert report.certificate is not None


def test_one_block_report_shape():
    # the shared driver keeps the scalar state an n-vector and reports no v
    g = path_graph(2, h1=2.0)
    inst = _instance(g, "u^4", spec=HypothesisSpec(theta=4.0, c1=1.0, r1=4.0))
    report = mountain_pass_solve(inst)
    assert report.kind == "scalar-mountain-pass"
    assert report.state.v is None and report.state.flat().shape == (g.n,)
    out = to_json(report)
    assert "v" not in out and set(out["u"]) == set(g.vertices)
    assert out["certificate"]["kind"] == "scalar-mountain-pass"


def test_scalar_gradient_matches_system_u_component():
    g = path_graph(2, h1=2.0)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(2)
    s_inst = _instance(g, "u^4", p=2.0)
    nl = Nonlinearity.from_source(g, "u^4", {})
    p_inst = ProblemInstance(
        g, OperatorOrder(1, 2.0), OperatorOrder(1, 2.0), nl, HypothesisSpec(), 0.0
    )
    gu, gv = phi_grad(p_inst, (u, np.zeros(2)))
    assert np.allclose(s_inst.gradient(u), gu)
    assert np.allclose(gv, 0.0)


def test_ball_radius_zero_and_supercritical():
    g = path_graph(2)
    assert ball_radius(_instance(g, "0")) == 1.0
    with pytest.raises(SolverError, match="not certifiable"):
        ball_radius(_instance(g, "u^2"))


@pytest.mark.parametrize("graph, rho", [(path_graph(2), 0.25), (complete_graph(5), 0.125)],
                         ids=("path-2", "K5"))
def test_ball_radius_walks_down_the_ladder(graph, rho):
    # the quartic outgrows the quadratic cap on the larger boxes; at rho every
    # sample at all 21 ws of the grid stays under the budget
    spec = HypothesisSpec(delta=0.04, x0=graph.vertices[0])
    assert ball_radius(_instance(graph, "u^4*(1+w^2)", spec=spec)) == rho

def test_min_solve_small_quadratic():
    g = path_graph(2)
    spec = HypothesisSpec(theta=4.0, c1=1.0, r1=4.0, delta=1.0)
    inst = _instance(g, "0.05*u^2", spec=spec)
    report = local_min_solve(inst)
    assert report.converged
    assert "trivial" in report.flags


def test_min_solve_negative_energy_certified():
    # F = 0.05 u on P2 (h = 1): the minimizer is u = 0.05 with Phi = -0.0025;
    # the start 0.02 * spike has Phi = -0.0006, so the energy-level bounds
    # are [2^-8, 1] (vol * max F = 0.1 r < 0.0006 first at r = 2^-8)
    g = path_graph(2)
    inst = _instance(g, "0.05*u", spec=HypothesisSpec(delta=0.04, x0=g.vertices[0]))
    assert ball_radius(inst) == 1.0
    report = local_min_solve(inst)
    assert report.converged and report.energy == pytest.approx(-0.0025)
    assert np.allclose(report.u.values, 0.05)
    cert = report.certificate
    assert cert.lower == 2.0**-8 and cert.upper == 1.0
    assert cert.satisfied


def test_min_bounds_hand_value():
    g = path_graph(2)
    spec = HypothesisSpec(theta=4.0, c1=1.0, r1=4.0)
    inst = _instance(g, "0", spec=spec)
    cert = bound_certificate_min(inst, t0=0.25, rho=1.0)
    assert cert.lower == pytest.approx(math.sqrt(1.0 / 8.0), rel=1e-12)
    assert cert.upper == pytest.approx(0.25 * 2.0 * math.sqrt(2.0), rel=1e-12)


def _primed(inst, u0, t0):
    """C1'-C4' of the scalar theorem, written out."""
    spec, p = inst.spec, inst.p
    vol = total_measure(inst.graph)
    (b, _), = inst.embedding.blocks
    space = inst.spaces[0]
    c1 = (2.0**p * vol * spec.c1 * b**spec.r1) ** (-1.0 / (spec.r1 - p))
    c2 = (spec.theta * 2.0 ** (p - 1) * w_norm(inst.graph, u0, space) ** p
          / (spec.theta - p)) ** (1.0 / p)
    spike = w_norm(inst.graph, inst.spike(), space)
    c4 = (spec.theta * 2.0 ** (p - 1) * t0**p * spike**p / (spec.theta - p)) ** (1.0 / p)
    return c1, c2, c1, c4


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("m", [1, 2])
def test_one_block_certificates_are_the_primed_bounds(p, m):
    # the system's certificates at one block are C1'-C4'; c1 = 3 is not a
    # power of two, so the products may round differently in the last bit
    rng = np.random.default_rng(7)
    spec = HypothesisSpec(theta=5.0, c1=3.0, r1=5.0)
    for g in (path_graph(2), complete_graph(5), random_graph(rng, n=7)):
        inst = _instance(g, "0", p=p, m=m, spec=spec)
        u0 = rng.standard_normal(g.n)
        mp = bound_certificate_mp(inst, (u0,))
        low = bound_certificate_min(inst, 0.3, 1.0)
        got = (mp.lower, mp.upper, low.lower, low.upper)
        for value, want in zip(got, _primed(inst, u0, 0.3)):
            assert abs(value - want) <= 1e-15 * want
        assert mp.kind == "scalar-mountain-pass" and low.kind == "scalar-local-min"


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0])
def test_mountain_pass_and_local_min_lower_bounds_agree_at_p_equal_q(p):
    # one growth-cap lower bound: the mp C1 is the min C3, bit for bit
    rng = np.random.default_rng(11)
    g = random_graph(rng, n=6)
    order = OperatorOrder(1, p)
    nl = Nonlinearity.from_source(g, "0", {})
    one = ScalarInstance(g, order, nl, HypothesisSpec(theta=6.0, c1=3.0, r1=5.0), "h1", 0.0)
    two = ProblemInstance(
        g, order, order, nl, HypothesisSpec(theta=6.0, c1=3.0, c2=1.5, r1=5.0, r2=4.5), 0.0
    )
    for inst in (one, two):
        endpoint = inst.split(rng.standard_normal(g.n * len(inst.spaces)))
        mp = bound_certificate_mp(inst, endpoint)
        assert mp.lower == bound_certificate_min(inst, 0.1, 1.0).lower


def test_sweep_and_control():
    g = path_graph(2, h1=2.0)
    spec = HypothesisSpec(theta=4.0, c1=8.0, r1=4.0)
    inst = _instance(g, "u^4*(1+w^2)", spec=spec)
    branch = sweep(inst, grid=3, kind="mp")
    assert all(r is not None and r.converged for r in branch.reports)
    assert all(j is not None and np.isfinite(j) for j in branch.jumps)
    obj = Nonlinearity.from_source(g, "w^2", {})
    result = optimal_control(inst, obj, grid=3, kind="mp")
    assert result.w_opt == 0.0
    assert result.psi_opt == pytest.approx(0.0)


def test_control_tie_breaks_to_smallest_parameter():
    g = path_graph(2, h1=2.0)
    spec = HypothesisSpec(theta=4.0, c1=8.0, r1=4.0)
    inst = _instance(g, "u^4*(1+w^2)", spec=spec)
    obj = Nonlinearity.from_source(g, "1", {})
    result = optimal_control(inst, obj, grid=3, kind="mp")
    assert result.w_opt == -1.0


def test_nonexistence_sign_condition():
    g = path_graph(3)
    inst = _instance(g, "-xsq*u^2", {"xsq": np.array([1.0, 2.0, 3.0])})
    result = nonexistence_check(inst, multistart=5)
    assert result.certified
    assert result.multistart_max_norm == pytest.approx(0.0, abs=1e-6)
    bad = _instance(g, "u^2")
    assert not nonexistence_check(bad).certified


def test_sign_screen_witness_is_largest_pairing():
    # F_u t = xsq t on the box [-10, 10]: largest where xsq = 3, at t = 10
    g = path_graph(3)
    inst = _instance(g, "xsq*u", {"xsq": np.array([1.0, 2.0, 3.0])})
    report = nonexistence_check(inst)
    assert report.sign_verdict == "fail"
    assert report.sign_witness == (g.vertices[2], 10.0, -1.0)


def test_check_screens_one_block_like_nonexist():
    # F_u t = 0.05 t fails the sign condition at t > 0; both screens sample
    # the one block alone, so they report the same witness (vertex, t, w)
    g = path_graph(2)
    inst = _instance(g, "0.05*u", spec=HypothesisSpec(delta=0.04, x0=g.vertices[0]))
    screen = inst.check(SamplingConfig()).conditions["NONEXIST"]
    report = nonexistence_check(inst)
    assert screen.verdict == report.sign_verdict == "fail"
    assert screen.witness == report.sign_witness == (g.vertices[0], 10.0, -1.0)


def test_check_scalar_quartic_is_superlinear():
    # on the one-block sphere {r, -r} the ratio F / |u|^2 = r^2 (1 + w^2) grows
    g = path_graph(2)
    inst = _instance(g, "u^4*(1+w^2)", spec=HypothesisSpec(theta=4.0, c1=2.0, r1=4.0))
    f3 = inst.check(SamplingConfig()).conditions["F3"]
    assert f3.verdict == "pass (sampled)", f3.detail


def test_check_reads_the_one_block_constants():
    # F_u u = 4u^4(1+w^2) <= 8|u|^4, F_u u - 2F = 2u^4(1+w^2) >= |u|^3 for |u| >= 1/2,
    # and |F_u(b) - F_u(a)| <= 24 (|a| + |b|)^2 |b - a| on the ball of radius 0.1
    g = path_graph(2)
    spec = HypothesisSpec(c1=8.0, r1=4.0, gamma1=3.0, d1=1.0)
    inst = _instance(g, "u^4*(1+w^2)", spec=spec)
    h5 = lipschitz_screen(inst.nl, spec, inst.spaces, SamplingConfig(), radius=0.1)
    conditions = dict(inst.check(SamplingConfig()).conditions, H5=h5)
    for name in ("H2", "F4", "H5"):
        c = conditions[name]
        assert c.verdict == "pass (sampled)", (name, c.detail)


def test_check_names_only_the_constants_of_one_block():
    g = path_graph(2)
    report = _instance(g, "u^4").check(SamplingConfig())
    details = {n: report.conditions[n].detail for n in ("F4", "H2", "H5")}
    assert details == {
        "F4": "gamma1 not provided",
        "H2": "c1/r1 not provided",
        "H5": "d1 not provided",
    }


def test_one_block_witnesses_are_vertex_t_w():
    # every condition below fails on the quartic, each with a point witness
    g = path_graph(2)
    spec = HypothesisSpec(
        theta=8.0, c1=2.0, r1=4.0, delta=0.5, x0="v1", L=np.full(g.n, 4.0),
        a_floor=lambda r: r**2, c_fn=np.ones(g.n),
    )
    report = _instance(g, "u^4*(1+w^2)", spec=spec).check(SamplingConfig())
    for name in ("H1", "H2", "H3", "H4", "NONEXIST"):
        c = report.conditions[name]
        assert c.verdict == "fail", name
        assert len(c.witness) == 3 and c.witness[0] in g.vertices, (name, c.witness)
        assert -1.0 <= c.witness[2] <= 1.0, (name, c.witness)
    # F_u u = 4u^4(1+w^2) > 2u^4 first shows at the radius 0.01 of the ladder
    assert report.conditions["H2"].witness == ("v0", 0.01, -1.0)
    # F / u^2 = 0.5 u^(-1) blows up at the origin
    f2 = _instance(g, "0.5*abs(u)").check(SamplingConfig()).conditions["F2"]
    assert f2.verdict == "fail"
    assert len(f2.witness) == 3 and f2.witness[0] in g.vertices


def test_lipschitz_screen_one_block_witness_is_a_pair():
    g = path_graph(2)
    inst = _instance(g, "u^4", spec=HypothesisSpec(d1=1e-3))
    h5 = lipschitz_screen(inst.nl, inst.spec, inst.spaces, SamplingConfig(), radius=1.0)
    assert h5.verdict == "fail"
    t1, t2, w = h5.witness
    assert max(abs(t1), abs(t2)) <= 1.0 and -1.0 <= w <= 1.0
