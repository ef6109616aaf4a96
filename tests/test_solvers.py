import math

import numpy as np
import pytest

from grapde.calculus import OperatorOrder
from grapde.energy import ProblemInstance, phi
from grapde.graph import integral, path_graph
from grapde.nonlinearity import HypothesisSpec, Nonlinearity, builtin
from grapde.solvers import (
    CertificateError,
    SolverConfig,
    SolverError,
    ball_radius,
    bound_certificate_min,
    bound_certificate_mp,
    local_min_solve,
    mountain_pass_solve,
    monotonicity_constant,
    negative_endpoint,
    nonexistence_check,
    state_norm,
    uniqueness_certificate,
)
from grapde.spaces import w_norm


def _instance(g, F, coeffs=None, p=2.0, q=2.0, spec=None, w=0.0):
    nl = Nonlinearity.from_source(g, F, coeffs or {})
    return ProblemInstance(
        g, OperatorOrder(1, p), OperatorOrder(1, q), nl, spec or HypothesisSpec(), w
    )


def _saddle_instance(w=0.0):
    g = path_graph(2)
    prob = builtin("mp-example", g)
    return ProblemInstance(g, prob.ord1, prob.ord2, prob.nl, prob.spec, w)


# --- negative endpoint ---------------------------------------------------

def test_negative_endpoint_uniform_over_grid():
    inst = _saddle_instance()
    u0, v0 = negative_endpoint(inst)
    for w in np.linspace(-1.0, 1.0, 21):
        assert phi(inst.at(w), (u0, v0)) < 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_saddle_polish_overflow_is_not_a_warning():
    # on the 16-path the hybr trial points of the saddle polish overflow F
    g = path_graph(16)
    prob = builtin("mp-example", g)
    inst = ProblemInstance(g, prob.ord1, prob.ord2, prob.nl, prob.spec, 0.0)
    report = mountain_pass_solve(inst)
    assert report.converged


def test_trivial_flag_scales_with_the_largest_exponent():
    # mp-example has p = 3: the cold saddle search on the 16-path at w = -1
    # converges to a state of norm ~6e-6, below the certificate's lower bound,
    # whose residual (gradient of order norm^2) cannot tell it from zero
    g = path_graph(16)
    prob = builtin("mp-example", g)
    inst = ProblemInstance(g, prob.ord1, prob.ord2, prob.nl, prob.spec, -1.0)
    report = mountain_pass_solve(inst)
    assert report.converged
    assert report.certificate.norm < report.certificate.lower
    assert "trivial" in report.flags
    # the saddle on the 2-path is well away from zero and not flagged
    report = mountain_pass_solve(_saddle_instance())
    assert report.certificate.norm >= 0.1
    assert "trivial" not in report.flags


def test_negative_endpoint_impossible_for_zero_coupling():
    inst = _instance(path_graph(2), "0")
    with pytest.raises(SolverError, match="negative-energy endpoint"):
        negative_endpoint(inst)


# --- mountain-pass certificate ------------------------------------------

def test_lower_bound_hand_value():
    # P2, p = q = 2, c1 = c2 = 1, r1 = r2 = 4, theta = 4: b = d = 1, vol = 2,
    # M = 1, A1 = A2 = min{(1/8)^(1/2), (1/4)^(1/2)} = 1/(2 sqrt 2)
    g = path_graph(2)
    spec = HypothesisSpec(theta=4.0, c1=1.0, c2=1.0, r1=4.0, r2=4.0)
    inst = _instance(g, "u^4+v^4", spec=spec)
    u0 = np.array([1.0, 0.0])
    cert = bound_certificate_mp(inst, (u0, u0))
    assert cert.lower == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)))


def test_upper_bound_hand_value():
    # same setup; endpoint norms ||u0||^2 = ||v0||^2 = 2 so E0 = 2 and
    # base = 2*4*2*2/(4-2) = 16, C2 = 4
    g = path_graph(2)
    spec = HypothesisSpec(theta=4.0, c1=1.0, c2=1.0, r1=4.0, r2=4.0)
    inst = _instance(g, "u^4+v^4", spec=spec)
    u0 = np.array([1.0, 0.0])
    cert = bound_certificate_mp(inst, (u0, u0))
    assert cert.upper == pytest.approx(4.0)


def test_certificate_requires_positive_gaps():
    g = path_graph(2)
    spec = HypothesisSpec(theta=2.0, c1=1.0, c2=1.0, r1=4.0, r2=4.0)
    inst = _instance(g, "u^4+v^4", spec=spec)
    u0 = np.array([1.0, 0.0])
    with pytest.raises(CertificateError, match="theta - p"):
        bound_certificate_mp(inst, (u0, u0))


def test_certificate_requires_constants():
    g = path_graph(2)
    inst = _instance(g, "u^4+v^4", spec=HypothesisSpec())
    u0 = np.array([1.0, 0.0])
    with pytest.raises(CertificateError, match="requires constants"):
        bound_certificate_mp(inst, (u0, u0))


def test_lower_bound_decreasing_in_growth_constant():
    g = path_graph(2)
    u0 = np.array([1.0, 0.0])
    lows = []
    for c in (1.0, 10.0):
        spec = HypothesisSpec(theta=4.0, c1=c, c2=c, r1=4.0, r2=4.0)
        inst = _instance(g, "u^4+v^4", spec=spec)
        lows.append(bound_certificate_mp(inst, (u0, u0)).lower)
    assert lows[1] < lows[0]


# --- mountain-pass solve -------------------------------------------------

def test_saddle_solve_builtin():
    inst = _saddle_instance()
    report = mountain_pass_solve(inst)
    assert report.converged
    assert report.residual <= 1e-8
    assert report.energy > 0
    assert "trivial" not in report.flags
    cert = report.certificate
    assert cert is not None and cert.satisfied
    assert cert.lower <= cert.norm <= cert.upper


def test_saddle_solve_satisfies_critical_identity():
    inst = _saddle_instance()
    report = mountain_pass_solve(inst)
    u = report.state.u.values
    v = report.state.v.values
    g = inst.graph
    lhs = w_norm(g, u, inst.space1) ** inst.p + w_norm(g, v, inst.space2) ** inst.q
    rhs = integral(
        g,
        inst.nl.values("Fu", u, v, inst.w) * u + inst.nl.values("Fv", u, v, inst.w) * v,
    )
    assert lhs == pytest.approx(rhs, rel=1e-8)


# --- certified ball and local minimum ------------------------------------

def test_ball_radius_full_for_zero_coupling():
    inst = _instance(path_graph(2), "0")
    assert ball_radius(inst) == 1.0


def test_ball_radius_shrinks_with_quadratic_floor():
    # F = 0.1(u^2+v^2) stays under the cap 0.225(t^2+s^2) at all scales
    inst = _instance(path_graph(2), "0.1*(u^2+v^2)")
    assert ball_radius(inst) == 1.0
    # a coupling above the cap at every scale is never certified
    bad = _instance(path_graph(2), "u^2+v^2")
    with pytest.raises(SolverError, match="margin not certifiable"):
        ball_radius(bad)


def test_ball_radius_requires_equal_exponents():
    inst = _instance(path_graph(2), "0", p=3.0, q=2.0)
    with pytest.raises(SolverError, match="p == q"):
        ball_radius(inst)


def test_builtin_quadratic_example_ball_not_certifiable():
    g = path_graph(2)
    prob = builtin("unique-example", g)
    inst = ProblemInstance(g, prob.ord1, prob.ord2, prob.nl, prob.spec, 0.0)
    with pytest.raises(SolverError, match="margin not certifiable"):
        ball_radius(inst)


def test_min_certificate_hand_value():
    # P2, p = q = 2, theta = 4, spike norms ||s||^2 = 2 each:
    # C4 = (4 * 2 * t0^2 * 4 / (2 * 2))^(1/2) = t0 * 2 sqrt 2
    g = path_graph(2)
    spec = HypothesisSpec(theta=4.0, c1=1.0, c2=1.0, r1=4.0, r2=4.0)
    inst = _instance(g, "0", spec=spec)
    cert = bound_certificate_min(inst, t0=0.25, rho=1.0)
    assert cert.upper == pytest.approx(0.25 * 2.0 * math.sqrt(2.0))
    assert cert.lower == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)))


def test_min_certificate_degenerate_note():
    g = path_graph(2)
    spec = HypothesisSpec(theta=4.0, c1=1.0, c2=1.0, r1=4.0, r2=4.0)
    inst = _instance(g, "0", spec=spec)
    cert = bound_certificate_min(inst, t0=1e-6, rho=1.0)
    assert any("degenerate" in n for n in cert.notes)


def test_ball_radius_allows_bounded_excess_over_cap():
    # F = 0.05(u+v) exceeds the cap 0.225(t^2+s^2) near the origin, but by at
    # most ~0.0028 per vertex: vol * E = 0.0056 < 0.1 * 2^-1 / 2 = 0.025 on the
    # unit sphere, so the energy stays positive there
    inst = _instance(path_graph(2), "0.05*(u+v)")
    assert ball_radius(inst) == 1.0


def test_min_certificate_energy_level_hand_value():
    # start 0.02 (spike, spike): Phi = 0.02^2 * 2 - 0.05 * 0.04 = -0.0012, and
    # vol * max F on the box of radius r is 0.2 r < 0.0012 first at r = 2^-8
    g = path_graph(2)
    inst = _instance(g, "0.05*(u+v)", spec=HypothesisSpec(x0=g.vertices[0]))
    cert = bound_certificate_min(inst, t0=0.02, rho=1.0)
    assert cert.upper == 1.0
    assert cert.lower == 2.0**-8
    assert cert.constants["start_energy"] == pytest.approx(-0.0012)


def test_local_min_solve_quadratic_descends_to_origin():
    g = path_graph(2)
    spec = HypothesisSpec(theta=4.0, c1=1.0, c2=1.0, r1=4.0, r2=4.0, delta=1.0)
    inst = _instance(g, "0.05*(u^2+v^2)", spec=spec)
    report = local_min_solve(inst, SolverConfig(w_grid=5))
    assert report.converged
    assert "trivial" in report.flags
    assert "nonnegative energy at convergence" in report.flags


def test_builtin_local_min_example_fails_honestly():
    g = path_graph(2)
    prob = builtin("localmin-example", g)
    inst = ProblemInstance(g, prob.ord1, prob.ord2, prob.nl, prob.spec, 0.0)
    with pytest.raises(SolverError, match="margin not certifiable"):
        local_min_solve(inst)


# --- uniqueness ----------------------------------------------------------

def test_monotonicity_constant_values():
    assert monotonicity_constant(2.0) == 1.0
    assert monotonicity_constant(4.0) == 0.25
    with pytest.raises(ValueError):
        monotonicity_constant(1.5)


def test_monotonicity_inequality_tight_at_antipodes():
    # p = 4: equality (up to the grid) at y = -x
    p = 4.0
    cp = monotonicity_constant(p)
    x = 1.3
    lhs = (abs(x) ** 2 * x - abs(-x) ** 2 * (-x)) * (2 * x)
    rhs = cp * (2 * x) ** p
    assert lhs == pytest.approx(rhs)


def test_uniqueness_certified_for_small_quadratic():
    g = path_graph(2)
    spec = HypothesisSpec(
        theta=4.0, c1=1.0, c2=1.0, r1=4.0, r2=4.0,
        d1=0.02, d2=0.02, L=0.1, delta=1.0,
    )
    inst = _instance(g, "0.01*(u^2+v^2)", spec=spec)
    report = uniqueness_certificate(inst, SolverConfig(multistart=8, w_grid=5))
    assert report.monotonicity_ok
    assert report.margin == pytest.approx(0.5 - 0.04)
    assert report.multistart_spread < 1e-6
    assert report.certified


def test_builtin_quadratic_example_not_certified():
    g = path_graph(2)
    prob = builtin("unique-example", g)
    inst = ProblemInstance(g, prob.ord1, prob.ord2, prob.nl, prob.spec, 0.0)
    report = uniqueness_certificate(inst, SolverConfig(multistart=4, w_grid=5))
    assert not report.certified
    assert report.margin < 0


# --- nonexistence --------------------------------------------------------

def test_nonexistence_certified_for_sign_example():
    g = path_graph(2)
    prob = builtin("nonexist-example", g)
    inst = ProblemInstance(g, prob.ord1, prob.ord2, prob.nl, prob.spec, 0.0)
    report = nonexistence_check(inst, multistart=5)
    assert report.certified
    assert report.worst_pairing < 0
    assert report.multistart_max_norm == pytest.approx(0.0, abs=1e-6)


def test_nonexistence_rejects_saddle_example():
    inst = _saddle_instance()
    report = nonexistence_check(inst)
    assert not report.certified


def test_nonexistence_multistart_without_convergence_reports_none():
    # exp(t) > t, so integrating -Delta u + u = exp(u) over the graph gives a
    # contradiction: there is no critical point, and no polish can converge
    inst = _instance(path_graph(2), "exp(u)+exp(v)")
    report = nonexistence_check(inst, multistart=2)
    assert report.multistart_max_norm is None
    assert "no multistart polish converged" in report.notes
