import dataclasses
import logging
import math
import os
import re
import sys

import numpy as np
import pytest

from grapde import _optim, solvers
from grapde._optim import polish_root
from grapde.calculus import OperatorOrder
from grapde.cli import _exit_code, to_json
from grapde.energy import ProblemInstance, Restriction, phi
from grapde.graph import WeightedGraph, complete_graph, graph_from_dict, integral, path_graph
from grapde.nonlinearity import HypothesisSpec, Nonlinearity, SamplingConfig, builtin
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
    trivial_norm,
    uniqueness_certificate,
)
from grapde.scalar import ScalarInstance
from grapde.spaces import w_norm

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "bench"))
import inputs  # noqa: E402  the benchmark's seeded graph generators


def _instance(g, F, coeffs=None, p=2.0, q=2.0, spec=None, w=0.0):
    nl = Nonlinearity.from_source(g, F, coeffs or {})
    return ProblemInstance(
        g, OperatorOrder(1, p), OperatorOrder(1, q), nl, spec or HypothesisSpec(), w
    )


def _saddle_instance(w=0.0):
    g = path_graph(2)
    prob = builtin("mp-example", g)
    return ProblemInstance(g, prob.ord1, prob.ord2, prob.nl, prob.spec, w)


# --- configuration surface -----------------------------------------------

def test_configuration_surface_is_tol_path_nodes_and_seed():
    # Every other sampling count is a module constant: no pipeline sets one.
    # path_nodes stays settable because criterion_06 solves with 81 nodes.
    # A new option needs a deliberate edit here.
    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["tol", "path_nodes", "seed"]
    assert [f.name for f in dataclasses.fields(SamplingConfig)] == ["seed"]


# --- negative endpoint ---------------------------------------------------

def test_negative_endpoint_uniform_over_grid():
    inst = _saddle_instance()
    u0, v0 = negative_endpoint(inst)
    for w in np.linspace(-1.0, 1.0, 21):
        assert phi(inst.at(w), (u0, v0)) < 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_saddle_polish_overflow_is_not_a_warning():
    # on the 16-path the trial points of the saddle search can overflow F
    g = path_graph(16)
    prob = builtin("mp-example", g)
    inst = ProblemInstance(g, prob.ord1, prob.ord2, prob.nl, prob.spec, 0.0)
    report = mountain_pass_solve(inst)
    assert report.converged


def test_newton_polish_steps_through_a_singular_jacobian():
    # p = 3: where u and its gradient vanish together the rows of the
    # Jacobian vanish (the v block is zero where u is), so the Newton step
    # there is the min-norm least-squares step
    g = path_graph(6)
    prob = builtin("mp-example", g)
    inst = ProblemInstance(g, prob.ord1, prob.ord2, prob.nl, prob.spec, 0.3)
    x0 = np.concatenate([[1.0, 0.5, 0.0, 0.0, 0.0, 0.0], np.zeros(6)])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(inst.jacobian(x0), inst.gradient(x0))
    res = polish_root(inst.gradient, x0, inst.weights, inst.jacobian)
    assert res.converged and res.message == "converged"
    assert inst.residual(res.x) <= 1e-8


def _k5_nonexistence_start():
    """The first multistart start of ``nonexistence_check`` on K5 mp-example (seed 0)."""
    g = complete_graph(5)
    prob = builtin("mp-example", g)
    inst = ProblemInstance(g, prob.ord1, prob.ord2, prob.nl, prob.spec, 0.0)
    rng = np.random.default_rng(0)
    for _ in range(100):  # the draws of the sign mechanism
        rng.standard_normal(inst.weights.size)
    return inst, rng.uniform(-2.0, 2.0, size=inst.weights.size)


def test_polish_root_is_newton_alone():
    inst, x0 = _k5_nonexistence_start()
    res = polish_root(inst.gradient, x0, inst.weights, inst.jacobian)
    assert not res.converged
    assert res.message == "max iterations" and res.iterations == _optim._MAX_NEWTON


def _newton_stack(case):
    """(instance, stack of starts, the message of each polish) of a lockstep-polish case."""
    if case == "K5":
        inst, k5_start = _k5_nonexistence_start()
        starts = np.random.default_rng(0).uniform(-2.0, 2.0, (24, inst.weights.size))
        X0 = np.stack([starts[1], k5_start, starts[18], np.full(k5_start.size, 1e200)])
        return inst, X0, ["converged", "max iterations", "line search stalled",
                          "non-finite residual"]
    # path-6: a singular Jacobian at the first start, min-norm steps for it alone
    g = path_graph(6)
    prob = builtin("mp-example", g)
    inst = ProblemInstance(g, prob.ord1, prob.ord2, prob.nl, prob.spec, 0.3)
    singular = np.concatenate([[1.0, 0.5, 0.0, 0.0, 0.0, 0.0], np.zeros(6)])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(inst.jacobian(singular), inst.gradient(singular))
    starts = np.random.default_rng(0).uniform(-2.0, 2.0, (3, inst.weights.size))
    X0 = np.stack([singular, starts[1], starts[2]])
    return inst, X0, ["converged", "line search stalled", "converged"]


@pytest.mark.parametrize("case", ["K5", "path-6"])
def test_stacked_polish_matches_one_polish_per_start(case):
    inst, X0, messages = _newton_stack(case)
    stacked = _optim.polish_roots(inst.gradient, X0, inst.weights, inst.jacobian)
    assert [r.message for r in stacked] == messages
    for x0, a in zip(X0, stacked):
        b = polish_root(inst.gradient, x0, inst.weights, inst.jacobian)
        assert a.x.tobytes() == b.x.tobytes()
        assert (a.residual, a.iterations, a.fevals, a.converged, a.message) == (
            b.residual, b.iterations, b.fevals, b.converged, b.message
        )


@pytest.mark.parametrize("case, messages", [
    ("K5", ["converged", "converged", "converged", "non-finite residual"]),
    ("path-6", ["converged", "damping limit", "converged"]),
])
def test_stacked_least_squares_polish_matches_one_polish_per_start(case, messages):
    inst, X0, _ = _newton_stack(case)
    stacked = _optim.least_squares_polish(inst.gradient, X0, inst.weights, inst.jacobian)
    assert [r.message for r in stacked] == messages
    for x0, a in zip(X0, stacked):
        b = _optim.least_squares_polish(inst.gradient, x0[None], inst.weights, inst.jacobian)[0]
        assert a.x.tobytes() == b.x.tobytes()
        assert (a.residual, a.iterations, a.fevals, a.converged, a.message) == (
            b.residual, b.iterations, b.fevals, b.converged, b.message
        )


def test_least_squares_polish_of_no_start_evaluates_nothing():
    def unreachable(x):
        raise AssertionError("evaluated")

    weights = np.ones(4)
    assert _optim.least_squares_polish(unreachable, np.zeros((0, 4)), weights, unreachable) == []


def test_least_squares_polish_without_a_root_ends_on_a_named_stop():
    # exp(t) > t rules out every critical point (see the nonexistence tests):
    # the damping grows until the polish gives up
    inst = _instance(path_graph(2), "exp(u)+exp(v)")
    X0 = np.random.default_rng(0).uniform(-2.0, 2.0, (3, inst.weights.size))
    for res in _optim.least_squares_polish(inst.gradient, X0, inst.weights, inst.jacobian):
        assert not res.converged and res.message == "damping limit"
        assert res.residual > 1.0 and 0 < res.iterations < _optim._MAX_LM


def test_non_finite_jacobian_stops_its_start_alone():
    # a stub Jacobian that is NaN at the second start, whose gradient is
    # finite: that start ends where it began, the others as they end alone
    inst, X0, _ = _newton_stack("K5")
    bad = X0[1]

    def jac(x):
        return np.where(np.all(x == bad, axis=-1)[..., None, None], np.nan, inst.jacobian(x))

    stacked = _optim.polish_roots(inst.gradient, X0[:3], inst.weights, jac)
    alone = polish_root(inst.gradient, bad, inst.weights, jac)
    for res in (stacked[1], alone):
        assert res.message == "non-finite Jacobian" and not res.converged
        assert res.x.tobytes() == bad.tobytes() and (res.iterations, res.fevals) == (0, 1)
    for x0, a in zip(X0[::2], stacked[::2]):
        b = polish_root(inst.gradient, x0, inst.weights, inst.jacobian)
        assert a.x.tobytes() == b.x.tobytes()
        assert (a.residual, a.iterations, a.fevals, a.converged, a.message) == (
            b.residual, b.iterations, b.fevals, b.converged, b.message
        )


def test_multistart_batches_give_the_same_report(monkeypatch):
    # K5 mp-example: converged starts and starts the least-squares fallback polishes
    inst, _ = _k5_nonexistence_start()
    whole = to_json(nonexistence_check(inst, multistart=5))
    n = inst.weights.size
    for per_batch in (1, 2):
        monkeypatch.setattr(_optim, "_POLISH_BATCH_BYTES", per_batch * 8 * n * n)
        assert to_json(nonexistence_check(inst, multistart=5)) == whole


def test_unconverged_polish_shows_the_path_deformation_flag(monkeypatch):
    # a saddle phase that ends without an accepted trial reports its peak,
    # flagged and not converged, after the phase's sweeps alone
    inst, peak = _k5_nonexistence_start()
    monkeypatch.setattr(solvers, "path_saddle", lambda *args, **kwargs: (peak, 7, 0, False))
    report = mountain_pass_solve(inst)
    assert not report.converged
    assert "path deformation did not reach coarse tolerance" in report.flags
    assert report.iterations == 7


def test_a_critical_peak_without_an_accepted_trial_is_not_converged(monkeypatch):
    # the phase can end at a peak that is a critical point which every trial
    # rejected: its residual is below tol, but accept never took it
    inst = _saddle_instance()
    root = mountain_pass_solve(inst).state.flat()
    monkeypatch.setattr(solvers, "path_saddle", lambda *args, **kwargs: (root, 7, 0, False))
    report = mountain_pass_solve(inst)
    assert report.residual <= 1e-8 and not report.converged
    assert _exit_code([report]) == 2


def _mp_example(graph, w=0.0):
    prob = builtin("mp-example", graph)
    return ProblemInstance(graph, prob.ord1, prob.ord2, prob.nl, prob.spec, w)


def _random_graph(n):
    return graph_from_dict(inputs.random_sparse(n, np.random.default_rng(1)))


def _random_12(seed):
    return graph_from_dict(inputs.random_sparse(12, np.random.default_rng(seed)))


@pytest.mark.parametrize("graph", (complete_graph(8), _random_12(4)), ids=("K8", "random-12-4"))
def test_cold_solve_without_an_accepted_trial_is_not_certified(graph):
    # no trial is accepted at w = 0; a Newton polish from the best peak
    # reached a root of Morse index 7 (K8) or 2 (seed 4), which was reported
    # converged and certified
    report = mountain_pass_solve(_mp_example(graph))
    assert not report.converged
    assert "path deformation did not reach coarse tolerance" in report.flags
    assert _exit_code([report]) == 2


@pytest.mark.parametrize(
    "graph", [complete_graph(8), *map(_random_12, range(1, 7))],
    ids=["K8", *(f"random-12-{s}" for s in range(1, 7))],
)
def test_converged_cold_mountain_pass_states_have_morse_index_1(graph):
    # test_mountain_pass_saddles_have_morse_index_1 covers path-2 and K5, where
    # every cold solve converges; here some solves accept no trial
    inst = _mp_example(graph)
    report = mountain_pass_solve(inst)
    assert not report.converged or inst.morse_index(report.state.flat()) == 1


def test_cold_mountain_pass_exit_is_logged(caplog):
    caplog.set_level(logging.INFO, logger="grapde")
    for n, line in ((5, "accepted trial"), (8, "no trial accepted")):
        caplog.clear()
        report = mountain_pass_solve(_mp_example(complete_graph(n)))
        assert [r.getMessage() for r in caplog.records] == [
            f"{line} after {report.iterations} sweeps"
        ]


def test_warm_polish_takes_few_gradient_calls():
    g = complete_graph(5)
    prob = builtin("mp-example", g)
    inst = ProblemInstance(g, prob.ord1, prob.ord2, prob.nl, prob.spec, 0.0)
    start = mountain_pass_solve(inst).state.flat()
    point = inst.at(0.1)
    calls = []

    def grad(x):
        calls.append(1)
        return point.gradient(x)

    res = polish_root(grad, start, point.weights, point.jacobian)
    assert res.converged and inst.norm(res.x) > 0.1
    assert len(calls) == res.fevals <= 10


def test_trivial_flag_scales_with_the_largest_exponent():
    # a 1e-6 spike: at p = 3 its gradient is of order 1e-12, so the residual
    # cannot tell it from zero and it is flagged; at p = 2 the gradient is of
    # order 1e-6 and the residual tells it from zero
    for p, flagged in ((3.0, True), (2.0, False)):
        inst = _instance(path_graph(2), "(u^2+v^2)^2", p=p, q=p)
        x = 1e-6 * inst.spike()
        report = solvers.solve_report(inst, x, "mountain-pass", 0, 0, SolverConfig())
        assert report.converged == flagged
        assert ("trivial" in report.flags) == flagged
    # the saddle on the 2-path is well away from zero and not flagged
    report = mountain_pass_solve(_saddle_instance())
    assert report.certificate.norm >= 0.1
    assert "trivial" not in report.flags


def test_negative_endpoint_impossible_for_zero_coupling():
    inst = _instance(path_graph(2), "0")
    with pytest.raises(SolverError, match="negative-energy endpoint"):
        negative_endpoint(inst)


def _endpoint_per_w(inst):
    """``negative_endpoint`` as it was written: the whole energy at every w, one w at a time."""
    ws = inst.spec.w_grid(solvers._W_GRID)
    t = 1.0
    for _ in range(solvers._MAX_DOUBLINGS):
        x = t * inst.spike()
        if all(inst.at(w).energy(x) < 0 for w in ws):
            return x
        t *= 2.0


@pytest.mark.parametrize(
    "graph", (path_graph(2), complete_graph(5), _random_graph(12)), ids=("path-2", "K5", "random")
)
def test_negative_endpoint_is_the_per_parameter_loop_bit_for_bit(graph):
    # the norm part of the energy is taken once per doubling and only the
    # integral of F per w; every energy and the endpoint stay bit for bit
    scalar = ScalarInstance(
        graph, OperatorOrder(1, 2.0), Nonlinearity.from_source(graph, "u^4*(1+w^2)"),
        HypothesisSpec(theta=4.0, c1=2.0, r1=4.0),
    )
    for inst in (_mp_example(graph), scalar):
        ws = inst.spec.w_grid(solvers._W_GRID)
        expected = _endpoint_per_w(inst)
        assert np.concatenate(negative_endpoint(inst)).tobytes() == expected.tobytes()
        for x in (0.5 * expected, expected):
            lazy = np.array(list(inst.energies(x, ws)))
            assert lazy.tobytes() == np.array([inst.at(w).energy(x) for w in ws]).tobytes()


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


def test_cold_saddle_on_the_16_path_at_w_minus_1_is_the_mountain_pass_point():
    # a 30-sweep stall let the path tunnel through the ridge to a near-zero
    # state here; the accepted Newton trial is the saddle itself
    g = path_graph(16)
    prob = builtin("mp-example", g)
    inst = ProblemInstance(g, prob.ord1, prob.ord2, prob.nl, prob.spec, -1.0)
    report = mountain_pass_solve(inst)
    assert report.converged and report.certificate.satisfied
    assert report.certificate.norm >= 0.1
    assert "trivial" not in report.flags
    assert inst.morse_index(report.state.flat()) == 1


@pytest.mark.parametrize("graph", (path_graph(2), complete_graph(5)), ids=("path-2", "K5"))
@pytest.mark.parametrize("w", (-1.0, 0.0))
def test_mountain_pass_saddles_have_morse_index_1(graph, w):
    prob = builtin("mp-example", graph)
    inst = ProblemInstance(graph, prob.ord1, prob.ord2, prob.nl, prob.spec, w)
    report = mountain_pass_solve(inst)
    assert report.converged
    assert inst.morse_index(report.state.flat()) == 1


def test_saddle_phase_rejects_critical_points_of_higher_index(monkeypatch):
    # on K5 at w = 0 a trial reaches a critical point of index 4 below the
    # path's peak energy before the mountain-pass point of index 1
    g = complete_graph(5)
    prob = builtin("mp-example", g)
    inst = ProblemInstance(g, prob.ord1, prob.ord2, prob.nl, prob.spec, 0.0)
    verdicts = []
    real = solvers.path_saddle

    def recording(f, grad, weights, endpoint, jac, accept, **kwargs):
        def recorded(x, peak_energy):
            ok = accept(x, peak_energy)
            verdicts.append((inst.energy(x), peak_energy, inst.morse_index(x), ok))
            return ok

        return real(f, grad, weights, endpoint, jac, recorded, **kwargs)

    monkeypatch.setattr(solvers, "path_saddle", recording)
    report = mountain_pass_solve(inst)
    rejected = [v for v in verdicts if v[2] == 4]
    assert rejected and all(e < peak and not ok for e, peak, _, ok in rejected)
    assert rejected[0][0] == pytest.approx(6.46e-3, rel=1e-3)
    assert verdicts[-1][2:] == (1, True)
    assert report.energy == pytest.approx(6.396e-3, rel=1e-3)


def test_cold_saddle_phase_on_k5_takes_few_sweeps(monkeypatch):
    # the 30-sweep stall rule ended this phase after 72 sweeps
    g = complete_graph(5)
    prob = builtin("mp-example", g)
    inst = ProblemInstance(g, prob.ord1, prob.ord2, prob.nl, prob.spec, 0.0)
    sweeps = []
    real = _optim._reparametrize

    def counting(path, weights):
        sweeps.append(1)
        return real(path, weights)

    monkeypatch.setattr(_optim, "_reparametrize", counting)
    report = mountain_pass_solve(inst)
    assert report.converged and "trivial" not in report.flags
    assert len(sweeps) <= 25


def test_stalled_path_saddle_returns_the_best_peak(monkeypatch):
    # one interior node at 1.0, then placed by a stubbed reparametrization;
    # the gradient is x, so its residual falls to 0.1 at the second sweep and
    # then stalls at 0.3
    sweep = iter([0.5, 0.1] + [0.3] * 40)
    monkeypatch.setattr(_optim, "_reparametrize", lambda path, weights: np.array(
        [[0.0], [next(sweep)], [2.0]]
    ))
    x, sweeps, _, ok = _optim.path_saddle(
        lambda x: -(x[..., 0] - 1.0) ** 2,
        lambda x: np.array(x, dtype=float),
        np.ones(1),
        np.array([2.0]),
        lambda x: np.eye(1),
        lambda x, peak_energy: False,
        n_nodes=3,
    )
    assert not ok and sweeps > 3
    assert x.tolist() == [0.1]


def test_saddle_trials_skip_the_index_of_a_rejected_root(monkeypatch):
    # K5 mp-example, w = 0: six of the eight trial roots are the same index-5
    # point (E = 0.3083), of which three are first rejected by the energy
    # test; the index is computed once per distinct root, and the report
    # is that of a solve that remembers no root
    g = complete_graph(5)
    prob = builtin("mp-example", g)
    inst = ProblemInstance(g, prob.ord1, prob.ord2, prob.nl, prob.spec, 0.0)
    calls = []
    index = ProblemInstance.morse_index

    def counted(self, x):
        calls.append(x)
        return index(self, x)

    monkeypatch.setattr(ProblemInstance, "morse_index", counted)
    report = to_json(mountain_pass_solve(inst))
    assert len(calls) == 3 and report["converged"]
    monkeypatch.setattr(solvers, "_SAME_ROOT", -1.0)  # no root is ever the same
    calls.clear()
    assert to_json(mountain_pass_solve(inst)) == report
    assert len(calls) == 5


# --- localized mountain-pass solve -------------------------------------

def _full_solve(inst, monkeypatch):
    """The cold solve on the whole graph: no ball is small enough to be tried."""
    with monkeypatch.context() as m:
        m.setattr(solvers, "_BALL_SHARE", 0.0)
        return mountain_pass_solve(inst)


def test_localized_solve_flags_its_ball():
    # path-100 at w = 0: the spike vertex is v0, the 8-hop ball's root fails
    # the whole-graph residual check, and the 16-hop ball's polish passes both
    report = mountain_pass_solve(_mp_example(path_graph(100)))
    assert report.converged
    assert report.flags == ("localized: 17 of 100 vertices",)


def test_localized_solve_is_the_full_solve_on_path_256(monkeypatch):
    inst = _mp_example(path_graph(256), 0.3)
    report = mountain_pass_solve(inst)
    full = _full_solve(inst, monkeypatch)
    assert report.flags == ("localized: 17 of 256 vertices",) and full.flags == ()
    x = report.state.flat()
    assert report.converged and inst.residual(x) <= SolverConfig().tol
    assert inst.morse_index(x) == 1
    assert report.energy == pytest.approx(full.energy, rel=1e-10)
    assert report.certificate.constants == full.certificate.constants
    assert report.certificate.satisfied


def test_ball_solve_on_path_1024_passes_the_whole_graph_checks():
    # only the ball solve: the full one takes seconds here
    inst = _mp_example(path_graph(1024), 0.3)
    report = mountain_pass_solve(inst)
    assert report.converged and report.flags == ("localized: 17 of 1024 vertices",)
    x = report.state.flat()
    assert inst.residual(x) <= SolverConfig().tol
    support = np.any(x.reshape(2, -1) != 0, axis=0)
    assert np.count_nonzero(support) <= 17
    assert Restriction(inst, support).full_index(x[np.tile(support, 2)]) == (1, 1024 - 19)
    # the same ball on the 256-path holds the same saddle
    small = mountain_pass_solve(_mp_example(path_graph(256), 0.3))
    assert report.energy == pytest.approx(small.energy, rel=1e-12)


def test_solve_without_a_passing_ball_is_the_full_solve(monkeypatch, caplog):
    # path-20: the 8-hop ball's root fails the residual check and the 16-hop
    # ball holds more than half the vertices, so the full solve runs, and its
    # report is the full solve's, field for field
    inst = _mp_example(path_graph(20))
    caplog.set_level(logging.INFO, logger="grapde")
    report = to_json(mountain_pass_solve(inst))
    assert any(r.getMessage().startswith("ball of 8 hops, 9 vertices") for r in caplog.records)
    assert report == to_json(_full_solve(inst, monkeypatch))
    assert report["converged"] and report["flags"] == []


def test_a_ball_whose_search_accepts_no_trial_gives_way_to_the_full_solve(monkeypatch):
    inst = _mp_example(path_graph(40))
    real = solvers.path_saddle
    sizes = []

    def failing_on_balls(f, grad, weights, *args, **kwargs):
        sizes.append(weights.size)
        if weights.size < inst.weights.size:
            return weights, 3, 0, False
        return real(f, grad, weights, *args, **kwargs)

    monkeypatch.setattr(solvers, "path_saddle", failing_on_balls)
    report = to_json(mountain_pass_solve(inst))
    assert sizes == [18, 80]  # the 8-hop ball's 9 vertices, then the whole graph
    monkeypatch.setattr(solvers, "path_saddle", real)
    assert report == to_json(_full_solve(inst, monkeypatch))


def test_a_ball_that_covers_its_component_stops_growing(monkeypatch):
    # the spike's component, a 10-path, lies beside a 30-path: once the ball
    # covers it, doubling the hops adds no vertex, and the full solve runs
    short, long = path_graph(10), path_graph(30)
    graph = WeightedGraph.build(
        [(f"a{k}", 1.0, 1.0, 1.0) for k in range(10)]
        + [(f"b{k}", 1.0, 1.0, 1.0) for k in range(30)],
        [(f"a{i}", f"a{j}", w) for i, j, w in short.edges]
        + [(f"b{i}", f"b{j}", w) for i, j, w in long.edges],
    )
    sizes = []
    real = Restriction.full_index

    def never_one(self, x):  # a check that no ball passes
        sizes.append(self.size)
        return 2, real(self, x)[1]

    monkeypatch.setattr(Restriction, "full_index", never_one)
    report = mountain_pass_solve(_mp_example(graph))
    assert sizes == [10] and report.converged and report.flags == ()


def test_path_saddle_succeeds_only_on_an_accepted_trial():
    # f = x^2/2 - x^4/4 on the path from 0 to 2: node 20 of 41 sits on the
    # saddle x = 1, so the peak residual is 0 at the first sweep; with every
    # trial rejected the phase must not report success
    x, _, _, ok = _optim.path_saddle(
        lambda x: x[..., 0] ** 2 / 2 - x[..., 0] ** 4 / 4,
        lambda x: x - x**3,
        np.ones(1),
        np.array([2.0]),
        lambda x: np.array([[1.0 - 3.0 * x[0] ** 2]]),
        lambda x, peak_energy: False,
        n_nodes=41,
    )
    assert not ok


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


def test_energy_level_bounds_name_a_nan_sample():
    # exp(-10^6 u) overflows for u < -7.1e-4, where F is inf - inf = NaN; the
    # box of radius 2^-8 reaches u = -2^-8, and there its finite samples stay
    # under eta (0.2 r < 0.0012, as in the hand value above)
    g = path_graph(2)
    F = "0.05*(u+v) + (exp(-1000000*u) - exp(-1000000*u))"
    inst = _instance(g, F, spec=HypothesisSpec(x0=g.vertices[0]))
    message = "F is NaN at a sample of the box of radius 0.00390625 at w = 0"
    with pytest.raises(CertificateError, match=f"^{re.escape(message)}$"):
        solvers.energy_level_bounds(inst, 0.02, 1.0)
    cert, flags = solvers.certify(bound_certificate_min, inst, 0.02, 1.0)
    assert cert is None and flags == (f"certificate unavailable: {message}",)


def test_energy_level_bounds_name_a_nan_start_energy():
    # at w = 1 exp(1000 w) overflows, so the start energy is inf - inf = NaN
    g = path_graph(2)
    F = "0.05*(u+v) + (exp(1000*w) - exp(1000*w))"
    inst = _instance(g, F, spec=HypothesisSpec(x0=g.vertices[0]), w=1.0)
    cert, flags = solvers.certify(bound_certificate_min, inst, 0.02, 1.0)
    assert cert is None and flags == ("certificate unavailable: the start energy is NaN at w = 1",)

def test_local_min_solve_quadratic_descends_to_origin():
    g = path_graph(2)
    spec = HypothesisSpec(theta=4.0, c1=1.0, c2=1.0, r1=4.0, r2=4.0, delta=1.0)
    inst = _instance(g, "0.05*(u^2+v^2)", spec=spec)
    report = local_min_solve(inst)
    assert report.converged
    assert "trivial" in report.flags
    assert "nonnegative energy at convergence" in report.flags


def test_builtin_local_min_example_fails_honestly():
    g = path_graph(2)
    prob = builtin("localmin-example", g)
    inst = ProblemInstance(g, prob.ord1, prob.ord2, prob.nl, prob.spec, 0.0)
    with pytest.raises(SolverError, match="margin not certifiable"):
        local_min_solve(inst)


def test_negative_energy_minimizer_has_morse_index_0():
    # criterion_05's instance: its unique critical point is a strict minimizer
    g = path_graph(2)
    spec = HypothesisSpec(delta=0.04, L=np.full(g.n, 2.5), x0=g.vertices[0], d1=0.01, d2=0.01)
    inst = _instance(g, "0.05*(u+v)", spec=spec)
    report = local_min_solve(inst)
    assert report.converged and report.energy < 0
    assert inst.morse_index(report.state.flat()) == 0


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
    report = uniqueness_certificate(inst)
    assert report.margin == pytest.approx(0.5 - 0.04)
    assert report.multistart_spread < 1e-6
    assert report.certified


def test_uniqueness_report_does_not_resample_the_monotonicity_lemma():
    # C_p = 2^(2-p) is a lemma for p >= 2 (criterion_10): at p = 12 a grid
    # check of it reads rounding noise beyond 1e-10 as a failure, so the
    # report carries no sampled flag of it
    g = path_graph(2)
    spec = HypothesisSpec(d1=1e-9, d2=1e-9, delta=1.0, x0=g.vertices[0], L=np.full(g.n, 1.0))
    report = to_json(uniqueness_certificate(_instance(g, "1e-7*(u+v)", p=12.0, q=12.0, spec=spec)))
    assert "monotonicity_ok" not in report and "monotonicity_min_slack" not in report
    assert report["C_p"] == 2.0 ** -10


def test_builtin_quadratic_example_not_certified():
    g = path_graph(2)
    prob = builtin("unique-example", g)
    inst = ProblemInstance(g, prob.ord1, prob.ord2, prob.nl, prob.spec, 0.0)
    report = uniqueness_certificate(inst)
    assert not report.certified
    assert report.margin < 0


def test_uniqueness_without_lipschitz_constants_is_inconclusive():
    g = path_graph(2)
    prob = builtin("unique-example", g)
    spec = dataclasses.replace(prob.spec, d1=None, d2=None)
    inst = ProblemInstance(g, prob.ord1, prob.ord2, prob.nl, spec, 0.0)
    report = uniqueness_certificate(inst)
    assert report.margin == -math.inf
    assert report.h5_verdict == "inconclusive"
    assert not report.certified
    assert "d1/d2 not provided; margin unavailable" in report.notes


def _criterion_05_instance():
    g = path_graph(2)
    spec = HypothesisSpec(delta=0.04, L=np.full(g.n, 2.5), x0=g.vertices[0], d1=0.01, d2=0.01)
    return _instance(g, "0.05*(u+v)", spec=spec)


@pytest.mark.parametrize("converging", (0, 1))
def test_uniqueness_needs_two_converged_minimizers(monkeypatch, converging):
    # a spread over fewer than two interior minimizers is 0 and shows nothing
    def polish(*args, **kwargs):
        results = _optim.polish_roots(*args, **kwargs)
        return [dataclasses.replace(res, converged=res.converged and k < converging)
                for k, res in enumerate(results)]

    monkeypatch.setattr(solvers, "polish_roots", polish)
    report = uniqueness_certificate(_criterion_05_instance())
    assert report.margin > 0 and report.h5_verdict == "pass (sampled)"
    assert report.multistart_spread == 0.0
    assert not report.certified
    assert report.notes[-1] == f"{converging} interior minimizers converged; agreement needs 2"


def test_uniqueness_polishes_its_starts_to_roots_in_one_newton_call(monkeypatch):
    # the contraction makes any two critical points in the ball coincide, so the
    # multistart polishes its starts to roots; a descent would find minima only
    polishes, descents = [], []

    def polish(grad, X0, *args, **kwargs):
        polishes.append(len(X0))
        return _optim.polish_roots(grad, X0, *args, **kwargs)

    def descent(*args, **kwargs):
        descents.append(args)
        return _optim.bb_minimize(*args, **kwargs)

    monkeypatch.setattr(solvers, "polish_roots", polish)
    monkeypatch.setattr(solvers, "bb_minimize", descent)
    report = uniqueness_certificate(_criterion_05_instance())
    assert polishes == [50]
    assert descents == []
    assert report.certified and report.multistart_spread < 1e-6


def test_uniqueness_without_a_ball_radius_is_not_certified(monkeypatch):
    def no_radius(inst):
        raise SolverError("no radius")

    monkeypatch.setattr(solvers, "ball_radius", no_radius)
    report = uniqueness_certificate(_criterion_05_instance())
    assert "multistart skipped: no radius" in report.notes
    assert not report.certified
    assert report.notes[-1] == "0 interior minimizers converged; agreement needs 2"


def test_uniqueness_certificate_computes_the_ball_radius_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return ball_radius(*args)

    monkeypatch.setattr(solvers, "ball_radius", counting)
    g = path_graph(2)
    prob = builtin("unique-example", g)
    inst = ProblemInstance(g, prob.ord1, prob.ord2, prob.nl, prob.spec, 0.0)
    report = uniqueness_certificate(inst)
    assert len(calls) == 1
    reason = "(F2) margin not certifiable: no ladder radius qualifies"
    assert report.notes == (
        f"ball radius for Lipschitz screen unavailable: {reason}",
        f"multistart skipped: {reason}",
    )


# --- nonexistence --------------------------------------------------------

def test_nonexistence_certified_for_sign_example():
    g = path_graph(2)
    prob = builtin("nonexist-example", g)
    inst = ProblemInstance(g, prob.ord1, prob.ord2, prob.nl, prob.spec, 0.0)
    report = nonexistence_check(inst, multistart=5)
    assert report.certified
    assert report.worst_pairing < 0
    assert report.multistart_max_norm == pytest.approx(0.0, abs=1e-6)


def test_nonexistence_is_refuted_by_a_nontrivial_multistart_root(monkeypatch):
    g = path_graph(2)
    prob = builtin("nonexist-example", g)
    inst = ProblemInstance(g, prob.ord1, prob.ord2, prob.nl, prob.spec, 0.0)

    def polish(*args, **kwargs):
        results = _optim.polish_roots(*args, **kwargs)
        results[0] = dataclasses.replace(results[0], x=np.ones_like(results[0].x), converged=True)
        return results

    monkeypatch.setattr(solvers, "polish_roots", polish)
    report = nonexistence_check(inst, multistart=3)
    assert report.sign_verdict == "pass (sampled)" and report.mechanism_ok
    assert report.multistart_max_norm > 1.0
    assert not report.certified
    assert report.notes[-1] == "1 of 3 multistart polishes reached a nontrivial critical point"


def test_nonexistence_rejects_saddle_example():
    inst = _saddle_instance()
    report = nonexistence_check(inst)
    assert not report.certified


def test_nonexistence_nan_mechanism_pairing_is_not_negative(monkeypatch):
    g = path_graph(2)
    prob = builtin("nonexist-example", g)
    inst = ProblemInstance(g, prob.ord1, prob.ord2, prob.nl, prob.spec, 0.0)
    # a NaN integral for every state of the stack
    monkeypatch.setattr(solvers, "integral", lambda graph, f: np.full(np.shape(f)[:-1], math.nan))
    report = nonexistence_check(inst)
    assert report.sign_verdict == "pass (sampled)"
    assert not report.mechanism_ok and not report.certified
    assert report.notes == ("100 mechanism pairings are NaN",)


def test_nonexistence_multistart_counts_trivial_states_as_zero():
    # localmin-example is 4-homogeneous: Newton reaches its only critical
    # point, the origin, linearly and stops at norm ~4e-3, below trivial_norm
    g = path_graph(2)
    prob = builtin("localmin-example", g)
    inst = ProblemInstance(g, prob.ord1, prob.ord2, prob.nl, prob.spec, 0.0)
    assert trivial_norm(inst, 1e-8) == pytest.approx(1e-7 ** (1 / 3))
    report = nonexistence_check(inst, multistart=3)
    assert report.multistart_max_norm == 0.0
    assert "3 of 3 multistart polishes reached the trivial solution" in report.notes


def test_nonexistence_multistart_retries_by_least_squares():
    # Newton alone stops short from two of the three starts on K5; the
    # Levenberg-Marquardt fallback (least_squares_polish) converges
    inst, _ = _k5_nonexistence_start()
    report = nonexistence_check(inst, multistart=3)
    assert not any("failed to converge" in note for note in report.notes)
    assert report.multistart_max_norm > 1.0


@pytest.mark.parametrize("builtin_name, stack", [("mp-example", 4), ("nonexist-example", 0)])
def test_nonexistence_polishes_its_short_starts_in_one_least_squares_call(
    monkeypatch, builtin_name, stack
):
    # the one stack holds each start that Newton leaves short, then Newton's
    # stopping point from it: two of the three starts on K5, none on path-2
    polishes, fallbacks = [], []

    def polish(*args, **kwargs):
        results = _optim.polish_roots(*args, **kwargs)
        polishes.append(list(results))
        return results

    def fallback(grad, X0, *args, **kwargs):
        fallbacks.append(X0)
        return _optim.least_squares_polish(grad, X0, *args, **kwargs)

    monkeypatch.setattr(solvers, "polish_roots", polish)
    monkeypatch.setattr(solvers, "least_squares_polish", fallback)
    g = complete_graph(5) if builtin_name == "mp-example" else path_graph(2)
    prob = builtin(builtin_name, g)
    inst = ProblemInstance(g, prob.ord1, prob.ord2, prob.nl, prob.spec, 0.0)
    nonexistence_check(inst, multistart=3)
    assert [len(X0) for X0 in fallbacks] == [stack]
    short = [res.x for res in polishes[0] if not res.converged]
    assert len(short) == stack // 2
    assert all(a.tobytes() == b.tobytes() for a, b in zip(fallbacks[0][stack // 2 :], short))


def test_nonexistence_multistart_failures_are_one_note():
    inst = _instance(path_graph(2), "exp(u)+exp(v)")
    report = nonexistence_check(inst, multistart=3)
    assert [note for note in report.notes if "failed to converge" in note] == [
        "3 of 3 multistart polishes failed to converge"
    ]


def test_nonexistence_multistart_without_convergence_reports_none():
    # exp(t) > t, so integrating -Delta u + u = exp(u) over the graph gives a
    # contradiction: there is no critical point, and no polish can converge
    inst = _instance(path_graph(2), "exp(u)+exp(v)")
    report = nonexistence_check(inst, multistart=2)
    assert report.multistart_max_norm is None
    assert "no multistart polish converged" in report.notes
