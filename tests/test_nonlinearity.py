import math

import numpy as np
import pytest

from grapde import nonlinearity
from grapde.calculus import OperatorOrder
from grapde.graph import complete_graph, path_graph
from grapde.nonlinearity import (
    BUILTIN_NAMES,
    HypothesisSpec,
    Nonlinearity,
    NonlinearityError,
    SamplingConfig,
    builtin,
    check_hypotheses,
    lipschitz_screen,
    sign_screen,
)
from grapde.spaces import SpaceSpec


def test_eval_quartic_at_unit_point():
    g = path_graph(2)
    nl = Nonlinearity.from_source(g, "(u^2+v^2)^2*(1+w^2)*abs(gamma)", {"gamma": 1.0})
    assert nl.eval("F", "v0", 1.0, 0.0, 0.0) == pytest.approx(1.0)


def test_eval_accepts_index_or_id():
    g = path_graph(2)
    nl = Nonlinearity.from_source(g, "gamma*u", {"gamma": np.array([2.0, 5.0])})
    assert nl.eval("F", 1, 1.0, 0.0, 0.0) == 5.0
    assert nl.eval("F", "v1", 1.0, 0.0, 0.0) == 5.0


def test_grid_values_match_pointwise_eval():
    g = path_graph(3)
    nl = Nonlinearity.from_source(g, "gamma*u^2*v+w", {"gamma": np.array([2.0, 5.0, -1.0])})
    t, s = np.meshgrid(np.linspace(-1, 1, 4), np.linspace(-2, 2, 3), indexing="ij")
    table = nl.grid_values("F", t, s, 0.5)
    assert table.shape == (3, 4, 3)
    for i in range(g.n):
        assert np.allclose(table[i], nl.eval("F", i, t, s, 0.5))
    # a constant still yields one value per vertex and sample point
    assert Nonlinearity.from_source(g, "0", {}).grid_values("F", t, 0.0, 0.0).shape == (3, 4, 3)


def test_partials_are_symbolic_derivatives():
    g = path_graph(2)
    nl = Nonlinearity.from_source(g, "(u^2+v^2)^2*(1+w^2)*abs(gamma)", {"gamma": 1.0})
    # F_u = 4u(u^2+v^2)(1+w^2)|gamma|
    assert nl.eval("Fu", 0, 1.0, 1.0, 0.0) == pytest.approx(8.0)
    assert nl.eval("Fv", 0, 1.0, 1.0, 0.0) == pytest.approx(8.0)


def test_missing_coefficient_rejected():
    g = path_graph(2)
    with pytest.raises(NonlinearityError, match="gamma"):
        Nonlinearity.from_source(g, "gamma*u", {})


def test_coefficient_table_from_map():
    g = path_graph(2)
    nl = Nonlinearity.from_source(g, "gamma*u", {"gamma": {"v0": 1.0, "v1": 3.0}})
    assert nl.eval("F", "v1", 2.0, 0.0, 0.0) == 6.0


def test_builtin_unknown_name():
    g = path_graph(2)
    with pytest.raises(NonlinearityError, match="unknown builtin"):
        builtin("nope", g)


def test_builtin_names_constructible():
    g = path_graph(2)
    for name in BUILTIN_NAMES:
        prob = builtin(name, g)
        assert prob.nl.eval("F", 0, 0.5, 0.5, 0.5) is not None


def test_builtin_saddle_example_constants():
    g = path_graph(2)
    prob = builtin("mp-example", g)
    assert (prob.p, prob.q) == (3.0, 2.0)
    assert prob.spec.theta == 4.0
    assert prob.spec.r1 == prob.spec.r2 == 4.0
    assert prob.spec.c1 == prob.spec.c2 == 16.0


def test_builtin_quadratic_example_constants():
    g = path_graph(2)
    prob = builtin("unique-example", g)
    # e* = 0.9 * min{1/(p K1^p), 1/(q K2^q)} = 0.9/4 on this graph
    assert prob.p == prob.q == 2.0
    e_star = 0.9 / 4.0
    assert prob.spec.d1 == pytest.approx(4.0 * e_star)
    assert prob.nl.eval("F", 0, 1.0, 0.0, 0.0) == pytest.approx(e_star)


def test_builtin_sign_example_partial():
    g = path_graph(2)
    prob = builtin("nonexist-example", g)
    # vertex v0 carries coefficient 1: F_u(1, w) = -atan(1) = -pi/4
    assert prob.nl.eval("Fu", "v0", 1.0, 0.0, 0.3) == pytest.approx(-math.pi / 4)
    # vertex v1 carries coefficient 2
    assert prob.nl.eval("Fu", "v1", 1.0, 0.0, 0.3) == pytest.approx(-math.pi / 2)


def test_screening_saddle_example():
    g = path_graph(2)
    prob = builtin("mp-example", g)
    report = check_hypotheses(prob.nl, prob.spec, g, 3.0, 2.0)
    for name in ("F1", "F2", "H1", "H2", "H3"):
        assert report.conditions[name].verdict in ("pass", "pass (sampled)"), name
    assert report.conditions["NONEXIST"].verdict == "fail"


def test_screening_sign_example():
    g = path_graph(2)
    prob = builtin("nonexist-example", g)
    report = check_hypotheses(prob.nl, prob.spec, g, 2.0, 2.0)
    assert report.conditions["NONEXIST"].verdict == "pass (sampled)"
    assert report.conditions["F1"].verdict == "pass"


def test_screening_zero_function_positivity_floor():
    g = path_graph(2)
    nl = Nonlinearity.from_source(g, "0", {})
    spec = HypothesisSpec(a_floor=lambda r: r**4, c_fn=np.ones(2))
    report = check_hypotheses(nl, spec, g, 2.0, 2.0)
    assert report.conditions["H3"].verdict == "fail"


def test_screening_limits_are_only_sampled():
    g = path_graph(2)
    prob = builtin("mp-example", g)
    report = check_hypotheses(prob.nl, prob.spec, g, 3.0, 2.0)
    assert report.conditions["F2"].verdict != "pass"  # at best "pass (sampled)"


def test_screening_missing_constants_inconclusive():
    g = path_graph(2)
    nl = Nonlinearity.from_source(g, "u^4+v^4", {})
    spec = HypothesisSpec()
    report = check_hypotheses(nl, spec, g, 2.0, 2.0)
    for name in ("H1", "H2", "H3", "H4", "H5", "F4"):
        assert report.conditions[name].verdict == "inconclusive"


def test_screening_outside_the_coupling_domain_is_inconclusive():
    # sqrt(u) is undefined at the negative samples of every sphere and of the
    # sign box; the origin alone is in the domain
    g = path_graph(2)
    nl = Nonlinearity.from_source(g, "u^4*sqrt(u)", {})
    spec = HypothesisSpec(theta=5.0, c1=1.0, c2=1.0, r1=5.0, r2=5.0)
    report = check_hypotheses(nl, spec, g, 2.0, 2.0)
    assert report.conditions["F1"].verdict == "pass"
    for name in ("F2", "F3", "H1", "H2", "NONEXIST"):
        condition = report.conditions[name]
        assert condition.verdict == "inconclusive"
        assert condition.detail == "sqrt of a negative value in 'sqrt(u)'"


def test_screening_reports_the_first_failing_radius_before_a_later_domain_error():
    # sqrt(100 - u) is undefined from radius 1000 on; (H1) and (H2) fail at
    # radius 1e-3, before any sphere reaches it, and the screens that need
    # every radius meet the domain error
    g = path_graph(2)
    nl = Nonlinearity.from_source(g, "u^2+v^2+sqrt(100-u)", {})
    spec = HypothesisSpec(
        theta=4.0, c1=1.0, c2=1.0, r1=3.0, r2=3.0, a_floor=lambda r: r**2, c_fn=np.ones(2)
    )
    report = check_hypotheses(nl, spec, g, 2.0, 2.0)
    point = ("v0", -1e-3, 1e-3 * np.sin(np.pi), -1.0)  # radius 1e-3 at angle pi, w = -1
    for name in ("H1", "H2"):
        assert report.conditions[name].verdict == "fail"
        assert report.conditions[name].witness == point
    for name in ("F3", "H3"):
        assert report.conditions[name].verdict == "inconclusive"
        assert report.conditions[name].detail == "sqrt of a negative value in 'sqrt(100 - u)'"


def test_screening_reports_the_domain_error_of_the_first_w():
    # at w = -1, log(w + 0.9) fails first; sqrt(0.5 - w) fails from w = 0.5 on
    g = path_graph(2)
    nl = Nonlinearity.from_source(g, "sqrt(0.5 - w) + log(w + 0.9) + u^2", {})
    spec = HypothesisSpec(theta=4.0, a_floor=lambda r: r**2, c_fn=np.ones(2))
    report = check_hypotheses(nl, spec, g, 2.0, 2.0)
    for name in ("F1", "F2", "F3", "H1", "H3"):
        assert report.conditions[name].detail == "log of a non-positive value in 'log(w + 0.9)'"


def test_screening_nan_at_one_radius_does_not_hide_an_invalid_power_at_another():
    # the base is -1 at small radii (an invalid power) and inf - inf = NaN
    # where exp(u^4) overflows; the power's guard skips a base holding a NaN,
    # so the small radii must not be screened together with the large ones
    g = path_graph(2)
    nl = Nonlinearity.from_source(g, "(exp(u^4)-exp(u^4)-1)^0.5 + u^2", {})
    spec = HypothesisSpec(
        theta=4.0, c1=1.0, c2=1.0, r1=3.0, r2=3.0, a_floor=lambda r: r**2, c_fn=np.ones(2)
    )
    report = check_hypotheses(nl, spec, g, 2.0, 2.0)
    for name in ("H1", "H2", "H3"):
        assert report.conditions[name].verdict == "inconclusive"
        assert report.conditions[name].detail.startswith("invalid power in ")


@pytest.mark.parametrize("cap", [1, 8 * 5 * 32 * 8], ids=["rung", "radius"])
def test_screening_batches_give_the_report_of_one_batch(monkeypatch, cap):
    # a cap of one byte screens every (radius, w) rung alone; 8 * 5 * 32 * 8,
    # the bytes of one radius of a two-block sphere on K5, every radius alone
    g = complete_graph(5)
    reports = {}
    for name in BUILTIN_NAMES:
        prob = builtin(name, g)
        args = (prob.nl, prob.spec, g, prob.p, prob.q)
        reports[name] = repr(check_hypotheses(*args, ord1=prob.ord1, ord2=prob.ord2))
    monkeypatch.setattr(nonlinearity, "_SCREEN_BATCH_BYTES", cap)
    for name in BUILTIN_NAMES:
        prob = builtin(name, g)
        args = (prob.nl, prob.spec, g, prob.p, prob.q)
        assert repr(check_hypotheses(*args, ord1=prob.ord1, ord2=prob.ord2)) == reports[name]


def test_screening_h1_failure_witness():
    g = path_graph(2)
    nl = Nonlinearity.from_source(g, "u^2+v^2", {})
    spec = HypothesisSpec(theta=4.0)  # 4F > 2F at nonzero points
    report = check_hypotheses(nl, spec, g, 2.0, 2.0)
    assert report.conditions["H1"].verdict == "fail"
    assert report.conditions["H1"].witness is not None


def test_f1_requires_vanishing_origin():
    g = path_graph(2)
    nl = Nonlinearity.from_source(g, "1+u^2", {})
    report = check_hypotheses(nl, HypothesisSpec(), g, 2.0, 2.0)
    assert report.conditions["F1"].verdict == "fail"


def test_quadratic_example_h5_passes():
    g = path_graph(2)
    prob = builtin("unique-example", g)
    spaces = (SpaceSpec(prob.ord1, "h1"), SpaceSpec(prob.ord2, "h2"))
    h5 = lipschitz_screen(prob.nl, prob.spec, g, spaces, SamplingConfig(), radius=0.5)
    assert h5.verdict == "pass (sampled)"


def test_sign_screen_failure_witness_skips_nan_pairings():
    # F_u t = 2t^2 + exp(t^4) 4t^4 - exp(t^4) 4t^4 is 2t^2 up to |t| = 2.4, 0
    # once exp(t^4) absorbs 2t, and inf - inf = NaN where exp(t^4) overflows
    # (|t| > 5.2): the witness is the largest finite pairing, not a NaN
    g = path_graph(2)
    nl = Nonlinearity.from_source(g, "u^2 + exp(u^4) - exp(u^4)", {})
    screen = sign_screen(nl, HypothesisSpec(), g, 1)
    assert screen.verdict == "fail"
    vertex, t, w = screen.witness
    assert (vertex, w) == ("v0", -1.0) and t == pytest.approx(-10.0 + 24 * 20.0 / 63)


# exp(1000 w) overflows for w > 0.71, so inf - inf = NaN at the top two of the
# eight screened w; exp(-1000 w) does the same at the bottom two
_NAN_AT_TOP_W = "(exp(1000*w) - exp(1000*w))"
_NAN_AT_BOTTOM_W = "(exp(-1000*w) - exp(-1000*w))"
_W_TOP = 5 / 7  # the first NaN w of the grid -1, -5/7, ..., 1


def test_screening_nan_samples_are_no_evidence():
    g = path_graph(2)
    nl = Nonlinearity.from_source(g, f"(u^2+v^2)^2 + {_NAN_AT_TOP_W}", {})
    spec = HypothesisSpec(theta=4.0, c1=16.0, c2=16.0, r1=4.0, r2=4.0,
                          a_floor=lambda r: r**4, c_fn=np.ones(g.n))
    report = check_hypotheses(nl, spec, g, 3.0, 3.0)
    f1 = report.conditions["F1"]
    assert (f1.verdict, f1.witness) == ("inconclusive", ("v0", pytest.approx(_W_TOP)))
    for name in ("H1", "H3"):
        cond = report.conditions[name]
        assert cond.verdict == "inconclusive" and cond.detail == "a sample is NaN at the witness"
        assert cond.witness[0] == "v0" and cond.witness[-1] == pytest.approx(_W_TOP)
    # the partials hold no NaN: the radial pairing 4 F is finite everywhere
    assert report.conditions["H2"].verdict == "pass (sampled)"


def test_screening_a_failing_sample_outranks_an_earlier_nan():
    # 5 F > 4 F = radial pairing at every sample; the first two w are NaN
    g = path_graph(2)
    nl = Nonlinearity.from_source(g, f"(u^2+v^2)^2 + {_NAN_AT_BOTTOM_W}", {})
    report = check_hypotheses(nl, HypothesisSpec(theta=5.0), g, 3.0, 3.0)
    h1 = report.conditions["H1"]
    assert h1.verdict == "fail" and h1.witness[-1] == pytest.approx(-3 / 7)
    assert report.conditions["F1"].verdict == "inconclusive"


def test_h5_nan_jumps_are_no_evidence():
    g = path_graph(2)
    nl = Nonlinearity.from_source(g, f"u^2*{_NAN_AT_TOP_W} + v^4", {})
    spaces = (SpaceSpec(OperatorOrder(1, 2.0), "h1"), SpaceSpec(OperatorOrder(1, 2.0), "h2"))
    h5 = lipschitz_screen(nl, HypothesisSpec(d1=100.0, d2=100.0), g, spaces, SamplingConfig())
    assert h5.verdict == "inconclusive"
    assert h5.witness[-1] == pytest.approx(_W_TOP)


def test_h4_nan_spike_values_are_no_evidence():
    # F = 4 a^4 at the spike (a, a), above the floor L a^4 wherever it is not NaN
    g = path_graph(2)
    nl = Nonlinearity.from_source(g, f"(u^2+v^2)^2 + {_NAN_AT_TOP_W}", {})
    spec = HypothesisSpec(L=np.full(g.n, 1.0), x0="v0", delta=0.5)
    h4 = check_hypotheses(nl, spec, g, 4.0, 4.0).conditions["H4"]
    assert h4.verdict == "inconclusive" and h4.detail == "F is NaN at the witness"
    vertex, amp, w = h4.witness
    assert vertex == "v0" and amp == pytest.approx(0.5 / 17) and w == pytest.approx(_W_TOP)
    clean = Nonlinearity.from_source(g, "(u^2+v^2)^2", {})
    assert check_hypotheses(clean, spec, g, 4.0, 4.0).conditions["H4"].verdict == "pass (sampled)"


def test_h1_witness_is_a_failing_sample_beside_nan_samples():
    # F = r^3 - r^2 + (exp(u^4) - exp(u^4)) with r^2 = u^2 + v^2: NaN where
    # exp(u^4) overflows, and 4F > radial pairing 3r^3 - 2r^2 once r > 2;
    # radius 10 holds both, and the witness must be one of its failing points
    g = path_graph(2)
    nl = Nonlinearity.from_source(g, "(u^2+v^2)^1.5 - (u^2+v^2) + (exp(u^4) - exp(u^4))", {})
    h1 = check_hypotheses(nl, HypothesisSpec(theta=4.0), g, 2.0, 2.0).conditions["H1"]
    assert h1.verdict == "fail"
    vertex, t, s, w = h1.witness
    assert w == -1.0 and math.hypot(t, s) == pytest.approx(10.0)
    theta_f = 4.0 * nl.eval("F", vertex, t, s, w)
    pairing = nl.eval("Fu", vertex, t, s, w) * t + nl.eval("Fv", vertex, t, s, w) * s
    assert theta_f == pytest.approx(3600.0) and pairing == pytest.approx(2800.0)


def test_h4_witness_is_the_first_failing_w():
    # F = 4 a^4 (1 + w) at the spike (a, a) falls below L a^4 = 2 a^4 for
    # w < -1/2: at w = -1 and w = -5/7 of the grid; the first one is the witness
    g = path_graph(2)
    nl = Nonlinearity.from_source(g, "(u^2+v^2)^2*(1+w)", {})
    spec = HypothesisSpec(L=np.full(g.n, 2.0), x0="v0", delta=0.5)
    h4 = check_hypotheses(nl, spec, g, 4.0, 4.0).conditions["H4"]
    assert h4.verdict == "fail"
    assert h4.witness == ("v0", pytest.approx(0.5 / 17), -1.0)


def test_sign_screen_stops_at_the_first_failing_w(monkeypatch):
    # the pairing 4F of mp-example is >= 0 everywhere: the first w fails, and
    # the screen evaluates F_u and F_v there only
    g = path_graph(2)
    prob = builtin("mp-example", g)
    calls = []
    real = Nonlinearity.block_values

    def counting(self, which, coords, w_val):
        calls.append((which, w_val))
        return real(self, which, coords, w_val)

    monkeypatch.setattr(Nonlinearity, "block_values", counting)
    screen = sign_screen(prob.nl, prob.spec, g, 2)
    assert screen.verdict == "fail" and screen.witness[-1] == -1.0
    assert calls == [("Fu", -1.0), ("Fv", -1.0)]


def test_hypothesis_spec_interval_validated():
    with pytest.raises(ValueError):
        HypothesisSpec(J=(1.0, 0.0))
    with pytest.raises(ValueError):
        HypothesisSpec(J=(0.0, math.inf))
