import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grapde.expressions import (
    Bin,
    Call,
    Coeff,
    EvalDomainError,
    Neg,
    Num,
    ParseError,
    Var,
    coefficient_names,
    differentiate,
    evaluate,
    parse_expr,
    to_source,
)


def test_parse_literal_zero():
    assert parse_expr("0") == Num(0.0)


def test_parse_quartic_coupling():
    e = parse_expr("(u^2+v^2)^2*(1+w^2)*abs(gamma)")
    val = evaluate(e, {"u": 1.0, "v": 2.0, "w": 3.0, "gamma": -2.0})
    assert val == pytest.approx((1 + 4) ** 2 * (1 + 9) * 2)


def test_parse_malformed():
    with pytest.raises(ParseError):
        parse_expr("u^")
    with pytest.raises(ParseError):
        parse_expr("(u+v")
    with pytest.raises(ParseError):
        parse_expr("u @ v")
    with pytest.raises(ParseError):
        parse_expr("")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_expr("u +\n+ v")
    assert err.value.line == 2


def test_unknown_identifier_x_rejected():
    with pytest.raises(ParseError, match="coordinate"):
        parse_expr("x + u")


def test_coefficient_call_syntax():
    assert parse_expr("gamma(x)") == parse_expr("gamma") == Coeff("gamma")


def test_precedence_mul_over_add():
    assert parse_expr("1 + 2*3") == Bin("+", Num(1.0), Bin("*", Num(2.0), Num(3.0)))


def test_power_right_associative():
    e = parse_expr("2^3^2")
    assert evaluate(e, {}) == 512.0


def test_unary_minus_binds_inside_power():
    # the grammar makes the base of '^' a unary: -u^2 is (-u)^2
    e = parse_expr("-u^2")
    assert evaluate(e, {"u": 3.0}) == 9.0
    e2 = parse_expr("-(u^2)")
    assert evaluate(e2, {"u": 3.0}) == -9.0


def test_division():
    assert evaluate(parse_expr("u/4"), {"u": 2.0}) == 0.5


def test_derivative_of_quartic_coupling():
    F = parse_expr("(u^2+v^2)^2*(1+w^2)*abs(gamma)")
    Fu = differentiate(F, "u")
    expected = parse_expr("4*u*(u^2+v^2)*(1+w^2)*abs(gamma)")
    rng = np.random.default_rng(0)
    for _ in range(25):
        env = {
            "u": float(rng.normal()),
            "v": float(rng.normal()),
            "w": float(rng.normal()),
            "gamma": float(rng.normal()),
        }
        assert evaluate(Fu, env) == pytest.approx(evaluate(expected, env), rel=1e-12)


def test_derivative_wrt_absent_variable():
    assert differentiate(parse_expr("v^3"), "u") == Num(0.0)


def test_derivative_of_quadratic_coupling():
    F = parse_expr("estar*(u^2+v^2)*(1+w^2)*abs(gamma)")
    Fv = differentiate(F, "v")
    expected = parse_expr("2*v*estar*(1+w^2)*abs(gamma)")
    env = {"u": 0.3, "v": -1.2, "w": 0.7, "estar": 0.9, "gamma": 1.1}
    assert evaluate(Fv, env) == pytest.approx(evaluate(expected, env), rel=1e-12)


def test_abs_derivative_is_sign():
    d = differentiate(parse_expr("abs(u)"), "u")
    assert evaluate(d, {"u": -2.0}) == -1.0
    assert evaluate(d, {"u": 0.0}) == 0.0


def test_derivative_var_not_allowed():
    with pytest.raises(ValueError):
        differentiate(parse_expr("u"), "z")


_SOURCES = [
    "u", "v", "w", "0", "1.5", "gamma", "u + v*w", "u^2^3", "-u", "-(u+v)",
    "sin(u) + cos(v)*exp(w)", "abs(gamma)*u^4", "u/(1+v^2)", "sqrt(abs(u))",
    "atan(u)*log(2+w^2)", "(u^2+v^2)^2*(1+w^2)*abs(gamma)",
]


@pytest.mark.parametrize("src", _SOURCES)
def test_roundtrip_named_sources(src):
    e = parse_expr(src)
    assert parse_expr(to_source(e)) == e


_leaf = st.one_of(
    st.integers(0, 9).map(lambda k: Num(float(k))),
    st.sampled_from(["u", "v", "w"]).map(Var),
    st.sampled_from(["gamma", "zed", "c0"]).map(Coeff),
)


def _exprs(leaf):
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from("+-*/^"), leaf, leaf).map(lambda t: Bin(*t)),
        leaf.map(Neg),
        st.tuples(st.sampled_from(["abs", "sin", "cos", "exp", "atan"]), leaf).map(
            lambda t: Call(*t)
        ),
    )


@settings(max_examples=200, deadline=None)
@given(st.recursive(_leaf, _exprs, max_leaves=12))
def test_roundtrip_random_asts(e):
    assert parse_expr(to_source(e)) == e


@settings(max_examples=60, deadline=None)
@given(st.recursive(_leaf, _exprs, max_leaves=10), st.sampled_from(["u", "v", "w"]))
@example(Bin("^", Num(0.0), Num(0.0)), "u")
@example(Bin("+", Var("u"), Bin("^", Num(6.0), Num(9.0))), "u")
def test_derivative_matches_finite_difference(e, var):
    # The central difference is taken in extended precision: in float64 the
    # rounding of u + 6^9 alone shifts it by 2.4e-4, past the tolerance.
    d = differentiate(e, var)
    rng = np.random.default_rng(7)
    h = np.longdouble(1e-6)
    checked = 0
    for _ in range(20):
        env = {
            "u": float(rng.uniform(0.3, 1.7)),
            "v": float(rng.uniform(0.3, 1.7)),
            "w": float(rng.uniform(0.3, 1.7)),
            "gamma": 1.3, "zed": 0.8, "c0": 2.1,
        }
        try:
            with np.errstate(over="ignore"):
                lo = dict(env, **{var: np.longdouble(env[var]) - h})
                hi = dict(env, **{var: np.longdouble(env[var]) + h})
                fd = float((evaluate(e, hi) - evaluate(e, lo)) / (2 * h))
            exact = evaluate(d, env)
        except (EvalDomainError, OverflowError):
            continue
        if not (np.isfinite(fd) and np.isfinite(exact)):
            continue
        assert exact == pytest.approx(fd, rel=2e-4, abs=2e-4)
        checked += 1
        if checked >= 5:
            break


def test_domain_errors():
    with pytest.raises(EvalDomainError):
        evaluate(parse_expr("log(u)"), {"u": -1.0})
    with pytest.raises(EvalDomainError):
        evaluate(parse_expr("sqrt(u)"), {"u": -1.0})
    with pytest.raises(EvalDomainError):
        evaluate(parse_expr("1/u"), {"u": 0.0})
    with pytest.raises(EvalDomainError):
        evaluate(parse_expr("u^w"), {"u": -2.0, "w": 0.5})


def test_evaluate_vectorized():
    e = parse_expr("u^2 + gamma*v")
    out = evaluate(e, {"u": np.array([1.0, 2.0]), "v": np.array([3.0, 4.0]), "gamma": 2.0})
    assert np.allclose(out, [7.0, 12.0])


def test_coefficient_names():
    e = parse_expr("gamma*u + zed(x)*abs(c0)")
    assert coefficient_names(e) == {"gamma", "zed", "c0"}
