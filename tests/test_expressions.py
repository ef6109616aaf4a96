import math
import re
import warnings

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
    compile_expr,
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


def _exprs(leaf, calls=("abs", "sin", "cos", "exp", "atan")):
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from("+-*/^"), leaf, leaf).map(lambda t: Bin(*t)),
        leaf.map(Neg),
        st.tuples(st.sampled_from(calls), leaf).map(lambda t: Call(*t)),
    )


@settings(max_examples=200, deadline=None)
@given(st.recursive(_leaf, _exprs, max_leaves=12))
def test_roundtrip_random_asts(e):
    assert parse_expr(to_source(e)) == e


@settings(max_examples=60, deadline=None)
@given(st.recursive(_leaf, _exprs, max_leaves=10), st.sampled_from(["u", "v", "w"]))
@example(Bin("^", Num(0.0), Num(0.0)), "u")
@example(Bin("+", Var("u"), Bin("^", Num(6.0), Num(9.0))), "u")
@example(Neg(Bin("^", Num(0.0), Neg(Num(1.0)))), "u")
def test_derivative_matches_finite_difference(e, var):
    # The central difference is taken in extended precision: in float64 the
    # rounding of u + 6^9 alone shifts it by 2.4e-4, past the tolerance.
    # Points where either side is not finite (0^-1, overflow, inf - inf) are
    # skipped, so their floating-point warnings are silenced.
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
            with np.errstate(all="ignore"):
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


def _guarded_exprs(leaf):
    return _exprs(leaf, ("abs", "sin", "cos", "exp", "atan", "sqrt", "log", "sign"))


_SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, np.nan, np.inf, -np.inf]
_value = st.one_of(st.floats(-10, 10), st.sampled_from(_SPECIAL))
_env_value = st.one_of(_value, st.lists(_value, min_size=3, max_size=3).map(np.array))
_envs = st.fixed_dictionaries({name: _env_value for name in ("u", "v", "w", "gamma", "zed", "c0")})


def _outcome(fn, e, env):
    """("value", result) or ("raised", type, message); warnings count as raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return ("value", fn(e, env))
        except (ArithmeticError, RuntimeWarning) as err:
            return ("raised", type(err), str(err))


_NAN_U = {"u": np.array([np.nan, 1.0, -2.0]), "v": 1.0, "w": 0.5, "gamma": 1.0, "zed": 1.0,
          "c0": 1.0}

# zero to a negative power: 1/0 in disguise
_ZERO_U = dict(_NAN_U, u=np.array([0.0, 1.0, -2.0]))


@settings(max_examples=300, deadline=None)
@given(st.recursive(_leaf, _guarded_exprs, max_leaves=10), _envs)
@example(Bin("^", Var("u"), Num(2.0)), _NAN_U)
@example(Bin("/", Var("u"), Num(2.0)), _NAN_U)
@example(Bin("^", Num(0.0), Num(0.0)), _NAN_U)
@example(parse_expr("(0 - 1)^0.5"), _NAN_U)
@example(parse_expr("u^(0 - 1)"), _ZERO_U)
@example(parse_expr("u^(0 - 0.5)"), _ZERO_U)
@example(parse_expr("0^(0 - 1)"), _ZERO_U)
def test_compiled_matches_tree_walk(e, env):
    want = _outcome(evaluate, e, env)
    got = _outcome(lambda e, env: compile_expr(e)(env), e, env)
    assert got[0] == want[0]
    if want[0] == "value":
        assert type(got[1]) is type(want[1])
        assert np.array_equal(got[1], want[1], equal_nan=True)
        assert np.array_equal(np.signbit(got[1]), np.signbit(want[1]))
    else:
        assert got[1:] == want[1:]


def test_nan_sign_does_not_depend_on_call_count():
    # nan + (-nan): which operand's NaN comes out must not change once
    # the interpreter has specialized the addition
    e = Neg(Bin("+", Bin("-", Var("u"), Num(2.0)), Neg(Var("u"))))
    compiled = compile_expr(e)
    env = {"u": float("nan")}
    want = np.signbit(evaluate(e, env))
    for _ in range(50):
        assert np.signbit(evaluate(e, env)) == want
        assert np.signbit(compiled(env)) == want
        assert np.signbit(compile_expr(e)(env)) == want


def test_compiled_keeps_non_finite_literals():
    u = np.array([1.0, -1.0])
    for value in (np.inf, -np.inf, np.nan):
        e = Bin("+", Var("u"), Num(value))
        assert np.array_equal(compile_expr(e)({"u": u}), evaluate(e, {"u": u}), equal_nan=True)


def test_compiled_domain_messages():
    with pytest.raises(EvalDomainError, match=r"^invalid power in '\(0 - 1\)\^0\.5'$"):
        compile_expr(parse_expr("(0 - 1)^0.5"))({})
    with pytest.raises(EvalDomainError, match="^missing coefficient table 'gamma'$"):
        compile_expr(parse_expr("u*gamma"))({"u": 1.0})


def test_invalid_power_is_guarded_element_by_element():
    # a NaN base elsewhere does not excuse the NaN of (-1)^0.5
    e = parse_expr("u^0.5")
    env = {"u": np.array([np.nan, -1.0])}
    for fn in (evaluate, lambda e, env: compile_expr(e)(env)):
        with pytest.raises(EvalDomainError, match=r"^invalid power in 'u\^0\.5'$"):
            fn(e, env)
    # a NaN base alone is a NaN value
    for fn in (evaluate, lambda e, env: compile_expr(e)(env)):
        assert np.array_equal(fn(e, {"u": np.array([np.nan, 4.0])}), [np.nan, 2.0], equal_nan=True)


@pytest.mark.parametrize("source", ["u^(0 - 1)", "u^(0 - 0.5)", "0^(0 - 1)"])
def test_zero_to_a_negative_power_is_a_domain_error(source):
    e = parse_expr(source)
    message = rf"^zero to a negative power in '{re.escape(source)}'$"
    for fn in (evaluate, lambda e, env: compile_expr(e)(env)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvalDomainError, match=message):
                fn(e, {"u": 0.0})


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
