"""Expression mini-language: parsing, evaluation, symbolic differentiation."""
from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import noc.expr
from noc.expr import ExprError, parse_expr


def test_basic_arithmetic():
    e = parse_expr("2 + 3*4 - 10/5")
    assert e.eval({}) == 12.0


def test_power_right_associative():
    # 2^3^2 = 2^(3^2) = 512
    assert parse_expr("2^3^2").eval({}) == 512.0


def test_unary_minus_and_precedence():
    assert parse_expr("-3^2").eval({}) == -9.0
    assert parse_expr("(-3)^2").eval({}) == 9.0
    assert parse_expr("2 - -3").eval({}) == 5.0


def test_variables_and_functions():
    e = parse_expr("sin(a)^2 + cos(a)^2")
    assert abs(e.eval({"a": 0.7312}) - 1.0) < 1e-14
    e2 = parse_expr("exp(log(x))")
    assert abs(e2.eval({"x": 4.25}) - 4.25) < 1e-14


def test_pi_constant():
    assert abs(parse_expr("cos(pi)").eval({}) + 1.0) < 1e-15


def test_vectorized_eval():
    e = parse_expr("t^2 - 2*t")
    t = np.array([0.0, 1.0, 2.0])
    np.testing.assert_allclose(e.eval({"t": t}), t * t - 2 * t)


def test_allowed_vars_rejection():
    with pytest.raises(ExprError):
        parse_expr("y1 + q7", allowed_vars={"y1"})


def test_syntax_errors():
    for bad in ["", "1 +", "frob(2)", "2 *", "(1+2", "1 2"]:
        with pytest.raises(ExprError):
            parse_expr(bad)


# ----------------------------------------------------------------------------
# symbolic differentiation against central finite differences
# ----------------------------------------------------------------------------

def _fd(e, env, var, h=1e-6):
    up = dict(env)
    dn = dict(env)
    up[var] = env[var] + h
    dn[var] = env[var] - h
    return (e.eval(up) - e.eval(dn)) / (2 * h)


def test_diff_matches_fd_on_random_expressions():
    exprs = [
        "x*y + x^3 - 2/y",
        "sin(x*y) * exp(-x)",
        "sqrt(x^2 + y^2 + 1)",
        "log(1 + x^2) / (2 + cos(y))",
        "tan(x/3) + y^x",
        "abs(x - 2) * y",
    ]
    rng = np.random.default_rng(20240817)
    for text in exprs:
        e = parse_expr(text)
        for _ in range(8):
            env = {"x": float(rng.uniform(0.3, 1.8)), "y": float(rng.uniform(0.4, 1.9))}
            for var in ("x", "y"):
                got = e.diff(var).eval(env)
                ref = _fd(e, env, var)
                assert abs(got - ref) <= 1e-6 * (1 + abs(ref)), (text, var, env)


def test_second_derivative():
    e = parse_expr("x^4")
    d2 = e.diff("x").diff("x")
    assert abs(d2.eval({"x": 2.0}) - 48.0) < 1e-12


def test_diff_constant_is_zero():
    e = parse_expr("3.5 * pi")
    assert e.diff("x").eval({}) == 0.0


def test_diff_free_vars_shrink():
    e = parse_expr("x + y")
    assert e.diff("x").free_vars() == frozenset()


def test_str_roundtrip_evaluates_identically():
    text = "sin(x)^2 + 3*x/(1 + x^2)"
    e = parse_expr(text)
    e2 = parse_expr(str(e))
    for x in [0.0, 0.5, 2.5, -1.25]:
        assert abs(e.eval({"x": x}) - e2.eval({"x": x})) < 1e-14


def test_exprs_are_picklable():
    import pickle

    e = parse_expr("sin(x) * y^2")
    e2 = pickle.loads(pickle.dumps(e))
    env = {"x": 0.3, "y": 1.7}
    assert e.eval(env) == e2.eval(env)


def test_compiled_callable_matches_eval():
    from noc.expr import compile_expr

    e = parse_expr("sin(x)*y^2 - exp(-x)/(1 + y^2) + abs(x - 2)")
    fn = compile_expr(e, ("x", "y"))
    rng = np.random.default_rng(3)
    for _ in range(25):
        x, y = rng.normal(size=2)
        assert abs(fn(x, y) - e.eval({"x": x, "y": y})) < 1e-14


def test_compiled_callable_broadcasts():
    from noc.expr import compile_expr

    fn = compile_expr(parse_expr("t^3 - t"), ("t",))
    t = np.linspace(-1, 1, 7)
    np.testing.assert_allclose(fn(t), t**3 - t, rtol=0, atol=1e-15)


def test_compile_rejects_unbound_variables():
    from noc.expr import compile_expr

    with pytest.raises(ExprError):
        compile_expr(parse_expr("x + z"), ("x", "y"))


def test_compiled_callable_takes_variables_named_like_python():
    # a parameter may be called np, math or a keyword: arguments are renamed
    from noc.expr import compile_expr

    names = ("np", "lambda", "math")
    fn = compile_expr(parse_expr("np*sin(lambda) + math", set(names)), names)
    assert fn(2.0, 0.5, 1.0) == 2.0 * np.sin(0.5) + 1.0


def test_folded_non_finite_constants_compile():
    # constant folding can overflow: 1e200*1e200 is inf, inf - inf is nan
    from noc.expr import _finite, compile_expr, python_source

    for text, want in (("1e200*1e200 + x", math.inf), ("x - 1e200*1e200", -math.inf)):
        e = parse_expr(text)
        assert compile_expr(e, ("x",))(1.0) == want
        assert eval(python_source(e, "math"),
                    {"math": math, "_finite": _finite, "x": 1.0}) == want
    assert math.isnan(compile_expr(parse_expr("1e200*1e200 - 1e200*1e200 + x"), ("x",))(1.0))


def test_math_source_raises_where_numpy_warns():
    from noc.expr import _finite, python_source

    def run(text, x):
        return eval(python_source(parse_expr(text), "math"),
                    {"math": math, "_finite": _finite, "x": x})

    assert run("abs(x) + sqrt(x^2)", -3.0) == 6.0
    for text, x, error in (("sqrt(x)", -1.0, ValueError), ("log(x)", 0.0, ValueError),
                           ("exp(x)", 1e3, OverflowError), ("x^2", 1e200, OverflowError),
                           ("1/x", 0.0, ZeroDivisionError)):
        with pytest.raises(error):
            run(text, x)
    assert isinstance(run("x^0.5", -4.0), complex)


def test_math_source_guards_the_sinks_of_an_infinite_intermediate():
    # x / inf, inf ** (negative), (|b| < 1) ** inf and exp(-inf) are finite:
    # math source checks exactly those operands, numpy source none
    from noc.expr import _finite, python_source

    def src(text, module="math"):
        return python_source(parse_expr(text), module)

    assert src("x / (1 + y)") == "(x / _finite((1.0 + y)))"
    assert src("x / 2") == "(x / 2.0)"
    assert src("x^(-2)") == "(_finite(x) ** -2.0)"
    assert src("x^2") == "(x ** 2.0)"
    assert src("x^y") == "(_finite(x) ** _finite(y))"
    assert src("exp(-x)") == "math.exp(_finite((-x)))"
    assert src("sin(x) + sqrt(x) * log(x)") == "(math.sin(x) + (math.sqrt(x) * math.log(x)))"
    assert "_finite" not in src("x / (1 + y) + x^y + exp(-x)", "np")

    def run(text, x):
        return eval(src(text), {"math": math, "_finite": _finite, "x": x})

    for text, want in (("1/(1 + x*x*x)", 1 / 9), ("(x*x*x)^(-1)", 1 / 8),
                       ("0.5^(x*x*x)", 0.5 ** 8), ("exp(-x*x*x)", math.exp(-8.0))):
        assert run(text, 2.0) == want
        with pytest.raises(FloatingPointError):
            run(text, 1e200)


# ----------------------------------------------------------------------------
# property: symbolic derivatives of random trees are exact
# ----------------------------------------------------------------------------

_STEP = 1e-30          # complex step: no subtraction, so no cancellation


def _positive(a: str) -> str:
    return f"(0.5 + ({a})^2)"


def _wrapped_call(name: str, a: str) -> str:
    # keep each argument inside the function's real domain: log and sqrt
    # see positive values, tan stays within (-1, 1), away from its poles
    if name in ("log", "sqrt"):
        return f"{name}({_positive(a)})"
    if name == "tan":
        return f"tan(sin({a}))"
    return f"{name}({a})"


def _binary(op: str, a: str, b: str) -> str:
    if op == "/":
        return f"(({a}) / {_positive(b)})"
    if op == "^":
        return f"({_positive(a)} ^ ({b}))"
    return f"(({a}) {op} ({b}))"


_CALLS = st.sampled_from(sorted(noc.expr._FUNCTIONS))
_OPS = st.sampled_from("+-*/^")
_leaves = st.one_of(
    st.sampled_from(("x", "y")),
    st.integers(-20, 20).map(lambda k: repr(k / 8)),
)
_trees = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.builds(_wrapped_call, _CALLS, kids),
        st.builds(_binary, _OPS, kids, kids),
        kids.map(lambda a: f"(-({a}))"),
    ),
    max_leaves=10,
)
# the root is always a function or a binary operation, so every example
# exercises at least one rule beyond the leaves
_roots = st.one_of(
    st.builds(_wrapped_call, _CALLS, _trees),
    st.builds(_binary, _OPS, _trees, _trees),
)


def _complex_step(e, env: dict, var: str) -> float:
    """d e / d var by the complex step (Squire & Trapp, SIAM Rev. 40, 1998).

    abs is continued analytically off the real axis as a * sign(Re a),
    which equals |a| on it and is analytic wherever a != 0."""
    shifted = dict(env)
    shifted[var] = env[var] + 1j * _STEP
    with mock.patch.dict(noc.expr._FUNCTIONS,
                         abs=lambda a: a * np.sign(np.real(a))):
        return float(np.imag(e.eval(shifted))) / _STEP


@given(_roots, st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
def test_diff_is_exact_on_random_trees(text, x, y):
    # first and second derivatives (mixed ones too) of every tree over all
    # seven functions and ^ (with constant and with variable exponents)
    # agree with the complex step of the expression one order below
    e = parse_expr(text)
    env = {"x": np.float64(x), "y": np.float64(y)}
    with np.errstate(all="ignore"):
        for var in ("x", "y"):
            for base, label in ((e, "f"), (e.diff("x"), "f_x"),
                                (e.diff("y"), "f_y")):
                got = float(base.diff(var).eval(env))
                values = (float(base.eval(env)), got)
                if not all(np.isfinite(v) and abs(v) < 1e6 for v in values):
                    continue        # overflowing corners carry no signal
                ref = _complex_step(base, env, var)
                assert abs(got - ref) <= 1e-9 * (1.0 + abs(ref)), \
                    (text, label, var, x, y, got, ref)
