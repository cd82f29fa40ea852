"""Grammar, evaluation and forward-mode differentiation tests."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hololab import expr as ex
from hololab.errors import (DomainError, ExprSyntaxError, UnboundVariable,
                            UnknownIdentifier)
from hololab.manifold import CoordinateChart, ExprScalarField, _Pass


def ev(src, **env):
    return ex.eval_expr(ex.parse(src), env)


def test_basic_values():
    assert ev("3+cos(y)", y=0.0) == 4.0
    assert ev("pi") == pytest.approx(3.141592653589793, abs=0)
    assert ev("x^2", x=-2.0) == 4.0
    assert ev("exp(2*x*y)", x=1.0, y=1.0) == pytest.approx(math.e ** 2, rel=1e-15)


def test_precedence_fixed_cases():
    assert ev("2*x^2", x=3.0) == 18.0
    assert ev("-x^2", x=3.0) == -9.0
    assert ev("2^3^2") == 512.0  # right-associative
    assert ev("6/3/2") == 1.0    # left-associative
    assert ev("1-2-3") == -4.0
    assert ev("x^-2", x=2.0) == 0.25


def test_syntax_errors_carry_offsets():
    with pytest.raises(ExprSyntaxError) as err:
        ex.parse("")
    assert err.value.offset == 0
    with pytest.raises(ExprSyntaxError):
        ex.parse("sin(x")
    with pytest.raises(ExprSyntaxError):
        ex.parse("1 + * 2")
    with pytest.raises(ExprSyntaxError):
        ex.parse("x y")


def test_unknown_function_and_unbound_variable():
    with pytest.raises(UnknownIdentifier):
        ex.parse("sinh2(x)")
    with pytest.raises(UnboundVariable):
        ev("x+q", x=1.0)


def test_domain_errors():
    with pytest.raises(DomainError):
        ev("log(x)", x=-1.0)
    with pytest.raises(DomainError):
        ev("sqrt(x)", x=-1.0)
    with pytest.raises(DomainError):
        ev("1/x", x=0.0)
    with pytest.raises(DomainError):
        ev("x^0.5", x=-1.0)
    # integral exponents are fine for any base
    assert ev("x^3", x=-2.0) == -8.0


def test_integral_exponent_same_on_scalars_and_arrays():
    e = ex.parse("x^y")
    assert ex.eval_expr(e, {"x": -2.0, "y": 2.0}) == 4.0
    out = ex.eval_expr(e, {"x": np.array([-2.0]), "y": np.array([2.0])})
    assert out.shape == (1,) and out[0] == 4.0
    # per-point integral exponents, differentiated in the base only
    env = {"x": np.array([-2.0, 3.0, 0.0]), "y": np.array([2.0, 3.0, 0.0])}
    val, d = ex.eval_dual(e, env, "x")
    assert val.tolist() == [4.0, 27.0, 1.0] and d.tolist() == [-4.0, 27.0, 0.0]
    assert ex.eval_dual2(e, env, "x", "x")[3].tolist() == [2.0, 18.0, 0.0]
    with pytest.raises(DomainError):
        ex.eval_expr(e, {"x": np.array([0.0]), "y": np.array([-1.0])})
    # d/dy needs log x
    for x, y in ((-2.0, 2.0), (np.array([-2.0]), np.array([2.0]))):
        with pytest.raises(DomainError):
            ex.eval_dual(e, {"x": x, "y": y}, "y")


def test_array_evaluation():
    xs = np.linspace(-1, 1, 7)
    out = ev("exp(2*x)*x", x=xs)
    assert np.allclose(out, np.exp(2 * xs) * xs)


def test_eval_dual_fixed_cases():
    e = ex.parse("exp(2*x*y)")
    v, d = ex.eval_dual(e, {"x": 1.0, "y": 1.0}, "x")
    assert v == pytest.approx(math.e ** 2, rel=1e-15)
    assert d == pytest.approx(2 * math.e ** 2, rel=1e-14)
    v, d = ex.eval_dual(ex.parse("7"), {"x": 1.0}, "x")
    assert (v, d) == (7.0, 0.0)
    v, d = ex.eval_dual(ex.parse("log(2+cos(y))"), {"y": 0.0}, "y")
    assert v == pytest.approx(math.log(3), rel=1e-15)
    assert d == pytest.approx(0.0, abs=1e-15)


def test_eval_dual_second_derivatives():
    e = ex.parse("exp(2*x*y)")
    val, dx, dy, dxy = ex.eval_dual2(e, {"x": 0.5, "y": 0.25}, "x", "y")
    f = math.exp(2 * 0.5 * 0.25)
    assert val == pytest.approx(f, rel=1e-15)
    assert dx == pytest.approx(2 * 0.25 * f, rel=1e-14)
    assert dy == pytest.approx(2 * 0.5 * f, rel=1e-14)
    # d2/dxdy exp(2xy) = (2 + 4xy) exp(2xy)
    assert dxy == pytest.approx((2 + 4 * 0.5 * 0.25) * f, rel=1e-13)
    _, _, _, dxx = ex.eval_dual2(ex.parse("sin(x)"), {"x": 0.7}, "x", "x")
    assert dxx == pytest.approx(-math.sin(0.7), rel=1e-13)


@pytest.mark.parametrize("fn", ["cosh", "sinh"])
def test_second_order_hyperbolic_functions(fn):
    """cosh and sinh keep at second order the value of plain evaluation and
    the partials of a first-order pass, to the bit; their mixed partial in
    x and y of f(xy) is f'(xy) + xy f(xy)."""
    e = ex.parse(f"{fn}(x*y)")
    env = {"x": np.array([0.7, -1.3, 0.0]), "y": np.array([-0.4, 2.1, 0.5])}
    val, dx, dy, dxy = ex.eval_dual2(e, env, "x", "y")
    v, d = ex.eval_dual(e, env, ("x", "y"))
    assert val.tobytes() == v.tobytes() == ex.eval_expr(e, env).tobytes()
    assert dx.tobytes() == d[0].tobytes() and dy.tobytes() == d[1].tobytes()
    xy = env["x"] * env["y"]
    f, df = (np.cosh, np.sinh) if fn == "cosh" else (np.sinh, np.cosh)
    assert np.allclose(dxy, df(xy) + xy * f(xy), rtol=1e-14, atol=0)


# deterministic random expression generator for the autodiff-vs-FD sweep
_FUNCS = ["sin", "cos", "exp", "cosh", "sinh", "tan"]


def _random_expr(rng, depth, vars_):
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        if rng.random() < 0.5:
            return repr(round(rng.uniform(0.2, 2.5), 3))
        return vars_[rng.integers(len(vars_))]
    if roll < 0.5:
        fn = _FUNCS[rng.integers(len(_FUNCS))]
        return f"{fn}(({_random_expr(rng, depth - 1, vars_)})*0.5)"
    op = ["+", "-", "*"][rng.integers(3)]
    return (f"({_random_expr(rng, depth - 1, vars_)}){op}"
            f"({_random_expr(rng, depth - 1, vars_)})")


def test_autodiff_matches_finite_differences_200_cases():
    rng = np.random.default_rng(12)
    h = 1e-6
    checked = 0
    while checked < 200:
        src = _random_expr(rng, 3, ["x", "y"])
        e = ex.parse(src)
        x0, y0 = rng.uniform(-1, 1, size=2)
        env = {"x": x0, "y": y0}
        v, d = ex.eval_dual(e, env, "x")
        fd = (ex.eval_expr(e, {"x": x0 + h, "y": y0})
              - ex.eval_expr(e, {"x": x0 - h, "y": y0})) / (2 * h)
        scale = max(1.0, abs(d), abs(v))
        assert abs(d - fd) <= 1e-6 * scale, src
        checked += 1


def test_printer_round_trip_fixed():
    for src in ["exp(2*x*y)", "-x^2", "2*x^2", "(x+y)*(x-y)", "1/2*log(2+cos(y))",
                "x^-2", "-(x+1)", "3.5e-2+x", "pi*e"]:
        e = ex.parse(src)
        printed = ex.to_source(e)
        assert ex.parse(printed) == e
        assert ex.to_source(ex.parse(printed)) == printed


@settings(max_examples=100, deadline=None)
@given(st.recursive(
    st.sampled_from([ex.Var("x"), ex.Var("y"), ex.Num(2.0), ex.Num(0.5),
                     ex.Const("pi"), ex.Const("e")]),
    lambda leaf: st.one_of(
        st.tuples(leaf).map(lambda t: ex.Neg(t[0])),
        st.tuples(st.sampled_from("+-*/^"), leaf, leaf).map(
            lambda t: ex.BinOp(t[0], t[1], t[2])),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "sqrt", "log",
                                   "tan", "cosh", "sinh"]), leaf).map(
            lambda t: ex.Call(t[0], t[1])),
    ),
    max_leaves=12))
def test_printer_round_trip_property(tree):
    printed = ex.to_source(tree)
    assert ex.parse(printed) == tree


def test_eval_dual_tuple_stacks_partials():
    e = ex.parse("exp(2*x*y)+z")
    env = {"x": np.array([0.5, 1.0]), "y": np.array([0.25, -1.0]), "z": np.zeros(2)}
    val, d = ex.eval_dual(e, env, ("y", "x"))
    assert d.shape == (2, 2)
    assert np.array_equal(d[0], ex.eval_dual(e, env, "y")[1])
    assert np.array_equal(d[1], ex.eval_dual(e, env, "x")[1])
    assert np.array_equal(val, ex.eval_expr(e, env))
    val, d = ex.eval_dual(ex.parse("7"), {"x": 1.0}, ("x", "y"))
    assert val == 7.0 and np.array_equal(d, np.zeros(2))


@pytest.mark.parametrize("src,x", [("x^-2", [1.0, 0.0]), ("1/x", [1.0, 0.0]),
                                   ("log(x)", [1.0, 0.0]), ("sqrt(x)", [1.0, -1.0]),
                                   ("x^0.5", [1.0, -1.0]), ("(y-x)^-1", [1.0, 2.0])])
def test_dual_passes_raise_where_plain_evaluation_does(src, x):
    e = ex.parse(src)
    env = {"x": np.array(x), "y": np.array([2.0, 2.0])}
    for wrt in ("x", "y", ("x", "y")):
        with pytest.raises(DomainError):
            ex.eval_dual(e, env, wrt)


JET_CHART = CoordinateChart(dim=3, coord_names=("x", "y", "z"))
# mixed-sign points, so roots, logs, fractional powers and quotients also
# leave the real domain
JET_POINTS = np.random.default_rng(0).uniform(-1.0, 1.5, (7, 3))


@settings(max_examples=300)
@given(st.recursive(
    st.sampled_from([ex.Var("x"), ex.Var("y"), ex.Var("z"), ex.Num(2.0),
                     ex.Num(0.5), ex.Num(3.0), ex.Num(-1.0), ex.Const("pi")]),
    lambda leaf: st.one_of(
        st.builds(ex.Neg, leaf),
        st.builds(ex.BinOp, st.sampled_from("+-*/^"), leaf, leaf),
        st.builds(ex.Call, st.sampled_from(sorted(ex._CALL_TABLE)), leaf)),
    max_leaves=12))
def test_jet_equals_per_coordinate_duals(tree):
    """One vector-dual pass of a one-field program gives the plain value
    and, row by row, the single-coordinate partials, equal as floats (an
    exact zero may differ in sign); it raises DomainError exactly where
    plain evaluation does."""
    one = _Pass(JET_CHART, [ExprScalarField(tree, JET_CHART)])
    env = JET_CHART.env(JET_POINTS)
    m = len(JET_POINTS)
    with np.errstate(all="ignore"):
        try:
            plain = ex.eval_expr(tree, env)
        except DomainError:
            with pytest.raises(DomainError):
                one.jets(JET_POINTS)
            return
        val, *grad = one.jets(JET_POINTS)[0]
        ref = np.stack([np.broadcast_to(np.asarray(ex.eval_dual(tree, env, name)[1],
                                                   dtype=float), (m,))
                        for name in JET_CHART.coord_names], axis=1)
    plain = np.broadcast_to(np.asarray(plain, dtype=float), (m,))
    # 0 * inf in a seeded zero row is nan where a single pass has no row
    assume(np.isfinite(plain).all() and np.isfinite(ref).all())
    assert np.array_equal(val, plain)
    assert np.array_equal(np.transpose(grad), ref)
