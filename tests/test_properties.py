"""Properties of step-controlled transport over random expression-defined
2-d manifolds: a loop followed by its reversal transports to I, the
weighted holonomy is unimodular, and the weighted/dual pairing is constant
along open paths, each within the reported error bars; a shrinking
rectangle family has derivative 0 at s = 0; a linear change of chart
conjugates the holonomy.  The geometry's one jet pass over metric entries
and density that share subexpressions equals each entry's own pass, and
the second-order program extends the first-order one.  Line samples are
monotone in t, so their two end samples give the chart's verdict on all."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from hololab import expr as ex
from hololab import transport
from hololab.errors import HololabError
from hololab.expr import _CALL_TABLE
from hololab.manifold import (ConnectionKind, CoordinateChart, DensityField,
                              MetricField, WeightedManifold, weighted_metric_at)
from hololab.transport import (Line, Loop, family_derivative, holonomy, path_transport_matrix,
                               polyline_segments, rectangle_loop,
                               shrinking_rectangle_family)

CHART = CoordinateChart(dim=2, coord_names=("x", "y"))


def _num(lo, hi):
    return st.floats(lo, hi).map(lambda v: round(v, 3))


@st.composite
def manifolds(draw):
    """Metrics a + b sin(c x + d y) on the diagonal (a >= 1, |b| <= 0.4) and
    an off-diagonal e cos(x - y) with |e| <= 0.3, so g stays positive
    definite everywhere; densities p x + q y + r sin(x y)."""
    diag = [f"{draw(_num(1.0, 2.0))}+{draw(_num(-0.4, 0.4))}"
            f"*sin({draw(_num(-1.5, 1.5))}*x+{draw(_num(-1.5, 1.5))}*y)"
            for _ in range(2)]
    off = f"{draw(_num(-0.3, 0.3))}*cos(x-y)"
    phi = (f"{draw(_num(-1.0, 1.0))}*x+{draw(_num(-1.0, 1.0))}*y"
           f"+{draw(_num(-0.5, 0.5))}*sin(x*y)")
    metric = MetricField.from_expressions(CHART, [[diag[0], off], [off, diag[1]]],
                                          signature=(2, 0))
    return WeightedManifold(chart=CHART, metric=metric,
                            density=DensityField.from_expression(CHART, phi))


def _rectangles(make):
    return st.builds(lambda cx, cy, ea, eb: make(np.array([cx, cy]), 0, 1, ea, eb),
                     _num(-0.6, 0.2), _num(-0.6, 0.2), _num(0.2, 0.7), _num(0.2, 0.7))


loops = _rectangles(rectangle_loop)
families = _rectangles(shrinking_rectangle_family)
polylines = st.lists(st.tuples(_num(-0.8, 0.8), _num(-0.8, 0.8)), min_size=2, max_size=4)


@settings(max_examples=30)
@given(M=manifolds(), loop=loops, kind=st.sampled_from(list(ConnectionKind)))
def test_loop_then_reversal_is_identity(M, loop, kind):
    there = holonomy(M, kind, loop)
    back = holonomy(M, kind, loop.reversed())
    gap = np.abs(back.matrix @ there.matrix - np.eye(2)).max()
    assert gap <= 10 * (there.est_error + back.est_error) + 1e-12


@settings(max_examples=30)
@given(M=manifolds(), loop=loops)
def test_weighted_holonomy_is_unimodular(M, loop):
    h = holonomy(M, ConnectionKind.WEIGHTED, loop)
    assert abs(np.linalg.det(h.matrix) - 1.0) <= 10 * h.est_error + 1e-12


@settings(max_examples=30)
@given(M=manifolds(), points=polylines)
def test_duality_pairing_is_constant_along_open_paths(M, points):
    path = polyline_segments(points)
    Pw, est_w = path_transport_matrix(M, ConnectionKind.WEIGHTED, path)
    Pd, est_d = path_transport_matrix(M, ConnectionKind.DUAL_WEIGHTED, path)
    h0 = weighted_metric_at(M, points[0])
    h1 = weighted_metric_at(M, points[-1])
    gap = np.abs(Pw.T @ h1 @ Pd - h0).max()
    # entry errors up to est in Pw and Pd reach the pairing through h1 Pd
    # and Pw^T h1 (max column and row sums), which can exceed 20 here
    spread = (est_w * np.linalg.norm(h1 @ Pd, 1)
              + est_d * np.linalg.norm(Pw.T @ h1, np.inf))
    assert gap <= 10 * spread + 1e-12


@settings(max_examples=30)
@given(M=manifolds(), family=families, kind=st.sampled_from(list(ConnectionKind)))
def test_shrinking_rectangle_family_has_zero_derivative(M, family, kind):
    # P(s) = I + O(s^2), so P'(0) = 0
    assert np.abs(family_derivative(M, kind, family)).max() <= 1e-5


@st.composite
def chart_changes(draw):
    """An invertible J = [[a, b], [c, d]] with |a|, |d| in [0.6, 1] and
    |b|, |c| <= 0.4, so |det J| >= 0.2."""
    a = draw(_num(0.6, 1.0)) * draw(st.sampled_from([-1, 1]))
    d = draw(_num(0.6, 1.0))
    b, c = draw(_num(-0.4, 0.4)), draw(_num(-0.4, 0.4))
    return np.array([[a, b], [c, d]])


@st.composite
def custom_geometries(draw):
    """Entry builder (X, Y) -> (metric, density) strings in coordinate
    expressions X and Y: g = diag(a1, a2) + w w^T with w = (p, q), positive
    definite for any finite p and q, where p, q and phi apply random call
    table functions to 1 + c x + d y, |c|, |d| <= 0.1, which stays in
    [0.6, 1.4] for |x|, |y| <= 2 and so inside every function's domain."""
    names = sorted(_CALL_TABLE)

    def term(X, Y, f, b, c, d):
        return f"({b})*{f}(1+({c})*{X}+({d})*{Y})"

    p, q, phi = ((draw(st.sampled_from(names)), draw(_num(-1.0, 1.0)),
                  draw(_num(-0.1, 0.1)), draw(_num(-0.1, 0.1))) for _ in range(3))
    a1, a2, k = draw(_num(0.5, 2.0)), draw(_num(0.5, 2.0)), draw(_num(-1.0, 1.0))

    def entries(X, Y):
        P, Q = term(X, Y, *p), term(X, Y, *q)
        metric = [[f"{a1}+({P})^2", f"({P})*({Q})"], [f"({P})*({Q})", f"{a2}+({Q})^2"]]
        return metric, f"{term(X, Y, *phi)}+({k})*{X}*{Y}"

    return entries


@settings(max_examples=10, deadline=None)
@given(J=chart_changes(), entries=custom_geometries(), loop=loops)
def test_linear_chart_change_conjugates_holonomy(J, entries, loop):
    """In coordinates u with x = J u the metric is J^T g(J u) J and the
    density phi(J u); components of vectors transform by J^-1, so the
    holonomy around the loop mapped by J^-1 is J^-1 P J."""
    metric, phi = entries("x", "y")
    M = WeightedManifold(chart=CHART, metric=MetricField.from_expressions(
        CHART, metric, signature=(2, 0)),
        density=DensityField.from_expression(CHART, phi))
    chart = CoordinateChart(dim=2, coord_names=("u", "v"))
    X, Y = (f"(({float(J[i, 0])!r})*u+({float(J[i, 1])!r})*v)" for i in range(2))
    g, phi = entries(X, Y)
    pulled = [[" + ".join(f"({float(J[i, a] * J[j, b])!r})*({g[i][j]})"
                          for i in range(2) for j in range(2))
               for b in range(2)] for a in range(2)]
    N = WeightedManifold(chart=chart, metric=MetricField.from_expressions(
        chart, pulled, signature=(2, 0)),
        density=DensityField.from_expression(chart, phi))
    Jinv = np.linalg.inv(J)
    ring = [seg.start for seg in loop.segments] + [loop.basepoint]
    mapped = Loop(segments=polyline_segments([Jinv @ x for x in ring]),
                  basepoint=Jinv @ loop.basepoint)
    for kind in ConnectionKind:
        P = holonomy(M, kind, loop).matrix
        Q = holonomy(N, kind, mapped).matrix
        assert np.abs(Q - Jinv @ P @ J).max() <= 1e-8


CHART3 = CoordinateChart(dim=3, coord_names=("x", "y", "z"))
# mixed-sign points, so roots, logs, fractional powers and quotients also
# leave the real domain at some of them
POINTS3 = np.random.default_rng(0).uniform(-1.0, 1.5, (6, 3))
subtrees = st.recursive(
    st.sampled_from([ex.Var("x"), ex.Var("y"), ex.Var("z"), ex.Num(2.0), ex.Num(0.5),
                     ex.Num(-1.0), ex.Num(0.0), ex.Num(-0.0), ex.Const("pi")]),
    lambda leaf: st.one_of(
        st.builds(ex.Neg, leaf),
        st.builds(ex.BinOp, st.sampled_from("+-*/^"), leaf, leaf),
        st.builds(ex.Call, st.sampled_from(sorted(_CALL_TABLE)), leaf)),
    max_leaves=5)


@st.composite
def shared_geometries(draw):
    """A 3-d metric and density whose seven expressions are drawn from a
    small pool of subtrees: each is a pool subtree, a call on one, or a
    binary operation on two, so the expressions share subexpressions
    (literal 0.0 and -0.0 among them)."""
    pool = draw(st.lists(subtrees, min_size=2, max_size=4))
    pick = st.sampled_from(pool)
    shapes = st.one_of(pick, st.builds(ex.Call, st.sampled_from(sorted(_CALL_TABLE)), pick),
                       st.builds(ex.BinOp, st.sampled_from("+-*/^"), pick, pick))
    upper = {(i, j): draw(shapes) for i in range(3) for j in range(i, 3)}
    metric = MetricField.from_expressions(
        CHART3, [[upper[min(i, j), max(i, j)] for j in range(3)] for i in range(3)],
        signature=(3, 0), validate=False)
    return WeightedManifold(chart=CHART3, metric=metric,
                            density=DensityField.from_expression(CHART3, draw(shapes)))


def _outcome(run):
    """The (value, partials) bytes of each output of ``run()``, in order,
    or the class and message of the error it raises."""
    try:
        outs = run()
    except HololabError as err:
        return type(err), str(err)
    return [(np.asarray(val, dtype=float).tobytes(),
             None if d is None else np.asarray(d, dtype=float).tobytes()) for val, d in outs]


def _own_passes(fields, pts):
    """Each field's own one-expression pass, in its own coordinates."""
    env = CHART3.env(pts)
    outs = []
    for f in fields:
        names = tuple(CHART3.coord_names[a] for a in f.axes)
        val, d = ex.eval_dual(f.expression, env, names)
        outs.append((val, d if names else None))
    return outs


@settings(max_examples=200)
@given(M=shared_geometries())
def test_geometry_pass_equals_each_entry_pass(M):
    """The joint pass over the entries that are not the literal 0 and the
    density gives, output by output, the bytes of each expression's own
    pass, the sign of every zero included, and raises the error that the
    first failing expression raises alone, at every point and on the
    whole batch."""
    fields = [M.metric.entries[i][j] for i, j in M.metric.nonzero] + [M.density.field]
    with np.errstate(all="ignore"):
        for pts in [POINTS3] + [POINTS3[k:k + 1] for k in range(len(POINTS3))]:
            assert (_outcome(lambda: M._pass(pts))
                    == _outcome(lambda: _own_passes(fields, pts)))


def _raised(run):
    """(None, run()), or (the class and message of the error it raises, None)."""
    try:
        return None, run()
    except HololabError as err:
        return (type(err), str(err)), None


def _byte_strings(*arrays):
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


# (x * a) op (y + b) for subtrees a and b, bare or under a call, so that
# the mixed second partial in x and y is seldom 0
mixed_trees = st.builds(
    lambda op, a, b: ex.BinOp(op, ex.BinOp("*", ex.Var("x"), a), ex.BinOp("+", ex.Var("y"), b)),
    st.sampled_from("*/^"), subtrees, subtrees)
mixed_trees = st.one_of(mixed_trees, st.builds(ex.Call, st.sampled_from(sorted(_CALL_TABLE)),
                                               mixed_trees))


@settings(max_examples=200)
@given(tree=mixed_trees)
def test_second_order_program_extends_the_first(tree):
    """At each point, eval_dual2 in (x, y) gives the value and both
    partials of eval_dual in (x, y) byte for byte, or raises the same error
    class and message; its mixed partial equals the one in (y, x) to 1e-9
    relative, and a central difference in y of the x partial to 1e-6
    relative plus that difference's truncation, estimated by the change
    from step 2h to step h."""
    h = 1e-6
    with np.errstate(all="ignore"):
        for point in POINTS3:
            env = CHART3.env(point)
            error, first = _raised(lambda: ex.eval_dual(tree, env, ("x", "y")))
            assert _raised(lambda: ex.eval_dual2(tree, env, "x", "y"))[0] == error
            if error is not None:
                continue
            val, dx, dy, dxy = ex.eval_dual2(tree, env, "x", "y")
            assert _byte_strings(val, dx, dy) == _byte_strings(first[0], *first[1])
            dyx = ex.eval_dual2(tree, env, "y", "x")[3]
            near = [_raised(lambda: ex.eval_dual(tree, {**env, "y": env["y"] + s}, "x"))
                    for s in (h, -h, 2 * h, -2 * h)]
            if not np.isfinite([dxy, dyx, dx]).all() or any(err for err, _ in near):
                continue
            scale = max(1.0, float(np.abs(dxy).max()))
            assert np.all(np.abs(dxy - dyx) <= 1e-9 * scale)
            up, down, up2, down2 = (d for _, (_, d) in near)
            fd, fd2 = (up - down) / (2 * h), (up2 - down2) / (4 * h)
            assert np.all(np.abs(dxy - fd) <= 1e-6 * max(scale, float(np.abs(dx).max()))
                          + np.abs(fd2 - fd))


# box edges and points near them, so that sampled segments end on an edge,
# cross it or stay just inside
EDGES = (-1.0, 0.5, 2.0)
BOX = CoordinateChart(dim=3, coord_names=("x", "y", "z"),
                      domain=((EDGES[0], EDGES[1]), (-math.inf, EDGES[2]), (EDGES[0], EDGES[2])))
coordinates = st.one_of(st.floats(-3.0, 3.0), st.sampled_from(EDGES + (0.0, -0.0)),
                        st.tuples(st.sampled_from(EDGES), st.sampled_from([-3.0, 3.0]))
                        .map(lambda edge_side: float(np.nextafter(*edge_side))))
# zero, tiny and signed deltas as well as any other
deltas = st.one_of(st.just(0.0), st.sampled_from([5e-324, -5e-324, 1e-300, -2.2e-16]),
                   st.floats(-6.0, 6.0))


@st.composite
def lines(draw):
    start = np.array([draw(coordinates) for _ in range(3)])
    end = np.where([draw(st.booleans()) for _ in range(3)],
                   [draw(coordinates) for _ in range(3)],
                   start + np.array([draw(deltas) for _ in range(3)]))
    return Line(start, end)


@settings(max_examples=300)
@given(segments=st.lists(lines(), min_size=1, max_size=3), N=st.integers(1, 64),
       first=st.booleans())
def test_line_samples_are_monotone_and_their_ends_give_the_chart_verdict(segments, N, first):
    """On the first grid of a level (``_fine_grid``) and on its odd-point
    grid at later levels, every coordinate of each Line's samples is
    monotone in t, and the chart test of the samples that stand for all
    (each Line's first and last) gives the verdict of all samples."""
    ts = transport._fine_grid(N) if first else np.arange(1, 4 * N, 2) / (4 * N)
    pos, _, probe = transport._sample(segments, ts)
    steps = np.diff(pos, axis=1)
    assert ((steps >= 0).all(axis=1) | (steps <= 0).all(axis=1)).all()
    assert len(probe) == 2 * len(segments)
    assert BOX.contains(probe).all() == BOX.contains(pos.reshape(-1, 3)).all()
