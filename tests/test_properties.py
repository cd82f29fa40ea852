"""Properties of step-controlled holonomy over random expression-defined
2-d manifolds: a loop followed by its reversal transports to I, and the
weighted holonomy is unimodular, each within the reported error bars."""

import numpy as np
from hypothesis import given, settings, strategies as st

from hololab.manifold import (ConnectionKind, CoordinateChart, DensityField,
                              MetricField, WeightedManifold)
from hololab.transport import holonomy, rectangle_loop

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


loops = st.builds(lambda cx, cy, ea, eb: rectangle_loop(np.array([cx, cy]), 0, 1, ea, eb),
                  _num(-0.6, 0.2), _num(-0.6, 0.2), _num(0.2, 0.7), _num(0.2, 0.7))


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
