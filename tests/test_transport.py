"""Parallel transport, holonomy, loop families, block predictions."""

import math

import numpy as np
import pytest

from hololab import transport
from hololab.catalog import (ALPHA_DERIVATIVE, BETA_DERIVATIVE, BOREL_LOOP1_MATRIX,
                             BOREL_LOOP2_MATRIX, HEIS_SQUARE_MATRIX, XI)
from hololab.errors import (EmptyRegion, FamilyNotTrivial, NotClosed,
                            NotTotallyGeodesic, OutOfDomain, StepUnderflow)
from hololab.manifold import ConnectionKind, metric_at
from hololab.transport import (MIN_STEPS, Curve, Line, Loop, LoopFamily, holonomy,
                               path_transport_matrix, polyline_segments,
                               predicted_block_transport, random_rectangle_loops,
                               rectangle_loop, shrinking_rectangle_family,
                               family_derivative, transport_covector,
                               transport_vector)

E = math.e
W = ConnectionKind.WEIGHTED
DW = ConnectionKind.DUAL_WEIGHTED
LC = ConnectionKind.LEVI_CIVITA


def test_constant_path_is_identity(borel):
    seg = [Line([0.2, 0.3], [0.2, 0.3])]
    v = transport_vector(borel.manifold, W, seg, [1.5, -0.5])
    assert np.allclose(v, [1.5, -0.5], atol=1e-15)


def test_single_segment_golden(borel):
    # along (t, 0): the second frame vector tilts by half the parameter run
    v = transport_vector(borel.manifold, W, [Line([0, 0], [1, 0])], [0.0, 1.0],
                         steps=500)
    assert np.abs(v - np.array([0.5, 1.0])).max() < 1e-10


def test_sphere_parallel_segment_matches_closed_form(sphere2):
    # transport along one full parallel at latitude pi/2 + s
    s = 0.1
    k = math.sqrt(math.sin(s) * math.cos(s) ** 2 - math.sin(s) ** 2)
    seg = [Line([math.pi / 2 + s, 0.0], [math.pi / 2 + s, 2 * math.pi])]
    P, _ = path_transport_matrix(sphere2.manifold, W, seg, steps=1000)
    ch, sh = math.cosh(2 * math.pi * k), math.sinh(2 * math.pi * k)
    sc = math.sin(s) * math.cos(s)
    expected = np.array([[ch, -sc * sh / k], [-k * sh / sc, ch]])
    assert np.abs(P - expected).max() < 1e-6


def test_covector_transport_is_inverse_transpose(borel):
    path = polyline_segments([(0, 0), (1, 0), (1, 1)])
    Pv, _ = path_transport_matrix(borel.manifold, W, path, steps=400)
    Pc, _ = path_transport_matrix(borel.manifold, W, path, steps=400, covector=True)
    assert np.abs(Pc @ Pv.T - np.eye(2)).max() < 1e-6
    a = transport_covector(borel.manifold, W, path, [0.3, 1.1], steps=400)
    assert np.allclose(a, Pc @ np.array([0.3, 1.1]), atol=1e-14)


def test_dual_pair_stays_paired_along_path(tri2):
    # transport V with the dual connection and h(V, .) with the weighted one
    M = tri2.manifold
    path = [Line([0, 0], [1, 0])]
    h0 = math.exp(-0.0) * metric_at(M, [0, 0])
    h1 = math.exp(-1.0) * metric_at(M, [1, 0])
    v0 = np.array([0.7, -0.4])
    Pd, _ = path_transport_matrix(M, DW, path, steps=400)
    Pcov_w, _ = path_transport_matrix(M, W, path, steps=400, covector=True)
    assert np.abs(Pcov_w @ (h0 @ v0) - h1 @ (Pd @ v0)).max() < 1e-6


def test_holonomy_golden_matrices(borel, tri3):
    h1 = holonomy(borel.manifold, W, borel.loops["golden1"])
    assert np.abs(h1.matrix - BOREL_LOOP1_MATRIX).max() < 1e-6
    assert h1.est_error < 1e-10
    h2 = holonomy(borel.manifold, W, borel.loops["golden2"])
    assert np.abs(h2.matrix - BOREL_LOOP2_MATRIX).max() < 1e-6
    h3 = holonomy(tri3.manifold, W, tri3.loops["square"])
    assert np.abs(h3.matrix - HEIS_SQUARE_MATRIX).max() < 1e-6


def test_constant_loop_identity(borel):
    loop = Loop(segments=[Line([0, 0], [0, 0])] * 2, basepoint=np.zeros(2))
    h = holonomy(borel.manifold, W, loop)
    assert np.allclose(h.matrix, np.eye(2), atol=1e-15)


def test_loop_closure_validation(borel, sphere2):
    with pytest.raises(NotClosed):
        holonomy(borel.manifold, W,
                 Loop(segments=polyline_segments([(0, 0), (1, 0), (1, 1)]),
                      basepoint=np.zeros(2)))
    with pytest.raises(NotClosed):
        Loop(segments=[], basepoint=np.zeros(2))
    # gaps between consecutive segments are rejected
    with pytest.raises(NotClosed):
        holonomy(borel.manifold, W,
                 Loop(segments=[Line([0, 0], [1, 0]), Line([1, 0.5], [0, 0])],
                      basepoint=np.zeros(2)))
    # closure modulo the periodic angle coordinate is accepted
    h = math.pi / 2
    loop = Loop(segments=polyline_segments(
        [(h, 0.0), (h + 0.2, 0.0), (h + 0.2, 2 * math.pi), (h, 2 * math.pi)]),
        basepoint=np.array([h, 0.0]))
    el = holonomy(sphere2.manifold, W, loop, steps=200)
    assert abs(np.linalg.det(el.matrix) - 1) < 1e-8


def test_out_of_domain_path(sphere2):
    with pytest.raises(OutOfDomain) as info:
        transport_vector(sphere2.manifold, W,
                         [Line([math.pi / 2, 0.0], [math.pi + 1.0, 0.0])],
                         [1.0, 0.0], steps=50)
    assert all(type(x) is float for x in info.value.point)
    assert "np.float64" not in str(info.value)


def test_step_underflow():
    import hololab.catalog as cat
    borel = cat.borel_2d()
    with pytest.raises(StepUnderflow):
        path_transport_matrix(borel.manifold, W,
                              borel.loops["golden1"].segments, steps=4,
                              error_target=1e-14)


def test_step_underflow_without_steps(borel):
    # no grid reaches 1e-18: doubling stops at the step cap
    with pytest.raises(StepUnderflow):
        holonomy(borel.manifold, W, borel.loops["golden1"], error_target=1e-18)


@pytest.mark.parametrize("steps", [None, 2000])
def test_est_error_bounds_true_error(borel, tri3, steps):
    # the default target, and the fixed grid whose estimate once read 0.08x
    cases = [(borel, "golden1", BOREL_LOOP1_MATRIX),
             (borel, "golden2", BOREL_LOOP2_MATRIX),
             (tri3, "square", HEIS_SQUARE_MATRIX)]
    for entry, key, exact in cases:
        h = holonomy(entry.manifold, W, entry.loops[key], steps=steps)
        true_error = np.abs(h.matrix - exact).max()
        assert h.est_error >= true_error
        if steps is None:
            assert h.est_error < transport.DEFAULT_ERROR_TARGET


def test_step_doubling_samples_each_point_once(borel, monkeypatch):
    calls = []
    kernel = transport.christoffel_many

    def counting(M, kind, pts, velocity=None):
        calls.append(len(pts))
        return kernel(M, kind, pts, velocity)

    monkeypatch.setattr(transport, "christoffel_many", counting)
    segments = []

    def on_segment(pos, step_mats):
        segments.append((sum(calls), step_mats.shape[0]))
        calls.clear()

    path_transport_matrix(borel.manifold, W, borel.loops["golden1"].segments,
                          on_segment=on_segment)
    assert max(n_fine for _, n_fine in segments) > 2 * MIN_STEPS  # it doubled
    for points, n_fine in segments:
        n = n_fine // 2  # coarse steps of the accepted grid
        assert points <= 2 * (4 * n + 1)
        assert points == 4 * n + 1  # every half-step grid point exactly once


def test_composition_and_inverse(borel):
    rng = np.random.default_rng(0)
    M = borel.manifold
    for _ in range(5):
        a, b = rng.uniform(-0.8, 0.8, size=(2, 2))
        loop1 = rectangle_loop(a, 0, 1, 0.4, 0.3, basepoint=np.zeros(2))
        loop2 = rectangle_loop(b, 0, 1, 0.2, 0.5, basepoint=np.zeros(2))
        P1 = holonomy(M, W, loop1, steps=300).matrix
        P2 = holonomy(M, W, loop2, steps=300).matrix
        cat_loop = Loop(segments=loop1.segments + loop2.segments,
                        basepoint=np.zeros(2))
        P = holonomy(M, W, cat_loop, steps=300).matrix
        assert np.abs(P - P2 @ P1).max() < 1e-8
        Pinv = holonomy(M, W, loop1.reversed(), steps=300).matrix
        assert np.abs(Pinv - np.linalg.inv(P1)).max() < 1e-6


def test_curve_segment_and_consistency_check(sphere2):
    # quarter-turn along the equator parametrized as a genuine curve
    pos = lambda t: np.array([math.pi / 2, math.pi / 2 * t])
    vel = lambda t: np.array([0.0, math.pi / 2])
    seg = Curve(pos, vel)
    P, _ = path_transport_matrix(sphere2.manifold, W, [seg], steps=200)
    line = Line([math.pi / 2, 0.0], [math.pi / 2, math.pi / 2])
    Q, _ = path_transport_matrix(sphere2.manifold, W, [line], steps=200)
    assert np.abs(P - Q).max() < 1e-10
    with pytest.raises(ValueError):
        Curve(pos, lambda t: np.array([0.0, 1.0]))


def test_family_derivatives_golden(sphere2):
    Da = family_derivative(sphere2.manifold, W, sphere2.families["alpha"])
    assert (np.abs(Da - ALPHA_DERIVATIVE) / np.abs(ALPHA_DERIVATIVE)).max() < 1e-3
    Db = family_derivative(sphere2.manifold, W, sphere2.families["beta"])
    assert np.abs(Db - BETA_DERIVATIVE).max() < 1e-4


def test_family_of_constant_loops_gives_zero(borel):
    fam = shrinking_rectangle_family(np.zeros(2), 0, 1, 0.0, 0.0)
    D = family_derivative(borel.manifold, W, fam, steps=100)
    assert np.abs(D).max() < 1e-12


def test_family_not_trivial_raises(borel):
    def fam(s):
        return borel.loops["golden1"]

    with pytest.raises(FamilyNotTrivial):
        family_derivative(borel.manifold, W,
                          LoopFamily(family=fam, s_max=1.0), steps=200)


def test_random_rectangle_loops_deterministic(borel):
    a = random_rectangle_loops(borel.manifold, borel.sample_region, 5, seed=3)
    b = random_rectangle_loops(borel.manifold, borel.sample_region, 5, seed=3)
    assert len(a) == len(b) == 5
    for la, lb in zip(a, b):
        for sa, sb in zip(la.segments, lb.segments):
            assert np.array_equal(sa.start, sb.start)
            assert np.array_equal(sa.end, sb.end)
    assert random_rectangle_loops(borel.manifold, borel.sample_region, 0, seed=1) == []
    with pytest.raises(EmptyRegion):
        random_rectangle_loops(borel.manifold, ((0.5, 0.5), (-1, 1)), 3, seed=0)


def test_random_loops_on_borel_are_upper_triangular(borel):
    loops = random_rectangle_loops(borel.manifold, borel.sample_region, 50, seed=17)
    for loop in loops:
        P = holonomy(borel.manifold, W, loop, steps=250).matrix
        assert abs(P[1, 0]) < 1e-6
        assert abs(np.linalg.det(P) - 1) < 1e-6


def test_unimodularity_weighted(sphere2, tri3):
    for entry in (sphere2, tri3):
        loops = random_rectangle_loops(entry.manifold, entry.sample_region, 8,
                                       seed=23, basepoint=entry.basepoint)
        for loop in loops:
            el = holonomy(entry.manifold, W, loop, steps=400)
            assert abs(abs(np.linalg.det(el.matrix)) - 1) < 1e-6
            assert abs(np.linalg.det(el.matrix) - 1) <= max(10 * el.est_error, 1e-9)


def test_step_halving_convergence_order(borel):
    exact = BOREL_LOOP1_MATRIX
    errs = []
    for steps in (8, 16, 32):
        P, _ = path_transport_matrix(borel.manifold, W,
                                     borel.loops["golden1"].segments, steps=steps)
        errs.append(np.abs(P - exact).max())
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= 3.8


def test_predicted_block_transport_heisenberg(tri3):
    pred = predicted_block_transport(tri3.manifold, [0, 1], {2: 0.0},
                                     tri3.loops["square"])
    amb = holonomy(tri3.manifold, W, tri3.loops["square"]).matrix
    assert np.abs(pred - amb).max() < 1e-6
    assert abs(pred[2, 0]) < 1e-12 and abs(pred[2, 1]) < 1e-12


def test_predicted_block_flat_density_is_block_diagonal():
    from hololab.manifold import (CoordinateChart, DensityField, MetricField,
                                  WeightedManifold)
    chart = CoordinateChart(dim=3, coord_names=("x", "y", "z"))
    metric = MetricField.from_expressions(chart, ["1", "1", "1"], signature=(3, 0))
    M = WeightedManifold(chart=chart, metric=metric,
                         density=DensityField.zero(chart))
    loop = rectangle_loop(np.zeros(3), 0, 1, 1.0, 1.0)
    pred = predicted_block_transport(M, [0, 1], {2: 0.0}, loop, steps=100)
    assert np.abs(pred - np.eye(3)).max() < 1e-12


def test_predicted_block_gradient_tangent_kills_mixing(sphere3):
    # equatorial slice through the radial direction: the density gradient is
    # tangent, so the mixing column vanishes and normals transport by metric
    h = math.pi / 2
    base = np.array([h, h, 1.0])
    loop = rectangle_loop(base, 0, 2, 0.35, 0.5)
    pred = predicted_block_transport(sphere3.manifold, [0, 2], {1: h}, loop)
    amb = holonomy(sphere3.manifold, W, loop).matrix
    assert np.abs(pred - amb).max() < 1e-6
    assert abs(pred[0, 1]) < 1e-6 and abs(pred[2, 1]) < 1e-6  # zero mixing


def test_predicted_block_rejects_non_geodesic_slice(sphere3):
    h = math.pi / 2
    base = np.array([h, 1.1, 1.0])  # slice theta1 = 1.1 is not totally geodesic
    loop = rectangle_loop(base, 0, 2, 0.3, 0.3)
    with pytest.raises(NotTotallyGeodesic):
        predicted_block_transport(sphere3.manifold, [0, 2], {1: 1.1}, loop)


def test_frame_trajectory_endpoint_matches_holonomy(borel):
    loop = borel.loops["golden1"]
    h = holonomy(borel.manifold, W, loop, steps=200, frames_per_segment=10)
    positions, frames = h.positions, h.frames
    P = holonomy(borel.manifold, W, loop, steps=200).matrix
    assert positions.shape[0] == frames.shape[0] == 41
    assert np.abs(frames[-1] - P).max() < 1e-9


def _curve_loop():
    # out along the equator as a Curve with scalar-only callables, back by a Line
    h = math.pi / 2
    out = Curve(lambda t: np.array([h + 0.2 * math.sin(math.pi * t), 1.0 + t]),
                lambda t: np.array([0.2 * math.pi * math.cos(math.pi * t), 1.0]))
    return Loop(segments=[out, Line(out.end, out.start)], basepoint=out.start)


@pytest.mark.parametrize("steps,per_segment", [(205, 10), (205, 7), (30, 100)])
@pytest.mark.parametrize("which", ["borel_square", "sphere_curve"])
def test_frames_at_segment_ends_match_prefix_transport(borel, sphere2, which,
                                                       steps, per_segment):
    if which == "borel_square":
        M, loop = borel.manifold, borel.loops["golden1"]
    else:
        M, loop = sphere2.manifold, _curve_loop()
    h = holonomy(M, W, loop, steps=steps, frames_per_segment=per_segment)
    positions, frames = h.positions, h.frames
    pieces = min(per_segment, 2 * steps)
    assert positions.shape[0] == frames.shape[0] == 1 + pieces * len(loop.segments)
    assert np.array_equal(frames[0], np.eye(M.dim))
    for k, seg in enumerate(loop.segments, start=1):
        P, _ = path_transport_matrix(M, W, loop.segments[:k], steps=steps)
        assert np.abs(frames[k * pieces] - P).max() <= 1e-12
        assert np.abs(positions[k * pieces] - seg.end).max() <= 1e-12
