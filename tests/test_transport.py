"""Parallel transport, holonomy, loop families, block predictions."""

import contextlib
import math

import numpy as np
import pytest

from hololab import transport
from hololab.catalog import (ALPHA_DERIVATIVE, BETA_DERIVATIVE, BOREL_LOOP1_MATRIX,
                             BOREL_LOOP2_MATRIX, HEIS_SQUARE_MATRIX, XI)
from hololab.cli import _build_custom_manifold
from hololab.errors import (EmptyRegion, FamilyNotTrivial, NotClosed,
                            NotTotallyGeodesic, OutOfDomain, StepUnderflow)
from hololab.manifold import ConnectionKind, metric_at
from hololab.transport import (MIN_STEPS, Line, Loop, LoopFamily, holonomy,
                               holonomy_many, path_transport_many,
                               path_transport_matrix, polyline_segments,
                               predicted_block_transport, random_rectangle_loops,
                               rectangle_loop, shrinking_rectangle_family,
                               family_derivative)

E = math.e
W = ConnectionKind.WEIGHTED
DW = ConnectionKind.DUAL_WEIGHTED
LC = ConnectionKind.LEVI_CIVITA


def test_constant_path_is_identity(borel):
    seg = [Line([0.2, 0.3], [0.2, 0.3])]
    P, _ = path_transport_matrix(borel.manifold, W, seg)
    assert np.allclose(P @ [1.5, -0.5], [1.5, -0.5], atol=1e-15)


def test_single_segment_golden(borel):
    # along (t, 0): the second frame vector tilts by half the parameter run
    P, _ = path_transport_matrix(borel.manifold, W, [Line([0, 0], [1, 0])], steps=500)
    assert np.abs(P @ [0.0, 1.0] - np.array([0.5, 1.0])).max() < 1e-10


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
        path_transport_matrix(sphere2.manifold, W,
                              [Line([math.pi / 2, 0.0], [math.pi + 1.0, 0.0])], steps=50)
    assert all(type(x) is float for x in info.value.point)
    assert "np.float64" not in str(info.value)


def test_step_underflow():
    import hololab.catalog as cat
    borel = cat.borel_2d()
    with pytest.raises(StepUnderflow):
        path_transport_matrix(borel.manifold, W,
                              borel.loops["golden1"].segments, steps=4,
                              error_target=1e-14)


@pytest.mark.parametrize("steps", [0, -3])
def test_steps_below_one_raise(borel, kernel_calls, steps):
    loop = borel.loops["golden1"]
    with pytest.raises(ValueError, match="steps must be at least 1"):
        path_transport_matrix(borel.manifold, W, loop.segments, steps=steps)
    with pytest.raises(ValueError, match="steps must be at least 1"):
        holonomy(borel.manifold, W, loop, steps=steps)
    assert kernel_calls == []


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


@pytest.fixture
def accepted_steps(monkeypatch):
    """Accepted fine steps of every segment that the lockstep engine
    integrates, in segment order."""
    fine_steps = []
    lockstep = transport._lockstep

    def recording(*args, **options):
        results = lockstep(*args, **options)
        fine_steps.extend(r[2] for r in results)
        return results

    monkeypatch.setattr(transport, "_lockstep", recording)
    return fine_steps


def test_step_doubling_samples_each_point_once(borel, kernel_calls, accepted_steps):
    """Over all levels, the kernel sees each point of every segment's
    accepted half-step grid exactly once: sum(4 N_i + 1) points in all."""
    path_transport_matrix(borel.manifold, W, borel.loops["golden1"].segments)
    fine_steps = accepted_steps
    assert max(fine_steps) > 2 * MIN_STEPS  # it doubled
    assert len(set(fine_steps)) > 1  # the segments accepted at different levels
    # N_i = n_fine // 2 coarse steps of segment i's accepted grid
    assert sum(kernel_calls) == sum(4 * (n_fine // 2) + 1 for n_fine in fine_steps)


def _paths(entry, count, seed):
    """Loops of ``entry`` and their middle pieces (open paths), plus an
    empty path."""
    loops = random_rectangle_loops(entry.manifold, entry.sample_region, count, seed,
                                   basepoint=entry.basepoint)
    return [loop.segments for loop in loops] + [loop.segments[1:3] for loop in loops] + [[]]


@pytest.mark.parametrize("steps", [None, 8, 200])
@pytest.mark.parametrize("covector", [False, True])
@pytest.mark.parametrize("cap", [None, ("MAX_BATCH_POINTS", 64),
                                 ("MAX_HELD_POINTS", 200)])
def test_batch_equals_each_path_alone(sphere2, sphere3, borel, monkeypatch,
                                      accepted_steps, steps, covector, cap):
    """A batch returns, bit for bit, what each path gives alone at the
    default caps, also when calls are cut at 64 points (inside segments and
    between them) and when segments wait for room to hold their samples, on
    slanted segments as well."""
    for entry, kind in ((sphere3, W), (borel, DW), (sphere2, W)):
        M = entry.manifold
        paths = _paths(entry, 3, seed=5)
        if entry is sphere2:
            paths.insert(1, _curve_loop().segments)
        alone = [path_transport_matrix(M, kind, path, steps=steps, covector=covector)
                 for path in paths]
        accepted_steps.clear()
        with monkeypatch.context() as patched:
            if cap is not None:
                patched.setattr(transport, *cap)
            batch = path_transport_many(M, kind, paths, steps=steps, covector=covector)
        fine_steps = list(accepted_steps)
        assert len(batch) == len(paths)
        for (P, est), (P1, est1) in zip(batch, alone):
            assert np.array_equal(P, P1) and est == est1
        assert len(fine_steps) == sum(len(path) for path in paths)
        if steps is None:
            assert len(set(fine_steps)) > 1  # segments accepted at different levels
        else:
            assert set(fine_steps) == {2 * steps}


@pytest.mark.parametrize("steps", [None, 8])
def test_holonomy_batch_equals_each_loop_alone(tri3, monkeypatch, steps):
    loops = random_rectangle_loops(tri3.manifold, tri3.sample_region, 4, seed=9,
                                   basepoint=tri3.basepoint)
    alone = [holonomy(tri3.manifold, W, loop, steps=steps, frames_per_segment=3)
             for loop in loops]
    monkeypatch.setattr(transport, "MAX_BATCH_POINTS", 64)
    batch = holonomy_many(tri3.manifold, W, loops, steps=steps, frames_per_segment=3)
    for h, h1 in zip(batch, alone):
        assert np.array_equal(h.matrix, h1.matrix)
        assert (h.est_error, h.steps_used) == (h1.est_error, h1.steps_used)
        assert _same_bits(h.frames, h1.frames)
        assert _same_bits(h.positions, h1.positions)


def test_kernel_calls_hold_at_most_max_batch_points(sphere3, kernel_calls):
    """3 loops of 6 segments and their 2-segment middle pieces on a fixed
    grid of 801 points, but the second loop's two edges along the last
    angle, which sphereN(3)'s geometry does not read, and the one of its
    middle piece give one point each."""
    path_transport_many(sphere3.manifold, W, _paths(sphere3, 3, seed=5), steps=200)
    assert sum(kernel_calls) == 6 * 3 * 801 + 2 * 3 * 801 - 3 * 800
    assert max(kernel_calls) <= transport.MAX_BATCH_POINTS


@pytest.mark.parametrize("steps", [None, 50])
def test_batch_raises_the_out_of_domain_error_of_its_path(sphere2, steps):
    h = math.pi / 2
    inside = [Line([h, 0.0], [h + 0.3, 0.5]), Line([h + 0.3, 0.5], [h, 1.0])]
    leaving = [Line([h, 0.0], [h, 0.4]), Line([h, 0.4], [math.pi + 1.0, 0.4])]
    with pytest.raises(OutOfDomain) as alone:
        path_transport_matrix(sphere2.manifold, W, leaving, steps=steps)
    with pytest.raises(OutOfDomain) as batch:
        path_transport_many(sphere2.manifold, W, [inside, leaving, inside], steps=steps)
    assert str(batch.value) == str(alone.value)
    assert batch.value.point == alone.value.point


def test_batch_raises_the_first_error_it_meets(sphere2, monkeypatch):
    """A batch raises errors in round order: a later path that leaves the
    chart in the first round is reported before an earlier path whose
    segment runs out of steps when the first round is accepted."""
    h = math.pi / 2
    long_way = [Line([0.5, 0.0], [0.5, 6.0])]  # a latitude circle near the pole
    leaving = [Line([h, 0.0], [math.pi + 1.0, 0.0])]
    monkeypatch.setattr(transport, "MAX_FINE_STEPS", 2 * MIN_STEPS)
    with pytest.raises(StepUnderflow):
        path_transport_matrix(sphere2.manifold, W, long_way)
    with pytest.raises(OutOfDomain):
        path_transport_many(sphere2.manifold, W, [long_way, leaving])


def test_advancing_keeps_held_points_within_the_cap():
    """Live segments advance in order while what the batch holds after the
    round fits the cap (4N + 1 points after level N); the first always
    advances, and a segment too big to fit waits while later ones go on."""
    advancing = transport._advancing
    # levels 8, 32, 8 and two not started: held 33 + 129 + 33 = 195 points;
    # advancing adds 32, 128 and 32 points, and 33 for each start
    level = [8, 32, 8, 0, 0]
    live = list(range(5))
    assert advancing(live, level, 8, math.inf) == live
    assert advancing(live, level, 8, 195 + 32 + 128 + 32 + 33) == [0, 1, 2, 3]
    assert advancing(live, level, 8, 195 + 32 + 32 + 33) == [0, 2, 3]
    assert advancing(live, level, 8, 0) == [0]
    assert advancing([3, 4], level, 8, 33) == [3]


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
        back = Loop(segments=[Line(seg.end, seg.start) for seg in loop1.segments[::-1]],
                    basepoint=loop1.basepoint)
        Pinv = holonomy(M, W, back, steps=300).matrix
        assert np.abs(Pinv - np.linalg.inv(P1)).max() < 1e-6


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


def test_family_not_trivial_raises_at_default_target(borel):
    fam = LoopFamily(family=lambda s: borel.loops["golden1"], s_max=1.0)
    with pytest.raises(FamilyNotTrivial):
        family_derivative(borel.manifold, W, fam)


def test_family_derivative_golden_at_default_target(sphere2, monkeypatch):
    # on the fixed 2000-step grid roundoff left 6.1e-12 of beta
    Db = family_derivative(sphere2.manifold, W, sphere2.families["beta"])
    assert np.abs(Db - BETA_DERIVATIVE).max() <= 1e-10
    Da = family_derivative(sphere2.manifold, W, sphere2.families["alpha"])
    # roundoff divided by s floors the estimate near 3e-12: 1e-11 is in reach
    monkeypatch.setattr(transport, "DEFAULT_ERROR_TARGET", 1e-11)
    tight = family_derivative(sphere2.manifold, W, sphere2.families["alpha"])
    assert np.abs(Da - tight).max() <= 1e-10


@pytest.mark.parametrize("s_step", [1e-4, 1e-5])
def test_family_derivative_small_s_step(sphere2, s_step, kernel_calls):
    """Roundoff divided by s_step lifts the derivative's Richardson
    estimate above the target at every N once s_step is small (about 1e-9
    at s_step = 1e-5); the stop test allows for that floor instead of
    refining until StepUnderflow."""
    Da = family_derivative(sphere2.manifold, W, sphere2.families["alpha"],
                           s_step=s_step)
    assert (np.abs(Da - ALPHA_DERIVATIVE) / np.abs(ALPHA_DERIVATIVE)).max() < 1e-3
    assert sum(kernel_calls) <= 0.05 * 128016


def test_family_derivative_samples_one_shared_grid(sphere2, kernel_calls,
                                                  monkeypatch):
    """Every segment of the loops at s, s/2, s/4 that moves r is sampled on
    one grid of 4N + 1 points, each point once.  The others move only the
    angle, which sphere2's geometry does not read, and give one point per
    level: the two of each loop at s, s/2, s/4 at the levels 8, 16, ...,
    N, and the four of the loop at 0 once."""
    fam = sphere2.families["alpha"]
    p0_steps = []
    p0_transport = transport.path_transport_matrix

    def spy(*args, steps=None, **kwargs):
        p0_steps.append(steps)
        return p0_transport(*args, steps=steps, **kwargs)

    monkeypatch.setattr(transport, "path_transport_matrix", spy)
    family_derivative(sphere2.manifold, W, fam)
    [n] = p0_steps  # P(0) is integrated at the accepted N
    grid = 4 * n + 1
    assert grid > 4 * MIN_STEPS + 1  # it doubled
    levels = int(math.log2(n // MIN_STEPS)) + 1
    assert sum(kernel_calls) == 6 * grid + 6 * levels + 4


def test_default_family_derivative_kernel_points(borel, kernel_calls):
    """The fixed 2000-step grid took 4 loops x 4 segments x 8001 = 128,016
    kernel points for a shrinking rectangle; step control needs <= 5%."""
    fam = shrinking_rectangle_family(np.array([0.1, -0.2]), 0, 1, 0.5, 0.6)
    D = family_derivative(borel.manifold, W, fam)
    assert np.abs(D).max() < 1e-5
    assert sum(kernel_calls) <= 0.05 * 128016


def test_family_derivative_step_underflow(sphere2, monkeypatch):
    # beta's estimate is 5.7e-8 at 64 fine steps per segment, far above
    # the target plus its roundoff floor (5.7e-12)
    monkeypatch.setattr(transport, "MAX_FINE_STEPS", 64)
    with pytest.raises(StepUnderflow):
        family_derivative(sphere2.manifold, W, sphere2.families["beta"])


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


def test_predicted_block_default_target_matches_fixed_grid(tri3, sphere3):
    for entry in (tri3, sphere3):
        for free, fixed, loops in entry.block_slices:
            for loop in loops:
                pred = predicted_block_transport(entry.manifold, free, fixed, loop)
                fixed_grid = predicted_block_transport(entry.manifold, free, fixed,
                                                       loop, steps=2000)
                assert np.abs(pred - fixed_grid).max() <= 2e-9


def test_predicted_block_fixed_grid_misses_target_raises(tri3):
    with pytest.raises(StepUnderflow):
        predicted_block_transport(tri3.manifold, [0, 1], {2: 0.0},
                                  tri3.loops["square"], steps=4, error_target=1e-14)


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
    # out along a bulge off the equator as a polyline of four slanted
    # chords, back along the equator by a Line
    h = math.pi / 2
    ts = np.linspace(0.0, 1.0, 5)
    out = np.stack([h + 0.2 * np.sin(np.pi * ts), 1.0 + ts], axis=-1)
    return Loop(segments=polyline_segments(list(out) + [out[0]]), basepoint=out[0])


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


# The benchmark's non-diagonal 3-d metric (perfbench `holonomy` workload).
BENCH_FULL3 = {
    "dim": 3, "coords": ["x", "y", "z"],
    "metric": {"full": [["2+sin(y)", "0.3*cos(z)", "0"],
                        ["0.3*cos(z)", "2+cos(x)", "0.2*sin(x*y)"],
                        ["0", "0.2*sin(x*y)", "exp(x*z/2)"]]},
    "phi": "x*y+0.5*sin(z)", "domain": [[-0.9, 0.9]] * 3, "name": "bench_full3",
}


def _per_piece_frames(basepoint, trail, frames_per_segment, dim):
    """Reference: frames from each segment's (fine steps, half-step
    positions, per-step matrices), one ordered product per piece."""
    positions = [basepoint]
    frames = [np.eye(dim)]
    for n_fine, pos, step_mats in trail:
        pieces = min(frames_per_segment, n_fine)
        # step index of each piece end
        cuts = np.arange(pieces + 1) * n_fine // pieces
        for a, b in zip(cuts[:-1], cuts[1:]):
            frames.append(transport._ordered_product(step_mats[a:b]) @ frames[-1])
            positions.append(pos[2 * b])
    return np.stack(positions), np.stack(frames)


def _same_bits(a, b):
    """Equal arrays, signed zeros included."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.fixture
def piece_reductions(monkeypatch):
    """Records each segment that ``transport._piece_products`` reduces, as
    (fine steps, positions, per-step matrices) copies, and per call (fine
    steps, retiring segments per group that has any, ordered products
    taken)."""
    trail, reductions, calls = [], [], []
    piece_products, ordered_product = transport._piece_products, transport._ordered_product

    def recording(groups, stacks, done, pieces):
        retiring, first = [], 0
        for group, (pos, step_mats) in zip(groups, stacks):
            rows = np.flatnonzero(done[first:first + len(group)])
            first += len(group)
            trail.extend((step_mats.shape[1], pos[r].copy(), step_mats[r].copy()) for r in rows)
            retiring += [len(rows)] if len(rows) else []
        before = len(calls)
        out = piece_products(groups, stacks, done, pieces)
        reductions.append((stacks[0][1].shape[1], retiring, len(calls) - before))
        return out

    def counting(mats):
        calls.append(mats.shape)
        return ordered_product(mats)

    monkeypatch.setattr(transport, "_piece_products", recording)
    monkeypatch.setattr(transport, "_ordered_product", counting)
    return trail, reductions


def _run_lengths(n_fine, per_segment):
    """Distinct lengths of the runs a segment of ``n_fine`` steps is cut into."""
    pieces = min(per_segment, n_fine)
    return len(set(np.diff(np.arange(pieces + 1) * n_fine // pieces).tolist()))


def _loop_trail(trail, loop):
    """The recorded rows of ``loop``'s segments, in path order (segments
    retire in level order): the row sampled from the segment's start to
    its end."""
    return [next(t for t in trail if np.array_equal(t[1][0], seg.start)
                 and np.abs(t[1][-1] - seg.end).max() <= 1e-15)
            for seg in loop.segments]


@pytest.mark.parametrize("steps", [7, None])
@pytest.mark.parametrize("per_segment", [3, 5, 1024])
@pytest.mark.parametrize("which", ["borel2d", "bench_full3"])
def test_stacked_frame_pieces_equal_per_piece_products(borel, piece_reductions, which,
                                                       per_segment, steps):
    if which == "borel2d":
        M, loop = borel.manifold, borel.loops["golden1"]
    else:
        M = _build_custom_manifold(BENCH_FULL3)
        pts = [[-0.4, 0.1, 0.3], [0.5, -0.2, 0.1], [0.2, 0.5, -0.5], [-0.4, 0.1, 0.3]]
        loop = Loop(segments=polyline_segments(pts), basepoint=pts[0])
    trail, reductions = piece_reductions
    h = holonomy(M, W, loop, steps=steps, frames_per_segment=per_segment)
    trail = _loop_trail(trail, loop)
    positions, frames = _per_piece_frames(loop.basepoint, trail, per_segment, M.dim)
    assert _same_bits(h.frames, frames)
    assert _same_bits(h.positions, positions)
    # one ordered product per run length (at most two) and retiring group
    assert all(products == _run_lengths(n_fine, per_segment) * len(retiring)
               and _run_lengths(n_fine, per_segment) <= 2
               for n_fine, retiring, products in reductions)
    if steps is not None:  # one group, which retires at once: one reduction
        assert reductions == [(2 * steps, [len(loop.segments)],
                               _run_lengths(2 * steps, per_segment))]
    n_fine = [n for n, _, _ in trail]
    if per_segment == 1024:  # one piece per step
        assert max(n_fine) <= per_segment
    else:  # pieces of two lengths
        assert any(n % per_segment for n in n_fine)
    if which == "borel2d":
        assert (frames == 0).any()


@pytest.mark.parametrize("per_segment", [5, 1024])
@pytest.mark.parametrize("which", ["borel2d", "bench_full3"])
def test_bulk_frames_of_loops_with_unequal_piece_counts(borel, piece_reductions, which,
                                                        per_segment):
    """Step-controlled loops of 3, 4 and 6 segments, whose frame counts
    differ, get from one batch the frames of their pieces' products taken
    one by one, signed zeros included: no kept frame reads another loop's
    pieces or the identity padding after its own."""
    if which == "borel2d":
        M, base = borel.manifold, [0.1, 0.05]
        rings = [[base, [0.7, 0.05], [0.4, 0.6], base],
                 [base, [0.1, -0.8], [-0.5, -0.8], [-0.5, 0.05], base],
                 [base, [0.1, 0.9], [-0.3, 0.9], [-0.3, 1.5], [-0.9, 1.5], [-0.9, 0.4], base]]
    else:
        M, base = _build_custom_manifold(BENCH_FULL3), [0.05, -0.1, 0.2]
        rings = [[base, [0.5, -0.1, 0.2], [0.3, 0.4, -0.3], base],
                 [base, [0.05, -0.6, 0.2], [-0.5, -0.6, 0.2], [-0.5, -0.1, 0.2], base],
                 [base, [0.05, -0.1, 0.6], [-0.4, -0.1, 0.6], [-0.4, 0.3, 0.6],
                  [-0.4, 0.3, -0.3], [0.05, 0.3, -0.3], base]]
    loops = [Loop(segments=polyline_segments(ring), basepoint=ring[0]) for ring in rings]
    trail, reductions = piece_reductions
    batch = holonomy_many(M, W, loops, frames_per_segment=per_segment)
    assert len({len(h.frames) for h in batch}) == 3
    for h, loop in zip(batch, loops):
        positions, frames = _per_piece_frames(loop.basepoint, _loop_trail(trail, loop),
                                              per_segment, M.dim)
        assert _same_bits(h.frames, frames)
        assert _same_bits(h.positions, positions)
        assert np.abs(h.frames[-1] - h.matrix).max() <= 1e-12
    # segments that retire together share a reduction
    groups = sum(len(retiring) for _, retiring, _ in reductions)
    assert groups < sum(len(loop.segments) for loop in loops)
    if which == "borel2d":
        assert any((h.frames == 0).any() for h in batch)


@pytest.mark.parametrize("pieces", [5, 16, 40])
def test_piece_products_keep_signed_zeros(pieces):
    # one-step pieces (16 and 40 pieces of 24 steps) are the step matrices
    # themselves, -0.0 entries included; segments 5 and 7 of a group of
    # three and segment 9 of a second group of one retire
    rng = np.random.default_rng(3)
    step_mats = rng.normal(size=(4, 24, 3, 3))
    step_mats[rng.random(step_mats.shape) < 0.3] = -0.0
    pos = rng.normal(size=(4, 49, 3))
    out = transport._piece_products([[5, 6, 7], [9]], [(pos[:3], step_mats[:3]),
                                                       (pos[3:], step_mats[3:])],
                                    np.array([True, False, True, True]), pieces)
    cuts = np.arange(min(pieces, 24) + 1) * 24 // min(pieces, 24)
    assert sorted(out) == [5, 7, 9]
    for r, segment in [(0, 5), (2, 7), (3, 9)]:
        products, ends = out[segment]
        assert _same_bits(products, np.stack([transport._ordered_product(step_mats[r, a:b])
                                              for a, b in zip(cuts[:-1], cuts[1:])]))
        assert _same_bits(ends, pos[r, 2 * cuts[1:]])
        if pieces > 12:
            assert np.signbit(products[products == 0]).any()


def test_frames_chain_equals_pieces_multiplied_one_by_one():
    """Frames of loops of 1, 3 and 2 segments, with 7, 15 and 4 pieces,
    from piece products with -0.0 entries: the stacked chain gives each
    loop's frames the bits of its pieces multiplied one by one, and no
    loops no frames."""
    rng = np.random.default_rng(11)
    loops, trails = [], []
    for pieces in ([7], [5, 6, 4], [1, 3]):
        trail = []
        for count in pieces:
            products = rng.normal(size=(count, 3, 3))
            products[rng.random(products.shape) < 0.5] = -0.0
            trail.append((count, products, rng.normal(size=(count, 3))))
        loops.append(Loop(segments=[Line(np.zeros(3), np.zeros(3))], basepoint=rng.normal(size=3)))
        trails.append(trail)
    out = transport._frames(loops, trails, 3)
    for loop, trail, got in zip(loops, trails, out):
        frames = [np.eye(3)]
        for _, products, _ in trail:
            for piece in products:
                frames.append(piece @ frames[-1])
        assert _same_bits(got["frames"], np.stack(frames))
        assert _same_bits(got["positions"], np.concatenate(
            [loop.basepoint[None]] + [ends for _, _, ends in trail]))
    assert transport._frames([], [], 3) == []


def test_retired_segments_hold_only_piece_products(sphere2, piece_reductions):
    loop = rectangle_loop(sphere2.basepoint, 0, 1, 0.3, 0.4)
    results = transport._lockstep(list(loop.segments), transport._kernel(sphere2.manifold, W),
                                  start=30, pieces=7)
    for fine, coarse, n_fine, products, ends in results:
        assert n_fine == 60
        assert products.shape == (7, 2, 2) and ends.shape == (7, 2)
        # new arrays, not views that pin the group's per-step matrices
        assert products.base is None and ends.base is None
    # the group's four segments in one reduction: runs of 8 and 9 steps
    assert piece_reductions[1] == [(60, [4], 2)]


# ---------------------------------------------------------------------------
# Constant segments: along coordinates the geometry does not read
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _sampled_whole():
    """Inside the block every transport kernel declares no ``reads``, like
    block prediction's coefficient function: no segment is constant, and
    the lockstep engine samples each one whole, the reference for the
    constant-segment shortcut."""
    kernel = transport._kernel

    def unread(*args):
        coeffs = kernel(*args)

        def sampled(pos, vel):
            return coeffs(pos, vel)
        sampled.chart = coeffs.chart
        return sampled

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(transport, "_kernel", unread)
        yield


def test_uniform_product_equals_the_ordered_product_of_copies():
    rng = np.random.default_rng(5)
    step = np.eye(3) + 0.05 * rng.standard_normal((3, 3, 3))
    step[1][rng.random((3, 3)) < 0.4] = -0.0
    step[2] *= 8.0  # its powers overflow past about 340 copies
    for count in list(range(1, 70)) + [200, 400, 401, 800, 1024, 2 ** 16]:
        copies = np.repeat(step[:, None], count, axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = transport._ordered_product(copies)
            assert _same_bits(transport._uniform_product(step, count), expected), count
    assert not np.isfinite(expected[2]).any()


@pytest.mark.parametrize("kind", [W, DW, LC])
def test_one_point_kernel_rows_equal_batched_rows(kind):
    """A constant segment gives the kernel one point and stands for all of
    its rows, so a row must not depend on the points it is batched with."""
    from hololab.catalog import default_entries
    rng = np.random.default_rng(17)
    for entry in default_entries():
        M = entry.manifold
        lo, hi = np.array(entry.sample_region).T
        pos = lo + (hi - lo) * rng.random((9, M.dim))
        vel = rng.standard_normal((9, M.dim))
        vel[rng.random(vel.shape) < 0.3] = 0.0
        for covector in (False, True):
            kernel = transport._kernel(M, kind, covector)
            batched = kernel(pos, vel)
            for k in range(len(pos)):
                assert _same_bits(kernel(pos[k:k + 1], vel[k:k + 1])[0], batched[k]), \
                    (entry.name, covector, k)


def _loops_along_unread_axes(name):
    """Seeded loops of ``name`` with spokes, and rectangles whose edges or
    spokes move only coordinates that its geometry does not read."""
    from hololab.catalog import get_entry
    entry = get_entry(name)
    base = entry.basepoint
    loops = random_rectangle_loops(entry.manifold, entry.sample_region, 3, seed=4,
                                   basepoint=base)
    unread = {"sphereN(4)": [3], "so_pq(1,2)": [0, 1], "so11_2d": [0]}[name]
    last = unread[-1]
    shifted = base.copy()
    shifted[last] += 0.3
    loops.append(rectangle_loop(base, 0 if last else 1, last, 0.2, 0.5))
    loops.append(rectangle_loop(shifted, 0 if last else 1, last, -0.2, 0.4, basepoint=base))
    if len(unread) == 2:
        loops.append(rectangle_loop(base, unread[0], unread[1], 0.3, -0.4))
    return entry.manifold, loops


@pytest.mark.parametrize("steps", [None, 8, 200])
@pytest.mark.parametrize("name", ["sphereN(4)", "so_pq(1,2)", "so11_2d"])
def test_constant_segments_equal_their_sampled_transport(name, steps, kernel_calls):
    """Constant segments give the matrices, estimates and steps of the same
    paths sampled whole, bit for bit, for every kind and both directions,
    and with frames; they give the kernel fewer points."""
    M, loops = _loops_along_unread_axes(name)
    paths = [loop.segments for loop in loops] + [loop.segments[1:4] for loop in loops]
    constant = transport._constant_segments([s for p in paths for s in p],
                                            transport._kernel(M, W))
    assert constant.any() and not constant.all()
    for kind in (W, DW, LC):
        frames = 3 if kind == W else 0

        def run():
            kernel_calls.clear()
            transports = [path_transport_many(M, kind, paths, steps=steps, covector=covector)
                          for covector in (False, True)]
            points = sum(kernel_calls)
            return transports, points, holonomy_many(M, kind, loops, steps=steps,
                                                      frames_per_segment=frames)

        transports, points, elements = run()
        with _sampled_whole():
            sampled, sampled_points, sampled_elements = run()
        assert points < sampled_points
        for lines, whole in zip(transports, sampled):
            for (P, est), (Ps, ests) in zip(lines, whole):
                assert _same_bits(P, Ps) and est == ests
        for h, hs in zip(elements, sampled_elements):
            assert _same_bits(h.matrix, hs.matrix)
            assert (h.est_error, h.steps_used) == (hs.est_error, hs.steps_used)
            if frames:
                assert _same_bits(h.frames, hs.frames)
                assert _same_bits(h.positions, hs.positions)


def test_constant_segments_keep_family_derivatives(sphere2, so11, kernel_calls):
    """The alpha loops of sphere2 run along the angle, which its geometry
    does not read, on two of their four edges, and so11_2d's shrinking
    rectangle along x on two: the derivatives keep their bits."""
    cases = [(sphere2.manifold, sphere2.families["alpha"], None),
             (sphere2.manifold, sphere2.families["alpha"], 20),
             (so11.manifold, shrinking_rectangle_family([0.2, -0.3], 0, 1, 0.5, 0.4), None)]
    for M, fam, steps in cases:
        kernel_calls.clear()
        D = family_derivative(M, W, fam, steps=steps)
        points = sum(kernel_calls)
        kernel_calls.clear()
        with _sampled_whole():
            assert _same_bits(D, family_derivative(M, W, fam, steps=steps))
        assert points < sum(kernel_calls)


BOUNDED_Y = {"dim": 2, "coords": ["x", "y"], "metric": {"diag": ["1+x^2", "2+cos(x)"]},
             "phi": "x/2", "domain": [[-2, 2], [-1, 1]]}


def _same_error(run, paths, error):
    """``run`` raises the same ``error``, message and point, on ``paths``
    as on the same paths sampled whole."""
    with pytest.raises(error) as lines:
        run(paths)
    with _sampled_whole(), pytest.raises(error) as sampled:
        run(paths)
    assert str(lines.value) == str(sampled.value)
    assert np.array_equal(lines.value.point, sampled.value.point)
    return lines.value


@pytest.mark.parametrize("steps", [None, 50])
def test_constant_segment_leaving_the_chart_raises_at_its_first_outside_sample(steps):
    M = _build_custom_manifold(BOUNDED_Y)
    leaving = [Line([0.3, 0.0], [0.3, 1.5])]  # moves y only; the geometry reads x
    assert transport._constant_segments(leaving, transport._kernel(M, W)).all()
    run = lambda paths: path_transport_many(M, W, paths, steps=steps)  # noqa: E731
    error = _same_error(run, [leaving], OutOfDomain)
    ts = transport._fine_grid(steps or MIN_STEPS)
    assert np.array_equal(error.point, [0.3, 1.5 * ts[1.5 * ts >= 1.0][0]])
    # with a varying segment that also leaves, before and after it
    varying = [Line([0.0, 0.0], [2.5, 0.5])]
    inside = [Line([0.0, 0.0], [0.5, 0.5])]
    for paths in ([inside, leaving, varying], [inside, varying, leaving]):
        _same_error(run, paths, OutOfDomain)


def test_constant_segment_on_a_singular_metric_raises_the_kernel_error():
    from hololab.errors import SingularMetric
    from hololab.manifold import (CoordinateChart, DensityField, MetricField,
                                  WeightedManifold)
    chart = CoordinateChart(dim=2, coord_names=("x", "y"))
    M = WeightedManifold(chart=chart, density=DensityField.from_expression(chart, "x"),
                         metric=MetricField.from_expressions(chart, ["1+x^2", "x^2"], (2, 0),
                                                             validate=False))
    singular = [Line([0.0, 0.1], [0.0, 0.5])]  # det g = 0 all along x = 0
    assert transport._constant_segments(singular, transport._kernel(M, W)).all()
    crossing = [Line([-0.5, 0.2], [0.5, 0.3])]
    inside = [Line([0.5, 0.0], [0.7, 0.5])]
    run = lambda paths: path_transport_many(M, W, paths, steps=8)  # noqa: E731
    for paths in ([inside, singular, crossing], [inside, crossing, singular]):
        _same_error(run, paths, SingularMetric)


def _outside_error(point):
    """The message and point of an OutOfDomain at ``point``."""
    point = tuple(float(x) for x in point)
    return f"point {point} outside chart domain: path exits the chart", point


@pytest.mark.parametrize("steps", [None, 50])
def test_last_sample_alone_outside_the_chart_raises_there(steps):
    """The chart's box is open: a segment that ends on its edge leaves it
    at its last sample only, on a varying and on a constant segment."""
    M = _build_custom_manifold(BOUNDED_Y)
    inside = [Line([0.0, 0.0], [0.5, 0.5])]
    run = lambda paths: path_transport_many(M, W, paths, steps=steps)  # noqa: E731
    for end in ([0.5, 1.0], [0.0, 1.0]):  # moving x and y, then y only
        edge = [Line([0.0, 0.0], end)]
        assert transport._constant_segments(edge, transport._kernel(M, W))[0] == (end[0] == 0)
        error = _same_error(run, [inside, edge, inside], OutOfDomain)
        assert (str(error), error.point) == _outside_error(end)


def test_path_leaving_the_chart_mid_batch_raises_at_its_first_outside_sample(
        monkeypatch, kernel_calls):
    """Step-controlled, with a held cap that lets one segment advance at a
    time: the leaving path starts rounds after the first, and its error is
    the one it raises alone, at its first outside sample."""
    M = _build_custom_manifold(BOUNDED_Y)
    monkeypatch.setattr(transport, "MAX_HELD_POINTS", 40)
    inside = [Line([0.0, 0.0], [0.5, 0.5]), Line([0.5, 0.5], [-0.5, 0.2])]
    leaving = [Line([-0.5, 0.2], [0.0, 0.0]), Line([0.0, 0.0], [0.5, 1.5])]
    run = lambda paths: path_transport_many(M, W, paths)  # noqa: E731
    with pytest.raises(OutOfDomain) as alone:
        run([leaving])
    kernel_calls.clear()
    error = _same_error(run, [inside, inside, leaving, inside], OutOfDomain)
    assert kernel_calls  # the paths before it were integrated first
    ts = transport._fine_grid(MIN_STEPS)
    k = np.flatnonzero(1.5 * ts >= 1.0)[0]
    point = [0.5 * ts[k], 1.5 * ts[k]]
    assert (str(error), error.point) == (str(alone.value), alone.value.point)
    assert (str(error), error.point) == _outside_error(point)


@pytest.mark.parametrize("steps", [None, 50])
def test_constant_segment_outside_the_chart_raises_at_its_first_sample(steps):
    M = _build_custom_manifold(BOUNDED_Y)
    outside = [Line([0.5, 0.5], [0.3, 0.5]), Line([0.3, 1.2], [0.3, 1.6])]
    assert transport._constant_segments(outside[1:], transport._kernel(M, W)).all()
    run = lambda paths: path_transport_many(M, W, paths, steps=steps)  # noqa: E731
    error = _same_error(run, [[Line([0.0, 0.0], [0.5, 0.5])], outside], OutOfDomain)
    assert (str(error), error.point) == _outside_error([0.3, 1.2])


def test_kernel_error_of_a_first_call_comes_before_a_chart_error_in_the_second():
    """A segment of 1201 samples is cut into kernel calls of 1024 and 177
    points: the metric is singular at x = 0, in the first call, and the
    path leaves the chart (y < 1) in the second."""
    from hololab.errors import SingularMetric
    from hololab.manifold import (CoordinateChart, DensityField, MetricField,
                                  WeightedManifold)
    chart = CoordinateChart(dim=2, coord_names=("x", "y"),
                            domain=((-math.inf, math.inf), (-1.0, 1.0)))
    M = WeightedManifold(chart=chart, density=DensityField.from_expression(chart, "x"),
                         metric=MetricField.from_expressions(chart, ["1+x^2", "x^2"], (2, 0),
                                                             validate=False))
    segment = Line([-0.5, 0.0], [0.5, 1.1])
    pos = transport._sample([segment], transport._fine_grid(300))[0][0]
    assert len(pos) > transport.MAX_BATCH_POINTS
    assert pos[:transport.MAX_BATCH_POINTS, 1].max() < 1.0 <= pos[-1, 1]
    run = lambda paths: path_transport_many(M, W, paths, steps=300)  # noqa: E731
    error = _same_error(run, [[segment]], SingularMetric)
    x = pos[:transport.MAX_BATCH_POINTS, 0]
    k = int(np.abs((1 + x ** 2) * x ** 2).argmin())
    assert error.point == tuple(pos[k])


def test_a_group_tests_the_chart_once_on_its_segment_ends(sphere3, monkeypatch,
                                                          kernel_calls):
    """With every end inside, each group's one chart test takes 2 points per
    Line, on the first grid and on the odd-point grids of later levels; a
    constant segment still gives the kernel one row."""
    from hololab.manifold import CoordinateChart
    paths = _paths(sphere3, 3, seed=5)
    base = sphere3.basepoint
    moved = base + [0.2, 0.0, 0.0]
    paths.append([Line(base, moved), Line(moved, moved + [0.0, 0.0, 0.3])])
    kernel = transport._kernel(sphere3.manifold, W)
    assert transport._constant_segments(paths[-1], kernel).tolist() == [False, True]
    tested, groups = [], []
    contains, coefficients = CoordinateChart.contains, transport._coefficients

    def counting_contains(chart, pts):
        tested.append(len(pts))
        return contains(chart, pts)

    def counting_coefficients(coeffs, segments, ts, constant):
        groups.append((len(segments), len(ts)))
        return coefficients(coeffs, segments, ts, constant)

    monkeypatch.setattr(CoordinateChart, "contains", counting_contains)
    monkeypatch.setattr(transport, "_coefficients", counting_coefficients)
    for steps in (200, None):
        tested.clear()
        groups.clear()
        path_transport_many(sphere3.manifold, W, paths, steps=steps)
        assert tested == [2 * g for g, _ in groups]
        # odd-point grids (2N points) at later levels when step-controlled
        assert any(m % 2 == 0 for _, m in groups) == (steps is None)
    kernel_calls.clear()
    path_transport_many(sphere3.manifold, W, paths[-1:], steps=200)
    assert kernel_calls == [801 + 1]


def test_sample_is_start_plus_t_delta():
    """``_sample`` gives each Line's start + t * delta with the bits of that
    expression, its delta, end - start as computed once, at every sample,
    and its first and last samples as the ones the chart test reads, on a
    level's whole grid and on its odd points."""
    rng = np.random.default_rng(2)
    segments = [Line(a, b) for a, b in rng.normal(size=(5, 2, 3))]
    segments.append(Line([0.3, -0.0, 1.0], [0.3, 0.0, 1.0]))  # delta 0
    for seg in segments:
        assert _same_bits(seg.delta, seg.end - seg.start)
    for ts in (transport._fine_grid(8), np.arange(1, 64, 2) / 64):
        pos, vel, probe = transport._sample(segments, ts)
        for seg, p, v in zip(segments, pos, vel):
            assert _same_bits(p, seg.start + ts[:, None] * seg.delta)
            assert _same_bits(v, np.tile(seg.delta, (len(ts), 1)))
        assert _same_bits(probe, pos[:, [0, -1]].reshape(-1, 3))


@pytest.mark.parametrize("steps", [None, 20])
def test_curve_of_a_lines_own_callables_equals_the_line(borel, steps):
    """A Line rebuilt from another Line's own start and end, given as plain
    lists, reads its dimension from the start point, has the same delta bits,
    and its loop's transport has the original's bits, on a varying and on a
    constant (sphereN(4)) path."""
    M4, loops = _loops_along_unread_axes("sphereN(4)")
    for M, loop in [(borel.manifold, borel.loops["golden1"]), (M4, loops[-1])]:
        lines = [Line(seg.start.tolist(), seg.end.tolist()) for seg in loop.segments]
        assert [seg.start.shape for seg in lines] == [(M.dim,)] * len(lines)
        for seg, own in zip(lines, loop.segments):
            assert _same_bits(seg.delta, own.delta)
        h = holonomy(M, W, loop, steps=steps)
        hl = holonomy(M, W, Loop(segments=lines, basepoint=loop.basepoint), steps=steps)
        assert _same_bits(h.matrix, hl.matrix)
        assert (h.est_error, h.steps_used) == (hl.est_error, hl.steps_used)


def test_pinned_grid_matrices_keep_their_bits_without_the_estimate(sphere2, tri3,
                                                                   coarse_batches,
                                                                   rk4_passes):
    """On a fixed grid the batches whose estimate nobody reads skip the
    coarse pass (a family's P(0) check reads its own); every matrix has the
    bits of a run in which every batch forms it."""
    M, loops = _loops_along_unread_axes("sphereN(4)")
    paths = [loop.segments for loop in loops] + [loop.segments[1:4] for loop in loops]

    def run():
        out = [h.matrix for h in holonomy_many(M, W, loops, steps=20, estimate=False)]
        for covector in (False, True):
            out += [P for P, _ in path_transport_many(M, DW, paths, steps=20,
                                                      covector=covector, estimate=False)]
        out.append(family_derivative(sphere2.manifold, W, sphere2.families["alpha"],
                                     steps=20))
        out.append(predicted_block_transport(tri3.manifold, [0, 1], {2: 0.0},
                                             tri3.loops["square"], steps=20))
        for covector in (False, True):
            out += [P for P, _ in path_transport_many(M, LC, paths[:1], steps=20,
                                                      covector=covector, estimate=False)]
        return out

    skipped = run()
    assert coarse_batches == [False, False, False, False, True, False, False, False]
    passes = dict(rk4_passes)
    rk4_passes.clear()
    coarse_batches.force()
    formed = run()
    assert len(skipped) == len(formed)
    assert all(_same_bits(a, b) for a, b in zip(skipped, formed))
    # half the RK4 passes, 21 of 42, besides the 4 of the P(0) batch (its
    # degenerate segments are constant: a fine and a coarse pass on their
    # rows and on the group's empty varying rows)
    assert (passes["_rk4_steps"], rk4_passes["_rk4_steps"]) == (4 + 21, 4 + 42)
    for h in holonomy_many(M, W, loops[:1], steps=20, estimate=False):
        assert h.est_error is None
    assert path_transport_many(M, W, paths[:1], steps=20, estimate=False)[0][1] is None


def test_the_estimate_is_formed_wherever_it_is_read(borel, coarse_batches):
    """By default, under step control and for an explicit error target the
    coarse pass is formed: without an estimate a fixed grid still checks
    its target."""
    loop = borel.loops["golden1"]
    h = holonomy(borel.manifold, W, loop, steps=50)
    assert h.est_error == holonomy(borel.manifold, W, loop, steps=50, error_target=1.0).est_error
    assert 0 < h.est_error < 1e-6
    with pytest.raises(StepUnderflow):
        path_transport_many(borel.manifold, W, [loop.segments], steps=4,
                            error_target=1e-14, estimate=False)
    [(P, est)] = path_transport_many(borel.manifold, W, [loop.segments], estimate=False)
    assert est is None
    assert _same_bits(P, path_transport_matrix(borel.manifold, W, loop.segments)[0])
    assert coarse_batches == [True] * 5
