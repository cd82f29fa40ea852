"""Parallel transport along piecewise-C1 paths, holonomy, loop families.

The transport equation for a vector field U along sigma is linear,

    dU^k/dt + Gamma^k_ij(sigma(t)) sigma'^i(t) U^j = 0,

so each segment contributes a transfer matrix.  We integrate with classical
RK4 and compare a fine pass of 2N steps with a coarse pass of N steps on
the same samples; the returned matrix is the fine product.  Without an
explicit ``steps`` each segment is step-controlled (Hairer, Norsett and
Wanner, Solving ODEs I, section II.4): N starts at ``MIN_STEPS`` and
doubles until the segment's Richardson estimate |fine - coarse| / 15
meets its share (target / number of segments) of the error target,
``DEFAULT_ERROR_TARGET`` unless one is given.  A doubling samples only
the new odd-index points of the half-step grid, interleaves them with the
kept ones, and reuses the previous fine product as the new coarse
product.  Past ``MAX_FINE_STEPS`` fine steps on one segment the target is
out of reach and ``StepUnderflow`` is raised.  An explicit ``steps`` pins
a fixed grid of N = steps on every segment.

``est_error`` is the whole-path estimate |prod fine - prod coarse| / 15
plus the roundoff floor steps_used * eps * max|P|, where ``steps_used`` is
the number of accepted fine steps summed over the segments.

Because the coefficient matrix depends only on the (known) path position,
the coefficients at the sampled points come from the contracted kernel
``christoffel_many(M, kind, positions, velocities)``, which returns
B^k_j = Gamma^k_ij sigma'^i directly.  The per-step RK4 transfer matrices
are built with stacked matmuls and the ordered product is taken by
pairwise reduction -- no Python-level inner loop.  Holonomy, block
prediction and frame trajectories share this path: block prediction
integrates the fine pass only on a fixed grid, and a frame trajectory
splits each segment's accepted per-step matrices into pieces and takes
prefix products of the piece products, in the same integration that gives
the holonomy matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (EmptyRegion, FamilyNotTrivial, NotClosed, NotTotallyGeodesic,
                     OutOfDomain, StepUnderflow)
from .manifold import (ConnectionKind, WeightedManifold, christoffel_many,
                       restrict_manifold)

DEFAULT_STEPS = 2000   # fixed grid of loop families and block predictions
DEFAULT_ERROR_TARGET = 1e-10
MIN_STEPS = 8          # coarse steps a step-controlled segment starts from
MAX_FINE_STEPS = 2 ** 16
RK4_RICHARDSON = 15.0  # 2^order - 1
EPS = np.finfo(float).eps
CLOSURE_TOL = 1e-9
ENDPOINT_TOL = 1e-12


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathSegment:
    """One C1 piece, parametrized over t in [0, 1].

    Use Line(start, end) for coordinate straight lines, or Curve(position,
    velocity) for general smooth pieces; both callables must accept a float
    or a 1-d array of parameter values.
    """

    position: Callable
    velocity: Callable
    start: np.ndarray
    end: np.ndarray

    def sample(self, ts):
        ts = np.asarray(ts, dtype=float)
        try:
            pos = np.asarray(self.position(ts), dtype=float)
            vel = np.asarray(self.velocity(ts), dtype=float)
        except (TypeError, ValueError):
            pos = vel = None
        if pos is None or pos.ndim == 1:  # scalar-only callables
            pos = np.stack([np.asarray(self.position(t), dtype=float) for t in ts])
            vel = np.stack([np.asarray(self.velocity(t), dtype=float) for t in ts])
        return pos, vel


def Line(start, end) -> PathSegment:
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    delta = end - start

    def position(ts):
        ts = np.asarray(ts, dtype=float)
        return start[None, :] + np.atleast_1d(ts)[:, None] * delta[None, :]

    def velocity(ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        return np.broadcast_to(delta, (ts.shape[0], delta.shape[0])).copy()

    return PathSegment(position=position, velocity=velocity, start=start, end=end)


def Curve(position, velocity, check_consistency=True) -> PathSegment:
    """General segment from position/velocity callables on [0, 1].

    The velocity is spot-checked against a central difference of the
    position at five interior parameters.
    """
    p0 = np.asarray(position(0.0), dtype=float)
    p1 = np.asarray(position(1.0), dtype=float)
    seg = PathSegment(position=lambda ts: _vectorize_curve(position, ts),
                      velocity=lambda ts: _vectorize_curve(velocity, ts),
                      start=p0, end=p1)
    if check_consistency:
        h = 1e-6
        for t in (0.1, 0.3, 0.5, 0.7, 0.9):
            fd = (np.asarray(position(t + h), dtype=float)
                  - np.asarray(position(t - h), dtype=float)) / (2 * h)
            v = np.asarray(velocity(t), dtype=float)
            scale = max(1.0, float(np.abs(v).max()))
            if np.abs(fd - v).max() > 1e-6 * scale:
                raise ValueError(f"velocity inconsistent with position at t={t}")
    return seg


def _vectorize_curve(fn, ts):
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    out = np.asarray(fn(ts[0]), dtype=float)
    if out.ndim == 1:
        return np.stack([np.asarray(fn(t), dtype=float) for t in ts])
    return np.asarray(fn(ts), dtype=float)


def polyline_segments(points) -> list:
    pts = [np.asarray(p, dtype=float) for p in points]
    return [Line(a, b) for a, b in zip(pts[:-1], pts[1:])]


def rectangle_loop(corner, axis_a, axis_b, extent_a, extent_b, basepoint=None):
    """Axis-aligned rectangle based at ``basepoint`` via straight spokes."""
    corner = np.asarray(corner, dtype=float)
    e1 = np.zeros_like(corner); e1[axis_a] = extent_a
    e2 = np.zeros_like(corner); e2[axis_b] = extent_b
    ring = [corner, corner + e1, corner + e1 + e2, corner + e2, corner]
    if basepoint is None or np.allclose(basepoint, corner):
        return Loop(segments=polyline_segments(ring), basepoint=corner)
    base = np.asarray(basepoint, dtype=float)
    pts = [base] + ring + [base]
    return Loop(segments=polyline_segments(pts), basepoint=base)


@dataclass(frozen=True)
class Loop:
    segments: tuple
    basepoint: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "basepoint", np.asarray(self.basepoint, dtype=float))
        if not self.segments:
            raise NotClosed("loop has no segments")

    def validate(self, chart):
        """Consecutive endpoints must match exactly; the final endpoint must
        equal the basepoint modulo the chart's declared periods."""
        segs = self.segments
        if np.abs(segs[0].start - self.basepoint).max() > ENDPOINT_TOL:
            raise NotClosed("first segment does not start at the basepoint")
        for a, b in zip(segs[:-1], segs[1:]):
            if np.abs(a.end - b.start).max() > ENDPOINT_TOL:
                raise NotClosed(f"segment endpoints do not match: {a.end} vs {b.start}")
        gap = np.abs(chart.wrap_difference(segs[-1].end, self.basepoint)).max()
        if gap > CLOSURE_TOL:
            raise NotClosed(f"loop endpoint misses basepoint by {gap:.3e}")

    def reversed(self) -> "Loop":
        segs = []
        for seg in self.segments[::-1]:
            pos, vel = seg.position, seg.velocity
            segs.append(PathSegment(
                position=(lambda ts, p=pos: p(1.0 - np.asarray(ts, dtype=float))),
                velocity=(lambda ts, v=vel: -np.asarray(v(1.0 - np.asarray(ts, dtype=float)))),
                start=seg.end, end=seg.start))
        return Loop(segments=segs, basepoint=self.basepoint)


@dataclass(frozen=True)
class HolonomyElement:
    """A loop's transport matrix with its error estimate and the accepted
    fine steps summed over segments; ``positions`` and ``frames`` are set
    when ``holonomy`` was asked for frames."""

    matrix: np.ndarray
    loop: Loop
    steps_used: int
    est_error: float
    positions: np.ndarray = None
    frames: np.ndarray = None


@dataclass(frozen=True)
class LoopFamily:
    """One-parameter family s -> Loop on [0, s_max], trivial at s = 0."""

    family: Callable
    s_max: float


# ---------------------------------------------------------------------------
# Vectorized RK4 for linear matrix ODEs  Y' = A(t) Y
# ---------------------------------------------------------------------------

def _ordered_product(mats):
    """Product mats[-1] @ ... @ mats[0] by pairwise reduction."""
    while mats.shape[0] > 1:
        m = mats.shape[0]
        even = mats[0:m - m % 2:2]
        odd = mats[1:m:2]
        paired = odd @ even
        if m % 2:
            mats = np.concatenate([paired, mats[-1:]], axis=0)
        else:
            mats = paired
    return mats[0]


def _fine_grid(steps):
    """Half-step sample grid of the fine pass (2*steps RK4 steps on [0, 1]);
    its even-index subset is the coarse pass's grid."""
    return np.linspace(0.0, 1.0, 4 * steps + 1)


def _rk4_steps(A_half, h):
    """Per-step RK4 transfer matrices from A sampled on the half-step grid.

    A_half has shape (2N+1, d, d); returns the (N, d, d) stack of
    I + h/6 (K1 + 2 K2 + 2 K3 + K4), one per step.
    """
    d = A_half.shape[1]
    A1 = A_half[0:-1:2]
    A2 = A_half[1::2]
    A3 = A_half[2::2]
    eye = np.eye(d)[None, :, :]
    K1 = A1
    K2 = A2 @ (eye + (h / 2) * K1)
    K3 = A2 @ (eye + (h / 2) * K2)
    K4 = A3 @ (eye + h * K3)
    return eye + (h / 6) * (K1 + 2 * K2 + 2 * K3 + K4)


def _transport_matrices(M, kind, pos, vel, covector=False):
    """Matrix A(t) of the transport ODE Y' = A Y at sampled path points:
    -B for vectors, B^T for covectors, B^k_j = Gamma^k_ij sigma'^i."""
    inside = M.chart.contains(pos)
    if not inside.all():
        raise OutOfDomain(pos[~inside][0], "path exits the chart")
    B = christoffel_many(M, kind, pos, vel)
    return np.swapaxes(B, 1, 2) if covector else -B


def _interleave(even, odd):
    """Rows even[0], odd[0], even[1], ..., even[-1] (len(even) = len(odd) + 1)."""
    out = np.empty((even.shape[0] + odd.shape[0],) + even.shape[1:])
    out[0::2] = even
    out[1::2] = odd
    return out


def _richardson(fine, coarse):
    """Richardson estimate of the fine product's truncation error."""
    return float(np.abs(fine - coarse).max()) / RK4_RICHARDSON


def _segment_transport(M, kind, seg, steps, covector, share):
    """Fine and coarse transfer matrices of one segment, with the sample
    positions of its accepted half-step grid and the fine pass's per-step
    matrices.  N starts at ``steps`` and doubles until the segment's
    Richardson estimate is at most ``share`` (math.inf: the first grid)."""
    n = steps
    pos, vel = seg.sample(_fine_grid(n))
    A = _transport_matrices(M, kind, pos, vel, covector)
    coarse = _ordered_product(_rk4_steps(A[::2], 1.0 / n))
    while True:
        step_mats = _rk4_steps(A, 1.0 / (2 * n))
        fine = _ordered_product(step_mats)
        est = _richardson(fine, coarse)
        if est <= share:
            return fine, coarse, pos, step_mats
        if 4 * n > MAX_FINE_STEPS:
            raise StepUnderflow(f"segment error estimate {est:.3e} exceeds its share "
                                f"{share:.3e} of the target at {2 * n} steps")
        # the new half-step grid's even points are the current grid
        n *= 2
        new_pos, new_vel = seg.sample(np.arange(1, 4 * n, 2) / (4 * n))
        A = _interleave(A, _transport_matrices(M, kind, new_pos, new_vel, covector))
        pos = _interleave(pos, new_pos)
        coarse = fine


def path_transport_matrix(M, kind, path, steps=None, covector=False,
                          error_target=None, on_segment=None):
    """Transfer matrix of a piecewise path with its error estimate.

    Returns (matrix, est_error).  Without ``steps`` every segment is
    step-controlled to its share of ``error_target`` (default
    DEFAULT_ERROR_TARGET).  With ``steps`` the grid is fixed, and an
    explicit ``error_target`` that the estimate misses raises
    StepUnderflow.  ``on_segment(positions, step_matrices)``, if given, is
    called with each segment's accepted half-step sample positions and
    fine per-step RK4 matrices.
    """
    if steps is None:
        target = DEFAULT_ERROR_TARGET if error_target is None else error_target
        start, share = MIN_STEPS, target / max(1, len(path))
    else:
        start, share = steps, math.inf
    fine = coarse = np.eye(M.dim)
    fine_steps = 0
    for seg in path:
        f, c, pos, step_mats = _segment_transport(M, kind, seg, start, covector, share)
        fine = f @ fine
        coarse = c @ coarse
        fine_steps += step_mats.shape[0]
        if on_segment is not None:
            on_segment(pos, step_mats)
    # whole-path Richardson estimate plus the roundoff floor of the product
    est = _richardson(fine, coarse) + fine_steps * EPS * float(np.abs(fine).max())
    if steps is not None and error_target is not None and est > error_target:
        raise StepUnderflow(f"estimated error {est:.3e} exceeds target {error_target:.3e}")
    return fine, est


def transport_vector(M, kind, path, v0, steps=None, error_target=None):
    """Parallel-transport the vector v0 along the path; returns endpoint
    components in the coordinate basis."""
    P, _ = path_transport_matrix(M, kind, path, steps=steps, error_target=error_target)
    return P @ np.asarray(v0, dtype=float)


def transport_covector(M, kind, path, a0, steps=None, error_target=None):
    """Parallel-transport the 1-form a0 (row of components) along the path."""
    P, _ = path_transport_matrix(M, kind, path, steps=steps, covector=True,
                                 error_target=error_target)
    return P @ np.asarray(a0, dtype=float)


def holonomy(M, kind, loop: Loop, steps=None, error_target=None,
             frames_per_segment=0) -> HolonomyElement:
    """Transport around a closed loop (see ``path_transport_matrix`` for
    ``steps`` and ``error_target``).

    With ``frames_per_segment`` > 0 the element also carries the
    transported frame along the loop (the CLI's --plot output):
    ``positions`` (m, n) and ``frames`` (m, n, n), frames[t] mapping
    basepoint components to components at positions[t].  Each segment's
    accepted per-step matrices are split into that many pieces of whole
    steps (at most one piece per step) and the frames are prefix products
    of the piece products, so the frame at each segment end is the
    transport along the path so far and the last frame is the matrix.
    """
    loop.validate(M.chart)
    fine_steps = []
    positions = [loop.basepoint]
    frames = [np.eye(M.dim)]

    def on_segment(pos, step_mats):
        n_fine = step_mats.shape[0]
        fine_steps.append(n_fine)
        if frames_per_segment > 0:
            pieces = min(frames_per_segment, n_fine)
            # step index of each piece end
            cuts = np.arange(pieces + 1) * n_fine // pieces
            for a, b in zip(cuts[:-1], cuts[1:]):
                frames.append(_ordered_product(step_mats[a:b]) @ frames[-1])
                positions.append(pos[2 * b])

    P, est = path_transport_matrix(M, kind, loop.segments, steps=steps,
                                   error_target=error_target, on_segment=on_segment)
    trajectory = ({} if frames_per_segment <= 0 else
                  {"positions": np.stack(positions), "frames": np.stack(frames)})
    return HolonomyElement(matrix=P, loop=loop, steps_used=sum(fine_steps),
                           est_error=est, **trajectory)


# ---------------------------------------------------------------------------
# Loop families and their s-derivative at 0
# ---------------------------------------------------------------------------

def family_derivative(M, kind, fam: LoopFamily, s_step=1e-2, steps=None,
                      trivial_tol=1e-6):
    """One-sided derivative of s -> P(s) at 0, Richardson-extrapolated over
    s, s/2, s/4.  The family must integrate to the identity at s = 0.

    Every loop is integrated on one fixed grid of ``steps`` (default
    DEFAULT_STEPS): the RK4 truncation error cancels in the difference
    quotients only when s, s/2 and s/4 share a grid, so step control is
    never used here."""
    if steps is None:
        steps = DEFAULT_STEPS
    P0 = holonomy(M, kind, fam.family(0.0), steps=steps)
    gap = np.abs(P0.matrix - np.eye(M.dim)).max()
    if gap > max(10.0 * P0.est_error, trivial_tol):
        raise FamilyNotTrivial(f"P(0) differs from identity by {gap:.3e}")
    if not 0 < s_step <= fam.s_max:
        raise ValueError("s_step must lie in (0, s_max]")

    def diff_quotient(s):
        P = holonomy(M, kind, fam.family(s), steps=steps).matrix
        return (P - np.eye(M.dim)) / s

    f1 = diff_quotient(s_step)
    f2 = diff_quotient(s_step / 2)
    f4 = diff_quotient(s_step / 4)
    return (8.0 * f4 - 6.0 * f2 + f1) / 3.0


def shrinking_rectangle_family(corner, axis_a, axis_b, extent_a, extent_b, s_max=1.0):
    """Family s -> rectangle with extents scaled by s; trivially I at s=0."""
    corner = np.asarray(corner, dtype=float)

    def make(s):
        if s == 0.0:
            # degenerate: out-and-back along the first edge keeps segment
            # count fixed and has identity transport
            e1 = np.zeros_like(corner)
            return Loop(segments=[Line(corner, corner + e1), Line(corner + e1, corner),
                                  Line(corner, corner), Line(corner, corner)],
                        basepoint=corner)
        return rectangle_loop(corner, axis_a, axis_b, s * extent_a, s * extent_b)

    return LoopFamily(family=make, s_max=s_max)


# ---------------------------------------------------------------------------
# Random loop sampling
# ---------------------------------------------------------------------------

def random_rectangle_loops(M, region, count, seed, basepoint=None,
                           min_extent=0.25, max_extent=0.95):
    """Deterministic seed-reproducible axis-aligned rectangles in ``region``.

    Each loop picks a random corner (kept away from the upper region edge so
    rectangles never degenerate), a random axis pair and random extents
    (fractions of the room left in the region), and is based at
    ``basepoint`` (default: region center) through straight spokes.
    """
    region = [(float(lo), float(hi)) for lo, hi in region]
    n = M.dim
    if len(region) != n:
        raise EmptyRegion("region dimension mismatch")
    for lo, hi in region:
        if not lo < hi:
            raise EmptyRegion(f"empty region side ({lo}, {hi})")
    inside = M.chart.contains(np.array([[lo for lo, _ in region],
                                        [hi for _, hi in region]]))
    if not inside.all():
        raise OutOfDomain(region, "region not inside chart domain")
    if basepoint is None:
        basepoint = np.array([(lo + hi) / 2 for lo, hi in region])
    rng = np.random.default_rng(seed)
    loops = []
    for _ in range(count):
        corner = np.array([lo + 0.65 * (hi - lo) * rng.random() for lo, hi in region])
        if n == 2:
            i, j = 0, 1
        else:
            i, j = rng.choice(n, size=2, replace=False)
        room_i = region[i][1] - corner[i]
        room_j = region[j][1] - corner[j]
        ext_i = room_i * rng.uniform(min_extent, max_extent)
        ext_j = room_j * rng.uniform(min_extent, max_extent)
        loops.append(rectangle_loop(corner, int(i), int(j), ext_i, ext_j,
                                    basepoint=basepoint))
    return loops


# ---------------------------------------------------------------------------
# Block prediction for totally geodesic coordinate slices
# ---------------------------------------------------------------------------

def predicted_block_transport(N: WeightedManifold, free_indices, fixed_values,
                              loop: Loop, steps=None, geodesy_tol=1e-8):
    """Predicted ambient weighted transport along a loop inside the slice
    {x_j = c_j, j not free}, assembled block by block:

        [ induced weighted transport   sourced mixing block ]
        [            0                 ambient metric transport on normals ]

    The mixing block transports each normal by the ambient metric
    connection and feeds e^{phi(sigma(t)) - phi(p)} dphi(normal) sigma'
    into the induced weighted equation.  The slice must be totally geodesic
    (checked numerically along the loop) and metric-orthogonal to the
    normal coordinate directions.  Like ``family_derivative`` it integrates
    on one fixed grid of ``steps`` (default DEFAULT_STEPS).
    """
    if steps is None:
        steps = DEFAULT_STEPS
    free = sorted(int(i) for i in free_indices)
    normal = [j for j in range(N.dim) if j not in free]
    if not normal:
        raise ValueError("slice is the whole manifold")
    loop.validate(N.chart)

    # sample geodesy along the loop: Gamma^k_ij = 0 for i,j tangent, k normal
    probe_ts = np.linspace(0.05, 0.95, 20)
    probe_pts = np.concatenate([seg.sample(probe_ts)[0] for seg in loop.segments])
    gamma_probe = christoffel_many(N, ConnectionKind.LEVI_CIVITA, probe_pts)
    worst = max(np.abs(gamma_probe[:, k][:, free][:, :, free]).max() for k in normal)
    if worst > geodesy_tol:
        raise NotTotallyGeodesic(f"max tangent-tangent-normal coefficient {worst:.3e}")
    g_probe = N.metric.matrices(probe_pts)
    cross = max(np.abs(g_probe[:, i, j]).max() for i in free for j in normal)
    if cross > geodesy_tol:
        raise NotTotallyGeodesic(
            f"coordinate normals not metric-orthogonal to the slice ({cross:.3e})")

    fixed = {j: float(fixed_values[j]) for j in normal}
    sub = restrict_manifold(N, free, fixed)
    base_phi = float(N.density.values(np.atleast_2d(loop.basepoint))[0])
    s = len(free)
    d = s + N.dim

    ts = _fine_grid(steps)
    fine = np.eye(d)
    for seg in loop.segments:
        pos, vel = seg.sample(ts)
        sub_vel = vel[:, free]
        A = np.zeros((pos.shape[0], d, d))
        A[:, s:, s:] = _transport_matrices(N, ConnectionKind.LEVI_CIVITA, pos, vel)
        A[:, :s, :s] = -christoffel_many(sub, ConnectionKind.WEIGHTED, pos[:, free],
                                         sub_vel)
        # source: lambda(t) * sigma'_tangent (x) dphi acting on the normal flow
        phi, dphi = N.density.jet(pos)
        lam = np.exp(phi - base_phi)
        A[:, :s, s:] = lam[:, None, None] * sub_vel[:, :, None] * dphi[:, None, :]
        fine = _ordered_product(_rk4_steps(A, 1.0 / (2 * steps))) @ fine

    top = fine[:s, :s]
    mix = fine[:s, s:]          # acting on full ambient normal start vectors
    amb = fine[s:, s:]          # ambient metric transport in ambient coordinates
    n = N.dim
    out = np.zeros((n, n))
    for a, i in enumerate(free):
        for b, j in enumerate(free):
            out[i, j] = top[a, b]
    for a, i in enumerate(free):
        for j in normal:
            out[i, j] = mix[a, j]
    for i in normal:
        for j in normal:
            out[i, j] = amb[i, j]
    return out
