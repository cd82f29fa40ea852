"""Parallel transport along polyline paths, holonomy, loop families.

The transport equation for a vector field U along sigma is linear,

    dU^k/dt + Gamma^k_ij(sigma(t)) sigma'^i(t) U^j = 0,

so each segment contributes a transfer matrix.  We integrate with classical
RK4 and compare a fine pass of 2N steps with a coarse pass of N steps on
the same samples; the returned matrix is the fine product.  A segment is
worked in levels N, 2N, 4N, ...: a level samples a coefficient function
``coeffs(positions, velocities) -> A`` on its half-step grid, the next
level samples only the new odd-index points and interleaves them with the
kept ones, and the previous level's fine product is the next one's coarse
product.  Without an explicit ``steps`` the levels are step-controlled
(Hairer, Norsett and Wanner, Solving ODEs I, section II.4): N starts at
``MIN_STEPS`` and doubles until the Richardson estimate |fine - coarse| /
15 meets the error target, ``DEFAULT_ERROR_TARGET`` unless one is given;
past ``MAX_FINE_STEPS`` fine steps the target is out of reach and
``StepUnderflow`` is raised.  An explicit ``steps`` pins a fixed grid of
N = steps, the first level, accepted whatever its estimate.  There the
coarse pass serves only the estimate, so it is formed only where the
estimate is read: for an explicit error target, which the estimate must
meet, and for callers that report ``est_error`` (``estimate=True``, the
default of ``path_transport_many`` and ``holonomy_many``).  Callers that
use matrices only (algebra experiments, verification checks, block
predictions, a family's derivative) skip it, and the fine products keep
their bits.

One engine, ``_lockstep``, integrates every transport.  It advances a
batch of segments that share a coefficient function and a first level in
rounds.  A round works the segments that advance in it level by level,
those at one N in groups of at most ``MAX_BATCH_POINTS`` new sample points
(a larger segment alone, its points cut into calls of at most that many).
For each group it samples the new points, takes their coefficients from
one ``coeffs`` call and splits the rows back per segment (the coefficient
kernel gives the same bits on a concatenation of point arrays as on each
part), and runs the RK4 steps and ordered products stacked over the
group's segments: a group's fixed cost is one kernel call and a few
numpy calls.  Then an accept rule retires segments; the others keep a
copy of their samples for their next level.  On a pinned grid every
segment retires at its first level, all advance in one round and nothing
is held.  There are two accept rules.  Path transport and block prediction
test each segment against its share (target / number of segments of its
path), so segments leave the batch at different levels.  Their batch also
bounds what it holds: a segment advances in a round only if the samples
the batch holds after it stay within ``MAX_HELD_POINTS`` (the first live
segment always advances), so the others wait, or start later, and a round
may work several levels.  A loop family's derivative is a
Richardson-in-s combination of the loops at s, s/2 and s/4, which cancels
the RK4 error only when they share a grid, so its segments advance
together and its rule is on the whole batch: the derivative's estimate,
the same combination of the fine and of the coarse products, allowing for
the roundoff floor that dividing by s puts under it.  Every accept
decision is the one a segment or family integrated alone would make, so a
batch returns the same bits as its paths one by one.  Errors differ: a
batch raises the first error it meets, round by round and within a round
in level and segment order, so a path that leaves the chart in the first
round is reported before an earlier path whose segment would run out of
steps levels later.

Every segment is a straight ``Line``, which stores its ``delta``.  A
group of segments is sampled in one broadcast of start + t * delta, and
each coordinate is monotone in t, so the chart's open box is tested once,
at segment ends, before the kernel; if an end is outside, every sample is
tested in segment order before each kernel call, so errors do not move.
The transport kernel (``_kernel``) declares the coordinates its geometry
reads.  A segment whose delta is 0 in all of them is *constant*: the
coefficients at all its samples have the same bits (the kernel gives the
same bits on one point as on many of a call), so it gives its group's
kernel call one row (its first new sample, one point toward
``MAX_BATCH_POINTS``), takes one RK4 step on it, and gets its fine and
coarse products from ``_uniform_product``, the pairwise tree of
``_ordered_product`` replayed on copies of that step in O(log N) matmuls,
bit for bit.  Its samples are still tested, and ``_advancing`` still
counts 4N + 1 held points, so errors and rounds do not move.  Segments
that carry frames, and coefficient functions that declare no ``reads``
(block prediction), are sampled whole.

``path_transport_many`` and ``holonomy_many`` integrate many paths or
loops as one batch (the paths and loops of all of a verify entry's checks
of one kind and direction, an algebra experiment's loops, the CLI's
configured loops); ``path_transport_matrix``
and ``holonomy`` are their one-path views.  Frame trajectories are
assembled after the batch from piece products: the segments of a group
that retire together are reduced to them by one ordered product per run
length, and one chain of stacked matmuls takes the prefix products of all
loops at once, each padded with identity matrices after its last piece,
which no kept frame reads (a stacked matmul keeps each matrix's bits).

``est_error`` is the whole-path estimate |prod fine - prod coarse| / 15
plus the roundoff floor steps_used * eps * max|P|, where ``steps_used`` is
the number of accepted fine steps summed over the segments.

Because the coefficient matrix depends only on the (known) path position,
the coefficients at the sampled points come from the contracted kernel
``christoffel_many(M, kind, positions, velocities)``, which returns
B^k_j = Gamma^k_ij sigma'^i directly.  The per-step RK4 transfer matrices
are built with stacked matmuls and the ordered product is taken by
pairwise reduction -- no Python-level inner loop.  Holonomy, loop
families, block prediction and frame trajectories share the engine: block
prediction hands its assembled block coefficients to it, and a frame
trajectory takes prefix products of the piece products, from the same
integration that gives the holonomy matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (EmptyRegion, FamilyNotTrivial, NotClosed, NotTotallyGeodesic,
                     OutOfDomain, StepUnderflow)
from .manifold import ConnectionKind, WeightedManifold, christoffel_many, density_jet

DEFAULT_ERROR_TARGET = 1e-10
MIN_STEPS = 8          # coarse steps a step-controlled segment starts from
MAX_FINE_STEPS = 2 ** 16
# kernel points per coefficient call of a lockstep round.  Larger calls
# cost memory (by tracemalloc, about 0.66 kB of weighted kernel temporaries
# per point on the diagonal sphereN(4) metric, 1.3 kB on a dense 4-d jet)
# and time: on the perfbench `algebra` command (801-point segments, fixed
# grid), 2 ** 11 made the in-process median 3.6% slower at seeds 7 and 101,
# faster in 15 and 16 of 40 alternated runs (2-CPU host).
MAX_BATCH_POINTS = 2 ** 10
# sample points the live segments of a step-controlled batch may hold for
# their next levels (2 MB of coefficients on a 4-d metric); a segment whose
# next level would pass it waits, so memory does not grow with the batch
MAX_HELD_POINTS = 2 ** 14
RK4_RICHARDSON = 15.0  # 2^order - 1
EPS = np.finfo(float).eps
CLOSURE_TOL = 1e-9
ENDPOINT_TOL = 1e-12
TRIVIAL_TOL = 1e-6  # a family's P(0) may miss I by this much, or 10 est_error
GEODESY_TOL = 1e-8  # block prediction's slice geodesy and orthogonality checks
EXTENT_RANGE = (0.25, 0.95)  # random rectangle extents, fractions of the room


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Line:
    """One straight segment, start + t * delta over t in [0, 1].  Its
    ``delta``, end - start, is computed once, so that the lockstep engine
    samples every level from the same data."""

    start: np.ndarray
    end: np.ndarray
    delta: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "start", np.asarray(self.start, dtype=float))
        object.__setattr__(self, "end", np.asarray(self.end, dtype=float))
        object.__setattr__(self, "delta", self.end - self.start)


def polyline_segments(points) -> list:
    pts = [np.asarray(p, dtype=float) for p in points]
    return [Line(a, b) for a, b in zip(pts[:-1], pts[1:])]


def rectangle_loop(corner, axis_a, axis_b, extent_a, extent_b, basepoint=None):
    """Axis-aligned rectangle based at ``basepoint`` via straight spokes."""
    corner = np.asarray(corner, dtype=float)
    e1 = np.zeros_like(corner); e1[axis_a] = extent_a
    e2 = np.zeros_like(corner); e2[axis_b] = extent_b
    ring = [corner, corner + e1, corner + e1 + e2, corner + e2, corner]
    if basepoint is None or np.array_equal(basepoint, corner):
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


@dataclass(frozen=True)
class HolonomyElement:
    """A loop's transport matrix with its error estimate (None when
    ``holonomy_many`` was asked for none) and the accepted fine steps
    summed over segments; ``positions`` and ``frames`` are set when
    ``holonomy`` was asked for frames."""

    matrix: np.ndarray
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
    """Product mats[..., -1, :, :] @ ... @ mats[..., 0, :, :] by pairwise
    reduction over the step axis, the third from last."""
    while mats.shape[-3] > 1:
        m = mats.shape[-3]
        paired = mats[..., 1:m:2, :, :] @ mats[..., 0:m - m % 2:2, :, :]
        mats = np.concatenate([paired, mats[..., -1:, :, :]], axis=-3) if m % 2 else paired
    return mats[..., 0, :, :]


def _uniform_product(step, count):
    """``_ordered_product`` of ``count`` copies of each (d, d) matrix of
    ``step`` (..., d, d), with the same bits, in O(log count) stacked
    matmuls: each level of its pairwise tree holds copies of one matrix u
    and a last entry w, and pairs them into u @ u and, when the count is
    even, a last w @ u."""
    u = w = step
    while count > 1:
        if count % 2 == 0:
            w = w @ u
        u = u @ u
        count = (count + 1) // 2
    return w


def _fine_grid(steps):
    """Half-step sample grid of the fine pass (2*steps RK4 steps on [0, 1]);
    its even-index subset is the coarse pass's grid."""
    return np.linspace(0.0, 1.0, 4 * steps + 1)


def _rk4_steps(A_half, h):
    """Per-step RK4 transfer matrices from A sampled on the half-step grid.

    A_half has shape (..., 2N+1, d, d); returns the (..., N, d, d) stack of
    I + h/6 (K1 + 2 K2 + 2 K3 + K4), one per step.
    """
    A1 = A_half[..., 0:-1:2, :, :]
    A2 = A_half[..., 1::2, :, :]
    A3 = A_half[..., 2::2, :, :]
    eye = np.eye(A_half.shape[-1])
    # K1 + 2 K2 + 2 K3 + K4 summed in that order, in place, and a later stage's
    # I + c K formed in K (c K + I rounds alike): two stage arrays at most besides the sum
    K = A2 @ (eye + (h / 2) * A1)
    out = 2 * K
    out += A1
    K = A2 @ np.add(np.multiply(K, h / 2, out=K), eye, out=K)
    out += 2 * K
    out += A3 @ np.add(np.multiply(K, h, out=K), eye, out=K)
    out *= h / 6
    out += eye
    return out


def _transport_matrices(M, kind, pos, vel, covector=False):
    """Matrix A(t) of the transport ODE Y' = A Y at sampled path points:
    -B for vectors, B^T for covectors, B^k_j = Gamma^k_ij sigma'^i, in C
    order (a diagonal metric's B has the point axis last in memory), so the
    RK4 products read contiguous matrices; the engine tests the chart."""
    B = christoffel_many(M, kind, pos, vel)
    return np.ascontiguousarray(np.swapaxes(B, 1, 2)) if covector else np.negative(B, order="C")


def _require_on_chart(chart, pos):
    """OutOfDomain at the first of the (m, n) points outside ``chart``."""
    inside = chart.contains(pos)
    if not inside.all():
        raise OutOfDomain(pos[~inside][0], "path exits the chart")


def _interleave(even, odd):
    """(g, 2r + 1, ...) rows even[j][0], odd[j, 0], even[j][1], ...,
    even[j][r] for each j, from ``even``, a sequence of g (r + 1, ...)
    arrays, and ``odd`` of shape (g, r, ...)."""
    out = np.empty((odd.shape[0], 2 * odd.shape[1] + 1) + odd.shape[2:])
    if even:  # none in a group of constant segments
        out[:, 0::2] = even
    out[:, 1::2] = odd
    return out


def _richardson(fine, coarse):
    """Richardson estimate of the fine product's truncation error."""
    return float(np.abs(fine - coarse).max()) / RK4_RICHARDSON


def _chain(mats, eye):
    """mats[-1] @ ... @ mats[0] @ eye: transfer matrices composed in path
    order."""
    P = eye
    for m in mats:
        P = m @ P
    return P


def _check_refinable(fine_steps, miss):
    """StepUnderflow, saying ``miss``, if doubling ``fine_steps`` would pass
    MAX_FINE_STEPS."""
    if 2 * fine_steps > MAX_FINE_STEPS:
        raise StepUnderflow(f"{miss} at {fine_steps} steps")


def _start_and_target(steps, error_target):
    """First level and error target: MIN_STEPS and ``error_target``
    (default DEFAULT_ERROR_TARGET), or ``steps`` and math.inf (a fixed
    grid) when ``steps`` is given; ValueError if it is below 1."""
    if steps is not None:
        if steps < 1:
            raise ValueError(f"steps must be at least 1, got {steps}")
        return steps, math.inf
    return MIN_STEPS, DEFAULT_ERROR_TARGET if error_target is None else error_target


def _kernel(M, kind, covector=False):
    """Coefficient function of the transport ODE of ``kind`` on M.  It
    carries M's ``chart`` and ``reads``, the axes of the coordinates that
    the geometry reads (the metric's for the Levi-Civita connection, also
    the density's for the others), so that its rows along a straight
    segment that moves no coordinate of ``reads`` are all equal."""
    def coeffs(pos, vel):
        return _transport_matrices(M, kind, pos, vel, covector)
    names = (M.metric if kind == ConnectionKind.LEVI_CIVITA else M)._pass.names
    coeffs.chart = M.chart
    coeffs.reads = [a for a, name in enumerate(M.chart.coord_names) if name in names]
    return coeffs


# ---------------------------------------------------------------------------
# The lockstep engine
# ---------------------------------------------------------------------------

def _constant_segments(segments, coeffs):
    """Which ``segments`` are constant: moving none of the axes that
    ``coeffs`` declares it ``reads``.  None is, for a coefficient
    function that declares no ``reads``."""
    reads = getattr(coeffs, "reads", None)
    if reads is None or not segments:
        return np.zeros(len(segments), dtype=bool)
    deltas = np.array([seg.delta for seg in segments])
    return ~deltas[:, reads].any(axis=1)


def _groups(members, constant, m):
    """``members`` cut, in order, into groups of at most MAX_BATCH_POINTS
    kernel rows, m per segment and 1 per constant one (a larger segment
    alone)."""
    groups, rows = [], MAX_BATCH_POINTS
    for i in members:
        r = 1 if constant[i] else m
        if rows + r > MAX_BATCH_POINTS:
            groups.append([])
            rows = 0
        groups[-1].append(i)
        rows += r
    return groups


def _sample(segments, ts):
    """(g, m, n) positions and velocities of ``segments`` at the m >= 2
    ascending parameters ts, and the samples whose chart test stands for
    all, each segment's first and last.  They
    are sampled coordinate by coordinate along the points (t * delta =
    delta * t) and copied once into place; every rounding is monotone, so
    in an open box a segment's first and last samples bound the others."""
    starts = np.array([seg.start for seg in segments])
    deltas = np.array([seg.delta for seg in segments])
    pos = (starts[:, :, None] + deltas[:, :, None] * ts).transpose(0, 2, 1).copy()
    vel = np.repeat(deltas, len(ts), axis=0).reshape(pos.shape)
    return pos, vel, pos[:, ::len(ts) - 1].reshape(-1, pos.shape[2])


def _coefficients(coeffs, segments, ts, constant):
    """``coeffs`` on a group of ``segments`` sampled at ts: (gv, m, d, d)
    rows of its varying segments and the (gc, d, d) row of its
    ``constant`` ones (None if it has none), which give the kernel only
    their first point, from calls of at most MAX_BATCH_POINTS points in
    segment order; and the (g, m, n) positions, None with a constant
    segment.  The chart is tested once, on the samples that stand for all
    (see ``_sample``); if one is outside, every sample is tested, before
    the kernel with a constant segment, else before each call, so that a
    kernel error of an earlier call still comes first."""
    pos, vel, probe = _sample(segments, ts)
    g, m, n = pos.shape
    inside = coeffs.chart.contains(probe).all()
    varying = not constant.any()
    if not varying:
        if not inside:
            _require_on_chart(coeffs.chart, pos.reshape(-1, n))
        # rebound, so that the samples the kernel does not take are freed first
        pos, vel = (np.concatenate([x[:1] if c else x for x, c in zip(xs, constant)])
                    for xs in (pos, vel))
    flat_pos, flat_vel = pos.reshape(-1, n), vel.reshape(-1, n)
    chunks = []
    for a in range(0, len(flat_pos), MAX_BATCH_POINTS):
        if not inside:
            _require_on_chart(coeffs.chart, flat_pos[a:a + MAX_BATCH_POINTS])
        chunks.append(coeffs(flat_pos[a:a + MAX_BATCH_POINTS],
                             flat_vel[a:a + MAX_BATCH_POINTS]))
    A = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    if varying:
        return A.reshape((g, m) + A.shape[1:]), None, pos
    counts = np.where(constant, 1, m)
    first = np.cumsum(counts) - counts
    varying = np.array([A[a:a + m] for a in first[~constant]]).reshape((-1, m) + A.shape[1:])
    return varying, A[first[constant]], None


def _advancing(live, level, start, held_cap):
    """Segments of ``live`` that advance this round, in order: each one if
    the sample points the batch holds after the round stay within
    ``held_cap``, the first one always.  ``level[i]`` is segment i's last
    level, 0 before its first; after level N a segment holds 4N + 1 points."""
    held = sum(4 * level[i] + 1 for i in live if level[i])
    chosen = []
    for i in live:
        grow = 4 * level[i] if level[i] else 4 * start + 1
        if not chosen or held + grow <= held_cap:
            chosen.append(i)
            held += grow
    return chosen


def _lockstep(segments, coeffs, start, accept=None, pieces=0, held_cap=math.inf,
              estimate=True):
    """Transfer products of ``segments``, which share the coefficient
    function ``coeffs`` and the first level N = ``start``, each advanced
    through the levels N, 2N, 4N, ... in rounds.

    A round advances the live segments that fit ``held_cap`` (see
    ``_advancing``), those at one level group by group (see the module
    docstring).  Then ``accept(members, fine, coarse, fine_steps)``, given
    the indices of the segments that reached one level and their stacked
    (L, d, d) fine and coarse products, returns which of them retire (or
    raises StepUnderflow); the others keep a copy of their samples for
    their next level.  Without ``accept`` the grid is pinned: every segment
    retires at its first level and holds nothing, and its coarse product
    is formed only if ``estimate``.

    Returns one (fine, coarse, fine_steps, piece_products, piece_ends) per
    segment, coarse None if it was not formed.  With ``pieces`` > 0 the
    retiring segments of a group have their accepted fine per-step matrices
    reduced together to at most that many piece products each (see
    ``_piece_products``) and their piece ends, so no segment holds its
    per-step matrices past its retirement; with ``pieces`` 0 both are None.
    """
    keep = pieces > 0
    estimate = estimate or accept is not None
    # frames need every step matrix, so with pieces no segment is constant
    constant = _constant_segments(segments, None if keep else coeffs)
    results = [None] * len(segments)
    level = [0] * len(segments)
    # live segment -> coefficients (one row if constant), positions (if
    # keep), fine product
    held = {}
    live = list(range(len(segments)))
    while live:
        by_level = {}
        for i in _advancing(live, level, start, held_cap):
            by_level.setdefault(2 * level[i] or start, []).append(i)
        for n, members in by_level.items():
            ts = _fine_grid(n) if n == start else np.arange(1, 4 * n, 2) / (4 * n)
            new, groups = [], _groups(members, constant, len(ts))
            fine, coarse, stacks = zip(*[
                _advance(coeffs, [segments[i] for i in group], ts, constant[group], n,
                         None if n == start else [held.pop(i) for i in group],
                         keep, accept is not None, estimate, new)
                for group in groups])
            fine = np.concatenate(fine)
            coarse = np.concatenate(coarse) if estimate else [None] * len(members)
            done = (np.ones(len(members), dtype=bool) if accept is None
                    else accept(members, fine, coarse, 2 * n))
            trail = _piece_products(groups, stacks, done, pieces) if keep else {}
            for j, (i, (A, pos)) in enumerate(zip(members, new)):
                if done[j]:
                    results[i] = (fine[j], coarse[j], 2 * n) + trail.get(i, (None, None))
                else:
                    # copies, so that retired rows of a group are freed
                    level[i] = n
                    held[i] = A.copy(), None if pos is None else pos.copy(), fine[j]
            # only the copies in held outlive the level, not these views
            del A, pos, stacks
        live = [i for i in live if results[i] is None]
    return results


def _advance(coeffs, segments, ts, constant, n, old, keep, hold, estimate, new):
    """Level N = ``n`` of a group of ``segments``, sampled at the new
    parameters ts: their stacked fine products, their coarse products,
    None unless ``estimate``, and, if ``keep``, their stacked positions and
    fine per-step matrices (else None twice).  Appends to ``new``, per
    segment, what it keeps if it does not retire (coefficients if
    ``hold``, positions if ``keep``).  ``old`` lists what they kept from
    their previous level, None at their first; their coarse products are
    then the fine ones kept.  Nothing else of the group outlives the
    call."""
    A, A_const, pos = _coefficients(coeffs, segments, ts, constant)
    fine_const = coarse_const = coarse = None
    if A_const is not None:
        # a constant segment's steps are all equal: one RK4 step on its row
        # taken thrice, its products from copies of that step
        A_const = A_const[:, None]
        thrice = np.repeat(A_const, 3, axis=1)
        fine_const = _uniform_product(_rk4_steps(thrice, 1.0 / (2 * n))[:, 0], 2 * n)
        if estimate and old is None:
            coarse_const = _uniform_product(_rk4_steps(thrice, 1.0 / n)[:, 0], n)
    if old is not None:
        A = _interleave([h[0] for h, c in zip(old, constant) if not c], A)
        if keep:
            pos = _interleave([h[1] for h in old], pos)
        coarse = np.stack([h[2] for h in old])
    elif estimate:
        coarse = _merged(constant, _ordered_product(_rk4_steps(A[:, ::2], 1.0 / n)),
                         coarse_const)
    step_mats = _rk4_steps(A, 1.0 / (2 * n))
    rows = _in_order(constant, A, A_const) if hold or keep else [None] * len(constant)
    new += [(row if hold else None, pos[j] if keep else None) for j, row in enumerate(rows)]
    return (_merged(constant, _ordered_product(step_mats), fine_const), coarse,
            (pos, step_mats) if keep else (None, None))


def _in_order(constant, varying, uniform):
    """The rows of a group's segments in order, from those of its varying
    and of its ``constant`` segments (None if it has none)."""
    if uniform is None:
        return list(varying)
    varying, uniform = iter(varying), iter(uniform)
    return [next(uniform if c else varying) for c in constant]


def _merged(constant, varying, uniform):
    """``_in_order`` stacked, or ``varying`` itself."""
    return varying if uniform is None else np.stack(_in_order(constant, varying, uniform))


def _piece_products(groups, stacks, done, pieces):
    """Piece products and ends of the segments of one level's ``groups``
    that retire (``done``, in group order): {segment: (products, ends)},
    new arrays.  A group's ``stacks`` entry holds its (g, 4N + 1, n)
    half-step positions and (g, n_fine, d, d) fine per-step matrices, cut
    into ``pieces`` runs of whole steps (at most one per step) at
    arange(pieces + 1) * n_fine // pieces, the same cuts on the level.

    The runs have at most two lengths.  The pieces of one length of a
    group's retiring segments are gathered into one (rows, count, length,
    d, d) stack, no more matrices than the group holds, and reduced by one
    ``_ordered_product``, whose pairwise tree is, row by row, the one of
    each piece alone, so every product has the same bits.  Padding the
    shorter runs with identity matrices would not: I @ x turns -0.0 into
    +0.0.
    """
    n_fine = stacks[0][1].shape[1]
    pieces = min(pieces, n_fine)
    cuts = np.arange(pieces + 1) * n_fine // pieces
    lengths = np.diff(cuts)
    runs = [(which, cuts[which][:, None] + np.arange(lengths[which[0]]))
            for which in (np.flatnonzero(lengths == n) for n in set(lengths.tolist()))]
    out, retiring = {}, iter(done)
    for group, (pos, step_mats) in zip(groups, stacks):
        rows = np.flatnonzero([next(retiring) for _ in group])
        if len(rows):
            products = np.empty((len(rows), pieces) + step_mats.shape[2:])
            for which, run in runs:
                products[:, which] = _ordered_product(step_mats[rows[:, None, None], run])
            ends = pos[rows[:, None], 2 * cuts[1:]]
            out.update((group[r], (p.copy(), e.copy())) for r, p, e in zip(rows, products, ends))
    return out


def _share_test(shares):
    """Accept rule of path transport and block prediction: a segment
    retires once its Richardson estimate |fine - coarse| / 15 is at most
    its share (``shares``, indexed by segment) of the target."""
    def accept(live, fine, coarse, fine_steps):
        est = np.abs(fine - coarse).max(axis=(1, 2)) / RK4_RICHARDSON
        done = est <= shares[live]
        if not done.all():
            k = int(done.argmin())
            _check_refinable(fine_steps, f"segment error estimate {est[k]:.3e} exceeds "
                             f"its share {shares[live[k]]:.3e} of the target")
        return done
    return accept


def _transport_many(coeffs, dim, paths, steps=None, error_target=None, pieces=0,
                    estimate=True):
    """(matrix, est_error, trail) of each path, for any coefficient function
    ``coeffs(positions, velocities) -> (m, dim, dim)``; the segments of all
    paths advance as one lockstep batch.  ``trail`` lists (fine_steps,
    piece_products, piece_ends) per segment (see ``_lockstep`` and
    ``pieces``).  Without ``estimate`` est_error is None, and a pinned grid
    without an ``error_target`` forms no coarse products."""
    start, target = _start_and_target(steps, error_target)
    shares = np.array([target / max(1, len(path)) for path in paths for _ in path])
    segments = [seg for path in paths for seg in path]
    checked = steps is not None and error_target is not None
    if steps is None:
        retired = iter(_lockstep(segments, coeffs, start, _share_test(shares), pieces=pieces,
                                 held_cap=MAX_HELD_POINTS))
    else:
        retired = iter(_lockstep(segments, coeffs, start, pieces=pieces,
                                 estimate=estimate or checked))
    eye = np.eye(dim)
    out = []
    for path in paths:
        segs = [next(retired) for _ in path]
        fine = _chain([s[0] for s in segs], eye)
        fine_steps = sum(s[2] for s in segs)
        est = None
        if estimate or checked:
            coarse = _chain([s[1] for s in segs], eye)
            # whole-path Richardson estimate plus the roundoff floor of the product
            est = _richardson(fine, coarse) + fine_steps * EPS * float(np.abs(fine).max())
            if checked and est > error_target:
                raise StepUnderflow(f"estimated error {est:.3e} exceeds target "
                                    f"{error_target:.3e}")
        out.append((fine, est if estimate else None, [s[2:] for s in segs]))
    return out


# ---------------------------------------------------------------------------
# Path transport and holonomy
# ---------------------------------------------------------------------------

def path_transport_many(M, kind, paths, steps=None, covector=False,
                        error_target=None, estimate=True):
    """Transfer matrices of polyline paths with their error estimates,
    the segments of all paths integrated as one lockstep batch.

    Returns one (matrix, est_error) per path, each as
    ``path_transport_matrix`` gives it alone: without ``steps`` every
    segment is step-controlled to its path's share of ``error_target``
    (default DEFAULT_ERROR_TARGET); with ``steps`` the grid is fixed, and
    an explicit ``error_target`` that a path's estimate misses raises
    StepUnderflow.  With ``estimate`` False est_error is None, and a fixed
    grid without an ``error_target`` skips the coarse pass; the matrices
    keep their bits.  A batch raises the first error it meets (see the
    module docstring), which need not be the one its first failing path
    raises alone.
    """
    results = _transport_many(_kernel(M, kind, covector), M.dim, paths, steps=steps,
                              error_target=error_target, estimate=estimate)
    return [(P, est) for P, est, _ in results]


def path_transport_matrix(M, kind, path, steps=None, covector=False,
                          error_target=None):
    """Transfer matrix of one polyline path with its error estimate: the
    one-path view of ``path_transport_many``."""
    return path_transport_many(M, kind, [path], steps=steps, covector=covector,
                               error_target=error_target)[0]


def _frames(loops, trails, dim):
    """Positions and frames along each loop from its segments' piece
    products and ends: prefix products F[k + 1] = P[k] @ F[k] of all loops
    at once over the (K, L, d, d) stack P of their piece products, padded
    with identity matrices after each loop's last piece."""
    counts = [sum(len(products) for _, products, _ in trail) for trail in trails]
    P = np.tile(np.eye(dim), (max(counts, default=0), len(loops), 1, 1))
    for j, trail in enumerate(trails):
        P[:counts[j], j] = np.concatenate([products for _, products, _ in trail])
    F = np.empty((len(P) + 1, len(loops), dim, dim))
    F[0] = np.eye(dim)
    for piece, frame, out in zip(P, F, F[1:]):
        np.matmul(piece, frame, out=out)
    return [{"positions": np.concatenate([loop.basepoint[None]] + [ends for _, _, ends in trail]),
             "frames": F[:count + 1, j].copy()}
            for j, (loop, trail, count) in enumerate(zip(loops, trails, counts))]


def holonomy_many(M, kind, loops, steps=None, error_target=None,
                  frames_per_segment=0, estimate=True) -> list:
    """Transport around closed loops, the segments of all loops integrated
    as one lockstep batch; one HolonomyElement per loop, each as
    ``holonomy`` gives it alone (see ``path_transport_many`` for ``steps``,
    ``error_target`` and ``estimate``; without ``estimate`` est_error is
    None).

    With ``frames_per_segment`` > 0 each element also carries the
    transported frame along its loop (the CLI's --plot output):
    ``positions`` (m, n) and ``frames`` (m, n, n), frames[t] mapping
    basepoint components to components at positions[t].  Each segment's
    accepted per-step matrices are split into that many pieces of whole
    steps (at most one piece per step) and the frames are prefix products
    of the piece products, of all loops in one chain of stacked matmuls
    (see ``_frames``), so the frame at each segment end is the transport
    along the path so far and the last frame is the matrix, to rounding.
    """
    for loop in loops:
        loop.validate(M.chart)
    results = _transport_many(_kernel(M, kind), M.dim, [loop.segments for loop in loops],
                              steps=steps, error_target=error_target,
                              pieces=frames_per_segment, estimate=estimate)
    frames = (_frames(loops, [trail for _, _, trail in results], M.dim)
              if frames_per_segment > 0 else [{}] * len(loops))
    return [HolonomyElement(matrix=P, est_error=est,
                            steps_used=sum(n_fine for n_fine, _, _ in trail), **f)
            for (P, est, trail), f in zip(results, frames)]


def holonomy(M, kind, loop: Loop, steps=None, error_target=None,
             frames_per_segment=0) -> HolonomyElement:
    """Transport around one closed loop: the one-loop view of
    ``holonomy_many``."""
    return holonomy_many(M, kind, [loop], steps=steps, error_target=error_target,
                         frames_per_segment=frames_per_segment)[0]


# ---------------------------------------------------------------------------
# Loop families and their s-derivative at 0
# ---------------------------------------------------------------------------

def _s_extrapolated(Ps, s_step, eye):
    """Richardson-in-s derivative at 0 from P(s), P(s/2), P(s/4)."""
    f1, f2, f4 = ((P - eye) / s for P, s in zip(Ps, (s_step, s_step / 2, s_step / 4)))
    return (8.0 * f4 - 6.0 * f2 + f1) / 3.0


def family_derivative(M, kind, fam: LoopFamily, s_step=1e-2, steps=None):
    """One-sided derivative of s -> P(s) at 0, Richardson-extrapolated over
    s, s/2, s/4.  The family must integrate to the identity at s = 0.

    The RK4 truncation error cancels in the difference quotients only on
    one shared grid, so the segments of the loops at s, s/2 and s/4 advance
    as one lockstep batch whose accept rule is on the whole batch.
    Without ``steps``, N starts at MIN_STEPS and doubles until the
    derivative's Richardson estimate |D_fine - D_coarse| / 15 is at most
    DEFAULT_ERROR_TARGET plus the roundoff floor of the difference
    quotients, fine_steps * eps * max|P| / s_step, where D_fine and
    D_coarse are the derivatives from the loops' fine and coarse products
    on that grid and fine_steps is summed over a loop's segments; past
    MAX_FINE_STEPS StepUnderflow is raised.  With ``steps`` the grid is
    fixed at N = steps.  P(0) is integrated at the accepted N and must lie
    within max(10 est_error, TRIVIAL_TOL) of I."""
    trivial = fam.family(0.0)
    trivial.validate(M.chart)
    if not 0 < s_step <= fam.s_max:
        raise ValueError("s_step must lie in (0, s_max]")
    loops = [fam.family(s) for s in (s_step, s_step / 2, s_step / 4)]
    for loop in loops:
        loop.validate(M.chart)
    start, target = _start_and_target(steps, None)
    eye = np.eye(M.dim)
    segments = max(len(loop.segments) for loop in loops)

    def loop_products(products):
        rest = iter(products)
        return [_chain([next(rest) for _ in loop.segments], eye) for loop in loops]

    def accept(live, fine, coarse, fine_steps):
        Ps = loop_products(fine)
        D = _s_extrapolated(Ps, s_step, eye)
        est = _richardson(D, _s_extrapolated(loop_products(coarse), s_step, eye))
        floor = segments * fine_steps * EPS * max(float(np.abs(P).max()) for P in Ps) / s_step
        if est <= target + floor:
            return np.ones(len(live), dtype=bool)
        _check_refinable(fine_steps, f"family derivative error estimate {est:.3e} "
                         f"exceeds the target {target:.3e} plus the roundoff "
                         f"floor {floor:.3e}")
        return np.zeros(len(live), dtype=bool)

    results = _lockstep([seg for loop in loops for seg in loop.segments],
                        _kernel(M, kind), start, None if steps is not None else accept,
                        estimate=False)
    D = _s_extrapolated(loop_products([r[0] for r in results]), s_step, eye)
    n_fine = results[0][2]  # the same on every segment
    P0, P0_est = path_transport_matrix(M, kind, trivial.segments, steps=n_fine // 2)
    gap = np.abs(P0 - eye).max()
    if gap > max(10.0 * P0_est, TRIVIAL_TOL):
        raise FamilyNotTrivial(f"P(0) differs from identity by {gap:.3e}")
    return D


def shrinking_rectangle_family(corner, axis_a, axis_b, extent_a, extent_b, s_max=1.0):
    """Family s -> rectangle with extents scaled by s; trivially I at s=0."""
    corner = np.asarray(corner, dtype=float)

    def make(s):
        if s == 0.0:
            # degenerate: four zero-length segments keep the segment count
            # of the rectangles and have identity transport
            e1 = np.zeros_like(corner)
            return Loop(segments=[Line(corner, corner + e1), Line(corner + e1, corner),
                                  Line(corner, corner), Line(corner, corner)],
                        basepoint=corner)
        return rectangle_loop(corner, axis_a, axis_b, s * extent_a, s * extent_b)

    return LoopFamily(family=make, s_max=s_max)


# ---------------------------------------------------------------------------
# Random loop sampling
# ---------------------------------------------------------------------------

def random_rectangle_loops(M, region, count, seed, basepoint=None):
    """Deterministic seed-reproducible axis-aligned rectangles in ``region``.

    Each loop picks a random corner (kept away from the upper region edge so
    rectangles never degenerate), a random axis pair and random extents
    (EXTENT_RANGE fractions of the room left in the region), and is based at
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
        ext_i = room_i * rng.uniform(*EXTENT_RANGE)
        ext_j = room_j * rng.uniform(*EXTENT_RANGE)
        loops.append(rectangle_loop(corner, int(i), int(j), ext_i, ext_j,
                                    basepoint=basepoint))
    return loops


# ---------------------------------------------------------------------------
# Block prediction for totally geodesic coordinate slices
# ---------------------------------------------------------------------------

def predicted_block_transport(N: WeightedManifold, free_indices, fixed_values,
                              loop: Loop, steps=None, error_target=None):
    """Predicted ambient weighted transport along a loop inside the slice
    {x_j = c_j, j not free}, assembled block by block:

        [ induced weighted transport   sourced mixing block ]
        [            0                 ambient metric transport on normals ]

    The induced block's coefficients are the tangent block of N's weighted
    ones: on a totally geodesic slice metric-orthogonal to its coordinate
    normals, the Gauss formula makes the induced Levi-Civita coefficients
    the ambient ones' tangent block, and the weighted corrections read only
    the tangential dphi.  Both conditions are checked to GEODESY_TOL at
    sample points along the loop, and each segment's ends (so the whole
    straight segment) to lie in the slice to ENDPOINT_TOL, or a ValueError
    names the coordinate.  The mixing block transports each normal by the
    ambient metric connection and feeds e^{phi(sigma(t)) - phi(p)}
    dphi(normal) sigma' into the induced weighted equation.  The block
    system is integrated like any transport (see ``path_transport_matrix``
    for ``steps`` and ``error_target``): step-controlled per segment
    unless ``steps`` fixes the grid.
    """
    free = sorted(int(i) for i in free_indices)
    normal = [j for j in range(N.dim) if j not in free]
    if not normal:
        raise ValueError("slice is the whole manifold")
    loop.validate(N.chart)
    ends = np.array([p for seg in loop.segments for p in (seg.start, seg.end)])
    for j in normal:
        if np.abs(ends[:, j] - fixed_values[j]).max() > ENDPOINT_TOL:
            raise ValueError(f"loop leaves the slice: coordinate {j} is not {fixed_values[j]}")

    # sample geodesy along the loop: Gamma^k_ij = 0 for i,j tangent, k normal
    probe_ts = np.linspace(0.05, 0.95, 20)
    probe_pts = _sample(loop.segments, probe_ts)[0].reshape(-1, N.dim)
    gamma_probe = christoffel_many(N, ConnectionKind.LEVI_CIVITA, probe_pts)
    worst = max(np.abs(gamma_probe[:, k][:, free][:, :, free]).max() for k in normal)
    if worst > GEODESY_TOL:
        raise NotTotallyGeodesic(f"max tangent-tangent-normal coefficient {worst:.3e}")
    g_probe = N.metric.matrices(probe_pts)
    cross = max(np.abs(g_probe[:, i, j]).max() for i in free for j in normal)
    if cross > GEODESY_TOL:
        raise NotTotallyGeodesic(
            f"coordinate normals not metric-orthogonal to the slice ({cross:.3e})")

    base_phi = float(density_jet(N, loop.basepoint)[0][0])
    s = len(free)
    d = s + N.dim

    def coeffs(pos, vel):
        A = np.zeros((pos.shape[0], d, d))
        A[:, s:, s:] = _transport_matrices(N, ConnectionKind.LEVI_CIVITA, pos, vel)
        A[:, :s, :s] = -christoffel_many(N, ConnectionKind.WEIGHTED, pos, vel)[:, free][:, :, free]
        # source: lambda(t) * sigma'_tangent (x) dphi acting on the normal flow
        phi, dphi = density_jet(N, pos)
        lam = np.exp(phi - base_phi)
        A[:, :s, s:] = lam[:, None, None] * vel[:, free][:, :, None] * dphi[:, None, :]
        return A
    coeffs.chart = N.chart

    [(fine, _, _)] = _transport_many(coeffs, d, [loop.segments], steps=steps,
                                     error_target=error_target, estimate=False)

    mix = fine[:s, s:]          # acting on full ambient normal start vectors
    amb = fine[s:, s:]          # ambient metric transport in ambient coordinates
    out = np.zeros((N.dim, N.dim))
    out[np.ix_(free, free)] = fine[:s, :s]
    out[np.ix_(free, normal)] = mix[:, normal]
    out[np.ix_(normal, normal)] = amb[np.ix_(normal, normal)]
    return out
