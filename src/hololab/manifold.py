"""Charts, metric and density fields, connections and curvature.

A weighted manifold is a triple (chart, metric g, density phi).  Three
torsion-free connections live on it:

* ``LEVI_CIVITA``   -- the metric connection of g,
* ``WEIGHTED``      -- Gamma^k_ij - (d_i phi) delta^k_j - (d_j phi) delta^k_i,
* ``DUAL_WEIGHTED`` -- Gamma^k_ij + g_ij (grad phi)^k,

the last two being dual to each other with respect to h = e^{-phi} g.

Metric entries and the density are expressions (``expr``), differentiated
exactly in forward mode, in batch over (m, n) point arrays.  Geometry is
evaluated as first-order jets: ``jet(pts)`` returns a field's values with
all its coordinate partials.  An expression field records which
coordinates its expression contains; its partials in the others are
exactly 0 and are never computed.  Fields are evaluated together in one
jet pass: ``expr.eval_dual`` runs one ``expr.Program`` of their
expressions, which computes a subexpression that they share once, and
``_Pass.jets`` writes their rows into one (k, n + 1, m) array J, point
axis last.  A metric's pass has its ``slots`` (every diagonal entry of a
diagonal metric, else those that are not the literal 0), a manifold's
those entries and the density: the geometry's pass.

``christoffel_many`` is the one coefficient kernel.  Each call runs one
jet pass: the geometry's, or the metric's alone for the Levi-Civita
connection.  Errors come as if the metric were evaluated and inverted
before the density was evaluated: a metric entry's DomainError, then
SingularMetric, then the density's DomainError or DensityOverflow; each
test is one reduction over the call, and the failing point is looked
for only when it fails.  Given a path velocity v it
returns the contracted coefficients B^k_j = Gamma^k_ij v^i that parallel
transport needs: c_aij = d_i g_aj + d_j g_ai - d_a g_ij is contracted with v before
the index is raised, and the weighted and dual corrections enter in their
contracted forms -(v.dphi) delta^k_j - v^k d_j phi and
+(g v)_j (g^-1 dphi)^k, so no (m, n, n, n) coefficient array is formed.
Without a velocity it returns the full Gamma, assembled from the same
contraction with each coordinate direction.  A metric records at
construction whether every off-diagonal entry is the literal 0.  Such a
diagonal metric takes only its diagonal jet, (n, m) values g_aa and
(n, n, m) partials D[a, l] = d_l g_aa, views of J, so no (m, n, n, n)
array is formed at all: c_aij v^i = delta_aj (D[a].v) + v_a D[a, j] - v_j D[j, a]
(Kobayashi-Nomizu I, section III.7), rounded as the dense contraction
rounds it, and g^-1 = 1/diag with det g = prod(diag).  Its arrays keep
the point axis last, so that elementwise work over the short index axes
runs along the points.  Any other metric of dimension 2 or 3 is inverted
from one cofactor factorization:
the symmetric adjugate, det g expanded along its first row, g^-1 =
adj / det.  Larger non-diagonal metrics use LAPACK.  Every path rejects
a det g that is not finite or whose size is at most DET_FLOOR.

Every tensor is batched over (m, n) points and reads one program, the
geometry's (the metric's alone for Levi-Civita coefficients):
``christoffel_derivative_many`` takes g, d g and d phi from its jet pass
and the second derivatives from a second-order pass (``expr.eval_dual2``)
for each coordinate pair that some field contains both of; the others
are 0.  ``curvature_many`` is the batched curvature, its Gamma and
d Gamma read one jet pass, and ``ricci_at`` is its trace at one point.
``nabla_h_many`` (nabla h, h = e^{-phi} g) and ``amari_chentsov_many``
read one jet pass, and ``codazzi_tensors_many`` one for both.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import expr as ex
from .errors import (BadSignature, DensityOverflow, DomainError, OutOfDomain,
                     SingularMetric, UnboundVariable, _plain)

DET_FLOOR = 1e-10
SYMMETRY_TOL = 1e-12


class ConnectionKind(enum.Enum):
    LEVI_CIVITA = "levi_civita"
    WEIGHTED = "weighted"
    DUAL_WEIGHTED = "dual_weighted"


# ---------------------------------------------------------------------------
# Charts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoordinateChart:
    """A single coordinate chart: names, open domain box, optional periods."""

    dim: int
    coord_names: tuple
    periodicity: tuple = None  # per-coordinate period or None
    domain: tuple = None       # per-coordinate (lo, hi), open; may be +-inf

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("chart dimension must be >= 1")
        if len(self.coord_names) != self.dim:
            raise ValueError("coord_names length must equal dim")
        if len(set(self.coord_names)) != self.dim:
            raise ValueError("coordinate names must be distinct")
        per = self.periodicity if self.periodicity is not None else (None,) * self.dim
        dom = self.domain if self.domain is not None else ((-math.inf, math.inf),) * self.dim
        if len(per) != self.dim or len(dom) != self.dim:
            raise ValueError("periodicity/domain length must equal dim")
        for p in per:
            if p is not None and not p > 0:
                raise ValueError("periods must be positive")
        for lo, hi in dom:
            if not lo < hi:
                raise ValueError("domain intervals must be nonempty")
        object.__setattr__(self, "periodicity", tuple(per))
        object.__setattr__(self, "domain", tuple((float(lo), float(hi)) for lo, hi in dom))

    @functools.cached_property
    def _bounds(self):
        return tuple(np.array(self.domain).T)

    def contains(self, pts) -> np.ndarray:
        """Vectorized open-interval membership test for an (m, n) array; a
        row with a NaN is outside."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        lo, hi = self._bounds
        # column-major, so that the reduction over coordinates runs along
        # the points
        inside = np.greater(pts, lo, order="F")
        inside &= np.less(pts, hi, order="F")
        return np.logical_and.reduce(inside, axis=1)

    def require_inside(self, pts):
        pts2 = np.atleast_2d(np.asarray(pts, dtype=float))
        ok = self.contains(pts2)
        if not ok.all():
            bad = pts2[~ok][0]
            raise OutOfDomain(tuple(bad))

    def env(self, pts) -> dict:
        """Bind coordinate names to the columns of an (m, n) point array."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return {name: pts[:, i] for i, name in enumerate(self.coord_names)}

    def sample_box(self, width=2.0):
        """A finite box inside the domain, used for validation grids.

        Unbounded sides are clamped to +-width/2 around 0 (or just inside a
        half-bounded edge).
        """
        box = []
        for lo, hi in self.domain:
            if math.isfinite(lo) and math.isfinite(hi):
                pad = 0.05 * (hi - lo)
                box.append((lo + pad, hi - pad))
            elif math.isfinite(lo):
                box.append((lo + 0.1, lo + 0.1 + width))
            elif math.isfinite(hi):
                box.append((hi - 0.1 - width, hi - 0.1))
            else:
                box.append((-width / 2, width / 2))
        return tuple(box)

    def wrap_difference(self, a, b):
        """Coordinate difference a - b reduced modulo declared periods."""
        d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        out = d.copy()
        for i, p in enumerate(self.periodicity):
            if p is not None:
                out[i] = (d[i] + p / 2.0) % p - p / 2.0
        return out


def grid_points(box, per_axis=3):
    """Lattice of per_axis**n points over a box (validation sampling)."""
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in box]
    return np.array(list(itertools.product(*axes)))


# ---------------------------------------------------------------------------
# Scalar fields (one matrix entry, or the density)
# ---------------------------------------------------------------------------

class ExprScalarField:
    """Scalar field backed by an expression AST; derivatives are exact.

    ``axes`` lists the coordinates the expression contains; the partials
    in every other coordinate are exactly 0.
    """

    def __init__(self, expression, chart):
        if isinstance(expression, str):
            expression = ex.parse(expression)
        free = ex.variables(expression)
        unknown = free - set(chart.coord_names)
        if unknown:
            raise UnboundVariable(sorted(unknown)[0])
        self.expression = expression
        self.chart = chart
        self.axes = tuple(i for i, name in enumerate(chart.coord_names) if name in free)
        self.constant = not free  # every partial derivative is exactly 0

    @functools.cached_property
    def _pass(self):
        return _Pass(self.chart, [self])

    def values(self, pts):
        env = self.chart.env(pts)
        out, = ex.eval_expr(self._pass.program, env)
        return np.broadcast_to(np.asarray(out, dtype=float),
                               (np.atleast_2d(pts).shape[0],)).copy()

    def jet(self, pts):
        """(m,) values and (m, n) gradient from one forward-mode pass."""
        J = self._pass.jets(np.atleast_2d(np.asarray(pts, dtype=float)))
        return J[0, 0], J[0, 1:].T


class _Pass:
    """Scalar fields on one chart lowered into one ``expr.Program``, their
    expressions in order.  Called on (m, n) points it runs one forward-mode
    pass and returns the fields' jet rows as one flat list, in the order
    of ``rows``: field f's values (f, 0), then its partials in its own
    ``axes`` (f, 1 + a), a constant as a scalar.  ``jets`` lays them out
    in a (k, n + 1, m) array J, its other rows 0.  Some field contains
    each of ``names`` and both of each of ``pairs``, the (a, b), a <= b
    (the others' second partials are 0)."""

    __slots__ = ("chart", "program", "names", "pairs", "rows")

    def __init__(self, chart, fields):
        self.chart = chart
        self.program = ex.Program([f.expression for f in fields])
        self.names = tuple(name for a, name in enumerate(chart.coord_names)
                           if any(a in f.axes for f in fields))
        self.pairs = tuple((a, b) for a, b in itertools.combinations_with_replacement(
            range(chart.dim), 2) if any(a in f.axes and b in f.axes for f in fields))
        self.rows = tuple((f, s) for f, field in enumerate(fields)
                          for s in (0, *(1 + a for a in field.axes)))

    def __call__(self, pts):
        names = self.chart.coord_names
        return ex.eval_dual(self.program, dict(zip(names, pts.T)), names)

    def jets(self, pts):
        J = np.zeros((len(self.program.exprs), self.chart.dim + 1, len(pts)))
        for (f, s), row in zip(self.rows, self(pts)):
            J[f, s] = row
        return J


# ---------------------------------------------------------------------------
# Metric and density fields
# ---------------------------------------------------------------------------

class MetricField:
    """Symmetric bilinear field with declared signature (p, q).

    ``varying`` lists the upper-triangle entries (i, j) that are not
    variable-free, ``nonzero`` those that are not the literal 0;
    ``diagonal`` is true when every off-diagonal entry is the literal 0.
    ``slots`` are the entries that the metric's pass evaluates: every
    (a, a) of a diagonal metric, else ``nonzero``.  All are fixed at
    construction from the entries' ASTs.
    """

    def __init__(self, chart, entry_fields, signature, validate=True, sample_grid=None):
        n = chart.dim
        p, q = signature
        if p < 0 or q < 0 or p + q != n:
            raise BadSignature(f"signature {signature} incompatible with dimension {n}")
        self.chart = chart
        self.entries = entry_fields  # n x n nested list of scalar fields (symmetric)
        self.signature = (p, q)
        self.varying = tuple((i, j) for i in range(n) for j in range(i, n)
                             if not entry_fields[i][j].constant)
        self.nonzero = tuple((i, j) for i in range(n) for j in range(i, n)
                             if entry_fields[i][j].expression != ex.Num(0.0))
        self.diagonal = all(i == j for i, j in self.nonzero)
        self.slots = tuple((a, a) for a in range(n)) if self.diagonal else self.nonzero
        if validate:
            self.validate(sample_grid)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_expressions(cls, chart, entries, signature, validate=True, sample_grid=None):
        """entries: n x n nested sequence of expression strings / ASTs, or a
        length-n sequence for a diagonal metric."""
        n = chart.dim
        if len(entries) == n and not isinstance(entries[0], (list, tuple)):
            full = [["0"] * n for _ in range(n)]
            for i in range(n):
                full[i][i] = entries[i]
            entries = full
        fields = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                f = ExprScalarField(entries[i][j], chart)
                fields[i][j] = f
                fields[j][i] = f
        return cls(chart, fields, signature, validate=validate, sample_grid=sample_grid)

    # -- evaluation --------------------------------------------------------

    def matrices(self, pts):
        """(m, n, n) metric values from one plain pass over its ``slots``;
        symmetry is structural."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        m, n = pts.shape[0], self.chart.dim
        g = np.zeros((m, n, n))
        for (i, j), v in zip(self.slots, ex.eval_expr(self._pass.program, self.chart.env(pts))):
            g[:, i, j] = v
            g[:, j, i] = v
        return g

    @functools.cached_property
    def _pass(self):
        """The entries of ``slots``, in order."""
        return _Pass(self.chart, [self.entries[i][j] for i, j in self.slots])

    def jet(self, pts):
        """(m, n, n) values g and (m, n, n, n) partials d_l g_ij, index order
        [l, i, j], from one pass over its ``slots``."""
        return self._unpack(self._pass.jets(np.atleast_2d(np.asarray(pts, dtype=float))), False)

    def _unpack(self, J, diagonal):
        """(g, d g) from the ``_Pass.jets`` J of a pass whose first outputs
        are the entries of ``slots``: if ``diagonal``, (n, m) values g_aa and
        (n, n, m) partials D[a, l] = d_l g_aa, views of J, point axis last;
        else the dense (m, n, n) values and (m, n, n, n) partials d_l g_ij,
        index order [l, i, j]."""
        n, m = self.chart.dim, J.shape[2]
        if diagonal:
            return J[:n, 0], J[:n, 1:]
        i, j = np.array(self.slots).T
        g, dg = np.zeros((m, n, n)), np.zeros((m, n, n, n))
        g[:, i, j] = g[:, j, i] = J[:len(i), 0].T
        dg[:, :, i, j] = dg[:, :, j, i] = J[:len(i), 1:].transpose(2, 1, 0)
        return g, dg

    # -- validation --------------------------------------------------------

    def validate(self, sample_grid=None):
        pts = np.atleast_2d(sample_grid if sample_grid is not None
                            else grid_points(self.chart.sample_box()))
        g = self.matrices(pts)
        asym = np.abs(g - np.swapaxes(g, 1, 2)).max()
        if asym > SYMMETRY_TOL:
            raise ValueError(f"metric not symmetric: max asymmetry {asym:.3e}")
        dets = np.linalg.det(g)
        _require_nonsingular(pts, dets, np.isfinite(g).all(axis=(1, 2)) & np.isfinite(dets))
        eigs = np.linalg.eigvalsh(g)
        pos = (eigs > 0).sum(axis=1)
        p, q = self.signature
        if not ((pos == p).all()):
            k = int(np.argmax(pos != p))
            raise BadSignature(
                f"declared signature {self.signature} but found {int(pos[k])} positive "
                f"eigenvalues at {_plain(pts[k])}")


class DensityField:
    """The weight function phi of the triple (M, g, phi)."""

    def __init__(self, scalar_field):
        self.field = scalar_field
        self.chart = scalar_field.chart

    @classmethod
    def from_expression(cls, chart, expression):
        return cls(ExprScalarField(expression, chart))

    @classmethod
    def zero(cls, chart):
        return cls(ExprScalarField(ex.Num(0.0), chart))

    def values(self, pts):
        return self.field.values(pts)

    def jet(self, pts):
        """(m,) values phi and (m, n) rows of coordinate partials d_i phi;
        DensityOverflow at the first point where any is not finite."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        J = _require_finite_density(pts, "phi or its gradient", self.field._pass.jets(pts)[0])
        return J[0], J[1:].T


def _require_finite_density(pts, what, a):
    """``a`` unchanged, or DensityOverflow at the first point where it is
    not finite; its point axis is its last."""
    if np.isfinite(a).all():
        return a
    finite = np.isfinite(a.reshape(-1, len(pts))).all(axis=0)
    raise DensityOverflow(pts[int(finite.argmin())], f"{what} overflows")


@dataclass(frozen=True)
class WeightedManifold:
    chart: CoordinateChart
    metric: MetricField
    density: DensityField
    name: str = ""

    def __post_init__(self):
        if self.metric.chart is not self.chart or self.density.chart is not self.chart:
            raise ValueError("metric and density must share the manifold's chart")

    @functools.cached_property
    def _pass(self):
        """The metric's ``_pass`` followed by the density: the geometry's
        one jet pass, compiled on first use."""
        return _Pass(self.chart, [self.metric.entries[i][j] for i, j in self.metric.slots]
                     + [self.density.field])

    @property
    def dim(self):
        return self.chart.dim


# ---------------------------------------------------------------------------
# Pointwise operations
# ---------------------------------------------------------------------------

def _one_point(x):
    return np.atleast_2d(np.asarray(x, dtype=float))


def metric_at(M: WeightedManifold, x) -> np.ndarray:
    M.chart.require_inside(x)
    return M.metric.matrices(_one_point(x))[0]


def weighted_metric_at(M: WeightedManifold, x) -> np.ndarray:
    """h = e^{-phi} g, the metric the weighted/dual pair is dual under."""
    return weighted_metrics_at(M, _one_point(x))[0]


def weighted_metrics_at(M: WeightedManifold, pts) -> list:
    """``weighted_metric_at`` at each of the (m, n) points, from one pass
    of the density and one of the metric; e^{-phi} is taken by math.exp,
    point by point."""
    M.chart.require_inside(pts)
    scales = [math.exp(-phi) for phi in M.density.values(pts)]
    return [s * g for s, g in zip(scales, M.metric.matrices(pts))]


def _require_nonsingular(pts, dets, finite=None):
    """SingularMetric at the first point where ``finite`` (by default det g
    finite) is false, else at the smallest |det g| if it is <= DET_FLOOR."""
    size = np.abs(dets)
    if finite is None and (not len(dets) or DET_FLOOR < size.min() <= size.max() < math.inf):
        return
    finite = np.isfinite(dets) if finite is None else finite
    if not finite.all():
        k = int(finite.argmin())
        raise SingularMetric(pts[k], dets[k])
    if len(dets) and size.min() <= DET_FLOOR:
        k = int(size.argmin())
        raise SingularMetric(pts[k], dets[k])


def _adjugate(g):
    """Symmetric adjugate (m, n, n) of symmetric (m, n, n) matrices, n = 2 or
    3, and det g expanded along the first row."""
    if g.shape[1] == 2:
        a, b, d = g[:, 0, 0], g[:, 0, 1], g[:, 1, 1]
        row0 = (d, -b)
        adj = (row0, (-b, a))
    else:
        a, b, c = g[:, 0, 0], g[:, 0, 1], g[:, 0, 2]
        d, e, f = g[:, 1, 1], g[:, 1, 2], g[:, 2, 2]
        row0 = (d * f - e * e, c * e - b * f, b * e - c * d)
        c12 = b * c - a * e
        adj = (row0, (row0[1], a * f - c * c, c12), (row0[2], c12, a * d - b * b))
    det = sum(g[:, 0, j] * row0[j] for j in range(len(row0)))
    return np.stack([np.stack(row, axis=1) for row in adj], axis=1), det


def _inverse_metric(g, pts):
    """g^{-1} at each point: the (n, m) reciprocals of the (n, m) values
    g_aa of a diagonal metric, (m, n, n) adj/det from one cofactor
    factorization of (m, n, n) matrices for n = 2 or 3, else (m, n, n) from
    LAPACK.  Raises SingularMetric at the first point where det g is not
    finite, else at the smallest |det g| if it is <= DET_FLOOR."""
    if g.ndim == 2:
        _require_nonsingular(pts, g.prod(axis=0))
        return 1.0 / g
    if g.shape[1] <= 3:
        adj, dets = _adjugate(g)
        _require_nonsingular(pts, dets)
        return adj / dets[:, None, None]
    _require_nonsingular(pts, np.linalg.det(g))
    return np.linalg.inv(g)


def _contract_diagonal(kind, g, ginv, D, dphi, v, v_dphi):
    """B[k, j] = Gamma^k_ij v^i, shape (n, n, m), for velocities v (n, m)
    on a diagonal metric: (n, m) g_aa and g^aa, (n, n, m) D[a, l] = d_l g_aa
    and (n, m) d phi, point axis last, and v_dphi = v . d phi (weighted).
    c_aij v^i = delta_aj (D[a] . v) + v_a D[a, j] - v_j D[j, a] is rounded
    as the dense contraction rounds it; the diagonals of the C-contiguous
    p and B are views."""
    s = (D * v).sum(axis=1)  # s[a] = D[a] . v
    p = v[:, None] * D  # p[a, j] = v_a D[a, j]
    p += 0.0  # a -0 product reads +0, as in the dense path's sums
    B = np.subtract(p, p.swapaxes(0, 1), out=np.empty(p.shape))
    # the diagonal in the dense path's order: (D[a].v + p_aa) - p_aa
    n, _, m = p.shape
    p_aa = p.reshape(n * n, m)[::n + 1]
    s += p_aa
    np.subtract(s, p_aa, out=B.reshape(n * n, m)[::n + 1])
    B *= ginv[:, None]
    B *= 0.5
    if kind == ConnectionKind.WEIGHTED:
        # B - ((v.dphi) delta^k_j + v^k d_j phi), same roundings, in p's place
        # (p_aa is its diagonal) and with no (v.dphi) delta array: that
        # array's off-diagonal terms (v.dphi) 0 only set the sign of a zero
        corr = p
        np.copyto(corr, dphi)
        corr *= v[:, None]
        corr += 0.0 * v_dphi
        p_aa += v_dphi
        B -= corr
    elif kind == ConnectionKind.DUAL_WEIGHTED:
        # a -0 product (g v)_j reads +0, as in the dense path's sums
        B += np.multiply((ginv * dphi)[:, None], g * v + 0.0, out=p)
    elif kind != ConnectionKind.LEVI_CIVITA:
        raise ValueError(f"unknown connection kind {kind!r}")
    return B


def _contracted(kind, g, ginv, dg, dphi, v):
    """B^k_j = Gamma^k_ij v^i, shape (m, n, n), for velocities v (m, n),
    from ``_jets``: by ``_contract_diagonal`` (point axis last in memory),
    or from the dense d g, index order [l, i, j]."""
    # summed on the layout of the caller's v and a C-contiguous d phi:
    # einsum's summation order depends on its operands' layout
    v_dphi = (np.einsum('mi,mi->m', v, dphi if g.ndim == 3 else dphi.T.copy())
              if kind == ConnectionKind.WEIGHTED else None)
    if g.ndim == 2:
        return _contract_diagonal(kind, g, ginv, dg, dphi, v.T.copy(),
                                  v_dphi).transpose(2, 0, 1)
    # w[a, j] = v^i d_a g_ij = v^i d_j g_ai (dg is symmetric in its last pair),
    # then c_aij v^i in its place
    w = np.einsum('maji,mi->maj', dg, v)
    w = np.einsum('mi,miaj->maj', v, dg) + np.swapaxes(w, 1, 2) - w
    B = ginv @ w
    B *= 0.5
    if kind == ConnectionKind.WEIGHTED:  # the corrections take the place of w
        corr = np.multiply(v[:, :, None], dphi[:, None, :], out=w)
        corr += (0.0 * v_dphi)[:, None, None]
        np.einsum('mii->mi', corr)[...] += v_dphi[:, None]  # a view of the diagonal
        B -= corr
    elif kind == ConnectionKind.DUAL_WEIGHTED:
        B += np.multiply(ginv @ dphi[:, :, None], (g @ v[:, :, None])[:, None, :, 0], out=w)
    elif kind != ConnectionKind.LEVI_CIVITA:
        raise ValueError(f"unknown connection kind {kind!r}")
    return B


def _require_finite(coeffs, g, pts):
    """``coeffs`` (m, ...) unchanged, or SingularMetric at the first point
    where they are not finite: g and det g are finite there (the inverse
    passed), but a jet overflowed.  ``g`` holds (n, m) diagonal values or
    (m, n, n) matrices."""
    if not np.isfinite(coeffs).all():
        k = int(np.isfinite(coeffs.reshape(len(pts), -1)).all(axis=1).argmin())
        det = g[:, k].prod() if g.ndim == 2 else np.linalg.det(g[k])
        raise SingularMetric(pts[k], det, "connection coefficients not finite")
    return coeffs


def _jets(M, pts, density):
    """g, g^-1, d g, phi and d phi (both None unless ``density``) from one
    jet pass, the geometry's or the metric's alone: for a diagonal metric
    (n, m), (n, m), (n, n, m), (m,) and (n, m) arrays, all but g^-1 views
    of the pass (``MetricField._unpack``), else the dense arrays of ``_dense``.

    Errors come as if the metric were evaluated and inverted before the
    density: a metric entry's DomainError, then SingularMetric, then the
    density's DomainError or DensityOverflow."""
    metric = M.metric
    try:
        J = (M if density else metric)._pass.jets(pts)
    except DomainError:
        if density:  # the metric's pass raises the error if it is a metric entry's
            _inverse_metric(metric._unpack(metric._pass.jets(pts), metric.diagonal)[0], pts)
        raise
    g, dg = metric._unpack(J, metric.diagonal)
    # a dense metric's jets are copies: its J is freed before the inverse
    phi = J[-1] if metric.diagonal else J[-1].copy() if density else None
    del J
    ginv = _inverse_metric(g, pts)
    if not density:
        return g, ginv, dg, None, None
    phi = _require_finite_density(pts, "phi or its gradient", phi)
    return (g, ginv, dg) + ((phi[0], phi[1:]) if metric.diagonal
                            else (phi[0].copy(), phi[1:].T.copy()))


def _dense(g, ginv, dg, phi=None, dphi=None):
    """g, g^-1, d g and d phi of ``_jets`` as dense (m, n, n), (m, n, n),
    (m, n, n, n) and (m, n) arrays, d g [l, i, j], none a view of the pass."""
    if g.ndim == 3:
        return g, ginv, dg, dphi
    n, m = g.shape
    d = np.arange(n)
    G, Ginv, dG = np.zeros((m, n, n)), np.zeros((m, n, n)), np.zeros((m, n, n, n))
    G[:, d, d], Ginv[:, d, d] = g.T, ginv.T
    dG[:, :, d, d] = dg.transpose(2, 1, 0)  # D[a, l] = d_l g_aa
    return G, Ginv, dG, None if dphi is None else dphi.T.copy()


def _gamma(kind, g, ginv, dg, dphi, pts):
    """The (m, n, n, n) Gamma[., k, i, j] from ``_jets``: Gamma^k_ij is
    B^k_j for the velocity e_i."""
    m, n = pts.shape
    eye = np.eye(n)
    return _require_finite(np.stack([_contracted(kind, g, ginv, dg, dphi,
                                                 np.broadcast_to(eye[i], (m, n)))
                                     for i in range(n)], axis=2), g, pts)


def christoffel_many(M: WeightedManifold, kind: ConnectionKind, pts,
                     velocity=None) -> np.ndarray:
    """Connection coefficients at each point of an (m, n) array.

    Returns the (m, n, n, n) array gamma[., k, i, j], or, given velocities
    (m, n), the contracted (m, n, n) array B[., k, j] = Gamma^k_ij v^i.
    A diagonal metric is evaluated from its diagonal jet, (n, m) values
    g_aa and (n, n, m) partials D[a, l] = d_l g_aa, and its Levi-Civita
    part is B^a_j = 1/2 g^aa (v_a D[a, j] - v_j D[j, a]) +
    delta_aj 1/2 g^aa (D[a] . v); no (m, n, n, n) array is formed.  Other
    metrics contract their dense jet.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    g, ginv, dg, _, dphi = _jets(M, pts, kind != ConnectionKind.LEVI_CIVITA)
    if velocity is None:
        return _gamma(kind, g, ginv, dg, dphi, pts)
    v = np.asarray(velocity, dtype=float).reshape(pts.shape)
    return _require_finite(_contracted(kind, g, ginv, dg, dphi, v), g, pts)


def christoffel_derivative_many(M: WeightedManifold, kind: ConnectionKind, pts) -> np.ndarray:
    """(m, n, n, n, n) array of d_l Gamma^k_ij, index order [l, k, i, j].

    Assembled from the exact first and second derivatives of the metric
    and density expressions, with the chain rule through the inverse
    metric: one jet pass and a second-order pass for each of the
    geometry's ``pairs``, all of one program, the geometry's, or the
    metric's alone for the Levi-Civita connection.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    jets = _dense(*_jets(M, pts, kind != ConnectionKind.LEVI_CIVITA))
    return _christoffel_derivative(M, kind, pts, *jets)


def _christoffel_derivative(M, kind, pts, g, ginv, dg, dphi):
    """``christoffel_derivative_many`` from the ``_dense`` jets of pts."""
    m, n = pts.shape
    weighted = kind != ConnectionKind.LEVI_CIVITA
    # d2g[a, b, i, j] = d_a d_b g_ij and, read only if weighted,
    # hess[a, b] = d_a d_b phi, the geometry's last output; both are 0
    # in a pair that no field contains both of
    geometry = M._pass if weighted else M.metric._pass
    env, names = M.chart.env(pts), M.chart.coord_names
    d2g, hess = np.zeros((m, n, n, n, n)), np.zeros((m, n, n))
    for a, b in geometry.pairs:
        outs = ex.eval_dual2(geometry.program, env, names[a], names[b])
        for (i, j), (*_, v) in zip(M.metric.slots, outs):
            d2g[:, a, b, i, j] = v
            d2g[:, a, b, j, i] = v
            d2g[:, b, a, i, j] = v
            d2g[:, b, a, j, i] = v
        hess[:, a, b] = hess[:, b, a] = outs[-1][-1]
    # c_{aij} = d_i g_aj + d_j g_ai - d_a g_ij, and its l-derivative
    c = np.einsum('miaj->maij', dg) + np.einsum('mjai->maij', dg) - dg
    dc = (np.einsum('mliaj->mlaij', d2g) + np.einsum('mljai->mlaij', d2g) - d2g)
    dginv = -np.einsum('mka,mlab,mbn->mlkn', ginv, dg, ginv)  # [l, k, n] = d_l g^{kn}
    dgamma = 0.5 * (np.einsum('mlka,maij->mlkij', dginv, c)
                    + np.einsum('mka,mlaij->mlkij', ginv, dc))
    if kind == ConnectionKind.LEVI_CIVITA:
        return _require_finite(dgamma, g, pts)
    _require_finite_density(pts, "its Hessian", hess.T)
    eye = np.eye(n)
    if kind == ConnectionKind.WEIGHTED:
        corr = (np.einsum('mli,kj->mlkij', hess, eye)
                + np.einsum('mlj,ki->mlkij', hess, eye))
        return _require_finite(dgamma - corr, g, pts)
    if kind == ConnectionKind.DUAL_WEIGHTED:
        grad_up = np.einsum('mka,ma->mk', ginv, dphi)
        dgrad_up = (np.einsum('mlka,ma->mlk', dginv, dphi)
                    + np.einsum('mka,mla->mlk', ginv, hess))
        extra = (np.einsum('mlij,mk->mlkij', dg, grad_up)
                 + np.einsum('mij,mlk->mlkij', g, dgrad_up))
        return _require_finite(dgamma + extra, g, pts)
    raise ValueError(f"unknown connection kind {kind!r}")


def curvature_many(M: WeightedManifold, kind: ConnectionKind, pts) -> np.ndarray:
    """(m, n, n, n, n) array of R^l_{ijk} = d_i G^l_jk - d_j G^l_ik +
    G^l_ia G^a_jk - G^l_ja G^a_ik, index order [l, i, j, k], at each point
    of an (m, n) array inside the chart; G and its derivatives read one
    jet pass."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    M.chart.require_inside(pts)
    jets = _jets(M, pts, kind != ConnectionKind.LEVI_CIVITA)
    gamma = _gamma(kind, *jets[:3], jets[4], pts)
    jets = _dense(*jets)  # rebound, so that the pass is freed
    dgamma = _christoffel_derivative(M, kind, pts, *jets)  # [l, k, i, j]
    first = np.einsum('piljk->plijk', dgamma)
    second = np.einsum('pjlik->plijk', dgamma)
    quad1 = np.einsum('plia,pajk->plijk', gamma, gamma)
    quad2 = np.einsum('plja,paik->plijk', gamma, gamma)
    return first - second + quad1 - quad2


def ricci_at(M: WeightedManifold, kind: ConnectionKind, x) -> np.ndarray:
    """Ric(j, k) = R^i_{ijk}: trace of X -> R(X, Y) Z over the first slot."""
    R = curvature_many(M, kind, _one_point(x))[0]
    return np.einsum('iijk->jk', R)


def nabla_h_many(M: WeightedManifold, kind: ConnectionKind, pts) -> np.ndarray:
    """(m, n, n, n) array of (nabla_i h)_jk = d_i h_jk - Gamma^a_ij h_ak -
    Gamma^a_ik h_ja for h = e^{-phi} g, index order [i, j, k], at each
    point of an (m, n) array, from one pass of the geometry's program."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return _nabla_h(kind, pts, _jets(M, pts, True))


def _nabla_h(kind, pts, jets):
    """``nabla_h_many`` from the weighted ``_jets`` of its points."""
    gamma = _gamma(kind, *jets[:3], jets[4], pts)
    g, _, dg, dphi = _dense(*jets)
    w = np.exp(-jets[3])
    h = w[:, None, None] * g
    dh = w[:, None, None, None] * (dg - dphi[:, :, None, None] * g[:, None])
    return (dh - np.einsum('maij,mak->mijk', gamma, h)
            - np.einsum('maik,mja->mijk', gamma, h))


def amari_chentsov_many(M: WeightedManifold, pts) -> np.ndarray:
    """(m, n, n, n) array of the Amari-Chentsov tensor, d phi (x) h
    totally symmetrized, h = e^{-phi} g, at each point of an (m, n) array,
    from one pass of the geometry's program."""
    return _amari_chentsov(_jets(M, np.atleast_2d(np.asarray(pts, dtype=float)), True))


def _amari_chentsov(jets):
    g, _, _, dphi = _dense(*jets)
    h = np.exp(-jets[3])[:, None, None] * g
    return (np.einsum('mi,mjk->mijk', dphi, h) + np.einsum('mj,mki->mijk', dphi, h)
            + np.einsum('mk,mij->mijk', dphi, h))


def codazzi_tensors_many(M: WeightedManifold, pts):
    """``amari_chentsov_many`` and ``nabla_h_many`` of the weighted and the
    dual weighted connection at each point of an (m, n) array, from one
    pass of the geometry's program."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    jets = _jets(M, pts, True)
    return (_amari_chentsov(jets), _nabla_h(ConnectionKind.WEIGHTED, pts, jets),
            _nabla_h(ConnectionKind.DUAL_WEIGHTED, pts, jets))


def restrict_manifold(M: WeightedManifold, free_indices: Sequence[int], fixed_values: dict) -> WeightedManifold:
    """Coordinate slice {x_j = c_j for j not free} as its own manifold.

    The fixed values are substituted into the entries' ASTs.  The induced
    metric is the free-by-free block; the density is restricted.
    Validation is skipped: the caller samples the slice.
    """
    free = list(free_indices)
    names = [M.chart.coord_names[i] for i in free]
    bindings = {M.chart.coord_names[j]: fixed_values[j]
                for j in range(M.dim) if j not in free}
    sub_chart = CoordinateChart(
        dim=len(free),
        coord_names=tuple(names),
        periodicity=tuple(M.chart.periodicity[i] for i in free),
        domain=tuple(M.chart.domain[i] for i in free),
    )
    entries = [[None] * len(free) for _ in free]
    for a, i in enumerate(free):
        for b, j in enumerate(free):
            entries[a][b] = ex.substitute(M.metric.entries[i][j].expression, bindings)
    p, q = M.metric.signature
    sub_metric = MetricField.from_expressions(
        sub_chart, entries, signature=(min(p, len(free)), len(free) - min(p, len(free))),
        validate=False)
    sub_density = DensityField.from_expression(
        sub_chart, ex.substitute(M.density.field.expression, bindings))
    return WeightedManifold(chart=sub_chart, metric=sub_metric, density=sub_density,
                            name=f"{M.name}|slice" if M.name else "slice")
