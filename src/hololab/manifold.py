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
expressions, which computes a subexpression that they share once and
hands each field its own rows.  A metric's pass has its entries that are
not the literal 0, and a manifold's has those entries and the density:
the geometry's pass.  ``MetricField.jet`` (the dense (g, d g)) and
``DensityField.jet`` ((phi, d phi)) write such a pass into their arrays.

``christoffel_many`` is the one coefficient kernel.  Each call runs one
jet pass: the geometry's, or the metric's alone for the Levi-Civita
connection.  Errors come as if the metric were evaluated and inverted
before the density was evaluated: a metric entry's DomainError, then
SingularMetric, then the density's DomainError or DensityOverflow.  Given
a path velocity v it
returns the contracted coefficients B^k_j = Gamma^k_ij v^i that parallel
transport needs: c_aij = d_i g_aj + d_j g_ai - d_a g_ij is contracted with v before
the index is raised, and the weighted and dual corrections enter in their
contracted forms -(v.dphi) delta^k_j - v^k d_j phi and
+(g v)_j (g^-1 dphi)^k, so no (m, n, n, n) coefficient array is formed.
Without a velocity it returns the full Gamma, assembled from the same
contraction with each coordinate direction.  A metric records at
construction whether every off-diagonal entry is the literal 0.  Such a
diagonal metric takes only its diagonal jet, (m, n) values g_aa and
(m, n, n) partials D[a, l] = d_l g_aa, so no (m, n, n, n) array is formed
at all: c_aij v^i = delta_aj (D[a].v) + v_a D[a, j] - v_j D[j, a]
(Kobayashi-Nomizu I, section III.7), rounded as the dense contraction
rounds it, and g^-1 = 1/diag with det g = prod(diag).  Its arrays keep
the point axis last in memory, so that elementwise work over the short
index axes runs along the points.  Any other
metric of dimension 2 or 3 is inverted from one cofactor factorization:
the symmetric adjugate, det g expanded along its first row, g^-1 =
adj / det.  Larger non-diagonal metrics use LAPACK.  Every path rejects
a det g that is not finite or whose size is at most DET_FLOOR.
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
        return np.array(self.domain).T

    def contains(self, pts) -> np.ndarray:
        """Vectorized open-interval membership test for an (m, n) array; a
        row with a NaN is outside."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        lo, hi = self._bounds
        # column-major, so that the reduction over coordinates runs along
        # the points
        inside = np.greater(pts, lo, order="F")
        inside &= np.less(pts, hi, order="F")
        return inside.all(axis=1)

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
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self._unpack(len(pts), self._pass(pts)[0])

    def _unpack(self, m, out):
        """``jet`` from this field's (value, rows) in a ``_Pass``."""
        val, grad = np.empty(m), np.zeros((m, self.chart.dim))
        val[...] = out[0]
        for a, row in zip(self.axes, out[1] or ()):
            grad[:, a] = row
        return val, grad


class _Pass:
    """Scalar fields on one chart lowered into one ``expr.Program``, their
    expressions in order.  Called on (m, n) points it runs one forward-mode
    pass and returns each field's value and its (m,) partials in its own
    ``axes`` (None for a constant); it computes no other row."""

    __slots__ = ("chart", "program", "names")

    def __init__(self, chart, fields):
        self.chart = chart
        self.program = ex.Program([f.expression for f in fields])
        self.names = tuple(name for a, name in enumerate(chart.coord_names)
                           if any(a in f.axes for f in fields))

    def __call__(self, pts):
        return [(val, rows or None)
                for val, rows in ex.eval_dual(self.program, self.chart.env(pts), self.names)]


# ---------------------------------------------------------------------------
# Metric and density fields
# ---------------------------------------------------------------------------

class MetricField:
    """Symmetric bilinear field with declared signature (p, q).

    ``varying`` lists the upper-triangle entries (i, j) that are not
    variable-free, ``nonzero`` those that are not the literal 0;
    ``diagonal`` is true when every off-diagonal entry is the literal 0.
    All are fixed at construction from the entries' ASTs.
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
        """(m, n, n) metric values from one plain pass over the entries that
        are not the literal 0; symmetry is structural."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        m, n = pts.shape[0], self.chart.dim
        g = np.zeros((m, n, n))
        for (i, j), v in zip(self.nonzero, ex.eval_expr(self._pass.program, self.chart.env(pts))):
            g[:, i, j] = v
            g[:, j, i] = v
        return g

    @functools.cached_property
    def _pass(self):
        """The entries that are not the literal 0, in ``nonzero`` order."""
        return _Pass(self.chart, [self.entries[i][j] for i, j in self.nonzero])

    def jet(self, pts):
        """(m, n, n) values g and (m, n, n, n) partials d_l g_ij, index order
        [l, i, j], from one pass over the entries that are not the literal
        0."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self._unpack(len(pts), self._pass(pts), diagonal=False)

    def _unpack(self, m, outs, diagonal):
        """``jet`` from the entries' (value, partials) in a pass whose first
        outputs are the entries of ``_pass``, or if ``diagonal`` the
        diagonal jet: (m, n) values g_aa and (m, n, n) partials D[a, l] =
        d_l g_aa, views of arrays with the point axis last in memory, so
        that each slot is contiguous."""
        n = self.chart.dim
        if diagonal:
            vals = np.zeros((n, m))
            grads = np.zeros((n, n, m))
            for (a, _), (v, rows) in zip(self.nonzero, outs):
                vals[a] = v
                for l, row in zip(self.entries[a][a].axes, rows or ()):
                    grads[a, l] = row
            return vals.T, grads.transpose(2, 0, 1)
        g = np.zeros((m, n, n))
        dg = np.zeros((m, n, n, n))
        for (i, j), (v, rows) in zip(self.nonzero, outs):
            g[:, i, j] = v
            g[:, j, i] = v
            for l, row in zip(self.entries[i][j].axes, rows or ()):
                dg[:, l, i, j] = row
                dg[:, l, j, i] = row
        return g, dg

    def partials(self, pts):
        """(m, n, n, n) array of d_l g_ij, index order [l, i, j]."""
        return self.jet(pts)[1]

    def second_partials(self, pts):
        """(m, n, n, n, n) array of d_a d_b g_ij, index order [a, b, i, j]."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        m, n = pts.shape[0], self.chart.dim
        d2g = np.zeros((m, n, n, n, n))
        env, names = self.chart.env(pts), self.chart.coord_names
        for a in range(n):
            for b in range(a, n):
                outs = ex.eval_dual2(self._pass.program, env, names[a], names[b])
                for (i, j), (*_, v) in zip(self.nonzero, outs):
                    d2g[:, a, b, i, j] = v
                    d2g[:, a, b, j, i] = v
                    d2g[:, b, a, i, j] = v
                    d2g[:, b, a, j, i] = v
        return d2g

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
        return self._unpack(pts, self.field._pass(pts)[0])

    def _unpack(self, pts, out):
        """``jet`` from phi's (value, partials) in a pass."""
        phi, dphi = self.field._unpack(len(pts), out)
        _require_finite_density(pts, "phi or its gradient", phi, dphi)
        return phi, dphi

    def gradients(self, pts):
        """(m, n) rows of coordinate partials d_i phi."""
        return self.jet(pts)[1]

    def hessians(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        n, env, names = self.chart.dim, self.chart.env(pts), self.chart.coord_names
        out = np.empty((pts.shape[0], n, n))
        for i in range(n):
            for j in range(i, n):
                (*_, v), = ex.eval_dual2(self.field._pass.program, env, names[i], names[j])
                out[:, i, j] = v
                out[:, j, i] = v
        return _require_finite_density(pts, "its Hessian", out)


def _require_finite_density(pts, what, *arrays):
    """The last of ``arrays`` (each (m, ...)) unchanged, or DensityOverflow
    at the first point where one of them is not finite."""
    if all(np.isfinite(a).all() for a in arrays):
        return arrays[-1]
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    finite = np.ones(pts.shape[0], dtype=bool)
    for a in arrays:
        finite &= np.isfinite(a.reshape(pts.shape[0], -1)).all(axis=1)
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
        return _Pass(self.chart, [self.metric.entries[i][j] for i, j in self.metric.nonzero]
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


def _require_nonsingular(pts, dets, finite):
    """SingularMetric at the first point where ``finite`` is false, else at
    the smallest |det g| if it is <= DET_FLOOR; nothing on no points."""
    if not finite.all():
        k = int(finite.argmin())
        raise SingularMetric(pts[k], dets[k])
    if len(dets) and np.abs(dets).min() <= DET_FLOOR:
        k = int(np.abs(dets).argmin())
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
    """g^{-1} at each point: the (m, n) reciprocals of the (m, n) values
    g_aa of a diagonal metric, (m, n, n) adj/det from one cofactor
    factorization of (m, n, n) matrices for n = 2 or 3, else (m, n, n) from
    LAPACK.  Raises SingularMetric at the first point where det g is not
    finite, else at the smallest |det g| if it is <= DET_FLOOR."""
    n = g.shape[1]
    if g.ndim == 2:
        dets = g.prod(axis=1)
    elif n <= 3:
        adj, dets = _adjugate(g)
    else:
        dets = np.linalg.det(g)
    _require_nonsingular(pts, dets, np.isfinite(dets))
    if g.ndim == 2:
        return 1.0 / g
    if n <= 3:
        return adj / dets[:, None, None]
    return np.linalg.inv(g)


def _raise_index(ginv, x):
    """Contract g^{ka} with the first index of x, shape (m, n, r)."""
    return ginv[:, :, None] * x if ginv.ndim == 2 else ginv @ x


def _lower_index(g, v):
    """(g v)_j for velocities v (m, n); a diagonal g's -0 products read
    +0, as the matrix product's sums give them."""
    return g * v + 0.0 if g.ndim == 2 else (g @ v[:, :, None])[:, :, 0]


def _diagonal(a):
    """Writable (m, n) view of the diagonals of (m, n, n) ``a``, in any
    memory layout."""
    return np.einsum('mii->mi', a)


def _point_last(a):
    """``a`` with its first (point) axis fastest in memory, so elementwise
    work over its short trailing axes runs along the points."""
    return np.ascontiguousarray(a.T).T


def _cv(g, dg, v):
    """c_aij v^i, shape (m, n, n), for velocities v (m, n).

    For (m, n) diagonal values g the partials are D[a, l] = d_l g_aa and
    c_aij v^i = delta_aj (D[a] . v) + v_a D[a, j] - v_j D[j, a]; otherwise
    they are the dense d_l g_ij, index order [l, i, j]."""
    if g.ndim == 2:
        p = v[:, :, None] * dg  # p[a, j] = v_a D[a, j]
        p += 0.0  # a -0 product reads +0, as in the dense path's sums
        cv = p - np.swapaxes(p, 1, 2)
        # the diagonal in the dense path's order: (D[a].v + p_aa) - p_aa
        p_aa = _diagonal(p)
        _diagonal(cv)[...] = (sum(dg[:, :, l] * v[:, l, None] for l in range(g.shape[1]))
                              + p_aa - p_aa)
        return cv
    # w[a, j] = v^i d_a g_ij = v^i d_j g_ai (dg is symmetric in its last pair)
    w = np.einsum('maji,mi->maj', dg, v)
    return np.einsum('mi,miaj->maj', v, dg) + np.swapaxes(w, 1, 2) - w


def _contracted(kind, g, ginv, dg, dphi, v):
    """B^k_j = Gamma^k_ij v^i, shape (m, n, n), for velocities v (m, n).

    A diagonal metric's jet has the point axis last in memory (see
    ``MetricField._unpack``); v and dphi are laid out the same way
    for it, and so is B."""
    if kind == ConnectionKind.WEIGHTED:
        # summed before the layout changes: einsum's summation order
        # depends on its operands' layout
        v_dphi = np.einsum('mi,mi->m', v, dphi)
    if g.ndim == 2:
        v = _point_last(v)
        dphi = None if dphi is None else _point_last(dphi)
    B = _raise_index(ginv, _cv(g, dg, v))
    B *= 0.5
    if kind == ConnectionKind.LEVI_CIVITA:
        return B
    if kind == ConnectionKind.WEIGHTED:
        # B - ((v.dphi) delta^k_j + v^k d_j phi) with the same roundings,
        # in place and without a (v.dphi) delta array: its off-diagonal
        # terms (v.dphi) 0 only set the sign of a zero
        corr = v[:, :, None] * dphi[:, None, :]
        corr += (0.0 * v_dphi)[:, None, None]
        _diagonal(corr)[...] += v_dphi[:, None]
        B -= corr
        return B
    if kind == ConnectionKind.DUAL_WEIGHTED:
        B += _raise_index(ginv, dphi[:, :, None]) * _lower_index(g, v)[:, None, :]
        return B
    raise ValueError(f"unknown connection kind {kind!r}")


def _require_finite(coeffs, g, pts):
    """``coeffs`` (m, ...) unchanged, or SingularMetric at the first point
    where they are not finite: g and det g are finite there (the inverse
    passed), but a jet overflowed.  ``g`` holds (m, n) diagonal values or
    (m, n, n) matrices."""
    if not np.isfinite(coeffs).all():
        k = int(np.isfinite(coeffs.reshape(len(pts), -1)).all(axis=1).argmin())
        det = g[k].prod() if g.ndim == 2 else np.linalg.det(g[k])
        raise SingularMetric(pts[k], det, "connection coefficients not finite")
    return coeffs


def _jets(M, kind, pts):
    """g with its partials, in the layout of ``MetricField._unpack`` (the
    diagonal one for a diagonal metric), g^-1, and the (m, n) density
    gradient, None for the Levi-Civita connection, from one jet pass: the
    metric's alone for the Levi-Civita connection, else the geometry's.

    Errors come as if the metric were evaluated and inverted before the
    density: a metric entry's DomainError, then SingularMetric, then the
    density's DomainError or DensityOverflow."""
    m, diagonal = len(pts), M.metric.diagonal
    if kind == ConnectionKind.LEVI_CIVITA:
        g, dg = M.metric._unpack(m, M.metric._pass(pts), diagonal)
        return g, _inverse_metric(g, pts), dg, None
    try:
        outs = M._pass(pts)
    except DomainError:
        # the metric's pass raises the error if it is a metric entry's
        _inverse_metric(M.metric._unpack(m, M.metric._pass(pts), diagonal)[0], pts)
        raise
    density = outs.pop()
    g, dg = M.metric._unpack(m, outs, diagonal)
    del outs  # the entries' jets are unpacked: free them before the inverse
    ginv = _inverse_metric(g, pts)
    return g, ginv, dg, M.density._unpack(pts, density)[1]


def christoffel_many(M: WeightedManifold, kind: ConnectionKind, pts,
                     velocity=None) -> np.ndarray:
    """Connection coefficients at each point of an (m, n) array.

    Returns the (m, n, n, n) array gamma[., k, i, j], or, given velocities
    (m, n), the contracted (m, n, n) array B[., k, j] = Gamma^k_ij v^i.
    A diagonal metric is evaluated from its diagonal jet, (m, n) values
    g_aa and (m, n, n) partials D[a, l] = d_l g_aa, and its Levi-Civita
    part is B^a_j = 1/2 g^aa (v_a D[a, j] - v_j D[j, a]) +
    delta_aj 1/2 g^aa (D[a] . v); no (m, n, n, n) array is formed.  Other
    metrics contract their dense jet.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    g, ginv, dg, dphi = _jets(M, kind, pts)
    if velocity is not None:
        v = np.asarray(velocity, dtype=float).reshape(pts.shape)
        return _require_finite(_contracted(kind, g, ginv, dg, dphi, v), g, pts)
    # Gamma^k_ij is B^k_j for the velocity e_i
    m, n = pts.shape
    eye = np.eye(n)
    return _require_finite(np.stack([_contracted(kind, g, ginv, dg, dphi,
                                                 np.broadcast_to(eye[i], (m, n)))
                                     for i in range(n)], axis=2), g, pts)


def christoffel_derivative_many(M: WeightedManifold, kind: ConnectionKind, pts) -> np.ndarray:
    """(m, n, n, n, n) array of d_l Gamma^k_ij, index order [l, k, i, j].

    Assembled from the exact first and second derivatives of the metric
    and density expressions, with the chain rule through the inverse metric.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    n = M.dim
    g, dg = M.metric.jet(pts)            # dg: [l, i, j]
    ginv = _inverse_metric(np.diagonal(g, axis1=1, axis2=2) if M.metric.diagonal else g,
                           pts)
    if ginv.ndim == 2:
        diag, ginv = ginv, np.zeros(g.shape)
        ginv[:, range(n), range(n)] = diag
    d2g = M.metric.second_partials(pts)  # [a, b, i, j]
    # c_{aij} = d_i g_aj + d_j g_ai - d_a g_ij, and its l-derivative
    c = np.einsum('miaj->maij', dg) + np.einsum('mjai->maij', dg) - dg
    dc = (np.einsum('mliaj->mlaij', d2g) + np.einsum('mljai->mlaij', d2g) - d2g)
    dginv = -np.einsum('mka,mlab,mbn->mlkn', ginv, dg, ginv)  # [l, k, n] = d_l g^{kn}
    dgamma = 0.5 * (np.einsum('mlka,maij->mlkij', dginv, c)
                    + np.einsum('mka,mlaij->mlkij', ginv, dc))
    if kind == ConnectionKind.LEVI_CIVITA:
        return _require_finite(dgamma, g, pts)
    hess = M.density.hessians(pts)
    eye = np.eye(n)
    if kind == ConnectionKind.WEIGHTED:
        corr = (np.einsum('mli,kj->mlkij', hess, eye)
                + np.einsum('mlj,ki->mlkij', hess, eye))
        return _require_finite(dgamma - corr, g, pts)
    if kind == ConnectionKind.DUAL_WEIGHTED:
        grad_phi = M.density.jet(pts)[1]
        grad_up = np.einsum('mka,ma->mk', ginv, grad_phi)
        dgrad_up = (np.einsum('mlka,ma->mlk', dginv, grad_phi)
                    + np.einsum('mka,mla->mlk', ginv, hess))
        extra = (np.einsum('mlij,mk->mlkij', dg, grad_up)
                 + np.einsum('mij,mlk->mlkij', g, dgrad_up))
        return _require_finite(dgamma + extra, g, pts)
    raise ValueError(f"unknown connection kind {kind!r}")


def amari_chentsov(M: WeightedManifold, x) -> np.ndarray:
    """Totally symmetric 3-tensor d phi (.) h(.,.) symmetrized, h = e^{-phi} g."""
    M.chart.require_inside(x)
    pts = _one_point(x)
    h = math.exp(-M.density.values(pts)[0]) * M.metric.matrices(pts)[0]
    dphi = M.density.gradients(pts)[0]
    return (np.einsum('i,jk->ijk', dphi, h)
            + np.einsum('j,ki->ijk', dphi, h)
            + np.einsum('k,ij->ijk', dphi, h))


class WeightedMetricTensorField:
    """The bilinear field h = e^{-phi} g with exact partials; feeds the
    covariant-derivative operation."""

    def __init__(self, M: WeightedManifold):
        self.M = M

    def matrices(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        w = np.exp(-self.M.density.values(pts))
        return w[:, None, None] * self.M.metric.matrices(pts)

    def partials(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        phi, dphi = self.M.density.jet(pts)
        g, dg = self.M.metric.jet(pts)
        return np.exp(-phi)[:, None, None, None] * (dg - np.einsum('ml,mij->mlij', dphi, g))


def covariant_derivative_of_tensor(M: WeightedManifold, kind: ConnectionKind, T, x) -> np.ndarray:
    """(nabla_i T)_{jk} = d_i T_jk - Gamma^m_ij T_mk - Gamma^m_ik T_jm.

    T is a tensor field exposing matrices(pts) and partials(pts), such as
    ``WeightedMetricTensorField``.
    """
    M.chart.require_inside(x)
    pts = _one_point(x)
    gamma = christoffel_many(M, kind, pts)[0]
    tval = T.matrices(pts)[0]
    dt = T.partials(pts)[0]
    return (dt - np.einsum('mij,mk->ijk', gamma, tval)
            - np.einsum('mik,jm->ijk', gamma, tval))


def curvature_at(M: WeightedManifold, kind: ConnectionKind, x) -> np.ndarray:
    """R^l_{ijk} = d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik."""
    M.chart.require_inside(x)
    pts = _one_point(x)
    gamma = christoffel_many(M, kind, pts)[0]
    dgamma = christoffel_derivative_many(M, kind, pts)[0]  # [l, k, i, j]
    first = np.einsum('iljk->lijk', dgamma)
    second = np.einsum('jlik->lijk', dgamma)
    quad1 = np.einsum('lim,mjk->lijk', gamma, gamma)
    quad2 = np.einsum('ljm,mik->lijk', gamma, gamma)
    return first - second + quad1 - quad2


def ricci_at(M: WeightedManifold, kind: ConnectionKind, x) -> np.ndarray:
    """Ric(j, k) = R^i_{ijk}: trace of X -> R(X, Y) Z over the first slot."""
    R = curvature_at(M, kind, x)
    return np.einsum('iijk->jk', R)


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
