"""Charts, metric and density fields, connections and curvature.

A weighted manifold is a triple (chart, metric g, density phi).  Three
torsion-free connections live on it:

* ``LEVI_CIVITA``   -- the metric connection of g,
* ``WEIGHTED``      -- Gamma^k_ij - (d_i phi) delta^k_j - (d_j phi) delta^k_i,
* ``DUAL_WEIGHTED`` -- Gamma^k_ij + g_ij (grad phi)^k,

the last two being dual to each other with respect to h = e^{-phi} g.

Metric entries and the density are expressions (``expr``), differentiated
exactly through dual numbers.  Everything is evaluated in batch over
(m, n) point arrays so path integration stays vectorized.

Geometry is evaluated as first-order jets: ``jet(pts)`` returns a field's
values with all its coordinate partials.  An expression field records at
construction which coordinates its expression contains and takes the
value and those partials from one vector-dual pass (``expr.eval_dual``
with a tuple of names); its partials in the other coordinates are exactly
0 and are never evaluated, and a variable-free expression is evaluated
once with no dual pass.  ``MetricField.jet`` gives (g, d g), skipping the
literal 0 entries altogether, and ``DensityField.jet`` gives
(phi, d phi); ``partials`` and ``gradients`` are views of them.

``christoffel_many`` is the one coefficient kernel.  It evaluates the
metric and density jets once per point array.  Given a path velocity v it
returns the contracted coefficients B^k_j = Gamma^k_ij v^i that parallel
transport needs: c_aij = d_i g_aj + d_j g_ai - d_a g_ij is contracted with v before
the index is raised, and the weighted and dual corrections enter in their
contracted forms -(v.dphi) delta^k_j - v^k d_j phi and
+(g v)_j (g^-1 dphi)^k, so no (m, n, n, n) coefficient array is formed.
Without a velocity it returns the full Gamma, assembled from the same
contraction with each coordinate direction.  A metric records at
construction whether every off-diagonal entry is the literal 0; such a
diagonal metric is inverted as 1/diag with det = prod(diag).  Any other
metric of dimension 2 or 3 is inverted from one cofactor factorization:
the symmetric adjugate, det g expanded along its first row, g^-1 =
adj / det.  Larger non-diagonal metrics use LAPACK.  Every path rejects
a det g that is not finite or whose size is at most DET_FLOOR.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import expr as ex
from .errors import (BadSignature, DensityOverflow, OutOfDomain, SingularMetric,
                     UnboundVariable, _plain)

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

    def contains(self, pts) -> np.ndarray:
        """Vectorized open-interval membership test for an (m, n) array."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        ok = np.ones(pts.shape[0], dtype=bool)
        for i, (lo, hi) in enumerate(self.domain):
            ok &= (pts[:, i] > lo) & (pts[:, i] < hi)
        return ok

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

    def values(self, pts):
        env = self.chart.env(pts)
        out = ex.eval_expr(self.expression, env)
        return np.broadcast_to(np.asarray(out, dtype=float),
                               (np.atleast_2d(pts).shape[0],)).copy()

    def jet(self, pts):
        """(m,) values and (m, n) gradient from one vector-dual pass over
        the contained coordinates; a constant is evaluated without one."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        grad = np.zeros(pts.shape)
        if self.constant:
            return self.values(pts), grad
        names = tuple(self.chart.coord_names[i] for i in self.axes)
        val, d = ex.eval_dual(self.expression, self.chart.env(pts), names)
        grad[:, self.axes] = d.T
        return val, grad

    def second_derivatives(self, pts, i, j):
        env = self.chart.env(pts)
        *_, d12 = ex.eval_dual2(self.expression, env,
                                self.chart.coord_names[i], self.chart.coord_names[j])
        return np.broadcast_to(np.asarray(d12, dtype=float),
                               (np.atleast_2d(pts).shape[0],)).copy()


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
        """(m, n, n) metric values; symmetry is structural."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        m, n = pts.shape[0], self.chart.dim
        g = np.empty((m, n, n))
        for i in range(n):
            for j in range(i, n):
                v = self.entries[i][j].values(pts)
                g[:, i, j] = v
                g[:, j, i] = v
        return g

    def jet(self, pts):
        """(m, n, n) values g and (m, n, n, n) partials d_l g_ij, index order
        [l, i, j], one field jet per entry that is not the literal 0."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        m, n = pts.shape[0], self.chart.dim
        g = np.zeros((m, n, n))
        dg = np.zeros((m, n, n, n))
        for i, j in self.nonzero:
            v, d = self.entries[i][j].jet(pts)
            g[:, i, j] = v
            g[:, j, i] = v
            dg[:, :, i, j] = d
            dg[:, :, j, i] = d
        return g, dg

    def partials(self, pts):
        """(m, n, n, n) array of d_l g_ij, index order [l, i, j]."""
        return self.jet(pts)[1]

    def second_partials(self, pts):
        """(m, n, n, n, n) array of d_a d_b g_ij, index order [a, b, i, j]."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        m, n = pts.shape[0], self.chart.dim
        d2g = np.zeros((m, n, n, n, n))
        for a in range(n):
            for b in range(a, n):
                for i, j in self.varying:
                    v = self.entries[i][j].second_derivatives(pts, a, b)
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
        phi, dphi = self.field.jet(pts)
        _require_finite_density(pts, "phi or its gradient", phi, dphi)
        return phi, dphi

    def gradients(self, pts):
        """(m, n) rows of coordinate partials d_i phi."""
        return self.jet(pts)[1]

    def hessians(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        n = self.chart.dim
        out = np.empty((pts.shape[0], n, n))
        for i in range(n):
            for j in range(i, n):
                v = self.field.second_derivatives(pts, i, j)
                out[:, i, j] = v
                out[:, j, i] = v
        return _require_finite_density(pts, "its Hessian", out)


def _require_finite_density(pts, what, *arrays):
    """The last of ``arrays`` (each (m, ...)) unchanged, or DensityOverflow
    at the first point where one of them is not finite."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    finite = np.ones(pts.shape[0], dtype=bool)
    for a in arrays:
        finite &= np.isfinite(a.reshape(pts.shape[0], -1)).all(axis=1)
    if not finite.all():
        raise DensityOverflow(pts[int(finite.argmin())], f"{what} overflows")
    return arrays[-1]


@dataclass(frozen=True)
class WeightedManifold:
    chart: CoordinateChart
    metric: MetricField
    density: DensityField
    name: str = ""

    def __post_init__(self):
        if self.metric.chart is not self.chart or self.density.chart is not self.chart:
            raise ValueError("metric and density must share the manifold's chart")

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
    M.chart.require_inside(x)
    pts = _one_point(x)
    return math.exp(-M.density.values(pts)[0]) * M.metric.matrices(pts)[0]


def conformal_metric_at(M: WeightedManifold, x) -> np.ndarray:
    """e^{-2 phi} g, the metric of the dual triple."""
    M.chart.require_inside(x)
    pts = _one_point(x)
    return math.exp(-2.0 * M.density.values(pts)[0]) * M.metric.matrices(pts)[0]


def dphi_at(M: WeightedManifold, x) -> np.ndarray:
    M.chart.require_inside(x)
    return M.density.gradients(_one_point(x))[0]


def _require_nonsingular(pts, dets, finite):
    """SingularMetric at the first point where ``finite`` is false, else at
    the smallest |det g| if it is <= DET_FLOOR."""
    if not finite.all():
        k = int(finite.argmin())
        raise SingularMetric(pts[k], dets[k])
    if np.abs(dets).min() <= DET_FLOOR:
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


def _inverse_metric(metric, g, pts):
    """g^{-1} at each point: (m, n) reciprocals of the diagonal for a
    structurally diagonal metric, (m, n, n) adj/det from one cofactor
    factorization for n = 2 or 3, else (m, n, n) from LAPACK.  Raises
    SingularMetric at the first point where det g is not finite, else at
    the smallest |det g| if it is <= DET_FLOOR."""
    n = g.shape[1]
    if metric.diagonal:
        diag = np.diagonal(g, axis1=1, axis2=2)
        dets = diag.prod(axis=1)
    elif n <= 3:
        adj, dets = _adjugate(g)
    else:
        dets = np.linalg.det(g)
    _require_nonsingular(pts, dets, np.isfinite(dets))
    if metric.diagonal:
        return 1.0 / diag
    if n <= 3:
        return adj / dets[:, None, None]
    return np.linalg.inv(g)


def _raise_index(ginv, x):
    """Contract g^{ka} with the first index of x, shape (m, n, r)."""
    return ginv[:, :, None] * x if ginv.ndim == 2 else ginv @ x


def _contracted(kind, g, ginv, dg, dphi, v):
    """B^k_j = Gamma^k_ij v^i, shape (m, n, n), for velocities v (m, n)."""
    # w[a, j] = v^i d_a g_ij = v^i d_j g_ai (dg is symmetric in its last pair)
    w = np.einsum('maji,mi->maj', dg, v)
    cv = np.einsum('mi,miaj->maj', v, dg) + np.swapaxes(w, 1, 2) - w
    B = 0.5 * _raise_index(ginv, cv)
    if kind == ConnectionKind.LEVI_CIVITA:
        return B
    if kind == ConnectionKind.WEIGHTED:
        v_dphi = np.einsum('mi,mi->m', v, dphi)
        return B - (v_dphi[:, None, None] * np.eye(v.shape[1])
                    + v[:, :, None] * dphi[:, None, :])
    if kind == ConnectionKind.DUAL_WEIGHTED:
        grad_up = _raise_index(ginv, dphi[:, :, None])
        gv = (g @ v[:, :, None])[:, :, 0]
        return B + grad_up * gv[:, None, :]
    raise ValueError(f"unknown connection kind {kind!r}")


def _require_finite(coeffs, g, pts):
    """``coeffs`` (m, ...) unchanged, or SingularMetric at the first point
    where they are not finite: g and det g are finite there (the inverse
    passed), but a jet overflowed."""
    if not np.isfinite(coeffs).all():
        k = int(np.isfinite(coeffs.reshape(len(pts), -1)).all(axis=1).argmin())
        raise SingularMetric(pts[k], np.linalg.det(g[k]),
                             "connection coefficients not finite")
    return coeffs


def christoffel_many(M: WeightedManifold, kind: ConnectionKind, pts,
                     velocity=None) -> np.ndarray:
    """Connection coefficients at each point of an (m, n) array.

    Returns the (m, n, n, n) array gamma[., k, i, j], or, given velocities
    (m, n), the contracted (m, n, n) array B[., k, j] = Gamma^k_ij v^i.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    g, dg = M.metric.jet(pts)
    ginv = _inverse_metric(M.metric, g, pts)
    dphi = None if kind == ConnectionKind.LEVI_CIVITA else M.density.jet(pts)[1]
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
    ginv = _inverse_metric(M.metric, g, pts)
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
