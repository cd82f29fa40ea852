"""Built-in manifolds with density, their golden data, and the
projective-equivalence factory.

Every entry bundles a manifold, an optional companion metric whose
Levi-Civita connection coincides with the entry's weighted connection, a
basepoint, a box for random sampling, and a list of golden checks (closed
form Christoffel tables, transport matrices of specific loops, curvature
values) that the CLI's run-example command replays.

Stable entry names: sphere2, sphereN(n), borel2d, triangular(n),
so_pq(p,q), so11_2d.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import expr as ex
from .errors import BadDimension, BadSignature, OrderingViolated, UnknownExample
from .manifold import (ConnectionKind, CoordinateChart, DensityField, MetricField,
                       WeightedManifold, christoffel_many, grid_points, ricci_at)
from .transport import (Loop, LoopFamily, family_derivative, holonomy,
                        polyline_segments)

E = math.e
SQ5 = math.sqrt(5.0)

# latitude at which transport along a parallel degenerates on the weighted
# 2-sphere: the unique root of cot(x) + sin(x) in (pi/2, pi)
XI = math.acos((1.0 - SQ5) / 2.0)


@dataclass(frozen=True)
class GoldenCheck:
    """One replayable expected-vs-computed comparison."""

    name: str
    tol: float
    run: Callable  # entry -> (computed, expected) arrays
    rel: bool = False

    def evaluate(self, entry):
        computed, expected = self.run(entry)
        computed = np.asarray(computed, dtype=float)
        expected = np.asarray(expected, dtype=float)
        if self.rel:
            err = float((np.abs(computed - expected) / np.abs(expected)).max())
        else:
            err = float(np.abs(computed - expected).max())
        return {
            "name": self.name,
            "tol": self.tol,
            "relative": self.rel,
            "max_error": err,
            "passed": bool(err <= self.tol),
            "computed": computed.tolist(),
            "expected": expected.tolist(),
        }


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    manifold: WeightedManifold
    basepoint: np.ndarray
    sample_region: tuple
    companion: Optional[WeightedManifold] = None
    goldens: tuple = ()
    loops: dict = field(default_factory=dict)
    families: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)
    # totally geodesic coordinate slices: (free_indices, fixed_values, loops)
    block_slices: tuple = ()

    @property
    def dim(self):
        return self.manifold.dim

    def random_points(self, count, seed):
        rng = np.random.default_rng(seed)
        lo = np.array([a for a, _ in self.sample_region])
        hi = np.array([b for _, b in self.sample_region])
        return lo + (hi - lo) * rng.random((count, len(lo)))


def _table_check(name, table, count=20, seed=0, tol=1e-8):
    """Golden comparison of weighted Christoffels against a closed form."""

    def run(entry):
        pts = entry.random_points(count, seed)
        computed = christoffel_many(entry.manifold, ConnectionKind.WEIGHTED, pts)
        expected = np.stack([table(p) for p in pts])
        return computed, expected

    return GoldenCheck(name=name, tol=tol, run=run)


def _loop_check(name, loop_key, expected, tol=1e-6):
    def run(entry):
        h = holonomy(entry.manifold, ConnectionKind.WEIGHTED, entry.loops[loop_key])
        return h.matrix, expected

    return GoldenCheck(name=name, tol=tol, run=run)


def _ricci_check(name, point, expected, tol=1e-6):
    def run(entry):
        return ricci_at(entry.manifold, ConnectionKind.WEIGHTED, point), expected

    return GoldenCheck(name=name, tol=tol, run=run)


def _family_check(name, family_key, expected, tol, rel):
    def run(entry):
        D = family_derivative(entry.manifold, ConnectionKind.WEIGHTED,
                              entry.families[family_key])
        return D, expected

    return GoldenCheck(name=name, tol=tol, run=run, rel=rel)


def _projective_check(name, count=20, seed=3, tol=1e-7):
    """Weighted Christoffels of (g, phi) vs Levi-Civita of the companion."""

    def run(entry):
        pts = entry.random_points(count, seed)
        weighted = christoffel_many(entry.manifold, ConnectionKind.WEIGHTED, pts)
        lc = christoffel_many(entry.companion, ConnectionKind.LEVI_CIVITA, pts)
        return weighted, lc

    return GoldenCheck(name=name, tol=tol, run=run)


# ---------------------------------------------------------------------------
# Round sphere with density cos(r)
# ---------------------------------------------------------------------------

def _sphere_chart(n):
    names = ("r",) + tuple(f"theta{k}" if n > 2 else "theta" for k in range(1, n))
    domain = [(0.05, math.pi - 0.05)]
    periodicity = [None]
    for k in range(1, n - 1):
        domain.append((0.05, math.pi - 0.05))
        periodicity.append(None)
    domain.append((-math.inf, math.inf))
    periodicity.append(2 * math.pi)
    return CoordinateChart(dim=n, coord_names=names, periodicity=tuple(periodicity),
                           domain=tuple(domain))


def _sphere2_table(p):
    r = p[0]
    G = np.zeros((2, 2, 2))
    G[0, 0, 0] = 2 * math.sin(r)
    G[1, 0, 1] = G[1, 1, 0] = 1.0 / math.tan(r) + math.sin(r)
    G[0, 1, 1] = -math.cos(r) * math.sin(r)
    return G


def _sphere_alpha_loop(s):
    h = math.pi / 2
    pts = [(h, 0.0), (h + s, 0.0), (h + s, 2 * math.pi), (h, 2 * math.pi), (h, 0.0)]
    return Loop(segments=polyline_segments(pts), basepoint=np.array([h, 0.0]))


def _sphere_beta_loop(s):
    h = math.pi / 2
    pts = [(h, 0.0), (XI, 0.0), (XI, s), (h, s), (h, 0.0)]
    return Loop(segments=polyline_segments(pts), basepoint=np.array([h, 0.0]))


ALPHA_DERIVATIVE = np.array([
    [2 * math.pi ** 2, -2 * math.pi],
    [4 * math.pi + 8 * math.pi ** 3 / 3, -2 * math.pi ** 2],
])

BETA_DERIVATIVE = np.array([
    [0.0, (1 - SQ5) / 2 * math.exp((SQ5 - 1) / 2)],
    [1.0, 0.0],
])


def sphere_with_density(n) -> CatalogEntry:
    """(S^n, dr^2 + sin^2(r) g_{S^{n-1}}, cos r) in nested spherical
    coordinates; poles excluded by the chart domain."""
    if n < 2:
        raise BadDimension("sphere examples need dimension >= 2")
    chart = _sphere_chart(n)
    diag = ["1"]
    factors = ["sin(r)^2"]
    for k in range(1, n):
        diag.append("*".join(factors))
        factors.append(f"sin({chart.coord_names[k]})^2")
    metric = MetricField.from_expressions(chart, diag, signature=(n, 0))
    density = DensityField.from_expression(chart, "cos(r)")
    name = "sphere2" if n == 2 else f"sphereN({n})"
    manifold = WeightedManifold(chart=chart, metric=metric, density=density, name=name)
    if abs(1.0 / math.tan(XI) + math.sin(XI)) > 1e-12:
        raise ValueError("latitude constant fails its defining identity")
    h = math.pi / 2
    if n == 2:
        basepoint = np.array([h, 1.0])
        region = ((h - 0.35, h + 0.55), (0.3, 1.9))
        families = {
            "alpha": LoopFamily(family=_sphere_alpha_loop, s_max=XI - h),
            "beta": LoopFamily(family=_sphere_beta_loop, s_max=1.0),
        }
        goldens = (
            _table_check("weighted_christoffels", _sphere2_table),
            _family_check("alpha_family_derivative", "alpha", ALPHA_DERIVATIVE,
                          tol=1e-3, rel=True),
            _family_check("beta_family_derivative", "beta", BETA_DERIVATIVE,
                          tol=1e-4, rel=False),
            GoldenCheck(name="latitude_constant_identity", tol=1e-12,
                        run=lambda e: (1.0 / math.tan(e.constants["xi"])
                                       + math.sin(e.constants["xi"]), 0.0)),
        )
        return CatalogEntry(name=name, manifold=manifold, basepoint=basepoint,
                            sample_region=region, goldens=goldens,
                            families=families, constants={"xi": XI})
    basepoint = np.array([h] + [h] * (n - 2) + [1.0])
    region = tuple([(h - 0.35, h + 0.45)] + [(h - 0.4, h + 0.4)] * (n - 2)
                   + [(0.3, 1.6)])
    goldens = (
        GoldenCheck(
            name="unimodular_square_loop", tol=1e-6,
            run=lambda e: (np.linalg.det(holonomy(
                e.manifold, ConnectionKind.WEIGHTED,
                e.loops["square"]).matrix), 1.0)),
    )
    corner = basepoint.copy()
    loops = {"square": Loop(
        segments=polyline_segments([
            corner, corner + np.eye(n)[0] * 0.4,
            corner + np.eye(n)[0] * 0.4 + np.eye(n)[n - 1] * 0.4,
            corner + np.eye(n)[n - 1] * 0.4, corner]),
        basepoint=corner)}
    # equatorial slice through the radial and final angular directions: all
    # intermediate angles pinned at pi/2, where the density gradient stays
    # tangent and the mixing block of the predicted transport vanishes
    block_slices = ((tuple([0, n - 1]),
                     {j: h for j in range(1, n - 1)},
                     (loops["square"],)),)
    return CatalogEntry(name=name, manifold=manifold, basepoint=basepoint,
                        sample_region=region, goldens=goldens, loops=loops,
                        block_slices=block_slices, constants={"xi": XI})


# ---------------------------------------------------------------------------
# Plane with metric dx^2 + e^{2xy} dy^2 and density xy
# ---------------------------------------------------------------------------

def _borel_table(p):
    x, y = p
    G = np.zeros((2, 2, 2))
    G[0, 0, 0] = -2 * y
    G[0, 0, 1] = G[0, 1, 0] = -x
    G[0, 1, 1] = -y * math.exp(2 * x * y)
    G[1, 1, 1] = -x
    return G


BOREL_LOOP1_MATRIX = np.array([[1 / E, (3 - E ** 2) / (2 * E)], [0.0, E]])
BOREL_LOOP2_MATRIX = np.array([[1 / E, (81 - 17 * E ** 2) / (16 * E)], [0.0, E]])
# principal logs of the two transports; the (1,2) entries follow from the
# closed-form log of [[r, x], [0, 1/r]] applied to the matrices above
BOREL_LOG1 = np.array([[-1.0, (3 - E ** 2) / (E ** 2 - 1)], [0.0, 1.0]])
BOREL_LOG2 = np.array([[-1.0, (81 - 17 * E ** 2) / (8 * (E ** 2 - 1))], [0.0, 1.0]])


def borel_2d() -> CatalogEntry:
    chart = CoordinateChart(dim=2, coord_names=("x", "y"))
    metric = MetricField.from_expressions(chart, ["1", "exp(2*x*y)"], signature=(2, 0))
    density = DensityField.from_expression(chart, "x*y")
    manifold = WeightedManifold(chart=chart, metric=metric, density=density,
                                name="borel2d")
    loops = {
        "golden1": Loop(segments=polyline_segments(
            [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)]), basepoint=np.zeros(2)),
        "golden2": Loop(segments=polyline_segments(
            [(0, 0), (2, 0), (2, 0.5), (0, 0.5), (0, 0)]), basepoint=np.zeros(2)),
    }
    goldens = (
        _table_check("weighted_christoffels", _borel_table),
        _loop_check("rectangle_loop_1", "golden1", BOREL_LOOP1_MATRIX),
        _loop_check("rectangle_loop_2", "golden2", BOREL_LOOP2_MATRIX),
    )
    return CatalogEntry(name="borel2d", manifold=manifold, basepoint=np.zeros(2),
                        sample_region=((-1.0, 1.0), (-1.0, 1.0)), goldens=goldens,
                        loops=loops)


# ---------------------------------------------------------------------------
# Triangular family: g = sum e^{2x_1+...+2x_{k-1}+x_k} dx_k^2, phi = sum x_k
# ---------------------------------------------------------------------------

def _triangular_names(n):
    if n <= 3:
        return ("x", "y", "z")[:n]
    return tuple(f"x{k}" for k in range(1, n + 1))


def _triangular_table(n):
    def table(p):
        G = np.zeros((n, n, n))
        # weighted coefficients: G^k_kk = -3/2, G^k_kj = -1 (j > k), and
        # G^k_jj = -exp(x_k + 2 x_{k+1} + ... + 2 x_{j-1} + x_j) for j > k
        for k in range(n):
            G[k, k, k] = -1.5
            for j in range(k + 1, n):
                G[k, k, j] = G[k, j, k] = -1.0
                expo = p[k] + p[j] + 2 * sum(p[k + 1:j])
                G[k, j, j] = -math.exp(expo)
        return G

    return table


HEIS_SQUARE_M12 = -2 * ((E ** 3 + E ** 2 + E + 1) * math.sqrt(E)
                        - E ** 3 - 2 * E ** 2 - E) / (3 * E ** 2)
HEIS_SQUARE_M13 = -2 * ((2 * E ** 4 + 2 * E ** 3 + 5 * E ** 2 + 3 * E - 1) * math.sqrt(E)
                        - 2 * E ** 4 - 8 * E ** 3 - E ** 2) / (9 * E ** 3)
HEIS_SQUARE_MATRIX = np.array([
    [1.0, HEIS_SQUARE_M12, HEIS_SQUARE_M13],
    [0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0],
])

TRIANGULAR2_RICCI_ORIGIN = np.array([[0.0, 0.0], [0.0, 1.0]])


def triangular_family(n) -> CatalogEntry:
    """Upper-triangular holonomy family; n = 2 realizes the 1-d unipotent
    group, n = 3 the Heisenberg group."""
    if n < 2:
        raise BadDimension("triangular family needs dimension >= 2")
    names = _triangular_names(n)
    chart = CoordinateChart(dim=n, coord_names=names)
    diag = []
    for k in range(n):
        terms = [f"2*{names[j]}" for j in range(k)] + [names[k]]
        diag.append(f"exp({'+'.join(terms)})")
    metric = MetricField.from_expressions(chart, diag, signature=(n, 0))
    density = DensityField.from_expression(chart, "+".join(names))
    name = f"triangular({n})"
    manifold = WeightedManifold(chart=chart, metric=metric, density=density, name=name)
    goldens = [_table_check("weighted_christoffels", _triangular_table(n))]
    loops = {}
    if n == 2:
        goldens.append(_ricci_check("ricci_at_origin", np.zeros(2),
                                    TRIANGULAR2_RICCI_ORIGIN))
    block_slices = ()
    if n == 3:
        loops["square"] = Loop(segments=polyline_segments(
            [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, 0, 0)]),
            basepoint=np.zeros(3))
        goldens.append(_loop_check("unit_square_loop", "square", HEIS_SQUARE_MATRIX))
        block_slices = (((0, 1), {2: 0.0}, (loops["square"],)),)
    region = tuple([(-1.0, 1.0)] * n)
    return CatalogEntry(name=name, manifold=manifold, basepoint=np.zeros(n),
                        sample_region=region, goldens=tuple(goldens), loops=loops,
                        block_slices=block_slices)


def heisenberg_partner_generator(A):
    """Second holonomy-algebra generator obtained by composing the
    self-duality frame map F with the metric-duality isomorphism X -> -X^T
    (the pairing metric is the identity at the origin).  The triangular
    family is self-dual under reversing and negating the coordinates, so F
    is the anti-diagonal of -1's."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    F = np.fliplr(-np.eye(n))
    return -(F @ A @ F).T


# ---------------------------------------------------------------------------
# Projective-equivalence factory
# ---------------------------------------------------------------------------

def _paren(s):
    return f"({s})"


def levi_civita_pair(phis, As, domain, coord_names=None, name="lc_pair",
                     periodicity=None) -> CatalogEntry:
    """Entry built from eigenfunctions phi_i(x_i) and weights A_i(x_i).

    The primary metric is sum_i P_i A_i dx_i^2 with
    P_i = prod_{j<i}(phi_i - phi_j) * prod_{j>i}(phi_j - phi_i); the
    companion rescales each diagonal entry by 1/(phi_1...phi_n phi_i) (up
    to one overall sign fixed so its leading entry is positive at the
    domain center), and the density is log|prod phi_i| / 2.  The weighted
    connection of the primary equals the companion's Levi-Civita
    connection.
    """
    n = len(phis)
    if len(As) != n or len(domain) != n:
        raise BadDimension("phis, As and domain must have equal length")
    if coord_names is None:
        coord_names = tuple(f"x{k}" for k in range(1, n + 1))
    chart = CoordinateChart(dim=n, coord_names=tuple(coord_names),
                            periodicity=periodicity, domain=tuple(domain))
    phi_src = [s if isinstance(s, str) else ex.to_source(s) for s in phis]
    a_src = [s if isinstance(s, str) else ex.to_source(s) for s in As]

    box = chart.sample_box()
    grid = grid_points(box, per_axis=5)
    env = chart.env(grid)
    phi_vals = np.stack([np.broadcast_to(np.asarray(
        ex.eval_expr(ex.parse(s), env), dtype=float), (grid.shape[0],))
        for s in phi_src])
    for i in range(n - 1):
        if not (phi_vals[i] < phi_vals[i + 1]).all():
            raise OrderingViolated(
                f"phi_{i + 1} < phi_{i + 2} fails on the sample grid")
    a_vals = np.stack([np.broadcast_to(np.asarray(
        ex.eval_expr(ex.parse(s), env), dtype=float), (grid.shape[0],))
        for s in a_src])
    if np.abs(a_vals).min() <= 1e-12:
        raise OrderingViolated("some A_i vanishes on the sample grid")

    def pi_i(i):
        factors = [f"({_paren(phi_src[i])}-{_paren(phi_src[j])})" for j in range(i)]
        factors += [f"({_paren(phi_src[j])}-{_paren(phi_src[i])})" for j in range(i + 1, n)]
        return "*".join(factors) if factors else "1"

    g_diag = [f"{_paren(pi_i(i))}*{_paren(a_src[i])}" for i in range(n)]
    prod_phi = "*".join(_paren(s) for s in phi_src)
    center = np.array([(lo + hi) / 2 for lo, hi in box])
    cenv = chart.env(center[None, :])
    prod_sign = 1.0 if float(np.asarray(
        ex.eval_expr(ex.parse(prod_phi), cenv), dtype=float).ravel()[0]) > 0 else -1.0
    sgn = "" if prod_sign > 0 else "-"
    phi_total = f"(1/2)*log({sgn}({prod_phi}))"

    gt_diag_raw = [f"{g_diag[i]}/({_paren(prod_phi)}*{_paren(phi_src[i])})"
                   for i in range(n)]
    lead = float(np.asarray(ex.eval_expr(ex.parse(gt_diag_raw[0]), cenv),
                            dtype=float).ravel()[0])
    overall = 1.0 if lead > 0 else -1.0
    gt_diag = [f"{'-' if overall < 0 else ''}({s})" for s in gt_diag_raw]
    gt_vals = np.stack([np.broadcast_to(np.asarray(
        ex.eval_expr(ex.parse(s), cenv), dtype=float), (1,)) for s in gt_diag])
    p_tilde = int((gt_vals > 0).sum())
    q_tilde = n - p_tilde

    # primary signature: P_i > 0 under the ordering, so the sign of g_ii is
    # the sign of A_i
    p_prim = int((a_vals[:, :1] > 0).sum())
    metric = MetricField.from_expressions(chart, g_diag, signature=(p_prim, n - p_prim),
                                          sample_grid=grid)
    density = DensityField.from_expression(chart, phi_total)
    manifold = WeightedManifold(chart=chart, metric=metric, density=density, name=name)
    comp_metric = MetricField.from_expressions(chart, gt_diag,
                                               signature=(p_tilde, q_tilde),
                                               sample_grid=grid)
    companion = WeightedManifold(chart=chart, metric=comp_metric,
                                 density=DensityField.zero(chart),
                                 name=f"{name}~companion")
    region = tuple((lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo)) for lo, hi in box)
    goldens = (_projective_check("projective_equivalence"),)
    return CatalogEntry(name=name, manifold=manifold, basepoint=center,
                        sample_region=region, companion=companion, goldens=goldens,
                        constants={"companion_sign": overall,
                                   "companion_signature": (p_tilde, q_tilde)})


def so_pq_example(p, q) -> CatalogEntry:
    """Projective-equivalence family whose weighted holonomy is the
    identity component of the (p, q) pseudo-orthogonal group.

    Eigenfunctions: the p negative constants -p..-1, the q-1 positive
    constants 1..q-1, and n + cos(x_n) in the last coordinate; unit
    weights.
    """
    n = p + q
    if p < 0 or q < 1 or n < 2:
        raise BadSignature("need p >= 0, q >= 1, p + q >= 2")
    consts = [float(-k) for k in range(p, 0, -1)] + [float(k) for k in range(1, q)]
    phis = [repr(c) for c in consts] + [f"{n}+cos(x{n})"]
    As = ["1"] * n
    domain = [(-math.inf, math.inf)] * (n - 1) + [(-math.pi, math.pi)]
    entry = levi_civita_pair(phis, As, domain, name=f"so_pq({p},{q})")
    region = tuple([(-0.9, 0.9)] * (n - 1) + [(-1.0, 1.0)])
    return CatalogEntry(name=entry.name, manifold=entry.manifold,
                        basepoint=np.zeros(n), sample_region=region,
                        companion=entry.companion, goldens=entry.goldens,
                        constants=entry.constants)


def _so11_table(pt):
    y = pt[1]
    s, c = math.sin(y), math.cos(y)
    G = np.zeros((2, 2, 2))
    G[1, 0, 0] = s / (2 * (3 + c))
    G[0, 0, 1] = G[0, 1, 0] = s / (2 * (2 + c) * (3 + c))
    G[1, 1, 1] = s * (4 + c) / (2 * (2 + c) * (3 + c))
    return G


SO11_RICCI_ORIGIN = np.array([[1.0 / 8.0, 0.0], [0.0, -1.0 / 24.0]])


def so_plus_11_2d() -> CatalogEntry:
    """Conformally flat plane ((3+cos y)(dx^2+dy^2), log(2+cos y)/2) whose
    weighted connection preserves a Lorentzian companion metric."""
    chart = CoordinateChart(dim=2, coord_names=("x", "y"))
    metric = MetricField.from_expressions(
        chart, ["3+cos(y)", "3+cos(y)"], signature=(2, 0))
    density = DensityField.from_expression(chart, "(1/2)*log(2+cos(y))")
    manifold = WeightedManifold(chart=chart, metric=metric, density=density,
                                name="so11_2d")
    comp = MetricField.from_expressions(
        chart, ["(3+cos(y))/(2+cos(y))", "-(3+cos(y))/(2+cos(y))^2"],
        signature=(1, 1))
    companion = WeightedManifold(chart=chart, metric=comp,
                                 density=DensityField.zero(chart),
                                 name="so11_2d~companion")
    goldens = (
        _table_check("weighted_christoffels", _so11_table),
        _ricci_check("ricci_at_origin", np.zeros(2), SO11_RICCI_ORIGIN),
        _projective_check("projective_equivalence"),
    )
    return CatalogEntry(name="so11_2d", manifold=manifold, basepoint=np.zeros(2),
                        sample_region=((-2.0, 2.0), (-2.0, 2.0)),
                        companion=companion, goldens=goldens)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"^(?P<fn>[a-zA-Z_0-9]+?)(?:\((?P<args>[-0-9,\s]+)\))?$")


def list_names():
    return ["sphere2", "sphereN(n)", "borel2d", "triangular(n)", "so_pq(p,q)",
            "so11_2d"]


def default_entries():
    """The concrete entries exercised by the verification suite."""
    return [
        sphere_with_density(2),
        sphere_with_density(3),
        borel_2d(),
        triangular_family(2),
        triangular_family(3),
        so_plus_11_2d(),
        so_pq_example(1, 2),
        so_pq_example(2, 1),
        so_pq_example(1, 1),
    ]


def get_entry(name) -> CatalogEntry:
    m = _NAME_RE.match(name.strip())
    if not m:
        raise UnknownExample(f"cannot parse example name {name!r}")
    fn = m.group("fn")
    args = []
    if m.group("args"):
        args = [int(a) for a in m.group("args").split(",")]
    try:
        if fn == "sphere2" and not args:
            return sphere_with_density(2)
        if fn == "sphereN" and len(args) == 1:
            return sphere_with_density(args[0])
        if fn == "borel2d" and not args:
            return borel_2d()
        if fn == "triangular" and len(args) == 1:
            return triangular_family(args[0])
        if fn == "so_pq" and len(args) == 2:
            return so_pq_example(args[0], args[1])
        if fn == "so11_2d" and not args:
            return so_plus_11_2d()
    except (BadDimension, BadSignature) as exc:
        raise UnknownExample(f"bad parameters for {name!r}: {exc}") from exc
    raise UnknownExample(f"no catalog entry named {name!r}")
