"""Metric/density fields, connection coefficients, curvature."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from hololab import catalog
from hololab import expr as ex
from hololab import manifold
from hololab.errors import (BadSignature, DensityOverflow, DomainError, OutOfDomain,
                            SingularMetric)
from hololab.manifold import (DET_FLOOR, ConnectionKind, CoordinateChart,
                              DensityField, ExprScalarField, MetricField,
                              WeightedManifold, _inverse_metric,
                              amari_chentsov_many, christoffel_derivative_many,
                              christoffel_many, curvature_many, metric_at,
                              nabla_h_many, ricci_at, weighted_metric_at,
                              weighted_metrics_at)

E = math.e
LC = ConnectionKind.LEVI_CIVITA
W = ConnectionKind.WEIGHTED
DW = ConnectionKind.DUAL_WEIGHTED


def euclidean(phi="0"):
    chart = CoordinateChart(dim=2, coord_names=("x", "y"))
    metric = MetricField.from_expressions(chart, ["1", "1"], signature=(2, 0))
    return WeightedManifold(chart=chart, metric=metric,
                            density=DensityField.from_expression(chart, phi))


def test_metric_at_values(sphere2, borel, tri2):
    assert np.allclose(metric_at(sphere2.manifold, [math.pi / 2, 0.0]), np.eye(2),
                       atol=1e-15)
    assert np.allclose(metric_at(euclidean(), [0.3, -0.8]), np.eye(2))
    assert np.allclose(metric_at(borel.manifold, [1.0, 1.0]),
                       np.diag([1.0, E ** 2]), rtol=1e-15)


def test_out_of_domain(sphere2):
    with pytest.raises(OutOfDomain):
        metric_at(sphere2.manifold, [0.01, 0.0])  # past the pole cutoff


def test_weighted_metric_at(borel, tri3):
    # phi = 0 at the origin: no rescaling of the flat frame
    assert np.allclose(weighted_metric_at(tri3.manifold, np.zeros(3)), np.eye(3))
    got = weighted_metric_at(borel.manifold, [1.0, 1.0])  # phi = 1 there
    assert np.allclose(got, math.exp(-1) * np.diag([1.0, E ** 2]), rtol=1e-14)
    M0 = euclidean()
    assert np.allclose(weighted_metric_at(M0, [0.2, 0.4]),
                       metric_at(M0, [0.2, 0.4]))


def test_weighted_metrics_at_equal_one_point_evaluations():
    rng = np.random.default_rng(6)
    for entry in catalog.default_entries():
        M = entry.manifold
        lo, hi = np.array(entry.sample_region).T
        pts = lo + (hi - lo) * rng.random((7, M.dim))
        for x, h in zip(pts, weighted_metrics_at(M, pts)):
            assert h.tobytes() == weighted_metric_at(M, x).tobytes()
    sphere = catalog.sphere_with_density(2).manifold
    pts = np.array([[1.0, 0.5], [0.01, 0.0], [4.0, 0.0]])  # the last two outside
    with pytest.raises(OutOfDomain) as batch:
        weighted_metrics_at(sphere, pts)
    with pytest.raises(OutOfDomain) as alone:
        weighted_metric_at(sphere, pts[1])
    assert str(batch.value) == str(alone.value)


def test_conformal_metric_at(tri2):
    # e^{-2 phi} g, the metric of the dual triple, is e^{-phi} h
    def conformal_metric_at(M, x):
        phi = M.density.values(np.array([x], dtype=float))[0]
        return math.exp(-phi) * weighted_metric_at(M, x)

    M = tri2.manifold  # metric diag(e^x, e^{2x+y}), phi = x+y
    assert np.allclose(conformal_metric_at(M, [0.0, 0.0]), np.eye(2))
    got = conformal_metric_at(M, [1.0, 0.0])
    assert np.allclose(got, math.exp(-2) * np.diag([E, E ** 2]), rtol=1e-14)
    Mc = euclidean("3")  # constant density scales by e^{-2c}
    assert np.allclose(conformal_metric_at(Mc, [0.5, 0.5]),
                       math.exp(-6) * np.eye(2), rtol=1e-14)


def test_dphi_at(sphere2, tri2):
    # d phi at one point, from the density's gradient pass
    def dphi_at(M, x):
        return M.density.jet(np.array([x], dtype=float))[1][0]

    assert np.allclose(dphi_at(tri2.manifold, [0.3, -0.7]), [1.0, 1.0], rtol=1e-14)
    assert np.allclose(dphi_at(euclidean("5"), [0.1, 0.2]), [0.0, 0.0])
    got = dphi_at(sphere2.manifold, [math.pi / 2, 0.0])  # d cos r = -sin r
    assert np.allclose(got, [-1.0, 0.0], atol=1e-15)


def test_euclidean_christoffels_vanish():
    gamma = christoffel_many(euclidean(), W, [0.4, 0.9])[0]
    assert np.abs(gamma).max() == 0.0


def test_torsion_free_all_kinds(borel, sphere2, so11):
    for entry in (borel, sphere2, so11):
        pts = entry.random_points(10, seed=42)
        for kind in (LC, W, DW):
            g = christoffel_many(entry.manifold, kind, pts)
            assert np.abs(g - np.swapaxes(g, 2, 3)).max() < 1e-10


def test_weighted_reduces_to_levi_civita_for_constant_phi():
    chart = CoordinateChart(dim=2, coord_names=("x", "y"))
    metric = MetricField.from_expressions(chart, ["1+x^2", "2+sin(y)"],
                                          signature=(2, 0))
    M = WeightedManifold(chart=chart, metric=metric,
                         density=DensityField.from_expression(chart, "3/4"))
    pts = np.random.default_rng(0).uniform(-1, 1, (10, 2))
    lc = christoffel_many(M, LC, pts)
    assert np.abs(christoffel_many(M, W, pts) - lc).max() < 1e-10
    assert np.abs(christoffel_many(M, DW, pts) - lc).max() < 1e-10


def test_coefficient_level_duality_identity(borel, so11):
    # X h(Y, Z) = h(nabla^w_X Y, Z) + h(Y, nabla^d_X Z) for coordinate
    # fields: (nabla^w_i h)_jk = h_ja (Gamma^d - Gamma^w)^a_ik
    for entry in (borel, so11):
        M = entry.manifold
        pts = entry.random_points(6, seed=8)
        h = np.array(weighted_metrics_at(M, pts))
        gap = christoffel_many(M, DW, pts) - christoffel_many(M, W, pts)
        T = nabla_h_many(M, W, pts)
        assert np.abs(T - np.einsum('mja,maik->mijk', h, gap)).max() < 1e-12


def test_amari_chentsov_values(tri2):
    D = amari_chentsov_many(tri2.manifold, np.zeros((1, 2)))[0]  # h = I, dphi = (1,1) there
    assert D[0, 0, 0] == pytest.approx(3.0, abs=1e-14)
    assert D[0, 0, 1] == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(D, np.transpose(D, (1, 0, 2)))
    assert np.abs(amari_chentsov_many(euclidean("2"), [[0.1, 0.1]])).max() == 0.0


def test_amari_chentsov_is_weighted_derivative_of_pairing(borel):
    M = borel.manifold
    pts = borel.random_points(20, seed=3)
    assert np.abs(nabla_h_many(M, W, pts) - amari_chentsov_many(M, pts)).max() < 1e-6


def test_covariant_derivative_metric_compatibility(sphere2):
    # nabla^LC g = 0, so nabla^LC of h = e^{-phi} g is -dphi (x) h
    M = sphere2.manifold
    pts = sphere2.random_points(5, seed=1)
    h = np.array(weighted_metrics_at(M, pts))
    dphi = M.density.jet(pts)[1]
    T = nabla_h_many(M, LC, pts)
    assert np.abs(T + np.einsum('mi,mjk->mijk', dphi, h)).max() < 1e-8


def test_dual_weighted_derivative_is_minus_density_tensor(borel, tri3):
    for entry in (borel, tri3):
        M = entry.manifold
        pts = entry.random_points(5, seed=9)
        T = nabla_h_many(M, DW, pts)
        assert np.abs(T + amari_chentsov_many(M, pts)).max() < 1e-6


def test_curvature_flat_and_golden(tri2, so11):
    assert np.abs(curvature_many(euclidean(), W, [0.1, 0.2])[0]).max() == 0.0
    ric = ricci_at(tri2.manifold, W, np.zeros(2))
    assert np.abs(ric - np.diag([0.0, 1.0])).max() < 1e-6
    ric = ricci_at(so11.manifold, W, np.zeros(2))
    assert np.abs(ric - np.diag([1 / 8, -1 / 24])).max() < 1e-6


def _ricci_identity_cases():
    entries = catalog.default_entries() + [catalog.sphere_with_density(4)]
    return [pytest.param(e, id=e.name) for e in entries] + [pytest.param(None, id="full3")]


@pytest.mark.parametrize("entry", _ricci_identity_cases())
def test_weighted_ricci_is_levi_civita_ricci_plus_hessian_terms(entry):
    """Ric^{nabla^phi} = Ric^{LC} + (n-1)(nabla^2 phi + dphi (x) dphi),
    nabla^2 phi the covariant Hessian (Wylie and Yeroshkin,
    arXiv:1602.08000), with the partials of phi from the density's own
    expression."""
    entry = entry or full_metric_3d()
    M, n = entry.manifold, entry.dim
    pts = entry.random_points(5, seed=12)
    env, names = M.chart.env(pts), M.chart.coord_names
    d2phi = np.zeros((5, n, n))
    for a in range(n):
        for b in range(n):
            d2phi[:, a, b] = ex.eval_dual2(M.density.field.expression, env,
                                           names[a], names[b])[3]
    dphi = M.density.jet(pts)[1]
    hess = d2phi - np.einsum('mkab,mk->mab', christoffel_many(M, LC, pts), dphi)
    ric_w, ric_lc = (np.einsum('miijk->mjk', curvature_many(M, kind, pts)) for kind in (W, LC))
    expected = ric_lc + (n - 1) * (hess + np.einsum('ma,mb->mab', dphi, dphi))
    assert np.abs(ric_w - expected).max() <= 1e-12 * np.abs(expected).max()


def test_curvature_many_rows_have_the_bits_of_one_point_calls():
    for entry in (full_metric_3d(), catalog.sphere_with_density(4)):
        M = entry.manifold
        pts = entry.random_points(6, seed=2)
        for kind in (LC, W, DW):
            R = curvature_many(M, kind, pts)
            assert R.shape == (6,) + (entry.dim,) * 4
            for x, row in zip(pts, R):
                assert row.tobytes() == curvature_many(M, kind, x).tobytes()
                assert (ricci_at(M, kind, x).tobytes()
                        == np.einsum('iijk->jk', row).tobytes())
    with pytest.raises(OutOfDomain):
        curvature_many(catalog.sphere_with_density(2).manifold, W, [[1.0, 0.5], [0.01, 0.0]])


def test_cold_ricci_compiles_one_program(program_passes):
    """A weighted ricci_at on a fresh non-diagonal 3-d manifold runs and
    compiles 1 + n(n+1)/2 = 7 variants of the geometry's one program: its
    jet pass, which the coefficients and their derivatives share, and its
    second-order passes (the density contains every coordinate)."""
    M = full_metric_3d().manifold
    program_passes.clear()  # the metric's validation evaluates its values
    ricci_at(M, W, np.zeros(3))
    compiled = [variant for program, variant, new in program_passes if new]
    assert len(compiled) == len(program_passes) == 7
    assert all(program is M._pass.program for program, _, _ in program_passes)


@pytest.mark.parametrize("kind", [LC, W])
def test_curvature_runs_one_jet_pass_and_the_pairs_its_fields_read(program_passes, kind):
    """sphereN(4): curvature_many runs one jet pass and a second-order pass
    for each of the 6 coordinate pairs that a metric entry or the density
    contains both of, none with theta3, which no field reads: 7 passes,
    where a jet pass for each of Gamma and d Gamma and a pass for every
    one of the 10 pairs made 12."""
    entry = catalog.sphere_with_density(4)
    M = entry.manifold
    program_passes.clear()
    curvature_many(M, kind, entry.random_points(5, seed=1))
    variants = [variant for _, variant, _ in program_passes]
    assert variants[0] == (1, "r", "theta1", "theta2", "theta3")
    assert variants[1:] == [(2, "r", "r"), (2, "r", "theta1"), (2, "r", "theta2"),
                            (2, "theta1", "theta1"), (2, "theta1", "theta2"),
                            (2, "theta2", "theta2")]


def test_curvature_closed_form_off_origin(tri2):
    # Ricci of the weighted connection is (1+e^{x+y})/2 dy^2 on this entry
    for (x, y) in [(0.3, -0.2), (-0.5, 0.1)]:
        ric = ricci_at(tri2.manifold, W, [x, y])
        expected = np.diag([0.0, (1 + math.exp(x + y)) / 2])
        assert np.abs(ric - expected).max() < 1e-9


def test_singular_metric_detection():
    chart = CoordinateChart(dim=2, coord_names=("x", "y"),
                            domain=((-2, 2), (-2, 2)))
    with pytest.raises(SingularMetric):
        MetricField.from_expressions(chart, ["x", "1"], signature=(2, 0))


def test_signature_validation():
    chart = CoordinateChart(dim=2, coord_names=("x", "y"))
    with pytest.raises(BadSignature):
        MetricField.from_expressions(chart, ["1", "1"], signature=(1, 1))
    m = MetricField.from_expressions(chart, ["1", "-1"], signature=(1, 1))
    assert m.signature == (1, 1)


def test_chart_invariants():
    with pytest.raises(ValueError):
        CoordinateChart(dim=0, coord_names=())
    with pytest.raises(ValueError):
        CoordinateChart(dim=2, coord_names=("x", "y"), periodicity=(0.0, None))
    with pytest.raises(ValueError):
        CoordinateChart(dim=1, coord_names=("x",), domain=((1.0, 1.0),))


# ---------------------------------------------------------------------------
# The contracted kernel against the plain einsum assembly
# ---------------------------------------------------------------------------

def reference_christoffel(M, kind, pts):
    """Full Gamma by the textbook assembly: LAPACK det/inv, the (m, n, n, n)
    array c_aij and each correction as its own (m, n, n, n) array."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    g = M.metric.matrices(pts)
    dets = np.linalg.det(g)
    if np.abs(dets).min() <= DET_FLOOR:
        k = int(np.abs(dets).argmin())
        raise SingularMetric(tuple(pts[k]), dets[k])
    ginv = np.linalg.inv(g)
    dg = M.metric.jet(pts)[1]
    c = (np.einsum('miaj->maij', dg) + np.einsum('mjai->maij', dg) - dg)
    gamma = 0.5 * np.einsum('mka,maij->mkij', ginv, c)
    if kind == LC:
        return gamma
    grad_phi = M.density.jet(pts)[1]
    eye = np.eye(M.dim)
    if kind == W:
        return gamma - (np.einsum('mi,kj->mkij', grad_phi, eye)
                        + np.einsum('mj,ki->mkij', grad_phi, eye))
    grad_up = np.einsum('mka,ma->mk', ginv, grad_phi)
    return gamma + np.einsum('mij,mk->mkij', g, grad_up)


def full_metric_3d():
    """Non-diagonal metric, positive definite on the box by diagonal dominance."""
    chart = CoordinateChart(dim=3, coord_names=("x", "y", "z"),
                            domain=((-0.9, 0.9),) * 3)
    metric = MetricField.from_expressions(
        chart, [["2+sin(y)", "0.3*cos(z)", "0"],
                ["0.3*cos(z)", "2+cos(x)", "0.2*sin(x*y)"],
                ["0", "0.2*sin(x*y)", "exp(x*z/2)"]], signature=(3, 0))
    M = WeightedManifold(chart=chart, metric=metric,
                         density=DensityField.from_expression(chart, "x*y+0.5*sin(z)"))
    return catalog.CatalogEntry(name="full3", manifold=M, basepoint=np.zeros(3),
                                sample_region=((-0.8, 0.8),) * 3)


def zero_off_diagonal_3d():
    """A metric given as a full matrix whose off-diagonal entries are the
    literal 0, so it takes the diagonal path like the catalog's."""
    chart = CoordinateChart(dim=3, coord_names=("x", "y", "z"),
                            domain=((-0.9, 0.9),) * 3)
    metric = MetricField.from_expressions(
        chart, [["2+sin(y)", "0", "0"],
                ["0", "-(2+cos(x*z))", "0"],
                ["0", "0", "exp(x*z/2)"]], signature=(2, 1))
    M = WeightedManifold(chart=chart, metric=metric,
                         density=DensityField.from_expression(chart, "x*y+0.5*sin(z)"))
    return catalog.CatalogEntry(name="zero-off-diagonal3", manifold=M,
                                basepoint=np.zeros(3), sample_region=((-0.8, 0.8),) * 3)


def _kernel_cases():
    entries = catalog.default_entries() + [catalog.sphere_with_density(4),
                                           zero_off_diagonal_3d()]
    cases = []
    for e in entries:
        cases.append(pytest.param(e, e.manifold, id=e.name))
        if e.companion is not None:
            cases.append(pytest.param(e, e.companion, id=e.companion.name))
    return cases + [pytest.param(None, None, id="full3")]


@pytest.mark.parametrize("entry,M", _kernel_cases())
@pytest.mark.parametrize("kind", [LC, W, DW], ids=lambda k: k.value)
def test_kernel_matches_reference_assembly(entry, M, kind):
    if entry is None:
        entry = full_metric_3d()
        M = entry.manifold
        assert not M.metric.diagonal
    else:
        # every catalog metric, and a full matrix with literal-0 off-diagonal
        # entries, takes the diagonal path
        assert M.metric.diagonal
    pts = entry.random_points(40, seed=5)
    ref = reference_christoffel(M, kind, pts)
    got = christoffel_many(M, kind, pts)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
    vel = np.random.default_rng(6).standard_normal(pts.shape)
    ref_b = np.einsum('mkij,mi->mkj', ref, vel)
    got_b = christoffel_many(M, kind, pts, vel)
    assert got_b.shape == ref_b.shape
    assert np.abs(got_b - ref_b).max() <= 1e-14 * np.abs(ref_b).max()


@pytest.mark.parametrize("entry,M", _kernel_cases())
@pytest.mark.parametrize("kind", [LC, W, DW], ids=lambda k: k.value)
def test_kernel_gives_each_part_its_bits_on_a_concatenation(entry, M, kind):
    """christoffel_many on a concatenation of point arrays gives, row for
    row, the bits that it gives on each part alone, with and without
    velocities (zero and -0 components among them): the lockstep engine
    splits one call's rows per segment."""
    if entry is None:
        entry = full_metric_3d()
        M = entry.manifold
    pts = entry.random_points(17, seed=8)
    vel = np.random.default_rng(9).standard_normal(pts.shape)
    vel[::4] = 0.0
    vel[1::5, 0] = -0.0
    for v in (None, vel):
        whole = christoffel_many(M, kind, pts, v)
        for part in (slice(0, 1), slice(1, 7), slice(7, 17)):
            alone = christoffel_many(M, kind, pts[part], None if v is None else v[part])
            assert whole[part].tobytes() == alone.tobytes()


@pytest.mark.parametrize("name,zeros", [("borel2d", 52), ("triangular(3)", 282)])
def test_golden_weighted_christoffel_tables_keep_their_signed_zeros(name, zeros):
    """The computed side of the weighted_christoffels golden tables holds
    the exact zeros that the kernel gave it when this test was written,
    52 and 282 of them, each +0 (np.signbit false): a change of the
    kernel's roundings that flips the sign of a zero shows here."""
    entry = catalog.get_entry(name)
    check, = [c for c in entry.goldens if c.name == "weighted_christoffels"]
    computed = check.run(entry)[0]
    zero = computed == 0
    assert zero.sum() == zeros and not np.signbit(computed[zero]).any()


def test_constant_entries_are_recorded(sphere2):
    metric = sphere2.manifold.metric  # diag(1, sin(r)^2)
    assert metric.diagonal and metric.varying == ((1, 1),)
    full = full_metric_3d().manifold.metric
    assert not full.diagonal
    assert (0, 2) not in full.varying and len(full.varying) == 5


@pytest.mark.parametrize("entries,diagonal,singular_at", [
    (["x", "1"], True, (0.0, -0.3)),                       # 1/diag path
    ([["1", "x"], ["x", "1"]], False, (1.0, -0.3)),        # LAPACK path
], ids=["diagonal", "general"])
def test_runtime_singular_metric_detection(entries, diagonal, singular_at):
    chart = CoordinateChart(dim=2, coord_names=("x", "y"))
    metric = MetricField.from_expressions(chart, entries, signature=(2, 0),
                                          validate=False)
    assert metric.diagonal == diagonal
    M = WeightedManifold(chart=chart, metric=metric,
                         density=DensityField.from_expression(chart, "x"))
    pts = np.array([[0.5, 0.2], [1.0, -0.3], [0.0, -0.3]])
    for kind in (LC, W, DW):
        with pytest.raises(SingularMetric) as info:
            christoffel_many(M, kind, pts, velocity=np.ones_like(pts))
        with pytest.raises(SingularMetric):
            christoffel_many(M, kind, pts)
    assert info.value.point == singular_at
    assert "np.float64" not in str(info.value)


# ---------------------------------------------------------------------------
# Field jets and the single factorization
# ---------------------------------------------------------------------------

def _fields(M):
    n = M.dim
    return ([M.metric.entries[i][j] for i in range(n) for j in range(i, n)]
            + [M.density.field])


@pytest.mark.parametrize("entry", catalog.default_entries(), ids=lambda e: e.name)
def test_jet_equals_per_coordinate_duals_on_catalog(entry):
    pts = entry.random_points(30, seed=9)
    env = entry.manifold.chart.env(pts)
    names = entry.manifold.chart.coord_names
    models = [entry.manifold] + ([entry.companion] if entry.companion else [])
    for field in (f for M in models for f in _fields(M)):
        assert isinstance(field, ExprScalarField)
        val, grad = field.jet(pts)
        assert val.shape == (30,) and grad.shape == (30, len(names))
        assert np.array_equal(val, field.values(pts))
        for i, name in enumerate(names):
            _, d = ex.eval_dual(field.expression, env, name)
            assert np.array_equal(grad[:, i], np.broadcast_to(d, (30,)))


def test_metric_and_density_jets_match_their_views():
    """Each field's own jet has the bits of its values and of the
    geometry's one jet pass, which the tensors read."""
    M = full_metric_3d().manifold
    pts = np.random.default_rng(2).uniform(-0.8, 0.8, (25, 3))
    g, dg = M.metric.jet(pts)
    assert np.array_equal(g, M.metric.matrices(pts))
    assert np.array_equal(dg, np.swapaxes(dg, 2, 3))
    phi, dphi = M.density.jet(pts)
    assert np.array_equal(phi, M.density.values(pts))
    J = M._pass.jets(pts)
    assert all(np.array_equal(a, b) for a, b in zip(
        (g, dg, phi, dphi), M.metric._unpack(J, False) + (J[-1, 0], J[-1, 1:].T)))


def _random_metrics(rng, n, m, signs):
    """m symmetric n x n matrices Q diag(lam) Q^T, |lam| in [0.5, 2]."""
    q, _ = np.linalg.qr(rng.standard_normal((m, n, n)))
    lam = rng.uniform(0.5, 2.0, (m, n)) * np.asarray(signs, dtype=float)
    g = (q * lam[:, None, :]) @ np.swapaxes(q, 1, 2)
    return 0.5 * (g + np.swapaxes(g, 1, 2))


@pytest.mark.parametrize("signs", [(1, 1), (1, -1), (1, 1, 1), (1, -1, 1), (-1, -1, 1)],
                         ids=["2d-definite", "2d-indefinite", "3d-definite",
                              "3d-indefinite", "3d-indefinite2"])
def test_cofactor_inverse_matches_lapack(signs):
    rng = np.random.default_rng(len(signs) * 10 + sum(signs))
    g = _random_metrics(rng, len(signs), 500, signs)
    got = _inverse_metric(g, np.zeros((500, 2)))
    ref = np.linalg.inv(g)
    scale = np.abs(ref).max(axis=(1, 2))
    assert (np.abs(got - ref).max(axis=(1, 2)) <= 1e-14 * scale).all()


def test_singular_metric_on_cofactor_3d_and_lapack_4d_paths():
    chart3 = CoordinateChart(dim=3, coord_names=("x", "y", "z"))
    m3 = MetricField.from_expressions(
        chart3, [["1", "x", "0"], ["x", "1", "0"], ["0", "0", "1"]],
        signature=(3, 0), validate=False)
    chart4 = CoordinateChart(dim=4, coord_names=("x", "y", "z", "w"))
    m4 = MetricField.from_expressions(
        chart4, [["1", "x", "0", "0"], ["x", "1", "0", "0"],
                 ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        signature=(4, 0), validate=False)
    for chart, metric in ((chart3, m3), (chart4, m4)):
        assert not metric.diagonal
        M = WeightedManifold(chart=chart, metric=metric,
                             density=DensityField.from_expression(chart, "y"))
        pts = np.full((3, chart.dim), 0.1)
        pts[1, 0] = 1.0  # g_00 g_11 - g_01^2 = 0 there
        for kind in (LC, W, DW):
            with pytest.raises(SingularMetric) as info:
                christoffel_many(M, kind, pts)
            assert info.value.point == tuple(pts[1])
            with pytest.raises(SingularMetric):
                christoffel_derivative_many(M, kind, pts)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
@pytest.mark.parametrize("off", ["0", "0.1"])
def test_non_finite_metric_raises_at_first_such_point(off):
    """exp(exp(exp(2))) overflows: det g is inf (or NaN through the
    cofactors), which the DET_FLOOR comparison alone lets through."""
    chart = CoordinateChart(dim=2, coord_names=("x", "y"))
    metric = MetricField.from_expressions(
        chart, [["1+exp(exp(exp(x)))", off], [off, "1"]], signature=(2, 0),
        validate=False)
    assert metric.diagonal == (off == "0")
    M = WeightedManifold(chart=chart, metric=metric,
                         density=DensityField.from_expression(chart, "y"))
    pts = np.array([[0.5, 0.0], [2.0, 0.3], [2.0, -0.3]])
    for kind in (LC, W, DW):
        with pytest.raises(SingularMetric) as info:
            christoffel_many(M, kind, pts, velocity=np.ones_like(pts))
        assert info.value.point == (2.0, 0.3)
        with pytest.raises(SingularMetric) as info:
            christoffel_many(M, kind, pts)
        assert info.value.point == (2.0, 0.3)
        with pytest.raises(SingularMetric) as info:
            christoffel_derivative_many(M, kind, pts)
        assert info.value.point == (2.0, 0.3)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowing_entry_computes_no_structurally_zero_row():
    """g_00 = 1 + exp(exp(exp(x))) overflows at x = 2 and holds no row in
    y, although the density y seeds one: the weighted kernel computes no
    0 * inf there, so numpy warns of no invalid value, and the first point
    where g is not finite is still reported as singular."""
    chart = CoordinateChart(dim=2, coord_names=("x", "y"))
    M = WeightedManifold(
        chart=chart, density=DensityField.from_expression(chart, "y"),
        metric=MetricField.from_expressions(chart, ["1+exp(exp(exp(x)))", "1"],
                                            signature=(2, 0), validate=False))
    pts = np.array([[0.5, 0.0], [2.0, 0.3], [2.0, -0.3]])
    for velocity in (None, np.ones_like(pts)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SingularMetric) as info:
                christoffel_many(M, W, pts, velocity)
        assert info.value.point == (2.0, 0.3)
        assert not [w for w in caught if "invalid value" in str(w.message)]


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
def test_overflowing_jet_raises_at_first_such_point():
    """At x = 1.88, g_00 = 1 + exp(exp(exp(x))) is about 1e304 and det g
    is finite, but d g_00 overflows, so the coefficients are not finite."""
    chart = CoordinateChart(dim=2, coord_names=("x", "y"))
    metric = MetricField.from_expressions(chart, ["1+exp(exp(exp(x)))", "1"],
                                          signature=(2, 0))
    M = WeightedManifold(chart=chart, metric=metric,
                         density=DensityField.from_expression(chart, "y"))
    pts = np.array([[0.5, 0.0], [1.88, 0.0], [1.88, 0.5]])
    assert np.isfinite(np.linalg.det(metric.matrices(pts))).all()
    for kind in (LC, W, DW):
        for call in (lambda: christoffel_many(M, kind, pts, velocity=np.ones_like(pts)),
                     lambda: christoffel_many(M, kind, pts),
                     lambda: christoffel_derivative_many(M, kind, pts)):
            with pytest.raises(SingularMetric) as info:
                call()
            assert info.value.point == (1.88, 0.0)
            assert "not finite" in str(info.value)
        assert np.isfinite(christoffel_many(M, kind, pts[:1])).all()


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
def test_overflowing_density_is_named_not_the_metric():
    """g = diag(1, 1) and phi = exp(exp(exp(x))): at x = 1.88 phi is about
    1e304 and its gradient overflows."""
    chart = CoordinateChart(dim=2, coord_names=("x", "y"))
    M = WeightedManifold(
        chart=chart,
        metric=MetricField.from_expressions(chart, ["1", "1"], signature=(2, 0)),
        density=DensityField.from_expression(chart, "exp(exp(exp(x)))"))
    with pytest.raises(DensityOverflow) as info:
        christoffel_many(M, W, [[1.88, 0]])
    assert info.value.point == (1.88, 0.0)
    assert str(info.value).startswith("density not finite at (1.88, 0.0)")
    pts = np.array([[0.5, 0.0], [1.88, 0.5], [1.88, 0.0]])
    for kind in (W, DW):
        for call in (lambda: christoffel_many(M, kind, pts, velocity=np.ones_like(pts)),
                     lambda: christoffel_many(M, kind, pts),
                     lambda: christoffel_derivative_many(M, kind, pts)):
            with pytest.raises(DensityOverflow) as info:
                call()
            assert info.value.point == (1.88, 0.5)
            assert "metric" not in str(info.value)
    # the Levi-Civita connection does not see the density
    assert np.array_equal(christoffel_many(M, LC, pts), np.zeros((3, 2, 2, 2)))


def test_singular_metric_is_named_before_the_density_error():
    """Errors come in the order metric entry, singular metric, density,
    although one pass evaluates the metric and the density together."""
    chart = CoordinateChart(dim=2, coord_names=("x", "y"))

    def model(entry, phi):
        return WeightedManifold(
            chart=chart,
            metric=MetricField.from_expressions(chart, [entry, "1"], signature=(2, 0),
                                                validate=False),
            density=DensityField.from_expression(chart, phi))

    # g = diag(0, 1) and log(0) at the second point
    pts = np.array([[0.5, 0.5], [0.0, 0.5]])
    for kind in (W, DW):
        with pytest.raises(SingularMetric) as info:
            christoffel_many(model("x^2", "log(x)"), kind, pts, np.ones_like(pts))
        assert info.value.point == (0.0, 0.5)
        with pytest.raises(DomainError, match="log of a nonpositive value"):
            christoffel_many(model("1+x^2", "log(x)"), kind, pts, np.ones_like(pts))
        with pytest.raises(DomainError, match="sqrt of a negative value"):
            christoffel_many(model("sqrt(x-1)", "log(x)"), kind, pts)
    assert np.isfinite(christoffel_many(model("1+x^2", "log(x)"), LC, pts)).all()


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
def test_validate_reports_an_overflowing_metric_as_singular():
    chart = CoordinateChart(dim=2, coord_names=("x", "y"), domain=((-3, 3), (-3, 3)))
    with pytest.raises(SingularMetric) as info:
        MetricField.from_expressions(chart, ["1+exp(exp(exp(x)))", "1"], signature=(2, 0))
    assert info.value.point == (2.7, -2.7)


def test_bad_signature_message_shows_plain_floats():
    chart = CoordinateChart(dim=2, coord_names=("x", "y"))
    with pytest.raises(BadSignature) as info:
        MetricField.from_expressions(chart, ["1", "1"], signature=(1, 1))
    assert str(info.value).endswith("at (-1.0, -1.0)")


def test_christoffel_evaluates_each_varying_field_once(jet_passes, monkeypatch):
    """sphereN(4): a weighted call runs one jet pass, compiled from the
    four diagonal entries and the density (the six literal-0 off-diagonal
    entries are never compiled), in which np.sin and np.cos run once each
    on r, theta1 and theta2 although the entries repeat sin(r)^2 and
    sin(theta1)^2: the density's cos(r) is the register that the
    derivative of sin(r) reads, and its derivative reads sin(r).  A
    Levi-Civita call runs the metric's pass alone, with the same six
    transcendental instructions, and never evaluates the density."""
    compiled, calls = {}, {"sin": [], "cos": []}
    compile_program = ex.Program.__init__

    def compiling(self, exprs):
        compiled[id(self)] = list(exprs)
        compile_program(self, exprs)

    monkeypatch.setattr(ex.Program, "__init__", compiling)
    for name, seen in calls.items():
        def counting(x, _fn=ex._CALL_TABLE[name], _seen=seen):
            _seen.append(x)
            return _fn(x)

        monkeypatch.setitem(ex._CALL_TABLE, name, counting)
    entry = catalog.sphere_with_density(4)
    M = entry.manifold
    pts = entry.random_points(50, seed=1)
    vel = np.ones_like(pts)
    metric = [M.metric.entries[a][a].expression for a in range(4)]
    for kind, program in ((W, metric + [M.density.field.expression]), (LC, metric)):
        for seen in [jet_passes, *calls.values()]:
            seen.clear()
        christoffel_many(M, kind, pts, vel)
        assert len(jet_passes) == 1
        assert compiled[id(jet_passes[0])] == program
        for seen in calls.values():
            assert len(seen) == 3
            assert all(np.array_equal(x, pts[:, a]) for a, x in enumerate(seen))
    assert all(ex.Num(0.0) not in exprs for exprs in compiled.values())


def test_diagonal_kernel_skips_the_dense_jet(monkeypatch):
    """A diagonal metric is evaluated from its diagonal jet alone, for every
    kind, with and without velocities; the second derivatives densify that
    jet, with the bits of the dense one."""
    entry = catalog.sphere_with_density(4)
    pts = entry.random_points(20, seed=3)
    vel = np.random.default_rng(4).standard_normal(pts.shape)
    expected = {kind: (christoffel_many(entry.manifold, kind, pts),
                       christoffel_many(entry.manifold, kind, pts, vel),
                       christoffel_derivative_many(entry.manifold, kind, pts))
                for kind in (LC, W, DW)}
    g, dg = entry.manifold.metric.jet(pts)

    def dense_jet(self, pts):
        raise AssertionError("the dense metric jet was evaluated")

    monkeypatch.setattr(MetricField, "jet", dense_jet)
    for kind, (full, contracted, derivative) in expected.items():
        assert np.array_equal(christoffel_many(entry.manifold, kind, pts), full)
        assert np.array_equal(christoffel_many(entry.manifold, kind, pts, vel), contracted)
        assert (christoffel_derivative_many(entry.manifold, kind, pts).tobytes()
                == derivative.tobytes())
    jet = manifold._jets(entry.manifold, pts, False)
    dense = manifold._dense(*jet[:3])
    assert dense[0].tobytes() == g.tobytes() and dense[2].tobytes() == dg.tobytes()


def test_diagonal_kernel_memory_per_point():
    """The contracted weighted kernel on sphereN(4) holds at most 0.7 kB of
    temporaries per point (the dense (m, n, n, n) jet held about 1.5 kB;
    about 0.66 kB measured), and its jet pass alone, outputs included, at
    most 108 B, about 98 B measured: the pass drops each register after its
    last use and computes no row that is 0 by structure (with such rows it
    took about 252 B)."""
    entry = catalog.sphere_with_density(4)
    M = entry.manifold
    pts = entry.random_points(1024, seed=1)
    vel = np.random.default_rng(2).standard_normal(pts.shape)
    christoffel_many(M, W, pts, vel)  # warm any first-call state
    for call, bound in ((lambda: christoffel_many(M, W, pts, vel), 700),
                        (lambda: M._pass(pts), 108)):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * len(pts)


@pytest.mark.parametrize("kind", [LC, W, DW])
def test_christoffel_many_on_no_points_gives_empty_arrays(kind):
    """Zero points are a batch like any other: every default entry and
    companion gives (0, n, n, n) coefficients, or (0, n, n) with
    velocities."""
    for entry in catalog.default_entries():
        for M in filter(None, (entry.manifold, entry.companion)):
            n = M.dim
            none = np.empty((0, n))
            gamma = christoffel_many(M, kind, none)
            assert gamma.shape == (0, n, n, n) and gamma.dtype == float, entry.name
            B = christoffel_many(M, kind, none, none)
            assert B.shape == (0, n, n) and B.dtype == float, entry.name
