"""Catalog constructors, golden data wiring, and the equivalence factory."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from hololab import catalog
from hololab.errors import BadDimension, BadSignature, OrderingViolated, UnknownExample
from hololab.manifold import ConnectionKind, christoffel_many, metric_at
from hololab.transport import holonomy, random_rectangle_loops

W = ConnectionKind.WEIGHTED
LC = ConnectionKind.LEVI_CIVITA


def test_latitude_constant_against_root_finder(sphere2):
    root = brentq(lambda x: 1 / math.tan(x) + math.sin(x),
                  math.pi / 2 + 0.1, math.pi - 0.1, xtol=1e-14)
    assert sphere2.constants["xi"] == pytest.approx(root, abs=1e-12)
    assert sphere2.constants["xi"] == pytest.approx(2.2370357592874117, abs=1e-12)


def test_sphere_densities_and_charts(sphere2, sphere3):
    dphi = sphere2.manifold.density.gradients(np.array([[math.pi / 2, 0.3]]))[0]
    assert dphi[0] == pytest.approx(-1.0)
    phi = sphere2.manifold.density.values(np.array([[math.pi / 2, 0.1]]))[0]
    assert phi == pytest.approx(0.0, abs=1e-15)
    assert sphere2.manifold.chart.periodicity[-1] == pytest.approx(2 * math.pi)
    g = metric_at(sphere3.manifold, [1.0, 0.5, 2.0])
    s2 = math.sin(1.0) ** 2
    assert np.allclose(np.diag(g), [1.0, s2, s2 * math.sin(0.5) ** 2], rtol=1e-14)
    with pytest.raises(BadDimension):
        catalog.sphere_with_density(1)


def test_triangular_values(tri2, tri3):
    assert tri3.manifold.density.values(np.zeros((1, 3)))[0] == 0.0
    g = metric_at(tri3.manifold, [0.1, 0.2, 0.3])
    expected = [math.exp(0.1), math.exp(0.2 + 0.2), math.exp(0.2 + 0.4 + 0.3)]
    assert np.allclose(np.diag(g), expected, rtol=1e-14)
    with pytest.raises(BadDimension):
        catalog.triangular_family(1)


def test_triangular_loops_are_unit_upper_triangular(tri3):
    loops = random_rectangle_loops(tri3.manifold, tri3.sample_region, 20, seed=8,
                                   basepoint=tri3.basepoint)
    for loop in loops:
        P = holonomy(tri3.manifold, W, loop, steps=250).matrix
        low = np.tril(P, -1)
        assert np.abs(low).max() < 1e-6
        assert np.abs(np.diag(P) - 1).max() < 1e-6


def test_so11_values(so11):
    phi = so11.manifold.density.values(np.array([[0.7, math.pi / 2]]))[0]
    assert phi == pytest.approx(0.5 * math.log(2), rel=1e-15)
    gt = metric_at(so11.companion, [0.0, 0.0])
    assert np.allclose(gt, np.diag([4 / 3, -4 / 9]), rtol=1e-14)


def test_all_goldens_pass():
    for entry in catalog.default_entries():
        for check in entry.goldens:
            result = check.evaluate(entry)
            assert result["passed"], (entry.name, check.name, result["max_error"])


def test_levi_civita_pair_random_family():
    # independent pipelines: weighted coefficients of (g, phi) vs plain
    # Levi-Civita of the companion, on a randomized analytic family
    entry = catalog.levi_civita_pair(
        phis=["1+(1/2)*sin(x1)", "3+cos(x2)", "6+x3^2"],
        As=["1+(1/4)*cos(x1)", "2", "1+(1/10)*x3^2"],
        domain=[(-1.2, 1.2)] * 3)
    pts = entry.random_points(50, seed=77)
    gw = christoffel_many(entry.manifold, W, pts)
    gl = christoffel_many(entry.companion, LC, pts)
    assert np.abs(gw - gl).max() < 1e-7


def test_levi_civita_pair_constant_eigenfunctions():
    entry = catalog.levi_civita_pair(
        phis=["1", "2"], As=["1+(1/2)*sin(x1)", "2+cos(x2)"],
        domain=[(-1.0, 1.0)] * 2)
    pts = entry.random_points(20, seed=5)
    lc_primary = christoffel_many(entry.manifold, LC, pts)
    w_primary = christoffel_many(entry.manifold, W, pts)
    lc_comp = christoffel_many(entry.companion, LC, pts)
    assert np.abs(w_primary - lc_primary).max() < 1e-12
    assert np.abs(w_primary - lc_comp).max() < 1e-12


def test_levi_civita_pair_ordering_violation():
    with pytest.raises(OrderingViolated):
        catalog.levi_civita_pair(phis=["2", "1"], As=["1", "1"],
                                 domain=[(-1, 1)] * 2)
    with pytest.raises(OrderingViolated):
        catalog.levi_civita_pair(phis=["cos(x1)", "3"], As=["x1", "1"],
                                 domain=[(-1, 1)] * 2)  # A_1 vanishes at 0


def test_so_pq_parameters_and_signature():
    with pytest.raises(BadSignature):
        catalog.so_pq_example(1, 0)
    e12 = catalog.so_pq_example(1, 2)
    assert e12.constants["companion_signature"] == (1, 2)
    assert e12.manifold.metric.signature == (3, 0)
    e21 = catalog.so_pq_example(2, 1)
    assert e21.constants["companion_signature"] == (2, 1)
    assert e21.constants["companion_sign"] == -1.0  # leading entry flipped positive
    e11 = catalog.so_pq_example(1, 1)
    assert e11.constants["companion_signature"] == (1, 1)


def test_so_pq_density_value():
    # at x_n = pi/2 the varying eigenfunction equals the ambient dimension
    e = catalog.so_pq_example(1, 2)
    pt = np.array([[0.0, 0.0, math.pi / 2]])
    phi = e.manifold.density.values(pt)[0]
    assert phi == pytest.approx(0.5 * math.log(abs(-1.0 * 1.0 * 3.0)), rel=1e-12)


def test_registry_names():
    assert catalog.get_entry("sphere2").name == "sphere2"
    assert catalog.get_entry("sphereN(4)").dim == 4
    assert catalog.get_entry("so_pq(1,2)").name == "so_pq(1,2)"
    assert catalog.get_entry(" triangular(3) ").name == "triangular(3)"
    for bad in ["nope", "sphereN", "so_pq(1)", "triangular(0)"]:
        with pytest.raises(UnknownExample):
            catalog.get_entry(bad)
    assert "borel2d" in catalog.list_names()


def test_entries_pass_field_validation_on_region_grid():
    # metric invariants hold on each declared sampling region
    for entry in catalog.default_entries():
        pts = entry.random_points(27, seed=13)
        g = entry.manifold.metric.matrices(pts)
        assert np.abs(g - np.swapaxes(g, 1, 2)).max() < 1e-12
        assert np.abs(np.linalg.det(g)).min() > 1e-10
        p, q = entry.manifold.metric.signature
        eigs = np.linalg.eigvalsh(g)
        assert ((eigs > 0).sum(axis=1) == p).all()
