"""Check harness: determinism, serialization, and pass behavior."""

import json

import numpy as np
import pytest

from hololab import catalog, verify
from hololab.manifold import (ConnectionKind, CoordinateChart, DensityField,
                              MetricField, WeightedManifold,
                              WeightedMetricTensorField, amari_chentsov,
                              covariant_derivative_of_tensor)

STEPS = 300  # reduced step count keeps unit tests quick; tolerances still hold


@pytest.fixture(scope="module")
def flat_entry():
    chart = CoordinateChart(dim=2, coord_names=("x", "y"))
    metric = MetricField.from_expressions(chart, ["1", "1"], signature=(2, 0))
    M = WeightedManifold(chart=chart, metric=metric,
                         density=DensityField.zero(chart), name="flat")
    return catalog.CatalogEntry(name="flat", manifold=M, basepoint=np.zeros(2),
                                sample_region=((-1, 1), (-1, 1)))


def test_checks_trivial_on_flat_density(flat_entry):
    r = verify.check_duality_pairing(flat_entry, n_paths=4, seed=0, steps=STEPS)
    assert r.passed and r.max_violation < 1e-12
    r = verify.check_dual_holonomy(flat_entry, n_loops=4, seed=1, steps=STEPS)
    assert r.passed
    r = verify.check_codazzi(flat_entry, n_points=10, seed=2)
    assert r.passed and r.max_violation < 1e-14
    r = verify.check_unimodularity(flat_entry, n_loops=4, seed=3, steps=STEPS)
    assert r.passed


def test_duality_checks_on_catalog(borel, so11, tri3):
    for entry in (borel, so11, tri3):
        assert verify.check_duality_pairing(entry, 8, seed=0, steps=STEPS).passed
        assert verify.check_dual_holonomy(entry, 8, seed=1, steps=STEPS).passed
        assert verify.check_dual_vector_fields(entry, 8, seed=2, steps=STEPS).passed


def test_codazzi_on_catalog(sphere2, tri3):
    assert verify.check_codazzi(sphere2, n_points=25, seed=4).passed
    assert verify.check_codazzi(tri3, n_points=25, seed=4).passed


def test_codazzi_batch_matches_pointwise_reference(monkeypatch):
    # the pointwise covariant derivative and Amari-Chentsov tensor stay the
    # reference for the batched check; every point is kept as a detail
    monkeypatch.setattr(verify, "MAX_DETAILS", 12)
    for entry in catalog.default_entries():
        M = entry.manifold
        hfield = WeightedMetricTensorField(M)
        expected = {}
        for x in entry.random_points(12, seed=7):
            D = amari_chentsov(M, x)
            Tw = covariant_derivative_of_tensor(M, ConnectionKind.WEIGHTED, hfield, x)
            Td = covariant_derivative_of_tensor(M, ConnectionKind.DUAL_WEIGHTED,
                                                hfield, x)
            sym_gap = max(float(np.abs(Tw - np.transpose(Tw, perm)).max())
                          for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0)])
            expected[f"point {np.round(x, 4).tolist()}"] = max(
                sym_gap, float(np.abs(Tw - D).max()), float(np.abs(Td + D).max()))
        r = verify.check_codazzi(entry, n_points=12, seed=7)
        assert r.samples == 12 and len(r.details) == 12
        for d in r.details:
            assert abs(d["violation"] - expected[d["where"]]) <= 1e-14


def test_report_without_samples_does_not_pass():
    r = verify._report("unimodularity", "flat", 1e-6, [])
    assert r.samples == 0 and r.max_violation == 0.0 and r.passed is False


def test_projective_check(so11, sopq12):
    assert verify.check_projective_equivalence(so11, n_points=30, seed=5).passed
    assert verify.check_projective_equivalence(sopq12, n_points=30, seed=5).passed
    with pytest.raises(ValueError):
        verify.check_projective_equivalence(
            catalog.borel_2d(), n_points=5, seed=5)


def test_blocks_check(tri3):
    r = verify.check_totally_geodesic_blocks(tri3, [0, 1], {2: 0.0},
                                             [tri3.loops["square"]], steps=STEPS)
    assert r.passed


def test_riemannian_guard(sopq12):
    pseudo = catalog.CatalogEntry(name="pseudo", manifold=sopq12.companion,
                                  basepoint=sopq12.basepoint,
                                  sample_region=sopq12.sample_region)
    with pytest.raises(ValueError):
        verify.check_duality_pairing(pseudo, 2, seed=0)


def test_report_fields_and_serialization(flat_entry):
    r = verify.check_unimodularity(flat_entry, n_loops=3, seed=9, steps=STEPS)
    d = r.to_dict()
    assert set(d) == {"check_name", "entry_name", "samples", "max_violation",
                      "tol", "passed", "details"}
    assert d["samples"] == 3
    assert d["passed"] == (d["max_violation"] <= d["tol"])
    assert len(d["details"]) <= 5
    text = json.dumps(d)
    assert json.loads(text) == d


def test_checks_deterministic_under_seed(borel):
    a = verify.check_duality_pairing(borel, 5, seed=123, steps=STEPS)
    b = verify.check_duality_pairing(borel, 5, seed=123, steps=STEPS)
    assert a.to_dict() == b.to_dict()
    c = verify.check_duality_pairing(borel, 5, seed=124, steps=STEPS)
    assert c.max_violation != a.max_violation


def test_default_suite_ordering(borel, so11):
    reports = verify.default_suite([so11, borel], n_paths=2, n_loops=2,
                                   n_points=4, steps=STEPS)
    keys = [(r.check_name, r.entry_name) for r in reports]
    assert keys == sorted(keys)
    assert all(r.passed for r in reports)
