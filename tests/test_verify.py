"""Check harness: determinism, serialization, and pass behavior."""

import json
import math

import numpy as np
import pytest

from hololab import catalog, experiments, transport, verify
from hololab.errors import OutOfDomain
from hololab.manifold import (ConnectionKind, CoordinateChart, DensityField,
                              MetricField, WeightedManifold, christoffel_many)

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


def reference_codazzi_tensors(M, x):
    """(nabla^w h, nabla^d h, D) at the point x, written out one point at a
    time from the metric's and the density's own jets, with h = e^{-phi} g
    and D the Amari-Chentsov tensor dphi (x) h, totally symmetrized."""
    pts = np.array([x], dtype=float)
    (g,), (dg,) = M.metric.jet(pts)
    (phi,), (dphi,) = M.density.jet(pts)
    h = math.exp(-phi) * g
    dh = math.exp(-phi) * (dg - np.einsum('l,ij->lij', dphi, g))
    D = (np.einsum('i,jk->ijk', dphi, h) + np.einsum('j,ki->ijk', dphi, h)
         + np.einsum('k,ij->ijk', dphi, h))

    def nabla(kind):
        gamma = christoffel_many(M, kind, pts)[0]
        return (dh - np.einsum('aij,ak->ijk', gamma, h)
                - np.einsum('aik,ja->ijk', gamma, h))
    return nabla(ConnectionKind.WEIGHTED), nabla(ConnectionKind.DUAL_WEIGHTED), D


def test_codazzi_batch_matches_pointwise_reference(monkeypatch):
    # every point is kept as a detail
    monkeypatch.setattr(verify, "MAX_DETAILS", 12)
    for entry in catalog.default_entries():
        M = entry.manifold
        expected = {}
        for x in entry.random_points(12, seed=7):
            Tw, Td, D = reference_codazzi_tensors(M, x)
            sym_gap = max(float(np.abs(Tw - np.transpose(Tw, perm)).max())
                          for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0)])
            expected[f"point {np.round(x, 4).tolist()}"] = max(
                sym_gap, float(np.abs(Tw - D).max()), float(np.abs(Td + D).max()))
        r = verify.check_codazzi(entry, n_points=12, seed=7)
        assert r.samples == 12 and len(r.details) == 12
        for d in r.details:
            assert abs(d["violation"] - expected[d["where"]]) <= 1e-14


def test_codazzi_runs_only_the_geometrys_program(program_passes):
    """check_codazzi evaluates its tensors from at most 4 passes, each of
    the geometry's one program: never the metric's or the density's own."""
    for entry in (catalog.borel_2d(), catalog.so_pq_example(1, 2)):
        program_passes.clear()
        assert verify.check_codazzi(entry, n_points=8, seed=1).passed
        assert 0 < len(program_passes) <= 4
        assert all(program is entry.manifold._pass.program
                   for program, _, _ in program_passes)


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


def test_dual_holonomy_makes_one_kernel_call_per_round(kernel_calls, lockstep_batches,
                                                       monkeypatch):
    """All loops of a check advance together: with every round under the
    cap, each round is one kernel call (the per-loop parent made 6 calls
    per loop and level); at the default cap no call passes it."""
    borel = catalog.borel_2d()
    cap = transport.MAX_BATCH_POINTS
    monkeypatch.setattr(transport, "MAX_BATCH_POINTS", 2 ** 12)
    assert verify.check_dual_holonomy(borel, n_loops=5).passed
    rounds = [live for batch in lockstep_batches for live in batch]
    assert len(lockstep_batches) == 2 and rounds[0] == 5 * 6
    assert 0 < len(kernel_calls) <= len(rounds)
    monkeypatch.setattr(transport, "MAX_BATCH_POINTS", cap)
    kernel_calls.clear()
    assert verify.check_dual_holonomy(borel, n_loops=5).passed
    assert max(kernel_calls) <= cap


def test_suite_makes_one_batch_per_entry_kind_and_direction(lockstep_batches, borel,
                                                            sphere2, tri3):
    """Weighted vectors, dual vectors and dual covectors: three batches per
    entry across all its transport checks, and one per block prediction
    (triangular(3) has one block slice of one loop)."""
    for entry in (borel, sphere2):
        lockstep_batches.clear()
        verify.default_suite([entry], n_paths=1, n_loops=1, n_points=20)
        assert len(lockstep_batches) == 3
    lockstep_batches.clear()
    verify.default_suite([borel, sphere2, tri3], n_paths=1, n_loops=1, n_points=20)
    blocks = sum(len(loops) for _, _, loops in tri3.block_slices)
    assert blocks == 1 and len(lockstep_batches) == 3 * 3 + blocks


def _full3_entry():
    """A non-diagonal 3-d metric with a density whose gradient has no
    symmetry, positive definite on its domain by diagonal dominance."""
    chart = CoordinateChart(dim=3, coord_names=("x", "y", "z"),
                            domain=((-0.9, 0.9),) * 3)
    metric = MetricField.from_expressions(
        chart, [["2+sin(y)", "0.3*cos(z)", "0"],
                ["0.3*cos(z)", "2+cos(x)", "0.2*sin(x*y)"],
                ["0", "0.2*sin(x*y)", "exp(x*z/2)"]], signature=(3, 0))
    M = WeightedManifold(chart=chart, metric=metric,
                         density=DensityField.from_expression(chart, "x*y+0.5*sin(z)"),
                         name="full3")
    return catalog.CatalogEntry(name="full3", manifold=M, basepoint=np.zeros(3),
                                sample_region=((-0.6, 0.6),) * 3)


@pytest.mark.parametrize("steps", [None, 6])
def test_suite_reports_equal_each_check_alone(steps, borel, sopq12):
    entries = [borel, sopq12, _full3_entry()]
    seed = 4
    suite = verify.default_suite(entries, seed=seed, n_paths=2, n_loops=2, n_points=5,
                                 steps=steps)
    alone = []
    for entry in entries:
        alone += [verify.check_duality_pairing(entry, 2, seed, steps=steps),
                  verify.check_dual_holonomy(entry, 2, seed + 1, steps=steps),
                  verify.check_dual_vector_fields(entry, 2, seed + 2, steps=steps),
                  verify.check_codazzi(entry, 5, seed + 3),
                  verify.check_unimodularity(entry, 2, seed + 5, steps=steps)]
        if entry.companion is not None:
            alone.append(verify.check_projective_equivalence(entry, 5, seed + 4))
    alone.sort(key=lambda r: (r.check_name, r.entry_name))
    assert len(suite) == 16
    assert [r.to_dict() for r in suite] == [r.to_dict() for r in alone]
    subset = ("dual_vector_fields", "unimodularity")
    picked = verify.default_suite(entries, seed=seed, n_paths=2, n_loops=2, n_points=5,
                                  steps=steps, checks=subset)
    assert [r.to_dict() for r in picked] == [r.to_dict() for r in suite
                                             if r.check_name in subset]


def test_planning_failure_is_raised_when_its_check_is_judged(lockstep_batches):
    """A sample region on the chart's open boundary: the loops cannot be
    drawn, but the open paths stay inside.  In the suite, dual_holonomy
    still raises what it raises alone, after duality_pairing's batches."""
    chart = CoordinateChart(dim=2, coord_names=("x", "y"),
                            domain=((-1.0, 1.0), (-1.0, 1.0)))
    M = WeightedManifold(chart=chart,
                         metric=MetricField.from_expressions(chart, ["1", "1"],
                                                            signature=(2, 0)),
                         density=DensityField.zero(chart), name="edge")
    entry = catalog.CatalogEntry(name="edge", manifold=M, basepoint=np.zeros(2),
                                 sample_region=((-1, 1), (-1, 1)))
    with pytest.raises(OutOfDomain, match="region not inside chart domain") as alone:
        verify.check_dual_holonomy(entry, 2, steps=STEPS)
    assert lockstep_batches == []
    with pytest.raises(OutOfDomain) as suite:
        verify.default_suite([entry], n_paths=2, n_loops=2, steps=STEPS,
                             checks=["duality_pairing", "dual_holonomy"])
    assert str(suite.value) == str(alone.value)
    assert len(lockstep_batches) == 2


@pytest.mark.parametrize("check", ["duality_pairing", "dual_vector_fields"])
def test_path_checks_evaluate_the_weighted_metric_once(borel, monkeypatch, check):
    """One density and one metric pass over the ends of all the paths."""
    passes = []
    values, matrices = DensityField.values, MetricField.matrices
    monkeypatch.setattr(DensityField, "values",
                        lambda self, pts: passes.append(("phi", len(pts))) or values(self, pts))
    monkeypatch.setattr(MetricField, "matrices",
                        lambda self, pts: passes.append(("g", len(pts))) or matrices(self, pts))
    report = getattr(verify, f"check_{check}")(borel, n_paths=5, steps=STEPS)
    assert report.samples == 5 and report.passed
    assert passes == [("phi", 10), ("g", 10)]


def test_non_finite_violation_fails_the_report():
    nan, inf = float("nan"), float("inf")
    for violations in ([("a", 1e-9), ("b", nan)], [("b", nan), ("a", 1e-9)]):
        r = verify._report("x", "e", 1e-6, violations)
        assert math.isnan(r.max_violation) and r.passed is False
        assert [d["where"] for d in r.details] == ["b", "a"]
    r = verify._report("x", "e", 1e-6, [("a", 1e-9), ("b", inf), ("c", 2e-9)])
    assert r.max_violation == inf and r.passed is False
    assert [d["where"] for d in r.details] == ["b", "c", "a"]
    r = verify._report("x", "e", 1e-6, [("a", 1e-9), ("b", 3e-9), ("c", 3e-9)])
    assert r.max_violation == 3e-9 and r.passed is True
    assert [d["where"] for d in r.details] == ["b", "c", "a"]


def test_closure_experiment_integrates_its_loops_as_one_batch(kernel_calls, sphere3,
                                                              monkeypatch):
    """60 segments of 10 loops on a fixed grid of 4 * 20 + 1 points: 12
    segments per call at a cap of 1024 points.  The 12 segments along the
    last angle, which sphereN(3)'s geometry does not read, give one point
    each and ride in the calls of the others."""
    monkeypatch.setattr(transport, "MAX_BATCH_POINTS", 2 ** 10)
    loops = transport.random_rectangle_loops(sphere3.manifold, sphere3.sample_region,
                                             10, seed=3, basepoint=sphere3.basepoint)
    gens, _ = experiments.generators_from_loops(sphere3.manifold,
                                                ConnectionKind.WEIGHTED, loops, steps=20)
    assert gens  # some loops are close enough to I for a log
    assert sum(len(loop.segments) for loop in loops) == 60
    assert kernel_calls == [12 * 81 + 2, 12 * 81 + 1, 12 * 81 + 7, 12 * 81 + 2]


def test_pinned_grid_suite_skips_the_coarse_pass(coarse_batches, borel, tri3):
    """On a fixed grid the suite reads only matrices: no batch forms coarse
    products (block predictions included), and its reports have the bits of
    a run in which every batch forms them."""
    def run():
        return json.dumps([r.to_dict() for r in verify.default_suite(
            [borel, tri3], n_paths=2, n_loops=2, n_points=3, steps=20)])

    skipped = run()
    assert len(coarse_batches) > 6 and not any(coarse_batches)
    coarse_batches.force()
    assert run() == skipped
