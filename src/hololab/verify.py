"""Numerical checks binding the duality / equivalence / block-structure
statements to catalog entries and random inputs.

Each check samples deterministically from a seed, aggregates the worst
violation, and returns a CheckReport that serializes to JSON with stable
field names.  The full suite over the default catalog at the stated
tolerances is the package's core guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .catalog import CatalogEntry
from .manifold import ConnectionKind, christoffel_many, weighted_metric_at
from .transport import (holonomy_many, path_transport_many, polyline_segments,
                        predicted_block_transport, random_rectangle_loops)

MAX_DETAILS = 5
# step-controlled transports of a check integrate to this fraction of its
# tolerance, so the transport error stays three digits below it
TARGET_FRACTION = 1e-3
# every check_name a CheckReport can carry
CHECK_NAMES = ("codazzi", "dual_holonomy", "dual_vector_fields", "duality_pairing",
               "projective_equivalence", "totally_geodesic_blocks", "unimodularity")


@dataclass
class CheckReport:
    check_name: str
    entry_name: str
    samples: int
    max_violation: float
    tol: float
    passed: bool
    details: list = field(default_factory=list)

    def to_dict(self):
        return {
            "check_name": self.check_name,
            "entry_name": self.entry_name,
            "samples": self.samples,
            "max_violation": self.max_violation,
            "tol": self.tol,
            "passed": self.passed,
            "details": self.details,
        }


def _report(check_name, entry_name, tol, violations):
    """violations: list of (where, value); worst five kept as details.  A
    report without samples has checked nothing and does not pass."""
    if violations:
        worst = sorted(violations, key=lambda t: -t[1])[:MAX_DETAILS]
        max_violation = float(max(v for _, v in violations))
    else:
        worst = []
        max_violation = 0.0
    return CheckReport(
        check_name=check_name,
        entry_name=entry_name,
        samples=len(violations),
        max_violation=max_violation,
        tol=tol,
        passed=bool(violations) and max_violation <= tol,
        details=[{"where": w, "violation": float(v)} for w, v in worst],
    )


def _random_open_paths(entry: CatalogEntry, count, seed, waypoints=2):
    """Seeded random polyline paths (not loops) inside the sample region."""
    rng = np.random.default_rng(seed)
    lo = np.array([a for a, _ in entry.sample_region])
    hi = np.array([b for _, b in entry.sample_region])
    paths = []
    for _ in range(count):
        pts = lo + (hi - lo) * rng.random((waypoints + 1, len(lo)))
        paths.append(polyline_segments(pts))
    return paths


def _target(tol, steps):
    """Transport error target of a check: none on a fixed grid of ``steps``."""
    return tol * TARGET_FRACTION if steps is None else None


def _transports(entry, kind, paths, tol, steps, covector=False):
    """Transfer matrices of a check's paths, integrated as one batch."""
    return [P for P, _ in path_transport_many(entry.manifold, kind, paths, steps=steps,
                                              covector=covector,
                                              error_target=_target(tol, steps))]


def _holonomies(entry, kind, loops, tol, steps):
    """Holonomy matrices of a check's loops, integrated as one batch."""
    return [h.matrix for h in holonomy_many(entry.manifold, kind, loops, steps=steps,
                                            error_target=_target(tol, steps))]


def _require_riemannian(entry):
    p, q = entry.manifold.metric.signature
    if q != 0:
        raise ValueError(f"{entry.name}: check requires a Riemannian metric")


def check_duality_pairing(entry: CatalogEntry, n_paths=20, seed=0, tol=1e-6,
                          steps=None) -> CheckReport:
    """Transport dual pairs along open paths: the e^{-phi} g pairing of a
    weighted-transported frame with a dual-transported frame is constant."""
    _require_riemannian(entry)
    paths = _random_open_paths(entry, n_paths, seed)
    weighted = _transports(entry, ConnectionKind.WEIGHTED, paths, tol, steps)
    dual = _transports(entry, ConnectionKind.DUAL_WEIGHTED, paths, tol, steps)
    violations = []
    for k, (path, Pw, Pd) in enumerate(zip(paths, weighted, dual)):
        start, end = path[0].start, path[-1].end
        h0 = weighted_metric_at(entry.manifold, start)
        h1 = weighted_metric_at(entry.manifold, end)
        viol = float(np.abs(Pw.T @ h1 @ Pd - h0).max())
        violations.append((f"path {k} from {start.tolist()}", viol))
    return _report("duality_pairing", entry.name, tol, violations)


def check_dual_holonomy(entry: CatalogEntry, n_loops=20, seed=1, tol=1e-6,
                        steps=None) -> CheckReport:
    """Loop transports of the dual pair are adjoint-inverse in the weighted
    pairing at the basepoint."""
    _require_riemannian(entry)
    loops = random_rectangle_loops(entry.manifold, entry.sample_region, n_loops,
                                   seed, basepoint=entry.basepoint)
    H = weighted_metric_at(entry.manifold, entry.basepoint)
    Hinv = np.linalg.inv(H)
    weighted = _holonomies(entry, ConnectionKind.WEIGHTED, loops, tol, steps)
    dual = _holonomies(entry, ConnectionKind.DUAL_WEIGHTED, loops, tol, steps)
    violations = []
    for k, (Pw, Pd) in enumerate(zip(weighted, dual)):
        predicted = Hinv @ np.linalg.inv(Pw).T @ H
        violations.append((f"loop {k}", float(np.abs(Pd - predicted).max())))
    return _report("dual_holonomy", entry.name, tol, violations)


def check_dual_vector_fields(entry: CatalogEntry, n_paths=20, seed=2, tol=1e-6,
                             steps=None) -> CheckReport:
    """A weighted-parallel vector field stays paired with the
    dual-transported 1-form h(V, .)."""
    _require_riemannian(entry)
    rng = np.random.default_rng(seed + 1000)
    paths = _random_open_paths(entry, n_paths, seed)
    weighted = _transports(entry, ConnectionKind.WEIGHTED, paths, tol, steps)
    dual = _transports(entry, ConnectionKind.DUAL_WEIGHTED, paths, tol, steps,
                       covector=True)
    violations = []
    for k, (path, Pw, Pcov) in enumerate(zip(paths, weighted, dual)):
        start, end = path[0].start, path[-1].end
        h0 = weighted_metric_at(entry.manifold, start)
        h1 = weighted_metric_at(entry.manifold, end)
        v0 = rng.standard_normal(entry.dim)
        v0 /= np.linalg.norm(v0)
        a0 = h0 @ v0
        viol = float(np.abs(Pcov @ a0 - h1 @ (Pw @ v0)).max())
        violations.append((f"path {k}", viol))
    return _report("dual_vector_fields", entry.name, tol, violations)


def _covariant_derivative(gamma, h, dh):
    """(nabla_i h)_jk = d_i h_jk - Gamma^a_ij h_ak - Gamma^a_ik h_ja at each
    point, for gamma (m, n, n, n), h (m, n, n) and dh (m, n, n, n)."""
    return (dh - np.einsum('maij,mak->mijk', gamma, h)
            - np.einsum('maik,mja->mijk', gamma, h))


def check_codazzi(entry: CatalogEntry, n_points=50, seed=3, tol=1e-6) -> CheckReport:
    """nabla^w of e^{-phi} g is totally symmetric and equals the symmetric
    density 3-tensor; the dual derivative equals its negative.

    Evaluated in batch over the sample points: h = e^{-phi} g and its
    partials once, one coefficient call per connection."""
    M = entry.manifold
    pts = entry.random_points(n_points, seed)
    M.chart.require_inside(pts)
    g, dg = M.metric.jet(pts)
    phi, dphi = M.density.jet(pts)
    w = np.exp(-phi)
    h = w[:, None, None] * g
    dh = w[:, None, None, None] * (dg - dphi[:, :, None, None] * g[:, None])
    # Amari-Chentsov tensor dphi (x) h, totally symmetrized
    D = (np.einsum('mi,mjk->mijk', dphi, h) + np.einsum('mj,mki->mijk', dphi, h)
         + np.einsum('mk,mij->mijk', dphi, h))
    Tw = _covariant_derivative(christoffel_many(M, ConnectionKind.WEIGHTED, pts), h, dh)
    Td = _covariant_derivative(christoffel_many(M, ConnectionKind.DUAL_WEIGHTED, pts),
                               h, dh)
    gaps = [np.abs(Tw - np.transpose(Tw, perm))
            for perm in [(0, 1, 3, 2), (0, 2, 1, 3), (0, 3, 2, 1)]]
    gaps += [np.abs(Tw - D), np.abs(Td + D)]
    viol = np.max([gap.reshape(len(pts), -1).max(axis=1) for gap in gaps], axis=0)
    violations = [(f"point {np.round(x, 4).tolist()}", float(v))
                  for x, v in zip(pts, viol)]
    return _report("codazzi", entry.name, tol, violations)


def check_projective_equivalence(entry: CatalogEntry, n_points=50, seed=4,
                                 tol=1e-7) -> CheckReport:
    """Weighted coefficients of (g, phi) equal the companion's Levi-Civita
    coefficients."""
    if entry.companion is None:
        raise ValueError(f"{entry.name} has no companion metric")
    pts = entry.random_points(n_points, seed)
    gw = christoffel_many(entry.manifold, ConnectionKind.WEIGHTED, pts)
    gl = christoffel_many(entry.companion, ConnectionKind.LEVI_CIVITA, pts)
    gaps = np.abs(gw - gl).reshape(len(pts), -1).max(axis=1)
    violations = [(f"point {np.round(x, 4).tolist()}", float(g))
                  for x, g in zip(pts, gaps)]
    return _report("projective_equivalence", entry.name, tol, violations)


def check_totally_geodesic_blocks(entry: CatalogEntry, free_indices, fixed_values,
                                  loops, tol=1e-6, steps=None) -> CheckReport:
    """Block-assembled prediction vs full ambient weighted holonomy, both
    integrated to the same error target."""
    target = _target(tol, steps)
    ambients = _holonomies(entry, ConnectionKind.WEIGHTED, loops, tol, steps)
    violations = []
    for k, (loop, ambient) in enumerate(zip(loops, ambients)):
        predicted = predicted_block_transport(entry.manifold, free_indices,
                                              fixed_values, loop, steps=steps,
                                              error_target=target)
        violations.append((f"loop {k}", float(np.abs(predicted - ambient).max())))
    return _report("totally_geodesic_blocks", entry.name, tol, violations)


def check_unimodularity(entry: CatalogEntry, n_loops=20, seed=5, tol=1e-6,
                        steps=None) -> CheckReport:
    """Weighted loop transports have unit determinant on orientable charts."""
    loops = random_rectangle_loops(entry.manifold, entry.sample_region, n_loops,
                                   seed, basepoint=entry.basepoint)
    violations = []
    for k, P in enumerate(_holonomies(entry, ConnectionKind.WEIGHTED, loops, tol,
                                      steps)):
        violations.append((f"loop {k}", float(abs(np.linalg.det(P) - 1.0))))
    return _report("unimodularity", entry.name, tol, violations)


# ---------------------------------------------------------------------------
# Suite driver
# ---------------------------------------------------------------------------

def default_suite(entries, seed=0, n_paths=20, n_loops=20, n_points=50,
                  steps=None, checks=None):
    """Run every applicable check over the given entries; reports are
    ordered by (check_name, entry_name).  Transports are step-controlled
    unless ``steps`` pins a fixed grid.  ``checks``, if given, names the
    checks to run; the others are skipped, and each check keeps its seed,
    so its reports equal those of the full suite."""
    def wanted(name):
        return checks is None or name in checks

    reports = []
    for entry in entries:
        riemannian = entry.manifold.metric.signature[1] == 0
        if riemannian and wanted("duality_pairing"):
            reports.append(check_duality_pairing(entry, n_paths, seed, steps=steps))
        if riemannian and wanted("dual_holonomy"):
            reports.append(check_dual_holonomy(entry, n_loops, seed + 1, steps=steps))
        if riemannian and wanted("dual_vector_fields"):
            reports.append(check_dual_vector_fields(entry, n_paths, seed + 2,
                                                    steps=steps))
        if wanted("codazzi"):
            reports.append(check_codazzi(entry, n_points, seed + 3))
        if entry.companion is not None and wanted("projective_equivalence"):
            reports.append(check_projective_equivalence(entry, n_points, seed + 4))
        if wanted("unimodularity"):
            reports.append(check_unimodularity(entry, n_loops, seed + 5, steps=steps))
        if wanted("totally_geodesic_blocks"):
            for free, fixed, slice_loops in entry.block_slices:
                reports.append(check_totally_geodesic_blocks(
                    entry, free, fixed, list(slice_loops), steps=steps))
    reports.sort(key=lambda r: (r.check_name, r.entry_name))
    return reports
