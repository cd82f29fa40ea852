"""Numerical checks binding the duality / equivalence / block-structure
statements to catalog entries and random inputs.

Each check samples deterministically from a seed, aggregates the worst
violation, and returns a CheckReport that serializes to JSON with stable
field names.  The full suite over the default catalog at the stated
tolerances is the package's core guarantee.

A transport check is a plan and a judge.  The plan draws the check's
seeded paths or loops (each loop validated) and requests their transfer
matrices by connection kind and direction (vectors or covectors); the
judge turns the matrices into the CheckReport.  ``_judged`` integrates the
requests of all the plans it is given as one ``path_transport_many`` batch
per kind, direction and error target (the engine gives a segment the same
bits in any batch), then judges each plan: a ``check_*`` function its own
plan, ``default_suite`` all the plans of an entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .catalog import CatalogEntry
from .errors import HololabError
from .manifold import (ConnectionKind, amari_chentsov_many, christoffel_many,
                       nabla_h_many, weighted_metric_at, weighted_metrics_at)
from .transport import (path_transport_many, polyline_segments,
                        predicted_block_transport, random_rectangle_loops)

MAX_DETAILS = 5
# step-controlled transports of a check integrate to this fraction of its
# tolerance, so the transport error stays three digits below it
TARGET_FRACTION = 1e-3
# tolerance of every check but projective_equivalence
CHECK_TOL = 1e-6
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
    """violations: list of (where, value); worst five kept as details, a
    non-finite value (NaN or inf) counting as worse than any finite one, so
    that it is the report's max_violation and fails it.  A report without
    samples has checked nothing and does not pass."""
    worst = sorted(violations, key=lambda t: -t[1] if math.isfinite(t[1]) else -math.inf)
    max_violation = float(worst[0][1]) if worst else 0.0
    return CheckReport(
        check_name=check_name,
        entry_name=entry_name,
        samples=len(violations),
        max_violation=max_violation,
        tol=tol,
        passed=bool(violations) and max_violation <= tol,
        details=[{"where": w, "violation": float(v)} for w, v in worst[:MAX_DETAILS]],
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


def _loop_paths(entry, loops):
    """Segment lists of ``loops``, each loop validated on the entry's chart."""
    for loop in loops:
        loop.validate(entry.manifold.chart)
    return [loop.segments for loop in loops]


def _metrics_at_ends(entry, paths):
    """(h at the start, h at the end) of each path, h = e^{-phi} g, from
    one evaluation over all the ends."""
    ends = np.array([p for path in paths for p in (path[0].start, path[-1].end)])
    h = iter(weighted_metrics_at(entry.manifold, ends.reshape(-1, entry.dim)))
    return list(zip(h, h))


def _require_riemannian(entry):
    p, q = entry.manifold.metric.signature
    if q != 0:
        raise ValueError(f"{entry.name}: check requires a Riemannian metric")


# ---------------------------------------------------------------------------
# Plans and their integration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Plan:
    """A check's transports and its judge.  ``requests`` lists (kind,
    covector, paths), the paths as segment lists, integrated to ``target``
    (None on a fixed grid); ``judge`` gets one list of transfer matrices per
    request, in path order, and returns the CheckReport."""

    requests: tuple
    target: float | None
    judge: Callable


def _unplanned(check, *args):
    """Plan of a check that transports nothing: ``check(*args)`` runs whole
    when it is judged."""
    return _Plan((), None, partial(check, *args))


def _attempt(make, *args):
    """``make(*args)``, or, if drawing that plan fails, a plan that
    transports nothing and raises the failure when it is judged."""
    try:
        return make(*args)
    except HololabError as exc:
        failure = exc

        def judge():
            raise failure
        return _Plan((), None, judge)


def _judged(M, steps, plans):
    """Reports of ``plans``, in order.  Their requests are integrated as one
    batch per (kind, covector, target), in the order the keys first appear,
    before any plan is judged on its matrices."""
    batches = {}
    for plan in plans:
        for kind, covector, paths in plan.requests:
            batches.setdefault((kind, covector, plan.target), []).extend(paths)
    matrices = {}
    for (kind, covector, target), paths in batches.items():
        matrices[kind, covector, target] = iter([P for P, _ in path_transport_many(
            M, kind, paths, steps=steps, covector=covector, error_target=target,
            estimate=False)])
    return [plan.judge(*[[next(matrices[kind, covector, plan.target]) for _ in paths]
                         for kind, covector, paths in plan.requests])
            for plan in plans]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _plan_duality_pairing(entry, n_paths, seed, tol, steps):
    _require_riemannian(entry)
    paths = _random_open_paths(entry, n_paths, seed)

    def judge(weighted, dual):
        violations = []
        for k, (path, Pw, Pd, (h0, h1)) in enumerate(
                zip(paths, weighted, dual, _metrics_at_ends(entry, paths))):
            viol = float(np.abs(Pw.T @ h1 @ Pd - h0).max())
            violations.append((f"path {k} from {path[0].start.tolist()}", viol))
        return _report("duality_pairing", entry.name, tol, violations)
    return _Plan(((ConnectionKind.WEIGHTED, False, paths),
                  (ConnectionKind.DUAL_WEIGHTED, False, paths)),
                 _target(tol, steps), judge)


def check_duality_pairing(entry: CatalogEntry, n_paths=20, seed=0, tol=CHECK_TOL,
                          steps=None) -> CheckReport:
    """Transport dual pairs along open paths: the e^{-phi} g pairing of a
    weighted-transported frame with a dual-transported frame is constant."""
    plan = _plan_duality_pairing(entry, n_paths, seed, tol, steps)
    return _judged(entry.manifold, steps, [plan])[0]


def _plan_dual_holonomy(entry, n_loops, seed, tol, steps):
    _require_riemannian(entry)
    loops = _loop_paths(entry, random_rectangle_loops(
        entry.manifold, entry.sample_region, n_loops, seed, basepoint=entry.basepoint))

    def judge(weighted, dual):
        H = weighted_metric_at(entry.manifold, entry.basepoint)
        Hinv = np.linalg.inv(H)
        violations = []
        for k, (Pw, Pd) in enumerate(zip(weighted, dual)):
            predicted = Hinv @ np.linalg.inv(Pw).T @ H
            violations.append((f"loop {k}", float(np.abs(Pd - predicted).max())))
        return _report("dual_holonomy", entry.name, tol, violations)
    return _Plan(((ConnectionKind.WEIGHTED, False, loops),
                  (ConnectionKind.DUAL_WEIGHTED, False, loops)),
                 _target(tol, steps), judge)


def check_dual_holonomy(entry: CatalogEntry, n_loops=20, seed=1, tol=CHECK_TOL,
                        steps=None) -> CheckReport:
    """Loop transports of the dual pair are adjoint-inverse in the weighted
    pairing at the basepoint."""
    plan = _plan_dual_holonomy(entry, n_loops, seed, tol, steps)
    return _judged(entry.manifold, steps, [plan])[0]


def _plan_dual_vector_fields(entry, n_paths, seed, tol, steps):
    _require_riemannian(entry)
    paths = _random_open_paths(entry, n_paths, seed)

    def judge(weighted, dual):
        rng = np.random.default_rng(seed + 1000)
        violations = []
        for k, (Pw, Pcov, (h0, h1)) in enumerate(
                zip(weighted, dual, _metrics_at_ends(entry, paths))):
            v0 = rng.standard_normal(entry.dim)
            v0 /= np.linalg.norm(v0)
            a0 = h0 @ v0
            viol = float(np.abs(Pcov @ a0 - h1 @ (Pw @ v0)).max())
            violations.append((f"path {k}", viol))
        return _report("dual_vector_fields", entry.name, tol, violations)
    return _Plan(((ConnectionKind.WEIGHTED, False, paths),
                  (ConnectionKind.DUAL_WEIGHTED, True, paths)),
                 _target(tol, steps), judge)


def check_dual_vector_fields(entry: CatalogEntry, n_paths=20, seed=2,
                             tol=CHECK_TOL, steps=None) -> CheckReport:
    """A weighted-parallel vector field stays paired with the
    dual-transported 1-form h(V, .)."""
    plan = _plan_dual_vector_fields(entry, n_paths, seed, tol, steps)
    return _judged(entry.manifold, steps, [plan])[0]


def check_codazzi(entry: CatalogEntry, n_points=50, seed=3,
                  tol=CHECK_TOL) -> CheckReport:
    """nabla^w of e^{-phi} g is totally symmetric and equals the symmetric
    density 3-tensor; the dual derivative equals its negative.

    Evaluated in batch over the sample points, one pass of the geometry's
    program per tensor."""
    M = entry.manifold
    pts = entry.random_points(n_points, seed)
    M.chart.require_inside(pts)
    D = amari_chentsov_many(M, pts)
    Tw = nabla_h_many(M, ConnectionKind.WEIGHTED, pts)
    Td = nabla_h_many(M, ConnectionKind.DUAL_WEIGHTED, pts)
    gaps = [np.abs(Tw - np.transpose(Tw, perm))
            for perm in [(0, 1, 3, 2), (0, 2, 1, 3), (0, 3, 2, 1)]]
    gaps += [np.abs(Tw - D), np.abs(Td + D)]
    viol = np.max([gap.max(axis=(1, 2, 3)) for gap in gaps], axis=0)
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
    gaps = np.abs(gw - gl).max(axis=(1, 2, 3))
    violations = [(f"point {np.round(x, 4).tolist()}", float(g))
                  for x, g in zip(pts, gaps)]
    return _report("projective_equivalence", entry.name, tol, violations)


def _plan_totally_geodesic_blocks(entry, free_indices, fixed_values, loops, tol, steps):
    target = _target(tol, steps)

    def judge(ambients):
        violations = []
        for k, (loop, ambient) in enumerate(zip(loops, ambients)):
            predicted = predicted_block_transport(entry.manifold, free_indices,
                                                  fixed_values, loop, steps=steps,
                                                  error_target=target)
            violations.append((f"loop {k}", float(np.abs(predicted - ambient).max())))
        return _report("totally_geodesic_blocks", entry.name, tol, violations)
    return _Plan(((ConnectionKind.WEIGHTED, False, _loop_paths(entry, loops)),),
                 target, judge)


def check_totally_geodesic_blocks(entry: CatalogEntry, free_indices, fixed_values,
                                  loops, tol=CHECK_TOL, steps=None) -> CheckReport:
    """Block-assembled prediction vs full ambient weighted holonomy, both
    integrated to the same error target.  Each loop's prediction is a batch
    of its own, integrated when the check is judged."""
    plan = _plan_totally_geodesic_blocks(entry, free_indices, fixed_values, loops, tol,
                                         steps)
    return _judged(entry.manifold, steps, [plan])[0]


def _plan_unimodularity(entry, n_loops, seed, tol, steps):
    loops = _loop_paths(entry, random_rectangle_loops(
        entry.manifold, entry.sample_region, n_loops, seed, basepoint=entry.basepoint))

    def judge(weighted):
        violations = [(f"loop {k}", float(abs(np.linalg.det(P) - 1.0)))
                      for k, P in enumerate(weighted)]
        return _report("unimodularity", entry.name, tol, violations)
    return _Plan(((ConnectionKind.WEIGHTED, False, loops),), _target(tol, steps), judge)


def check_unimodularity(entry: CatalogEntry, n_loops=20, seed=5, tol=CHECK_TOL,
                        steps=None) -> CheckReport:
    """Weighted loop transports have unit determinant on orientable charts."""
    plan = _plan_unimodularity(entry, n_loops, seed, tol, steps)
    return _judged(entry.manifold, steps, [plan])[0]


# ---------------------------------------------------------------------------
# Suite driver
# ---------------------------------------------------------------------------

def default_suite(entries, seed=0, n_paths=20, n_loops=20, n_points=50,
                  steps=None, checks=None):
    """Run every applicable check over the given entries; reports are
    ordered by (check_name, entry_name).  Transports are step-controlled
    unless ``steps`` pins a fixed grid.  ``checks``, if given, names the
    checks to run; the others are skipped, and each check keeps its seed,
    so its reports equal those of the full suite.

    Entry by entry, the transports of all the checks are integrated as one
    batch per connection kind and direction: weighted vectors, then dual
    vectors, then dual covectors; each block prediction is a batch of its
    own.  A report equals that of its ``check_*`` alone.  The first failure
    is reported: one in the entry's batches comes first, since they are
    integrated before any check is judged; then the checks are judged in
    the order below, and a check's own failure, one in drawing its loops
    included, is raised at its turn."""
    def wanted(name):
        return checks is None or name in checks

    reports = []
    for entry in entries:
        riemannian = entry.manifold.metric.signature[1] == 0
        plans = []
        if riemannian and wanted("duality_pairing"):
            plans.append(_attempt(_plan_duality_pairing, entry, n_paths, seed,
                                  CHECK_TOL, steps))
        if riemannian and wanted("dual_holonomy"):
            plans.append(_attempt(_plan_dual_holonomy, entry, n_loops, seed + 1,
                                  CHECK_TOL, steps))
        if riemannian and wanted("dual_vector_fields"):
            plans.append(_attempt(_plan_dual_vector_fields, entry, n_paths, seed + 2,
                                  CHECK_TOL, steps))
        if wanted("codazzi"):
            plans.append(_unplanned(check_codazzi, entry, n_points, seed + 3))
        if entry.companion is not None and wanted("projective_equivalence"):
            plans.append(_unplanned(check_projective_equivalence, entry, n_points,
                                    seed + 4))
        if wanted("unimodularity"):
            plans.append(_attempt(_plan_unimodularity, entry, n_loops, seed + 5,
                                  CHECK_TOL, steps))
        if wanted("totally_geodesic_blocks"):
            for free, fixed, slice_loops in entry.block_slices:
                plans.append(_attempt(_plan_totally_geodesic_blocks, entry, free, fixed,
                                      list(slice_loops), CHECK_TOL, steps))
        reports += _judged(entry.manifold, steps, plans)
    reports.sort(key=lambda r: (r.check_name, r.entry_name))
    return reports
