"""Holonomy-algebra sampling experiments.

Glue between transport and the Lie-algebra layer: integrate a batch of
loops, take principal logs of the transports that are close enough to the
identity, optionally add loop-family derivatives, close under brackets and
classify.  Used by the CLI ``algebra`` command and the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import liealg
from .transport import holonomy_many

# transports farther than this from I are skipped (log accuracy degrades
# and the group-level information is redundant once brackets run)
LOG_WINDOW = 0.5
# logs smaller than this are dominated by integrator noise once normalized;
# see the rank_tol discussion in liealg.span_insert
MIN_LOG_NORM = 1e-4
# singular values below this fraction of the largest are integrator noise
SVD_FLOOR = 1e-6
CLASSIFY_TOL = 1e-6  # liealg.classify tolerance on the closed basis


@dataclass
class AlgebraExperiment:
    """Result bundle of one closure experiment."""

    basis: liealg.LieAlgebraBasis
    tag: liealg.AlgebraTag
    loop_count: int = 0
    used_count: int = 0
    det_errors: list = field(default_factory=list)

    @property
    def dim(self):
        return self.basis.dim


def generators_from_loops(M, kind, loops, steps=None):
    """Principal logs of the usable loop transports, plus det diagnostics;
    the loops are integrated as one batch."""
    gens = []
    det_errors = []
    n = M.dim
    for h in holonomy_many(M, kind, loops, steps=steps):
        det_errors.append(abs(float(np.linalg.det(h.matrix))) - 1.0)
        gap = np.linalg.norm(h.matrix - np.eye(n), 'fro')
        if gap < LOG_WINDOW:
            L = liealg.mat_log(h.matrix)
            if np.linalg.norm(L, 'fro') >= MIN_LOG_NORM:
                gens.append(L)
    return gens, det_errors


def condition_generators(gens, n):
    """Rank-revealed orthogonal generating set via SVD.

    Sequentially Gram-Schmidting raw loop logs is fragile: two nearly
    parallel generators whose difference sits just above the span tolerance
    produce a basis direction dominated by integrator noise, and the error
    cascades through later projections.  Stacking the unit-normalized logs
    and keeping the right-singular directions above SVD_FLOOR * sigma_1
    averages the noise out instead.
    """
    if not gens:
        return []
    flat = np.array([np.asarray(g, dtype=float).ravel()
                     / np.linalg.norm(g, 'fro') for g in gens])
    _, svals, vt = np.linalg.svd(flat, full_matrices=False)
    keep = svals >= SVD_FLOOR * svals[0]
    return [vt[i].reshape(n, n) for i in range(len(svals)) if keep[i]]


def run_closure_experiment(M, kind, loops, extra_generators=(), form=None,
                           steps=None) -> AlgebraExperiment:
    gens, det_errors = generators_from_loops(M, kind, loops, steps=steps)
    used = len(gens)
    cleaned = condition_generators(gens, M.dim)
    cleaned += [np.asarray(g, dtype=float) for g in extra_generators]
    if not cleaned:
        basis = liealg.LieAlgebraBasis(dim_ambient=M.dim)
    else:
        basis = liealg.closure(cleaned)
    tag = liealg.classify(basis, form=form, tol=CLASSIFY_TOL)
    return AlgebraExperiment(basis=basis, tag=tag,
                             loop_count=len(loops), used_count=used,
                             det_errors=det_errors)
