"""Holonomy-algebra sampling experiments.

Glue between transport and the Lie-algebra layer: integrate a batch of
loops, take principal logs of the transports that are close enough to the
identity, optionally add loop-family derivatives, close under brackets and
classify.  Used by the CLI ``algebra`` command and the acceptance suite.
"""

from __future__ import annotations

import math
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
    svd_cut: tuple = (None, None)  # see condition_generators

    @property
    def dim(self):
        return self.basis.dim

    @property
    def dimension_margin_digits(self):
        """Decimal digits between the last kept and the first dropped
        normalized singular value of the loop logs, or None when nothing
        was dropped."""
        last_kept, first_dropped = self.svd_cut
        if first_dropped is None:
            return None
        return math.log10(last_kept / first_dropped)


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

    Returns the kept directions and the normalized singular values
    sigma_i / sigma_1 on either side of the cut, (last kept, first
    dropped): first dropped is None when nothing was dropped, and both are
    None without generators.
    """
    if not gens:
        return [], (None, None)
    flat = np.array([np.asarray(g, dtype=float).ravel()
                     / np.linalg.norm(g, 'fro') for g in gens])
    _, svals, vt = np.linalg.svd(flat, full_matrices=False)
    keep = svals >= SVD_FLOOR * svals[0]
    rel = svals / svals[0]
    kept = int(keep.sum())  # svals descend, so the kept ones come first
    cut = (float(rel[kept - 1]), float(rel[kept]) if kept < len(rel) else None)
    return [vt[i].reshape(n, n) for i in range(kept)], cut


def run_closure_experiment(M, kind, loops, extra_generators=(), form=None,
                           steps=None) -> AlgebraExperiment:
    gens, det_errors = generators_from_loops(M, kind, loops, steps=steps)
    used = len(gens)
    cleaned, svd_cut = condition_generators(gens, M.dim)
    cleaned += [np.asarray(g, dtype=float) for g in extra_generators]
    if not cleaned:
        basis = liealg.LieAlgebraBasis(dim_ambient=M.dim)
    else:
        basis = liealg.closure(cleaned)
    tag = liealg.classify(basis, form=form, tol=CLASSIFY_TOL)
    return AlgebraExperiment(basis=basis, tag=tag,
                             loop_count=len(loops), used_count=used,
                             det_errors=det_errors, svd_cut=svd_cut)
