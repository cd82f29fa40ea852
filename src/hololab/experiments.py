"""Holonomy-algebra sampling experiments.

Glue between transport and the Lie-algebra layer: integrate a batch of
loops, take principal logs of the transports that are close enough to the
identity, reduce them to their numerical span, optionally add loop-family
derivatives, close under brackets and classify.  Used by the CLI
``algebra`` command and the acceptance suite.
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
# logs and family derivatives smaller than this are dominated by integrator
# noise once closure normalizes them
MIN_LOG_NORM = 1e-4
CLASSIFY_TOL = 1e-6  # liealg.classify tolerance on the closed basis


@dataclass
class AlgebraExperiment:
    """Result bundle of one closure experiment."""

    basis: liealg.LieAlgebraBasis
    tag: liealg.AlgebraTag
    loop_count: int = 0
    used_count: int = 0
    det_errors: list = field(default_factory=list)
    svd_cut: tuple = (None, None)  # the loop logs' liealg.numerical_span cut

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
    the loops are integrated as one batch, without error estimates."""
    gens = []
    det_errors = []
    n = M.dim
    for h in holonomy_many(M, kind, loops, steps=steps, estimate=False):
        det_errors.append(abs(float(np.linalg.det(h.matrix))) - 1.0)
        gap = np.linalg.norm(h.matrix - np.eye(n), 'fro')
        if gap < LOG_WINDOW:
            L = liealg.mat_log(h.matrix)
            if np.linalg.norm(L, 'fro') >= MIN_LOG_NORM:
                gens.append(L)
    return gens, det_errors


def run_closure_experiment(M, kind, loops, extra_generators=(), form=None,
                           steps=None) -> AlgebraExperiment:
    """Close the numerical span of the unit-normalized loop logs, plus the
    family derivatives of at least MIN_LOG_NORM, under brackets and
    classify the result."""
    gens, det_errors = generators_from_loops(M, kind, loops, steps=steps)
    directions, svd_cut = liealg.numerical_span(
        [L / np.linalg.norm(L, 'fro') for L in gens], M.dim)
    directions += [D for D in map(np.asarray, extra_generators)
                   if np.linalg.norm(D, 'fro') >= MIN_LOG_NORM]
    basis = (liealg.closure(directions) if directions
             else liealg.LieAlgebraBasis(dim_ambient=M.dim))
    tag = liealg.classify(basis, form=form, tol=CLASSIFY_TOL)
    return AlgebraExperiment(basis=basis, tag=tag,
                             loop_count=len(loops), used_count=len(gens),
                             det_errors=det_errors, svd_cut=svd_cut)
