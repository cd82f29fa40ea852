"""Matrix logarithm, brackets, numerical span, closure and classification.

The logarithm uses inverse scaling-and-squaring: repeated principal square
roots (Denman-Beavers iteration) until ||P - I||_F < 0.5, then the
alternating series log(I + X) = X - X^2/2 + ... summed to a 1e-16 term,
then scaled back by 2^k.

A span has one rank rule: stack the matrices as flattened rows, take an
SVD and keep the right-singular directions with sigma_i >= SVD_FLOOR *
sigma_1, a Frobenius-orthonormal basis.  Closure stacks that basis with
its pairwise brackets and applies the same rule until the rank stops
growing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LogUndefined, ShapeMismatch

# singular values below this fraction of the largest are integrator noise
SVD_FLOOR = 1e-6
SERIES_TOL = 1e-16
ISS_THRESHOLD = 0.5


def bracket(A, B):
    """Commutator AB - BA."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeMismatch(f"incompatible shapes {A.shape} and {B.shape}")
    return A @ B - B @ A


def _principal_sqrt(A, max_iter=100, tol=1e-15):
    """Denman-Beavers iteration; valid when no eigenvalue lies on the closed
    negative real axis."""
    Y = np.asarray(A, dtype=float)
    Z = np.eye(A.shape[0])
    for _ in range(max_iter):
        try:
            Yi = np.linalg.inv(Y)
            Zi = np.linalg.inv(Z)
        except np.linalg.LinAlgError as exc:
            raise LogUndefined(f"square-root iteration became singular: {exc}") from exc
        Y_next = 0.5 * (Y + Zi)
        Z_next = 0.5 * (Z + Yi)
        delta = _fro(Y_next - Y)
        Y, Z = Y_next, Z_next
        if delta <= tol * max(1.0, _fro(Y)):
            return Y
    raise LogUndefined("square-root iteration did not converge")


def mat_log(P):
    """Principal matrix logarithm via inverse scaling-and-squaring."""
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    X = P - np.eye(n)
    # |lambda - 1| <= ||P - I||_F: below the threshold no eigenvalue is near the axis
    if not _fro(X) < ISS_THRESHOLD:
        eigs = np.linalg.eigvals(P)
        scale = max(1.0, float(np.abs(eigs).max()))
        on_negative_axis = (np.abs(eigs.imag) <= 1e-12 * scale) & (eigs.real <= 1e-12 * scale)
        if on_negative_axis.any():
            raise LogUndefined(f"eigenvalue on the closed negative real axis: {eigs}")
    k = 0
    R = P
    while _fro(X) >= ISS_THRESHOLD:
        R = _principal_sqrt(R)
        k += 1
        if k > 60:
            raise LogUndefined("inverse scaling-and-squaring did not contract")
        X = R - np.eye(n)
    # out + (-1)^(m+1) term / m in place, x - y being x + (-y); dot is @
    term, out = X, X.copy()
    m = 1
    while _fro(term) >= SERIES_TOL:
        m += 1
        term = term.dot(X)
        (np.add if m % 2 else np.subtract)(out, term / m, out=out)
        if m > 400:
            break
    return out * (2.0 ** k)


def _fro(x):
    """np.linalg.norm(x, 'fro') of a real 2-d array, by its arithmetic."""
    x = x.ravel(order='K')
    return math.sqrt(x.dot(x))


# ---------------------------------------------------------------------------
# Numerical span and closure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LieAlgebraBasis:
    """Frobenius-orthonormal spanning set of n x n matrices; ``cut`` is the
    (last kept, first dropped) pair of the numerical_span that chose it."""

    dim_ambient: int
    basis: tuple = ()
    cut: tuple = (None, None)

    @property
    def dim(self):
        return len(self.basis)


def numerical_span(mats, n):
    """Orthonormal directions spanning the n x n matrices ``mats``: the
    right-singular directions of their rows, stacked as given, with
    sigma_i >= SVD_FLOOR * sigma_1.

    Also returns the normalized singular values sigma_i / sigma_1 on either
    side of the cut, (last kept, first dropped): first dropped is None when
    nothing was dropped, and both are None without matrices.
    """
    if not len(mats):
        return [], (None, None)
    flat = np.array([np.asarray(m, dtype=float).ravel() for m in mats])
    _, svals, vt = np.linalg.svd(flat, full_matrices=False)
    rel = svals / svals[0]
    kept = int((svals >= SVD_FLOOR * svals[0]).sum())  # svals descend
    cut = (float(rel[kept - 1]), float(rel[kept]) if kept < len(rel) else None)
    return [vt[i].reshape(n, n) for i in range(kept)], cut


def closure(generators, max_dim=None) -> LieAlgebraBasis:
    """Smallest bracket-closed span containing the generators.

    The numerical span of the unit-normalized nonzero generators is stacked
    with all its pairwise brackets, unnormalized, and reduced by
    numerical_span again, until the rank stops growing or reaches max_dim
    (the leading directions are kept).  Deterministic.
    """
    gens = [np.asarray(g, dtype=float) for g in generators]
    if not gens:
        raise ValueError("closure needs at least one generator")
    n = gens[0].shape[0]
    if any(g.shape != (n, n) for g in gens):
        raise ShapeMismatch(f"expected {(n, n)}, got {[g.shape for g in gens]}")
    if max_dim is None:
        max_dim = n * n
    span, cut = numerical_span([g / np.linalg.norm(g, 'fro') for g in gens if g.any()], n)
    while 0 < len(span) < max_dim:
        B = np.array(span)
        prods = B[:, None] @ B[None, :]
        i, j = np.triu_indices(len(B), 1)
        grown, cut = numerical_span([*B, *(prods[i, j] - prods[j, i])], n)
        if len(grown) <= len(span):
            break
        span = grown
    return LieAlgebraBasis(dim_ambient=n, basis=tuple(span[:max_dim]), cut=cut)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlgebraTag:
    name: str
    dim: int
    signature: tuple = None

    def __str__(self):
        if self.name == "SOpq":
            return f"SOpq{self.signature}"
        if self.name == "Unclassified":
            return f"Unclassified(dim={self.dim})"
        return self.name


def _signature_of(form, tol=1e-10):
    eigs = np.linalg.eigvalsh(0.5 * (form + form.T))
    return int((eigs > tol).sum()), int((eigs < -tol).sum())


def classify(basis: LieAlgebraBasis, form=None, tol=1e-6) -> AlgebraTag:
    """Best-effort match against the named candidate algebras.

    Checked in order: trivial; Heisenberg (n = 3, strictly upper, dim 3);
    full strictly-upper-triangular (n >= 3); skew family of a supplied
    bilinear form (SO2 / SO+(1,1) in dimension 2, SO(p,q) above); special
    linear (traceless, dim n^2 - 1); 2-d solvable upper-triangular; 1-d
    nilpotent.  Anything else is Unclassified with its dimension.
    """
    n = basis.dim_ambient
    dim = basis.dim
    if dim == 0:
        return AlgebraTag("Trivial", 0)
    mats = basis.basis
    traceless = all(abs(np.trace(b)) <= tol for b in mats)
    strictly_upper = all(np.abs(np.tril(b)).max() <= tol for b in mats)
    upper = all(np.abs(np.tril(b, -1)).max() <= tol for b in mats)
    if n == 3 and dim == 3 and strictly_upper:
        return AlgebraTag("Heisenberg", dim)
    if n >= 3 and strictly_upper and dim == n * (n - 1) // 2:
        return AlgebraTag("StrictlyUpperTriangular", dim)
    if form is not None:
        form = np.asarray(form, dtype=float)
        skew = all(np.abs(b.T @ form + form @ b).max() <= tol * max(1.0, np.abs(form).max())
                   for b in mats)
        if skew and dim == n * (n - 1) // 2:
            p, q = _signature_of(form)
            if n == 2:
                return AlgebraTag("SO2" if q == 0 or p == 0 else "SOplus11", dim, (p, q))
            return AlgebraTag("SOpq", dim, (p, q))
    if traceless and dim == n * n - 1:
        return AlgebraTag("SL", dim)
    if n == 2 and dim == 2 and upper and traceless:
        return AlgebraTag("Borel2D", dim)
    if n == 2 and dim == 1 and np.abs(mats[0] @ mats[0]).max() <= tol:
        return AlgebraTag("Abelian1D_Nilpotent", dim)
    return AlgebraTag("Unclassified", dim)
