"""Matrix exp/log, brackets, span maintenance, closure and classification.

The logarithm uses inverse scaling-and-squaring: repeated principal square
roots (Denman-Beavers iteration) until ||P - I||_F < 0.5, then the
alternating series log(I + X) = X - X^2/2 + ... summed to a 1e-16 term,
then scaled back by 2^k.  The exponential is plain scaling-and-squaring on
a truncated Taylor series; nilpotent arguments short-circuit to the exact
terminating sum so identities like exp(0) = I hold exactly.

Holonomy-algebra candidates are collected into a Frobenius-orthonormal
basis by modified Gram-Schmidt with a relative rank tolerance; closure
repeatedly inserts pairwise brackets until the span stabilizes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import LogUndefined, ShapeMismatch

RANK_TOL = 1e-8
SERIES_TOL = 1e-16
ISS_THRESHOLD = 0.5


def bracket(A, B):
    """Commutator AB - BA."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeMismatch(f"incompatible shapes {A.shape} and {B.shape}")
    return A @ B - B @ A


def _nilpotency_index(A, n):
    """Smallest m with A^m == 0 exactly, or None."""
    P = A.copy()
    for m in range(1, n + 1):
        if not P.any():
            return m
        P = P @ A
    return None


def mat_exp(A):
    """Matrix exponential by scaling-and-squaring of the Taylor series."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    nil = _nilpotency_index(A, n)
    if nil is not None:
        # terminating series, exact for nilpotent input (and exp(0) = I)
        out = np.eye(n)
        term = np.eye(n)
        for k in range(1, nil):
            term = term @ A / k
            out = out + term
        return out
    norm = np.linalg.norm(A, 1)
    squarings = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0.5 else 0
    B = A / (2.0 ** squarings)
    out = np.eye(n)
    term = np.eye(n)
    k = 1
    while True:
        term = term @ B / k
        out = out + term
        if np.linalg.norm(term, 'fro') < SERIES_TOL * max(1.0, np.linalg.norm(out, 'fro')):
            break
        k += 1
        if k > 200:
            break
    for _ in range(squarings):
        out = out @ out
    return out


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
        delta = np.linalg.norm(Y_next - Y, 'fro')
        Y, Z = Y_next, Z_next
        if delta <= tol * max(1.0, np.linalg.norm(Y, 'fro')):
            return Y
    raise LogUndefined("square-root iteration did not converge")


def mat_log(P):
    """Principal matrix logarithm via inverse scaling-and-squaring."""
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    eigs = np.linalg.eigvals(P)
    scale = max(1.0, float(np.abs(eigs).max()))
    on_negative_axis = (np.abs(eigs.imag) <= 1e-12 * scale) & (eigs.real <= 1e-12 * scale)
    if on_negative_axis.any():
        raise LogUndefined(f"eigenvalue on the closed negative real axis: {eigs}")
    k = 0
    R = P
    while np.linalg.norm(R - np.eye(n), 'fro') >= ISS_THRESHOLD:
        R = _principal_sqrt(R)
        k += 1
        if k > 60:
            raise LogUndefined("inverse scaling-and-squaring did not contract")
    X = R - np.eye(n)
    term = X.copy()
    out = X.copy()
    m = 1
    while np.linalg.norm(term, 'fro') >= SERIES_TOL:
        m += 1
        term = term @ X
        out = out + ((-1) ** (m + 1)) * term / m
        if m > 400:
            break
    return out * (2.0 ** k)


# ---------------------------------------------------------------------------
# Span maintenance and closure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LieAlgebraBasis:
    """Frobenius-orthonormal spanning set of n x n matrices."""

    dim_ambient: int
    basis: tuple = ()
    rank_tol: float = RANK_TOL

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, A):
        """Residual Frobenius norm of unit-normalized A outside the span."""
        A = np.asarray(A, dtype=float)
        norm = np.linalg.norm(A, 'fro')
        if norm == 0:
            return 0.0
        r = A / norm
        for b in self.basis:
            r = r - np.tensordot(r, b, axes=2) * b
        return float(np.linalg.norm(r, 'fro'))


def span_insert(basis: LieAlgebraBasis, A):
    """Insert A (unit-normalized) by modified Gram-Schmidt.

    Returns (new_basis, inserted); the candidate is rejected when its
    residual outside the current span is below rank_tol.  Candidates whose
    Frobenius norm is itself below rank_tol are treated as numerically zero
    (brackets of commuting unit-norm elements land here), otherwise
    normalizing them would promote integrator noise to a new dimension.
    """
    A = np.asarray(A, dtype=float)
    if A.shape != (basis.dim_ambient, basis.dim_ambient):
        raise ShapeMismatch(f"expected {(basis.dim_ambient,) * 2}, got {A.shape}")
    norm = np.linalg.norm(A, 'fro')
    if norm <= basis.rank_tol or len(basis.basis) >= basis.dim_ambient ** 2:
        return basis, False
    r = A / norm
    for _ in range(2):  # second pass tightens orthogonality
        for b in basis.basis:
            r = r - np.tensordot(r, b, axes=2) * b
    res = np.linalg.norm(r, 'fro')
    if res <= basis.rank_tol:
        return basis, False
    new = replace(basis, basis=basis.basis + (r / res,))
    return new, True


def closure(generators, max_dim=None, rank_tol=RANK_TOL) -> LieAlgebraBasis:
    """Smallest bracket-closed span containing the generators.

    Deterministic: generators are inserted in order, then bracket sweeps run
    in pair-lexicographic order until a full sweep inserts nothing or the
    dimension cap is reached.
    """
    gens = [np.asarray(g, dtype=float) for g in generators]
    if not gens:
        raise ValueError("closure needs at least one generator")
    n = gens[0].shape[0]
    if max_dim is None:
        max_dim = n * n
    basis = LieAlgebraBasis(dim_ambient=n, rank_tol=rank_tol)
    for g in gens:
        basis, _ = span_insert(basis, g)
        if basis.dim >= max_dim:
            return basis
    while True:
        grew = False
        elements = basis.basis
        for i in range(len(elements)):
            for j in range(i + 1, len(elements)):
                basis, inserted = span_insert(basis, bracket(elements[i], elements[j]))
                grew = grew or inserted
                if basis.dim >= max_dim:
                    return basis
        if not grew:
            return basis


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
