"""Matrix exp/log, span maintenance, closure, classification."""

import math

import numpy as np
import pytest

from hololab.catalog import (ALPHA_DERIVATIVE, BETA_DERIVATIVE, BOREL_LOG1,
                             BOREL_LOOP1_MATRIX, heisenberg_partner_generator)
from hololab.errors import LogUndefined, ShapeMismatch
from hololab.liealg import (LieAlgebraBasis, bracket, classify, closure,
                            mat_exp, mat_log, span_insert)

E = math.e


def unit(i, j, n=2):
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m


def series_exp(A, terms=60):
    out = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, terms):
        term = term @ A / k
        out = out + term
    return out


def test_bracket_standard_relations():
    assert np.array_equal(bracket(unit(0, 1), unit(1, 0)), np.diag([1.0, -1.0]))
    with pytest.raises(ShapeMismatch):
        bracket(np.eye(2), np.eye(3))


def test_bracket_heisenberg_generators():
    A = np.array([[0, 1, 0.7], [0, 0, 0], [0, 0, 0.0]])
    B = heisenberg_partner_generator(A)
    assert np.allclose(B, [[0, 0, -0.7], [0, 0, -1], [0, 0, 0]])
    assert np.allclose(bracket(B, A), unit(0, 2, 3))


def test_bracket_pseudo_orthogonal_relation():
    n = 4
    for (i, j, ei, ej) in [(0, 1, 1.0, -1.0), (1, 2, -1.0, -1.0)]:
        X = unit(i, n - 1, n) + ei * unit(n - 1, i, n)
        Y = unit(j, n - 1, n) + ej * unit(n - 1, j, n)
        expected = ej * unit(i, j, n) - ei * unit(j, i, n)
        assert np.allclose(bracket(X, Y), expected)


def test_mat_exp_exact_cases():
    assert np.array_equal(mat_exp(np.zeros((3, 3))), np.eye(3))
    N = np.array([[0, 1.3, -0.2], [0, 0, 0.7], [0, 0, 0.0]])
    assert np.array_equal(mat_exp(N), np.eye(3) + N + N @ N / 2)


def test_mat_exp_general():
    A = np.array([[-1.0, (3 - E ** 2) / (E ** 2 - 1)], [0.0, 1.0]])
    assert np.abs(mat_exp(A) - BOREL_LOOP1_MATRIX).max() < 1e-13
    rng = np.random.default_rng(5)
    for _ in range(20):
        A = rng.standard_normal((3, 3))
        assert np.abs(mat_exp(A) - series_exp(A / 8) @ series_exp(A / 8)
                      @ series_exp(A / 8) @ series_exp(A / 8)
                      @ series_exp(A / 8) @ series_exp(A / 8)
                      @ series_exp(A / 8) @ series_exp(A / 8)).max() < 1e-11


def test_mat_log_golden_closed_form():
    assert np.array_equal(mat_log(np.eye(3)), np.zeros((3, 3)))
    L = mat_log(BOREL_LOOP1_MATRIX)
    assert np.abs(L - BOREL_LOG1).max() < 1e-10
    assert np.abs(mat_exp(L) - BOREL_LOOP1_MATRIX).max() < 1e-10


def test_mat_log_unipotent_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(10):
        U = np.eye(4) + np.triu(rng.standard_normal((4, 4)), 1)
        assert np.abs(series_exp(mat_log(U)) - U).max() < 1e-12


def test_mat_log_rejects_negative_axis():
    with pytest.raises(LogUndefined):
        mat_log(np.diag([-1.0, 1.0]))
    with pytest.raises(LogUndefined):
        mat_log(np.diag([0.0, 1.0]))
    # rotation by pi has its spectrum on the negative real axis
    with pytest.raises(LogUndefined):
        mat_log(np.array([[-1.0, 0.0], [0.0, -1.0]]))


def test_exp_log_round_trip_100_cases():
    rng = np.random.default_rng(42)
    count = 0
    while count < 100:
        A = rng.standard_normal((3, 3))
        A *= rng.uniform(0.05, 0.95) / np.linalg.norm(A, 'fro')
        back = mat_log(mat_exp(A))
        assert np.abs(back - A).max() < 1e-10
        count += 1


def test_span_insert_basics():
    basis = LieAlgebraBasis(dim_ambient=2)
    basis, ins = span_insert(basis, unit(0, 1))
    assert ins and basis.dim == 1
    basis, ins = span_insert(basis, 3.0 * unit(0, 1))
    assert not ins and basis.dim == 1
    basis, ins = span_insert(basis, unit(1, 0))
    assert ins and basis.dim == 2
    flat = np.array([b.ravel() for b in basis.basis])
    assert np.abs(flat @ flat.T - np.eye(2)).max() < 1e-12
    with pytest.raises(ShapeMismatch):
        span_insert(basis, np.eye(3))
    # numerically-zero candidates are rejected instead of normalized
    basis, ins = span_insert(basis, 1e-12 * unit(0, 0))
    assert not ins


def test_closure_examples():
    assert closure([unit(0, 1)]).dim == 1
    sl2 = closure([ALPHA_DERIVATIVE, BETA_DERIVATIVE])
    assert sl2.dim == 3
    assert str(classify(sl2)) == "SL"
    A = np.array([[0, 1, 0.4], [0, 0, 0], [0, 0, 0.0]])
    heis = closure([A, heisenberg_partner_generator(A)])
    assert heis.dim == 3
    assert str(classify(heis)) == "Heisenberg"


def test_closure_deterministic_and_caps():
    gens = [ALPHA_DERIVATIVE, BETA_DERIVATIVE]
    b1 = closure(gens)
    b2 = closure(gens)
    for x, y in zip(b1.basis, b2.basis):
        assert np.array_equal(x, y)
    assert closure(gens, max_dim=2).dim == 2


def test_closure_is_bracket_closed_and_traceless():
    basis = closure([ALPHA_DERIVATIVE, BETA_DERIVATIVE])
    for i in range(basis.dim):
        for j in range(i + 1, basis.dim):
            res = basis.contains(bracket(basis.basis[i], basis.basis[j]))
            assert res < basis.rank_tol * 10
    # brackets are always traceless, and these generators are too
    for b in basis.basis:
        assert abs(np.trace(b)) < 1e-10


def test_classify_named_cases():
    assert str(classify(LieAlgebraBasis(dim_ambient=2))) == "Trivial"
    nil = closure([unit(0, 1)])
    assert str(classify(nil)) == "Abelian1D_Nilpotent"
    borel = closure([np.diag([1.0, -1.0]), unit(0, 1)])
    assert str(classify(borel)) == "Borel2D"
    # rotation and boost generators against their defining forms
    so2 = closure([np.array([[0, -1.0], [1.0, 0]])])
    assert str(classify(so2, form=np.eye(2))) == "SO2"
    so11 = closure([np.array([[0, 1.0], [1.0, 0]])])
    assert str(classify(so11, form=np.diag([1.0, -1.0]))) == "SOplus11"
    strict4 = closure([unit(0, 1, 4), unit(1, 2, 4), unit(2, 3, 4),
                       unit(0, 2, 4), unit(1, 3, 4), unit(0, 3, 4)])
    assert str(classify(strict4)) == "StrictlyUpperTriangular"
    wild = closure([np.eye(2)])
    assert str(classify(wild)) == "Unclassified(dim=1)"


def so_basis(p, q):
    n = p + q
    eta = np.diag([1.0] * p + [-1.0] * q)
    gens = []
    for i in range(n):
        for j in range(i + 1, n):
            S = np.zeros((n, n))
            S[i, j], S[j, i] = 1.0, -1.0
            gens.append(np.linalg.inv(eta) @ S)
    return closure(gens), eta


def test_classify_sopq_and_conjugation_invariance():
    basis, eta = so_basis(1, 2)
    tag = classify(basis, form=eta)
    assert tag.name == "SOpq" and tag.signature == (1, 2)
    rng = np.random.default_rng(3)
    C = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
    conjugated = closure([np.linalg.inv(C) @ b @ C for b in basis.basis])
    tag2 = classify(conjugated, form=C.T @ eta @ C)
    assert str(tag2) == str(tag)
    # the special-linear tag is conjugation-invariant as well
    sl2 = closure([ALPHA_DERIVATIVE, BETA_DERIVATIVE])
    C2 = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
    sl2c = closure([np.linalg.inv(C2) @ b @ C2 for b in sl2.basis])
    assert str(classify(sl2c)) == "SL"
