"""Operator wrapper, Matrix Market round trip, logarithmic norm bound."""

import numpy as np
import pytest
import scipy.sparse as sp

import krylovexp as kx
from krylovexp import (KrylovConfig, SparseOperator, build_krylov, era,
                       validate_prefactor)

from conftest import random_unit


def test_validate_prefactor_accepts_unit_modulus():
    for s in (1.0, -1.0, 1j, -1j, np.exp(0.3j)):
        out = validate_prefactor(s)
        assert isinstance(out, complex)
        assert abs(abs(out) - 1.0) < 1e-12


def test_validate_prefactor_rejects_others():
    for s in (2.0, 0.0, 0.5j, float("nan"), complex("inf")):
        with pytest.raises(ValueError):
            validate_prefactor(s)


def test_operator_basic_properties():
    A = sp.csr_matrix(np.array([[1.0, -2.0], [0.0, 3.0]]))
    op = SparseOperator(A)
    assert op.n == 2
    assert op.nnz == 3
    assert op.norm_1 == 5.0   # column sums (1, 5)
    assert op.norm_inf == 3.0  # row sums (3, 3)
    assert op.symmetry == "general"


def test_operator_matvec():
    A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    op = SparseOperator(A, symmetry="hermitian")
    v = np.array([2.0, -1.0])
    assert np.array_equal(op.matvec(v), np.array([-1.0, 2.0]))
    with pytest.raises(ValueError):
        op.matvec(np.ones(3))


def test_real_operator_multiplies_real_vectors_in_float64(hubbard_op):
    """is_real goes by value, so a complex-typed Laplacian counts as real;
    csr stays complex128.  The float64 values are stored as DIA where the
    stored diagonals hold at most 1.25 nnz values (the stencil problems)
    and as CSR otherwise, and either way a real matvec gives the bits of
    the complex CSR product's real part."""
    cd, _ = kx.ProblemSpec("convection_diffusion").build()
    heat, _ = kx.build_heat(6)
    scattered = SparseOperator(sp.random(300, 300, density=0.05, random_state=3))
    for op, storage in ((cd, sp.dia_matrix), (heat, sp.dia_matrix),
                        (scattered, sp.csr_matrix)):
        assert op.is_real and op.csr.dtype == np.complex128
        assert type(op._real) is storage
        x = random_unit(op.n, seed=5, complex_=False)
        y = op.matvec(x)
        assert y.dtype == np.float64
        assert np.array_equal(y, (op.csr @ x).real)
        assert op.matvec(x + 0j).dtype == np.complex128
    for op in (cd, heat):
        assert op._real.data.size <= 1.25 * op.nnz
    coo = scattered.csr.tocoo()
    assert np.unique(coo.col - coo.row).size > 100
    for op in (hubbard_op, SparseOperator(sp.csr_matrix(np.array([[1.0, 1j], [-1j, 2.0]])),
                                          symmetry="hermitian")):
        assert not op.is_real
        x = random_unit(op.n, seed=5, complex_=False)
        y = op.matvec(x)
        assert y.dtype == np.complex128
        assert np.array_equal(y, op.csr @ x)


def test_operator_rejects_bad_matrices():
    with pytest.raises(ValueError):
        SparseOperator(sp.csr_matrix((2, 3)))
    with pytest.raises(ValueError):
        SparseOperator(sp.csr_matrix(np.array([[np.inf]])))
    with pytest.raises(ValueError):
        SparseOperator(sp.identity(3), symmetry="skew")


def test_hermitian_claim_is_verified():
    good = np.array([[1.0, 2j], [-2j, 0.5]])
    SparseOperator(sp.csr_matrix(good), symmetry="hermitian")
    bad = np.array([[1.0, 2j], [2j, 0.5]])
    with pytest.raises(ValueError):
        SparseOperator(sp.csr_matrix(bad), symmetry="hermitian")


def test_matrix_market_round_trip_general(tmp_path):
    rng = np.random.default_rng(20)
    A = sp.random(12, 12, density=0.3, random_state=21, dtype=float)
    A = sp.csr_matrix(A + 1j * sp.random(12, 12, density=0.3, random_state=22))
    op = SparseOperator(A)
    path = tmp_path / "mat.mtx"
    op.to_matrix_market(path)
    back = SparseOperator.from_matrix_market(path)
    assert back.symmetry == "general"
    assert (op.csr != back.csr).nnz == 0


def test_matrix_market_round_trip_hermitian(tmp_path, hubbard_op):
    path = tmp_path / "hub.mtx"
    hubbard_op.to_matrix_market(path)
    back = SparseOperator.from_matrix_market(path)
    assert back.symmetry == "hermitian"
    assert back.n == hubbard_op.n
    dev = abs(back.csr - hubbard_op.csr)
    assert dev.nnz == 0 or dev.max() < 1e-15


def test_log_norm_bound_dominates_eigvalsh():
    """The Gershgorin value bounds the largest eigenvalue of the hermitian
    part of sigma*A from above, and is exact for a diagonal matrix."""
    rng = np.random.default_rng(23)
    A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    op = SparseOperator(sp.csr_matrix(A))
    for sigma in (1.0, -1.0, -1j, np.exp(0.3j)):
        H = 0.5 * (sigma * A + np.conj(sigma) * A.conj().T)
        assert op.log_norm_bound(sigma) >= np.linalg.eigvalsh(H)[-1]
    diag = SparseOperator(sp.diags([-3.0, 1.0 + 2j, -0.5]))
    assert diag.log_norm_bound(1.0) == 1.0
    assert diag.log_norm_bound(-1j) == 2.0
    with pytest.raises(ValueError):
        op.log_norm_bound(2.0)


def test_log_norm_bound_is_zero_on_canonical_pairs():
    """Every shipped problem is certified nonexpansive at its own sigma,
    with no rounding slack."""
    for kind in ("schrodinger_free", "heat", "hubbard", "convection_diffusion"):
        op, sigma = kx.ProblemSpec(kind).build()
        assert op.log_norm_bound(sigma) == 0.0, kind


def test_log_norm_bound_rejects_expansive_pairs(heat_pair, hubbard_op):
    op, _, _ = heat_pair
    assert op.log_norm_bound(1.0) == 1.0
    assert hubbard_op.log_norm_bound(1.0) == 18.5
    assert hubbard_op.log_norm_bound(-1.0) == 29.5
    # a skew-hermitian sigma*A has an all-zero hermitian part
    assert hubbard_op.log_norm_bound(1j) == 0.0
    assert SparseOperator(sp.csr_matrix((3, 3))).log_norm_bound(1.0) == 0.0


def test_log_norm_bound_is_cached_per_sigma(monkeypatch):
    op = SparseOperator(sp.csr_matrix(np.array([[-1.0, 2.0], [0.0, -3.0]])))
    first = op.log_norm_bound(1.0)
    calls = []
    original = op.csr.getH
    monkeypatch.setattr(op.csr, "getH", lambda: calls.append(1) or original())
    assert op.log_norm_bound(1.0) == first and calls == []
    op.log_norm_bound(-1.0)
    assert calls == [1]


def test_matrix_market_round_trip_keeps_era_proven(tmp_path, heat_pair):
    """An operator loaded from a .mtx file is certified from its entries,
    so its bounds are proven exactly as for the built operator."""
    op, sigma, v = heat_pair
    path = tmp_path / "heat.mtx"
    op.to_matrix_market(path)
    back = SparseOperator.from_matrix_market(path)
    assert back.log_norm_bound(sigma) == 0.0
    dec = build_krylov(back, v, KrylovConfig(m_max=10))
    assert era(dec, sigma, 1.0).is_proven_upper_bound
    assert not era(dec, 1.0, 1.0).is_proven_upper_bound
