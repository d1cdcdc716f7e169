"""Operator wrapper, Matrix Market round trip, logarithmic norm bound."""

import json
import math

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import krylovexp as kx
from krylovexp import (KrylovConfig, SparseOperator, build_krylov, era,
                       validate_prefactor)
from krylovexp.cli import main
from krylovexp.sparse import norm2

from conftest import SIGMAS, random_unit


def test_validate_prefactor_accepts_unit_modulus():
    for s in (1.0, -1.0, 1j, -1j, np.exp(0.3j)):
        out = validate_prefactor(s)
        assert isinstance(out, complex)
        assert abs(abs(out) - 1.0) < 1e-12


def test_validate_prefactor_rejects_others():
    for s in (2.0, 0.0, 0.5j, float("nan"), complex("inf")):
        with pytest.raises(ValueError):
            validate_prefactor(s)


def test_norm2_survives_underflow():
    """np.linalg.norm squares entries of 1e-200 into 0; norm2 scales by
    a power of two first, and keeps np.linalg.norm's bits where that is
    >= 1e-150."""
    for x, squares in ((np.full(7, 1e-200), 7), (np.full(7, 1e-200 - 1e-200j), 14)):
        assert np.linalg.norm(x) == 0.0
        assert norm2(x) == pytest.approx(math.sqrt(squares) * 1e-200, rel=1e-15)
    assert norm2(np.zeros(5)) == 0.0 and norm2(np.zeros(5, dtype=complex)) == 0.0
    x = 3.7 * random_unit(40, seed=5)
    for y in (x, x.real):
        assert norm2(y) == np.linalg.norm(y)


# every public entry point that takes the phi index p, called on a heat
# problem (op, sigma, v, its m = 6 decomposition dec) at t = 0.1
PHI_INDEX_ENTRY_POINTS = {
    "era": lambda op, sigma, v, dec, p: era(dec, sigma, 0.1, p=p),
    "err1": lambda op, sigma, v, dec, p: kx.err1(dec, sigma, 0.1, p=p),
    "Approximant": lambda op, sigma, v, dec, p: kx.Approximant(dec, sigma, p).apply(0.1),
    "phi_dense": lambda op, sigma, v, dec, p: kx.phi_dense(np.diag([-1.0, -2.0]), 0.5, p),
    "phi_scalar": lambda op, sigma, v, dec, p: kx.phi_scalar(0.5, p),
    "oracle_phi": lambda op, sigma, v, dec, p: kx.oracle_phi(op, sigma, 0.1, v, p),
    "oracle_reference": lambda op, sigma, v, dec, p: kx.oracle_reference(
        kx.ProblemSpec("heat", {"n": op.n}), op, sigma, [0.1], v, p),
}


@pytest.fixture(scope="module")
def phi_index_args(heat_pair):
    op, sigma, v = heat_pair
    return op, sigma, v, build_krylov(op, v, KrylovConfig(m_max=6))


@pytest.mark.parametrize("entry", PHI_INDEX_ENTRY_POINTS)
@pytest.mark.parametrize("p", [0.5, 1.0, True, "1"], ids=repr)
def test_phi_index_must_be_an_integer(phi_index_args, entry, p):
    """A float, a bool or a string is not a phi index, even where it
    equals one, and every entry point raises ValueError (p = 0.5 once
    gave era a proven value through lgamma, and the others a TypeError
    from math.factorial)."""
    with pytest.raises(ValueError, match="integer"):
        PHI_INDEX_ENTRY_POINTS[entry](*phi_index_args, p)


@pytest.mark.parametrize("entry", PHI_INDEX_ENTRY_POINTS)
def test_phi_index_accepts_numpy_integers(phi_index_args, entry):
    call = PHI_INDEX_ENTRY_POINTS[entry]
    got, want = call(*phi_index_args, np.int64(1)), call(*phi_index_args, 1)
    assert np.array_equal(getattr(got, "value", got), getattr(want, "value", want))


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
    heat = kx.build_laplacian(6)
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


def test_log_norm_bound_is_cached_per_sigma():
    """A repeated sigma returns the stored bound without recomputing it.
    Once the stored entries are doubled in place, a recomputation at
    sigma = 1 would give 0.5, not 0.0; a new sigma, computed from the
    doubled entries, shows that the doubling reaches the bound."""
    op = SparseOperator(sp.csr_matrix(np.array([[-1.0, 2.0], [0.0, -3.0]])))
    assert op.log_norm_bound(1.0) == 0.0
    op.csr.data *= 2.0
    assert op.log_norm_bound(1.0) == 0.0
    assert op.log_norm_bound(-1.0) == 5.5   # 4.0 from the original entries


def coo_gershgorin_bound(matrix, sigma):
    """The Gershgorin bound of the hermitian part of sigma*A, through a
    COO copy of H: the centre of row i is Re H_ii, its radius the sum of
    |H_ij| over the stored j != i."""
    A = sp.csr_matrix(matrix, dtype=np.complex128)
    s = complex(sigma)
    H = ((0.5 * s) * A + (0.5 * np.conj(s)) * A.getH()).tocoo()
    H.eliminate_zeros()
    if H.nnz == 0:
        return 0.0
    off = H.row != H.col
    radius = np.bincount(H.row[off], weights=np.abs(H.data[off]), minlength=A.shape[0])
    return float(np.max(H.diagonal().real + radius))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 30),
       density=st.floats(0.0, 1.0), kind=st.sampled_from(["complex", "real", "hermitian"]),
       sigma=SIGMAS)
def test_log_norm_bound_equals_the_coo_gershgorin_formula(seed, n, density, kind, sigma):
    """Bit for bit, on random sparse matrices; the general ones may hold
    explicit zeros."""
    rng = np.random.default_rng(seed)
    A = sp.random(n, n, density=density, random_state=rng, dtype=float).tocsr()
    if kind != "real":
        A = A + 1j * sp.random(n, n, density=density, random_state=rng).tocsr()
    A = sp.csr_matrix(A)
    A.data[rng.random(A.nnz) < 0.1] = 0.0
    if kind == "hermitian":
        A = A + A.getH()
    op = SparseOperator(A, symmetry="hermitian" if kind == "hermitian" else "general")
    got, expected = op.log_norm_bound(sigma), coo_gershgorin_bound(A, sigma)
    assert np.array([got]).view(np.uint64) == np.array([expected]).view(np.uint64)


def sparse_sum_certificates(csr, sigma):
    """The log-norm bound and the Hermitian verdict through scipy's sparse
    sum of A and its conjugate transpose (which prunes the zeros it forms),
    the route an operator takes when the two patterns differ."""
    n = csr.shape[0]
    adjoint = csr.conj().T.tocsr()
    s = complex(sigma)
    H = (0.5 * s) * csr + (0.5 * np.conj(s)) * adjoint
    if H.nnz == 0:
        bound = 0.0
    else:
        rows = np.repeat(np.arange(n, dtype=H.indices.dtype), np.diff(H.indptr))
        off = H.indices != rows
        radius = np.bincount(rows[off], weights=np.abs(H.data[off]), minlength=n)
        centre = np.zeros(n)
        centre[rows[~off]] = H.data[~off].real
        bound = float(np.max(centre + radius))
    dev = abs(csr - adjoint)
    return bound, not (dev.nnz and dev.max() > 1e-12)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 25),
       density=st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0]), symmetric_pattern=st.booleans(),
       real=st.booleans(), zeros=st.sampled_from([0.0, 0.1, 0.4]),
       noise=st.sampled_from([0.0, 5e-13, 1e-12, 1.5e-12, 1e-9]), lone=st.booleans(),
       sigma=SIGMAS)
def test_one_pattern_certificates_equal_the_sparse_sum(seed, n, density, symmetric_pattern,
                                                       real, zeros, noise, lone, sigma):
    """Where A and A^* share one pattern the operator forms H and the
    Hermitian deviation from the data arrays, entry by entry; elsewhere it
    takes the sparse sum.  Either way the log-norm bound has the bits, and
    the Hermitian claim the verdict, of the sparse-sum route: on random
    Hermitian-or-nearly matrices (deviations on both sides of 1e-12, on a
    fifth of the entries or on the first stored one alone), with explicit
    zeros on and off the diagonal, and on patterns that are not
    symmetric."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    if symmetric_pattern:
        mask |= mask.T
    rows, cols = np.nonzero(mask)
    B = rng.standard_normal((n, n)) + (0 if real else 1j * rng.standard_normal((n, n)))
    A = (0.5 * (B + B.conj().T)).astype(complex)
    if lone and rows.size:
        A[rows[0], cols[0]] += 1j * noise  # alone where it sits on the diagonal
    else:
        A = A + noise * np.where(rng.random((n, n)) < 0.2, 1.0, 0.0)
    A = sp.csr_matrix((A[rows, cols], (rows, cols)), shape=(n, n), dtype=np.complex128)
    A.data[rng.random(A.nnz) < zeros] = 0.0  # explicit zeros, kept stored
    adjoint = A.conj().T.tocsr()
    aligned = (np.array_equal(A.indptr, adjoint.indptr)
               and np.array_equal(A.indices, adjoint.indices))
    assert aligned or not symmetric_pattern
    bound, hermitian = sparse_sum_certificates(A, sigma)
    op = SparseOperator(A)
    assert np.array([op.log_norm_bound(sigma)]).view(np.uint64) == np.array([bound]).view(np.uint64)
    if hermitian:
        SparseOperator(A, symmetry="hermitian")
    else:
        with pytest.raises(ValueError, match="deviates"):
            SparseOperator(A, symmetry="hermitian")


def test_duplicate_entries_are_summed_at_construction(tmp_path, monkeypatch):
    """A CSR matrix with repeated column indices is summed into canonical
    form on a copy: nnz and the build metadata count distinct entries, the
    .mtx file holds each once, and the caller's arrays are untouched."""
    data = np.array([1.0, 2.0, 0.5, -1.0, 3.0])
    indices = np.array([0, 0, 0, 1, 1], dtype=np.int32)
    indptr = np.array([0, 2, 5], dtype=np.int32)
    A = sp.csr_matrix((data, indices, indptr), shape=(2, 2), dtype=np.complex128)
    assert not A.has_canonical_format
    before = [x.copy() for x in (A.data, A.indices, A.indptr)]
    op = SparseOperator(A)
    assert op.nnz == 3 and op.csr.has_canonical_format
    assert np.array_equal(op.csr.toarray(), [[3.0, 0.0], [0.5, 2.0]])
    for now, then in zip((A.data, A.indices, A.indptr), before):
        assert np.array_equal(now, then)
    assert op.log_norm_bound(1.0) == coo_gershgorin_bound(op.csr, 1.0) == 3.25

    monkeypatch.setitem(kx.problems._PROBLEMS, "heat",
                        (lambda n: SparseOperator(A), {"n": 200}, -1.0))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problems": [{"kind": "heat"}]}))
    assert main(["build", "--config", str(cfg), "--out", str(tmp_path / "ops")]) == 0
    assert json.loads((tmp_path / "ops" / "heat.meta.json").read_text())["nnz"] == 3
    assert scipy.io.mmread(tmp_path / "ops" / "heat.mtx").nnz == 3


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
