"""Small dense kernels against scipy and scalar closed forms."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import krylovexp as kx
from krylovexp.dense import (_PADE13_B, _PADE13_THETA, expm_dense, phi_dense, phi_scalar,
                             symtrid_eig)


def random_matrix(m, seed, complex_=True):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, m))
    if complex_:
        A = A + 1j * rng.standard_normal((m, m))
    return A


def real_symmetric_tridiagonal(m, seed):
    rng = np.random.default_rng(seed)
    d = rng.standard_normal(m)
    e = rng.standard_normal(m - 1)
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


@pytest.mark.parametrize("A", [
    random_matrix(7, 0), random_matrix(7, 1), random_matrix(7, 2),
    real_symmetric_tridiagonal(9, 4), random_matrix(30, 5),
    random_matrix(32, 6, complex_=False),
], ids=["0", "1", "2", "symtrid", "30", "32-real"])
def test_expm_matches_scipy(A):
    for z in (1.0, -1j, 0.5 - 0.25j, -2.0):
        got = expm_dense(z * A)
        ref = scipy.linalg.expm(z * A)
        assert np.linalg.norm(got - ref) < 1e-12 * np.linalg.norm(ref)


def nested_pade13(M):
    """Degree-13 Pade of e^M as U and V nested around M^6, solved by
    np.linalg.solve: the reference for expm_dense's Pade step."""
    b = _PADE13_B
    n = M.shape[0]
    ident = np.eye(n, dtype=M.dtype)
    M2 = M @ M
    M4 = M2 @ M2
    M6 = M2 @ M4
    U = M @ (M6 @ (b[13] * M6 + b[11] * M4 + b[9] * M2)
             + b[7] * M6 + b[5] * M4 + b[3] * M2 + b[1] * ident)
    V = (M6 @ (b[12] * M6 + b[10] * M4 + b[8] * M2)
         + b[6] * M6 + b[4] * M4 + b[2] * M2 + b[0] * ident)
    return np.linalg.solve(V - U, V + U)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 34), complex_=st.booleans(),
       hessenberg=st.booleans(), frac=st.floats(1e-8, 1.0))
def test_stacked_pade_matches_the_nested_form(seed, m, complex_, hessenberg, frac):
    """Below the scaling threshold expm_dense is one Pade step, and its
    stacked [I, M^2, M^4, M^6] form and LAPACK solve agree with the nested
    form to 1e-13 in the relative 1-norm (worst of 3000 seeded draws: 3.2e-14,
    at m = 1; 5.1e-14 on 1 x 1 matrices around the circle |M| = theta_13)."""
    A = random_matrix(m, seed, complex_)
    if hessenberg:
        A = np.triu(A, -1)
    M = A * (frac * _PADE13_THETA / np.abs(A).sum(axis=0).max())
    ref = nested_pade13(M)
    got = expm_dense(M)
    assert got.dtype == M.dtype
    assert np.abs(got - ref).sum(axis=0).max() <= 1e-13 * np.abs(ref).sum(axis=0).max()


@pytest.mark.parametrize("p", [0, 1, 3])
def test_dense_kernels_compute_in_the_field_of_zT(p):
    """Real T with real z stays float64, with the zero shortcut's identity;
    a complex z, even with a zero imaginary part, takes the complex path,
    and the two agree."""
    T = random_matrix(6, 7, complex_=False)
    real = phi_dense(T, 0.7, p)
    cplx = phi_dense(T, 0.7 + 0j, p)
    assert real.dtype == np.float64 and cplx.dtype == np.complex128
    assert np.linalg.norm(real - cplx) <= 1e-14 * np.linalg.norm(cplx)
    assert expm_dense(0.0 * T).dtype == np.float64
    assert expm_dense(0.0j * T).dtype == np.complex128
    assert expm_dense(0.5 * random_matrix(4, 8)).dtype == np.complex128


def test_expm_large_norm_scaling_path():
    A = 40.0 * random_matrix(6, 3)
    ref = scipy.linalg.expm(A)
    assert np.linalg.norm(expm_dense(A) - ref) < 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("m, qs", [(10, (0, 1, 2)), (20, (0, 1, 2)), (25, (0, 1, 2)),
                                   (27, (0,))])
def test_pade_keeps_the_tiny_corner(m, qs):
    """The reason expm_dense exists: the defect and err1 read the corner
    e_m^T phi_q(zT) e_1 ~ gamma z^{m-1} / (m-1+q)!, which a low Pade
    degree (scipy.linalg.expm's choice at small norm) loses.  On default
    convection-diffusion (Arnoldi, real T, sigma = 1) at ||zT||_1 = 1e-6
    the fixed degree 13 keeps the leading term wherever m - 1 + q <= 26."""
    spec = kx.ProblemSpec("convection_diffusion")
    op, sigma = spec.build()
    dec = kx.build_krylov(op, kx.starting_vector(spec), kx.KrylovConfig(m_max=m))
    assert dec.mode == "arnoldi" and sigma == 1.0 and not np.iscomplexobj(dec.T)
    z = 1e-6 / np.linalg.norm(dec.T, 1)
    for q in qs:
        lead = math.exp(dec.log_gamma + (m - 1) * math.log(z) - math.lgamma(m + q))
        assert abs(dec.corner(sigma, q, z) / lead - 1.0) < 1e-5, q


def test_singular_pade_denominator_raises(monkeypatch):
    """A Pade denominator that LAPACK reports singular raises LinAlgError.
    (Scaling keeps the 1-norm below theta_13 = 5.37, and every zero of the
    degree-13 denominator lies beyond 17, so a finite input never meets
    one: the solver is made to report it.)"""
    real_get = kx.dense.get_lapack_funcs
    solves = []

    def get_lapack_funcs(names, arrays):
        gesv = real_get(names, arrays)

        def failing_gesv(a, b):
            solves.append(1)
            lu, piv, x, info = gesv(a, b)
            return lu, piv, x, 1
        return failing_gesv

    monkeypatch.setattr(kx.dense, "get_lapack_funcs", get_lapack_funcs)
    with pytest.raises(np.linalg.LinAlgError, match="denominator"):
        expm_dense(random_matrix(4, 11))
    assert len(solves) == 1


def test_expm_zero_matrix():
    assert np.array_equal(expm_dense(np.zeros((3, 3))), np.eye(3))


def test_expm_rejects_bad_input():
    with pytest.raises(ValueError):
        expm_dense(np.ones((2, 3)))
    with pytest.raises(ValueError):
        expm_dense(np.array([[np.nan]]))
    with pytest.raises(OverflowError):
        expm_dense(np.array([[2000.0, 0.0], [0.0, 2000.0]]) + 0j)


def test_phi_dense_p_zero_is_exponential_column():
    A = random_matrix(5, 5)
    assert np.array_equal(phi_dense(A, -1j, 0), expm_dense(-1j * A)[:, 0])


@pytest.mark.parametrize("p", [1, 2, 3])
def test_phi_dense_recurrence_identity(p):
    """phi_p(M) = M^{-1} (phi_{p-1}(M) - I/(p-1)!), checked as the action
    on e_1 with the inverse applied by a dense solve."""
    A = random_matrix(6, 6)
    z = 0.9 - 0.4j
    M = z * A
    e1 = np.zeros(6, dtype=complex)
    e1[0] = 1.0
    prev = phi_dense(A, z, p - 1)
    rhs = prev - e1 / math.factorial(p - 1)
    expected = np.linalg.solve(M, rhs)
    got = phi_dense(A, z, p)
    assert np.linalg.norm(got - expected) < 1e-12


def test_phi_dense_rejects_bad_input():
    with pytest.raises(ValueError):
        phi_dense(np.ones((2, 2)), 1.0, -1)
    with pytest.raises(ValueError):
        phi_dense(np.ones(4), 1.0, 1)
    # phi_{-1} does not exist, at any |z|: neither e^z nor a factorial error
    for z in ([2.0], [0.5]):
        with pytest.raises(ValueError, match="p must be >= 0"):
            phi_scalar(z, -1)


def test_stacked_phi_dense_is_each_z_alone():
    """phi_dense takes one scalar z: a sequence of z, which z * T would
    broadcast across T's columns, raises ValueError."""
    for z in ([0.5, 0.25], np.array([0.5, 0.25]), [0.5], [], [[0.5]]):
        for p in (0, 1):
            with pytest.raises(ValueError, match="scalar z"):
                phi_dense(np.eye(2), z, p)


def test_stacked_expm_guards():
    """A (k, n, n) stack raises ValueError before any guard looks at its
    matrices."""
    ok = random_matrix(3, 10)
    nan = np.full((3, 3), np.nan)
    big = np.diag([2000.0, 0.0, 0.0]) + 0j
    for stack in (np.zeros((2, 3, 3)), np.array([ok, nan, ok]), np.array([ok, big])):
        with pytest.raises(ValueError, match="square matrix"):
            expm_dense(stack)


def test_phi_scalar_closed_forms():
    for z in (2.0 + 0j, -3.0 + 1j, 0.3 - 0.1j):
        assert abs(phi_scalar(z, 0)[0] - np.exp(z)) < 1e-14 * abs(np.exp(z))
        phi1 = (np.exp(z) - 1.0) / z
        assert abs(phi_scalar(z, 1)[0] - phi1) < 1e-13 * abs(phi1)
        phi2 = (np.exp(z) - 1.0 - z) / z ** 2
        assert abs(phi_scalar(z, 2)[0] - phi2) < 1e-12 * abs(phi2)


def test_phi_scalar_small_argument_no_cancellation():
    # (e^z - 1)/z in plain float arithmetic loses digits near zero; the
    # series branch must not.
    z = 1e-8
    expected = math.expm1(z) / z
    assert abs(phi_scalar(z, 1)[0] - expected) < 1e-15


def test_phi_scalar_zero_argument():
    for p in (1, 2, 4):
        assert phi_scalar(0.0, p)[0] == pytest.approx(1.0 / math.factorial(p), abs=1e-16)


def test_phi_scalar_vectorized():
    z = np.array([0.5, 2.0, -1.0 + 3j])
    out = phi_scalar(z, 1)
    for i, zi in enumerate(z):
        assert abs(out[i] - (np.exp(zi) - 1.0) / zi) < 1e-13


def test_symtrid_eig_reconstructs_matrix():
    rng = np.random.default_rng(7)
    d = rng.standard_normal(11)
    e = rng.standard_normal(10)
    lam, Q = symtrid_eig(d, e)
    T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    assert np.linalg.norm(Q @ np.diag(lam) @ Q.T - T) < 1e-13
    assert np.linalg.norm(Q.T @ Q - np.eye(11)) < 1e-13
    assert np.all(np.diff(lam) >= 0)


def test_symtrid_eig_single_entry():
    lam, Q = symtrid_eig([4.5], [])
    assert lam[0] == 4.5 and Q[0, 0] == 1.0


def test_symtrid_eig_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        symtrid_eig([1.0, 2.0], [1.0, 1.0])
