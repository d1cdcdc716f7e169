"""Projected approximants: standard and corrected evaluation, the
decomposition's defect corner entry, and the effective order."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import krylovexp as kx
from krylovexp import KrylovConfig, SparseOperator, build_krylov, krylov, phi_dense
from krylovexp.approximant import Approximant, effective_order

from conftest import SIGMAS, as_general, random_unit


def small_problem(n=30, seed=60, hermitian=True):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if hermitian:
        A = 0.5 * (A + A.conj().T)
        A = A / np.linalg.norm(A, 2)
        op = SparseOperator(sp.csr_matrix(A), symmetry="hermitian")
    else:
        A = A / np.linalg.norm(A, 2)
        op = SparseOperator(sp.csr_matrix(A))
    v = random_unit(n, seed=seed + 1)
    return A, op, v


def test_standard_apply_matches_dense_exponential():
    """V e^{sigma t T} e_1 against scipy's expm on the full matrix, in the
    regime where m = n so the projection is exact."""
    A, op, v = small_problem(n=12, seed=61)
    dec = build_krylov(op, v, KrylovConfig(m_max=12))
    appr = Approximant(dec, -1j)
    for t in (0.3, 1.0, 4.0):
        expected = scipy.linalg.expm(-1j * t * A) @ v
        assert np.linalg.norm(appr.apply(t) - expected) < 1e-11


def test_real_basis_times_complex_coefficients(heat_pair):
    """Heat from a real start vector builds a float64 Lanczos store.  At
    the real sigma = -1 the eigen route stays real and so does the action;
    at sigma = -i the coefficients c are complex and apply takes
    V Re c + i V Im c, which is the complex product V c."""
    op, sigma, _ = heat_pair
    dec = build_krylov(op, random_unit(op.n, seed=9, complex_=False), KrylovConfig(m_max=10))
    assert dec.V.dtype == np.float64
    for s, dtype in ((sigma, np.float64), (-1j, np.complex128)):
        out = Approximant(dec, s).apply(0.7)
        ref = dec.V.astype(complex) @ dec.phi(s, 0, 0.7)
        assert dec.phi(s, 0, 0.7).dtype == out.dtype == dtype
        assert np.linalg.norm(out - ref) <= 1e-15 * np.linalg.norm(ref)


def test_standard_apply_at_t_zero():
    _, op, v = small_problem(seed=62)
    dec = build_krylov(op, v, KrylovConfig(m_max=8))
    appr = Approximant(dec, -1j)
    assert np.linalg.norm(appr.apply(0.0) - v) < 1e-14


def test_phi_approximant_matches_oracle():
    A, op, v = small_problem(n=40, seed=63)
    dec = build_krylov(op, v, KrylovConfig(m_max=40))
    for p in (1, 2):
        appr = Approximant(dec, -1j, p)
        for t in (0.5, 2.0):
            expected = kx.oracle_phi(op, -1j, t, v, p, 1e-14)
            assert np.linalg.norm(appr.apply(t) - expected) < 1e-11


def augmented_matrix(dec):
    """Tbar = [[T, 0], [tau e_m^*, 0]], the (m+1) x (m+1) matrix of the
    corrected approximant."""
    m = dec.m
    Tbar = np.zeros((m + 1, m + 1), dtype=complex)
    Tbar[:m, :m] = dec.T
    Tbar[m, m - 1] = dec.tau_next
    return Tbar


def test_corrected_corner_identity():
    """The bottom entry of e^{sigma t Tbar} e_1 equals
    sigma t tau (e_m^* phi_1(sigma t T) e_1): the correction only feeds
    the extra row through the single tau coupling."""
    _, op, v = small_problem(seed=64)
    dec = build_krylov(op, v, KrylovConfig(m_max=9))
    sigma = -1j
    Tbar = augmented_matrix(dec)
    for t in (0.4, 1.7):
        full = scipy.linalg.expm(sigma * t * Tbar)
        bottom = full[dec.m, 0]
        expected = sigma * t * dec.tau_next * dec.corner(sigma, 1, t)
        assert abs(bottom - expected) < 1e-13 * max(1.0, abs(bottom))


def test_corrected_apply_matches_oracle(schrodinger_pair):
    op, sigma, v = schrodinger_pair
    dec = build_krylov(op, v, KrylovConfig(m_max=10))
    appr = Approximant(dec, sigma, corrected=True)
    t = 0.05
    expected = kx.oracle_laplacian(op.n, sigma, [t], v)[0]
    err = np.linalg.norm(appr.apply(t) - expected)
    bound = kx.era(dec, sigma, t, corrected=True).value
    assert err <= bound * (1 + 1e-9) + 1e-13


def test_corrected_beats_standard_at_same_dimension(schrodinger_pair):
    """Where truncation dominates (t = 2) the corrected approximant is the
    more accurate one.  At t = 0.05 both errors are round-off (the corrected era
    is about 1e-28 there), so only their size is asserted."""
    op, sigma, v = schrodinger_pair
    dec = build_krylov(op, v, KrylovConfig(m_max=10))
    std = Approximant(dec, sigma)
    cor = Approximant(dec, sigma, corrected=True)
    errs = {}
    for t, ref in zip((0.05, 2.0), kx.oracle_laplacian(op.n, sigma, (0.05, 2.0), v)):
        errs[t] = (np.linalg.norm(std.apply(t) - ref), np.linalg.norm(cor.apply(t) - ref))
    assert max(errs[0.05]) < 1e-14
    err_std, err_cor = errs[2.0]
    assert err_std > 1e-12
    assert err_cor < 0.5 * err_std


def test_defect_matches_dense_corner():
    _, op, v = small_problem(seed=65, hermitian=False)
    dec = build_krylov(op, v, KrylovConfig(m_max=7))
    sigma = 1.0
    for t in (0.2, 1.1):
        delta, _ = dec.defect(sigma, t)
        dense = scipy.linalg.expm(sigma * t * dec.T)
        assert abs(delta - dense[dec.m - 1, 0]) < 1e-13


def test_defect_derivative_matches_finite_difference():
    _, op, v = small_problem(seed=66)
    dec = build_krylov(op, v, KrylovConfig(m_max=8))
    t, h = 0.9, 1e-6
    _, delta_prime = dec.defect(-1j, t)
    fd = (dec.defect(-1j, t + h)[0] - dec.defect(-1j, t - h)[0]) / (2 * h)
    assert abs(delta_prime - fd) < 1e-7 * max(1.0, abs(fd))


def test_defect_requires_two_rows():
    lam = np.array([1.0, 2.0])
    op = SparseOperator(sp.diags(lam).tocsr(), symmetry="hermitian")
    v = np.array([1.0, 0.0])
    dec = build_krylov(op, v, KrylovConfig(m_max=2))
    assert dec.m == 1  # eigenvector start: immediate breakdown
    with pytest.raises(ValueError):
        dec.defect(-1.0, 1.0)


def test_effective_order_limit_is_m_minus_one(schrodinger_pair):
    """rho(t) -> m-1 as t -> 0+.  A small m keeps the defect above the
    round-off floor at t small enough to see the limit."""
    op, sigma, v = schrodinger_pair
    dec = build_krylov(op, v, KrylovConfig(m_max=4))
    rho = effective_order(dec, sigma, 1e-2)
    assert abs(rho - 3.0) < 1e-2


def test_effective_order_decreases_from_the_limit(heat_pair):
    op, sigma, v = heat_pair
    dec = build_krylov(op, v, KrylovConfig(m_max=10))
    rhos = [effective_order(dec, sigma, t) for t in (0.8, 1.5, 3.0)]
    assert all(b < a for a, b in zip(rhos, rhos[1:]))
    assert rhos[0] < 9.0


def test_effective_order_roundoff_floor(heat_pair):
    op, sigma, v = heat_pair
    dec = build_krylov(op, v, KrylovConfig(m_max=10))
    assert math.isnan(effective_order(dec, sigma, 1e-4))


@pytest.mark.parametrize("t", [1.0, 4.8, 7.0, 10.0])
def test_effective_order_floor_is_anchored_to_the_start_vector(t):
    """On convection-diffusion u(t) = e^{tT} e_1 decays by orders of
    magnitude, so a floor relative to ||u(t)|| shrinks with it and lets
    round-off through as a negative or NaN rho.  The floor is relative to
    ||u(0)|| = 1."""
    spec = kx.ProblemSpec("convection_diffusion")
    op, sigma = spec.build()
    dec = build_krylov(op, kx.starting_vector(spec), KrylovConfig(m_max=10))
    assert sigma == 1.0
    assert math.isnan(effective_order(dec, sigma, t))


def test_effective_order_lanczos_and_arnoldi_agree():
    """delta' is exact for any upper Hessenberg T, so the same hermitian
    operator run through Lanczos and Arnoldi gives the same rho."""
    _, op, v = small_problem(seed=67)
    lan = build_krylov(op, v, KrylovConfig(m_max=9))
    arn = build_krylov(as_general(op), v, KrylovConfig(m_max=9))
    t = 1.2
    for sigma in (-1.0, -1j, np.exp(0.3j)):
        assert abs(effective_order(arn, sigma, t)
                   - effective_order(lan, sigma, t)) < 1e-8


def test_effective_order_input_validation(heat_pair):
    op, sigma, v = heat_pair
    dec = build_krylov(op, v, KrylovConfig(m_max=6))
    with pytest.raises(ValueError):
        effective_order(dec, sigma, 0.0)


def test_approximant_validation(heat_pair):
    op, sigma, v = heat_pair
    dec = build_krylov(op, v, KrylovConfig(m_max=4))
    with pytest.raises(TypeError):  # corrected is keyword-only
        Approximant(dec, sigma, 0, True)
    with pytest.raises(ValueError):
        Approximant(dec, sigma, -1)
    appr = Approximant(dec, sigma)
    with pytest.raises(ValueError):
        appr.apply(-0.5)


def test_one_symtrid_eig_per_decomposition(heat_pair, monkeypatch):
    """A Lanczos decomposition eigendecomposes T once and serves every
    sigma and q from it."""
    calls = []
    original = krylov.symtrid_eig
    monkeypatch.setattr(krylov, "symtrid_eig",
                        lambda d, e: calls.append(1) or original(d, e))
    op, sigma, v = heat_pair
    dec = build_krylov(op, v, KrylovConfig(m_max=5))
    assert dec.mode == "lanczos"
    for s in (sigma, -1j):
        for q in (0, 1, 2):
            dec.phi(s, q, 0.7)
            dec.corner(s, q, 1.3)
            Approximant(dec, s, q, corrected=True).apply(0.9)
    assert len(calls) == 1
    other = build_krylov(op, v, KrylovConfig(m_max=4))
    other.corner(sigma, 1, 0.7)
    assert len(calls) == 2


@pytest.mark.parametrize("mode", ["lanczos", "arnoldi"])
def test_phi_is_cached_and_read_only(mode):
    _, op, v = small_problem(seed=68)
    dec = build_krylov(op if mode == "lanczos" else as_general(op), v, KrylovConfig(m_max=6))
    assert dec.mode == mode
    col = dec.phi(-1j, 1, 0.5)
    assert dec.phi(-1j, 1, 0.5) is col
    with pytest.raises(ValueError):
        col[0] = 1.0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(6, 12),
       m=st.integers(2, 8), sigma=SIGMAS, q=st.integers(0, 2),
       t=st.floats(0.0, 3.0), mode=st.sampled_from(["lanczos", "arnoldi"]))
def test_corner_is_the_last_entry_of_phi(seed, n, m, sigma, q, t, mode):
    """corner(sigma, q, t) is phi(sigma, q, t)[m-1] bit for bit, for both
    algorithms and every q: one formula, one rounding."""
    _, op, v = small_problem(n, seed)
    dec = build_krylov(op if mode == "lanczos" else as_general(op), v,
                       KrylovConfig(m_max=m))
    assert dec.corner(sigma, q, t) == complex(dec.phi(sigma, q, t)[-1])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(6, 12),
       m=st.integers(2, 5), sigma=SIGMAS, t=st.floats(1e-3, 5.0))
def test_lanczos_and_arnoldi_agree_on_phi_and_corner(seed, n, m, sigma, t):
    """The eigendecomposition route (Lanczos) and the Pade route (the same
    hermitian matrix flagged general, so Arnoldi) give the same phi_q and
    corner for q = 0, 1, 2."""
    _, op, v = small_problem(n, seed)
    lan = build_krylov(op, v, KrylovConfig(m_max=m))
    arn = build_krylov(as_general(op), v, KrylovConfig(m_max=m))
    assume(lan.m == arn.m)
    for q in (0, 1, 2):
        ref = arn.phi(sigma, q, t)
        scale = max(1.0, float(np.linalg.norm(ref)))
        assert np.linalg.norm(lan.phi(sigma, q, t) - ref) < 1e-10 * scale
        assert abs(lan.corner(sigma, q, t) - arn.corner(sigma, q, t)) < 1e-10 * scale


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(6, 12),
       m=st.integers(2, 5), sigma=SIGMAS, t=st.floats(1e-3, 5.0),
       p=st.integers(0, 2), mode=st.sampled_from(["lanczos", "arnoldi"]))
def test_corrected_apply_is_the_augmented_phi(seed, n, m, sigma, t, p, mode):
    """The corrected approximant equals [V, v_next] phi_p(sigma t Tbar) e_1
    with Tbar = [[T, 0], [tau e_m^*, 0]] evaluated densely."""
    _, op, v = small_problem(n, seed)
    dec = build_krylov(op if mode == "lanczos" else as_general(op), v, KrylovConfig(m_max=m))
    assume(not dec.breakdown)
    col = phi_dense(augmented_matrix(dec), sigma * t, p)
    expected = dec.V @ col[:dec.m] + dec.v_next * col[dec.m]
    got = Approximant(dec, sigma, p, corrected=True).apply(t)
    assert np.linalg.norm(got - expected) < 1e-10 * max(1.0, float(np.linalg.norm(expected)))
