"""Checks for the reference solvers themselves, against closed forms and
against scipy's dense matrix exponential.  Everything downstream leans on
these, so they are validated first and hardest."""

import math

import numpy as np
import pytest
import scipy.fft
import scipy.linalg
import scipy.sparse as sp

from hypothesis import given, settings
from hypothesis import strategies as st

from krylovexp import (ProblemSpec, SparseOperator, build_convection_diffusion,
                       oracle, oracle_chebyshev, oracle_convection_diffusion,
                       oracle_laplacian, oracle_phi, oracle_reference,
                       oracle_series)

from conftest import SIGMAS, random_unit


def quarter_laplacian_dense(n):
    H = np.zeros((n, n))
    for i in range(n):
        H[i, i] = 0.5
        if i + 1 < n:
            H[i, i + 1] = H[i + 1, i] = -0.25
    return H


def random_hermitian(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (B + B.conj().T) / 2.0


def test_dst_is_self_inverse():
    v = random_unit(33, seed=1)
    w = scipy.fft.dst(scipy.fft.dst(v, type=1, norm="ortho"), type=1, norm="ortho")
    assert np.linalg.norm(w - v) < 1e-14


def test_laplacian_t_zero_is_identity():
    v = random_unit(17, seed=2)
    assert np.linalg.norm(oracle_laplacian(17, -1j, [0.0], v)[0] - v) < 1e-15


def test_laplacian_matches_dense_eigendecomposition():
    """The sine-transform route against a plain eigh of the same matrix."""
    n = 12
    H = quarter_laplacian_dense(n)
    lam, Q = np.linalg.eigh(H)
    v = random_unit(n, seed=3)
    for sigma in (-1j, -1.0):
        ts = (0.05, 1.0, 7.0)
        for t, got in zip(ts, oracle_laplacian(n, sigma, ts, v)):
            expected = Q @ (np.exp(sigma * t * lam) * (Q.conj().T @ v))
            assert np.linalg.norm(got - expected) < 1e-13


def test_laplacian_skew_preserves_norm():
    v = random_unit(101, seed=4)
    for row in oracle_laplacian(101, -1j, (0.1, 2.0, 50.0), v):
        assert abs(np.linalg.norm(row) - 1.0) < 1e-13


def test_laplacian_heat_norm_decays():
    v = random_unit(64, seed=5)
    norms = [np.linalg.norm(row)
             for row in oracle_laplacian(64, -1.0, (0.0, 0.5, 1.0, 4.0, 16.0), v)]
    assert all(b <= a + 1e-15 for a, b in zip(norms, norms[1:]))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 300), seed=st.integers(0, 2 ** 31 - 1), sigma=SIGMAS,
       ts=st.lists(st.one_of(st.sampled_from([0.0, 5e-324]), st.floats(0.0, 50.0)),
                   min_size=1, max_size=12))
def test_laplacian_grid_rows_are_the_per_t_transform(n, seed, sigma, ts):
    """Each row of the grid call has the bits of the sine-transform
    formula at its t alone: the inverse transform over the stacked rows
    sums each row as a transform of that row would."""
    v = random_unit(n, seed=seed)
    lam = np.sin(np.arange(1, n + 1) * np.pi / (2.0 * (n + 1))) ** 2
    coeff = scipy.fft.dst(v, type=1, norm="ortho")
    rows = oracle_laplacian(n, sigma, ts, v)
    assert rows.shape == (len(ts), n)
    for t, row in zip(ts, rows):
        alone = scipy.fft.dst(np.exp(sigma * t * lam) * coeff, type=1, norm="ortho")
        assert row.tobytes() == alone.tobytes(), t


def test_laplacian_rejects_wrong_length():
    with pytest.raises(ValueError):
        oracle_laplacian(10, -1j, [1.0], np.ones(9))


def test_series_zero_matrix():
    op = SparseOperator(sp.csr_matrix((5, 5)), symmetry="hermitian")
    v = random_unit(5, seed=6)
    assert np.linalg.norm(oracle_series(op, -1j, 3.0, v) - v) < 1e-14


def test_series_scalar_multiple_of_identity():
    alpha = 0.37
    op = SparseOperator(sp.identity(6, format="csr") * alpha,
                        symmetry="hermitian")
    v = random_unit(6, seed=7)
    for sigma, t in ((-1j, 2.0), (-1.0, 1.5), (1.0, 0.4)):
        expected = np.exp(sigma * t * alpha) * v
        assert np.linalg.norm(oracle_series(op, sigma, t, v) - expected) < 1e-13


def test_series_t_zero_is_identity():
    op = SparseOperator(sp.identity(4, format="csr"))
    v = random_unit(4, seed=8)
    out = oracle_series(op, -1j, 0.0, v)
    assert np.array_equal(out, v)


def test_series_matches_laplacian_oracle():
    n = 50
    op = SparseOperator(sp.csr_matrix(quarter_laplacian_dense(n)),
                        symmetry="hermitian")
    v = random_unit(n, seed=9)
    for sigma in (-1j, -1.0):
        for t in (0.3, 2.0, 11.0):
            a = oracle_series(op, sigma, t, v)
            b = oracle_laplacian(n, sigma, [t], v)[0]
            assert np.linalg.norm(a - b) < 1e-12


def test_series_matches_scipy_expm_general_matrix():
    """Non-normal complex matrix with norm > 1, forcing several substeps."""
    rng = np.random.default_rng(10)
    A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    op = SparseOperator(sp.csr_matrix(A))
    v = random_unit(8, seed=11)
    for t in (0.2, 1.0, 2.5):
        expected = scipy.linalg.expm(t * A) @ v
        got = oracle_series(op, 1.0, t, v, 1e-14)
        assert np.linalg.norm(got - expected) < 1e-11 * np.linalg.norm(expected)


def test_series_rejects_bad_arguments():
    op = SparseOperator(sp.identity(3, format="csr"))
    v = np.ones(3) / math.sqrt(3)
    with pytest.raises(ValueError):
        oracle_series(op, -1j, 1.0, v, target_accuracy=1e-16)
    with pytest.raises(ValueError):
        oracle_series(op, -1j, -1.0, v)


def test_phi_p_zero_is_plain_exponential():
    op = SparseOperator(sp.csr_matrix(quarter_laplacian_dense(9)),
                        symmetry="hermitian")
    v = random_unit(9, seed=12)
    a = oracle_phi(op, -1j, 1.3, v, 0)
    b = oracle_series(op, -1j, 1.3, v)
    assert np.array_equal(a, b)


def test_phi_t_zero_closed_form():
    """phi_p(0) v = v / p!, and so to round-off is phi_p at a t whose p-th
    power is subnormal or underflows, where u(t) cannot be scaled by
    1 / t^p."""
    op = SparseOperator(sp.identity(600, format="csr"))
    v = random_unit(600, seed=13)
    for p in (1, 2, 3):
        for t in (0.0, 5e-324, 1e-160):
            out = oracle_phi(op, -1j, t, v, p)
            assert np.linalg.norm(out - v / math.factorial(p)) < 1e-16


def test_phi_scalar_closed_forms():
    """On a 1x1 system phi_1(z) = (e^z - 1)/z and
    phi_2(z) = (e^z - 1 - z)/z^2, computed with expm1 to dodge
    cancellation."""
    for z in (2.0, -0.7, 1e-3):
        op = SparseOperator(sp.csr_matrix(np.array([[z]])))
        v = np.ones(1)
        phi1 = math.expm1(z) / z
        phi2 = (math.expm1(z) - z) / z ** 2
        got1 = oracle_phi(op, 1.0, 1.0, v, 1)
        got2 = oracle_phi(op, 1.0, 1.0, v, 2)
        assert abs(got1[0] - phi1) < 1e-13 * abs(phi1)
        assert abs(got2[0] - phi2) < 1e-12 * abs(phi2)


def augmented_dense_phi(A, sigma, t, v, p):
    """phi_p(sigma t A) v read out of one dense scipy expm of the
    (n+p)-dimensional augmented system; at p = 0 that system is
    sigma t A itself, started from v."""
    n = A.shape[0]
    aug = np.zeros((n + p, n + p), dtype=complex)
    aug[:n, :n] = sigma * t * A
    start = np.zeros(n + p, dtype=complex)
    if p == 0:
        start[:] = v
    else:
        aug[:n, n] = v
        start[n + p - 1] = 1.0
    for k in range(p - 1):
        aug[n + k, n + k + 1] = 1.0
    return (scipy.linalg.expm(aug) @ start)[:n]


@pytest.mark.parametrize("p", [0, 1, 2, 3])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       cls=st.sampled_from(["hermitian", "skew", "nonnormal"]),
       n=st.integers(2, 40), sigma=SIGMAS, t=st.floats(0.0, 3.0))
def test_phi_against_dense_augmented_system(p, seed, cls, n, sigma, t):
    """oracle_phi against scipy's expm of the (n+p) system, on random
    hermitian, skew or non-normal A moved left by its Gershgorin bound, so
    that sigma A is nonexpansive."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if cls == "hermitian":
        A = 0.5 * (A + A.conj().T)
    elif cls == "skew":
        A = 0.5 * (A - A.conj().T)
    else:
        A = A + 3.0 * np.triu(A, 1)
    A = A / np.linalg.norm(A, 2)
    mu = SparseOperator(sp.csr_matrix(A)).log_norm_bound(sigma)
    A = A - np.conj(sigma) * mu * np.eye(n)
    op = SparseOperator(sp.csr_matrix(A))
    v = random_unit(n, seed=seed % 2 ** 31)
    expected = augmented_dense_phi(A, sigma, t, v, p)
    assert np.linalg.norm(oracle_phi(op, sigma, t, v, p) - expected) < 1e-12


def _phi2_scalar(z):
    """(e^z - 1 - z) / z^2, by its Taylor series sum_j z^j / (j+2)! where
    |z| < 1 (the closed form cancels there), else by expm1."""
    small = np.abs(z) < 1.0
    zs = np.where(small, z, 0.0)
    series = sum(zs ** j / math.factorial(j + 2) for j in range(25))
    zl = np.where(small, 1.0, z)
    return np.where(small, series, (np.expm1(zl) - zl) / zl ** 2)


@pytest.mark.parametrize("t", [0.5, 3.0, 10.0])
def test_phi_matches_sine_transform_closed_form_above_n_500(t):
    """heat at n = 600 (sigma = -1): phi_p(sigma t H) v is the sine
    transform of phi_p(sigma t lam) times the sine-transform coefficients
    of v, with phi_1(z) = expm1(z) / z and phi_2 from _phi2_scalar."""
    n = 600
    op, sigma = ProblemSpec("heat", {"n": n}).build()
    v = random_unit(n, seed=15)
    lam = np.sin(np.arange(1, n + 1) * np.pi / (2.0 * (n + 1))) ** 2
    z = sigma * t * lam
    coeff = scipy.fft.dst(v, type=1, norm="ortho")
    for p, phi in ((0, np.exp(z)), (1, np.expm1(z) / z), (2, _phi2_scalar(z))):
        expected = scipy.fft.dst(phi * coeff, type=1, norm="ortho")
        assert np.linalg.norm(oracle_phi(op, sigma, t, v, p) - expected) < 2e-14


def test_phi_rejects_bad_arguments():
    op = SparseOperator(sp.identity(3, format="csr"))
    v = np.ones(3)
    with pytest.raises(ValueError):
        oracle_phi(op, 1.0, 1.0, v, -1)
    with pytest.raises(ValueError):
        oracle_phi(op, 1.0, 1.0, v, 1, target_accuracy=0.0)


CD_SIGMAS = (1.0, -1j, np.exp(0.3j))


@pytest.mark.parametrize("n", [3, 4, 6])
@pytest.mark.parametrize("mu", [(0.9, 1.1), (0.0, 0.0), (0.5, 0.0)])
def test_convection_diffusion_kronecker_matches_series(n, mu):
    """The Kronecker-product route against the substepped Taylor series
    on the assembled sparse operator.  With mu != 0, sigma = -i makes the
    propagation expansive (||u|| reaches 7.7e5 at n = 4, t = 0.5), and
    round-off then scales with ||u||, so the tolerance is relative to the
    larger of ||v|| and ||u||."""
    op = build_convection_diffusion(n, *mu)
    v = random_unit(n ** 3, seed=16)
    for sigma in CD_SIGMAS:
        for t in (1e-3, 0.05, 0.5):
            got = oracle_convection_diffusion(n, *mu, sigma, [t], v)[0]
            expected = oracle_series(op, sigma, t, v, 1e-14)
            scale = max(np.linalg.norm(v), np.linalg.norm(expected))
            assert np.linalg.norm(got - expected) <= 1e-13 * scale


def test_convection_diffusion_kronecker_matches_dense_expm():
    """Against scipy's expm of the whole assembled 64 x 64 matrix, which
    also pins the index order i n^2 + j n + k with B on axis i."""
    n, mu1, mu2 = 4, 0.9, 1.1
    op = build_convection_diffusion(n, mu1, mu2)
    A = op.csr.toarray()
    v = random_unit(n ** 3, seed=17)
    for sigma in CD_SIGMAS:
        for t in (0.01, 0.2):
            expected = scipy.linalg.expm(sigma * t * A) @ v
            got = oracle_convection_diffusion(n, mu1, mu2, sigma, [t], v)[0]
            scale = max(1.0, np.linalg.norm(expected))
            assert np.linalg.norm(got - expected) < 1e-13 * scale


def test_convection_diffusion_kronecker_t_zero_and_bad_arguments():
    v = random_unit(27, seed=18)
    out = oracle_convection_diffusion(3, 0.9, 1.1, 1.0, [0.0], v)
    assert out.shape == (1, 27) and np.array_equal(out[0], v)
    assert not np.shares_memory(out, v)
    with pytest.raises(ValueError):
        oracle_convection_diffusion(3, 0.9, 1.1, 1.0, [0.1], v[:26])
    with pytest.raises(ValueError):
        oracle_convection_diffusion(3, 0.9, 1.1, 1.0, [-0.1], v)


@pytest.mark.parametrize("sigma", CD_SIGMAS)
def test_convection_diffusion_kronecker_rows_equal_single_calls(sigma):
    """Each row of a grid call is the call on its t alone, to the bit:
    a row's factors and products do not depend on the rest of the grid."""
    n, mu = 5, (0.9, -0.4)
    v = random_unit(n ** 3, seed=25)
    ts = [0.3, 1e-3, 0.0, 0.05, 0.05, 2.0]
    grid = oracle_convection_diffusion(n, *mu, sigma, ts, v)
    assert grid.shape == (len(ts), n ** 3)
    for t, row in zip(ts, grid):
        alone = oracle_convection_diffusion(n, *mu, sigma, [t], v)[0]
        assert np.array_equal(row.view(np.uint64), alone.view(np.uint64)), t


def test_convection_diffusion_kronecker_t_zero_row_is_v():
    """A t = 0 row is v itself, signed zeros included, wherever it sits in
    the grid."""
    v = random_unit(64, seed=26)
    v[[3, 17]] = [complex(-0.0, 0.5), complex(0.25, -0.0)]
    for sigma in CD_SIGMAS:
        grid = oracle_convection_diffusion(4, 0.9, 1.1, sigma, [0.1, 0.0, 0.2, 0.0], v)
        for row in (grid[1], grid[3]):
            assert np.array_equal(row.view(np.uint64), v.view(np.uint64))
        assert not np.array_equal(grid[0], v)


def test_reference_dispatch_picks_the_route_by_problem_kind():
    heat = ProblemSpec("heat", {"n": 9})
    op, sigma = heat.build()
    v = random_unit(9, seed=19)
    assert np.array_equal(oracle_reference(heat, op, sigma, [0.4, 0.1], v),
                          oracle_laplacian(9, sigma, [0.4, 0.1], v))
    cd = ProblemSpec("convection_diffusion", {"n": 3})
    op, sigma = cd.build()
    v = random_unit(27, seed=20)
    assert np.array_equal(oracle_reference(cd, op, sigma, [0.02], v),
                          oracle_convection_diffusion(3, 0.9, 1.1, sigma, [0.02], v))
    assert np.array_equal(oracle_reference(cd, op, sigma, [0.02], v, p=1),
                          [oracle_phi(op, sigma, 0.02, v, 1)])
    # with no closed form, the operator and sigma decide, not the name
    hub = ProblemSpec("hubbard")
    w = random_unit(6, seed=21)
    herm = SparseOperator(sp.csr_matrix(random_hermitian(6, seed=22)),
                          symmetry="hermitian")
    general = SparseOperator(herm.csr)
    ts = [0.3, 1.2]
    assert np.array_equal(oracle_reference(hub, herm, -1j, ts, w),
                          oracle_chebyshev(herm, -1j, ts, w))
    for op, sigma in ((herm, -1.0), (general, -1j)):
        assert np.array_equal(oracle_reference(hub, op, sigma, ts, w),
                              [oracle_series(op, sigma, t, w) for t in ts])


@pytest.mark.parametrize("kind, p", [("heat", 0), ("convection_diffusion", 0),
                                     ("hubbard", 0), ("general", 0), ("heat", 1)])
def test_reference_rejects_a_bad_t_grid(kind, p):
    """One case per route: Laplacian, Kronecker, Chebyshev, series and
    oracle_phi.  A negative t would run time backwards and NaN would
    poison the result, so both raise before any route runs."""
    if kind == "general":
        spec, op, sigma = ProblemSpec("hubbard"), SparseOperator(sp.identity(4)), -1j
    elif kind == "hubbard":
        spec = ProblemSpec("hubbard")
        op, sigma = SparseOperator(sp.identity(4), symmetry="hermitian"), -1j
    else:
        spec = ProblemSpec(kind, {"n": 3})
        op, sigma = spec.build()
    v = random_unit(op.n, seed=23)
    for ts in ([-1.0], [0.5, math.nan], [math.inf], [], 0.5):
        with pytest.raises(ValueError):
            oracle_reference(spec, op, sigma, ts, v, p)


def test_closed_forms_reject_negative_and_non_finite_t():
    v = random_unit(10, seed=24)
    for t in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            oracle_laplacian(10, -1.0, [t], v)
        with pytest.raises(ValueError):
            oracle_convection_diffusion(2, 0.9, 1.1, 1.0, [t], v[:8])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 40),
       sigma=st.sampled_from([1j, -1j]),
       ts=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=4))
def test_chebyshev_matches_eigendecomposition(seed, n, sigma, ts):
    """Random dense Hermitian matrices scaled to spectral radius near
    sqrt(2), so t r reaches a few hundred: every row matches the
    eigendecomposition to 1e-12 ||v||, and the padded Gershgorin interval
    holds the whole spectrum."""
    H = random_hermitian(n, seed, 1.0 / math.sqrt(2.0 * n))
    op = SparseOperator(sp.csr_matrix(H), symmetry="hermitian")
    v = 3.0 * random_unit(n, seed=seed % 1000)
    lam, Q = scipy.linalg.eigh(H)
    a, b = oracle._gershgorin_interval(op.csr)
    pad = 1e-12 * max(abs(a), abs(b))
    spectrum = scipy.linalg.eigvalsh(H)
    assert a - pad <= spectrum[0] and spectrum[-1] <= b + pad
    got = oracle_chebyshev(op, sigma, ts, v)
    assert got.shape == (len(ts), n)
    for t, row in zip(ts, got):
        expected = Q @ (np.exp(sigma * t * lam) * (Q.conj().T @ v))
        assert np.linalg.norm(row - expected) <= 1e-12 * np.linalg.norm(v)


@pytest.mark.parametrize("t", [0.1, 3.0])
def test_chebyshev_matches_series_on_hubbard(hubbard_op, hubbard_vec, t):
    """The series is the cross-check: small t, and a t with dozens of
    substeps and about 120 Chebyshev terms."""
    got = oracle_chebyshev(hubbard_op, -1j, [t], hubbard_vec)[0]
    assert np.linalg.norm(got - oracle_series(hubbard_op, -1j, t, hubbard_vec)) < 1e-13


def test_chebyshev_batch_rows_equal_single_calls(hubbard_op, hubbard_vec):
    """Each t stops at its own term count, so a row has the same bytes
    whatever else is in the batch, and in whatever order: a sweep's
    oracle_error bits read these rows."""
    ts = [2.0, 1e-3, 0.0, 0.05, 0.4, 0.05]
    batch = oracle_chebyshev(hubbard_op, -1j, ts, hubbard_vec)
    for t, row in zip(ts, batch):
        assert row.tobytes() == oracle_chebyshev(hubbard_op, -1j, [t], hubbard_vec)[0].tobytes()
    assert (oracle_chebyshev(hubbard_op, -1j, ts[::-1], hubbard_vec).tobytes()
            == batch[::-1].tobytes())


def test_chebyshev_t_zero_and_multiple_of_identity():
    v = random_unit(5, seed=25)
    herm = SparseOperator(sp.csr_matrix(random_hermitian(5, seed=26)),
                          symmetry="hermitian")
    out = oracle_chebyshev(herm, 1j, [0.0, 5e-324], v)
    assert np.array_equal(out[0], v)
    assert not np.shares_memory(out, v)
    assert np.linalg.norm(out[1] - v) < 1e-15
    alpha = -0.37
    scalar = SparseOperator(sp.identity(5, format="csr") * alpha, symmetry="hermitian")
    for sigma in (1j, -1j):
        got = oracle_chebyshev(scalar, sigma, [0.0, 2.0, 40.0], v)
        for t, row in zip((0.0, 2.0, 40.0), got):
            assert np.linalg.norm(row - np.exp(sigma * t * alpha) * v) < 1e-14
    zero = SparseOperator(sp.csr_matrix((5, 5)), symmetry="hermitian")
    assert np.array_equal(oracle_chebyshev(zero, -1j, [3.0], v)[0], v)


def test_chebyshev_rejects_bad_arguments():
    H = random_hermitian(4, seed=27)
    herm = SparseOperator(sp.csr_matrix(H), symmetry="hermitian")
    v = random_unit(4, seed=28)
    bad = [(SparseOperator(H), -1j, [1.0], v),
           (herm, -1.0, [1.0], v),
           (herm, np.exp(0.3j), [1.0], v),
           (herm, -1j, [-1.0], v),
           (herm, -1j, [math.nan], v),
           (herm, -1j, [], v),
           (herm, -1j, [1.0], v[:3])]
    for args in bad:
        with pytest.raises(ValueError):
            oracle_chebyshev(*args)


def test_chebyshev_term_count_grows_with_t():
    xs = np.concatenate([[0.0, 5e-324], np.geomspace(1e-6, 1e3, 400)])
    for target in (1e-14, 1e-13, 1e-8):
        terms = [oracle._chebyshev_terms(x, target) for x in xs]
        assert terms[0] == 0
        assert all(a <= b for a, b in zip(terms, terms[1:]))
    # the bound the count certifies, summed directly, is below target / 2
    for x in (0.05, 2.4, 30.0, 240.0):
        K = oracle._chebyshev_terms(x, 1e-13)
        tail = 2.0 * sum(math.exp(k * math.log(x / 2) - math.lgamma(k + 1))
                         for k in range(K + 1, K + 400))
        assert tail <= 0.5e-13
