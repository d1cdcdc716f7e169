"""Krylov decomposition invariants: the factorization identity, orthonormality,
breakdown handling, and the incremental-build contract."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import krylovexp as kx
from krylovexp import KrylovConfig, SparseOperator, build_krylov, extend_krylov
from krylovexp.dense import _PADE13_THETA
from krylovexp.estimators import ESTIMATORS, evaluate
from krylovexp.problems import ProblemSpec, starting_vector

from conftest import SIGMAS, as_general, random_unit


def random_hermitian_op(n, seed, real=False):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + (0 if real else 1j * rng.standard_normal((n, n)))
    A = 0.5 * (A + A.conj().T)
    return SparseOperator(sp.csr_matrix(A), symmetry="hermitian")


def random_general_op(n, seed, real=False):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + (0 if real else 1j * rng.standard_normal((n, n)))
    return SparseOperator(sp.csr_matrix(A))


@pytest.mark.parametrize("make_op,mode", [
    (random_hermitian_op, "lanczos"),
    (random_general_op, "arnoldi"),
])
def test_factorization_identity(make_op, mode):
    """A V_m = V_m T_m + tau v_next e_m^* up to roundoff."""
    n, m = 40, 12
    op = make_op(n, 30)
    v = random_unit(n, seed=31)
    dec = build_krylov(op, v, KrylovConfig(m_max=m))
    assert dec.mode == mode
    V, T = dec.V, dec.T
    lhs = op.csr @ V
    rhs = V @ T
    rhs[:, -1] += dec.tau_next * dec.v_next
    scale = op.norm_inf
    assert np.linalg.norm(lhs - rhs) < 1e-12 * scale
    # first column is the start vector
    assert np.linalg.norm(V[:, 0] - v) < 1e-15


def test_orthonormality_with_reorthogonalization():
    """Classical Gram-Schmidt run twice keeps V orthonormal to working
    precision, for Lanczos as for Arnoldi."""
    op = random_hermitian_op(60, 32)
    v = random_unit(60, seed=33)
    for m_max in (20, 25):
        dec = build_krylov(op, v, KrylovConfig(m_max=m_max))
        V = dec.V
        G = V.conj().T @ V
        assert np.linalg.norm(G - np.eye(m_max)) < 1e-13
        assert abs(np.linalg.norm(dec.v_next) - 1.0) < 1e-13


@pytest.mark.parametrize("m", [10, 20, 30])
def test_orthonormality_on_convection_diffusion(m):
    """The non-normal default convection-diffusion operator with its
    all-ones start vector: ||V^* V - I|| stays at the level of round-off
    for every m."""
    spec = ProblemSpec("convection_diffusion")
    op, _ = spec.build()
    dec = build_krylov(op, starting_vector(spec), KrylovConfig(m_max=m))
    assert dec.m == m
    assert np.linalg.norm(dec.V.conj().T @ dec.V - np.eye(m)) <= 5e-14


def test_gamma_equals_product_and_matrix_power():
    """gamma = exp(log_gamma) is the running subdiagonal product, which
    also equals e_m^* T^{m-1} e_1 because T is unreduced upper Hessenberg."""
    op = random_general_op(30, 34)
    v = random_unit(30, seed=35)
    m = 8
    dec = build_krylov(op, v, KrylovConfig(m_max=m))
    gamma = math.exp(dec.log_gamma)
    prod = float(np.prod(dec.subdiag))
    assert gamma == pytest.approx(prod, rel=1e-12)
    Tpow = np.linalg.matrix_power(dec.T, m - 1)
    assert gamma == pytest.approx(abs(Tpow[m - 1, 0]), rel=1e-10)
    assert dec.log_gamma == pytest.approx(np.sum(np.log(dec.subdiag)), rel=1e-12)


def test_lucky_breakdown_on_invariant_subspace():
    """Start vector supported on 3 eigenvectors: the space saturates at
    m = 3 and the decomposition reports an exact breakdown."""
    lam = np.array([0.5, 1.5, 2.5, 3.5, 4.5])
    op = SparseOperator(sp.diags(lam).tocsr(), symmetry="hermitian")
    v = np.array([0.6, 0.0, 0.8, 0.0, 0.0])
    dec = build_krylov(op, v, KrylovConfig(m_max=5))
    assert dec.breakdown
    assert dec.m == 2
    assert dec.tau_next == 0.0
    assert math.isfinite(dec.log_gamma)


def test_breakdown_makes_projection_exact(heat_pair):
    op, sigma, _ = heat_pair
    lam = np.array([1.0, 2.0, 3.0])
    dop = SparseOperator(sp.diags(lam).tocsr(), symmetry="hermitian")
    v = np.array([0.6, 0.8, 0.0])
    dec = build_krylov(dop, v, KrylovConfig(m_max=3))
    assert dec.breakdown and dec.m == 2
    from krylovexp.approximant import Approximant
    appr = Approximant(dec, -1.0)
    for t in (0.1, 1.0, 10.0):
        expected = np.exp(-t * lam) * v
        assert np.linalg.norm(appr.apply(t) - expected) < 1e-14


def test_partial_build_then_extend_is_identical():
    """Growing the space stepwise must reproduce the one-shot build
    bit for bit."""
    op = random_hermitian_op(50, 36)
    v = random_unit(50, seed=37)
    cfg = KrylovConfig(m_max=15)
    full = build_krylov(op, v, cfg)
    grown = build_krylov(op, v, cfg, steps=4)
    assert grown.m == 4
    grown = extend_krylov(grown, 6)
    assert grown.m == 10
    grown = extend_krylov(grown, 5)
    assert grown.m == 15
    assert np.array_equal(full.V, grown.V)
    assert np.array_equal(full.T, grown.T)
    assert full.tau_next == grown.tau_next
    assert np.array_equal(full.v_next, grown.v_next)


def test_extend_zero_steps_is_noop():
    op = random_general_op(20, 38)
    v = random_unit(20, seed=39)
    dec = build_krylov(op, v, KrylovConfig(m_max=10), steps=5)
    out = extend_krylov(dec, 0)
    assert out is dec and dec.m == 5


def test_matvec_accounting():
    op = random_general_op(25, 40)
    v = random_unit(25, seed=41)
    dec = build_krylov(op, v, KrylovConfig(m_max=7))
    assert dec.matvecs_used == 7


def test_lanczos_and_arnoldi_agree_on_hermitian_input():
    """Same subspace, same projected matrix, up to roundoff."""
    n = 35
    op = random_hermitian_op(n, 42)
    v = random_unit(n, seed=43)
    lan = build_krylov(op, v, KrylovConfig(m_max=10))
    arn = build_krylov(as_general(op), v, KrylovConfig(m_max=10))
    assert (lan.mode, arn.mode) == ("lanczos", "arnoldi")
    assert np.linalg.norm(lan.T - arn.T) < 1e-10 * np.linalg.norm(arn.T)
    assert np.linalg.norm(np.abs(lan.V) - np.abs(arn.V)) < 1e-9


def test_a_v_next_is_cached():
    op = random_general_op(22, 47)
    v = random_unit(22, seed=48)
    dec = build_krylov(op, v, KrylovConfig(m_max=5))
    before = dec.matvecs_used
    w1 = dec.a_v_next()
    w2 = dec.a_v_next()
    assert w1 is w2
    assert np.linalg.norm(w1 - op.csr @ dec.v_next) < 1e-15
    assert dec.matvecs_used == before + 1  # counted once, on the decomposition


def test_config_validation():
    with pytest.raises(ValueError):
        KrylovConfig(m_max=0)


def test_build_input_validation():
    op = random_general_op(10, 49)
    cfg = KrylovConfig(m_max=4)
    with pytest.raises(ValueError):
        build_krylov(op, np.ones(10), cfg)          # not unit norm
    with pytest.raises(ValueError):
        build_krylov(op, random_unit(9, 50), cfg)   # wrong length
    v = random_unit(10, seed=51)
    with pytest.raises(ValueError):
        build_krylov(op, v, cfg, steps=0)
    with pytest.raises(ValueError):
        build_krylov(op, v, cfg, steps=5)


def test_extend_validation():
    op = random_general_op(12, 52)
    v = random_unit(12, seed=53)
    dec = build_krylov(op, v, KrylovConfig(m_max=6), steps=3)
    with pytest.raises(ValueError):
        extend_krylov(dec, 4)  # would exceed m_max
    with pytest.raises(ValueError):
        extend_krylov(dec, -1)


def test_krylov_dimensions_are_integers():
    """m_max and steps take a Python or numpy integer, stored as an int;
    a bool or a float (an integral one too) raises ValueError before any
    BLAS or numpy call sees it."""
    op = random_general_op(10, 58)
    v = random_unit(10, seed=59)
    for bad in (True, 2.5, 4.0, "4"):
        with pytest.raises(ValueError, match="m_max must be >= 1 and an integer"):
            KrylovConfig(m_max=bad)
    cfg = KrylovConfig(m_max=np.int64(4))
    assert type(cfg.m_max) is int and cfg.m_max == 4
    dec = build_krylov(op, v, cfg, steps=np.int32(2))
    assert type(dec.m) is int and dec.m == 2
    for bad in (True, 2.0):
        with pytest.raises(ValueError, match="steps must be >= 1 and an integer"):
            build_krylov(op, v, cfg, steps=bad)
        with pytest.raises(ValueError, match="steps must be >= 0 and an integer"):
            extend_krylov(dec, bad)
    grown = extend_krylov(dec, np.uint8(2))
    assert type(grown.m) is int and grown.m == 4
    assert extend_krylov(dec, np.int64(0)) is dec


def test_extend_after_breakdown_rejected():
    lam = np.array([1.0, 2.0, 3.0, 4.0])
    op = SparseOperator(sp.diags(lam).tocsr(), symmetry="hermitian")
    v = np.array([0.6, 0.8, 0.0, 0.0])
    dec = build_krylov(op, v, KrylovConfig(m_max=4))
    assert dec.breakdown
    with pytest.raises(ValueError):
        extend_krylov(dec, 1)
    with pytest.raises(ValueError):
        dec.a_v_next()


@pytest.mark.parametrize("make_op", [random_hermitian_op, random_general_op])
def test_exposed_arrays_are_read_only(make_op):
    """V, T, v_next and the subdiagonal are views of the build's store,
    which extensions keep filling; writing through them must fail."""
    dec = build_krylov(make_op(10, 56), random_unit(10, seed=57), KrylovConfig(m_max=4))
    for view in (dec.V, dec.T, dec.v_next, dec.subdiag):
        with pytest.raises(ValueError):
            view[0] = 0.0


def _exposed(dec):
    """Everything a decomposition exposes, with arrays as raw bytes."""
    arrays = (dec.V, dec.T, dec.subdiag) + (() if dec.breakdown else (dec.v_next,))
    return ([a.tobytes() for a in arrays], dec.m, dec.breakdown, dec.tau_next,
            dec.log_gamma, dec.matvecs_used)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), hermitian=st.booleans(), real=st.booleans(),
       m_max=st.integers(2, 24), data=st.data())
def test_extensions_share_the_store_bitwise(seed, hermitian, real, m_max, data):
    """A partial build grown by extensions at random split points equals a
    fresh build bit for bit, and growing a decomposition changes neither it
    nor an earlier extension of it, in the float64 store of a real operator
    and real start vector as in the complex one."""
    n = 30
    op = (random_hermitian_op if hermitian else random_general_op)(n, seed, real)
    v = random_unit(n, seed=seed, complex_=not real)
    cfg = KrylovConfig(m_max=m_max)
    parent = build_krylov(op, v, cfg, steps=data.draw(st.integers(1, m_max - 1)))
    assert parent.V.dtype == (np.float64 if real else np.complex128)
    before = _exposed(parent)
    dec, child = parent, None
    while dec.m < m_max:
        dec = extend_krylov(dec, data.draw(st.integers(1, m_max - dec.m)))
        child = child or dec
    assert _exposed(dec) == _exposed(build_krylov(op, v, cfg))
    child_before = _exposed(child)
    sibling = extend_krylov(parent, data.draw(st.integers(1, m_max - parent.m)))
    assert _exposed(sibling) == _exposed(build_krylov(op, v, cfg, steps=sibling.m))
    assert _exposed(parent) == before
    assert _exposed(child) == child_before


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), hermitian=st.booleans(),
       m_max=st.integers(2, 26), data=st.data())
def test_m_max_does_not_change_the_prefix(seed, hermitian, m_max, data):
    """The first k columns of a build capped at m_max are the bytes of a
    build capped at k: every m_max orthogonalizes by the same rule.
    m_max ranges on both sides of 20."""
    n = 30
    op = (random_hermitian_op if hermitian else random_general_op)(n, seed)
    v = random_unit(n, seed=seed)
    k = data.draw(st.integers(1, m_max - 1))
    prefix = build_krylov(op, v, KrylovConfig(m_max=m_max), steps=k)
    assert _exposed(prefix) == _exposed(build_krylov(op, v, KrylovConfig(m_max=k)))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["lanczos", "as_general", "general"]),
       m=st.integers(2, 8), sigma=SIGMAS, t=st.floats(0.0, 3.0))
def test_defect_is_the_corner_and_its_derivative(seed, kind, m, sigma, t):
    """dec.defect(sigma, t) = (delta, delta'): delta is corner(sigma, 0, t)
    bit for bit, on Lanczos, on Arnoldi over the same hermitian matrix and
    on Arnoldi over a general one, and delta' matches a central difference
    of delta around t + h.  With ||A||_2 = 1 and t <= 3 the difference is
    good to about h^2 e^3 + eps e^3 / h, below 1e-8."""
    make_op = random_general_op if kind == "general" else random_hermitian_op
    op = make_op(12, seed)
    op = SparseOperator(op.csr / np.linalg.norm(op.csr.toarray(), 2), symmetry=op.symmetry)
    if kind == "as_general":
        op = as_general(op)
    dec = build_krylov(op, random_unit(12, seed=seed % 2 ** 31), KrylovConfig(m_max=m))
    assert dec.mode == ("lanczos" if kind == "lanczos" else "arnoldi") and dec.m == m

    delta, _ = dec.defect(sigma, t)
    assert delta == dec.corner(sigma, 0, t)
    h = 1e-5
    _, delta_prime = dec.defect(sigma, t + h)
    fd = (dec.defect(sigma, t + 2 * h)[0] - delta) / (2 * h)
    assert abs(delta_prime - fd) <= 1e-8, (delta_prime, fd)


def test_the_arithmetic_follows_the_inputs(hubbard_op, hubbard_vec, heat_pair):
    """Convection-diffusion (real operator, real all-ones start vector)
    builds a float64 Arnoldi store and propagates a float64 vector, and so
    does heat's Lanczos from a real start vector; Hubbard (complex entries)
    and heat from its complex start vector stay complex, and a Lanczos T is
    real in both fields."""
    spec = ProblemSpec("convection_diffusion")
    op, sigma = spec.build()
    v = starting_vector(spec)
    dec = build_krylov(op, v, KrylovConfig(m_max=10))
    assert (dec.V.dtype, dec.T.dtype, dec.mode) == (np.float64, np.float64, "arnoldi")
    assert kx.Approximant(dec, sigma).apply(1e-3).dtype == np.float64
    assert kx.Approximant(dec, sigma, corrected=True).apply(1e-3).dtype == np.float64
    res = kx.propagate(op, sigma, v, 1e-3, KrylovConfig(m_max=10),
                       kx.ControllerSpec("direct_era_local", 1e-8))
    assert res.w_final.dtype == np.float64
    hub = build_krylov(hubbard_op, hubbard_vec, KrylovConfig(m_max=5))
    assert (hub.V.dtype, hub.T.dtype, hub.mode) == (np.complex128, np.float64, "lanczos")
    heat_op, heat_sigma, heat_v = heat_pair
    assert heat_op.is_real
    heat = build_krylov(heat_op, heat_v, KrylovConfig(m_max=5))
    assert (heat.V.dtype, heat.T.dtype, heat.mode) == (np.complex128, np.float64, "lanczos")
    real_v = random_unit(heat_op.n, seed=9, complex_=False)
    heat = build_krylov(heat_op, real_v, KrylovConfig(m_max=10))
    assert (heat.V.dtype, heat.T.dtype, heat.mode) == (np.float64, np.float64, "lanczos")
    assert kx.Approximant(heat, heat_sigma).apply(0.5).dtype == np.float64
    # the field follows sigma and T alone: at t = 0 a complex sigma's row is complex too
    assert heat.phi(-1j, 0, 0.0).dtype == np.complex128
    res = kx.propagate(heat_op, heat_sigma, real_v, 0.5, KrylovConfig(m_max=10),
                       kx.ControllerSpec("direct_era_local", 1e-8))
    assert res.w_final.dtype == np.float64


def test_a_real_arnoldi_store_never_takes_the_eigen_route(monkeypatch):
    """The symmetry flag picks Lanczos, not the dtype of T: a float64
    Arnoldi decomposition of a real symmetric matrix still reaches e^{zT}
    through Pade."""
    op = as_general(random_hermitian_op(12, 60, real=True))
    dec = build_krylov(op, random_unit(12, seed=61, complex_=False), KrylovConfig(m_max=6))
    assert dec.mode == "arnoldi" and dec.T.dtype == np.float64
    monkeypatch.setattr(kx.krylov, "symtrid_eig", None)
    assert dec.phi(-1.0, 0, 0.5).dtype == np.float64
    assert dec.phi(-1j, 1, 0.5).dtype == np.complex128
    assert [row.dtype for row in dec.phi(-1j, 0, [0.0, 0.5])] == [np.complex128] * 2


_ROUNDOFF = 1e3 * np.finfo(np.float64).eps


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), hermitian=st.booleans(), m=st.integers(2, 8),
       sigma=SIGMAS, t=st.floats(0.0, 3.0), phase=st.floats(0.1, 6.2))
# improved_hermite_quad ~ 8.6e-157: a norm that squared the entries of its
# vector lost digits there, differently in the two fields
@example(seed=0, hermitian=False, m=3, sigma=1.0, t=4.01755651531471e-52, phase=1.0)
def test_real_and_complex_fields_agree(seed, hermitian, m, sigma, t, phase):
    """A real operator with a real start vector v builds in float64; the
    same operator from e^{i phase} v is forced onto the complex path.  T
    agrees to 1e-13 ||T||, V and apply(t) agree up to the phase, and
    every ESTIMATORS row gives the same proven flag and the same value to
    1e-12 relative (1e-300 floor).

    On Lanczos the rows that read a corner of phi_q(sigma t T) e_1 take it
    from the eigendecomposition of T, which resolves it only to an
    absolute round-off of the row's prefactor (ROADMAP item 1), so there
    the two fields agree to 1e3 eps tau max(1, t)^2 absolute; and the
    effective-order guard, a yes/no decision on rho near that round-off,
    may fall back to the trapezoid value on one side only."""
    n = 12
    op = (random_hermitian_op if hermitian else random_general_op)(n, seed, real=True)
    op = SparseOperator(op.csr / np.linalg.norm(op.csr.toarray(), 2), symmetry=op.symmetry)
    v = random_unit(n, seed=seed % 2 ** 31, complex_=False)
    z = np.exp(1j * phase)
    cfg = KrylovConfig(m_max=m)
    real, cplx = build_krylov(op, v, cfg), build_krylov(op, z * v, cfg)
    assert (real.V.dtype, real.T.dtype, cplx.V.dtype) == (np.float64, np.float64, np.complex128)
    assert real.mode == cplx.mode == ("lanczos" if hermitian else "arnoldi")
    assert (real.m, real.breakdown) == (cplx.m, cplx.breakdown)
    assert np.linalg.norm(real.T - cplx.T) <= 1e-13 * np.linalg.norm(real.T)
    assert np.linalg.norm(z * real.V - cplx.V) <= 1e-12
    for corrected in (False, True):
        a = kx.Approximant(real, sigma, corrected=corrected).apply(t)
        b = kx.Approximant(cplx, sigma, corrected=corrected).apply(t)
        assert np.linalg.norm(z * a - b) <= 1e-12 * np.linalg.norm(b)

    floor = 1e-300
    if hermitian and not real.breakdown:
        floor += _ROUNDOFF * real.tau_next * max(1.0, t) ** 2
    got = {}
    for kind in ESTIMATORS:
        a, b = evaluate(kind, real, sigma, t), evaluate(kind, cplx, sigma, t)
        assert a.is_proven_upper_bound == b.is_proven_upper_bound, kind
        got[kind] = (a, b)
        if hermitian and kind == "effective_order_quad" and a.kind != b.kind:
            trapezoid = got["trapezoid_quad"][0].value
            assert max(a.value, b.value) <= trapezoid * (1 + 1e-12) + floor
            continue
        tol = 1e-12 * abs(a.value) + (1e-300 if kind.startswith("era") else floor)
        assert a.kind == b.kind and abs(a.value - b.value) <= tol, (kind, a.value, b.value)


# grid entries: t = 0, the smallest subnormal, a larger subnormal, or any t in [0, 3]
GRID_T = st.one_of(st.sampled_from([0.0, 5e-324, 1e-310]), st.floats(0.0, 3.0))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), hermitian=st.booleans(), real=st.booleans(),
       m=st.integers(1, 34), q=st.sampled_from([0, 1, 2]), sigma=SIGMAS,
       ts=st.lists(GRID_T, min_size=1, max_size=10), data=st.data())
def test_phi_grid_rows_are_the_scalar_calls(seed, hermitian, real, m, q, sigma, ts, data):
    """Each row of dec.phi(sigma, q, ts) has the dtype and the bits of the
    scalar call dec.phi(sigma, q, t) on a fresh decomposition: on Lanczos
    and Arnoldi, in the float64 store and the complex one, on grids that
    hold t = 0, subnormal t and repeated t, and ||zT||_1 on both sides of
    the norm where Pade starts squaring.  Approximant.apply(t) then gives
    the bits of the scalar-filled one too: V @ c can take another BLAS
    path when a row has another memory order, which tobytes() ignores."""
    n = 40
    op = (random_hermitian_op if hermitian else random_general_op)(n, seed, real)
    v = random_unit(n, seed=seed % 2 ** 31, complex_=not real)
    cfg = KrylovConfig(m_max=m)
    dec = build_krylov(op, v, cfg)
    # t where ||sigma t T||_1 is a fraction or a multiple of theta_13
    norm = float(np.abs(dec.T).sum(axis=0).max())
    if norm > 0.0:
        ts = ts + [f * _PADE13_THETA / norm for f in (0.5, 0.99, 1.01, 3.0)]
    ts = ts + data.draw(st.lists(st.sampled_from(ts), max_size=3))
    rows = dec.phi(sigma, q, ts)
    assert len(rows) == len(ts)
    for t, row in zip(ts, rows):
        alone = build_krylov(op, v, cfg)
        single = alone.phi(sigma, q, t)
        assert row.dtype == single.dtype and row.tobytes() == single.tobytes(), t
        a = kx.Approximant(dec, sigma, q).apply(t)
        b = kx.Approximant(alone, sigma, q).apply(t)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), t


@pytest.mark.parametrize("make_op", [random_hermitian_op, random_general_op])
@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_phi_and_corner_reject_bad_times(make_op, bad, monkeypatch):
    """A t that is not finite and >= 0 raises ValueError from phi and
    corner, as a scalar and inside a grid, before any row is computed or
    cached: the bad t raises again, and the good t of a grid is computed
    when it is asked for next.  corner and defect take one t, so a grid
    raises there.  A q that is not an int >= 0 and a sigma off the unit
    circle raise too, also once the rows of the same t are cached."""
    dec = build_krylov(make_op(30, 72), random_unit(30, seed=73), KrylovConfig(m_max=8))
    kernels = []
    for name in ("phi_scalar", "phi_dense"):
        monkeypatch.setattr(kx.krylov, name, lambda *args, name=name: kernels.append(name))
    grids = [0.1, 0.2], list(np.linspace(0.1, 0.8, dec.m))
    for _ in range(2):
        for call in (lambda: dec.phi(-1j, 1, bad), lambda: dec.corner(-1j, 0, bad),
                     lambda: dec.phi(-1j, 1, [0.1, bad]), lambda: dec.phi(-1j, 0, [bad, 0.2])):
            with pytest.raises(ValueError, match="t must be finite"):
                call()
        for grid in grids:
            for call in (lambda: dec.corner(-1j, 0, grid), lambda: dec.defect(-1j, grid)):
                with pytest.raises(ValueError, match="t must be a finite real number"):
                    call()
    assert kernels == []
    monkeypatch.undo()
    for q, t in ((1, 0.1), (0, 0.2)):
        fresh = build_krylov(make_op(30, 72), random_unit(30, seed=73), KrylovConfig(m_max=8))
        assert dec.phi(-1j, q, t).tobytes() == fresh.phi(-1j, q, t).tobytes()
    # True and 1.0 hash like the cached q = 1, 2.0 and nan are never cached
    for call, match in ((lambda: dec.corner(-1j, True, 0.1), "p must be"),
                        (lambda: dec.corner(-1j, 1.0, 0.1), "p must be"),
                        (lambda: dec.phi(-1j, True, [0.1]), "p must be"),
                        (lambda: dec.phi(2.0, 0, 0.2), "prefactor must have modulus 1"),
                        (lambda: dec.phi(2.0, 0, [0.2]), "prefactor must have modulus 1"),
                        (lambda: dec.defect(5.0, 0.2), "prefactor must have modulus 1"),
                        (lambda: dec.corner(math.nan, 0, 0.2), "prefactor must be finite")):
        for _ in range(2):
            with pytest.raises(ValueError, match=match):
                call()


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("make_op", [random_hermitian_op, random_general_op])
def test_phi_reads_check_sigma_before_the_cache(make_op, real, monkeypatch):
    """Every phi read checks sigma before the cache lookup, a hit included.
    True == 1.0 hashes like the cached sigma = 1 row, yet a bool raises
    ValueError from phi (scalar and grid), corner and defect.  A 0-d array
    sigma is the number it holds: it reads that number's cached row, with
    its bits, and computes nothing."""
    dec = build_krylov(make_op(30, 74, real), random_unit(30, seed=75, complex_=not real),
                       KrylovConfig(m_max=8))
    for sigma in (1.0, -1j):
        rows = [dec.phi(sigma, q, 0.5) for q in (0, 1)] + dec.phi(sigma, 0, [0.5, 0.6])
        corner, defect = dec.corner(sigma, 1, 0.5), dec.defect(sigma, 0.5)
        kernels = []
        for name in ("phi_scalar", "phi_dense"):
            monkeypatch.setattr(kx.krylov, name, lambda *args, name=name: kernels.append(name))
        for bad in (True, np.True_):
            for call in (lambda: dec.phi(bad, 0, 0.5), lambda: dec.phi(bad, 0, [0.5, 0.6]),
                         lambda: dec.corner(bad, 1, 0.5), lambda: dec.defect(bad, 0.5)):
                with pytest.raises(ValueError, match="prefactor must be a number"):
                    call()
        s0 = np.array(sigma)
        again = [dec.phi(s0, q, 0.5) for q in (0, 1)] + dec.phi(s0, 0, [0.5, 0.6])
        assert [r.tobytes() for r in again] == [r.tobytes() for r in rows]
        assert dec.corner(s0, 1, 0.5) == corner and dec.defect(s0, 0.5) == defect
        assert kernels == []
        monkeypatch.undo()


@pytest.mark.parametrize("make_op", [random_hermitian_op, random_general_op])
def test_a_grid_is_never_evicted_by_its_own_rows(make_op, monkeypatch):
    """Every row lives as long as its decomposition: after a 300-point
    grid and 300 distinct single-t reads, asking for any of those t again
    returns the same array and evaluates nothing."""
    dec = build_krylov(make_op(30, 70), random_unit(30, seed=71), KrylovConfig(m_max=8))
    dec.phi(-1j, 0, 0.5)
    ts = list(np.linspace(0.01, 3.0, 300))
    rows = dec.phi(-1j, 1, ts)
    singles = list(np.linspace(3.01, 6.0, 300))
    single_rows = [dec.phi(-1j, 0, t) for t in singles]
    monkeypatch.setattr(kx.krylov, "phi_scalar", None)
    monkeypatch.setattr(kx.krylov, "phi_dense", None)
    assert all(dec.phi(-1j, 1, t) is row for t, row in zip(ts, rows))
    assert all(a is b for a, b in zip(dec.phi(-1j, 1, ts), rows))
    assert all(dec.phi(-1j, 0, t) is row for t, row in zip(singles, single_rows))


@pytest.mark.parametrize("mode", ["lanczos", "arnoldi"])
def test_an_overflowing_row_raises_on_both_routes(mode, monkeypatch):
    """On heat at sigma = +1 e^{800 T} overflows: Lanczos and Arnoldi
    both raise OverflowError, with no RuntimeWarning, and cache no row of
    the call, not even the finite one of a grid."""
    spec = ProblemSpec("heat", {"n": 50}, seed=0)
    op, _ = spec.build()
    dec = build_krylov(op if mode == "lanczos" else as_general(op), starting_vector(spec),
                       KrylovConfig(m_max=10))
    assert dec.mode == mode
    for _ in range(2):
        with pytest.raises(OverflowError, match="overflowed"):
            dec.corner(1.0, 0, 800.0)
        with pytest.raises(OverflowError, match="overflowed"):
            dec.phi(1.0, 1, [0.5, 800.0])
    monkeypatch.setattr(kx.krylov, "phi_scalar", None)
    monkeypatch.setattr(kx.krylov, "phi_dense", None)
    with pytest.raises(TypeError):
        dec.phi(1.0, 1, 0.5)
