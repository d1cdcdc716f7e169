"""Error estimators: literal formula checks, the proven-bound flag table,
and the guarded effective-order quadrature."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import krylovexp as kx
from krylovexp import (KrylovConfig, SparseOperator, build_krylov, era, err1,
                       expokit_first_step, quad_estimates)
from krylovexp.approximant import Approximant, effective_order
from krylovexp.estimators import ESTIMATORS, evaluate

from conftest import SIGMAS, as_general, random_unit


@pytest.fixture(scope="module")
def hermitian_dec():
    rng = np.random.default_rng(70)
    A = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    A = 0.5 * (A + A.conj().T)
    A = A / np.linalg.norm(A, 2)
    op = SparseOperator(sp.csr_matrix(A), symmetry="hermitian")
    v = random_unit(40, seed=71)
    return op, build_krylov(op, v, KrylovConfig(m_max=8))


def test_era_formula_literal(hermitian_dec):
    """tau * gamma * t^m / (m+p)! recomputed in plain arithmetic."""
    _, dec = hermitian_dec
    m = dec.m
    for sigma in (-1j, -1.0):
        for p in (0, 1, 2):
            for t in (0.2, 1.0, 3.0):
                expected = (dec.tau_next * math.exp(dec.log_gamma) * t ** m
                            / math.factorial(m + p))
                got = era(dec, sigma, t, p)
                assert got.value == pytest.approx(expected, rel=1e-12)
                assert got.extra_matvecs == 0
                assert got.kind == "era"


def test_era_at_t_zero_and_validation(hermitian_dec):
    _, dec = hermitian_dec
    assert era(dec, -1j, 0.0).value == 0.0
    with pytest.raises(ValueError):
        era(dec, -1j, -1.0)
    for call in (era, err1, quad_estimates, effective_order):
        with pytest.raises(ValueError, match="modulus"):
            call(dec, 2.0, 0.5)


def test_p_is_a_phi_index_of_era_and_err1_alone(hermitian_dec):
    """era, err1 and log_era_factor bound a phi_p approximant and reject
    p < 0 (which would read phi_{-1}); the quadratures and evaluate are the
    exponential's and take no p at all."""
    _, dec = hermitian_dec
    for corrected in (False, True):
        for call in (era, err1):
            with pytest.raises(ValueError, match="p must be >= 0"):
                call(dec, -1j, 1.0, -1, corrected)
    with pytest.raises(ValueError, match="p must be >= 0"):
        kx.estimators.log_era_factor(dec, dec.m, -1, False)
    with pytest.raises(TypeError):
        quad_estimates(dec, -1j, 1.0, 1)
    with pytest.raises(TypeError):
        evaluate("era", dec, -1j, 1.0, 1)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, "0.5", True, 0.5 + 0j,
                               [0.5, 1.0], np.array([0.5])])
@pytest.mark.parametrize("mode", ["lanczos", "arnoldi"])
def test_non_finite_t_is_rejected(hermitian_dec, mode, t):
    """Every estimator kind, the quadrature family, the approximant and
    the defect diagnostics raise on a time that is not a finite real
    number, rather than return NaN (flagged proven, for era) or a warning,
    or read a str, a bool or a complex number as a time, or a list or a
    1-D array as a grid."""
    op, lan = hermitian_dec
    dec = lan if mode == "lanczos" else build_krylov(as_general(op), lan.V[:, 0],
                                                     KrylovConfig(m_max=lan.m))
    assert dec.mode == mode
    calls = [lambda kind=kind: evaluate(kind, dec, -1j, t) for kind in ESTIMATORS]
    calls += [lambda: era(dec, -1j, t), lambda: era(dec, -1j, t, corrected=True),
              lambda: err1(dec, -1j, t), lambda: err1(dec, -1j, t, corrected=True),
              lambda: quad_estimates(dec, -1j, t), lambda: Approximant(dec, -1j).apply(t),
              lambda: Approximant(dec, -1j, 1, corrected=True).apply(t),
              lambda: dec.defect(-1j, t), lambda: effective_order(dec, -1j, t),
              lambda: kx.oracle_phi(op, -1j, t, lan.V[:, 0], 1)]
    if np.ndim(t) == 0:  # corner, like phi, reads a 1-D t as a grid
        calls.append(lambda: dec.corner(-1j, 0, t))
    for call in calls:
        with pytest.raises(ValueError, match="finite"):
            call()


def test_era_no_overflow_at_huge_t(hermitian_dec):
    """The log-domain evaluation must survive t^m far beyond float range."""
    _, dec = hermitian_dec
    out = era(dec, -1j, 1e60)
    assert math.isinf(out.value)


def test_era_corrected_formula_literal(hermitian_dec):
    op, dec = hermitian_dec
    m = dec.m
    anorm = float(np.linalg.norm(op.csr @ dec.v_next))
    for t in (0.2, 1.0):
        expected = (anorm * dec.tau_next * math.exp(dec.log_gamma) * t ** (m + 1)
                    / math.factorial(m + 1))
        got = era(dec, -1j, t, corrected=True)
        assert got.value == pytest.approx(expected, rel=1e-12)
        assert got.extra_matvecs == 1
        assert got.kind == "era_corrected"


def test_era_on_breakdown_is_zero():
    """After a breakdown the projection is exact, so every estimator kind
    is 0.0 at no extra matvec: at m = 2 (a start vector in a 2-dimensional
    invariant subspace) and at m = 1 (a multiple of the identity, where
    the defect itself does not exist)."""
    cases = ((np.array([1.0, 2.0, 3.0]), np.array([0.6, 0.8, 0.0]), 2),
             (np.full(3, 0.3), np.array([0.6, 0.0, 0.8]), 1))
    for lam, v, m in cases:
        op = SparseOperator(sp.diags(lam).tocsr(), symmetry="hermitian")
        dec = build_krylov(op, v, KrylovConfig(m_max=3))
        assert dec.breakdown and dec.m == m
        for p in (0, 1):
            for corrected in (False, True):
                for est in (era(dec, -1.0, 5.0, p, corrected), err1(dec, -1.0, 5.0, p, corrected)):
                    assert (est.value, est.extra_matvecs) == (0.0, 0), (m, p, est.kind)
        for kind in ESTIMATORS:
            est = evaluate(kind, dec, -1.0, 5.0)
            assert (est.value, est.extra_matvecs) == (0.0, 0), (m, kind)
        quads = quad_estimates(dec, -1.0, 5.0)
        assert sorted(e.kind for e in quads) == sorted(
            k for k in ESTIMATORS if k.endswith("_quad"))
        assert all(e.value == 0.0 for e in quads)


def test_err1_formula_via_dense_augmented_corner(hermitian_dec):
    """tau * t * |e_m^* phi_{p+1}(sigma t T) e_1| with the corner entry
    recomputed through a dense scipy expm of the augmented matrix."""
    _, dec = hermitian_dec
    m = dec.m
    sigma = -1.0
    for p in (0, 1):
        for t in (0.5, 2.0):
            q = p + 1
            aug = np.zeros((m + q, m + q), dtype=complex)
            aug[:m, :m] = sigma * t * dec.T
            aug[0, m] = 1.0
            for k in range(q - 1):
                aug[m + k, m + k + 1] = 1.0
            corner = scipy.linalg.expm(aug)[m - 1, m + q - 1]
            expected = dec.tau_next * t * abs(corner)
            got = err1(dec, sigma, t, p)
            assert got.value == pytest.approx(expected, rel=1e-10)


def test_err1_corrected_formula(hermitian_dec):
    op, dec = hermitian_dec
    sigma = -1.0
    anorm = float(np.linalg.norm(op.csr @ dec.v_next))
    t = 0.7
    expected = anorm * dec.tau_next * t ** 2 * abs(dec.corner(sigma, 2, t))
    got = err1(dec, sigma, t, corrected=True)
    assert got.value == pytest.approx(expected, rel=1e-12)
    assert got.extra_matvecs == 1
    assert got.kind == "err1_corrected"


def test_proven_flag_table(hermitian_dec, heat_pair, hubbard_op, hubbard_vec):
    """Which estimator is a proven upper bound depends on the operator
    class and the (operator, sigma) pair; the flags must match exactly."""
    op, sigma, v = heat_pair
    heat_dec = build_krylov(op, v, KrylovConfig(m_max=8))
    # hermitian nonexpansive, real sigma: both era and err1 proven
    assert era(heat_dec, sigma, 1.0).is_proven_upper_bound
    assert err1(heat_dec, sigma, 1.0).is_proven_upper_bound
    assert era(heat_dec, sigma, 1.0, corrected=True).is_proven_upper_bound
    # corrected variants are never proven for err1
    assert not err1(heat_dec, sigma, 1.0, corrected=True).is_proven_upper_bound

    _, dec = hermitian_dec
    # skew case (imaginary sigma): era proven, err1 not
    assert era(dec, -1j, 1.0).is_proven_upper_bound
    assert not err1(dec, -1j, 1.0).is_proven_upper_bound
    # spec(A) = [-0.956, 1.0] is indefinite, so -A is expansive: nothing proven
    assert not era(dec, -1.0, 1.0).is_proven_upper_bound
    assert not err1(dec, -1.0, 1.0).is_proven_upper_bound
    assert not era(dec, -1.0, 1.0, corrected=True).is_proven_upper_bound

    hdec = build_krylov(hubbard_op, hubbard_vec, KrylovConfig(m_max=6))
    assert era(hdec, -1j, 0.1).is_proven_upper_bound
    assert not err1(hdec, -1j, 0.1).is_proven_upper_bound

    # an operator without the nonexpansive certificate gets no proven era
    rng = np.random.default_rng(72)
    B = rng.standard_normal((10, 10))
    bop = SparseOperator(sp.csr_matrix(B))
    bv = random_unit(10, seed=73, complex_=False)
    bdec = build_krylov(bop, bv, KrylovConfig(m_max=4))
    assert not era(bdec, 1.0, 0.5).is_proven_upper_bound


def test_expansive_pairs_are_not_proven(hermitian_dec, heat_pair, hubbard_op,
                                        hubbard_vec):
    """Pairs where sigma*A is expansive: era falls far below the true
    error, so flagging it proven would be a false statement."""
    op, _, v = heat_pair
    dec = build_krylov(op, v, KrylovConfig(m_max=5))
    t = 20.0
    err = np.linalg.norm(Approximant(dec, 1.0).apply(t)
                         - kx.oracle_laplacian(op.n, 1.0, [t], v)[0])
    est = era(dec, 1.0, t)
    assert est.value < 1e2 and err > 1e7
    assert not est.is_proven_upper_bound

    dec = build_krylov(hubbard_op, hubbard_vec, KrylovConfig(m_max=10))
    err = np.linalg.norm(Approximant(dec, -1.0).apply(1.0)
                         - expm_multiply(-hubbard_op.csr, hubbard_vec))
    est = era(dec, -1.0, 1.0)
    assert est.value < 1e2 and err > 1e5
    assert not est.is_proven_upper_bound

    op, dec = hermitian_dec
    A = op.csr.toarray()
    for t in (3.0, 6.0, 10.0):
        err = np.linalg.norm(Approximant(dec, -1.0).apply(t)
                             - scipy.linalg.expm(-t * A) @ dec.V[:, 0])
        est = era(dec, -1.0, t)
        assert est.value < err
        assert not est.is_proven_upper_bound


def test_trapezoid_is_an_estimate_not_a_bound(heat_pair):
    """On heat at its canonical sigma |delta| is concave at m = 2 and turns
    concave at m = 3 by t = 20: the trapezoid value falls below the true
    error there, while err1 (the exact defect integral) stays above it."""
    op, sigma, v = heat_pair
    for m, t in ((2, 1.0), (3, 20.0)):
        dec = build_krylov(op, v, KrylovConfig(m_max=m))
        err = np.linalg.norm(Approximant(dec, sigma).apply(t)
                             - kx.oracle_laplacian(op.n, sigma, [t], v)[0])
        trap = evaluate("trapezoid_quad", dec, sigma, t)
        assert trap.value < err and not trap.is_proven_upper_bound
        bound = err1(dec, sigma, t)
        assert bound.value > err and bound.is_proven_upper_bound


def test_quad_formulas_literal(heat_pair):
    op, sigma, v = heat_pair
    dec = build_krylov(op, v, KrylovConfig(m_max=10))
    t = 1.0
    delta, delta_prime = dec.defect(sigma, t)
    tau, m = dec.tau_next, dec.m
    got = {e.kind: e for e in quad_estimates(dec, sigma, t)}

    # the plain rules are one formula, tau * (t/w) * |delta|, bit for bit
    rho = effective_order(dec, sigma, t)
    for kind, w in (("hermite_quad", m), ("trapezoid_quad", 2.0),
                    ("effective_order_quad", rho + 1.0)):
        assert got[kind].value == tau * (t / w) * abs(delta), kind

    # improved variant: norm of the two-term vector combination
    av = dec.a_v_next()
    ddot = np.conj(sigma) * delta_prime
    vec = ((sigma * tau * (2 * t / (m + 1)) * delta) * dec.v_next
           - (sigma ** 2 * tau * (t ** 2 / (m * (m + 1))))
           * (ddot * dec.v_next - delta * av))
    assert got["improved_hermite_quad"].value == pytest.approx(
        float(np.linalg.norm(vec)), rel=1e-12)
    assert got["improved_hermite_quad"].extra_matvecs == 1

    # the quadratures are estimates, not proven bounds
    assert not got["trapezoid_quad"].is_proven_upper_bound
    assert not got["hermite_quad"].is_proven_upper_bound


def test_quad_guard_drops_effective_order_out_of_regime(hubbard_op, hubbard_vec):
    """Once the defect turns oscillatory the sampled rho stops decreasing
    (or leaves [1, inf)); the guarded entry must disappear rather than
    report a bogus value."""
    dec = build_krylov(hubbard_op, hubbard_vec, KrylovConfig(m_max=30))
    ok = {e.kind for e in quad_estimates(dec, -1j, 1.0)}
    assert "effective_order_quad" in ok
    bad = {e.kind for e in quad_estimates(dec, -1j, 2.68)}
    assert "effective_order_quad" not in bad


def test_quad_guard_requires_resolvable_defect(heat_pair):
    op, sigma, v = heat_pair
    dec = build_krylov(op, v, KrylovConfig(m_max=10))
    kinds = {e.kind for e in quad_estimates(dec, sigma, 0.05)}
    assert "effective_order_quad" not in kinds


def test_trapezoid_dominates_hermite(heat_pair):
    """t/2 >= t/m for m >= 2, with equality only at m = 2."""
    op, sigma, v = heat_pair
    dec = build_krylov(op, v, KrylovConfig(m_max=10))
    for t in (0.8, 1.5, 3.0):
        got = {e.kind: e.value for e in quad_estimates(dec, sigma, t)}
        assert got["trapezoid_quad"] >= got["hermite_quad"]


def test_evaluate_dispatch(heat_pair):
    op, sigma, v = heat_pair
    dec = build_krylov(op, v, KrylovConfig(m_max=10))
    t = 1.0
    assert evaluate("era", dec, sigma, t).value == era(dec, sigma, t).value
    assert (evaluate("err1", dec, sigma, t).value
            == err1(dec, sigma, t).value)
    assert (evaluate("era_corrected", dec, sigma, t).value
            == era(dec, sigma, t, corrected=True).value)
    quads = {e.kind: e.value for e in quad_estimates(dec, sigma, t)}
    assert evaluate("trapezoid_quad", dec, sigma, t).value == quads["trapezoid_quad"]
    with pytest.raises(ValueError):
        evaluate("magic", dec, sigma, t)
    with pytest.raises(ValueError, match="unknown estimator kind"):
        kx.estimators.estimate("magic", dec, sigma, t)


def test_evaluate_effective_order_falls_back_to_trapezoid(heat_pair):
    """Out of the guarded regime the dispatcher returns the trapezoid
    value so controllers always get a number."""
    op, sigma, v = heat_pair
    dec = build_krylov(op, v, KrylovConfig(m_max=10))
    t = 0.05  # below the defect floor: no guarded rho here
    out = evaluate("effective_order_quad", dec, sigma, t)
    assert out.kind == "trapezoid_quad"


def test_effective_order_quad_at_the_smallest_subnormal_t(heat_pair):
    """Half of t = 5e-324 rounds to 0, where rho has no sample: the guard
    drops the entry and the dispatcher falls back instead of raising."""
    op, sigma, v = heat_pair
    dec = build_krylov(op, v, KrylovConfig(m_max=10))
    assert "effective_order_quad" not in {e.kind for e in quad_estimates(dec, sigma, 5e-324)}
    assert evaluate("effective_order_quad", dec, sigma, 5e-324).kind == "trapezoid_quad"


class CountingOperator(SparseOperator):
    """SparseOperator that counts the matvecs actually performed."""

    calls = 0

    def matvec(self, x):
        self.calls += 1
        return super().matvec(x)


def _same_kind_reference(kind, dec, sigma, t, p=0):
    """The estimate of `kind` as the per-family entry points report it:
    era and err1 at phi index p, the quadratures (the exponential's)
    without one."""
    if kind in ("era", "era_corrected"):
        return era(dec, sigma, t, p, corrected=kind == "era_corrected")
    if kind in ("err1", "err1_corrected"):
        return err1(dec, sigma, t, p, corrected=kind == "err1_corrected")
    quads = {e.kind: e for e in quad_estimates(dec, sigma, t)}
    if kind == "effective_order_quad" and kind not in quads:
        return quads["trapezoid_quad"]  # evaluate's documented fallback
    return quads[kind]


def _random_dec(seed, hermitian, n, m):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if hermitian:
        A = 0.5 * (A + A.conj().T)
    else:
        A = A + 3.0 * np.triu(A, 1)  # lopsided: far from normal
    A = A / np.linalg.norm(A, 2)
    op = CountingOperator(sp.csr_matrix(A),
                          symmetry="hermitian" if hermitian else "general")
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return op, build_krylov(op, v / np.linalg.norm(v), KrylovConfig(m_max=m))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), hermitian=st.booleans(),
       n=st.integers(6, 12), m=st.integers(2, 5), sigma=SIGMAS,
       kind=st.sampled_from(sorted(ESTIMATORS)), t=st.floats(1e-3, 5.0),
       p=st.integers(0, 1))
def test_evaluate_matches_family_and_reports_its_cost(seed, hermitian, n, m,
                                                      sigma, kind, t, p):
    """evaluate(kind) returns exactly what era / err1 / quad_estimates
    report for that kind, and a fresh decomposition spends exactly the
    reported extra matvecs on it, counted in dec.matvecs_used: through
    evaluate, and for era and err1 through those functions at phi index p."""
    op, dec = _random_dec(seed, hermitian, n, m)
    assume(not dec.breakdown)
    built = op.calls
    got = evaluate(kind, dec, sigma, t)
    assert op.calls - built == got.extra_matvecs
    assert dec.matvecs_used == op.calls

    _, fresh = _random_dec(seed, hermitian, n, m)
    assert got == _same_kind_reference(kind, fresh, sigma, t)

    if not kind.endswith("_quad"):
        op, fresh = _random_dec(seed, hermitian, n, m)
        built = op.calls
        est = _same_kind_reference(kind, fresh, sigma, t, p)
        assert (est.kind, est.extra_matvecs) == (kind, got.extra_matvecs)
        assert op.calls - built == est.extra_matvecs
        assert fresh.matvecs_used == op.calls


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       cls=st.sampled_from(["hermitian", "skew", "nonnormal"]),
       n=st.integers(6, 12), m=st.integers(2, 5), sigma=SIGMAS,
       shift=st.one_of(st.none(), st.floats(0.0, 0.5)),
       t=st.floats(1e-2, 5.0), p=st.integers(0, 1))
def test_proven_flag_is_a_true_statement(seed, cls, n, m, sigma, shift, t, p):
    """log_norm_bound never undercuts the logarithmic norm, and whenever an
    estimate claims to be a proven upper bound it dominates the true error
    of its approximant, computed with scipy.linalg.expm.

    With shift set, sigma*A is moved left by its Gershgorin bound plus
    shift, so nonexpansive (proven) pairs occur often."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if cls == "hermitian":
        A = 0.5 * (A + A.conj().T)
    elif cls == "skew":
        A = 0.5 * (A - A.conj().T)
    else:
        A = A + 3.0 * np.triu(A, 1)
    A = A / np.linalg.norm(A, 2)
    if shift is not None:
        mu = SparseOperator(sp.csr_matrix(A)).log_norm_bound(sigma)
        A = A - np.conj(sigma) * (mu + shift) * np.eye(n)
    symmetry = "hermitian" if np.array_equal(A, A.conj().T) else "general"
    op = SparseOperator(sp.csr_matrix(A), symmetry=symmetry)

    H = 0.5 * (sigma * A + np.conj(sigma) * A.conj().T)
    assert op.log_norm_bound(sigma) >= np.linalg.eigvalsh(H)[-1] - 1e-12

    v = random_unit(n, seed=seed % 2 ** 31)
    dec = build_krylov(op, v, KrylovConfig(m_max=m))
    # phi_p(sigma t A) v for p <= 1 from expm([[sigma t A, v], [0, 0]])
    aug = np.zeros((n + 1, n + 1), dtype=complex)
    aug[:n, :n] = sigma * t * A
    aug[:n, n] = v
    E = scipy.linalg.expm(aug)
    exact = (E[:n, :n] @ v, E[:n, n])
    # era and err1 at phi index p; the trapezoid rule is the exponential's
    for est, corrected, q in ((era(dec, sigma, t, p), False, p),
                              (era(dec, sigma, t, p, corrected=True), True, p),
                              (err1(dec, sigma, t, p), False, p),
                              (evaluate("trapezoid_quad", dec, sigma, t), False, 0)):
        if est.is_proven_upper_bound:
            err = np.linalg.norm(Approximant(dec, sigma, q, corrected=corrected).apply(t)
                                 - exact[q])
            assert err <= est.value * (1 + 1e-9) + 1e-12, (est.kind, err, est.value)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), hermitian=st.booleans(),
       n=st.integers(6, 12), m=st.integers(2, 5), sigma=SIGMAS,
       t=st.floats(1e-3, 5.0), p=st.integers(0, 2), corrected=st.booleans())
def test_every_estimate_kind_is_a_table_key(seed, hermitian, n, m, sigma, t, p, corrected):
    """Every ErrorEstimate names its ESTIMATORS row, at any phi index p:
    the long CSV's p column records p, so the kind carries no p of its own."""
    _, dec = _random_dec(seed, hermitian, n, m)
    ests = [era(dec, sigma, t, p, corrected), err1(dec, sigma, t, p, corrected)]
    ests += quad_estimates(dec, sigma, t)
    ests += [evaluate(kind, dec, sigma, t) for kind in ESTIMATORS]
    assert all(e.kind in ESTIMATORS for e in ests), [e.kind for e in ests]


def test_expokit_first_step_formula():
    m, tol, anorm = 10, 1e-8, 3.7
    expected = (1.0 / anorm) * (
        (tol * ((m + 1) / math.e) ** (m + 1) * math.sqrt(2 * math.pi * (m + 1)))
        / (4 * anorm)) ** (1.0 / m)
    assert expokit_first_step(anorm, m, tol) == pytest.approx(expected, rel=1e-12)
    # tighter tolerance, smaller step
    assert expokit_first_step(anorm, m, 1e-10) < expokit_first_step(anorm, m, 1e-6)


def _fresh(hermitian):
    """A builder of fresh decompositions (m = 6) of one random complex
    operator of order 10, hermitian or general, scaled to 2-norm 1."""
    rng = np.random.default_rng(72)
    A = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    A = 0.5 * (A + A.conj().T) if hermitian else A + 3.0 * np.triu(A, 1)
    op = SparseOperator(sp.csr_matrix(A / np.linalg.norm(A, 2)),
                        symmetry="hermitian" if hermitian else "general")
    v = random_unit(10, seed=72, complex_=True)
    return lambda: build_krylov(op, v, KrylovConfig(m_max=6))


def _bits(x):
    """x as comparable bits: the type and bytes of a number or array, the
    fields of an ErrorEstimate or PropagationResult, entry by entry."""
    if isinstance(x, (list, tuple)):
        return [_bits(e) for e in x]
    if isinstance(x, kx.ErrorEstimate):
        return [x.kind, _bits(x.value), x.is_proven_upper_bound, x.extra_matvecs]
    if isinstance(x, kx.PropagationResult):
        return [_bits(x.w_final), [[_bits(r.dt), r.m_used, _bits(r.estimate), r.matvecs]
                                   for r in x.records]]
    return [type(x), np.asarray(x).dtype, np.asarray(x).tobytes()]


# every public call that takes a time, as (dec, sigma, t) -> result
TIME_CALLS = {
    "era": lambda dec, s, t: era(dec, s, t),
    "era_corrected": lambda dec, s, t: era(dec, s, t, 1, corrected=True),
    "err1": lambda dec, s, t: err1(dec, s, t, 1),
    "err1_corrected": lambda dec, s, t: err1(dec, s, t, corrected=True),
    "estimate": lambda dec, s, t: kx.estimators.estimate("hermite_quad", dec, s, t),
    "quad_estimates": lambda dec, s, t: quad_estimates(dec, s, t),
    "evaluate": lambda dec, s, t: evaluate("effective_order_quad", dec, s, t),
    "effective_order": lambda dec, s, t: effective_order(dec, s, t),
    "phi": lambda dec, s, t: dec.phi(s, 2, t),
    "corner": lambda dec, s, t: dec.corner(s, 1, t),
    "defect": lambda dec, s, t: dec.defect(s, t),
    "apply": lambda dec, s, t: Approximant(dec, s, 1).apply(t),
    "apply_corrected": lambda dec, s, t: Approximant(dec, s, corrected=True).apply(t),
    "oracle_phi": lambda dec, s, t: kx.oracle_phi(dec.op, s, t, dec.V[:, 0], 1),
    "propagate": lambda dec, s, t: kx.propagate(dec.op, s, dec.V[:, 0], t, KrylovConfig(m_max=4),
                                                kx.ControllerSpec("direct_era_local", 1e-6)),
}


@pytest.mark.parametrize("hermitian", [True, False], ids=["lanczos", "arnoldi"])
@pytest.mark.parametrize("name", TIME_CALLS)
def test_a_0d_time_is_the_float_it_holds(name, hermitian):
    """Every public call that takes a time gives for a 0-d array t what it
    gives for the float t holds, on a fresh decomposition each: the same
    types and bits."""
    fresh = _fresh(hermitian)
    call = TIME_CALLS[name]
    for t in (0.3, np.float64(0.7)):
        assert _bits(call(fresh(), -1j, np.asarray(t))) == _bits(call(fresh(), -1j, float(t)))
