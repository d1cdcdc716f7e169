"""End-to-end acceptance runs for the headline guarantees.

Every test here drives the public API the way the experiment driver does
and checks the library's central claims: the a-posteriori estimates
certify the oracle error where they are proven to, they are tight in the
small-step regime with the advertised asymptotic order, the quadrature
family is internally ordered, and the step-size controllers meet their
accuracy budgets at reference operating points.
"""

import math
import os
import time
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from krylovexp import (Approximant, ControllerSpec, KrylovConfig, ProblemSpec,
                       build_hubbard, build_krylov, early_stop_dimension,
                       effective_order, propagate_fixed_steps, quad_estimates,
                       starting_vector, step_size_direct, step_size_iterated)
from krylovexp.estimators import era, err1
from krylovexp.oracle import oracle_laplacian, oracle_reference

BOUND_SLACK = 1e-9     # relative slack on proven bounds
ORACLE_FLOOR = 1e-13   # absolute slack covering the reference accuracy
VALID_ERR = 1e-12      # below this the oracle difference is roundoff noise

GALLERY = [
    ("schrodinger_free", {"n": 200}),
    ("heat", {"n": 200}),
    ("convection_diffusion", {"n": 6, "mu1": 0.9, "mu2": 1.1}),
    ("convection_diffusion", {"n": 6, "mu1": 0.0, "mu2": 0.0}),
    ("hubbard", {}),
]


def certified(err, bound):
    return err <= bound * (1.0 + BOUND_SLACK) + ORACLE_FLOOR


def inverted_grid(dec, sigma, points=20, tol_lo=1e-11, tol_hi=0.5):
    """Log grid between the steps where the bound predicts tol_lo and
    tol_hi, so every panel is probed over the same estimate range."""
    lo = step_size_direct(dec, sigma, tol_lo)
    hi = step_size_direct(dec, sigma, tol_hi)
    return np.geomspace(lo, hi, points)


def test_upper_bound_certifies_error_across_gallery():
    """The default estimate is a true upper bound on every problem in the
    gallery at m = 10 and 30, over two decades of step sizes."""
    t_start = time.time()
    total_valid = 0
    for kind, params in GALLERY:
        spec = ProblemSpec(kind, params, seed=0)
        op, sigma = spec.build()
        v = starting_vector(spec)
        for m in (10, 30):
            dec = build_krylov(op, v, KrylovConfig(m_max=m))
            appr = Approximant(dec, sigma)
            if dec.breakdown:
                # invariant subspace found: the approximant is exact
                ts = np.geomspace(0.01, 1.0, 10)
                for t, ref in zip(ts, oracle_reference(spec, op, sigma, ts, v)):
                    assert np.linalg.norm(appr.apply(t) - ref) <= 1e-12
                continue
            valid = 0
            peak = 0.0
            ts = inverted_grid(dec, sigma)
            for t, ref in zip(ts, oracle_reference(spec, op, sigma, ts, v)):
                err = float(np.linalg.norm(appr.apply(t) - ref))
                peak = max(peak, err)
                if err >= VALID_ERR:
                    valid += 1
                    assert certified(err, era(dec, sigma, t).value), \
                        f"{kind} m={m} t={t}: err {err} above bound"
            if valid == 0:
                # near-invariant panels sit at the roundoff floor; the
                # certificate holds vacuously but exactness must be real
                assert peak <= 1e-12, f"{kind} m={m}: no valid points yet inexact"
            total_valid += valid
    assert total_valid >= 100
    assert time.time() - t_start < 600.0


def tightness_panel(kind, m=10, p=0, corrected=False):
    """Estimate/error ratio at the tightest grid point and the log-log
    error slope over the asymptotic window."""
    spec = ProblemSpec(kind, {"n": 200} if kind != "hubbard" else {}, seed=0)
    op, sigma = spec.build()
    v = starting_vector(spec)
    dec = build_krylov(op, v, KrylovConfig(m_max=m))
    appr = Approximant(dec, sigma, p, corrected=corrected)
    # era for phi_p is m!/(m+p)! times era for the exponential, so the
    # phi_p inversion at tol is the exponential's at tol * (m+p)!/m!
    scale = math.perm(m + p, p)
    lo = step_size_direct(dec, sigma, 1e-10 * scale, corrected=corrected)
    hi = step_size_direct(dec, sigma, 1e-5 * scale, corrected=corrected)
    pts = []
    ts = np.geomspace(lo, hi, 20)
    for t, ref in zip(ts, oracle_reference(spec, op, sigma, ts, v, p)):
        err = float(np.linalg.norm(appr.apply(t) - ref))
        est = era(dec, sigma, t, p, corrected=corrected).value
        pts.append((t, err, est))
        if err >= VALID_ERR:
            assert certified(err, est)
    t0, e0, s0 = next(x for x in pts if x[1] >= VALID_ERR)
    ratio = s0 / e0
    window = [(t, e) for t, e, _ in pts if 1e-11 <= e <= 1e-6]
    assert len(window) >= 8
    slope = np.polyfit(np.log([t for t, _ in window]),
                       np.log([e for _, e in window]), 1)[0]
    return ratio, slope


@pytest.mark.parametrize("kind", ["schrodinger_free", "hubbard"])
def test_upper_bound_is_asymptotically_tight(kind):
    """On the norm-preserving problems the bound approaches the true
    error as t -> 0 and the error decays with the space dimension."""
    ratio, slope = tightness_panel(kind)
    assert abs(ratio - 1.0) <= 0.15
    assert abs(slope - 10.0) <= 0.25


@pytest.mark.parametrize("kind", ["schrodinger_free", "hubbard"])
def test_phi_bound_keeps_the_asymptotic_order(kind):
    ratio, slope = tightness_panel(kind, p=1)
    assert abs(ratio - 1.0) <= 0.15
    assert abs(slope - 10.0) <= 0.25


@pytest.mark.parametrize("kind", ["schrodinger_free", "hubbard"])
def test_corrected_scheme_gains_one_order(kind):
    ratio, slope = tightness_panel(kind, corrected=True)
    assert abs(ratio - 1.0) <= 0.15
    assert abs(slope - 11.0) <= 0.25


def test_defect_integral_bound_dominates_on_hermitian_problem(heat_pair):
    """The integral-form estimate is itself an upper bound when the
    field of values is real and the propagator is a contraction."""
    op, sigma, v = heat_pair
    for m in (10, 30):
        dec = build_krylov(op, v, KrylovConfig(m_max=m))
        appr = Approximant(dec, sigma)
        valid = 0
        for t in inverted_grid(dec, sigma):
            err = float(np.linalg.norm(appr.apply(t)
                                       - oracle_laplacian(op.n, sigma, t, v)))
            if err < VALID_ERR:
                continue
            valid += 1
            est = err1(dec, sigma, t)
            assert est.is_proven_upper_bound
            assert certified(err, est.value)
        assert valid >= 10


QUAD_GRIDS = [
    ("schrodinger_free", 10, 0.75, 3.0),
    ("schrodinger_free", 30, 25.0, 60.0),
    ("heat", 10, 0.75, 3.0),
    ("heat", 30, 26.0, 110.0),
    ("hubbard", 10, 0.03, 0.35),
    ("hubbard", 30, 0.75, 2.1),
]

GAUSS_X, GAUSS_W = np.polynomial.legendre.leggauss(64)


@pytest.mark.parametrize("kind, m, t_lo, t_hi", QUAD_GRIDS)
def test_quadrature_family_is_ordered(kind, m, t_lo, t_hi):
    """hermite <= 64-node Gauss reference of tau * integral |delta|
    <= effective-order <= trapezoid, pointwise, on grids where the
    defect is numerically resolvable."""
    spec = ProblemSpec(kind, {"n": 200} if kind != "hubbard" else {}, seed=0)
    op, sigma = spec.build()
    v = starting_vector(spec)
    dec = build_krylov(op, v, KrylovConfig(m_max=m))
    for t in np.geomspace(t_lo, t_hi, 12):
        quads = {e.kind: e.value for e in quad_estimates(dec, sigma, t)}
        assert "effective_order_quad" in quads, f"guard dropped t={t}"
        nodes = 0.5 * t * (GAUSS_X + 1.0)
        absd = np.array([abs(dec.defect(sigma, s)[0]) for s in nodes])
        gauss = dec.tau_next * 0.5 * t * float(GAUSS_W @ absd)
        assert quads["hermite_quad"] <= gauss + 1e-12
        assert gauss <= quads["effective_order_quad"] + 1e-12
        assert quads["effective_order_quad"] <= quads["trapezoid_quad"] + 1e-12


def test_effective_order_reference_values(hubbard_op, hubbard_vec, heat_pair):
    dec = build_krylov(hubbard_op, hubbard_vec, KrylovConfig(m_max=10))
    rho = effective_order(dec, -1j, 3.9e-2)
    assert abs(rho - 8.99) <= 0.05

    op, sigma, v = heat_pair
    dec = build_krylov(op, v, KrylovConfig(m_max=10))
    rho = effective_order(dec, sigma, 1.0)
    assert abs(rho - 8.50) <= 0.05


def test_fermion_chain_dimensions_and_spectrum(hubbard_op):
    assert hubbard_op.n == 4900
    assert hubbard_op.nnz == 43980
    t0 = time.time()

    def extremes(op):
        lo = spla.eigsh(op.csr, k=1, which="SA", return_eigenvectors=False)
        hi = spla.eigsh(op.csr, k=1, which="LA", return_eigenvectors=False)
        return float(lo[0]), float(hi[0])

    lo1, hi1 = extremes(hubbard_op)
    assert -19.1 < lo1 and hi1 < 8.3
    # the hopping phase is a gauge choice: the spectrum cannot move
    lo2, hi2 = extremes(build_hubbard(1.0))
    assert abs(lo2 - lo1) <= 1e-8 and abs(hi2 - hi1) <= 1e-8
    assert time.time() - t0 < 60.0


@pytest.mark.skipif(not os.environ.get("KRYLOVEXP_FULL_SPECTRUM"),
                    reason="full dense eigensolve; set KRYLOVEXP_FULL_SPECTRUM=1")
def test_fermion_chain_full_spectrum_is_gauge_invariant(hubbard_op):
    lam1 = np.linalg.eigvalsh(hubbard_op.csr.toarray())
    lam2 = np.linalg.eigvalsh(build_hubbard(1.0).csr.toarray())
    assert np.max(np.abs(lam1 - lam2)) <= 1e-8


CONTROLLER_RUNS = [("direct_era_local", "era"),
                   ("heuristic_iterated", "trapezoid_quad"),
                   ("heuristic_iterated", "effective_order_quad"),
                   ("heuristic_iterated", "err1")]

HUBBARD = ProblemSpec("hubbard", seed=0)

# reference total times covered by the direct controller in ten steps
DIRECT_T_ANCHOR = {10: 0.8422, 30: 9.7361}


@pytest.mark.parametrize("m", [10, 30])
def test_controllers_meet_per_step_budget(hubbard_op, hubbard_vec, m):
    """Ten adaptive steps at tol = 1e-8: every controller keeps the
    accumulated oracle error below tol per unit time, and the direct
    controller's total time lands near the reference value."""
    tol = 1e-8
    for ctrl_kind, estimator in CONTROLLER_RUNS:
        ctrl = ControllerSpec(ctrl_kind, tol)
        res = propagate_fixed_steps(hubbard_op, -1j, hubbard_vec, 10,
                                    KrylovConfig(m_max=m), ctrl, estimator)
        ref = oracle_reference(HUBBARD, hubbard_op, -1j, [res.total_time],
                               hubbard_vec)[0]
        err = float(np.linalg.norm(res.w_final - ref))
        assert err / res.total_time <= tol * (1 + BOUND_SLACK) \
            + 10 * ORACLE_FLOOR / res.total_time
        if ctrl_kind == "direct_era_local":
            assert abs(res.total_time / DIRECT_T_ANCHOR[m] - 1.0) <= 0.30


def test_early_stopping_picks_small_dimension(hubbard_op, hubbard_vec):
    dec = early_stop_dimension(hubbard_op, hubbard_vec, 0.3, 1e-8, 30, -1j)
    assert 13 <= dec.m <= 21
    assert dec.matvecs_used <= 30
    w = Approximant(dec, -1j).apply(0.3)
    err = np.linalg.norm(w - oracle_reference(HUBBARD, hubbard_op, -1j, [0.3],
                                              hubbard_vec)[0])
    assert err / 0.3 <= 1e-8


def test_unitary_evolution_preserves_the_norm(hubbard_op, hubbard_vec,
                                              schrodinger_pair):
    cfg = KrylovConfig(m_max=30)
    cases = [(hubbard_op, -1j, hubbard_vec)]
    op, sigma, v = schrodinger_pair
    cases.append((op, sigma, v))
    for op_, sigma_, v_ in cases:
        appr = Approximant(build_krylov(op_, v_, cfg), sigma_)
        for t in (0.01, 0.1, 0.5, 1.0):
            assert abs(np.linalg.norm(appr.apply(t)) - 1.0) <= 1e-12


@pytest.mark.parametrize("m, cap", [(10, 2), (30, 5)])
def test_iterated_step_size_converges_quickly(hubbard_op, hubbard_vec, m, cap):
    dec = build_krylov(hubbard_op, hubbard_vec, KrylovConfig(m_max=m))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dt, iters = step_size_iterated(dec, -1j, 1e-8, "err1")
    assert math.isfinite(dt) and dt > 0
    assert iters <= cap
