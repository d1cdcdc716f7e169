"""Step-size control: the direct inversions and their round trips, the
heuristic update rule on paper examples, the iterated controller, the
propagation loop accounting and the certificate of a whole trajectory."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import krylovexp as kx
from krylovexp import stepper
from krylovexp import (ControllerSpec, KrylovConfig, SparseOperator,
                       build_krylov, era, expokit_first_step,
                       propagate, propagate_fixed_steps, step_size_direct,
                       step_size_heuristic, step_size_iterated)

from krylovexp.estimators import CORRECTED_KINDS, ESTIMATORS

from conftest import as_general, random_unit


@pytest.mark.parametrize("corrected", [False, True])
@pytest.mark.parametrize("model", ["global_budget", "per_unit_step"])
@pytest.mark.parametrize("mode", ["lanczos", "arnoldi"])
def test_direct_inversion_round_trip(heat_pair, mode, model, corrected):
    """The inverted step meets its target: era(dt) = tol (global) or
    dt * tol (per unit step), for the bound and its corrected variant."""
    op, sigma, v = heat_pair
    dec = build_krylov(op if mode == "lanczos" else as_general(op), v,
                       KrylovConfig(m_max=10))
    assert dec.mode == mode
    tol = 1e-8
    dt = step_size_direct(dec, tol, model=model, corrected=corrected)
    bound = era(dec, sigma, dt, corrected=corrected).value
    target = tol if model == "global_budget" else dt * tol
    assert bound == pytest.approx(target, rel=1e-12)


def test_direct_inversion_tol_scaling(heat_pair):
    """Scaling tol by 2^m doubles the global-budget step exactly."""
    op, sigma, v = heat_pair
    dec = build_krylov(op, v, KrylovConfig(m_max=10))
    tol = 1e-9
    dt1 = step_size_direct(dec, tol, model="global_budget")
    dt2 = step_size_direct(dec, tol * 2.0 ** dec.m, model="global_budget")
    assert dt2 == pytest.approx(2.0 * dt1, rel=1e-13)


def test_direct_inversion_breakdown_is_unbounded():
    lam = np.array([1.0, 2.0, 3.0])
    op = SparseOperator(sp.diags(lam).tocsr(), symmetry="hermitian")
    v = np.array([0.6, 0.8, 0.0])
    dec = build_krylov(op, v, KrylovConfig(m_max=3))
    assert dec.breakdown
    assert step_size_direct(dec, 1e-8) == math.inf


def test_direct_inversion_takes_no_sigma(heat_pair):
    """The era bound does not depend on sigma, so the inversion takes none,
    and a call that still passes one raises instead of reading it as tol."""
    op, sigma, v = heat_pair
    dec = build_krylov(op, v, KrylovConfig(m_max=5))
    with pytest.raises(TypeError):
        step_size_direct(dec, 1.0, 1e-8)


def test_direct_inversion_validation(heat_pair):
    op, sigma, v = heat_pair
    dec = build_krylov(op, v, KrylovConfig(m_max=5))
    with pytest.raises(ValueError):
        step_size_direct(dec, 0.0)
    # the inversion is at dec.m: another dimension is another decomposition
    with pytest.raises(TypeError):
        step_size_direct(dec, 1e-8, m=3)
    one = build_krylov(op, v, KrylovConfig(m_max=1))
    with pytest.raises(ValueError):
        step_size_direct(one, 1e-8, model="per_unit_step")


def test_heuristic_update_rule():
    """The pencil-and-paper cases of the per-unit-step target
    prev_dt * tol: an estimate exactly on target keeps the step (times
    safety); an estimate 2^m over target halves it."""
    tol, m = 1e-6, 10
    dt = step_size_heuristic(0.5, 0.5 * tol, tol, m)
    assert dt == pytest.approx(0.5, rel=1e-13)
    dt = step_size_heuristic(0.5, 0.5 * tol * 2.0 ** m, tol, m)
    assert dt == pytest.approx(0.25, rel=1e-13)
    dt = step_size_heuristic(0.5, 0.5 * tol, tol, m, safety=0.9)
    assert dt == pytest.approx(0.45, rel=1e-13)
    with pytest.raises(ValueError):
        step_size_heuristic(0.5, 0.0, tol, m)
    with pytest.raises(ValueError):
        step_size_heuristic(0.0, tol, tol, m)
    with pytest.raises(TypeError):
        step_size_heuristic(0.5, tol, tol, m, model="global_budget")
    # a safety factor is a real number in (0, 1]: no negative, zero, nan,
    # bool or stretching factor
    for safety in (-1, 0.0, math.nan, True, 2.0):
        with pytest.raises(ValueError, match="safety"):
            step_size_heuristic(0.5, tol, tol, m, safety=safety)


def test_iterated_with_era_estimator_converges_immediately(heat_pair):
    """The fixed point of the era estimator IS the direct inversion, so
    one pass must close the loop."""
    op, sigma, v = heat_pair
    dec = build_krylov(op, v, KrylovConfig(m_max=10))
    tol = 1e-8
    dt, iters = step_size_iterated(dec, sigma, tol, "era")
    assert iters == 1
    direct = step_size_direct(dec, tol, model="per_unit_step")
    assert dt == pytest.approx(direct, rel=1e-12)


def test_iterated_err1_converges_and_respects_budget(hubbard_op, hubbard_vec):
    dec = build_krylov(hubbard_op, hubbard_vec, KrylovConfig(m_max=10))
    tol = 1e-8
    dt, iters = step_size_iterated(dec, -1j, tol, "err1")
    assert 1 <= iters <= 5
    assert math.isfinite(dt) and dt > 0


def test_iterated_on_breakdown_returns_inf():
    lam = np.array([1.0, 2.0, 3.0])
    op = SparseOperator(sp.diags(lam).tocsr(), symmetry="hermitian")
    v = np.array([0.6, 0.8, 0.0])
    dec = build_krylov(op, v, KrylovConfig(m_max=3))
    dt, iters = step_size_iterated(dec, -1.0, 1e-8, "era")
    assert dt == math.inf and iters == 0


def test_iterated_returns_its_start_on_a_vanishing_estimate(heat_pair, monkeypatch):
    """An estimate <= 0 hands back the direct era inversion it started
    from, without inverting a second time."""
    op, sigma, v = heat_pair
    dec = build_krylov(op, v, KrylovConfig(m_max=10))
    direct = step_size_direct(dec, 1e-8, model="per_unit_step")
    calls = []
    monkeypatch.setattr(stepper, "step_size_direct",
                        lambda *a, **k: calls.append(1) or step_size_direct(*a, **k))
    monkeypatch.setattr(stepper, "evaluate",
                        lambda *a: kx.ErrorEstimate("trapezoid_quad", 0.0, False))
    assert step_size_iterated(dec, sigma, 1e-8, "trapezoid_quad") == (direct, 1)
    assert len(calls) == 1


def test_controller_spec_defaults_and_validation():
    """A controller is its kind and tol; the kind fixes the error model,
    and the safety factor and the iteration cap are constants of the
    stepper."""
    assert [f.name for f in dataclasses.fields(ControllerSpec)] == ["kind", "tol"]
    assert ControllerSpec("heuristic_iterated", 1e-8).error_model == "per_unit_step"
    for bad in (
        dict(kind="pid", tol=1e-8),
        dict(kind="heuristic", tol=0.0),
        dict(kind="expokit_first_step_only", tol=2.0),  # its first step needs tol < 1
        # the estimator picks the corrected approximant, not the kind
        dict(kind="direct_era_corrected", tol=1e-7),
    ):
        with pytest.raises(ValueError):
            ControllerSpec(**bad)


@pytest.mark.parametrize("kind", ["direct_era_local", "direct_era_global"])
def test_direct_kinds_invert_the_corrected_bound_of_a_corrected_run(heat_pair, kind):
    """With era_corrected the corrected approximant is propagated, so the
    direct kinds invert its bound, and the proven record is that bound."""
    op, sigma, v = heat_pair
    tol = 1e-7
    ctrl = ControllerSpec(kind, tol)
    res = propagate_fixed_steps(op, sigma, v, 1, KrylovConfig(m_max=10), ctrl,
                                "era_corrected")
    dec = build_krylov(op, v, KrylovConfig(m_max=10))
    assert res.records[0].dt == step_size_direct(dec, tol, model=ctrl.error_model,
                                                 corrected=True)
    assert res.records[0].estimate.kind == "era_corrected"
    assert res.records[0].estimate.is_proven_upper_bound


@pytest.mark.parametrize("kind", ESTIMATORS)
def test_the_estimator_table_picks_the_propagated_approximant(heat_pair, kind):
    """One step with any estimator kind propagates the approximant that
    CORRECTED_KINDS assigns to it, and not the other one."""
    op, sigma, v = heat_pair
    res = propagate_fixed_steps(op, sigma, v, 1, KrylovConfig(m_max=10),
                                ControllerSpec("direct_era_local", 1e-3), kind)
    dec = build_krylov(op, v, KrylovConfig(m_max=10))
    corrected = kind in CORRECTED_KINDS
    dt = res.records[0].dt
    own = kx.Approximant(dec, sigma, corrected=corrected).apply(dt)
    other = kx.Approximant(dec, sigma, corrected=not corrected).apply(dt)
    assert np.linalg.norm(res.w_final - own) <= 1e-13 * np.linalg.norm(own)
    assert np.linalg.norm(res.w_final - other) > 1e-10 * np.linalg.norm(own)


def test_propagate_reaches_t_final_exactly(heat_pair):
    op, sigma, v = heat_pair
    ctrl = ControllerSpec("direct_era_local", 1e-6)
    res = propagate(op, sigma, v, 1.0, KrylovConfig(m_max=30), ctrl)
    assert res.total_time == pytest.approx(1.0, rel=1e-14)


def test_propagate_heat_matches_transform_oracle(heat_pair):
    op, sigma, v = heat_pair
    tol = 1e-6
    ctrl = ControllerSpec("direct_era_local", tol)
    res = propagate(op, sigma, v, 1.0, KrylovConfig(m_max=30), ctrl)
    ref = kx.oracle_laplacian(op.n, sigma, [1.0], v)[0]
    err = float(np.linalg.norm(res.w_final - ref))
    assert err <= tol * 1.0
    # proven bounds all the way down, so the budget inequality is exact
    assert all(r.estimate.is_proven_upper_bound for r in res.records)
    assert err <= res.accumulated_bound * (1 + 1e-9) + 1e-13
    assert res.accumulated_bound <= tol * 1.0 * (1 + 1e-9)


def test_propagate_deterministic(heat_pair):
    op, sigma, v = heat_pair
    ctrl = ControllerSpec("direct_era_local", 1e-7)
    a = propagate(op, sigma, v, 0.7, KrylovConfig(m_max=20), ctrl)
    b = propagate(op, sigma, v, 0.7, KrylovConfig(m_max=20), ctrl)
    assert np.array_equal(a.w_final, b.w_final)
    assert [r.dt for r in a.records] == [r.dt for r in b.records]


def test_propagate_single_clipped_step(heat_pair):
    """t_final below the first predicted step: one clipped substep whose
    estimate is re-evaluated at the clipped width."""
    op, sigma, v = heat_pair
    ctrl = ControllerSpec("direct_era_local", 1e-6)
    res = propagate(op, sigma, v, 1e-4, KrylovConfig(m_max=30), ctrl)
    assert len(res.records) == 1
    r = res.records[0]
    assert r.dt == pytest.approx(1e-4, rel=1e-15)
    dec = build_krylov(op, v, KrylovConfig(m_max=30))
    assert r.estimate.value == pytest.approx(era(dec, sigma, 1e-4).value, rel=1e-12)


def test_propagate_matvec_accounting(heat_pair):
    op, sigma, v = heat_pair
    m = 12
    for kind in stepper.CONTROLLER_KINDS:
        ctrl = ControllerSpec(kind, 1e-7)
        res = propagate(op, sigma, v, 0.5, KrylovConfig(m_max=m), ctrl)
        assert all(r.matvecs == m for r in res.records)
        assert res.total_matvecs == m * len(res.records)
        # the certificate is the recorded estimates summed in step order, bit for bit
        total = 0.0
        for r in res.records:
            total += r.estimate.value
        assert res.accumulated_bound.hex() == total.hex()


def test_corrected_controller_costs_one_extra_matvec(heat_pair):
    """At equal total cost the corrected run uses dimension m-1 plus the
    one extra product: the accounting must show exactly m per substep."""
    op, sigma, v = heat_pair
    m = 12
    ctrl = ControllerSpec("direct_era_local", 1e-7)
    res = propagate(op, sigma, v, 0.5, KrylovConfig(m_max=m - 1), ctrl,
                    estimator_kind="era_corrected")
    assert all(r.matvecs == m for r in res.records)
    assert all(r.m_used == m - 1 for r in res.records)


@pytest.mark.parametrize("kind", stepper.CONTROLLER_KINDS)
def test_every_controller_takes_one_step_through_a_breakdown(kind):
    """heat at n = 6 breaks down before m = 10, where the projection is
    exact: every controller kind covers t_final in one step with a zero
    estimate, the a-priori first step included."""
    spec = kx.ProblemSpec("heat", {"n": 6})
    op, sigma = spec.build()
    res = propagate(op, sigma, kx.starting_vector(spec), 5.0, KrylovConfig(m_max=10),
                    ControllerSpec(kind, 1e-8), "trapezoid_quad")
    assert len(res.records) == 1
    assert res.total_time == 5.0
    assert res.accumulated_bound == 0.0


def _scaled(x, e):
    return np.ldexp(x.real, -e) + 1j * np.ldexp(x.imag, -e)


def test_propagate_below_1e150_reaches_t_final():
    """On convection-diffusion |w| falls to 4e-159 by t = 0.489 and to
    2e-270 by t = 0.8, where np.linalg.norm squares the entries into
    subnormals: the run still reaches t_final, proven, along the oracle's
    direction (compared after an exact power-of-two scaling)."""
    spec = kx.ProblemSpec("convection_diffusion")
    op, sigma = spec.build()
    v = kx.starting_vector(spec)
    res = propagate(op, sigma, v, 0.8, KrylovConfig(m_max=30),
                    ControllerSpec("direct_era_local", 1e-6))
    assert res.total_time == 0.8
    assert all(r.estimate.is_proven_upper_bound for r in res.records)
    ref = kx.oracle_reference(spec, op, sigma, [0.8], v)[0]
    e = int(np.frexp(np.abs(ref).max())[1])
    assert e < -850
    w, ref = _scaled(res.w_final, e), _scaled(ref, e)
    assert np.linalg.norm(w - ref) <= 1e-2 * np.linalg.norm(ref)


# random nonexpansive pairs: Hermitian A at sigma = +/-i, general A at
# sigma = 1 (complex, or real with a real v)
FAMILIES = st.sampled_from([("hermitian", 1j), ("hermitian", -1j), ("dissipative", 1.0),
                            ("real_dissipative", 1.0)])


def _nonexpansive_pair(seed, n, family, shift):
    """(A, op, v) for a FAMILIES draw: A scaled to unit 2-norm and, unless
    Hermitian, shifted past its Gershgorin log-norm bound at sigma."""
    structure, sigma = family
    real = structure == "real_dissipative"
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + (0 if real else 1j * rng.standard_normal((n, n)))
    if structure == "hermitian":
        A = 0.5 * (A + A.conj().T)
    A = A / np.linalg.norm(A, 2)
    if structure != "hermitian":
        A = A - (SparseOperator(sp.csr_matrix(A)).log_norm_bound(sigma) + shift) * np.eye(n)
    op = SparseOperator(sp.csr_matrix(A),
                        symmetry="hermitian" if structure == "hermitian" else "general")
    return A, op, random_unit(n, seed=seed % 2 ** 31, complex_=not real)


@pytest.mark.filterwarnings("ignore:step-size iteration")
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(4, 20), family=FAMILIES,
       shift=st.floats(0.01, 1.0),
       kind=st.sampled_from(stepper.CONTROLLER_KINDS),
       estimator=st.sampled_from(["era", "era_corrected"]), m=st.integers(3, 8),
       log_tol=st.floats(-8.0, -3.0), t_final=st.floats(0.1, 3.0))
def test_propagate_certificate_holds(seed, n, family, shift, kind, estimator, m,
                                     log_tol, t_final):
    """When every step is proven, the accumulated bound dominates the
    error of the whole restarted trajectory against scipy.linalg.expm,
    with the CLI's slack and nothing looser.  The operators are random
    Hermitian ones at sigma = +/-i and general ones shifted past their
    Gershgorin log-norm bound at sigma = 1, so every pair is nonexpansive.
    The real_dissipative family draws a real A and a real v, so the whole
    run is in float64."""
    structure, sigma = family
    A, op, v = _nonexpansive_pair(seed, n, family, shift)
    res = propagate(op, sigma, v, t_final, KrylovConfig(m_max=m),
                    ControllerSpec(kind, 10.0 ** log_tol), estimator)
    assert res.w_final.dtype == (np.float64 if structure == "real_dissipative" else np.complex128)
    assert all(r.estimate.is_proven_upper_bound for r in res.records)
    err = np.linalg.norm(res.w_final - scipy.linalg.expm(sigma * t_final * A) @ v)
    assert err <= res.accumulated_bound * (1 + 1e-9) + 1e-12, (err, res.accumulated_bound)


@pytest.mark.filterwarnings("ignore:step-size iteration")
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(10, 30), family=FAMILIES,
       shift=st.floats(0.01, 1.0),
       kind=st.sampled_from(stepper.CONTROLLER_KINDS),
       estimator=st.sampled_from(["era", "era_corrected", "err1", "trapezoid_quad"]),
       m=st.integers(4, 8), log_tol=st.floats(-8.0, -3.0), t_final=st.floats(0.1, 3.0))
def test_a_run_lands_on_t_final_within_its_reach(seed, n, family, shift, kind, estimator,
                                                 m, log_tol, t_final):
    """A run to t_final takes, bit for bit, the steps of the fixed-step run
    with the same controller up to its last one.  The last is
    t_final - t, taken at the first decision whose reach (its step before
    the safety factor) gets to t_final, and is no longer than that reach
    but for the rounding of t + reach onto t_final.  A direct kind's
    reach is its step, so its last step is clipped as it always was and
    never stretched.  n > m, so no run ends in a breakdown; m >= 4 keeps
    runs to a few hundred steps."""
    sigma = family[1]
    _, op, v = _nonexpansive_pair(seed, n, family, shift)
    cfg, ctrl = KrylovConfig(m_max=m), ControllerSpec(kind, 10.0 ** log_tol)
    raw_step, decisions = stepper._raw_step, []

    def recorded(*args):
        decisions.append(raw_step(*args))
        return decisions[-1]

    with mock.patch.object(stepper, "_raw_step", recorded):
        res = propagate(op, sigma, v, t_final, cfg, ctrl, estimator)
    dts = [r.dt for r in res.records]
    if len(dts) > 1:
        fixed = propagate_fixed_steps(op, sigma, v, len(dts) - 1, cfg, ctrl, estimator)
        assert [r.dt for r in fixed.records] == dts[:-1]
    starts = [stepper._in_order_sum(dts[:j]) for j in range(len(dts))]
    assert all(t + reach < t_final for t, (_, reach, _) in zip(starts, decisions[:-1]))
    (dt, reach, _), t = decisions[-1], starts[-1]
    assert dts[-1] == t_final - t
    assert t + reach >= t_final and dts[-1] - reach <= math.ulp(t_final)
    if kind.startswith("direct_era"):
        assert all(d == r for d, r, _ in decisions)
        assert t + dt >= t_final


@pytest.mark.filterwarnings("ignore:step-size iteration")
def test_cd_arnoldi_run_stretches_its_last_step():
    """The benchmark's convection-diffusion run (m = 30, heuristic_iterated
    on trapezoid_quad, tol 1e-8, t = 0.1): the 4th step's reach covers the
    0.068 left, so that step lands on t_final instead of taking 0.9 of the
    reach and leaving a 5th step of 0.0054."""
    spec = kx.ProblemSpec("convection_diffusion")
    op, sigma = spec.build()
    v = kx.starting_vector(spec)
    tol, t_final = 1e-8, 0.1
    res = propagate(op, sigma, v, t_final, KrylovConfig(m_max=30),
                    ControllerSpec("heuristic_iterated", tol), "trapezoid_quad")
    assert len(res.records) == 4 and res.total_matvecs == 120
    assert sum(r.controller_iterations for r in res.records) == 20
    assert res.total_time == t_final
    assert res.records[-1].dt == t_final - stepper._in_order_sum(r.dt for r in res.records[:-1])
    ref = kx.oracle_reference(spec, op, sigma, [t_final], v)[0]
    assert np.linalg.norm(res.w_final - ref) <= tol * t_final


def test_propagate_fixed_steps_runs_exact_count(heat_pair):
    op, sigma, v = heat_pair
    ctrl = ControllerSpec("direct_era_local", 1e-8)
    res = propagate_fixed_steps(op, sigma, v, 7, KrylovConfig(m_max=15), ctrl)
    assert len(res.records) == 7
    assert res.total_time == pytest.approx(sum(r.dt for r in res.records))


def test_counts_and_tolerances_are_checked(heat_pair):
    """A substep count and a Krylov dimension are integers >= 1 (no bool,
    no float), and a tolerance is a finite real number > 0 (no bool, no
    string): n_steps = 2.5 would run 3 substeps, tol = True run at 1.0 and
    m = 0 divide by zero."""
    op, sigma, v = heat_pair
    cfg = KrylovConfig(m_max=6)
    ctrl = ControllerSpec("direct_era_local", 1e-8)
    assert len(propagate_fixed_steps(op, sigma, v, np.int64(2), cfg, ctrl).records) == 2
    for n_steps in (2.5, True, 3.0, "3"):
        with pytest.raises(ValueError, match="n_steps"):
            propagate_fixed_steps(op, sigma, v, n_steps, cfg, ctrl)
    assert ControllerSpec("heuristic", np.float64(1e-8)).tol == 1e-8
    dec = build_krylov(op, v, cfg)
    for tol in (True, np.True_, math.inf, math.nan, "1e-8", -1e-8, 0):
        with pytest.raises(ValueError, match="tol"):
            ControllerSpec("heuristic", tol)
        with pytest.raises(ValueError, match="tol"):
            step_size_direct(dec, tol)
        with pytest.raises(ValueError, match="tol"):
            step_size_heuristic(0.5, 1e-8, tol, 6)
    for m in (0, True, 2.5):
        with pytest.raises(ValueError, match="m must"):
            step_size_heuristic(0.5, 1e-8, 1e-8, m)
        with pytest.raises(ValueError, match="m must"):
            expokit_first_step(1.0, m, 1e-8)


def test_heuristic_controller_first_step_is_direct(heat_pair):
    op, sigma, v = heat_pair
    tol = 1e-7
    ctrl = ControllerSpec("heuristic", tol)
    res = propagate_fixed_steps(op, sigma, v, 3, KrylovConfig(m_max=10), ctrl)
    dec = build_krylov(op, v, KrylovConfig(m_max=10))
    # the heuristic kinds take 0.9 of the direct inversion
    expected_first = 0.9 * step_size_direct(dec, tol, model="per_unit_step")
    assert res.records[0].dt == pytest.approx(expected_first, rel=1e-12)


def test_expokit_controller_first_step(heat_pair):
    op, sigma, v = heat_pair
    tol = 1e-7
    ctrl = ControllerSpec("expokit_first_step_only", tol)
    res = propagate_fixed_steps(op, sigma, v, 2, KrylovConfig(m_max=10), ctrl)
    assert res.records[0].dt == pytest.approx(
        expokit_first_step(op.norm_inf, 10, tol), rel=1e-12)
    # from the second step onward the plain heuristic takes over
    assert res.records[1].dt != res.records[0].dt


@pytest.mark.parametrize("kind", ["heuristic", "expokit_first_step_only"])
def test_heuristic_kinds_restart_after_a_zero_estimate(kind, monkeypatch):
    """At tol 1e-300 on heat the era bound of a step underflows to 0.0,
    which leaves the heuristic update no scale: the next step takes the
    kind's first-step rule again instead of raising."""
    spec = kx.ProblemSpec("heat", {"n": 50}, seed=0)
    op, sigma = spec.build()
    name = "expokit_first_step" if kind == "expokit_first_step_only" else "step_size_direct"
    rule, calls = getattr(stepper, name), []
    monkeypatch.setattr(stepper, name, lambda *a, **k: calls.append(1) or rule(*a, **k))
    res = propagate_fixed_steps(op, sigma, kx.starting_vector(spec), 3,
                                KrylovConfig(m_max=10), ControllerSpec(kind, 1e-300))
    zeros = sum(r.estimate.value == 0.0 for r in res.records[:-1])
    assert len(res.records) == 3 and zeros >= 1
    assert len(calls) == 1 + zeros


def test_iterated_controller_rejects_global_model():
    """The kind fixes the error model: a read-only property, not a field,
    so no controller can be given the other one."""
    models = {kind: ControllerSpec(kind, 1e-7).error_model
              for kind in stepper.CONTROLLER_KINDS}
    assert models == {"direct_era_global": "global_budget",
                      "direct_era_local": "per_unit_step",
                      "heuristic": "per_unit_step",
                      "heuristic_iterated": "per_unit_step",
                      "expokit_first_step_only": "per_unit_step"}
    with pytest.raises(TypeError):
        ControllerSpec("heuristic_iterated", 1e-7, "global_budget")
    ctrl = ControllerSpec("heuristic_iterated", 1e-7)
    with pytest.raises(AttributeError):
        ctrl.error_model = "global_budget"


def test_propagate_input_validation(heat_pair):
    op, sigma, v = heat_pair
    ctrl = ControllerSpec("direct_era_local", 1e-8)
    cfg = KrylovConfig(m_max=10)
    for run in (propagate, propagate_fixed_steps):
        with pytest.raises(ValueError, match="unit 2-norm"):
            run(op, sigma, 2.0 * v, 1, cfg, ctrl)
    with pytest.raises(ValueError):
        propagate(op, sigma, v, 0.0, cfg, ctrl)
    with pytest.raises(ValueError):
        propagate_fixed_steps(op, sigma, v, 0, cfg, ctrl)
