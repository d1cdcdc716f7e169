"""Restarted propagation w_{j+1} = E(sigma dt_j A) w_j with step-size control.

Each substep builds a fresh Krylov decomposition from the current vector
(the dimension m stays fixed for the whole run), picks dt_j by one of the
controllers below and records the step.  The records are a run's only
state: its time, matvecs and accumulated bound (the estimates summed in
step order) are read from them, as is a step's start time, the in-order
sum of the dts before it.  With a proven upper bound and the
per-unit-step error model that bound is <= tol * t by construction.

Growing m at a fixed t is the caller's loop: extend_krylov one column at
a time until era meets the target (demos/05_early_stopping.py).

Controllers, each a kind and a tolerance (ControllerSpec(kind, tol)):

  direct_era_global      invert the era bound for era(dt) = tol
  direct_era_local       invert for era(dt) = dt * tol
  heuristic              first step, and any after an estimate of 0, by
                         direct era inversion, then
                         dt_j = 0.9 * dt_{j-1} * (dt_{j-1} tol/est_{j-1})^(1/m)
  heuristic_iterated     fixed-point refinement of dt on the current
                         decomposition using any estimator, at most 5
                         passes
  expokit_first_step_only  heuristic with the classical a-priori first
                         step (expokit_first_step) in place of era's

The estimator table decides which approximant is propagated: a kind in
CORRECTED_KINDS the corrected one, every other kind the standard one, and
both direct kinds invert the era bound of the approximant propagated.

A step lands on t_final (clipped or stretched to t_final - t) once the
controller's reach gets there: its step before the safety factor, which
is the step itself for the direct kinds and the a-priori first step.  So
a heuristic run never ends on a sliver step that its safety factor alone
left, and a stretched last step is never longer than the controller's
own target.
After a Krylov breakdown the projection is exact, so every kind takes
the unbounded step, clipped to t_final; a fixed-step run has nothing to
clip it to and raises RuntimeError.

The kind fixes the error model (ControllerSpec.error_model):
global_budget for direct_era_global, per_unit_step for every other kind.

The stepper returns records only; the CLI owns every output format.
"""

import functools
import math
import operator
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .approximant import Approximant
from .estimators import CORRECTED_KINDS, ErrorEstimate, evaluate, log_era_factor
from .krylov import build_krylov
from .sparse import scaled_norm2, validate_integer, validate_prefactor, validate_time

CONTROLLER_KINDS = ("direct_era_global", "direct_era_local", "heuristic",
                    "heuristic_iterated", "expokit_first_step_only")
ERROR_MODELS = ("global_budget", "per_unit_step")

_MAX_SUBSTEPS = 100_000
# the heuristic kinds aim 10 % short of their target; the direct era
# inversions land on it, since era is a proven bound
_SAFETY = 0.9
# passes of heuristic_iterated's fixed-point refinement per step
_ITERATION_CAP = 5


@dataclass(frozen=True)
class ControllerSpec:
    kind: str
    tol: float

    def __post_init__(self):
        if self.kind not in CONTROLLER_KINDS:
            raise ValueError(f"unknown controller kind: {self.kind!r}")
        _validate_tol(self.tol)
        if self.kind == "expokit_first_step_only" and not self.tol < 1.0:
            raise ValueError("expokit_first_step_only needs tol in (0, 1)")

    @property
    def error_model(self):
        """global_budget (era = tol per step) for direct_era_global,
        per_unit_step (era = dt * tol) for every other kind."""
        return "global_budget" if self.kind == "direct_era_global" else "per_unit_step"


@dataclass(frozen=True)
class StepRecord:
    dt: float
    m_used: int
    estimate: ErrorEstimate
    matvecs: int
    controller_iterations: int = 0


def _in_order_sum(values):
    # left to right, as the steps were taken (builtins.sum compensates
    # from Python 3.12 on, which would move the last bits)
    return functools.reduce(operator.add, values, 0.0)


@dataclass(frozen=True)
class PropagationResult:
    w_final: np.ndarray
    records: tuple

    @property
    def total_time(self):
        return _in_order_sum(r.dt for r in self.records)

    @property
    def accumulated_bound(self):
        return _in_order_sum(r.estimate.value for r in self.records)

    @property
    def total_matvecs(self):
        return sum(r.matvecs for r in self.records)


def _validate_tol(tol):
    """tol, checked a finite real number > 0; no bool."""
    if validate_time(tol, "tol") == 0.0:
        raise ValueError("tol must be > 0")


def step_size_direct(dec, tol, *, model="global_budget", corrected=False):
    """Invert the era bound of the exponential (or its corrected variant)
    at dec.m for the step size (build or extend to k to invert at k).

    Global model solves era(dt) = tol; per-unit-step solves
    era(dt) = dt * tol, both through estimators.log_era_factor, the
    sigma-free formula the era estimators evaluate.  Where the bound
    vanishes identically (breakdown) the step is unbounded: +inf.
    """
    if model not in ERROR_MODELS:
        raise ValueError(f"unknown error model: {model!r}")
    _validate_tol(tol)
    factor = log_era_factor(dec, 0, corrected)
    if factor is None:
        return math.inf
    exponent = dec.m + corrected - (model == "per_unit_step")
    if exponent < 1:
        raise ValueError("per-unit-step inversion needs m >= 2")
    return math.exp((math.log(tol) - factor) / exponent)


def expokit_first_step(op_norm_inf, m, tol):
    """A-priori first step size, the rule historically shipped with phipade codes:

        dt = (1/||A||_inf) * (tol * ((m+1)/e)^(m+1) * sqrt(2 pi (m+1))
              / (4 ||A||_inf))^(1/m)
    """
    if op_norm_inf <= 0.0:
        raise ValueError("op_norm_inf must be > 0")
    if not (0.0 < tol < 1.0):
        raise ValueError("tol must be in (0, 1)")
    m = validate_integer(m, "m", 1)
    mp1 = m + 1
    inner = (math.log(tol) + mp1 * (math.log(mp1) - 1.0)
             + 0.5 * math.log(2.0 * math.pi * mp1)
             - math.log(4.0 * op_norm_inf))
    return math.exp(inner / m - math.log(op_norm_inf))


def step_size_heuristic(prev_dt, prev_estimate, tol, m, safety=1.0):
    """dt_j = safety * dt_{j-1} * (dt_{j-1} * tol / est_{j-1})^(1/m), the
    per-unit-step target; safety is a real number in (0, 1], no bool."""
    _validate_tol(tol)
    m = validate_integer(m, "m", 1)
    if not 0.0 < validate_time(safety, "safety") <= 1.0:
        raise ValueError(f"safety must be in (0, 1], got {safety!r}")
    if not prev_estimate > 0.0:
        raise ValueError("prev_estimate must be > 0")
    if not prev_dt > 0.0:
        raise ValueError("prev_dt must be > 0")
    log_target = math.log(tol) + math.log(prev_dt)
    return safety * prev_dt * math.exp((log_target - math.log(prev_estimate)) / m)


def step_size_iterated(dec, sigma, tol, estimator):
    """Fixed-point refinement dt <- dt * (dt*tol / est(dt))^(1/m), the
    per-unit-step update of step_size_heuristic re-applied on one
    decomposition, for the target est(dt) = dt * tol, started from the
    direct era inversion (returned as it is where est(dt) <= 0).
    Returns (dt, iterations) where iterations counts the estimator
    evaluations, at most _ITERATION_CAP (1 after no update where the
    first estimate vanishes); convergence means successive relative
    change <= 1e-3.
    Lanczos mode keeps re-evaluation cheap; with Arnoldi every pass
    re-exponentiates the Hessenberg matrix.
    """
    start = dt = step_size_direct(dec, tol, model="per_unit_step")
    if not math.isfinite(dt):
        return dt, 0
    changes = []
    for l in range(1, _ITERATION_CAP + 1):
        est = evaluate(estimator, dec, sigma, dt).value
        if est <= 0.0:
            # degenerate estimator; the proven inversion is already in hand
            return start, l
        new = step_size_heuristic(dt, est, tol, dec.m)
        rel = abs(new - dt) / dt
        changes.append(new - dt)
        dt = new
        if rel <= 1e-3:
            break
    else:
        warnings.warn(f"step-size iteration did not converge within {_ITERATION_CAP} passes",
                      stacklevel=2)
    if any(a * b < 0.0 for a, b in zip(changes, changes[1:])):
        warnings.warn("step-size iteration was not monotone", stacklevel=2)
    return dt, l


def _raw_step(dec, sigma, ctrl, estimator_kind, corrected, prev):
    """One controller decision: (dt before landing, reach, iterations),
    given prev, the previous step's (dt, unscaled estimate), or None at
    the first step, whose rule also follows an estimate that is not > 0
    (no scale to update from).  The reach is the step aimed at before the
    safety factor (dt itself for the direct kinds and the a-priori first
    step); the direct kinds invert the era bound of the approximant
    propagated.  After a breakdown every kind takes the unbounded step."""
    if dec.breakdown:
        return math.inf, math.inf, 0
    kind = ctrl.kind
    if kind.startswith("direct_era"):
        dt = step_size_direct(dec, ctrl.tol, model=ctrl.error_model, corrected=corrected)
        return dt, dt, 0
    if kind == "heuristic_iterated":
        reach, iters = step_size_iterated(dec, sigma, ctrl.tol, estimator_kind)
        return _SAFETY * reach, reach, iters
    # heuristic and expokit_first_step_only differ only in the first step
    if prev is None or not prev[1] > 0.0:
        if kind == "expokit_first_step_only":
            dt = expokit_first_step(dec.op.norm_inf, dec.m, ctrl.tol)
            return dt, dt, 0
        reach = step_size_direct(dec, ctrl.tol, model=ctrl.error_model)
        return _SAFETY * reach, reach, 0
    # two calls keep dt's bits: safety * prev_dt * exp(...) rounds in that order
    return (step_size_heuristic(*prev, ctrl.tol, dec.m, safety=_SAFETY),
            step_size_heuristic(*prev, ctrl.tol, dec.m), 0)


def _run(op, sigma, v, cfg, ctrl, estimator_kind, t_final=None, n_steps=None):
    s = validate_prefactor(sigma)
    v = np.asarray(v)
    w = v.astype(complex) if np.any(v.imag) else v.real.astype(float)
    if abs(np.linalg.norm(w) - 1.0) > 1e-12:
        raise ValueError("start vector must have unit 2-norm")
    corrected = estimator_kind in CORRECTED_KINDS
    records = []
    t = 0.0
    # the last estimate before the norm factor: the heuristic reads it, the
    # record holds it scaled
    est = None
    while (t_final is None or t < t_final) and (n_steps is None or len(records) < n_steps):
        if len(records) >= _MAX_SUBSTEPS:
            raise RuntimeError(f"controller stagnated: {len(records)} substeps, t = {t}")
        # normalizing the scaled w also avoids complex division by a
        # subnormal beta, which overflows
        w, beta, e = scaled_norm2(w)
        if beta == 0.0:
            raise RuntimeError("propagated vector vanished")
        dec = build_krylov(op, w / beta, cfg)
        beta = math.ldexp(beta, e)
        prev = (records[-1].dt, est.value) if records else None
        dt, reach, iters = _raw_step(dec, s, ctrl, estimator_kind, corrected, prev)
        lands = t_final is not None and (not math.isfinite(reach) or t + reach >= t_final)
        if lands:
            dt = t_final - t
        if not math.isfinite(dt):
            raise RuntimeError("unbounded step in a fixed-step run (breakdown)")
        if dt <= 0.0 or t + dt == t:
            raise RuntimeError(f"controller stagnated: dt = {dt} at t = {t}")
        est = evaluate(estimator_kind, dec, s, dt)
        w = beta * Approximant(dec, s, corrected=corrected).apply(dt)
        records.append(StepRecord(dt=dt, m_used=dec.m,
                                  estimate=replace(est, value=beta * est.value),
                                  matvecs=dec.matvecs_used, controller_iterations=iters))
        t = t_final if lands else t + dt
    return PropagationResult(w_final=w, records=tuple(records))


def propagate(op, sigma, v, t_final, cfg, ctrl, estimator_kind="era"):
    """Propagate v to E(sigma t_final A) v in restarted substeps.

    The last step is clipped or stretched to land on t_final exactly,
    once the controller's reach (its step before the safety factor) gets
    there, and its estimate is evaluated at the size taken.  The start
    vector must have unit 2-norm; intermediate vectors are re-normalized
    before each build (a vector that underflows to 0 raises RuntimeError)
    and the recorded estimates carry the norm factor.
    """
    t_final = validate_time(t_final)
    if t_final == 0.0:
        raise ValueError("t_final must be > 0")
    return _run(op, sigma, v, cfg, ctrl, estimator_kind, t_final=t_final)


def propagate_fixed_steps(op, sigma, v, n_steps, cfg, ctrl, estimator_kind="era"):
    """Run exactly n_steps substeps with no target time (the benchmark
    protocol: the reached total time is the figure of merit)."""
    n_steps = validate_integer(n_steps, "n_steps", 1)
    return _run(op, sigma, v, cfg, ctrl, estimator_kind, n_steps=n_steps)
