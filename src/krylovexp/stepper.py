"""Restarted propagation w_{j+1} = E(sigma dt_j A) w_j with step-size control.

Each substep builds a fresh Krylov decomposition from the current vector
(the dimension m stays fixed for the whole run), picks dt_j by one of the
controllers below, records the chosen error estimate, and accumulates the
per-substep estimates into a running budget.  With a proven upper bound
and the per-unit-step error model the accumulated budget is <= tol * t by
construction.

Controllers, each a kind and a tolerance (ControllerSpec(kind, tol)):

  direct_era_global      invert the era bound for era(dt) = tol
  direct_era_local       invert for era(dt) = dt * tol
  heuristic              first step by direct era inversion, then
                         dt_j = 0.9 * dt_{j-1} * (dt_{j-1} tol/est_{j-1})^(1/m)
  heuristic_iterated     fixed-point refinement of dt on the current
                         decomposition using any estimator, at most 5
                         passes
  expokit_first_step_only  the classical a-priori first step
                         (expokit_first_step), then the heuristic update

The estimator picks the approximant: era_corrected and err1_corrected
propagate the corrected one, every other estimator the standard one, and
both direct kinds invert the era bound of the approximant propagated.

After a Krylov breakdown the projection is exact, so every kind takes
the unbounded step, clipped to t_final; a fixed-step run has nothing to
clip it to and raises RuntimeError.

The kind fixes the error model (ControllerSpec.error_model):
global_budget for direct_era_global, per_unit_step for every other kind.

The stepper returns records only; the CLI owns every output format.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .approximant import Approximant
from .estimators import ErrorEstimate, era, evaluate, log_era_factor
from .krylov import KrylovConfig, build_krylov, extend_krylov
from .sparse import validate_prefactor, validate_time

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
        if not self.tol > 0.0:
            raise ValueError("tol must be > 0")
        if self.kind == "expokit_first_step_only" and not self.tol < 1.0:
            raise ValueError("expokit_first_step_only needs tol in (0, 1)")

    @property
    def error_model(self):
        """global_budget (era = tol per step) for direct_era_global,
        per_unit_step (era = dt * tol) for every other kind."""
        return "global_budget" if self.kind == "direct_era_global" else "per_unit_step"


@dataclass(frozen=True)
class StepRecord:
    j: int
    t_start: float
    dt: float
    m_used: int
    estimate: ErrorEstimate
    matvecs: int
    controller_iterations: int = 0


@dataclass(frozen=True)
class PropagationResult:
    w_final: np.ndarray
    records: tuple
    accumulated_bound: float
    total_matvecs: int

    @property
    def total_time(self):
        return float(sum(r.dt for r in self.records))


def step_size_direct(dec, sigma, tol, m=None, model="global_budget",
                     corrected=False):
    """Invert the era bound of the exponential (or its corrected variant)
    at dimension m <= dec.m (default dec.m) for the step size.

    Global model solves era(dt) = tol; per-unit-step solves
    era(dt) = dt * tol, both through estimators.log_era_factor, the
    formula the era estimators evaluate.  Where the bound vanishes
    identically (breakdown) the step is unbounded: +inf is returned.
    """
    validate_prefactor(sigma)
    if model not in ERROR_MODELS:
        raise ValueError(f"unknown error model: {model!r}")
    if not tol > 0.0:
        raise ValueError("tol must be > 0")
    if m is None:
        m = dec.m
    if not 1 <= m <= dec.m:
        raise ValueError("m must lie in [1, dec.m]")
    factor = log_era_factor(dec, m, 0, corrected)
    if factor is None:
        return math.inf
    exponent = m + corrected - (model == "per_unit_step")
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
    mp1 = m + 1
    inner = (math.log(tol) + mp1 * (math.log(mp1) - 1.0)
             + 0.5 * math.log(2.0 * math.pi * mp1)
             - math.log(4.0 * op_norm_inf))
    return math.exp(inner / m - math.log(op_norm_inf))


def step_size_heuristic(prev_dt, prev_estimate, tol, m, safety=1.0):
    """dt_j = safety * dt_{j-1} * (dt_{j-1} * tol / est_{j-1})^(1/m), the
    per-unit-step target."""
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
    Returns (dt, iterations) where iterations counts the updates
    performed, at most _ITERATION_CAP; convergence means successive
    relative change <= 1e-3.
    Lanczos mode keeps re-evaluation cheap; with Arnoldi every pass
    re-exponentiates the Hessenberg matrix.
    """
    start = dt = step_size_direct(dec, sigma, tol, model="per_unit_step")
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


def _raw_step(dec, sigma, ctrl, estimator_kind, corrected, j, prev_dt, prev_est):
    """One controller decision: (dt before clipping, iterations) for
    substep j; the direct kinds invert the era bound of the approximant
    propagated (corrected or standard).  After a breakdown the projection
    is exact, so every kind takes the unbounded step."""
    if dec.breakdown:
        return math.inf, 0
    kind = ctrl.kind
    if kind.startswith("direct_era"):
        return step_size_direct(dec, sigma, ctrl.tol, model=ctrl.error_model,
                                corrected=corrected), 0
    if kind == "heuristic_iterated":
        dt, iters = step_size_iterated(dec, sigma, ctrl.tol, estimator_kind)
        return _SAFETY * dt, iters
    # heuristic and expokit_first_step_only differ only in the first step
    if j == 0:
        if kind == "expokit_first_step_only":
            return expokit_first_step(dec.op.norm_inf, dec.m, ctrl.tol), 0
        return _SAFETY * step_size_direct(dec, sigma, ctrl.tol, model=ctrl.error_model), 0
    return step_size_heuristic(prev_dt, prev_est, ctrl.tol, dec.m, safety=_SAFETY), 0


def _run(op, sigma, v, cfg, ctrl, estimator_kind, t_final=None, n_steps=None):
    s = validate_prefactor(sigma)
    w = np.asarray(v, dtype=complex).copy()
    if abs(np.linalg.norm(w) - 1.0) > 1e-12:
        raise ValueError("start vector must have unit 2-norm")
    corrected = estimator_kind in ("era_corrected", "err1_corrected")
    records = []
    accumulated = 0.0
    total_matvecs = 0
    t = 0.0
    prev_dt = prev_est = None
    j = 0
    while True:
        if t_final is not None and t >= t_final:
            break
        if n_steps is not None and j >= n_steps:
            break
        if j >= _MAX_SUBSTEPS:
            raise RuntimeError(f"controller stagnated: {j} substeps, t = {t}")
        beta, e = float(np.linalg.norm(w)), 0
        if beta < 1e-150:
            # the norm squares the entries, losing digits below ~1e-150 (all of
            # them below ~1e-162): scale by an exact power of two first; that
            # also avoids complex division by a subnormal beta, which overflows
            e = int(np.frexp(max(np.abs(w.real).max(), np.abs(w.imag).max()))[1])
            w = np.ldexp(w.real, -e) + 1j * np.ldexp(w.imag, -e)
            beta = float(np.linalg.norm(w))
        if beta == 0.0:
            raise RuntimeError("propagated vector vanished")
        dec = build_krylov(op, w / beta, cfg)
        beta = math.ldexp(beta, e)
        dt, iters = _raw_step(dec, s, ctrl, estimator_kind, corrected, j, prev_dt, prev_est)
        clipped = False
        if t_final is not None and (not math.isfinite(dt) or t + dt >= t_final):
            dt = t_final - t
            clipped = True
        if not math.isfinite(dt):
            raise RuntimeError("unbounded step in a fixed-step run (breakdown)")
        if dt <= 0.0 or t + dt == t:
            raise RuntimeError(f"controller stagnated: dt = {dt} at t = {t}")
        est = evaluate(estimator_kind, dec, s, dt, 0)
        w = beta * Approximant(dec, s, corrected=corrected).apply(dt)
        step_matvecs = dec.matvecs_used
        scaled = ErrorEstimate(est.kind, beta * est.value,
                               est.is_proven_upper_bound, est.extra_matvecs)
        records.append(StepRecord(j=j, t_start=t, dt=dt, m_used=dec.m,
                                  estimate=scaled, matvecs=step_matvecs,
                                  controller_iterations=iters))
        accumulated += scaled.value
        total_matvecs += step_matvecs
        prev_dt, prev_est = dt, est.value
        t = t_final if clipped else t + dt
        j += 1
    return PropagationResult(w_final=w, records=tuple(records),
                             accumulated_bound=accumulated,
                             total_matvecs=total_matvecs)


def propagate(op, sigma, v, t_final, cfg, ctrl, estimator_kind="era"):
    """Propagate v to E(sigma t_final A) v in restarted substeps.

    The last step is clipped to land on t_final exactly and its estimate
    is evaluated at the clipped size.  The start vector must have unit
    2-norm; intermediate vectors are re-normalized before each build (a
    vector that underflows to 0 raises RuntimeError) and the recorded
    estimates carry the norm factor.
    """
    if not t_final > 0.0:
        raise ValueError("t_final must be > 0")
    return _run(op, sigma, v, cfg, ctrl, estimator_kind, t_final=t_final)


def propagate_fixed_steps(op, sigma, v, n_steps, cfg, ctrl, estimator_kind="era"):
    """Run exactly n_steps substeps with no target time (the benchmark
    protocol: the reached total time is the figure of merit)."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    return _run(op, sigma, v, cfg, ctrl, estimator_kind, n_steps=n_steps)


def early_stop_dimension(op, v, t, tol, m_max, sigma):
    """Grow the Krylov space one column at a time until the era bound
    satisfies era(m, t) <= tol * t, then stop.

    Returns the decomposition at the smallest such m, or at m_max (or a
    breakdown) when the tolerance was not met; era(dec, sigma, t).value
    <= tol * t tells the two apart.  Costs exactly m matvecs.
    """
    s = validate_prefactor(sigma)
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    validate_time(t)
    cfg = KrylovConfig(m_max=m_max)
    dec = build_krylov(op, v, cfg, steps=1)
    while not (era(dec, s, t).value <= tol * t or dec.breakdown or dec.m >= m_max):
        dec = extend_krylov(dec, 1)
    return dec

