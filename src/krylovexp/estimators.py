"""A-posteriori error bounds and estimates for the Krylov approximants.

The family, at Krylov dimension m with subdiagonal product gamma and
next subdiagonal entry tau (all evaluated in log-domain so m up to a
couple hundred cannot overflow or underflow):

  era                 tau * gamma * t^m / (m+p)!          proven bound (nonexpansive)
  era_corrected       ||A v_next|| * tau * gamma * t^(m+1) / (m+p+1)!
  err1                tau * t * |e_m^* phi_{p+1}(sigma t T) e_1|
  err1_corrected      ||A v_next|| * tau * t^2 * |e_m^* phi_{p+2}(sigma t T) e_1|
  hermite_quad        tau * (t/m) * |delta(t)|
  improved_hermite_quad  two-point Hermite rule using the defect derivative
  trapezoid_quad      tau * (t/2) * |delta(t)|
  effective_order_quad   tau * (t/(rho(t)+1)) * |delta(t)|  (guarded)

Every estimator takes dec, sigma and one t (KrylovDecomposition.phi, which
caches each row, is what takes a grid of t) and reads phi, corner and the
defect pair (delta, delta') = dec.defect(sigma, t) from dec alone; era and
err1 also take the phi index p >= 0, and the quadratures and evaluate are
the exponential's, the quadratures the standard approximant's.  The plain
quadratures are tau * (t/w) * |delta(t)| with w = m, 2 and rho(t)+1.  era
and err1 return their CORRECTED_KINDS rows with corrected=True.  After a
breakdown every kind is 0.0 (the projection is exact).

ESTIMATORS holds one row per kind: the function computing the value, the
extra matvecs it costs a fresh decomposition (the cached A v_next), and
the rule deciding is_proven_upper_bound.  That flag is set exactly when
the mathematics guarantees the value dominates the true error: for the
era family when sigma*A is nonexpansive, which SparseOperator.log_norm_bound
certifies (a Gershgorin bound <= 0 on the logarithmic norm of sigma*A),
and for err1 additionally only when the operator is hermitian and sigma
is real.  The quadratures are estimates: trapezoid_quad falls below the
error where |delta| is not convex on [0, t], as on heat at m = 2.

Nothing here formats output: the CLI owns every CSV and JSON format.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .approximant import rho_at
from .sparse import validate_phi_index, validate_prefactor, validate_time


@dataclass(frozen=True)
class ErrorEstimate:
    kind: str
    value: float
    is_proven_upper_bound: bool
    extra_matvecs: int = 0


def _proven(rule, dec, sigma):
    """is_proven_upper_bound under a row's rule: "nonexpansive" needs the
    operator's log-norm bound for sigma to be <= 0, "hermitian_real_sigma"
    additionally (and checked first) a hermitian operator and real sigma,
    and None is never proven."""
    if rule is None:
        return False
    op = dec.op
    if rule == "hermitian_real_sigma" and not (
            op.symmetry == "hermitian" and abs(sigma.imag) <= 1e-12):
        return False
    return op.log_norm_bound(sigma) <= 0.0


def log_era_factor(dec, m, p, corrected):
    """The one era formula, log(tau_{m+1} gamma_m / (m+p)!) at dimension
    m <= dec.m, or with corrected (m = dec.m only) log(||A v_next|| tau_{m+1}
    gamma_m / (m+p+1)!): era(t) = exp(factor + (m + corrected) log t).  The
    era estimators evaluate it and the step-size controller inverts it.
    None where era vanishes identically (breakdown at m, or A v_next = 0)."""
    validate_phi_index(p)
    if corrected and m != dec.m:
        raise ValueError("the corrected bound exists at the built dimension only")
    tau = dec.tau_next if m == dec.m else float(dec.subdiag[m - 1])
    log_gamma = dec.log_gamma if m == dec.m else float(np.sum(np.log(dec.subdiag[:m - 1])))
    if tau <= 0.0:
        return None
    factor = math.log(tau) + log_gamma - math.lgamma(m + p + 1 + corrected)
    if corrected:
        avn = float(np.linalg.norm(dec.a_v_next()))
        if avn <= 0.0:
            return None
        factor += math.log(avn)
    return factor


def _era(dec, sigma, t, p=0, corrected=False):
    factor = log_era_factor(dec, dec.m, p, corrected)
    if t == 0.0 or factor is None:
        return 0.0
    try:
        return math.exp(factor + (dec.m + corrected) * math.log(t))
    except OverflowError:
        return math.inf


def _err1(dec, sigma, t, p=0, corrected=False):
    lead = float(np.linalg.norm(dec.a_v_next())) if corrected else 1.0
    corner = dec.corner(sigma, p + 1 + corrected, t)
    return lead * dec.tau_next * t * t ** corrected * abs(corner)


def _quad(weight, dec, sigma, t):
    """tau * (t/w) * |delta(t)| with w = weight(dec, sigma, t), or None
    where the weight is unavailable."""
    w = weight(dec, sigma, t)
    if w is None:
        return None
    return dec.tau_next * (t / w) * abs(dec.defect(sigma, t)[0])


def _improved_hermite(dec, sigma, t):
    delta, delta_prime = dec.defect(sigma, t)
    m, tau = dec.m, dec.tau_next
    av = dec.a_v_next()
    ddot = np.conj(sigma) * delta_prime  # T[m-1,m-1]u_m + T[m-1,m-2]u_{m-1}
    vec = (sigma * tau * (2.0 * t / (m + 1)) * delta) * dec.v_next \
        - (sigma * sigma * tau * (t * t / (m * (m + 1)))) * (ddot * dec.v_next - delta * av)
    return float(np.linalg.norm(vec))


# the fractions of t at which effective_order_quad samples rho
ORDER_SAMPLES = (0.5, 0.75, 1.0)


def _order_weight(dec, sigma, t):
    """rho(t) + 1 from rho sampled at t/2, 3t/4 and t (ORDER_SAMPLES), or None
    where rho(t) is NaN or below 1, or the resolved samples are not
    nonincreasing (outside the rule's assumptions).

    Samples below the defect round-off floor (NaN) are skipped: there the
    defect is far inside the asymptotic regime and carries no slope
    information (rho(t) itself must still resolve).  At t = 0, and at the
    smallest subnormal, whose half rounds to 0, there is no sample.
    """
    if t * 0.5 == 0.0:
        return None
    rhos = [rho_at(dec, sigma, t * f) for f in ORDER_SAMPLES]
    resolved = [r for r in rhos if not math.isnan(r)]
    if not rhos[-1] >= 1.0 - 1e-12 or any(
            b > a + 1e-9 * (1.0 + abs(a)) for a, b in zip(resolved, resolved[1:])):
        return None
    return rhos[-1] + 1.0


# kind -> (value of (dec, sigma, t) -- the era and err1 rows also take p --
#          or None when unavailable there; extra matvecs on a fresh
#          decomposition; proven rule)
ESTIMATORS = {
    "era": (_era, 0, "nonexpansive"),
    "era_corrected": (partial(_era, corrected=True), 1, "nonexpansive"),
    "err1": (_err1, 0, "hermitian_real_sigma"),
    "err1_corrected": (partial(_err1, corrected=True), 1, None),
    "hermite_quad": (partial(_quad, lambda dec, sigma, t: dec.m), 0, None),
    "improved_hermite_quad": (_improved_hermite, 1, None),
    "trapezoid_quad": (partial(_quad, lambda dec, sigma, t: 2.0), 0, None),
    "effective_order_quad": (partial(_quad, _order_weight), 0, None),
}

QUAD_KINDS = tuple(k for k in ESTIMATORS if k.endswith("_quad"))
# the one record of which approximant a kind bounds: each kind of the
# corrected approximant -> the kind it corrects; every other kind, the
# quadratures included, bounds or estimates the standard approximant's error
CORRECTED_KINDS = {k: k.removesuffix("_corrected") for k in ESTIMATORS if k.endswith("_corrected")}


def estimate(kind, dec, sigma, t, *p):
    """The ESTIMATORS row for kind at t, evaluated at the phi index p of
    era and err1; None when it is unavailable.  After a breakdown the
    projection is exact: every kind is 0.0 there and costs no matvec.  An
    unknown kind raises ValueError."""
    if kind not in ESTIMATORS:
        raise ValueError(f"unknown estimator kind: {kind!r}")
    p = [validate_phi_index(q) for q in p]
    s = validate_prefactor(sigma)
    t = validate_time(t)
    fn, extra, rule = ESTIMATORS[kind]
    value = 0.0 if dec.breakdown else fn(dec, s, t, *p)
    if value is None:
        return None
    return ErrorEstimate(kind, value, _proven(rule, dec, s),
                         0 if dec.breakdown else extra)


def era(dec, sigma, t, p=0, corrected=False):
    """Proven error bound tau*gamma*t^m/(m+p)! for the standard approximant.

    Corrected: ||A v_next|| * tau*gamma*t^(m+1)/(m+p+1)! for the corrected
    approximant (one extra matvec the first time, cached on the
    decomposition).
    """
    return estimate("era_corrected" if corrected else "era", dec, sigma, t, p)


def err1(dec, sigma, t, p=0, corrected=False):
    """Asymptotically correct estimate from the next phi corner entry.

    Standard: tau*t*|e_m^* phi_{p+1}(sigma t T) e_1|.  Corrected:
    ||A v_next|| * tau*t^2*|e_m^* phi_{p+2}(sigma t T) e_1| (one cached
    extra matvec).  A proven upper bound only in the hermitian
    nonexpansive case with real sigma (and only uncorrected).
    """
    return estimate("err1_corrected" if corrected else "err1", dec, sigma, t, p)


def quad_estimates(dec, sigma, t):
    """Defect quadratures at t of the standard exponential approximant's error (p = 0).

    Returns hermite_quad, improved_hermite_quad (it costs the one extra,
    cached matvec) and trapezoid_quad always, and effective_order_quad
    only when the sampled rho is reliable, nonincreasing, and at least 1.
    """
    out = [estimate(kind, dec, sigma, t) for kind in QUAD_KINDS]
    return [e for e in out if e is not None]


def evaluate(kind, dec, sigma, t):
    """Evaluate one named estimator at p = 0; the controller loop goes
    through here.

    Only the requested kind is computed.  For "effective_order_quad" the
    guarded rho may be unavailable, in which case the trapezoid value
    (which dominates it) is returned under the same request so the
    controller always gets a usable number.
    """
    est = estimate(kind, dec, sigma, t)
    if est is None:  # only effective_order_quad is ever unavailable
        est = estimate("trapezoid_quad", dec, sigma, t)
    return est

