"""Krylov approximants for exp(sigma*t*A)v and phi_p(sigma*t*A)v, plus the effective order.

The standard approximant projects through the m-dimensional decomposition,

    S(t) v = V phi_p(sigma t T) e_1,

while the corrected one adds the last entry of phi_p(sigma t Tbar) e_1 for
the augmented matrix Tbar = [[T, 0], [tau e_m^*, 0]] along v_next,

    V phi_p(sigma t T) e_1 + sigma t tau (e_m^* phi_{p+1}(sigma t T) e_1) v_next,

buying one extra order of accuracy as t -> 0.  At p = 0 on a dissipative
problem its error settles instead at tau |e_m^* T^{-1} e_1|, the limit of
the added term: 1.2802 at m = 10 and 0.02107 at m = 30 on the default
convection-diffusion problem for t >= 0.1, where the standard error is
below 1e-56 from t = 1 on; era_corrected still bounds it.  Both read phi
and corner of the decomposition, so no (m+1)-sized matrix is ever formed.
On a real basis with complex coefficients c, V c is taken as
V Re c + i V Im c, so V is never cast to complex.  The effective order
rho(t) = t |delta|' / |delta| reads the defect delta(t) = (e^{sigma t T})_{m,1}
of the decomposition and its exact time derivative, and is NaN where
|delta| sits below the round-off floor.
"""

import math

import numpy as np

from .sparse import validate_phi_index, validate_prefactor, validate_time

_ROUNDOFF_FLOOR = 1e3 * float(np.finfo(np.float64).eps)


class Approximant:
    """Callable wrapper: phi index p >= 0, standard or (corrected=True)
    corrected."""

    def __init__(self, dec, sigma, p=0, *, corrected=False):
        self.dec = dec
        self.sigma = validate_prefactor(sigma)
        self.p = validate_phi_index(p)
        self.corrected = corrected

    def apply(self, t):
        """Evaluate the approximant at a finite time t >= 0; returns a
        length-n vector, float64 when the basis is real and sigma t T
        is too."""
        t = validate_time(t)
        dec = self.dec
        V, c = dec.V, dec.phi(self.sigma, self.p, t)
        if np.iscomplexobj(c) and not np.iscomplexobj(V):
            out = V @ c.real + 1j * (V @ c.imag)
        else:
            out = V @ c
        if not self.corrected or dec.breakdown:
            # on breakdown the correction term carries tau = 0 and drops out
            return out
        coef = self.sigma * t * dec.tau_next * dec.corner(self.sigma, self.p + 1, t)
        if not np.iscomplexobj(out):
            coef = coef.real  # out is real only where sigma t T is, and so is the corner
        return out + coef * dec.v_next


def effective_order(dec, sigma, t):
    """Local log-log slope rho(t) = t |delta|'(t) / |delta(t)|
    = t Re(conj(delta) delta') / |delta|^2 of the decomposition's defect.

    delta' from dec.defect is exact for any upper Hessenberg T, so this
    holds for Lanczos and Arnoldi and every sigma.  Tends to m-1 as t -> 0+
    and decreases from there.  NaN when |delta| is too close to the
    round-off floor to differentiate meaningfully, and at m = 1 (a
    breakdown at the first column), where the defect's derivative does
    not exist; t = 0 raises ValueError.
    """
    t = validate_time(t)
    if t == 0.0:
        raise ValueError("effective_order needs t > 0")
    return rho_at(dec, validate_prefactor(sigma), t)


def rho_at(dec, sigma, t):
    """effective_order at one t > 0 for a sigma already validated, with no
    checks: the estimators read it at the samples of a validated t."""
    if dec.m < 2:
        return math.nan
    delta, delta_prime = dec.defect(sigma, t)
    # |delta(t)| is an entry of u(t) = e^{sigma t T} e_1, and the round-off in
    # u is relative to ||u(0)|| = ||e_1|| = 1, not to ||u(t)||, which
    # underflows on dissipative problems.
    if abs(delta) < _ROUNDOFF_FLOOR:
        return math.nan
    return float(t * np.real(np.conj(delta) * delta_prime) / abs(delta) ** 2)
