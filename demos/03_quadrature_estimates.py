"""The defect-quadrature estimate family and the effective order.

The error of the Krylov approximant equals tau times an integral of the
small-matrix defect |delta_m(s)| over [0, t].  Cheap quadratures of that
integral give practical error estimates; their values bracket a 64-node
Gauss reference from below and above.  The effective order rho measures
how fast |delta_m| still grows at a given t; it starts near m - 1 and
drops as the asymptotic regime is left.  Both read the decomposition:
dec.defect(sigma, t) returns delta_m(t) and its exact derivative.
"""

import numpy as np

from krylovexp import (KrylovConfig, ProblemSpec, build_krylov,
                       effective_order, quad_estimates, starting_vector)

spec = ProblemSpec("heat", {"n": 200}, seed=0)
op, sigma = spec.build()
v = starting_vector(spec)
dec = build_krylov(op, v, KrylovConfig(m_max=10))

xg, wg = np.polynomial.legendre.leggauss(64)

print(f"{'t':>7s} {'hermite':>11s} {'gauss-64':>11s} {'eff-order':>11s} "
      f"{'trapezoid':>11s} {'rho':>7s}")
for t in np.geomspace(0.75, 3.0, 10):
    quads = {e.kind: e.value for e in quad_estimates(dec, sigma, t)}
    nodes = 0.5 * t * (xg + 1.0)
    absd = np.array([abs(dec.defect(sigma, s)[0]) for s in nodes])
    gauss = dec.tau_next * 0.5 * t * float(wg @ absd)
    rho = effective_order(dec, sigma, t)
    print(f"{t:7.3f} {quads['hermite_quad']:11.4e} {gauss:11.4e} "
          f"{quads['effective_order_quad']:11.4e} "
          f"{quads['trapezoid_quad']:11.4e} {rho:7.3f}")

print()
print("rho decreases from m - 1 as t grows:")
for t in (0.75, 1.5, 3.0):
    print(f"  rho({t}) = {effective_order(dec, sigma, t):.4f}")

# below the round-off floor the defect is pure noise and the library
# refuses to fit an order to it: rho is NaN there
print(f"  rho(0.3) = {effective_order(dec, sigma, 0.3)} (below the round-off floor)")
