"""Growing the Krylov space one vector at a time until the bound is met.

For a fixed target (t, tol) there is no need to guess the dimension in
advance: the decomposition is extended step by step with extend_krylov
and the proven bound is re-evaluated after each new basis vector.  On
the fermion chain at t = 0.3 the loop stops well below the m_max = 30
cap.
"""

import numpy as np

from krylovexp import (Approximant, KrylovConfig, ProblemSpec, build_krylov,
                       era, extend_krylov, starting_vector)
from krylovexp.oracle import oracle_reference

spec = ProblemSpec("hubbard", seed=0)
op, sigma = spec.build()
v = starting_vector(spec)

t, tol = 0.3, 1e-8
dec = build_krylov(op, v, KrylovConfig(m_max=30), steps=2)
trail = []
while True:
    bound = era(dec, sigma, t).value
    trail.append((dec.m, bound))
    if bound <= tol * t or dec.m == 30 or dec.breakdown:
        break
    dec = extend_krylov(dec, 1)

err = np.linalg.norm(Approximant(dec, sigma).apply(t)
                     - oracle_reference(spec, op, sigma, [t], v)[0])
print(f"target: t = {t}, tol = {tol}")
print(f"stopped at m = {dec.m} ({dec.matvecs_used} matvecs), "
      f"bound = {bound:.3e}, error/t = {err / t:.3e}")

print(f"\n{'m':>3s} {'bound at t=0.3':>15s}")
for m, value in trail:
    print(f"{m:3d} {value:15.4e}")
