"""phi-function actions and the corrected scheme's extra order.

The same decomposition serves three purposes: the plain exponential
action, the phi_1 action that appears in exponential integrators, and a
corrected exponential approximant that spends one extra matrix-vector
product to gain one order of accuracy.  The error columns below decay
like t**10, t**10, and t**11 respectively.
"""

import numpy as np

from krylovexp import (Approximant, KrylovConfig, ProblemSpec, build_krylov,
                       starting_vector)
from krylovexp.oracle import oracle_laplacian, oracle_phi

spec = ProblemSpec("schrodinger_free", {"n": 200}, seed=0)
op, sigma = spec.build()
v = starting_vector(spec)
dec = build_krylov(op, v, KrylovConfig(m_max=10))

plain = Approximant(dec, sigma)
phi1 = Approximant(dec, sigma, p=1)
corrected = Approximant(dec, sigma, corrected=True)

print(f"{'t':>8s} {'exp error':>12s} {'phi_1 error':>12s} {'corrected':>12s}")
ts = np.geomspace(0.2, 3.0, 10)
for t, exact in zip(ts, oracle_laplacian(op.n, sigma, ts, v)):
    e_plain = np.linalg.norm(plain.apply(t) - exact)
    e_phi = np.linalg.norm(phi1.apply(t) - oracle_phi(op, sigma, t, v, 1))
    e_corr = np.linalg.norm(corrected.apply(t) - exact)
    print(f"{t:8.3f} {e_plain:12.4e} {e_phi:12.4e} {e_corr:12.4e}")

# successive error ratios reveal the order: halving t divides the plain
# error by roughly 2**10 and the corrected one by roughly 2**11 (the
# ratios sit a bit below those powers this far from the t -> 0 limit)
t = 3.0
exact, exact_half = oracle_laplacian(op.n, sigma, [t, t / 2], v)
for label, appr in (("plain", plain), ("corrected", corrected)):
    e1 = np.linalg.norm(appr.apply(t) - exact)
    e2 = np.linalg.norm(appr.apply(t / 2) - exact_half)
    print(f"{label}: error(t)/error(t/2) = {e1 / e2:.0f}")
