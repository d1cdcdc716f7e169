"""Sweep the proven upper bound against the true error.

Builds the 1D free-particle Hamiltonian, projects exp(-i t A) v onto a
10-dimensional Krylov space, and walks t across three decades.  The
printed table shows the classic picture: the bound tracks the error
tightly while t**m dominates, then both saturate.
"""

import numpy as np

from krylovexp import (Approximant, KrylovConfig, ProblemSpec, build_krylov,
                       era, starting_vector)
from krylovexp.oracle import oracle_laplacian

spec = ProblemSpec("schrodinger_free", {"n": 200}, seed=0)
op, sigma = spec.build()
v = starting_vector(spec)

dec = build_krylov(op, v, KrylovConfig(m_max=10))
appr = Approximant(dec, sigma)

print(f"n = {op.n}, m = {dec.m}, sigma = {sigma}")
print(f"{'t':>10s} {'error':>12s} {'bound':>12s} {'bound/error':>12s}")
ts = np.geomspace(0.05, 50.0, 16)
for t, exact in zip(ts, oracle_laplacian(op.n, sigma, ts, v)):
    err = np.linalg.norm(appr.apply(t) - exact)
    bound = era(dec, sigma, t).value
    ratio = bound / err if err > 0 else float("inf")
    print(f"{t:10.4f} {err:12.4e} {bound:12.4e} {ratio:12.3f}")
