"""Adaptive step-size control over a restarted propagation.

Ten substeps on the interacting fermion chain, tolerance 1e-8 per unit
time.  The direct controller inverts the proven bound for each step, so
it needs no history; the iterated controller refines a cheap first guess
against a sharper estimate and typically covers slightly less ground in
the same number of steps, but with a smaller true error.
"""

import numpy as np

from krylovexp import (ControllerSpec, KrylovConfig, ProblemSpec,
                       propagate_fixed_steps, starting_vector)
from krylovexp.oracle import oracle_reference

spec = ProblemSpec("hubbard", seed=0)
op, sigma = spec.build()
v = starting_vector(spec)
print(f"fermion chain: n = {op.n}, nnz = {op.nnz}")

RUNS = [("direct_era_local", "era"),
        ("heuristic_iterated", "trapezoid_quad"),
        ("heuristic_iterated", "err1")]

print(f"{'controller':>20s} {'estimator':>20s} {'total t':>9s} "
      f"{'matvecs':>8s} {'err/t':>10s}")
for ctrl_kind, estimator in RUNS:
    ctrl = ControllerSpec(ctrl_kind, 1e-8)
    res = propagate_fixed_steps(op, sigma, v, 10, KrylovConfig(m_max=10),
                                ctrl, estimator)
    ref = oracle_reference(spec, op, sigma, [res.total_time], v)[0]
    err = np.linalg.norm(res.w_final - ref)
    print(f"{ctrl_kind:>20s} {estimator:>20s} {res.total_time:9.4f} "
          f"{res.total_matvecs:8d} {err / res.total_time:10.2e}")

print()
print("per-step dt chosen by the direct controller:")
ctrl = ControllerSpec("direct_era_local", 1e-8)
res = propagate_fixed_steps(op, sigma, v, 10, KrylovConfig(m_max=10), ctrl)
print("  " + " ".join(f"{r.dt:.4f}" for r in res.records))
