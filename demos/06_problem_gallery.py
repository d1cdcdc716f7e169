"""Build every bundled test operator and print its structure.

Four problem families cover the interesting regimes: a Hermitian
operator driven unitarily (free particle), the same matrix as a decaying
semigroup (heat), a non-normal real matrix with a negative-definite
Hermitian part (convection-diffusion), and a complex Hermitian many-body
Hamiltonian (interacting fermion chain).
"""

import numpy as np

from krylovexp import ProblemSpec, starting_vector
from krylovexp.cli import fmt_sigma

SPECS = [
    ProblemSpec("schrodinger_free", {"n": 200}),
    ProblemSpec("heat", {"n": 200}),
    ProblemSpec("convection_diffusion", {"n": 6, "mu1": 0.9, "mu2": 1.1}),
    ProblemSpec("convection_diffusion", {"n": 6, "mu1": 0.0, "mu2": 0.0}),
    ProblemSpec("hubbard"),
]

print(f"{'kind':>22s} {'n':>6s} {'nnz':>7s} {'symmetry':>10s} "
      f"{'sigma':>6s} {'log-norm <=':>11s}")
for spec in SPECS:
    op, sigma = spec.build()
    mu = op.log_norm_bound(sigma)
    print(f"{spec.kind:>22s} {op.n:>6d} {op.nnz:>7d} {op.symmetry:>10s} "
          f"{fmt_sigma(sigma):>6s} {mu:>11.3e}")

print()
print("log_norm_bound(sigma) is a Gershgorin upper bound on the logarithmic")
print("norm of sigma*A; a value <= 0 certifies that exp(sigma t A) never grows")
print("a vector.  Every bundled problem satisfies it at its own sigma, so the")
print("proven bounds apply.")

v = starting_vector(SPECS[-1])
print(f"\nstarting vectors are unit norm: ||v|| = {np.linalg.norm(v):.15f}")
