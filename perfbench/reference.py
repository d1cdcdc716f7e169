"""A fixed reference workload, timed next to every op to gauge how fast
the machine is at that moment.

On a shared VM other tenants slow every op by up to about 2x, in phases
that last from milliseconds to minutes, so a whole run can be slowed.
The same slowdown hits the reference: it does the ops' kinds of work
(sparse matvecs in a series loop, the products and solve of a Pade step
on a small dense matrix, Gram-Schmidt projections) on data of the
benchmark's own, with numpy and scipy and nothing from krylovexp, so a
change to the package cannot move it.  An op's time over the reference
time next to it is the op's cost in reference units; the ratio holds when
the machine slows down, as far as the reference slows like the op.
"""

import time

import numpy as np
import scipy.sparse as sp

SEED = 20180910


class Reference:
    """Three kernels of about 1 ms each on an idle 2.1 GHz Xeon core.
    `recipe` maps kernel name to calls per block, in the proportions of
    the op's own work."""

    def __init__(self, recipe):
        rng = np.random.default_rng(SEED)
        n = 4096
        density = 4 / n
        a = (sp.random(n, n, density, format="csr", random_state=rng)
             + 1j * sp.random(n, n, density, format="csr", random_state=rng)).tocsr()
        self.a = a / abs(a).sum(axis=0).max()
        self.x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        self.h = 0.1 * (rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30)))
        basis = rng.standard_normal((n, 10)) + 1j * rng.standard_normal((n, 10))
        self.basis = list(np.linalg.qr(basis)[0].T)
        kernels = {"sparse": self.sparse, "dense": self.dense, "vector": self.vector}
        self.calls = [kernels[name] for name, count in recipe.items() for _ in range(count)]

    def sparse(self):
        """Truncated Taylor series of exp(A) x, as the series oracle does it."""
        term = self.x
        total = self.x.copy()
        for k in range(1, 9):
            term = (self.a @ term) / k
            total += term
        return total

    def dense(self):
        """The products and solve of a degree-13 Pade step (coefficients
        left out) on a complex 30 x 30 H, as expm on a Krylov basis."""
        for _ in range(8):
            h = self.h
            ident = np.eye(30, dtype=complex)
            h2 = h @ h
            h4 = h2 @ h2
            h6 = h2 @ h4
            u = h @ (h6 @ (h6 + h4 + h2) + h6 + h4 + h2 + ident)
            v = h6 @ (h6 + h4 + h2) + h6 + h4 + h2 + ident
            e = np.linalg.solve(v - u, v + u)
        return e

    def vector(self):
        """Projections against a basis and norms, as in Gram-Schmidt."""
        w = self.x
        for _ in range(6):
            for q in self.basis:
                w = w - np.vdot(q, w) * q
            np.linalg.norm(w)
        return w

    def block(self):
        """Wall time of one block: every call of the recipe, back to back."""
        start = time.perf_counter()
        for call in self.calls:
            call()
        return time.perf_counter() - start
