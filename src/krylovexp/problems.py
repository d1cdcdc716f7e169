"""The four test operators used throughout the experiments.

_PROBLEMS holds one row per problem kind: the builder, which returns a
SparseOperator, its default parameters and the canonical propagation
prefactor sigma:

  schrodinger_free      H = (1/4) tridiag(-1, 2, -1), sigma = -i
  heat                  same H, sigma = -1
  hubbard               8-site chain at half filling, n = 4900, sigma = -i
  convection_diffusion  3D centered-difference stencil, sigma = +1

The Hubbard and convection-diffusion builders write the COO triplets of
their Kronecker structure, no entry twice and no zero coupling, and
scipy's conversion sorts them into canonical CSR.

The Laplacian scaling puts spec(H) inside (0, 1), so -iH generates a
unitary group and -H a contraction semigroup; the convection-diffusion
operator has negative-definite Hermitian part for any mu, so sigma = +1
is nonexpansive as well.  None of this is asserted by the builders:
SparseOperator.log_norm_bound(sigma) certifies it per (operator, sigma)
pair, and returns exactly 0.0 for each problem at its canonical sigma.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .sparse import SparseOperator, validate_integer


def build_laplacian(n):
    """The quarter-scaled Laplacian (1/4) tridiag(-1, 2, -1), hermitian.

    Eigenvalues are sin^2(k pi / (2(n+1))), all inside (0, 1), so the
    2-norm approaches 1 from below as n grows.
    """
    n = validate_integer(n, "n", 2)
    main = np.full(n, 0.5)
    off = np.full(n - 1, -0.25)
    return SparseOperator(sp.diags([off, main, off], [-1, 0, 1], format="csr"),
                          symmetry="hermitian")


_SITES = 8
_FILL = 4


def build_hubbard(omega, U=5.0):
    """8-site Hubbard chain at half filling on the 4900-state sector.

    Nearest-neighbour hopping amplitude -cos(omega) + i sin(omega), on-site
    potential -1.75 at the chain ends and -2 elsewhere, interaction U per
    doubly occupied site.  Fermionic signs follow the Jordan-Wigner string
    over the 16 bit positions; with spin-major bit layout every allowed
    hop swaps adjacent bits, so all string factors are +1.

    State down * 70 + up pairs two of the 70 one-spin patterns (4 of 8
    bits set, ascending), so the hopping is K (x) I + I (x) K.  Entry
    (y, x) of K, for y = x with bits p, p + 1 swapped, is hop when x has
    the particle on p + 1, its conjugate otherwise.

    Hermitian, so sigma*A is skew-hermitian and nonexpansive for the
    imaginary prefactors (+/-i) this Hamiltonian is propagated with; at
    sigma = +/-1 it is expansive (log_norm_bound 18.5 and 29.5).
    """
    singles = np.array([x for x in range(1 << _SITES) if x.bit_count() == _FILL])
    k = len(singles)
    occ = (singles[:, None] >> np.arange(_SITES)) & 1
    hop = complex(-np.cos(omega) + 1j * np.sin(omega))
    site_pot = np.full(_SITES, -2.0)
    site_pot[0] = site_pot[-1] = -1.75

    n_dn, n_up = occ[:, None, :], occ[None, :, :]
    diag = np.zeros((k, k))
    for j in range(_SITES):
        diag += site_pot[j] * (n_up[..., j] + n_dn[..., j])
        diag += np.where(n_up[..., j] & n_dn[..., j], U, 0.0)
    diag = diag.ravel()

    x, p = np.nonzero(occ[:, :-1] != occ[:, 1:])
    y = np.searchsorted(singles, singles[x] ^ (3 << p))
    amp = np.where(occ[x, p + 1] == 1, hop, np.conj(hop))
    other = np.arange(k)
    on = np.flatnonzero(diag)
    # K (x) I moves the down pattern, I (x) K the up pattern
    rows = np.concatenate([(y[:, None] * k + other).ravel(), (other[:, None] * k + y).ravel(), on])
    cols = np.concatenate([(x[:, None] * k + other).ravel(), (other[:, None] * k + x).ravel(), on])
    vals = np.concatenate([np.repeat(amp, k), np.tile(amp, k), diag[on]])
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(k * k, k * k))
    return SparseOperator(mat, symmetry="hermitian")


def build_convection_diffusion(n, mu1, mu2):
    """3D convection-diffusion stencil on an n^3 grid, h = 1/(n+1):

        A = B (+) C1 (+) C2   (Kronecker sum)

    with B = h^-2 tridiag(1, -2, 1) and
    C_i = h^-2 tridiag(1 + mu_i, -2, 1 - mu_i).  Non-normal whenever some
    mu_i is nonzero, but the Hermitian part stays negative definite, so
    sigma = +1 is nonexpansive.
    """
    n = validate_integer(n, "n", 2)
    h = 1.0 / (n + 1)
    scale = 1.0 / (h * h)
    grid = np.arange(n ** 3).reshape(n, n, n)
    # the diagonal sums the three -2 h^-2 in the order B + C1 + C2
    rows, cols = [grid.ravel()], [grid.ravel()]
    vals = [np.full(n ** 3, (-2.0 * scale + -2.0 * scale) + -2.0 * scale)]
    for axis, mu in enumerate((0.0, mu1, mu2)):
        below = grid.take(range(n - 1), axis=axis).ravel()
        above = grid.take(range(1, n), axis=axis).ravel()
        for r, c, v in ((above, below, (1.0 + mu) * scale), (below, above, (1.0 - mu) * scale)):
            if v != 0.0:
                rows.append(r)
                cols.append(c)
                vals.append(np.full(r.size, v))
    A = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n ** 3, n ** 3))
    symmetric = mu1 == 0.0 and mu2 == 0.0
    return SparseOperator(A, symmetry="hermitian" if symmetric else "general")


# kind -> (builder, default parameters, canonical prefactor sigma)
_PROBLEMS = {
    "schrodinger_free": (build_laplacian, {"n": 1000}, -1j),
    "heat": (build_laplacian, {"n": 200}, -1.0),
    "hubbard": (build_hubbard, {"omega": 0.123, "U": 5.0}, -1j),
    "convection_diffusion": (build_convection_diffusion,
                             {"n": 15, "mu1": 0.9, "mu2": 1.1}, 1.0),
}

PROBLEM_KINDS = tuple(_PROBLEMS)


@dataclass(frozen=True)
class ProblemSpec:
    kind: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _PROBLEMS:
            raise ValueError(f"unknown problem kind: {self.kind!r}")
        known = _PROBLEMS[self.kind][1]
        extra = set(self.params) - set(known)
        if extra:
            raise ValueError(f"unknown parameters for {self.kind}: {sorted(extra)}")
        object.__setattr__(self, "params", {**known, **self.params})

    def build(self):
        """Return (operator, canonical prefactor sigma) for this problem."""
        builder, _, sigma = _PROBLEMS[self.kind]
        return builder(**self.params), sigma


def starting_vector(spec):
    """Problem-conventional start vector of unit 2-norm.

    Convection-diffusion uses the all-ones vector; the others draw a
    complex standard-normal vector from spec.seed and normalize it.
    """
    if spec.kind == "convection_diffusion":
        n = spec.params["n"] ** 3
        return np.full(n, 1.0 + 0.0j) / np.sqrt(n)
    # the hubbard sector pairs every up pattern with every down pattern
    n = math.comb(_SITES, _FILL) ** 2 if spec.kind == "hubbard" else spec.params["n"]
    rng = np.random.default_rng(spec.seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)
