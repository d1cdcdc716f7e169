"""The four test operators used throughout the experiments.

Each builder returns a SparseOperator (plus the natural propagation
prefactor where one is canonical):

  schrodinger_free      H = (1/4) tridiag(-1, 2, -1), sigma = -i
  heat                  same H, sigma = -1
  hubbard               8-site fermionic chain at half filling, n = 4900
  convection_diffusion  3D centered-difference stencil, sigma = +1

The Hubbard and convection-diffusion builders write their canonical CSR
arrays directly, each row in ascending column order; a coupling that is
zero is not stored.

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

from .sparse import SparseOperator

PROBLEM_KINDS = ("schrodinger_free", "heat", "hubbard", "convection_diffusion")

_DEFAULT_PARAMS = {
    "schrodinger_free": {"n": 1000},
    "heat": {"n": 200},
    "hubbard": {"omega": 0.123, "U": 5.0},
    "convection_diffusion": {"n": 15, "mu1": 0.9, "mu2": 1.1},
}


@dataclass(frozen=True)
class ProblemSpec:
    kind: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in PROBLEM_KINDS:
            raise ValueError(f"unknown problem kind: {self.kind!r}")
        known = _DEFAULT_PARAMS[self.kind]
        extra = set(self.params) - set(known)
        if extra:
            raise ValueError(f"unknown parameters for {self.kind}: {sorted(extra)}")
        merged = dict(known)
        merged.update(self.params)
        object.__setattr__(self, "params", merged)

    def build(self):
        """Return (operator, prefactor) for this problem."""
        p = self.params
        if self.kind == "schrodinger_free":
            return build_schrodinger(p["n"])
        if self.kind == "heat":
            return build_heat(p["n"])
        if self.kind == "hubbard":
            return build_hubbard(p["omega"], p["U"]), -1j
        return build_convection_diffusion(p["n"], p["mu1"], p["mu2"])


def _quarter_laplacian(n):
    if n < 2:
        raise ValueError("n must be >= 2")
    main = np.full(n, 0.5)
    off = np.full(n - 1, -0.25)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr").astype(complex)


def build_schrodinger(n):
    """Free-particle Hamiltonian (1/4) tridiag(-1, 2, -1) with prefactor -i.

    Eigenvalues are sin^2(k pi / (2(n+1))), all inside (0, 1), so the
    2-norm approaches 1 from below as n grows.
    """
    return SparseOperator(_quarter_laplacian(n), symmetry="hermitian"), -1j


def build_heat(n):
    """The same quarter-scaled Laplacian driven as a contraction: sigma = -1
    against a positive-definite matrix."""
    return SparseOperator(_quarter_laplacian(n), symmetry="hermitian"), -1.0


def _kept_slots(keep):
    """The row and slot of each True entry of the (rows, slots) mask keep,
    in row-major order, and the CSR row pointer that counts them: a
    builder whose slots run in ascending column order gets its canonical
    CSR arrays in that order."""
    rows, slot = np.divmod(np.flatnonzero(keep), keep.shape[1])
    indptr = np.zeros(len(keep) + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    return rows, slot, indptr


_SITES = 8
_FILL = 4


def _hubbard_basis():
    """All occupation states with 4 up and 4 down fermions on 8 sites,
    encoded as 16-bit integers (bits 0..7 up, bits 8..15 down), as an
    int32 array in ascending order of the packed integer value: the down
    byte major, the up byte minor, each byte running through its 4-bit
    patterns in ascending order."""
    singles = np.array([x for x in range(1 << _SITES) if x.bit_count() == _FILL],
                       dtype=np.int32)
    return ((singles[:, None] << _SITES) | singles).ravel()


def build_hubbard(omega, U=5.0):
    """8-site Hubbard chain at half filling on the 4900-state sector.

    Nearest-neighbour hopping amplitude -cos(omega) + i sin(omega), on-site
    potential -1.75 at the chain ends and -2 elsewhere, interaction U per
    doubly occupied site.  Fermionic signs follow the Jordan-Wigner string
    over the 16 bit positions; with spin-major bit layout every allowed
    hop swaps adjacent bits, so all string factors are +1.

    Hermitian, so sigma*A is skew-hermitian and nonexpansive for the
    imaginary prefactors (+/-i) this Hamiltonian is propagated with; at
    sigma = +/-1 it is expansive (log_norm_bound 18.5 and 29.5).
    """
    states = _hubbard_basis()
    nstates = len(states)
    index = np.full(1 << (2 * _SITES), -1, dtype=np.int32)
    index[states] = np.arange(nstates, dtype=np.int32)
    hop = complex(-np.cos(omega) + 1j * np.sin(omega))
    site_pot = np.full(_SITES, -2.0)
    site_pot[0] = site_pot[-1] = -1.75

    occ = ((states[:, None] >> np.arange(2 * _SITES, dtype=np.int32)) & 1).astype(np.int8)
    n_up, n_dn = occ[:, :_SITES], occ[:, _SITES:]
    diag = np.zeros(nstates)
    for j in range(_SITES):
        diag += site_pot[j] * (n_up[:, j] + n_dn[:, j])
        diag += np.where(n_up[:, j] & n_dn[:, j], U, 0.0)

    # A hop swaps the adjacent bits p, p + 1 of one spin byte.  The states
    # ascend by packed value, so row x holds its lowering hops (to
    # x - 2^p, the particle moving from p + 1 to p) by descending p, then
    # its diagonal where nonzero, then its raising hops (to x + 2^p) by
    # ascending p: one slot each, in ascending column order.  The hop
    # towards the lower site carries the amplitude: entry (x, y) is hop
    # when the column state y has the particle on p + 1, its conjugate
    # otherwise.
    p = np.array([base + j for base in (0, _SITES) for j in range(_SITES - 1)])
    lo, hi = occ[:, p], occ[:, p + 1]
    keep = np.concatenate([(hi > lo)[:, ::-1], (diag != 0.0)[:, None], lo > hi], axis=1)
    flips = np.concatenate([3 << p[::-1], [0], 3 << p]).astype(np.int32)
    amps = np.array([np.conj(hop)] * len(p) + [0.0] + [hop] * len(p))
    rows, slot, indptr = _kept_slots(keep)
    data = amps[slot]
    on_diag = slot == len(p)
    data[on_diag] = diag[rows[on_diag]]
    mat = sp.csr_matrix((data, index[states[rows] ^ flips[slot]], indptr),
                        shape=(nstates, nstates))
    return SparseOperator(mat, symmetry="hermitian")


def build_convection_diffusion(n, mu1, mu2):
    """3D convection-diffusion stencil on an n^3 grid, h = 1/(n+1):

        A = B (+) C1 (+) C2   (Kronecker sum)

    with B = h^-2 tridiag(1, -2, 1) and
    C_i = h^-2 tridiag(1 + mu_i, -2, 1 - mu_i).  Non-normal whenever some
    mu_i is nonzero, but the Hermitian part stays negative definite, so
    sigma = +1 is returned as the (nonexpansive) prefactor.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    h = 1.0 / (n + 1)
    scale = 1.0 / (h * h)
    # row i n^2 + j n + k couples to its grid neighbours along i (B), j (C1)
    # and k (C2); the seven slots run in ascending column order, the
    # diagonal sums the three -2 h^-2 in the order B + C1 + C2, and a zero
    # coupling (mu = +/-1) is not stored
    offsets = np.array([-n * n, -n, -1, 0, 1, n, n * n], dtype=np.int32)
    values = np.array([1.0 * scale, (1.0 + mu1) * scale, (1.0 + mu2) * scale,
                       (-2.0 * scale + -2.0 * scale) + -2.0 * scale,
                       (1.0 - mu2) * scale, (1.0 - mu1) * scale, 1.0 * scale])
    i, j, k = np.indices((n, n, n)).reshape(3, -1)
    keep = np.stack([i > 0, j > 0, k > 0, np.ones_like(k, dtype=bool),
                     k < n - 1, j < n - 1, i < n - 1], axis=1) & (values != 0.0)
    rows, slot, indptr = _kept_slots(keep)
    A = sp.csr_matrix((values[slot], rows.astype(np.int32) + offsets[slot], indptr),
                      shape=(n ** 3, n ** 3))
    symmetric = mu1 == 0.0 and mu2 == 0.0
    return SparseOperator(A, symmetry="hermitian" if symmetric else "general"), 1.0


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
