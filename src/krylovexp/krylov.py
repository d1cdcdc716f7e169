"""Arnoldi and Lanczos builds of the Krylov decomposition A V = V T + tau v_next e_m^*.

The operator picks the algorithm: Lanczos when it is flagged hermitian,
Arnoldi otherwise.  Both orthogonalize each new column against the whole
basis by classical Gram-Schmidt run twice, two in-place BLAS gemv calls
per pass, whatever m_max is.  Nothing else is configurable.

The decomposition object carries everything the approximants and error
estimators downstream need: the operator it was built from, the basis,
the projected matrix, the next subdiagonal entry tau, the subdiagonal
product gamma (also in log form, which is what the estimators actually
consume), breakdown state and the cached A v_next.

It is also the one owner of the small-matrix functions that every
approximant and estimator reads: phi(sigma, q, t) = phi_q(sigma t T) e_1,
its last entry corner(sigma, q, t), and the defect(sigma, t) pair
(delta, delta') that the quadrature estimates and the effective order
read.  A Lanczos decomposition eigendecomposes T once and serves every
sigma, q and t from it; an Arnoldi one runs the Pade route.  phi also
takes a grid of t (the estimators take one t): Lanczos evaluates the
scalar phi_q at the Ritz values for the whole grid in one call, and
Arnoldi runs one Pade per t, so each row has the bits, and the memory
order, of a call for its t alone.  Rows are cached for the life of the
decomposition, like its eigendecomposition and A v_next, keyed on the
checked (sigma, q, t): every read, a cache hit included, checks all
three first.  A q that is not an int >= 0, a t that is not a finite real
number >= 0 or a sigma that is not a number on the unit circle (a bool
included) raises ValueError before anything is computed or cached; a
0-d array sigma or t is the number it holds.

One build allocates one store of two arrays, sized for m_max: a row-major
basis of shape (m_max+1, n) and a Hessenberg matrix of shape
(m_max+1, m_max); Lanczos writes alpha on the diagonal and beta on both
off-diagonals.  The arithmetic follows the inputs: when the operator is
real (SparseOperator.is_real) and so is the start vector, both arrays are
float64 and every matvec, Gram-Schmidt pass and Pade runs in real
arithmetic.  Otherwise the basis is complex, and so is the Arnoldi
Hessenberg matrix, while the Lanczos one stays real.  A decomposition of
dimension m exposes read-only views of it: V = basis[:m].T,
T = hess[:m, :m] and v_next = basis[m].

Builds are strictly incremental.  extend_krylov fills the same store past
dec.m and copies nothing; every entry it writes lies outside what dec
exposes and is a deterministic function of the entries before it, so dec
never changes, two extensions of one decomposition agree, and the result
is bitwise identical to a build of dimension m+k from scratch.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import get_blas_funcs

from .dense import phi_dense, phi_scalar, symtrid_eig
from .sparse import (validate_integer, validate_phi_index, validate_prefactor,
                     validate_time)

_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class KrylovConfig:
    """Build configuration: the largest dimension m_max.

    The operator picks the algorithm: Lanczos iff it is flagged hermitian,
    else Arnoldi.  m_max sizes the store only: a build capped at m_max
    agrees bit for bit, over its first k columns, with one capped at k.

    The build stops with a breakdown once tau <= n * eps * max_j ||A v_j||_2.
    m_max is a Python or numpy integer >= 1, stored as an int.
    """

    m_max: int

    def __post_init__(self):
        object.__setattr__(self, "m_max", validate_integer(self.m_max, "m_max", 1))


def _read_only(view):
    view.flags.writeable = False
    return view


class KrylovDecomposition:
    """Result of build_krylov / extend_krylov.  V, T, v_next and subdiag
    are read-only views of the build's store.

    Attributes
    ----------
    op : the operator the decomposition was built from
    m : reached dimension (== m_max unless breakdown ended the build early)
    tau_next : next subdiagonal entry tau_{m+1,m} (0.0 on breakdown)
    v_next : the (m+1)-th basis vector, or None on breakdown
    log_gamma : log of gamma, the product of the m-1 subdiagonal entries
        of T (kept in log form, because the product itself can underflow)
    breakdown : True when the build stopped with tau at or below the
        breakdown threshold, in which case the Krylov approximation is
        exact for every t
    """

    def __init__(self, op, basis, hess, m, tau_next, amax):
        self.op = op
        self.mode = "lanczos" if op.symmetry == "hermitian" else "arnoldi"
        self.m_max = hess.shape[1]
        self.m = m
        self.tau_next = tau_next
        # a build that goes on has tau > n * eps * amax >= 0
        self.breakdown = tau_next == 0.0
        self._basis = basis
        self._hess = hess
        self._amax = amax
        self._V = _read_only(basis[:m].T)
        self._T = _read_only(hess[:m, :m])
        self.v_next = None if self.breakdown else _read_only(basis[m])
        self.log_gamma = float(np.sum(np.log(self.subdiag)))
        self._a_v_next = None
        self._eigh = None
        self._phi = {}

    @property
    def subdiag(self):
        """The m-1 subdiagonal entries of T (all real positive)."""
        return np.diagonal(self._T, -1).real

    @property
    def V(self):
        return self._V

    @property
    def T(self):
        return self._T

    @property
    def matvecs_used(self):
        """Matvecs spent on this decomposition: one per column, plus one
        once a_v_next has been computed."""
        return self.m + (self._a_v_next is not None)

    def a_v_next(self):
        """A applied to v_next, computed once and cached (one extra matvec)."""
        if self.breakdown:
            raise ValueError("no v_next after breakdown")
        if self._a_v_next is None:
            self._a_v_next = self.op.matvec(self.v_next)
        return self._a_v_next

    def phi(self, sigma, q, t):
        """phi_q(sigma t T) e_1 as a read-only length-m vector (q = 0 gives
        e^{sigma t T} e_1), or for a 1-D grid t the list of those vectors,
        one per entry of t.  float64 when sigma and T are real, for
        Lanczos and Arnoldi alike, and complex otherwise.  Each row is
        computed by _fill, a scalar t as the one-row case of a grid, so a
        row has the same bits whichever way it was asked for.  sigma, q
        and every t are checked before the cache lookup, and the checked
        triple is the key."""
        if isinstance(t, float) or np.ndim(t) != 1:
            return self._row(sigma, q, t)
        s, q = validate_prefactor(sigma), validate_phi_index(q)
        t = [validate_time(x) for x in t]
        missing = [x for x in dict.fromkeys(t) if (s, q, x) not in self._phi]
        if missing:
            self._fill(s, q, missing)
        return [self._phi[(s, q, x)] for x in t]

    def _row(self, sigma, q, t):
        """The row at one t, the read behind phi, corner and defect, with
        phi's checks and key."""
        s, q, t = validate_prefactor(sigma), validate_phi_index(q), validate_time(t)
        if (s, q, t) not in self._phi:
            self._fill(s, q, [t])
        return self._phi[(s, q, t)]

    def _fill(self, s, q, ts):
        """Compute and cache the rows of the distinct times ts for the
        checked prefactor s (a complex) and phi index q.

        z = s t is real for every t when s and T are real, and complex
        for every t otherwise.  Arnoldi pays one phi_dense call per t.
        Lanczos evaluates phi_q(z lam) for every z in one elementwise
        phi_scalar call, and keeps the product with Q per t, since a
        batched product would sum in another order: each row has the bits
        of a call for its t alone.  Overflow raises OverflowError on both
        routes, before any row is cached."""
        scale = s.real if s.imag == 0.0 and self._T.dtype.kind != "c" else s
        zs = [scale * t for t in ts]
        if self.mode == "arnoldi":
            rows = [phi_dense(self._T, z, q) for z in zs]
        else:
            if self._eigh is None:
                # T = Q diag(lam) Q^T, computed once for every sigma, q and t
                self._eigh = symtrid_eig(np.diagonal(self._T), self.subdiag)
            lam, Q = self._eigh
            with np.errstate(over="ignore", invalid="ignore"):  # reported just below
                rows = [Q @ w for w in phi_scalar(np.array(zs)[:, None] * lam, q) * Q[0]]
            if not np.isfinite(rows).all():
                raise OverflowError("phi: result overflowed")
        for t, row in zip(ts, rows):
            self._phi[(s, q, t)] = _read_only(row)

    def corner(self, sigma, q, t):
        """e_m^* phi_q(sigma t T) e_1 at one t: the last entry of
        phi(sigma, q, t), for both algorithms and every q, so it shares
        phi's cache and its rounding."""
        return complex(self._row(sigma, q, t)[self.m - 1])

    def defect(self, sigma, t):
        """(delta, delta_prime) at one finite time t >= 0: the corner entry
        delta(t) = e_m^* e^{sigma t T} e_1, read from phi(sigma, 0, t) like
        corner, and its exact t-derivative
        sigma (T[m-1, m-1] u_m + T[m-1, m-2] u_{m-1}) with u = phi(sigma, 0, t),
        which holds for any upper Hessenberg T."""
        m = self.m
        if m < 2:
            raise ValueError("defect needs m >= 2 (the derivative uses the last two rows of T)")
        u = self._row(sigma, 0, t)
        T = self.T
        delta_prime = sigma * (T[m - 1, m - 1] * u[m - 1] + T[m - 1, m - 2] * u[m - 2])
        return complex(u[m - 1]), complex(delta_prime)


def _grow(op, basis, hess, m, amax, steps):
    """Fill columns m .. m+steps-1 of the store by classical Gram-Schmidt
    run twice ("twice is enough": Giraud, Langou & Rozloznik, 2005) and
    return the decomposition they reach (earlier at a breakdown).

    h sums the coefficients of both passes.  Lanczos keeps Re h_j as
    alpha_j and drops the rest: beta_{j-1}, stored already, and round-off.
    The operator's symmetry flag picks Lanczos, never the dtype of hess:
    a real Arnoldi store is float64 too.

    Every entry written lies past what a decomposition of dimension m
    exposes (basis rows > m, hess columns >= m), and its value depends only
    on the entries before it, so growing one decomposition twice writes the
    same values twice.
    """
    n = basis.shape[1]
    lanczos = op.symmetry == "hermitian"
    gemv, nrm2 = get_blas_funcs(("gemv", "nrm2"), (basis,))
    # V^* w: transposed (1) on a real basis, conjugate-transposed (2) on a complex one
    adjoint = 2 if np.iscomplexobj(basis) else 1
    for j in range(m, m + steps):
        w = op.matvec(basis[j])
        amax = max(amax, nrm2(w))
        # the first j+1 basis rows as the columns of a Fortran-ordered n x (j+1) view
        Vj = basis.T[:, :j + 1]
        h = 0.0
        for _ in range(2):
            c = gemv(1.0, Vj, w, trans=adjoint)
            w = gemv(-1.0, Vj, c, beta=1.0, y=w, overwrite_y=True)
            h = h + c
        if lanczos:
            hess[j, j] = h[j].real
        else:
            hess[:j + 1, j] = h
        tau = nrm2(w)
        if tau <= n * _EPS * amax:
            return KrylovDecomposition(op, basis, hess, j + 1, 0.0, amax)
        hess[j + 1, j] = tau
        if lanczos and j + 1 < hess.shape[1]:
            hess[j, j + 1] = tau
        np.divide(w, tau, out=basis[j + 1])
    return KrylovDecomposition(op, basis, hess, m + steps, tau, amax)


def build_krylov(op, v, cfg, steps=None):
    """Run the Arnoldi/Lanczos iteration from a unit vector v up to cfg.m_max.

    With steps=k (an integer, 1 <= k <= cfg.m_max) only the first k
    columns are produced; the result can be grown later with
    extend_krylov and is bitwise identical to a single full build.  The
    store is float64 when op.is_real and v has no nonzero imaginary part,
    complex otherwise.
    """
    v = np.asarray(v)
    if v.shape != (op.n,):
        raise ValueError("start vector has wrong length")
    if abs(np.linalg.norm(v) - 1.0) > 1e-12:
        raise ValueError("start vector must have unit 2-norm")
    steps = cfg.m_max if steps is None else validate_integer(steps, "steps", 1)
    if steps > cfg.m_max:
        raise ValueError("steps must lie in [1, m_max]")
    field = float if op.is_real and not np.any(v.imag) else complex
    basis = np.zeros((cfg.m_max + 1, op.n), dtype=field)
    basis[0] = v.real if field is float else v
    hess = np.zeros((cfg.m_max + 1, cfg.m_max),
                    dtype=float if op.symmetry == "hermitian" else field)
    return _grow(op, basis, hess, 0, 0.0, steps)


def extend_krylov(dec, steps):
    """Grow an existing decomposition by `steps` (an integer >= 0) further columns.

    The result is bitwise identical to a fresh build of dimension
    dec.m + steps with the same configuration; dec itself is unchanged.
    """
    steps = validate_integer(steps, "steps", 0)
    if steps == 0:
        return dec
    if dec.breakdown:
        raise ValueError("cannot extend past a breakdown (the approximation is already exact)")
    if dec.m + steps > dec.m_max:
        raise ValueError(f"extension to m={dec.m + steps} exceeds m_max={dec.m_max}")
    return _grow(dec.op, dec._basis, dec._hess, dec.m, dec._amax, steps)
