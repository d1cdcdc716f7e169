"""Independent reference solutions used to validate the Krylov results.

Nothing here touches the Krylov or small-matrix code paths.  Four
routes compute the exponential action from scratch:

  oracle_laplacian             the quarter-scaled Laplacian, for a whole
                               grid of t, through its analytic
                               eigen-expansion (orthonormal sine
                               transform): one forward transform of v and
                               one inverse over the stacked rows
  oracle_convection_diffusion  the 3D convection-diffusion operator, a
                               Kronecker sum, for a whole grid of t as the
                               Kronecker products of three stacks of n x n
                               scipy.linalg.expm factors, one per t
  oracle_chebyshev             a Hermitian operator at sigma = +/-i, for a
                               whole grid of t from one Chebyshev
                               recurrence with Bessel coefficients
                               (Tal-Ezer & Kosloff 1984)
  oracle_phi                   any operator and any p >= 0, by substepped
                               Taylor summation with a rigorous remainder
                               bound (oracle_series is its p = 0 call)

oracle_reference picks the route for a problem and a grid of t; each
closed-form route (sine transform, Kronecker, Chebyshev) takes the grid
in one call, and each of its rows is the same whatever else is in the
grid.  scipy.fft and scipy.special are imported by the routes that use
them, so importing the package loads neither.  The Chebyshev and
series routes aim at TARGET_ACCURACY = 1e-13 relative to ||v||; only
oracle_phi and oracle_series take another.  The series only
needs matvec / norm_1 / norm_inf / n, so any SparseOperator (or
compatible object) works.  Of the package it imports only the argument
validators in sparse.

The Chebyshev route maps the spectrum interval [a, b] to [-1, 1] with
centre c and radius r and sums

    e^{sigma t A} v = e^{sigma t c} sum_k eps_k sigma^k J_k(t r) T_k(A') v,

A' = (A - c I) / r, eps_0 = 1 and eps_k = 2 otherwise.  [a, b] comes from
the oracle's own Gershgorin pass over the rows of op.csr, padded by a
relative 1e-12, not from SparseOperator.log_norm_bound, so a wrong
interval in either shows up as a disagreement.  With ||T_k(A')||_2 <= 1
and |J_k(x)| <= (x/2)^k / k!, the terms after K sum to at most
2 sum_{k>K} (t r / 2)^k / k! ||v||.  Once K + 2 > t r / 2 the ratio of
consecutive tail terms stays below q = t r / (2 (K + 2)) < 1, so the tail
is at most its first term over 1 - q.  Each t stops at the first K where
that bound, taken in log space, is at most TARGET_ACCURACY ||v|| / 2,
and its row adds no term past K, so a row does not depend on the rest
of the grid.  The round-off of the recurrence is not in the bound.
The vectors T_k(A') v do not depend on t, so the grid shares one
recurrence and pays max_t K(t) matvecs; each T_k(A') v is formed in the
array its matvec returns, and the terms are added row by row.

The series accuracy statements assume ||e^{s sigma A}|| <= 1 over each
substep, which SparseOperator.log_norm_bound(sigma) <= 0 certifies.  That
holds for each shipped problem at its canonical sigma, not for every
sigma: heat at sigma = +1 and Hubbard at sigma = +/-1 are expansive.  The
per-substep tolerances cannot drop below the floating-point floor of
roughly s * eps.
"""

import math

import numpy as np
import scipy.linalg

from .sparse import validate_phi_index, validate_time

_TERM_CAP = 400
TARGET_ACCURACY = 1e-13
MIN_TARGET_ACCURACY = 1e-14
# tiny / eps = 2^-970: from t^p this large on, 1 / t^p is finite and
# u(t) ~ t^p phi_p v stays clear of gradual underflow
_SCALE_FLOOR = np.finfo(float).tiny / np.finfo(float).eps


def _check_grid(ts):
    if np.ndim(ts) != 1 or len(ts) == 0:
        raise ValueError("ts must be a nonempty list of t values")
    for t in ts:
        validate_time(t)


def oracle_laplacian(n, sigma, ts, v):
    """exp(sigma t H) v for every t of ts, one row per t, for
    H = (1/4) tridiag(-1, 2, -1) via the type-I discrete sine transform
    (orthonormal, self-inverse): one forward transform of v and one
    inverse over the stacked rows.  Eigenvalues are
    sin^2(k pi / (2(n+1))).  Each row is computed from its own t alone."""
    import scipy.fft

    _check_grid(ts)
    v = np.asarray(v, dtype=complex)
    if v.shape != (n,):
        raise ValueError("vector length does not match n")
    k = np.arange(1, n + 1)
    lam = np.sin(k * np.pi / (2.0 * (n + 1))) ** 2
    coeff = scipy.fft.dst(v, type=1, norm="ortho")
    return scipy.fft.dst(np.stack([np.exp(sigma * t * lam) * coeff for t in ts]),
                         type=1, norm="ortho")


def oracle_convection_diffusion(n, mu1, mu2, sigma, ts, v):
    """exp(sigma t A) v for every t of ts, one row per t, for the
    convection-diffusion operator A = B (+) C1 (+) C2 on the n^3 grid,
    h = 1/(n+1), with B = h^-2 tridiag(1, -2, 1) and
    C_i = h^-2 tridiag(1 + mu_i, -2, 1 - mu_i) (sub-, main, superdiagonal),
    through

        e^{sigma t A} = e^{sigma t B} (x) e^{sigma t C1} (x) e^{sigma t C2}.

    Each n x n factor comes from scipy.linalg.expm (Al-Mohy & Higham
    2009), so nothing is shared with the package's Pade path, and the cost
    does not grow with t.  Entry i n^2 + j n + k of v is entry (i, j, k)
    of the grid, and B acts on axis i.  The three factor stacks meet v in
    three batched products over the grid, contracting i, then j, then k,
    and each row is computed from its own t alone.  A t = 0 row is v."""
    _check_grid(ts)
    v = np.asarray(v, dtype=complex)
    if v.shape != (n ** 3,):
        raise ValueError("vector length does not match n^3")
    h = 1.0 / (n + 1)
    scale = 1.0 / (h * h)

    def transposed_factors(lo, hi):
        trid = (np.diag(np.full(n - 1, lo * scale), -1)
                + np.diag(np.full(n, -2.0 * scale))
                + np.diag(np.full(n - 1, hi * scale), 1))
        return scipy.linalg.expm(np.stack([sigma * t * trid for t in ts])).transpose(0, 2, 1)

    count = len(ts)
    # each product takes the data's last axis against one factor:
    # [t, jk, i] @ [t, i, a], [t, ak, j] @ [t, j, b], [t, ab, k] @ [t, k, c]
    grid = v.reshape(n, n * n).T @ transposed_factors(1.0, 1.0)
    grid = grid.reshape(count, n, n, n).transpose(0, 3, 2, 1).reshape(count, n * n, n)
    grid = grid @ transposed_factors(1.0 + mu1, 1.0 - mu1)
    grid = grid.reshape(count, n, n, n).transpose(0, 1, 3, 2).reshape(count, n * n, n)
    grid = grid @ transposed_factors(1.0 + mu2, 1.0 - mu2)
    rows = grid.reshape(count, n ** 3)
    rows[np.asarray(ts) == 0.0] = v
    return rows


def _gershgorin_interval(csr):
    """[a, b] holding every eigenvalue of the Hermitian matrix csr: the
    real centres of its Gershgorin discs, minus and plus their radii,
    with the rows of the entries read from indptr."""
    rows = np.repeat(np.arange(csr.shape[0], dtype=csr.indices.dtype), np.diff(csr.indptr))
    off = csr.indices != rows
    radius = np.bincount(rows[off], weights=np.abs(csr.data[off]),
                         minlength=csr.shape[0])
    centre = csr.diagonal().real
    return float(np.min(centre - radius)), float(np.max(centre + radius))


def _chebyshev_terms(x, target):
    """The first K at which 2 sum_{k>K} (x/2)^k / k! is certified to be
    at most target / 2, by bounding the sum with its first term over
    1 - q, q = x / (2 (K + 2)) < 1.  Log space keeps large x finite."""
    if x == 0.0:
        return 0
    log_half = math.log(x) - math.log(2.0)   # 0.5 * x underflows for subnormal x
    goal = math.log(0.25 * target)
    K = max(0, math.floor(0.5 * x) - 1)
    while True:
        q = 0.5 * x / (K + 2)
        if (K + 1) * log_half - math.lgamma(K + 2) - math.log1p(-q) <= goal:
            return K
        K += 1


def oracle_chebyshev(op, sigma, ts, v):
    """e^{sigma t A} v for every t of ts, one row per t, for a Hermitian
    operator and Re sigma = 0, from one Chebyshev recurrence (see the
    module docstring).  Each row stops at its own K(t), so it is the same
    whatever else is in ts.  Every matvec goes through op.matvec."""
    import scipy.special

    if op.symmetry != "hermitian":
        raise ValueError("the Chebyshev oracle needs a hermitian operator")
    sigma = complex(sigma)
    if sigma.real != 0.0:
        raise ValueError(f"the Chebyshev oracle needs Re sigma = 0, got {sigma!r}")
    _check_grid(ts)
    v = np.asarray(v, dtype=complex)
    if v.shape != (op.n,):
        raise ValueError("vector length does not match n")
    a, b = _gershgorin_interval(op.csr)
    if a == b:
        # every disc is the point a: A = a I
        return np.array([np.exp(sigma * t * a) * v for t in ts])
    pad = 1e-12 * max(abs(a), abs(b))
    a, b = a - pad, b + pad
    c, r = 0.5 * (a + b), 0.5 * (b - a)
    # e^{i w t r x} = sum_k eps_k (i sgn w)^k J_k(|w| t r) T_k(x), w = Im sigma
    unit = 1j if sigma.imag >= 0.0 else -1j
    powers = np.array([1.0, unit, -1.0, -unit])
    coefs = []
    for t in ts:
        x = abs(sigma.imag) * t * r
        k = np.arange(_chebyshev_terms(x, TARGET_ACCURACY) + 1)
        coefs.append(np.where(k == 0, 1.0, 2.0) * scipy.special.jv(k, x) * powers[k % 4])

    product = np.empty_like(v)

    def recur(x, prev):
        """2 A' x - prev, or A' x at prev None, in the matvec's own array."""
        y = op.matvec(x)
        y -= np.multiply(c, x, out=product)
        y /= r
        if prev is not None:
            y *= 2.0
            y -= prev
        return y

    acc = np.zeros((len(ts), op.n), dtype=complex)
    t_prev = t_cur = v
    for k in range(max(coef.size for coef in coefs)):
        if k == 1:
            t_prev, t_cur = v, recur(v, None)
        elif k > 1:
            t_prev, t_cur = t_cur, recur(t_cur, t_prev)
        for row, coef in zip(acc, coefs):
            if k < coef.size:
                row += coef[k] * t_cur
    for t, row in zip(ts, acc):
        # scalar first, the bits of e^{sigma t c} * row (row *= ... rounds otherwise)
        np.multiply(np.exp(sigma * t * c), row, out=row)
    return acc


def _series_phi_apply(matvec, v, q, tol_abs):
    """phi_q(M) v for ||M||_2 <= 1 by direct Taylor summation of
    M^j v / (j+q)!; q = 0 gives e^M v.  After adding term j the remaining
    tail is at most 2 ||term_j|| / (j+q+1) in 2-norm, so the loop stops
    once that is below tol_abs."""
    term = np.asarray(v, dtype=complex) / math.factorial(q)
    out = term.copy()
    floor = 2.0 * np.finfo(float).eps * float(np.linalg.norm(v))
    stop = max(tol_abs, floor)
    for j in range(1, _TERM_CAP + 1):
        term = matvec(term) / (j + q)
        out += term
        if 2.0 * float(np.linalg.norm(term)) / (j + q + 1) <= stop:
            return out
    raise RuntimeError("Taylor series did not converge within the term cap")


def oracle_series(op, sigma, t, v, target_accuracy=TARGET_ACCURACY):
    """e^{sigma t A} v: oracle_phi at p = 0."""
    return oracle_phi(op, sigma, t, v, 0, target_accuracy)


def oracle_phi(op, sigma, t, v, p, target_accuracy=TARGET_ACCURACY):
    """phi_p(sigma t A) v, independent of the projection code, for any
    p >= 0.  u' = sigma A u + t^{p-1}/(p-1)! v is advanced in s equal
    substeps of width h, s the smallest count with ||sigma h A|| <= 1 in
    both the 1- and inf-norm (hence also in the 2-norm):

        u(t+h) = e^{h sigma A} u(t)
                 + sum_{k=1..p} t^{p-k} h^k / (p-k)! phi_k(h sigma A) v

    from u(0) = 0, and phi_p(sigma t A) v = u(t) / t^p.  At p = 0 there is
    no forcing and u(0) = v, so the loop is the plain substepped
    exponential.  With share = acc ||v|| / (2 (p+1) p!), each
    phi_k(h sigma A) v series stops at share, and each substep's
    exponential at share t^p / s.
    """
    validate_phi_index(p)
    if target_accuracy < MIN_TARGET_ACCURACY:
        raise ValueError(f"target_accuracy must be >= {MIN_TARGET_ACCURACY}")
    t = validate_time(t)
    v = np.asarray(v, dtype=complex)
    if t == 0.0:
        return v / math.factorial(p)
    s = max(1, math.ceil(abs(sigma) * t * max(op.norm_1, op.norm_inf)))
    h = t / s
    z = sigma * t / s

    def matvec(x):
        return z * op.matvec(x)

    share = target_accuracy * float(np.linalg.norm(v)) / (2.0 * (p + 1) * math.factorial(p))
    pieces = [_series_phi_apply(matvec, v, k, share) for k in range(1, p + 1)]
    if s == 1 and t ** p < _SCALE_FLOOR:
        # with one substep u(t) / t^p is the phi_p series itself
        return pieces[-1]
    u = v.copy() if p == 0 else np.zeros_like(v)
    exp_tol = share * t ** p / s
    for j in range(s):
        tj = j * h
        u = _series_phi_apply(matvec, u, 0, exp_tol)
        for k in range(1, p + 1):
            u += (tj ** (p - k) * h ** k / math.factorial(p - k)) * pieces[k - 1]
    return u / t ** p


def oracle_reference(spec, op, sigma, ts, v, p=0):
    """phi_p(sigma t A) v for each t of the grid ts, one row per t, for
    the operator op built from spec, by the fastest independent route:
    the sine transform for the Laplacian problems, the Kronecker product
    for convection-diffusion, one Chebyshev recurrence for a hermitian
    operator at Re sigma = 0 (all three p = 0 only), else oracle_phi (the
    series at p = 0), each at TARGET_ACCURACY.  ts must be a nonempty
    sequence of finite values >= 0."""
    _check_grid(ts)
    if p == 0 and spec.kind in ("schrodinger_free", "heat"):
        return oracle_laplacian(op.n, sigma, ts, v)
    if p == 0 and spec.kind == "convection_diffusion":
        params = spec.params
        return oracle_convection_diffusion(params["n"], params["mu1"], params["mu2"],
                                           sigma, ts, v)
    if p == 0 and op.symmetry == "hermitian" and complex(sigma).real == 0.0:
        return oracle_chebyshev(op, sigma, ts, v)
    return np.array([oracle_phi(op, sigma, t, v, p) for t in ts])
