"""Dense small-matrix kernels.

Everything in here operates on the small projected matrices (m x m with
m <= a few hundred), not on the large sparse operator: the matrix
exponential via diagonal Pade with scaling and squaring, phi-function
actions on the first unit vector through an augmented matrix, scalar
phi evaluation, and the symmetric tridiagonal eigensolve used by the
Lanczos fast path.  expm_dense computes in the field of M, phi_dense in
that of zT, phi_scalar in that of z: float64 when real, else complex128.

expm_dense(M) also takes a (k, n, n) stack and phi_dense(T, z, p) a 1-D
sequence of z of one field; each then returns a list, one entry per
matrix or z, with the bits and the memory order of the call for that
matrix or z alone.  Each matrix keeps its own scaling, and the stack
runs one Pade per distinct scaled matrix: M / 2^s and (M / 2) / 2^(s-1)
are equal bit for bit, so a matrix and its half share one Pade and one
squaring chain, the half reading it one squaring earlier.  The Pade
products and the squarings run as stacked matmuls, and the solve stays
one LAPACK gesv per distinct matrix.
"""

import math

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import get_lapack_funcs

from .sparse import validate_phi_index


# degree-13 diagonal Pade coefficients (numerator; denominator uses the
# alternating signs) and the matching 1-norm scaling threshold
_PADE13_B = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)
_PADE13_THETA = 5.371920351148152


# rows: X_U, Y_U, X_V, Y_V as combinations of [I, M^2, M^4, M^6], so that
# U = M (M^6 X_U + Y_U) and V = M^6 X_V + Y_V
_PADE13_C = np.array([
    [0.0, _PADE13_B[9], _PADE13_B[11], _PADE13_B[13]],
    [_PADE13_B[1], _PADE13_B[3], _PADE13_B[5], _PADE13_B[7]],
    [0.0, _PADE13_B[8], _PADE13_B[10], _PADE13_B[12]],
    [_PADE13_B[0], _PADE13_B[2], _PADE13_B[4], _PADE13_B[6]],
])


def _pade13(M):
    """(V - U)^{-1} (V + U), the degree-13 diagonal Pade approximant of e^M,
    for one matrix, or for each matrix of a (k, n, n) stack as a list.

    Every product runs on the whole stack, as one BLAS product per matrix
    of the sizes the 2-D call uses, so each gives that call's bits.  The
    solve is one LAPACK gesv per matrix, which leaves E in Fortran order
    (np.linalg.solve on the stack gives other bits)."""
    n = M.shape[-1]
    powers = np.empty((4, *M.shape), dtype=M.dtype)
    powers[0] = np.eye(n)
    np.matmul(M, M, out=powers[1])
    np.matmul(powers[1], powers[1], out=powers[2])
    np.matmul(powers[1], powers[2], out=powers[3])
    if M.ndim == 2:
        X = _PADE13_C @ powers.reshape(4, n * n)
    else:
        X = (_PADE13_C @ powers.reshape(4, -1, n * n).swapaxes(0, 1)).swapaxes(0, 1)
    XU, YU, XV, YV = X.reshape(powers.shape)
    M6 = powers[3]
    U = M @ (M6 @ XU + YU)
    V = M6 @ XV + YV
    gesv = get_lapack_funcs("gesv", (V,))
    if M.ndim == 2:
        return _solution(gesv(V - U, V + U))
    return [_solution(gesv(lhs, rhs)) for lhs, rhs in zip(V - U, V + U)]


def _solution(gesv_result):
    """The solution of a gesv call, or LinAlgError where it failed."""
    _, _, E, info = gesv_result
    if info != 0:
        raise np.linalg.LinAlgError(f"expm_dense: Pade denominator solve failed (info = {info})")
    return E


def _squarings(nrm):
    """How often a matrix of 1-norm nrm is halved before Pade, and then its
    exponential squared: none at or below _PADE13_THETA."""
    return int(math.ceil(math.log2(nrm / _PADE13_THETA))) if nrm > _PADE13_THETA else 0


# Why not scipy.linalg.expm: accuracy, not speed (scipy is faster, about 71
# against 86 us on the real m = 30 T of default convection-diffusion at
# z = 0.02, ||zT||_1 = 73.5, with one BLAS thread on a 2-core x86 VM).  At
# small norm scipy picks a low Pade degree and loses the tiny corner
# e_m^T e^{zT} e_1 ~ gamma z^{m-1}/(m-1)! that the defect and err1 read: at
# ||zT||_1 = 1e-6 its corner is off by +1.9 (relative) at m = 10 and by
# 5.3e12 at m = 30.  Degree 13 matches Taylor through order 26, so the corner
# holds wherever m - 1 + q <= 26; past that it too loses digits until
# ||zT||_1 exceeds _PADE13_THETA and scaling starts.
def expm_dense(M):
    """Compute e^M for a small dense matrix M, or for each matrix of a
    (k, n, n) stack.

    Degree-13 diagonal Pade with scaling chosen so the scaled 1-norm stays
    below 5.4, followed by repeated squaring, in the field of M (float64
    or complex128).  M = 0 returns exactly I, which Pade would miss by an
    ulp.  (Lanczos decompositions reach e^{zT} through their tridiagonal
    eigendecomposition instead; see KrylovDecomposition.phi.)

    A stack returns the list of its k exponentials.  Each matrix keeps its
    own scaling, matrices whose scaled forms are equal share one Pade and
    one squaring chain, the Pade products and the squarings run on the
    stack (the squarings on the chains that still owe some), and each
    result is its own array, the one its own 2-D call returns, bits and
    memory order alike: Fortran order where nothing was squared, C order
    otherwise.  A product with it can take another BLAS path in either
    order, so the order is part of the result.
    """
    M = np.asarray(M, dtype=np.result_type(np.asarray(M), float))
    if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2]:
        raise ValueError("expm_dense needs a square matrix or a stack of them")
    if not np.isfinite(M).all():
        raise ValueError("expm_dense: non-finite input")
    if M.ndim == 3:
        return _expm_stack(M)
    nrm = abs(M).sum(axis=0).max()
    if nrm == 0.0:
        return np.eye(M.shape[0], dtype=M.dtype)
    s = _squarings(nrm)
    if s:
        M = M / (2.0 ** s)
    E = _pade13(M)
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        for _ in range(s):
            E = E @ E
    if not np.isfinite(E).all():
        raise OverflowError("expm_dense: result overflowed")
    return E


def _expm_stack(M):
    """expm_dense of a checked, finite (k, n, n) stack, as a list.

    One Pade per distinct scaled matrix (compared by bytes): M / 2^s and
    (M / 2) / 2^(s-1) are equal bit for bit, so the exponential of M / 2
    is an intermediate of M's squaring chain, and each matrix takes the
    chain of its scaled matrix after its own s squarings.  An intermediate
    is copied before the next squaring overwrites it, and every entry is
    its own array, in the memory order of its 2-D call."""
    n = M.shape[-1]
    norms = abs(M).sum(axis=1).max(axis=1).tolist()
    out = [np.eye(n, dtype=M.dtype) if nrm == 0.0 else None for nrm in norms]
    s = [_squarings(nrm) for nrm in norms]
    live = [i for i, nrm in enumerate(norms) if nrm != 0.0]
    if not live:
        return out
    scaled = M[live] / np.array([2.0 ** s[i] for i in live])[:, None, None]
    chains = {}  # scaled bytes -> (position in scaled, matrices reading its chain)
    for j, i in enumerate(live):
        chains.setdefault(scaled[j].tobytes(), (j, []))[1].append(i)
    # one entry per chain, those owing the most squarings first, so that
    # the ones still owing some are always a leading block of the stack
    chains = sorted(chains.values(), key=lambda c: -max(s[i] for i in c[1]))
    owed = [max(s[i] for i in readers) for _, readers in chains]
    E = _pade13(scaled[[j for j, _ in chains]])

    def hand_out(k, r, e):
        """e, chain k after r squarings, to the matrices that read it
        there: the first gets e itself unless a later squaring overwrites
        it, every other one a copy in e's memory order."""
        kept = r == 0 or r == owed[k]  # a Pade result, or the chain's last row
        for i in chains[k][1]:
            if s[i] == r:
                out[i] = e if kept else e.copy(order="K")
                kept = False

    for k, e in enumerate(E):
        hand_out(k, 0, e)
    squared = sum(1 for c in owed if c)
    if squared:
        # the first squaring multiplies Fortran-ordered copies, as the 2-D
        # call squares gesv's result (C-ordered ones give other bits); its
        # product, like every later one, is C-ordered
        F = np.empty((squared, n, n), dtype=M.dtype).transpose(0, 2, 1)
        for k, e in enumerate(E[:squared]):
            F[k] = e
        S = np.empty((squared, n, n), dtype=M.dtype)
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            np.matmul(F, F, out=S)
            for r in range(1, owed[0] + 1):
                if r > 1:
                    k = sum(1 for c in owed if c >= r)
                    S[:k] = S[:k] @ S[:k]
                for k in range(squared):
                    if owed[k] >= r:
                        hand_out(k, r, S[k])
    if not all(np.isfinite(e).all() for e in out):
        raise OverflowError("expm_dense: result overflowed")
    return out


def phi_dense(T, z, p):
    """Action phi_p(zT) e_1 for a small dense matrix T, or for a 1-D
    sequence of z of one field (all real or all complex) the list of those
    columns, each with the bits and the memory order of the call for its z
    alone: one expm_dense call on the stack of their matrices.

    For p >= 1 the column is read off the exponential of the augmented
    matrix

        [[zT,  e_1, 0, ...],
         [ 0,   0,  I_{p-1}],
         [ 0,   0,  0     ]]

    of size (m+p) x (m+p): column m+p of its exponential carries
    phi_p(zT) e_1 in the top block. p = 0 reduces to e^{zT} e_1.
    """
    T = np.asarray(T)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValueError("phi_dense needs a square matrix")
    validate_phi_index(p)
    m = T.shape[0]
    if np.isscalar(z) or np.ndim(z) == 0:
        zT = np.asarray(z * T, dtype=np.result_type(z, T, float))
    elif np.ndim(z) == 1 and len(z) > 0:
        # each zT formed as the call for its z alone forms it
        zTs = [np.asarray(x * T, dtype=np.result_type(x, T, float)) for x in z]
        if len({a.dtype for a in zTs}) != 1:
            raise ValueError("phi_dense: the z of one call must share one field")
        zT = np.stack(zTs)
    else:
        raise ValueError("phi_dense needs a scalar z or a nonempty 1-D sequence of z")
    if p == 0:
        E = expm_dense(zT)
        return E[:, 0] if zT.ndim == 2 else [e[:, 0] for e in E]
    aug = np.zeros((*zT.shape[:-2], m + p, m + p), dtype=zT.dtype)
    aug[..., :m, :m] = zT
    aug[..., 0, m] = 1.0
    for k in range(p - 1):
        aug[..., m + k, m + k + 1] = 1.0
    E = expm_dense(aug)
    return E[:m, m + p - 1] if zT.ndim == 2 else [e[:m, m + p - 1] for e in E]


def phi_scalar(z, p):
    """Scalar phi_p evaluated elementwise on a real or complex array.

    phi_p(z) = sum_k z^k / (k+p)!.  Small arguments (|z| < 1) use the
    Taylor sum directly; larger ones walk the recurrence
    phi_q(z) = (phi_{q-1}(z) - 1/(q-1)!) / z up from phi_0 = exp, where
    the cancellation is harmless.
    """
    validate_phi_index(p)
    z = np.atleast_1d(np.asarray(z, dtype=complex if np.iscomplexobj(z) else float))
    if p == 0:
        return np.exp(z)
    out = np.empty_like(z)
    small = np.abs(z) < 1.0
    if np.any(small):
        zs = z[small]
        acc = np.full_like(zs, 1.0 / math.factorial(29 + p))
        for k in range(28, -1, -1):
            acc = acc * zs + 1.0 / math.factorial(k + p)
        out[small] = acc
    if np.any(~small):
        zl = z[~small]
        val = np.exp(zl)
        for q in range(1, p + 1):
            val = (val - 1.0 / math.factorial(q - 1)) / zl
        out[~small] = val
    return out


def symtrid_eig(diag, offdiag):
    """Eigendecomposition of a real symmetric tridiagonal matrix.

    Returns (lam, Q) with eigenvalues ascending and orthonormal columns,
    so that T = Q diag(lam) Q^T.
    """
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    if diag.ndim != 1 or offdiag.shape != (max(diag.size - 1, 0),):
        raise ValueError("symtrid_eig: need diagonal of length m and off-diagonal of length m-1")
    if diag.size == 1:
        return diag.copy(), np.ones((1, 1))
    try:
        lam, Q = scipy.linalg.eigh_tridiagonal(diag, offdiag)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise RuntimeError("symtrid_eig: tridiagonal eigensolve did not converge") from exc
    return lam, Q
