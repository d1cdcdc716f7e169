"""Dense small-matrix kernels.

Everything in here operates on the small projected matrices (m x m with
m <= a few hundred), not on the large sparse operator: the matrix
exponential via diagonal Pade with scaling and squaring, phi-function
actions on the first unit vector through an augmented matrix, scalar
phi evaluation, and the symmetric tridiagonal eigensolve used by the
Lanczos fast path.  expm_dense computes in the field of M, phi_dense in
that of zT, phi_scalar in that of z: float64 when real, else complex128.
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
    """(V - U)^{-1} (V + U), the degree-13 diagonal Pade approximant of e^M."""
    n = M.shape[0]
    powers = np.empty((4, n, n), dtype=M.dtype)
    powers[0] = np.eye(n)
    np.matmul(M, M, out=powers[1])
    np.matmul(powers[1], powers[1], out=powers[2])
    np.matmul(powers[1], powers[2], out=powers[3])
    XU, YU, XV, YV = (_PADE13_C @ powers.reshape(4, -1)).reshape(4, n, n)
    M6 = powers[3]
    U = M @ (M6 @ XU + YU)
    V = M6 @ XV + YV
    gesv = get_lapack_funcs("gesv", (V,))
    _, _, E, info = gesv(V - U, V + U)
    if info != 0:
        raise np.linalg.LinAlgError(f"expm_dense: Pade denominator solve failed (info = {info})")
    return E


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
    """Compute e^M for a small dense matrix M.

    Degree-13 diagonal Pade with scaling chosen so the scaled 1-norm stays
    below 5.4, followed by repeated squaring, in the field of M (float64
    or complex128).  M = 0 returns exactly I, which Pade would miss by an
    ulp.  (Lanczos decompositions reach e^{zT} through their tridiagonal
    eigendecomposition instead; see KrylovDecomposition.phi.)
    """
    M = np.asarray(M, dtype=np.result_type(np.asarray(M), float))
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expm_dense needs a square matrix")
    if not np.isfinite(M).all():
        raise ValueError("expm_dense: non-finite input")
    nrm = abs(M).sum(axis=0).max()
    if nrm == 0.0:
        return np.eye(M.shape[0], dtype=M.dtype)
    s = 0
    if nrm > _PADE13_THETA:
        s = int(math.ceil(math.log2(nrm / _PADE13_THETA)))
        M = M / (2.0 ** s)
    E = _pade13(M)
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        for _ in range(s):
            E = E @ E
    if not np.isfinite(E).all():
        raise OverflowError("expm_dense: result overflowed")
    return E


def phi_dense(T, z, p):
    """Action phi_p(zT) e_1 for a small dense matrix T and a scalar z.

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
    if np.ndim(z) != 0:
        raise ValueError("phi_dense needs a scalar z")
    m = T.shape[0]
    zT = np.asarray(z * T, dtype=np.result_type(z, T, float))
    if p == 0:
        return expm_dense(zT)[:, 0]
    aug = np.zeros((m + p, m + p), dtype=zT.dtype)
    aug[:m, :m] = zT
    aug[0, m] = 1.0
    for k in range(p - 1):
        aug[m + k, m + k + 1] = 1.0
    return expm_dense(aug)[:m, m + p - 1]


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
    try:
        lam, Q = scipy.linalg.eigh_tridiagonal(diag, offdiag)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise RuntimeError("symtrid_eig: tridiagonal eigensolve did not converge") from exc
    return lam, Q
