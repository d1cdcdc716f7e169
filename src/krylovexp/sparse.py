"""Sparse operator wrapper, Matrix Market round trip, logarithmic norm estimate."""

import math

import numpy as np
import scipy.io
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def validate_prefactor(sigma):
    """Coerce sigma to a unit-modulus complex scalar (checked to 1e-12)."""
    s = complex(sigma)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise ValueError("prefactor must be finite")
    if abs(abs(s) - 1.0) > 1e-12:
        raise ValueError(f"prefactor must have modulus 1, got |sigma| = {abs(s)!r}")
    return s


class SparseOperator:
    """Square complex sparse matrix in CSR form with a bit of metadata.

    symmetry is either "hermitian" or "general"; a hermitian claim is
    verified elementwise at construction.  nonexpansive is a
    caller-asserted flag meaning the field of values of sigma*A lies in
    the closed left half-plane for the prefactor this operator is meant
    to be used with; estimators consult it to decide whether a bound is
    proven.  Leave it None when unknown.  log_norm_estimate cannot settle
    it: its value approaches the logarithmic norm from below.
    """

    def __init__(self, matrix, symmetry="general", nonexpansive=None):
        csr = sp.csr_matrix(matrix, dtype=np.complex128)
        if csr.shape[0] != csr.shape[1]:
            raise ValueError("operator must be square")
        if not np.all(np.isfinite(csr.data)):
            raise ValueError("operator entries must be finite")
        if symmetry not in ("hermitian", "general"):
            raise ValueError(f"unknown symmetry flag: {symmetry!r}")
        if symmetry == "hermitian":
            dev = abs(csr - csr.getH())
            if dev.nnz and dev.max() > 1e-12:
                raise ValueError("matrix declared hermitian deviates from A == A* by more than 1e-12")
        self.csr = csr
        self.symmetry = symmetry
        self.nonexpansive = nonexpansive
        self._norm_1 = None
        self._norm_inf = None

    @property
    def n(self):
        return self.csr.shape[0]

    @property
    def nnz(self):
        return self.csr.nnz

    @property
    def norm_1(self):
        if self._norm_1 is None:
            self._norm_1 = float(abs(self.csr).sum(axis=0).max()) if self.nnz else 0.0
        return self._norm_1

    @property
    def norm_inf(self):
        if self._norm_inf is None:
            self._norm_inf = float(abs(self.csr).sum(axis=1).max()) if self.nnz else 0.0
        return self._norm_inf

    def matvec(self, x):
        x = np.asarray(x)
        if x.shape != (self.n,):
            raise ValueError(f"matvec: expected vector of length {self.n}, got shape {x.shape}")
        return self.csr @ x

    def __matmul__(self, x):
        return self.matvec(x)

    def to_matrix_market(self, path):
        sym = "hermitian" if self.symmetry == "hermitian" else "general"
        scipy.io.mmwrite(str(path), self.csr, field="complex", symmetry=sym)

    @classmethod
    def from_matrix_market(cls, path):
        info = scipy.io.mminfo(str(path))
        symmetry = "hermitian" if info[5] == "hermitian" else "general"
        mat = scipy.io.mmread(str(path))
        return cls(mat, symmetry=symmetry)


def log_norm_estimate(op, sigma):
    """Estimate of the largest eigenvalue of the hermitian part of sigma*A
    (the 2-logarithmic norm).

    Above n = 8 this is the Ritz value of a Lanczos eigensolve on the
    hermitian part, which approaches the largest eigenvalue from below:
    it can underestimate the logarithmic norm, so a value <= 0 certifies
    nothing.  If the eigensolve fails to converge +inf is returned.
    """
    s = validate_prefactor(sigma)
    A = op.csr
    AH = A if op.symmetry == "hermitian" else A.getH().tocsr()
    H = (0.5 * s) * A + (0.5 * np.conj(s)) * AH
    H.eliminate_zeros()
    if H.nnz == 0:
        # sigma*A is exactly skew-hermitian; the logarithmic norm is zero
        return 0.0
    if op.n <= 8:
        return float(np.linalg.eigvalsh(H.toarray())[-1])
    try:
        w = spla.eigsh(H, k=1, which="LA", return_eigenvectors=False)
    except (spla.ArpackNoConvergence, spla.ArpackError):
        return math.inf
    return float(w[0])
