"""Sparse operator wrapper, Matrix Market round trip, logarithmic norm bound.

The operator keeps its matrix as canonical complex128 CSR (duplicates
summed at construction, on a copy) and, built once beside it, the CSR of
its conjugate transpose; the norms, the Hermitian check, the log-norm
bound and Matrix Market I/O read them, row by row through indptr and
indices.  When the two share one pattern (equal indptr and indices, as
on every structurally symmetric matrix), the Hermitian check and the
log-norm bound combine their data arrays entry by entry; otherwise they
go through scipy's sparse sum, which gives the same values.  When no
entry has a nonzero imaginary part it also keeps the values in float64,
and matvec sends a real vector through them, so a real problem runs in
real arithmetic.  A banded matrix (its stored
diagonals hold at most 1.25 times its entries, as on the stencil
problems) keeps them in DIA form, anything else in CSR on the complex
matrix's own index arrays.  scipy.io is imported by the Matrix Market
methods alone.
"""

import math
import numbers

import numpy as np
import scipy.sparse as sp


def validate_prefactor(sigma):
    """Coerce sigma to a unit-modulus complex scalar (checked to 1e-12)."""
    s = complex(sigma)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise ValueError("prefactor must be finite")
    if abs(abs(s) - 1.0) > 1e-12:
        raise ValueError(f"prefactor must have modulus 1, got |sigma| = {abs(s)!r}")
    return s


def validate_time(t):
    """t, a real number, as a float checked finite and >= 0: a float
    (np.float64 too) itself, any other real number (an int, a numpy real
    scalar, a 0-d integer or float array) as float(t); no bool."""
    if not isinstance(t, float):
        if isinstance(t, bool) or not (
                isinstance(t, numbers.Real)
                or isinstance(t, np.ndarray) and t.shape == () and t.dtype.kind in "iuf"):
            raise ValueError(f"t must be a finite real number >= 0, got {t!r}")
        t = float(t)
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"t must be finite and >= 0, got {t!r}")
    return t


def validate_phi_index(p):
    """p, the index of phi_p (phi_0 = exp), as an int >= 0; no bool."""
    if isinstance(p, bool) or not isinstance(p, (int, np.integer)) or p < 0:
        raise ValueError(f"p must be >= 0 and an integer, got {p!r}")
    return int(p)


def _entry_rows(csr):
    """The row of each stored entry of a CSR matrix, in storage order."""
    return np.repeat(np.arange(csr.shape[0], dtype=csr.indices.dtype), np.diff(csr.indptr))


def _real_storage(csr):
    """The float64 values of a real canonical complex128 CSR matrix, kept
    apart from it, since scipy would upcast a float64-only matrix on every
    complex product.  DIA when its stored diagonals hold at most 1.25 nnz
    values, so a banded matrix skips CSR's index reads; CSR on csr's own
    index arrays otherwise.  The offsets ascend, so each row of a DIA
    product sums in the column order of a canonical CSR one, to the same
    bits."""
    real = sp.csr_matrix((np.ascontiguousarray(csr.data.real), csr.indices, csr.indptr),
                         shape=csr.shape)
    n = csr.shape[0]
    offsets, diag = np.unique(csr.indices - _entry_rows(csr), return_inverse=True)
    if offsets.size * n > 1.25 * csr.nnz:
        return real
    data = np.zeros((offsets.size, n))
    data[diag, csr.indices] = real.data
    return sp.dia_matrix((data, offsets), shape=csr.shape)


class SparseOperator:
    """Square complex sparse matrix in CSR form with a bit of metadata.

    The matrix is summed into canonical form at construction, on a copy
    when it has duplicates, so the caller's matrix is left as it is, and
    nnz counts distinct entries.  symmetry is either "hermitian" or
    "general"; a hermitian claim is verified elementwise (to 1e-12)
    against the conjugate transpose, which is built once and kept.
    log_norm_bound(sigma) bounds the logarithmic norm of sigma*A from
    above; estimators consult it to decide whether a bound is proven for
    that (operator, sigma) pair.
    is_real is True when every entry has a zero imaginary part (by value,
    whatever dtype the matrix came in); matvec then multiplies a real
    vector in float64, through DIA storage when the matrix is banded, and
    returns a float64 vector.
    """

    def __init__(self, matrix, symmetry="general"):
        csr = sp.csr_matrix(matrix, dtype=np.complex128)
        if not csr.has_canonical_format:
            csr = csr.copy()
            csr.sum_duplicates()
        if csr.shape[0] != csr.shape[1]:
            raise ValueError("operator must be square")
        if not np.all(np.isfinite(csr.data)):
            raise ValueError("operator entries must be finite")
        if symmetry not in ("hermitian", "general"):
            raise ValueError(f"unknown symmetry flag: {symmetry!r}")
        adjoint = csr.conj().T.tocsr()
        # one pattern: the entries of A and A^* pair up slot by slot
        aligned = (np.array_equal(csr.indptr, adjoint.indptr)
                   and np.array_equal(csr.indices, adjoint.indices))
        if symmetry == "hermitian":
            dev = np.abs(csr.data - adjoint.data) if aligned else abs(csr - adjoint).data
            if dev.size and dev.max() > 1e-12:
                raise ValueError("matrix declared hermitian deviates from A == A* by more than 1e-12")
        self.csr = csr
        self._adjoint = adjoint
        self._aligned = aligned
        self._real = None if np.any(csr.data.imag) else _real_storage(csr)
        self.symmetry = symmetry
        self._norm_1 = None
        self._norm_inf = None
        self._log_norm_bounds = {}

    @property
    def n(self):
        return self.csr.shape[0]

    @property
    def is_real(self):
        return self._real is not None

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

    def log_norm_bound(self, sigma):
        """Gershgorin upper bound on the 2-logarithmic norm of sigma*A.

        The logarithmic norm is the largest eigenvalue of the hermitian
        part H = (sigma A + conj(sigma) A^*)/2, and every eigenvalue of H
        lies in a Gershgorin disc, so max_i (Re H_ii + sum_{j != i} |H_ij|)
        bounds it from above.  A value <= 0 certifies that e^{t sigma A}
        never grows a vector for t >= 0.  H is formed against the kept
        conjugate transpose, its rows read through indptr, and the value
        cached per sigma.  On one pattern H's data is the entrywise sum of
        the two data arrays, with no sparse sum; its explicit zeros, which
        the sum would prune, add 0 to a radius and leave a centre at 0,
        so both routes give the same bits.
        """
        s = validate_prefactor(sigma)
        if s not in self._log_norm_bounds:
            if self._aligned:
                # the products scipy's scalar multiplication forms, summed slot by slot
                H = self.csr
                data = H.data * (0.5 * s) + self._adjoint.data * (0.5 * np.conj(s))
            else:
                H = (0.5 * s) * self.csr + (0.5 * np.conj(s)) * self._adjoint
                data = H.data
            if not data.any():  # H = 0, as where sigma*A is skew-hermitian
                bound = 0.0
            else:
                rows = _entry_rows(H)
                off = H.indices != rows
                radius = np.bincount(rows[off], weights=np.abs(data[off]),
                                     minlength=self.n)
                centre = np.zeros(self.n)
                centre[rows[~off]] = data[~off].real
                bound = float(np.max(centre + radius))
            self._log_norm_bounds[s] = bound
        return self._log_norm_bounds[s]

    def matvec(self, x):
        x = np.asarray(x)
        if x.shape != (self.n,):
            raise ValueError(f"matvec: expected vector of length {self.n}, got shape {x.shape}")
        if self._real is not None and not np.iscomplexobj(x):
            return self._real @ x
        return self.csr @ x

    def to_matrix_market(self, path):
        import scipy.io

        sym = "hermitian" if self.symmetry == "hermitian" else "general"
        scipy.io.mmwrite(str(path), self.csr, field="complex", symmetry=sym)

    @classmethod
    def from_matrix_market(cls, path):
        import scipy.io

        info = scipy.io.mminfo(str(path))
        symmetry = "hermitian" if info[5] == "hermitian" else "general"
        mat = scipy.io.mmread(str(path))
        return cls(mat, symmetry=symmetry)
