"""Operator builders, checked against hand constructions and closed-form
eigenvalues."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

import krylovexp as kx
from krylovexp import ProblemSpec, build_convection_diffusion, starting_vector
from krylovexp.problems import PROBLEM_KINDS


def test_spec_merges_defaults_and_rejects_unknown():
    spec = ProblemSpec("heat")
    assert spec.params == {"n": 200}
    spec = ProblemSpec("hubbard", {"omega": 1.0})
    assert spec.params["U"] == 5.0
    with pytest.raises(ValueError):
        ProblemSpec("airy")
    with pytest.raises(ValueError):
        ProblemSpec("heat", {"m": 10})


def test_schrodinger_matrix_entries():
    op, sigma = ProblemSpec("schrodinger_free", {"n": 5}).build()
    assert sigma == -1j
    e1 = np.zeros(5)
    e1[0] = 1.0
    assert np.array_equal(op.matvec(e1), np.array([0.5, -0.25, 0, 0, 0], dtype=complex))
    assert op.symmetry == "hermitian" and op.log_norm_bound(sigma) == 0.0


def test_schrodinger_eigenvalues_closed_form():
    """sin^2(k pi / (2(n+1))) for the quarter-scaled Laplacian."""
    n = 3
    op, _ = ProblemSpec("schrodinger_free", {"n": n}).build()
    lam = np.linalg.eigvalsh(op.csr.toarray())
    expected = np.sort(np.sin(np.arange(1, n + 1) * np.pi / (2 * (n + 1))) ** 2)
    assert np.allclose(lam, expected, rtol=0, atol=1e-14)


def test_schrodinger_norm_approaches_one():
    op, _ = ProblemSpec("schrodinger_free", {"n": 1000}).build()
    top = np.sin(1000 * np.pi / (2 * 1001)) ** 2
    assert top < 1.0
    assert op.norm_inf <= 1.0  # row sums: 0.25 + 0.5 + 0.25


def test_heat_shares_matrix_with_schrodinger():
    a, sa = ProblemSpec("heat", {"n": 50}).build()
    b, sb = ProblemSpec("schrodinger_free", {"n": 50}).build()
    assert sa == -1.0 and sb == -1j
    assert (a.csr != b.csr).nnz == 0


def hubbard_column_by_occupation_lists(x, omega, U):
    """Independent reconstruction of one Hamiltonian column: explicit
    occupation lists, no bit manipulation beyond the state encoding."""
    up = [j for j in range(8) if (x >> j) & 1]
    dn = [j for j in range(8) if (x >> (8 + j)) & 1]
    pot = [-1.75, -2.0, -2.0, -2.0, -2.0, -2.0, -2.0, -1.75]
    col = {}
    diag = sum(pot[j] for j in up) + sum(pot[j] for j in dn)
    diag += U * len(set(up) & set(dn))
    if diag != 0.0:
        col[x] = complex(diag)
    down_amp = complex(-math.cos(omega), math.sin(omega))
    for occ, base in ((up, 0), (dn, 8)):
        for j in occ:
            for k, amp in ((j - 1, down_amp), (j + 1, down_amp.conjugate())):
                if 0 <= k < 8 and k not in occ:
                    y = x ^ (1 << (base + j)) ^ (1 << (base + k))
                    col[y] = col.get(y, 0.0) + amp
    return col


def test_hubbard_dimensions(hubbard_op):
    assert hubbard_op.n == math.comb(8, 4) ** 2 == 4900
    assert hubbard_op.nnz == 43980
    assert hubbard_op.symmetry == "hermitian"
    assert hubbard_op.log_norm_bound(-1j) == 0.0


def test_hubbard_columns_match_independent_reconstruction(hubbard_op):
    """Every one of the 4900 columns, rebuilt from occupation lists."""
    from krylovexp.problems import _hubbard_basis
    states = _hubbard_basis()
    assert states == sorted(states)
    index = {s: i for i, s in enumerate(states)}
    rows, cols, vals = [], [], []
    for a, x in enumerate(states):
        for y, val in hubbard_column_by_occupation_lists(x, 0.123, 5.0).items():
            rows.append(index[y])
            cols.append(a)
            vals.append(val)
    expected = sp.csr_matrix((vals, (rows, cols)), shape=(len(states),) * 2)
    expected.sort_indices()
    H = hubbard_op.csr.sorted_indices()
    assert np.array_equal(H.indptr, expected.indptr)
    assert np.array_equal(H.indices, expected.indices)
    assert np.max(np.abs(H.data - expected.data)) < 1e-14


def test_hubbard_explicit_state():
    """Sites 0..3 doubly occupied: potential 2*(-7.75) plus 4U."""
    op = kx.build_hubbard(0.123, U=5.0)
    from krylovexp.problems import _hubbard_basis
    states = _hubbard_basis()
    x = 0b00001111 | (0b00001111 << 8)
    a = states.index(x)
    assert op.csr[a, a] == complex(2 * (-1.75 - 2.0 - 2.0 - 2.0) + 4 * 5.0)


def test_hubbard_omega_only_rotates_hopping_phase(hubbard_op):
    """|entries| are omega-independent; the diagonal is identical."""
    other = kx.build_hubbard(1.0)
    assert other.nnz == hubbard_op.nnz
    d1 = hubbard_op.csr.diagonal()
    d2 = other.csr.diagonal()
    assert np.array_equal(d1, d2)
    dev = abs(abs(hubbard_op.csr) - abs(other.csr))
    assert dev.nnz == 0 or dev.max() < 1e-14


def test_convection_diffusion_kronecker_assembly():
    """The sparse assembly against a dense kron built independently."""
    n, mu1, mu2 = 4, 0.9, 1.1
    op, sigma = build_convection_diffusion(n, mu1, mu2)
    assert sigma == 1.0
    scale = (n + 1.0) ** 2

    def trid_dense(lo, hi):
        M = np.zeros((n, n))
        for i in range(n):
            M[i, i] = -2.0 * scale
            if i + 1 < n:
                M[i + 1, i] = lo * scale
                M[i, i + 1] = hi * scale
        return M

    B = trid_dense(1.0, 1.0)
    C1 = trid_dense(1.0 + mu1, 1.0 - mu1)
    C2 = trid_dense(1.0 + mu2, 1.0 - mu2)
    eye = np.eye(n)
    expected = (np.kron(np.kron(B, eye), eye)
                + np.kron(np.kron(eye, C1), eye)
                + np.kron(np.kron(eye, eye), C2))
    assert np.allclose(op.csr.toarray(), expected, rtol=0, atol=1e-12 * scale)


def test_convection_diffusion_spectrum_is_sum_of_line_spectra():
    """Kronecker-sum eigenvalues are the triple sums of the tridiagonal
    Toeplitz line spectra d + 2 sqrt(lo*hi) cos(k pi/(n+1)); checked for
    both parameter settings against a dense eigensolve."""
    n = 6
    for mu1, mu2 in ((0.9, 1.1), (0.0, 0.0)):
        op, _ = build_convection_diffusion(n, mu1, mu2)
        scale = (n + 1.0) ** 2
        ks = np.arange(1, n + 1)
        cosk = np.cos(ks * np.pi / (n + 1))

        def line(mu):
            rad = np.emath.sqrt((1.0 + mu) * (1.0 - mu))
            return -2.0 * scale + 2.0 * scale * rad * cosk

        sums = (line(0.0)[:, None, None] + line(mu1)[None, :, None]
                + line(mu2)[None, None, :]).ravel()
        got = np.linalg.eigvals(op.csr.toarray())
        key = lambda z: (np.round(z.real, 6), np.round(z.imag, 6))
        sums = sorted(sums, key=key)
        got = sorted(got, key=key)
        assert np.allclose(np.array(sums), np.array(got),
                           rtol=0, atol=1e-8 * scale)
        # every eigenvalue strictly in the left half-plane
        assert max(z.real for z in got) < 0.0


def test_convection_diffusion_symmetry_flag():
    sym, _ = build_convection_diffusion(4, 0.0, 0.0)
    assert sym.symmetry == "hermitian"
    gen, _ = build_convection_diffusion(4, 0.5, 0.0)
    assert gen.symmetry == "general"


def test_convection_diffusion_nonexpansive_certificate():
    """log_norm_bound certifies the claimed contraction property."""
    for mu1, mu2 in ((0.9, 1.1), (0.0, 0.0)):
        op, sigma = build_convection_diffusion(5, mu1, mu2)
        assert op.log_norm_bound(sigma) <= 0.0


@pytest.mark.parametrize("kind", PROBLEM_KINDS)
def test_starting_vector_length_matches_build(kind):
    """starting_vector sizes its vector without building the operator; the
    size must be the built operator's."""
    spec = ProblemSpec(kind)
    assert len(starting_vector(spec)) == spec.build()[0].n


def test_starting_vector_conventions():
    v = starting_vector(ProblemSpec("convection_diffusion", {"n": 3}))
    assert np.array_equal(v, np.full(27, 1.0 + 0.0j) / np.sqrt(27))
    a = starting_vector(ProblemSpec("heat", {"n": 40}, seed=1))
    b = starting_vector(ProblemSpec("heat", {"n": 40}, seed=1))
    c = starting_vector(ProblemSpec("heat", {"n": 40}, seed=2))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert abs(np.linalg.norm(a) - 1.0) < 1e-13
    assert np.iscomplexobj(a)
