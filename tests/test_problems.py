"""Operator builders, checked against hand constructions and closed-form
eigenvalues."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def packed_hubbard_basis():
    """The 4900 states as 16-bit integers (bits 0..7 up, 8..15 down),
    down byte major, each byte ascending through its 4-of-8 patterns."""
    singles = [x for x in range(256) if bin(x).count("1") == 4]
    return np.array([(d << 8) | u for d in singles for u in singles], dtype=np.int64)


def test_hubbard_dimensions(hubbard_op):
    assert hubbard_op.n == math.comb(8, 4) ** 2 == 4900
    assert hubbard_op.nnz == 43980
    assert hubbard_op.symmetry == "hermitian"
    assert hubbard_op.log_norm_bound(-1j) == 0.0


def test_hubbard_columns_match_independent_reconstruction(hubbard_op):
    """Every one of the 4900 columns, rebuilt from occupation lists."""
    states = packed_hubbard_basis().tolist()
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
    states = packed_hubbard_basis().tolist()
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
    op, sigma = ProblemSpec("convection_diffusion", {"n": n, "mu1": mu1, "mu2": mu2}).build()
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
        op = build_convection_diffusion(n, mu1, mu2)
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
    sym = build_convection_diffusion(4, 0.0, 0.0)
    assert sym.symmetry == "hermitian"
    gen = build_convection_diffusion(4, 0.5, 0.0)
    assert gen.symmetry == "general"


def test_convection_diffusion_nonexpansive_certificate():
    """log_norm_bound certifies the claimed contraction property."""
    for mu1, mu2 in ((0.9, 1.1), (0.0, 0.0)):
        op, sigma = ProblemSpec("convection_diffusion", {"n": 5, "mu1": mu1, "mu2": mu2}).build()
        assert op.log_norm_bound(sigma) <= 0.0


def same_csr_bits(op, expected):
    """op.csr is canonical and stores expected's index arrays and values
    bit for bit (expected widened to complex128 first)."""
    got = op.csr
    expected = expected.astype(np.complex128)
    assert got.has_canonical_format
    assert np.array_equal(got.indptr, expected.indptr)
    assert np.array_equal(got.indices, expected.indices)
    assert np.array_equal(got.data.view(np.uint64), expected.data.view(np.uint64))


def kron_chain_convection_diffusion(n, mu1, mu2):
    """The convection-diffusion matrix as the Kronecker sum of sp.diags
    tridiagonals, every product and sum taken in CSR."""
    h = 1.0 / (n + 1)
    scale = 1.0 / (h * h)

    def trid(lo, hi):
        return sp.diags([np.full(n - 1, lo * scale), np.full(n, -2.0 * scale),
                         np.full(n - 1, hi * scale)], [-1, 0, 1], format="csr")

    def kron(a, b):
        return sp.kron(a, b, format="csr")

    eye = sp.identity(n, format="csr")
    return (kron(kron(trid(1.0, 1.0), eye), eye)
            + kron(kron(eye, trid(1.0 + mu1, 1.0 - mu1)), eye)
            + kron(kron(eye, eye), trid(1.0 + mu2, 1.0 - mu2))).tocsr()


MUS = st.one_of(st.sampled_from([0.0, 1.0, -1.0]), st.floats(-2.0, 2.0))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 9), mu1=MUS, mu2=MUS)
@example(n=4, mu1=0.0, mu2=0.0)
@example(n=2, mu1=1.0, mu2=-1.0)
def test_convection_diffusion_csr_is_the_kron_chain(n, mu1, mu2):
    """The stencil written straight into CSR stores the bits of the
    sp.kron chain, zero couplings (mu = +/-1) left out, and is flagged
    hermitian (so run by Lanczos) exactly when mu1 = mu2 = 0."""
    op = build_convection_diffusion(n, mu1, mu2)
    same_csr_bits(op, kron_chain_convection_diffusion(n, mu1, mu2))
    assert op.symmetry == ("hermitian" if mu1 == mu2 == 0.0 else "general")


def coo_route_hubbard(omega, U):
    """The Hubbard matrix assembled as COO triplets (target state found by
    searchsorted) and converted to CSR with zeros eliminated."""
    states = packed_hubbard_basis()
    cols = np.arange(len(states))
    hop = complex(-np.cos(omega) + 1j * np.sin(omega))
    site_pot = np.full(8, -2.0)
    site_pot[0] = site_pot[-1] = -1.75
    occ = (states[:, None] >> np.arange(16)) & 1
    n_up, n_dn = occ[:, :8], occ[:, 8:]
    diag = np.zeros(len(states))
    for j in range(8):
        diag += site_pot[j] * (n_up[:, j] + n_dn[:, j])
        diag += np.where(n_up[:, j] & n_dn[:, j], U, 0.0)
    rows, cs, vals = [cols], [cols], [diag.astype(complex)]
    for p in [base + j for base in (0, 8) for j in range(7)]:
        allowed = occ[:, p] != occ[:, p + 1]
        rows.append(np.searchsorted(states, states[allowed] ^ (3 << p)))
        cs.append(cols[allowed])
        vals.append(np.where(occ[allowed, p + 1] == 1, hop, np.conj(hop)))
    mat = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cs))),
                        shape=(len(states),) * 2).tocsr()
    mat.eliminate_zeros()
    return mat


@settings(max_examples=25, deadline=None)
@given(omega=st.one_of(st.just(0.0), st.floats(0.0, 2.0 * math.pi)),
       U=st.one_of(st.sampled_from([0.0, 7.75, -3.5]), st.floats(-10.0, 10.0)))
@example(omega=0.0, U=0.0)
def test_hubbard_csr_is_the_coo_route(omega, U):
    """The Kronecker triplets store the bits of the COO assembly;
    U = 7.75 zeroes the diagonal of some states, which both leave out."""
    same_csr_bits(kx.build_hubbard(omega, U), coo_route_hubbard(omega, U))


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
