"""Shared fixtures.  The Hubbard operator is the only expensive build
(4900 basis states), so it is constructed once per session."""

import math

import numpy as np
import pytest
from hypothesis import strategies as st

import krylovexp as kx


@pytest.fixture(scope="session")
def hubbard_op():
    return kx.build_hubbard(0.123)


@pytest.fixture(scope="session")
def hubbard_vec():
    return kx.starting_vector(kx.ProblemSpec("hubbard", seed=0))


@pytest.fixture(scope="session")
def heat_pair():
    spec = kx.ProblemSpec("heat", {"n": 200}, seed=0)
    op, sigma = spec.build()
    return op, sigma, kx.starting_vector(spec)


@pytest.fixture(scope="session")
def schrodinger_pair():
    spec = kx.ProblemSpec("schrodinger_free", {"n": 200}, seed=0)
    op, sigma = spec.build()
    return op, sigma, kx.starting_vector(spec)


def as_general(op):
    """The same matrix without the hermitian flag, so builds run Arnoldi."""
    return kx.SparseOperator(op.csr, symmetry="general")


def random_unit(n, seed, complex_=True):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    if complex_:
        v = v + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


# unit prefactors: the four canonical ones and any point of the unit circle
SIGMAS = st.one_of(st.sampled_from([1.0, -1.0, 1j, -1j]),
                   st.floats(0.0, 2.0 * math.pi).map(lambda a: complex(np.exp(1j * a))))
