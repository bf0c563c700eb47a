import itertools
import warnings

import pytest

import qspherical.linalg as la
from qspherical import Field, SatakeDatum, build_simple, root_datum
from qspherical.qsp import Parameter, distinguished_parameter
from qspherical.scalars import parse_scalar

warnings.filterwarnings("ignore", message="skipping label")


@pytest.fixture(scope="session")
def field():
    return Field(2)


@pytest.fixture(scope="session")
def ai1(field):
    """Split rank one: sl2 with no black nodes."""
    satake = SatakeDatum(root_datum("A", 1), (), (0,))
    return satake


@pytest.fixture(scope="session")
def aiii_sl3(field):
    """Quasi-split rank one on sl3: tau swaps the two nodes."""
    return SatakeDatum(root_datum("A", 2), (), (1, 0))


@pytest.fixture(scope="session")
def aiii3_sl4(field):
    """Rank two on sl4: tau swaps the outer nodes."""
    return SatakeDatum(root_datum("A", 3), (), (2, 1, 0))


@pytest.fixture(scope="session")
def aii3(field):
    """sl4 with black outer nodes."""
    return SatakeDatum(root_datum("A", 3), (0, 2), (0, 1, 2))


@pytest.fixture(scope="session")
def modules(field):
    """Shared exact modules, built once."""
    cache = {}

    def get(family, rank, lam):
        key = (family, rank, tuple(lam))
        if key not in cache:
            cache[key] = build_simple(root_datum(family, rank), lam, field)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def params(field, ai1, aiii_sl3, aiii3_sl4, aii3):
    half = parse_scalar("q^(1/2)", field)
    return {
        "ai1_dist": distinguished_parameter(ai1, field),
        "ai1_uniform": Parameter(ai1, {0: -field.q.inverse()}),
        "aiii_sl3_uniform": Parameter(aiii_sl3, {0: half, 1: half}),
        "aiii3_sl4": Parameter(aiii3_sl4,
                               {0: field.one, 1: field.q.inverse(), 2: field.one}),
        "aii3": Parameter(aii3, {1: field.q}),
    }


def _dense_rho(m, mat):
    """The reference adjoint G^-1 X^T G, with G the dense Gram matrix of the
    whole module."""
    g = la.zeros(m.dim, m.dim, m.field)
    for mu, idxs in m.blocks.items():
        for (a, ia), (b, ib) in itertools.product(enumerate(idxs), repeat=2):
            g[ia][ib] = m.grams[mu][a][b]
    return la.mat_mul(la.invert(g), la.mat_mul(la.transpose(mat), g))


@pytest.fixture(scope="session")
def dense_rho():
    """The dense oracle for the antiautomorphism rho of the contravariant
    form: dense_rho(module, X) satisfies (v, X w) = (rho(X) v, w)."""
    return _dense_rho
