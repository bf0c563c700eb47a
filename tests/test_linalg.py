"""The elimination kernel against an independent oracle: sympy DomainMatrix
over QQ_I(v), on small random matrices over Q(i)(v)."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import QQ_I
from sympy.polys.matrices import DomainMatrix

import qspherical.linalg as la
from qspherical.scalars import Field

F = Field(2)
V = sympy.Symbol("v")
K = QQ_I.frac_field(V)


def _laurent(coeffs, low):
    """sum of coeffs[k] v^(low + k), coefficients Gaussian rationals."""
    out = F.zero
    for k, (re, im) in enumerate(coeffs):
        out = out + (F.rational(re) + F.rational(im) * F.i) * F.v_power(low + k)
    return out


# Laurent polynomials with Fraction Gaussian coefficients, and one quotient
# with a non-monomial denominator, so rows need both polynomial and rational
# denominators cleared.
POOL = [
    F.zero, F.zero, F.one, -F.one, F.v_power(1), F.v_power(-2),
    _laurent([(Fraction(1, 2), 0), (0, 1)], 0),
    _laurent([(1, 0), (0, 0), (Fraction(-1, 3), 0)], -1),
    _laurent([(0, Fraction(2, 3))], 1),
    F.one / (F.one - F.v_power(1)),
]


def _sym(x):
    def coeff(c):
        # an int, or an (re, im) int pair when the element is not real
        return c[0] + c[1] * sympy.I if type(c) is tuple else sympy.Integer(c)

    def poly(p):
        return sum(coeff(c) * V ** k for k, c in enumerate(p))
    return K.from_sympy(poly(x.num) / poly(x.den))


def _dm(a, ncols):
    return DomainMatrix([[_sym(x) for x in row] for row in a], (len(a), ncols), K)


def _same(ours, theirs):
    # QQ_I(v) fractions are not stored canonically, so compare differences
    return all(not _sym(x) - y for x, y in zip(ours, theirs))


def matrices(max_rows=4, max_cols=5):
    """Random matrices over the pool, with rows sometimes made dependent."""
    @st.composite
    def build(draw):
        nrows = draw(st.integers(1, max_rows))
        ncols = draw(st.integers(1, max_cols))
        pick = st.integers(0, len(POOL) - 1)
        rows = [[POOL[draw(pick)] for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 1 and draw(st.booleans()):
            # a combination of two rows, so singular systems are common
            s, t = POOL[draw(pick)], POOL[draw(pick)]
            rows[-1] = [s * x + t * y for x, y in zip(rows[0], rows[1 % (nrows - 1)])]
        return rows, ncols
    return build()


def _rref_kernel(a, ncols):
    """Kernel basis read off sympy's reduced row echelon form: for each free
    column the vector with one there, zero at other free columns."""
    rref, pivots = _dm(a, ncols).rref()
    rows = rref.to_list()
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [K.zero] * ncols
        vec[free] = K.one
        for k, pc in enumerate(pivots):
            vec[pc] = -rows[k][free]
        basis.append(vec)
    return basis


# the small shapes, and tall ones: one-column and full-rank tall systems
# end with a pivot in the last column, below which nothing is eliminated
SHAPES = pytest.mark.parametrize("shapes", [matrices(), matrices(max_rows=8, max_cols=3)],
                                 ids=["small", "tall"])


@SHAPES
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_nullspace_matches_rref_kernel(shapes, data):
    a, ncols = data.draw(shapes)
    ours = la.nullspace(a, ncols, F)
    theirs = _rref_kernel(a, ncols)
    assert len(ours) == len(theirs) == ncols - _dm(a, ncols).rank()
    for x, y in zip(ours, theirs):
        assert _same(x, y)


@SHAPES
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_column_relations_match_rref_pivots(shapes, data):
    a, ncols = data.draw(shapes)
    ours = la.column_relations(a, ncols, F)
    _, pivots = _dm(a, ncols).rref()
    assert sorted(ours) == [j for j in range(ncols) if j not in pivots]
    for j, vec in ours.items():
        assert vec[j] == F.one
        assert all(not x for x in vec[j + 1:])
        for row in a:
            assert not sum((_sym(x) * _sym(y) for x, y in zip(row, vec)), K.zero)


@settings(max_examples=40, deadline=None)
@given(matrices(max_cols=4), st.data())
def test_solve_matches_sympy(case, data):
    a, ncols = case
    pick = st.integers(0, len(POOL) - 1)
    if data.draw(st.booleans()):
        # consistent by construction
        x0 = [POOL[data.draw(pick)] for _ in range(ncols)]
        rhs = la.mat_vec(a, x0)
    else:
        rhs = [POOL[data.draw(pick)] for _ in a]
    dm = _dm(a, ncols)
    aug = _dm([row + [b] for row, b in zip(a, rhs)], ncols + 1)
    if aug.rank() > dm.rank():
        assert la.solve(a, rhs) is None
    elif dm.rank() < ncols:
        with pytest.raises(ValueError):
            la.solve(a, rhs)
    else:
        x = la.solve(a, rhs)
        # the unique solution: the last column of the reduced [A | b]
        rref, _ = aug.rref()
        rows = rref.to_list()
        assert _same(x, [rows[k][ncols] for k in range(ncols)])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(0, len(POOL) - 1), min_size=n,
                                max_size=n), min_size=n, max_size=n)))
def test_invert_matches_sympy(idx):
    n = len(idx)
    a = [[POOL[k] for k in row] for row in idx]
    dm = _dm(a, n)
    if dm.rank() < n:
        with pytest.raises(ValueError):
            la.invert(a)
        return
    inv = dm.inv().to_list()
    ours = la.invert(a)
    for r in range(n):
        assert _same(ours[r], inv[r])


def test_singular_inconsistent_and_underdetermined_cases():
    one, q = F.one, F.q
    # singular: second row is q times the first
    with pytest.raises(ValueError):
        la.invert([[one, q], [q, q * q]])
    # inconsistent: x + q y = 1 and q x + q^2 y = 0
    assert la.solve([[one, q], [q, q * q]], [one, F.zero]) is None
    # underdetermined but consistent
    with pytest.raises(ValueError):
        la.solve([[one, q], [q, q * q]], [one, q])
    # overdetermined and consistent: the unique solution
    assert la.solve([[one], [q], [q * q]], [q, q * q, q ** 3]) == [q]


_SQUARE = [[F.one, F.q], [F.q * F.q, F.one]]
_TALL = [[F.one, F.q], [F.q, F.one], [F.q * F.q, F.q], [F.zero, F.v]]
_X = [F.one - F.q, F.v]


@pytest.mark.parametrize("op, a, expected", [
    ("invert", _SQUARE, None),
    ("solve", _TALL, _X),
    ("nullspace", _SQUARE, []),
    ("nullspace", _TALL, []),
    ("column_relations", _SQUARE, {}),
    ("column_relations", _TALL, {}),
], ids=["invert-square", "solve-tall", "nullspace-square", "nullspace-tall",
        "column_relations-square", "column_relations-tall"])
def test_exact_kernel_runs_no_modular_screen(monkeypatch, op, a, expected):
    # elimination alone decides every exact question, also on full-rank
    # square and tall systems, where a screen could only certify the empty
    # answer that elimination finds anyway
    def fail(*args):
        raise AssertionError("modular screen in the exact kernel")

    monkeypatch.setattr(la, "modular_rank", fail)
    monkeypatch.setattr(la, "_at_screen", fail)
    if op == "invert":
        assert la.mat_eq(la.mat_mul(a, la.invert(a)), la.identity(2, F))
    elif op == "solve":
        assert la.solve(a, la.mat_vec(a, expected)) == expected
    else:
        assert getattr(la, op)(a, 2, F) == expected


def _at_screen_point(poly):
    """A Z or Z[i] polynomial at the screen point mod p, i -> the screen root."""
    p = la._SCREEN_PRIME
    t = 987654323 % p
    c = [x[0] + x[1] * la._SCREEN_ROOT if type(x) is tuple else x for x in poly]
    return sum(x * pow(t, k, p) for k, x in enumerate(c)) % p


def integer_rows(max_rows=5, max_cols=4):
    """Rows over Z[v] or Z[i][v] as the kernel receives them: random Laurent
    polynomials with small coefficients, cleared by `_integer_rows`, and
    sometimes a last row planted as a combination of two others."""
    @st.composite
    def build(draw):
        gaussian = draw(st.booleans())
        coeff = st.integers(-3, 3)

        def entry():
            low = draw(st.integers(-1, 1))
            out = F.zero
            for k in range(draw(st.integers(0, 3))):
                c = F.rational(draw(coeff))
                if gaussian:
                    c = c + F.rational(draw(coeff)) * F.i
                out = out + c * F.v_power(low + k)
            return out

        nrows = draw(st.integers(1, max_rows))
        ncols = draw(st.integers(1, max_cols))
        rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 1 and draw(st.booleans()):
            s, t = entry(), entry()
            rows[-1] = [s * x + t * y
                        for x, y in zip(rows[0], rows[1 % (nrows - 1)])]
        return rows, ncols
    return build()


@settings(max_examples=80, deadline=None)
@given(integer_rows())
def test_modular_rank_only_certifies(case):
    # evaluation is a ring map, so the screen never finds more pivots than
    # the kernel; the kernel's updates are invertible at the screen point
    # when no pivot vanishes there (the contents it strips are far below p),
    # and then both find the same pivots
    a, ncols = case
    rows, ring = la._integer_rows(a)
    screen = la.modular_rank([[la._at_screen(p) for p in row] for row in rows], ncols)
    echelon = [list(row) for row in rows]
    pivots = la._echelonize(echelon, ncols, ring)
    assert screen <= len(pivots)
    if all(_at_screen_point(echelon[k][col]) for k, col in enumerate(pivots)):
        assert screen == len(pivots)


def test_modular_rank_drops_at_a_root():
    # v - t vanishes at the screen point: the screen sees rank 1 of 2 and
    # decides nothing, and the kernel finds full rank
    root = F.v_power(1) - F.rational(987654323 % la._SCREEN_PRIME)
    a = [[root, F.zero], [F.zero, F.one]]
    rows, ring = la._integer_rows(a)
    assert la.modular_rank([[la._at_screen(p) for p in row] for row in rows], 2) == 1
    assert la._echelonize([list(row) for row in rows], 2, ring) == [0, 1]
    assert la.column_relations(a, 2, F) == {}
