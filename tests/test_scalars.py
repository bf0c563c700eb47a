import json
import math
import pathlib
import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import QQ_I, ZZ_I

import qspherical.scalars as scalars
from qspherical.scalars import Field, FieldElem, UnrepresentableScalar, parse_scalar

F = Field(2)


@pytest.fixture
def fresh_memo():
    """An empty memo of the operations that need a gcd, so that a test that
    counts gcd or kernel calls sees the same calls in any test order."""
    scalars._memo.cache_clear()


V = sympy.Symbol("v")
QIV = QQ_I.frac_field(V)


def _coeff(c):
    """A stored coefficient: an int, or an (re, im) int pair."""
    return c[0] + c[1] * sympy.I if type(c) is tuple else sympy.Integer(c)


def _expr(x: FieldElem):
    def poly(p):
        return sum(_coeff(c) * V ** k for k, c in enumerate(p))

    return poly(x.num) / poly(x.den)


def sympy_of(x: FieldElem):
    """Independent reading of an element as a sympy expression in v."""
    return sympy.cancel(_expr(x))


def frac_of(x: FieldElem, at=V):
    """x as an element of sympy's QQ_I(v), with v replaced by at."""
    return QIV.from_sympy(_expr(x).subs(V, at))


def test_bar_of_q_is_inverse():
    assert F.q.bar() == F.q.inverse()
    sym = F.q + F.q.inverse()
    assert sym.bar() == sym


def test_bar_substitution_oracle():
    # oracle first: substitute v -> 1/v in (1+q)/(1-q) with sympy, then compare
    v = sympy.Symbol("v")
    expr = (1 + v ** 2) / (1 - v ** 2)
    expected = sympy.cancel(expr.subs(v, 1 / v))
    x = (F.one + F.q) / (F.one - F.q)
    assert sympy.simplify(sympy_of(x.bar()) - expected) == 0


def test_power_squares_and_multiplies(monkeypatch):
    x = F.q + F.rational(2) * F.i
    for n in range(-9, 10):
        want = F.one
        for _ in range(abs(n)):
            want = want * (x if n > 0 else x.inverse())
        assert x ** n == want, n
    calls = []
    mul = FieldElem.__mul__
    monkeypatch.setattr(FieldElem, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    big = F.q ** 1000
    assert len(calls) <= 20
    assert big == F.v_power(2000)


def test_qint_values():
    assert F.qint(0, 1).is_zero()
    assert F.qint(2, 1) == F.q + F.q.inverse()
    # direct expansion oracle for [3] in q_i = q^2
    v = sympy.Symbol("v")
    qi = v ** 4
    oracle = sympy.expand((qi ** 3 - qi ** -3) / (qi - qi ** -1))
    assert sympy.simplify(sympy_of(F.qint(3, 2)) - oracle) == 0
    assert F.qint(3, 2) == F.q ** 4 + F.one + F.q ** (-4)
    assert F.qint(-2, 1) == -F.qint(2, 1)


def test_qfact_and_binom():
    assert F.qfact(3, 1) == F.qint(1, 1) * F.qint(2, 1) * F.qint(3, 1)
    assert F.qbinom(4, 2, 1) == F.qfact(4, 1) / (F.qfact(2, 1) * F.qfact(2, 1))


def test_monomial_sqrt_examples():
    assert (F.q ** 2).monomial_sqrt() == F.q
    root = (-F.q.inverse()).monomial_sqrt()
    assert root == F.i * F.q_power(Fraction(-1, 2))
    assert root * root == -F.q.inverse()
    assert (F.one + F.q).monomial_sqrt() is None
    assert F.v.monomial_sqrt() is None  # odd power of the root


def test_field_sqrt_nonmonomial():
    disc = F.rational(4) * F.q * (-F.q ** (-2)) / ((F.q - F.q.inverse()) ** 2)
    root = disc.field_sqrt()
    assert root is not None and root * root == disc
    assert ((F.one + F.q) ** 2).field_sqrt() is not None
    assert (F.one + F.q).field_sqrt() is None


def test_root_order_limits():
    f1 = Field(1)
    with pytest.raises(UnrepresentableScalar):
        f1.q_power(Fraction(1, 2))
    f4 = Field(4)
    assert f4.q_power(Fraction(1, 4)) == f4.v


def test_parse_round_trip():
    samples = ["-q^-2", "q^(1/2)", "sqrt(-1*q^3)", "1/2*i*q", "(1+q)/(1-q)", "v^3",
               "v^2 / (v + 1)", "q^2/q"]
    for text in samples:
        x = parse_scalar(text, F)
        assert parse_scalar(x.serialize(), F) == x


def test_parse_division_after_a_power():
    """A '/' ends an exponent unless digits follow it."""
    assert parse_scalar("v^2 / (v + 1)", F) == F.v ** 2 / (F.v + F.one)
    assert parse_scalar("q^2/q", F) == F.q
    assert parse_scalar("q^2/4", F) == F.v
    assert parse_scalar("q^2 / 4", F) == F.v
    assert parse_scalar("q^-3/2", F) == F.v_power(-3)


# matrix entries per module report; a report named rootN_... was written at
# root order N, one without that prefix at root order 2
GOLDEN_MODULE_SCALARS = {
    "module_ai1.json": 32,
    "module_aii3_sl4.json": 2400,
    "module_aiii3_sl4.json": 216,
    "module_aiii3_sl4_weight101.json": 1350,
    "module_aiii_sl3.json": 900,
    "module_bii_so5_weight11.json": 1024,
    "root1_module_bii_so5_weight11.json": 1024,
}


def _golden_module_scalars(path):
    for check in json.loads(path.read_text())["checks"]:
        for module in check["modules"]:
            for key in ("lowering", "raising"):
                for mat in module[key].values():
                    yield from (x for row in mat for x in row)


def test_golden_module_scalars_round_trip():
    """Every matrix entry of the module reports reads back to the same text,
    parsed at the root order of its report."""
    golden = pathlib.Path(__file__).parent / "golden"
    counts = {}
    paths = sorted(golden.glob("module_*.json")) + sorted(golden.glob("root*_module_*.json"))
    for path in paths:
        prefix = re.match(r"root(\d+)_", path.name)
        field = Field(int(prefix.group(1))) if prefix else F
        texts = list(_golden_module_scalars(path))
        counts[path.name] = len(texts)
        bad = [t for t in texts if parse_scalar(t, field).serialize() != t]
        assert not bad, (path.name, bad[:5])
    assert counts == GOLDEN_MODULE_SCALARS
    assert sum(n for name, n in counts.items() if name.startswith("module_")) == 5922


def test_serialization_shape():
    x = F.q + F.one
    assert x.serialize() == "v^2 + 1"
    y = (F.q + F.one) / (F.q - F.one)
    assert " / " in y.serialize()


def _gauss(re, im=0):
    return F.rational(Fraction(re)) + F.rational(Fraction(im)) * F.i


# Gaussian coefficients and a denominator divided by its leading coefficient
SERIALIZED = [
    (_gauss("1/2", 3) * F.v, "(1/2+3*i)*v"),
    (_gauss("-2/3", -1), "(-2/3-i)"),
    ((_gauss("-3/14", "3/14") * F.v ** 3 + _gauss("1/2", "1/2")) / (F.v ** 2 + _gauss(1, -1)),
     "((-3/14+3/14*i)*v^3 + (1/2+1/2*i)) / (v^2 + (1-i))"),
    (-F.i / F.v ** 4, "-i / v^4"),
    (_gauss(0, "-2/3") * F.v ** 3 + _gauss("5/7"), "-2/3*i*v^3 + 5/7"),
    (_gauss(3, -2) / (F.v + F.i), "(3-2*i) / (v + i)"),
    ((2 * F.v - 4 * F.i) / (6 * F.v ** 2 + 3), "(1/3*v + -2/3*i) / (v^2 + 1/2)"),
    (_gauss("7/3", 0) * F.i, "7/3*i"),
    (-F.v ** 2 + F.one, "-v^2 + 1"),
    (_gauss("-1/2"), "-1/2"),
]


@pytest.mark.parametrize("x,text", SERIALIZED, ids=[t for _, t in SERIALIZED])
def test_serialization_of_gaussian_coefficients(x, text):
    assert x.serialize() == text
    assert parse_scalar(text, F) == x


# the principal branch: real part >= 0, and i*r for a negative rational -r^2
SQUARE_ROOTS = [
    (_gauss(-4), _gauss(0, 2)),
    (_gauss(0, 2), _gauss(1, 1)),
    (_gauss(0, -2), _gauss(1, -1)),
    (_gauss(-3, 4), _gauss(1, 2)),
    (-F.q ** 2 / 4, _gauss(0, "1/2") * F.q),
    (_gauss("1/4"), _gauss("1/2")),
    (-F.q.inverse() ** 2, F.i * F.v_power(-2)),
    (_gauss(-3, 4) * F.q ** 2, _gauss(1, 2) * F.q),
    (F.i, None),
    (_gauss(2), None),
    (F.v, None),
]


@pytest.mark.parametrize("x,root", SQUARE_ROOTS, ids=[str(x) for x, _ in SQUARE_ROOTS])
def test_principal_square_roots(x, root):
    assert x.monomial_sqrt() == root
    assert x.field_sqrt() == root


small_int = st.integers(-4, 4)
small_pair = st.tuples(st.integers(-4, 4), st.integers(-2, 2))


def _nonzero(c):
    return c not in (0, (0, 0))


@st.composite
def field_elems(draw):
    """num/den with small coefficients, both ints or both (re, im) pairs."""
    coeff = small_pair if draw(st.booleans()) else small_int
    num = draw(st.lists(coeff, max_size=4))
    den = draw(st.lists(coeff, min_size=1, max_size=4).filter(lambda p: any(map(_nonzero, p))))
    return FieldElem(F, tuple(num), tuple(den))


@settings(max_examples=150, deadline=None)
@given(field_elems(), field_elems(), field_elems())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    # QQ_I(v) fractions are not stored canonically, so compare differences
    assert not frac_of(a + b) - (frac_of(a) + frac_of(b))
    assert not frac_of(a * b) - frac_of(a) * frac_of(b)


@settings(max_examples=100, deadline=None)
@given(field_elems())
def test_division_cancels(a):
    if not a.is_zero():
        assert a / a == F.one
        assert a * a.inverse() == F.one
        assert not frac_of(a.inverse()) - 1 / frac_of(a)


@settings(max_examples=100, deadline=None)
@given(field_elems(), field_elems())
def test_bar_is_ring_involution(a, b):
    assert a.bar().bar() == a
    assert (a * b).bar() == a.bar() * b.bar()
    assert (a + b).bar() == a.bar() + b.bar()
    assert not frac_of(a.bar()) - frac_of(a, 1 / V)


@settings(max_examples=60, deadline=None)
@given(st.integers(-6, 6), st.integers(0, 3).map(lambda k: [1, -1, 2, Fraction(1, 2)][k]))
def test_monomial_sqrt_round_trip(e, coeff):
    y = F.rational(coeff) * F.v_power(e)
    sq = y * y
    root = sq.monomial_sqrt()
    assert root is not None
    assert root * root == sq


@settings(max_examples=80, deadline=None)
@given(field_elems())
def test_serialize_parse_agrees(a):
    assert parse_scalar(a.serialize(), F) == a


@settings(max_examples=60, deadline=None)
@given(field_elems())
def test_field_sqrt_round_trip(a):
    sq = a * a
    root = sq.field_sqrt()
    assert root is not None
    assert root * root == sq
    assert not frac_of(root) - frac_of(a) or not frac_of(root) + frac_of(a)


# -- the integer reduction against sympy ----------------------------------

ZZ_I_V = ZZ_I.poly_ring(V).ring


@st.composite
def planted_pairs(draw, low=1):
    """(A*G, B*G) for random A, B and a planted G of degree at least low,
    with int or Gaussian (re, im) coefficients; degrees up to 27."""
    ring = draw(st.sampled_from([scalars._Z, scalars._ZI]))
    coeff = st.integers(-9, 9)
    if ring is scalars._ZI:
        coeff = st.tuples(coeff, coeff)

    def poly(low, high):
        body = draw(st.lists(coeff, min_size=low, max_size=high))
        return tuple(body) + (draw(coeff.filter(_nonzero)),)

    g, a, b = poly(low, 10), poly(0, 16), poly(1, 16)
    return ring.pmul(a, g), ring.pmul(b, g)


@st.composite
def planted_fractions(draw):
    """A planted pair, each side also scaled by a small integer."""
    f, g = draw(planted_pairs())
    ring = scalars._ZI if type(f[0]) is tuple else scalars._Z
    s, t = (draw(st.sampled_from([1, 2, 3, 6])) for _ in range(2))
    if ring is scalars._ZI:
        s, t = (s, 0), (t, 0)
    return ring.pmul(f, (s,)), ring.pmul(g, (t,))


def _qq_i_poly(p):
    """p as an element of sympy's QQ_I[v]."""
    return QIV.field.ring.from_list([QQ_I.from_sympy(_coeff(c)) for c in reversed(p)])


def _assert_canonical(x: FieldElem):
    """Joint content one (a unit), lc(den) positive or in the quadrant
    re > 0, im >= 0, int form exactly when every coefficient is real."""
    coeffs = x.num + x.den
    if type(x.den[0]) is tuple:
        assert any(im for _, im in coeffs)
        re, im = x.den[-1]
        assert re > 0 and im >= 0
        assert ZZ_I_V.from_list([ZZ_I(*c) for c in reversed(coeffs)]).content() in (
            ZZ_I(1), ZZ_I(-1), ZZ_I(0, 1), ZZ_I(0, -1))
    else:
        assert all(type(c) is int for c in coeffs)
        assert x.den[-1] > 0 and math.gcd(*coeffs) == 1


@settings(max_examples=40, deadline=None)
@given(planted_fractions())
def test_reduction_matches_qq_i_oracle(pair):
    num, den = pair
    x = FieldElem(F, num, den)
    _assert_canonical(x)
    assert _qq_i_poly(x.num).gcd(_qq_i_poly(x.den)).degree() == 0
    value = QIV.field(_qq_i_poly(num)) / QIV.field(_qq_i_poly(den))
    assert not QIV.field(_qq_i_poly(x.num)) / QIV.field(_qq_i_poly(x.den)) - value


small_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
gaussian_rationals = st.builds(lambda re, im: F.rational(re) + F.rational(im) * F.i,
                               small_fractions, small_fractions)


@settings(max_examples=150, deadline=None)
@given(field_elems(), field_elems(), gaussian_rationals)
def test_canonical_form_is_unique(x, y, c):
    """One value reached by several routes is stored once: the same
    num/den tuples and hash, in int form when it is real."""
    routes = [x.bar().bar(), (F.i * x) / F.i]
    if y:
        routes.append(x * y / y)
    if c:
        routes.append(c * x / c)
    if x:
        for z in (x, x.bar(), x.inverse(), -x):
            _assert_canonical(z)
    for z in routes:
        assert (z.num, z.den) == (x.num, x.den)
        assert hash(z) == hash(x)
        assert not frac_of(z) - frac_of(x)


def test_hot_paths_build_no_fraction(monkeypatch):
    """mul, add, inverse and a non-monomial reduction on integer inputs."""
    x = FieldElem(F, (1, 0, -2, 3), (2, 1))
    y = FieldElem(F, ((1, 1), (0, 2)), ((3, 0), (0, 1), (1, 0)))

    def ops():
        return [x * y, x + y, x.inverse(), y.inverse(), x * x + y * y,
                FieldElem(F, (6, 5, 1), (3, 4, 1))]

    expected = ops()
    scalars._memo.cache_clear()

    class NoFraction:
        def __new__(cls, *args):
            raise AssertionError("Fraction built in a hot path")

    monkeypatch.setattr(scalars, "Fraction", NoFraction)
    got = ops()
    monkeypatch.undo()
    assert got == expected
    assert (got[-1].num, got[-1].den) == ((2, 1), (1, 1))


def _fallback_calls(mp):
    calls = []
    prs = scalars._prs_gcd

    def spy(f, g, ring):
        calls.append((f, g))
        return prs(f, g, ring)

    mp.setattr(scalars, "_prs_gcd", spy)
    return calls


def _with_binomial_factor(pair):
    """A planted fraction times (1 + v)/(1 + v): its den is not a monomial
    c v^m, so its reduction always takes a gcd."""
    ring = scalars._ZI if type(pair[0][0]) is tuple else scalars._Z
    return tuple(ring.pmul(p, (ring.one, ring.one)) for p in pair)


@settings(max_examples=15, deadline=None)
@given(planted_fractions().map(_with_binomial_factor))
def test_heuristic_give_up_falls_back_to_prs(pair):
    expected = FieldElem(F, *pair)
    with pytest.MonkeyPatch.context() as mp:
        calls = _fallback_calls(mp)
        mp.setattr(scalars, "_HEU_TRIES", 0)
        x = FieldElem(F, *pair)
    assert calls
    assert (x.num, x.den) == (expected.num, expected.den)
    assert x.serialize() == expected.serialize()


@settings(max_examples=15, deadline=None)
@given(planted_fractions().map(_with_binomial_factor))
def test_failed_certificate_falls_back_to_prs(pair):
    expected = FieldElem(F, *pair)
    with pytest.MonkeyPatch.context() as mp:
        calls = _fallback_calls(mp)
        mp.setattr(scalars, "_coprime_mod_p", lambda a, b: False)
        x = FieldElem(F, *pair)
    assert calls
    assert (x.num, x.den) == (expected.num, expected.den)
    assert x.serialize() == expected.serialize()


@settings(max_examples=40, deadline=None)
@given(planted_pairs(low=0))
def test_prs_gcd_matches_zz_i_oracle(pair):
    f, g = pair
    ring = scalars._ZI if type(f[0]) is tuple else scalars._Z
    f, g = scalars._primitive(f, ring)[1], scalars._primitive(g, ring)[1]
    h = scalars._prs_gcd(f, g, ring)

    def zz_i(p):
        return ZZ_I_V.from_list([ZZ_I.from_sympy(_coeff(c)) for c in reversed(p)])

    expected = zz_i(f).gcd(zz_i(g))
    # equal up to a unit: each divides the other
    assert zz_i(h).degree() == expected.degree()
    assert not zz_i(h).rem(expected) and not expected.rem(zz_i(h))


# (num, den) = (A H, B H) off every axis, with a common factor H of degree >= 1
GAUSSIAN_PLANTED = [
    (((2, 0), (0, 1)), ((1, 1), (0, 0), (3, -1)), ((3, 0), (1, 1), (1, 0))),
    (((0, -1), (1, 0), (0, 0), (2, 0)), ((1, 0), (1, 0)),
     ((5, 0), (0, 2), (0, 0), (1, 0))),
]


@pytest.mark.parametrize("a,b,h", GAUSSIAN_PLANTED)
def test_gaussian_fraction_reduces_by_prs_only(monkeypatch, fresh_memo, a, b, h):
    """The heuristic runs over Z only: a Gaussian fraction off the axes goes
    straight to the primitive PRS, and the result is the QQ_I(v) value."""
    ring = scalars._ZI
    num, den = ring.pmul(a, h), ring.pmul(b, h)
    assert scalars._axis(num, den) is None
    calls = _fallback_calls(monkeypatch)
    monkeypatch.setattr(scalars, "_heu_cofactors",
                        lambda *args: pytest.fail("heuristic over Z[i]"))
    x = FieldElem(F, num, den)
    assert calls
    _assert_canonical(x)
    assert _qq_i_poly(x.num).gcd(_qq_i_poly(x.den)).degree() == 0
    value = QIV.field(_qq_i_poly(num)) / QIV.field(_qq_i_poly(den))
    assert not QIV.field(_qq_i_poly(x.num)) / QIV.field(_qq_i_poly(x.den)) - value


def test_coprimality_certificate():
    p = scalars._SCREEN_PRIME
    # (v + 1)(v + 2) and (v + 1); v + 1 and v + 2
    assert not scalars._coprime_mod_p([2, 3, 1], [1, 1])
    assert scalars._coprime_mod_p([1, 1], [2, 1])
    # coprime over Q, but the leading coefficient p vanishes mod p: no certificate
    assert not scalars._coprime_mod_p([1, p], [2, 1])


# -- reduction on deflated polynomials ---------------------------------------

def _spread(p, k, shift, zero):
    """v^shift * p(v^k), built coefficient by coefficient."""
    out = [zero] * (shift + k * (len(p) - 1) + 1)
    for e, c in enumerate(p):
        out[shift + k * e] = c
    return tuple(out)


@st.composite
def strided_fractions(draw):
    """(v^a (F H)(v^k), v^b (G H)(v^k)) for sparse F, G and a planted common
    factor H over Z or Z[i], each factor itself a polynomial in v or v^2 so
    that num and den can have different strides (v^2 against v^4)."""
    ring = draw(st.sampled_from([scalars._Z, scalars._ZI]))
    coeff = st.integers(-9, 9)
    if ring is scalars._ZI:
        coeff = st.tuples(coeff, coeff)

    def sparse(high):
        body = draw(st.lists(st.one_of(st.just(ring.zero), coeff), max_size=high))
        p = tuple(body) + (draw(coeff.filter(_nonzero)),)
        return _spread(p, draw(st.sampled_from([1, 2])), 0, ring.zero)

    f, g, h = sparse(5), sparse(5), sparse(3)
    k = draw(st.sampled_from([1, 2, 3, 4, 8]))
    a, b = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    return (_spread(ring.pmul(f, h), k, a, ring.zero),
            _spread(ring.pmul(g, h), k, b, ring.zero))


def _exponent_gcd(*polys):
    return math.gcd(*[e for p in polys for e, c in enumerate(p) if _nonzero(c)])


@settings(max_examples=60, deadline=None)
@given(strided_fractions())
def test_strided_reduction_matches_qq_i_oracle(pair):
    num, den = pair
    x = FieldElem(F, num, den)
    _assert_canonical(x)
    assert _qq_i_poly(x.num).gcd(_qq_i_poly(x.den)).degree() == 0
    value = QIV.field(_qq_i_poly(num)) / QIV.field(_qq_i_poly(den))
    assert not QIV.field(_qq_i_poly(x.num)) / QIV.field(_qq_i_poly(x.den)) - value


@settings(max_examples=20, deadline=None)
@given(strided_fractions())
def test_fallbacks_on_deflated_polynomials(pair):
    """Forcing either fallback gives the same tuples, and the PRS gcd sees
    the deflations: no common stride, v dividing at most one side."""
    expected = FieldElem(F, *pair)
    for name, forced in (("_heu_cofactors", lambda f, g: None),
                         ("_coprime_mod_p", lambda a, b: False)):
        with pytest.MonkeyPatch.context() as mp:
            calls = _fallback_calls(mp)
            mp.setattr(scalars, name, forced)
            x = FieldElem(F, *pair)
        assert (x.num, x.den) == (expected.num, expected.den)
        if sum(map(_nonzero, pair[1])) > 1:
            assert calls
        for f, g in calls:
            assert _exponent_gcd(f, g) == 1
            assert _nonzero(f[0]) or _nonzero(g[0])


@pytest.mark.parametrize("n,m", [(5, 3), (6, 3), (6, 2)])
def test_quantum_integer_quotients_reduce_deflated(monkeypatch, fresh_memo, n, m):
    """[n]/[m] at root order 2 is a quotient of polynomials in v^4 = q^2 of
    degree at most 4(n-1); the heuristic sees them in q^2, of length <= n."""
    calls = []
    heu = scalars._heu_cofactors

    def spy(f, g):
        calls.append((f, g))
        return heu(f, g)

    monkeypatch.setattr(scalars, "_heu_cofactors", spy)
    x = F.qint(n) / F.qint(m)
    assert calls
    assert all(max(len(f), len(g)) <= n for f, g in calls)
    assert not frac_of(x) - frac_of(F.qint(n)) / frac_of(F.qint(m))


# -- values on an axis: real and i * real ----------------------------------

def _on_axis(num, den, k, pairs):
    """i^k num/den for int tuples num and den, in pair form when pairs."""
    if not pairs:
        return num, den
    return (tuple((0, c) if k else (c, 0) for c in num), tuple((c, 0) for c in den))


@st.composite
def axis_pairs(draw):
    """Two values i^j A G / (B H) and i^k C H / (D G) with real A, B, C, D
    and planted real G and H, so that products, sums and quotients cancel;
    a real value comes in int form or in pair form."""
    coeff = st.integers(-6, 6)

    def poly(low, high):
        return tuple(draw(st.lists(coeff, min_size=low, max_size=high))) + (
            draw(coeff.filter(bool)),)

    g, h = poly(1, 3), poly(0, 3)

    def value(top, bottom):
        k = draw(st.integers(0, 1))
        num = scalars._z_mul(poly(0, 4), top)
        den = scalars._z_mul(poly(0, 4), bottom)
        x = FieldElem(F, *_on_axis(num, den, k, k or draw(st.booleans())))
        assert not frac_of(x) - QIV.field(_qq_i_poly(num)) / QIV.field(
            _qq_i_poly(den)) * (QQ_I(0, 1) if k else 1)
        return x

    return value(g, h), value(h, g)


@settings(max_examples=40, deadline=None)
@given(axis_pairs())
def test_axis_arithmetic_matches_qq_i_oracle(pair):
    x, y = pair
    fx, fy = frac_of(x), frac_of(y)
    results = [(x * y, fx * fy), (x + y, fx + fy), (x - y, fx - fy),
               (x / y, fx / fy), (x * x, fx * fx), (x + x, fx + fx)]
    for z, expected in results:
        assert not frac_of(z) - expected
        if z:
            _assert_canonical(z)


def _gaussian_kernel_calls(mp):
    """Record every call of a `_zi_*` function, also through `_ZI`."""
    calls = []

    def spy(name, f):
        def wrapped(*args):
            calls.append(name)
            return f(*args)
        return wrapped

    for name in [n for n in vars(scalars) if n.startswith("_zi_")]:
        f = getattr(scalars, name)
        mp.setattr(scalars, name, spy(name, f))
        for attr, g in vars(scalars._ZI).items():
            if g is f:
                mp.setattr(scalars._ZI, attr, spy(name, f))
    return calls


# -- monomial dens c v^m: integer arithmetic with no general reduction ------

@st.composite
def monomial_pairs(draw):
    """Two values i^k c N / (d v^m), as (k, num, den) before reduction: real
    (k = 0) or imaginary (k = 1), with contents c of either sign that share
    factors with d, and m from 0 to 4.  The second value is drawn alone, or
    as i^k (v^t B - c N) / (d v^m) from the first, so that the sum of the
    two cancels to zero (B = 0) or to a lower power of v."""
    small = st.sampled_from([1, 2, 3, 4, 6, 12])
    sign = st.sampled_from([1, -1])
    coeff = st.integers(-6, 6)

    def raw():
        poly = draw(st.lists(coeff, max_size=4)) + [draw(coeff.filter(bool))]
        c = draw(small) * draw(sign)
        den = (0,) * draw(st.integers(0, 4)) + (draw(small) * draw(sign),)
        return draw(st.integers(0, 1)), tuple(c * a for a in poly), den

    x = raw()
    if draw(st.booleans()):
        return x, raw()
    k, num, den = x
    top = [0] * draw(st.integers(1, 3)) + draw(st.lists(coeff, max_size=3))
    top += [0] * (len(num) - len(top))
    return x, (k, tuple(a - b for a, b in zip(top, num + (0,) * len(top))), den)


def _general_reduction(op, x, y):
    """The canonical (num, den) of op(x, y) for raw (k, num, den) values,
    by `_reduce` of the unreduced Gaussian product or sum."""
    (j, an, ad), (k, bn, bd) = x, y
    an, ad = _on_axis(an, ad, j, True)
    bn, bd = _on_axis(bn, bd, k, True)
    if op == "mul":
        return scalars._reduce(scalars._zi_mul(an, bn), scalars._zi_mul(ad, bd))
    if op == "sub":
        bn = tuple((-re, -im) for re, im in bn)
    return scalars._reduce(scalars._zi_add(scalars._zi_mul(an, bd), scalars._zi_mul(bn, ad)),
                           scalars._zi_mul(ad, bd))


@settings(max_examples=150, deadline=None)
@given(monomial_pairs())
def test_monomial_arithmetic_matches_the_general_reduction(pair):
    """Products, sums and differences on monomial dens give, tuple for
    tuple, what `_reduce` makes of the unreduced result, and the QQ_I(v)
    value."""
    x, y = (FieldElem(F, *_on_axis(num, den, k, bool(k))) for k, num, den in pair)
    fx, fy = frac_of(x), frac_of(y)
    for op, z, expected in (("mul", x * y, fx * fy), ("add", x + y, fx + fy),
                            ("sub", x - y, fx - fy)):
        assert (z.num, z.den) == _general_reduction(op, *pair)
        assert not frac_of(z) - expected
        if z:
            _assert_canonical(z)


def test_monomial_dens_skip_the_reduction(fresh_memo):
    """Values on an axis with dens c v^m multiply and add without `_reduce`,
    `_cancel` or the memo; a real value plus an imaginary one is mixed and
    still takes the Z[i] kernels."""
    x = FieldElem(F, (3, 0, -6), (0, 4))                        # 3 (1 - 2 v^2) / (4 v)
    y = FieldElem(F, *_on_axis((2, 1), (0, 0, 0, 6), 1, True))  # i (2 + v) / (6 v^3)
    r = FieldElem(F, (1, 0, 1), (1,))                           # 1 + v^2
    s = FieldElem(F, (-3,), (0, 4))                             # -3 / (4 v)
    memo = []

    def fail(*args):
        raise AssertionError("a general reduction on monomial dens")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scalars, "_reduce", fail)
        mp.setattr(scalars, "_cancel", fail)
        mp.setattr(scalars, "_memo", lambda *args: memo.append(args))
        got = [x * y, y * y, x * r, r * y, x * s, x + r, x + s, y + y, x - x,
               y - y, y + y * F.v_power(-2)]
    assert memo == []
    fx, fy, fr, fs = (frac_of(z) for z in (x, y, r, s))
    expected = [fx * fy, fy * fy, fx * fr, fr * fy, fx * fs, fx + fr, fx + fs,
                fy + fy, 0, 0, fy + fy * frac_of(F.v_power(-2))]
    for z, value in zip(got, expected):
        assert not frac_of(z) - value
        if z:
            _assert_canonical(z)
    # the sum cancels the constant term and so a power of v: -3 v / 2
    assert (got[6].num, got[6].den) == ((0, -3), (2,))
    assert got[8] is F.zero and got[9] is F.zero
    with pytest.MonkeyPatch.context() as mp:
        calls = _gaussian_kernel_calls(mp)
        mixed = x + y
        assert calls
    assert not frac_of(mixed) - (fx + fy)
    _assert_canonical(mixed)


def test_axis_values_skip_the_gaussian_kernels(fresh_memo):
    i = ((0, 1),)
    # i v^2 / (v^2 + 1), i (v^2 - 1) and a real value
    x = FieldElem(F, ((0, 0),) * 2 + i, ((1, 0), (0, 0), (1, 0)))
    y = FieldElem(F, ((0, -1), (0, 0), (0, 1)), ((1, 0),))
    r = FieldElem(F, (1, 2), (3, 0, 1))
    with pytest.MonkeyPatch.context() as mp:
        calls = _gaussian_kernel_calls(mp)
        # an axis fraction with a common factor v + 1 to cancel
        z = FieldElem(F, ((0, 1), (0, 0), (0, -1)), ((1, 0), (1, 0)))
        got = [z, x * y, x * r, y * y, x + y, x - y, r + r]
        assert calls == []
        mixed = x + r
        assert calls
    assert (z.num, z.den) == (((0, 1), (0, -1)), ((1, 0),))
    assert (got[3].num, got[3].den) == ((-1, 0, 2, 0, -1), (1,))
    fx, fy, fr = frac_of(x), frac_of(y), frac_of(r)
    for value, expected in zip(got[1:] + [mixed],
                               [fx * fy, fx * fr, fy * fy, fx + fy, fx - fy, fr + fr,
                                fx + fr]):
        assert not frac_of(value) - expected


def test_precompose_round_runs_no_gaussian_kernel(fresh_memo):
    """Criterion 08's pairing loop on ai1 L(4): the character values are
    imaginary, and every value the loop meets lies on an axis."""
    import qspherical.linalg as la
    from qspherical import SatakeDatum, build_simple, root_datum
    from qspherical.characters import find_dual_spherical, find_spherical_lines
    from qspherical.modules import act_matrix
    from qspherical.qsp import coideal_generators, distinguished_parameter
    from qspherical.quasik import wz_operator
    satake = SatakeDatum(root_datum("A", 1), (), (0,))
    param = distinguished_parameter(satake, F)
    m = build_simple(satake.datum, (4,), F)
    gens = coideal_generators(param, m)
    lines = find_spherical_lines(m, gens, param)
    assert any(type(x.den[0]) is tuple for line in lines
               for x in line.character.b_values.values() if x)
    duals = [find_dual_spherical(line, gens) for line in lines]
    letters = {"E": m.e_mats[0], "F": m.f_mats[0], "K": m.k_i_matrix(0)}
    words = [m.k_matrix((1,)), m.k_matrix((-1,))]
    for name in ("E", "FK", "EFE", "KEFF", "FEKE"):
        x = la.identity(m.dim, F)
        for letter in name:
            x = la.mat_mul(x, letters[letter])
        words.append(x)
    with pytest.MonkeyPatch.context() as mp:
        calls = _gaussian_kernel_calls(mp)
        big = wz_operator(0, param, m)
        for line, f in zip(lines, duals):
            for x in words:
                moved = la.mat_mul(big.mat, la.mat_mul(x, big.inverse().mat))
                assert (m.shapovalov(f, act_matrix(moved, line.vector))
                        == m.shapovalov(f, act_matrix(x, line.vector)))
    assert calls == []


# -- the memo of the operations that need a gcd ------------------------------

def _memo_size():
    return scalars._memo.cache_info().currsize


def _repeat_matches_oracle(x, y):
    """Each operation twice, the second time with equal copies of the
    operands: the same tuples both times, and the QQ_I(v) value."""
    cx = FieldElem(x.field, x.num, x.den, _normalized=True)
    cy = FieldElem(y.field, y.num, y.den, _normalized=True)
    fx, fy = frac_of(x), frac_of(y)
    for op, expected in ((lambda a, b: a * b, fx * fy), (lambda a, b: a + b, fx + fy),
                         (lambda a, b: a - b, fx - fy), (lambda a, b: b * a, fx * fy)):
        first, again = op(x, y), op(cx, cy)
        assert (again.num, again.den) == (first.num, first.den)
        assert not frac_of(again) - expected


@settings(max_examples=50, deadline=None)
@given(field_elems(), field_elems())
def test_memoized_operations_match_qq_i_oracle(x, y):
    """Int form and Gaussian pair form, most with non-monomial dens."""
    _repeat_matches_oracle(x, y)


@settings(max_examples=25, deadline=None)
@given(axis_pairs())
def test_memoized_axis_operations_match_qq_i_oracle(pair):
    _repeat_matches_oracle(*pair)


def test_memo_builds_results_in_the_callers_field(fresh_memo):
    """Equal tuples at different root orders share memo entries, and every
    result belongs to the field of the operation that asked for it."""
    got = {}
    for order in (1, 2, 4):
        field = Field(order)
        x = FieldElem(field, (1, 2, 0, 1), (3, 0, 1))
        y = FieldElem(field, ((0, 1), (1, 0)), ((1, 0), (1, 1)))
        hits = scalars._memo.cache_info().hits
        out = [x * y, x + y, y * y, x + x]
        assert all(z.field is field for z in out)
        assert scalars._memo.cache_info().hits == hits + (4 if order > 1 else 0)
        got[order] = [(z.num, z.den) for z in out]
        assert all(parse_scalar(z.serialize(), field) == z for z in out)
        assert not frac_of(out[0]) - frac_of(x) * frac_of(y)
    assert got[1] == got[2] == got[4]


def test_memo_stays_within_its_bound(fresh_memo):
    """Past its bound the memo evicts the least recently used operation;
    an operation on monomial dens leaves it alone."""
    bound = scalars._MEMO_SIZE
    assert scalars._memo.cache_info().maxsize == bound
    y = FieldElem(F, (1,), (1, 1))
    for n in range(1, bound + 40):
        F.rational(n) * y
        assert _memo_size() <= bound
    assert _memo_size() == bound
    before = scalars._memo.cache_info()
    assert F.q * F.v_power(-3) + F.rational(5) * F.i == F.v_power(-1) + 5 * F.i
    assert scalars._memo.cache_info() == before
    # the oldest entry is gone, the newest is kept
    misses = before.misses
    F.rational(bound + 39) * y
    assert scalars._memo.cache_info().misses == misses
    F.rational(1) * y
    assert scalars._memo.cache_info().misses == misses + 1


def test_repeated_product_cancels_once(monkeypatch, fresh_memo):
    x = FieldElem(F, (1, 1), (1, 0, 1))
    y = FieldElem(F, (1, 0, 1), (2, 1))
    copies = (FieldElem(F, x.num, x.den, _normalized=True),
              FieldElem(F, y.num, y.den, _normalized=True))
    calls = []
    cancel = scalars._cancel
    monkeypatch.setattr(scalars, "_cancel",
                        lambda f, g, ring: calls.append(f) or cancel(f, g, ring))
    first = x * y
    assert len(calls) == 1
    again = [x * y, copies[0] * copies[1]]
    assert len(calls) == 1
    assert all((z.num, z.den) == (first.num, first.den) for z in again)
    assert not frac_of(first) - frac_of(x) * frac_of(y)
    # the other order and the sum are other operations
    y * x
    x + y
    assert len(calls) == 3
