"""Exact arithmetic in Q(i)(v) with v**d = q.

Every scalar in this package is a rational function in a fixed root v of q.
It is stored as a reduced fraction num/den of polynomials in v over Z when
every coefficient is real, else over the Gaussian integers Z[i]: tuples of
ints, or of (re, im) int pairs, lowest degree first.  The canonical form has
joint content one (a unit over Z[i]) and lc(den) positive (over Z[i], in the
quadrant re > 0, im >= 0), so equality is plain structural comparison.  The
bar involution maps v to 1/v and fixes i.

A fraction over Z is reduced by the heuristic GCD; the common factor it
proposes is accepted only if it divides both exactly and the cofactors are
certified coprime modulo a prime p.  The certificate only ever confirms;
when the heuristic gives up or a check fails, a primitive PRS gcd reduces
the fraction instead.  A fraction over Z[i] is reduced by the primitive PRS
alone: values on an axis reduce over Z (below), so a Gaussian gcd is rare.
All of these run on the deflated polynomials: with num = v^a F(v^k) and
den = v^b G(v^k), k the gcd of the exponents, the gcd is taken of F and G
and the cofactors are inflated back.  Quantum integers and q-powers make
most entries polynomials in q^2, so at the default root order the gcd
inputs shrink to about a quarter.

A value on an axis, i^k N/D with N and D real and k = 0 or 1, runs in
integer arithmetic as well: it is stored in int form (k = 0) or with a real
den and a purely imaginary num (k = 1), products and same-axis sums work on
the real N and D over Z and carry the phase k (i * i = -1), and a Gaussian
fraction on an axis is reduced over Z and paired again.  Only a mixed value,
such as the sum of a real and an imaginary one, takes the Z[i] kernels.

Most dens are monomials c v^m.  A product or same-axis sum of two values on
an axis with monomial dens runs in integer arithmetic only, with no general
reduction: the nums are multiplied (or added over the common den
lcm(c, c') v^max(m, m')), and the content gcd(c, num) and the common power
of v are cancelled.  That is the canonical form, since c v^m has no other
factor to share with the num.

A product or sum needs a polynomial gcd only when the den of an operand is
not a monomial c v^m, and such operations repeat: a form entry times a dual
coefficient recurs in every pairing of the line.  So their canonical
(num, den) is kept in a memo keyed by the operation and the two operands,
which compare by their stored tuples.  The memo is exact: the canonical
form is unique, so a stored pair is the pair the reduction would compute
again, and the result is built in the caller's field, so equal tuples at
different root orders never share a value.  It is bounded, holding the
_MEMO_SIZE most recently used operations: repeats come close together,
while the operands of a long run keep changing and an unbounded memo would
keep every one of them alive.  An operation on monomial dens skips it.

`FieldElem` is the one scalar type: a Gaussian rational constant is a
constant `FieldElem`.  Only the printer and the principal square root of a
coefficient read a coefficient as an (re, im) pair of Fractions.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from fractions import Fraction
from itertools import compress
from types import SimpleNamespace


class UnrepresentableScalar(Exception):
    """A scalar (q-power or square root) does not live in Q(i)(v)."""


class ScalarParseError(Exception):
    pass


def _frac_sqrt(x) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    x = Fraction(x)
    if x < 0:
        return None
    pn, pd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if pn * pn == x.numerator and pd * pd == x.denominator:
        return Fraction(pn, pd)
    return None


def _principal_sqrt(re: Fraction, im: Fraction) -> tuple | None:
    """Principal square root (x, y) of re + im*i inside Q(i), or None.

    Principal branch: x >= 0; for a negative rational the root with y > 0.
    """
    if not im:
        r = _frac_sqrt(re)
        if r is not None:
            return r, 0
        r = _frac_sqrt(-re)
        return None if r is None else (0, r)
    norm = _frac_sqrt(re * re + im * im)
    if norm is None:
        return None
    x = _frac_sqrt((re + norm) / 2)
    if not x:
        return None
    return x, im / (2 * x)


def _coeff_pair(c, d=1) -> tuple:
    """The coefficient c / d as an (re, im) pair of Fractions, for c and d
    ints or (re, im) int pairs."""
    if type(d) is tuple:
        c, d = _zi_times(_pairs((c,))[0], (d[0], -d[1])), d[0] * d[0] + d[1] * d[1]
    if type(c) is tuple:
        return Fraction(c[0], d), Fraction(c[1], d)
    return Fraction(c, d), Fraction(0)


def _coeff_str(re: Fraction, im: Fraction) -> str:
    """re + im*i as text: 'i', '-2/3*i', '(1/2+3*i)', '(1-i)'."""
    if not im:
        return str(re)
    ipart = "i" if im == 1 else ("-i" if im == -1 else f"{im}*i")
    if not re:
        return ipart
    return f"({re}{ipart})" if ipart.startswith("-") else f"({re}+{ipart})"


def _gaussian(field: "Field", re, im) -> "FieldElem":
    x = field.rational(re)
    return x + field.rational(im) * field.i if im else x


# -- polynomials over Z and Z[i] -----------------------------------------
#
# A polynomial is a tuple of coefficients, lowest degree first, trimmed of
# trailing zeros; the zero polynomial is the empty tuple.  Over Z the
# coefficients are ints, over Z[i] (re, im) int pairs.  Products are
# schoolbook loops over the nonzero coefficients: the coefficients here are
# small and the polynomials sparse.

def _trim(p, zero) -> tuple:
    n = len(p)
    while n and p[n - 1] == zero:
        n -= 1
    return tuple(p[:n])


def _val(p: tuple, zero) -> int:
    """Order of vanishing at v = 0 of a nonzero polynomial."""
    k = 0
    while p[k] == zero:
        k += 1
    return k


def _pairs(p: tuple) -> tuple:
    """A polynomial in pair form."""
    return p if not p or type(p[0]) is tuple else tuple((c, 0) for c in p)


def _z_mul(a: tuple, b: tuple) -> tuple:
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        return b if a[0] == 1 else tuple([a[0] * y for y in b])
    out = [0] * (len(a) + len(b) - 1)
    nz = [(k, y) for k, y in enumerate(b) if y]
    for j, x in enumerate(a):
        if x:
            for k, y in nz:
                out[j + k] += x * y
    return tuple(out)


def _zi_mul(a: tuple, b: tuple) -> tuple:
    if len(a) > len(b):
        a, b = b, a
    if a == ((1, 0),):
        return b
    n = len(a) + len(b) - 1
    re, im = [0] * n, [0] * n
    nz = [(k, c, d) for k, (c, d) in enumerate(b) if c or d]
    for j, (x, y) in enumerate(a):
        if x or y:
            for k, c, d in nz:
                re[j + k] += x * c - y * d
                im[j + k] += x * d + y * c
    return tuple(zip(re, im))


def _z_add(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = [x + y for x, y in zip(a, b)]
    out += a[len(b):]
    return _trim(out, 0)


def _zi_add(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = [(x + u, y + w) for (x, y), (u, w) in zip(a, b)]
    out += a[len(b):]
    return _trim(out, (0, 0))


def _zi_times(a: tuple, b: tuple) -> tuple:
    (ar, ai), (br, bi) = a, b
    return ar * br - ai * bi, ar * bi + ai * br


def _zi_unit(z: tuple) -> tuple:
    """The unit u with u*z in the quadrant re > 0, im >= 0."""
    for u in ((1, 0), (0, -1), (-1, 0), (0, 1)):
        re, im = _zi_times(u, z)
        if re > 0 and im >= 0:
            return u


def _scale(p: tuple, c, ring) -> tuple:
    return p if c == ring.one else tuple(ring.times(c, x) for x in p)


# -- the heuristic GCD ------------------------------------------------------
#
# GCDHEU (Char, Geddes and Gonnet 1989; sympy's dup_zz_heu_gcd) evaluates
# both polynomials at an integer xi, takes one gcd of the two values and
# reads a candidate common factor off the symmetric base-xi digits of that
# gcd.  The candidate is accepted only if it divides both exactly and the
# two cofactors are certified coprime modulo the screen prime.  Both run
# over Z only.

_SCREEN_PRIME = 1000000009

_HEU_TRIES = 6


def _z_eval(f: tuple, x: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _z_digits(h: int, x: int) -> list:
    """Integer polynomial with value h at x and digits in (-x/2, x/2]."""
    out, half = [], x // 2
    while h:
        d = h % x
        if d > half:
            d -= x
        out.append(d)
        h = (h - d) // x
    return out


def _z_divide(f: tuple, h: tuple) -> tuple | None:
    """f / h if h divides f exactly in Z[v], else None."""
    dh = len(h) - 1
    nq = len(f) - dh
    if nq < 1:
        return None
    rem, lead, quo = list(f), h[-1], [0] * nq
    for k in range(nq - 1, -1, -1):
        c, r = divmod(rem[k + dh], lead)
        if r:
            return None
        if c:
            quo[k] = c
            for j in range(dh):
                rem[k + j] -= c * h[j]
    return None if any(rem[:dh]) else tuple(quo)


def _zi_gcd(a: tuple, b: tuple) -> tuple:
    """A gcd in Z[i] by Euclid with rounded quotients."""
    while b != (0, 0):
        (ar, ai), (br, bi) = a, b
        n = br * br + bi * bi
        qr = (2 * (ar * br + ai * bi) + n) // (2 * n)
        qi = (2 * (ai * br - ar * bi) + n) // (2 * n)
        a, b = b, (ar - qr * br + qi * bi, ai - qr * bi - qi * br)
    return a


def _zi_quo(a: tuple, b: tuple) -> tuple | None:
    """a / b if it lies in Z[i], else None."""
    (ar, ai), (br, bi) = a, b
    n = br * br + bi * bi
    qr, rr = divmod(ar * br + ai * bi, n)
    qi, ri = divmod(ai * br - ar * bi, n)
    return None if rr or ri else (qr, qi)


def _zi_content(p) -> tuple:
    """A gcd in Z[i] of the coefficients; (1, 0) once it is a unit."""
    content = (0, 0)
    for c in p:
        content = _zi_gcd(c, content)
        if content[0] * content[0] + content[1] * content[1] == 1:
            return 1, 0
    return content


def _zi_divide(f: tuple, h: tuple) -> tuple | None:
    """f / h if h divides f exactly in Z[i][v], else None."""
    dh = len(h) - 1
    nq = len(f) - dh
    if nq < 1:
        return None
    rem, lead, quo = list(f), h[-1], [(0, 0)] * nq
    for k in range(nq - 1, -1, -1):
        c = _zi_quo(rem[k + dh], lead)
        if c is None:
            return None
        if c != (0, 0):
            quo[k] = c
            cr, ci = c
            for j in range(dh):
                (rr, ri), (hr, hi) = rem[k + j], h[j]
                rem[k + j] = (rr - cr * hr + ci * hi, ri - cr * hi - ci * hr)
    return None if any(c != (0, 0) for c in rem[:dh]) else tuple(quo)


# The coefficient rings: constants, coefficient operations (content, exact
# quotient, product, the unit that normalizes a leading coefficient) and the
# polynomial operations the PRS gcd and the arithmetic need.
_Z = SimpleNamespace(
    zero=0, one=1, content=lambda p: math.gcd(*p),
    quo=operator.floordiv, times=operator.mul, unit=lambda c: 1 if c > 0 else -1,
    divide=_z_divide, pmul=_z_mul, padd=_z_add, pneg=lambda a: tuple(-x for x in a))
_ZI = SimpleNamespace(
    zero=(0, 0), one=(1, 0), gcd=_zi_gcd, content=_zi_content, quo=_zi_quo,
    times=_zi_times, unit=_zi_unit, divide=_zi_divide,
    pmul=_zi_mul, padd=_zi_add, pneg=lambda a: tuple((-x, -y) for x, y in a))


def _primitive(p: tuple, ring) -> tuple:
    """(content, primitive part) of a nonzero polynomial."""
    c = ring.content(p)
    return (c, p) if c == ring.one else (c, tuple(ring.quo(x, c) for x in p))


def _heu_cofactors(f: tuple, g: tuple) -> tuple | None:
    """(f/h, g/h) for a common factor h of two Z polynomials f and g that
    the heuristic finds and that divides both exactly, or None if it gives
    up."""
    # xi >= 2 min(|f|, |g|) + 2 makes an exact common divisor the gcd
    xi = 2 * min(max(map(abs, f)), max(map(abs, g))) + 29
    for _ in range(_HEU_TRIES):
        ff, gg = _z_eval(f, xi), _z_eval(g, xi)
        if ff and gg:
            h = _primitive(_z_digits(math.gcd(ff, gg), xi), _Z)[1]
            if len(h) == 1:
                return f, g
            a = _z_divide(f, h)
            b = _z_divide(g, h) if a is not None else None
            if b is not None:
                return a, b
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _rem_mod_p(a: list, b: list, p: int) -> list:
    a = list(a)
    inv, db = pow(b[-1], -1, p), len(b) - 1
    while len(a) > db:
        c = a.pop() * inv % p
        if c:
            off = len(a) - db
            for j in range(db):
                a[off + j] = (a[off + j] - c * b[j]) % p
    while a and not a[-1]:
        a.pop()
    return a


def _coprime_mod_p(a: tuple, b: tuple) -> bool:
    """Certify that two Z polynomials a and b share no factor of positive
    degree over Q.

    Mod p, a common factor over Z keeps its degree whenever neither leading
    coefficient vanishes, so a constant gcd of the images certifies
    coprimality.  False means only that nothing was certified."""
    if len(a) == 1 or len(b) == 1:
        return True
    p = _SCREEN_PRIME
    a, b = [c % p for c in a], [c % p for c in b]
    if not a[-1] or not b[-1]:
        return False
    while b:
        a, b = b, _rem_mod_p(a, b, p)
    return len(a) == 1


def _prs_gcd(f: tuple, g: tuple, ring) -> tuple:
    """A gcd of two nonzero polynomials by the primitive PRS: pseudo-
    remainders made primitive at every step (sympy's dup_rr_prs_gcd, with
    primitive remainders in place of subresultants).  The exact fallback of
    the heuristic, and the one gcd over Z[i]."""
    if len(f) < len(g):
        f, g = g, f
    while g:
        r = f
        while len(r) >= len(g):
            top = (ring.zero,) * (len(r) - len(g)) + _scale(g, r[-1], ring)
            r = ring.padd(_scale(r, g[-1], ring), ring.pneg(top))
        f, g = g, (_primitive(r, ring)[1] if r else r)
    return _primitive(f, ring)[1]


def _inflate(p: tuple, k: int, shift: int, zero) -> tuple:
    """v^shift * p(v^k)."""
    out = [zero] * (shift + (len(p) - 1) * k + 1)
    out[shift::k] = p
    return tuple(out)


def _cancel(f: tuple, g: tuple, ring) -> tuple:
    """(f/h, g/h) for h a gcd of f and g, two primitive polynomials not
    both divisible by v.

    Every gcd runs on the deflations: f = v^a F(v^k) and g = v^b G(v^k)
    with k the gcd of the exponents, and gcd(f, g) = gcd(F, G)(v^k) since
    v divides at most one of them.  Substituting v^k into a Bezout identity
    carries the certificate over from F/h and G/h.  The heuristic runs over
    Z only; a Z[i] pair goes straight to the PRS gcd."""
    zero = ring.zero
    a, b = _val(f, zero), _val(g, zero)
    f, g = f[a:], g[b:]
    k = math.gcd(*[e for p in (f, g) for e in compress(
        range(len(p)), p if ring is _Z else map(any, p))])
    if k > 1:
        f, g = f[::k], g[::k]
    cofactors = _heu_cofactors(f, g) if ring is _Z else None
    if cofactors is None or not _coprime_mod_p(*cofactors):
        h = _prs_gcd(f, g, ring)
        cofactors = ring.divide(f, h), ring.divide(g, h)
    f, g = cofactors
    if k > 1 or a or b:
        f, g = _inflate(f, k, a, zero), _inflate(g, k, b, zero)
    return f, g


def _axis(num: tuple, den: tuple) -> tuple | None:
    """(k, N, D) with num/den = i^k N/D for int tuples N and D and k = 0 or
    1, when num/den lies on an axis: int form, or pair form with a real den
    and a num that is real or purely imaginary.  None otherwise."""
    if type(den[0]) is int:
        return 0, num, den
    dre, dim = zip(*den)
    if any(dim):
        return None
    nre, nim = zip(*num) if num else ((), ())
    if not any(nre):
        return 1, nim, dre
    if not any(nim):
        return 0, nre, dre
    return None


def _imaginary(num: tuple, den: tuple) -> tuple:
    """The pair form of i num/den, for int tuples num and den."""
    return tuple([(0, c) for c in num]), tuple([(c, 0) for c in den])


def _reduce(num: tuple, den: tuple, k: int = 0) -> tuple:
    """The canonical (num, den) of i^k num/den, both in one form; k = 1 only
    for int tuples.

    A fraction on an axis is reduced over Z: N/D reduced has content one and
    lc(D) > 0, and real polynomials have the same gcd over Q(i) as over Q,
    so (i N, D) of the reduced N/D is already canonical over Z[i]."""
    ring = _Z
    if den and type(den[0]) is tuple:
        axis = _axis(num, den)
        if axis:
            return _reduce(axis[1], axis[2], axis[0])
        ring = _ZI
    zero = ring.zero
    num, den = _trim(num, zero), _trim(den, zero)
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return (), (1,)
    low = _val(den, zero)
    # a den that is not a monomial needs a gcd
    cancel = low < len(den) - 1
    shift = min(_val(num, zero), low)
    if shift:
        num, den = num[shift:], den[shift:]
    if ring is _ZI:
        cf, f = _primitive(num, ring)
        cg, g = _primitive(den, ring)
        if cancel:
            f, g = _cancel(f, g, ring)
        d = ring.gcd(cf, cg)
        n, m = ring.quo(cf, d), ring.quo(cg, d)
        u = ring.unit(ring.times(m, g[-1]))
        num, den = _scale(f, ring.times(n, u), ring), _scale(g, ring.times(m, u), ring)
        if not any(c[1] for c in num) and not any(c[1] for c in den):
            return tuple(c[0] for c in num), tuple(c[0] for c in den)
        return num, den
    cf, cg = math.gcd(*num), math.gcd(*den)
    f = num if cf == 1 else tuple([c // cf for c in num])
    g = den if cg == 1 else tuple([c // cg for c in den])
    if cancel:
        f, g = _cancel(f, g, _Z)
    d = math.gcd(cf, cg)
    n, m = cf // d, cg // d
    if g[-1] < 0:
        n, m = -n, -m
    num = f if n == 1 else tuple([c * n for c in f])
    den = g if m == 1 else tuple([c * m for c in g])
    return _imaginary(num, den) if k else (num, den)


def _with_unit_lead(num: tuple, den: tuple, ring) -> tuple:
    """num and den times the unit that puts lc(den) in canonical position."""
    u = ring.unit(den[-1])
    return _scale(num, u, ring), _scale(den, u, ring)


def _ring_of(x: "FieldElem"):
    return _ZI if type(x.den[0]) is tuple else _Z


def _lift(x: "FieldElem", y: "FieldElem", on_axis: bool = True) -> tuple:
    """(ring, j, an, ad, k, bn, bd) with x = i^j an/ad and y = i^k bn/bd:
    over Z when x and y both lie on an axis (and on_axis), else over Z[i]
    with j = k = 0."""
    if type(x.den[0]) is int and type(y.den[0]) is int:
        return _Z, 0, x.num, x.den, 0, y.num, y.den
    a = on_axis and _axis(x.num, x.den)
    b = a and _axis(y.num, y.den)
    if b:
        return (_Z,) + a + b
    return _ZI, 0, _pairs(x.num), _pairs(x.den), 0, _pairs(y.num), _pairs(y.den)


def _monomial_axis(x: "FieldElem"):
    """`_axis` of x, (k, N, D), when x has a monomial den c v^m; then False
    if x is off the axes.  None when the den is not a monomial."""
    den = x.den
    if type(den[0]) is int:
        return (0, x.num, den) if den.count(0) == len(den) - 1 else None
    if den.count((0, 0)) == len(den) - 1:
        return _axis(x.num, den) or False
    return None


def _over_monomial(num, c: int, m: int, k: int) -> tuple:
    """The canonical (num, den) of i^k num/(c v^m), for a nonzero trimmed
    int sequence num and c > 0: cancel the common power of v and the
    common content, with no gcd of polynomials."""
    if m and not num[0]:
        shift = min(_val(num, 0), m)
        num, m = num[shift:], m - shift
    if c != 1:
        d = math.gcd(c, *num)
        if d != 1:
            num, c = [x // d for x in num], c // d
    num, den = tuple(num), (0,) * m + (c,)
    return _imaginary(num, den) if k else (num, den)


def _monomial_product(a: tuple, b: tuple) -> tuple:
    """The canonical (num, den) of x * y, for a and b the `_axis` of x and
    y, both nonzero with monomial dens."""
    j, an, ad = a
    k, bn, bd = b
    num = _z_mul(an, bn)
    if j & k:
        num = [-x for x in num]     # i * i = -1
    return _over_monomial(num, ad[-1] * bd[-1], len(ad) + len(bd) - 2, j ^ k)


def _monomial_sum(a: tuple, b: tuple) -> tuple:
    """The canonical (num, den) of x + y, for a and b the `_axis` of x and
    y, both nonzero with monomial dens on the same axis."""
    k, an, ad = a
    _, bn, bd = b
    c, e = ad[-1], bd[-1]
    if c != e:
        # both over lcm(c, e)
        g = math.gcd(c, e)
        an, bn = _z_mul(an, (e // g,)), _z_mul(bn, (c // g,))
        c = c // g * e
    m, n = len(ad) - 1, len(bd) - 1
    if m != n:
        # both over v^max(m, n)
        an, bn, m = (0,) * (n - m) + an, (0,) * (m - n) + bn, max(m, n)
    num = _z_add(an, bn)
    return _over_monomial(num, c, m, k) if num else ((), (1,))


def _product(x: "FieldElem", y: "FieldElem") -> tuple:
    """The canonical (num, den) of x * y, for x and y nonzero."""
    ring, j, an, ad, k, bn, bd = _lift(x, y)
    num = ring.pmul(an, bn)
    if j & k:
        num = ring.pneg(num)    # i * i = -1
    return _reduce(num, ring.pmul(ad, bd), j ^ k)


def _sum(x: "FieldElem", y: "FieldElem") -> tuple:
    """The canonical (num, den) of x + y, for x and y nonzero."""
    ring, j, an, ad, k, bn, bd = _lift(x, y)
    if j != k:
        # a real value plus an imaginary one is mixed
        ring, j, an, ad, k, bn, bd = _lift(x, y, on_axis=False)
    if ad == bd:
        num, den = ring.padd(an, bn), ad
    else:
        num, den = ring.padd(ring.pmul(an, bd), ring.pmul(bn, ad)), ring.pmul(ad, bd)
    return _reduce(num, den, k)


_MEMO_SIZE = 256


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _memo(op, x: "FieldElem", y: "FieldElem") -> tuple:
    """op(x, y) for op `_product` or `_sum`, remembered for the _MEMO_SIZE
    most recently used (op, x, y); x and y are compared by their tuples."""
    return op(x, y)


ROOT_ORDERS = (1, 2, 4)


class Field:
    """The coefficient field Q(i)(v) with v**root_order = q.

    root_order is 1, 2 or 4; the default of 2 accommodates every half-integer
    q-power the rank-one theory needs.
    """

    def __init__(self, root_order: int = 2):
        if root_order not in ROOT_ORDERS:
            raise ValueError("root_order must be 1, 2 or 4")
        self.root_order = root_order
        self.zero = FieldElem(self, (), (1,), _normalized=True)
        self.one = FieldElem(self, (1,), (1,), _normalized=True)
        self.v = FieldElem(self, (0, 1), (1,), _normalized=True)
        self.i = FieldElem(self, ((0, 1),), ((1, 0),), _normalized=True)
        self.q = self.v ** root_order
        self._qint_cache = {}
        self._qfact_cache = {}

    def __eq__(self, other):
        return isinstance(other, Field) and other.root_order == self.root_order

    def __hash__(self):
        return hash(("Field", self.root_order))

    def __repr__(self):
        return f"Field(root_order={self.root_order})"

    def rational(self, x) -> "FieldElem":
        x = x if type(x) is int else Fraction(x)
        return FieldElem(self, (x.numerator,) if x else (), (x.denominator,),
                         _normalized=True)

    def coerce(self, x) -> "FieldElem":
        if isinstance(x, FieldElem):
            if x.field.root_order != self.root_order:
                raise ValueError("mixing scalars of different root orders")
            return x
        if isinstance(x, (int, Fraction)):
            return self.rational(x)
        raise TypeError(f"cannot coerce {x!r} into {self!r}")

    def v_power(self, m: int) -> "FieldElem":
        if m >= 0:
            return FieldElem(self, (0,) * m + (1,), (1,), _normalized=True)
        return FieldElem(self, (1,), (0,) * (-m) + (1,), _normalized=True)

    def q_power(self, e) -> "FieldElem":
        """q**e for a rational exponent e, if representable at this root order."""
        if type(e) is int:
            return self.v_power(e * self.root_order)
        e = Fraction(e)
        m = e * self.root_order
        if m.denominator != 1:
            raise UnrepresentableScalar(
                f"q^{e} is not representable at root order {self.root_order}")
        return self.v_power(int(m))

    def qint(self, n: int, d_i: int = 1) -> "FieldElem":
        """Quantum integer [n] in q_i = q**d_i."""
        if n == 0:
            return self.zero
        if n < 0:
            return -self.qint(-n, d_i)
        key = (n, d_i)
        if key not in self._qint_cache:
            step = self.root_order * d_i
            out = self.zero
            for k in range(n):
                out = out + self.v_power(step * (n - 1 - 2 * k))
            self._qint_cache[key] = out
        return self._qint_cache[key]

    def qfact(self, n: int, d_i: int = 1) -> "FieldElem":
        key = (n, d_i)
        if key not in self._qfact_cache:
            out = self.one
            for k in range(1, n + 1):
                out = out * self.qint(k, d_i)
            self._qfact_cache[key] = out
        return self._qfact_cache[key]

    def qbinom(self, n: int, k: int, d_i: int = 1) -> "FieldElem":
        """Divided-power coefficient [n choose k] in q_i."""
        if k < 0 or k > n:
            return self.zero
        num = self.one
        for j in range(k):
            num = num * self.qint(n - j, d_i)
        return num / self.qfact(k, d_i)


class FieldElem:
    """Element of Q(i)(v), stored as a reduced fraction num/den of integer
    coefficient tuples in the canonical form of the module docstring."""

    __slots__ = ("field", "num", "den", "_hash")

    def __init__(self, field: Field, num: tuple, den: tuple, _normalized=False):
        """num and den are coefficient tuples in one form, den nonzero."""
        self.field = field
        self._hash = None
        if not _normalized:
            num, den = _reduce(num, den)
        self.num, self.den = num, den

    # -- ring structure -------------------------------------------------

    def _co(self, other) -> "FieldElem":
        if type(other) is FieldElem and other.field is self.field:
            return other
        return self.field.coerce(other)

    def __bool__(self):
        return bool(self.num)

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._co(other)
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __add__(self, other):
        other = self._co(other)
        if not self.num:
            return other
        if not other.num:
            return self
        a, b = _monomial_axis(self), _monomial_axis(other)
        if a and b and a[0] == b[0]:
            num, den = _monomial_sum(a, b)
            if not num:
                return self.field.zero
        elif a is None or b is None:
            num, den = _memo(_sum, self, other)
        else:
            # monomial dens, a mixed sum or a value off the axes
            num, den = _sum(self, other)
        return FieldElem(self.field, num, den, _normalized=True)

    __radd__ = __add__

    def __neg__(self):
        return FieldElem(self.field, _ring_of(self).pneg(self.num), self.den,
                         _normalized=True)

    def __sub__(self, other):
        other = self._co(other)
        return self + (-other) if other.num else self

    def __rsub__(self, other):
        return self._co(other) - self

    def __mul__(self, other):
        other = self._co(other)
        if not self.num or not other.num:
            return self.field.zero
        a, b = _monomial_axis(self), _monomial_axis(other)
        if a and b:
            num, den = _monomial_product(a, b)
        elif a is None or b is None:
            num, den = _memo(_product, self, other)
        else:
            # monomial dens, a value off the axes
            num, den = _product(self, other)
        return FieldElem(self.field, num, den, _normalized=True)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElem":
        if not self.num:
            raise ZeroDivisionError("inverting zero")
        num, den = _with_unit_lead(self.den, self.num, _ring_of(self))
        return FieldElem(self.field, num, den, _normalized=True)

    def __truediv__(self, other):
        return self * self._co(other).inverse()

    def __rtruediv__(self, other):
        return self._co(other) * self.inverse()

    def __pow__(self, n: int):
        """Square and multiply: at most 2 log2|n| products."""
        if n == 0:
            return self.field.one
        base = self if n > 0 else self.inverse()
        n, out = abs(n), None
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    # -- the bar involution ---------------------------------------------

    def bar(self) -> "FieldElem":
        """Substitute v -> 1/v (so q -> 1/q); i is fixed.

        N(1/v) / D(1/v) = v^(deg D - deg N) rev(N) / rev(D), with rev the
        coefficient reversal; content and coprimality are unchanged."""
        if not self.num:
            return self
        ring = _ring_of(self)
        shift = len(self.den) - len(self.num)
        num = (ring.zero,) * max(shift, 0) + _trim(self.num[::-1], ring.zero)
        den = (ring.zero,) * max(-shift, 0) + _trim(self.den[::-1], ring.zero)
        num, den = _with_unit_lead(num, den, ring)
        return FieldElem(self.field, num, den, _normalized=True)

    # -- monomial structure ----------------------------------------------

    def as_monomial(self) -> "tuple[FieldElem, int] | None":
        """Return (constant coefficient, v-exponent) if this is c*v^m, else None."""
        if not self.num:
            return None
        zero = _ring_of(self).zero
        jn, jd = _val(self.num, zero), _val(self.den, zero)
        if jn != len(self.num) - 1 or jd != len(self.den) - 1:
            return None
        return FieldElem(self.field, self.num[-1:], self.den[-1:]), jn - jd

    def monomial_sqrt(self) -> "FieldElem | None":
        """Principal square root of a monomial, or None.

        Succeeds when this element is u*v^m with u a square in Q(i) and m
        even; absence is a value, not an error.
        """
        if not self.num:
            return self.field.zero
        mono = self.as_monomial()
        if mono is None:
            return None
        coeff, m = mono
        if m % 2 != 0:
            return None
        root = _principal_sqrt(*_coeff_pair(coeff.num[0], coeff.den[0]))
        if root is None:
            return None
        return _gaussian(self.field, *root) * self.field.v_power(m // 2)

    def field_sqrt(self) -> "FieldElem | None":
        """Exact square root inside the field, or None.

        Writes num*den as (square coefficient) * v^(even) * (polynomial)^2 and
        divides the polynomial root by the denominator; the root is returned
        only if its square is exactly this element.  The branch is fixed by
        the principal root of the leading coefficient.
        """
        if not self.num:
            return self.field.zero
        mono_root = self.monomial_sqrt()
        if mono_root is not None:
            return mono_root
        field, ring = self.field, _ring_of(self)
        prod = ring.pmul(self.num, self.den)
        val = _val(prod, ring.zero)
        lead_root = _principal_sqrt(*_coeff_pair(prod[-1]))
        if val % 2 or (len(prod) - val) % 2 == 0 or lead_root is None:
            return None
        # the monic s with s^2 = q / lc(q), q = prod / v^val, top half first:
        # the coefficient of v^(d+k) in s^2 is 2 s_k plus cross terms
        q = [FieldElem(field, (c,), (ring.one,)) for c in prod[val:]]
        inv, half = q[-1].inverse(), field.rational(Fraction(1, 2))
        d = (len(q) - 1) // 2
        s = [field.zero] * d + [field.one]
        for k in range(d - 1, -1, -1):
            acc = q[d + k] * inv
            for a in range(k + 1, d):
                acc = acc - s[a] * s[d + k - a]
            s[k] = acc * half
        root = field.zero
        for c in reversed(s):
            root = root * field.v + c
        root = (root * _gaussian(field, *lead_root) * field.v_power(val // 2)
                / FieldElem(field, self.den, (ring.one,)))
        return root if root * root == self else None

    # -- canonical serialization ------------------------------------------

    def _poly_str(self, poly: tuple) -> str:
        """A polynomial with (re, im) coefficients, highest degree first."""
        terms = []
        for e in range(len(poly) - 1, -1, -1):
            c = poly[e]
            if not any(c):
                continue
            if e == 0:
                terms.append(_coeff_str(*c))
            else:
                vpart = "v" if e == 1 else f"v^{e}"
                if c == (1, 0):
                    terms.append(vpart)
                elif c == (-1, 0):
                    terms.append(f"-{vpart}")
                else:
                    terms.append(f"{_coeff_str(*c)}*{vpart}")
        return " + ".join(terms)

    def serialize(self) -> str:
        """The fraction with a monic denominator over Q(i), as text."""
        if not self.num:
            return "0"
        num, den = ([_coeff_pair(c, self.den[-1]) for c in p] for p in (self.num, self.den))
        ns = self._poly_str(num)
        if len(den) == 1:
            return ns
        if sum(1 for c in num if any(c)) > 1:
            ns = f"({ns})"
        ds = self._poly_str(den)
        if sum(1 for c in den if any(c)) > 1:
            ds = f"({ds})"
        return f"{ns} / {ds}"

    def __str__(self):
        return self.serialize()

    def __repr__(self):
        return f"<{self.serialize()}>"


# -- parsing -------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|[a-zA-Z]+|\*\*|[-+*/^()])")


def _tokenize(text: str) -> list:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ScalarParseError(f"cannot tokenize {text[pos:]!r}")
        tok = m.group(1)
        out.append("^" if tok == "**" else tok)
        pos = m.end()
    return out


class _Parser:
    """Recursive-descent parser for scalar literals over q, v, i and rationals."""

    def __init__(self, tokens: list, field: Field):
        self.toks = tokens
        self.pos = 0
        self.field = field

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, expect=None):
        tok = self.peek()
        if tok is None:
            raise ScalarParseError("unexpected end of literal"
                                   + (f", expected {expect!r}" if expect else ""))
        if expect is not None and tok != expect:
            raise ScalarParseError(f"expected {expect!r}, found {tok!r}")
        self.pos += 1
        return tok

    def parse(self) -> FieldElem:
        out = self.expr()
        if self.peek() is not None:
            raise ScalarParseError(f"trailing input {self.toks[self.pos:]!r}")
        return out

    def expr(self) -> FieldElem:
        out = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self) -> FieldElem:
        out = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            out = out * rhs if op == "*" else out / rhs
        return out

    def factor(self) -> FieldElem:
        if self.peek() in ("-", "+"):
            return -self.factor() if self.take() == "-" else self.factor()
        base = self.atom()
        if self.peek() == "^":
            self.take()
            e = self.exponent()
            if e.denominator == 1:
                return base ** int(e)
            mono = base.as_monomial()
            if mono is None or mono[0] != self.field.one:
                raise ScalarParseError("fractional powers only apply to powers of q or v")
            return self.field.v_power(_exact_int(Fraction(mono[1]) * e))
        return base

    def exponent(self) -> Fraction:
        neg = False
        if self.peek() in ("-", "+"):
            neg = self.take() == "-"
        if self.peek() == "(":
            self.take("(")
            out = self.exponent_body()
            self.take(")")
        else:
            out = self.exponent_body()
        return -out if neg else out

    def exponent_body(self) -> Fraction:
        tok = self.take()
        if not tok[0].isdigit():
            raise ScalarParseError(f"bad exponent {tok!r}")
        if "/" in tok:
            return Fraction(tok)
        num = int(tok)
        # a '/' not followed by digits divides the whole power: q^2/q
        if self.peek() == "/" and self.pos + 1 < len(self.toks) \
                and self.toks[self.pos + 1].isdigit():
            self.take()
            return Fraction(num, int(self.take()))
        return Fraction(num)

    def atom(self) -> FieldElem:
        tok = self.peek()
        if tok == "(":
            self.take("(")
            out = self.expr()
            self.take(")")
            return out
        tok = self.take()
        if tok == "q":
            return self.field.q
        if tok == "v":
            return self.field.v
        if tok == "i":
            return self.field.i
        if tok == "sqrt":
            self.take("(")
            arg = self.expr()
            self.take(")")
            root = arg.monomial_sqrt()
            if root is None:
                raise UnrepresentableScalar(f"sqrt({arg}) is not a representable monomial")
            return root
        if tok[0].isdigit():
            return self.field.rational(Fraction(tok))
        raise ScalarParseError(f"unexpected token {tok!r}")


def _exact_int(x: Fraction) -> int:
    if x.denominator != 1:
        raise UnrepresentableScalar(f"exponent {x} is not an integer in v")
    return x.numerator


def parse_scalar(text: str, field: Field) -> FieldElem:
    """Parse a scalar literal such as '-q^-2', 'q^(1/2)' or 'sqrt(-1*q^3)'."""
    return _Parser(_tokenize(text), field).parse()
