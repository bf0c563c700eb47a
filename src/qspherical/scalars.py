"""Exact arithmetic in Q(i)(v) with v**d = q.

Every scalar in this package is a rational function in a fixed root v of q,
with Gaussian-rational coefficients.  Elements are kept in a canonical form
(reduced fraction, monic denominator) so that equality is plain structural
comparison.  The bar involution maps v to 1/v and fixes i.

A fraction is reduced in integer arithmetic: numerator and denominator are
scaled to polynomials over Z (or Z[i]), a common factor is found by the
heuristic GCD, and it is accepted only if it divides both exactly and the
cofactors are certified coprime modulo a prime p = 1 (mod 4).  The
certificate only ever confirms; when the heuristic gives up or a check
fails, Euclid over Q(i) reduces the fraction instead.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import zip_longest


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


class QI:
    """A Gaussian rational a + b*i.

    Parts stay native ints whenever possible; Fractions only appear after
    genuine divisions, which keeps the inner arithmetic fast.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is int else Fraction(re)
        self.im = im if type(im) is int else Fraction(im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if not isinstance(other, QI):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        return QI(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return QI(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return QI(-self.re, -self.im)

    def __mul__(self, other):
        a, b, c, d = self.re, self.im, other.re, other.im
        if b == 0 and d == 0:
            return QI(a * c, 0)
        return QI(a * c - b * d, a * d + b * c)

    def inverse(self) -> "QI":
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("division by zero in Q(i)")
        return QI(Fraction(self.re) / n, -Fraction(self.im) / n)

    def __truediv__(self, other):
        if other.im == 0:
            if other.re == 0:
                raise ZeroDivisionError("division by zero in Q(i)")
            d = Fraction(other.re)
            return QI(self.re / d, self.im / d)
        return self * other.inverse()

    def sqrt(self) -> "QI | None":
        """Principal square root inside Q(i), or None.

        Principal branch: nonnegative real part; for negative rationals the
        root with positive imaginary part.
        """
        if not self:
            return QI(0, 0)
        if self.im == 0:
            r = _frac_sqrt(self.re)
            if r is not None:
                return QI(r, 0)
            r = _frac_sqrt(-self.re)
            if r is not None:
                return QI(0, r)
            return None
        norm = _frac_sqrt(self.re * self.re + self.im * self.im)
        if norm is None:
            return None
        x2 = (self.re + norm) / 2
        x = _frac_sqrt(x2)
        if x is None or x == 0:
            return None
        y = self.im / (2 * x)
        return QI(x, y)

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}*i"
        im_part = "i" if self.im == 1 else ("-i" if self.im == -1 else f"{self.im}*i")
        if im_part.startswith("-"):
            return f"({self.re}{im_part})"
        return f"({self.re}+{im_part})"

    __repr__ = __str__


_QI_ZERO = QI(0, 0)
_QI_ONE = QI(1, 0)


# Polynomials in v are tuples of QI coefficients, lowest degree first,
# trimmed of trailing zeros.  The zero polynomial is the empty tuple.

def _ptrim(c: list) -> tuple:
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return tuple(c[:n])


def _padd(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, x in enumerate(b):
        out[k] = out[k] + x
    return _ptrim(out)


def _pneg(a: tuple) -> tuple:
    return tuple(-x for x in a)


def _pmul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [_QI_ZERO] * (len(a) + len(b) - 1)
    for j, x in enumerate(a):
        if not x:
            continue
        for k, y in enumerate(b):
            if y:
                out[j + k] = out[j + k] + x * y
    return _ptrim(out)


def _pscale(a: tuple, s: QI) -> tuple:
    if not s:
        return ()
    return tuple(x * s for x in a)


def _psub_poly(a: tuple, b: tuple) -> tuple:
    return _padd(a, _pneg(b))


def _pdivmod(a: tuple, b: tuple) -> tuple:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    db, lb = len(b) - 1, b[-1]
    lbinv = lb.inverse()
    quo = [_QI_ZERO] * max(0, len(a) - db)
    while len(rem) - 1 >= db and any(rem):
        while rem and not rem[-1]:
            rem.pop()
        if len(rem) - 1 < db:
            break
        k = len(rem) - 1 - db
        c = rem[-1] * lbinv
        quo[k] = c
        for off in range(db + 1):
            rem[k + off] = rem[k + off] - c * b[off]
        rem.pop()
    return _ptrim(quo), _ptrim(rem)


def _pgcd(a: tuple, b: tuple) -> tuple:
    while b:
        _, r = _pdivmod(a, b)
        a, b = b, r
        if a and a[-1] != _QI_ONE:
            a = _pscale(a, a[-1].inverse())
    if a and a[-1] != _QI_ONE:
        a = _pscale(a, a[-1].inverse())
    return a


def _euclid_reduce(num: tuple, den: tuple) -> tuple:
    """Canonical (num, den) of num/den by Euclid over Q(i): the exact fallback
    of the integer reduction."""
    g = _pgcd(num, den)
    if len(g) > 1:
        num, _ = _pdivmod(num, g)
        den, _ = _pdivmod(den, g)
    lead = den[-1]
    if lead != _QI_ONE:
        inv = lead.inverse()
        num = _pscale(num, inv)
        den = _pscale(den, inv)
    return num, den


# -- integer reduction ---------------------------------------------------
#
# num and den are scaled to coefficient lists over Z (ints) or, when either
# is not real, over Z[i] ((re, im) int pairs), lowest degree first.  The
# heuristic GCD (Char, Geddes and Gonnet 1989, "GCDHEU"; sympy's
# dup_zz_heu_gcd) evaluates both at an integer xi, takes one gcd of the two
# values and reads a candidate common factor off the symmetric base-xi digits
# of that gcd.  The candidate is accepted only if it divides both exactly and
# the two cofactors are certified coprime modulo the screen prime.

_SCREEN_PRIME = 1000000009


def _imaginary_unit_mod():
    p = _SCREEN_PRIME
    for g in range(2, 50):
        s = pow(g, (p - 1) // 4, p)
        if s * s % p == p - 1:
            return s
    return None


# p = 1 mod 4, so i -> _SCREEN_ROOT is a ring map Z[i] -> GF(p)
_SCREEN_ROOT = _imaginary_unit_mod()

_HEU_TRIES = 6


def _z_eval(f: list, x: int) -> int:
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


def _z_primitive(h: list) -> list:
    content = math.gcd(*h)
    return [c // content for c in h]


def _z_divide(f: list, h: list) -> list | None:
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
    return None if any(rem[:dh]) else quo


def _zi_eval(f: list, x: int) -> tuple:
    re = im = 0
    for a, b in reversed(f):
        re, im = re * x + a, im * x + b
    return re, im


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


def _zi_digits(h: tuple, x: int) -> list:
    return list(zip_longest(_z_digits(h[0], x), _z_digits(h[1], x), fillvalue=0))


def _zi_primitive(h: list) -> list:
    content = (0, 0)
    for c in h:
        content = _zi_gcd(c, content)
    return [_zi_quo(c, content) for c in h]


def _zi_divide(f: list, h: list) -> list | None:
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
    return None if any(c != (0, 0) for c in rem[:dh]) else quo


# ring operations of the heuristic: zero, norm, eval, gcd, digits,
# primitive part, exact division
_Z_OPS = (0, lambda f: max(map(abs, f)), _z_eval, math.gcd, _z_digits,
          _z_primitive, _z_divide)
_ZI_OPS = ((0, 0), lambda f: max(max(abs(re), abs(im)) for re, im in f),
           _zi_eval, _zi_gcd, _zi_digits, _zi_primitive, _zi_divide)


def _heu_cofactors(f: list, g: list, ops: tuple) -> tuple | None:
    """(f/h, g/h) for a common factor h of f and g that the heuristic finds
    and that divides both exactly, or None if it gives up."""
    zero, norm, evaluate, gcd, digits, primitive, divide = ops
    # xi >= 2 min(|f|, |g|) + 2 makes an exact common divisor the gcd
    xi = 2 * min(norm(f), norm(g)) + 29
    for _ in range(_HEU_TRIES):
        ff, gg = evaluate(f, xi), evaluate(g, xi)
        if ff != zero and gg != zero:
            h = primitive(digits(gcd(ff, gg), xi))
            if len(h) == 1:
                return f, g
            a = divide(f, h)
            b = divide(g, h) if a is not None else None
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


def _coprime_mod_p(a: list, b: list, gaussian: bool) -> bool:
    """Certify that a and b share no factor of positive degree over Q(i).

    Under i -> _SCREEN_ROOT mod p, a common factor over Z[i] keeps its degree
    whenever neither leading coefficient vanishes, so a constant gcd of the
    images certifies coprimality.  False means only that nothing was
    certified."""
    if len(a) == 1 or len(b) == 1:
        return True
    p, s = _SCREEN_PRIME, _SCREEN_ROOT
    if gaussian:
        if s is None:
            return False
        a = [(re + s * im) % p for re, im in a]
        b = [(re + s * im) % p for re, im in b]
    else:
        a = [c % p for c in a]
        b = [c % p for c in b]
    if not a[-1] or not b[-1]:
        return False
    while b:
        a, b = b, _rem_mod_p(a, b, p)
    return len(a) == 1


def _integer_poly(p: tuple, gaussian: bool) -> tuple:
    """(coefficients, scale) with p = scale * coefficients, the coefficients
    primitive ints, or (re, im) int pairs when gaussian."""
    lcm = 1
    for c in p:
        lcm = math.lcm(lcm, c.re.denominator, c.im.denominator)
    if gaussian:
        coeffs = [(c.re.numerator * (lcm // c.re.denominator),
                   c.im.numerator * (lcm // c.im.denominator)) for c in p]
        content = math.gcd(*(x for c in coeffs for x in c))
        return [(re // content, im // content) for re, im in coeffs], Fraction(content, lcm)
    coeffs = [c.re.numerator * (lcm // c.re.denominator) for c in p]
    content = math.gcd(*coeffs)
    return [c // content for c in coeffs], Fraction(content, lcm)


def _ratio(n: int, d: int):
    return n // d if n % d == 0 else Fraction(n, d)


def _heu_reduce(num: tuple, den: tuple) -> tuple | None:
    """Canonical (num, den) of num/den by integer arithmetic, or None when
    the heuristic gives up or the certificate fails."""
    gaussian = any(c.im for c in num) or any(c.im for c in den)
    f, sf = _integer_poly(num, gaussian)
    g, sg = _integer_poly(den, gaussian)
    cofactors = _heu_cofactors(f, g, _ZI_OPS if gaussian else _Z_OPS)
    if cofactors is None or not _coprime_mod_p(*cofactors, gaussian):
        return None
    a, b = cofactors
    # num/den = (a/b) * r; divide both by the leading coefficient of b
    r = sf / sg
    if gaussian:
        lr, li = b[-1]
        n = lr * lr + li * li
        mr, mi = lr * r.numerator, -li * r.numerator
        d = n * r.denominator
        num = tuple(QI(_ratio(re * mr - im * mi, d), _ratio(re * mi + im * mr, d))
                    for re, im in a)
        den = tuple(QI(_ratio(re * lr + im * li, n), _ratio(im * lr - re * li, n))
                    for re, im in b)
    else:
        lead = b[-1]
        m, d = r.numerator, lead * r.denominator
        num = tuple(QI(_ratio(c * m, d), 0) for c in a)
        den = tuple(QI(_ratio(c, lead), 0) for c in b)
    return num, den


def _pval(a: tuple) -> int:
    """Order of vanishing at v = 0."""
    for k, x in enumerate(a):
        if x:
            return k
    return 0


def _monic_poly_sqrt(q: tuple) -> tuple | None:
    """Exact square root of a monic polynomial of even degree, or None."""
    deg = len(q) - 1
    if deg % 2:
        return None
    d = deg // 2
    s = [_QI_ZERO] * (d + 1)
    s[d] = _QI_ONE
    half = QI(Fraction(1, 2))
    for k in range(d - 1, -1, -1):
        # match the coefficient of v^(d+k) in s^2: it is 2 s_k + cross terms
        acc = _QI_ZERO
        for a in range(k + 1, d):
            b = d + k - a
            if k < b < d:
                acc = acc + s[a] * s[b]
        target = q[d + k] if d + k < len(q) else _QI_ZERO
        s[k] = (target - acc) * half
    cand = _ptrim(s)
    if _pmul(cand, cand) == _ptrim(list(q)):
        return cand
    return None


class Field:
    """The coefficient field Q(i)(v) with v**root_order = q.

    root_order is 1, 2 or 4; the default of 2 accommodates every half-integer
    q-power the rank-one theory needs.
    """

    def __init__(self, root_order: int = 2):
        if root_order not in (1, 2, 4):
            raise ValueError("root_order must be 1, 2 or 4")
        self.root_order = root_order
        self.zero = FieldElem(self, (), (_QI_ONE,), _normalized=True)
        self.one = FieldElem(self, (_QI_ONE,), (_QI_ONE,), _normalized=True)
        self.v = FieldElem(self, (_QI_ZERO, _QI_ONE), (_QI_ONE,), _normalized=True)
        self.i = FieldElem(self, (QI(0, 1),), (_QI_ONE,), _normalized=True)
        self.q = self.v ** root_order
        self._qint_cache = {}
        self._qfact_cache = {}

    def __eq__(self, other):
        return isinstance(other, Field) and other.root_order == self.root_order

    def __hash__(self):
        return hash(("Field", self.root_order))

    def __repr__(self):
        return f"Field(root_order={self.root_order})"

    def from_qi(self, c: QI) -> "FieldElem":
        return FieldElem(self, (c,) if c else (), (_QI_ONE,), _normalized=True)

    def rational(self, x) -> "FieldElem":
        return self.from_qi(QI(Fraction(x)))

    def coerce(self, x) -> "FieldElem":
        if isinstance(x, FieldElem):
            if x.field.root_order != self.root_order:
                raise ValueError("mixing scalars of different root orders")
            return x
        if isinstance(x, QI):
            return self.from_qi(x)
        if isinstance(x, (int, Fraction)):
            return self.rational(x)
        raise TypeError(f"cannot coerce {x!r} into {self!r}")

    def v_power(self, m: int) -> "FieldElem":
        if m >= 0:
            return FieldElem(self, tuple([_QI_ZERO] * m + [_QI_ONE]), (_QI_ONE,))
        return FieldElem(self, (_QI_ONE,), tuple([_QI_ZERO] * (-m) + [_QI_ONE]))

    def q_power(self, e) -> "FieldElem":
        """q**e for a rational exponent e, if representable at this root order."""
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
    """Element of Q(i)(v), stored as a reduced fraction with monic denominator."""

    __slots__ = ("field", "num", "den", "_hash")

    def __init__(self, field: Field, num: tuple, den: tuple, _normalized=False):
        self.field = field
        self._hash = None
        if _normalized:
            self.num, self.den = num, den
            return
        num = _ptrim(list(num))
        den = _ptrim(list(den))
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.num, self.den = (), (_QI_ONE,)
            return
        # fast path: monomial denominator only needs a v-power cancellation
        if sum(1 for x in den if x) == 1:
            dval = _pval(den)
            shift = min(dval, _pval(num))
            if shift:
                num = num[shift:]
                den = den[shift:]
            lead = den[-1]
            if lead != _QI_ONE:
                inv = lead.inverse()
                num = _pscale(num, inv)
                den = _pscale(den, inv)
            self.num, self.den = num, den
            return
        self.num, self.den = _heu_reduce(num, den) or _euclid_reduce(num, den)

    # -- ring structure -------------------------------------------------

    def _co(self, other) -> "FieldElem":
        return self.field.coerce(other)

    def __bool__(self):
        return bool(self.num)

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QI)):
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
        num = _padd(_pmul(self.num, other.den), _pmul(other.num, self.den))
        return FieldElem(self.field, num, _pmul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        return FieldElem(self.field, _pneg(self.num), self.den, _normalized=True)

    def __sub__(self, other):
        return self + (-self._co(other))

    def __rsub__(self, other):
        return self._co(other) - self

    def __mul__(self, other):
        other = self._co(other)
        if not self.num or not other.num:
            return self.field.zero
        return FieldElem(self.field, _pmul(self.num, other.num),
                         _pmul(self.den, other.den))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElem":
        if not self.num:
            raise ZeroDivisionError("inverting zero")
        return FieldElem(self.field, self.den, self.num)

    def __truediv__(self, other):
        return self * self._co(other).inverse()

    def __rtruediv__(self, other):
        return self._co(other) * self.inverse()

    def __pow__(self, n: int):
        if n == 0:
            return self.field.one
        base = self if n > 0 else self.inverse()
        out = self.field.one
        for _ in range(abs(n)):
            out = out * base
        return out

    # -- the bar involution ---------------------------------------------

    def bar(self) -> "FieldElem":
        """Substitute v -> 1/v (so q -> 1/q); i is fixed."""
        if not self.num:
            return self
        rn = tuple(reversed(self.num))
        rd = tuple(reversed(self.den))
        shift = (len(self.den) - 1) - (len(self.num) - 1)
        if shift >= 0:
            num = _pmul(rn, tuple([_QI_ZERO] * shift + [_QI_ONE])) if shift else rn
            den = rd
        else:
            num = rn
            den = _pmul(rd, tuple([_QI_ZERO] * (-shift) + [_QI_ONE]))
        return FieldElem(self.field, num, den)

    # -- monomial structure ----------------------------------------------

    def as_monomial(self) -> "tuple[QI, int] | None":
        """Return (coefficient, v-exponent) if this is c*v^m, else None."""
        if not self.num:
            return None
        if sum(1 for c in self.num if c) != 1 or sum(1 for c in self.den if c) != 1:
            return None
        jn = _pval(self.num)
        jd = _pval(self.den)
        return (self.num[jn] / self.den[jd], jn - jd)

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
        root = coeff.sqrt()
        if root is None:
            return None
        return self.field.from_qi(root) * self.field.v_power(m // 2)

    def field_sqrt(self) -> "FieldElem | None":
        """Exact square root inside the field, or None.

        Writes num*den as (square coefficient) * v^(even) * (polynomial)^2 and
        divides the polynomial root by the denominator.  The branch is fixed
        by the principal root of the leading coefficient.
        """
        if not self.num:
            return self.field.zero
        mono_root = self.monomial_sqrt()
        if mono_root is not None:
            return mono_root
        prod = _pmul(self.num, self.den)
        val = _pval(prod)
        if val % 2:
            return None
        shifted = prod[val:]
        lead = shifted[-1]
        lead_root = lead.sqrt()
        if lead_root is None:
            return None
        monic = _pscale(shifted, lead.inverse())
        body = _monic_poly_sqrt(monic)
        if body is None:
            return None
        num = _pscale(body, lead_root)
        if val:
            num = _pmul(num, tuple([_QI_ZERO] * (val // 2) + [_QI_ONE]))
        return FieldElem(self.field, num, self.den)

    # -- canonical serialization ------------------------------------------

    def _poly_str(self, poly: tuple) -> str:
        if not poly:
            return "0"
        terms = []
        for e in range(len(poly) - 1, -1, -1):
            c = poly[e]
            if not c:
                continue
            if e == 0:
                terms.append(str(c))
            else:
                vpart = "v" if e == 1 else f"v^{e}"
                if c == _QI_ONE:
                    terms.append(vpart)
                elif c == QI(-1, 0):
                    terms.append(f"-{vpart}")
                else:
                    terms.append(f"{c}*{vpart}")
        return " + ".join(terms)

    def serialize(self) -> str:
        if not self.num:
            return "0"
        ns = self._poly_str(self.num)
        if self.den == (_QI_ONE,):
            return ns
        if sum(1 for c in self.num if c) > 1:
            ns = f"({ns})"
        ds = self._poly_str(self.den)
        if sum(1 for c in self.den if c) > 1:
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
        if tok is None or (expect is not None and tok != expect):
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
        if self.peek() == "-":
            self.take()
            return -self.factor()
        if self.peek() == "+":
            self.take()
            return self.factor()
        base = self.atom()
        if self.peek() == "^":
            self.take()
            e = self.exponent()
            if e.denominator == 1:
                return base ** int(e)
            mono = base.as_monomial()
            if mono is None or mono[0] != _QI_ONE:
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
        if "/" in tok:
            return Fraction(tok)
        if not tok.isdigit():
            raise ScalarParseError(f"bad exponent {tok!r}")
        num = int(tok)
        if self.peek() == "/":
            self.take()
            den = self.take()
            if not den.isdigit():
                raise ScalarParseError(f"bad exponent denominator {den!r}")
            return Fraction(num, int(den))
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
        if tok.isdigit() or "/" in tok:
            return self.field.rational(Fraction(tok))
        raise ScalarParseError(f"unexpected token {tok!r}")


def _exact_int(x: Fraction) -> int:
    if x.denominator != 1:
        raise UnrepresentableScalar(f"exponent {x} is not an integer in v")
    return x.numerator


def parse_scalar(text: str, field: Field) -> FieldElem:
    """Parse a scalar literal such as '-q^-2', 'q^(1/2)' or 'sqrt(-1*q^3)'."""
    return _Parser(_tokenize(text), field).parse()
