"""Matrix coefficients, torus restriction and the symmetry checks.

A matrix coefficient is a pair (dual vector, vector) in one simple module,
with the dual realized through the contravariant form.  Restricting to the
quantum torus yields a finite function on restricted weight keys; the
relative Weyl group acts on those keys by transposed matrices, so every
invariance statement becomes a finite exact comparison.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .braid import Operator, lusztig_T_word
from .modules import ModuleVector, SimpleModule, act_Kh, act_matrix
from .qsp import CoidealGenerators
from .rootdata import SatakeDatum


class SphericalError(Exception):
    pass


class MatrixCoefficient:
    """The functional X -> (f, X v) on operators of one simple module."""

    def __init__(self, module: SimpleModule, f: ModuleVector, v: ModuleVector):
        if f.module is not module or v.module is not module:
            raise SphericalError("coefficient data must live on the module")
        self.module = module
        self.f = f
        self.v = v

    def evaluate(self, x=None):
        if x is None:
            return self.module.shapovalov(self.f, self.v)
        mat = x.mat if isinstance(x, Operator) else x
        return self.module.shapovalov(self.f, act_matrix(mat, self.v))

    def scaled(self, s) -> "MatrixCoefficient":
        return MatrixCoefficient(self.module, self.f, self.v.scale(s))


class TorusFunction:
    """A finite map from restricted weight keys to scalars.

    Keys are the pairings of a weight with the chosen basis vectors of the
    Theta-odd coweight lattice; evaluation at a torus element with given
    basis coordinates sums q to the dot product.
    """

    def __init__(self, basis, data: dict, field):
        self.basis = tuple(tuple(b) for b in basis)
        self.field = field
        self.data = {tuple(k): val for k, val in data.items() if val}

    def __eq__(self, other):
        return (isinstance(other, TorusFunction) and self.basis == other.basis
                and self.data == other.data)

    def add(self, other) -> "TorusFunction":
        out = dict(self.data)
        for k, val in other.data.items():
            out[k] = out.get(k, self.field.zero) + val
        return TorusFunction(self.basis, out, self.field)

    def scale(self, s) -> "TorusFunction":
        return TorusFunction(self.basis,
                             {k: val * s for k, val in self.data.items()},
                             self.field)

    def evaluate_coords(self, coords):
        """Value at the torus element with the given basis coordinates."""
        out = self.field.zero
        for key, val in self.data.items():
            expo = sum(Fraction(x) * k for x, k in zip(coords, key))
            out = out + val * self.field.q_power(expo)
        return out

    def describe(self) -> dict:
        return {
            "basis": [list(b) for b in self.basis],
            "values": [{"key": list(k), "coeff": str(val)}
                       for k, val in sorted(self.data.items())],
        }


def restrict_torus(coeff: MatrixCoefficient, satake: SatakeDatum) -> TorusFunction:
    """Restriction of the coefficient to the quantum torus."""
    return _restrict(coeff, satake.y_theta_basis())


def weight_function(coeff: MatrixCoefficient) -> TorusFunction:
    """Full Cartan restriction: keys are entire weights."""
    n = coeff.module.datum.n
    return _restrict(coeff, tuple(tuple(1 if t == k else 0 for t in range(n))
                                  for k in range(n)))


def _restrict(coeff: MatrixCoefficient, basis) -> TorusFunction:
    """Pair the coefficient block by block; each weight block contributes
    under the key of its weight's pairings with the basis."""
    module = coeff.module
    data = {}
    for w, pairing in module.block_pairings(coeff.f, coeff.v):
        key = tuple(module.datum.pair(b, w) for b in basis)
        data[key] = data.get(key, module.field.zero) + pairing
    return TorusFunction(basis, data, module.field)


def weyl_act(word, t: TorusFunction, satake: SatakeDatum) -> TorusFunction:
    """Transport by the relative Weyl element of the word of white nodes."""
    mats = [satake.relative_weyl_matrix_on_y_theta(i) for i in word]
    data = {}
    for key, val in t.data.items():
        for mat in mats:    # the row vector key times each matrix in turn
            key = tuple(sum(x * y for x, y in zip(key, col)) for col in zip(*mat))
        data[key] = data.get(key, t.field.zero) + val
    return TorusFunction(t.basis, data, t.field)


def is_weyl_invariant(t: TorusFunction, satake: SatakeDatum):
    """True when every relative generator fixes the function; else a certificate."""
    for i in satake.relative_orbit_representatives():
        moved = weyl_act((i,), t, satake)
        if moved != t:
            bad = next(k for k in set(moved.data) | set(t.data)
                       if moved.data.get(k, t.field.zero) != t.data.get(k, t.field.zero))
            return False, {"generator": i, "key": list(bad)}
    return True, None


def rho_shift(coeff: MatrixCoefficient, h) -> MatrixCoefficient:
    """Right torus shift of the coefficient for h in the half coweight lattice.

    The pair shifted by h transforms on the left under the coideal conjugated
    by K_h; on the stored dual vector this is the inverse weight scaling, so
    that the shift of a left-spherical pair for the K_h-conjugated coideal is
    again left-spherical for the unshifted one.
    """
    hneg = tuple(-x for x in h)
    return MatrixCoefficient(coeff.module, act_Kh(hneg, coeff.f), coeff.v)


def antipode_torus(t: TorusFunction) -> TorusFunction:
    """Composition with the antipode on the torus part: K_h -> K_-h."""
    return TorusFunction(t.basis, {tuple(-x for x in k): val
                                   for k, val in t.data.items()}, t.field)


def bar_function(t: TorusFunction) -> TorusFunction:
    return TorusFunction(t.basis, {k: val.bar() for k, val in t.data.items()},
                         t.field)


def tau0_bar_check(coeff: MatrixCoefficient, satake: SatakeDatum) -> bool:
    """Bar symmetry of Cartan values against the longest-element involution.

    There must exist a scalar a with bar(a * value(K_h)) = a * value(K_tau0 h)
    for all h.  In weight keys: bar(a w(-mu)) = a w(tau0 mu).  The scalar is
    produced by a one-dimensional solve on a reference key and then verified
    on every key.
    """
    module = coeff.module
    field = module.field
    t = weight_function(coeff)
    tau0 = satake.tau0()

    def moved(key):
        return tuple(key[tau0[k]] for k in range(len(key)))

    ref = None
    for key in sorted(t.data, reverse=True):
        if t.data.get(moved(key)):
            ref = key
            break
    if ref is None:
        return not t.data
    # bar(a)/a = w(tau0 ref) / bar(w(-ref)); monomial a = q^(k) solves q^(-2k)
    negval = t.data.get(tuple(-x for x in ref), field.zero)
    if not negval:
        return False
    ratio = t.data[moved(ref)] / negval.bar()
    mono = ratio.as_monomial()
    if mono is None or mono[1] % 2 or mono[0] != field.one:
        return False
    a = field.v_power(-mono[1] // 2)
    abar = a.bar()
    for key in set(t.data) | {tuple(-x for x in k) for k in t.data}:
        lhs = abar * t.data.get(tuple(-x for x in key), field.zero).bar()
        rhs = a * t.data.get(moved(key), field.zero)
        if lhs != rhs:
            return False
    return True


def appendix_double_sign_check(line, satake: SatakeDatum):
    """Both signs of the composite double-prime operator agree on the vector
    applied to each raising generator of a white node."""
    module = line.module
    ok = True
    details = []
    for i in satake.I_circ:
        e_op = Operator(module, module.e_mats[i])
        plus = lusztig_T_word(satake.w_black, 1, "doubleprime", module).conj(e_op)
        minus = lusztig_T_word(satake.w_black, -1, "doubleprime", module).conj(e_op)
        same = plus.apply(line.vector) == minus.apply(line.vector)
        details.append((i, same))
        ok = ok and same
    return ok, details


def transformation_check(coeff: MatrixCoefficient, left_gens: CoidealGenerators,
                         right_gens: CoidealGenerators, left_values: dict,
                         right_values: dict, middles) -> bool:
    """phi(b x b') = chi(b) phi(x) eta(b') over the supplied middle operators.

    For the left factor b acting on the dual side, the generator enters
    through the transpose antiautomorphism, so the evaluation is exactly
    (f, rho(b)... ) = (f b, ...); matrix-wise the left generator multiplies
    the argument from the left.
    """
    for lname, lop in left_gens.all_named():
        lval = left_values[lname]
        for rname, rop in right_gens.all_named():
            rval = right_values[rname]
            for x in middles:
                xm = x.mat if isinstance(x, Operator) else x
                whole = linalg.mat_mul(lop.mat, linalg.mat_mul(xm, rop.mat))
                if coeff.evaluate(whole) != lval * coeff.evaluate(xm) * rval:
                    return False
    return True
