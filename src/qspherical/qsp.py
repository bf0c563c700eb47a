"""Parameters of quantum symmetric pairs and coideal generators on modules.

A coideal subalgebra is determined by a Satake datum together with scalar
families c (on white nodes) and s (supported on the nonsplit white nodes).
The classification predicates, the distinguished parameter, diagonal twists
of parameters, and the character-shifted coideal all live here.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from . import linalg
from .braid import Diagonal, Operator, lusztig_T_word, _monomial_roots
from .modules import WeightModule
from .rootdata import SatakeDatum
from .scalars import Field, FieldElem


class ParameterError(Exception):
    pass


class Parameter:
    """A scalar family (c, s) for a fixed Satake datum."""

    def __init__(self, satake: SatakeDatum, c: dict, s: dict | None = None,
                 validate: bool = True):
        self.satake = satake
        missing = [i for i in satake.I_circ if i not in c]
        if missing:
            raise ParameterError(f"missing c value at white node {missing[0]}")
        # one field for every c and s: the field of the first c
        field = c[satake.I_circ[0]].field if satake.I_circ else None
        try:
            self.c = {i: field.coerce(c[i]) for i in satake.I_circ}
            self.s = {i: field.coerce((s or {}).get(i, field.zero))
                      for i in satake.I_circ}
        except ValueError as exc:
            raise ParameterError(str(exc)) from exc
        self.field = field
        if validate:
            problems = self.membership_violations()
            if problems:
                raise ParameterError("; ".join(problems))

    # -- the defining membership conditions -------------------------------

    def membership_violations(self) -> list:
        satake = self.satake
        datum = satake.datum
        out = []
        for i in satake.I_circ:
            if not self.c[i]:
                out.append(f"c_{i} must be nonzero")
        for i in satake.I_circ:
            ti = satake.tau[i]
            if ti != i:
                ai = tuple(1 if k == i else 0 for k in range(datum.n))
                theta_ai = satake.theta_on_root(ai)
                if datum.form_roots(ai, theta_ai) == 0 and self.c[i] != self.c[ti]:
                    out.append(f"c_{i} must equal c_{satake.tau[i]}")
        for j, val in self.s.items():
            if not val:
                continue
            if j not in satake.I_ns:
                out.append(f"s_{j} must vanish off the nonsplit nodes")
                continue
            for i in satake.I_ns:
                if i != j:
                    cij = datum.cartan[i][j]
                    if cij > 0 or cij % 2 != 0:
                        out.append(f"s_{j} needs even Cartan entries on nonsplit nodes")
        return out

    # -- classification predicates ------------------------------------------

    def is_standard(self) -> bool:
        return all(not v for v in self.s.values())

    def is_balanced(self) -> bool:
        return self.is_standard() and all(
            self.c[i] == self.c[self.satake.tau[i]] for i in self.satake.I_circ)

    def _uniform_rhs(self, i: int) -> FieldElem:
        satake = self.satake
        datum = satake.datum
        field = self.field
        sign = (-1) ** _even_int(2 * _pair_rho_vee(satake, i))
        expo = _uniform_exponent(satake, i)
        rhs = field.q_power(-expo) * self.c[satake.tau[i]].bar()
        return rhs if sign == 1 else -rhs

    def is_uniform(self) -> bool:
        return all(self.c[i] == self._uniform_rhs(i) for i in self.satake.I_circ)

    def uniform_at(self, i: int) -> bool:
        return (self.c[i] == self._uniform_rhs(i)
                and self.c[self.satake.tau[i]] == self._uniform_rhs(self.satake.tau[i]))

    def is_admissible(self) -> bool:
        if not self.is_balanced():
            return False
        for i in self.satake.I_circ:
            if self.c[i].bar() != self.c[i].inverse():
                return False
            expo = _uniform_exponent(self.satake, i)
            if self.c[i] != self.field.q_power(-expo) * self.c[self.satake.tau[i]].bar():
                return False
        return True

    def is_distinguished(self) -> bool:
        if not self.is_standard():
            return False
        dist = distinguished_parameter(self.satake, self.field)
        return all(self.c[i] == dist.c[i] for i in self.satake.I_circ)

    def classify(self) -> dict:
        return {
            "standard": self.is_standard(),
            "balanced": self.is_balanced(),
            "uniform": self.is_uniform(),
            "admissible": self.is_admissible(),
            "distinguished": self.is_distinguished(),
        }

    def key(self) -> tuple:
        """What the parameter's operators on a module depend on: the black
        nodes and involution of the Satake datum, and the values of c and s."""
        return (self.satake.black, self.satake.tau,
                tuple(sorted(self.c.items())), tuple(sorted(self.s.items())))

    def __repr__(self):
        cs = ", ".join(f"c_{i}={v}" for i, v in sorted(self.c.items()))
        ss = ", ".join(f"s_{i}={v}" for i, v in sorted(self.s.items()) if v)
        return f"Parameter({cs}{'; ' + ss if ss else ''})"


def _pair_rho_vee(satake: SatakeDatum, i: int) -> Fraction:
    """<rho_black_vee, alpha_i>."""
    return satake.datum.pair(satake.rho_black_vee, satake.datum.alpha_in_X(i))


def _even_int(x: Fraction) -> int:
    f = Fraction(x)
    if f.denominator != 1:
        raise ParameterError(f"expected an integer, got {f}")
    return int(f)


def _uniform_exponent(satake: SatakeDatum, i: int) -> Fraction:
    """(alpha_i, w_black alpha_tau(i) + 2 rho_black)."""
    datum = satake.datum
    ai = tuple(1 if k == i else 0 for k in range(datum.n))
    at = tuple(1 if k == satake.tau[i] else 0 for k in range(datum.n))
    moved = datum.act_word_root(satake.w_black, at)
    val = Fraction(datum.form_roots(ai, moved))
    two_rho = tuple(2 * r for r in satake.rho_black)
    val += datum.form_X_root(two_rho, ai)
    return val


def distinguished_parameter(satake: SatakeDatum, field: Field) -> Parameter:
    """The balanced parameter -q^(-(alpha_i, alpha_i - Theta alpha_i)/2)."""
    datum = satake.datum
    c = {}
    for i in satake.I_circ:
        ai = tuple(1 if k == i else 0 for k in range(datum.n))
        diff = tuple(a - t for a, t in zip(ai, satake.theta_on_root(ai)))
        expo = Fraction(datum.form_roots(ai, diff), 2)
        c[i] = -field.q_power(-expo)
    return Parameter(satake, c)


# -- coideal generators on modules ---------------------------------------------


class CoidealGenerators:
    """Matrix realization of the coideal generators on one module, and of
    the white generators' images under the antiautomorphism rho of the
    contravariant form, (v, X w) = (rho(X) v, w)."""

    def __init__(self, param: Parameter, module: WeightModule):
        self.param = param
        self.module = module
        satake = param.satake
        self.black_E = {j: Operator(module, module.e_mats[j]) for j in satake.black}
        self.black_F = {j: Operator(module, module.f_mats[j]) for j in satake.black}
        self.torus = [(h, Diagonal(module, module.k_diagonal(h)))
                      for h in satake.theta_fixed_torus_generators()]

    @functools.cached_property
    def B(self) -> dict:
        """B_i = F_i + c_i T''_{w_black,1}(E_tau(i)) K_i^-1 + s_i K_i^-1,
        built on first read: the dual lines read only rho(B_i)."""
        return self._white(1)

    @functools.cached_property
    def rho_B(self) -> dict:
        """rho(B_i) = E_i + c_i K_i^-1 T''_{w_black,-1}(F_tau(i)) + s_i K_i^-1,
        built the first time a dual line asks for it.  rho fixes K, swaps
        E_j and F_j and reverses products, and rho T''_{j,e} = T''_{j,-e} rho
        (Lusztig 37.1.2, 37.2.4)."""
        return self._white(-1)

    def _white(self, e: int) -> dict:
        """B_i = F_i + c_i T''_{w_black,1}(E_tau(i)) K_i^-1 + s_i K_i^-1 for
        e = 1, and its image rho(B_i) for e = -1."""
        module, param = self.module, self.param
        satake = param.satake
        raising, lowering = ((module.e_mats, module.f_mats) if e == 1
                             else (module.f_mats, module.e_mats))
        # with no black nodes T_w_black is the identity
        tww = (lusztig_T_word(satake.w_black, e, "doubleprime", module)
               if satake.w_black else None)
        out = {}
        for i in satake.I_circ:
            ti = satake.tau[i]
            conj = tww.conj(raising[ti]).mat if tww else raising[ti]
            kinv = module.k_i_diagonal(i, -1)
            # c_i K_i^-1 scales the columns (e = 1) or the rows (e = -1)
            ckinv = [param.c[i] * k for k in kinv]
            mat = (linalg.scale_columns(conj, ckinv) if e == 1
                   else linalg.scale_rows(ckinv, conj))
            mat = linalg.mat_add(lowering[i], mat)
            if param.s[i]:
                mat = linalg.mat_add(mat, linalg.diagonal(
                    [param.s[i] * k for k in kinv], module.field))
            out[i] = Operator(module, mat)
        return out

    def all_named(self) -> list:
        out = [(f"B_{i}", op) for i, op in sorted(self.B.items())]
        out += [(f"E_{j}", op) for j, op in sorted(self.black_E.items())]
        out += [(f"F_{j}", op) for j, op in sorted(self.black_F.items())]
        out += [(f"K_{h}", op) for h, op in self.torus]
        return out


def coideal_generators(param: Parameter, module: WeightModule) -> CoidealGenerators:
    """The coideal generators on a module, built once per module and
    parameter key."""
    key = ("coideal", param.key())
    if key not in module.cache:
        module.cache[key] = CoidealGenerators(param, module)
    return module.cache[key]


# -- twisting -------------------------------------------------------------------


def twist_parameter(a: dict, param: Parameter) -> Parameter:
    """Parameter of the rescaling twist: c_i -> a_i^(1/2) a_tau(i)^(1/2) c_i,
    s_i -> a_i^(1/2) s_i.  Entries of a default to one; black entries must be one."""
    satake = param.satake
    field = param.field
    roots = _monomial_roots({i: a.get(i, field.one) for i in satake.I_circ}, field)
    for j, val in a.items():
        if j in satake.black and field.coerce(val) != field.one:
            raise ParameterError("twists must be trivial on black nodes")
    c = {i: roots[i] * roots[satake.tau[i]] * param.c[i] for i in satake.I_circ}
    s = {i: roots[i] * param.s[i] for i in satake.I_circ}
    return Parameter(satake, c, s)


def ad_Kh_parameter(h, param: Parameter) -> Parameter:
    """The torus conjugation shift: c_i -> c_i q^<h, alpha_i - Theta alpha_i>,
    s_i -> s_i q^<h, alpha_i>, for h in the half coweight lattice."""
    satake = param.satake
    datum = satake.datum
    field = param.field
    c, s = {}, {}
    for i in satake.I_circ:
        alpha = datum.alpha_in_X(i)
        theta_alpha = satake.theta_on_X(alpha)
        diff = tuple(a - b for a, b in zip(alpha, theta_alpha))
        c[i] = param.c[i] * field.q_power(datum.pair(h, diff))
        s[i] = param.s[i] * field.q_power(datum.pair(h, alpha))
    return Parameter(satake, c, s)


# -- the character-shifted coideal -------------------------------------------------


def chi_shift_coideal(param: Parameter, chi, satake: SatakeDatum | None = None) -> Parameter:
    """Parameter (d, t) of the shifted coideal attached to a character.

    d follows the closed product formula; t is the transport value
    -r^(1/2) bar([l] sqrt(q_i)) q_i^2 on nonsplit nodes, which agrees with
    -c bar(chi(B)) q_i^2 whenever the input parameter is admissible.
    """
    satake = satake or param.satake
    datum = satake.datum
    field = param.field
    if not param.is_balanced():
        raise ParameterError("the shifted coideal needs a balanced parameter")
    d, t = {}, {}
    for i in satake.I_circ:
        qi = datum.d[i]
        sign = (-1) ** _even_int(2 * _pair_rho_vee(satake, i))
        ktor = chi.torus_value(tuple(
            datum.d[i] * (1 if k == i else 0)
            - datum.d[satake.tau[i]] * (1 if k == satake.tau[i] else 0)
            for k in range(datum.n)))
        two_rho_pair = 2 * Fraction(satake.rho_black[i])   # <alpha_i^vee, 2 rho_black>
        val = (param.c[i] * ktor
               * field.q_power(-qi * two_rho_pair)
               * field.q_power(Fraction(qi * datum.cartan[i][i])))
        d[i] = val if sign == 1 else -val
        if i in satake.I_ns:
            li = chi.labels.get(i)
            if li is None:
                raise ParameterError(f"character carries no integer label at node {i}")
            root = _monomial_roots({i: param.c[i]}, field)[i]
            sq = field.q_power(Fraction(qi, 2))
            t[i] = -root * (field.qint(li, qi) * sq).bar() * field.q_power(2 * qi)
        else:
            t[i] = field.zero
    return Parameter(satake, d, t, validate=False)
