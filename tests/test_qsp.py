from fractions import Fraction

import pytest

from qspherical import Field
import qspherical.qsp as qsp
from qspherical.braid import Operator, phi_diag
from qspherical.modules import build_simple
from qspherical.qsp import (Parameter, ParameterError,
                            ad_Kh_parameter, chi_shift_coideal,
                            coideal_generators, distinguished_parameter,
                            twist_parameter)
from qspherical.scalars import parse_scalar
import qspherical.linalg as la

F = Field(2)


def test_membership_conditions(ai1, aiii3_sl4, aii3):
    with pytest.raises(ParameterError):
        Parameter(ai1, {0: F.zero})
    # orthogonal tau-pair must have equal values: outer nodes of the sl4 diagram
    with pytest.raises(ParameterError):
        Parameter(aiii3_sl4, {0: F.one, 1: F.one, 2: F.q})
    # s supported off the nonsplit nodes is rejected
    with pytest.raises(ParameterError):
        Parameter(aii3, {1: F.one}, {1: F.one})
    ok = Parameter(ai1, {0: F.q}, {0: F.one + F.q})
    assert not ok.is_standard()


def test_parameter_takes_one_field(aiii_sl3, ai1):
    # each c was kept as given and the field came from the last one, so a
    # root-order-2 c sat in a parameter of root order 4
    with pytest.raises(ParameterError, match="root orders"):
        Parameter(aiii_sl3, {0: Field(2).q, 1: Field(4).q}, validate=False)
    with pytest.raises(ParameterError, match="root orders"):
        Parameter(ai1, {0: Field(2).q}, {0: Field(4).q})
    # equal root orders: every c and s lands in the field of the first c
    f4 = Field(4)
    param = Parameter(aiii_sl3, {0: f4.q, 1: Field(4).q}, validate=False)
    assert param.field.root_order == 4
    assert all(c.field == param.field for c in param.c.values())
    assert all(s.field == param.field for s in param.s.values())


def test_distinguished_values(ai1, aiii_sl3, aii3):
    # derived from the root datum: (alpha, alpha - Theta alpha) is 4 for the
    # split rank one, 1 for the quasi-split sl3 pair, 2 for the black sl4 one
    assert distinguished_parameter(ai1, F).c[0] == -F.q ** (-2)
    assert distinguished_parameter(aiii_sl3, F).c[0] == -F.q_power(Fraction(-1, 2))
    assert distinguished_parameter(aii3, F).c[1] == -F.q.inverse()


def test_classification(ai1, aiii_sl3, aiii3_sl4):
    dist = distinguished_parameter(ai1, F)
    flags = dist.classify()
    assert flags["balanced"] and flags["distinguished"] and flags["standard"]
    # substituting into the uniform equation: c = q^-2 bar(c) forces gamma/q,
    # so the distinguished value -q^-2 is not uniform on the split rank one
    assert not flags["uniform"]
    uni = Parameter(ai1, {0: -F.q.inverse()})
    assert uni.is_uniform() and uni.is_admissible()
    half = parse_scalar("q^(1/2)", F)
    both = Parameter(aiii_sl3, {0: half, 1: half})
    assert both.is_uniform() and both.is_admissible() and both.is_balanced()
    ex2 = Parameter(aiii3_sl4, {0: F.one, 1: F.q.inverse(), 2: F.one})
    assert ex2.is_uniform() and ex2.is_balanced()
    bad = Parameter(ai1, {0: F.one + F.q})
    assert not bad.is_admissible()


def test_coideal_generator_matrix(modules, ai1):
    # assembled by hand: with basis (v+, v-), B = [[s q^-1, c q], [1, s q]]
    m = modules("A", 1, (1,))
    c = parse_scalar("q^2", F)
    s = parse_scalar("1/2", F)
    par = Parameter(ai1, {0: c}, {0: s})
    b = coideal_generators(par, m).B[0]
    expect = [[s * F.q.inverse(), c * F.q], [F.one, s * F.q]]
    assert la.mat_eq(b.mat, expect)


def test_coideal_generator_black_conjugation(modules, aii3, params):
    # with black nodes the raising part passes through the braid conjugation
    m = modules("A", 3, (0, 1, 0))
    b = coideal_generators(params["aii3"], m).B[1]
    # weight shifts: the lowering part shifts by -alpha_2, the raising part
    # by -Theta(alpha_2) = alpha_1 + alpha_2 + alpha_3
    shifts = b.weight_shifts()
    assert (Fraction(0), Fraction(-1), Fraction(0)) in shifts
    assert (Fraction(1), Fraction(1), Fraction(1)) in shifts


def test_twist_parameter(ai1, aiii_sl3):
    par = Parameter(ai1, {0: F.q}, {0: F.one})
    tw = twist_parameter({0: F.q ** 2}, par)
    assert tw.c[0] == F.q ** 3
    assert tw.s[0] == F.q
    assert twist_parameter({}, par).c[0] == par.c[0]
    half = parse_scalar("q^(1/2)", F)
    par3 = Parameter(aiii_sl3, {0: half, 1: half})
    tw3 = twist_parameter({0: F.q ** 2, 1: F.q ** 2}, par3)
    assert tw3.c[0] == half * F.q ** 2


def test_ad_parameter(ai1):
    par = Parameter(ai1, {0: F.q}, {0: F.one})
    rho_h = (Fraction(1, 2),)
    shifted = ad_Kh_parameter(rho_h, par)
    assert shifted.c[0] == F.q ** 3          # c q^<rho, 2 alpha> = c q^2
    assert shifted.s[0] == F.q               # s q^<rho, alpha> = s q


def test_twist_consistency_on_operators(modules, ai1):
    # conjugating the coideal generator matches the generator of the twisted
    # parameter up to the documented a^(-1/2) factor
    m = modules("A", 1, (2,))
    par = Parameter(ai1, {0: F.q}, {0: F.one})
    a = {0: F.q ** 2}
    tw_par = twist_parameter(a, par)
    b = coideal_generators(par, m).B[0]
    b_tw = coideal_generators(tw_par, m).B[0]
    conj = phi_diag(a, m).inverse().conj(b)
    root = (F.q ** 2).monomial_sqrt()
    assert la.mat_eq(conj.mat, la.mat_scale(b_tw.mat, root.inverse()))


def test_ad_matches_conjugation(modules, ai1):
    # K_h B K_-h = q^{-<h, alpha>} B' where B' belongs to the shifted
    # parameter: the algebras agree, the generators match up to the scalar
    m = modules("A", 1, (2,))
    par = Parameter(ai1, {0: F.q}, {0: F.one})
    h = (1,)
    shifted = ad_Kh_parameter(h, par)
    b_shift = coideal_generators(shifted, m).B[0]
    k = Operator(m, m.k_matrix(h))
    b = coideal_generators(par, m).B[0]
    factor = F.q_power(-m.datum.pair(h, m.datum.alpha_in_X(0)))
    assert k.conj(b) == Operator(m, la.mat_scale(b_shift.mat, factor))


def test_coproduct_membership_spot_check(modules, ai1, field):
    # on a tensor square the generator acts as B x K^-1 + 1 x B - s 1 x K^-1,
    # which certifies numerically that its coproduct lies in the coideal
    # tensor the whole algebra
    from qspherical import tensor
    m = modules("A", 1, (1,))
    par = Parameter(ai1, {0: field.q}, {0: field.one})
    t = tensor(m, m)
    b_t = coideal_generators(par, t).B[0]
    b_m = coideal_generators(par, m).B[0]
    kinv = m.k_i_matrix(0, -1)
    ident = la.identity(m.dim, field)
    expect = la.kron(b_m.mat, kinv, field)
    expect = la.mat_add(expect, la.kron(ident, b_m.mat, field))
    expect = la.mat_sub(expect, la.mat_scale(la.kron(ident, kinv, field),
                                             par.s[0]))
    assert la.mat_eq(b_t.mat, expect)


def test_chi_shift_trivial_character(ai1, modules, field):
    from qspherical.characters import Character
    par = distinguished_parameter(ai1, field)
    chi = Character(ai1, (0,), {0: field.zero}, {0: 0}, field)
    dt = chi_shift_coideal(par, chi)
    assert dt.s[0].is_zero()
    assert dt.c[0] == field.q ** 2 * par.c[0]


def test_chi_shift_admissible_agrees_with_direct_formula(aiii_sl3, modules, field):
    # for an admissible parameter the transport value equals
    # -c bar(chi(B)) q_i^2 on nonsplit nodes; here there are none, so the
    # shifted s vanishes and d follows the closed product
    from qspherical.characters import find_spherical_lines
    from qspherical.qsp import coideal_generators
    half = parse_scalar("q^(1/2)", field)
    par = Parameter(aiii_sl3, {0: half, 1: half})
    m = modules("A", 2, (1, 0))
    gens = coideal_generators(par, m)
    line = find_spherical_lines(m, gens, par)[0]
    dt = chi_shift_coideal(par, line.character)
    assert all(v.is_zero() for v in dt.s.values())
    # d_1 = c_1 chi(K_1 K_2^-1) q^2 with chi(K_1 K_2^-1) = q
    assert dt.c[0] == half * field.q * field.q ** 2


def test_chi_shift_example_generators(aiii3_sl4, modules, field):
    from qspherical.characters import find_spherical_lines
    par = Parameter(aiii3_sl4, {0: field.one, 1: field.q.inverse(), 2: field.one})
    m = modules("A", 3, (0, 1, 0))
    gens = coideal_generators(par, m)
    lines = find_spherical_lines(m, gens, par)
    by_label = {ln.character.labels[1]: ln for ln in lines}
    dt = chi_shift_coideal(par, by_label[1].character)
    # shifted generators of this line: d = (q^2, q, q^2), t_2 = -q
    assert dt.c[0] == field.q ** 2 and dt.c[2] == field.q ** 2
    assert dt.c[1] == field.q
    assert dt.s[1] == -field.q
    # direct-formula route for comparison on the nonsplit node:
    # t_2 = -c_2 bar(chi(B_2)) q^2 for the admissible-compatible component
    chi_b2 = by_label[1].character.b_values[1]
    assert dt.s[1] == -par.c[1] * chi_b2.bar() * field.q ** 2


def test_generators_without_black_nodes_conjugate_nothing(modules, aiii3_sl4,
                                                          params, monkeypatch):
    # T_w_black is the identity, so B_i = F_i + c_i E_tau(i) K_i^-1 directly
    monkeypatch.setattr(Operator, "conj",
                        lambda self, x: pytest.fail("conjugated by the identity"))
    # a fresh module, so that the generators are built here and not cached
    m = build_simple(aiii3_sl4.datum, (0, 1, 0), F)
    par = params["aiii3_sl4"]
    gens = coideal_generators(par, m)
    for i in aiii3_sl4.I_circ:
        e_part = la.mat_mul(m.e_mats[aiii3_sl4.tau[i]], m.k_i_matrix(i, -1))
        assert gens.B[i].mat == la.mat_add(m.f_mats[i], la.mat_scale(e_part, par.c[i]))


def test_generators_are_built_once_per_module_and_parameter(aii3, params,
                                                            monkeypatch):
    words = []
    build = qsp.lusztig_T_word
    monkeypatch.setattr(qsp, "lusztig_T_word",
                        lambda *args: words.append(args[0]) or build(*args))
    m = build_simple(aii3.datum, (0, 1, 0), F)
    par = params["aii3"]
    gens = coideal_generators(par, m)
    # B_i is built on first read, with one braid word
    assert words == []
    gens.B
    assert words == [aii3.w_black]
    # an equal parameter is the same key: the cached object, no braid word
    again = Parameter(aii3, {1: F.q})
    assert coideal_generators(again, m) is gens
    assert coideal_generators(par, m) is gens
    gens.B
    assert len(words) == 1
    # another Satake datum with the same c values is another key
    from qspherical import SatakeDatum
    other = Parameter(SatakeDatum(aii3.datum, (), (0, 1, 2)),
                      {0: F.q, 1: F.q, 2: F.q})
    assert coideal_generators(other, m) is not gens


def test_torus_generators_are_diagonals(aii3, params, monkeypatch):
    # K_h is held as its diagonal, and neither the generators nor the
    # defining relations form a dense K matrix
    from qspherical.braid import Diagonal
    from qspherical.modules import WeightModule, check_defining_relations
    for name in ("k_matrix", "k_i_matrix"):
        monkeypatch.setattr(WeightModule, name,
                            lambda *args: pytest.fail("a dense K matrix"))
    m = build_simple(aii3.datum, (0, 1, 0), F)
    gens = coideal_generators(params["aii3"], m)
    gens.B, gens.rho_B
    assert gens.torus
    assert all(isinstance(k, Diagonal) for _, k in gens.torus)
    assert check_defining_relations(m) == []
    monkeypatch.undo()
    for h, k in gens.torus:
        assert k.mat == m.k_matrix(h)
