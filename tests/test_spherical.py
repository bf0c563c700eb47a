import random

import pytest
from hypothesis import given, settings, strategies as st

from qspherical import Field
from qspherical.characters import (akin_character, dual_spherical_vector,
                                   find_dual_spherical, find_spherical_lines)
from qspherical.modules import act_matrix
from qspherical.qsp import Parameter, chi_shift_coideal, coideal_generators
from qspherical.scalars import parse_scalar
from qspherical.spherical import (MatrixCoefficient, TorusFunction,
                                  antipode_torus, appendix_double_sign_check,
                                  bar_function, is_weyl_invariant, restrict_torus,
                                  rho_shift, tau0_bar_check,
                                  transformation_check, weight_function,
                                  weyl_act)
import qspherical.linalg as la

F = Field(2)


def _zonal(module, satake, param):
    gens = coideal_generators(param, module)
    lines = [ln for ln in find_spherical_lines(module, gens, param)
             if ln.character.b_values == {i: param.s[i] for i in satake.I_circ}]
    assert len(lines) == 1
    line = lines[0]
    return MatrixCoefficient(module, find_dual_spherical(line, gens), line.vector), gens, line


def test_trivial_restriction(modules, ai1, params):
    m = modules("A", 1, (0,))
    phi, _, _ = _zonal(m, ai1, params["ai1_dist"])
    t = restrict_torus(phi, ai1)
    assert t.data == {(0,): F.one}
    ok, cert = is_weyl_invariant(t, ai1)
    assert ok and cert is None


def test_sl3_restriction_values(modules, aiii_sl3, field):
    q = field.q
    m = modules("A", 2, (1, 0))
    for c1, c2 in [(field.one, q), (field.one, field.one),
                   (parse_scalar("q^(1/2)", field),) * 2]:
        par = Parameter(aiii_sl3, {0: c1, 1: c2})
        gens = coideal_generators(par, m)
        line = find_spherical_lines(m, gens, par)[0]
        f = find_dual_spherical(line, gens).normalized_at(m.highest_index)
        t = restrict_torus(MatrixCoefficient(m, f, line.vector), aiii_sl3)
        for n in range(-4, 5):
            assert t.evaluate_coords([n]) == \
                q.inverse() * c1.inverse() * c2 * q ** (-n) + q ** n


def test_sl3_unshifted_pair_not_invariant(modules, aiii_sl3, field):
    par = Parameter(aiii_sl3, {0: field.one, 1: field.one})
    m = modules("A", 2, (1, 0))
    gens = coideal_generators(par, m)
    line = find_spherical_lines(m, gens, par)[0]
    f = find_dual_spherical(line, gens)
    t = restrict_torus(MatrixCoefficient(m, f, line.vector), aiii_sl3)
    ok, cert = is_weyl_invariant(t, aiii_sl3)
    assert not ok and cert is not None and "key" in cert


def test_sl4_restriction_and_action(modules, aiii3_sl4, params, field):
    q = field.q
    m = modules("A", 3, (0, 1, 0))
    gens = coideal_generators(params["aiii3_sl4"], m)
    basis = aiii3_sl4.y_theta_basis()
    for line in find_spherical_lines(m, gens, params["aiii3_sl4"]):
        t = restrict_torus(MatrixCoefficient(m, line.vector.bar(), line.vector),
                           aiii3_sl4)
        for n in range(-3, 4):
            for mm in range(-3, 4):
                coords = aiii3_sl4.y_theta_coords((mm, n, mm))
                assert t.evaluate_coords(coords) == \
                    q ** n + q ** (2 * mm - n) + q ** (n - 2 * mm) + q ** (-n)
        assert is_weyl_invariant(t, aiii3_sl4)[0]
    # generator action: the short relative reflection sends the torus element
    # of coordinates (n, m) to (2m - n, m), so the moved function evaluated at
    # (n, m) equals the original at (2m - n, m)
    t0 = TorusFunction(basis, {(3, 1): field.one, (0, 2): field.q}, field)
    moved = weyl_act((1,), t0, aiii3_sl4)
    for n in range(-2, 3):
        for mm in range(-2, 3):
            assert moved.evaluate_coords((n, mm)) == \
                t0.evaluate_coords((2 * mm - n, mm))


def test_weyl_act_identity_and_rank_one(modules, ai1, params):
    m = modules("A", 1, (2,))
    phi, _, _ = _zonal(m, ai1, params["ai1_dist"])
    t = restrict_torus(phi, ai1)
    assert weyl_act((), t, ai1) == t
    negated = weyl_act((0,), t, ai1)
    assert set(negated.data) == {tuple(-x for x in k) for k in t.data}


def test_rho_shift_trivial(modules, ai1, params):
    m = modules("A", 1, (2,))
    phi, _, _ = _zonal(m, ai1, params["ai1_dist"])
    same = rho_shift(phi, (0,))
    assert weight_function(same) == weight_function(phi)


@pytest.mark.parametrize("lam,c,s", [((2,), "-q^-2", "0"), ((4,), "-q^-2", "0"),
                                     ((2,), "q^-1", "1"), ((4,), "q^-1", "1")])
def test_rank_one_zonal_identities(modules, ai1, field, lam, c, s):
    par = Parameter(ai1, {0: parse_scalar(c, field)}, {0: parse_scalar(s, field)})
    m = modules("A", 1, lam)
    phi, _, _ = _zonal(m, ai1, par)
    rho_h = ai1.datum.coweight_of_weight(ai1.datum.rho())
    t = weight_function(phi)
    shifted_twice = weight_function(rho_shift(phi, tuple(2 * x for x in rho_h)))
    assert antipode_torus(t) == shifted_twice
    shifted = restrict_torus(rho_shift(phi, rho_h), ai1)
    assert is_weyl_invariant(shifted, ai1)[0]


def test_tau0_bar_quasi_split(modules, aiii_sl3, params):
    m = modules("A", 2, (1, 1))
    phi, _, _ = _zonal(m, aiii_sl3, params["aiii_sl3_uniform"])
    assert aiii_sl3.tau0() == aiii_sl3.tau
    assert tau0_bar_check(phi, aiii_sl3)
    # the scaled function is genuinely bar invariant on the full torus
    t = weight_function(phi)
    vals = sorted(t.data.items())
    # symmetric under tau, as the quasi-split argument requires
    for key, val in vals:
        assert t.data.get(tuple(key[aiii_sl3.tau[k]] for k in range(2))) == val


def test_tau0_bar_rank_one(modules, ai1, params):
    m = modules("A", 1, (2,))
    phi, _, _ = _zonal(m, ai1, params["ai1_dist"])
    assert tau0_bar_check(phi, ai1)


def test_appendix_identity(modules, aii3, params):
    m = modules("A", 3, (0, 1, 0))
    gens = coideal_generators(params["aii3"], m)
    line = find_spherical_lines(m, gens, params["aii3"])[0]
    ok, details = appendix_double_sign_check(line, aii3)
    assert ok and details == [(1, True)]
    # the composite really is the triple raising word on the vector
    from qspherical.braid import Operator, lusztig_T_word
    e_op = Operator(m, m.e_mats[1])
    plus = lusztig_T_word(aii3.w_black, 1, "doubleprime", m).conj(e_op)
    word = la.mat_mul(m.e_mats[2], la.mat_mul(m.e_mats[0], m.e_mats[1]))
    assert plus.apply(line.vector) == act_matrix(word, line.vector)
    # random vectors are not fixed
    rng = random.Random(0)
    bad = m.zero_vector()
    for k in range(m.dim):
        bad.coeffs[k] = F.rational(rng.randint(-3, 3))

    class Shim:
        module = m
        vector = bad

    okr, _ = appendix_double_sign_check(Shim, aii3)
    assert not okr


def test_appendix_trivial_for_quasi_split(modules, aiii_sl3, params):
    m = modules("A", 2, (1, 1))
    gens = coideal_generators(params["aiii_sl3_uniform"], m)
    line = find_spherical_lines(m, gens, params["aiii_sl3_uniform"])[0]
    ok, details = appendix_double_sign_check(line, aiii_sl3)
    assert ok   # empty black set: both sides are the plain raising generator


def test_transformation_law(modules, aiii_sl3, params, field):
    m = modules("A", 2, (1, 0))
    par = params["aiii_sl3_uniform"]
    gens = coideal_generators(par, m)
    line = find_spherical_lines(m, gens, par)[0]
    f = find_dual_spherical(line, gens)
    coeff = MatrixCoefficient(m, f, line.vector)
    values = {}
    for name, op in gens.all_named():
        image = op.apply(line.vector)
        lead = next(k for k, c in enumerate(line.vector.coeffs) if c)
        values[name] = image.coeffs[lead] / line.vector.coeffs[lead]
    rng = random.Random(2)
    pool = [m.e_mats[0], m.e_mats[1], m.f_mats[0], m.f_mats[1], m.k_i_matrix(0)]
    middles = []
    for _ in range(6):
        word = la.identity(m.dim, field)
        for _ in range(rng.randrange(0, 4)):
            word = la.mat_mul(word, pool[rng.randrange(len(pool))])
        middles.append(word)
    assert transformation_check(coeff, gens, gens, values, values, middles)


def test_uniqueness_of_spherical_coefficient(modules, aiii_sl3, params, field):
    # within one module the (chi, chi) coefficient is unique up to scalar:
    # the dual solve pins f, so any coefficient with the same transformation
    # law is proportional to it
    m = modules("A", 2, (1, 0))
    par = params["aiii_sl3_uniform"]
    gens = coideal_generators(par, m)
    line = find_spherical_lines(m, gens, par)[0]
    f1 = find_dual_spherical(line, gens)
    f2 = dual_spherical_vector(m, gens, line.character.b_values, m.lam)
    assert f1.proportional_to(f2)


def test_phi_twist_leaves_cartan_values(modules, aiii_sl3, field):
    # the Cartan restriction of a coefficient is blind to the diagonal twist
    from qspherical.braid import phi_diag
    m = modules("A", 2, (1, 1))
    par = Parameter(aiii_sl3, {0: parse_scalar("q^(1/2)", field)} | {1: parse_scalar("q^(1/2)", field)})
    gens = coideal_generators(par, m)
    line = find_spherical_lines(m, gens, par)[0]
    f = find_dual_spherical(line, gens)
    coeff = MatrixCoefficient(m, f, line.vector)
    d = phi_diag({0: field.q ** 2, 1: field.q ** 4}, m)
    twisted = MatrixCoefficient(m, d.inverse().apply(f), d.apply(line.vector))
    assert weight_function(coeff) == weight_function(twisted)


def test_main_theorem_reproduction_route(modules, aiii_sl3, params, field):
    # the shifted-dual route and the bar-vector route restrict identically
    m = modules("A", 2, (1, 0))
    par = params["aiii_sl3_uniform"]
    gens = coideal_generators(par, m)
    line = find_spherical_lines(m, gens, par)[0]
    dt = chi_shift_coideal(par, line.character)
    akin = akin_character(line.character, par)
    f = dual_spherical_vector(m, coideal_generators(dt, m), akin.b_values, m.lam)
    t1 = restrict_torus(MatrixCoefficient(m, f, line.vector), aiii_sl3)
    fbar = line.vector.bar()
    t2 = restrict_torus(MatrixCoefficient(m, fbar, line.vector), aiii_sl3)
    scale = next(iter(t2.data.values())) / next(iter(t1.data.values()))
    assert t1.scale(scale) == t2


small_keys = st.tuples(st.integers(-4, 4))


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(small_keys, st.integers(-3, 3), max_size=4),
       st.dictionaries(small_keys, st.integers(-3, 3), max_size=4))
def test_torus_function_algebra(d1, d2):
    basis = ((1,),)
    t1 = TorusFunction(basis, {k: F.rational(v) for k, v in d1.items()}, F)
    t2 = TorusFunction(basis, {k: F.rational(v) for k, v in d2.items()}, F)
    s = t1.add(t2)
    assert s.evaluate_coords([1]) == t1.evaluate_coords([1]) + t2.evaluate_coords([1])
    assert antipode_torus(antipode_torus(t1)) == t1
    assert bar_function(bar_function(t1)) == t1
