import json
import pathlib
from fractions import Fraction

import pytest
import sympy

from qspherical import Field
from qspherical.characters import (NoDualLine, akin_character,
                                   dual_spherical_vector, eigenvalue,
                                   find_dual_spherical, find_spherical_lines,
                                   hermitian_scan, line_character_values)
from qspherical.modules import build_simple
from qspherical.qsp import Parameter, chi_shift_coideal, coideal_generators
from qspherical.scalars import parse_scalar
import qspherical.linalg as la

F = Field(2)


def test_eigenvalue_closed_form_oracle():
    # oracle first: check with sympy that the half-power form of the label
    # eigenvalue collapses to the implemented one, then compare on a grid
    q, csym, ssym = sympy.symbols("q c s", positive=True)
    l = sympy.Symbol("l", integer=True)
    nested = ((q ** l - q ** -l) / 2 * sympy.sqrt(ssym ** 2 + 4 * q * csym / (q - 1 / q) ** 2)
               + ssym / 2 * (q ** (sympy.Rational(1, 2) * l) - q ** (-sympy.Rational(1, 2) * l)) ** 2
               + ssym)
    simplified = ((q ** l - q ** -l) / 2 * sympy.sqrt(ssym ** 2 + 4 * q * csym / (q - 1 / q) ** 2)
                  + ssym * (q ** l + q ** -l) / 2)
    assert sympy.simplify(sympy.expand(nested - simplified)) == 0
    for lv in (0, 1, 2, -1):
        got = eigenvalue(F.q ** 3, F.zero, 1, lv)
        expect = F.qint(lv, 1) * (F.q * F.q ** 3).monomial_sqrt()
        assert got == expect or got == -expect
    # with the distinguished split value the root needs the imaginary unit
    got = eigenvalue(-F.q ** (-2), F.zero, 1, 1)
    assert got == F.i * F.q_power(Fraction(-1, 2)) or \
        got == -F.i * F.q_power(Fraction(-1, 2))
    assert eigenvalue(F.q, F.zero, 1, 0).is_zero()
    assert eigenvalue(F.q, F.one, 1, 0) == F.one     # the s-part survives at l=0


def test_eigenvalues_match_characteristic_polynomial(modules, ai1, params):
    # oracle: the operator is annihilated by the product of its eigenvalue
    # shifts and the eigenspaces fill the module
    from qspherical.qsp import coideal_generators
    for n in (1, 2, 3, 4):
        m = modules("A", 1, (n,))
        b = coideal_generators(params["ai1_dist"], m).B[0]
        values = []
        for l in range(-n, n + 1):
            if (n - l) % 2 == 0:
                val = eigenvalue(params["ai1_dist"].c[0], F.zero, 1, l)
                if val not in values:
                    values.append(val)
        prod = la.identity(m.dim, F)
        for val in values:
            shift = [[b.mat[r][c] - (val if r == c else F.zero)
                      for c in range(m.dim)] for r in range(m.dim)]
            prod = la.mat_mul(prod, shift)
        assert la.is_zero_matrix(prod)
        assert len(values) == m.dim


def test_trivial_module_has_counit(modules, ai1, params):
    m = modules("A", 1, (0,))
    gens = coideal_generators(params["ai1_dist"], m)
    lines = find_spherical_lines(m, gens, params["ai1_dist"])
    assert len(lines) == 1
    assert lines[0].character.is_trivial()


def test_sl3_vector_example(modules, aiii_sl3, field):
    c1, c2 = field.one, field.q
    par = Parameter(aiii_sl3, {0: c1, 1: c2})
    m = modules("A", 2, (1, 0))
    gens = coideal_generators(par, m)
    lines = find_spherical_lines(m, gens, par)
    assert len(lines) == 1
    line = lines[0]
    # v = v1 - c1^{-1} v3 in the lowering-word basis
    assert line.vector.coeffs[0] == field.one
    assert line.vector.coeffs[2] == -c1.inverse()
    assert line.vector.coeffs[1].is_zero()
    # torus value q on K_1 K_2^{-1}
    h = (1, -1)
    assert line.character.torus_value(h) == field.q
    # dual line: v^r proportional to v1 - q^{-1} c2 v3
    f = find_dual_spherical(line, gens)
    assert (f.coeffs[2] / f.coeffs[0]) == -field.q.inverse() * c2
    assert m.shapovalov(f, line.vector) == field.one


def test_spherical_shape_invariant(modules, aiii3_sl4, params):
    m = modules("A", 3, (0, 1, 0))
    gens = coideal_generators(params["aiii3_sl4"], m)
    for line in find_spherical_lines(m, gens, params["aiii3_sl4"]):
        assert line.vector.coeffs[m.highest_index] == F.one
        assert not line.vector.coeffs[m.lowest_index].is_zero()
        values = line_character_values(line, gens)
        for i, expected in line.character.b_values.items():
            assert values[f"B_{i}"] == expected


def test_multiplicity_one_guard(modules, ai1, params):
    # the solver raises rather than silently returning a fat eigenspace
    for n in (1, 2, 3, 4):
        m = modules("A", 1, (n,))
        gens = coideal_generators(params["ai1_dist"], m)
        lines = find_spherical_lines(m, gens, params["ai1_dist"])
        assert len(lines) == n + 1
        assert len({ln.character for ln in lines}) == n + 1


def test_dual_requires_line(modules, ai1, params, field):
    m = modules("A", 1, (2,))
    gens = coideal_generators(params["ai1_dist"], m)
    with pytest.raises(NoDualLine):
        dual_spherical_vector(m, gens, {0: field.one + field.q}, m.lam)


def test_akin_character(modules, aiii3_sl4, params, field):
    m = modules("A", 3, (0, 1, 0))
    gens = coideal_generators(params["aiii3_sl4"], m)
    lines = find_spherical_lines(m, gens, params["aiii3_sl4"])
    line = lines[0]
    akin = akin_character(line.character, params["aiii3_sl4"])
    assert all(v.is_zero() for v in akin.b_values.values())
    assert akin.torus_value((1, 0, -1)) == line.character.torus_value((1, 0, -1))
    dt = chi_shift_coideal(params["aiii3_sl4"], line.character)
    f = dual_spherical_vector(m, coideal_generators(dt, m), akin.b_values, m.lam)
    assert f.proportional_to(line.vector.bar())


def test_akin_for_trivial_character_nonhermitian(modules, aii3, params, field):
    m = modules("A", 3, (0, 1, 0))
    gens = coideal_generators(params["aii3"], m)
    lines = find_spherical_lines(m, gens, params["aii3"])
    assert len(lines) == 1 and lines[0].character.is_trivial()
    akin = akin_character(lines[0].character, params["aii3"])
    assert all(v.is_zero() for v in akin.b_values.values())


def test_hermitian_scan_dichotomy(ai1, aii3, params, field):
    rep = hermitian_scan(ai1, params["ai1_dist"], field,
                         weights=[(n,) for n in range(7)])
    assert len(rep.nontrivial()) >= 3
    assert len(rep.nontrivial()) == 12
    rep2 = hermitian_scan(aii3, params["aii3"], field,
                          weights=[(0, 1, 0), (0, 2, 0)])
    assert rep2.nontrivial() == []
    assert all(len(chars) == 1 for _, chars in rep2.entries)
    body = rep.describe()
    assert body["distinct_nontrivial"] == 12


def test_character_equality_across_hosts(ai1, params, field, modules):
    # the counit found in different modules is one character
    m0 = modules("A", 1, (0,))
    m2 = modules("A", 1, (2,))
    g0 = coideal_generators(params["ai1_dist"], m0)
    g2 = coideal_generators(params["ai1_dist"], m2)
    eps0 = find_spherical_lines(m0, g0, params["ai1_dist"])[0].character
    eps2 = [ln.character for ln in find_spherical_lines(m2, g2, params["ai1_dist"])
            if ln.character.b_values[0].is_zero()][0]
    assert eps0 == eps2
    assert hash(eps0) == hash(eps2)


def test_bar_compatibility_for_uniform_values(field):
    # for uniform split values q_i c_i is bar-fixed, so the label eigenvalues
    # are bar-invariant scalars
    for gamma in (1, -1, 4):
        c = field.rational(gamma) * field.q.inverse()
        for l in (1, 2, 3, -2):
            val = eigenvalue(c, field.zero, 1, l)
            assert val is not None
            assert val.bar() == val
    # a non-uniform value is not bar-compatible
    val = eigenvalue(-field.q ** (-2), field.zero, 1, 1)
    assert val.bar() != val


def test_transport_of_characters_under_twist(modules, ai1, field):
    # characters of the twisted parameter are the twists of the originals:
    # same labels, eigenvalues scaled by the square root of the twist
    from qspherical.qsp import twist_parameter
    m = modules("A", 1, (2,))
    par = Parameter(ai1, {0: -field.q.inverse()})
    tw = twist_parameter({0: field.q ** 2}, par)
    lines = find_spherical_lines(m, coideal_generators(par, m), par)
    lines_tw = find_spherical_lines(m, coideal_generators(tw, m), tw)
    root = (field.q ** 2).monomial_sqrt()
    vals = sorted(str(ln.character.b_values[0] * root) for ln in lines)
    vals_tw = sorted(str(ln.character.b_values[0]) for ln in lines_tw)
    assert vals == vals_tw


# -- the stacked torus rows, kept as a reference for the torus supports --

CONFIG_DIR = pathlib.Path(__file__).parent.parent / "configs"
CONFIG_PATHS = sorted(CONFIG_DIR.glob("*.json"))
CONFIG_WEIGHTS = {"ai1": [(2,), (3,), (4,)], "aii3_sl4": [(0, 1, 0), (0, 2, 0)],
                  "aiii3_sl4": [(0, 1, 0), (1, 0, 1)],
                  "aiii_sl3": [(1, 0), (1, 1), (2, 1)], "bii_so5": [(1, 0), (1, 1)]}


def _stacked_kernel(module, gens, lam, white):
    """The joint kernel over the whole module of the black rows, the torus
    eigen-rows K_h - q^<h, lam> and the white rows X - value."""
    field = module.field
    rows = []
    for j in sorted(gens.param.satake.black):
        rows += module.e_mats[j] + module.f_mats[j]
    eigen = [(op.mat, field.q_power(module.datum.pair(h, lam))) for h, op in gens.torus]
    for mat, value in eigen + white:
        rows += [[x - value if r == c else x for c, x in enumerate(row)]
                 for r, row in enumerate(mat)]
    return la.nullspace(rows, module.dim, field)


@pytest.mark.parametrize("path", CONFIG_PATHS, ids=lambda p: p.stem)
def test_support_kernels_match_the_stacked_torus_rows(path, dense_rho):
    # every candidate value tuple, for lines (B_i) and dual lines (rho(B_i),
    # and the form applied to B_i - value, which has the same kernel), with
    # or without a solution; the stacked reference takes rho from the dense
    # Gram form
    import itertools
    from qspherical.characters import (_black_rows, _candidate_values,
                                       _eigen_rows, _joint_kernel,
                                       _torus_support)
    from qspherical.qsp import distinguished_parameter
    from qspherical.rootdata import satake_from_config
    satake = satake_from_config(json.loads(path.read_text()))
    datum = satake.datum
    par = distinguished_parameter(satake, F)
    nodes = sorted(satake.I_circ)
    found = 0
    for lam in CONFIG_WEIGHTS[path.stem]:
        m = build_simple(datum, lam, F)
        gens = coideal_generators(par, m)
        support = _torus_support(m, gens, lam)
        w0lam = datum.act_word_X(datum.w0_word(), lam)
        values = [_candidate_values(par, i, int(lam[i] - w0lam[i]))
                  if i in satake.I_ns else [(F.zero, None)] for i in nodes]

        def form_applied(mat, v):
            # G is invertible, so (G (B_i - value))^T has the kernel of
            # rho(B_i) - value; on the support only its support rows count
            full = m.gram_times(_eigen_rows(mat, v, range(m.dim)))
            return la.transpose([full[k] for k in support])

        for combo in itertools.product(*values):
            plain = [(gens.B[i].mat, v) for i, (v, _) in zip(nodes, combo)]
            rho = [(dense_rho(m, mat), v) for mat, v in plain]
            rho_rows = [_eigen_rows(gens.rho_B[i].mat, v, support)
                        for i, (v, _) in zip(nodes, combo)]
            # (stacked reference, white rows on the support)
            for white, white_rows in (
                    (plain, [_eigen_rows(mat, v, support) for mat, v in plain]),
                    (rho, rho_rows),
                    (rho, [form_applied(mat, v) for mat, v in plain])):
                rows = _black_rows(m, gens, support)
                for block in white_rows:
                    rows += block
                got = _joint_kernel(m, rows, {}, {}, support)
                assert got == _stacked_kernel(m, gens, lam, white)
                found += len(got)
    assert found


def test_candidate_values_take_one_root_per_node(modules, ai1, params,
                                                 monkeypatch):
    from qspherical.characters import _candidate_values
    from qspherical.scalars import FieldElem
    roots = []
    sqrt = FieldElem.field_sqrt
    monkeypatch.setattr(FieldElem, "field_sqrt",
                        lambda self: roots.append(self) or sqrt(self))
    par = params["ai1_dist"]
    got = _candidate_values(par, 0, 4)
    assert len(roots) == 1
    assert got == [(eigenvalue(par.c[0], par.s[0], 1, l), l)
                   for l in (0, 1, -1, 2, -2, 3, -3, 4, -4)]


@pytest.mark.parametrize("key", ["aiii3_sl4", "aii3"])
def test_dual_lines_touch_no_gram_block(key, modules, params, monkeypatch):
    # the dual system is the spherical one with rho(B_i) for B_i: neither
    # the form G X nor any product with a Gram block enters it
    from qspherical.modules import SimpleModule
    from qspherical.qsp import CoidealGenerators
    m = modules("A", 3, (0, 1, 0))
    par = params[key]
    gens = CoidealGenerators(par, m)    # rho(B_i) is built under the spies
    line = find_spherical_lines(m, gens, par)[0]
    grams = list(m.grams.values())
    mat_mul = la.mat_mul

    def no_gram_block(a, b):
        assert not any(x is g for x in (a, b) for g in grams)
        return mat_mul(a, b)

    def no_form(self, mat):
        raise AssertionError("the contravariant form was applied")

    monkeypatch.setattr(la, "mat_mul", no_gram_block)
    monkeypatch.setattr(SimpleModule, "gram_times", no_form)
    f = dual_spherical_vector(m, gens, line.character.b_values, m.lam)
    assert m.shapovalov(f, line.vector)
    assert m.shapovalov(find_dual_spherical(line, gens), line.vector) == m.field.one


@pytest.mark.parametrize("path", CONFIG_PATHS, ids=lambda p: p.stem)
def test_screen_only_drops_candidates_without_a_line(path):
    # soundness of the candidate screen: a candidate it drops has an empty
    # exact joint kernel, for every candidate of every config weight; and at
    # the fixed screen point it drops every candidate without a line
    import itertools
    from qspherical.characters import (_black_rows, _candidate_values,
                                       _joint_kernel, _screen, _screened_out,
                                       _torus_support)
    from qspherical.qsp import distinguished_parameter
    from qspherical.rootdata import satake_from_config
    satake = satake_from_config(json.loads(path.read_text()))
    datum = satake.datum
    par = distinguished_parameter(satake, F)
    nodes = sorted(satake.I_circ)
    dropped = lineless = 0
    for lam in CONFIG_WEIGHTS[path.stem]:
        m = build_simple(datum, lam, F)
        gens = coideal_generators(par, m)
        support = _torus_support(m, gens, lam)
        base = _black_rows(m, gens, support)
        screen = _screen(base, gens.B, support)
        w0lam = datum.act_word_X(datum.w0_word(), lam)
        values = [_candidate_values(par, i, int(lam[i] - w0lam[i]))
                  if i in satake.I_ns else [(F.zero, None)] for i in nodes]
        for combo in itertools.product(*values):
            vals = {i: v for i, (v, _) in zip(nodes, combo)}
            kernel = _joint_kernel(m, base, gens.B, vals, support)
            screened = _screened_out(screen, vals, support)
            assert not (screened and kernel)
            dropped += screened
            lineless += not kernel
    assert dropped == lineless


def test_screen_falls_back_when_a_denominator_vanishes(modules, aiii3_sl4, params,
                                                       monkeypatch):
    import types
    import qspherical.characters as characters
    from qspherical.characters import (_black_rows, _screen, _screened_out,
                                       _torus_support)
    m = modules("A", 3, (0, 1, 0))
    par = params["aiii3_sl4"]
    gens = coideal_generators(par, m)
    support = _torus_support(m, gens, m.lam)
    base = _black_rows(m, gens, support)
    screen = _screen(base, gens.B, support)
    # q^7 is no eigenvalue: the screen drops it
    wrong = {i: F.q ** 7 for i in gens.B}
    assert _screened_out(screen, wrong, support)
    # 1/(v - t) has no value at the screen point v = t
    i = min(gens.B)
    pole = (F.v - F.rational(la._SCREEN_POINT)).inverse()
    assert not _screened_out(screen, {**wrong, i: pole}, support)
    mat = [list(row) for row in gens.B[i].mat]
    mat[0][support[0]] = pole
    white = {**gens.B, i: types.SimpleNamespace(mat=mat)}
    assert _screen(base, white, support) is None
    assert not _screened_out(None, wrong, support)
    # with the screen off, the exact path finds the same lines
    lines = find_spherical_lines(m, gens, par)
    monkeypatch.setattr(characters, "_screen", lambda *args: None)
    exact = find_spherical_lines(m, gens, par)
    assert [ln.vector for ln in exact] == [ln.vector for ln in lines]
    assert [ln.character for ln in exact] == [ln.character for ln in lines]
