"""Acceptance criteria, one test per criterion, exact tolerances throughout.

Each test prints a single PASS line once its assertions went through; stated
runtime budgets are asserted alongside the mathematical content.
"""

import random
import time

import pytest

from qspherical import root_datum, tensor
from qspherical.braid import Operator, lusztig_T, rescaled_T
from qspherical.characters import (akin_character, dual_spherical_vector,
                                   find_dual_spherical, find_spherical_lines,
                                   hermitian_scan)
from qspherical.modules import (act_matrix, check_contravariance,
                                check_defining_relations)
from qspherical.qsp import Parameter, chi_shift_coideal, coideal_generators
from qspherical.quasik import (quasi_k, wz_character_check, wz_operator,
                               _uniform_normal_form)
from qspherical.rootdata import table1_constants
from qspherical.scalars import parse_scalar
from qspherical.spherical import (MatrixCoefficient, antipode_torus,
                                  appendix_double_sign_check, is_weyl_invariant,
                                  restrict_torus, rho_shift, tau0_bar_check,
                                  weight_function)
import qspherical.linalg as la


def report(num, text):
    print(f"ACCEPTANCE {num:02d} PASS  {text}")


@pytest.fixture(scope="module")
def scan_cases(field, ai1, aiii_sl3, aiii3_sl4, params, modules):
    """The criterion-7 scan: every character in the chosen module families,
    with its module, parameter and Satake datum; reused by 8, 9 and 11."""
    cases = []
    for n in range(1, 7):
        m = modules("A", 1, (n,))
        gens = coideal_generators(params["ai1_dist"], m)
        lines = find_spherical_lines(m, gens, params["ai1_dist"])
        cases.append((ai1, params["ai1_dist"], m, gens, lines))
    for lam in [(1, 0), (1, 1)]:
        m = modules("A", 2, lam)
        gens = coideal_generators(params["aiii_sl3_uniform"], m)
        lines = find_spherical_lines(m, gens, params["aiii_sl3_uniform"])
        cases.append((aiii_sl3, params["aiii_sl3_uniform"], m, gens, lines))
    m = modules("A", 3, (0, 1, 0))
    gens = coideal_generators(params["aiii3_sl4"], m)
    lines = find_spherical_lines(m, gens, params["aiii3_sl4"])
    cases.append((aiii3_sl4, params["aiii3_sl4"], m, gens, lines))
    return cases


def test_criterion_01_sl3_example(field, aiii_sl3, modules):
    start = time.time()
    q = field.q
    m = modules("A", 2, (1, 0))
    for c1, c2 in [(field.one, q), (parse_scalar("q^(1/2)", field),) * 2]:
        par = Parameter(aiii_sl3, {0: c1, 1: c2})
        gens = coideal_generators(par, m)
        line = find_spherical_lines(m, gens, par)[0]
        f = find_dual_spherical(line, gens).normalized_at(m.highest_index)
        t = restrict_torus(MatrixCoefficient(m, f, line.vector), aiii_sl3)
        for n in range(-4, 5):
            assert t.evaluate_coords([n]) == \
                q.inverse() * c1.inverse() * c2 * q ** (-n) + q ** n
    # the shifted pairing centers the restriction
    half = parse_scalar("q^(1/2)", field)
    par = Parameter(aiii_sl3, {0: half, 1: half})
    gens = coideal_generators(par, m)
    line = find_spherical_lines(m, gens, par)[0]
    tb = restrict_torus(MatrixCoefficient(m, line.vector.bar(), line.vector),
                        aiii_sl3)
    for n in range(-4, 5):
        assert tb.evaluate_coords([n]) == q ** n + q ** (-n)
    elapsed = time.time() - start
    assert elapsed < 5
    report(1, f"sl3 vector-representation restriction table ({elapsed:.2f}s)")


def test_criterion_02_sl4_example(field, aiii3_sl4, params, modules):
    start = time.time()
    q = field.q
    m6 = modules("A", 3, (0, 1, 0))
    par = params["aiii3_sl4"]
    gens = coideal_generators(par, m6)
    lines = find_spherical_lines(m6, gens, par)
    assert len(lines) == 2
    # the q-wedge model inside the tensor square of the vector representation
    m4 = modules("A", 3, (1, 0, 0))
    t = tensor(m4, m4)

    def wedge(i, j):
        vec = t.zero_vector()
        vec.coeffs[(i - 1) * 4 + (j - 1)] = field.one
        vec.coeffs[(j - 1) * 4 + (i - 1)] = -q
        return vec

    def embed(vec):
        out = t.zero_vector()
        for idx, c in enumerate(vec.coeffs):
            if c:
                img = wedge(1, 2)
                for i in reversed(m6.words[idx]):
                    img = act_matrix(t.f_mats[i], img)
                out = out + img.scale(c)
        return out

    stated = (wedge(1, 2) - wedge(1, 3) + wedge(2, 4).scale(q.inverse())
              - wedge(3, 4).scale(q.inverse()))
    assert any(embed(ln.vector).proportional_to(stated) for ln in lines)
    for line in lines:
        table = restrict_torus(
            MatrixCoefficient(m6, line.vector.bar(), line.vector), aiii3_sl4)
        for n in range(-3, 4):
            for mm in range(-3, 4):
                coords = aiii3_sl4.y_theta_coords((mm, n, mm))
                assert table.evaluate_coords(coords) == \
                    q ** n + q ** (2 * mm - n) + q ** (n - 2 * mm) + q ** (-n)
        assert is_weyl_invariant(table, aiii3_sl4)[0]
    # shifted generators of the twin line: d = (q^2, q, q^2), t_2 = -q
    by_label = {ln.character.labels[1]: ln for ln in lines}
    dt = chi_shift_coideal(par, by_label[1].character)
    assert dt.c[0] == q ** 2 and dt.c[2] == q ** 2 and dt.c[1] == q
    assert dt.s[1] == -q and dt.s[0].is_zero() and dt.s[2].is_zero()
    elapsed = time.time() - start
    assert elapsed < 60
    report(2, f"sl4 exterior-square example: line, table, invariance, shift "
              f"({elapsed:.2f}s)")


def test_criterion_03_parameter_table(field):
    start = time.time()
    expected = {
        ("AI1", None): (2, 0, 0, 2), ("AII3", None): (2, -2, 2, 4),
        ("AIII11", None): (2, 0, 0, 2), ("AIV", 2): (2, 0, 0, 2),
        ("AIV", 3): (2, -1, 1, 3), ("BII", 2): (4, -2, 2, 6),
        ("BII", 3): (4, -4, 6, 10), ("CII", 3): (2, -2, 3, 5),
        ("CII", 4): (2, -4, 5, 7), ("DII", 4): (2, -4, 4, 6),
        ("DII", 5): (2, -6, 6, 8), ("FII", None): (2, -6, 9, 11),
    }
    for (label, n), row in expected.items():
        assert table1_constants(label, n) == row, (label, n)
    elapsed = time.time() - start
    assert elapsed < 5
    report(3, f"all rank-one parameter-table rows, parametrized rows at two "
              f"ranks each ({elapsed:.2f}s)")


def test_criterion_04_braid_suite(field, modules):
    start = time.time()
    suite = [("A", 2, [(1, 0), (1, 1)]), ("A", 3, [(1, 0, 0), (0, 1, 0)]),
             ("B", 2, [(1, 0), (0, 1)])]
    for family, rank, lams in suite:
        datum = root_datum(family, rank)
        for lam in lams:
            m = modules(family, rank, lam)
            for i in range(rank):
                for e in (1, -1):
                    assert (lusztig_T(i, e, "doubleprime", m)
                            @ lusztig_T(i, -e, "prime", m)).is_identity()
            for i in range(rank):
                for j in range(i + 1, rank):
                    mij = {0: 2, -1: 3, -2: 4}[datum.cartan[i][j] * datum.cartan[j][i] * -1
                                               if datum.cartan[i][j] else 0]
                    for kind in ("prime", "doubleprime"):
                        for e in (1, -1):
                            ti = lusztig_T(i, e, kind, m)
                            tj = lusztig_T(j, e, kind, m)
                            lhs, rhs = ti, tj
                            for k in range(1, mij):
                                lhs = lhs @ (tj if k % 2 else ti)
                                rhs = rhs @ (ti if k % 2 else tj)
                            assert lhs == rhs, (family, lam, i, j, kind, e)
    elapsed = time.time() - start
    assert elapsed < 60
    report(4, f"braid relations and inverse relation on the module suite "
              f"({elapsed:.2f}s)")


def test_criterion_05_module_relations(field, modules):
    start = time.time()
    zoo = [("A", 1, (1,)), ("A", 1, (2,)), ("A", 1, (4,)), ("A", 1, (6,)),
           ("A", 2, (1, 0)), ("A", 2, (1, 1)), ("A", 3, (1, 0, 0)),
           ("A", 3, (0, 1, 0)), ("A", 3, (0, 2, 0)), ("B", 2, (1, 0)),
           ("B", 2, (0, 1))]
    for family, rank, lam in zoo:
        m = modules(family, rank, lam)
        assert check_defining_relations(m) == [], (family, lam)
        assert check_contravariance(m) == [], (family, lam)
    elapsed = time.time() - start
    report(5, f"defining relations and contravariance on {len(zoo)} modules "
              f"({elapsed:.2f}s)")


def test_criterion_06_quasik_suite(field, ai1, aiii_sl3, params, modules):
    start = time.time()
    rng = random.Random(20)
    cases = [(ai1, params["ai1_dist"], [("A", 1, (n,)) for n in (1, 2, 3, 4, 6)]),
             (aiii_sl3, params["aiii_sl3_uniform"],
              [("A", 2, (1, 0)), ("A", 2, (1, 1)), ("A", 2, (2, 1))])]
    for satake, par, mods in cases:
        for family, rank, lam in mods:
            m = modules(family, rank, lam)
            assert m.dim <= 30
            for i in satake.relative_orbit_representatives():
                qk = quasi_k(i, par, m)
                assert qk.zero_block_is_identity()
                assert qk.residual_ok          # defining system, exactly zero
                if qk.mode == "uniform":
                    assert qk.operator.bar_conjugate() == qk.operator.inverse()
                else:
                    # transported operators satisfy the bar-inverse property
                    # through their uniform normal form
                    par_u, _, _ = _uniform_normal_form(i, par)
                    qk_u = quasi_k(i, par_u, m)
                    assert qk_u.operator.bar_conjugate() == qk_u.operator.inverse()
                resc = rescaled_T(i, par, m)
                big = qk.operator @ resc
                pool = ([m.e_mats[j] for j in range(rank)]
                        + [m.f_mats[j] for j in range(rank)]
                        + [m.k_i_matrix(0)])
                for _ in range(20):
                    word = la.identity(m.dim, field)
                    for _ in range(rng.randrange(1, 5)):
                        word = la.mat_mul(word, pool[rng.randrange(len(pool))])
                    x = Operator(m, word)
                    assert (big.conj(x) @ qk.operator) == (qk.operator @ resc.conj(x))
    elapsed = time.time() - start
    assert elapsed < 120
    report(6, f"intertwiner suite: constant term, bar inverse, residual, "
              f"factorization on random words ({elapsed:.2f}s)")


def test_criterion_07_character_braid_invariance(scan_cases):
    start = time.time()
    count = 0
    for satake, par, m, gens, lines in scan_cases:
        for line in lines:
            for i in satake.relative_orbit_representatives():
                ok, cert = wz_character_check(line, i, par, gens)
                assert ok, (m.lam, line.character.labels, cert)
                count += 1
    elapsed = time.time() - start
    report(7, f"relative braid invariance of all {count} scanned character "
              f"instances ({elapsed:.2f}s)")


def test_criterion_08_spherical_invariance(scan_cases, field):
    start = time.time()
    rng = random.Random(31)
    checked = 0
    for satake, par, m, gens, lines in scan_cases:
        n = satake.datum.n
        torus_words = []
        for k in range(n):
            h = tuple(1 if j == k else 0 for j in range(n))
            torus_words.append(m.k_matrix(h))
            torus_words.append(m.k_matrix(tuple(-x for x in h)))
        pool = ([m.e_mats[j] for j in range(n)] + [m.f_mats[j] for j in range(n)]
                + [m.k_i_matrix(j) for j in range(n)])
        bordered = []
        for _ in range(12):
            word = la.identity(m.dim, field)
            for _ in range(rng.randrange(1, 5)):
                word = la.mat_mul(word, pool[rng.randrange(len(pool))])
            bordered.append(word)
        for line in lines:
            f = find_dual_spherical(line, gens)
            for i in satake.relative_orbit_representatives():
                big = wz_operator(i, par, m)
                conj_back = big.inverse()
                for x in torus_words + bordered:
                    moved = la.mat_mul(big.mat, la.mat_mul(x, conj_back.mat))
                    lhs = m.shapovalov(f, act_matrix(moved, line.vector))
                    rhs = m.shapovalov(f, act_matrix(x, line.vector))
                    assert lhs == rhs, (m.lam, line.character.labels, i)
                checked += 1
    elapsed = time.time() - start
    report(8, f"spherical functions fixed by precomposition on a spanning set "
              f"({checked} line-generator pairs, {elapsed:.2f}s)")


def test_criterion_09_main_theorem(scan_cases):
    start = time.time()
    count = 0
    for satake, par, m, gens, lines in scan_cases:
        for line in lines:
            dt = chi_shift_coideal(par, line.character)
            akin = akin_character(line.character, par)
            f = dual_spherical_vector(m, coideal_generators(dt, m),
                                      akin.b_values, m.lam)
            table = restrict_torus(MatrixCoefficient(m, f, line.vector), satake)
            ok, cert = is_weyl_invariant(table, satake)
            assert ok, (m.lam, line.character.labels, cert)
            count += 1
    elapsed = time.time() - start
    report(9, f"restricted akin-paired spherical functions invariant in all "
              f"{count} scanned cases ({elapsed:.2f}s)")


def test_criterion_10_rank_one_zonal(field, ai1, modules):
    start = time.time()
    rho_h = ai1.datum.coweight_of_weight(ai1.datum.rho())
    for lam in [(2,), (4,)]:
        for c, s in [("-q^-2", "0"), ("q^-1", "1")]:
            par = Parameter(ai1, {0: parse_scalar(c, field)},
                            {0: parse_scalar(s, field)})
            m = modules("A", 1, lam)
            gens = coideal_generators(par, m)
            zonal = [ln for ln in find_spherical_lines(m, gens, par)
                     if ln.character.b_values[0] == par.s[0]]
            assert len(zonal) == 1
            phi = MatrixCoefficient(m, find_dual_spherical(zonal[0], gens),
                                    zonal[0].vector)
            t = weight_function(phi)
            assert antipode_torus(t) == weight_function(
                rho_shift(phi, tuple(2 * x for x in rho_h)))
            shifted = restrict_torus(rho_shift(phi, rho_h), ai1)
            assert is_weyl_invariant(shifted, ai1)[0]
    elapsed = time.time() - start
    report(10, f"rank-one zonal antipode identity and affine invariance "
               f"({elapsed:.2f}s)")


def test_criterion_11_multiplicity_one(scan_cases):
    # the solver raises on any joint eigenspace of dimension two or more, so
    # completing the scans certifies multiplicity one; recheck the kernels
    start = time.time()
    total = 0
    for satake, par, m, gens, lines in scan_cases:
        for line in lines:
            rows = []
            for i in sorted(satake.I_circ):
                bmat = gens.B[i].mat
                val = line.character.b_values[i]
                for r in range(m.dim):
                    row = list(bmat[r])
                    row[r] = row[r] - val
                    rows.append(row)
            for j in sorted(satake.black):
                rows.extend(m.e_mats[j])
                rows.extend(m.f_mats[j])
            for h, op in gens.torus:
                target = line.character.torus_value(h)
                for r in range(m.dim):
                    row = list(op.mat[r])
                    row[r] = row[r] - target
                    rows.append(row)
            kernel = la.nullspace(rows, m.dim, m.field)
            assert len(kernel) == 1
            total += 1
    elapsed = time.time() - start
    report(11, f"multiplicity one across {total} scanned value systems "
               f"({elapsed:.2f}s)")


def test_criterion_12_hermitian_dichotomy(field, ai1, aii3, params):
    start = time.time()
    rep = hermitian_scan(ai1, params["ai1_dist"], field,
                         weights=[(n,) for n in range(7)])
    nontrivial = rep.nontrivial()
    assert len(nontrivial) >= 3
    assert len(nontrivial) == len(set(nontrivial))
    rep2 = hermitian_scan(aii3, params["aii3"], field,
                          weights=[(0, 1, 0), (0, 2, 0)])
    assert rep2.nontrivial() == []
    assert all(len(chars) == 1 and chars[0].is_trivial()
               for _, chars in rep2.entries)
    elapsed = time.time() - start
    report(12, f"split scan carries {len(nontrivial)} nontrivial characters, "
               f"black sl4 scan only the counit ({elapsed:.2f}s)")


def test_criterion_13_double_sign_identity(field, aii3, aiii_sl3, params, modules):
    start = time.time()
    m = modules("A", 3, (0, 1, 0))
    gens = coideal_generators(params["aii3"], m)
    line = find_spherical_lines(m, gens, params["aii3"])[0]
    ok, details = appendix_double_sign_check(line, aii3)
    assert ok, details
    # vacuous for diagrams without black nodes
    m3 = modules("A", 2, (1, 1))
    gens3 = coideal_generators(params["aiii_sl3_uniform"], m3)
    line3 = find_spherical_lines(m3, gens3, params["aiii_sl3_uniform"])[0]
    ok3, _ = appendix_double_sign_check(line3, aiii_sl3)
    assert ok3
    elapsed = time.time() - start
    report(13, f"double-sign identity on the black sl4 spherical vector "
               f"({elapsed:.2f}s)")


def test_criterion_14_tau0_bar_symmetry(field, aiii_sl3, params, modules):
    start = time.time()
    m = modules("A", 2, (1, 1))
    gens = coideal_generators(params["aiii_sl3_uniform"], m)
    line = find_spherical_lines(m, gens, params["aiii_sl3_uniform"])[0]
    phi = MatrixCoefficient(m, find_dual_spherical(line, gens), line.vector)
    assert aiii_sl3.tau0() == aiii_sl3.tau
    assert tau0_bar_check(phi, aiii_sl3)
    elapsed = time.time() - start
    report(14, f"bar symmetry of Cartan values on the quasi-split zonal pair "
               f"({elapsed:.2f}s)")
