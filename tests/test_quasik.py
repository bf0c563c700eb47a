import json
import pathlib
import random

import pytest

from qspherical import Field
from qspherical.braid import Operator, phi_diag, rescaled_T
from qspherical.characters import find_spherical_lines
from qspherical.modules import act_matrix, build_simple
from qspherical.qsp import (Parameter, ParameterError, coideal_generators,
                            distinguished_parameter)
from qspherical.quasik import (IntertwinerError, _uniform_normal_form,
                               _UnipotentInverse, quasi_k, verify_intertwining,
                               wz_character_check, wz_operator, wz_precompose)
from qspherical.rootdata import satake_from_config
from qspherical.scalars import UnrepresentableScalar
import qspherical.linalg as la

F = Field(2)


def test_trivial_module_identity(modules, ai1, params):
    m = modules("A", 1, (0,))
    qk = quasi_k(0, params["ai1_uniform"], m)
    assert qk.operator.is_identity()


def test_uniform_rank_one_solution(modules, ai1, params):
    # hand-solved system on the three-dimensional module: only the weight-2
    # raising block survives and carries [2](c - bar c)
    m = modules("A", 1, (2,))
    c = params["ai1_uniform"].c[0]
    qk = quasi_k(0, params["ai1_uniform"], m)
    assert qk.mode == "uniform"
    assert qk.zero_block_is_identity()
    expected = F.qint(2, 1) * (c - c.bar())
    assert qk.operator.mat[0][2] == expected
    assert qk.operator.mat[0][1].is_zero()
    assert qk.operator.mat[1][2].is_zero()
    assert qk.operator.bar_conjugate() == qk.operator.inverse()


def test_two_dimensional_intertwiner_is_identity(modules, ai1, params):
    m = modules("A", 1, (1,))
    for key in ("ai1_uniform", "ai1_dist"):
        qk = quasi_k(0, params[key], m)
        assert qk.operator.is_identity()


def test_transported_solution(modules, ai1, params):
    # conjugate of the uniform solution by the positive monomial twist
    m = modules("A", 1, (2,))
    qk = quasi_k(0, params["ai1_dist"], m)
    assert qk.mode == "transported"
    assert qk.twist == F.q
    assert qk.zero_block_is_identity()
    # value pinned by line preservation: [2](1 - q^-2) on the corner block
    assert qk.operator.mat[0][2] == F.qint(2, 1) * (F.one - F.q ** (-2))
    assert qk.residual_ok


def test_nonuniform_plain_system_is_inconsistent(modules, ai1, params):
    # with the same non-uniform c on both sides the system has no solution;
    # the right-hand side needs the uniform image of c
    from qspherical.quasik import _rank_one_generators, _solve_intertwiner
    m = modules("A", 1, (1,))
    par = params["ai1_dist"]
    pairs = _rank_one_generators(0, par, m, right=par)
    with pytest.raises(IntertwinerError):
        _solve_intertwiner(0, par.satake, pairs, m)


def test_intertwining_residual_exactly_zero(modules, aiii_sl3, params):
    m = modules("A", 2, (1, 1))
    qk = quasi_k(0, params["aiii_sl3_uniform"], m)
    assert qk.mode == "uniform"
    assert verify_intertwining(qk, params["aiii_sl3_uniform"])
    assert qk.operator.bar_conjugate() == qk.operator.inverse()


def test_bar_inverse_fails_for_transported_plain_bar(modules, ai1, params):
    # documented: the plain bar-inverse property characterizes the uniform
    # normal form; the transported operator satisfies it only through that form
    m = modules("A", 1, (2,))
    qk = quasi_k(0, params["ai1_dist"], m)
    assert qk.operator.bar_conjugate() != qk.operator.inverse()
    par_u, a, b = _uniform_normal_form(0, params["ai1_dist"])
    qk_u = quasi_k(0, par_u, m)
    assert qk_u.operator.bar_conjugate() == qk_u.operator.inverse()


def test_factorized_identity_on_random_words(modules, ai1, params):
    m = modules("A", 1, (3,))
    rng = random.Random(11)
    par = params["ai1_dist"]
    qk = quasi_k(0, par, m)
    resc = rescaled_T(0, par, m)
    big = qk.operator @ resc
    pool = [m.e_mats[0], m.f_mats[0], m.k_i_matrix(0), m.k_i_matrix(0, -1)]
    for _ in range(20):
        word = la.identity(m.dim, F)
        for _ in range(rng.randrange(1, 5)):
            word = la.mat_mul(word, pool[rng.randrange(len(pool))])
        x = Operator(m, word)
        lhs = (big.conj(x)) @ qk.operator
        rhs = qk.operator @ resc.conj(x)
        assert lhs == rhs


def test_equivariance_on_vectors(modules, ai1, params):
    m = modules("A", 1, (2,))
    par = params["ai1_uniform"]
    big = wz_operator(0, par, m)
    rng = random.Random(3)
    pool = [m.e_mats[0], m.f_mats[0], m.k_i_matrix(0)]
    for _ in range(6):
        word = la.identity(m.dim, F)
        for _ in range(rng.randrange(1, 4)):
            word = la.mat_mul(word, pool[rng.randrange(3)])
        v = m.basis_vector(rng.randrange(m.dim))
        lhs = big.apply(act_matrix(word, v))
        rhs = act_matrix(big.conj(Operator(m, word)).mat, big.apply(v))
        assert lhs == rhs


def test_spherical_vector_maps_to_multiple(modules, ai1, params):
    m = modules("A", 1, (2,))
    par = params["ai1_dist"]
    gens = coideal_generators(par, m)
    for line in find_spherical_lines(m, gens, par):
        image = wz_operator(0, par, m).apply(line.vector)
        assert image.proportional_to(line.vector)


def test_wz_character_checks(modules, ai1, aiii_sl3, aiii3_sl4, params):
    cases = [("A", 1, (4,), ai1, "ai1_dist"),
             ("A", 2, (1, 1), aiii_sl3, "aiii_sl3_uniform"),
             ("A", 3, (0, 1, 0), aiii3_sl4, "aiii3_sl4")]
    for family, rank, lam, satake, key in cases:
        m = modules(family, rank, lam)
        par = params[key]
        gens = coideal_generators(par, m)
        for line in find_spherical_lines(m, gens, par):
            for i in satake.relative_orbit_representatives():
                ok, cert = wz_character_check(line, i, par, gens)
                assert ok, cert


def test_iota_bar_fixes_lines_after_scaling(modules, ai1, params):
    # the intertwiner composed with bar fixes each spherical line once the
    # vector is scaled to have lowest coefficient one
    m = modules("A", 1, (2,))
    par = params["ai1_uniform"]
    qk = quasi_k(0, par, m)
    gens = coideal_generators(par, m)
    for line in find_spherical_lines(m, gens, par):
        v = line.vector.normalized_at(m.lowest_index)
        assert qk.operator.apply(v.bar()) == v


def test_wz_precompose(modules, params):
    # aiii_sl3 L(1,1) has a 2x2 Gram block on its zero weight, so the dual
    # vector moves by a solve on more than scalars there
    from qspherical.spherical import MatrixCoefficient
    from qspherical.characters import find_dual_spherical
    rng = random.Random(5)
    for lam, key in (((2,), "ai1_dist"), ((1, 1), "aiii_sl3_uniform")):
        m = modules("A", len(lam), lam)
        par = params[key]
        gens = coideal_generators(par, m)
        line = find_spherical_lines(m, gens, par)[0]
        f = find_dual_spherical(line, gens)
        coeff = MatrixCoefficient(m, f, line.vector)
        moved = wz_precompose(coeff, 0, par)
        # a spherical coefficient is fixed by precomposition
        pool = [x for i in range(m.datum.n)
                for x in (m.e_mats[i], m.f_mats[i], m.k_i_matrix(i))]
        for _ in range(8):
            word = la.identity(m.dim, F)
            for _ in range(rng.randrange(0, 4)):
                word = la.mat_mul(word, pool[rng.randrange(len(pool))])
            assert coeff.evaluate(word) == moved.evaluate(word)


def test_relative_braid_relation_rank_two(modules, aiii3_sl4, params):
    # the relative Weyl group of the rank-two diagram has m = 4 between its
    # generators, and the module operators satisfy the corresponding braid
    # relation exactly
    m = modules("A", 3, (0, 1, 0))
    par = params["aiii3_sl4"]
    t0 = wz_operator(0, par, m)
    t1 = wz_operator(1, par, m)
    assert (t0 @ t1 @ t0 @ t1) == (t1 @ t0 @ t1 @ t0)
    assert not (t0 @ t1) == (t1 @ t0)


def test_rejects_nonstandard_rank_one(modules, ai1, field):
    m = modules("A", 1, (1,))
    par = Parameter(ai1, {0: -field.q.inverse()}, {0: field.one})
    with pytest.raises(ParameterError):
        quasi_k(0, par, m)


CONFIGS = sorted((pathlib.Path(__file__).parent.parent / "configs").glob("*.json"))


def _assert_structural_inverses(m, par):
    for i in par.satake.relative_orbit_representatives():
        u = quasi_k(i, par, m).operator
        assert la.mat_eq(_UnipotentInverse(u).mat, la.invert(u.mat))
        w = wz_operator(i, par, m)
        assert la.mat_eq(w.inverse().mat, la.invert(w.mat))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_structural_inverses_match_elimination(path):
    # each config at the CLI's default weight and parameter
    satake = satake_from_config(json.loads(path.read_text()))
    lam = tuple(int(k == 0) for k in range(satake.datum.n))
    _assert_structural_inverses(build_simple(satake.datum, lam, F),
                                distinguished_parameter(satake, F))


def test_structural_inverses_on_larger_modules(modules, ai1, aiii_sl3,
                                               aiii3_sl4, params):
    for family, rank, lam, key in [("A", 1, (4,), "ai1_dist"),
                                   ("A", 2, (1, 1), "aiii_sl3_uniform"),
                                   ("A", 3, (0, 1, 0), "aiii3_sl4")]:
        _assert_structural_inverses(modules(family, rank, lam), params[key])


REFERENCE_WEIGHTS = {"ai1": [(2,), (3,)],
                     "aii3_sl4": [(0, 1, 0), (0, 2, 0)],
                     "aiii3_sl4": [(0, 1, 0), (1, 0, 1)],
                     "aiii_sl3": [(1, 0), (1, 1)],
                     "bii_so5": [(1, 0), (1, 1)]}


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_one_system_matches_reference_transport(path):
    # the reference construction of a transported intertwiner: solve for the
    # uniform normal form b c, then conjugate by the diagonal twist
    satake = satake_from_config(json.loads(path.read_text()))
    par = distinguished_parameter(satake, F)
    transported = 0
    for lam in REFERENCE_WEIGHTS[path.stem]:
        m = build_simple(satake.datum, lam, F)
        for i in satake.relative_orbit_representatives():
            qk = quasi_k(i, par, m)
            if qk.mode == "transported":
                par_u, a, b = _uniform_normal_form(i, par)
                assert qk.twist == b
                reference = phi_diag(a, m).conj(quasi_k(i, par_u, m).operator)
                assert qk.operator == reference
                transported += 1
    assert transported


def test_unipotent_inverse_rejects_non_unipotent(modules):
    m = modules("A", 1, (1,))
    with pytest.raises(IntertwinerError):
        _UnipotentInverse(Operator(m, la.mat_scale(la.identity(m.dim, F),
                                                    F.rational(2))))


def test_duplicated_raising_word_is_underdetermined(modules, ai1, params,
                                                    monkeypatch):
    from qspherical import quasik
    from qspherical.quasik import _rank_one_generators, _solve_intertwiner
    words = quasik._raising_words
    monkeypatch.setattr(quasik, "_raising_words",
                        lambda module, alphabet: 2 * words(module, alphabet))
    m = modules("A", 1, (2,))
    par = params["ai1_uniform"]
    pairs = _rank_one_generators(0, par, m)
    with pytest.raises(IntertwinerError, match="underdetermined"):
        _solve_intertwiner(0, par.satake, pairs, m)


def test_rank_one_torus_sign_leaves_the_intertwiner(modules, aiii3_sl4, params):
    # the rank-one system takes its torus generator from the coideal's, so at
    # the second node of a tau-pair K_h carries the first node's sign; K_-h
    # in its place rescales the rows and gives the same solution
    from qspherical.quasik import _rank_one_generators, _solve_intertwiner
    m = modules("A", 3, (0, 1, 0))
    pairs = _rank_one_generators(2, params["aiii3_sl4"], m)
    assert len(pairs) == 3          # B_2, B_0 and K_h with h = (1, 0, -1)
    assert la.mat_eq(pairs[2][0], m.k_matrix((-1, 0, 1)))
    flipped = pairs[:2] + [tuple(la.bar_matrix(x) for x in pairs[2])]
    u = _solve_intertwiner(2, aiii3_sl4, pairs, m)
    assert not u.is_identity()
    assert u == _solve_intertwiner(2, aiii3_sl4, flipped, m)


# -- the whole-system solve, kept as a reference for the degree-block solve --

def _reference_raising_words(module, alphabet):
    """Independent raising words by length, each tested against every
    earlier candidate of its length over all dim^2 entries."""
    dim = module.dim
    frontier = [la.identity(dim, module.field)]
    independent = []
    while frontier:
        cands = [prod for mat in frontier for j in alphabet
                 if not la.is_zero_matrix(prod := la.mat_mul(module.e_mats[j], mat))]
        vectorized = [[w[r][c] for w in cands] for r in range(dim) for c in range(dim)]
        relations = la.column_relations(vectorized, len(cands), module.field)
        frontier = [w for t, w in enumerate(cands) if t not in relations]
        independent.extend(frontier)
    return independent


def _reference_solve(i, satake, pairs, module):
    """One column relation over every pair, every entry and every word: the
    columns left W - W right, then left - right, whose relation is (x, 1)."""
    words = _reference_raising_words(module, sorted(set(satake.black)
                                                    | {i, satake.tau[i]}))
    rows = []
    for left, right in pairs:
        cols = [la.mat_sub(la.mat_mul(left, w), la.mat_mul(w, right))
                for w in words] + [la.mat_sub(left, right)]
        rows += [[col[r][c] for col in cols]
                 for r in range(module.dim) for c in range(module.dim)]
    relations = la.column_relations(rows, len(words) + 1, module.field)
    x = relations.pop(len(words), None)
    if x is None:
        return "inconsistent"
    if relations:
        return "underdetermined"
    mat = la.identity(module.dim, module.field)
    for coeff, w in zip(x, words):
        mat = la.mat_add(mat, la.mat_scale(w, coeff))
    return mat


# explicit parameters of each config, 1-based nodes as on the command line
EXPLICIT = {"ai1": {1: "-q^-2"}, "aiii_sl3": {1: "q^(1/2)", 2: "q^(1/2)"},
            "aiii3_sl4": {1: "1", 2: "q^-1", 3: "1"}, "aii3_sl4": {2: "q"},
            "bii_so5": None}
SWEEP_WEIGHTS = {"ai1": [(2,), (3,), (4,)], "aii3_sl4": [(0, 1, 0), (0, 2, 0)],
                 "aiii3_sl4": [(0, 1, 0), (1, 0, 1)],
                 "aiii_sl3": [(1, 0), (1, 1), (2, 1)], "bii_so5": [(1, 0), (1, 1)]}


def _sweep_parameters(name, satake, field):
    from qspherical.scalars import parse_scalar
    out = [distinguished_parameter(satake, field)]
    if EXPLICIT[name]:
        out.append(Parameter(satake, {k - 1: parse_scalar(v, field)
                                      for k, v in EXPLICIT[name].items()}))
    return out


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_degree_blocks_match_the_whole_system(path):
    # every white node (both nodes of a tau-pair), the distinguished and the
    # explicit parameter, uniform and transported systems alike
    from qspherical.quasik import _rank_one_generators, _solve_intertwiner
    satake = satake_from_config(json.loads(path.read_text()))
    for lam in SWEEP_WEIGHTS[path.stem]:
        m = build_simple(satake.datum, lam, F)
        for par in _sweep_parameters(path.stem, satake, F):
            for i in sorted(satake.I_circ):
                pairs = _rank_one_generators(i, par, m)
                got = _solve_intertwiner(i, satake, pairs, m)
                assert got.mat == _reference_solve(i, satake, pairs, m)
                assert got == quasi_k(i, par, m).operator


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_sparse_raising_words_match_the_dense_reference(path):
    # the same kept words, in the same order, entry by entry; each word
    # raises weights by its degree
    from qspherical.quasik import _raising_words
    satake = satake_from_config(json.loads(path.read_text()))
    for lam in SWEEP_WEIGHTS[path.stem]:
        m = build_simple(satake.datum, lam, F)
        for i in sorted(satake.I_circ):
            alphabet = sorted(set(satake.black) | {i, satake.tau[i]})
            words = _raising_words(m, alphabet)
            dense = []
            for deg, w in words:
                mat = la.zeros(m.dim, m.dim, F)
                for c, col in w.items():
                    for r, y in col.items():
                        assert y
                        assert m.weights[r] == tuple(a + b for a, b in
                                                     zip(m.weights[c], deg))
                        mat[r][c] = y
                dense.append(mat)
            assert dense == _reference_raising_words(m, alphabet)


def test_quasi_k_makes_no_dense_word_product(aiii3_sl4, params, monkeypatch):
    # on a fresh module, with the coideal generators of both sides built:
    # the words and the system run on nonzero columns, and the only dense
    # products are those of the residual check
    from qspherical import quasik
    m = build_simple(aiii3_sl4.datum, (1, 0, 1), F)
    par = params["aiii3_sl4"]
    nodes = sorted(aiii3_sl4.I_circ)
    for i in nodes:
        coideal_generators(par, m).B
        coideal_generators(quasik._uniform_image(i, par), m).B
    shapes, residual = [], []
    product, check = la.mat_mul, quasik._residual_zero

    def checked(u, pairs):
        residual.append(True)
        try:
            return check(u, pairs)
        finally:
            residual.clear()

    monkeypatch.setattr(la, "mat_mul", lambda a, b: shapes.append(
        (len(a), len(b), len(b[0]), bool(residual))) or product(a, b))
    monkeypatch.setattr(quasik, "_residual_zero", checked)
    for i in nodes:
        assert quasi_k(i, par, m).residual_ok
    assert (m.dim, m.dim, m.dim, True) in shapes
    assert (m.dim, m.dim, m.dim, False) not in shapes


def test_degree_blocks_keep_the_inconsistent_verdict(modules, ai1, aiii_sl3,
                                                     params):
    # the same non-uniform c on both sides has no solution in either solve
    from qspherical.quasik import _rank_one_generators, _solve_intertwiner
    for lam in ((1,), (2,), (3,)):
        m = modules("A", 1, lam)
        par = params["ai1_dist"]
        pairs = _rank_one_generators(0, par, m, right=par)
        assert _reference_solve(0, ai1, pairs, m) == "inconsistent"
        with pytest.raises(IntertwinerError, match="inconsistent at node 0"):
            _solve_intertwiner(0, ai1, pairs, m)


@pytest.mark.parametrize("root_order", [1, 4])
@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_blockwise_rho_matches_the_dense_adjoint(path, root_order, dense_rho):
    # each rho(B_i) of the coideal generators, and the dual vector that
    # precomposition with a relative braid operator W moves to rho(W) f by
    # one solve per Gram block, against the dense G^-1 X^T G
    from qspherical.modules import ModuleVector
    from qspherical.spherical import MatrixCoefficient
    field = Field(root_order)
    satake = satake_from_config(json.loads(path.read_text()))
    try:
        par = distinguished_parameter(satake, field)
    except UnrepresentableScalar:     # aiii_sl3's is -q^(-1/2)
        par = Parameter(satake, {i: field.q for i in satake.I_circ})
    m = build_simple(satake.datum, SWEEP_WEIGHTS[path.stem][-1], field)
    gens = coideal_generators(par, m)
    for i, b in gens.B.items():
        assert la.mat_eq(gens.rho_B[i].mat, dense_rho(m, b.mat))
    # a dual vector with no zero coefficient, so every weight block counts
    f = ModuleVector(m, [field.q ** k + field.one for k in range(m.dim)])
    coeff = MatrixCoefficient(m, f, m.highest_vector())
    relative = 0
    for i in satake.relative_orbit_representatives():
        try:
            w = wz_operator(i, par, m)
        except UnrepresentableScalar:
            assert root_order == 1    # the twists need square roots of q
            continue
        moved = wz_precompose(coeff, i, par)
        assert moved.f.coeffs == la.mat_vec(dense_rho(m, w.mat), f.coeffs)
        assert moved.v == w.inverse().apply(coeff.v)
        relative += 1
    assert relative or root_order == 1


def test_module_caches_tell_satake_data_apart():
    """AIII and AI on sl3 with the same c values share a module: each datum
    gets its own intertwiner and relative braid operator from the caches."""
    from qspherical import SatakeDatum, root_datum
    from qspherical.scalars import parse_scalar
    field = Field(4)
    datum = root_datum("A", 2)
    half = parse_scalar("q^(1/2)", field)
    aiii = Parameter(SatakeDatum(datum, (), (1, 0)), {0: half, 1: half})
    ai = Parameter(SatakeDatum(datum, (), (0, 1)), {0: half, 1: half})
    m = build_simple(datum, (1, 1), field)
    first = quasi_k(0, aiii, m)
    wz_operator(0, aiii, m)
    fresh = build_simple(datum, (1, 1), field)
    second = quasi_k(0, ai, m)
    assert second is not first
    assert second.operator.mat == quasi_k(0, ai, fresh).operator.mat
    assert second.operator.mat != first.operator.mat
    assert wz_operator(0, ai, m).mat == wz_operator(0, ai, fresh).mat


# -- the relative braid operator as a chain of factors --

def _dense_relative_braid(i, par, m):
    """U phi^-1 T'_{w,-1} phi by plain products of the factors' matrices."""
    from functools import reduce
    from qspherical.braid import lusztig_T
    satake = par.satake
    cdist = distinguished_parameter(satake, m.field)
    phi = phi_diag({j: cdist.c[j].bar() * par.c[j] for j in satake.I_circ}, m).mat
    t = reduce(la.mat_mul, [lusztig_T(j, -1, "prime", m).mat
                            for j in satake.relative_generator(i)])
    return reduce(la.mat_mul, [quasi_k(i, par, m).operator.mat, la.invert(phi), t, phi])


@pytest.mark.parametrize("root_order", [1, 4])
@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_relative_braid_chain_matches_dense_products(path, root_order):
    # W acts on a vector factor by factor and W^-1 by the reversed chain of
    # structural inverses; both, and the matrices formed on first read,
    # against plain products and elimination
    from qspherical.modules import ModuleVector
    field = Field(root_order)
    satake = satake_from_config(json.loads(path.read_text()))
    try:
        par = distinguished_parameter(satake, field)
    except UnrepresentableScalar:     # aiii_sl3's is -q^(-1/2)
        par = Parameter(satake, {i: field.q for i in satake.I_circ})
    m = build_simple(satake.datum, SWEEP_WEIGHTS[path.stem][-1], field)
    v = ModuleVector(m, [field.q ** k + field.one for k in range(m.dim)])
    relative = 0
    for i in satake.relative_orbit_representatives():
        try:
            w = wz_operator(i, par, m)
        except UnrepresentableScalar:
            assert root_order == 1    # the twists need square roots of q
            continue
        dense = _dense_relative_braid(i, par, m)
        inverse = la.invert(dense)
        assert w.apply(v).coeffs == la.mat_vec(dense, v.coeffs)
        assert w.inverse().apply(v).coeffs == la.mat_vec(inverse, v.coeffs)
        assert w.mat == dense
        assert w.inverse().mat == inverse
        relative += 1
    assert relative or root_order == 1


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_height_order_substitution_matches_elimination(path):
    # U^-1 on a vector, on a matrix and as a matrix, for every white node
    from qspherical.modules import ModuleVector
    satake = satake_from_config(json.loads(path.read_text()))
    for lam in SWEEP_WEIGHTS[path.stem]:
        m = build_simple(satake.datum, lam, F)
        v = ModuleVector(m, [F.q ** k - F.one for k in range(m.dim)])
        for par in _sweep_parameters(path.stem, satake, F):
            for i in sorted(satake.I_circ):
                u = quasi_k(i, par, m).operator
                inverse = la.invert(u.mat)
                sub = _UnipotentInverse(u)
                assert sub.apply(v).coeffs == la.mat_vec(inverse, v.coeffs)
                assert sub.times(m.f_mats[0]) == la.mat_mul(inverse, m.f_mats[0])
                assert sub.mat == inverse


def test_substitution_needs_a_weight_raising_part(modules):
    # I + F_0 is unipotent, but F_0 lowers weights: no height order solves it
    m = modules("A", 1, (2,))
    with pytest.raises(IntertwinerError, match="weight-raising"):
        _UnipotentInverse(Operator(m, la.mat_add(la.identity(m.dim, F),
                                                 m.f_mats[0])))


def test_character_check_builds_no_prime_factor_and_no_dense_product(
        aiii_sl3, params, monkeypatch):
    # on a fresh module, after the lines and the intertwiners (which the
    # CLI's quasik check solves first) and the divided powers (the rank-one
    # factors' own dense products): W^-1 v needs only the double-prime
    # factors and matrix-vector products
    import qspherical.braid as braid
    from qspherical import root_datum
    from qspherical.modules import _divided_powers
    par = params["aiii_sl3_uniform"]
    m = build_simple(root_datum("A", 2), (2, 1), F)
    gens = coideal_generators(par, m)
    lines = find_spherical_lines(m, gens, par)
    nodes = aiii_sl3.relative_orbit_representatives()
    for i in nodes:
        quasi_k(i, par, m)
    for j in range(m.datum.n):
        for name in "EF":
            _divided_powers(m, name, j)
    kinds, shapes = [], []
    single, product = braid.lusztig_T, la.mat_mul
    monkeypatch.setattr(braid, "lusztig_T", lambda i, e, kind, module:
                        kinds.append(kind) or single(i, e, kind, module))
    monkeypatch.setattr(la, "mat_mul", lambda a, b:
                        shapes.append((len(a), len(b))) or product(a, b))
    for line in lines:
        for i in nodes:
            ok, cert = wz_character_check(line, i, par, gens)
            assert ok, cert
    assert lines and set(kinds) == {"doubleprime"}
    assert (m.dim, m.dim) not in shapes


def test_character_check_reads_the_lines_own_character(modules, ai1, params):
    # a line whose stored B value is not its vector's fails, with the value
    # of the character and the value of the image in its certificate
    from qspherical.characters import Character, SphericalLine
    m = modules("A", 1, (4,))
    par = params["ai1_dist"]
    gens = coideal_generators(par, m)
    line = find_spherical_lines(m, gens, par)[0]
    chi = line.character
    shifted = chi.b_values[0] + F.one
    wrong = Character(chi.satake, chi.lam, {0: shifted}, chi.labels, chi.field)
    ok, cert = wz_character_check(SphericalLine(m, line.vector, wrong), 0, par, gens)
    assert not ok
    assert cert == {"reason": "character value changed", "node": 0,
                    "generator": "B_0", "before": str(shifted),
                    "after": str(chi.b_values[0])}
    assert wz_character_check(line, 0, par, gens) == (True, None)
