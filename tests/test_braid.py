import json
import pathlib

import pytest

from qspherical import Field
from qspherical.braid import (Operator, lusztig_T, lusztig_T_word, phi_diag,
                              rescaled_T)
from qspherical.modules import act_matrix
import qspherical.linalg as la

F = Field(2)


def test_rank_one_matrices(modules):
    # derived oracle: expand the triple sum by hand on the two-dimensional
    # module; only (1,0,0), (0,0,1), (1,1,1) contribute on the top vector
    m = modules("A", 1, (1,))
    tp = lusztig_T(0, 1, "prime", m)
    v_plus, v_minus = m.basis_vector(0), m.basis_vector(1)
    assert tp.apply(v_plus) == v_minus
    assert tp.apply(v_minus) == v_plus.scale(-F.q)
    tm = lusztig_T(0, -1, "prime", m)
    assert tm.apply(v_minus) == v_plus.scale(-F.q.inverse())


def test_trivial_module(modules):
    m = modules("A", 1, (0,))
    for kind in ("prime", "doubleprime"):
        for e in (1, -1):
            assert lusztig_T(0, e, kind, m).is_identity()


def test_inverse_relation(modules):
    # T''_{i,e} and T'_{i,-e} are mutually inverse (Lusztig 37.1.2); rescaled_T
    # inverts T'_{i,-1} by T''_{i,+1}
    for family, rank, lam in [("A", 1, (1,)), ("A", 1, (3,)), ("A", 1, (4,)),
                              ("A", 2, (1, 1)), ("A", 3, (0, 1, 0)),
                              ("B", 2, (1, 0))]:
        m = modules(family, rank, lam)
        for i in range(m.datum.n):
            for e in (1, -1):
                tpp = lusztig_T(i, e, "doubleprime", m)
                tp = lusztig_T(i, -e, "prime", m)
                assert (tpp @ tp).is_identity()
                assert (tp @ tpp).is_identity()


def test_braid_relations(modules):
    for lam in [(1, 0), (1, 1)]:
        m = modules("A", 2, lam)
        for kind in ("prime", "doubleprime"):
            for e in (1, -1):
                t0 = lusztig_T(0, e, kind, m)
                t1 = lusztig_T(1, e, kind, m)
                assert (t0 @ t1 @ t0) == (t1 @ t0 @ t1)
    mb = modules("B", 2, (1, 0))
    t0 = lusztig_T(0, 1, "prime", mb)
    t1 = lusztig_T(1, 1, "prime", mb)
    assert (t0 @ t1 @ t0 @ t1) == (t1 @ t0 @ t1 @ t0)
    m3 = modules("A", 3, (0, 1, 0))
    t0 = lusztig_T(0, -1, "doubleprime", m3)
    t2 = lusztig_T(2, -1, "doubleprime", m3)
    assert (t0 @ t2) == (t2 @ t0)


def test_word_independence(modules):
    m = modules("A", 2, (1, 1))
    assert lusztig_T_word((), 1, "prime", m).is_identity()
    for kind in ("prime", "doubleprime"):
        for e in (1, -1):
            a = lusztig_T_word((0, 1, 0), e, kind, m)
            b = lusztig_T_word((1, 0, 1), e, kind, m)
            assert a == b
    m6 = modules("A", 3, (0, 1, 0))
    assert lusztig_T_word((0, 2), 1, "doubleprime", m6) == \
        lusztig_T_word((2, 0), 1, "doubleprime", m6)


def test_word_independence_randomized(modules):
    # random reduced words of the longest element, by random descent peeling
    import random
    rng = random.Random(17)
    m = modules("A", 2, (1, 1))
    datum = m.datum
    two_rho = tuple(sum(col) for col in zip(*datum.positive_roots()))

    def random_reduced_word():
        y = datum.act_word_root(datum.w0_word(), two_rho)    # w0(2 rho)
        word = []
        while y != two_rho:
            i = rng.choice(datum.left_descents(y))
            word.append(i)
            y = datum.reflect_root(i, y)
        return tuple(word)

    reference = lusztig_T_word(datum.w0_word(), -1, "prime", m)
    for _ in range(4):
        word = random_reduced_word()
        assert len(word) == len(datum.w0_word())
        assert lusztig_T_word(word, -1, "prime", m) == reference


def test_bar_conjugation_relations(modules):
    m = modules("A", 1, (2,))
    for kind in ("prime", "doubleprime"):
        for e in (1, -1):
            assert lusztig_T(0, e, kind, m).bar_conjugate() == \
                lusztig_T(0, -e, kind, m)


def test_transpose_twist_relations(modules, dense_rho):
    # rho . T_{i,e} = T_{i,-e} . rho on operators, rho from the dense Gram form
    m = modules("A", 1, (2,))
    e_op = Operator(m, m.e_mats[0])
    for kind in ("prime", "doubleprime"):
        for e in (1, -1):
            lhs = Operator(m, dense_rho(
                m, lusztig_T_word((0,), e, kind, m).conj(e_op).mat))
            rhs = lusztig_T_word((0,), -e, kind, m).conj(
                Operator(m, dense_rho(m, e_op.mat)))
            assert lhs == rhs


def test_transpose_of_composite_raising_conjugate(modules, aii3, dense_rho):
    # the composite consequence of the transpose/flip relations that the
    # coideal's rho(B_i) and the shifted-coideal theory use: the Gram
    # transpose of the plus-sign conjugate of a raising generator is the
    # minus-sign conjugate of the matching lowering generator
    m = modules("A", 3, (0, 1, 0))
    word = aii3.w_black
    e_op = Operator(m, m.e_mats[1])
    f_op = Operator(m, m.f_mats[1])
    lhs = Operator(m, dense_rho(
        m, lusztig_T_word(word, 1, "doubleprime", m).conj(e_op).mat))
    rhs = lusztig_T_word(word, -1, "doubleprime", m).conj(f_op)
    assert lhs == rhs


def test_conjugation_examples(modules):
    m = modules("A", 1, (1,))
    k_op = Operator(m, m.k_i_matrix(0))
    conj = lusztig_T_word((0,), 1, "prime", m).conj(k_op)
    assert la.mat_eq(conj.mat, m.k_i_matrix(0, -1))   # K_h -> K_{s_i h}
    e_op = Operator(m, m.e_mats[0])
    assert lusztig_T_word((), 1, "prime", m).conj(e_op) == e_op
    m2 = modules("A", 1, (2,))
    e2 = Operator(m2, m2.e_mats[0])
    te = lusztig_T_word((0,), 1, "doubleprime", m2).conj(e2)
    fk = la.mat_mul(m2.f_mats[0], m2.k_i_matrix(0))
    assert la.mat_eq(te.mat, la.mat_scale(fk, -F.one))


def test_doubleprime_on_raising_generator(modules):
    # T''_{k,e}(E_j) agrees with its single-sum expansion on modules
    m = modules("A", 2, (1, 1))
    e1 = Operator(m, m.e_mats[1])
    for e in (1, -1):
        got = lusztig_T_word((0,), e, "doubleprime", m).conj(e1)
        acc = la.zeros(m.dim, m.dim, F)
        # sum over r+s = 1: (-1)^r q^{-er} E_0^(s) E_1 E_0^(r)
        e0 = m.e_mats[0]
        for r, s in ((0, 1), (1, 0)):
            term = la.identity(m.dim, F)
            for _ in range(s):
                term = la.mat_mul(e0, term)
            term = la.mat_mul(term, m.e_mats[1])
            for _ in range(r):
                term = la.mat_mul(term, e0)
            scal = F.q_power(-e * r)
            if r % 2:
                scal = -scal
            acc = la.mat_add(acc, la.mat_scale(term, scal))
        assert la.mat_eq(got.mat, acc)


def test_phi_diag(modules, ai1):
    m = modules("A", 1, (2,))
    assert phi_diag({0: F.one}, m).is_identity()
    d = phi_diag({0: F.q ** 2}, m)
    v = m.highest_vector()
    fv = act_matrix(m.f_mats[0], v)
    assert d.apply(fv) == fv.scale(F.q)
    e_op = Operator(m, m.e_mats[0])
    twist = phi_diag({0: F.q ** 2}, m).inverse()
    assert twist.conj(e_op) == Operator(m, la.mat_scale(e_op.mat, F.q))
    f_op = Operator(m, m.f_mats[0])
    assert twist.conj(f_op) == Operator(m, la.mat_scale(f_op.mat, F.q.inverse()))


def test_phi_diag_reads_the_deficits(modules, monkeypatch):
    # the twist's exponents are the deficit points the build recorded
    from qspherical.rootdata import RootDatum
    m = modules("A", 2, (1, 1))

    def fail(self, x):
        raise AssertionError("X_to_root called")

    monkeypatch.setattr(RootDatum, "X_to_root", fail)
    d = phi_diag({0: F.q ** 2, 1: F.q ** -4}, m)
    assert [d.mat[k][k] for k in range(m.dim)] == [
        F.q ** (t0 - 2 * t1) for t0, t1 in m.deficits]


def test_phi_diag_needs_roots(modules):
    from qspherical.scalars import UnrepresentableScalar
    m = modules("A", 1, (1,))
    with pytest.raises(UnrepresentableScalar):
        phi_diag({0: F.one + F.q}, m)


def test_rescaled_operator(modules, ai1, params):
    m = modules("A", 1, (2,))
    # distinguished parameter: the twist is trivial
    t_plain = lusztig_T_word((0,), -1, "prime", m)
    assert rescaled_T(0, params["ai1_dist"], m) == t_plain
    # uniform parameter: conjugation preserves the torus action
    resc = rescaled_T(0, params["ai1_uniform"], m)
    k_op = Operator(m, m.k_i_matrix(0))
    assert resc.conj(k_op) == Operator(m, m.k_i_matrix(0, -1))
    assert resc.weight_shifts() == t_plain.weight_shifts()


def _forbid_elimination(monkeypatch):
    def fail(_):
        raise AssertionError("linalg.invert called")
    monkeypatch.setattr(la, "invert", fail)


def test_phi_diag_inverse_is_diagonal(modules, monkeypatch):
    m = modules("A", 2, (1, 1))
    a = {0: F.q ** 2, 1: F.q ** -4}
    expected = la.invert(phi_diag(a, m).mat)
    _forbid_elimination(monkeypatch)
    d = phi_diag(a, m)
    assert la.mat_eq(d.inverse().mat, expected)
    assert d.inverse().inverse() is d
    x = Operator(m, m.e_mats[0])
    assert d.conj(x) == Operator(m, la.mat_scale(x.mat, F.q.inverse()))


def test_rescaled_operator_inverse_without_elimination(modules, ai1, aiii_sl3,
                                                       params, monkeypatch):
    cases = [(modules("A", 1, (4,)), "ai1_dist"),
             (modules("A", 1, (3,)), "ai1_uniform"),
             (modules("A", 2, (1, 1)), "aiii_sl3_uniform")]
    expected = [la.invert(rescaled_T(0, params[key], m).mat) for m, key in cases]
    _forbid_elimination(monkeypatch)
    for (m, key), inv in zip(cases, expected):
        resc = rescaled_T(0, params[key], m)
        assert la.mat_eq(resc.inverse().mat, inv)
        assert (resc @ resc.inverse()).is_identity()


# -- the dense per-column triple sum, kept as a reference --

def _reference_lusztig_T(i, e, kind, module):
    """Each column by dense matrix-vector products with the divided powers."""
    from fractions import Fraction
    from qspherical.modules import _divided_powers
    field = module.field
    dim = module.dim
    fpow = _divided_powers(module, "F", i)
    epow = _divided_powers(module, "E", i)
    outer, inner = (fpow, epow) if kind == "prime" else (epow, fpow)
    out = la.zeros(dim, dim, field)
    for col in range(dim):
        p = int(module.weights[col][i])
        target = p if kind == "prime" else -p
        vec = [field.one if k == col else field.zero for k in range(dim)]
        for c in range(len(outer)):
            for b in range(len(inner)):
                a = target + b - c
                if not 0 <= a < len(outer):
                    continue
                third = la.mat_vec(outer[a], la.mat_vec(inner[b], la.mat_vec(outer[c], vec)))
                scal = (-1) ** b * field.q_power(Fraction(e * (b - a * c) * module.datum.d[i]))
                for r in range(dim):
                    out[r][col] = out[r][col] + scal * third[r]
    return out


CONFIG_PATHS = sorted((pathlib.Path(__file__).parent.parent / "configs").glob("*.json"))
CONFIG_WEIGHTS = {"ai1": [(3,)], "aii3_sl4": [(0, 1, 0)], "aiii3_sl4": [(1, 0, 1)],
                  "aiii_sl3": [(2, 1)], "bii_so5": [(1, 0), (1, 1)]}


@pytest.mark.parametrize("root_order", (1, 4))
@pytest.mark.parametrize("path", CONFIG_PATHS, ids=lambda p: p.stem)
def test_nonzero_columns_match_the_dense_triple_sum(path, root_order):
    # bii_so5 has d_i = 2 at its first node
    from qspherical.modules import build_simple
    from qspherical.rootdata import satake_from_config
    field = Field(root_order)
    datum = satake_from_config(json.loads(path.read_text())).datum
    for lam in CONFIG_WEIGHTS[path.stem]:
        m = build_simple(datum, lam, field)
        for i in range(datum.n):
            for e in (1, -1):
                for kind in ("prime", "doubleprime"):
                    assert lusztig_T(i, e, kind, m).mat == \
                        _reference_lusztig_T(i, e, kind, m)


@pytest.mark.parametrize("path", CONFIG_PATHS, ids=lambda p: p.stem)
def test_composite_carries_its_inverse(path, monkeypatch):
    """T'_{w,e} and T''_{w,e} along the longest word, times the composite of
    the other kind with sign -e along the reversed word, is the identity; no
    inverse is found by elimination."""
    from qspherical.modules import build_simple
    from qspherical.rootdata import satake_from_config
    datum = satake_from_config(json.loads(path.read_text())).datum
    word = datum.w0_word()

    def no_elimination(a):
        raise AssertionError("a composite inverted by elimination")

    monkeypatch.setattr(la, "invert", no_elimination)
    for lam in CONFIG_WEIGHTS[path.stem]:
        m = build_simple(datum, lam, F)
        for e in (1, -1):
            for kind in ("prime", "doubleprime"):
                t = lusztig_T_word(word, e, kind, m)
                assert (t @ t.inverse()).is_identity()
                assert (t.inverse() @ t).is_identity()
                assert t.inverse().inverse() is t


def test_divided_powers_are_built_once_per_module(monkeypatch):
    from qspherical.modules import build_simple
    from qspherical.rootdata import root_datum
    m = build_simple(root_datum("A", 2), (1, 1), F)
    prime = lusztig_T(0, 1, "prime", m)

    def no_product(a, b):
        raise AssertionError("divided powers built again")

    monkeypatch.setattr(la, "mat_mul", no_product)
    inverse = lusztig_T(0, -1, "doubleprime", m)
    monkeypatch.undo()
    assert (inverse @ prime).is_identity()


def test_word_builds_one_operator_per_letter(modules, monkeypatch):
    import qspherical.braid as braid
    calls = []
    single = braid.lusztig_T
    monkeypatch.setattr(braid, "lusztig_T",
                        lambda i, *args: calls.append(i) or single(i, *args))
    m = modules("A", 2, (1, 1))
    word = lusztig_T_word((0, 1, 0), 1, "prime", m)
    assert sorted(calls) == [0, 1]
    t0, t1 = single(0, 1, "prime", m), single(1, 1, "prime", m)
    assert word == t0 @ t1 @ t0


def _assert_chain_matches(op, dense, v):
    inverse = la.invert(dense)
    assert op.apply(v).coeffs == la.mat_vec(dense, v.coeffs)
    assert op.inverse().apply(v).coeffs == la.mat_vec(inverse, v.coeffs)
    assert op.mat == dense
    assert op.inverse().mat == inverse


@pytest.mark.parametrize("root_order", (1, 4))
@pytest.mark.parametrize("path", CONFIG_PATHS, ids=lambda p: p.stem)
def test_chains_match_dense_products(path, root_order):
    """A composite along the longest word and each rescaled operator act
    factor by factor, and their inverses by the reversed chains; both, and
    the matrices formed on first read, against plain products of the
    rank-one matrices and the twist, and elimination for the inverse."""
    from functools import reduce
    from qspherical.modules import ModuleVector, build_simple
    from qspherical.qsp import Parameter, distinguished_parameter
    from qspherical.rootdata import satake_from_config
    from qspherical.scalars import UnrepresentableScalar
    field = Field(root_order)
    satake = satake_from_config(json.loads(path.read_text()))
    datum = satake.datum
    m = build_simple(datum, CONFIG_WEIGHTS[path.stem][-1], field)
    v = ModuleVector(m, [field.q ** k + field.one for k in range(m.dim)])
    word = datum.w0_word()
    for e in (1, -1):
        for kind in ("prime", "doubleprime"):
            dense = reduce(la.mat_mul, [lusztig_T(j, e, kind, m).mat for j in word])
            _assert_chain_matches(lusztig_T_word(word, e, kind, m), dense, v)
    try:
        par = cdist = distinguished_parameter(satake, field)
    except UnrepresentableScalar:     # aiii_sl3's is -q^(-1/2)
        par = Parameter(satake, {i: field.q for i in satake.I_circ})
    for i in satake.relative_orbit_representatives():
        try:
            resc = rescaled_T(i, par, m)
        except UnrepresentableScalar:
            assert root_order == 1    # the twists need square roots of q
            continue
        phi = phi_diag({j: cdist.c[j].bar() * par.c[j] for j in satake.I_circ}, m).mat
        t = reduce(la.mat_mul, [lusztig_T(j, -1, "prime", m).mat
                                for j in satake.relative_generator(i)])
        _assert_chain_matches(resc, reduce(la.mat_mul, [la.invert(phi), t, phi]), v)


@pytest.mark.parametrize("path", CONFIG_PATHS, ids=lambda p: p.stem)
def test_word_inverse_is_the_chain_rule(path, monkeypatch):
    """The inverse of a composite is the chain of the cached rank-one
    operators of the other kind with sign -e along the reversed word; no
    triple sum runs for it until it acts."""
    import qspherical.braid as braid
    from qspherical.modules import ModuleVector, build_simple
    from qspherical.rootdata import satake_from_config
    datum = satake_from_config(json.loads(path.read_text())).datum
    word = datum.w0_word()
    sums = []
    rank_one = braid._rank_one
    monkeypatch.setattr(braid, "_rank_one",
                        lambda *args: sums.append(args[:3]) or rank_one(*args))
    lam = CONFIG_WEIGHTS[path.stem][0]
    for e in (1, -1):
        for kind, other in (("prime", "doubleprime"), ("doubleprime", "prime")):
            # a fresh module, so that no rank-one operator is cached yet
            m = build_simple(datum, lam, F)
            t = lusztig_T_word(word, e, kind, m)
            sums.clear()
            inverse = t.inverse()
            assert sums == []
            v = ModuleVector(m, [F.q ** k for k in range(m.dim)])
            assert inverse.apply(t.apply(v)) == v
            assert sums == [(i, -e, other) for i in dict.fromkeys(word[::-1])]
            cached = [lusztig_T(i, -e, other, m) for i in word[::-1]]
            assert len(inverse.factors) == len(cached)
            assert all(f is g for f, g in zip(inverse.factors, cached))
    assert lusztig_T_word((), 1, "prime", m).inverse().is_identity()
