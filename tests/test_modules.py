from fractions import Fraction

import pytest

from qspherical import (DimensionCapExceeded, Field, MatrixCoefficient,
                        ModuleError, act_Kh, build_simple, root_datum, tensor,
                        tensor_vector)
from qspherical.modules import (act_matrix, check_contravariance,
                                check_defining_relations)
import qspherical.linalg as la

F = Field(2)


def test_dimensions_match_weyl_formula(modules):
    # the construction never consults the dimension formula, so it is an
    # independent oracle for the Gram-kernel quotient
    cases = [("A", 1, (1,), 2), ("A", 1, (2,), 3), ("A", 2, (1, 0), 3),
             ("A", 2, (1, 1), 8), ("A", 3, (0, 1, 0), 6), ("A", 3, (0, 2, 0), 20),
             ("B", 2, (1, 0), 5), ("B", 2, (0, 1), 4)]
    for family, rank, lam, dim in cases:
        m = modules(family, rank, lam)
        assert m.dim == dim
        assert root_datum(family, rank).weyl_dim(lam) == dim


def test_highest_and_lowest_lines(modules):
    m = modules("A", 2, (1, 1))
    assert len(m.blocks[m.weights[m.highest_index]]) == 1
    assert len(m.blocks[m.weights[m.lowest_index]]) == 1
    w0lam = m.datum.act_word_X(m.datum.w0_word(), m.lam)
    assert m.weights[m.lowest_index] == tuple(w0lam)


def test_defining_relations_and_contravariance(modules):
    for family, rank, lam in [("A", 1, (3,)), ("A", 2, (1, 1)),
                              ("A", 3, (0, 1, 0)), ("B", 2, (1, 0))]:
        m = modules(family, rank, lam)
        assert check_defining_relations(m) == []
        assert check_contravariance(m) == []


def test_contravariance_sees_one_changed_entry():
    # the check compares Gram blocks pair by pair, skipping the pairs where
    # both operators vanish: a changed entry of E_0, and one put where E_0
    # is zero, are both reported
    for change in ("nonzero", "diagonal"):
        m = build_simple(root_datum("A", 2), (1, 1), F)
        if change == "nonzero":
            r, c = next((r, c) for r, row in enumerate(m.e_mats[0])
                        for c, x in enumerate(row) if x)
        else:
            r = c = m.highest_index
        m.e_mats[0][r][c] = m.e_mats[0][r][c] + F.one
        assert "contravariance fails for E_0" in check_contravariance(m)
        assert "contravariance fails for E_1" not in check_contravariance(m)


@pytest.mark.parametrize("family,rank,lam", [
    ("A", 1, (3,)), ("A", 2, (1, 1)), ("A", 3, (1, 0, 1)), ("A", 4, (0, 1, 0, 1)),
    ("B", 2, (1, 1)), ("B", 3, (1, 0, 1)), ("C", 3, (0, 1, 0)),
    ("D", 4, (1, 0, 0, 1)), ("F", 4, (0, 0, 0, 1))])
def test_deficits_are_root_coordinates(family, rank, lam):
    # the deficit-box point of each basis vector is lam - mu in simple roots
    m = build_simple(root_datum(family, rank), lam, F)
    assert len(m.deficits) == m.dim
    for k, mu in zip(m.deficits, m.weights):
        assert k == m.datum.X_to_root(tuple(a - b for a, b in zip(lam, mu)))


@pytest.mark.parametrize("family,rank,lam", [("A", 2, (2, 1)),
                                              ("A", 3, (1, 0, 2))])
def test_basis_from_one_elimination_per_block(monkeypatch, family, rank, lam):
    # both modules have Gram blocks with rejected candidates; their
    # expansions come from the block's column relations, never from a solve
    def no_solve(*args, **kwargs):
        raise AssertionError("build_simple called linalg.solve")

    calls = {"relations": 0, "echelonize": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(la, "solve", no_solve)
    monkeypatch.setattr(la, "column_relations",
                        counted("relations", la.column_relations))
    monkeypatch.setattr(la, "_echelonize", counted("echelonize", la._echelonize))
    m = build_simple(root_datum(family, rank), lam, F)
    assert m.dim == root_datum(family, rank).weyl_dim(lam)
    assert 0 < calls["echelonize"] <= calls["relations"]
    assert check_defining_relations(m) == []
    assert check_contravariance(m) == []


def test_shapovalov_values(modules):
    m = modules("A", 1, (2,))
    v = m.highest_vector()
    assert m.shapovalov(v, v) == F.one
    fv = act_matrix(m.f_mats[0], v)
    # oracle: (Fv, Fv) = (v, EFv) = [<alpha_vee, lam>] = [2]
    assert m.shapovalov(fv, fv) == F.qint(2, 1)
    # distinct weights are orthogonal
    assert m.shapovalov(v, fv).is_zero()


def test_shapovalov_contravariance_random_words(modules):
    import random
    rng = random.Random(7)
    m = modules("A", 2, (1, 1))
    ops = [m.e_mats[0], m.e_mats[1], m.f_mats[0], m.f_mats[1]]
    twists = [m.f_mats[0], m.f_mats[1], m.e_mats[0], m.e_mats[1]]
    for _ in range(5):
        picks = [rng.randrange(4) for _ in range(3)]
        word = la.identity(m.dim, F)
        twisted = la.identity(m.dim, F)
        for p in picks:
            word = la.mat_mul(word, ops[p])
        for p in reversed(picks):
            twisted = la.mat_mul(twisted, twists[p])
        v = m.basis_vector(rng.randrange(m.dim))
        w = m.basis_vector(rng.randrange(m.dim))
        assert m.shapovalov(v, act_matrix(word, w)) == m.shapovalov(act_matrix(twisted, v), w)


def test_bar_vector(modules):
    m = modules("A", 1, (1,))
    v = m.highest_vector()
    assert v.bar() == v
    assert v.scale(F.q).bar() == v.scale(F.q.inverse())
    fv = act_matrix(m.f_mats[0], v)
    assert fv.bar() == fv
    # bar conjugates generator actions to the bar of the generator
    m2 = modules("A", 2, (1, 1))
    for i in range(2):
        assert la.mat_eq(la.bar_matrix(m2.e_mats[i]), m2.e_mats[i])
        assert la.mat_eq(la.bar_matrix(m2.f_mats[i]), m2.f_mats[i])


def test_act_Kh(modules):
    m = modules("A", 1, (1,))
    v = m.highest_vector()
    assert act_Kh((0,), v) == v
    assert act_Kh((Fraction(1, 2),), v) == v.scale(F.q_power(Fraction(1, 2)))
    m3 = modules("A", 2, (1, 0))
    v1 = m3.highest_vector()
    rho_vee = (1, 1)
    assert act_Kh(rho_vee, v1) == v1.scale(F.q)


def test_act_Kh_unrepresentable():
    from qspherical.scalars import UnrepresentableScalar
    f1 = Field(1)
    m = build_simple(root_datum("A", 1), (1,), f1)
    with pytest.raises(UnrepresentableScalar):
        act_Kh((Fraction(1, 2),), m.highest_vector())


def test_tensor_structure(modules):
    m = modules("A", 1, (1,))
    t = tensor(m, m)
    assert sorted(sum(w) for w in t.weights) == [-2, 0, 0, 2]
    assert check_defining_relations(t) == []
    # trivial factor acts like the module itself
    triv = modules("A", 1, (0,))
    t0 = tensor(triv, m)
    for i in range(1):
        block = [[t0.e_mats[i][r][c] for c in range(m.dim)] for r in range(m.dim)]
        assert la.mat_eq(block, m.e_mats[i])
    # coproduct expansion: E(v_- x v_+) = Ev_- x v_+ + Kv_- x Ev_+
    vminus = m.basis_vector(1)
    vplus = m.highest_vector()
    lhs = act_matrix(t.e_mats[0], tensor_vector(vminus, vplus, t))
    kv = act_Kh((1,), vminus)
    rhs = (tensor_vector(act_matrix(m.e_mats[0], vminus), vplus, t)
           + tensor_vector(kv, act_matrix(m.e_mats[0], vplus), t))
    assert lhs == rhs


def test_dual_pairing(modules):
    m = modules("A", 1, (1,))
    v = m.highest_vector()
    assert MatrixCoefficient(m, v, v).evaluate() == F.one
    ef = la.mat_mul(m.e_mats[0], m.f_mats[0])
    assert MatrixCoefficient(m, v, v).evaluate(ef) == F.one
    fv = act_matrix(m.f_mats[0], v)
    k = m.k_i_matrix(0)
    assert MatrixCoefficient(m, fv, v).evaluate(k).is_zero()


def test_dimension_cap():
    with pytest.raises(DimensionCapExceeded):
        build_simple(root_datum("A", 2), (2, 2), F, dim_cap=10)


def test_module_mismatch_errors(modules):
    m1 = modules("A", 1, (1,))
    m2 = modules("A", 1, (2,))
    with pytest.raises(ModuleError):
        m1.shapovalov(m1.highest_vector(), m2.highest_vector())


def test_wedge_model_for_sl4(modules, field):
    # derived oracle: the unique raising-kernel line in weight w2 of the
    # tensor square fixes the q-wedge convention, and the abstract module
    # embeds compatibly
    m4 = modules("A", 3, (1, 0, 0))
    t = tensor(m4, m4)
    idxs = t.blocks[(0, 1, 0)]
    rows = []
    for i in range(3):
        for r in range(t.dim):
            row = [t.e_mats[i][r][c] for c in idxs]
            if any(row):
                rows.append(row)
    ker = la.nullspace(rows, len(idxs), field)
    assert len(ker) == 1
    hw = t.zero_vector()
    for pos, c in zip(idxs, ker[0]):
        hw.coeffs[pos] = c

    def wedge(i, j):
        vec = t.zero_vector()
        vec.coeffs[(i - 1) * 4 + (j - 1)] = field.one
        vec.coeffs[(j - 1) * 4 + (i - 1)] = -field.q
        return vec

    assert wedge(1, 2).proportional_to(hw)
    m6 = modules("A", 3, (0, 1, 0))
    # embedding via lowering words is equivariant
    img_of = {}
    for idx in range(m6.dim):
        img = wedge(1, 2)
        for i in reversed(m6.words[idx]):
            img = act_matrix(t.f_mats[i], img)
        img_of[idx] = img
    for i in range(3):
        for idx in range(m6.dim):
            lowered = act_matrix(m6.f_mats[i], m6.basis_vector(idx))
            lhs = t.zero_vector()
            for k, c in enumerate(lowered.coeffs):
                if c:
                    lhs = lhs + img_of[k].scale(c)
            assert lhs == act_matrix(t.f_mats[i], img_of[idx])


@pytest.mark.parametrize("family,rank,lam", [("A", 2, (1, 1)), ("B", 2, (1, 1))])
def test_serre_check_detects_a_twisted_generator(family, rank, lam):
    # E_1 K_0 raises weights like E_1 but breaks the q-Serre relations
    m = build_simple(root_datum(family, rank), lam, F)
    m.e_mats[1] = la.mat_mul(m.e_mats[1], m.k_i_matrix(0))
    problems = check_defining_relations(m)
    assert "Serre relation fails for E_0, E_1" in problems
    assert "Serre relation fails for E_1, E_0" in problems
    assert not any(p.startswith("Serre relation fails for F") for p in problems)


def test_torus_relations_see_a_generator_of_the_wrong_weight(monkeypatch):
    # K_i X K_i^-1 is formed by scaling rows and columns; with E_0 and F_0
    # swapped, both fail at every node they pair with, E before F
    from qspherical.modules import WeightModule
    for name in ("k_matrix", "k_i_matrix"):
        monkeypatch.setattr(WeightModule, name,
                            lambda *args: pytest.fail("a dense K matrix"))
    m = build_simple(root_datum("A", 2), (1, 1), F)
    m.e_mats[0], m.f_mats[0] = m.f_mats[0], m.e_mats[0]
    problems = [p for p in check_defining_relations(m) if p.startswith("K_")]
    assert problems == [f"K_{i} {x}_0 K_{i}^-1 has the wrong scalar"
                        for i in (0, 1) for x in "EF"]


CONFIG_DIR = __import__("pathlib").Path(__file__).parent.parent / "configs"


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_weight_test_matches_an_unskipped_build(path, monkeypatch):
    # oracle: with the weight test answering True everywhere, the build
    # visits every point of the deficit box, and the points whose blocks
    # come out nonzero are exactly the ones the weight test accepts
    import itertools
    import json
    import qspherical.modules as modules
    from qspherical.rootdata import satake_from_config
    datum = satake_from_config(json.loads(path.read_text())).datum
    is_weight = modules._is_weight
    skipped = 0
    for lam in itertools.product(range(3), repeat=datum.n):
        if sum(lam) > 2:
            continue
        seen = {}

        def accept_all(datum_, k, mu):
            seen[tuple(k)] = is_weight(datum_, k, mu)
            return True

        with monkeypatch.context() as patch:
            patch.setattr(modules, "_is_weight", accept_all)
            full = build_simple(datum, lam, F)
        nonzero = set(full.deficits) - {(0,) * datum.n}
        assert {k for k, ok in seen.items() if ok} == nonzero
        skipped += len(seen) - len(nonzero)
        m = build_simple(datum, lam, F)
        assert (m.weights, m.words, m.deficits) == (full.weights, full.words, full.deficits)
        for i in range(datum.n):
            assert la.mat_eq(m.e_mats[i], full.e_mats[i])
            assert la.mat_eq(m.f_mats[i], full.f_mats[i])
    if datum.n > 1:
        assert skipped


def test_dimension_cap_is_decided_before_any_arithmetic(monkeypatch):
    # L(2,2) of sl3 has dimension 27
    def fail(*args, **kwargs):
        raise AssertionError("exact arithmetic before the dimension cap")

    monkeypatch.setattr(la, "column_relations", fail)
    monkeypatch.setattr(la, "mat_mul", fail)
    with pytest.raises(DimensionCapExceeded, match="dimension cap 26"):
        build_simple(root_datum("A", 2), (2, 2), F, dim_cap=26)


def test_build_certifies_the_weyl_dimension(monkeypatch):
    datum = root_datum("A", 2)
    monkeypatch.setattr(datum, "weyl_dim", lambda lam: 9)
    with pytest.raises(ModuleError, match="Weyl dimension 9"):
        build_simple(datum, (1, 1), F)
