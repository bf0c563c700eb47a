import itertools
import json
import pathlib
import random
from fractions import Fraction

import pytest
import sympy

from qspherical.rootdata import (RANK_ONE_TYPES, RootDatum, RootDatumError,
                                 SatakeDatum, rank_one_satake, root_datum,
                                 _tau_from_black, satake_from_config,
                                 table1_constants)

CONFIGS = pathlib.Path(__file__).parent.parent / "configs"


def weyl_enumeration(datum, subset):
    """Brute-force oracle: all group elements of the parabolic as matrices on
    root coordinates, with shortest words."""
    gens = {i: datum.reflection_matrix_root(i) for i in subset}
    ident = tuple(tuple(1 if r == c else 0 for c in range(datum.n))
                  for r in range(datum.n))
    words = {ident: ()}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for i, g in gens.items():
                prod = tuple(tuple(sum(m[r][k] * g[k][c] for k in range(datum.n))
                                   for c in range(datum.n)) for r in range(datum.n))
                if prod not in words:
                    words[prod] = words[m] + (i,)
                    nxt.append(prod)
        frontier = nxt
    return words


def matrix_peel(datum, m):
    """The lexicographically least reduced word of the Weyl element with
    root-coordinate matrix m, by the matrix peel: take the least i with
    <m(2 rho), alpha_i^vee> < 0 and replace m by s_i m, until m = 1."""
    two_rho = [sum(col) for col in zip(*datum.positive_roots())]
    ident = datum.word_matrix_root(())
    word = []
    while m != ident:
        y = [sum(a * b for a, b in zip(row, two_rho)) for row in m]
        i = next(i for i in range(datum.n)
                 if sum(c * x for c, x in zip(datum.cartan[i], y)) < 0)
        word.append(i)
        s = datum.reflection_matrix_root(i)
        m = tuple(tuple(sum(s[r][k] * m[k][c] for k in range(datum.n))
                        for c in range(datum.n)) for r in range(datum.n))
    return tuple(word)


def matrix_longest(datum, subset):
    """The matrix of the longest element of W_J: multiply by s_i on the
    right while some simple root of J still maps to a positive root."""
    m = datum.word_matrix_root(())
    while True:
        i = next((j for j in sorted(subset)
                  if all(m[r][j] >= 0 for r in range(datum.n))), None)
        if i is None:
            return m
        s = datum.reflection_matrix_root(i)
        m = tuple(tuple(sum(m[r][k] * s[k][c] for k in range(datum.n))
                        for c in range(datum.n)) for r in range(datum.n))


def two_rho_image(datum, m):
    """m(2 rho) in root coordinates."""
    two_rho = [sum(col) for col in zip(*datum.positive_roots())]
    return tuple(sum(a * b for a, b in zip(row, two_rho)) for row in m)


G2 = RootDatum(((2, -1), (-3, 2)), (3, 1))
WALK_DATA = [root_datum("A", n) for n in range(1, 5)] + [
    root_datum("B", 2), root_datum("B", 3), root_datum("C", 3), root_datum("D", 4),
    G2, root_datum("F", 4)]


@pytest.mark.parametrize("datum", WALK_DATA, ids=lambda d: str(d.cartan))
def test_weyl_walks_match_the_matrix_peel(datum):
    # w0_J for every subset J, read off w0_J(2 rho), against the matrix loop
    # and the matrix peel
    for size in range(datum.n + 1):
        for subset in itertools.combinations(range(datum.n), size):
            m = matrix_longest(datum, subset)
            assert datum.longest_word(subset) == matrix_peel(datum, m)
            assert datum.word_from_image(two_rho_image(datum, m)) == matrix_peel(datum, m)
    # the relative reflection w_J w_black^-1 of every white node of every
    # admissible pair with the identity on white nodes
    for size in range(datum.n):
        for black in itertools.combinations(range(datum.n), size):
            satake = SatakeDatum(datum, black, _tau_from_black(datum, black))
            if not satake.is_admissible():
                continue
            w_b_inv = datum.word_matrix_root(tuple(reversed(satake.w_black)))
            for i in satake.I_circ:
                w_j = matrix_longest(datum, set(black) | {i, satake.tau[i]})
                m = tuple(tuple(sum(w_j[r][k] * w_b_inv[k][c] for k in range(datum.n))
                                for c in range(datum.n)) for r in range(datum.n))
                assert satake.relative_generator(i) == matrix_peel(datum, m)


def _config_satakes():
    out = []
    for path in sorted(CONFIGS.glob("*.json")):
        out.append(satake_from_config(json.loads(path.read_text())))
    for label in RANK_ONE_TYPES:
        out += [rank_one_satake(label, n)[0] for n in (None, 2, 3, 4, 5)
                if _rank_one_ok(label, n)]
    return out


def _rank_one_ok(label, n):
    try:
        rank_one_satake(label, n)
    except RootDatumError:
        return False
    return True


def test_relative_generators_of_configs_match_the_matrix_peel():
    for satake in _config_satakes():
        datum = satake.datum
        w_b_inv = datum.word_matrix_root(tuple(reversed(satake.w_black)))
        for i in satake.I_circ:
            w_j = matrix_longest(datum, set(satake.black) | {i, satake.tau[i]})
            m = tuple(tuple(sum(w_j[r][k] * w_b_inv[k][c] for k in range(datum.n))
                            for c in range(datum.n)) for r in range(datum.n))
            assert satake.relative_generator(i) == matrix_peel(datum, m)


def test_reflections():
    a2 = root_datum("A", 2)
    assert a2.reflect_root(0, (0, 1)) == (1, 1)          # s1(a2) = a1 + a2
    assert a2.reflect_root(0, (1, 0)) == (-1, 0)         # s_i(a_i) = -a_i
    b2 = root_datum("B", 2)
    assert b2.reflect_root(1, (1, 0)) == (1, 2)          # s2(a1) = a1 + 2a2


def test_longest_words_against_enumeration():
    a2 = root_datum("A", 2)
    assert a2.longest_word((0,)) == (0,)
    assert a2.longest_word((0, 1)) == (0, 1, 0)
    a3 = root_datum("A", 3)
    assert a3.longest_word((0, 2)) == (0, 2)
    for datum, subset in [(a2, (0, 1)), (a3, (0, 1, 2)), (root_datum("B", 2), (0, 1))]:
        words = weyl_enumeration(datum, subset)
        maxlen = max(len(w) for w in words.values())
        word = datum.longest_word(subset)
        assert len(word) == maxlen
        assert len(word) == len(datum.positive_roots(subset))
        # the word really evaluates to the unique longest element
        m = datum.word_matrix_root(word)
        longest = [mat for mat, w in words.items() if len(w) == maxlen]
        assert longest == [m]
        assert matrix_peel(datum, m) == word


@pytest.mark.parametrize("family,rank,order", [("A", 3, 24), ("B", 3, 48)])
def test_left_descents_against_inverse_images(family, rank, order):
    # oracle: i is a left descent of w exactly when w^-1 alpha_i is negative,
    # with w^-1 the matrix of the reversed word
    datum = root_datum(family, rank)
    words = weyl_enumeration(datum, range(rank))
    assert len(words) == order
    for m, word in words.items():
        inv = datum.word_matrix_root(tuple(reversed(word)))
        expected = tuple(i for i in range(rank)
                         if any(inv[r][i] < 0 for r in range(rank)))
        assert datum.left_descents(two_rho_image(datum, m)) == expected
        reduced = datum.word_from_image(two_rho_image(datum, m))
        assert len(reduced) == len(word)
        assert datum.word_matrix_root(reduced) == m


def test_satake_validation():
    a1 = SatakeDatum(root_datum("A", 1), (), (0,))
    assert a1.is_admissible()
    aiii = SatakeDatum(root_datum("A", 2), (), (1, 0))
    assert aiii.is_admissible()
    aii3 = SatakeDatum(root_datum("A", 3), (0, 2), (0, 1, 2))
    assert aii3.is_admissible()
    # breaking condition (ii): black A2 pair with identity tau
    bad = SatakeDatum(root_datum("A", 3), (0, 1), (0, 1, 2))
    labels = {c for c, _ in bad.validate()}
    assert "(ii)" in labels
    # breaking condition (iii): fixed white node paired half-integrally
    bad2 = SatakeDatum(root_datum("A", 2), (0,), (0, 1))
    labels2 = {c for c, _ in bad2.validate()}
    assert "(iii)" in labels2 or "(ii)" in labels2


def test_theta_involution(aiii3_sl4, aii3):
    for satake in (aiii3_sl4, aii3):
        n = satake.datum.n
        for k in range(n):
            h = tuple(1 if t == k else 0 for t in range(n))
            assert satake.theta_on_Y(satake.theta_on_Y(h)) == h
        for b in satake.y_theta_basis():
            assert satake.theta_on_Y(b) == tuple(-x for x in b)


def test_y_theta_basis_is_computed_once(monkeypatch):
    import qspherical.rootdata as rootdata

    satake = SatakeDatum(root_datum("A", 3), (), (2, 1, 0))
    first = satake.y_theta_basis()
    calls = []
    kernel = rootdata.integer_kernel_basis
    monkeypatch.setattr(rootdata, "integer_kernel_basis",
                        lambda m: calls.append(m) or kernel(m))
    assert satake.y_theta_basis() == first
    assert not calls


def test_relative_generators(ai1, aiii_sl3, aiii3_sl4):
    assert ai1.relative_generator(0) == (0,)
    assert aiii_sl3.relative_generator(0) == (0, 1, 0)
    assert aiii3_sl4.relative_generator(1) == (1,)
    assert aiii3_sl4.relative_generator(0) == (0, 2)
    for satake in (ai1, aiii_sl3, aiii3_sl4):
        basis = satake.y_theta_basis()
        for i in satake.relative_orbit_representatives():
            word = satake.relative_generator(i)
            mat = satake.relative_weyl_matrix_on_y_theta(i)
            assert all(isinstance(x, int) for row in mat for x in row)
            for c, b in enumerate(basis):
                img = satake.datum.act_word_Y(word, b)
                recon = tuple(sum(mat[r][c] * basis[r][t] for r in range(len(basis)))
                              for t in range(satake.datum.n))
                assert recon == img


def test_tau0(aiii_sl3, aiii3_sl4, ai1):
    assert ai1.tau0() == (0,)
    assert aiii_sl3.tau0() == (1, 0)
    assert aiii3_sl4.tau0() == (2, 1, 0)
    for satake in (aiii_sl3, aiii3_sl4):
        w0 = satake.w0
        for i in range(satake.datum.n):
            a = tuple(1 if k == i else 0 for k in range(satake.datum.n))
            img = satake.datum.act_word_root(w0, a)
            assert img == tuple(-1 if k == satake.tau0()[i] else 0
                                for k in range(satake.datum.n))


def test_weyl_dimension_formula():
    a2 = root_datum("A", 2)
    assert a2.weyl_dim((1, 0)) == 3
    assert a2.weyl_dim((1, 1)) == 8
    a3 = root_datum("A", 3)
    assert a3.weyl_dim((0, 1, 0)) == 6
    assert a3.weyl_dim((0, 2, 0)) == 20
    assert root_datum("B", 2).weyl_dim((1, 0)) == 5


TABLE1 = {
    ("AI1", None): (2, 0, 0, 2),
    ("AII3", None): (2, -2, 2, 4),
    ("AIII11", None): (2, 0, 0, 2),
    ("AIV", 2): (2, 0, 0, 2),
    ("AIV", 3): (2, -1, 1, 3),
    ("BII", 2): (4, -2, 2, 6),
    ("BII", 3): (4, -4, 6, 10),
    ("CII", 3): (2, -2, 3, 5),
    ("CII", 4): (2, -4, 5, 7),
    ("DII", 4): (2, -4, 4, 6),
    ("DII", 5): (2, -6, 6, 8),
    ("FII", None): (2, -6, 9, 11),
}


@pytest.mark.parametrize("label,n", sorted(TABLE1, key=str))
def test_table_constants(label, n):
    satake, _ = rank_one_satake(label, n)
    assert satake.is_admissible(), (label, n)
    assert table1_constants(label, n) == TABLE1[(label, n)]


def test_rank_one_labels_all_buildable():
    for label in RANK_ONE_TYPES:
        n = {"AIV": 2, "BII": 2, "CII": 3, "DII": 4}.get(label)
        satake, white = rank_one_satake(label, n)
        assert white in satake.I_circ


def test_config_round_trip(tmp_path):
    cfg = {"cartan": [[2, -1], [-1, 2]], "symmetrizer": [1, 1],
           "black": [], "tau": [2, 1]}
    satake = satake_from_config(cfg)
    assert satake.tau == (1, 0)
    assert satake.is_admissible()
    with pytest.raises(RootDatumError):
        satake_from_config({"cartan": [[2]]})


@pytest.mark.parametrize("cartan", [((2, -2), (-2, 2)), ((2, -3), (-3, 2)),
                                    ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))],
                         ids=["affine-A1", "hyperbolic", "affine-A2"])
def test_cartan_matrix_must_be_of_finite_type(cartan):
    with pytest.raises(RootDatumError, match="not of finite type"):
        RootDatum(cartan, (1,) * len(cartan))


def _sympy_solution(a, rhs):
    """The unique rational solution of A x = rhs by sympy, or None."""
    try:
        sol, params = sympy.Matrix(a).gauss_jordan_solve(sympy.Matrix(rhs))
    except ValueError:
        return None
    assert not params
    return [Fraction(int(x.p), int(x.q)) for x in sol]


FAMILIES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
            ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("D", 5), ("F", 4)]


@pytest.mark.parametrize("family, rank", FAMILIES, ids=[f"{f}{n}" for f, n in FAMILIES])
def test_X_to_root_matches_sympy(family, rank):
    datum = root_datum(family, rank)
    cartan = [list(row) for row in datum.cartan]
    rng = random.Random(f"{family}{rank}")
    for _ in range(8):
        x = [rng.randint(-6, 6) for _ in range(rank)]
        got = datum.X_to_root(x)
        assert all(type(v) is Fraction for v in got)
        assert list(got) == _sympy_solution(cartan, x)
        assert datum.root_to_X(got) == tuple(x)


RANK_ONE_CASES = [(label, n) for label in RANK_ONE_TYPES
                  for n in {"AIV": (2, 3), "BII": (2, 3), "CII": (3, 4),
                            "DII": (4, 5)}.get(label, (None,))]


@pytest.mark.parametrize("label, n", RANK_ONE_CASES,
                         ids=[f"{label}{n or ''}" for label, n in RANK_ONE_CASES])
def test_y_theta_coords_match_sympy(label, n):
    satake, _ = rank_one_satake(label, n)
    rank = satake.datum.n
    basis = satake.y_theta_basis()
    columns = [[b[r] for b in basis] for r in range(rank)]
    rng = random.Random(f"{label}{n}")
    # random coroot vectors, mostly outside Y_Theta, and vectors inside it
    vectors = [tuple(rng.randint(-5, 5) for _ in range(rank)) for _ in range(6)]
    for _ in range(4):
        coeffs = [rng.randint(-4, 4) for _ in basis]
        vectors.append(tuple(sum(c * b[r] for c, b in zip(coeffs, basis))
                             for r in range(rank)))
    outside = 0
    for h in vectors:
        want = _sympy_solution(columns, list(h))
        assert satake.y_theta_coords(h) == want
        outside += want is None
    if len(basis) < rank:
        assert outside, "no vector outside Y_Theta was tried"
    # the relative reflection on the basis, column by column
    for i in satake.relative_orbit_representatives():
        mat = satake.relative_weyl_matrix_on_y_theta(i)
        word = satake.relative_generator(i)
        for c, b in enumerate(basis):
            image = tuple(sum(mat[k][c] * basis[k][r] for k in range(len(basis)))
                          for r in range(rank))
            assert image == satake.datum.act_word_Y(word, b)
