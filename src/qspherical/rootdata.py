"""Root data, Weyl group combinatorics and Satake diagrams.

Conventions fixed once and for all: X is the weight lattice in the basis of
fundamental weights, Y is the coroot lattice in the basis of simple coroots,
so pairing a Y-vector with an X-vector is the plain dot product.  The
normalized symmetric form on the root lattice gives short roots length 2.
Weyl group elements are carried as reduced words, always the
lexicographically least ones, so every derived word is reproducible; a word
is read off the integer vector w(2 rho) by walking it back to 2 rho.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .linalg import integer_kernel_basis


class RootDatumError(Exception):
    pass


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _integer(x, what: str) -> int:
    """An int, float or Fraction entry of an integer datum as an int; any
    other type, or a value that is not a whole number, is an error."""
    if isinstance(x, bool) or not isinstance(x, (int, float, Fraction)):
        raise RootDatumError(f"{what} entry {x!r} is not a number")
    if isinstance(x, float) and not x.is_integer() or x != int(x):
        raise RootDatumError(f"{what} entry {x!r} is not an integer")
    return int(x)


class RootDatum:
    """A Cartan matrix with symmetrizer and the simply-connected lattices."""

    def __init__(self, cartan, symmetrizer):
        c = tuple(tuple(_integer(x, "Cartan") for x in row) for row in cartan)
        d = tuple(_integer(x, "symmetrizer") for x in symmetrizer)
        n = len(c)
        if any(len(row) != n for row in c) or len(d) != n:
            raise RootDatumError("Cartan matrix and symmetrizer sizes disagree")
        for i in range(n):
            if c[i][i] != 2:
                raise RootDatumError("Cartan diagonal must be 2")
            for j in range(n):
                if i != j and c[i][j] > 0:
                    raise RootDatumError("off-diagonal Cartan entries must be <= 0")
                if (c[i][j] == 0) != (c[j][i] == 0):
                    raise RootDatumError("Cartan zero pattern must be symmetric")
                if d[i] * c[i][j] != d[j] * c[j][i]:
                    raise RootDatumError("DC must be symmetric")
        if any(x < 1 for x in d):
            raise RootDatumError("symmetrizer entries must be positive")
        if math.gcd(*d) != 1:
            raise RootDatumError("gcd of the symmetrizer must be 1")
        if not _positive_definite([[d[i] * c[i][j] for j in range(n)] for i in range(n)]):
            raise RootDatumError("Cartan matrix is not of finite type: "
                                 "DC is not positive definite")
        self.cartan = c
        self.d = d
        self.n = n
        self._roots = {}    # positive roots per sorted subset

    # -- lattices ------------------------------------------------------------

    def alpha_in_X(self, i: int) -> tuple:
        """Simple root alpha_i in fundamental-weight coordinates."""
        return tuple(self.cartan[k][i] for k in range(self.n))

    def root_to_X(self, a) -> tuple:
        return tuple(sum(self.cartan[k][i] * a[i] for i in range(self.n))
                     for k in range(self.n))

    def X_to_root(self, x) -> tuple:
        """Inverse of root_to_X; entries are Fractions in general."""
        sol = _rational_solution(self.cartan, x)
        if sol is None:
            raise RootDatumError("Cartan matrix is singular")
        return sol

    def pair(self, h, x):
        """Pairing of h in Y (coroot coordinates) with x in X."""
        return _dot(h, x)

    def form_roots(self, a, b):
        """Normalized symmetric form on root-lattice vectors."""
        return sum(a[i] * self.d[i] * self.cartan[i][j] * b[j]
                   for i in range(self.n) for j in range(self.n))

    def form_X_root(self, x, a):
        """(x, beta) for x in X and beta in the root lattice; an int for
        integral x."""
        return sum(a[i] * self.d[i] * x[i] for i in range(self.n))

    # -- reflections ----------------------------------------------------------

    def _check_index(self, i):
        if not 0 <= i < self.n:
            raise RootDatumError(f"unknown index {i}")

    def reflect_X(self, i: int, x) -> tuple:
        self._check_index(i)
        alpha = self.alpha_in_X(i)
        return tuple(v - x[i] * a for v, a in zip(x, alpha))

    def reflect_Y(self, i: int, h) -> tuple:
        self._check_index(i)
        c = _dot(h, self.alpha_in_X(i))
        return tuple(v - (c if k == i else 0) for k, v in enumerate(h))

    def reflect_root(self, i: int, a) -> tuple:
        self._check_index(i)
        c = sum(self.cartan[i][j] * a[j] for j in range(self.n))
        return tuple(v - (c if k == i else 0) for k, v in enumerate(a))

    def reflection_matrix_root(self, i: int) -> tuple:
        return self.word_matrix_root((i,))

    def word_matrix_root(self, word) -> tuple:
        """The matrix on root coordinates of the Weyl element of the word."""
        return tuple(zip(*(self.act_word_root(word, tuple(int(k == j) for k in range(self.n)))
                           for j in range(self.n))))

    def act_word_root(self, word, a) -> tuple:
        """Apply s_{i1}...s_{ik}, leftmost letter outermost."""
        for i in reversed(word):
            a = self.reflect_root(i, a)
        return a

    def negated_simple(self, word, j: int) -> int | None:
        """The k with w alpha_j = -alpha_k for the Weyl element w of the
        word, or None when w alpha_j is not a negative simple root."""
        img = list(self.act_word_root(word, tuple(1 if k == j else 0 for k in range(self.n))))
        return img.index(-1) if sorted(img) == [-1] + [0] * (self.n - 1) else None

    def act_word_X(self, word, x) -> tuple:
        for i in reversed(word):
            x = self.reflect_X(i, x)
        return x

    def act_word_Y(self, word, h) -> tuple:
        for i in reversed(word):
            h = self.reflect_Y(i, h)
        return h

    # -- roots and the Weyl group ----------------------------------------------

    def positive_roots(self, subset=None) -> tuple:
        """The positive roots of the sub-system of a subset (default: all
        nodes) by height, in root coordinates; computed once per subset."""
        idx = tuple(sorted(set(range(self.n) if subset is None else subset)))
        if idx not in self._roots:
            self._roots[idx] = self._root_closure(idx)
        return self._roots[idx]

    def _root_closure(self, idx) -> tuple:
        roots = {tuple(1 if k == i else 0 for k in range(self.n)) for i in idx}
        frontier = list(roots)
        while frontier:
            nxt = []
            for a in frontier:
                for i in idx:
                    b = self.reflect_root(i, a)
                    if all(v >= 0 for v in b) and b not in roots:
                        roots.add(b)
                        nxt.append(b)
            frontier = nxt
        return tuple(sorted(roots, key=lambda a: (sum(a), a)))

    def longest_word(self, subset) -> tuple:
        """Lexicographically least reduced word of the longest element w0_J
        of W_J, which maps 2 rho to 2 rho - 2 (sum of the positive roots of J)."""
        roots = self.positive_roots(subset)
        return self.word_from_image(tuple(r - 2 * sum(a[k] for a in roots)
                                          for k, r in enumerate(self._two_rho)))

    @functools.cached_property
    def _two_rho(self) -> tuple:
        """Sum of the positive roots, in root coordinates."""
        roots = self.positive_roots()
        return tuple(sum(a[k] for a in roots) for k in range(self.n))

    def left_descents(self, y) -> tuple:
        """Left descents of the Weyl element w with w(2 rho) = y (root
        coordinates): the i with w^-1 alpha_i < 0, that is <y, alpha_i^vee> < 0."""
        return tuple(i for i in range(self.n) if _dot(self.cartan[i], y) < 0)

    def word_from_image(self, y) -> tuple:
        """Lexicographically least reduced word of the w with w(2 rho) = y:
        peel the least left descent i and walk y to s_i y, until y = 2 rho."""
        out = []
        while y != self._two_rho:
            descents = self.left_descents(y)
            if not descents:
                raise RootDatumError(f"{y} is not a Weyl image of 2 rho")
            out.append(descents[0])
            y = self.reflect_root(descents[0], y)
        return tuple(out)

    # -- standard vectors -------------------------------------------------------

    def rho(self) -> tuple:
        return tuple(1 for _ in range(self.n))

    def rho_of(self, subset) -> tuple:
        """Half sum of the positive roots of a sub-system, as X Fractions."""
        total = [0] * self.n
        for a in self.positive_roots(subset):
            x = self.root_to_X(a)
            total = [t + v for t, v in zip(total, x)]
        return tuple(Fraction(t, 2) for t in total)

    def rho_vee_of(self, subset) -> tuple:
        """Half sum of the positive coroots of a sub-system, as Y Fractions."""
        total = [Fraction(0)] * self.n
        for a in self.positive_roots(subset):
            norm = self.form_roots(a, a)
            for i in range(self.n):
                total[i] += Fraction(2 * a[i] * self.d[i], norm)
        return tuple(t / 2 for t in total)

    def coweight_of_weight(self, x) -> tuple:
        """Image of an X-vector under nu(alpha_i) = d_i alpha_i^vee, in Y Fractions."""
        a = self.X_to_root(x)
        return tuple(a[i] * self.d[i] for i in range(self.n))

    def is_dominant(self, lam) -> bool:
        return all(v >= 0 for v in lam)

    def weyl_dim(self, lam) -> int:
        """Weyl dimension formula, in ints; independent of any module
        construction."""
        rho = self.rho()
        lam_rho = tuple(l + r for l, r in zip(lam, rho))
        top = bot = 1
        for a in self.positive_roots():
            top *= self.form_X_root(lam_rho, a)
            bot *= self.form_X_root(rho, a)
        if top % bot:
            raise RootDatumError("Weyl dimension did not come out integral")
        return top // bot

    def w0_word(self) -> tuple:
        return self._w0_word

    @functools.cached_property
    def _w0_word(self) -> tuple:
        return self.longest_word(range(self.n))


class SatakeDatum:
    """A root datum with a chosen admissible pair: black nodes and involution."""

    def __init__(self, datum: RootDatum, black, tau):
        self.datum = datum
        self.black = frozenset(_integer(j, "black") for j in black)
        self.tau = tuple(_integer(t, "tau") for t in tau)
        n = datum.n
        if sorted(self.tau) != list(range(n)):
            raise RootDatumError("tau must be a permutation of the index set")
        if any(j < 0 or j >= n for j in self.black):
            raise RootDatumError("black subset out of range")
        self.I_circ = tuple(i for i in range(n) if i not in self.black)
        self.w_black = datum.longest_word(self.black)
        self.I_ns = tuple(i for i in self.I_circ
                          if self.tau[i] == i and
                          all(datum.cartan[i][j] == 0 for j in self.black))
        self.rho_black = datum.rho_of(self.black)
        self.rho_black_vee = datum.rho_vee_of(self.black)
        self.w0 = datum.w0_word()
        self._cache = {}    # relative reflections per white node, as words and matrices

    # -- the involution ---------------------------------------------------------

    def tau_perm(self, vec) -> tuple:
        out = [0] * self.datum.n
        for i, v in enumerate(vec):
            out[self.tau[i]] = v
        return tuple(out)

    def theta_on_X(self, x) -> tuple:
        y = self.datum.act_word_X(self.w_black, self.tau_perm(x))
        return tuple(-v for v in y)

    def theta_on_Y(self, h) -> tuple:
        y = self.datum.act_word_Y(self.w_black, self.tau_perm(h))
        return tuple(-v for v in y)

    def theta_on_root(self, a) -> tuple:
        y = self.datum.act_word_root(self.w_black, self.tau_perm(a))
        return tuple(-v for v in y)

    # -- admissibility ------------------------------------------------------------

    def validate(self) -> list:
        """Check the admissibility conditions; return a report of violations."""
        datum = self.datum
        problems = []
        for i in range(datum.n):
            for j in range(datum.n):
                if datum.cartan[i][j] != datum.cartan[self.tau[i]][self.tau[j]]:
                    problems.append(
                        ("(i)", f"tau does not preserve the Cartan matrix at ({i},{j})"))
        if any(self.tau[self.tau[i]] != i for i in range(datum.n)):
            problems.append(("(i)", "tau is not an involution"))
        if any(self.tau[j] not in self.black for j in self.black):
            problems.append(("(i)", "tau does not preserve the black subset"))
        for j in sorted(self.black):
            if datum.negated_simple(self.w_black, j) != self.tau[j]:
                problems.append(("(ii)", f"tau on black node {j} differs from -w_black"))
        for i in self.I_circ:
            if self.tau[i] == i:
                val = sum(Fraction(self.rho_black_vee[k]) * datum.alpha_in_X(i)[k]
                          for k in range(datum.n))
                if val.denominator != 1:
                    problems.append(
                        ("(iii)", f"<rho_black_vee, alpha_{i}> = {val} is not integral"))
        return problems

    def is_admissible(self) -> bool:
        return not self.validate()

    # -- derived combinatorics ------------------------------------------------------

    def y_theta_basis(self) -> tuple:
        """HNF basis of the lattice of coroot vectors with Theta(h) = -h."""
        return self._y_theta_basis

    @functools.cached_property
    def _y_theta_basis(self) -> tuple:
        n = self.datum.n
        m = [[0] * n for _ in range(n)]
        for k in range(n):
            e = tuple(1 if t == k else 0 for t in range(n))
            img = self.theta_on_Y(e)
            for r in range(n):
                m[r][k] = img[r] + e[r]
        return tuple(integer_kernel_basis(m))

    def theta_fixed_torus_generators(self) -> tuple:
        """Y-vectors indexing the torus generators of the coideal: the
        K_i K_tau(i)^-1 family on white nodes and K_j on black nodes."""
        out = []
        n = self.datum.n
        seen = set()
        for i in self.I_circ:
            j = self.tau[i]
            if j == i or (j, i) in seen:
                continue
            seen.add((i, j))
            h = [0] * n
            h[i] = self.datum.d[i]
            h[j] = -self.datum.d[j]
            out.append(tuple(h))
        for j in sorted(self.black):
            h = [0] * n
            h[j] = self.datum.d[j]
            out.append(tuple(h))
        return tuple(out)

    def relative_generator(self, i: int) -> tuple:
        """Reduced word for the relative reflection w_J w_black^-1 attached to
        a white node i, J = black + {i, tau(i)}; read off the image of 2 rho."""
        if i not in self.I_circ:
            raise RootDatumError(f"index {i} is not a white node")
        if ("word", i) not in self._cache:
            datum = self.datum
            word = (datum.longest_word(set(self.black) | {i, self.tau[i]})
                    + tuple(reversed(self.w_black)))
            self._cache["word", i] = datum.word_from_image(
                datum.act_word_root(word, datum._two_rho))
        return self._cache["word", i]

    def relative_orbit_representatives(self) -> tuple:
        seen, out = set(), []
        for i in self.I_circ:
            if i in seen:
                continue
            seen.add(i)
            seen.add(self.tau[i])
            out.append(i)
        return tuple(out)

    def tau0(self) -> tuple:
        """Diagram involution induced by the longest Weyl element."""
        out = tuple(self.datum.negated_simple(self.w0, i) for i in range(self.datum.n))
        if None in out:
            raise RootDatumError("w0 does not act by a diagram involution")
        return out

    def y_theta_coords(self, h) -> list | None:
        """Rational coordinates of a coroot vector in the Y_Theta basis, or
        None when it lies outside their span."""
        basis = self.y_theta_basis()
        sol = _rational_solution([[b[r] for b in basis] for r in range(self.datum.n)], h)
        return None if sol is None else list(sol)

    def relative_weyl_matrix_on_y_theta(self, i: int) -> tuple:
        """Matrix of the relative reflection on the fixed Y_Theta basis."""
        if ("matrix", i) in self._cache:
            return self._cache["matrix", i]
        word = self.relative_generator(i)
        cols = []
        for b in self.y_theta_basis():
            sol = self.y_theta_coords(self.datum.act_word_Y(word, b))
            if sol is None or any(s.denominator != 1 for s in sol):
                raise RootDatumError("relative reflection does not preserve Y_Theta")
            cols.append(tuple(int(s) for s in sol))
        self._cache["matrix", i] = tuple(zip(*cols))
        return self._cache["matrix", i]


def _positive_definite(m) -> bool:
    """Whether a symmetric integer matrix is positive definite: every pivot
    of its symmetric elimination is positive."""
    a = [[Fraction(x) for x in row] for row in m]
    for k, prow in enumerate(a):
        if prow[k] <= 0:
            return False
        for row in a[k + 1:]:
            f = row[k] / prow[k]
            row[k:] = [x - f * y for x, y in zip(row[k:], prow[k:])]
    return True


def _rational_solution(a, rhs) -> tuple | None:
    """The unique rational x with A x = rhs for integer A and rhs, or None:
    the integer kernel of [A | -rhs] is then one vector (t x, t), t != 0."""
    kernel = integer_kernel_basis([list(row) + [-b] for row, b in zip(a, rhs)])
    if len(kernel) != 1 or not kernel[0][-1]:
        return None
    *tx, t = kernel[0]
    return tuple(Fraction(v, t) for v in tx)


# -- standard constructions ------------------------------------------------------


def cartan_matrix(family: str, n: int) -> tuple:
    """Cartan matrix and symmetrizer for the classical families and F4."""
    family = family.upper()
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def link(i, j, cij, cji):
        c[i][j] = cij
        c[j][i] = cji

    if family == "A":
        for i in range(n - 1):
            link(i, i + 1, -1, -1)
        d = [1] * n
    elif family == "B":
        if n < 2:
            raise RootDatumError("B needs rank >= 2")
        for i in range(n - 2):
            link(i, i + 1, -1, -1)
        link(n - 2, n - 1, -1, -2)
        d = [2] * (n - 1) + [1]
    elif family == "C":
        if n < 2:
            raise RootDatumError("C needs rank >= 2")
        for i in range(n - 2):
            link(i, i + 1, -1, -1)
        link(n - 2, n - 1, -2, -1)
        d = [1] * (n - 1) + [2]
    elif family == "D":
        if n < 3:
            raise RootDatumError("D needs rank >= 3")
        for i in range(n - 3):
            link(i, i + 1, -1, -1)
        link(n - 3, n - 2, -1, -1)
        link(n - 3, n - 1, -1, -1)
        d = [1] * n
    elif family == "F":
        if n != 4:
            raise RootDatumError("F needs rank 4")
        link(0, 1, -1, -1)
        link(1, 2, -1, -2)
        link(2, 3, -1, -1)
        d = [2, 2, 1, 1]
    else:
        raise RootDatumError(f"unsupported family {family!r}")
    return tuple(tuple(row) for row in c), tuple(d)


def root_datum(family: str, n: int) -> RootDatum:
    c, d = cartan_matrix(family, n)
    return RootDatum(c, d)


def _tau_from_black(datum: RootDatum, black, white_tau=None):
    """The involution forced by condition (ii): -w_black on black nodes."""
    n = datum.n
    w_black = datum.longest_word(black)
    tau = [None] * n
    for j in sorted(black):
        tau[j] = datum.negated_simple(w_black, j)
    for i in range(n):
        if tau[i] is None:
            tau[i] = white_tau[i] if white_tau else i
    return tuple(tau)


RANK_ONE_TYPES = ("AI1", "AII3", "AIII11", "AIV", "BII", "CII", "DII", "FII")


def rank_one_satake(label: str, n: int | None = None) -> tuple:
    """(SatakeDatum, white index) for the rank-one types of the parameter table."""
    label = label.upper()
    if label == "AI1":
        return SatakeDatum(root_datum("A", 1), (), (0,)), 0
    if label == "AII3":
        return SatakeDatum(root_datum("A", 3), (0, 2), (0, 1, 2)), 1
    if label == "AIII11":
        datum = RootDatum(((2, 0), (0, 2)), (1, 1))
        return SatakeDatum(datum, (), (1, 0)), 0
    if label == "AIV":
        if n is None or n < 2:
            raise RootDatumError("AIV needs n >= 2")
        datum = root_datum("A", n)
        black = tuple(range(1, n - 1))
        tau = _tau_from_black(datum, black, tuple(n - 1 - k for k in range(n)))
        return SatakeDatum(datum, black, tau), 0
    if label == "BII":
        if n is None or n < 2:
            raise RootDatumError("BII needs n >= 2")
        datum = root_datum("B", n)
        black = tuple(range(1, n))
        return SatakeDatum(datum, black, _tau_from_black(datum, black)), 0
    if label == "CII":
        if n is None or n < 3:
            raise RootDatumError("CII needs n >= 3")
        datum = root_datum("C", n)
        black = (0,) + tuple(range(2, n))
        return SatakeDatum(datum, black, _tau_from_black(datum, black)), 1
    if label == "DII":
        if n is None or n < 4:
            raise RootDatumError("DII needs n >= 4")
        datum = root_datum("D", n)
        black = tuple(range(1, n))
        return SatakeDatum(datum, black, _tau_from_black(datum, black)), 0
    if label == "FII":
        datum = root_datum("F", 4)
        black = (0, 1, 2)
        return SatakeDatum(datum, black, _tau_from_black(datum, black)), 3
    raise RootDatumError(f"unsupported rank-one type {label!r}")


def table1_constants(label: str, n: int | None = None) -> tuple:
    """The four root-datum constants attached to a rank-one type."""
    satake, i = rank_one_satake(label, n)
    datum = satake.datum
    alpha_i = datum.alpha_in_X(i)
    c1 = datum.d[i] * datum.cartan[i][i]
    c2 = sum(2 * Fraction(satake.rho_black_vee[k]) * alpha_i[k]
             for k in range(datum.n))
    c3 = -datum.d[i] * 2 * Fraction(satake.rho_black[i])
    ai_root = tuple(1 if k == i else 0 for k in range(datum.n))
    diff = tuple(a - t for a, t in zip(ai_root, satake.theta_on_root(ai_root)))
    c4 = datum.form_X_root(datum.rho(), diff)
    out = []
    for v in (c1, c2, c3, c4):
        f = Fraction(v)
        if f.denominator != 1:
            raise RootDatumError(f"table constant {v} is not integral")
        out.append(int(f))
    return tuple(out)


# -- configuration files -----------------------------------------------------------


def satake_from_config(cfg: dict) -> SatakeDatum:
    """Build a Satake datum from a JSON config; indices in the file are 1-based."""
    try:
        cartan = cfg["cartan"]
        sym = cfg["symmetrizer"]
        black = [_integer(j, "black") - 1 for j in cfg.get("black", [])]
        tau_raw = cfg.get("tau")
    except (KeyError, TypeError) as exc:
        raise RootDatumError(f"bad Satake config: {exc}") from exc
    datum = RootDatum(cartan, sym)
    if tau_raw is None:
        tau = tuple(range(datum.n))
    else:
        tau = tuple(_integer(t, "tau") - 1 for t in tau_raw)
    return SatakeDatum(datum, black, tau)
