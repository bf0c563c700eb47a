"""Exact finite-dimensional weight modules.

Simple highest-weight modules are realized concretely: weight spaces are
spanned by lowering-operator words applied to the highest weight vector,
the words whose contravariant Gram columns do not depend on earlier ones
are kept as basis, and the generator actions are stored as dense matrices
over the exact coefficient field.  The construction works weight block by
weight block: the E and F blocks and the Gram block of a weight are
products of blocks already built, and the dense matrices are assembled
from them at the end.  Weight blocks are orthogonal for the contravariant
form, so the form is kept only as its Gram blocks: a pairing is a sum of
block pairings, and the form applied to an operator is one block product
per weight.  In this basis the module bar involution is plain coefficient
conjugation, and the lowest weight basis vector is bar-fixed.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import linalg
from .rootdata import RootDatum
from .scalars import Field, FieldElem


class DimensionCapExceeded(Exception):
    pass


class ModuleError(Exception):
    pass


class WeightModule:
    """A weight module given by generator matrices.

    weights: ordered tuple of X-coordinate tuples, one per basis vector.
    e_mats / f_mats: one dense matrix per Chevalley index.
    """

    def __init__(self, datum: RootDatum, field: Field, weights, e_mats, f_mats):
        self.datum = datum
        self.field = field
        self.weights = tuple(tuple(w) for w in weights)
        self.dim = len(self.weights)
        self.e_mats = e_mats
        self.f_mats = f_mats
        self.cache = {}    # derived data, keyed by what derives it
        blocks = {}
        for idx, w in enumerate(self.weights):
            blocks.setdefault(w, []).append(idx)
        self.blocks = {w: tuple(ix) for w, ix in blocks.items()}

    def k_diagonal(self, h) -> list:
        """The diagonal of K_h, q^<h, mu> on each basis vector of weight mu,
        for h in Y or the half lattice (Fraction coordinates)."""
        h = tuple(int(x) if x == int(x) else Fraction(x) for x in h)   # ints pair in ints
        key = ("K", h)
        if key not in self.cache:
            q_power, pair = self.field.q_power, self.datum.pair
            self.cache[key] = [q_power(pair(h, mu)) for mu in self.weights]
        return self.cache[key]

    def k_matrix(self, h) -> list:
        """Dense view of K_h."""
        return linalg.diagonal(self.k_diagonal(h), self.field)

    def k_i_diagonal(self, i: int, power: int = 1) -> list:
        """The diagonal of K_i^power."""
        return self.k_diagonal(tuple(power * self.datum.d[i] if k == i else 0
                                     for k in range(self.datum.n)))

    def k_i_matrix(self, i: int, power: int = 1) -> list:
        """Dense view of K_i^power."""
        return linalg.diagonal(self.k_i_diagonal(i, power), self.field)

    def zero_vector(self) -> "ModuleVector":
        return ModuleVector(self, [self.field.zero] * self.dim)

    def basis_vector(self, idx: int) -> "ModuleVector":
        coeffs = [self.field.zero] * self.dim
        coeffs[idx] = self.field.one
        return ModuleVector(self, coeffs)


class ModuleVector:
    """A vector in a weight module, stored densely."""

    __slots__ = ("module", "coeffs")

    def __init__(self, module: WeightModule, coeffs):
        self.module = module
        self.coeffs = list(coeffs)

    def __eq__(self, other):
        return (isinstance(other, ModuleVector) and other.module is self.module
                and other.coeffs == self.coeffs)

    def is_zero(self) -> bool:
        return all(not c for c in self.coeffs)

    def __add__(self, other):
        self._check(other)
        return ModuleVector(self.module,
                            [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return ModuleVector(self.module,
                            [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return ModuleVector(self.module, [-a for a in self.coeffs])

    def scale(self, s) -> "ModuleVector":
        s = self.module.field.coerce(s)
        return ModuleVector(self.module, [a * s for a in self.coeffs])

    def _check(self, other):
        if other.module is not self.module:
            raise ModuleError("vectors live in different modules")

    def bar(self) -> "ModuleVector":
        """The module bar involution: anti-linear, fixing the word basis."""
        return ModuleVector(self.module, [c.bar() for c in self.coeffs])

    def normalized_at(self, idx: int) -> "ModuleVector":
        c = self.coeffs[idx]
        if not c:
            raise ModuleError("cannot normalize at a vanishing coefficient")
        return self.scale(c.inverse())

    def proportional_to(self, other: "ModuleVector") -> bool:
        self._check(other)
        lead = next((k for k, c in enumerate(self.coeffs) if c), None)
        if lead is None:
            return other.is_zero()
        if not other.coeffs[lead]:
            return False
        ratio = other.coeffs[lead] / self.coeffs[lead]
        return all(b == a * ratio for a, b in zip(self.coeffs, other.coeffs))

    def __repr__(self):
        terms = [f"({c})*b{idx}" for idx, c in enumerate(self.coeffs) if c]
        return " + ".join(terms) if terms else "0"


class SimpleModule(WeightModule):
    """The simple highest-weight module of a dominant weight."""

    def __init__(self, datum, field, lam, weights, e_mats, f_mats, grams, words,
                 deficits):
        super().__init__(datum, field, weights, e_mats, f_mats)
        self.lam = tuple(lam)
        self.grams = grams            # weight -> Gram matrix of the basis block
        self.words = tuple(words)     # lowering word that produced each basis vector
        self.deficits = tuple(deficits)   # lam - weight, in simple roots, per basis vector
        self.highest_index = 0
        block = self.blocks.get(tuple(datum.act_word_X(datum.w0_word(), lam)), ())
        if len(block) != 1:
            raise ModuleError("lowest weight space is not a line")
        self.lowest_index = block[0]

    def highest_vector(self) -> ModuleVector:
        return self.basis_vector(self.highest_index)

    def block_pairings(self, v: ModuleVector, w: ModuleVector):
        """Yield (weight, value) for each weight block on which the
        contravariant pairing of v and w is nonzero; blocks of different
        weights are orthogonal, so the pairing is the sum of the values."""
        if v.module is not self or w.module is not self:
            raise ModuleError("the contravariant pairing needs vectors of this module")
        for mu, idxs in self.blocks.items():
            gb = self.grams[mu]
            out = self.field.zero
            for a, ia in enumerate(idxs):
                cv = v.coeffs[ia]
                if not cv:
                    continue
                row = gb[a]
                for b, ib in enumerate(idxs):
                    cw = w.coeffs[ib]
                    if cw and row[b]:
                        out = out + cv * row[b] * cw
            if out:
                yield mu, out

    def shapovalov(self, v: ModuleVector, w: ModuleVector) -> FieldElem:
        out = self.field.zero
        for _, value in self.block_pairings(v, w):
            out = out + value
        return out

    def gram_times(self, mat: list) -> list:
        """G X for the contravariant form G: one product of G_mu with the
        rows of X in block mu per weight mu."""
        out = [None] * len(mat)
        for mu, idxs in self.blocks.items():
            for r, row in zip(idxs, linalg.mat_mul(self.grams[mu],
                                                   [mat[r] for r in idxs])):
                out[r] = row
        return out


def act_matrix(mat: list, v: ModuleVector) -> ModuleVector:
    return ModuleVector(v.module, linalg.mat_vec(mat, v.coeffs))


def act_Kh(h, v: ModuleVector) -> ModuleVector:
    """Action of K_h for h in the half coweight lattice (Fraction coordinates)."""
    return ModuleVector(v.module, [c * k if c else c for c, k in
                                   zip(v.coeffs, v.module.k_diagonal(h))])


# -- construction of simple modules ----------------------------------------------


def build_simple(datum: RootDatum, lam, field: Field,
                 dim_cap: int = 2000) -> SimpleModule:
    """Construct the simple module of highest weight lam.

    The weights are lam - k for the points k of the deficit box
    0 <= k <= lam - w0 lam (in simple roots), taken by height.  The
    candidates at k are F_i b for the basis vectors b at k - e_i.  E_j of
    all candidates is one block product per i, by E_j F_i = F_i E_j +
    delta_ij [<mu, alpha_i^vee>]_{q_i}, and since (F_i b, y) = (b, E_i y)
    their Gram matrix g stacks gram[k - e_i] times E_i of the candidates.
    The pivot columns P of g, in input order, are the basis.  g is
    symmetric, so rows P span its row space and g[P, P] is nonsingular.
    The radical is quotiented implicitly: a rejected candidate is the
    combination of kept ones given by its column relation in g.
    Only weights are visited (`_is_weight`).  The Weyl dimension decides the
    cap before any arithmetic, and the built dimension must equal it.
    """
    lam = tuple(int(x) for x in lam)
    if not datum.is_dominant(lam):
        raise ModuleError(f"{lam} is not dominant")
    n = datum.n
    expected_dim = datum.weyl_dim(lam)
    if expected_dim > dim_cap:
        raise DimensionCapExceeded(
            f"dimension cap {dim_cap} exceeded while building L{lam}")
    deficit, x = [0] * n, lam   # lam - w0 lam: s_i x = x - x_i alpha_i adds x_i to k_i
    for i in reversed(datum.w0_word()):
        deficit[i] += x[i]
        x = datum.reflect_X(i, x)
    points = sorted(itertools.product(*(range(d + 1) for d in deficit)),
                    key=lambda k: (sum(k), k))

    def weight_of(k):
        return tuple(l - s for l, s in zip(lam, datum.root_to_X(k)))

    def step(k, i, by):
        return tuple(v + by if t == i else v for t, v in enumerate(k))

    # a point enters gram and words only when its block has a basis
    gram = {points[0]: [[field.one]]}
    words = {points[0]: [()]}
    e_block = {}   # (j, k) -> matrix of E_j from block k into block k - e_j
    f_block = {}   # (i, k) -> matrix of F_i from block k into block k + e_i
    dim = 1
    for k in points[1:]:
        if not _is_weight(datum, k, weight_of(k)):
            continue
        srcs = {i: src for i in range(n) if (src := step(k, i, -1)) in words}
        # E_j of the candidates, side by side over i, in the basis at k - e_j
        e_cand = {}
        for j, dst in srcs.items():
            parts = []
            for i, src in srcs.items():
                fb = f_block.get((i, step(src, j, -1)))
                eb = e_block.get((j, src))
                part = (linalg.mat_mul(fb, eb) if fb and eb else
                        linalg.zeros(len(words[dst]), len(words[src]), field))
                scal = field.qint(int(weight_of(src)[i]), datum.d[i]) if i == j else 0
                if scal:
                    for c, row in enumerate(part):
                        row[c] = row[c] + scal
                parts.append(part)
            e_cand[j] = [[x for row in rows for x in row] for rows in zip(*parts)]
        g = [row for i, src in srcs.items()
             for row in linalg.mat_mul(gram[src], e_cand[i])]
        relations = linalg.column_relations(g, len(g), field)
        keep = [a for a in range(len(g)) if a not in relations]
        dim += len(keep)
        if not keep:
            continue
        gram[k] = [[g[a][b] for b in keep] for a in keep]
        cand_words = [(i,) + w for i, src in srcs.items() for w in words[src]]
        words[k] = [cand_words[a] for a in keep]
        # g x = 0 writes column a as -sum x[p] column p, and g's kernel is
        # the radical, so the candidate is that sum; one column per candidate
        expansion = [[-relations[a][p] for p in keep] if a in relations else
                     [field.one if p == a else field.zero for p in keep]
                     for a in range(len(g))]
        start = 0
        for i, src in srcs.items():
            width = len(words[src])
            f_block[(i, src)] = linalg.transpose(expansion[start:start + width])
            start += width
            e_block[(i, k)] = [[row[a] for a in keep] for row in e_cand[i]]

    if dim != expected_dim:
        raise ModuleError(f"L{lam} came out of dimension {dim}, not the "
                          f"Weyl dimension {expected_dim}")
    offset, weights, word_list, deficits = {}, [], [], []
    for k in points:
        if k in words:
            offset[k] = len(weights)
            weights += [weight_of(k)] * len(words[k])
            word_list += words[k]
            deficits += [k] * len(words[k])

    def place(blocks, by):
        """Dense matrices of the blocks (i, k), which map k to k + by e_i."""
        mats = {i: linalg.zeros(dim, dim, field) for i in range(n)}
        for (i, src), blk in blocks.items():
            r0, c0 = offset[step(src, i, by)], offset[src]
            for r, row in enumerate(blk):
                for c, x in enumerate(row):
                    if x:
                        mats[i][r0 + r][c0 + c] = x
        return mats

    grams_by_weight = {weight_of(k): gram[k] for k in offset}
    return SimpleModule(datum, field, lam, weights, place(e_block, -1),
                        place(f_block, 1), grams_by_weight, word_list, deficits)


def _is_weight(datum: RootDatum, k, mu) -> bool:
    """Whether mu = lam - sum k_i alpha_i (k >= 0) is a weight of L(lam), that
    is, its dominant conjugate mu+ is <= lam.  Reflecting mu at an i with
    <mu, alpha_i^vee> < 0 adds that pairing to k_i, so k only falls on the
    way to mu+: fail as soon as some k_i < 0."""
    k = list(k)
    while (i := next((i for i, m in enumerate(mu) if m < 0), None)) is not None:
        k[i] += mu[i]
        if k[i] < 0:
            return False
        mu = datum.reflect_X(i, mu)
    return True


def tensor(m1: WeightModule, m2: WeightModule) -> WeightModule:
    """Tensor product module through the coproduct on the generators."""
    if m1.datum.cartan != m2.datum.cartan or m1.datum.d != m2.datum.d:
        raise ModuleError("tensor factors live over different root data")
    if m1.field != m2.field:
        raise ModuleError("tensor factors live over different fields")
    field = m1.field
    weights = [tuple(a + b for a, b in zip(w1, w2))
               for w1 in m1.weights for w2 in m2.weights]
    id1 = linalg.identity(m1.dim, field)
    id2 = linalg.identity(m2.dim, field)
    e_mats, f_mats = {}, {}
    for i in range(m1.datum.n):
        e_mats[i] = linalg.mat_add(
            linalg.kron(m1.e_mats[i], id2, field),
            linalg.kron(m1.k_i_matrix(i), m2.e_mats[i], field))
        f_mats[i] = linalg.mat_add(
            linalg.kron(id1, m2.f_mats[i], field),
            linalg.kron(m1.f_mats[i], m2.k_i_matrix(i, -1), field))
    return WeightModule(m1.datum, field, weights, e_mats, f_mats)


def tensor_vector(v1: ModuleVector, v2: ModuleVector, t: WeightModule) -> ModuleVector:
    field = v1.module.field
    coeffs = [field.zero] * t.dim
    d2 = v2.module.dim
    for a, ca in enumerate(v1.coeffs):
        if not ca:
            continue
        for b, cb in enumerate(v2.coeffs):
            if cb:
                coeffs[a * d2 + b] = ca * cb
    return ModuleVector(t, coeffs)


# -- relation verification --------------------------------------------------------


def _divided_powers(module: WeightModule, name: str, i: int) -> list:
    """[X^(0), X^(1), ..., X^(k)] for X = E_i (name 'E') or F_i (name 'F')
    up to the nilpotency degree, which is at most the dimension; built once
    per module."""
    key = ("divided powers", name, i)
    if key not in module.cache:
        field = module.field
        mat = (module.e_mats if name == "E" else module.f_mats)[i]
        out = [linalg.identity(module.dim, field)]
        cur = out[0]
        for k in range(1, module.dim + 1):
            cur = linalg.mat_mul(cur, mat)
            if linalg.is_zero_matrix(cur):
                break
            out.append(linalg.mat_scale(cur, field.qfact(k, module.datum.d[i]).inverse()))
        module.cache[key] = out
    return module.cache[key]


def check_defining_relations(m: WeightModule) -> list:
    """Exact matrix verification of all defining relations; returns violations."""
    field = m.field
    datum = m.datum
    problems = []
    n = datum.n
    for i in range(n):
        for j in range(n):
            lhs = linalg.mat_sub(linalg.mat_mul(m.e_mats[i], m.f_mats[j]),
                                 linalg.mat_mul(m.f_mats[j], m.e_mats[i]))
            if i == j:
                expect = linalg.diagonal([field.qint(int(mu[i]), datum.d[i])
                                          for mu in m.weights], field)
                if not linalg.mat_eq(lhs, expect):
                    problems.append(f"[E_{i}, F_{i}] differs from the torus term")
            elif not linalg.is_zero_matrix(lhs):
                problems.append(f"[E_{i}, F_{j}] is nonzero")
    for i in range(n):
        k, kinv = m.k_i_diagonal(i), m.k_i_diagonal(i, -1)
        for j in range(n):
            scal = field.q_power(Fraction(datum.d[i] * datum.cartan[i][j]))
            for x, name, expect in ((m.e_mats[j], "E", scal),
                                    (m.f_mats[j], "F", scal.inverse())):
                lhs = linalg.scale_rows(k, linalg.scale_columns(x, kinv))
                if not linalg.mat_eq(lhs, linalg.mat_scale(x, expect)):
                    problems.append(f"K_{i} {name}_{j} K_{i}^-1 has the wrong scalar")
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            nij = 1 - datum.cartan[i][j]
            for mats, name in ((m.e_mats, "E"), (m.f_mats, "F")):
                # sum over s of (-1)^s X_i^(r) X_j X_i^(s), with r + s = nij
                powers = _divided_powers(m, name, i)
                acc = linalg.zeros(m.dim, m.dim, field)
                for s in range(nij + 1):
                    r = nij - s
                    if max(r, s) >= len(powers):
                        continue    # X_i^(k) is zero past the list
                    term = linalg.mat_mul(powers[r], linalg.mat_mul(mats[j], powers[s]))
                    acc = (linalg.mat_sub if s % 2 else linalg.mat_add)(acc, term)
                if not linalg.is_zero_matrix(acc):
                    problems.append(f"Serre relation fails for {name}_{i}, {name}_{j}")
    return problems


def check_contravariance(m: SimpleModule) -> list:
    """(v, E_i w) = (F_i v, w) and (v, F_i w) = (E_i v, w) on the Gram data:
    G X = (G Y)^T for (X, Y) = (E_i, F_i) and (F_i, E_i).  The second is the
    transpose of the first, so one comparison decides both."""
    problems = []
    for i in range(m.datum.n):
        if not linalg.mat_eq(m.gram_times(m.e_mats[i]),
                             linalg.transpose(m.gram_times(m.f_mats[i]))):
            problems += [f"contravariance fails for E_{i}", f"contravariance fails for F_{i}"]
    return problems
