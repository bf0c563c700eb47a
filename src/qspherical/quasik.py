"""Rank-one quasi-K matrices and the relative braid operators built from them.

The intertwiner at a white node i is solved exactly, per module, from one
linear system: generator-wise, the i-bar image of a generator for c composed
with the unknown weight-raising operator (identity constant term) equals the
operator composed with the bar conjugate of the same generator for c', which
is c with c_i and c_tau(i) replaced by their uniform images.  A uniform
restriction has c' = c.  A balanced monomial one has c' = b^2 c, where b is
the positive monomial twist to the uniform normal form b c; the twist
direction is fixed by equivariance of the relative operators under parameter
rescaling.

The system is weight-graded, as in the recursion for the quasi-K matrix
Upsilon = sum Upsilon_mu (Kolb 2014, Balagovic-Kolb 2019): the torus
generators confine the raising words W to the degrees they commute with,
and the rest is solved degree by degree in height order, each degree one
column relation (the columns left W - W right of its words, then the
right-hand side given the lower degrees, whose relation (x, 1) gives its
part of the intertwiner I + sum x_w W).
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .braid import Operator, rescaled_T
from .modules import ModuleVector, SimpleModule
from .qsp import (CoidealGenerators, Parameter, ParameterError,
                  _uniform_exponent, _pair_rho_vee, _even_int,
                  coideal_generators, twist_parameter)
from .characters import SphericalLine, line_character_values
from .scalars import UnrepresentableScalar
from .spherical import MatrixCoefficient


class IntertwinerError(Exception):
    pass


class QuasiKOnModule:
    """The rank-one intertwiner realized on one module."""

    def __init__(self, module, node, operator, mode, twist, residual_ok):
        self.module = module
        self.node = node
        self.operator = operator
        self.mode = mode              # "uniform" or "transported"
        self.twist = twist            # the monomial b with u = b c, or None
        self.residual_ok = residual_ok

    def zero_block_is_identity(self) -> bool:
        mat, field = self.operator.mat, self.module.field
        return all(mat[r][c] == (field.one if r == c else field.zero)
                   for idxs in self.module.blocks.values() for r in idxs for c in idxs)


def _uniform_image(i: int, param: Parameter) -> Parameter:
    """c with c_i and c_tau(i) replaced by their uniform images
    +-q^(-e) bar(c_tau(i)); c itself when it is uniform at i."""
    if param.uniform_at(i):
        return param
    ti = param.satake.tau[i]
    c = dict(param.c)
    c[i], c[ti] = param._uniform_rhs(i), param._uniform_rhs(ti)
    return Parameter(param.satake, c, param.s)


def _subdiagram_torus(i: int, satake) -> list:
    """The torus generators h of the coideal supported on the rank-one
    subdiagram: on the black nodes and on i and tau(i)."""
    support = set(satake.black) | {i, satake.tau[i]}
    return [h for h in satake.theta_fixed_torus_generators()
            if all(k in support for k, x in enumerate(h) if x)]


def _rank_one_generators(i: int, param: Parameter, module: SimpleModule,
                         right: Parameter | None = None) -> list:
    """The defining system of the rank-one intertwiner U at a white node, as
    matrix pairs (left, right) with left U = U right.

    Left is the i-bar image of a generator for param, right the bar
    conjugate of the same generator for the parameter right, by default the
    uniform image of param at i.  The i-bar involution fixes the white
    generators and the black Chevalley generators and inverts the torus
    generators.  The torus generators are those of the coideal supported on
    the rank-one subdiagram.
    """
    satake = param.satake
    right = right or _uniform_image(i, param)
    gl = coideal_generators(param, module)
    gr = gl if right is param else coideal_generators(right, module)
    ti = satake.tau[i]
    mats = [(gl.B[k].mat, gr.B[k].mat) for k in ([i] if ti == i else [i, ti])]
    for j in sorted(satake.black):
        mats.append((gl.black_E[j].mat, gr.black_E[j].mat))
        mats.append((gl.black_F[j].mat, gr.black_F[j].mat))
    torus = _subdiagram_torus(i, satake)
    for h, k_h in gl.torus:
        if h in torus:
            mats.append((module.k_matrix(tuple(-x for x in h)), k_h.mat))
    return [(left, linalg.bar_matrix(g)) for left, g in mats]


def _raising_words(module, alphabet) -> list:
    """Linearly independent nonconstant raising words over the subdiagram
    alphabet, each with its degree, by breadth-first products of the raising
    generators.  A word is held as its nonzero columns {column: {row: value}}.

    A word's degree is the sum of its letters' simple roots, as a weight, and
    the word raises weights by it; so words of different degrees occupy
    disjoint entries, and the words longer than the module's height span are
    zero.  At each length the nonzero products of the previous length's
    words with each letter are kept, in order, unless they depend on the
    ones of the same degree before them, tested on the entries they touch.
    """
    field = module.field
    zero = field.zero
    datum = module.datum
    letters = [(linalg.nonzero_columns(module.e_mats[j]), datum.alpha_in_X(j))
               for j in alphabet]
    # the words of length one are the letters themselves
    cands = [(step, {c: dict(col) for c, col in enumerate(cols) if col})
             for cols, step in letters]
    independent = []
    while cands:
        cands = [(deg, w) for deg, w in cands if w]
        dependent = set()
        for deg in dict.fromkeys(deg for deg, _ in cands):
            ix = [t for t, (d, _) in enumerate(cands) if d == deg]
            # one column per candidate, one row per entry some candidate touches
            touched = dict.fromkeys((r, c) for t in ix
                                    for c, col in cands[t][1].items() for r in col)
            vectorized = [[cands[t][1].get(c, {}).get(r, zero) for t in ix]
                          for r, c in touched]
            relations = linalg.column_relations(vectorized, len(ix), field)
            dependent.update(ix[a] for a in relations)
        frontier = [cand for t, cand in enumerate(cands) if t not in dependent]
        independent.extend(frontier)
        # closing over independent representatives only is complete: products
        # of dependent words stay inside the span of products of independent ones
        cands = [(tuple(a + b for a, b in zip(deg, step)),
                  {c: col for c, v in w.items()
                   if (col := linalg.apply_columns(cols, v))})
                 for deg, w in frontier for cols, step in letters]
    return independent


def _solve_intertwiner(i: int, satake, pairs: list,
                       module: SimpleModule) -> Operator:
    """The unique I + sum x_w W over the raising words W of the rank-one
    subdiagram with left U = U right for every pair of the system.

    The torus pairs are supports: for a word W of degree beta,
    K_-h W - W bar(K_h) = (q^-<h, beta> - 1) W K_-h, so only the words with
    <h, beta> = 0 for every torus generator h of the subdiagram enter, and
    their torus rows vanish.  The rest is solved degree by degree, in height
    order.  Each entry of a pair's left W - W right is a row, which belongs
    to the highest degree among the words it touches; the lower degrees are
    already solved and move to the right-hand side with the constant
    left - right.  Each block is one column relation: the word columns,
    then the right-hand side, whose relation (x, 1) gives the block's
    coefficients.  The F_j rows of a block already determine it, since a
    raising element commuting with every F_j of the alphabet acts by zero;
    so a block falls short of full column rank only when its words are
    dependent, and then so does the whole system.
    """
    field = module.field
    datum = satake.datum
    alphabet = sorted(set(satake.black) | {i, satake.tau[i]})
    torus = _subdiagram_torus(i, satake)
    words = [(deg, w) for deg, w in _raising_words(module, alphabet)
             if not any(datum.pair(h, deg) for h in torus)]
    degrees = list(dict.fromkeys(deg for deg, _ in words))
    block = [degrees.index(deg) for deg, _ in words]
    inconsistent = IntertwinerError(
        f"intertwiner system is inconsistent at node {i}; "
        "the rank-one restriction is not uniform")
    by_block = [[] for _ in degrees]
    for row in _system_rows(pairs, [w for _, w in words]):
        touched = [block[t] for t, y in row.items() if t is not None and y]
        if touched:
            by_block[max(touched)].append(row)
        elif row.get(None):
            raise inconsistent
    x = [None] * len(words)
    for k, block_rows in enumerate(by_block):
        cols = [t for t in range(len(words)) if block[t] == k]
        system = []
        for row in block_rows:
            rhs = row.get(None, field.zero)
            for t, y in row.items():
                if t is not None and block[t] < k and y and x[t]:
                    rhs = rhs + y * x[t]
            system.append([row.get(t, field.zero) for t in cols] + [rhs])
        relations = linalg.column_relations(system, len(cols) + 1, field)
        sol = relations.pop(len(cols), None)
        if sol is None:
            raise inconsistent
        if relations:
            raise IntertwinerError("intertwiner system is underdetermined")
        for t, y in zip(cols, sol):
            x[t] = y
    mat = linalg.identity(module.dim, field)
    for coeff, (_, w) in zip(x, words):
        if coeff:
            for c, col in w.items():
                for r, y in col.items():
                    mat[r][c] = mat[r][c] + coeff * y
    return Operator(module, mat)


def _system_rows(pairs: list, words: list) -> list:
    """The rows of left U = U right over every pair, one per entry (r, c) of
    the pair: word index t -> the entry of left W_t - W_t right, and None ->
    the entry of left - right.  The words are given by their nonzero
    columns {c: {r: value}}, and the products run over nonzero entries only.
    """
    rows = {}    # (pair, r, c) -> row
    for p, (left, right) in enumerate(pairs):
        left_cols = linalg.nonzero_columns(left)
        right_rows = linalg.nonzero_columns(linalg.transpose(right))
        for t, word in enumerate(words):
            for c, col in word.items():
                for r, w in col.items():
                    for r2, y in left_cols[r]:
                        row = rows.setdefault((p, r2, c), {})
                        row[t] = row[t] + y * w if t in row else y * w
                    for c2, y in right_rows[c]:
                        row = rows.setdefault((p, r, c2), {})
                        row[t] = row[t] - w * y if t in row else -(w * y)
        for r, (lrow, rrow) in enumerate(zip(left, right)):
            for c, (a, b) in enumerate(zip(lrow, rrow)):
                if a != b:
                    rows.setdefault((p, r, c), {})[None] = a - b
    return list(rows.values())


def _uniform_normal_form(i: int, param: Parameter):
    """(twisted parameter, twist tuple, monomial b) with u = b c uniform at i."""
    satake = param.satake
    field = param.field
    mono = param.c[i].as_monomial()
    if mono is None:
        raise UnrepresentableScalar(
            f"c_{i} = {param.c[i]} is not a monomial; no uniform normal form")
    _, m = mono
    sign = (-1) ** _even_int(2 * _pair_rho_vee(satake, i))
    if sign != 1:
        raise IntertwinerError(
            "no positive monomial twist to a uniform parameter at this node")
    e = _uniform_exponent(satake, i)
    # target u = gamma q^(-e/2): exponent in v units
    target_v = -Fraction(e, 2) * field.root_order
    if target_v.denominator != 1:
        raise UnrepresentableScalar("uniform normal form needs a finer root of q")
    b = field.v_power(int(target_v) - m)
    a = {j: field.one for j in satake.I_circ}
    a[i] = b
    a[satake.tau[i]] = b
    return twist_parameter(a, param), a, b


def _residual_zero(u: list, pairs: list) -> bool:
    return all(linalg.mat_eq(linalg.mat_mul(left, u), linalg.mat_mul(u, right))
               for left, right in pairs)


def quasi_k(i: int, param: Parameter, module: SimpleModule) -> QuasiKOnModule:
    """The rank-one intertwiner at a white node, on one module.

    One system for every standard restriction: the left generators come from
    c, the right ones from its uniform image at i (c itself when uniform).
    A balanced monomial restriction is "transported": its twist b to the
    uniform normal form b c is recorded, and b^2 c is the uniform image.
    Results are cached on the module.
    """
    satake = param.satake
    if i not in satake.I_circ:
        raise ParameterError(f"{i} is not a white node")
    key = ("quasi-K", i, param.key())
    if key in module.cache:
        return module.cache[key]
    if any(param.s[j] for j in (i, satake.tau[i])):
        raise ParameterError("the intertwiner needs a standard rank-one restriction")
    mode, twist = "uniform", None
    if not param.uniform_at(i):
        if param.c[i] != param.c[satake.tau[i]]:
            raise ParameterError("non-uniform restrictions must be balanced")
        param_u, _, twist = _uniform_normal_form(i, param)
        if not param_u.uniform_at(i):
            raise IntertwinerError("normal form failed to be uniform")
        mode = "transported"
    pairs = _rank_one_generators(i, param, module)
    op = _solve_intertwiner(i, satake, pairs, module)
    op.with_inverse(lambda: _UnipotentInverse(op))
    result = QuasiKOnModule(module, i, op, mode, twist, _residual_zero(op.mat, pairs))
    if not result.residual_ok:
        raise IntertwinerError(f"intertwining residual is nonzero at node {i}")
    module.cache[key] = result
    return result


def verify_intertwining(qk: QuasiKOnModule, param: Parameter) -> bool:
    """Exact check of the defining system satisfied by the stored operator."""
    pairs = _rank_one_generators(qk.node, param, qk.module)
    return _residual_zero(qk.operator.mat, pairs)


class _UnipotentInverse(Operator):
    """The inverse of an intertwiner U = I + N whose N strictly raises
    weights, by substitution: the solution X of U X = B has rows
    X_r = B_r - sum_c N[r][c] X_c, and every such c has a lower weight than
    r, so the rows are filled in from the lowest weights up (height order
    of the deficits lam - mu).  A vector is one column; the matrix is the
    substitution on the identity, formed on first read.
    """

    __slots__ = ("_rows", "_order")

    def __init__(self, u: Operator):
        module = u.module
        super().__init__(module, None)
        height = [sum(t) for t in module.deficits]
        one = module.field.one
        self._rows = []
        for r, row in enumerate(u.mat):
            entries = [(c, x - one if c == r else x) for c, x in enumerate(row)]
            entries = [(c, x) for c, x in entries if x]
            if any(height[c] <= height[r] for c, _ in entries):
                raise IntertwinerError(
                    "the intertwiner is not the identity plus a weight-raising operator")
            self._rows.append(entries)
        self._order = sorted(range(module.dim), key=lambda r: -height[r])

    def _dense(self) -> list:
        return self.times(linalg.identity(self.module.dim, self.module.field))

    def act(self, coeffs: list) -> list:
        return [x for x, in self.times([[x] for x in coeffs])]

    def times(self, mat: list) -> list:
        out = [None] * len(mat)
        for r in self._order:
            row = list(mat[r])
            for c, y in self._rows[r]:
                row = [x - y * z if z else x for x, z in zip(row, out[c])]
            out[r] = row
        return out


def wz_operator(i: int, param: Parameter, module: SimpleModule) -> Operator:
    """The relative braid operator on a module: intertwiner after rescaling.

    It is the chain U T of the intertwiner and the rescaled braid operator,
    and its inverse the chain T^-1 U^-1 of their structural inverses: U^-1
    by substitution in height order, T^-1 along the reversed word.  Neither
    forms a dense matrix until `mat` is read.
    """
    key = ("relative braid", i, param.key())
    if key not in module.cache:
        module.cache[key] = (quasi_k(i, param, module).operator
                             @ rescaled_T(i, param, module))
    return module.cache[key]


def wz_character_check(line: SphericalLine, i: int, param: Parameter,
                       gens: CoidealGenerators | None = None):
    """Does the inverse relative operator carry the line to a line of the same
    character?  The image's generator values are compared with the line's
    own character.  Returns (bool, certificate)."""
    module = line.module
    gens = gens or coideal_generators(param, module)
    w = wz_operator(i, param, module).inverse().apply(line.vector)
    values = line_character_values(w, gens)
    if values is None:
        return False, {"reason": "image is not a joint eigenvector", "node": i}
    for name, val in line.character.generator_values(gens).items():
        if values[name] != val:
            return False, {"reason": "character value changed", "node": i,
                           "generator": name, "before": str(val),
                           "after": str(values[name])}
    return True, None


def wz_precompose(coeff, i: int, param: Parameter):
    """Precomposition of a matrix coefficient with the relative braid operator.

    The result is again a matrix coefficient on the same module: the vector
    moves by the inverse of the operator W, and the dual vector f by its
    adjoint rho(W) = G^-1 W^T G for the contravariant form G, applied to f
    as G f, then W^T, then one solve per Gram block.
    """
    module = coeff.module
    w = wz_operator(i, param, module)
    g = [x for x, in module.gram_times([[x] for x in coeff.f.coeffs])]
    h = linalg.mat_vec(linalg.transpose(w.mat), g)
    f_new = [None] * module.dim
    for mu, idxs in module.blocks.items():
        for r, x in zip(idxs, linalg.solve(module.grams[mu], [h[r] for r in idxs])):
            f_new[r] = x
    v_new = w.inverse().apply(coeff.v)
    return MatrixCoefficient(module, ModuleVector(module, f_new), v_new)
