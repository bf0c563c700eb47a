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

The system is one column relation: the columns left W - W right for the
raising words W, then left - right, whose relation (x, 1) gives the
intertwiner I + sum x_w W.
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
        mat = self.operator.mat
        module = self.module
        for r in range(module.dim):
            for c in range(module.dim):
                same = module.weights[r] == module.weights[c]
                expect = module.field.one if r == c else module.field.zero
                if same and mat[r][c] != expect:
                    return False
        return True


def _uniform_image(i: int, param: Parameter) -> Parameter:
    """c with c_i and c_tau(i) replaced by their uniform images
    +-q^(-e) bar(c_tau(i)); c itself when it is uniform at i."""
    if param.uniform_at(i):
        return param
    ti = param.satake.tau[i]
    c = dict(param.c)
    c[i], c[ti] = param._uniform_rhs(i), param._uniform_rhs(ti)
    return Parameter(param.satake, c, param.s)


def _rank_one_generators(i: int, param: Parameter, module: SimpleModule,
                         right: Parameter | None = None) -> list:
    """The defining system of the rank-one intertwiner U at a white node, as
    matrix pairs (left, right) with left U = U right.

    Left is the i-bar image of a generator for param, right the bar
    conjugate of the same generator for the parameter right, by default the
    uniform image of param at i.  The i-bar involution fixes the white
    generators and the black Chevalley generators and inverts the torus
    generators.  The torus generators are those of the coideal supported on
    the rank-one subdiagram: on the black nodes and on i and tau(i).
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
    support = set(satake.black) | {i, ti}
    for h, k_h in gl.torus:
        if all(k in support for k, x in enumerate(h) if x):
            mats.append((module.k_matrix(tuple(-x for x in h)), k_h.mat))
    return [(left, linalg.bar_matrix(g)) for left, g in mats]


def _raising_word_matrices(module, alphabet) -> list:
    """Linearly independent matrices of nonconstant raising words over the
    subdiagram alphabet, by breadth-first products of the raising generators.

    A word of length k raises weights by a root of height k, so words of
    different lengths are independent, and the words longer than the
    module's height span are zero.  At each length the nonzero products of
    the previous length's words with each letter are kept, in order, unless
    they depend on the ones before them.
    """
    field = module.field
    dim = module.dim
    # closing over independent representatives only is complete: products of
    # dependent words stay inside the span of products of independent ones
    frontier = [linalg.identity(dim, field)]
    independent = []
    while frontier:
        cands = []
        for mat in frontier:
            for j in alphabet:
                prod = linalg.mat_mul(module.e_mats[j], mat)
                if not linalg.is_zero_matrix(prod):
                    cands.append(prod)
        # one column per candidate, one row per matrix entry
        vectorized = [[w[r][c] for w in cands]
                      for r in range(dim) for c in range(dim)]
        relations = linalg.column_relations(vectorized, len(cands), field)
        frontier = [w for t, w in enumerate(cands) if t not in relations]
        independent.extend(frontier)
    return independent


def _solve_intertwiner(i: int, satake, pairs: list,
                       module: SimpleModule) -> Operator:
    """The unique I + sum x_w W over the raising words W of the rank-one
    subdiagram with left U = U right for every pair of the system."""
    field = module.field
    alphabet = sorted(set(satake.black) | {i, satake.tau[i]})
    words = _raising_word_matrices(module, alphabet)
    dim = module.dim
    rows = []
    for left, right in pairs:
        cols = [linalg.mat_sub(linalg.mat_mul(left, w), linalg.mat_mul(w, right))
                for w in words] + [linalg.mat_sub(left, right)]
        for r in range(dim):
            for c in range(dim):
                row = [col[r][c] for col in cols]
                if any(row):
                    rows.append(row)
    relations = linalg.column_relations(rows, len(words) + 1, field)
    x = relations.pop(len(words), None)
    if x is None:
        raise IntertwinerError(
            f"intertwiner system is inconsistent at node {i}; "
            "the rank-one restriction is not uniform")
    if relations:
        raise IntertwinerError("intertwiner system is underdetermined")
    mat = linalg.identity(dim, field)
    for coeff, w in zip(x, words):
        if coeff:
            mat = linalg.mat_add(mat, linalg.mat_scale(w, coeff))
    return Operator(module, mat)


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


def _param_key(param: Parameter) -> tuple:
    return (tuple(sorted(param.c.items())), tuple(sorted(param.s.items())))


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
    cache = getattr(module, "_quasi_k_cache", None)
    if cache is None:
        cache = module._quasi_k_cache = {}
    key = (i, _param_key(param))
    if key in cache:
        return cache[key]
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
    result = QuasiKOnModule(module, i, op, mode, twist, _residual_zero(op.mat, pairs))
    if not result.residual_ok:
        raise IntertwinerError(f"intertwining residual is nonzero at node {i}")
    cache[key] = result
    return result


def verify_intertwining(qk: QuasiKOnModule, param: Parameter) -> bool:
    """Exact check of the defining system satisfied by the stored operator."""
    pairs = _rank_one_generators(qk.node, param, qk.module)
    return _residual_zero(qk.operator.mat, pairs)


def _unipotent_inverse(op: Operator) -> Operator:
    """Inverse of I + N with N nilpotent: the finite Neumann series of (-N)^k."""
    module = op.module
    ident = linalg.identity(module.dim, module.field)
    neg = linalg.mat_sub(ident, op.mat)
    total = term = ident
    for _ in range(module.dim):
        term = linalg.mat_mul(term, neg)
        if linalg.is_zero_matrix(term):
            return Operator(module, total)
        total = linalg.mat_add(total, term)
    raise IntertwinerError("the intertwiner is not unipotent")


def wz_operator(i: int, param: Parameter, module: SimpleModule) -> Operator:
    """The relative braid operator on a module: intertwiner after rescaling.

    Its inverse comes with it, from the factors' own inverses: the
    intertwiner is unipotent and the rescaled braid operator carries its own.
    """
    cache = getattr(module, "_wz_cache", None)
    if cache is None:
        cache = module._wz_cache = {}
    key = (i, _param_key(param))
    if key not in cache:
        u = quasi_k(i, param, module).operator
        u.with_inverse(_unipotent_inverse(u))
        t = rescaled_T(i, param, module)
        cache[key] = (u @ t).with_inverse(t.inverse() @ u.inverse())
    return cache[key]


def wz_character_check(line: SphericalLine, i: int, param: Parameter,
                       gens: CoidealGenerators | None = None):
    """Does the inverse relative operator carry the line to a line of the same
    character?  Returns (bool, certificate)."""
    module = line.module
    gens = gens or coideal_generators(param, module)
    w = wz_operator(i, param, module).inverse().apply(line.vector)
    values = line_character_values(SphericalLine(module, w, line.character), gens)
    if values is None:
        return False, {"reason": "image is not a joint eigenvector", "node": i}
    expected = line_character_values(line, gens)
    for name, val in expected.items():
        if values[name] != val:
            return False, {"reason": "character value changed", "node": i,
                           "generator": name, "before": str(val),
                           "after": str(values[name])}
    return True, None


def wz_precompose(coeff, i: int, param: Parameter):
    """Precomposition of a matrix coefficient with the relative braid operator.

    The result is again a matrix coefficient on the same module: the dual
    vector moves by the transpose of the operator, the vector by its inverse.
    """
    module = coeff.module
    w = wz_operator(i, param, module)
    f_new = ModuleVector(module,
                         linalg.mat_vec(module.rho_twist_matrix(w.mat), coeff.f.coeffs))
    v_new = w.inverse().apply(coeff.v)
    return MatrixCoefficient(module, f_new, v_new)
