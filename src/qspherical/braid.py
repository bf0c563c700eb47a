"""Braid group operators on weight modules.

The rank-one operators are evaluated by the divided-power triple sum on each
weight vector; composites follow reduced words.  Conjugation by a composite
realizes the corresponding algebra automorphism on any operator matrix.
Diagonal twists rescale the Chevalley generators and implement the rescaled
operators attached to a parameter.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction

from . import linalg
from .modules import (ModuleVector, SimpleModule, WeightModule, _divided_powers,
                      act_matrix)
from .scalars import UnrepresentableScalar


class OperatorError(Exception):
    pass


class Operator:
    """A linear operator on a weight module, with exact matrix."""

    __slots__ = ("module", "mat", "_inv")

    def __init__(self, module: WeightModule, mat):
        self.module = module
        self.mat = mat
        self._inv = None

    @classmethod
    def identity(cls, module: WeightModule) -> "Operator":
        ident = cls(module, linalg.identity(module.dim, module.field))
        return ident.with_inverse(ident)

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check(other)
        return Operator(self.module, linalg.mat_mul(self.mat, other.mat))

    def _check(self, other):
        if other.module is not self.module:
            raise OperatorError("operators act on different modules")

    def inverse(self) -> "Operator":
        if not isinstance(self._inv, Operator):
            build = self._inv or (lambda: Operator(self.module, linalg.invert(self.mat)))
            self.with_inverse(build())
        return self._inv

    def with_inverse(self, inv) -> "Operator":
        """Record a known inverse (built from structure, not by elimination),
        or a function of no arguments that builds it when first asked for."""
        if isinstance(inv, Operator):
            self._check(inv)
            self._inv, inv._inv = inv, self
        else:
            self._inv = inv
        return self

    def apply(self, v: ModuleVector) -> ModuleVector:
        if v.module is not self.module:
            raise OperatorError("vector lives on a different module")
        return act_matrix(self.mat, v)

    def conj(self, x) -> "Operator":
        """The automorphism realized by this operator: x -> T x T^-1."""
        xm = x.mat if isinstance(x, Operator) else x
        return Operator(self.module,
                        linalg.mat_mul(self.mat,
                                       linalg.mat_mul(xm, self.inverse().mat)))

    def bar_conjugate(self) -> "Operator":
        """The operator bar . self . bar, entrywise bar in a bar-fixed basis."""
        return Operator(self.module, linalg.bar_matrix(self.mat))

    def __eq__(self, other):
        return (isinstance(other, Operator) and other.module is self.module
                and linalg.mat_eq(self.mat, other.mat))

    def is_identity(self) -> bool:
        return linalg.mat_eq(self.mat, linalg.identity(self.module.dim,
                                                       self.module.field))

    def weight_shifts(self) -> set:
        """Root-lattice shifts connecting nonzero blocks, for bookkeeping."""
        out = set()
        w = self.module.weights
        datum = self.module.datum
        for r in range(self.module.dim):
            for c in range(self.module.dim):
                if self.mat[r][c]:
                    diff = tuple(a - b for a, b in zip(w[r], w[c]))
                    out.add(tuple(datum.X_to_root(diff)))
        return out


def lusztig_T(i: int, e: int, kind: str, module: WeightModule) -> Operator:
    """Rank-one braid operator, 'prime' or 'doubleprime', sign e = +-1.

    On a weight vector of pairing value p with the coroot, the sum runs over
    triples (a, b, c) with a - b + c = p for the prime kind (lowering words
    outside) and a - b + c = -p for the double-prime kind (raising words
    outside); each term carries (-1)^b q_i^(e(b - ac)).  The divided powers
    are applied through the nonzero entries of their columns.
    """
    if e not in (1, -1):
        raise OperatorError("sign must be +1 or -1")
    if kind not in ("prime", "doubleprime"):
        raise OperatorError(f"unknown kind {kind!r}")
    field = module.field
    datum = module.datum
    dim = module.dim
    fpow = [linalg.nonzero_columns(m) for m in _divided_powers(module, "F", i)]
    epow = [linalg.nonzero_columns(m) for m in _divided_powers(module, "E", i)]
    out = linalg.zeros(dim, dim, field)
    outer, inner = (fpow, epow) if kind == "prime" else (epow, fpow)
    for col in range(dim):
        p = int(module.weights[col][i])
        target = p if kind == "prime" else -p
        for c in range(len(outer)):
            first = dict(outer[c][col])
            if not first:
                continue
            for b in range(len(inner)):
                a = target + b - c
                if a < 0 or a >= len(outer):
                    continue
                second = _apply_columns(inner[b], first)
                if not second:
                    continue
                third = _apply_columns(outer[a], second)
                if not third:
                    continue
                scal = field.q_power(Fraction(e * (b - a * c) * datum.d[i]))
                if b % 2:
                    scal = -scal
                for r, x in third.items():
                    out[r][col] = out[r][col] + scal * x
    return Operator(module, out)


def _apply_columns(cols: list, vec: dict) -> dict:
    """The product of a matrix, given by its nonzero columns, with a sparse
    vector {index: value}; only the nonzero entries are kept."""
    out = {}
    for k, y in vec.items():
        for r, x in cols[k]:
            out[r] = out[r] + x * y if r in out else x * y
    return {r: x for r, x in out.items() if x}


def lusztig_T_word(word, e: int, kind: str, module: WeightModule) -> Operator:
    """Composite braid operator along a reduced word, leftmost factor first,
    with its inverse attached: T'_{i,e} and T''_{i,-e} are mutually inverse
    (Lusztig 37.1.2), so the inverse is the composite of the other kind with
    sign -e along the reversed word, built when first asked for."""
    if not word:
        return Operator.identity(module)
    other = "doubleprime" if kind == "prime" else "prime"
    return _composite(word, e, kind, module).with_inverse(
        lambda: _composite(word[::-1], -e, other, module))


def _composite(word, e: int, kind: str, module: WeightModule) -> Operator:
    """The product along the word; one rank-one operator per distinct letter."""
    factors = {i: lusztig_T(i, e, kind, module) for i in dict.fromkeys(word)}
    return functools.reduce(operator.matmul, (factors[i] for i in word))


def phi_diag(a: dict, module: SimpleModule) -> Operator:
    """Diagonal twist v_mu -> prod_i a_i^(t_i/2) v_mu where lam - mu = sum t_i alpha_i.

    Its inverse W realizes the rescaling twist: W X W^-1 sends E_i to
    a_i^(1/2) E_i and F_i to a_i^(-1/2) F_i, and fixes K.  Needs every square
    root a_i^(1/2) to exist as a monomial.
    """
    if not isinstance(module, SimpleModule):
        raise OperatorError("diagonal twists need a designated highest weight")
    field = module.field
    roots = _monomial_roots(a, field)
    diag = [functools.reduce(operator.mul, (root ** t[i] for i, root in roots.items()),
                             field.one) for t in module.deficits]
    return Operator(module, linalg.diagonal(diag, field)).with_inverse(
        Operator(module, linalg.diagonal([x.inverse() for x in diag], field)))


def _monomial_roots(a: dict, field) -> dict:
    """{i: a_i^(1/2)}, each square root a monomial; raises
    UnrepresentableScalar when one is not."""
    roots = {}
    for i, val in a.items():
        val = field.coerce(val)
        roots[i] = val.monomial_sqrt()
        if roots[i] is None:
            raise UnrepresentableScalar(f"square root of {val} is unavailable")
    return roots


def rescaled_T(i: int, param, module: SimpleModule) -> Operator:
    """Rescaled braid operator attached to a balanced parameter: the twist by
    bar(c_distinguished) * c applied to the composite operator of the relative
    reflection."""
    from .qsp import distinguished_parameter
    satake = param.satake
    if not param.is_balanced():
        raise OperatorError("rescaled operators need a balanced parameter")
    cdist = distinguished_parameter(satake, module.field)
    a = {}
    for j in satake.I_circ:
        a[j] = cdist.c[j].bar() * param.c[j]
    word = satake.relative_generator(i)
    t = lusztig_T_word(word, -1, "prime", module)
    w = phi_diag(a, module).inverse()
    return w.conj(t).with_inverse(w.conj(t.inverse()))
