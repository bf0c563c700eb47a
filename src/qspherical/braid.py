"""Braid group operators on weight modules.

The rank-one operators are evaluated by the divided-power triple sum on each
weight vector, once per module; composites follow reduced words and keep
their factors, so they act on a vector one factor at a time and form a dense
matrix only when it is read.  Conjugation by a composite realizes the
corresponding algebra automorphism on any operator matrix.  Diagonal twists
rescale the Chevalley generators and implement the rescaled operators
attached to a parameter; a diagonal scales rows or columns and is never
multiplied as a dense matrix.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction

from . import linalg
from .modules import ModuleVector, SimpleModule, WeightModule, _divided_powers
from .scalars import UnrepresentableScalar


class OperatorError(Exception):
    pass


class Operator:
    """A linear operator on a weight module, with exact matrix.

    The subclasses hold the structure of the braid operators instead: a
    `Diagonal` holds its diagonal and a `Chain` its factors.  They act on
    vectors and on matrices through that structure, and form `mat` on first
    read.
    """

    __slots__ = ("module", "_mat", "_inv")

    def __init__(self, module: WeightModule, mat):
        self.module = module
        self._mat = mat
        self._inv = None

    @property
    def mat(self) -> list:
        """The dense matrix, formed on first read and kept."""
        if self._mat is None:
            self._mat = self._dense()
        return self._mat

    def act(self, coeffs: list) -> list:
        """The image of a coefficient list."""
        return linalg.mat_vec(self.mat, coeffs)

    def times(self, mat: list) -> list:
        """The product of this operator with a matrix, on the left."""
        return linalg.mat_mul(self.mat, mat)

    @classmethod
    def identity(cls, module: WeightModule) -> "Operator":
        return Diagonal(module, [module.field.one] * module.dim)

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check(other)
        return Chain(self.module, [self, other])

    def _check(self, other):
        if other.module is not self.module:
            raise OperatorError("operators act on different modules")

    def inverse(self) -> "Operator":
        if not isinstance(self._inv, Operator):
            self.with_inverse((self._inv or self._structural_inverse)())
        return self._inv

    def _structural_inverse(self) -> "Operator":
        return Operator(self.module, linalg.invert(self.mat))

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
        return ModuleVector(self.module, self.act(v.coeffs))

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


class Diagonal(Operator):
    """A diagonal operator, held as its diagonal: it scales coefficients and
    the rows of a matrix, and is inverted entrywise."""

    __slots__ = ("diag",)

    def __init__(self, module: WeightModule, diag: list):
        super().__init__(module, None)
        self.diag = diag

    def _dense(self) -> list:
        return linalg.diagonal(self.diag, self.module.field)

    def act(self, coeffs: list) -> list:
        return [d * x if x else x for d, x in zip(self.diag, coeffs)]

    def times(self, mat: list) -> list:
        return linalg.scale_rows(self.diag, mat)

    def _structural_inverse(self) -> "Diagonal":
        return Diagonal(self.module, [d.inverse() for d in self.diag])


class Chain(Operator):
    """A product of operators, leftmost factor first.

    It acts factor by factor, right to left, and its inverse is the reversed
    chain of the factors' inverses.  The factors may be given by a function
    of no arguments, called when they are first needed.
    """

    __slots__ = ("_factors",)

    def __init__(self, module: WeightModule, factors):
        super().__init__(module, None)
        self._factors = factors

    @property
    def factors(self) -> list:
        if callable(self._factors):
            self._factors = self._factors()
        return self._factors

    def _dense(self) -> list:
        return _product(self.factors)

    def act(self, coeffs: list) -> list:
        for f in reversed(self.factors):
            coeffs = f.act(coeffs)
        return coeffs

    def times(self, mat: list) -> list:
        for f in reversed(self.factors):
            mat = f.times(mat)
        return mat

    def _structural_inverse(self) -> "Chain":
        return Chain(self.module,
                     lambda: [f.inverse() for f in reversed(self.factors)])


def _product(factors: list) -> list:
    """The dense product of the factors, leftmost first, folded from the
    right: a diagonal at the right end scales the columns of the rest, any
    other diagonal scales rows."""
    *rest, last = factors
    if not rest:
        return last.mat
    if isinstance(last, Diagonal):
        return linalg.scale_columns(_product(rest), last.diag)
    mat = last.mat
    for f in reversed(rest):
        mat = f.times(mat)
    return mat


def lusztig_T(i: int, e: int, kind: str, module: WeightModule) -> Operator:
    """Rank-one braid operator, 'prime' or 'doubleprime', sign e = +-1.

    On a weight vector of pairing value p with the coroot, the sum runs over
    triples (a, b, c) with a - b + c = p for the prime kind (lowering words
    outside) and a - b + c = -p for the double-prime kind (raising words
    outside); each term carries (-1)^b q_i^(e(b - ac)).  The divided powers
    are applied through the nonzero entries of their columns.  Built once per
    module, with T''_{i,-e} or T'_{i,-e} as its inverse (Lusztig 37.1.2).
    """
    if e not in (1, -1):
        raise OperatorError("sign must be +1 or -1")
    if kind not in ("prime", "doubleprime"):
        raise OperatorError(f"unknown kind {kind!r}")
    key = ("lusztig_T", i, e, kind)
    if key not in module.cache:
        other = "doubleprime" if kind == "prime" else "prime"
        op = Operator(module, _rank_one(i, e, kind, module))
        module.cache[key] = op.with_inverse(lambda: lusztig_T(i, -e, other, module))
    return module.cache[key]


def _rank_one(i: int, e: int, kind: str, module: WeightModule) -> list:
    """The matrix of the rank-one operator, column by column."""
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
                second = linalg.apply_columns(inner[b], first)
                if not second:
                    continue
                third = linalg.apply_columns(outer[a], second)
                if not third:
                    continue
                scal = field.q_power(Fraction(e * (b - a * c) * datum.d[i]))
                if b % 2:
                    scal = -scal
                for r, x in third.items():
                    out[r][col] = out[r][col] + scal * x
    return out


def lusztig_T_word(word, e: int, kind: str, module: WeightModule) -> Operator:
    """Composite braid operator along a reduced word, leftmost factor first,
    as the chain of its rank-one factors.  Its inverse, by the chain rule and
    T'_{i,e}^-1 = T''_{i,-e} (Lusztig 37.1.2), is the chain of the other kind
    with sign -e along the reversed word, built when it first acts."""
    if not word:
        return Operator.identity(module)
    factors = {i: lusztig_T(i, e, kind, module) for i in dict.fromkeys(word)}
    return Chain(module, [factors[i] for i in word])


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
    return Diagonal(module, diag)


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
    a_j = bar(c_distinguished,j) c_j = -q^delta_j c_j applied to the composite
    operator of the relative reflection, as the chain phi^-1 T'_w phi of the
    diagonal phi and the composite."""
    satake = param.satake
    if not param.is_balanced():
        raise OperatorError("rescaled operators need a balanced parameter")
    q_power = module.field.q_power
    a = {j: -q_power(satake.constants(j).delta) * param.c[j] for j in satake.I_circ}
    # T'_{w,-1} as the inverse of T''_{w^-1,+1}: the double-prime factors,
    # which the inverse applies, are built now, the prime ones on first use
    word = satake.relative_generator(i)
    t = lusztig_T_word(word[::-1], 1, "doubleprime", module).inverse()
    phi = phi_diag(a, module)
    return Chain(module, [phi.inverse(), t, phi])
