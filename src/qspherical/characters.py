"""One-dimensional submodules of the coideal subalgebra inside simple modules.

The candidate eigenvalues on nonsplit nodes come from the closed rank-one
formula with an integer label; all other coideal generators act by zero on
the white part, by the counit on the black part, and by a weight power on
the torus part.  The torus generators are diagonal, so their conditions
select a support, the basis vectors of the right torus weight, and each
candidate value system is solved exactly as a joint nullspace on it;
multiplicity one is enforced, never assumed.
"""

from __future__ import annotations

import itertools
import warnings
from fractions import Fraction

from . import linalg
from .modules import ModuleVector, SimpleModule, build_simple
from .qsp import CoidealGenerators, Parameter, coideal_generators
from .rootdata import SatakeDatum
from .scalars import Field, FieldElem


class MultiplicityViolation(Exception):
    """A value system admitted a solution space of dimension two or more."""


class NoDualLine(Exception):
    """The transposed system has no solution line; complete reducibility of
    the module over the coideal is in doubt."""


class Character:
    """A character of the coideal subalgebra hosted by some simple module."""

    def __init__(self, satake: SatakeDatum, lam, b_values: dict, labels: dict,
                 field: Field):
        self.satake = satake
        self.lam = tuple(lam)
        self.b_values = dict(b_values)
        self.labels = dict(labels)
        self.field = field
        self._torus = {h: self.torus_value(h)
                       for h in satake.theta_fixed_torus_generators()}

    def torus_value(self, h) -> FieldElem:
        """q^<h, lam>, the value of K_h."""
        return self.field.q_power(self.satake.datum.pair(h, self.lam))

    def generator_values(self, gens: CoidealGenerators) -> dict:
        """The value of each named generator of gens on a line of this
        character: its value at B_i, q^<h, lam> at K_h, and 0 at the black
        E_j and F_j, which annihilate a spherical vector."""
        zero = self.field.zero
        out = {f"B_{i}": v for i, v in sorted(self.b_values.items())}
        out.update({f"E_{j}": zero for j in sorted(gens.black_E)})
        out.update({f"F_{j}": zero for j in sorted(gens.black_F)})
        out.update({f"K_{h}": self.torus_value(h) for h, _ in gens.torus})
        return out

    def value_key(self) -> tuple:
        bs = tuple((i, self.b_values[i]) for i in sorted(self.b_values))
        ts = tuple(sorted(self._torus.items()))
        return (bs, ts)

    def __eq__(self, other):
        return (isinstance(other, Character)
                and self.value_key() == other.value_key())

    def __hash__(self):
        return hash(self.value_key())

    def is_trivial(self) -> bool:
        one = self.field.one
        return (all(not v for v in self.b_values.values())
                and all(v == one for v in self._torus.values()))

    def describe(self) -> dict:
        return {
            "lambda": list(self.lam),
            "l": {str(i + 1): l for i, l in sorted(self.labels.items())},
            "values": {f"B_{i + 1}": str(v) for i, v in sorted(self.b_values.items())},
            "torus": {str(list(h)): str(v) for h, v in sorted(self._torus.items())},
        }


class SphericalLine:
    """A one-dimensional coideal submodule, normalized at the highest weight."""

    def __init__(self, module: SimpleModule, vector: ModuleVector,
                 character: Character):
        self.module = module
        self.vector = vector
        self.character = character


def eigenvalue(c: FieldElem, s: FieldElem, d_i: int, l: int) -> FieldElem:
    """Closed rank-one eigenvalue with integer label l.

    (q_i^l - q_i^-l)/2 * sqrt(s^2 + 4 q_i c/(q_i - q_i^-1)^2)
    plus the s-part, which collapses to s (q_i^l + q_i^-l)/2.
    """
    root = _discriminant_root(c, s, d_i, c.field) if l else None
    return _label_value(root, s, d_i, l, c.field)


def _discriminant_root(c: FieldElem, s: FieldElem, d_i: int,
                       field: Field) -> FieldElem | None:
    """sqrt(s^2 + 4 q_i c/(q_i - q_i^-1)^2), or None outside Q(i)(v)."""
    qi = field.q_power(Fraction(d_i))
    disc = s * s + field.rational(4) * qi * c * ((qi - qi.inverse()) ** 2).inverse()
    return disc.field_sqrt()


def _label_value(root: FieldElem | None, s: FieldElem, d_i: int, l: int,
                 field: Field) -> FieldElem | None:
    """The eigenvalue of label l from the discriminant's root, or None when
    the label needs a root that does not exist."""
    if l == 0:
        return s       # the root enters with coefficient zero
    if root is None:
        return None
    qi = field.q_power(Fraction(d_i))
    half = field.rational(Fraction(1, 2))
    return ((qi ** l - qi ** (-l)) * half * root
            + s * (qi ** l + qi ** (-l)) * half)


def _candidate_values(param: Parameter, i: int, bound: int) -> list:
    """Distinct candidate eigenvalues at a nonsplit node, labels in [-bound, bound].

    The discriminant's root depends on the node only, so it is taken once.
    """
    c, s, d_i = param.c[i], param.s[i], param.satake.datum.d[i]
    root = _discriminant_root(c, s, d_i, c.field) if bound else None
    out = []
    seen = set()
    for l in range(-bound, bound + 1):
        val = _label_value(root, s, d_i, l, c.field)
        if val is None:
            warnings.warn(
                f"skipping label {l} at node {i}: the eigenvalue discriminant "
                f"has no square root in Q(i)(v)")
            continue
        if val not in seen:
            seen.add(val)
            out.append((val, l))
    out.sort(key=lambda t: (abs(t[1]), -t[1]))
    return out


def _eigen_rows(mat: list, value: FieldElem, support: list) -> list:
    """Rows of the condition X v = value v on the vectors supported on the
    given basis indices, restricted to those columns."""
    return [[row[k] - value if k == r else row[k] for k in support]
            for r, row in enumerate(mat)]


def _torus_support(module: SimpleModule, gens: CoidealGenerators, lam) -> list:
    """The basis indices on which every torus generator K_h of the coideal
    acts by its value q^<h, lam>: the weights mu with <h, mu> = <h, lam>.

    K_h is diagonal, so its eigenconditions are this support and nothing
    else; a dual line has the same support, since the contravariant form
    fixes K_h.
    """
    field, pair = module.field, module.datum.pair
    diagonals = [(module.k_diagonal(h), field.q_power(pair(h, lam)))
                 for h, _ in gens.torus]
    return [idx for idx in range(module.dim)
            if all(diag[idx] == value for diag, value in diagonals)]


def _black_rows(module: SimpleModule, gens: CoidealGenerators, support: list) -> list:
    """Rows of the black annihilation conditions E_j v = F_j v = 0 on the
    support.  A dual line satisfies the same rows: the contravariant form
    swaps E_j and F_j."""
    rows = []
    for j in sorted(gens.param.satake.black):
        for mat in (module.e_mats[j], module.f_mats[j]):
            rows.extend([row[k] for k in support] for row in mat)
    return rows


def _joint_kernel(module: SimpleModule, base_rows: list, white: dict,
                  values: dict, support: list) -> list:
    """The joint kernel on the support of the base rows and of the
    eigen-rows X_i - values[i] of each white operator X_i, each vector
    embedded back into the module with zeros off the support."""
    field = module.field
    rows = list(base_rows)
    for i in sorted(white):
        rows.extend(_eigen_rows(white[i].mat, values[i], support))
    rows = [row for row in rows if any(row)]
    out = []
    for vec in linalg.nullspace(rows, len(support), field):
        full = [field.zero] * module.dim
        for k, x in zip(support, vec):
            full[k] = x
        out.append(full)
    return out


def _screen(base_rows: list, white: dict, support: list) -> tuple | None:
    """The black rows and each white X_i on the support at the screen point
    mod p, X_i as the pairs (r, row r) of its rows that are nonzero or on
    the support; None when a denominator vanishes there."""
    base = linalg.screen_image(base_rows)
    images = [linalg.screen_image([[row[k] for k in support] for row in white[i].mat])
              for i in sorted(white)]
    if base is None or None in images:
        return None
    on_support = set(support)
    return base, [[(r, row) for r, row in enumerate(image) if r in on_support or any(row)]
                  for image in images]


def _screened_out(screen: tuple | None, values: dict, support: list) -> bool:
    """Whether a candidate value tuple certainly has no line: the screened
    rows, values[i] subtracted on X_i's diagonal, have full column rank mod
    p.  False when a denominator vanishes at the screen point."""
    value_images = linalg.screen_image([[values[i] for i in sorted(values)]])
    if screen is None or value_images is None:
        return False
    column = {r: k for k, r in enumerate(support)}
    rows = list(screen[0])
    for pairs, value in zip(screen[1], value_images[0]):
        for r, row in pairs:
            if r in column:
                row = list(row)
                row[column[r]] -= value
            rows.append(row)
    return linalg.modular_rank(rows, len(support)) == len(support)


def find_spherical_lines(module: SimpleModule, gens: CoidealGenerators,
                         param: Parameter) -> list:
    """All one-dimensional coideal submodules of the module.

    The torus eigenconditions select the support, the basis vectors whose
    weight carries the torus character of lam.  On it, stacks the black
    annihilation conditions and the white eigenconditions for each
    candidate value tuple, and keeps the one-dimensional joint kernels.
    A candidate whose system has full rank at the screen point
    (`_screened_out`) has no line and is skipped before any exact work.
    """
    satake = param.satake
    field = module.field
    lam = module.lam
    datum = satake.datum
    w0lam = datum.act_word_X(datum.w0_word(), lam)
    support = _torus_support(module, gens, lam)
    base_rows = _black_rows(module, gens, support)
    node_candidates = []
    nodes = sorted(satake.I_circ)
    for i in nodes:
        if i in satake.I_ns:
            bound = int(lam[i] - w0lam[i])
            node_candidates.append(_candidate_values(param, i, bound))
        else:
            node_candidates.append([(field.zero, None)])
    screen = _screen(base_rows, gens.B, support)
    lines = []
    for combo in itertools.product(*node_candidates):
        values = {i: v for i, (v, _) in zip(nodes, combo)}
        if _screened_out(screen, values, support):
            continue
        kernel = _joint_kernel(module, base_rows, gens.B, values, support)
        if not kernel:
            continue
        if len(kernel) > 1:
            raise MultiplicityViolation(
                f"value system {values} on L{lam} has multiplicity {len(kernel)}")
        vec = ModuleVector(module, kernel[0])
        if not vec.coeffs[module.highest_index]:
            raise MultiplicityViolation(
                f"solution on L{lam} misses the highest weight line")
        vec = vec.normalized_at(module.highest_index)
        labels = {i: l for i, (_, l) in zip(nodes, combo) if l is not None}
        chi = Character(satake, lam, values, labels, field)
        lines.append(SphericalLine(module, vec, chi))
    return lines


def dual_spherical_vector(module: SimpleModule, gens: CoidealGenerators,
                          b_values: dict, lam) -> ModuleVector:
    """The line in the transposed realization of the dual with given values.

    Right action through the adjoint rho for the contravariant form: the
    conditions are rho(E_j) f = F_j f = 0, rho(F_j) f = E_j f = 0,
    K_h f = q^<h,lam> f (the torus support) and rho(B_i) f = value f, the
    same system as a spherical line's with rho(B_i) in place of B_i.
    """
    support = _torus_support(module, gens, lam)
    kernel = _joint_kernel(module, _black_rows(module, gens, support),
                           gens.rho_B, b_values, support)
    if not kernel:
        raise NoDualLine(f"no dual line with values {b_values} on L{tuple(lam)}")
    if len(kernel) > 1:
        raise MultiplicityViolation(
            f"dual value system {b_values} on L{tuple(lam)} has multiplicity {len(kernel)}")
    return ModuleVector(module, kernel[0])


def find_dual_spherical(line: SphericalLine, gens: CoidealGenerators) -> ModuleVector:
    """The dual spherical vector of the same type, paired to one against the line."""
    f = dual_spherical_vector(line.module, gens, line.character.b_values,
                              line.module.lam)
    pairing = line.module.shapovalov(f, line.vector)
    if not pairing:
        raise NoDualLine("dual line pairs to zero with the spherical vector")
    return f.scale(pairing.inverse())


def akin_character(chi: Character, param: Parameter) -> Character:
    """The character of the shifted coideal agreeing with chi on the torus and
    black part and vanishing on the shifted white generators."""
    satake = param.satake
    zeros = {i: chi.field.zero for i in satake.I_circ}
    return Character(satake, chi.lam, zeros, {}, chi.field)


class ScanReport:
    def __init__(self, satake, entries, characters):
        self.satake = satake
        self.entries = entries          # list of (lam, [Character, ...])
        self.characters = characters    # distinct characters across the scan

    def nontrivial(self) -> list:
        return [c for c in self.characters if not c.is_trivial()]

    def describe(self) -> dict:
        return {
            "per_weight": [{"lambda": list(lam),
                            "characters": [c.describe() for c in chars]}
                           for lam, chars in self.entries],
            "distinct": len(self.characters),
            "distinct_nontrivial": len(self.nontrivial()),
        }


def hermitian_scan(satake: SatakeDatum, param: Parameter, field: Field,
                   weights=None, bound: int | None = None,
                   dim_cap: int = 2000) -> ScanReport:
    """Collect the distinct characters found in a family of simple modules.

    Either an explicit list of dominant weights or a coordinate box bound
    must be given.
    """
    datum = satake.datum
    if weights is None:
        if bound is None:
            raise ValueError("hermitian_scan needs weights or a bound")
        ranges = [range(bound + 1)] * datum.n
        weights = [w for w in itertools.product(*ranges)]
        weights.sort(key=lambda w: (sum(w), w))
    entries = []
    found = []
    for lam in weights:
        module = build_simple(datum, lam, field, dim_cap=dim_cap)
        gens = coideal_generators(param, module)
        lines = find_spherical_lines(module, gens, param)
        chars = [line.character for line in lines]
        entries.append((tuple(lam), chars))
        for c in chars:
            if c not in found:
                found.append(c)
    return ScanReport(satake, entries, found)


def line_character_values(line: SphericalLine, gens: CoidealGenerators) -> dict | None:
    """Recompute the named generator values on a vector, or None if not a line."""
    out = {}
    v = line if isinstance(line, ModuleVector) else line.vector
    for name, op in gens.all_named():
        image = op.apply(v)
        lead = next((k for k, c in enumerate(v.coeffs) if c), None)
        if lead is None:
            return None
        scal = image.coeffs[lead] / v.coeffs[lead]
        if not v.scale(scal) == image:
            return None
        out[name] = scal
    return out
