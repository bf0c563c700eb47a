"""Exact dense linear algebra over the coefficient field.

Matrices are lists of lists of FieldElem.  Pivoting is always by input order
(first nonzero), never by magnitude, so every result is deterministic.  A
sparse matrix is given by its nonzero columns (`nonzero_columns`), and
`apply_columns`, its product with a sparse vector, is the one sparse
product: the braid triple sum and the quasi-K raising words use it.

There is one elimination kernel, `_echelonize`.  Each row is first cleared
of denominators to polynomials over Z[v], or over the Gaussian integers
Z[i][v] when some entry of the matrix is not real, then rows are eliminated
fraction-free by cross multiplication, with the content stripped after every
update; coefficient growth stays determinant-sized instead of letting
rational-function gcds blow up.

`column_relations` answers every exact linear question over Q(i)(v), and is
the only caller of `_integer_rows`, `_echelonize` and `_kernel_vector`: it
reads the relation of each non-pivot column off the echelon rows by back
substitution.  The kernel basis (`nullspace`, which finds spherical and
dual lines on their torus supports), a Gram block's pivot columns, the
quasi-K raising words (one degree at a time) and each degree block of the
intertwiner, `solve` and `invert` all come from it: column j of the answer
to A X = B is the relation of column n + j of [A | -B].  Exact elimination
alone decides them all.  The modular evaluation screen (i sent to a square
root of -1 mod p) serves only the spherical-line candidate scan: its
evaluation (`screen_image`, over `_at_screen`) and its one elimination
(`modular_rank`) are separate, so candidates are screened on images
evaluated once; it certifies full rank and never decides.  Over Q,
`integer_kernel_basis` is the one kernel.
"""

from __future__ import annotations

import math

from .scalars import Field, FieldElem
from .scalars import _SCREEN_PRIME, _Z, _ZI, _pairs, _val

# p = 1 mod 4 and 11 is not a square mod p, so 11^((p-1)/4) is a square root
# of -1 and i -> _SCREEN_ROOT is a ring map Z[i] -> GF(p)
_SCREEN_ROOT = pow(11, (_SCREEN_PRIME - 1) // 4, _SCREEN_PRIME)
# v is sent to this point mod p
_SCREEN_POINT = 987654323 % _SCREEN_PRIME


def zeros(rows: int, cols: int, field: Field) -> list:
    z = field.zero
    return [[z] * cols for _ in range(rows)]


def identity(n: int, field: Field) -> list:
    return diagonal([field.one] * n, field)


def diagonal(entries: list, field: Field) -> list:
    """The dense square matrix with the given diagonal."""
    out = zeros(len(entries), len(entries), field)
    for k, x in enumerate(entries):
        out[k][k] = x
    return out


def mat_mul(a: list, b: list) -> list:
    n, m, p = len(a), len(b), len(b[0]) if b else 0
    field = a[0][0].field if a and a[0] else b[0][0].field
    out = zeros(n, p, field)
    for r in range(n):
        ar = a[r]
        orow = out[r]
        for k in range(m):
            x = ar[k]
            if not x:
                continue
            brow = b[k]
            for c in range(p):
                y = brow[c]
                if y:
                    orow[c] = orow[c] + x * y
    return out


def mat_vec(a: list, v: list) -> list:
    field = a[0][0].field if a and a[0] else v[0].field
    nz = [(k, y) for k, y in enumerate(v) if y]
    out = [field.zero] * len(a)
    for r, row in enumerate(a):
        acc = field.zero
        for k, y in nz:
            x = row[k]
            if x:
                acc = acc + x * y
        out[r] = acc
    return out


def nonzero_columns(a: list) -> list:
    """For each column of a square matrix, its nonzero entries as (row, value)."""
    out = [[] for _ in a]
    for r, row in enumerate(a):
        for c, x in enumerate(row):
            if x:
                out[c].append((r, x))
    return out


def apply_columns(cols: list, vec: dict) -> dict:
    """The product of a matrix, given by its nonzero columns, with a sparse
    vector {index: value}; only the nonzero entries are kept."""
    out = {}
    for k, y in vec.items():
        for r, x in cols[k]:
            out[r] = out[r] + x * y if r in out else x * y
    return {r: x for r, x in out.items() if x}


def mat_add(a: list, b: list) -> list:
    """a + b, adding only where both entries are nonzero."""
    return [[x + y if x and y else x or y for x, y in zip(ra, rb)]
            for ra, rb in zip(a, b)]


def mat_sub(a: list, b: list) -> list:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: list, s: FieldElem) -> list:
    """s a, multiplying only the nonzero entries."""
    return [[x * s if x else x for x in row] for row in a]


def scale_rows(diag: list, a: list) -> list:
    """D a for the diagonal matrix D with the given diagonal: row r of a
    times diag[r], nonzero entries only."""
    return [[d * x if x else x for x in row] for d, row in zip(diag, a)]


def scale_columns(a: list, diag: list) -> list:
    """a D for the diagonal matrix D with the given diagonal: column c of a
    times diag[c], nonzero entries only."""
    return [[x * d if x else x for x, d in zip(row, diag)] for row in a]


def transpose(a: list) -> list:
    return [list(col) for col in zip(*a)] if a else []


def mat_eq(a: list, b: list) -> bool:
    if len(a) != len(b):
        return False
    return all(ra == rb for ra, rb in zip(a, b))


def is_zero_matrix(a: list) -> bool:
    return all(not x for row in a for x in row)


def bar_matrix(a: list) -> list:
    return [[x.bar() for x in row] for row in a]


def invert(a: list) -> list:
    """Inverse of a square matrix; raises ValueError when singular."""
    n = len(a)
    cols = _solve_columns(a, identity(n, a[0][0].field))
    if cols is None:
        raise ValueError("matrix is singular")
    return transpose(cols)


def solve(a: list, rhs: list) -> list | None:
    """The solution of A x = rhs, or None when the system is inconsistent.

    The system may be overdetermined; raises ValueError when the solution is
    not unique.
    """
    if not a:
        return []
    cols = _solve_columns(a, [[b] for b in rhs])
    return None if cols is None else cols[0]


def _solve_columns(a: list, b: list) -> list | None:
    """Columns of the unique X with A X = B, or None when inconsistent.

    Column j of X is read off the relation of column n + j of [A | -B]: a
    right-hand column with no relation means inconsistency, a relation of a
    column of A means the solution is not unique.
    """
    n = len(a[0])
    ncols = n + len(b[0])
    relations = column_relations([list(ra) + [-x for x in rb] for ra, rb in zip(a, b)],
                                 ncols, a[0][0].field)
    if any(col not in relations for col in range(n, ncols)):
        return None
    if len(relations) > ncols - n:
        raise ValueError("the solution is not unique")
    return [relations[col][:n] for col in range(n, ncols)]


def column_relations(a: list, ncols: int, field: Field) -> dict:
    """Each column of A that depends on the columns before it, mapped to its
    relation: the kernel vector that is one at that column and zero at every
    other dependent column.

    The other columns are the pivot columns in input order, the greedy basis
    of the column space, found by exact elimination alone.
    """
    rows, ring = _integer_rows(a)
    pivots = _echelonize(rows, ncols, ring)
    pivot_set = set(pivots)
    return {free: _kernel_vector(rows, pivots, free, ncols, field, ring)
            for free in range(ncols) if free not in pivot_set}


def nullspace(a: list, ncols: int, field: Field) -> list:
    """Deterministic basis of the right kernel, free variables set to one."""
    return list(column_relations(a, ncols, field).values())


def _echelonize(rows: list, ncols: int, ring) -> list:
    """Fraction-free forward elimination of polynomial rows, in place.

    Pivots are the first nonzero entries in input order.  Each row below a
    pivot with a nonzero entry in its column is replaced by the cross
    multiple pivot * row - entry * pivot_row and stripped of its content,
    except below the last column's pivot, which no pivot can follow (back
    substitution reads only the pivot rows).  Returns the pivot columns.
    """
    pmul, padd, pneg = ring.pmul, ring.padd, ring.pneg
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((k for k in range(r, len(rows)) if rows[k][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        pivot_val = prow[col]
        for k in range(r + 1, len(rows) if col + 1 < ncols else 0):
            row = rows[k]
            rk_col = row[col]
            if not rk_col:
                continue
            newrow = []
            for j in range(ncols):
                term = pmul(pivot_val, row[j]) if row[j] else ()
                if prow[j]:
                    term = padd(term, pneg(pmul(rk_col, prow[j])))
                newrow.append(term)
            rows[k] = _strip_row_content(newrow, ring)
        pivots.append(col)
        r += 1
    return pivots


def _kernel_vector(rows: list, pivots: list, free: int, ncols: int,
                   field: Field, ring) -> list:
    """Back substitution through echelon rows: the kernel vector whose free
    column `free` is one and whose other free columns are zero."""
    one = (ring.one,)
    # a Z polynomial over 1 is already canonical; a Z[i] one may be real
    exact = ring is _Z
    vec = [field.zero] * ncols
    vec[free] = field.one
    for k in range(len(pivots) - 1, -1, -1):
        pc = pivots[k]
        acc = field.zero
        row = rows[k]
        for j in range(pc + 1, ncols):
            if row[j] and vec[j]:
                acc = acc + FieldElem(field, row[j], one, _normalized=exact) * vec[j]
        if acc:
            vec[pc] = -acc / FieldElem(field, row[pc], one, _normalized=exact)
    return vec


def _integer_rows(a: list) -> tuple:
    """The nonzero rows of a FieldElem matrix cleared of denominators, all
    over Z, or all over Z[i] when some entry is not real; and that ring."""
    ring = _ZI if any(type(x.den[0]) is tuple for row in a for x in row) else _Z
    rows = [_clear_denominators(row, ring) for row in a]
    return [row for row in rows if any(row)], ring


def _clear_denominators(row, ring) -> list:
    """Scale a FieldElem row to polynomials over the ring: each numerator
    times the other entries' denominators; then strip its content."""
    lift = _pairs if ring is _ZI else tuple
    one = (ring.one,)
    dens = []
    for x in row:
        den = lift(x.den)
        if x.num and den != one and den not in dens:
            dens.append(den)
    out = []
    for x in row:
        poly = lift(x.num)
        if poly:
            den = lift(x.den)
            for d in dens:
                if d != den:
                    poly = ring.pmul(poly, d)
        out.append(poly)
    return _strip_row_content(out, ring)


def _strip_row_content(row, ring) -> list:
    """Divide a polynomial row by its common v-power and integer content."""
    shift = min((_val(poly, ring.zero) for poly in row if poly), default=0)
    if shift:
        row = [poly[shift:] for poly in row]
    content = 0
    for poly in row:
        content = math.gcd(content, *(poly if ring is _Z else
                                      (x for c in poly for x in c)))
        if content == 1:
            return list(row)
    if content > 1:
        content = content if ring is _Z else (content, 0)
        row = [tuple(ring.quo(c, content) for c in poly) for poly in row]
    return list(row)


def _at_screen(poly) -> int:
    """A polynomial over Z or Z[i] (int or (re, im) coefficients) at the
    screen point mod p, with i sent to _SCREEN_ROOT."""
    acc = 0
    for c in reversed(poly):
        acc = (acc * _SCREEN_POINT + (c[0] + c[1] * _SCREEN_ROOT if type(c) is tuple
                                      else c)) % _SCREEN_PRIME
    return acc


def screen_image(a: list) -> list | None:
    """The entries of a FieldElem matrix at the screen point mod p, or None
    when a denominator vanishes there.  Evaluation is a ring map on the
    fractions whose denominators do not vanish, so a full `modular_rank` of
    the image certifies full column rank of the matrix."""
    p, out = _SCREEN_PRIME, []
    for row in a:
        dens = [_at_screen(x.den) if x else 1 for x in row]
        if not all(dens):
            return None
        out.append([_at_screen(x.num) * pow(d, -1, p) % p if x else 0
                    for x, d in zip(row, dens)])
    return out


def modular_rank(rows, ncols: int) -> int:
    """Rank of integer rows mod p, the number of pivots of a forward
    elimination by cross multiplication, as in `_echelonize`; the rows are
    read, never changed.  On the image of a matrix at the screen point
    (`_at_screen`, `screen_image`), a full modular rank certifies full rank;
    a lower one decides nothing."""
    p = _SCREEN_PRIME
    work = list(rows)
    r = 0
    for col in range(ncols):
        piv = next((k for k in range(r, len(work)) if work[k][col] % p), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        prow = work[r]
        a = prow[col]
        for k in range(r + 1, len(work)):
            f = work[k][col]
            if f % p:
                work[k] = [(a * x - f * y) % p for x, y in zip(work[k], prow)]
        r += 1
    return r


def kron(a: list, b: list, field: Field) -> list:
    na, nb = len(a), len(b)
    ma = len(a[0]) if a else 0
    mb = len(b[0]) if b else 0
    out = zeros(na * nb, ma * mb, field)
    for r1 in range(na):
        for c1 in range(ma):
            x = a[r1][c1]
            if not x:
                continue
            for r2 in range(nb):
                for c2 in range(mb):
                    y = b[r2][c2]
                    if y:
                        out[r1 * nb + r2][c1 * mb + c2] = x * y
    return out


def integer_kernel_basis(m: list) -> list:
    """Basis of the integer kernel of an integer matrix, in column HNF order.

    Column operations are unimodular, so the returned vectors generate the
    full lattice ker(m) over the integers.
    """
    if not m:
        return []
    rows, cols = len(m), len(m[0])
    work = [list(row) for row in m]
    trans = [[1 if r == c else 0 for c in range(cols)] for r in range(cols)]

    def col_swap(i, j):
        for r in range(rows):
            work[r][i], work[r][j] = work[r][j], work[r][i]
        for r in range(cols):
            trans[r][i], trans[r][j] = trans[r][j], trans[r][i]

    def col_addmul(i, j, f):
        # column i += f * column j
        for r in range(rows):
            work[r][i] += f * work[r][j]
        for r in range(cols):
            trans[r][i] += f * trans[r][j]

    pivot_col = 0
    for r in range(rows):
        while True:
            nz = [c for c in range(pivot_col, cols) if work[r][c]]
            if not nz:
                break
            c0 = min(nz, key=lambda c: abs(work[r][c]))
            col_swap(pivot_col, c0)
            if work[r][pivot_col] < 0:
                col_addmul(pivot_col, pivot_col, -2)
            done = True
            for c in range(pivot_col + 1, cols):
                if work[r][c]:
                    col_addmul(c, pivot_col, -(work[r][c] // work[r][pivot_col]))
                    if work[r][c]:
                        done = False
            if done:
                pivot_col += 1
                break
    kernel = []
    for c in range(cols):
        if all(not work[r][c] for r in range(rows)):
            vec = [trans[r][c] for r in range(cols)]
            lead = next((x for x in vec if x), 1)
            if lead < 0:
                vec = [-x for x in vec]
            kernel.append(tuple(vec))
    kernel.sort()
    return kernel
