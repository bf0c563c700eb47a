"""Exact dense linear algebra over the coefficient field.

Matrices are lists of lists of FieldElem.  Pivoting is always by input order
(first nonzero), never by magnitude, so every result is deterministic.  The
kernel computation clears denominators row by row and eliminates fraction-free
over the polynomial ring, which keeps coefficient growth determinant-sized
instead of letting rational-function gcds blow up.
"""

from __future__ import annotations

from .scalars import Field, FieldElem
from .scalars import _pmul, _psub_poly, _QI_ONE


def zeros(rows: int, cols: int, field: Field) -> list:
    z = field.zero
    return [[z] * cols for _ in range(rows)]


def identity(n: int, field: Field) -> list:
    out = zeros(n, n, field)
    for k in range(n):
        out[k][k] = field.one
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
    out = [field.zero] * len(a)
    for r, row in enumerate(a):
        acc = field.zero
        for k, x in enumerate(row):
            if x and v[k]:
                acc = acc + x * v[k]
        out[r] = acc
    return out


def mat_add(a: list, b: list) -> list:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: list, b: list) -> list:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: list, s: FieldElem) -> list:
    return [[x * s for x in row] for row in a]


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
    """Gauss-Jordan inverse; raises ValueError when singular."""
    n = len(a)
    field = a[0][0].field
    work = [list(row) + list(idrow) for row, idrow in zip(a, identity(n, field))]
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        work[col], work[piv] = work[piv], work[col]
        inv = work[col][col].inverse()
        work[col] = [x * inv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def _echelonize(rows: list, ncols: int) -> list:
    """In-place row echelon; returns the pivot column of each surviving row."""
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((k for k in range(r, len(rows)) if rows[k][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][col]:
                f = rows[k][col]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        pivots.append(col)
        r += 1
    return pivots


def _clear_denominators(row) -> list:
    """Scale a FieldElem row into polynomial entries (a common row multiple),
    then strip the common monomial and integer content of the row."""
    dens = []
    for x in row:
        if x.num and x.den != (_QI_ONE,) and x.den not in dens:
            dens.append(x.den)
    out = []
    for x in row:
        if not x.num:
            out.append(())
            continue
        poly = x.num
        for d in dens:
            if d != x.den:
                poly = _pmul(poly, d)
        out.append(poly)
    shift = None
    for poly in out:
        if poly:
            val = next(k for k, c in enumerate(poly) if c)
            shift = val if shift is None else min(shift, val)
    if shift:
        out = [poly[shift:] if poly else () for poly in out]
    content = 0
    all_int = True
    for poly in out:
        for c in poly:
            for part in (c.re, c.im):
                if part:
                    if type(part) is not int:
                        all_int = False
                        break
                    content = _int_gcd(content, abs(part))
            if not all_int or content == 1:
                break
        if not all_int or content == 1:
            break
    if all_int and content > 1:
        from .scalars import QI
        out = [tuple(QI(c.re // content, c.im // content) for c in poly)
               if poly else () for poly in out]
    return out


def _int_gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _strip_row_content(row) -> list:
    """Divide a polynomial row by its common v-power and integer content."""
    shift = None
    for poly in row:
        if poly:
            val = next(k for k, c in enumerate(poly) if c)
            shift = val if shift is None else min(shift, val)
            if shift == 0:
                break
    if shift:
        row = [poly[shift:] if poly else () for poly in row]
    content = 0
    all_int = True
    for poly in row:
        for c in poly:
            for part in (c.re, c.im):
                if part:
                    if type(part) is not int:
                        all_int = False
                        break
                    content = _int_gcd(content, abs(part))
            if not all_int or content == 1:
                break
        if not all_int or content == 1:
            break
    if all_int and content > 1:
        from .scalars import QI
        row = [tuple(QI(c.re // content, c.im // content) for c in poly)
               if poly else () for poly in row]
    return list(row)


_SCREEN_PRIME = 1000000009


def _imaginary_unit_mod():
    p = _SCREEN_PRIME
    for g in range(2, 50):
        s = pow(g, (p - 1) // 4, p)
        if s * s % p == p - 1:
            return s
    return None


_SCREEN_ROOT = _imaginary_unit_mod()


def _modular_rank(rows, ncols: int) -> int | None:
    """Rank of the polynomial rows at a fixed modular evaluation point, or
    None if the point degenerates.  A full modular rank certifies full rank."""
    p = _SCREEN_PRIME
    s = _SCREEN_ROOT
    if s is None:
        return None
    t = 987654323 % p
    work = []
    for row in rows:
        mrow = []
        for poly in row:
            acc = 0
            power = 1
            for c in poly:
                re, im = c.re, c.im
                if type(re) is not int or type(im) is not int:
                    return None
                acc = (acc + (re + im * s) * power) % p
                power = power * t % p
            mrow.append(acc)
        work.append(mrow)
    rank_count = 0
    r = 0
    for col in range(ncols):
        piv = next((k for k in range(r, len(work)) if work[k][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = pow(work[r][col], p - 2, p)
        work[r] = [x * inv % p for x in work[r]]
        for k in range(len(work)):
            if k != r and work[k][col]:
                f = work[k][col]
                work[k] = [(x - f * y) % p for x, y in zip(work[k], work[r])]
        rank_count += 1
        r += 1
    return rank_count


def nullspace(a: list, ncols: int, field: Field) -> list:
    """Deterministic basis of the right kernel, free variables set to one.

    Rows are cleared to polynomial entries; elimination is by exact cross
    multiplication touching only rows with a nonzero pivot-column entry, with
    row content stripped after every update.  A modular evaluation certifies
    full-rank systems early, so empty kernels cost almost nothing.
    """
    rows = [_clear_denominators(row) for row in a]
    rows = [row for row in rows if any(row)]
    if not rows:
        return [[field.one if t == k else field.zero for t in range(ncols)]
                for k in range(ncols)]
    mrank = _modular_rank(rows, ncols)
    if mrank == ncols:
        return []
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((k for k in range(r, len(rows)) if rows[k][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pivot_val = rows[r][col]
        for k in range(r + 1, len(rows)):
            rk_col = rows[k][col]
            if not rk_col:
                continue
            newrow = []
            for j in range(ncols):
                term = _pmul(pivot_val, rows[k][j]) if rows[k][j] else ()
                if rows[r][j]:
                    term = _psub_poly(term, _pmul(rk_col, rows[r][j]))
                newrow.append(term)
            rows[k] = _strip_row_content(newrow)
        pivots.append(col)
        r += 1
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [field.zero] * ncols
        vec[free] = field.one
        for k in range(len(pivots) - 1, -1, -1):
            pc = pivots[k]
            acc = field.zero
            row = rows[k]
            for j in range(pc + 1, ncols):
                if row[j] and vec[j]:
                    acc = acc + FieldElem(field, row[j], (_QI_ONE,)) * vec[j]
            if acc:
                vec[pc] = -acc / FieldElem(field, row[pc], (_QI_ONE,))
        basis.append(vec)
    return basis


def solve(a: list, rhs: list, field: Field) -> list | None:
    """One solution of A x = rhs, or None when inconsistent.

    The system may be overdetermined; free variables are set to zero.
    """
    if not a:
        return []
    ncols = len(a[0])
    rows = [list(row) + [b] for row, b in zip(a, rhs)]
    pivots = _echelonize(rows, ncols)
    for r in range(len(pivots), len(rows)):
        if rows[r][ncols]:
            return None
    x = [field.zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][ncols]
    return x


def symmetric_nondegenerate_subset(g: list) -> list:
    """Indices of a maximal principal submatrix of a symmetric matrix that is
    nonsingular, chosen deterministically by input order.

    Elimination uses 1x1 pivots when a nonzero diagonal Schur entry exists and
    falls back to symmetric 2x2 pivots otherwise, so zero diagonals cannot
    hide rank.
    """
    n = len(g)
    if n == 0:
        return []
    field = g[0][0].field
    work = [list(row) for row in g]
    remaining = list(range(n))
    selected = []
    while remaining:
        k = next((r for r in remaining if work[r][r]), None)
        if k is not None:
            selected.append(k)
            inv = work[k][k].inverse()
            remaining.remove(k)
            for r in remaining:
                if not work[r][k]:
                    continue
                f = work[r][k] * inv
                for c in remaining:
                    work[r][c] = work[r][c] - f * work[k][c]
            for r in remaining:
                work[r][k] = field.zero
                work[k][r] = field.zero
            continue
        pair = None
        for a_idx in range(len(remaining)):
            for b_idx in range(a_idx + 1, len(remaining)):
                if work[remaining[a_idx]][remaining[b_idx]]:
                    pair = (remaining[a_idx], remaining[b_idx])
                    break
            if pair:
                break
        if pair is None:
            break
        k, l = pair
        selected.extend([k, l])
        w = work[k][l]
        winv = w.inverse()
        remaining.remove(k)
        remaining.remove(l)
        for r in remaining:
            rk, rl = work[r][k], work[r][l]
            if not rk and not rl:
                continue
            for c in remaining:
                # inverse of [[0, w], [w, 0]] is [[0, 1/w], [1/w, 0]]
                work[r][c] = work[r][c] - winv * (rk * work[l][c] + rl * work[k][c])
        for r in remaining:
            work[r][k] = work[r][l] = field.zero
            work[k][r] = work[l][r] = field.zero
    return sorted(selected)


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
