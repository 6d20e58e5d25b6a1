"""Exact dense linear algebra over ZZ, QQ and prime fields.

Everything here works on plain lists of lists holding ``int`` or
``fractions.Fraction`` entries (ints for the ``_modp`` variants).  One
pure-Python fraction-free elimination serves ZZ, QQ and F_p; the dense numpy
kernel ranks the Macaulay matrices.  No floating point anywhere.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import index

from .errors import StructuralError


def _dims(rows):
    m = len(rows)
    n = len(rows[0]) if m else 0
    if any(len(r) != n for r in rows):
        raise StructuralError("ragged matrix")
    return m, n


def _integer_rows(rows):
    """Each row scaled by the lcm of its denominators: an integer matrix with
    the same row space over QQ.  Entries must be ints or Fractions."""
    out = []
    for r in rows:
        den = lcm(*[x.denominator for x in r])
        out.append([index(x.numerator) * (den // x.denominator) for x in r])
    return out


def _clear(a, i, pr, col, p=None):
    """Replace row i by pr[col]*a[i] - a[i][col]*pr: reduced mod ``p`` when a
    modulus is given, else made primitive."""
    piv, f = pr[col], a[i][col]
    if p:
        a[i] = [(x * piv - f * y) % p for x, y in zip(a[i], pr)]
        return
    r = [x * piv - f * y for x, y in zip(a[i], pr)]
    g = gcd(*r)
    a[i] = [x // g for x in r] if g > 1 else r


def _echelon(rows, p=None):
    """Fraction-free forward elimination over ZZ, or over F_p when the prime
    ``p`` is given.

    Returns ``(a, pivots)``: the integer rows of ``rows`` (denominators
    cleared, or residues mod p) in row echelon form, row ``r`` leading in
    column ``pivots[r]``, then zero rows.  The pivot choice (first nonzero
    row at or below) is the one classical Gauss-Jordan elimination makes.
    """
    m, n = _dims(rows)
    a = [[x % p for x in r] for r in rows] if p else _integer_rows(rows)
    pivots = []
    for col in range(n):
        row = len(pivots)
        if row == m:
            break
        piv = next((i for i in range(row, m) if a[i][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        for i in range(row + 1, m):
            if a[i][col]:
                _clear(a, i, a[row], col, p)
        pivots.append(col)
    return a, pivots


def _reduce(a, pivots):
    """Clear the entries above each pivot of an echelon form, in place.

    Row r then is a nonzero multiple of row r of the reduced row echelon form.
    """
    for r in range(len(pivots) - 1, 0, -1):
        for i in range(r):
            if a[i][pivots[r]]:
                _clear(a, i, a[r], pivots[r])


def rank(rows):
    """Rank over the field of fractions, via fraction-free elimination."""
    return len(_echelon(rows)[1])


def rank_kernel(rows):
    """Rank over QQ and a basis of the right null space, in one elimination.

    The kernel vectors are primitive integer vectors (content 1) whose first
    nonzero entry is positive, one per free column in increasing order.
    """
    a, pivots = _echelon(rows)
    n = len(a[0]) if a else 0
    free = [j for j in range(n) if j not in pivots]
    if free:
        _reduce(a, pivots)
    basis = []
    for f in free:
        used = [(r, c) for r, c in enumerate(pivots) if a[r][f]]
        den = lcm(*[a[r][c] for r, c in used])
        v = [0] * n
        v[f] = den
        for r, c in used:
            v[c] = -a[r][f] * (den // a[r][c])
        basis.append(_primitive(v))
    return len(pivots), basis


def rank_is_one(rows) -> bool:
    """Whether the matrix has rank exactly 1, decided without elimination:
    some entry a[r][c] is nonzero, and every 2x2 minor through it vanishes,
    a[i][j] * a[r][c] == a[i][c] * a[r][j].  Those minors make each row i
    the multiple a[i][c] / a[r][c] of row r.  The test stops at the first
    minor that does not vanish."""
    _dims(rows)
    at = next(((row, c) for row in rows for c, x in enumerate(row) if x), None)
    if at is None:
        return False
    pivot_row, c = at
    piv = pivot_row[c]
    return all(x * piv == row[c] * y for row in rows for x, y in zip(row, pivot_row))


def rref_fraction(rows):
    """Reduced row echelon form over QQ. Returns (rref, pivot_columns)."""
    a, pivots = _echelon(rows)
    _reduce(a, pivots)
    rref = [[Fraction(x, a[r][c]) for x in a[r]] for r, c in enumerate(pivots)]
    rref.extend([Fraction(0)] * len(r) for r in a[len(pivots):])
    return rref, pivots


def kernel_basis(rows):
    """Basis of the right null space over QQ, as primitive integer vectors.

    Each basis vector is scaled to integer entries with content 1 and a
    positive leading (first nonzero) entry sign convention.
    """
    return rank_kernel(rows)[1]


def _primitive(ints):
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return ints


# ---------------------------------------------------------------------------
# prime-field versions


def rank_modp(rows, p):
    """Rank over F_p of an integer matrix, by the same elimination."""
    return len(_echelon(rows, p)[1])


def rank_modp_numpy(mat, p):
    """Rank mod p of an integer matrix (lists or a numpy int64 array),
    eliminating in numpy int64.

    Products of two residues fit int64 only for p below 2**31; larger primes
    go to :func:`rank_modp`.  Each pivot updates only the rows below it that
    are nonzero in its column, and in them only the columns from its own on:
    the columns to its left are already zero there.
    """
    if p >= 1 << 31:
        return rank_modp([[int(x) for x in r] for r in mat], p)
    import numpy as np

    a = np.array(mat, dtype=np.int64) % p
    m, n = a.shape
    row = 0
    for col in range(n):
        if row == m:
            break
        nz = np.flatnonzero(a[row:, col])
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            a[[row, piv], col:] = a[[piv, row], col:]
        # the rows to clear are the other nonzeros found: a row swapped out
        # of the pivot position was zero here, or it would be the pivot
        below = row + nz[1:]
        if below.size:
            pr = a[row, col:] * pow(int(a[row, col]), p - 2, p) % p
            a[below, col:] = (a[below, col:] - np.outer(a[below, col], pr)) % p
        row += 1
    return row
