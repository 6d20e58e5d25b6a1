"""Exact dense linear algebra over ZZ, QQ and prime fields.

Everything here works on plain lists of lists holding ``int`` or
``fractions.Fraction`` entries (ints for the ``_modp`` variants).  One
pure-Python fraction-free elimination serves ZZ, QQ and F_p.  The dense
numpy kernel ``rank_modp_numpy`` ranks integer evaluation matrices mod
p < 2**31: it eliminates a panel of columns at a time in int64 and applies
each panel to the rows below as float64 matrix products through BLAS, with
the residues split so that every sum is an integer below 2**53, which
float64 holds exactly.  Floats are never taken as input.
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


# Columns per panel of rank_modp_numpy, and the side of each tile of its
# update below the panel.  A panel of 64 keeps each inner product a sum of
# at most 64 terms below 2**47 (see _submul).  A 64 x 64 tile makes each
# float64 product 64 * 64 * 64 = 2**18 multiply-adds, a size that OpenBLAS
# runs on one thread: larger products wake its other threads, which spin
# between calls and cost CPU time beyond the wall time they save.
PANEL = 64


def rank_modp_numpy(mat, p):
    """Rank mod p of an integer matrix (lists, or a numpy array of integer
    or object dtype), eliminating in numpy one panel of ``PANEL`` columns
    at a time, with the updates right of the panel delayed (FFPACK-style
    blocking).

    Within a panel, pivots are found column by column as in ``_echelon``,
    but each pivot clears the rows below only in the panel's columns, and
    ``F`` keeps the multiplier of every row for every pivot.  Each pivot
    row's part right of the panel is brought up to date from the panel's
    earlier pivots and scaled to a unit pivot; its 16-bit halves go to
    ``lo`` and ``hi``.  The rows below the panel's pivots then take the
    whole panel at once, ``a -= F @ (lo + hi * 2**16)``, one tile of
    ``PANEL`` rows by ``PANEL`` columns at a time.  The matrix stays int64
    residues; ``F``, ``lo`` and ``hi`` are held as float64, whose products
    go through BLAS and are exact (see :func:`_submul`).  Products of two
    residues fit int64 only for p below 2**31; larger primes go to
    :func:`rank_modp`.  Entries are reduced mod p before the int64 cast,
    an empty matrix has rank 0, and the caller's matrix is not modified.
    Entries that are not integers (a float dtype, or a float or Fraction
    in an object array) raise StructuralError, where a cast would truncate
    them.
    """
    import numpy as np

    a = np.asarray(mat)
    if not a.size:
        return 0
    kind, ints = a.dtype.kind, (int, np.integer)
    if kind not in "iuO" or (kind == "O" and not all(isinstance(x, ints) for x in a.flat)):
        raise StructuralError(f"rank_modp_numpy needs integer entries, not {a.dtype}")
    if p >= 1 << 31:
        return rank_modp([[int(x) for x in r] for r in a], p)
    a = (a % p).astype(np.int64, copy=False)
    m, n = a.shape
    row = 0
    for c0 in range(0, n, PANEL):
        if row == m:
            break
        c1 = min(c0 + PANEL, n)
        top = row  # the panel's first pivot row
        F = np.zeros((m - top, c1 - c0))
        lo = np.empty((c1 - c0, n - c1))
        hi = np.empty_like(lo)
        for col in range(c0, c1):
            if row == m:
                break
            nz = np.flatnonzero(a[row:, col])
            if nz.size == 0:
                continue
            piv = row + int(nz[0])
            if piv != row:
                a[[row, piv]] = a[[piv, row]]
                F[[row - top, piv - top]] = F[[piv - top, row - top]]
            k = row - top  # this pivot's index within the panel
            inv = pow(int(a[row, col]), p - 2, p)
            # the pivot row right of the panel, brought up to date and scaled
            if k:
                _submul(a[row, c1:], F[k, :k], lo[:k], hi[:k], p)
            t = a[row, c1:] * inv % p
            lo[k], hi[k] = t & 0xFFFF, t >> 16
            # the rows to clear are the other nonzeros found: a row swapped
            # out of the pivot position was zero here, or it would be the pivot
            below = row + nz[1:]
            if below.size:
                f = a[below, col]
                F[below - top, k] = f
                pr = a[row, col:c1] * inv % p
                # one product of two residues per entry: below 2**62
                a[below, col:c1] = (a[below, col:c1] - np.outer(f, pr)) % p
            row += 1
        k = row - top
        if k:
            for s in range(row, m, PANEL):
                fs = F[s - top : s - top + PANEL, :k]
                for j in range(c1, n, PANEL):
                    cols = slice(j - c1, j - c1 + PANEL)
                    _submul(a[s : s + PANEL, j : j + PANEL], fs, lo[:k, cols], hi[:k, cols], p)
    return row


def _submul(x, f, lo, hi, p):
    """x := (x - f @ (lo + hi * 2**16)) % p in place, for int64 residues x,
    float64 residues f below p < 2**31, and float64 integers lo < 2**16 and
    hi < 2**15, with at most PANEL columns in f.

    Each term of ``f @ lo`` is below 2**31 * 2**16 = 2**47, and each of
    ``f @ hi`` below 2**46, so a sum of at most 64 = 2**6 terms stays below
    2**53.  Every partial sum is then an integer that float64 holds
    exactly, whatever order BLAS adds the terms in and whether or not it
    fuses multiply and add, so both float64 products are exact and cast to
    int64 unchanged (Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008).  The
    mod-p steps run in int64: ``f @ hi`` is reduced mod p before its shift,
    to below 2**47, so x never leaves (-2**54, 2**31).
    """
    x -= (f @ lo).astype(x.dtype)
    x -= ((f @ hi).astype(x.dtype) % p) << 16
    x %= p
