"""Exact dense linear algebra over ZZ, QQ and prime fields.

Everything here works on plain lists of lists holding ``int`` or
``fractions.Fraction`` entries (ints for the ``_modp`` variants).  One
pure-Python fraction-free elimination serves ZZ, QQ and F_p: ``rank`` and
``rank_modp`` count its pivots, and ``kernel_basis`` reads the null space
off ``rref_fraction``, the elimination reduced to its RREF over QQ.  The dense
numpy kernel ``rank_modp_numpy`` ranks integer matrices mod p < 2**31 by
block-recursive Gaussian elimination: it searches pivots column by column
only in blocks of a few columns, and takes every larger step as float64
products through BLAS of residues split so that each sum is an integer
below 2**53, which float64 holds exactly.  Each product is small enough for
one BLAS thread, and the package imports numpy only through ``_numpy``,
which loads OpenBLAS with one.  The working array holds int32 residues;
only the block being eliminated (as int64) and the tile being updated (as
float64 and int64) are widened, and written back reduced.  The rows are
ranked in order of their first nonzero column, their lead, so that a
sparse Macaulay matrix becomes a staircase: with stop[j] the number of rows
of lead at most j, rows from stop[j] on stay zero in column j, so every
step stops there; and every product tile with an all-zero factor is
skipped.  Floats are refused.
"""

from bisect import bisect_right
from fractions import Fraction
from math import gcd, lcm
from operator import index
from os import environ
from sys import modules

from .budget import check
from .errors import StructuralError


def _dims(rows):
    m = len(rows)
    n = len(rows[0]) if m else 0
    if any(len(r) != n for r in rows):
        raise StructuralError("ragged matrix")
    return m, n


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
    The open budget is checked before each column (phase ``"elimination"``).
    """
    m, n = _dims(rows)
    a = [[x % p for x in r] for r in rows] if p else [_integer_scaled(r)[0] for r in rows]
    pivots = []
    for col in range(n):
        check("elimination", {"column": col, "rank": len(pivots)})
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
    """Basis of the right null space over QQ, read off :func:`rref_fraction`:
    one vector per free column f, in increasing order, 1 at f and minus
    column f of the RREF at the pivot columns, scaled to a primitive integer
    vector (content 1) whose first nonzero entry is positive."""
    rref, pivots = rref_fraction(rows)
    n = len(rref[0]) if rref else 0
    basis = []
    for f in (j for j in range(n) if j not in pivots):
        v = [0] * n
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = -rref[r][f]
        basis.append(_primitive(_integer_scaled(v)[0]))
    return basis


def _integer_scaled(values):
    """``(ints, den)``: ``values``, ints and Fractions, times den, the lcm of
    their denominators.  A row so scaled has the same row space over QQ."""
    den = lcm(*[x.denominator for x in values])
    return [index(x.numerator) * (den // x.denominator) for x in values], den


def _primitive(ints):
    """``ints`` divided by their content, the first nonzero entry made
    positive.  The gcd and the division go one entry at a time, the open
    budget checked between entries (phase ``"content"``): on entries of
    hundreds of thousands of bits each step can take a tenth of a second.
    The gcd stops at the first partial gcd of 1."""
    g = 0
    for x in ints:
        g = gcd(g, x)
        if g == 1:
            break
        check("content")
    if next((x for x in ints if x), 0) < 0:
        g = -g  # so the division also makes the first nonzero entry positive
    if g in (0, 1):
        return ints
    quotients = []
    for x in ints:
        quotients.append(x // g)
        check("content")
    return quotients


# ---------------------------------------------------------------------------
# prime-field versions


def rank_modp(rows, p):
    """Rank over F_p of an integer matrix, by the same elimination."""
    return len(_echelon(rows, p)[1])


# Columns per panel of rank_modp_numpy, halved down to BASE.  Its float64
# products sum at most PANEL = 64 terms (see _submul) into tiles of at most
# PANEL * PANEL entries: 2**18 multiply-adds, below OpenBLAS's threading
# threshold, so _numpy loads OpenBLAS with one thread: its idle worker spins.
PANEL, BASE = 64, 8


def _numpy():
    """numpy, imported first with OPENBLAS_NUM_THREADS=1, os.environ then restored."""
    if "numpy" not in modules and {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}.isdisjoint(environ):
        environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            import numpy
        finally:
            del environ["OPENBLAS_NUM_THREADS"]
    import numpy
    return numpy


def rank_modp_numpy(mat, p):
    """Rank mod p of an integer matrix (lists, or a numpy array of integer
    or object dtype), by block-recursive Gaussian elimination (after
    Jeannerod, Pernet and Storjohann, J. Symb. Comp. 56, 2013, and Dumas,
    Pernet and Sultan, J. Symb. Comp. 83, 2017) on its transpose t, held as
    int32 residues so that each column is contiguous; only the block being
    eliminated and the tile being updated are widened, to int64 or float64,
    and written back as residues.  Residues fit int32 and products of two
    fit int64 only for p below 2**31; larger primes go to :func:`rank_modp`.
    The rows are taken in order of their first nonzero column, their lead
    (a stable sort; they are gathered into t a panel at a time, with no
    full-size copy of the sorted input): rank does not depend on row order,
    and a sparse matrix such as a Macaulay matrix becomes a staircase.
    With stop[j] the number of rows of lead at most j, rows from stop[j] on
    stay zero in column j, since a row is zero left of its lead and the
    pivot of column c updates only rows nonzero at c (so of lead <= c), and
    only right of c; a row swap stays inside such a prefix.  So each step
    reads and writes only the rows from the next free row up to a stop: its
    pivot column's, or that of its block's last column or last pivot; and
    most tiles of :func:`_update` have an all-zero factor and are skipped.
    :func:`_eliminate` takes one panel of PANEL columns at a time, whose
    pivots then update the columns right of it at once.  Entries are
    reduced mod p before the int32 cast (an array narrower than 32 bits
    first widened to int64 when p does not fit its dtype), an empty matrix
    has rank 0, and the caller's matrix is left unmodified, and unreferenced
    once t is filled.  Entries that are not integers (a float dtype, or a
    float or Fraction in an object array) raise StructuralError.
    """
    np = _numpy()

    a = np.asarray(mat)
    if not a.size:
        return 0
    kind, ints = a.dtype.kind, (int, np.integer)
    if kind not in "iuO" or (kind == "O" and not all(isinstance(x, ints) for x in a.flat)):
        raise StructuralError(f"rank_modp_numpy needs integer entries, not {a.dtype}")
    if p >= 1 << 31:
        return rank_modp([[int(x) for x in r] for r in a], p)
    if a.dtype.itemsize < 4 and p > np.iinfo(a.dtype).max:
        a = a.astype(np.int64)  # NumPy 2 refuses a Python int p that a's dtype cannot hold
    # each row's lead (n for a zero row); then the rows, reduced in a's own
    # dtype, cast into the transposed int32 array in lead order, a panel of
    # rows at a time.  where and min, not argmax, and Python's stable sort
    # and bisect, not numpy's: numpy routines that no other step calls page
    # in code, which argmax and argsort put at 0.4 MB of peak RSS
    m, n = a.shape
    lead = np.full(m, n)
    for i in range(0, m, PANEL):
        lead[i : i + PANEL] = np.where(a[i : i + PANEL].astype(bool), np.arange(n), n).min(1)
    leads = lead.tolist()
    order = np.array(sorted(range(m), key=leads.__getitem__))
    leads.sort()
    stop = [bisect_right(leads, j) for j in range(n)]
    t = np.empty((n, m), dtype=np.int32)
    for i in range(0, m, PANEL):
        np.remainder(a[order[i : i + PANEL]].T, p, out=t[:, i : i + PANEL], casting="unsafe")
    del mat, a, order  # so that a matrix no caller holds is freed before elimination
    row, piv = 0, []
    for c0 in range(0, n, PANEL):
        if row == m:
            break
        c1, top = min(c0 + PANEL, n), row
        row = _eliminate(t, p, row, c0, c1, piv, stop)
        if top < row < (s := stop[piv[-1]]) and c1 < n:
            _update(t[c1:, row:s], t[c1:, top:row], t[piv[top:], row:s], p)
    return row


def _eliminate(t, p, row, c0, c1, piv, stop):
    """Eliminate columns c0:c1 of A = t.T below row ``row``, the first that
    holds no pivot yet.  Appends the pivot columns to ``piv``, one per pivot
    row, and returns the next free row.  ``stop`` bounds every step: rows
    from stop[j] on are zero in column j (see :func:`rank_modp_numpy`), so
    no row from the stop of the block's last column on is read or written.

    With pivot rows J, their columns K and P = A[J, K], each later row i
    becomes A[i] - B[i] A[J], where B[i] = A[i, K] P^-1 is kept in K's
    place; the pivot rows stay as they are.  B[i] is zero from the stop of
    the last pivot column on, where A[i, K] is.  A block wider than BASE is
    halved: the left half's pivots update the right half, whose pivots then
    update the left half's B, each up to the stop of its last pivot.  A
    block of BASE columns is widened to int64 from row ``row`` up to its
    last column's stop, and each column's first nonzero up to its own stop
    is its pivot, eliminated by a rank-1 update of centered residues up to
    that stop, each product at most (2**30 - 1)**2: a residue stays below
    2**63 through the BASE = 8 updates of its block, and is written back
    reduced.
    """
    np = _numpy()

    if c1 - c0 > BASE:
        mid, r0 = (c0 + c1) // 2, row
        row = _eliminate(t, p, row, c0, mid, piv, stop)
        if r0 < row < (s := stop[piv[-1]]):
            _update(t[mid:c1, row:s], t[mid:c1, r0:row], t[piv[r0:], row:s], p)
        r1 = row
        row = _eliminate(t, p, row, mid, c1, piv, stop)
        if r0 < r1 < row < (s := stop[piv[-1]]):
            _update(t[c0:mid, row:s], t[c0:mid, r1:row], t[piv[r1:], row:s], p)
        return row
    blk, h, r0, s = t[c0:c1], p // 2, row, stop[c1 - 1]
    w = blk[:, r0:s].astype(np.int64)  # the block, widened; w[:, k] is row r0 + k
    for j in range(c1 - c0):
        k, e = row - r0, stop[c0 + j] - r0
        if k >= e:
            continue
        c = w[j, k:e] + h
        c -= c // p * p + h  # the column, centered
        nz = c.nonzero()[0]
        if not nz.size:
            continue
        if nz[0]:  # swap rows of A, columns of t and of w
            q = k + int(nz[0])
            t[:, [row, r0 + q]] = t[:, [r0 + q, row]]
            w[:, [k, q]] = w[:, [q, k]]
            c[0], c[nz[0]] = c[nz[0]], c[0]
        inv = pow(int(c[0]), -1, p)
        # v, the pivot row over the pivot d but 1 - 1/d in the pivot column,
        # takes each later row i to A[i] - c[i] / d A[r], B[i] = c[i] / d
        v = [(x * inv + h) % p - h for x in w[:, k].tolist()]
        v[j] = (1 - inv + h) % p - h
        w[:, k + 1 : e] -= np.array(v)[:, None] * c[1:]
        piv.append(c0 + j)
        row += 1
    w -= w // p * p
    blk[:, r0:s] = w
    return row


def _update(x, f, b, p):
    """x := (x - f @ b) mod p in place, for int32 (or int64) residues and at
    most PANEL columns in f, tile by tile: with fc = f centered, f2 = f *
    2**16 mod p and b = lo + hi * 2**16, f @ b = fc @ lo + f2 @ hi mod p.
    f is widened to int64 a tile of rows at a time, since f + p // 2 and
    f << 16 overflow int32.  Only tiles whose rows of f and columns of b
    both hold a nonzero are multiplied: any other tile's product is 0, and
    x keeps its residues.  The callers pass x and b up to the stop of f's
    last pivot column, from which on b is zero."""
    np = _numpy()

    rows = min(len(x), PANEL)
    cols = PANEL * PANEL // rows
    fi = np.logical_or.reduceat(f.any(1), range(0, len(x), rows)).nonzero()[0] * rows
    bj = np.logical_or.reduceat(b.any(0), range(0, x.shape[1], cols)).nonzero()[0] * cols
    if not (fi.size and bj.size):
        return
    h = p // 2
    lo, hi = (b & 0xFFFF).astype(float), (b >> 16).astype(float)
    for i in fi.tolist():
        s = slice(i, i + rows)
        g = f[s].astype(np.int64)
        fc, f2 = ((g + h) % p - h).astype(float), ((g << 16) % p).astype(float)
        for j in bj.tolist():
            c = slice(j, j + cols)
            _submul(x[s, c], fc, f2, lo[:, c], hi[:, c], p)


def _submul(x, f, f2, lo, hi, p):
    """x := (x - f @ lo - f2 @ hi) mod p in place, for int32 (or int64)
    residues x, float64 integers |f| < 2**30, 0 <= f2 < 2**31,
    0 <= lo < 2**16 and 0 <= hi < 2**15, and at most PANEL columns in f and
    f2.  Each term is below 2**46, so every partial sum is an integer in
    (-2**52, 2**53), held exactly by float64 whatever order BLAS adds in and
    whether or not it fuses multiply and add (Dumas, Giorgi and Pernet, ACM
    TOMS 35(3), 2008).  The difference is taken and reduced in int64, then
    written back.
    """
    np = _numpy()

    t = f @ lo
    t += f2 @ hi
    r = x - t.astype(np.int64)
    r -= r // p * p  # floor division by one divisor: numpy's fast path
    x[...] = r
