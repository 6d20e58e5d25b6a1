"""Exact permanent engines, permanental rank, and permanental-ideal builders.

Also builds the Kirkup matrices and the derived integer and symbolic
matrices whose entries are sub-permanents of a fixed point: the symmetric
matrices controlling tangent directions.

``perm_numeric`` takes constant square permanents by Ryser (or Glynn).
Every other permanent here (symbolic permanents, permanent families, the
derived matrices, the Kirkup check) is read off one unsigned expansion
(``ring._expand``): one forward pass over the rows whose states are (row
set, column set) pairs, so every h-row subset meets every h-column subset
and shares the states of its prefixes.  Signed, the same pass gives the
symbolic determinants and minors.

``derivative_matrices`` takes a batch of points of one shape and runs one
expansion for the whole batch: each entry is a lane vector
(``ring._Lanes``, the one lane type, which ``MPoly.evaluate`` also walks)
holding its value at every point, multiplied and added lanewise, and every
point's matrix is read from its own lane of the result.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, prod
from operator import add, sub

from .errors import (
    CapacityError,
    InternalConsistencyError,
    PreconditionError,
    StructuralError,
)
from .linalg import _dims
from .ring import (
    MAX_VARS,
    ZZ,
    MPoly,
    PolyMatrix,
    PolyRing,
    VarUniverse,
    _expand,
    _Lanes,
    _read,
    _refuse_var_count,
)

# Largest symbolic permanent expanded.
SYMBOLIC_PERM_BOUND = 7
# Largest Kirkup size built: checking its k + 1 maximal permanents is one
# expansion through at most 2^(k+1) column sets; k = 12 takes 0.014 to
# 0.021 s on a 2-vCPU machine, and each step up doubles it.
KIRKUP_MAX_K = 12
# Largest numeric permanent: Ryser is O(2^n n); n = 16 takes about 0.15 s,
# and each step up doubles it.
PERM_MAX_N = 20
# Largest prk search, on the input's dims: an m x n matrix of prk 0 would
# visit sum_h C(m,h) C(n,h) = C(m+n, m) (rows, columns) pairs.  prk drops
# zero rows and columns and starts at the term rank, so the worst case left
# has a term rank far above prk, from sub-permanents that cancel.  On a
# 2-vCPU machine the 12 x 12 block diagonal of six [[1, 1], [1, -1]] (term
# rank 12, prk 6) takes 4.6 to 4.7 s at 136 MB peak RSS, and a 3 x 260 of
# one such block and a full row (term rank 3, prk 2, 2.9 million pairs)
# 2.2 s at 20 MB.
PRK_MAX_PAIRS = 3_000_000
# Most terms that ``matrix_permanents`` may expand, C(m, h) C(n, h) h!: the
# terms of all h x h permanents of a generic m x n matrix.  The largest
# registered case, sing-upper-witness, counts 322,560 (the 7 x 7 permanents
# of an 8 x 8); ``ideal gen --k 5 --n 14``, 240,240 terms, took 7.9 s at
# 99 MB peak RSS on a 2-vCPU machine.
PERM_TERMS_BOUND = 400_000
# Most columns of a derived matrix's input: its expansion holds up to
# C(n, n/2) column sets.  16 x 18 takes 0.96 to 1.23 s and 18 x 20 5.8 to
# 6.1 s on a 2-vCPU machine, about 5.5 times more per two columns.
DERIVED_MAX_N = 20


# ---------------------------------------------------------------------------
# plain numeric matrices (lists of lists of int / Fraction)


def perm_numeric(mat, method: str = "ryser"):
    """Exact permanent of a square constant matrix.

    ``ryser`` walks subsets in Gray-code order updating row sums in O(n);
    ``glynn`` is the +-1 vector formula and serves as a cross-check engine.
    """
    m, n = _dims(mat)
    if m != n:
        raise StructuralError("permanent of a non-square matrix")
    if n > PERM_MAX_N:
        raise CapacityError(f"permanent of size {n} exceeds bound {PERM_MAX_N}: O(2^n n)")
    if n == 0:
        return 1
    if method == "ryser":
        return _perm_ryser(mat, n)
    if method == "glynn":
        return _perm_glynn(mat, n)
    raise StructuralError(f"unknown permanent method {method!r}")


def _perm_ryser(mat, n):
    # perm(A) = (-1)^n sum_{S != 0} (-1)^{|S|} prod_i sum_{j in S} a_ij
    cols = [list(col) for col in zip(*mat)]
    sums = [0] * n
    total = 0
    gray = 0
    for g in range(1, 1 << n):
        new_gray = g ^ (g >> 1)
        bit = gray ^ new_gray
        gray = new_gray
        sums = list(map(add if new_gray & bit else sub, sums, cols[bit.bit_length() - 1]))
        p = prod(sums)
        total += -p if g & 1 else p  # each step flips one bit, so |S| = g mod 2
    return -total if (n & 1) else total


def _perm_glynn(mat, n):
    # perm(A) = 2^{1-n} sum_{d in {1,-1}^n, d_1 = 1} (prod d) prod_j sum_i d_i a_ij
    doubled = [[2 * a for a in row] for row in mat]
    sums = [sum(col) for col in zip(*mat)]
    total = prod(sums)
    gray = 0
    for g in range(1, 1 << (n - 1)):
        new_gray = g ^ (g >> 1)
        bit = gray ^ new_gray
        gray = new_gray
        # flip delta_i for row i = bit.bit_length() (rows 1..n-1)
        sums = list(map(sub if new_gray & bit else add, sums, doubled[bit.bit_length()]))
        p = prod(sums)
        total += -p if g & 1 else p
    if isinstance(total, Fraction):
        return total / (1 << (n - 1))
    q, r = divmod(total, 1 << (n - 1))
    if r:
        raise InternalConsistencyError("Glynn sum not divisible by 2^(n-1)")
    return q


def prk(mat) -> int:
    """Permanental rank: the largest h with a nonzero h x h sub-permanent.

    A zero row or column lies in no nonzero sub-permanent, so both are
    dropped first.  Every nonzero term of an h x h sub-permanent places h
    nonzero entries on distinct rows and columns, so h is at most the term
    rank: the size of a maximum matching of rows to the columns of their
    nonzero entries.  An exhaustive search descends from the term rank, with
    a Laplace expansion whose memo is shared across the sizes of one call.
    Each size's own (row set, column set) pairs are visited once, so they
    are expanded without being stored; only the smaller pairs below them,
    which the search revisits, are kept.  The bound is checked on the
    input's dims.
    """
    m, n = _dims(mat)
    if comb(m + n, m) > PRK_MAX_PAIRS:
        raise CapacityError(
            f"prk of a {m}x{n} matrix may visit C({m + n},{m}) (rows, columns) pairs, "
            f"above the bound {PRK_MAX_PAIRS}"
        )
    mat = [r for r in mat if any(r)]
    keep = [j for j in range(n) if any(r[j] for r in mat)]
    mat = [[r[j] for j in keep] for r in mat]
    m, n = len(mat), len(keep)
    memo = {(): {(): 1}}

    def expand(rows: tuple, cols: tuple):
        r0, rest = rows[0], rows[1:]
        val = 0
        for idx, c in enumerate(cols):
            a = mat[r0][c]
            if a:
                val += a * perm_sub(rest, cols[:idx] + cols[idx + 1 :])
        return val

    def perm_sub(rows: tuple, cols: tuple):
        by_cols = memo.setdefault(rows, {})
        val = by_cols.get(cols)
        if val is None:
            val = by_cols[cols] = expand(rows, cols)
        return val

    for h in range(_term_rank(mat, n), 0, -1):
        for rows in combinations(range(m), h):
            for cols in combinations(range(n), h):
                if expand(rows, cols) != 0:
                    return h
    return 0


def _term_rank(mat, n: int) -> int:
    """Size of a maximum matching of rows to the columns of their nonzero
    entries, by one augmenting-path search per row (Kuhn's algorithm)."""
    owner = [-1] * n  # column -> matched row

    def augment(r: int, seen: set) -> bool:
        for c, a in enumerate(mat[r]):
            if a and c not in seen:
                seen.add(c)
                if owner[c] < 0 or augment(owner[c], seen):
                    owner[c] = r
                    return True
        return False

    return sum(augment(r, set()) for r in range(len(mat)))


def matrix_from_json(text_or_obj):
    """Parse a JSON grid of integer/rational strings (or integers).

    Anything else, including JSON booleans, unparsable strings and zero
    denominators, is refused with :class:`StructuralError`.
    """
    obj = json.loads(text_or_obj) if isinstance(text_or_obj, str) else text_or_obj
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise StructuralError("matrix JSON must be a non-empty list of rows")
    out = []
    for r in obj:
        row = []
        for x in r:
            if isinstance(x, bool) or not isinstance(x, (int, str)):
                raise StructuralError(f"bad matrix entry {x!r}")
            if isinstance(x, str):
                try:
                    x = Fraction(x)
                except (ValueError, ZeroDivisionError):
                    raise StructuralError(f"bad matrix entry {x!r}") from None
                if x.denominator == 1:
                    x = x.numerator
            row.append(x)
        out.append(row)
    _dims(out)
    return out


# ---------------------------------------------------------------------------
# symbolic matrices and ideals


def generic_matrix(k: int, n: int, domain=ZZ) -> PolyMatrix:
    """The k x n matrix of independent variables x_i_j."""
    ring = PolyRing(VarUniverse.matrix(k, n), domain)
    return PolyMatrix([[ring.var(i, j) for j in range(1, n + 1)] for i in range(1, k + 1)])


def hankel_matrix_2xn(n: int, domain=ZZ) -> PolyMatrix:
    """2 x n matrix constant on anti-diagonals over variables x0..xn."""
    if n < 2:
        raise StructuralError("Hankel matrix needs n >= 2")
    _refuse_var_count(n + 1)
    ring = PolyRing(VarUniverse.free([f"x{i}" for i in range(n + 1)]), domain)
    g = ring.gens()
    return PolyMatrix([[g[i + j] for j in range(n)] for i in range(2)])


def circulant_hankel_matrix(k: int, n: int, nvars: int, domain=ZZ) -> PolyMatrix:
    """k x n matrix with entry (i, j) = x_{(i+j-2) mod nvars}, 1-based,
    named x_1_1 .. x_1_nvars; refused above MAX_VARS entries, as a generic
    matrix is."""
    if k * n > MAX_VARS:
        raise CapacityError(
            f"circulant matrix of {k} x {n} = {k * n} entries exceeds bound {MAX_VARS}"
        )
    ring = PolyRing(VarUniverse.matrix(1, nvars), domain)
    g = ring.gens()
    return PolyMatrix([[g[(i + j) % nvars] for j in range(n)] for i in range(k)])


@dataclass(frozen=True)
class GenericMatrixSpec:
    """Which matrix to build and which size of permanents to take."""

    k: int
    n: int
    h: int | None = None
    pattern: str = "generic"  # generic | hankel2xn | circulant
    period: int | None = None  # circulant only: number of distinct variables

    def __post_init__(self):
        if self.perm_size > min(self.k, self.n):
            raise StructuralError(f"h={self.perm_size} exceeds min{self.k, self.n}")
        if self.pattern not in ("generic", "hankel2xn", "circulant"):
            raise StructuralError(f"unknown pattern {self.pattern!r}")
        if self.pattern == "hankel2xn" and self.k != 2:
            raise StructuralError("hankel2xn pattern requires k = 2")
        if self.period is not None and self.pattern != "circulant":
            raise StructuralError("period only applies to circulant patterns")
        if self.period is not None and self.period < 1:
            raise StructuralError(f"period {self.period} is not positive")

    @property
    def perm_size(self) -> int:
        return self.h if self.h is not None else self.k

    def matrix(self, domain=ZZ) -> PolyMatrix:
        if self.pattern == "generic":
            return generic_matrix(self.k, self.n, domain)
        if self.pattern == "hankel2xn":
            return hankel_matrix_2xn(self.n, domain)
        nvars = self.period if self.period is not None else self.k + 1
        return circulant_hankel_matrix(self.k, self.n, nvars, domain)


def perm_symbolic(M: PolyMatrix) -> MPoly:
    """Exact permanent of a square PolyMatrix, read off the unsigned
    column-subset expansion of its rows; refused above size
    SYMBOLIC_PERM_BOUND."""
    m, n = M.dims
    if m != n:
        raise StructuralError("permanent of a non-square matrix")
    return matrix_permanents(n, M)[0]


def _refuse_symbolic_perm(h: int):
    if h > SYMBOLIC_PERM_BOUND:
        raise CapacityError(
            f"symbolic permanent of size {h} exceeds bound {SYMBOLIC_PERM_BOUND}; "
            "evaluate it numerically"
        )


def permanental_ideal(spec: GenericMatrixSpec, domain=ZZ):
    """All h x h permanents of the described matrix.

    Subsets are enumerated in colexicographic order, columns outermost, so
    for the maximal case h = k, n = k+1 the list is
    [perm dropping column k+1, ..., perm dropping column 1].
    """
    M = spec.matrix(domain)
    return matrix_permanents(spec.perm_size, M)


def matrix_permanents(h: int, M: PolyMatrix):
    """All h x h permanents of M, colex subset order, columns outermost,
    read off one unsigned expansion of every h-row subset against every
    h-column subset; refused before any expansion when a generic m x n
    matrix would give more than PERM_TERMS_BOUND terms."""
    m, n = M.dims
    if not 1 <= h <= min(m, n):
        raise StructuralError(f"{h}x{h} permanents of a {m}x{n} matrix")
    _refuse_symbolic_perm(h)
    terms = comb(m, h) * comb(n, h) * factorial(h)
    if terms > PERM_TERMS_BOUND:
        raise CapacityError(
            f"{h}x{h} permanents of a {m}x{n} matrix: {terms} terms exceed bound {PERM_TERMS_BOUND}"
        )
    perms = _expand(M.rows, signed=False, h=h)
    return _read(perms, m, n, _colex_subsets(m, h), _colex_subsets(n, h), M.ring.zero)


def _colex_subsets(n: int, h: int):
    subs = sorted(combinations(range(n), h), key=lambda s: tuple(reversed(s)))
    return subs


# ---------------------------------------------------------------------------
# Kirkup matrices


def kirkup_matrix(k: int) -> list:
    """The rows of the integer k x (k+1) Kirkup matrix, 3 <= k <= KIRKUP_MAX_K,
    a fresh list each call, after verifying that all its k x k permanents
    vanish.  Rows 2..k (``[1:]``) are the nonzero part of the associated
    fixed point."""
    if k < 3:
        raise PreconditionError("Kirkup matrices need k >= 3")
    if k > KIRKUP_MAX_K:
        raise CapacityError(
            f"Kirkup matrix k={k} exceeds bound {KIRKUP_MAX_K}: verifying it expands "
            f"2^{k + 1} column sets"
        )
    rows = []
    for _ in range(k - 2):
        rows.append([1] * k + [2 - 3 * k])
    rows.append([1] * (k - 1) + [2 - 2 * k, (k - 2) * (k - 1)])
    rows.append([1] * (k - 1) + [k, (2 * k - 1) * (k - 2)])
    if not maximal_permanents_vanish(rows):
        raise InternalConsistencyError("Kirkup construction broken: a maximal permanent is nonzero")
    return rows


def maximal_permanents_vanish(mat) -> bool:
    """Whether every m x m permanent of a constant m x n matrix, m <= n, is
    zero: its unsigned expansion over all m rows leaves no column set."""
    m, n = _dims(mat)
    if m > n:
        raise StructuralError(f"maximal permanents of a {m}x{n} matrix with more rows than columns")
    return not _expand(mat, signed=False)


# ---------------------------------------------------------------------------
# derived matrices of sub-permanents


def derivative_matrices(points):
    """For each point of a batch (a list of constant m x (m+2) matrices of
    one shape, at most DERIVED_MAX_N columns), in batch order, the symmetric
    matrix of its sub-permanents: entry (i, j), i != j, is the permanent of
    the point omitting columns i and j, and the diagonal is zero.

    Both torus modes build this matrix: "B1" from a (k-1) x (k+1) point,
    "L" from a (k-2) x k one.  A batch of two or more points is one
    expansion whose entries are lanes, one per point; a batch of one
    expands the point's own entries, about 4x faster than through one lane.
    """
    try:
        shapes = {_dims(p) for p in points}
    except TypeError:
        raise StructuralError(
            "derivative_matrices takes a batch of matrices, not a bare matrix"
        ) from None
    if not shapes:
        return []
    if len(shapes) > 1:
        raise StructuralError(f"batch mixes the shapes {sorted(shapes)}")
    ((m, n),) = shapes
    if n != m + 2:
        raise StructuralError(f"expected an m x (m+2) matrix, got {m}x{n}")
    if n > DERIVED_MAX_N:
        raise CapacityError(
            f"derived matrix of a {m}x{n} matrix exceeds bound {DERIVED_MAX_N} columns: "
            f"its expansion holds up to C({n},{n // 2}) column sets"
        )
    if len(points) == 1:
        return [_omitting_pairs(_expand(points[0], signed=False), n, 0)]
    rows = [list(map(_Lanes, zip(*(p[i] for p in points)))) for i in range(m)]
    lanes = _omitting_pairs(_expand(rows, signed=False), n, [0] * len(points))
    # lanes[i][j][t] is entry (i, j) at point t
    return [[list(r) for r in B] for B in zip(*(zip(*row) for row in lanes))]


def _omitting_pairs(perms, n: int, zero):
    """The n x n symmetric matrix, zero diagonal, whose entry (i, j) is the
    value in ``perms`` at the column set missing only columns i and j."""
    full = (1 << n) - 1
    out = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            out[i][j] = out[j][i] = perms.get(full ^ (1 << i) ^ (1 << j), zero)
    return out


def derivative_matrix_symbolic(M: PolyMatrix) -> PolyMatrix:
    """Symbolic analogue: entries are permanents of M omitting column pairs."""
    m, n = M.dims
    if n != m + 2:
        raise StructuralError(f"expected m x (m+2) input, got {m}x{n}")
    _refuse_symbolic_perm(m)
    return PolyMatrix(_omitting_pairs(_expand(M.rows, signed=False), n, M.ring.zero))
