"""Property tests of the column-subset expansion behind every symbolic
permanent, determinant, minor and derived matrix, against the Leibniz sum
over permutations.  Skipped when hypothesis is not installed.

Matrices are at most 4 x 6, with zero entries and zero rows, as ints,
Fractions and polynomials over ZZ, QQ and F_5; the small prime makes sums
cancel to zero often.  Square symmetric matrices are drawn too, on which
many minors and permanents are equal in pairs.
"""

from fractions import Fraction
from itertools import combinations, permutations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from permvar.permanent import (  # noqa: E402
    derivative_matrices,
    derivative_matrix_symbolic,
    matrix_permanents,
    maximal_permanents_vanish,
    perm_symbolic,
)
from permvar.ring import GF, QQ, ZZ, PolyMatrix, PolyRing, VarUniverse, matrix_minors  # noqa: E402

DOMAINS = [ZZ, QQ, GF(5)]
SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=100)


def leibniz(rows, signed: bool, one=1):
    """Sum over permutations s of sign(s) (or 1) * prod_i rows[i][s(i)]."""
    total = one - one
    for perm in permutations(range(len(rows))):
        term = one
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        inversions = sum(perm[a] > perm[b] for a, b in combinations(range(len(perm)), 2))
        total = total - term if signed and inversions % 2 else total + term
    return total


def sub(rows, rs, cs):
    return [[rows[i][j] for j in cs] for i in rs]


def colex(n, h):
    return sorted(combinations(range(n), h), key=lambda s: s[::-1])


@st.composite
def int_grids(draw, m=None, n=None):
    """A grid of small ints, some of its rows zeroed."""
    m = draw(st.integers(1, 4)) if m is None else m
    n = draw(st.integers(m, 5)) if n is None else n
    entry = st.one_of(st.just(0), st.integers(-3, 3))
    grid = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    for i in draw(st.sets(st.integers(0, m - 1), max_size=m)):
        grid[i] = [0] * n
    return grid


@st.composite
def poly_matrices(draw, shape=None):
    """A PolyMatrix of entries c0 + c1 * v over ZZ, QQ or F_5 (zero when
    c0 = c1 = 0), as its ring and its rows."""
    domain = draw(st.sampled_from(DOMAINS))
    ring = PolyRing(VarUniverse.free(["a", "b", "c"]), domain)
    if shape is None:
        m = draw(st.integers(1, 4))
        shape = (m, draw(st.integers(1, 5)))
    m, n = shape
    c0, c1 = draw(int_grids(m, n)), draw(int_grids(m, n))
    den = 2 if domain is QQ else 1
    var = draw(st.lists(st.integers(0, 2), min_size=m * n, max_size=m * n))
    rows = [
        [ring.const(Fraction(c0[i][j], den)) + ring.const(c1[i][j]) * ring.gen(var[i * n + j])
         for j in range(n)]
        for i in range(m)
    ]
    return ring, rows


@st.composite
def symmetric_poly_matrices(draw):
    """A square PolyMatrix made symmetric by copying its upper triangle
    below the diagonal, so that (R, C) and (C, R) give equal values."""
    n = draw(st.integers(2, 4))
    ring, rows = draw(poly_matrices((n, n)))
    for i in range(n):
        for j in range(i):
            rows[i][j] = rows[j][i]
    return ring, rows


def _nearly_symmetric():
    """4 x 4 over ZZ, symmetric but for entry (3, 2): its values at (R, C)
    and (C, R) may differ."""
    ring = PolyRing(VarUniverse.free(["a", "b", "c"]), ZZ)
    a, b, c = ring.gens()
    rows = [[a, b, c, a + 1], [b, c, a, b], [c, a, b + 2, c - 1], [a + 1, b, 3 * c, a]]
    return ring, rows


@SETTINGS
@given(st.one_of(poly_matrices(), symmetric_poly_matrices()), st.integers(1, 4))
@example(_nearly_symmetric(), 2)
@example(_nearly_symmetric(), 3)
def test_minors_and_permanents_match_leibniz(case, h):
    """Random matrices, and symmetric ones (over ZZ, QQ and F_5), whose
    minors and permanents at (R, C) and at (C, R) are equal."""
    ring, rows = case
    m, n = len(rows), len(rows[0])
    h = min(h, m, n)
    M = PolyMatrix(rows)
    minors = [
        leibniz(sub(rows, rs, cs), True, ring.one)
        for cs in combinations(range(n), h)
        for rs in combinations(range(m), h)
    ]
    assert matrix_minors(h, M) == minors
    perms = [
        leibniz(sub(rows, rs, cs), False, ring.one) for cs in colex(n, h) for rs in colex(m, h)
    ]
    assert matrix_permanents(h, M) == perms


@SETTINGS
@given(st.integers(1, 4).flatmap(lambda n: poly_matrices((n, n))))
def test_perm_symbolic_matches_leibniz(case):
    ring, rows = case
    assert perm_symbolic(PolyMatrix(rows)) == leibniz(rows, False, ring.one)


def omitting_pairs_oracle(rows, zero, one):
    n = len(rows[0])
    out = [[zero] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        keep = [c for c in range(n) if c not in (i, j)]
        out[i][j] = out[j][i] = leibniz(sub(rows, range(len(rows)), keep), False, one)
    return out


@SETTINGS
@given(st.integers(1, 4).flatmap(lambda m: int_grids(m, m + 2)), st.integers(1, 3))
def test_derivative_matrices_match_leibniz(grid, den):
    for mat in (grid, [[Fraction(x, den) for x in row] for row in grid]):
        want = omitting_pairs_oracle(mat, 0, 1)
        assert derivative_matrices([mat]) == [want]


@SETTINGS
@given(
    st.integers(1, 4).flatmap(lambda m: st.lists(int_grids(m, m + 2), max_size=6)),
    st.integers(1, 3),
)
def test_batched_derivative_matrices_match_leibniz(batch, den):
    """A batch of points of one shape, read off one expansion over lanes,
    gives each point its own derived matrix."""
    for pts in (batch, [[[Fraction(x, den) for x in row] for row in A] for A in batch]):
        assert derivative_matrices(pts) == [omitting_pairs_oracle(A, 0, 1) for A in pts]


@SETTINGS
@given(st.integers(1, 4).flatmap(lambda m: poly_matrices((m, m + 2))))
def test_derivative_matrix_symbolic_matches_leibniz(case):
    ring, rows = case
    B = derivative_matrix_symbolic(PolyMatrix(rows))
    assert B.rows == omitting_pairs_oracle(rows, ring.zero, ring.one)


@SETTINGS
@given(int_grids())
@example([[1, 1], [1, -1]])
@example([[1, 1, 1, -7], [1, 1, -4, 2], [1, 1, 3, 5]])
def test_maximal_permanents_vanish_matches_leibniz(grid):
    """Sums that cancel to zero must leave no column set behind."""
    m, n = len(grid), len(grid[0])
    want = all(leibniz(sub(grid, range(m), cs), False) == 0 for cs in combinations(range(n), m))
    assert maximal_permanents_vanish(grid) == want
