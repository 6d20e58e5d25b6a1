"""Permanent engines, permanental rank, Kirkup matrices, derived matrices."""

import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest

from permvar import permanent
from permvar.errors import CapacityError, PreconditionError, StructuralError
from permvar.permanent import (
    GenericMatrixSpec,
    circulant_hankel_matrix,
    derivative_matrices,
    derivative_matrix_symbolic,
    generic_matrix,
    hankel_matrix_2xn,
    kirkup_matrix,
    matrix_from_json,
    perm_numeric,
    perm_symbolic,
    permanental_ideal,
    prk,
)
from permvar.ring import PolyMatrix, matrix_det


def naive_perm(mat):
    """Independent oracle: direct permutation-sum expansion."""
    n = len(mat)
    total = 0
    for sigma in permutations(range(n)):
        prod = 1
        for i in range(n):
            prod *= mat[i][sigma[i]]
        total += prod
    return total


RNG = random.Random(20240811)


# ---------------------------------------------------------------------------
# numeric engines


def test_perm_trivial_cases():
    assert perm_numeric([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]) == 1
    assert perm_numeric([[1] * 4 for _ in range(4)]) == 24  # 4!
    assert perm_numeric([[1, 1], [1, -1]]) == 0


def test_perm_kirkup_submatrix_vanishes():
    # oracle: 6-term expansion gives 3 + 3 + 1 - 4 - 4 + 1 = 0
    sub = [[1, 1, 1], [1, 1, -4], [1, 1, 3]]
    assert naive_perm(sub) == 0
    assert perm_numeric(sub) == 0


@pytest.mark.parametrize("method", ["ryser", "glynn"])
def test_perm_engines_match_naive_oracle(method):
    for n in range(1, 7):
        for _ in range(40):
            A = [[RNG.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert perm_numeric(A, method) == naive_perm(A)


def test_perm_engines_match_each_other_sizes_to_7():
    for n in range(2, 8):
        for _ in range(25):
            A = [[RNG.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            assert perm_numeric(A, "ryser") == perm_numeric(A, "glynn")


@pytest.mark.parametrize("method", ["ryser", "glynn"])
def test_perm_engines_match_naive_oracle_on_fractions(method):
    rng = random.Random(43)
    for n in range(1, 7):
        for _ in range(10):
            A = [[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)]
                 for _ in range(n)]
            assert perm_numeric(A, method) == naive_perm(A)


@pytest.mark.parametrize("method", ["ryser", "glynn"])
def test_perm_engines_with_a_zero_row_or_column(method):
    """A zero row or column makes a row or column sum zero at every step of
    Ryser's and Glynn's walks, so every product is zero."""
    rng = random.Random(43)
    for n in range(1, 7):
        for _ in range(10):
            A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            i, j = rng.randrange(n), rng.randrange(n)
            zero_row = [[0] * n if r == i else row for r, row in enumerate(A)]
            zero_col = [[0 if c == j else a for c, a in enumerate(row)] for row in A]
            for B in (zero_row, zero_col):
                assert perm_numeric(B, method) == naive_perm(B) == 0
                F = [[Fraction(a, 3) for a in row] for row in B]
                assert perm_numeric(F, method) == 0
        # one zero line, every other entry 1
        ones = [[0] * n] + [[1] * n for _ in range(n - 1)]
        assert perm_numeric(ones, method) == 0
        assert perm_numeric([list(col) for col in zip(*ones)], method) == 0


@pytest.mark.parametrize("method", ["ryser", "glynn"])
def test_kirkup_10_maximal_permanents_vanish_under_both_methods(method):
    rows = kirkup_matrix(10)
    for j in range(11):
        sub = [[a for c, a in enumerate(r) if c != j] for r in rows]
        assert perm_numeric(sub, method) == 0


def test_perm_rational_entries():
    A = [[Fraction(1, 2), 1], [1, Fraction(1, 3)]]
    assert perm_numeric(A) == Fraction(1, 6) + 1
    assert perm_numeric(A, "glynn") == Fraction(7, 6)


def test_perm_invariances():
    for _ in range(50):
        n = RNG.randint(2, 5)
        A = [[RNG.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        base = perm_numeric(A)
        rows = list(range(n))
        RNG.shuffle(rows)
        assert perm_numeric([A[i] for i in rows]) == base
        cols = list(range(n))
        RNG.shuffle(cols)
        assert perm_numeric([[r[j] for j in cols] for r in A]) == base
        assert perm_numeric([[A[j][i] for j in range(n)] for i in range(n)]) == base


def test_perm_multilinear_in_rows():
    for _ in range(40):
        n = RNG.randint(2, 5)
        A = [[RNG.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        r2 = [RNG.randint(-9, 9) for _ in range(n)]
        alpha, beta = RNG.randint(-5, 5), RNG.randint(-5, 5)
        i = RNG.randrange(n)
        mixed = [row[:] for row in A]
        mixed[i] = [alpha * a + beta * b for a, b in zip(A[i], r2)]
        other = [row[:] for row in A]
        other[i] = r2
        assert perm_numeric(mixed) == alpha * perm_numeric(A) + beta * perm_numeric(other)


def test_perm_non_square_raises():
    with pytest.raises(StructuralError):
        perm_numeric([[1, 2, 3], [4, 5, 6]])


# ---------------------------------------------------------------------------
# permanental rank


def test_prk_basics():
    assert prk([[0, 0], [0, 0]]) == 0
    assert prk([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert prk([[0, 1], [1, 0]]) == 2


def test_prk_kirkup_3x4():
    K = kirkup_matrix(3)
    # all 3x3 permanents vanish (oracle above); rows {1,2} x cols {3,4} has
    # permanent 1*2 + (-7)(-4) = 30 != 0
    assert naive_perm([[K[0][2], K[0][3]], [K[1][2], K[1][3]]]) == 30
    assert prk(K) == 2


def ref_prk(A):
    """The largest h with a nonzero h x h permutation-sum sub-permanent."""
    m, n = len(A), len(A[0])
    for h in range(min(m, n), 0, -1):
        for rows in combinations(range(m), h):
            for cols in combinations(range(n), h):
                if naive_perm([[A[i][j] for j in cols] for i in rows]):
                    return h
    return 0


def test_prk_ignores_zero_rows_and_columns():
    rng = random.Random(24)
    for _ in range(80):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = [[rng.choice([0, 0, 0, 1, -1, 2, Fraction(1, 2)]) for _ in range(n)] for _ in range(m)]
        want = ref_prk(A)
        assert prk(A) == want
        padded = [list(r) for r in A]
        for _ in range(rng.randint(1, 3)):
            j = rng.randint(0, len(padded[0]))
            for r in padded:
                r.insert(j, 0)
        for _ in range(rng.randint(1, 3)):
            padded.insert(rng.randint(0, len(padded)), [0] * len(padded[0]))
        assert prk(padded) == want


def test_prk_starts_at_the_term_rank(monkeypatch):
    """One full row and one full column: term rank 2, so the search starts at
    h = 2 instead of visiting nearly all C(24, 12) (rows, columns) pairs."""
    yielded = [0]

    def counting(items, h):
        for t in combinations(items, h):
            yielded[0] += 1
            yield t

    monkeypatch.setattr(permanent, "combinations", counting)
    A = [[1] * 12] + [[1] + [0] * 11 for _ in range(11)]
    assert prk(A) == 2
    assert yielded[0] <= comb(12, 2) ** 2


def test_prk_memo_keeps_only_the_revisited_levels():
    """A [[1, 1], [1, -1]] block and a full row, 3 x 60: term rank 3, prk 2.
    At h = 3 each of the C(60, 3) column triples is visited once, so the
    memo must not keep them; the pairs below them it may keep."""
    n = 60
    A = [[1, 1] + [0] * (n - 2), [1, -1] + [0] * (n - 2), [1] * n]
    tracemalloc.start()
    try:
        assert prk(A) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_prk_matches_reference_on_sparse_matrices():
    """Sparse matrices, where the term rank is often below min(dims), and
    signed ones, where a sub-permanent can cancel below the term rank."""
    rng = random.Random(25)
    B = [[1, 1], [1, -1]]  # term rank 2, prk 1
    Z = [[0, 0], [0, 0]]
    cases = [[B[0] + Z[0], B[1] + Z[1], Z[0] + B[0], Z[1] + B[1]]]  # term rank 4, prk 2
    for _ in range(150):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        cases.append([[rng.choice([0, 0, 0, 0, 1, -1, 2]) for _ in range(n)] for _ in range(m)])
    for A in cases:
        assert prk(A) == ref_prk(A)
    assert prk(cases[0]) == 2


def test_prk_monotone_under_submatrices():
    for _ in range(30):
        m, n = RNG.randint(2, 5), RNG.randint(2, 5)
        A = [[RNG.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        full = prk(A)
        rows = sorted(RNG.sample(range(m), RNG.randint(1, m)))
        cols = sorted(RNG.sample(range(n), RNG.randint(1, n)))
        sub = [[A[i][j] for j in cols] for i in rows]
        assert prk(sub) <= full


# ---------------------------------------------------------------------------
# symbolic permanents and ideals


def test_perm_symbolic_small():
    M = generic_matrix(1, 1)
    assert perm_symbolic(M).text() == "x_1_1"
    M2 = generic_matrix(2, 2)
    R = M2.ring
    assert perm_symbolic(M2) == R.var(1, 1) * R.var(2, 2) + R.var(1, 2) * R.var(2, 1)
    M3 = generic_matrix(3, 3)
    p3 = perm_symbolic(M3)
    assert len(p3.terms) == 6 and all(c == 1 for _, c in p3.terms)


def test_perm_symbolic_capacity():
    with pytest.raises(CapacityError):
        perm_symbolic(generic_matrix(8, 8))


def test_perm_symbolic_agrees_with_numeric_evaluation():
    for n in range(2, 6):
        sym = perm_symbolic(generic_matrix(n, n))
        for _ in range(20):
            A = [[RNG.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            flat = [x for row in A for x in row]
            assert sym.evaluate([flat]) == [naive_perm(A)]


def test_permanental_ideal_2x3_exact_generators():
    gens = permanental_ideal(GenericMatrixSpec(2, 3))
    assert [g.text() for g in gens] == [
        "x_1_2*x_2_1 + x_1_1*x_2_2",
        "x_1_3*x_2_1 + x_1_1*x_2_3",
        "x_1_3*x_2_2 + x_1_2*x_2_3",
    ]


def test_permanental_ideal_counts():
    assert len(permanental_ideal(GenericMatrixSpec(2, 5))) == 10
    assert len(permanental_ideal(GenericMatrixSpec(4, 5))) == 5


def test_permanental_ideal_vanishes_at_kirkup():
    gens = permanental_ideal(GenericMatrixSpec(3, 4))
    flat = [x for row in kirkup_matrix(3) for x in row]
    assert [g.evaluate([flat]) for g in gens] == [[0], [0], [0], [0]]


def test_spec_validation():
    with pytest.raises(StructuralError):
        GenericMatrixSpec(3, 4, h=4)
    with pytest.raises(StructuralError):
        GenericMatrixSpec(3, 4, pattern="hankel2xn")


# ---------------------------------------------------------------------------
# special matrices


def test_hankel_pattern():
    M = hankel_matrix_2xn(3)
    assert [[e.text() for e in r] for r in M.rows] == [
        ["x0", "x1", "x2"],
        ["x1", "x2", "x3"],
    ]


def test_hankel_variable_count_is_bounded():
    """x0 .. xn are n + 1 variables: past MAX_VARS the matrix is refused
    before its names are built (a million names would take about 60 MB)."""
    from permvar.ring import MAX_VARS

    with pytest.raises(CapacityError):
        hankel_matrix_2xn(MAX_VARS)
    assert hankel_matrix_2xn(MAX_VARS - 1).dims == (2, MAX_VARS - 1)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            hankel_matrix_2xn(10**6)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_circulant_patterns():
    H3 = circulant_hankel_matrix(3, 4, 5)
    assert H3[0, 0].text() == "x_1_1"
    assert H3[2, 3].text() == "x_1_1"  # wrap-around corner
    assert [e.text() for e in H3.rows[1]] == ["x_1_2", "x_1_3", "x_1_4", "x_1_5"]
    H4 = circulant_hankel_matrix(4, 5, 5)
    assert [e.text() for e in H4.rows[3]] == ["x_1_4", "x_1_5", "x_1_1", "x_1_2", "x_1_3"]
    C2 = circulant_hankel_matrix(2, 3, 3)
    assert [e.text() for e in C2.rows[1]] == ["x_1_2", "x_1_3", "x_1_1"]


# ---------------------------------------------------------------------------
# Kirkup matrices and generators


def test_kirkup_matrix_displays():
    K = kirkup_matrix(3)
    assert K == [[1, 1, 1, -7], [1, 1, -4, 2], [1, 1, 3, 5]]
    K[0][0] = 9
    assert kirkup_matrix(3)[0][0] == 1  # a fresh list each call
    assert kirkup_matrix(4) == [
        [1, 1, 1, 1, -10],
        [1, 1, 1, 1, -10],
        [1, 1, 1, -6, 6],
        [1, 1, 1, 4, 14],
    ]


def test_kirkup_all_maximal_permanents_vanish():
    for k in range(3, 11):
        rows = kirkup_matrix(k)
        for j in range(k + 1):
            sub = [[r[c] for c in range(k + 1) if c != j] for r in rows]
            assert perm_numeric(sub) == 0


def test_kirkup_needs_k_at_least_3():
    with pytest.raises(PreconditionError):
        kirkup_matrix(2)


def test_derivative_matrix_b1_at_kirkup_point():
    # oracle: six 2x2 permanents by hand, e.g. entry (1,2) = (-4)*5 + 2*3 = -14
    (B1,) = derivative_matrices([kirkup_matrix(3)[1:]])
    assert B1 == [
        [0, -14, 7, -1],
        [-14, 0, 7, -1],
        [7, 7, 0, 2],
        [-1, -1, 2, 0],
    ]
    v = (1, 1, 1, -7)
    assert all(sum(B1[i][j] * v[j] for j in range(4)) == 0 for i in range(4))


def test_derivative_matrices_symmetric_zero_diagonal():
    for _ in range(50):
        k = RNG.randint(3, 6)
        A = [[RNG.randint(-9, 9) for _ in range(k + 1)] for _ in range(k - 1)]
        (B,) = derivative_matrices([A])
        n = len(B)
        assert all(B[i][i] == 0 for i in range(n))
        assert all(B[i][j] == B[j][i] for i in range(n) for j in range(n))
        if k >= 4:
            A2 = [[RNG.randint(-9, 9) for _ in range(k)] for _ in range(k - 2)]
            (L,) = derivative_matrices([A2])
            assert all(L[i][i] == 0 for i in range(k))


def test_derivative_matrices_shape_check():
    with pytest.raises(StructuralError):
        derivative_matrices([[[1, 2], [3, 4]]])
    with pytest.raises(StructuralError):
        derivative_matrices([[[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]]])


def test_derivative_matrix_symbolic_matches_numeric():
    M = generic_matrix(2, 4)
    B = derivative_matrix_symbolic(M)
    A = [[RNG.randint(-9, 9) for _ in range(4)] for _ in range(2)]
    flat = [x for row in A for x in row]
    (num,) = derivative_matrices([A])
    for i in range(4):
        for j in range(4):
            assert B[i, j].evaluate([flat]) == [num[i][j]]


def kirkup_generators(k):
    """Reference: determinantal members of the nondegenerate permanental ideal.

    B_l is the derived matrix of the generic k x (k+1) matrix with row l
    deleted: its entry (i, j) is the partial of the maximal permanent
    omitting column j with respect to x_{l,i}.  Returns (f_list, g_list):
    f_j is the determinant of the partials matrix A_j (row l taken from
    column j of B_l) with its zero column removed (j = 1..k+1), and g_l the
    determinant of B_l (l = 1..k).
    """
    n = k + 1
    M = generic_matrix(k, n)
    B = [
        derivative_matrix_symbolic(PolyMatrix(M.rows[:ell] + M.rows[ell + 1 :]))
        for ell in range(k)
    ]
    f_list = [
        matrix_det(PolyMatrix([[B[ell][i, j] for i in range(n) if i != j] for ell in range(k)]))
        for j in range(n)
    ]
    return f_list, [matrix_det(b) for b in B]


def test_kirkup_generators_structure():
    fs, gs = kirkup_generators(3)
    assert len(fs) == 4 and len(gs) == 3
    # B_1 is the derived matrix of the generic 3x4 matrix without row 1: it is
    # symmetric with a zero diagonal (so each A_j has a zero column j)
    B = derivative_matrix_symbolic(PolyMatrix(generic_matrix(3, 4).rows[1:]))
    for i in range(4):
        assert B[i, i].is_zero()
        for j in range(4):
            assert B[i, j] == B[j, i]
    assert gs[0] == matrix_det(B)
    assert all(not f.is_zero() and f.is_homogeneous() for f in fs + gs)


def test_kirkup_generators_vanish_at_kirkup_matrix():
    fs, gs = kirkup_generators(3)
    flat = [x for row in kirkup_matrix(3) for x in row]
    assert all(f.evaluate([flat]) == [0] for f in fs)
    assert all(g.evaluate([flat]) == [0] for g in gs)


def test_partials_matrix_entries_are_generator_derivatives():
    """Cross-check the derived matrix: for the generic k x (k+1) matrix with
    row one deleted it must equal the literal row-one derivatives of the
    maximal-permanent generators."""
    k = 3
    gens = permanental_ideal(GenericMatrixSpec(k, k + 1))
    B = derivative_matrix_symbolic(PolyMatrix(generic_matrix(k, k + 1).rows[1:]))
    for j in range(1, k + 2):
        # colex generator ordering: position m omits column k+1-m
        perm_j = gens[k + 1 - j]
        for i in range(1, k + 2):
            want = perm_j.diff(f"x_1_{i}")
            assert B[i - 1, j - 1] == want


# ---------------------------------------------------------------------------
# JSON matrices


def test_matrix_json_roundtrip():
    A = [[1, -7], [Fraction(3, 2), 0]]
    assert matrix_from_json('[["1", "-7"], ["3/2", "0"]]') == A
    assert matrix_from_json([[1, 2], [3, 4]]) == [[1, 2], [3, 4]]
    with pytest.raises(StructuralError):
        matrix_from_json([[1], [2, 3]])
