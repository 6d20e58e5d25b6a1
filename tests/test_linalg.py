"""Exact linear algebra: ranks, kernels, mod-p elimination."""

import random

from permvar import linalg

RNG = random.Random(1234)
P1 = 2147483647
P2 = 1073741789


def rand_matrix(m, n, lo=-9, hi=9):
    return [[RNG.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def test_rank_vs_rref_pivots():
    for _ in range(50):
        m, n = RNG.randint(1, 6), RNG.randint(1, 6)
        A = rand_matrix(m, n, -4, 4)
        _, pivots = linalg.rref_fraction(A)
        assert linalg.rank(A) == len(pivots)


def test_rank_with_planted_dependencies():
    for _ in range(30):
        m, n = RNG.randint(2, 5), RNG.randint(2, 5)
        A = rand_matrix(m, n)
        A.append([x + y for x, y in zip(A[0], A[-1])])  # dependent row
        assert linalg.rank(A) <= min(m, n)


def test_kernel_basis_annihilates_and_spans():
    for _ in range(40):
        m, n = RNG.randint(1, 5), RNG.randint(1, 6)
        A = rand_matrix(m, n)
        basis = linalg.kernel_basis(A)
        assert len(basis) == n - linalg.rank(A)
        for v in basis:
            assert all(sum(row[j] * v[j] for j in range(n)) == 0 for row in A)
        # primitive integer vectors with positive leading entry
        from math import gcd

        for v in basis:
            g = 0
            for x in v:
                g = gcd(g, x)
            assert g == 1
            lead = next(x for x in v if x != 0)
            assert lead > 0


def test_modp_rank_matches_rational_rank_for_small_entries():
    # entries are tiny, so no accidental divisibility by the word-size primes
    for _ in range(40):
        m, n = RNG.randint(1, 6), RNG.randint(1, 6)
        A = rand_matrix(m, n)
        r = linalg.rank(A)
        assert linalg.rank_modp(A, P1) == r
        assert linalg.rank_modp(A, P2) == r


def test_numpy_rank_matches_pure_python():
    for _ in range(25):
        m, n = RNG.randint(1, 8), RNG.randint(1, 8)
        A = rand_matrix(m, n, -99, 99)
        assert linalg.rank_modp_numpy(A, P1) == linalg.rank_modp(A, P1)


def test_numpy_rank_falls_back_above_int64_range():
    # p >= 2**31: residue products overflow int64, so the numpy kernel must
    # not be used; it gave wrong ranks for these rank-3 matrices
    p = (1 << 61) - 1
    rng = random.Random(61)
    for _ in range(20):
        left = [[rng.randrange(p) for _ in range(3)] for _ in range(6)]
        right = [[rng.randrange(p) for _ in range(6)] for _ in range(3)]
        A = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)] for row in left]
        assert linalg.rank_modp(A, p) == 3
        assert linalg.rank_modp_numpy(A, p) == linalg.rank_modp(A, p)
