"""Exact linear algebra: ranks, kernels, mod-p elimination."""

import random

import pytest

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


def test_numpy_rank_reduces_before_the_int64_cast():
    # entries past int64 raised OverflowError, and [] raised ValueError,
    # where rank_modp gives 1 and 0
    big = [[2**70, 1], [-(2**80), 3]]
    for A in ([[2**70, 1]], big, [], [[]]):
        assert linalg.rank_modp_numpy(A, 7) == linalg.rank_modp(A, 7)
    assert linalg.rank_modp_numpy([[2**70, 1]], 7) == 1
    assert linalg.rank_modp_numpy([], 7) == 0


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


# ---------------------------------------------------------------------------
# the numpy kernel across column panels, against the pure-Python elimination

W = linalg.PANEL


def _few_rows(rng, p):
    """Fewer rows than a panel's width, over three panels and a bit."""
    return [[rng.randrange(p) for _ in range(3 * W + 5)] for _ in range(20)]


def _zero_panel(rng, p):
    """A whole middle panel of zero columns between two full ones."""
    return [
        [0 if W <= j < 2 * W else rng.randrange(p) for j in range(3 * W)] for _ in range(W + 20)
    ]


def _deficient_panels(rng, p):
    """Each column a multiple of one of every fourth column, so each panel
    has at most a quarter as many pivots as columns."""
    base = [[rng.randrange(p) for _ in range(3 * W // 4)] for _ in range(W + 20)]
    scale = [rng.randrange(1, p) for _ in range(3 * W)]
    return [[row[j // 4] * scale[j] % p for j in range(3 * W)] for row in base]


def _staggered(rng, p):
    """Echelon rows in shuffled order, with no leading column near a panel
    boundary, so the pivot search for the last columns of a panel finds
    nothing and goes on in the next; plus sums of them, which the panel
    products must clear to zero."""
    n = 3 * W
    leads = sorted(rng.sample([j for j in range(n) if abs(j % W - W // 2) < W // 2 - 4], W + 10))
    rows = [
        [0] * c + [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(n - c - 1)]
        for c in leads
    ]
    rows += [[(x + y) % p for x, y in zip(*rng.sample(rows, 2))] for _ in range(20)]
    rng.shuffle(rows)
    return rows


def _largest_residues(rng, p):
    """Unit pivots whose rows end in p - 1, above rows that are p - 1 under
    every pivot: every multiplier and every entry of each panel product's
    right factor is p - 1, the largest residue (products near 2**62 at
    p = 2**31 - 1)."""
    n = 3 * W
    top = [[int(i == j) for j in range(W)] + [p - 1] * (n - W) for i in range(W)]
    below = [[p - 1] * W + [rng.randrange(p) for _ in range(n - W)] for _ in range(W // 2)]
    return top + below


@pytest.mark.parametrize("p", [2, 3, 7, P1])
@pytest.mark.parametrize(
    "build", [_few_rows, _zero_panel, _deficient_panels, _staggered, _largest_residues]
)
def test_numpy_rank_across_panels_matches_pure_python(build, p):
    import numpy as np

    rng = random.Random(p)
    A = build(rng, p)
    assert len(A[0]) > 2 * W
    want = linalg.rank_modp(A, p)
    assert linalg.rank_modp_numpy(A, p) == want
    # a caller's int64 array, with entries outside [0, p), comes back unchanged
    arr = np.array(A, dtype=np.int64) + np.int64(p) * rng.choice([-1, 1])
    before = arr.copy()
    assert linalg.rank_modp_numpy(arr, p) == want
    assert np.array_equal(arr, before)
