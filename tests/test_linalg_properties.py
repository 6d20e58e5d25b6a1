"""Property tests of the exact elimination: ``rank_kernel`` against its own
contract and the mod-p ranks, and the numpy mod-p rank against the pure
Python one.  Skipped when hypothesis is not installed.

Entries lie in [-5, 5] and matrices are at most 6 x 6, so by Hadamard's bound
every minor has absolute value below (5 * sqrt(6))**6 < 3.4 * 10**6, far below
p = 2**31 - 1: a minor is nonzero mod p exactly when it is nonzero, and the
mod-p ranks must equal the rank over QQ.
"""

from math import gcd
from operator import mul

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from permvar import linalg  # noqa: E402

P = (1 << 31) - 1

matrices = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda mn: st.lists(
        st.lists(st.integers(-5, 5), min_size=mn[1], max_size=mn[1]),
        min_size=mn[0],
        max_size=mn[0],
    )
)


@settings(derandomize=True, deadline=None, database=None)
@given(matrices)
def test_rank_kernel_contract(A):
    n = len(A[0])
    rank, kernel = linalg.rank_kernel(A)
    assert rank + len(kernel) == n
    for v in kernel:
        assert len(v) == n
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in A)
        assert gcd(*v) == 1
        assert next(x for x in v if x) > 0
    if kernel:
        assert linalg.rank(kernel) == len(kernel)
    assert linalg.rank_modp(A, P) == rank
    assert linalg.rank_modp_numpy(A, P) == rank


# The numpy kernel against rank_modp: low-rank products with zeroed columns
# and rows, entries either small or full residues (whose products come
# within a factor 2 of the int64 limit at p = 2**31 - 1), over small primes
# (where ranks drop often), p = 2**31 - 1 and one prime past the int64
# kernel's bound, which must take the pure-Python path.
PRIMES = [2, 3, 7, P, (1 << 61) - 1]


@st.composite
def modp_matrices(draw):
    p = draw(st.sampled_from(PRIMES))
    m, n, r = draw(st.integers(1, 9)), draw(st.integers(1, 9)), draw(st.integers(0, 9))
    entry = st.one_of(st.integers(-3, 3), st.integers(0, p - 1))
    left = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=m, max_size=m))
    right = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=r, max_size=r))
    A = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)] for row in left]
    if r == 0:
        A = [[0] * n for _ in range(m)]
    for j in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        for row in A:
            row[j] = 0
    for i in draw(st.sets(st.integers(0, m - 1), max_size=m)):
        A[i] = [0] * n
    return A, p


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(modp_matrices())
def test_rank_modp_numpy_matches_rank_modp(case):
    A, p = case
    rank = linalg.rank_modp(A, p)
    assert linalg.rank_modp_numpy(A, p) == rank
    if p < 1 << 31:
        import numpy as np

        assert linalg.rank_modp_numpy(np.array(A, dtype=np.int64), p) == rank


# The numpy kernel across several column panels: 2 to 3 panels of columns,
# fewer or more rows than a panel, ranks below and above a panel's width,
# optionally a whole panel of zero columns and a run of zero columns that
# straddles a panel boundary.  Entries are built from a drawn seed, so a
# 200-column matrix costs hypothesis one integer.
W = linalg.PANEL


@st.composite
def multipanel_matrices(draw):
    import random

    p = draw(st.sampled_from([2, 3, 7, P]))
    m = draw(st.sampled_from([W + 3, 1, 2 * W + 5, 5, W - 1]))
    n = draw(st.integers(2 * W + 1, 3 * W))
    r = min(m, draw(st.sampled_from([W + 2, 0, 2 * W + 5, 1, W // 2, W - 2])))
    full = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32)))
    entry = (lambda: rng.randrange(p)) if full else (lambda: rng.randint(-3, 3))
    left = [[entry() for _ in range(r)] for _ in range(m)]
    right = [[entry() for _ in range(n)] for _ in range(r)]
    A = [[sum(map(mul, row, col)) % p for col in zip(*right)] for row in left]
    if r == 0:
        A = [[0] * n for _ in range(m)]
    zeros = set()
    if draw(st.booleans()):
        zeros |= set(range(W, 2 * W))
    if draw(st.booleans()):
        zeros |= set(range(W - 3, W + 2))
    for row in A:
        for j in zeros:
            row[j] = 0
    return A, p


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(multipanel_matrices())
def test_rank_modp_numpy_matches_rank_modp_across_panels(case):
    import numpy as np

    A, p = case
    arr = np.array(A, dtype=np.int64) - p  # negative entries, as a caller may pass
    before = arr.copy()
    assert linalg.rank_modp_numpy(arr, p) == linalg.rank_modp(A, p)
    assert np.array_equal(arr, before)


# The numpy kernel on sparse matrices over at least three panels of columns:
# banded rows on a staircase of leading columns, or dense blocks on a
# block diagonal, with the rows shuffled.  Entries are small, full residues,
# residues minus p or nonzero multiples of p (0 mod p, but not 0), passed in
# int32, int64 or object dtype.  Ranking rows in leading-column order and
# skipping all-zero tiles must give the pure-Python rank and leave the
# caller's array as it was.
SPARSE_PRIMES = [P, 1073741789, 2, 3, 7]


@st.composite
def sparse_matrices(draw):
    import random

    p = draw(st.sampled_from(SPARSE_PRIMES))
    dtype = draw(st.sampled_from(["int32", "int64", "object"]))
    banded = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = rng.randint(2 * W + 1, 3 * W + 8)

    def entry():
        return rng.choice([rng.randint(-3, 3), rng.randrange(p), rng.randrange(p) - p, p, -p])

    if banded:
        width, m = rng.randint(1, 6), rng.randint(W // 2, W + 40)
        leads = sorted(rng.randrange(n) for _ in range(m))
        A = [[entry() if c <= j < c + width else 0 for j in range(n)] for c in leads]
    else:
        cuts = sorted(rng.sample(range(1, n), rng.randint(1, 3)))
        A = []
        for lo, hi in zip([0, *cuts], [*cuts, n]):
            for _ in range(rng.randint(1, min(hi - lo, 24) + 4)):
                A.append([entry() if lo <= j < hi else 0 for j in range(n)])
    rng.shuffle(A)
    return A, p, dtype


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(sparse_matrices())
def test_rank_modp_numpy_matches_rank_modp_on_sparse_matrices(case):
    import numpy as np

    A, p, dtype = case
    arr = np.array(A, dtype=dtype)
    before = arr.copy()
    assert linalg.rank_modp_numpy(arr, p) == linalg.rank_modp(A, p)
    assert np.array_equal(arr, before) and arr.dtype == before.dtype


# The numpy kernel on staircases, where every step is bounded by the rows of
# lead at most its column: banded rows on few distinct leads (so leads
# repeat), duplicated rows, zero rows, and rows that are sums of two others
# mod p (so the rank drops), shuffled.  Band entries are residues, small
# integers or nonzero multiples of p (0 mod p, so a row's integer lead may
# be 0 mod p), or all p - 1, the largest residue, which every write-back of
# the int32 working array must keep.
STAIRCASE_PRIMES = [2, 3, 1073741789, P]


@st.composite
def staircases(draw):
    import random

    p = draw(st.sampled_from(STAIRCASE_PRIMES))
    largest = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = rng.randint(2 * W + 1, 3 * W + 8)
    width, m = rng.randint(1, 12), rng.randint(W // 2, W + 40)
    starts = rng.sample(range(n), rng.randint(2, n // 3))

    def entry():
        if largest:
            return p - 1
        return rng.choice([rng.randrange(p), rng.randint(-3, 3), p, -p])

    A = []
    for c in sorted(rng.choice(starts) for _ in range(m)):
        A.append([0] * c + [rng.randrange(1, p)] + [entry() for _ in range(width)])
        A[-1] = (A[-1] + [0] * n)[:n]
    A += [list(rng.choice(A)) for _ in range(rng.randint(0, 10))]
    A += [[0] * n for _ in range(rng.randint(0, 5))]
    A += [[(x + y) % p for x, y in zip(*rng.sample(A, 2))] for _ in range(rng.randint(0, 10))]
    rng.shuffle(A)
    return A, p, draw(st.sampled_from(["int32", "int64"]))


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(staircases())
def test_rank_modp_numpy_matches_rank_modp_on_staircases(case):
    import numpy as np

    A, p, dtype = case
    arr = np.array(A, dtype=dtype)
    before = arr.copy()
    assert linalg.rank_modp_numpy(arr, p) == linalg.rank_modp(A, p)
    assert np.array_equal(arr, before)
