"""Exact linear algebra: ranks, kernels, mod-p elimination."""

import random
from fractions import Fraction

import pytest

from permvar import linalg
from permvar.budget import Budget
from permvar.errors import GroebnerTimeout, StructuralError

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


def test_numpy_rank_refuses_non_integer_entries():
    # 0.5 is 4 mod 7, so the first matrix has rank 2 mod 7; an int64 cast
    # truncated it to 0 and returned rank 1
    import numpy as np

    half = [[0.5, 0], [0, 1.0]]
    fraction = np.array([[Fraction(1, 2), 0], [0, 1]], dtype=object)
    for A in (np.array(half), half, np.array(half, dtype=np.float32), fraction):
        for p in (7, (1 << 61) - 1):
            with pytest.raises(StructuralError):
                linalg.rank_modp_numpy(A, p)
    # integer dtypes, and ints of either kind in an object array, are taken
    assert linalg.rank_modp_numpy(np.array([[3, 0], [0, 5]], dtype=np.uint8), 7) == 2
    assert linalg.rank_modp_numpy(np.array([[np.int64(3), 2**70]], dtype=object), 7) == 1


@pytest.mark.parametrize("p", [7, P1])
def test_numpy_rank_of_every_integer_dtype(p):
    """Every signed and unsigned integer dtype gives the rank of the same
    entries as lists, also when p does not fit the dtype: int8 to uint16
    raised OverflowError at p = 2**31 - 1, where NumPy 2 refuses a Python
    int operand that the array's dtype cannot hold."""
    import numpy as np

    A = [[3, 0, 1], [0, 5, 2], [3, 5, 3]]
    assert linalg.rank_modp(A, p) == 2
    dtypes = [np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64]
    for dtype in dtypes:
        a = np.array(A, dtype=dtype)
        assert linalg.rank_modp_numpy(a, p) == 2
        assert a.dtype == dtype and a.tolist() == A
    # the extremes of each narrow signed dtype, against the rank of the lists
    for dtype in (np.int8, np.int16):
        lo, hi = np.iinfo(dtype).min, np.iinfo(dtype).max
        B = [[lo, hi, 1], [hi, lo, 0], [0, 0, 0]]
        assert linalg.rank_modp_numpy(np.array(B, dtype=dtype), p) == linalg.rank_modp(B, p)


def test_elimination_checks_the_open_budget():
    """The pure-Python elimination behind ``rank``, ``rank_kernel``,
    ``rank_modp`` and ``rank_modp_numpy`` past 2**31 checks the open budget
    before each column, in phase ``"elimination"``; with none open it runs."""
    A = [[1, 2, 3, 4], [0, 1, 5, 6], [2, 0, 1, 7]]
    ranks = (linalg.rank, lambda a: linalg.rank_modp(a, P1))
    for rank in (*ranks, lambda a: linalg.rank_modp_numpy(a, (1 << 61) - 1)):
        with pytest.raises(GroebnerTimeout) as err, Budget(-1.0):
            rank(A)
        assert err.value.stats == {"column": 0, "rank": 0, "phase": "elimination"}
        assert rank(A) == 3


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


def _unit_pivots_over_largest(rng, p, n, m_below):
    """W unit pivots whose rows end in p - 1, above ``m_below`` rows that
    are p - 1 under every pivot: every multiplier and every entry of each
    panel product's right factor is p - 1, the largest residue (products
    near 2**62 at p = 2**31 - 1).  Each row below is p - 1 times the sum of
    the pivot rows, which ends in W, plus a multiple of one vector v right
    of the panel, so the rank is W + 1 only if the update clears every
    row's W exactly."""
    top = [[int(i == j) for j in range(W)] + [p - 1] * (n - W) for i in range(W)]
    v = [rng.randrange(p) for _ in range(n - W)]
    scales = [rng.randrange(p) for _ in range(m_below)]
    return top + [[p - 1] * W + [(W + c * x) % p for x in v] for c in scales]


def _largest_residues(rng, p):
    """The largest residues over one tile of rows below the first panel."""
    return _unit_pivots_over_largest(rng, p, 3 * W, W // 2)


def _largest_residues_over_tiles(rng, p):
    """The largest residues with W + 20 rows below the first panel and
    2W + 5 columns right of it: the p - 1 multipliers span two row tiles
    and three column tiles of its update."""
    return _unit_pivots_over_largest(rng, p, 3 * W + 5, W + 20)


@pytest.mark.parametrize("p", [2, 3, 7, P1])
@pytest.mark.parametrize(
    "build",
    [
        _few_rows,
        _zero_panel,
        _deficient_panels,
        _staggered,
        _largest_residues,
        _largest_residues_over_tiles,
    ],
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


# ---------------------------------------------------------------------------
# the recursion's edges, at the smallest prime and the largest the numpy
# kernel takes

B = linalg.BASE


def _zero_left_halves(rng, p):
    """No pivot in the left half of the first panel, nor in the left half
    of any 2 * BASE columns of the second: each of those halves sweeps
    nothing into its right half."""

    def zero(j):
        return j < W // 2 or (W <= j < 2 * W and j % (2 * B) < B)

    return [[0 if zero(j) else rng.randrange(p) for j in range(2 * W + 3)] for _ in range(W + 5)]


def _last_column_pivots(rng, p):
    """Every block of BASE columns zero but in its last column, where its
    one pivot is."""
    return [[rng.randrange(p) if j % B == B - 1 else 0 for j in range(2 * W + B)] for _ in range(W)]


def _fewer_rows_than_a_block(rng, p):
    return [[rng.randrange(p) for _ in range(2 * W + 1)] for _ in range(B - 3)]


def _rank_zero(rng, p):
    """Every entry a multiple of p."""
    return [[p * rng.randint(-3, 3) for _ in range(W + 9)] for _ in range(W + 2)]


def _full_rank(rng, p):
    """Echelon rows with unit leads, shuffled: rank W + 7 at every p."""
    rows = [[0] * i + [1] + [rng.randrange(p) for _ in range(2 * W - i)] for i in range(W + 7)]
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("p", [2, P1])
@pytest.mark.parametrize(
    "build",
    [_zero_left_halves, _last_column_pivots, _fewer_rows_than_a_block, _rank_zero, _full_rank],
)
def test_numpy_rank_recursion_edges_match_pure_python(build, p):
    import numpy as np

    A = build(random.Random(p), p)
    want = linalg.rank_modp(A, p)
    assert want == {_rank_zero: 0, _full_rank: W + 7}.get(build, want)
    arr = np.array(A, dtype=np.int64)
    before = arr.copy()
    assert linalg.rank_modp_numpy(arr, p) == want
    assert np.array_equal(arr, before)


@pytest.mark.parametrize("build", [_largest_residues_over_tiles, _staggered])
def test_every_float64_product_stays_inside_the_exact_bound(build, monkeypatch):
    """Each _submul call, from a half-panel's sweep or a panel's, sums at
    most PANEL terms (the 2**53 bound of its exactness) into a tile of at
    most PANEL * PANEL entries (2**18 multiply-adds, which OpenBLAS runs on
    one thread)."""
    shapes, submul = [], linalg._submul

    def guarded(x, f, f2, lo, hi, p):
        assert f.shape == f2.shape and f.shape[-1] <= W
        assert lo.shape == hi.shape == (f.shape[-1], x.shape[-1])
        assert x.size <= W * W
        shapes.append(x.shape)
        submul(x, f, f2, lo, hi, p)

    monkeypatch.setattr(linalg, "_submul", guarded)
    A = build(random.Random(53), P1)
    assert linalg.rank_modp_numpy(A, P1) == linalg.rank_modp(A, P1)
    assert min(rows for rows, _ in shapes) < W <= max(rows for rows, _ in shapes)


@pytest.mark.parametrize("ndim", [2, 1])
@pytest.mark.parametrize("lo_hi", [(2**16 - 1, 2**15 - 1), (2**16 - 2, 2**15 - 1)])
def test_submul_is_exact_at_the_bound(lo_hi, ndim):
    """_submul at p = 2**31 - 1 with W terms per sum and the largest
    operands its contract allows: f = (p - 1) / 2, the largest centered
    residue, f2 = p - 1, and lo and hi at the maxima of 16-bit halves (whose
    sum is p) or split from p - 1.  Its float64 sums come within 2**39 of
    2**53, and the result must equal the same update in Python ints.
    ``ndim=1`` updates a single row."""
    import numpy as np

    p, n = P1, 2 * W + 5
    rng = random.Random(ndim)
    shape = (W, n) if ndim == 2 else (n,)
    x = np.array([rng.randrange(p) for _ in range(np.prod(shape))], dtype=np.int64).reshape(shape)
    f, f2 = (np.full(shape[:-1] + (W,), float(c)) for c in (p // 2, p - 1))
    lo, hi = (np.full((W, n), float(h)) for h in lo_hi)
    t = W * (p // 2 * lo_hi[0] + (p - 1) * lo_hi[1])
    assert 2**53 - 2**39 < t < 2**53
    want = [(v - t) % p for v in x.ravel().tolist()]
    linalg._submul(x, f, f2, lo, hi, p)
    assert x.ravel().tolist() == want


def _multiplied_tiles(monkeypatch, A, rank, n1):
    """Rank A at P1, which must give ``rank``, and return where each
    _submul call's tile lies in the working array: its first column of A,
    its first position among A's rows, its shape, and whether its rows all
    lie in, or all lie outside, the first n1 columns (read off their
    entries there)."""
    tiles, submul = [], linalg._submul

    def located(x, f, f2, lo, hi, p):
        t = x.base
        at = (x.__array_interface__["data"][0] - t.__array_interface__["data"][0]) // t.itemsize
        c0, j0 = divmod(at, t.shape[1])
        first = t[:n1, j0 : j0 + x.shape[1]].any(0)
        tiles.append((c0, j0, x.shape, bool(first.all()), not first.any()))
        submul(x, f, f2, lo, hi, p)

    monkeypatch.setattr(linalg, "_submul", located)
    assert linalg.rank_modp_numpy(A, P1) == rank
    monkeypatch.setattr(linalg, "_submul", submul)
    return tiles


def _block_diagonal(rng):
    """Dense blocks of 2W and W columns on a block diagonal, rank 3W."""
    n1, n2 = 2 * W, W
    top = [[rng.randrange(P1) for _ in range(n1)] + [0] * n2 for _ in range(n1)]
    bottom = [[0] * n1 + [rng.randrange(P1) for _ in range(n2)] for _ in range(n2)]
    return top, bottom


def test_no_tile_of_the_zero_off_diagonal_block_is_multiplied(monkeypatch):
    """The block-diagonal matrix with its rows interleaved, two of the first
    block to one of the second.  Elimination keeps a row of one block zero
    in the other block's columns (its entries there, and its multipliers of
    the other block's pivots), so the product tile of a column range in one
    block and rows of the other is zero; ranking the rows in leading-column
    order and skipping tiles with an all-zero factor must multiply none of
    them."""
    top, bottom = _block_diagonal(random.Random(7))
    A = [row for rows in zip(top[::2], top[1::2], bottom) for row in rows]
    tiles = _multiplied_tiles(monkeypatch, A, 3 * W, 2 * W)
    assert tiles
    for c0, _, (height, _), rows_first, rows_second in tiles:
        cols_first, cols_second = c0 + height <= 2 * W, c0 >= 2 * W
        assert not (cols_first and rows_second) and not (cols_second and rows_first)


def test_rows_in_any_order_multiply_the_same_tiles(monkeypatch):
    """The work does not depend on the order the caller passes the rows
    in: the block-diagonal matrix with its rows interleaved, and a band of
    rows 8 wide, two leading at each column up to 3W - 8, shuffled,
    multiply the tiles that the same rows in leading-column order do."""
    rng = random.Random(7)
    top, bottom = _block_diagonal(rng)
    n = 3 * W
    band = [
        [0] * i + [rng.randrange(1, P1) for _ in range(8)] + [0] * (n - 8 - i)
        for i in range(n - 7)
        for _ in range(2)
    ]
    for rows, ordered in [
        ([row for rows in zip(top[::2], top[1::2], bottom) for row in rows], top + bottom),
        (rng.sample(band, len(band)), band),
    ]:
        rank = linalg.rank_modp(ordered, P1)
        tiles = _multiplied_tiles(monkeypatch, rows, rank, 2 * W)
        assert tiles and tiles == _multiplied_tiles(monkeypatch, ordered, rank, 2 * W)


# ---------------------------------------------------------------------------
# the staircase: with the rows in lead order, rows from stop[j], the number
# of rows of lead at most j, are zero in column j, so no step reaches them


def _banded(rng, m, n, width):
    """m rows of ``width`` nonzero residues from a lead, the leads spread
    over every column: rank n."""
    rows = []
    for i in range(m):
        c = i * n // m if i < m - n else i - (m - n)
        rows.append([0] * c + [rng.randrange(1, P1) for _ in range(min(width, n - c))])
        rows[-1] += [0] * (n - len(rows[-1]))
    rng.shuffle(rows)
    return rows


def test_numpy_rank_peak_memory_stays_near_the_input():
    """The working array holds int32 residues, and only a block being
    eliminated or a tile being updated is widened: on a banded int32
    matrix of the certificate's size the traced peak stays below 1.6 times
    the input's bytes (an int64 working array alone is twice them)."""
    import tracemalloc

    import numpy as np

    a = np.array(_banded(random.Random(48), 1100, 850, 24), dtype=np.int32)
    tracemalloc.start()
    try:
        assert linalg.rank_modp_numpy(a, P1) == 850
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * a.nbytes


def test_every_step_stays_inside_the_staircase_window(monkeypatch):
    """Each _update target spans at most stop[c] - row rows of A, c the last
    pivot column it applies and row the next free row; and no block of BASE
    columns reads or writes its columns from the stop of its last column on:
    those entries are set to -1, which no residue equals, while the block
    runs, and must come back unchanged."""
    import numpy as np
    from bisect import bisect_right

    rows = _banded(random.Random(9), 3 * W + 40, 3 * W, 6)
    rows += [list(r) for r in rows[:20]] + [[0] * (3 * W)] * 3
    leads = sorted(next((j for j, x in enumerate(r) if x), 3 * W) for r in rows)
    stop = [bisect_right(leads, j) for j in range(3 * W)]
    eliminate, update = linalg._eliminate, linalg._update
    pivots, widths, poisoned = [], [], []

    def bounded_eliminate(t, p, row, c0, c1, piv, *rest):
        pivots[:] = [piv]
        if c1 - c0 > B:
            return eliminate(t, p, row, c0, c1, piv, *rest)
        s = stop[c1 - 1]
        t[c0:c1, s:] = -1
        poisoned.append(t.shape[1] - s)
        row = eliminate(t, p, row, c0, c1, piv, *rest)
        assert (t[c0:c1, s:] == -1).all()
        t[c0:c1, s:] = 0
        return row

    def bounded_update(x, f, b, p):
        piv = pivots[0]
        widths.append((x.shape[1], stop[piv[-1]] - len(piv), x.base.shape[1] - len(piv)))
        update(x, f, b, p)

    monkeypatch.setattr(linalg, "_eliminate", bounded_eliminate)
    monkeypatch.setattr(linalg, "_update", bounded_update)
    assert linalg.rank_modp_numpy(np.array(rows), P1) == linalg.rank_modp(rows, P1) == 3 * W
    assert max(poisoned) > 0 and widths
    assert all(width <= bound for width, bound, _ in widths)
    assert any(bound < below for _, bound, below in widths)
