"""Property tests of the exact elimination: ``rank_kernel`` against its own
contract and the mod-p ranks.  Skipped when hypothesis is not installed.

Entries lie in [-5, 5] and matrices are at most 6 x 6, so by Hadamard's bound
every minor has absolute value below (5 * sqrt(6))**6 < 3.4 * 10**6, far below
p = 2**31 - 1: a minor is nonzero mod p exactly when it is nonzero, and the
mod-p ranks must equal the rank over QQ.
"""

from math import gcd

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
