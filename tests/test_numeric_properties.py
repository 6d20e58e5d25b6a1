"""Property tests of the batched numeric probes: ``MPoly.evaluate`` over a
batch of points against the term-by-term reference evaluation,
``MPoly.substitute`` composed with ``evaluate`` against evaluation at the
images' values, and ``linalg.rank_is_one`` against the rank from
elimination.  Skipped when hypothesis is not installed.

Polynomials have three variables with exponents up to 3, so their terms
share leading factors and repeat a variable within a term; a constant term
and the zero polynomial are drawn too.  Batches hold up to six points,
possibly none.  Matrices are products of random factors of inner size 0 to
3, with rows and columns zeroed: zero matrices, outer products u v^T that
are not symmetric, and ranks 2 and 3.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from permvar import linalg  # noqa: E402
from permvar.ring import GF, QQ, ZZ, PolyRing, VarUniverse  # noqa: E402
from test_numeric_layers import ref_evaluate  # noqa: E402
from test_substitution import ref_substitute  # noqa: E402

P = (1 << 31) - 1
DOMAINS = [ZZ, QQ, GF(7), GF(P)]
SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=200)


def scalars(domain):
    ints = st.one_of(st.integers(-9, 9), st.integers(-(P << 1), P << 1))
    if domain is ZZ:
        return ints
    # every denominator is coprime to 7 and to P
    return st.one_of(ints, st.builds(Fraction, st.integers(-9, 9), st.sampled_from([2, 3, 5])))


@st.composite
def polys_and_batches(draw):
    domain = draw(st.sampled_from(DOMAINS))
    ring = PolyRing(VarUniverse.free(["a", "b", "c"]), domain)
    exps = st.tuples(*[st.integers(0, 3)] * 3)
    terms = draw(st.dictionaries(exps, scalars(domain), max_size=12))
    if draw(st.booleans()):
        terms[0, 0, 0] = draw(scalars(domain))
    point = st.lists(scalars(domain), min_size=3, max_size=3)
    return ring.from_exp_dict(terms), draw(st.lists(point, max_size=6))


@SETTINGS
@given(polys_and_batches())
def test_batch_evaluate_matches_reference_point_for_point(case):
    f, batch = case
    want = [ref_evaluate(f, pt) for pt in batch]
    for _ in range(2):  # the second call reuses the compiled program
        got = f.evaluate(batch)
        assert got == want
        assert [type(x) for x in got] == [type(x) for x in want]
    assert f.evaluate(batch[::-1]) == want[::-1]
    assert [v for pt in batch for v in f.evaluate([pt])] == want


@st.composite
def compositions(draw):
    """(f, images, point): f in a, b, c; one image per variable in u, v; a
    point of u, v."""
    domain = draw(st.sampled_from([ZZ, QQ, GF(7), GF(P)]))
    source = PolyRing(VarUniverse.free(["a", "b", "c"]), domain)
    target = PolyRing(VarUniverse.free(["u", "v"]), domain)

    def poly(ring, size, max_exp):
        exps = st.tuples(*[st.integers(0, max_exp)] * len(ring.universe))
        return ring.from_exp_dict(draw(st.dictionaries(exps, scalars(domain), max_size=size)))

    f = poly(source, 8, 3)
    images = [poly(target, 4, 2) for _ in range(3)]
    point = draw(st.lists(scalars(domain), min_size=2, max_size=2))
    return f, images, point


@SETTINGS
@given(compositions())
def test_substitute_then_evaluate_equals_evaluate_at_images(case):
    f, images, point = case
    mapping = dict(enumerate(images))
    # the first pass runs on f before it was ever evaluated
    for _ in range(2):
        composed = f.substitute(mapping, target=images[0].ring)
        values = [g.evaluate([point])[0] for g in images]
        assert composed.evaluate([point]) == f.evaluate([values])
        assert composed == ref_substitute(f, mapping, images[0].ring)


entries = st.one_of(
    st.integers(-4, 4), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
)


@st.composite
def product_matrices(draw):
    m, n, r = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(0, 3))
    left = draw(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=m, max_size=m))
    right = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=r, max_size=r))
    A = [[sum((a * b for a, b in zip(row, col)), 0) for col in zip(*right)] for row in left]
    if r == 0:
        A = [[0] * n for _ in range(m)]
    for j in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        for row in A:
            row[j] = 0
    for i in draw(st.sets(st.integers(0, m - 1), max_size=m)):
        A[i] = [0] * n
    return A


@SETTINGS
@given(product_matrices())
@example([[0, 0, 0], [0, 0, 0]])
@example([[2, 3, -1], [4, 6, -2], [0, 0, 0]])
@example([[0, 0], [0, 5]])
@example([[Fraction(1, 2), 1], [1, 2], [3, 6]])
@example([[1, 2], [2, 4 + 1]])
@example([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
def test_rank_is_one_matches_elimination(A):
    assert linalg.rank_is_one(A) == (linalg.rank_kernel(A)[0] == 1)
