"""Differential tests of the numeric layers against their earlier reference
implementations, copied here:

- term-by-term evaluation that unpacks every monomial key on each call;
- per-term substitution (``test_substitution.ref_substitute``);
- classical ``Fraction`` Gauss-Jordan elimination for rank, RREF and kernel;
- derived sub-permanent matrices from one Ryser permanent per column pair.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest

import permvar
from permvar import linalg
from permvar.errors import StructuralError
from permvar.groebner import over_prime
from permvar.permanent import (
    GenericMatrixSpec,
    derivative_matrices,
    perm_numeric,
    permanental_ideal,
)
from permvar.ring import GF, QQ, ZZ, PolyRing, VarUniverse
from permvar.torus import classify_type, jacobian, jacobian_rank_at
from test_substitution import ref_substitute

P = 2147483647


# ---------------------------------------------------------------------------
# reference implementations


def ref_evaluate(f, point):
    dom = f.ring.domain
    point = [dom.coerce(x) for x in point]
    pack = f.ring.pack
    total = dom.coerce(0)
    if dom.kind == "fp":
        p = dom.modulus
        for k, c in f.terms:
            v = c
            for i, e in enumerate(pack.unpack(k)):
                if e:
                    v = v * pow(point[i], e, p) % p
            total = (total + v) % p
        return total
    for k, c in f.terms:
        v = c
        for i, e in enumerate(pack.unpack(k)):
            if e:
                v *= point[i] ** e
        total += v
    return total


def ref_rref_fraction(rows):
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    row = 0
    for col in range(n):
        piv = None
        for i in range(row, m):
            if a[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = a[row][col]
        a[row] = [x / inv for x in a[row]]
        for i in range(m):
            if i != row and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    return a, pivots


def ref_primitive(vec):
    den = 1
    for x in vec:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return ints


def ref_kernel_basis(rows):
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m == 0:
        return [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    a, pivots = ref_rref_fraction(rows)
    basis = []
    for f in [j for j in range(n) if j not in pivots]:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -a[r][f]
        basis.append(ref_primitive(v))
    return basis


def ref_derivative_matrices(p):
    n = len(p[0])
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            cols = [c for c in range(n) if c != i and c != j]
            val = perm_numeric([[row[c] for c in cols] for row in p])
            out[i][j] = val
            out[j][i] = val
    return out


# ---------------------------------------------------------------------------
# evaluation


def random_poly(ring, rng, nterms, max_exp, coeff):
    n = len(ring.universe)
    mapping = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(0, max_exp) for _ in range(n))
        mapping[exps] = coeff(rng)
    return ring.from_exp_dict(mapping)


@pytest.mark.parametrize(
    "domain, coeff, scalar",
    [
        (ZZ, lambda r: r.randint(-50, 50), lambda r: r.randint(-9, 9)),
        (QQ, lambda r: Fraction(r.randint(-50, 50), r.randint(1, 7)),
         lambda r: Fraction(r.randint(-9, 9), r.randint(1, 5))),
        (GF(P), lambda r: r.randrange(P), lambda r: r.randrange(P)),
        (GF(101), lambda r: r.randrange(101), lambda r: Fraction(r.randint(-9, 9), 2)),
    ],
)
def test_evaluate_matches_reference(domain, coeff, scalar):
    rng = random.Random(7)
    ring = PolyRing(VarUniverse.free(["a", "b", "c", "d"]), domain)
    for _ in range(40):
        f = random_poly(ring, rng, rng.randint(0, 12), rng.randint(1, 5), coeff)
        for _ in range(3):  # the same object, evaluated again
            batch = [[scalar(rng) for _ in range(4)] for _ in range(3)]
            got = f.evaluate(batch)
            want = [ref_evaluate(f, pt) for pt in batch]
            assert got == want and [type(x) for x in got] == [type(x) for x in want]


def test_evaluate_zero_polynomial_and_length_check():
    for domain in (ZZ, QQ, GF(P)):
        ring = PolyRing(VarUniverse.free(["x", "y"]), domain)
        zero = ring.zero
        for _ in range(2):
            assert zero.evaluate([[3, 4], [5, 6]]) == [domain.coerce(0)] * 2
            assert type(zero.evaluate([[3, 4]])[0]) is type(domain.coerce(0))
        f = ring.gen(0) ** 3 * ring.gen(1) ** 2 + 5
        assert f.evaluate([[2, 3]]) == [ref_evaluate(f, [2, 3])]
        assert f.evaluate([]) == [] and ring.const(7).evaluate([[1, 1], [0, 0]]) == [7, 7]
        # a plain list, truthy when every value is zero (lanes would be falsy)
        for g in (zero, ring.gen(0), f - 5):
            values = g.evaluate([[0, 0], [0, 1]])
            assert type(values) is list and values and not any(values)
        for bad in ([[1, 2, 3]], [[1]], [[1, 2], [1]], [1, 2]):
            with pytest.raises(StructuralError):
                f.evaluate(bad)


def horner_cases(ring):
    """The zero polynomial, the constant 1, a constant term, exponents above
    1, and two subtrees alike but for one coefficient."""
    w, x, y, z = ring.gens()
    return [
        ring.zero,
        ring.one,
        ring.const(5),
        x * (y + z) + w * (y + 2 * z),
        x**3 * y**2 - 3 * x * y**2 + 4 * w - 7,
        (x + y + 1) ** 4 + w * z,
    ]


@pytest.mark.parametrize(
    "domain, coeff",
    [
        (ZZ, lambda r: r.randint(-50, 50)),
        (QQ, lambda r: Fraction(r.randint(-50, 50), r.randint(1, 7))),
        (GF(P), lambda r: r.randrange(P)),
        (GF(7), lambda r: r.randrange(7)),
    ],
)
def test_horner_program_matches_naive_sum(domain, coeff):
    """evaluate against the term-by-term sum of c * x^e, and substitute with
    polynomial images against the per-term product, on the same program."""
    rng = random.Random(13)
    ring = PolyRing(VarUniverse.free(["w", "x", "y", "z"]), domain)
    target = PolyRing(VarUniverse.free(["s", "t"]), domain)
    polys = horner_cases(ring) + [
        random_poly(ring, rng, rng.randint(0, 15), max_exp, coeff)
        for max_exp in (1, 2, 3)
        for _ in range(15)
    ]
    for f in polys:
        batch = [[coeff(rng) for _ in range(4)] for _ in range(3)]
        assert f.evaluate(batch) == [ref_evaluate(f, pt) for pt in batch]
        images = {v: random_poly(target, rng, rng.randint(0, 3), 2, coeff) for v in "wxyz"}
        assert f.substitute(images, target=target) == ref_substitute(f, images, target)
        assert f.substitute({}) == f
    # the subtrees under w and x differ in z's coefficient: a leaf 2, a
    # node each for w and x, and the root
    assert len(horner_cases(ring)[3]._compile()[1]) == 4


@pytest.mark.parametrize("n", range(2, 8))
def test_permanent_program_shares_column_subsets(n):
    """The terms of the n x n permanent left after its first rows are the
    permanent of the columns left, so the program has one node per nonempty
    column set and an edge per column in it: n * 2^(n-1) products."""
    f = permanental_ideal(GenericMatrixSpec(n, n))[0]
    nodes = f._compile()[1]
    assert len(nodes) == 2**n - 1
    assert sum(len(edges) for _, edges in nodes) == n * 2 ** (n - 1)


def test_deep_term_compiles_without_recursion():
    for domain in (ZZ, GF(P)):
        ring = PolyRing(VarUniverse.free(["x", "y"]), domain)
        x, y = ring.gens()
        f = x**3000 * y + 1
        assert f.evaluate([[1, 2], [-1, 5], [2, 0]]) == [3, 6, 1]
        assert f.substitute({"y": 2}) == 2 * x**3000 + 1
        assert f.substitute({"x": y}) == y**3001 + 1


# ---------------------------------------------------------------------------
# one elimination: rank, kernel and RREF


def random_matrix(rng, m, n, entry):
    """Random m x n matrix of low rank, with some zero rows and columns."""
    r = rng.randint(0, min(m, n))
    left = [[entry(rng) for _ in range(r)] for _ in range(m)]
    right = [[entry(rng) for _ in range(n)] for _ in range(r)]
    A = [[sum((a * b for a, b in zip(row, col)), 0) for col in zip(*right)] for row in left]
    if r == 0:
        A = [[0] * n for _ in range(m)]
    for _ in range(rng.randint(0, 2)):
        A[rng.randrange(m)] = [0] * n
    for _ in range(rng.randint(0, 2)):
        j = rng.randrange(n)
        for row in A:
            row[j] = 0
    rng.shuffle(A)
    return A


ENTRIES = {
    "int": lambda r: r.randint(-9, 9),
    "fraction": lambda r: Fraction(r.randint(-9, 9), r.randint(1, 6)),
}


@pytest.mark.parametrize("kind", sorted(ENTRIES))
def test_rank_kernel_matches_fraction_rref(kind):
    rng = random.Random(2024)
    entry = ENTRIES[kind]
    for _ in range(300):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        A = random_matrix(rng, m, n, entry)
        rref, pivots = ref_rref_fraction(A)
        kernel = ref_kernel_basis(A)
        assert linalg.rank_kernel(A) == (len(pivots), kernel)
        assert linalg.rank(A) == len(pivots)
        assert linalg.kernel_basis(A) == kernel
        assert linalg.rref_fraction(A) == (rref, pivots)


def test_rank_kernel_extremes():
    assert linalg.rank_kernel([[0, 0, 0], [0, 0, 0]]) == (0, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert linalg.rank_kernel([[2, 0], [0, -3]]) == (2, [])
    assert linalg.rank_kernel([[Fraction(1, 2), Fraction(1, 3)]]) == (1, [[2, -3]])
    assert linalg.rank_kernel([]) == (0, [])
    identity = [[int(i == j) for j in range(5)] for i in range(5)]
    assert linalg.rref_fraction(identity) == ref_rref_fraction(identity)
    with pytest.raises(StructuralError):
        linalg.rank_kernel([[1, 2], [3]])


# ---------------------------------------------------------------------------
# derived matrices: one column-subset DP against per-pair Ryser


@pytest.mark.parametrize("mode", ["B1", "L"])
def test_derivative_matrices_match_per_pair_ryser(mode):
    """Both torus modes read the same derived matrix: the report under
    either label gives the rank and kernel of the per-pair Ryser matrix."""
    rng = random.Random(99 if mode == "B1" else 100)
    for m in range(1, 6):
        for _ in range(30):
            density = rng.choice([0.3, 0.7, 1.0])
            A = [
                [rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(m + 2)]
                for _ in range(m)
            ]
            want = ref_derivative_matrices(A)
            assert derivative_matrices([A]) == [want]
            rep = classify_type(A, mode)
            assert rep.mode == mode
            assert rep.rank == len(ref_rref_fraction(want)[1])
            assert [list(v) for v in rep.kernel_basis] == ref_kernel_basis(want)
    zero = [[0] * 5 for _ in range(3)]
    assert derivative_matrices([zero]) == [ref_derivative_matrices(zero)]


def test_derivative_matrices_fraction_entries():
    rng = random.Random(5)
    for _ in range(20):
        A = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(5)] for _ in range(3)]
        assert derivative_matrices([A]) == [ref_derivative_matrices(A)]


def random_probe_batch(rng, count, m, entry):
    """``count`` random m x (m+2) points, some entries zero."""
    return [
        [[entry(rng) if rng.random() < 0.7 else 0 for _ in range(m + 2)] for _ in range(m)]
        for _ in range(count)
    ]


@pytest.mark.parametrize(
    "entry",
    [lambda r: r.randint(-9, 9), lambda r: Fraction(r.randint(-5, 5), r.randint(1, 4))],
    ids=["int", "fraction"],
)
def test_batched_derivative_matrices_match_per_point_ryser(entry):
    """One lane-batched expansion gives each point the per-pair Ryser
    matrix, in batch order, as plain lists; an all-zero point in a batch
    reads all zeros."""
    rng = random.Random(19)
    for m in range(1, 6):
        for count in (0, 1, 2, 3, 25):
            batch = random_probe_batch(rng, count, m, entry)
            if count > 1:
                batch[rng.randrange(count)] = [[0] * (m + 2) for _ in range(m)]
            got = derivative_matrices(batch)
            assert got == [ref_derivative_matrices(A) for A in batch]
            assert all(type(row) is list for B in got for row in B)
            assert all(type(x) in (int, Fraction) for B in got for row in B for x in row)


def test_batched_derivative_matrices_with_one_lane_zero():
    """Entries and sub-permanents that are zero at one point of a batch and
    nonzero at the others: a zero input entry, a sub-permanent that cancels,
    and a point whose whole derived matrix is zero."""
    batch = [
        [[0, 2, 3]],  # entry (0, 0) zero here only
        [[4, 5, 6]],
        [[7, 0, 0]],
    ]
    assert derivative_matrices(batch) == [ref_derivative_matrices(A) for A in batch]
    batch = [
        [[1, 1, 1, 1], [1, -1, 1, 1]],  # perm over columns {0, 1} cancels to 0
        [[1, 1, 1, 1], [1, 1, 1, 1]],
        [[0, 0, 0, 0], [0, 0, 0, 0]],
    ]
    got = derivative_matrices(batch)
    assert got == [ref_derivative_matrices(A) for A in batch]
    assert got[0][2][3] == 0 and got[1][2][3] == 2 and got[2] == [[0] * 4] * 4


def test_derivative_matrices_refuse_bare_ragged_and_misshaped_batches():
    for bad in (
        [[1, 2, 3]],  # a bare 1 x 3 point
        [[1, 1, -4, 2], [1, 1, 3, 5]],  # a bare 2 x 4 point
        [[Fraction(1, 2), 2, 3]],
        [[[1, 2, 3]], [[1, 2, 3, 4], [5, 6, 7, 8]]],  # points of two shapes
        [[[1, 2, 3]], [[1, 2, 3], [4, 5]]],
        [[[1, 2]], [[3, 4]]],  # not m x (m+2)
        [[[1, 2, 3], [4, 5, 6]], [[1, 2, 3], [4, 5, 6]]],
        [[[1, 2, 3], [4, 5]]],
        [[]],
    ):
        with pytest.raises(StructuralError):
            derivative_matrices(bad)


# ---------------------------------------------------------------------------
# Jacobian built once per family


def test_jacobian_built_once_gives_same_ranks():
    """One Jacobian probed at many points gives, at each, the rank of the
    derivatives evaluated there (ranked by the independent numpy kernel)."""
    rng = random.Random(3)
    p = 32003
    gens = over_prime(permanental_ideal(GenericMatrixSpec(2, 4)), p)
    jac = jacobian(gens)
    assert jac.dims == (len(gens), 8)
    for _ in range(10):
        pt = [rng.randrange(p) for _ in range(8)]
        direct = [[f.diff(i).evaluate([pt])[0] for i in range(8)] for f in gens]
        assert jacobian_rank_at(jac, [pt]) == [linalg.rank_modp_numpy(direct, p)]


# ---------------------------------------------------------------------------
# the numeric probes stay in pure Python

NUMERIC_PROBE_CASES = [
    "perm-engines-agree", "rank-never-one", "derivative-symmetry", "jacobian-independence",
    "jacobian-dependence-2x5", "kirkup-vanish", "kirkup-b1-rank", "e-pattern-rank",
    "sing-upper-witness", "symbolic-determinants",
]


def test_numeric_probe_cases_do_not_import_numpy():
    """The ten numeric-probe cases pass at the default seed without
    importing numpy, whose import alone raises a process's peak memory by
    about a third of theirs.  Run in a fresh process, since the tests in
    this one import it."""
    code = (
        "import sys\n"
        "from permvar.experiments import reproduce\n"
        "reports = [reproduce(case) for case in sys.argv[1:]]\n"
        "print(all(r.passed for r in reports), 'numpy' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(permvar.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code, *NUMERIC_PROBE_CASES],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.split() == ["True", "False"]
