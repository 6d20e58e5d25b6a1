"""The certificate's two Macaulay matrices against symbolic ones built here
as reference:

- the row builder that enumerates each degree's monomials into a dict and
  fills one Python list per shifted generator, from generators already
  mapped into F_p by ``over_prime``;
- the elimination that clears every row below a pivot through boolean-mask
  copies of whole rows.

A list of generators is ranked in its coefficient matrix M_d, which must be
the reference matrix, row for row.  The minors of a matrix are ranked in
E_d = M_d V_d, the values of their degree-d multiples at points, so
rank E_d <= rank M_d: every degree it fills must be full rank in the
symbolic matrix M_d, and points that lose information must give no fill.
The evaluation tests hand lists in as ``one_row(gens)``, the 1 x 1 minors
of their one-row matrix.
"""

import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from permvar import experiments, linalg
from permvar.config import CliConfig
from permvar.errors import PreconditionError
from permvar.experiments import (
    SCRIPT_5X6_A,
    SPARE_POINTS,
    _macaulay_matrix,
    _coefficient_rows,
    _evaluation_matrix,
    _minor_values,
    _script_slice,
    homogeneous_dim0_certificate,
)
from permvar.groebner import over_prime
from permvar.ring import QQ, ZZ, PolyMatrix, PolyRing, VarUniverse, matrix_det, matrix_minors

PRIMES = [7, (1 << 31) - 1, (1 << 61) - 1]


# ---------------------------------------------------------------------------
# reference implementations


def ref_monomials(total, nv):
    if nv == 1:
        yield (total,)
        return
    for e in range(total + 1):
        for rest in ref_monomials(total - e, nv - 1):
            yield (e,) + rest


def ref_rows(gens, d, p):
    """Degree-d Macaulay rows of nonzero homogeneous generators over F_p."""
    m = len(gens[0].ring.universe)
    cols = {mono: i for i, mono in enumerate(ref_monomials(d, m))}
    rows = []
    for g in gens:
        terms = [(g.ring.pack.unpack(k), int(c)) for k, c in g.terms]
        dg = sum(terms[0][0])
        if dg > d:
            continue
        for shift in ref_monomials(d - dg, m):
            row = [0] * len(cols)
            for exps, c in terms:
                row[cols[tuple(e + s for e, s in zip(exps, shift))]] = c % p
            rows.append(row)
    return rows, len(cols)


def ref_masked_rank(mat, p):
    a = np.array(mat, dtype=np.int64) % p
    m, n = a.shape
    row = 0
    for col in range(n):
        if row == m:
            break
        nz = np.nonzero(a[row:, col])[0]
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            a[[row, piv]] = a[[piv, row]]
        inv = pow(int(a[row, col]), p - 2, p)
        a[row] = a[row] * inv % p
        below = a[row + 1 :, col]
        mask = below != 0
        if mask.any():
            a[row + 1 :][mask] = (a[row + 1 :][mask] - np.outer(below[mask], a[row])) % p
        row += 1
    return row


def symbolic_rank(gens, d, p):
    """rank M_d mod p of the generators, from the reference row builder; the
    masked elimination multiplies residues in int64, so past 2**31 the
    pure-Python elimination ranks instead."""
    modp = [g for g in over_prime(gens, p) if g]
    rows, _ = ref_rows(modp, d, p)
    if not rows:
        return 0
    return ref_masked_rank(rows, p) if p < 1 << 31 else linalg.rank_modp(rows, p)


def one_row(gens):
    """A list of generators as the 1 x 1 minors of its one-row matrix: the
    form in which the certificate ranks them by evaluation."""
    return PolyMatrix([list(gens)]), 1


def value_rows(source, p, points):
    """The distinct nonzero value rows of the minors ``source`` = (M, h), as
    the certificate takes them, ``{(degree, values as a tuple): row}``."""
    degrees, values = _minor_values(source, p)
    return {(dg, tuple(v.tolist())): v for dg, v in zip(degrees, values(points)) if v.any()}


def evaluation_rank(source, d, p):
    """``(rank E_d, N_d)`` of the minors ``source`` = (M, h), E_d built as
    the certificate builds it at degree d, from its points for that degree."""
    m = len(source[0].ring.universe)
    ncols = comb(d + m - 1, m - 1)
    points = experiments._certificate_points(p, m, ncols + SPARE_POINTS)
    E = _evaluation_matrix(value_rows(source, p, points), points, d, p)
    return linalg.rank_modp_numpy(E, p), ncols


# ---------------------------------------------------------------------------
# random homogeneous ideals


def random_ideal(rng, nv, domain):
    """2-5 homogeneous forms of degrees 1-4 in ``nv`` variables; some
    coefficients are multiples of 7 and some forms vanish mod 7."""
    R = PolyRing(VarUniverse.free([f"v{i}" for i in range(nv)]), domain)
    gens = []
    for _ in range(rng.randint(2, 5)):
        d = rng.randint(1, 4)
        monos = list(ref_monomials(d, nv))
        scale = 7 if rng.random() < 0.2 else 1
        terms = {}
        for mono in rng.sample(monos, rng.randint(1, len(monos))):
            c = scale * rng.choice([rng.randint(-20, 20), 7 * rng.randint(1, 3)])
            if domain is QQ:
                c = Fraction(c, rng.choice([1, 2, 3, 5]))
            if c:
                terms[mono] = c
        if terms:
            gens.append(R.from_exp_dict(terms))
    return gens


@pytest.mark.parametrize("domain", [ZZ, QQ], ids=["ZZ", "QQ"])
@pytest.mark.parametrize("nv", [2, 3, 4])
@pytest.mark.parametrize("seed", range(8))
def test_macaulay_matrix_matches_row_builder(seed, nv, domain):
    """At each degree from the first, the coefficient M_d is the reference
    matrix of the distinct generators mod p, row for row (in another row
    order), so its rank is the reference rank M_d; and rank E_d <= rank M_d,
    so a degree filled by evaluation is a symbolic fill; at p = 2**31 - 1
    the seeded points are generic and the ranks agree.  Both certificates
    read ZZ/QQ coefficients as over_prime maps them: the evaluation one
    answers with a symbolic fill, and the exact coefficient one with the
    first symbolic fill, at either prime."""
    rng = random.Random(1000 * seed + nv)
    gens = random_ideal(rng, nv, domain)
    if not gens:
        pytest.skip("no generator drawn")
    for p in PRIMES[:2]:
        modp = [g for g in over_prime(gens, p) if g]
        if not modp:
            assert homogeneous_dim0_certificate(one_row(gens), p) is None
            assert homogeneous_dim0_certificate(gens, p) is None
            continue
        degrees, _ = _minor_values(one_row(gens), p)
        assert sorted(dg for dg in degrees if dg >= 0) == sorted(g.total_degree() for g in modp)
        distinct, rows = list({g.terms: g for g in modp}.values()), _coefficient_rows(gens, p)
        assert sorted(dg for dg, _ in rows) == sorted(g.total_degree() for g in distinct)
        start = max(g.total_degree() for g in modp)
        fills = []
        for d in range(start, start + 3):
            ref, ncols = ref_rows(distinct, d, p)
            want = ref_masked_rank(ref, p) if ref else 0
            M = _macaulay_matrix(rows, d, nv, p)
            assert M.dtype == np.int32 and M.shape == (len(ref), ncols)
            assert sorted(M.tolist()) == sorted(ref)
            assert linalg.rank_modp_numpy(M, p) == want
            if d <= p:
                got, _ = evaluation_rank(one_row(gens), d, p)
                assert got <= want <= ncols
                if p > 1 << 30:
                    assert got == want
            fills += [d] * (want == ncols)
        top = min(8, p)
        cert = homogeneous_dim0_certificate(one_row(gens), p, max_degree=top)
        assert cert == homogeneous_dim0_certificate(one_row(modp), p, max_degree=top)
        if cert is not None:
            assert symbolic_rank(modp, cert, p) == comb(cert + nv - 1, nv - 1)
        if p > 1 << 30 and fills:
            # the stall rule needs five ranked degrees, so the first
            # symbolic fill among the first three degrees is the answer
            assert cert == fills[0]
        # no stall within three degrees: the exact answer is the first fill
        exact = homogeneous_dim0_certificate(gens, p, max_degree=start + 2)
        assert exact == (fills[0] if fills else None)


def test_coefficient_codes_past_int64_stay_exact(monkeypatch):
    """In 64 variables the base-2 code of x_0 is 2**63, past int64, so the
    codes are Python ints: the 64 variables still land in 64 distinct
    columns and fill degree 1, and with x_0 bent into x_1 + x_2 the rank
    falls one short."""
    R = PolyRing(VarUniverse.free([f"v{i}" for i in range(64)]), ZZ)
    xs = R.gens()
    M = _macaulay_matrix(_coefficient_rows(xs, 101), 1, 64, 101)
    assert M.tolist() == ref_rows(xs, 1, 101)[0]
    ranked, rank = [], linalg.rank_modp_numpy
    monkeypatch.setattr(
        linalg, "rank_modp_numpy", lambda E, p: ranked.append((E.shape, rank(E, p))) or ranked[-1][1]
    )
    assert homogeneous_dim0_certificate(xs, 101) == 1
    assert homogeneous_dim0_certificate([xs[1] + xs[2]] + xs[1:], 101) is None
    assert ranked == [((64, 64), 64), ((64, 64), 63)]


def test_two_of_the_partials_do_not_fill():
    """script-4x5's three partials at the default seed fill M_40 by one rank
    (``test_script_4x5_above_2_31_never_reaches_rank_modp``).  Without the
    third one's rows M_40 falls 196 short: two curves of degree 14 in the
    projective plane meet in 14 * 14 points, so no degree fills, and the
    certificate of the two, with too few rows to fill up to degree 46,
    ranks nothing there and gives None."""
    p = CliConfig().prime
    rng = random.Random(CliConfig().seed)  # the runner's draw of the slice
    A = [[rng.randrange(19) - 9 for _ in range(12)] for _ in range(3)]
    B = _script_slice(4, A)
    det = matrix_det(B)
    partials = [det.diff(nm) for nm in B.ring.universe.names]
    M = _macaulay_matrix(_coefficient_rows(partials[:2], p), 40, 3, p)
    assert M.shape == (2 * comb(28, 2), comb(42, 2))
    assert comb(42, 2) - linalg.rank_modp_numpy(M, p) == 14 * 14
    assert homogeneous_dim0_certificate(partials[:2], p, max_degree=46) is None


@pytest.mark.parametrize("seed", range(4))
def test_object_dtype_certificate_above_int64_products(seed):
    """Past 2**31 the values are Python ints in object arrays, ranked by the
    pure-Python elimination: the same one-sided oracle, on smaller ideals.
    The coefficient matrices there are the reference ones, in int64."""
    p = PRIMES[2]
    rng = random.Random(7000 + seed)
    gens = random_ideal(rng, 2 + seed % 2, ZZ)
    source, nv = one_row(gens), len(gens[0].ring.universe)
    assert _minor_values(source, p)[1]([(p - 1,) * nv]).dtype == object
    distinct = list({g.terms: g for g in over_prime(gens, p) if g}.values())
    start = max(g.total_degree() for g in gens)
    for d in range(start, start + 2):
        got, ncols = evaluation_rank(source, d, p)
        assert got == symbolic_rank(gens, d, p) <= ncols
        # coefficients: residues past 2**31 still fit int64
        M = _macaulay_matrix(_coefficient_rows(gens, p), d, nv, p)
        assert M.dtype == np.int64 and sorted(M.tolist()) == sorted(ref_rows(distinct, d, p)[0])
    cert = homogeneous_dim0_certificate(source, p, max_degree=8)
    assert cert == homogeneous_dim0_certificate(source, PRIMES[1], max_degree=8)
    if cert is not None:
        assert symbolic_rank(gens, cert, p) == comb(cert + len(gens[0].ring.universe) - 1, cert)


@pytest.mark.parametrize("p", PRIMES)
def test_points_on_a_hyperplane_never_fill(monkeypatch, p):
    """Every point with x_0 = 0 makes every multiple of x_0 vanish, so no
    degree can fill: the certificate must give None, never a fill."""
    R = PolyRing(VarUniverse.free(["x", "y", "z"]), ZZ)
    x, y, z = R.gens()
    ideals = [[x**2, x * y, y**3, z**2], [x * x + y * z, y * y - x * z, z * z]]
    rng = random.Random(p)
    ideals += [random_ideal(rng, 3, ZZ) for _ in range(3)]
    top = min(7, p)
    assert homogeneous_dim0_certificate(one_row(ideals[0]), p, max_degree=top) == 4
    assert homogeneous_dim0_certificate(one_row(ideals[1]), p, max_degree=top) == 4
    points = experiments._certificate_points
    monkeypatch.setattr(
        experiments,
        "_certificate_points",
        lambda p, m, count: [(0,) + pt[1:] for pt in points(p, m, count)],
    )
    for gens in ideals:
        if gens:
            assert homogeneous_dim0_certificate(one_row(gens), p, max_degree=top) is None


def test_certificate_points_are_distinct_and_prefix_stable():
    for p, m in ((7, 3), (7, 4), ((1 << 31) - 1, 4), ((1 << 61) - 1, 3)):
        pts = experiments._certificate_points(p, m, 60)
        assert len(pts) == len(set(pts)) == 60
        assert all(len(pt) == m and all(0 <= c < p for c in pt) for pt in pts)
        assert experiments._certificate_points(p, m, 25) == pts[:25]
    assert sorted(experiments._certificate_points(3, 2, 100)) == [
        (a, b) for a in range(3) for b in range(3)
    ]


@pytest.mark.parametrize("p", PRIMES)
def test_minor_values_are_the_symbolic_minors_at_the_points(p):
    """The numpy minors of a PolyMatrix, row for row, are the values of
    ``matrix_minors`` at the points, and the certificate of (M, h) is the
    certificate of the list of its minors."""
    R = PolyRing(VarUniverse.free(["x", "y", "z"]), ZZ)
    x, y, z = R.gens()
    rng = random.Random(p)

    def form():
        return sum((rng.randint(-9, 9) * v for v in (x, y, z)), R.zero)

    M = PolyMatrix([[form() for _ in range(4)] for _ in range(3)])
    points = experiments._certificate_points(p, 3, 20)
    for h in (1, 2, 3):
        degrees, values = _minor_values((M, h), p)
        got = values(points)
        assert set(degrees) == {h}
        want = [g.evaluate(points) for g in over_prime(matrix_minors(h, M), p)]
        assert got.tolist() == want
        minors = [g for g in matrix_minors(h, M) if g]
        cert = homogeneous_dim0_certificate((M, h), p, max_degree=min(8, p))
        assert cert == homogeneous_dim0_certificate(minors, p, max_degree=min(8, p))
    with pytest.raises(PreconditionError):
        squared = PolyMatrix([[e * e if e == M[0, 0] else e for e in row] for row in M.rows])
        homogeneous_dim0_certificate((squared, 2), p)


@pytest.mark.parametrize("p", PRIMES[1:], ids=["2^31-1", "2^61-1"])
@pytest.mark.parametrize("degree", [2, 3])
def test_minor_values_of_higher_degree_entries_near_the_int64_limit(degree, p):
    """The h x h minors, h = 1, 2, 3, of a matrix of degree-2 or degree-3
    forms whose coefficients are residues near p, against the values of
    ``matrix_minors`` at points led by (p-1, ..., p-1).  At p = 2**31 - 1
    every lane holds residues near p, so each product comes close to 2**62
    in int64; at p >= 2**31 the same values come in an object array."""
    R = PolyRing(VarUniverse.free(["x", "y", "z"]), ZZ)
    rng = random.Random(degree)
    monomials = [R.from_exp_dict({e: 1}) for e in ref_monomials(degree, 3)]

    def form():
        return sum((rng.choice([-1, 1, p - 1, p - 2, rng.randrange(p)]) * m for m in monomials), R.zero)

    M = PolyMatrix([[form() for _ in range(4)] for _ in range(3)])
    points = [(p - 1,) * 3, (p - 1, p - 2, p - 1), (1, p - 1, 0)]
    points += experiments._certificate_points(p, 3, 5)
    for h in (1, 2, 3):
        degrees, values = _minor_values((M, h), p)
        got = values(points)
        assert got.dtype == (np.int64 if p < 1 << 31 else object)
        want = [g.evaluate(points) for g in over_prime(matrix_minors(h, M), p)]
        assert got.tolist() == want
        assert degrees == [h * degree] * len(want)
        assert values(points[:1]).tolist() == [row[:1] for row in want]


def test_certificate_zero_mod_p_generators_are_dropped():
    R = PolyRing(VarUniverse.free(["x", "y"]), ZZ)
    x, y = R.gens()
    gens = [7 * x * y, x**2, y**3, 14 * (x + y)]
    assert sorted(dg for dg, _ in value_rows(one_row(gens), 7, [(1, 2), (3, 4)])) == [2, 3]
    assert homogeneous_dim0_certificate(one_row(gens), 7) == 4
    assert homogeneous_dim0_certificate(one_row(gens), 11) == 3
    # by coefficients: x^2 and y^3 are as many forms as variables, so only
    # Macaulay's degree 1 + 2 + 1 = 4 is ranked mod 7
    assert sorted(dg for dg, _ in _coefficient_rows(gens, 7)) == [2, 3]
    assert homogeneous_dim0_certificate(gens, 7) == 4
    assert homogeneous_dim0_certificate(gens, 11) == 3


@pytest.mark.parametrize("p", [101, (1 << 61) - 1])
def test_certificate_ranks_each_distinct_value_row_once(monkeypatch, p):
    """The 2x2 minors of [[x, y], [x, y], [y, x], [x, 0]] repeat x^2 - y^2
    and -xy, each repeat computed apart; with -x^2 the three distinct rows
    fill degree 2.  The repeats must be dropped and the rest kept: int64
    value rows (p = 101) are keyed by their bytes, and object rows
    (p > 2**31), whose bytes are pointers, by their values."""
    R = PolyRing(VarUniverse.free(["x", "y"]), ZZ)
    x, y = R.gens()
    M = PolyMatrix([[x, y], [x, y], [y, x], [x, R.zero]])
    ranked, rank = [], linalg.rank_modp_numpy
    monkeypatch.setattr(linalg, "rank_modp_numpy", lambda E, q: ranked.append(len(E)) or rank(E, q))
    assert homogeneous_dim0_certificate((M, 2), p) == 2
    assert ranked == [3]


def test_degree_above_the_prime_is_refused():
    """x^p y - x y^p vanishes on all of F_p^m, so no degree above p can fill:
    at p = 3 an ideal that fills only at degree 4 is refused, naming p."""
    R = PolyRing(VarUniverse.free(["x", "y"]), ZZ)
    x, y = R.gens()
    gens = [x**3, y**2]
    assert homogeneous_dim0_certificate(one_row(gens), 5) == 4
    with pytest.raises(PreconditionError, match="prime 3"):
        homogeneous_dim0_certificate(one_row(gens), 3)
    assert homogeneous_dim0_certificate(one_row([x**2, y**2]), 3) == 3
    one = PolyRing(VarUniverse.free(["t"]), ZZ).gen("t")
    assert homogeneous_dim0_certificate(one_row([one**5]), 3) == 5  # one variable: no such form
    # coefficients take no points, so the list itself fills degree 4 mod 3
    assert homogeneous_dim0_certificate(gens, 3) == 4


def test_masked_reference_on_random_matrices():
    rng = random.Random(5)
    for _ in range(40):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        A = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(n)] for _ in range(m)]
        for p in (2, 7, (1 << 31) - 1):
            assert linalg.rank_modp_numpy(A, p) == ref_masked_rank(A, p) == linalg.rank_modp(A, p)


def test_script_5x6_evaluation_matches_symbolic_minors():
    """script-5x6's slice at the default prime: the symbolic 3x3 minors give
    the same 210 distinct minors as the value rows, and the symbolic
    Macaulay ranks equal the evaluation ranks at degrees 12 and 13."""
    p = CliConfig().prime
    M = _script_slice(5, SCRIPT_5X6_A)
    minors = list({q.terms: q for q in over_prime(matrix_minors(3, M), p) if q}.values())
    assert len(minors) == 210
    assert len(value_rows((M, 3), p, experiments._certificate_points(p, 4, SPARE_POINTS))) == 210
    for d, want in ((12, 175), (13, 560)):
        assert evaluation_rank((M, 3), d, p)[0] == want
        assert symbolic_rank(minors, d, p) == want
    assert homogeneous_dim0_certificate((M, 3), p) == 13
