"""The evaluation certificate against the symbolic Macaulay matrices it
replaced, built here as reference:

- the row builder that enumerates each degree's monomials into a dict and
  fills one Python list per shifted generator, from generators already
  mapped into F_p by ``over_prime``;
- the elimination that clears every row below a pivot through boolean-mask
  copies of whole rows.

The certificate ranks E_d = M_d V_d, the values of the degree-d multiples of
the generators at points, so rank E_d <= rank M_d: every degree it fills
must be full rank in the symbolic matrix M_d, and points that lose
information must give no fill.
"""

import os
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
    _distinct,
    _evaluation_matrix,
    _minor_values,
    _script_slice,
    homogeneous_dim0_certificate,
)
from permvar.groebner import over_prime
from permvar.ring import QQ, ZZ, PolyMatrix, PolyRing, VarUniverse, matrix_minors

PRIMES = [7, (1 << 31) - 1, (1 << 61) - 1]
EXTENDED = os.environ.get("PERMVAR_TIER") == "extended"


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


def value_rows(gens, p, points):
    """The distinct nonzero value rows, keyed as the certificate keys them:
    ``{(degree, values): row}``."""
    degrees, values = _minor_values(gens, p, points)
    return {(dg, tuple(v.tolist())): v for dg, v in zip(degrees, values) if v.any()}


def evaluation_rank(gens, d, p):
    """``(rank E_d, N_d)``, E_d built as the certificate builds it at degree
    d, from its points for that degree."""
    m = len(gens[0].ring.universe)
    ncols = comb(d + m - 1, m - 1)
    points = experiments._certificate_points(p, m, ncols + SPARE_POINTS)
    E = _evaluation_matrix(value_rows(gens, p, points), points, d, p)
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
    """At each degree from the first, rank E_d <= rank M_d of the reference
    rows, so a degree filled by evaluation is a symbolic fill; at
    p = 2**31 - 1 the seeded points are generic and the ranks agree.  The
    certificate's answer is a symbolic fill, and it reads ZZ/QQ coefficients
    as over_prime maps them."""
    rng = random.Random(1000 * seed + nv)
    gens = random_ideal(rng, nv, domain)
    if not gens:
        pytest.skip("no generator drawn")
    for p in PRIMES[:2]:
        modp = [g for g in over_prime(gens, p) if g]
        if not modp:
            assert homogeneous_dim0_certificate(gens, p) is None
            continue
        degrees, _ = _minor_values(gens, p, [])
        assert sorted(dg for dg in degrees if dg >= 0) == sorted(g.total_degree() for g in modp)
        start = max(g.total_degree() for g in modp)
        fills = []
        for d in range(start, min(start + 3, p + 1)):
            got, ncols = evaluation_rank(gens, d, p)
            want = symbolic_rank(modp, d, p)
            assert got <= want <= ncols
            if p > 1 << 30:
                assert got == want
            fills += [d] * (want == ncols)
        top = min(8, p)
        cert = homogeneous_dim0_certificate(gens, p, max_degree=top)
        assert cert == homogeneous_dim0_certificate(modp, p, max_degree=top)
        if cert is not None:
            assert symbolic_rank(modp, cert, p) == comb(cert + nv - 1, nv - 1)
        if p > 1 << 30 and fills:
            # the stall rule needs five ranked degrees, so the first
            # symbolic fill among the first three degrees is the answer
            assert cert == fills[0]


@pytest.mark.parametrize("seed", range(4))
def test_object_dtype_certificate_above_int64_products(seed):
    """Past 2**31 the values are Python ints in object arrays, ranked by the
    pure-Python elimination: the same one-sided oracle, on smaller ideals."""
    p = PRIMES[2]
    rng = random.Random(7000 + seed)
    gens = random_ideal(rng, 2 + seed % 2, ZZ)
    assert _minor_values(gens, p, [(p - 1,) * len(gens[0].ring.universe)])[1].dtype == object
    start = max(g.total_degree() for g in gens)
    for d in range(start, start + 2):
        got, ncols = evaluation_rank(gens, d, p)
        assert got == symbolic_rank(gens, d, p) <= ncols
    cert = homogeneous_dim0_certificate(gens, p, max_degree=8)
    assert cert == homogeneous_dim0_certificate(gens, PRIMES[1], max_degree=8)
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
    assert homogeneous_dim0_certificate(ideals[0], p, max_degree=top) == 4
    assert homogeneous_dim0_certificate(ideals[1], p, max_degree=top) == 4
    points = experiments._certificate_points
    monkeypatch.setattr(
        experiments,
        "_certificate_points",
        lambda p, m, count: [(0,) + pt[1:] for pt in points(p, m, count)],
    )
    for gens in ideals:
        if gens:
            assert homogeneous_dim0_certificate(gens, p, max_degree=top) is None


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
        degrees, got = _minor_values((M, h), p, points)
        assert set(degrees) == {h}
        want = [g.evaluate(points) for g in over_prime(matrix_minors(h, M), p)]
        assert got.tolist() == want
        minors = [g for g in matrix_minors(h, M) if g]
        cert = homogeneous_dim0_certificate((M, h), p, max_degree=min(8, p))
        assert cert == homogeneous_dim0_certificate(minors, p, max_degree=min(8, p))
    with pytest.raises(PreconditionError):
        homogeneous_dim0_certificate((M.map(lambda e: e * e if e == M[0, 0] else e), 2), p)


def test_certificate_zero_mod_p_generators_are_dropped():
    R = PolyRing(VarUniverse.free(["x", "y"]), ZZ)
    x, y = R.gens()
    gens = [7 * x * y, x**2, y**3, 14 * (x + y)]
    assert sorted(dg for dg, _ in value_rows(gens, 7, [(1, 2), (3, 4)])) == [2, 3]
    assert homogeneous_dim0_certificate(gens, 7) == 4
    assert homogeneous_dim0_certificate(gens, 11) == 3


def test_degree_above_the_prime_is_refused():
    """x^p y - x y^p vanishes on all of F_p^m, so no degree above p can fill:
    at p = 3 an ideal that fills only at degree 4 is refused, naming p."""
    R = PolyRing(VarUniverse.free(["x", "y"]), ZZ)
    x, y = R.gens()
    gens = [x**3, y**2]
    assert homogeneous_dim0_certificate(gens, 5) == 4
    with pytest.raises(PreconditionError, match="prime 3"):
        homogeneous_dim0_certificate(gens, 3)
    assert homogeneous_dim0_certificate([x**2, y**2], 3) == 3
    one = PolyRing(VarUniverse.free(["t"]), ZZ).gen("t")
    assert homogeneous_dim0_certificate([one**5], 3) == 5  # one variable: no such form


def test_masked_reference_on_random_matrices():
    rng = random.Random(5)
    for _ in range(40):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        A = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(n)] for _ in range(m)]
        for p in (2, 7, (1 << 31) - 1):
            assert linalg.rank_modp_numpy(A, p) == ref_masked_rank(A, p) == linalg.rank_modp(A, p)


@pytest.mark.skipif(not EXTENDED, reason="extended tier only (set PERMVAR_TIER=extended)")
def test_script_5x6_evaluation_matches_symbolic_minors():
    """script-5x6's slice at the default prime: the symbolic 3x3 minors give
    the same 210 distinct minors as the value rows, and the symbolic
    Macaulay ranks equal the evaluation ranks at degrees 12 and 13."""
    p = CliConfig().prime
    M = _script_slice(5, SCRIPT_5X6_A)
    minors = _distinct(over_prime(matrix_minors(3, M), p))
    assert len(minors) == 210
    assert len(value_rows((M, 3), p, experiments._certificate_points(p, 4, SPARE_POINTS))) == 210
    for d, want in ((12, 175), (13, 560)):
        assert evaluation_rank((M, 3), d, p)[0] == want
        assert symbolic_rank(minors, d, p) == want
    assert homogeneous_dim0_certificate((M, 3), p) == 13
