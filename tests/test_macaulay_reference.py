"""The certificate's Macaulay matrices against symbolic ones built here as
reference:

- the row builder that enumerates each degree's monomials into a dict and
  fills one Python list per shifted generator, from generators already
  mapped into F_p by ``over_prime``;
- the elimination that clears every row below a pivot through boolean-mask
  copies of whole rows.

Both forms of generators, a list of forms and the h x h minors of a
matrix, are ranked exactly in their coefficient matrices M_d, which must be
the reference matrices, row for row.  The minors' coefficient rows, expanded
over ZZ by ``_minor_rows``, must be the coefficients of ``matrix_minors``.
"""

import random
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from permvar import linalg
from permvar.config import CliConfig
from permvar.errors import CapacityError, PreconditionError
from permvar.experiments import (
    SCRIPT_5X6_A,
    _coefficient_rows,
    _distinct,
    _macaulay_matrix,
    _minor_rows,
    _script_slice,
    homogeneous_dim0_certificate,
)
from permvar.groebner import over_prime, transport
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


def coefficients(polys, d, m):
    """Each homogeneous degree-d polynomial's coefficients over the degree-d
    monomials in ``ref_monomials`` order, a list each (zero for zero)."""
    cols = {mono: i for i, mono in enumerate(ref_monomials(d, m))}
    out = []
    for g in polys:
        row = [0] * len(cols)
        for k, c in g.terms:
            row[cols[g.ring.pack.unpack(k)]] = c
        out.append(row)
    return out


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
    """At each degree from the first, M_d is the reference matrix of the
    distinct generators mod p, row for row (in another row order), so its
    rank is the reference rank.  The certificate reads ZZ/QQ coefficients
    as over_prime maps them, and answers with the first reference fill."""
    rng = random.Random(1000 * seed + nv)
    gens = random_ideal(rng, nv, domain)
    if not gens:
        pytest.skip("no generator drawn")
    for p in PRIMES[:2]:
        modp = [g for g in over_prime(gens, p) if g]
        if not modp:
            assert homogeneous_dim0_certificate(gens, p) is None
            continue
        distinct, rows = list({g.terms: g for g in modp}.values()), _coefficient_rows(gens, p)
        assert sorted(dg for dg, g in rows.items() for _ in g) == sorted(
            g.total_degree() for g in distinct
        )
        start = max(g.total_degree() for g in modp)
        fills = []
        for d in range(start, start + 3):
            ref, ncols = ref_rows(distinct, d, p)
            want = ref_masked_rank(ref, p) if ref else 0
            M = _macaulay_matrix(rows, d, nv, p)
            assert M.dtype == np.int32 and M.shape == (len(ref), ncols)
            assert sorted(M.tolist()) == sorted(ref)
            assert linalg.rank_modp_numpy(M, p) == want
            fills += [d] * (want == ncols)
        # no stall within three degrees: the answer is the first fill
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
def test_certificate_past_2_31_matches_the_row_builder(seed):
    """Past 2**31 the residues still fit int64, so M_d is int64, the
    reference matrix, and is ranked by the pure-Python elimination: its
    rank is the reference rank, and the certificate at 2**61 - 1 answers
    as at 2**31 - 1, with a reference fill."""
    p = PRIMES[2]
    rng = random.Random(7000 + seed)
    gens = random_ideal(rng, 2 + seed % 2, ZZ)
    nv = len(gens[0].ring.universe)
    distinct = list({g.terms: g for g in over_prime(gens, p) if g}.values())
    start = max(g.total_degree() for g in gens)
    for d in range(start, start + 2):
        M = _macaulay_matrix(_coefficient_rows(gens, p), d, nv, p)
        assert M.dtype == np.int64 and sorted(M.tolist()) == sorted(ref_rows(distinct, d, p)[0])
        assert linalg.rank_modp_numpy(M, p) == symbolic_rank(gens, d, p)
    cert = homogeneous_dim0_certificate(gens, p, max_degree=8)
    assert cert == homogeneous_dim0_certificate(gens, PRIMES[1], max_degree=8)
    if cert is not None:
        assert symbolic_rank(gens, cert, p) == comb(cert + nv - 1, cert)


@pytest.mark.parametrize("p", PRIMES)
def test_minor_rows_are_the_symbolic_minors(p):
    """The h x h minors of a 3 x 4 matrix of linear forms, h = 1, 2, 3, by
    ``_minor_rows``: row for row the coefficients of ``matrix_minors`` over
    ZZ, and mod p those of the minors moved into F_p; the certificate of
    the expanded minors is that of the list of them.  Entries of mixed
    degree, or over QQ, are refused: a list is the form for those."""
    R = PolyRing(VarUniverse.free(["x", "y", "z"]), ZZ)
    x, y, z = R.gens()
    rng = random.Random(p)

    def form():
        return sum((rng.randint(-9, 9) * v for v in (x, y, z)), R.zero)

    M = PolyMatrix([[form() for _ in range(4)] for _ in range(3)])
    for h in (1, 2, 3):
        D, rows, nvars = expanded = _minor_rows(M, h)
        assert D == h and nvars == 3 and rows.dtype == np.int64
        assert rows.tolist() == coefficients(matrix_minors(h, M), h, 3)
        assert (rows % p).tolist() == coefficients(over_prime(matrix_minors(h, M), p), h, 3)
        minors = [g for g in matrix_minors(h, M) if g]
        cert = homogeneous_dim0_certificate(expanded, p, max_degree=8)
        assert cert == homogeneous_dim0_certificate(minors, p, max_degree=8)
    squared = PolyMatrix([[e * e if e == M[0, 0] else e for e in row] for row in M.rows])
    rational = PolyMatrix([[transport(e, R.with_domain(QQ)) for e in row] for row in M.rows])
    for bad in (squared, rational):
        with pytest.raises(PreconditionError):
            _minor_rows(bad, 2)


@pytest.mark.parametrize("p", PRIMES[1:], ids=["2^31-1", "2^61-1"])
@pytest.mark.parametrize("degree", [2, 3])
def test_minor_values_of_higher_degree_entries_near_the_int64_limit(degree, p):
    """The h x h minors, h = 1, 2, 3, of a matrix of degree-2 or degree-3
    forms whose absolute coefficients sum to the largest L with h! L^h
    below 2**63, the bound on every partial sum of ``_minor_rows``: its
    int64 rows are still the exact minors over ZZ, and mod p those of the
    minors moved into F_p.  One more unit of coefficient in one entry is
    refused with CapacityError."""
    R = PolyRing(VarUniverse.free(["x", "y", "z"]), ZZ)
    monomials = [R.from_exp_dict({e: 1}) for e in ref_monomials(degree, 3)]
    rng = random.Random(degree)

    def form(total):  # total split over the monomials, with random signs
        cuts = sorted(rng.randrange(total + 1) for _ in monomials[1:])
        parts = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
        return sum((rng.choice([-1, 1]) * c * q for c, q in zip(parts, monomials)), R.zero)

    for h in (1, 2, 3):
        bound = ((1 << 63) - 1) // factorial(h)
        L = round(bound ** (1 / h))
        while L**h > bound:
            L -= 1
        while (L + 1) ** h <= bound:
            L += 1
        M = PolyMatrix([[form(L) for _ in range(4)] for _ in range(3)])
        D, rows, _ = _minor_rows(M, h)
        symbolic = matrix_minors(h, M)
        assert D == h * degree and rows.tolist() == coefficients(symbolic, D, 3)
        assert (rows % p).tolist() == coefficients(over_prime(symbolic, p), D, 3)
        with pytest.raises(CapacityError):
            _minor_rows(PolyMatrix([[form(L + 1)] + M.rows[0][1:]] + M.rows[1:]), h)


def test_certificate_zero_mod_p_generators_are_dropped():
    """Generators that vanish mod p are dropped, in a list and among the
    minors of a matrix alike."""
    R = PolyRing(VarUniverse.free(["x", "y"]), ZZ)
    x, y = R.gens()
    gens = [7 * x * y, x**2, y**3, 14 * (x + y)]
    # x^2 and y^3 are as many forms as variables, so only Macaulay's
    # degree 1 + 2 + 1 = 4 is ranked mod 7
    assert sorted(_coefficient_rows(gens, 7)) == [2, 3]
    assert homogeneous_dim0_certificate(gens, 7) == 4
    assert homogeneous_dim0_certificate(gens, 11) == 3
    M = PolyMatrix([[7 * x * y, x**2, y**2, 14 * (x * x + y * y)]])
    minors = _minor_rows(M, 1)
    assert len(_distinct(minors.rows % 7)) == 2
    assert homogeneous_dim0_certificate(minors, 7) == 3  # x^2, y^2: Macaulay's degree
    assert homogeneous_dim0_certificate(minors, 11) == 2


@pytest.mark.parametrize("p", [101, (1 << 61) - 1])
def test_certificate_ranks_each_distinct_value_row_once(monkeypatch, p):
    """The 2x2 minors of [[x, y], [x, y], [y, x], [x, 0]] repeat x^2 - y^2
    and -xy, each repeat computed apart; with -x^2 the three distinct
    coefficient rows fill degree 2.  The repeats must be dropped and the
    rest kept, in the int32 matrix (p = 101) and the int64 one (p > 2**31)."""
    R = PolyRing(VarUniverse.free(["x", "y"]), ZZ)
    x, y = R.gens()
    M = PolyMatrix([[x, y], [x, y], [y, x], [x, R.zero]])
    ranked, rank = [], linalg.rank_modp_numpy
    monkeypatch.setattr(linalg, "rank_modp_numpy", lambda E, q: ranked.append(len(E)) or rank(E, q))
    assert homogeneous_dim0_certificate(_minor_rows(M, 2), p) == 2
    assert ranked == [3]


def test_degrees_above_the_prime_fill():
    """Coefficients take no points, so a degree above p fills like any
    other: x^3, y^2 fill degree 4 mod 3, and the 1 x 1 minors x^3, y^3 fill
    Macaulay's degree 5 mod 3."""
    R = PolyRing(VarUniverse.free(["x", "y"]), ZZ)
    x, y = R.gens()
    assert homogeneous_dim0_certificate([x**3, y**2], 3) == 4
    assert homogeneous_dim0_certificate(_minor_rows(PolyMatrix([[x**3, y**3]]), 1), 3) == 5
    assert symbolic_rank([x**3, y**3], 4, 3) == 4 < comb(5, 1)


def test_masked_reference_on_random_matrices():
    rng = random.Random(5)
    for _ in range(40):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        A = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(n)] for _ in range(m)]
        for p in (2, 7, (1 << 31) - 1):
            assert linalg.rank_modp_numpy(A, p) == ref_masked_rank(A, p) == linalg.rank_modp(A, p)


def test_script_5x6_minor_rows_match_symbolic_minors():
    """script-5x6's slice: its expanded 3x3 minors are the symbolic ones,
    coefficient for coefficient; at the default prime they give 210
    distinct minors, and the symbolic Macaulay ranks equal the ranks of the
    certificate's M_d at degrees 12 and 13, where it fills."""
    p = CliConfig().prime
    M = _script_slice(5, SCRIPT_5X6_A)
    symbolic = matrix_minors(3, M)
    expanded = _minor_rows(M, 3)
    D, rows, nvars = expanded
    assert D == 12 and nvars == 4 and rows.tolist() == coefficients(symbolic, 12, 4)
    minors = list({q.terms: q for q in over_prime(symbolic, p) if q}.values())
    distinct = {D: _distinct(rows % p)}
    assert len(minors) == len(distinct[D]) == 210
    for d, want in ((12, 175), (13, 560)):
        assert linalg.rank_modp_numpy(_macaulay_matrix(distinct, d, 4, p), p) == want
        assert symbolic_rank(minors, d, p) == want
    assert homogeneous_dim0_certificate(expanded, p) == 13
