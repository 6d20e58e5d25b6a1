"""The Macaulay certificate's numpy kernels against the Python code they
replaced, copied here as reference:

- the row builder that enumerated each degree's monomials into a dict and
  filled one Python list per shifted generator, from generators already
  mapped into F_p by ``over_prime``;
- the elimination that cleared every row below a pivot through boolean-mask
  copies of whole rows.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from permvar import linalg
from permvar.experiments import (
    _macaulay_matrix,
    _residue_terms,
    homogeneous_dim0_certificate,
)
from permvar.groebner import over_prime
from permvar.ring import QQ, ZZ, PolyRing, VarUniverse

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
    rng = random.Random(1000 * seed + nv)
    gens = random_ideal(rng, nv, domain)
    if not gens:
        pytest.skip("no generator drawn")
    for p in PRIMES:
        modp = [g for g in over_prime(gens, p) if g]
        polys = _residue_terms(gens, p)
        assert [dg for dg, _, _ in polys] == [g.total_degree() for g in modp]
        if not modp:
            continue
        start = max(g.total_degree() for g in modp)
        for d in range(start, start + 3):
            want, ncols = ref_rows(modp, d, p)
            got = _macaulay_matrix(polys, d, nv)
            assert got.dtype == np.int64
            assert got.shape == (len(want), ncols)
            assert got.tolist() == want
            if p < 1 << 31 and want:
                assert linalg.rank_modp_numpy(got, p) == ref_masked_rank(want, p)
        if p < 1 << 31:
            # the certificate reads ZZ/QQ coefficients as over_prime maps them
            assert homogeneous_dim0_certificate(gens, p, max_degree=8) == (
                homogeneous_dim0_certificate(modp, p, max_degree=8)
            )


def test_certificate_zero_mod_p_generators_are_dropped():
    R = PolyRing(VarUniverse.free(["x", "y"]), ZZ)
    x, y = R.gens()
    gens = [(x * y).scale(7), x**2, y**3, (x + y).scale(14)]
    assert [dg for dg, _, _ in _residue_terms(gens, 7)] == [2, 3]
    assert homogeneous_dim0_certificate(gens, 7) == 4
    assert homogeneous_dim0_certificate(gens, 11) == 3


def test_masked_reference_on_random_matrices():
    rng = random.Random(5)
    for _ in range(40):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        A = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(n)] for _ in range(m)]
        for p in (2, 7, (1 << 31) - 1):
            assert linalg.rank_modp_numpy(A, p) == ref_masked_rank(A, p) == linalg.rank_modp(A, p)
