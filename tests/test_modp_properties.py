"""Property tests: reducing coefficients mod p commutes with the polynomial
arithmetic.  For random polynomials over ZZ and QQ, mapping into F_p before
or after each operation gives the same result, and every F_p coefficient
lies in 1..p-1.  Skipped when hypothesis is not installed.

The primes are a small one, where sums and products often vanish mod p, and
the two word-size ones the cases use.  Coefficients are drawn near multiples
of p, and denominators are coprime to every prime here.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from permvar.groebner import _monic, transport  # noqa: E402
from test_groebner_reference import reducer_terms  # noqa: E402
from permvar.ring import DEGREVLEX, GF, LEX, QQ, ZZ, PolyRing, VarUniverse, poly_from_text  # noqa: E402

PRIMES = [7, 2**31 - 1, 2**61 - 1]
DENOMINATORS = [1, 2, 3, 4, 5, 6, 8, 9, 10]
SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=150)


def scalars(p: int, domain):
    """Integers a + b p with small a and b; over QQ, divided by a small
    denominator."""
    ints = st.builds(lambda a, b: a + b * p, st.integers(-9, 9), st.integers(-2, 2))
    if domain is ZZ:
        return ints
    return st.builds(Fraction, ints, st.sampled_from(DENOMINATORS))


@st.composite
def cases(draw):
    """(p, f, g, scalar, point): f and g over ZZ or QQ in three variables."""
    p = draw(st.sampled_from(PRIMES))
    domain = draw(st.sampled_from([ZZ, QQ]))
    order = draw(st.sampled_from([DEGREVLEX, LEX]))
    ring = PolyRing(VarUniverse.free(["x", "y", "z"]), domain, order)
    exps = st.tuples(*[st.integers(0, 3)] * 3)

    def poly(size):
        return ring.from_exp_dict(draw(st.dictionaries(exps, scalars(p, domain), max_size=size)))

    f, g = poly(6), poly(4)
    c = draw(scalars(p, domain))
    point = draw(st.lists(scalars(p, domain), min_size=3, max_size=3))
    return p, f, g, c, point


def assert_canonical(h, p):
    assert all(isinstance(c, int) and 0 < c < p for _, c in h.terms)


@SETTINGS
@given(cases())
def test_reduction_mod_p_commutes_with_arithmetic(case):
    p, f, g, c, point = case
    Fp = f.ring.with_domain(GF(p))

    def red(h):
        return transport(h, Fp)

    fp, gp = red(f), red(g)
    pairs = [
        (red(f + g), fp + gp),
        (red(f - g), fp - gp),
        (red(-f), -fp),
        (red(f * g), fp * gp),
        (red(c * f), c * fp),
        (red(f.substitute({1: g})), fp.substitute({1: gp})),
        (poly_from_text(f.text(), Fp), fp),
    ]
    pairs += [(red(f.diff(v)), fp.diff(v)) for v in range(3)]
    fq = transport(f, f.ring.with_domain(QQ))
    if fp and fp.lead_key() == f.lead_key():
        # the lead coefficient survives mod p, so it has an inverse there:
        # the monic forms the Groebner engine makes commute with the map too
        pairs.append((red(_monic(reducer_terms(fq), fq.ring)), _monic(reducer_terms(fp), fp.ring)))
    for got, want in pairs:
        assert got == want
        assert_canonical(got, p)
        assert_canonical(want, p)
    [value] = fp.evaluate([point])
    assert 0 <= value < p
    assert [GF(p).coerce(v) for v in f.evaluate([point])] == [value]
