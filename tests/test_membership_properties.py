"""Property test for ``groebner.contains``: on homogeneous ideals it stops
its pair loop at the largest degree asked about, and its answer must be the
one a full basis gives, ``normal_form(f, buchberger(gens)).is_zero()``.

Generators are forms of degree 1-3 in at most 4 variables, over GF(7),
GF(101) and QQ, in degrevlex and lex.  The forms asked about are members
(combinations of the generators) and random forms, of degree up to D and
some of degree D exactly, where D is the largest degree asked about: a loop
stopped one degree early misses members of degree D.  Skipped when
hypothesis is not installed.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from permvar.groebner import buchberger, contains, normal_form  # noqa: E402
from permvar.ring import DEGREVLEX, GF, LEX, QQ, PolyRing, VarUniverse  # noqa: E402

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=120)
DOMAINS = [GF(7), GF(101), QQ]


def _monomials(n: int, d: int) -> list:
    """Exponent vectors of the degree-d monomials in n variables."""
    out = []
    for picks in combinations_with_replacement(range(n), d):
        e = [0] * n
        for i in picks:
            e[i] += 1
        out.append(tuple(e))
    return out


def _form(draw, ring, d: int, min_size: int = 0):
    """A random form of degree d (zero when it draws no term)."""
    n = len(ring.universe)
    coeff = st.integers(-6, 6).filter(bool)
    if ring.domain.kind == "rat":
        coeff = st.builds(Fraction, coeff, st.integers(1, 4))
    terms = draw(st.dictionaries(st.sampled_from(_monomials(n, d)), coeff, min_size=min_size, max_size=4))
    return ring.from_exp_dict(terms)


def _spoly(f, g):
    """lc(g) m_f f - lc(f) m_g g, with m_f and m_g the monomials that raise
    the two leads to their lcm: a member whose lead is often no multiple of
    a generator's."""
    ring = f.ring
    top = tuple(map(max, f.lead_monomial(), g.lead_monomial()))

    def raise_to_top(h):
        return ring.from_exp_dict({tuple(a - b for a, b in zip(top, h.lead_monomial())): 1}) * h

    return raise_to_top(f) * g.terms[0][1] - raise_to_top(g) * f.terms[0][1]


@st.composite
def systems(draw):
    n = draw(st.integers(1, 4))
    domain = draw(st.sampled_from(DOMAINS))
    order = draw(st.sampled_from([DEGREVLEX, LEX]))
    ring = PolyRing(VarUniverse("abcd"[:n]), domain, order)
    gens = [_form(draw, ring, draw(st.integers(1, 3)), 1) for _ in range(draw(st.integers(1, 4)))]

    def combination(d):
        parts = [_form(draw, ring, d - g.total_degree()) * g for g in gens if g.total_degree() <= d]
        return sum(parts, ring.zero)

    fs = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["combination", "s-polynomial", "random"]))
        if kind == "s-polynomial" and len(gens) > 1:
            i, j = draw(st.lists(st.integers(0, len(gens) - 1), min_size=2, max_size=2, unique=True))
            f = _spoly(gens[i], gens[j]) * _form(draw, ring, draw(st.integers(0, 1)), 1)
            fs.append(f + combination(f.total_degree()) if f else f)
        elif kind == "random":
            fs.append(_form(draw, ring, draw(st.integers(1, 4))))
        else:
            fs.append(combination(draw(st.integers(1, 4))))
    return gens, fs


@SETTINGS
@given(systems())
def test_contains_matches_full_basis_membership(system):
    gens, fs = system
    G = buchberger(gens)
    full = [normal_form(f, G).is_zero() for f in fs]
    assert contains(gens, fs) == all(full)
    for f, member in zip(fs, full):
        assert contains(gens, [f]) == member
