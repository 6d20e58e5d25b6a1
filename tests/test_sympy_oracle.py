"""Differential tests against sympy's Groebner bases, an independent engine.

On small seeded random ideals over F_p and QQ (with integer coefficients, and
over QQ also with fractions) the reduced basis and the normal forms must
equal sympy's in degrevlex, lex and the block order (lex on
the eliminated block, degrevlex on the rest; sympy's ``ProductOrder`` of
``lex`` and ``grevlex``).  The dimension and degree must equal counts made on
sympy's lead monomials.  Skipped when sympy is not installed.
"""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.orderings import ProductOrder, grevlex, lex  # noqa: E402

from permvar.groebner import buchberger, ideal_dimension, normal_form  # noqa: E402
from permvar.ring import DEGREVLEX, GF, LEX, QQ, PolyRing, VarUniverse, block_order  # noqa: E402

P = 32003
NAMES = ["x", "y", "z"]
SYMS = sympy.symbols(NAMES)
ORDERS = {
    "degrevlex": (DEGREVLEX, "grevlex"),
    "lex": (LEX, "lex"),
    "block1": (block_order(1), ProductOrder((lex, lambda m: m[:1]), (grevlex, lambda m: m[1:]))),
}


def _to_sympy(f):
    return sum(
        (sympy.Rational(c.numerator, c.denominator) if isinstance(c, Fraction) else c)
        * sympy.Mul(*(s**e for s, e in zip(SYMS, exps)))
        for exps, c in _exp_terms(f)
    )


def _exp_terms(f):
    """Terms of f as (exponent tuple, coefficient) pairs."""
    return [(f.ring.pack.unpack(k), c) for k, c in f.terms]


def _from_sympy(expr, R):
    """The sympy polynomial as {exponents: coefficient} in R's domain."""
    poly = sympy.Poly(expr, *SYMS)
    dom = R.domain
    out = {}
    for exps, c in poly.terms():
        c = Fraction(int(c.p), int(c.q)) if dom.kind == "rat" else int(c) % dom.modulus
        if c:
            out[exps] = dom.coerce(c)
    return out


def _monic(terms, R):
    """Scale by the inverse coefficient of the lead in R's order."""
    lead = max(terms, key=R.pack.pack)
    p = R.domain.modulus
    inv = pow(terms[lead], p - 2, p) if p else 1 / terms[lead]
    return {e: R.domain.coerce(c * inv) for e, c in terms.items()}


def _sympy_dimension(S, sym_order):
    """``(dim, degree)`` counted on the lead monomials of sympy's basis.

    dim is the size of the largest variable set containing the support of no
    lead monomial (-1 for the unit ideal); in dimension 0 the degree is the
    number of monomials no lead divides, otherwise None.
    """
    leads = [sympy.Poly(s, *SYMS).monoms(order=sym_order)[0] for s in S.exprs]
    n = len(SYMS)
    dim = max(
        (
            r
            for r in range(n + 1)
            for vs in combinations(range(n), r)
            if not any(all(e == 0 or i in vs for i, e in enumerate(m)) for m in leads)
        ),
        default=-1,
    )
    if dim != 0:
        return dim, None
    # in dimension 0 each variable has a pure-power lead, which bounds the box
    box = [min(m[i] for m in leads if sum(m) == m[i] > 0) for i in range(n)]
    return dim, sum(
        not any(all(a >= b for a, b in zip(exps, m)) for m in leads)
        for exps in product(*map(range, box))
    )


def _small_int(rng):
    return rng.randint(-5, 5)


def _small_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _random_poly(rng, R, terms, deg, coeff):
    return R.from_exp_dict({
        tuple(rng.randint(0, deg) for _ in NAMES): coeff(rng) for _ in range(terms)
    })


# The fraction instance leaves out lex: there the sugar-ordered pair
# selection swells the coefficients of these ideals over QQ (the first one at
# this seed runs for minutes, while sympy takes 0.3 s).
INSTANCES = [
    pytest.param(domain, coeff, order_id, id=f"{name}-{order_id}")
    for name, domain, coeff in [
        ("fp", GF(P), _small_int),
        ("qq", QQ, _small_int),
        ("qq-fractions", QQ, _small_fraction),
    ]
    for order_id in sorted(ORDERS)
    if (name, order_id) != ("qq-fractions", "lex")
]


@pytest.mark.parametrize("domain,coeff,order_id", INSTANCES)
def test_reduced_basis_and_normal_forms_match_sympy(domain, coeff, order_id):
    """Over QQ every coefficient of a basis element and a normal form is an
    exact Fraction."""
    order, sym_order = ORDERS[order_id]
    R = PolyRing(VarUniverse.free(NAMES), domain, order)
    opts = {"modulus": P} if domain.kind == "fp" else {"domain": "QQ"}
    rng = random.Random(41)
    compared = 0
    dims = []
    for _ in range(10):
        gens = [
            g for g in (_random_poly(rng, R, 3, 2, coeff) for _ in range(rng.randint(2, 3))) if g
        ]
        if not gens:
            continue
        G = buchberger(gens)
        S = sympy.groebner([_to_sympy(g) for g in gens], *SYMS, order=sym_order, **opts)
        ours = sorted(sorted(_exp_terms(g)) for g in G.gens)
        theirs = sorted(sorted(_monic(_from_sympy(s, R), R).items()) for s in S.exprs)
        assert ours == theirs
        rep = ideal_dimension(G)
        assert (rep.dim, rep.degree) == _sympy_dimension(S, sym_order)
        assert S.is_zero_dimensional == (rep.dim == 0)
        dims.append(rep.dim)
        for _ in range(3):
            f = _random_poly(rng, R, 4, 3, coeff)
            remainder = S.reduce(_to_sympy(f))[1]
            nf = normal_form(f, G)
            assert dict(_exp_terms(nf)) == _from_sympy(remainder, R)
            if domain == QQ:
                assert all(type(c) is Fraction for g in (*G.gens, nf) for _, c in g.terms)
        compared += len(G.gens) > 1
    assert compared >= 5
    assert {0, 1} <= set(dims)
