"""Differential tests of the Groebner layers against their earlier reference
implementations, copied here:

- a reducer that scans a list of monic reducers for the first divisor of
  each term, through ``_Pack.divides``, in the domain's own arithmetic (over
  QQ, Fractions: the oracle of the fraction-free reduction);
- the fixed-point interreduction that re-reduces every element against all
  the others until a whole round changes nothing;
- the Hilbert-numerator pivot recursion that re-minimalizes both children
  of every split;
- the enumeration of the standard monomials of a zero-dimensional lead
  ideal over the box its pure powers bound.
"""

import math
import random
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import product

import pytest

from permvar import groebner
from permvar.errors import PreconditionError
from permvar.groebner import (
    DimensionReport,
    _first_divisor,
    _interreduce,
    buchberger,
    hilbert_numerator,
    ideal_dimension,
    independent_set,
    normal_form,
)
from permvar.ring import _FIELD_CAP, DEGREVLEX, GF, LEX, QQ, PolyRing, VarUniverse, block_order

P = 32003
ORDERS = [DEGREVLEX, LEX, block_order(2)]
ORDER_IDS = ["degrevlex", "lex", "block2"]


# ---------------------------------------------------------------------------
# reference implementations


def monic(f):
    """f divided by its lead coefficient, in the domain's own arithmetic."""
    if not f:
        return f
    dom, lc = f.ring.domain, f.terms[0][1]
    inv = pow(lc, dom.modulus - 2, dom.modulus) if dom.modulus else 1 / Fraction(lc)
    return f.ring.from_terms({k: c * inv for k, c in f.terms})


def ref_reduce(work, reducers, ring):
    """Normal form of a term dict modulo a list of monic (lead_key, terms)."""
    pack = ring.pack
    dom = ring.domain
    out = {}
    heap = [-k for k in work]
    heapify(heap)
    while heap:
        k = -heappop(heap)
        c = work.pop(k, None)
        if c is None:
            continue
        for lt, terms in reducers:
            if pack.divides(lt, k):
                break
        else:
            out[k] = c
            continue
        shift = k - lt
        for kk, cc in terms[1:]:
            k2 = kk + shift
            v = dom.coerce(work.get(k2, 0) - c * cc)
            if v:
                if k2 not in work:
                    heappush(heap, -k2)
                work[k2] = v
            elif k2 in work:
                del work[k2]
    return out


def ref_interreduce(polys, ring):
    polys = sorted((monic(p) for p in polys if p), key=lambda p: p.lead_key())
    pack = ring.pack
    minimal = []
    for p in polys:
        if not any(pack.divides(q.lead_key(), p.lead_key()) for q in minimal):
            minimal.append(p)
    changed = True
    while changed:
        changed = False
        for idx, p in enumerate(minimal):
            others = [(q.lead_key(), q.terms) for pos, q in enumerate(minimal) if pos != idx]
            red = ring.from_terms(ref_reduce(dict(p.terms), others, ring))
            if red.terms != p.terms:
                minimal[idx] = monic(red)
                changed = True
    return sorted(minimal, key=lambda p: p.lead_key())


def ref_hilbert_numerator(gens):
    memo = {}

    def minimalize(ms):
        ms = sorted(set(ms), key=lambda m: (sum(m), m))
        out = []
        for m in ms:
            if not any(all(o <= e for o, e in zip(g, m)) for g in out):
                out.append(m)
        return tuple(out)

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def poly_add(a, b, shift):
        out = list(a) + [0] * max(0, shift + len(b) - len(a))
        for j, y in enumerate(b):
            out[shift + j] += y
        return out

    def num(ms):
        if not ms:
            return [1]
        if any(sum(m) == 0 for m in ms):
            return [0]
        if ms in memo:
            return memo[ms]
        supports = [tuple(i for i, e in enumerate(m) if e) for m in ms]
        if all(len(s) == 1 for s in supports):
            out = [1]
            for m in ms:
                d = sum(m)
                out = poly_mul(out, [1] + [0] * (d - 1) + [-1])
        else:
            counts = {}
            for s in supports:
                if len(s) > 1:
                    for i in s:
                        counts[i] = counts.get(i, 0) + 1
            piv = max(sorted(counts), key=lambda i: counts[i])
            pivot = tuple(1 if i == piv else 0 for i in range(len(ms[0])))
            plus = minimalize(list(ms) + [pivot])
            colon = minimalize(tuple(max(e - p, 0) for e, p in zip(m, pivot)) for m in ms)
            out = poly_add(num(plus), num(colon), shift=1)
        memo[ms] = out
        return out

    out = num(minimalize(tuple(g) for g in gens))
    while len(out) > 1 and not out[-1]:
        out = out[:-1]
    return tuple(out)


def ref_standard_monomials(G):
    """All monomials outside the leading-term ideal of G, as exponent tuples
    in the ring's order (dimension 0 only: each variable needs a pure power
    among the leads, which bounds the box searched)."""
    lead = G.lead_ideal
    n = len(G.ring.universe)
    bounds = []
    for i in range(n):
        powers = [e[i] for e in lead if e[i] and not any(e[:i] + e[i + 1 :])]
        if not powers:
            raise ValueError("leading-term ideal is not zero-dimensional")
        bounds.append(min(powers))
    out = [
        m
        for m in product(*(range(b) for b in bounds))
        if not any(all(ge <= me for ge, me in zip(g, m)) for g in lead)
    ]
    return sorted(out, key=G.ring.pack.pack)


def reducer_terms(f):
    """The reducer terms the engine makes of a nonzero polynomial: over QQ
    its primitive integer multiple with a positive lead, over F_p its monic
    terms."""
    return groebner._reducer_terms(dict(groebner._integer_terms(f)[0]), f.ring)


def lookup_over(polys, ring):
    """The engine's first-divisor lookup over a fixed list of nonzero
    polynomials, built as ``normal_form`` builds it."""
    reducers = [reducer_terms(g) for g in polys]
    return _first_divisor(ring, reducers, [g.lead_key() for g in polys], [True] * len(polys))


# ---------------------------------------------------------------------------
# random inputs


def _ring(n, domain, order):
    return PolyRing(VarUniverse.free([f"v{i}" for i in range(n)]), domain, order)


def _monomial(rng, n, top):
    return tuple(rng.choice([0, 0, 1, rng.randint(0, top)]) for _ in range(n))


def _monomial_ideal(rng, R, count, top):
    """Random monomials, with pure powers and (rarely) the constant 1."""
    n = len(R.universe)
    gens = []
    for _ in range(count):
        r = rng.random()
        if r < 0.02:
            e = (0,) * n
        elif r < 0.25:
            v = rng.randrange(n)
            e = tuple(rng.randint(1, top) if i == v else 0 for i in range(n))
        else:
            e = (0,) * n
            while not any(e):
                e = _monomial(rng, n, top)
        gens.append(R.from_exp_dict({e: 1}))
    return gens


def _binomial_ideal(rng, R, count, top):
    """Random binomials a - b: they all vanish at (1, ..., 1), so the ideal
    is never the unit ideal."""
    n = len(R.universe)
    gens = []
    for _ in range(count):
        a, b = _monomial(rng, n, top), _monomial(rng, n, top)
        if a != b:
            gens.append(R.from_exp_dict({a: 1, b: -1}))
    return gens


def _random_poly(rng, R, terms, top):
    n = len(R.universe)
    return R.from_exp_dict({_monomial(rng, n, top): rng.randint(-9, 9) for _ in range(terms)})


def _fraction(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 12))


def _fraction_poly(rng, R, terms, top):
    """Random terms with nonzero Fraction coefficients (at least one term)."""
    n = len(R.universe)
    return R.from_exp_dict(
        {_monomial(rng, n, top): _fraction(rng) for _ in range(terms)}
        | {tuple(rng.randint(1, top) for _ in range(n)): _fraction(rng)}
    )


def _fraction_binomial_ideal(rng, R, count, top):
    """Random binomials c a + d b with Fraction coefficients."""
    n = len(R.universe)
    gens = []
    for _ in range(count):
        a, b = _monomial(rng, n, top), _monomial(rng, n, top)
        if a != b:
            gens.append(R.from_exp_dict({a: _fraction(rng), b: _fraction(rng)}))
    return gens


def _primitive_by_definition(f):
    """The integer multiple of f whose coefficients are coprime with a
    positive lead, found from f's coefficients by Fraction arithmetic."""
    den = math.lcm(*(c.denominator for _, c in f.terms))
    ints = [int(c * den) for _, c in f.terms]
    g = math.gcd(*ints) * (1 if ints[0] > 0 else -1)
    return tuple((k, v // g) for (k, _), v in zip(f.terms, ints))


# ---------------------------------------------------------------------------
# tests


def _lookup_matches_a_full_scan(rng, domain, new_reducer, want_terms):
    """Under appends, deaths and repeated queries, the memoized lookup over
    the elements' reducer terms gives the first alive divisor that a scan
    from the start gives, with the terms ``want_terms`` of that element."""
    for order in ORDERS:
        R = _ring(4, domain, order)
        pack = R.pack
        polys, reducers, lts, alive = [], [], [], []
        find = _first_divisor(R, reducers, lts, alive)
        queries = [pack.pack(_monomial(rng, 4, 6)) for _ in range(60)]
        for _ in range(400):
            r = rng.random()
            if r < 0.1:
                g = new_reducer(R)
                polys.append(g)
                reducers.append(reducer_terms(g))
                lts.append(g.lead_key())
                alive.append(True)
            elif r < 0.15 and alive:
                alive[rng.randrange(len(alive))] = False
            else:
                k = rng.choice(queries)
                want = next(
                    (j for j in range(len(lts)) if alive[j] and pack.divides(lts[j], k)), None
                )
                got = find(k)
                if want is None:
                    assert got is None
                else:
                    assert got == (lts[want], want_terms(polys[want]))


def test_first_divisor_lookup_matches_a_full_scan():
    """Over F_p the lookup gives the element's own terms."""
    rng = random.Random(17)
    _lookup_matches_a_full_scan(
        rng, GF(P), lambda R: R.from_exp_dict({_monomial(rng, 4, 4): 1}), lambda g: g.terms
    )


def test_first_divisor_lookup_over_qq_gives_primitive_integer_terms():
    """Over QQ the lookup gives the primitive integer multiple of the first
    alive divisor, as ``_reducer_terms`` makes it: int coefficients,
    coprime, with a positive lead, also when the element's own lead is
    negative."""
    rng = random.Random(19)
    leads = []

    def want_terms(g):
        terms = _primitive_by_definition(g)
        assert all(type(c) is int for _, c in terms)
        leads.append((g.terms[0][1], terms[0][1]))
        return terms

    _lookup_matches_a_full_scan(rng, QQ, lambda R: _fraction_poly(rng, R, 2, 3), want_terms)
    assert any(a > 1 for _, a in leads) and any(c < 0 for c, _ in leads)


def test_first_divisor_memo_after_a_failed_scan_and_after_a_death():
    """The memo holds a key's divisor j, or ~n after a scan of n elements
    found none.  Elements appended after a failed scan are tested, the
    non-divisor as well as the divisor; a remembered divisor is returned
    while it lives, and once it dies the scan resumes at the next live
    divisor."""
    R = _ring(3, GF(P), DEGREVLEX)
    reducers, lts, alive = [], [], []
    find = _first_divisor(R, reducers, lts, alive)

    def append(*exps):
        k = R.pack.pack(exps)
        reducers.append(((k, 1),))
        lts.append(k)
        alive.append(True)
        return k, reducers[-1]

    k = R.pack.pack((2, 1, 0))
    append(0, 0, 1)
    assert find(k) is None  # a failed scan of one element
    append(0, 2, 0)
    assert find(k) is None  # the appended non-divisor is tested
    x = append(1, 0, 0)
    assert find(k) == x  # the appended divisor is found
    y = append(0, 1, 0)
    assert find(k) == find(k) == x  # remembered, not the later divisor
    alive[2] = False
    assert find(k) == y  # resumed past the dead one
    alive[3] = False
    assert find(k) is None
    assert find(R.pack.pack((0, 3, 0))) == (lts[1], reducers[1])
    assert append(2, 1, 0) == find(k)


@pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
@pytest.mark.parametrize("domain", [GF(P), QQ], ids=["fp", "qq"])
def test_one_pass_interreduction_matches_fixed_point(order, domain):
    rng = random.Random(23)
    reduced = 0
    for trial in range(40):
        R = _ring(rng.randint(2, 4), domain, order)
        if trial % 2:
            # a reduced basis with random terms below each lead: the other
            # elements' leads divide some of them
            polys = []
            for g in buchberger(_binomial_ideal(rng, R, rng.randint(2, 5), 3)):
                low = _random_poly(rng, R, 5, 3)
                polys.append(g + R.from_terms({k: c for k, c in low.terms if k < g.lead_key()}))
        else:
            polys = [_random_poly(rng, R, rng.randint(1, 5), 3) for _ in range(rng.randint(1, 5))]
            polys += _monomial_ideal(rng, R, rng.randint(0, 2), 3)
        polys.append(rng.choice(polys) * _random_poly(rng, R, 2, 1))  # often dropped
        got = _interreduce(polys, R)
        want = ref_interreduce(polys, R)
        assert [g.terms for g in got] == [g.terms for g in want]
        inputs = {monic(p).terms for p in polys if p}
        reduced += any(g.terms not in inputs for g in want)
    assert reduced > 10


@pytest.mark.parametrize(
    "domain,order",
    [(GF(P), o) for o in ORDERS] + [(QQ, o) for o in ORDERS],
    ids=ORDER_IDS + [f"qq-{o}" for o in ORDER_IDS],
)
def test_normal_form_matches_list_scan(domain, order, monkeypatch):
    """Over QQ the generators and the reduced polynomials have Fraction
    coefficients, so the reducers' primitive leads and the input's common
    denominator exceed 1.  The reduction's result leaves through
    ``Fraction(c, den)``: a ``den`` above the input's own common denominator
    shows that a step rescaled the work.  Over F_p the reduction of reduced
    input must give reduced residues itself: a term stored without its
    ``% p`` changes no normal form, only the size of the coefficients."""
    rng = random.Random(29)
    dens = []

    def spy(*args):
        if len(args) == 2:
            dens.append(args[1])
        return Fraction(*args)

    monkeypatch.setattr(groebner, "Fraction", spy)
    rescaled = big_leads = big_dens = 0
    for _ in range(12):
        R = _ring(3, domain, order)
        if domain == QQ:
            G = buchberger(_fraction_binomial_ideal(rng, R, 3, 3))
            big_leads += any(_primitive_by_definition(g)[0][1] > 1 for g in G.gens)
        else:
            G = buchberger(_binomial_ideal(rng, R, 3, 3))
        reducers = [(g.lead_key(), g.terms) for g in G.gens]
        for _ in range(5):
            f = (_fraction_poly if domain == QQ else _random_poly)(rng, R, 6, 5)
            want = R.from_terms(ref_reduce(dict(f.terms), reducers, R))
            dens.clear()
            assert normal_form(f, G) == want
            if domain != QQ:
                # the raw result holds reduced residues already, before
                # from_terms reduces it again
                raw, den = groebner._reduce_terms(dict(f.terms), lookup_over(G.gens, R), R)
                assert (raw, den) == (dict(want.terms), 1)
            if domain == QQ:
                den_in = math.lcm(*(c.denominator for _, c in f.terms))
                big_dens += den_in > 1
                rescaled += any(d != den_in for d in dens)
    if domain == QQ:
        assert big_leads > 5 and big_dens > 50 and rescaled > 5


def test_hilbert_numerator_matches_minimalizing_recursion():
    """Random ideals, then two monomial ideals with exponents at the field
    cap and one in more than 30 variables.  A cap exponent is kept off the
    pivots (the colon lowers a pivot's exponent by one per step) and to one
    pure power per product (the reference multiplies term by term)."""
    rng = random.Random(37)
    units = splits = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        R = _ring(n, GF(P), DEGREVLEX)
        gens = (_monomial_ideal if rng.random() < 0.6 else _binomial_ideal)(
            rng, R, rng.randint(1, 8), 4
        )
        if not gens:
            continue
        G = buchberger(gens)
        assert hilbert_numerator(G) == ref_hilbert_numerator(G.lead_ideal)
        units += G.is_unit_ideal()
        splits += sum(1 for e in G.lead_ideal if sum(map(bool, e)) > 1) > 1
    assert units >= 5 and splits > 40
    R, cap = _ring(3, GF(P), DEGREVLEX), _FIELD_CAP
    cases = [[(cap, 1, 0), (0, 1, 1), (0, 0, cap)], [(cap, 0, 0), (1, 1, 1), (0, 2, 1)]]
    monomials = [[R.from_exp_dict({e: 1}) for e in exps] for exps in cases]
    for gens in monomials + [_wide_monomial_ideal(rng)]:
        G = buchberger(gens)
        assert hilbert_numerator(G) == ref_hilbert_numerator(G.lead_ideal)
    assert sum(1 for e in G.lead_ideal if sum(map(bool, e)) > 1) > 5


def _wide_monomial_ideal(rng):
    """14 monomials in 34 variables, each in 1 to 3 of them."""
    R = _ring(34, GF(P), DEGREVLEX)
    wide = []
    for _ in range(14):
        e = [0] * 34
        for i in rng.sample(range(34), rng.randint(1, 3)):
            e[i] = rng.randint(1, 3)
        wide.append(R.from_exp_dict({tuple(e): 1}))
    return wide


def ref_monomial_codim(supports):
    """The codimension of a monomial ideal: the fewest variables that meet
    every generator's support (a smallest transversal), found by branching
    on the variables of a support not yet met."""
    if not supports:
        return 0
    return 1 + min(ref_monomial_codim([s for s in supports if v not in s]) for v in supports[0])


def test_dimension_past_30_variables_matches_the_transversal():
    """The Hilbert numerator decides the dimension in any ring, so
    ``ideal_dimension`` takes the 34-variable monomial ideals of
    ``test_hilbert_numerator_matches_minimalizing_recursion``'s construction;
    only ``independent_set``'s exhaustive search stays capped at 30."""
    for seed in (37, 38, 39):
        G = buchberger(_wide_monomial_ideal(random.Random(seed)))
        supports = [{i for i, x in enumerate(e) if x} for e in G.lead_ideal]
        codim = ref_monomial_codim(supports)
        # some variable meets two supports, so a transversal can be smaller
        # than one variable per generator
        assert sum(len(s) > 1 for s in supports) >= 5 and codim < len(supports)
        assert ideal_dimension(G) == DimensionReport(34 - codim, codim, None)
        with pytest.raises(PreconditionError, match="30 variables"):
            independent_set(G)
