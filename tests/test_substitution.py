"""``MPoly.substitute`` against its earlier per-term algorithm, copied here,
and against sympy's ``subs`` + ``expand`` when sympy is installed.

The inputs are random polynomials over ZZ, QQ, F_7 and F_(2^31-1), with
images in the same ring, in a ring of another universe and in a ring of
another domain; keys by name and by index; scalar, zero and constant
images; unmapped variables taken by name; and the refusals.
"""

import random
from fractions import Fraction

import pytest

from permvar.errors import DomainMismatchError, StructuralError
from permvar.ring import GF, QQ, ZZ, MPoly, PolyRing, VarUniverse

P = (1 << 31) - 1
SOURCE = VarUniverse.free(["a", "b", "c", "d"])
# shares b and d with SOURCE by name
OTHER = VarUniverse.free(["b", "d", "s", "t"])
# (source domain, target domain): each maps the source's coefficients into
# the target by a ring homomorphism; denominators are coprime to 7 and to P
PAIRS = [(ZZ, ZZ), (QQ, QQ), (GF(7), GF(7)), (GF(P), GF(P)), (ZZ, QQ), (ZZ, GF(7)), (QQ, GF(P))]


def ref_substitute(f, mapping, target=None):
    """The per-term substitution: every term multiplied out from its
    coefficient and cached powers of its variables' images."""
    ring = target or f.ring
    subs = {}
    for key, img in mapping.items():
        idx = f.universe.index[key] if isinstance(key, str) else key
        if not isinstance(img, MPoly):
            img = ring.const(img)
        elif img.ring is not ring:
            raise DomainMismatchError("substitution images must share one ring")
        subs[idx] = img
    id_cache = {}

    def image_of(i):
        if i in subs:
            return subs[i]
        if i not in id_cache:
            name = f.universe.names[i]
            if name not in ring.universe.index:
                raise StructuralError(f"variable {name} has no image")
            id_cache[i] = ring.gen(name)
        return id_cache[i]

    pack = f.ring.pack
    powers: dict = {}
    acc_terms: dict = {}
    for k, c in f.terms:
        exps = pack.unpack(k)
        term = ring.const(c)
        for i, e in enumerate(exps):
            if e == 0:
                continue
            cache = powers.setdefault(i, {0: ring.one})
            if e not in cache:
                img = image_of(i)
                emax = max(cache)
                prod = cache[emax]
                for ee in range(emax + 1, e + 1):
                    prod = prod * img
                    cache[ee] = prod
            term = term * cache[e]
        for kk, cc in term.terms:
            acc_terms[kk] = acc_terms.get(kk, 0) + cc
    return ring.from_terms(acc_terms)


def coeff(rng, domain):
    if domain is QQ:
        return Fraction(rng.randint(-30, 30), rng.choice([1, 2, 3, 5]))
    if domain is ZZ:
        return rng.randint(-30, 30)
    return rng.randrange(domain.modulus)


def random_poly(ring, rng, nterms, max_exp):
    n = len(ring.universe)
    terms = {tuple(rng.randint(0, max_exp) for _ in range(n)): coeff(rng, ring.domain)
             for _ in range(nterms)}
    return ring.from_exp_dict(terms)


def random_image(rng, ring):
    """A polynomial, a scalar, zero or a constant of ``ring``."""
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice([0, 1, -2, 5]) if ring.domain is not QQ else Fraction(-3, 2)
    if kind == 1:
        return ring.zero
    if kind == 2:
        return ring.const(coeff(rng, ring.domain))
    return random_poly(ring, rng, rng.randint(1, 4), 2)


def substitution_cases(max_exp, count):
    """``count`` (f, mapping, target) triples per pair of domains and target,
    f with exponents up to ``max_exp``; every case maps the variables a and c, which OTHER lacks, and sometimes
    b or d, by name or by index."""
    rng = random.Random(24)
    for source_dom, target_dom in PAIRS:
        source = PolyRing(SOURCE, source_dom)
        for target in (None, PolyRing(OTHER, target_dom), PolyRing(SOURCE, target_dom)):
            into = target or source
            for _ in range(count):
                f = random_poly(source, rng, rng.randint(0, 10), max_exp)
                mapping = {}
                for i, name in enumerate(SOURCE.names):
                    if name in ("a", "c") or rng.random() < 0.5:
                        mapping[rng.choice([i, name])] = random_image(rng, into)
                yield f, mapping, target


def test_substitute_matches_per_term_reference():
    count = 0
    for f, mapping, target in substitution_cases(3, 12):
        got = f.substitute(mapping, target=target)
        assert got.ring is (target or f.ring)
        assert got == ref_substitute(f, mapping, target)
        count += 1
    assert count == len(PAIRS) * 3 * 12


def test_substitute_matches_sympy():
    sympy = pytest.importorskip("sympy")
    syms = {name: sympy.Symbol(name) for name in SOURCE.names + OTHER.names}

    def to_sympy(f):
        if not isinstance(f, MPoly):
            return sympy.Rational(Fraction(f).numerator, Fraction(f).denominator)
        names = f.universe.names
        return sympy.Add(*[
            sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
            * sympy.Mul(*[syms[names[i]] ** e for i, e in enumerate(f.ring.pack.unpack(k))])
            for k, c in f.terms
        ])

    # fewer and smaller cases than the reference check: sympy's expand is slow
    for f, mapping, target in substitution_cases(2, 4):
        ring = target or f.ring
        images = {syms[key if isinstance(key, str) else SOURCE.names[key]]: to_sympy(img)
                  for key, img in mapping.items()}
        expr = sympy.expand(to_sympy(f).subs(images, simultaneous=True))
        gens = [syms[name] for name in ring.universe.names]
        want = {exps: Fraction(int(c.p), int(c.q)) for exps, c in sympy.Poly(expr, *gens).terms()}
        assert f.substitute(mapping, target=target) == ring.from_exp_dict(want)


def test_substitute_keeps_unmapped_variables_by_name():
    source = PolyRing(SOURCE, QQ)
    other = PolyRing(OTHER, QQ)
    a, b, c, d = source.gens()
    f = a * b**2 + 3 * d - c
    got = f.substitute({"a": 2, 2: other.gen("s") + 1}, target=other)
    bb, dd, s, _ = other.gens()
    assert got == 2 * bb**2 + 3 * dd - s - 1
    # in its own ring, an unmapped variable is itself
    assert f.substitute({"b": 0}) == 3 * d - c
    assert f.substitute({}) == f


def test_substitute_refusals():
    source = PolyRing(SOURCE, ZZ)
    other = PolyRing(OTHER, ZZ)
    a, b, c, d = source.gens()
    with pytest.raises(StructuralError, match="variable a has no image"):
        (a * b + c).substitute({"c": 1}, target=other)
    # a variable that does not occur needs no image
    assert (b + c).substitute({"c": 1}, target=other) == other.gen("b") + 1
    assert source.const(4).substitute({}, target=other) == other.const(4)
    with pytest.raises(DomainMismatchError, match="must share one ring"):
        (a + b).substitute({"a": b}, target=other)
    with pytest.raises(DomainMismatchError, match="must share one ring"):
        (a + b).substitute({"a": PolyRing(SOURCE, QQ).gen("b")})
