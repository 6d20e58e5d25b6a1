"""Ring layer: domains, monomial orders, sparse polynomials, symbolic matrices."""

import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from permvar.errors import CapacityError, DomainMismatchError, StructuralError
from permvar.groebner import transport
from permvar.ring import (
    DEGREVLEX,
    GF,
    LEX,
    QQ,
    CoeffDomain,
    PolyMatrix,
    PolyRing,
    VarUniverse,
    ZZ,
    block_order,
    matrix_det,
    matrix_minors,
    poly_from_text,
)
from permvar import linalg


def ring_xy(domain=QQ, order=DEGREVLEX):
    return PolyRing(VarUniverse.free(["x", "y"]), domain, order)


# ---------------------------------------------------------------------------
# coefficient domains


def test_prime_field_requires_prime():
    GF(2147483647)
    GF(1073741789)
    with pytest.raises(StructuralError):
        GF(2147483646)
    with pytest.raises(StructuralError):
        CoeffDomain("fp")


@pytest.mark.parametrize("modulus", ["7", 7.0, None])
def test_prime_field_refuses_a_modulus_that_is_not_an_int(modulus):
    """A prime read from a config file may be any JSON value; a string was a
    TypeError from the size comparison."""
    with pytest.raises(StructuralError, match="not a word-size prime"):
        GF(modulus)


def test_rational_normalization_lowest_terms():
    assert QQ.coerce(Fraction(4, 8)) == Fraction(1, 2)
    p = GF(7)
    assert p.coerce(Fraction(1, 2)) == 4  # 2 * 4 = 8 = 1 mod 7


def test_fraction_coefficient_enters_prime_field_by_inverse():
    """A Fraction coefficient over F_p is its numerator times the inverse of
    its denominator, never its integer part."""
    R = PolyRing(VarUniverse(["x"]), GF(7))
    assert R.from_exp_dict({(1,): Fraction(1, 2)}).text() == "4*x"
    assert R.from_exp_dict({(1,): Fraction(-3, 2)}).text() == "2*x"  # -3 * 4 = 2 mod 7
    with pytest.raises(StructuralError):
        R.from_exp_dict({(1,): Fraction(1, 7)})


def test_variable_count_is_bounded():
    """A ring's packed-key weights take about 2 n^2 bytes, so a universe past
    MAX_VARS variables is refused; a matrix universe is refused on k * n,
    before its names are built (a million names would take about 60 MB)."""
    from permvar.ring import MAX_VARS

    with pytest.raises(CapacityError):
        VarUniverse([f"v{i}" for i in range(MAX_VARS + 1)])
    assert len(VarUniverse([f"v{i}" for i in range(MAX_VARS)])) == MAX_VARS
    with pytest.raises(CapacityError):
        VarUniverse.matrix(33, 32)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            VarUniverse.matrix(1, 10**6)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_a_ring_is_its_names_domain_and_order():
    """A ring is interned by its variable names, domain and order, so a free
    ring named like a 2 x 3 matrix is the generic matrix's ring, and
    ``var(i, j)`` finds x_i_j by name in either.  A name the ring lacks is
    refused.  (GF(65521) is used by no other test: the first ring built
    over it is this free one.)"""
    from permvar.permanent import generic_matrix

    names = [f"x_{i}_{j}" for i in (1, 2) for j in (1, 2, 3)]
    R = PolyRing(VarUniverse.free(names), GF(65521))
    M = generic_matrix(2, 3, GF(65521))
    assert M.rows[1][2] == R.var(2, 3)
    assert M.rows[1][2].ring is R
    with pytest.raises(StructuralError):
        R.var(9, 9)
    with pytest.raises(StructuralError):
        R.gen("nope")


def _coerce_reference(dom, c):
    """``CoeffDomain.coerce`` as written before its exact-int fast path."""
    if dom.kind == "fp":
        p = dom.modulus
        if isinstance(c, Fraction):
            den = c.denominator % p
            if den == 0:
                raise StructuralError(f"denominator of {c} vanishes mod {p}")
            return c.numerator % p * pow(den, p - 2, p) % p
        return int(c) % p
    if dom.kind == "rat":
        return Fraction(c)
    if isinstance(c, Fraction):
        if c.denominator != 1:
            raise StructuralError(f"{c} is not an integer")
        return c.numerator
    return int(c)


@pytest.mark.parametrize("dom", [ZZ, QQ, GF(2), GF(7), GF((1 << 31) - 1)], ids=repr)
def test_coerce_matches_reference_on_every_input_type(dom):
    """The fast path for exact ints changes no value and no result type:
    bools, numpy int64, negative and multi-word ints, and Fractions coerce
    (or are refused) as before."""
    np = pytest.importorskip("numpy")
    values = [
        True, False, 0, 1, -1, -8, 13, 1 << 70, -(1 << 70) - 3,
        np.int64(-5), np.int64(1 << 40), np.int64(0),
        Fraction(6, 3), Fraction(-4, 2), Fraction(1, 2), Fraction(-3, 2), Fraction(5, 7),
    ]  # fmt: skip
    for c in values:
        try:
            want = _coerce_reference(dom, c)
        except StructuralError:
            with pytest.raises(StructuralError):
                dom.coerce(c)
            continue
        got = dom.coerce(c)
        assert (got, type(got)) == (want, type(want)), c


# ---------------------------------------------------------------------------
# monomial order axioms on random exponent triples


def _random_exps(rng, n, bound=6):
    return tuple(rng.randint(0, bound) for _ in range(n))


@pytest.mark.parametrize("order", [DEGREVLEX, LEX, block_order(2)])
def test_order_axioms_random_triples(order):
    rng = random.Random(42)
    n = 5
    pack = PolyRing(VarUniverse.free([f"v{i}" for i in range(n)]), QQ, order).pack
    one = pack.pack((0,) * n)
    for _ in range(300):
        a, b, c = (_random_exps(rng, n) for _ in range(3))
        ka, kb, kc = pack.pack(a), pack.pack(b), pack.pack(c)
        # totality and antisymmetry
        assert (ka < kb) + (ka > kb) + (ka == kb) == 1
        assert (ka == kb) == (a == b)
        # compatibility with multiplication
        if ka < kb:
            assert ka + kc - pack.offset < kb + kc - pack.offset
        # the unit monomial is minimal
        if a != (0,) * n:
            assert ka > one


@pytest.mark.parametrize("order", [DEGREVLEX, LEX, block_order(2)])
def test_pack_roundtrip_mul_divides(order):
    rng = random.Random(7)
    n = 6
    pack = PolyRing(VarUniverse.free([f"v{i}" for i in range(n)]), QQ, order).pack
    for _ in range(300):
        a, b = _random_exps(rng, n), _random_exps(rng, n)
        ka, kb = pack.pack(a), pack.pack(b)
        assert pack.unpack(ka) == a
        # a product's key is the sum of the keys less the offset
        assert pack.unpack(ka + kb - pack.offset) == tuple(x + y for x, y in zip(a, b))
        divides = all(x <= y for x, y in zip(a, b))
        assert pack.divides(ka, kb) == divides
        if divides:
            assert pack.unpack(pack.quotient(kb, ka)) == tuple(
                y - x for x, y in zip(a, b)
            )
        # the lcm is divisible by both, with coprime quotients
        kl = pack.pack(tuple(map(max, a, b)))
        assert pack.divides(ka, kl) and pack.divides(kb, kl)
        qa, qb = pack.unpack(pack.quotient(kl, ka)), pack.unpack(pack.quotient(kl, kb))
        assert not any(x and y for x, y in zip(qa, qb))


KEY_ORDERS = [DEGREVLEX, LEX, block_order(1), block_order(2)]
KEY_IDS = ["degrevlex", "lex", "block1", "block2"]
CAP = 32767  # largest exponent a key field holds


def _key_pairs(rng, n, count):
    """Exponent-vector pairs, about half of them with a | b, using 0 and the
    field cap often so that every guard boundary is met."""
    pick = lambda: rng.choice([0, 0, 1, 2, rng.randint(0, 40), CAP - 1, CAP])
    for _ in range(count):
        a = tuple(pick() for _ in range(n))
        if rng.random() < 0.5:
            b = tuple(min(CAP, x + rng.choice([0, 0, 1, rng.randint(0, 40)])) for x in a)
        else:
            b = tuple(pick() for _ in range(n))
        yield a, b


@pytest.mark.parametrize("order", KEY_ORDERS, ids=KEY_IDS)
def test_key_degree_and_divisibility_oracles(order):
    """Degree read from a key, and divisibility as the packed test and as the
    reducer lookup's inlined copy of it, against the exponent vectors."""
    from permvar.groebner import _first_divisor, _reduce_terms

    rng = random.Random(5)
    for n in range(3, 10):
        R = PolyRing(VarUniverse.free([f"v{i}" for i in range(n)]), GF(101), order)
        pack = R.pack
        hits = 0
        for a, b in _key_pairs(rng, n, 150):
            ka, kb = pack.pack(a), pack.pack(b)
            assert pack.degree(ka) == sum(pack.unpack(ka)) == sum(a)
            want = all(x <= y for x, y in zip(a, b))
            hits += want
            assert pack.divides(ka, kb) == want
            # a monomial reducer is found for the term, and removes it,
            # exactly when it divides it
            find = _first_divisor(R, [((ka, 1),)], [ka], [True])
            assert (find(kb) is not None) == want
            assert (_reduce_terms({kb: 1}, find, R)[0] == {}) == want
        assert 40 < hits < 110
        if order.kind == "block":
            assert pack._guard_low and pack._guard_high  # keys with both parts


@pytest.mark.parametrize("order", KEY_ORDERS, ids=KEY_IDS)
def test_spell_reads_only_the_support(order):
    """A key's spelling from its nonzero fields equals the one read off the
    full exponent vector, with exponents up to 300 and the cap once."""
    rng = random.Random(29)
    for n in range(1, 10):
        pack = PolyRing(VarUniverse.free([f"v{i}" for i in range(n)]), GF(101), order).pack
        for _ in range(60):
            exps = tuple(rng.choice([0, 0, 1, rng.randint(0, 300)]) for _ in range(n))
            key = pack.pack(exps)
            want = tuple(i for i, e in enumerate(pack.unpack(key)) for _ in range(e))
            assert pack.spell(key) == want
    exps = (2, CAP, 0, 1)
    pack = PolyRing(VarUniverse.free(["a", "b", "c", "d"]), GF(101), order).pack
    assert pack.spell(pack.pack(exps)) == (0, 0) + (1,) * CAP + (3,)


def test_degrevlex_tiebreak():
    # same degree: the monomial avoiding the last variable wins
    R = PolyRing(VarUniverse.matrix(2, 2), QQ)
    x11, x12, x21, x22 = R.gens()
    p = x11 * x22 + x12 * x21
    assert p.lead_monomial() == (0, 1, 1, 0)
    lex = transport(p, PolyRing(R.universe, QQ, LEX))
    assert lex.lead_monomial() == (1, 0, 0, 1)


# ---------------------------------------------------------------------------
# arithmetic properties


@pytest.mark.parametrize("domain", [QQ, GF(2147483647), GF(1073741789)])
def test_mul_commutative_associative_distributive(domain):
    rng = random.Random(11)
    R = PolyRing(VarUniverse.free(["x", "y", "z"]), domain)

    def rand_poly():
        acc = R.zero
        for _ in range(rng.randint(1, 5)):
            e = tuple(rng.randint(0, 3) for _ in range(3))
            acc = acc + R.from_exp_dict({e: rng.randint(-9, 9)})
        return acc

    for _ in range(60):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_zero_and_identity():
    R = ring_xy()
    x, y = R.gens()
    p = x * y + 3
    assert (p * R.zero).is_zero()
    assert p * R.one == p
    assert (x + y) * (x + y) == x**2 + 2 * x * y + y**2


@pytest.mark.parametrize("domain", [ZZ, QQ, GF(7)])
def test_negation_matches_scaling_by_minus_one(domain):
    """Negation keeps the terms in order and the F_7 residues canonical."""
    rng = random.Random(13)
    R = PolyRing(VarUniverse.free(["x", "y", "z"]), domain)

    def coeff():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 3) if domain == QQ else 1)

    polys = [R.zero, R.one, R.const(-3)] + [
        R.from_exp_dict(
            {tuple(rng.randint(0, 3) for _ in range(3)): coeff() for _ in range(rng.randint(1, 6))}
        )
        for _ in range(40)
    ]
    for f in polys:
        assert -f == f * -1
        assert -(-f) == f


def test_domain_mismatch_raises():
    a = ring_xy(QQ).gen(0)
    b = ring_xy(GF(7)).gen(0)
    with pytest.raises(DomainMismatchError):
        a * b


# ---------------------------------------------------------------------------
# calculus, substitution, evaluation


def test_diff_product_rule_on_2x2_permanent():
    R = PolyRing(VarUniverse.matrix(2, 2), QQ)
    p = R.var(1, 1) * R.var(2, 2) + R.var(1, 2) * R.var(2, 1)
    assert p.diff("x_1_1") == R.var(2, 2)
    assert R.const(5).diff(0).is_zero()


def test_diff_generic_3x3_permanent_matches_hand_expansion():
    # oracle: expand the 6-term permanent directly, differentiate by hand
    R = PolyRing(VarUniverse.matrix(3, 3), QQ)
    v = lambda i, j: R.var(i, j)
    perm = R.zero
    for s in permutations((1, 2, 3)):
        perm = perm + v(1, s[0]) * v(2, s[1]) * v(3, s[2])
    want = v(2, 2) * v(3, 3) + v(2, 3) * v(3, 2)
    assert perm.diff("x_1_1") == want


def test_substitute_identity_and_shift():
    R = ring_xy()
    x, y = R.gens()
    p = x**2 + y
    assert p.substitute({}) == p
    assert (x**2).substitute({"x": x + 1}) == x**2 + 2 * x + 1


def test_evaluate():
    R = PolyRing(VarUniverse.matrix(2, 2), QQ)
    p = R.var(1, 1) * R.var(2, 2) + R.var(1, 2) * R.var(2, 1)
    assert p.evaluate([[1, 1, 1, 1]]) == [2]
    assert R.zero.evaluate([[5, 6, 7, 8]]) == [0]
    Rp = PolyRing(R.universe, GF(13))
    assert transport(p, Rp).evaluate([[1, 2, 3, 4]]) == [10]


# ---------------------------------------------------------------------------
# serialization


def test_text_roundtrip_bit_exact():
    rng = random.Random(3)
    R = PolyRing(VarUniverse.matrix(2, 3), QQ)
    for _ in range(100):
        acc = R.zero
        for _ in range(rng.randint(0, 6)):
            e = tuple(rng.randint(0, 4) for _ in range(6))
            c = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            acc = acc + R.from_exp_dict({e: c})
        text = acc.text()
        assert poly_from_text(text, R) == acc
        assert poly_from_text(text, R).text() == text


def test_text_form_examples():
    R = PolyRing(VarUniverse.matrix(2, 2), QQ)
    p = 3 * R.var(1, 2) ** 2 * R.var(2, 1) - 7
    assert p.text() == "3*x_1_2^2*x_2_1 - 7"
    assert R.zero.text() == "0"
    assert poly_from_text("3*x_1_2^2*x_2_1 - 7", R) == p


def test_text_rejects_unknown_variable():
    R = ring_xy()
    with pytest.raises(StructuralError):
        poly_from_text("x*q", R)


# ---------------------------------------------------------------------------
# matrices: determinants, minors, family rank


def test_det_2x2_symbolic():
    R = PolyRing(VarUniverse.free(["a", "b", "c", "d"]), QQ)
    a, b, c, d = R.gens()
    M = PolyMatrix([[a, b], [c, d]])
    assert matrix_det(M) == a * d - b * c


def naive_det(mat):
    """Leibniz: the sum over permutations s of sign(s) prod_i mat[i][s(i)]."""
    n = len(mat)
    total = 0
    for s in permutations(range(n)):
        prod = 1
        for i, j in enumerate(s):
            prod *= mat[i][j]
        if prod:
            inversions = sum(s[a] > s[b] for a, b in combinations(range(n), 2))
            total += -prod if inversions & 1 else prod
    return total


def test_det_symbolic_vs_bareiss_on_random_constants():
    """det(y A) = y^n det A and each h x h minor of y A is y^h times that of
    A: the symbolic expansion against the Leibniz sum on the constant matrix."""
    rng = random.Random(19)
    R = PolyRing(VarUniverse.free(["y"]), QQ)
    y = R.gen(0)
    for n in range(1, 9):
        for _ in range(10):
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            M = PolyMatrix([[R.const(x) * y for x in row] for row in rows])
            assert matrix_det(M) == naive_det(rows) * y**n
    for m, n in ((3, 5), (4, 4), (5, 3)):
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        M = PolyMatrix([[R.const(x) * y for x in row] for row in rows])
        for h in range(1, min(m, n) + 1):
            want = [
                naive_det([[rows[i][j] for j in cols] for i in rs]) * y**h
                for cols in combinations(range(n), h)
                for rs in combinations(range(m), h)
            ]
            assert matrix_minors(h, M) == want


def test_det_requires_square():
    R = ring_xy()
    with pytest.raises(StructuralError):
        matrix_det(PolyMatrix([[R.one, R.one]]))


@pytest.mark.parametrize("order", KEY_ORDERS, ids=KEY_IDS)
def test_exponent_overflow_refused(order):
    for domain in (QQ, GF(2147483647)):
        R = PolyRing(VarUniverse.free(["x", "y", "z"]), domain, order)
        x, y, z = R.gens()
        with pytest.raises(CapacityError):
            x**20000 * x**20000
        with pytest.raises(CapacityError):
            (x + 1) * z**CAP * (z + y)
        with pytest.raises(CapacityError):
            x ** (CAP + 1)
        with pytest.raises(CapacityError):
            (x**20000 + y) ** 2
        # degree above the cap, every exponent within it: computed exactly
        big = (x**20000 + y) * (y**20000 + z**CAP)
        assert sorted(R.pack.unpack(k) for k, _ in big.terms) == [
            (0, 1, CAP), (0, 20001, 0), (20000, 0, CAP), (20000, 20000, 0)
        ]
        assert big.total_degree() == 20000 + CAP
        assert (x * y) ** CAP == x**CAP * y**CAP
        assert (x**CAP).lead_monomial() == (CAP, 0, 0)


def test_det_capacity_bound():
    R = PolyRing(VarUniverse.free([f"v{i}" for i in range(81)]), QQ)
    g = R.gens()
    M = PolyMatrix([[g[9 * i + j] for j in range(9)] for i in range(9)])
    with pytest.raises(CapacityError):
        matrix_det(M)


def test_minors_examples():
    R = PolyRing(VarUniverse.free(["x"]), QQ)
    M = PolyMatrix([[R.const(c) for c in row] for row in [[1, 0, 1], [0, 1, 1]]])
    assert matrix_minors(1, M) == [1, 0, 0, 1, 1, 1]
    assert matrix_minors(2, M) == [1, 1, -1]
    # count of 3x3 minors of a 6x6 matrix
    six = PolyMatrix([[R.const(1)] * 6 for _ in range(6)])
    assert len(matrix_minors(3, six)) == math.comb(6, 3) ** 2


def poly_family_rank(fs):
    """Rank over QQ of the coefficient matrix: one row per polynomial, one
    column per monomial of the family."""
    col = {key: i for i, key in enumerate({key for f in fs for key, _ in f.terms})}
    rows = [[0] * len(col) for _ in fs]
    for row, f in zip(rows, fs):
        for key, c in f.terms:
            row[col[key]] = c
    return linalg.rank(rows)


def test_poly_family_rank_trivial():
    R = ring_xy()
    x, y = R.gens()
    p = x * y + y
    assert poly_family_rank([p, 2 * p]) == 1
    assert poly_family_rank([]) == 0
    assert poly_family_rank([x, y, x + y]) == 2


def test_poly_family_rank_of_permanent_families():
    """The coefficient matrix of the h x h permanents has rank C(k,h)*C(n,h):
    they are linearly independent (each contains its private main-diagonal
    monomial)."""
    from permvar.permanent import generic_matrix, matrix_permanents

    for k in range(2, 6):
        for n in range(k, 6):
            M = generic_matrix(k, n, domain=QQ)
            for h in range(1, k + 1):
                fam = matrix_permanents(h, M)
                assert len(fam) == math.comb(k, h) * math.comb(n, h)
                assert poly_family_rank(fam) == len(fam)


def test_hankel_syzygy_identity_exact():
    from permvar.experiments import hankel_syzygy_identity

    for n in (4, 5, 6, 7):
        assert hankel_syzygy_identity(n)


def test_shifted_permanent_linear_part_spans_stated_hyperplane():
    """Translating the generic 3x4 matrix to the all-ones/zeros point: each
    shifted maximal permanent has linear part (k-1)! * sum of the omitted
    last-row variables."""
    k, n = 3, 4
    R = PolyRing(VarUniverse.matrix(k, n), QQ)
    rows = []
    rows.append([R.one] + [R.var(1, j) + 1 for j in range(2, n + 1)])
    rows.append([R.var(2, j) + 1 for j in range(1, n + 1)])
    rows.append([R.var(3, j) for j in range(1, n + 1)])
    M = PolyMatrix(rows)
    from permvar.permanent import perm_symbolic

    fact = math.factorial(k - 1)
    for j in range(n):
        cols = [c for c in range(n) if c != j]
        g = perm_symbolic(PolyMatrix([[row[c] for c in cols] for row in M.rows]))
        linear = R.from_terms({key: c for key, c in g.terms if R.pack.degree(key) == 1})
        want = R.zero
        for c in cols:
            want = want + R.var(3, c + 1)
        assert linear == fact * want
