"""Property tests for packed monomial keys: ``_Pack.lcm`` and its batch
``_Pack.lcms`` against the fieldwise max of exponent vectors, ``_Pack.zeros``
and the reducer lookup's support test against the exponent vectors'
supports, and ``transport`` between rings that share their keys, or whose
degrevlex keys differ by a permutation of their fields, against the
term-by-term path.  Skipped when hypothesis is not installed.

The lcm and the zero mask are checked under every key layout: degrevlex
(complement fields and a degree field only), lex (raw fields only) and two
block orders (both).  Odd and even variable counts up to 31 leave the last
32-bit lane of the degree sum half or fully filled; exponents 0 and the field
cap meet the guard boundaries, and 1 and cap - 1 sit next to them, where an
add constant off by one would carry or fail to.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from permvar import groebner  # noqa: E402
from permvar.errors import DomainMismatchError  # noqa: E402
from permvar.groebner import transport  # noqa: E402
from permvar.ring import (  # noqa: E402
    _FIELD_CAP,
    DEGREVLEX,
    GF,
    LEX,
    QQ,
    ZZ,
    PolyRing,
    VarUniverse,
    _Pack,
    block_order,
)

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=100)
ORDERS = [DEGREVLEX, LEX, block_order(1), block_order(3)]
EXPONENTS = st.one_of(st.sampled_from([0, 1, _FIELD_CAP - 1, _FIELD_CAP]), st.integers(0, _FIELD_CAP))


@st.composite
def exponent_pairs(draw):
    n = draw(st.integers(1, 31))
    vector = st.lists(EXPONENTS, min_size=n, max_size=n)
    return n, draw(vector), draw(vector)


@pytest.mark.parametrize("order", ORDERS, ids=repr)
@SETTINGS
@given(case=exponent_pairs())
def test_lcm_is_the_packed_fieldwise_max(order, case):
    n, a, b = case
    pack = _Pack(n, order)
    ka, kb = pack.pack(a), pack.pack(b)
    want = pack.pack(list(map(max, a, b)))
    assert pack.lcm(ka, kb) == pack.lcm(kb, ka) == want
    assert pack.lcm(ka, ka) == ka
    assert pack.lcm(ka, pack.one) == ka
    # the batch is lcm key by key, of keys with the degree field masked off
    top = pack.pack([_FIELD_CAP] * n)
    batch = [kb, ka, pack.one, top, kb]
    assert pack.lcms(ka, [k & pack._values for k in batch]) == [want, ka, ka, top, want]
    assert pack.lcms(ka, []) == []
    # coprime iff the lcm is the product key
    assert (want == ka + kb - pack.offset) == (not any(x and y for x, y in zip(a, b)))


@st.composite
def boundary_pairs(draw):
    n = draw(st.integers(1, 31))
    vector = st.lists(st.sampled_from([0, 1, _FIELD_CAP - 1, _FIELD_CAP]), min_size=n, max_size=n)
    return n, draw(vector), draw(vector)


@pytest.mark.parametrize("order", ORDERS, ids=repr)
@SETTINGS
@given(case=boundary_pairs())
def test_support_test_rejects_exactly_the_support_misses(order, case):
    """The lookup's test ``(zeros(a) ^ guard) & zeros(b)`` is nonzero iff a
    uses a variable that b lacks, so it never rejects a divisor."""
    n, a, b = case
    pack = _Pack(n, order)
    ka, kb = pack.pack(a), pack.pack(b)
    za = pack.zeros(ka)
    assert za & ~pack.guard == 0
    assert bin(za).count("1") == a.count(0)

    def rejects(ka, kb):
        return (pack.zeros(ka) ^ pack.guard) & pack.zeros(kb) != 0

    assert rejects(ka, kb) == any(x >= 1 and y == 0 for x, y in zip(a, b))
    # a divisor of b: the fieldwise min
    kd = pack.pack(list(map(min, a, b)))
    assert pack.divides(kd, kb) and not rejects(kd, kb)
    if pack.divides(ka, kb):
        assert not rejects(ka, kb)


def _diff_reference(f, var):
    """``MPoly.diff`` term by term: unpack the key, lower the exponent and
    pack it again."""
    pack, acc = f.ring.pack, {}
    for k, c in f.terms:
        exps = list(pack.unpack(k))
        if exps[var]:
            exps[var] -= 1
            acc[pack.pack(exps)] = c * (exps[var] + 1)
    return f.ring.from_terms(acc)


THREE_ORDERS = [DEGREVLEX, LEX, block_order(1)]


@SETTINGS
@given(
    order=st.sampled_from(THREE_ORDERS),
    domain=st.sampled_from([ZZ, QQ, GF(5)]),
    n=st.integers(1, 6),
    data=st.data(),
)
def test_diff_on_packed_keys_matches_unpack_and_pack(order, domain, n, data):
    """Exponents 0 and 1, 5 (p over F_5, where the derived term vanishes),
    cap - 1 and the cap, in raw (lex) and complement (degrevlex) fields."""
    ring = PolyRing(VarUniverse.free([f"v{i}" for i in range(n)]), domain, order)
    exps = st.one_of(st.sampled_from([0, 1, 5, _FIELD_CAP - 1, _FIELD_CAP]), EXPONENTS)
    terms = data.draw(st.dictionaries(st.tuples(*[exps] * n), st.integers(-9, 9), max_size=8))
    f = ring.from_exp_dict(terms)
    for var in range(n):
        assert f.diff(var) == _diff_reference(f, var)


@pytest.mark.parametrize("order", THREE_ORDERS, ids=repr)
def test_diff_at_the_prime_and_at_the_cap(order):
    ring = PolyRing(VarUniverse.free(["x", "y"]), GF(5), order)
    x, y = ring.gens()
    assert (x**5 * y).diff("x") == 0
    assert (x**5 * y).diff("y") == x**5
    assert (x**_FIELD_CAP * y).diff(0) == _FIELD_CAP % 5 * x ** (_FIELD_CAP - 1) * y


P = 2147483647
UNIVERSE = VarUniverse.free(["x", "y", "z"])


@st.composite
def rational_polys(draw):
    """Terms over QQ with Fraction coefficients, some of them multiples of P
    (zero residues in F_P); the denominators are coprime to P."""
    exps = st.tuples(*[st.integers(0, 4)] * 3)
    num = st.one_of(st.integers(-9, 9), st.integers(-2, 2).map(lambda m: m * P))
    coeff = st.builds(Fraction, num, st.integers(1, 12))
    return draw(st.dictionaries(exps, coeff, max_size=8))


def _term_by_term(f, ring):
    """The per-term path: unpack each key in the source ring, pack it in the
    target and coerce the coefficient."""
    unpack = f.ring.pack.unpack
    return ring.from_exp_dict({unpack(k): c for k, c in f.terms})


@SETTINGS
@given(order=st.sampled_from([DEGREVLEX, LEX, block_order(1)]), terms=rational_polys())
def test_transport_between_domains_keeps_keys(order, terms):
    rat = PolyRing(UNIVERSE, QQ, order)
    fp = rat.with_domain(GF(P))
    f = rat.from_exp_dict(terms)
    g = transport(f, fp)
    assert g == _term_by_term(f, fp)
    assert all(0 < c < P for _, c in g.terms)
    assert [k for k, _ in g.terms] == [k for k, c in f.terms if GF(P).coerce(c)]
    back = transport(g, rat)
    assert back == _term_by_term(g, rat)
    assert all(isinstance(c, Fraction) for _, c in back.terms)


def _by_name(f, ring):
    """The general path: each key unpacked in the source ring and packed in
    the target, variable by name."""
    index, names = ring.universe.index, f.ring.universe.names
    out = {}
    for k, c in f.terms:
        exps = [0] * len(ring.universe)
        for nm, e in zip(names, f.ring.pack.unpack(k)):
            exps[index[nm]] = e
        out[tuple(exps)] = c
    return ring.from_exp_dict(out)


@st.composite
def permuted_rings(draw):
    """A degrevlex ring and one of the same domain over a permutation of its
    names: the identity, the reversal, one variable moved to the end, or any;
    with a polynomial of the first, some exponents at the field cap."""
    n = draw(st.integers(1, 12))
    names = [f"v{i}" for i in range(n)]
    moved = draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(["identity", "reversal", "to-end", "any"]))
    perm = {
        "identity": names,
        "reversal": names[::-1],
        "to-end": names[:moved] + names[moved + 1 :] + names[moved : moved + 1],
        "any": draw(st.permutations(names)),
    }[kind]
    domain = draw(st.sampled_from([GF(P), QQ]))
    src = PolyRing(VarUniverse(names), domain, DEGREVLEX)
    tgt = PolyRing(VarUniverse(perm), domain, DEGREVLEX)
    exps = st.tuples(*[st.one_of(st.integers(0, 3), st.just(_FIELD_CAP))] * n)
    f = src.from_exp_dict(draw(st.dictionaries(exps, st.integers(1, 9), max_size=8)))
    return src, tgt, f


@SETTINGS
@given(case=permuted_rings())
def test_transport_between_permuted_degrevlex_rings_moves_fields(case):
    """Both directions match the term-by-term path, in the target's term
    order; every run of one field table is a mask and one shift."""
    src, tgt, f = case
    for a, b, g in ((src, tgt, f), (tgt, src, transport(f, tgt))):
        keep, runs = groebner._field_runs(a, b)
        assert keep == -1 << 16 * len(a.universe)
        assert all(not (up and down) for _, up, down in runs)
        moved = transport(g, b)
        assert moved == _by_name(g, b)
        assert [k for k, _ in moved.terms] == sorted((k for k, _ in moved.terms), reverse=True)
    assert transport(transport(f, tgt), src) == f
    if src is tgt:
        assert len(groebner._field_runs(src, tgt)[1]) == 1


@pytest.mark.parametrize("order", [LEX, block_order(1), block_order(3)], ids=repr)
def test_transport_into_or_out_of_an_ungraded_ring_takes_the_general_path(order):
    names = ["a", "b", "c", "d"]
    graded = PolyRing(VarUniverse(names), QQ, DEGREVLEX)
    other = PolyRing(VarUniverse(names[::-1]), QQ, order)
    f = graded.from_exp_dict({(1, 0, 2, 3): 2, (0, 4, 0, 0): -1, (0, 0, 0, 1): 5})
    assert groebner._field_runs(graded, other) is None
    assert groebner._field_runs(other, graded) is None
    assert transport(f, other) == _by_name(f, other)
    assert transport(transport(f, other), graded) == f


def test_transport_between_domains_or_into_more_names_takes_the_general_path():
    src = PolyRing(VarUniverse(["a", "b", "c"]), QQ, DEGREVLEX)
    f = src.from_exp_dict({(1, 0, 2): Fraction(1, 3), (0, 3, 0): 4})
    fp = PolyRing(VarUniverse(["c", "b", "a"]), GF(P), DEGREVLEX)
    wider = PolyRing(VarUniverse(["c", "t", "b", "a"]), QQ, DEGREVLEX)
    for tgt in (fp, wider):
        assert groebner._field_runs(src, tgt) is None
        assert transport(f, tgt) == _by_name(f, tgt)
    # a target lacking a name that f uses is refused, as it was
    narrow = PolyRing(VarUniverse(["c", "a"]), QQ, DEGREVLEX)
    assert groebner._field_runs(src, narrow) is None
    with pytest.raises(DomainMismatchError):
        transport(f, narrow)
