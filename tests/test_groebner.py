"""Buchberger engine, normal forms, dimension, degree, saturation, radicals."""

import hashlib
import math
import random
import time
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations, combinations_with_replacement
from math import gcd, lcm

import pytest

from permvar import budget, groebner
from permvar.budget import Budget
from permvar.errors import (
    CapacityError,
    GroebnerTimeout,
    InternalConsistencyError,
    PreconditionError,
    StructuralError,
)
from permvar.groebner import (
    _eliminate_t,
    _front_ring,
    _interreduce,
    _saturate_general,
    buchberger,
    contains,
    hilbert_degree,
    hilbert_numerator,
    ideal_dimension,
    ideal_intersection,
    independent_set,
    normal_form,
    over_prime,
    radical_membership,
    saturate,
    transport,
)
from permvar.experiments import build_slice
from permvar.permanent import GenericMatrixSpec, permanental_ideal
from permvar.ring import (
    DEGREVLEX,
    GF,
    LEX,
    QQ,
    PolyRing,
    VarUniverse,
    block_order,
)
from test_groebner_reference import lookup_over, monic, reducer_terms, ref_standard_monomials

P1 = 2147483647
P2 = 1073741789


def ring_of(names, domain=QQ, order=DEGREVLEX):
    return PolyRing(VarUniverse.free(list(names)), domain, order)


def s_pairs_reduce_to_zero(G):
    """Buchberger's criterion: every S-polynomial of two basis elements
    reduces to zero modulo the basis."""
    pack, gens = G.ring.pack, G.gens
    find = lookup_over([g for g in gens if g], G.ring)
    terms = [reducer_terms(g) for g in gens]
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            l = pack.pack(tuple(map(max, gens[i].lead_monomial(), gens[j].lead_monomial())))
            sp = groebner._spoly(terms[i], terms[j], l, pack)
            if groebner._reduce_terms(sp, find, G.ring)[0]:
                return False
    return True


# ---------------------------------------------------------------------------
# basics


def test_single_generator():
    R = ring_of("xy")
    x, y = R.gens()
    G = buchberger([x])
    assert [g.text() for g in G.gens] == ["x"]


def test_lex_example_xy_minus_1():
    # one S-polynomial by hand: y*(xy-1) - x*(y^2-1) = x - y; then xy-1 reduces to 0
    R = ring_of("xy", order=LEX)
    x, y = R.gens()
    G = buchberger([x * y - 1, y**2 - 1])
    assert sorted(g.text() for g in G.gens) == ["x - y", "y^2 - 1"]
    assert s_pairs_reduce_to_zero(G)


def test_buchberger_requires_field():
    from permvar.ring import ZZ

    R = ring_of("xy", domain=ZZ)
    with pytest.raises(PreconditionError):
        buchberger([R.gen(0)])


def test_reduced_basis_invariants():
    """Monic leading coefficients, pairwise non-divisible leading terms, and
    no term divisible by another element's leading term."""
    rng = random.Random(5)
    R = ring_of("xyz", domain=GF(P1))

    def rand_poly():
        acc = R.zero
        for _ in range(rng.randint(1, 4)):
            e = tuple(rng.randint(0, 3) for _ in range(3))
            acc = acc + R.from_exp_dict({e: rng.randint(1, 50)})
        return acc

    for _ in range(25):
        gens = [rand_poly() for _ in range(rng.randint(1, 4))]
        gens = [g for g in gens if g]
        if not gens:
            continue
        G = buchberger(gens)
        pack = R.pack
        lts = [g.lead_key() for g in G.gens]
        for g in G.gens:
            assert g.terms[0][1] == 1
        for i, a in enumerate(lts):
            for j, b in enumerate(lts):
                if i != j:
                    assert not pack.divides(a, b)
        for i, g in enumerate(G.gens):
            for k, _ in g.terms[1:]:
                assert not any(pack.divides(lt, k) for lt in lts)
        assert s_pairs_reduce_to_zero(G)


def test_normal_form_membership_and_idempotence():
    R = ring_of("xy", domain=GF(P1))
    x, y = R.gens()
    gens = [x * y - 1, y**2 - 1]
    G = buchberger(gens)
    for g in gens:
        assert normal_form(g, G).is_zero()
    assert normal_form(y, buchberger([x])) == y
    rng = random.Random(4)
    for _ in range(30):
        f = R.from_exp_dict(
            {(rng.randint(0, 4), rng.randint(0, 4)): rng.randint(1, 9) for _ in range(3)}
        )
        nf = normal_form(f, G)
        assert normal_form(nf, G) == nf


# ---------------------------------------------------------------------------
# dimension and degree


def test_dimension_basics():
    R = ring_of("xy")
    x, y = R.gens()
    rep = ideal_dimension(buchberger([x, y]))
    assert (rep.dim, rep.codim, rep.degree) == (0, 2, 1)
    assert ideal_dimension(buchberger([x * y])).dim == 1
    assert independent_set(buchberger([x * y])) in (("x",), ("y",))


def test_dimension_order_independent():
    rng = random.Random(17)
    for nv in (3, 5, 7, 9):
        R1 = ring_of([f"v{i}" for i in range(nv)], domain=GF(P1))
        R2 = PolyRing(R1.universe, R1.domain, LEX)
        for _ in range(8):
            gens = []
            for _ in range(rng.randint(1, 3)):
                e1 = tuple(rng.randint(0, 2) for _ in range(nv))
                e2 = tuple(rng.randint(0, 2) for _ in range(nv))
                gens.append(R1.from_exp_dict({e1: 1}) - R1.from_exp_dict({e2: 1}))
            gens = [g for g in gens if g]
            if not gens:
                continue
            d1 = ideal_dimension(buchberger(gens)).dim
            d2 = ideal_dimension(buchberger([transport(g, R2) for g in gens])).dim
            assert d1 == d2


@pytest.mark.parametrize("order", [DEGREVLEX, LEX], ids=["degrevlex", "lex"])
def test_numerator_invariants_match_independent_sets_and_standard_monomials(order):
    """Differential check of the Hilbert-numerator invariants: the dimension
    equals the size of a largest independent variable set, found by brute
    force, and in dimension 0 the degree equals the number of standard
    monomials.  ``independent_set`` is the first largest set in index order,
    the one the CLI prints."""
    rng = random.Random(53)
    seen = {"unit": 0, "dim0": 0, "positive": 0}
    for nv in range(3, 10):
        R = ring_of([f"v{i}" for i in range(nv)], domain=GF(P1), order=order)
        for _ in range(8):
            gens = []
            for _ in range(rng.randint(1, 3)):
                g = R.from_exp_dict({tuple(rng.randint(0, 2) for _ in range(nv)): 1})
                if rng.random() < 0.6:  # binomial
                    g = g - R.from_exp_dict({tuple(rng.randint(0, 2) for _ in range(nv)): 1})
                gens.append(g)
            if rng.random() < 0.4:  # pure powers of every variable force dimension 0
                gens.extend(R.gen(i) ** rng.randint(1, 2) for i in range(nv))
            gens = [g for g in gens if g]
            if not gens:
                continue
            G = buchberger(gens)
            rep = ideal_dimension(G)
            if G.is_unit_ideal():
                seen["unit"] += 1
                assert (rep.dim, rep.codim, rep.degree) == (-1, nv + 1, None)
                assert independent_set(G) == ()
                continue
            supports = [[i for i, e in enumerate(m) if e] for m in G.lead_ideal]
            assert rep.dim == _brute_force_monomial_dim(supports, nv)
            assert rep.codim == nv - rep.dim
            first = next(
                S
                for S in combinations(range(nv), rep.dim)
                if not any(set(sup) <= set(S) for sup in supports)
            )
            assert independent_set(G) == tuple(f"v{i}" for i in first)
            if rep.dim == 0:
                seen["dim0"] += 1
                assert rep.degree == len(ref_standard_monomials(G))
            else:
                seen["positive"] += 1
                assert rep.degree is None
    assert seen["dim0"] >= 5 and seen["positive"] >= 5, seen


def test_independent_set_refuses_a_numerator_the_leads_contradict():
    """The witness search trusts the numerator's dimension; a numerator
    claiming more than the leads allow is an internal fault, not a smaller
    answer."""
    R = ring_of("xy")
    x, y = R.gens()
    G = buchberger([x * y])
    G._cache["hilbert_numerator"] = (1,)  # the zero ideal's: dimension 2
    with pytest.raises(InternalConsistencyError):
        independent_set(G)


def test_independent_set_search_honours_the_budget():
    """With the numerator cached, a spent budget stops the exhaustive
    search at its first step, in a phase of its own."""
    R = ring_of([f"v{i}" for i in range(6)], domain=GF(P1))
    v = R.gens()
    G = buchberger([v[0] * v[1], v[2] * v[3] * v[4]])
    assert ideal_dimension(G).dim == 4
    with pytest.raises(GroebnerTimeout) as err, Budget(-1.0):
        independent_set(G)
    assert err.value.stats == {"phase": "independent set", "variable": 0, "size": 0}
    assert independent_set(G) == ("v0", "v2", "v3", "v5")


def test_quotient_degree_examples():
    R = ring_of("xy")
    x, y = R.gens()
    assert ideal_dimension(buchberger([x**2, y**2])).degree == 4
    R1 = ring_of("x")
    (x1,) = R1.gens()
    assert ideal_dimension(buchberger([x1 - 1])).degree == 1
    assert ideal_dimension(buchberger([x])).degree is None  # dimension 1


def test_standard_monomials():
    """The standard monomials of (x^2, y^2) are the monomials that are their
    own normal form, and there are as many as the degree."""
    R = ring_of("xy")
    x, y = R.gens()
    G = buchberger([x**2, y**2])
    std = ref_standard_monomials(G)
    assert std == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(normal_form(R.from_exp_dict({e: 1}), G) == R.from_exp_dict({e: 1}) for e in std)
    assert not normal_form(x * y**2, G)
    assert ideal_dimension(G).degree == len(std)


def test_hilbert_degree_examples():
    R = ring_of("xy")
    x, y = R.gens()
    assert hilbert_degree(buchberger([x**2, y**2])) == 4
    R1 = ring_of("x")
    assert hilbert_degree(buchberger([R1.gen(0)])) == 1
    with pytest.raises(StructuralError):
        hilbert_degree(buchberger([x**2 - y]))  # inhomogeneous


def test_hilbert_degree_twisted_cubic():
    R = ring_of("xyzw", domain=GF(P1))
    x, y, z, w = R.gens()
    G = buchberger([x * z - y * y, x * w - y * z, y * w - z * z])
    assert ideal_dimension(G).codim == 2
    assert hilbert_degree(G) == 3
    # the numerator is computed once and cached on the basis
    assert hilbert_numerator(G) is hilbert_numerator(G)
    assert hilbert_degree(G) == 3


def test_hilbert_numerator_honours_deadline():
    """A spent budget stops the recursion at its first step, names the
    phase, and leaves nothing cached; with time left the basis still answers."""
    gens = over_prime(permanental_ideal(GenericMatrixSpec(2, 4)), P1)
    G = buchberger(gens)
    for call in (hilbert_numerator, ideal_dimension):
        with pytest.raises(GroebnerTimeout) as err, Budget(-1.0):
            call(G)
        assert err.value.stats == {"phase": "hilbert", "steps": 0}
        assert "hilbert_numerator" not in G._cache
    with Budget(60):
        assert ideal_dimension(G).codim == 4
    # once cached, the numerator needs no time at all
    with Budget(-1.0):
        assert hilbert_numerator(G) is hilbert_numerator(G)


def _random_quartics():
    """40 random quartic monomials in 14 variables."""
    R = ring_of([f"x{i}" for i in range(14)], domain=GF(P1))
    rng = random.Random(1)
    gens = []
    for _ in range(40):
        exps = [0] * 14
        for _ in range(4):
            exps[rng.randrange(14)] += 1
        gens.append(R.from_exp_dict({tuple(exps): 1}))
    return gens


def test_hilbert_recursion_reads_the_clock_every_256_steps(monkeypatch):
    """Under an open budget the Hilbert recursion reads the clock at least
    once per 256 steps.  The clock is a stub whose time is its count of
    reads, so a budget of b units, opened at one read, runs out at the
    (b + 1)-th read after it; the timeout then names at most 256 b steps.
    The lead ideal, 40 random quartic monomials in 14 variables, takes more
    than 1,000 steps, so each budget below runs out before the end."""
    G = buchberger(_random_quartics())

    class Clock:
        reads = 0

        def monotonic(self):
            Clock.reads += 1
            return float(Clock.reads)

    monkeypatch.setattr(budget, "time", Clock())
    for units in (1, 2, 3):
        with pytest.raises(GroebnerTimeout) as err, Budget(units):
            hilbert_numerator(G)
        assert err.value.stats["phase"] == "hilbert"
        assert 0 < err.value.stats["steps"] <= 256 * units


@pytest.mark.parametrize(
    "make, want, checks",
    [
        (
            lambda: _sliced_circulant4(GF(P1)),
            (1, 0, 0, 0, -5, 0, 0, 0, 10, 0, 0, 0, -10, 0, 0, 0, 5, 0, 0, 0, -1),
            2,
        ),
        (
            _random_quartics,
            (1, 0, 0, 0, -40, 18, 125, 139, -640, -121, 1556, -1012, -931, 1357, -309)
            + (-306, 197, -38, 8, -5, 1),
            5,
        ),
    ],
    ids=["slice-circulant4", "quartics"],
)
def test_hilbert_recursion_keeps_its_numerator_and_its_steps(make, want, checks, monkeypatch):
    """slice-circulant4's 204 leads, (1 - t^4)^5, and the 40 quartics keep
    their numerators and their number of budget checks, one per 256
    recursion steps."""
    G = buchberger(make())
    calls = []
    check = budget.check
    monkeypatch.setattr(budget, "check", lambda phase, *a: calls.append(phase) or check(phase, *a))
    assert hilbert_numerator(G) == want
    assert calls == ["hilbert"] * checks


def test_hilbert_numerator_matches_standard_monomial_count():
    """On zero-dimensional ideals the numerator evaluated via (1-t)-division
    must reproduce the direct standard-monomial count."""
    rng = random.Random(23)
    R = ring_of("xyz", domain=GF(P1))
    x, y, z = R.gens()
    for _ in range(10):
        gens = [x ** rng.randint(1, 3), y ** rng.randint(1, 3), z ** rng.randint(1, 3)]
        if rng.random() < 0.5:
            gens.append(x * y * z)
        G = buchberger(gens)
        assert hilbert_degree(G) == ideal_dimension(G).degree == len(ref_standard_monomials(G))


# ---------------------------------------------------------------------------
# elimination, saturation, radical, intersection


def test_eliminate_examples():
    """Elimination of the fresh front variable t, which plays x in the first
    example and y in the second."""
    R = ring_of("yz")
    t, y, z = _front_ring(R).gens()
    assert [g.text() for g in _eliminate_t([t**2 - y, t**3 - z], R)] == ["y^3 - z^2"]
    R = ring_of("x")
    ext = _front_ring(R)
    t, x = ext.gens()
    assert _eliminate_t([t - x**2], R) == []
    assert _eliminate_t([ext.one - t * x], R) == []
    assert _front_ring(ring_of(["t_0", "x"])).universe.names == ("t_1", "t_0", "x")


def test_saturate_examples():
    R = ring_of("xy")
    x, y = R.gens()
    assert [g.text() for g in saturate([x * y], x)] == ["y"]
    out = saturate([x**2], x)
    assert len(out) == 1 and out[0] == 1


def test_saturate_strategies_agree():
    """The divide-through shortcut against the Rabinowitsch elimination."""
    gens = over_prime(permanental_ideal(GenericMatrixSpec(3, 4)), P1)
    ring = gens[0].ring
    x11 = ring.gen(0)
    A = buchberger(saturate(gens, x11))
    with Budget(600.0):
        saturated = _saturate_general(gens, x11)
    B = buchberger(saturated)
    assert [g.text() for g in A.gens] == [g.text() for g in B.gens]


def test_radical_membership_examples():
    R = ring_of("xy")
    x, y = R.gens()
    assert radical_membership(x, buchberger([x**2]))
    assert not radical_membership(y, buchberger([x]))
    assert radical_membership(R.zero, buchberger([x]))


def test_ideal_intersection_examples():
    R = ring_of("xy")
    x, y = R.gens()
    assert [g.text() for g in ideal_intersection([x], [y])] == ["x*y"]
    I = [x**2 - y]
    same = ideal_intersection(I, I)
    assert [g.text() for g in same] == [g.text() for g in buchberger(I).gens]


def test_elimination_in_a_lex_ring_keeps_every_generator():
    """The t-free elements of an elimination are a degrevlex basis: (x - y^2,
    y^3) gives x^2, x*y and y^2 - x, and a lex interreduction of those keeps
    only y^2 - x, whose lex lead x divides the other two."""
    R = ring_of("xy", domain=GF(P1), order=LEX)
    x, y = R.gens()
    I = [x - y**2, y**3]
    want = [g.text() for g in buchberger(I).gens]
    assert want == ["y^3", "x + 2147483646*y^2"]
    assert [g.text() for g in buchberger(ideal_intersection(I, I)).gens] == want
    assert [g.text() for g in buchberger(saturate(I, x + y + 1)).gens] == want


def test_intersection_with_zero_ideal_is_zero():
    R = ring_of("xy")
    x, y = R.gens()
    assert ideal_intersection([R.zero], [x]) == []
    assert ideal_intersection([x, y], [R.zero, R.zero]) == []
    assert ideal_intersection([], [x]) == []


def test_intersection_of_coordinate_ideals():
    R = ring_of("xyz")
    x, y, z = R.gens()
    out = ideal_intersection([x, y], [y, z])
    G = buchberger(out)
    for f in (y, x * z):
        assert normal_form(f, G).is_zero()
    assert not normal_form(x, G).is_zero()


# ---------------------------------------------------------------------------
# permanental ideals: the headline codimensions


@pytest.mark.parametrize("prime", [P1, P2])
def test_codim_2xn_is_n(prime):
    for n in (3, 4, 5):
        G = buchberger(over_prime(permanental_ideal(GenericMatrixSpec(2, n)), prime))
        assert ideal_dimension(G).codim == n


@pytest.mark.parametrize("prime", [P1, P2])
def test_codim_kxk1_is_k_plus_1(prime):
    for k in (2, 3):
        G = buchberger(over_prime(permanental_ideal(GenericMatrixSpec(k, k + 1)), prime))
        assert ideal_dimension(G).codim == k + 1


def test_saturated_3x4_ideal_codim_and_degree():
    gens = over_prime(permanental_ideal(GenericMatrixSpec(3, 4)), P1)
    ring = gens[0].ring
    prod = ring.one
    for g in ring.gens():
        prod = prod * g
    J = saturate(gens, prod)
    G = buchberger(J)
    assert ideal_dimension(G).codim == 4
    assert hilbert_degree(G) == 66


def test_saturated_3x4_ideal_over_rationals():
    """Characteristic-zero confirmation of the codimension-4, degree-66
    saturation, plus an independent point count through a random slice."""
    gens_z = permanental_ideal(GenericMatrixSpec(3, 4))
    ringQ = gens_z[0].ring.with_domain(QQ)
    gens = [transport(g, ringQ) for g in gens_z]
    prod = ringQ.one
    for g in ringQ.gens():
        prod = prod * g
    J = saturate(gens, prod)
    G = buchberger(J)
    assert ideal_dimension(G).codim == 4
    assert hilbert_degree(G) == 66
    # slice to dimension zero over F_p and count standard monomials
    rng = random.Random(10)
    gens_p = over_prime(gens_z, P1)
    ring_p = gens_p[0].ring
    prod_p = ring_p.one
    for g in ring_p.gens():
        prod_p = prod_p * g
    sliced = list(saturate(gens_p, prod_p))
    gv = ring_p.gens()
    for _ in range(7):
        f = ring_p.zero
        for v in gv:
            f = f + rng.randrange(P1) * v
        sliced.append(f)
    aff = ring_p.zero
    for v in gv:
        aff = aff + rng.randrange(P1) * v
    sliced.append(aff - 1)
    rep = ideal_dimension(buchberger(sliced))
    assert rep.dim == 0 and rep.degree == 66


def test_x11_f1_in_permanental_ideal():
    from test_permanent import kirkup_generators

    gens = over_prime(permanental_ideal(GenericMatrixSpec(3, 4)), P1)
    G = buchberger(gens)
    fs, _ = kirkup_generators(3)
    ring = gens[0].ring
    f1 = transport(fs[0], ring)
    assert normal_form(ring.gen(0) * f1, G).is_zero()
    assert not normal_form(f1, G).is_zero()  # needs the saturation


def test_circulant_2x2_squares_and_codim():
    for k in (3, 5, 8):
        spec = GenericMatrixSpec(k, k + 1, h=2, pattern="circulant", period=k + 1)
        gens = over_prime(permanental_ideal(spec), P1)  # repeats; buchberger skips them
        G = buchberger(gens)
        ring = gens[0].ring
        assert all(normal_form(ring.gen(j) ** 2, G).is_zero() for j in range(k + 1))
        assert ideal_dimension(G).codim == k + 1


def test_reduction_reads_the_clock_by_work_done(monkeypatch):
    """Under an open budget a reduction reads the clock at least once per
    ``WORK_PER_CLOCK_READ`` reducer terms touched, however few its steps
    are: here about 3,000 steps apply 992 reducers of 1,025 terms.  The
    clock is a stub that counts its reads, so the machine's speed does not
    matter."""
    R = ring_of("xy", domain=GF(P1), order=LEX)
    x, y = R.gens()
    g = x - R.from_exp_dict({(0, i): 1 for i in range(1024)})  # lex: x leads
    scan = lookup_over([g], R)
    touched = 0

    def find(k):
        nonlocal touched
        hit = scan(k)
        if hit is not None:
            touched += len(hit[1])
        return hit

    class Clock:
        reads = 0

        def monotonic(self):
            Clock.reads += 1
            return 0.0  # never past the open budget's end

    f = R.from_exp_dict({(1, j): 1 for j in range(992)})
    monkeypatch.setattr(budget, "time", Clock())
    with Budget(60):
        out, _ = groebner._reduce_terms(dict(f.terms), find, R)
    assert len(out) == 1024 + 991  # y^0 .. y^2014
    assert touched >= 15 * groebner.WORK_PER_CLOCK_READ
    assert Clock.reads >= touched // groebner.WORK_PER_CLOCK_READ


def test_timeout_raises_with_stats():
    gens = over_prime(permanental_ideal(GenericMatrixSpec(3, 4)), P1)
    with pytest.raises(GroebnerTimeout) as exc, Budget(0.0):
        buchberger(gens)
    assert "pairs" in exc.value.stats
    assert exc.value.stats["phase"] == "pairs"


def test_interreduce_honours_deadline():
    gens = over_prime(permanental_ideal(GenericMatrixSpec(2, 3)), P1)
    with pytest.raises(GroebnerTimeout), Budget(-1.0):
        _interreduce(gens, gens[0].ring)


def test_timeout_in_interreduction_names_its_phase(monkeypatch):
    gens = over_prime(permanental_ideal(GenericMatrixSpec(3, 4)), P1)
    seen = []

    def out_of_time(polys, ring):
        seen.append(budget.ends_at())
        raise budget.expired("reduction")

    G = buchberger(gens)
    monkeypatch.setattr(groebner, "_interreduce", out_of_time)
    before = time.monotonic()
    with pytest.raises(GroebnerTimeout) as exc, Budget(50.0):
        G.gens
    stats = exc.value.stats
    assert stats["phase"] == "interreduce"
    assert (stats["pairs"], stats["pending_pairs"]) == (64, 0)
    assert before + 50.0 <= seen[0] <= time.monotonic() + 50.0


def test_elimination_interreductions_get_the_deadline(monkeypatch):
    """The interreduction after an elimination runs within the caller's budget."""
    R = ring_of("xyz", domain=GF(P1))
    x, y, z = R.gens()
    real = groebner._interreduce
    seen = []

    def spy(polys, ring):
        seen.append(budget.ends_at())
        return real(polys, ring)

    monkeypatch.setattr(groebner, "_interreduce", spy)
    before = time.monotonic()
    with Budget(50.0):
        ideal_intersection([x * y, z], [y**2 - x])
    with Budget(50.0):
        saturate([x * y - z, x**2 * y - 1], x + y + 1)
    assert seen and None not in seen
    assert all(before + 50.0 - 1e-6 <= d <= time.monotonic() + 50.0 for d in seen)


@pytest.mark.parametrize("order", [LEX, block_order(1)], ids=["lex", "block1"])
def test_reduction_refuses_exponent_overflow(order):
    """In lex and block orders a reduction can raise an exponent: x^700 modulo
    x - y^100 is y^70000, past the key field cap, and must be refused."""
    R = ring_of("xy", domain=GF(101), order=order)
    x, y = R.gens()
    G = buchberger([x - y**100])
    assert normal_form(x**300, G) == y**30000
    with pytest.raises(CapacityError):
        normal_form(x**700, G)


def ref_spoly(f, g, l, pack):
    """The S-polynomial as it was built before the leads were left out: both
    leads entered and cancelled, and each zero difference was deleted."""
    uf = pack.quotient(l, f.lead_key()) - pack.offset
    ug = pack.quotient(l, g.lead_key()) - pack.offset
    acc = {k + uf: c for k, c in f.terms}
    for k, c in g.terms:
        kk = k + ug
        v = acc.get(kk, 0) - c
        if v:
            acc[kk] = v
        elif kk in acc:
            del acc[kk]
    return acc


def ref_reduce_terms(work, find, ring):
    """The reduction loop as it ran before the mod-p step was delayed: every
    updated coefficient is reduced mod p at once and deleted when zero, so
    a cancelled term is never taken.  The clock reads are left out.  The
    input must hold integers and no zero; a residue it holds passes to the
    result as it is.  Returns the integer remainder and its denominator."""
    pack = ring.pack
    check, guard = not pack.graded, pack.guard
    p = ring.domain.modulus
    den = 1
    out = {}
    heap = [-k for k in work]
    heapify(heap)
    while heap:
        k = -heappop(heap)
        c = work.pop(k, None)
        if c is None:
            continue
        if check and k & guard:
            raise CapacityError("reduction gives an exponent above the key field cap")
        hit = find(k)
        if hit is None:
            out[k] = c
            continue
        lt, terms = hit
        a = terms[0][1]
        if a != 1:
            g = gcd(a, c)
            if g != a:
                s = a // g
                work = {kk: v * s for kk, v in work.items()}
                out = {kk: v * s for kk, v in out.items()}
                den *= s
            c //= g
        shift, c = k - lt, -c
        for kk, cc in terms[1:]:
            k2 = kk + shift
            v = work.get(k2)
            if v is None:
                heappush(heap, -k2)
                work[k2] = c * cc % p if p else c * cc
                continue
            v += c * cc
            if p:
                v %= p
            if v:
                work[k2] = v
            else:
                del work[k2]
    return out, den


REDUCTION_DOMAINS = [GF(7), GF(P1), QQ]
REDUCTION_IDS = ["F7", "F2^31-1", "QQ"]


@pytest.mark.parametrize("order", [DEGREVLEX, LEX], ids=["degrevlex", "lex"])
@pytest.mark.parametrize("domain", REDUCTION_DOMAINS, ids=REDUCTION_IDS)
def test_delayed_reduction_matches_per_term_reference(domain, order):
    """``_reduce_terms`` reduces each coefficient mod p once, when it takes
    the term; the reference reduced it after every update.  On random work
    dicts, on multiples of a reducer whose coefficients are residues in
    (-p, p) that cancel mod p, and on S-polynomials, both give the same
    normal form, and the new one holds no zero and, over F_p, only
    residues in 1..p-1."""
    rng = random.Random(3000 + 7 * REDUCTION_DOMAINS.index(domain) + (order == LEX))
    R = ring_of("xyzw", domain, order)
    x, y = R.gen(0), R.gen(1)
    pack, p = R.pack, domain.modulus

    def coeff():
        # over F_p a residue in (-p, p), zero included
        if p:
            return rng.randrange(1 - p, p)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    def poly(terms, top=2):
        exps = [tuple(rng.randint(0, top) for _ in range(4)) for _ in range(terms)]
        return R.from_exp_dict({e: coeff() for e in exps})

    def as_residues(f):
        # f's coefficients, each moved at random into (-p, 0) over F_p
        return {k: c - p * rng.randint(0, 1) if p else c for k, c in f.terms}

    def check(work, reducers):
        if not p:  # the work over its common denominator
            den = lcm(*(Fraction(c).denominator for c in work.values()))
            work = {k: int(c * den) for k, c in work.items()}
        nonzero = {k: c for k, c in work.items() if (c % p if p else c)}
        want, want_den = ref_reduce_terms(nonzero, lookup_over(reducers, R), R)
        got, den = groebner._reduce_terms(dict(work), lookup_over(reducers, R), R)
        assert got == ({k: c % p for k, c in want.items()} if p else want)
        assert den == want_den and (p or den > 0)
        assert all(got.values())
        assert not p or all(0 < c < p for c in got.values())
        return got

    cancelled = spoly_zeros = scaled_leads = 0
    for _ in range(25):
        reducers = [monic(f) for f in (poly(rng.randint(1, 4)) for _ in range(3)) if f]
        if not reducers:
            continue
        work = {k: c for k, c in poly(rng.randint(1, 12), top=4).terms}
        work.update({pack.pack((rng.randint(0, 5),) * 4): 0})  # a zero entry
        check(work, reducers)
        # a monomial multiple of the first reducer: every term cancels mod p
        m = R.from_exp_dict({tuple(rng.randint(0, 2) for _ in range(4)): coeff() or 1})
        multiple = as_residues(m * reducers[0])
        assert check(multiple, reducers) == {}
        cancelled += 1
        for k, c in poly(3, top=4).terms:
            multiple[k] = multiple.get(k, 0) + c
        check(multiple, reducers)
        # S-polynomials, among them x A + B and y A + C, whose x y A terms
        # cancel in the S-polynomial itself
        A = monic(poly(3))
        pairs = list(combinations(reducers, 2))
        f, g = x * A + poly(2, top=1), y * A + poly(2, top=1)
        if A and f.lead_key() == (x * A).lead_key() and g.lead_key() == (y * A).lead_key():
            pairs.append((monic(f), monic(g)))
        for f, g in pairs:
            l = pack.pack(tuple(map(max, f.lead_monomial(), g.lead_monomial())))
            # from the reducer terms the engine builds S-polynomials from:
            # over F_p the monic terms themselves, over QQ the primitive
            # integer forms, whose leads a_f, a_g are mostly not 1; either
            # way lcm(a_f, a_g) times the monic S-polynomial
            tf, tg = reducer_terms(f), reducer_terms(g)
            assert not p or (tf, tg) == (f.terms, g.terms)
            af, ag = tf[0][1], tg[0][1]
            sp = groebner._spoly(tf, tg, l, pack)
            assert all(type(c) is int for c in sp.values())
            want = {k: lcm(af, ag) * c for k, c in ref_spoly(f, g, l, pack).items()}
            assert {k: c for k, c in sp.items() if c} == want
            assert not p or all(-p < c < p for c in sp.values())
            spoly_zeros += sum(not c for c in sp.values())
            scaled_leads += af != ag
            check(sp, [f, g] + reducers)
    assert cancelled >= 20 and spoly_zeros > 0
    assert p or scaled_leads > 20


def test_spoly_of_equal_leads_above_one():
    """Over QQ two primitive reducers with one lead a > 1 (the case where
    both of ``_spoly``'s scale factors are 1) give a times the monic
    S-polynomial."""
    rng = random.Random(41)
    R = ring_of("xyz")
    x, y, z = R.gens()
    for a in (2, 3, 6, 35):
        for _ in range(10):
            tail = [rng.randint(-9, 9) for _ in range(4)]
            f = a * x**2 + tail[0] * y * z + tail[1] * z + 1
            g = a * x * y + tail[2] * z**2 + tail[3] * x - 1
            tf, tg = reducer_terms(f), reducer_terms(g)
            assert tf == f.terms and tg == g.terms and tf[0][1] == tg[0][1] == a
            l = R.pack.pack((2, 1, 0))
            sp = groebner._spoly(tf, tg, l, R.pack)
            want = {k: a * c for k, c in ref_spoly(monic(f), monic(g), l, R.pack).items()}
            assert {k: c for k, c in sp.items() if c} == want
            assert all(type(c) is int for c in sp.values())


def test_reducer_terms_are_primitive_and_the_monic_form_exact():
    """Over QQ a remainder's reducer terms are the remainder divided by its
    content, with a positive lead, and its monic form divides those by
    their lead in exact Fractions, also where the ints already divide; over
    F_p both are the monic remainder."""
    R = ring_of("xy")
    kx, ky, k1 = R.gen(0).lead_key(), R.gen(1).lead_key(), R.one.lead_key()
    terms = groebner._reducer_terms({ky: 4, kx: -6, k1: 12}, R)
    assert terms == ((kx, 3), (ky, -2), (k1, -6))
    assert [(c, type(c)) for _, c in groebner._monic(terms, R).terms] == [
        (1, Fraction),
        (Fraction(-2, 3), Fraction),
        (-2, Fraction),
    ]
    F = ring_of("xy", domain=GF(7))
    terms = groebner._reducer_terms({ky: 4, kx: 3, k1: 1}, F)  # 1/3 = 5 mod 7
    assert groebner._monic(terms, F).terms == terms == ((kx, 1), (ky, 6), (k1, 5))


@pytest.mark.parametrize("domain", REDUCTION_DOMAINS, ids=REDUCTION_IDS)
def test_guard_bit_term_raises_only_when_live(domain):
    """In lex, x y^a and z y^a both reduce to y^(a+b), past the field cap,
    modulo x - y^b and z - y^b.  Their sum is refused; when the two
    contributions cancel mod p, the term is zero when taken and the
    reduction gives 0 without raising."""
    R = ring_of("xzy", domain, LEX)  # x > z > y
    x, z, y = R.gens()
    a = b = 20000
    reducers = [x - y**b, z - y**b]
    p = domain.modulus or 0
    lo, hi = (x * y**a).lead_key(), (z * y**a).lead_key()
    for reduce in (groebner._reduce_terms, ref_reduce_terms):
        with pytest.raises(CapacityError):
            reduce({lo: 3, hi: 3}, lookup_over(reducers, R), R)
        assert reduce({lo: 3, hi: p - 3}, lookup_over(reducers, R), R)[0] == {}


def _rabinowitsch(k, n, by):
    """The k x n permanental ideal over F_P1 plus 1 - t_i * x_1j for each j
    in ``by``, in the block order eliminating the t_i."""
    gens = over_prime(permanental_ideal(GenericMatrixSpec(k, n)), P1)
    ring = gens[0].ring
    fresh = [f"t_{i}" for i in range(len(by))]
    ext = PolyRing(VarUniverse(fresh + list(ring.universe.names)), ring.domain, block_order(len(by)))
    moved = [transport(g, ext) for g in gens]
    for i, j in enumerate(by):
        moved.append(ext.one - ext.gen(i) * transport(ring.var(1, j), ext))
    assert ext.order == block_order(len(by))
    return moved


def _lexed(k, n):
    """The k x n permanental ideal over F_P1 in the pure lex order."""
    gens = over_prime(permanental_ideal(GenericMatrixSpec(k, n)), P1)
    lex = PolyRing(gens[0].ring.universe, gens[0].ring.domain, LEX)
    return [transport(g, lex) for g in gens]


# counters and a digest of the reduced basis, as the engine gave them before
# the pair update and the reducer moved onto packed keys
PINNED_RUNS = {
    "3x4-degrevlex": (
        lambda: over_prime(permanental_ideal(GenericMatrixSpec(3, 4)), P1),
        (64, 43, 25), 25, "4ebb4dcb0dd73f7b",
    ),
    "2x5-block1": (lambda: _rabinowitsch(2, 5, [1]), (201, 169, 43), 23, "c65a79adb2a68739"),
    "2x4-block2": (lambda: _rabinowitsch(2, 4, [1, 2]), (87, 67, 28), 11, "6e554a0283f6c5ad"),
    # its old-pair filter needs the lcm of a dead element that is the first
    # of a pending pair
    "2x4-block3": (lambda: _rabinowitsch(2, 4, [1, 2, 3]), (109, 85, 33), 7, "565f333041cc614e"),
    # QQ and pure lex, where the lcm has no complement fields to take the
    # minimum of and no degree field to recompute
    "2x4-qq": (
        lambda: permanental_ideal(GenericMatrixSpec(2, 4), domain=QQ),
        (33, 25, 14), 14, "172ad7075e8d31dd",
    ),
    "3x4-lex": (lambda: _lexed(3, 4), (55, 36, 23), 23, "80a2d64e801b371b"),
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_pair_sequence_and_basis_pinned(name):
    make, counters, size, digest = PINNED_RUNS[name]
    G = buchberger(make())
    st = G.stats
    assert (st["pairs"], st["zero_reductions"], st["basis_additions"]) == counters
    assert st["hilbert_skips"] == 0  # no input here is n forms in n variables
    assert len(G.gens) == size
    text = "\n".join(g.text() for g in G.gens)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
    assert s_pairs_reduce_to_zero(G)
    # the minimal basis has the reduced basis's leads
    assert len(G) == size
    assert G.lead_ideal == [G.ring.pack.unpack(g.lead_key()) for g in G.gens]


def test_lead_readers_build_no_reduced_basis(monkeypatch):
    """Dimension, independent set, normal form, radical membership, the unit
    test and the length read the minimal basis; only ``gens`` interreduces,
    once per basis."""
    real, calls = groebner._interreduce, []

    def counted(polys, ring):
        calls.append(1)
        return real(polys, ring)

    monkeypatch.setattr(groebner, "_interreduce", counted)
    gens = over_prime(permanental_ideal(GenericMatrixSpec(2, 4)), P1)
    x11, x12 = gens[0].ring.gen(0), gens[0].ring.gen(1)
    G = buchberger(gens)
    assert ideal_dimension(G).codim == 4
    assert independent_set(G)
    assert normal_form(gens[0] * x11, G).is_zero()
    assert radical_membership(gens[1], G)
    assert not radical_membership(x11 + x12, G)
    assert not G.is_unit_ideal()
    assert len(G) > 0
    assert calls == []
    G.gens
    assert len(calls) == 1
    G.gens
    assert len(calls) == 1


def test_hilbert_degree_tests_homogeneity_on_the_reduced_basis():
    """(y^2 + x, x) is homogeneous, but its minimal basis keeps y^2 + x."""
    R = ring_of("xy", domain=GF(P1))
    x, y = R.gens()
    G = buchberger([y**2 + x, x])
    assert not all(g.is_homogeneous() for g in G.minimal)
    assert hilbert_degree(G) == 2


# ---------------------------------------------------------------------------
# Hilbert-driven pair skip


def _sliced_circulant4(domain):
    """slice-circulant4's input: the 4x4 permanents of the generic 4x5
    matrix cut by the circulant slice, five quartics in five variables."""
    M = build_slice("circulant4")
    target = PolyRing(M.ring.universe, domain)
    slice_map = {
        f"x_{i + 1}_{j + 1}": transport(M[i, j], target) for i in range(4) for j in range(5)
    }
    gens = permanental_ideal(GenericMatrixSpec(4, 5), domain)
    return [h for h in (g.substitute(slice_map, target=target) for g in gens) if h]


# The reduced bases' digests were taken before the skip existed.
@pytest.mark.parametrize(
    "domain, digest",
    [(GF(P1), "9ede111ba406d137"), (GF(P2), "7f034d40a11fca04"), (QQ, "8752debe91a5a1c6")],
)
def test_slice_circulant4_skips_pairs_and_keeps_its_basis(domain, digest):
    """A complete intersection: 486 of the 750 pairs the loop would reduce
    (551 of them to zero) are skipped, and the basis does not change."""
    G = buchberger(_sliced_circulant4(domain))
    st = G.stats
    assert (st["pairs"], st["zero_reductions"], st["basis_additions"]) == (264, 65, 204)
    assert st["hilbert_skips"] == 486
    text = "\n".join(g.text() for g in G.gens)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
    assert ideal_dimension(G).codim == 5


def test_regular_sequence_bound():
    assert groebner._regular_sequence_hf([2, 2]) == (1, 2, 1)
    assert groebner._regular_sequence_hf([1, 3, 2]) == (1, 2, 2, 1)
    assert sum(groebner._regular_sequence_hf([4] * 5)) == 4**5
    assert max(groebner._regular_sequence_hf([4] * 5)) == 155


def test_a_count_below_the_bound_is_an_internal_error(monkeypatch):
    """(x^2 + y^2, xy) leaves one degree-2 monomial, y^2, outside its leads:
    a bound of 2 there is past the true Hilbert function, which no correct
    engine can meet."""
    R = ring_of("xy", domain=GF(P1))
    x, y = R.gens()
    G = buchberger([x**2 + y**2, x * y])
    assert [g.text() for g in G.gens] == ["x*y", "x^2 + y^2", "y^3"]
    real = groebner._regular_sequence_hf
    monkeypatch.setattr(
        groebner, "_regular_sequence_hf", lambda degrees: (1, 2, real(degrees)[2] + 1)
    )
    with pytest.raises(InternalConsistencyError, match="below the Hilbert function"):
        buchberger([x**2 + y**2, x * y])


def test_a_timeout_reports_the_skips_so_far(monkeypatch):
    gens = _sliced_circulant4(GF(P1))
    taken = []

    def out_after_600_pairs(phase, stats=None):
        if phase == "pairs":
            taken.append(1)
            if len(taken) > 600:
                raise budget.expired(phase)

    monkeypatch.setattr(groebner.budget, "check", out_after_600_pairs)
    with pytest.raises(GroebnerTimeout) as exc, Budget(600):
        buchberger(gens)
    stats = exc.value.stats
    assert stats["phase"] == "pairs"
    assert stats["hilbert_skips"] > 0
    assert stats["pairs"] + stats["hilbert_skips"] <= 600


def test_hilbert_skip_keeps_every_square_system_basis():
    """n forms in n <= 4 variables of degrees 1-3, in degrevlex or lex,
    against the same list plus a redundant quartic, which turns the skip off
    (a quintic too when a form is zero or repeated): the reduced bases agree
    and satisfy Buchberger's criterion.  The inputs include squares that are
    no complete intersection: a shared linear factor, a form repeated up to a
    scalar, and forms that all vanish at (1 : 0 : ... : 0)."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    domains = [GF(2), GF(7), GF(101), QQ]

    @st.composite
    def systems(draw):
        n = draw(st.sampled_from([1, 2, 3, 3, 4, 4]))
        order = draw(st.sampled_from([DEGREVLEX, LEX]))
        R = ring_of("wxyz"[:n], domain=draw(st.sampled_from(domains)), order=order)
        # generic squares weighted up: they are the ones that skip pairs
        kinds = ["generic"] * 4 + ["shared-factor", "scalar-multiple", "common-zero"]
        kind = draw(st.sampled_from(kinds if n > 1 else kinds[:1]))
        pack = R.pack

        def form(d):
            exps = []
            for vs in combinations_with_replacement(range(n), d):
                e = [0] * n
                for v in vs:
                    e[v] += 1
                if kind != "common-zero" or e[0] < d:
                    exps.append(tuple(e))
            size = draw(st.integers(min(2, len(exps)), min(6, len(exps))))
            picked = draw(st.lists(st.sampled_from(exps), min_size=size, max_size=6, unique=True))
            coeffs = st.sampled_from([1, -1, 2, -3, 5])
            f = R.from_terms({pack.pack(e): draw(coeffs) for e in picked})
            return f or R.from_terms({pack.pack(picked[0]): 1})

        forms = [form(draw(st.integers(1, 3))) for _ in range(n)]
        if kind == "shared-factor":
            line = form(1)
            forms[:2] = [line * form(draw(st.integers(1, 2))) for _ in range(2)]
        if kind == "scalar-multiple":
            forms[1] = forms[0] * R.const(draw(st.integers(2, 9)))
        return forms

    seen = {"skipped": 0, "positive-dimensional": 0}

    @hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=250)
    @hypothesis.given(systems())
    def check(forms):
        # n + 1 distinct nonzero forms: one quartic multiple of the first
        # form, and one more for a form that is zero or repeated
        f = next(g for g in forms if g)
        x0, distinct = f.ring.gen(0), {g.terms for g in forms if g}
        extra = len(forms) + 1 - len(distinct)
        control = buchberger(forms + [f * x0 ** (4 - f.total_degree() + k) for k in range(extra)])
        G = buchberger(forms)
        assert control.stats["hilbert_skips"] == 0
        assert [g.terms for g in G.gens] == [g.terms for g in control.gens]
        assert s_pairs_reduce_to_zero(G)
        seen["skipped"] += G.stats["hilbert_skips"] > 0
        seen["positive-dimensional"] += ideal_dimension(G).dim > 0

    check()
    # the skip is exercised, and so are inputs where it must stop tracking
    assert seen["skipped"] >= 30 and seen["positive-dimensional"] >= 30


def _brute_force_monomial_dim(supports, nvars):
    """Oracle: largest variable subset containing no generator support."""
    best = 0
    for size in range(nvars, -1, -1):
        for S in combinations(range(nvars), size):
            sset = set(S)
            if not any(set(sup) <= sset for sup in supports):
                return size
    return best


def test_dimension_matches_brute_force_on_random_monomial_ideals():
    rng = random.Random(31)
    for nv in (4, 6):
        R = ring_of([f"v{i}" for i in range(nv)], domain=GF(P1))
        for _ in range(25):
            gens = []
            supports = []
            for _ in range(rng.randint(1, 5)):
                e = tuple(rng.choice([0, 0, 1, 2]) for _ in range(nv))
                if not any(e):
                    continue
                gens.append(R.from_exp_dict({e: 1}))
                supports.append([i for i, x in enumerate(e) if x])
            if not gens:
                continue
            G = buchberger(gens)
            assert ideal_dimension(G).dim == _brute_force_monomial_dim(supports, nv)


def test_hilbert_series_matches_direct_monomial_counts():
    """Oracle: expand N(t)/(1-t)^n and compare with brute-force counts of
    standard monomials per degree."""
    from itertools import product

    rng = random.Random(41)
    nv = 3
    R = ring_of([f"v{i}" for i in range(nv)], domain=GF(P1))
    for _ in range(12):
        gens = []
        for _ in range(rng.randint(1, 4)):
            e = tuple(rng.randint(0, 3) for _ in range(nv))
            if any(e):
                gens.append(R.from_exp_dict({e: 1}))
        if not gens:
            continue
        G = buchberger(gens)
        num = hilbert_numerator(G)
        # series of 1/(1-t)^nv up to degree D, convolved with the numerator
        D = 9
        inv = [1] * (D + 1)
        for _ in range(nv - 1):
            acc = 0
            nxt = []
            for d in range(D + 1):
                acc += inv[d]
                nxt.append(acc)
            inv = nxt
        series = [0] * (D + 1)
        for i, c in enumerate(num):
            if c and i <= D:
                for d in range(i, D + 1):
                    series[d] += c * inv[d - i]
        lead = G.lead_ideal
        for d in range(D + 1):
            count = 0
            for mono in product(range(d + 1), repeat=nv):
                if sum(mono) != d:
                    continue
                if not any(all(g[i] <= mono[i] for i in range(nv)) for g in lead):
                    count += 1
            assert series[d] == count, (d, [g for g in lead])


def test_quotient_degree_equals_standard_monomial_count():
    R = ring_of("xyz", domain=GF(P1))
    x, y, z = R.gens()
    G = buchberger([x**2, y**3, z**2, x * y * z])
    assert ideal_dimension(G).degree == len(ref_standard_monomials(G))


def test_unit_ideal_input():
    R = ring_of("xy")
    x, _ = R.gens()
    G = buchberger([R.const(5), x])
    assert G.is_unit_ideal()
    rep = ideal_dimension(G)
    assert rep.dim == -1 and rep.degree is None
    assert hilbert_numerator(G) == (0,)  # no standard monomials in the zero ring


def test_hilbert_numerator_ends_at_its_last_nonzero_coefficient():
    """The numerator's tuple is canonical: the recursion's trailing zeros
    are trimmed, so equal numerators compare equal.  This lead ideal's
    recursion ends with two zero coefficients."""
    R = ring_of([f"v{i}" for i in range(4)], domain=GF(7))
    exps = [(0, 1, 3, 1), (3, 3, 0, 1), (3, 2, 2, 3), (0, 3, 1, 1), (3, 3, 0, 2), (1, 0, 1, 1)]
    G = buchberger([R.from_exp_dict({e: 1}) for e in exps])
    assert hilbert_numerator(G) == (1, 0, 0, -1, 0, -2, 2)


def test_ideal_file_roundtrip(tmp_path):
    from permvar.groebner import load_ideal_file

    R = ring_of("xy")
    x, y = R.gens()
    lines = ["x*y - 1", "3*y^2 - x"]
    path = tmp_path / "ideal.txt"
    path.write_text("vars: x y\n# a comment\n" + "\n".join(lines) + "\n")
    back = load_ideal_file(str(path), QQ)
    assert back == [x * y - 1, 3 * y**2 - x]
    assert [g.text() for g in back] == lines


def test_membership_is_order_independent():
    """Ideal membership decided by NF must agree across degrevlex, lex and a
    block order on random quadratic ideals."""
    from permvar.ring import block_order

    rng = random.Random(99)
    R1 = ring_of("xyzw", domain=GF(P1))
    R2 = PolyRing(R1.universe, R1.domain, LEX)
    R3 = PolyRing(R1.universe, R1.domain, block_order(2))

    def rand_poly(ring, nt=3, deg=2):
        acc = ring.zero
        for _ in range(rng.randint(1, nt)):
            e = tuple(rng.randint(0, deg) for _ in range(4))
            acc = acc + ring.from_exp_dict({e: rng.randint(1, P1 - 1)})
        return acc

    def basis(gens):
        with Budget(10):
            return buchberger(gens)

    done = 0
    while done < 8:
        gens = [g for g in (rand_poly(R1) for _ in range(rng.randint(2, 4))) if g]
        if not gens:
            continue
        try:
            bases = [
                basis(gens),
                basis([transport(g, R2) for g in gens]),
                basis([transport(g, R3) for g in gens]),
            ]
        except GroebnerTimeout:
            continue  # rare lex blowup; consistency is only testable when computable
        for _ in range(4):
            f = rand_poly(R1)
            flags = {
                normal_form(f, bases[0]).is_zero(),
                normal_form(transport(f, R2), bases[1]).is_zero(),
                normal_form(transport(f, R3), bases[2]).is_zero(),
            }
            assert len(flags) == 1
        comb = R1.zero
        for g in gens:
            comb = comb + g * rand_poly(R1, 2, 1)
        assert normal_form(comb, bases[0]).is_zero()
        assert normal_form(transport(comb, R2), bases[1]).is_zero()
        done += 1


def test_transport_by_name():
    R1 = ring_of("xy")
    R2 = ring_of("yx")
    x, y = R1.gens()
    p = x**2 + y
    q = transport(p, R2)
    assert q.text() == p.text()  # text uses names, not positions
    assert transport(q, R1) == p


# ---------------------------------------------------------------------------
# membership


def _spy_tops(monkeypatch):
    """The degree each pair loop that ``contains`` runs stops above."""
    tops = []
    real = groebner._buchberger

    def spy(gens, top=math.inf):
        tops.append(top)
        return real(gens, top)

    monkeypatch.setattr(groebner, "_buchberger", spy)
    return tops


def test_contains_stops_a_homogeneous_loop_at_the_largest_degree_asked(monkeypatch):
    """x^2 z - y z^2 is the S-polynomial of the two quadrics, of degree 3:
    the loop stopped at 3 still takes that pair, and the one stopped at 2
    decides a quadric.  The answers are those of the full basis."""
    R = ring_of("xyz", domain=GF(P1))
    x, y, z = R.gens()
    gens = [x * y - z**2, y**2 - x * z]
    tops = _spy_tops(monkeypatch)
    assert contains(gens, [x**2 * z - y * z**2, gens[0]])
    assert not contains(gens, [x**2 * z])
    assert not contains(gens, [x * z - y * z])
    assert tops == [3, 3, 2]
    G = buchberger(gens)
    assert normal_form(x**2 * z - y * z**2, G).is_zero() and normal_form(x**2 * z, G)


def test_contains_reduces_a_non_homogeneous_question_by_the_full_basis(monkeypatch):
    R = ring_of("xy")
    x, y = R.gens()
    gens = [x * y - 1, y**2 - x]
    cube = normal_form(x**3 - y**3, buchberger(gens)).is_zero()
    tops = _spy_tops(monkeypatch)
    assert contains(gens, [x**3 - 1])  # x = y^2 and y^3 = xy = 1 there
    assert not contains(gens, [x - 1])
    # a homogeneous question of a non-homogeneous ideal takes the full loop too
    assert contains(gens, [x**3 - y**3]) == cube
    assert tops == [math.inf] * 3


def test_contains_edge_cases(monkeypatch):
    """The unit ideal holds every form, homogeneous or not; zero lies in
    every ideal and an empty list asks nothing, so neither runs a loop."""
    R = ring_of("xyz", domain=GF(P2))
    x, y, z = R.gens()
    tops = _spy_tops(monkeypatch)
    assert contains([R.const(5), x], [y**3 + z**3, z])
    assert contains([x * y - 1, x], [y**2 + 1])
    assert tops == [3, math.inf]
    assert contains([x**2], [R.zero]) and contains([x**2], [])
    assert tops == [3, math.inf]
    assert contains([x**2], [R.zero, x**3]) and not contains([x**2], [R.zero, x])
    assert tops == [3, math.inf, 3, 1]


def test_contains_on_the_zero_ideal(monkeypatch):
    """No generator, or zeros only, is the zero ideal, as an intersection
    with it returns: it holds no nonzero polynomial and answers a question
    of zeros only, with no loop run."""
    R = ring_of("xy")
    x, y = R.gens()
    tops = _spy_tops(monkeypatch)
    assert not contains([], [x]) and not contains([R.zero], [x, y])
    assert contains([], []) and contains([], [R.zero])
    assert not contains(ideal_intersection([x], [R.zero]), [x])
    assert tops == []


def test_content_step_checks_the_budget_first(monkeypatch):
    """Over QQ a new element's content gcd and division can take seconds on
    big integers, so the budget is checked just before them: a check that
    expires there stops the loop before any content step runs.  Over F_p
    there is no content step and no such check."""
    R = ring_of("xy")
    x, y = R.gens()
    gens = [2 * x * y - 4, 3 * y**2 - x]
    steps = []

    def check(phase, stats=None):
        if phase == "content":
            raise budget.expired(phase, stats)

    monkeypatch.setattr(budget, "check", check)
    monkeypatch.setattr(groebner, "_primitive_vector", lambda v: steps.append(v) or v)
    with pytest.raises(GroebnerTimeout) as exc, Budget(60):
        buchberger(gens)
    assert exc.value.stats["phase"] == "pairs" and exc.value.stats["basis_additions"] == 0
    assert steps == []
    with Budget(60):
        G = buchberger(over_prime(gens, P1))
    assert len(G) >= 2


def test_content_step_checks_the_budget_between_coefficients(monkeypatch):
    """A long remainder of big coefficients with a big common factor: its
    content's gcd and division go one coefficient at a time, the budget
    checked between them, so a check that expires at its second call stops
    the step after its first gcd, far before its last."""
    from permvar import linalg

    R = ring_of("x")
    (x,) = R.gens()
    keys = [k for k, _ in sum((x**i for i in range(40)), R.zero).terms]
    red = {k: 3**5000 * (2 * i + 1) for i, k in enumerate(reversed(keys))}
    assert [c for _, c in groebner._reducer_terms(red, R)] == list(range(79, 0, -2))
    calls, gcds = [], []

    def check(phase, stats=None):
        calls.append(phase)
        if calls.count("content") == 2:
            raise budget.expired(phase, stats)

    monkeypatch.setattr(budget, "check", check)
    monkeypatch.setattr(linalg, "check", check)
    monkeypatch.setattr(linalg, "gcd", lambda *a: gcds.append(a) or math.gcd(*a))
    with pytest.raises(GroebnerTimeout) as exc, Budget(60):
        groebner._reducer_terms(red, R)
    assert exc.value.stats["phase"] == "content"
    assert calls == ["content", "content"] and len(gcds) == 1
