"""Buchberger engine over F_p and QQ with normal forms, dimension, degree,
saturation, elimination, radical membership and ideal intersection.

Pair handling uses the Gebauer-Moeller criteria with sugar-degree selection;
ties break by the pair's lcm in the ambient order, then by the insertion
index of its newer element, then of its older one.
The update works on packed keys only: each new lead's lcm with every live
element's lead is one fieldwise ``_Pack.lcm``, a pair is coprime iff that lcm
is the product key ``mh + lt - offset``, and the new lead makes an element
dead iff that lcm is the element's own lead.  Dead elements get no lcm, except
one that a pending pair still names when the old-pair filter needs it.
All reductions are full (head and tail), so intermediate elements stay small.
A term's reducer is the first basis element, in insertion order, that is
alive and whose lead divides it.  Each probe first runs a support test: one
AND of the lead's nonzero-exponent guard bits with the term's zero-exponent
ones (``_Pack.zeros``) rejects a lead that uses a variable the term lacks.
Only a lead that passes gets the masked divisibility test.  The support test
never rejects a divisor, so it changes no reducer.  The lookup remembers, per
monomial key, the position its next scan starts at: the divisor it found, or
the basis length after a scan that found none.  Elements are only appended
and a dead one never comes back, so every element before that position is
still dead or still a non-divisor: a live known divisor costs one probe, a
dead one resumes the scan just after it, a term with no divisor probes only
the elements added since, and the reducer found is the one a full scan from
the start would find.

One reduction loop serves F_p and QQ.  It keeps integer coefficients over
one running denominator D and takes each reducer as its primitive integer
multiple, with lead coefficient a > 0.  A term c is cancelled by (c/g) times
the reducer, g = gcd(a, c), after the work, the terms already emitted and D
are scaled by a/g when a does not divide c.  Over QQ the input is put over
its common denominator on entry and the result is divided by D once on exit,
so no Fraction arithmetic runs inside the loop.  Over F_p every reducer is
monic, so a = 1, D = 1 and nothing is ever rescaled, and the reduction mod p
is delayed (Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008): a reducer term
only adds c times its coefficient to the work, and each coefficient is
reduced once, when its term is taken.  A term that is zero then, over F_p
or QQ, is skipped.

``buchberger`` returns the minimal basis the pair loop ends with; its leads are
the minimal generators of the leading-term ideal, which is all the dimension,
the Hilbert series and normal forms read.  The reduced basis differs only in
its tails (Cox, Little and O'Shea, section 2.7) and is interreduced from it
when ``GroebnerBasis.gens`` is first read.

The open budget is tested only by ``budget.check``, which raises
GroebnerTimeout past its deadline: before each S-pair, when a reduction's
allowance of ``WORK_PER_CLOCK_READ`` work units runs out (so also while
``GroebnerBasis.gens`` interreduces), and every 256 steps of the Hilbert
recursion.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate
from math import gcd, lcm

from . import budget
from .errors import (
    CapacityError,
    DomainMismatchError,
    GroebnerTimeout,
    InternalConsistencyError,
    PreconditionError,
    StructuralError,
)
from .linalg import _integer_rows
from .linalg import _primitive as _primitive_vector
from .ring import (
    DEGREVLEX,
    GF,
    MPoly,
    MonomialOrder,
    PolyRing,
    VarUniverse,
    block_order,
)

# Work units (reduction steps plus reducer terms touched) between two clock
# reads in ``_reduce_terms``
WORK_PER_CLOCK_READ = 1 << 16


def transport(p: MPoly, ring: PolyRing) -> MPoly:
    """Move a polynomial into another ring, matching variables by name.

    The one way a polynomial changes ring: a new domain, order or universe.
    Only variables actually appearing in ``p`` need to exist in the target.
    A ring of the same universe and order packs keys the same way, so only
    the coefficients are coerced.
    """
    if p.ring is ring:
        return p
    src = p.universe
    if src == ring.universe and p.order == ring.order:
        coerce = ring.domain.coerce
        return ring.from_terms({k: coerce(c) for k, c in p.terms})
    tgt_index = ring.universe.index
    perm: dict = {}
    n = len(ring.universe)
    unpack = p.ring.pack.unpack
    out = {}
    for k, c in p.terms:
        exps = [0] * n
        for i, e in enumerate(unpack(k)):
            if e:
                j = perm.get(i)
                if j is None:
                    nm = src.names[i]
                    j = tgt_index.get(nm)
                    if j is None:
                        raise DomainMismatchError(f"target universe lacks variable {nm!r}")
                    perm[i] = j
                exps[j] = e
        out[ring.pack.pack(exps)] = ring.domain.coerce(c)
    return ring.from_terms(out)


def over_prime(gens, p: int):
    """Map integer/rational generators into F_p (same universe and order)."""
    gens = list(gens)
    if not gens:
        return gens
    ring = gens[0].ring
    target = ring.with_domain(GF(p))
    return [transport(g, target) for g in gens]


def load_ideal_file(path: str, domain, order: MonomialOrder = DEGREVLEX):
    """Read generators from a text file.

    Format: a ``vars: x y z`` header naming the universe, then one
    polynomial per non-comment line in the canonical text form.
    """
    from .ring import poly_from_text

    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines or not lines[0].startswith("vars:"):
        raise StructuralError("ideal file must start with a 'vars:' header line")
    names = lines[0][5:].split()
    ring = PolyRing(VarUniverse(names), domain, order)
    return [poly_from_text(ln, ring) for ln in lines[1:]]


@dataclass
class GroebnerBasis:
    """A Groebner basis with cached structure.

    ``minimal`` is the minimal basis ``buchberger`` ends with, in insertion
    order: monic, with pairwise non-dividing leads, which are the minimal
    generators of the leading-term ideal.  The lead ideal, the length, the
    unit test and normal forms need nothing more.  ``gens``, the reduced
    basis ordered by lead key, is interreduced from it on first read.
    """

    minimal: tuple
    ring: PolyRing
    stats: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def order(self) -> MonomialOrder:
        return self.ring.order

    @property
    def gens(self) -> tuple:
        """The reduced basis, built on first read within the open budget;
        past it this raises GroebnerTimeout (phase ``"interreduce"``)."""
        got = self._cache.get("gens")
        if got is None:
            try:
                got = tuple(_interreduce(self.minimal, self.ring))
            except GroebnerTimeout:
                raise budget.expired("interreduce", {**self.stats, "pending_pairs": 0}) from None
            if self.ring.domain.kind == "rat":
                self.stats["max_coeff_bits"] = max((g.max_coeff_bits() for g in got), default=0)
            self._cache["gens"] = got
        return got

    @property
    def lead_ideal(self):
        """Minimal generators of the leading-term ideal, as exponent tuples
        in ascending lead order."""
        got = self._cache.get("lead_ideal")
        if got is None:
            unpack = self.ring.pack.unpack
            got = [unpack(k) for k in sorted(g.lead_key() for g in self.minimal)]
            self._cache["lead_ideal"] = got
        return got

    def is_unit_ideal(self) -> bool:
        return len(self.minimal) == 1 and self.minimal[0].is_constant()

    def __iter__(self):
        return iter(self.gens)

    def __len__(self):
        return len(self.minimal)


def _spoly(f: MPoly, g: MPoly, l: int, pack) -> dict:
    """Terms of the S-polynomial x^uf f - x^ug g of f and g, whose leading
    keys have lcm ``l``, as the work dict of ``_reduce_terms``.

    f and g must be monic, as every basis element is, so no inverse is
    needed and the two leads cancel: they are left out.  A coefficient may
    be zero, and over F_p any residue in (-p, p); the reduction reduces each
    one mod p when it takes the term and skips it if it is zero.
    """
    uf = pack.quotient(l, f.lead_key()) - pack.offset
    ug = pack.quotient(l, g.lead_key()) - pack.offset
    acc = {k + uf: c for k, c in f.terms[1:]}
    get = acc.get
    for k, c in g.terms[1:]:
        kk = k + ug
        acc[kk] = get(kk, 0) - c
    return acc


def _first_divisor(ring, polys, lts, alive):
    """Reducer lookup ``k -> (lead key, terms) | None``: the first element
    in list order that is alive and whose lead divides ``k``.

    The terms are the element's own over F_p, and its primitive integer
    multiple over QQ (see ``_primitive``), made on the position's first hit.
    The lists are read at each call, so the caller may append to them and
    mark elements dead, but never revive one (see the module docstring).
    """
    pack = ring.pack
    gl, gh, guard, low = pack._guard_low, pack._guard_high, pack.guard, pack._low_mask
    zeros = pack.zeros
    rat = ring.domain.kind == "rat"
    memo: dict = {}
    nz: list = []  # position -> guard bits of its lead's nonzero exponents
    integral: list = []  # position -> primitive integer terms, once hit

    def find(k):
        n = len(lts)
        if len(nz) < n:
            nz.extend(zeros(lt) ^ guard for lt in lts[len(nz) : n])
        zk = zeros(k)
        k_high = k | low | gh
        for j in range(memo.get(k, 0), n):
            # alive[j], the support test and pack.divides(lt, k), inlined
            if (
                alive[j]
                and not nz[j] & zk
                and (lt := lts[j]) <= k
                and (((lt | gl) - k) & gl | (k_high - lt) & gh) == guard
            ):
                memo[k] = j
                if not rat:
                    return lt, polys[j].terms
                integral.extend([None] * (j + 1 - len(integral)))  # no-op if j is covered
                if integral[j] is None:
                    integral[j] = _primitive(polys[j].terms)
                return lt, integral[j]
        memo[k] = n
        return None

    return find


def _primitive(terms):
    """The primitive integer multiple of rational terms: coprime integer
    coefficients with a positive lead, as ``linalg`` makes kernel vectors."""
    (ints,) = _integer_rows([[c for _, c in terms]])
    return tuple(zip([k for k, _ in terms], _primitive_vector(ints)))


def _reduce_terms(work: dict, find, ring):
    """Fully reduce a term dict; returns the normal form as a dict.

    ``find(k)`` gives the reducer of a term, a ``(lead key, terms)`` whose
    lead divides ``k`` and whose lead coefficient a is positive, or None.
    ``_first_divisor``'s memo only moves where its scan starts, never which
    divisor it returns, so the reduction is the one a plain scan of the list
    gives.  Terms are taken largest first.  In a lex or block order a
    reduction can raise an exponent, so there a nonzero term whose key has a
    guard bit set is refused; in degrevlex no reduction raises the degree,
    so no exponent can pass the cap.

    The work holds integers over one running denominator ``den`` (see the
    module docstring), so the true coefficients are ``work / den``.  Over
    F_p ``den`` stays 1 and the reduction mod p is delayed: a reducer term
    only adds its product to the work, and a coefficient is reduced mod p
    once, when its term is taken.  A term that is then zero (it cancelled,
    also over QQ) is skipped, so the result holds no zero and no unreduced
    residue.  Each reducer term costs one dict lookup.  A term enters the
    work once and leaves it when taken: every reducer term is below the
    term it cancels, so no taken term comes back.
    The open budget is checked (``budget.check``, phase ``"reduction"``)
    when an allowance of ``WORK_PER_CLOCK_READ`` work units runs out, the
    first step included: a step costs 1 and each reducer applied costs its
    length, so a stretch of long lex reducers cannot run on unchecked.
    """
    pack = ring.pack
    check, guard = not pack.graded, pack.guard
    p = ring.domain.modulus
    rat = ring.domain.kind == "rat"
    den = 1
    if rat:
        den = lcm(*(c.denominator for c in work.values()))
        work = {k: c.numerator * (den // c.denominator) for k, c in work.items()}
    out = {}
    heap = [-k for k in work]
    heapify(heap)
    left = 0  # work units before the next budget check
    while heap:
        left -= 1
        if left < 0:
            budget.check("reduction")
            left = WORK_PER_CLOCK_READ
        k = -heappop(heap)
        c = work.pop(k)
        if p:
            c %= p
        if not c:
            continue  # the term cancelled
        if check and k & guard:
            raise CapacityError("reduction gives an exponent above the key field cap")
        hit = find(k)
        if hit is None:
            out[k] = c
            continue
        lt, terms = hit
        left -= len(terms)
        a = terms[0][1]
        if a != 1:
            g = gcd(a, c)
            if g != a:
                s = a // g
                work = {kk: v * s for kk, v in work.items()}
                out = {kk: v * s for kk, v in out.items()}
                den *= s
            c //= g
        shift, c = k - lt, -c  # the work gains -c times each reducer term
        get = work.get
        for kk, cc in terms[1:]:
            k2 = kk + shift
            v = get(k2)
            if v is None:
                heappush(heap, -k2)
                work[k2] = c * cc
            else:
                work[k2] = v + c * cc
    if rat:
        return {k: Fraction(c, den) for k, c in out.items()}
    return out


def normal_form(f: MPoly, G: GroebnerBasis) -> MPoly:
    """Unique remainder of f modulo a Groebner basis; zero iff f is in the ideal."""
    if f.ring is not G.ring:
        f = transport(f, G.ring)
    basis = G.minimal
    find = _first_divisor(f.ring, basis, [g.lead_key() for g in basis], [True] * len(basis))
    return f.ring.from_terms(_reduce_terms(dict(f.terms), find, f.ring))


def buchberger(gens) -> GroebnerBasis:
    """Groebner basis of the ideal generated by ``gens``, holding the
    minimal basis the pair loop ends with (see ``GroebnerBasis``).

    Deterministic for a fixed input list.  Raises GroebnerTimeout once the
    open budget runs out, carrying the statistics so far and the phase it
    stopped in (``"pairs"``).
    """
    gens = [g for g in gens if g is not None]
    if not gens:
        raise StructuralError("empty generator list")
    ring = gens[0].ring
    if not ring.domain.is_field:
        raise PreconditionError("Groebner bases require a field domain (QQ or F_p)")
    for g in gens:
        if g.ring is not ring:
            raise DomainMismatchError("generators live in different rings")
    pack = ring.pack
    lcm, offset = pack.lcm, pack.offset
    gl, gh, guard = pack._guard_low, pack._guard_high, pack.guard
    low_gh = pack._low_mask | gh
    t0 = time.monotonic()

    basis: list[MPoly] = []
    lts: list[int] = []
    excess: list[int] = []  # sugar minus leading degree
    alive: list[bool] = []
    pair_meta: dict = {}  # (i, j) -> (sugar, lcm_key)
    heap: list = []
    stats = {"pairs": 0, "zero_reductions": 0, "basis_additions": 0}
    find = _first_divisor(ring, basis, lts, alive)

    def add_poly(h: MPoly, sugar: int):
        t = len(basis)
        mh = h.lead_key()
        # lt + mh_shift is the key of lt * mh
        mh_guarded, mh_shift = mh | gl, mh - offset
        dh = pack.degree(mh)
        # Gebauer-Moeller update of the pair set, on lcm(mh, lts[i]) for every
        # live earlier element
        lcms = {i: lcm(mh, lts[i]) for i in range(t) if alive[i]}
        cand = sorted(lcms, key=lcms.__getitem__)
        ordered = [lcms[i] for i in cand]
        kept: list[int] = []
        kept_lcms: list[int] = []
        for pos, i in enumerate(cand):
            li = ordered[pos]
            # a coprime pair (lcm = product) goes to D, dropped later by the
            # product criterion; of the later candidates (lcm >= li) only an
            # equal lcm divides li, and every kept lcm is <= li
            if li != mh_shift + lts[i]:
                if pos + 1 < len(ordered) and ordered[pos + 1] == li:
                    continue
                li_high = li | low_gh
                # any(lj != li and pack.divides(lj, li)), inlined
                if any(
                    lj != li and (((lj | gl) - li) & gl | (li_high - lj) & gh) == guard
                    for lj in kept_lcms
                ):
                    continue
            kept.append(i)
            kept_lcms.append(li)
        # filter old pairs through the new leading term; a pair may name an
        # element that has died since, whose lcm is computed here
        for (i, j), (_, l_ij) in list(pair_meta.items()):
            # pack.divides(mh, l_ij), inlined
            if (
                mh <= l_ij
                and ((mh_guarded - l_ij) & gl | ((l_ij | low_gh) - mh) & gh) == guard
                and (lcms[i] if i in lcms else lcm(mh, lts[i])) != l_ij
                and (lcms[j] if j in lcms else lcm(mh, lts[j])) != l_ij
            ):
                del pair_meta[(i, j)]
        for i, l in zip(kept, kept_lcms):
            if l != mh_shift + lts[i]:
                s = pack.degree(l) + max(excess[i], sugar - dh)
                pair_meta[(i, t)] = (s, l)
                heappush(heap, (s, l, t, i))
        # mh divides lts[i] iff their lcm is lts[i]
        for i, l in lcms.items():
            if l == lts[i]:
                alive[i] = False
        basis.append(h)
        lts.append(mh)
        excess.append(sugar - dh)
        alive.append(True)
        stats["basis_additions"] += 1

    in_flight = 0
    try:
        # seed with normalized inputs (monic, reduced against earlier ones); a
        # generator equal to an earlier one is skipped before its reduction
        seen = set()
        for g in gens:
            if g.is_zero() or g.terms in seen:
                continue
            seen.add(g.terms)
            red = _reduce_terms(dict(g.terms), find, ring)
            if not red:
                continue
            h = ring.from_terms(red).monic()
            add_poly(h, h.total_degree())

        while heap:
            budget.check("pairs")
            s, l, j, i = heappop(heap)
            if pair_meta.pop((i, j), None) is None:
                continue  # pruned by a later update
            stats["pairs"] += 1
            in_flight = 1
            red = _reduce_terms(_spoly(basis[i], basis[j], l, pack), find, ring)
            in_flight = 0
            if not red:
                stats["zero_reductions"] += 1
                continue
            h = ring.from_terms(red).monic()
            add_poly(h, max(s, h.total_degree()))
    except GroebnerTimeout:
        stats["wall_ms"] = int((time.monotonic() - t0) * 1000)
        stats["pending_pairs"] = len(pair_meta) + in_flight
        raise budget.expired("pairs", stats) from None
    stats["wall_ms"] = int((time.monotonic() - t0) * 1000)
    return GroebnerBasis(tuple(g for g, live in zip(basis, alive) if live), ring, stats)


def _interreduce(polys, ring):
    """Reduced form of a set of polynomials: monic, leading terms pairwise
    non-divisible, and no term divisible by another element's lead.

    One ascending pass: a tail term is smaller than its own lead, so only an
    element with a smaller lead can divide it, and those are already reduced.
    An element whose lead an earlier one divides is dropped.
    """
    polys = sorted((p.monic() for p in polys if p), key=lambda p: p.lead_key())
    out: list[MPoly] = []
    lts: list[int] = []
    find = _first_divisor(ring, out, lts, [True] * len(polys))
    for p in polys:
        if find(p.lead_key()) is None:
            out.append(ring.from_terms(_reduce_terms(dict(p.terms), find, ring)))
            lts.append(p.lead_key())
    return out


# ---------------------------------------------------------------------------
# dimension, degree


@dataclass(frozen=True)
class DimensionReport:
    dim: int
    codim: int
    degree: int | None


def ideal_dimension(G: GroebnerBasis) -> DimensionReport:
    """Krull dimension and codimension of the quotient, and in dimension 0
    its degree (the number of standard monomials), from the Hilbert
    numerator of the leading-term ideal: the one test of the dimension, and
    so of zero-dimensionality."""
    n = len(G.ring.universe)
    if n > 30:
        raise PreconditionError("lead-ideal invariants capped at 30 variables")
    if G.is_unit_ideal():
        # empty scheme: no degree is reported
        return DimensionReport(-1, n + 1, None)
    codim, value = _numerator_at_one(G)
    dim = n - codim
    return DimensionReport(dim, codim, value if dim == 0 else None)


def independent_set(G: GroebnerBasis) -> tuple:
    """Names of a largest variable set containing no leading-term support: a
    witness of the dimension d that ``ideal_dimension`` reads off the Hilbert
    numerator (empty when d <= 0).  The include-first search in index order
    stops at the first set of size d; finding none means the numerator and
    the leads disagree."""
    d = ideal_dimension(G).dim
    if d <= 0:
        return ()
    n = len(G.ring.universe)
    supports = [sum(1 << i for i, e in enumerate(exps) if e) for exps in G.lead_ideal]

    def extend(S: int, idx: int, size: int):
        if size == d:
            return S
        if size + (n - idx) < d:
            return None
        S2 = S | 1 << idx
        if all(m & ~S2 for m in supports):
            found = extend(S2, idx + 1, size + 1)
            if found is not None:
                return found
        return extend(S, idx + 1, size)

    found = extend(0, 0, 0)
    if found is None:
        raise InternalConsistencyError(f"no independent set of size {d}, the numerator's dimension")
    names = G.ring.universe.names
    return tuple(names[i] for i in range(n) if found >> i & 1)


def hilbert_numerator(G: GroebnerBasis) -> tuple:
    """Coefficients of the numerator N(t) of HS_{R/in(I)} = N(t)/(1-t)^n.

    Bigatti's pivot recursion on the leading-term ideal, run once per basis:
    the result is cached on ``G``.  The leads of a minimal basis are minimal
    generators, and each split keeps them minimal (see ``num``), so no step
    re-minimalizes; every generator list is kept in ``(degree, exps)`` order.
    The open budget is checked every 256 recursion steps, the first
    included; past it the recursion raises GroebnerTimeout (phase
    ``"hilbert"``) and caches nothing.
    """
    got = G._cache.get("hilbert_numerator")
    if got is not None:
        return got
    memo: dict = {}
    steps = 0

    def canonical(ms):
        return tuple(sorted(ms, key=lambda m: (sum(m), m)))

    def poly_add(a, b, shift):
        out = list(a) + [0] * max(0, shift + len(b) - len(a))
        for j, y in enumerate(b):
            out[shift + j] += y
        return out

    def num(ms):
        nonlocal steps
        if steps & 255 == 0:
            budget.check("hilbert", {"steps": steps})
        steps += 1
        if not ms:
            return [1]
        if any(sum(m) == 0 for m in ms):
            return [0]
        key = ms
        got = memo.get(key)
        if got is not None:
            return got
        supports = [tuple(i for i, e in enumerate(m) if e) for m in ms]
        if all(len(s) == 1 for s in supports):
            # pairwise coprime pure powers: product of (1 - t^deg)
            out = [1]
            for m in ms:
                out = poly_add(out, [-x for x in out], shift=sum(m))
            memo[key] = out
            return out
        # pivot: the most frequent variable among non-simple generators
        counts: dict = {}
        for s in supports:
            if len(s) > 1:
                for i in s:
                    counts[i] = counts.get(i, 0) + 1
        piv = max(sorted(counts), key=lambda i: counts[i])
        # I + (x) is minimally x and the generators x does not divide (x is
        # not a generator: it would divide the one of support > 1 holding x).
        # I : x lowers the generators x divides; those stay pairwise
        # non-divisible, an untouched one divides none of them, and a lowered
        # one can only divide an untouched one if it lost its x.
        pivot = tuple(1 if i == piv else 0 for i in range(len(ms[0])))
        untouched = [m for m in ms if not m[piv]]
        lowered = [m[:piv] + (m[piv] - 1,) + m[piv + 1:] for m in ms if m[piv]]
        free = [m for m in lowered if not m[piv]]
        colon = lowered + [
            u for u in untouched if not any(all(a <= b for a, b in zip(m, u)) for m in free)
        ]
        out = poly_add(num(canonical(untouched + [pivot])), num(canonical(colon)), shift=1)
        memo[key] = out
        return out

    got = G._cache["hilbert_numerator"] = tuple(num(canonical(G.lead_ideal)))
    return got


def _numerator_at_one(G: GroebnerBasis):
    """``(valuation, value)``: how often (1 - t) divides the Hilbert
    numerator, which is the codimension, and the quotient's value at t = 1,
    which is the degree."""
    coeffs = hilbert_numerator(G)
    valuation = 0
    while sum(coeffs) == 0:
        # exact division by (1 - t): the partial sums, the last one being 0
        coeffs = tuple(accumulate(coeffs))[:-1]
        valuation += 1
    return valuation, sum(coeffs)


def hilbert_degree(G: GroebnerBasis) -> int:
    """Degree of the projective scheme cut out by a homogeneous ideal.

    Homogeneity is tested on the reduced basis: a minimal one of a
    homogeneous ideal may hold a non-homogeneous element (y^2 + x beside x).
    """
    if not all(g.is_homogeneous() for g in G.gens):
        raise StructuralError("Hilbert-series degree needs a homogeneous ideal")
    if G.is_unit_ideal():
        raise StructuralError("unit ideal has no degree")
    value = _numerator_at_one(G)[1]
    if value <= 0:
        raise StructuralError("Hilbert numerator degenerate; not a proper ideal?")
    return value


# ---------------------------------------------------------------------------
# elimination, saturation, radical membership, intersection

def _front_ring(ring: PolyRing) -> PolyRing:
    """Ring with one fresh variable t prepended, in the block order that
    eliminates it."""
    i = 0
    while f"t_{i}" in ring.universe.index:
        i += 1
    return PolyRing(VarUniverse([f"t_{i}", *ring.universe.names]), ring.domain, block_order(1))


def _rabinowitsch(gens, f: MPoly):
    """``gens`` and 1 - t*f in the ring with one fresh front variable t."""
    ext = _front_ring(gens[0].ring)
    relation = ext.one - ext.gen(0) * transport(f, ext)
    return [transport(g, ext) for g in gens] + [relation]


def _eliminate_t(moved, ring: PolyRing):
    """The elimination ideal of ``moved``, which lives in ``_front_ring(ring)``:
    the minimal basis elements free of t, back in ``ring``.  In the block
    order an element whose lead avoids t avoids it in every term, and those
    elements are a basis in degrevlex, the order of the block after t, so
    they are interreduced there: interreduced in another order, such as
    lex, they could lose a generator."""
    G = buchberger(moved)
    front_free = G.ring.pack.front_free
    tail = ring if ring.order == DEGREVLEX else PolyRing(ring.universe, ring.domain, DEGREVLEX)
    free = [transport(g, tail) for g in G.minimal if front_free(g.lead_key())]
    return [transport(g, ring) for g in _interreduce(free, tail)]


def saturate(gens, f: MPoly):
    """Generators of I : f^infinity, not in general a Groebner basis.

    A product of variables is saturated variable by variable.  Single
    variables use the degrevlex divide-through shortcut when the ideal is
    homogeneous, else one auxiliary variable t and elimination of the
    Rabinowitsch relation 1 - t*f.
    """
    gens = [g for g in gens if g]
    if not gens:
        return []
    ring = gens[0].ring
    if f.ring is not ring:
        f = transport(f, ring)
    if f.is_zero():
        raise PreconditionError("cannot saturate by zero")
    if len(f.terms) == 1:
        exps = f.lead_monomial()
        var_list = [i for i, e in enumerate(exps) if e]
        if var_list:
            current = gens
            for i in var_list:
                if all(g.is_homogeneous() for g in current):
                    current = _saturate_divide(current, i)
                else:
                    current = _saturate_general(current, ring.gen(i))
                if len(current) == 1 and current[0].is_constant():
                    break
            return current
    return _saturate_general(gens, f)


def _saturate_divide(gens, var_index: int):
    """Saturation by one variable of a homogeneous ideal: compute a degrevlex
    basis with that variable cheapest, then divide out its powers (Bayer).

    Any homogeneous basis in that order will do, so the minimal one is used.
    The returned list generates the saturation (it is a basis only with
    respect to the permuted order, so it is NOT interreduced here).
    """
    ring = gens[0].ring
    names = list(ring.universe.names)
    moved = names[var_index]
    perm_names = [nm for nm in names if nm != moved] + [moved]
    work = PolyRing(VarUniverse(perm_names), ring.domain, DEGREVLEX)
    G = buchberger([transport(g, work) for g in gens])
    pack = work.pack
    out = []
    for g in G.minimal:
        # g is homogeneous, and among monomials of one degree degrevlex puts
        # first the one with the fewest factors of the last variable: the
        # lead's power of it divides every term
        e = g.lead_monomial()[-1]
        if e:
            power = pack.pack([0] * (len(names) - 1) + [e])
            g = work.from_terms({pack.quotient(k, power): c for k, c in g.terms})
        out.append(transport(g, ring))
    return out


def _saturate_general(gens, f: MPoly):
    return _eliminate_t(_rabinowitsch(gens, f), gens[0].ring)


def radical_membership(f: MPoly, gens, gb: GroebnerBasis | None = None) -> bool:
    """Rabinowitsch test: f lies in the radical iff 1 is in I + (1 - t*f)."""
    gens = [g for g in gens if g]
    if f.is_zero():
        return True
    if not gens:
        return False
    ring = gens[0].ring
    if f.ring is not ring:
        f = transport(f, ring)
    if gb is not None:
        # sound shortcut: small-power membership implies radical membership
        power = f
        for _ in range(3):
            if normal_form(power, gb).is_zero():
                return True
            power = power * power
    return buchberger(_rabinowitsch(gens, f)).is_unit_ideal()


def ideal_intersection(I, J):
    """Generators of the intersection, via t*I + (1-t)*J and elimination.

    A list with no nonzero generator is the zero ideal, so intersecting with
    it gives ``[]``.
    """
    I = [g for g in I if g]
    J = [g for g in J if g]
    if not I or not J:
        return []
    ring = I[0].ring
    ext = _front_ring(ring)
    t = ext.gen(0)
    one_minus_t = ext.one - t
    moved = [t * transport(g, ext) for g in I]
    moved.extend(one_minus_t * transport(g, ext) for g in J)
    return _eliminate_t(moved, ring)
