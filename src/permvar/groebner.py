"""Buchberger engine over F_p and QQ with normal forms, dimension, degree,
saturation, elimination, radical membership and ideal intersection.

Pair handling uses the Gebauer-Moeller criteria with sugar-degree selection;
ties break by the pair's lcm in the ambient order, then by the insertion
index of its newer element, then of its older one.  The pairs wait in one
heap, and the update on packed keys only adds to it.  The pair loop keeps the
live elements' indices and their leads with the degree field masked off; one
``_Pack.lcms`` pass takes the new lead's lcm with each, reading its fields
once, and the chain criterion runs over the candidates sorted as
``(lcm, index)`` pairs.  A pair is coprime iff its lcm is the product key
``mh + lt - offset``, and the new lead makes an element dead iff that lcm is
the element's own lead; a dead element leaves the live list.  The old-pair
criterion is tested when a pair is taken: pair (i, j) with lcm l is dropped
if a lead added after j, dead or alive, divides l and has an lcm other than
l with both leads.  Leads are only appended, so the first such lead is the
addition at which an update sweeping the pending pairs would drop the pair,
and the same pairs are dropped.  A timeout's ``pending_pairs`` counts the
heap, pairs that criterion would still drop included.
All reductions are full (head and tail), so intermediate elements stay small.
A term's reducer is the first basis element, in insertion order, that is
alive and whose lead divides it.  Each probe first runs a support test: one
AND of the lead's nonzero-exponent guard bits with the term's zero-exponent
ones (``_Pack.zeros``) rejects a lead that uses a variable the term lacks.
Only a lead that passes gets the masked divisibility test.  The support test
never rejects a divisor, so it changes no reducer.  The lookup remembers, per
monomial key, the divisor j it found, or ~n after a scan of n elements found
none.  Elements are only appended and a dead one never comes back, so every
element before j, or before n, is still dead or still a non-divisor: a
remembered divisor that is alive is returned after one dict lookup and one
``alive`` test, a dead one resumes the scan just after it, a term with no
divisor probes only the elements added since, and the reducer found is the
one a full scan from the start would find.

One reduction loop serves F_p and QQ, on integer coefficients.  The pair
loop keeps each basis element as its reducer terms only: over QQ its
primitive integer multiple (coprime coefficients, lead a > 0), made once from
the remainder that adds it by dividing out its content, and over F_p its
monic terms (a = 1).  The reduction keeps the work over one running
denominator D: a term c is cancelled by (c/g) times the reducer,
g = gcd(a, c), after the work, the terms already emitted and D are scaled by
a/g when a does not divide c; it returns the integer remainder and D.  An
S-polynomial is built from the two reducers' terms, as lcm(a_f, a_g) times the
monic one, so over QQ the pair loop makes no Fraction.  Fractions remain in
three places: the monic minimal basis ``buchberger`` returns (one Fraction
per term of each element alive at the end), ``normal_form``'s result (the
remainder over D times the input's common denominator) and the interreduced
basis.  Over F_p, a = 1, D = 1 and nothing is ever rescaled, and the
reduction mod p is delayed (Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008):
a reducer term only adds c times its coefficient to the work, and each
coefficient is reduced once, when its term is taken.  A term that is zero
then, over F_p or QQ, is skipped.

``buchberger`` returns the minimal basis the pair loop ends with; its leads are
the minimal generators of the leading-term ideal, which is all the dimension,
the Hilbert series and normal forms read.  The reduced basis differs only in
its tails (Cox, Little and O'Shea, section 2.7) and is interreduced from it
when ``GroebnerBasis.gens`` is first read.  The Hilbert recursion holds a
monomial as ``(degree, key)``, the key one plain 16-bit exponent field per
variable, the first highest, so pairs sort as ``(degree, exponents)``; a
support is one add and one mask, divisibility one masked subtraction, and the
colon by the pivot variable subtracts its unit.

For n distinct nonzero forms of positive degree in n variables, the pair loop
counts the monomials outside the current leads degree by degree and skips the
pairs of a degree once that count meets the Hilbert function of a regular
sequence of the same degrees (``_HilbertSkip``): every such pair reduces to 0,
so the basis is the one the full loop builds.

``contains`` decides membership.  When the generators and the forms asked
about are all homogeneous, its pair loop stops before the first pair of
degree above D, the largest degree asked about (the degree-D truncated basis,
Lazard, EUROCAL 1983).  Every element, S-polynomial and remainder is then a
form and a pair's sugar is its degree, so the loop has taken every pair of
degree <= D.  Buchberger's criterion holds degree by degree for forms, so the
leads then span in(I) in every degree <= D, and a form of degree <= D lies in
I iff it reduces to zero.  The criteria stay sound under the stop: the product
criterion drops a pair that reduces to zero, and the Gebauer-Moeller ones
drop a pair only in favour of pairs whose lcm equals or strictly divides its
own, of no higher degree (J. Symb. Comp. 6, 1988).  The truncated basis never
leaves ``contains``; ``buchberger`` has no stop.

``transport`` between two degrevlex rings of one domain whose universes
permute one name set moves key fields: each key holds one field per variable
under the same degree field, so one mask and shift moves each maximal run of
variables that stay consecutive, the degree field stays, and the terms are
sorted again (``_field_runs``, made once per ring pair).

The open budget is tested only by ``budget.check``, which raises
GroebnerTimeout past its deadline: before each S-pair and each degree the
Hilbert count moves up, when a reduction's allowance of
``WORK_PER_CLOCK_READ`` work units runs out (so also while
``GroebnerBasis.gens`` interreduces), before each content step over QQ, and
every 256 steps of the Hilbert recursion.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from heapq import heapify, heappop, heappush
from itertools import accumulate
from math import gcd, inf
from operator import itemgetter

from . import budget
from .errors import (
    CapacityError,
    DomainMismatchError,
    GroebnerTimeout,
    InternalConsistencyError,
    PreconditionError,
    StructuralError,
)
from .linalg import _integer_scaled, _primitive as _primitive_vector
from .ring import (
    _FIELD_CAP,
    _WIDTH,
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


@cache  # rings are interned, so once per ring pair
def _field_runs(src: PolyRing, tgt: PolyRing):
    """``(keep, runs)`` that re-key ``src`` keys into ``tgt`` ones when both
    rings are graded, of one domain, over permutations of one name set;
    else None.  ``keep`` masks the degree field, and each ``(mask, up,
    down)`` moves one maximal run of fields that stay consecutive."""
    names, index = src.universe.names, tgt.universe.index
    if not (
        src.pack.graded
        and tgt.pack.graded
        and src.domain == tgt.domain
        and len(names) == len(index)
        and all(nm in index for nm in names)
    ):
        return None
    w, runs, i = _WIDTH, [], 0
    while i < len(names):
        j = index[names[i]]
        r = 1
        while i + r < len(names) and index[names[i + r]] == j + r:
            r += 1
        shift = w * (j - i)
        runs.append((((1 << w * r) - 1) << w * i, max(shift, 0), max(-shift, 0)))
        i += r
    return -1 << w * len(names), tuple(runs)


def transport(p: MPoly, ring: PolyRing) -> MPoly:
    """Move a polynomial into another ring, matching variables by name.

    The one way a polynomial changes ring: a new domain, order or universe.
    Only variables actually appearing in ``p`` need to exist in the target.
    A ring of the same universe and order packs keys the same way, so only
    the coefficients are coerced; within one domain they are kept as they
    are, and only the keys move.  Between graded rings of one domain whose
    universes permute one name set, a key's fields are permuted, run by run
    (``_field_runs``), under the same degree field.
    """
    if p.ring is ring:
        return p
    src = p.universe
    coerce = ring.domain.coerce
    if src == ring.universe and p.order == ring.order:
        return ring.from_terms({k: coerce(c) for k, c in p.terms})
    moves = _field_runs(p.ring, ring)
    if moves is not None:
        keep, runs = moves
        terms = []
        for k, c in p.terms:
            key = k & keep
            for mask, up, down in runs:
                key |= (k & mask) << up >> down
            terms.append((key, c))
        terms.sort(reverse=True)
        return MPoly(ring, tuple(terms))
    same = p.domain == ring.domain
    at = [ring.universe.index.get(nm) for nm in src.names]  # None: not in the target
    n = len(ring.universe)
    unpack = p.ring.pack.unpack
    out = {}
    for k, c in p.terms:
        exps = [0] * n
        for i, e in enumerate(unpack(k)):
            if e:
                if at[i] is None:
                    raise DomainMismatchError(f"target universe lacks variable {src.names[i]!r}")
                exps[at[i]] = e
        out[ring.pack.pack(exps)] = c if same else coerce(c)
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
    unit test and normal forms need nothing more.  ``reducers`` holds the
    same elements as the reducer terms that normal forms reduce by (see
    ``_reducer_terms``).  ``gens``, the reduced basis ordered by lead key, is
    interreduced from ``minimal`` on first read.
    """

    minimal: tuple
    reducers: tuple
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


def _spoly(f: tuple, g: tuple, l: int, pack) -> dict:
    """Terms of the S-polynomial of two basis elements' reducer terms f and
    g (see ``_reducer_terms``), whose leading keys have lcm ``l``, as the
    work dict of ``_reduce_terms``.

    With int leads a_f and a_g and d = gcd(a_f, a_g) it is
    (a_g/d) x^uf f - (a_f/d) x^ug g, which is lcm(a_f, a_g) times the
    S-polynomial of the monic forms; over F_p both leads are 1, and so are
    both scale factors.  The two leads cancel, so they are left out.  A
    coefficient may be zero, and over F_p any residue in (-p, p); the
    reduction reduces each one mod p when it takes the term and skips it if
    it is zero.
    """
    (lf, af), (lg, ag) = f[0], g[0]
    uf = pack.quotient(l, lf) - pack.offset
    ug = pack.quotient(l, lg) - pack.offset
    d = gcd(af, ag)
    sf, sg = ag // d, af // d
    acc = {k + uf: sf * c for k, c in f[1:]}
    get = acc.get
    for k, c in g[1:]:
        kk = k + ug
        acc[kk] = get(kk, 0) - sg * c
    return acc


def _first_divisor(ring, reducers, lts, alive):
    """Reducer lookup ``k -> (lead key, terms) | None``: the first element
    in list order that is alive and whose lead divides ``k``, with its
    entry of ``reducers`` (see ``_reducer_terms``).

    The lists are read at each call, so the caller may append to them and
    mark elements dead, but never revive one (see the module docstring).
    """
    pack = ring.pack
    gl, gh, guard, low = pack._guard_low, pack._guard_high, pack.guard, pack._low_mask
    values, zero_add, zeros = pack._values, pack._zero_add, pack.zeros
    memo: dict = {}  # key -> its divisor j, or ~n after a scan of n found none
    nz: list = []  # position -> guard bits of its lead's nonzero exponents

    def find(k):
        j = memo.get(k, -1)
        if j >= 0 and alive[j]:
            return lts[j], reducers[j]
        j = j + 1 if j >= 0 else ~j  # after a dead divisor, or where a scan ended
        n = len(lts)
        if len(nz) < n:
            nz.extend(zeros(lt) ^ guard for lt in lts[len(nz) : n])
        zk = ((k & values) + zero_add) & guard ^ gh  # pack.zeros(k), inlined
        k_high = k | low | gh
        for j in range(j, n):
            # alive[j], the support test and pack.divides(lt, k), inlined
            if (
                alive[j]
                and not nz[j] & zk
                and (lt := lts[j]) <= k
                and (((lt | gl) - k) & gl | (k_high - lt) & gh) == guard
            ):
                memo[k] = j
                return lt, reducers[j]
        memo[k] = ~n
        return None

    return find


def _integer_terms(f: MPoly) -> tuple:
    """``(terms, den)``: f's terms with integer coefficients, as
    ``_reduce_terms`` takes its work, and the denominator they are over, so
    that f is ``terms / den``.  Over F_p they are f's own and den is 1; over
    QQ den is the lcm of f's denominators."""
    if f.ring.domain.kind != "rat":
        return f.terms, 1
    ints, den = _integer_scaled([c for _, c in f.terms])
    return tuple(zip([k for k, _ in f.terms], ints)), den


def _reducer_terms(red: dict, ring) -> tuple:
    """A nonzero integer remainder as a basis element's reducer terms, in
    descending order: over QQ divided by its content, with a positive lead
    (as ``linalg`` makes kernel vectors), and over F_p made monic.  The
    content's gcd and division over QQ can take seconds on big integers, so
    the open budget is checked before them and between their entries
    (phase ``"content"``, see ``linalg._primitive``)."""
    items = sorted(red.items(), reverse=True)
    if ring.domain.kind == "rat":
        budget.check("content")
        return tuple(zip([k for k, _ in items], _primitive_vector([c for _, c in items])))
    p, a = ring.domain.modulus, items[0][1]
    if a != 1:
        inv = pow(a, p - 2, p)
        items = [(k, c * inv % p) for k, c in items]
    return tuple(items)


def _monic(terms: tuple, ring) -> MPoly:
    """The monic polynomial of a basis element's reducer terms: over QQ
    each coefficient divided by the lead, the one Fraction made per term,
    and over F_p the terms themselves."""
    if ring.domain.kind != "rat":
        return MPoly(ring, terms)
    a = terms[0][1]
    return MPoly(ring, tuple((k, Fraction(c, a)) for k, c in terms))


def _reduce_terms(work: dict, find, ring):
    """Fully reduce a term dict of integer coefficients; returns the integer
    remainder and the denominator ``den`` it is over: the normal form of
    the work is ``remainder / den``.

    ``find(k)`` gives the reducer of a term, a ``(lead key, terms)`` whose
    lead divides ``k`` and whose lead coefficient a is positive, or None.
    ``_first_divisor``'s memo only moves where its scan starts, never which
    divisor it returns, so the reduction is the one a plain scan of the list
    gives.  Terms are taken largest first.  In a lex or block order a
    reduction can raise an exponent, so there a nonzero term whose key has a
    guard bit set is refused; in degrevlex no reduction raises the degree,
    so no exponent can pass the cap.

    ``den`` is the running denominator of the module docstring.  Over F_p it
    stays 1 and the reduction mod p is delayed: a reducer term only adds its
    product to the work, and a coefficient is reduced mod p once, when its
    term is taken.  A term that is then zero (it cancelled, also over QQ) is
    skipped, so the remainder holds no zero and no unreduced residue.  Each
    reducer term costs one dict lookup.  A term enters the work once and
    leaves it when taken: every reducer term is below the term it cancels,
    so no taken term comes back.
    The open budget is checked (``budget.check``, phase ``"reduction"``)
    when an allowance of ``WORK_PER_CLOCK_READ`` work units runs out, the
    first step included: a step costs 1 and each reducer applied costs its
    length, so a stretch of long lex reducers cannot run on unchecked.
    """
    pack = ring.pack
    check, guard = not pack.graded, pack.guard
    p = ring.domain.modulus
    den = 1
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
    return out, den


def normal_form(f: MPoly, G: GroebnerBasis) -> MPoly:
    """Unique remainder of f modulo a Groebner basis; zero iff f is in the ideal.

    f is reduced as its integer terms (``_integer_terms``), and over QQ the
    remainder is divided by their denominator times the reduction's own."""
    if f.ring is not G.ring:
        f = transport(f, G.ring)
    ring = f.ring
    lts = [g.lead_key() for g in G.minimal]
    find = _first_divisor(ring, G.reducers, lts, [True] * len(lts))
    terms, den = _integer_terms(f)
    out, scale = _reduce_terms(dict(terms), find, ring)
    if ring.domain.kind != "rat":
        return ring.from_terms(out)
    return ring.from_terms({k: Fraction(c, den * scale) for k, c in out.items()})


def _regular_sequence_hf(degrees) -> tuple:
    """Coefficients of prod (1 + t + ... + t^(d_i - 1)): the Hilbert function
    B of R/(f_1, ..., f_n) for a regular sequence of forms of the given
    degrees in n variables.  B(d) is 0 past the last coefficient."""
    out = [1]
    for d in degrees:
        # times 1 + ... + t^(d-1): each coefficient is a window sum of d
        out = [sum(out[max(0, k - d + 1) : k + 1]) for k in range(len(out) + d - 1)]
    return tuple(out)


class _HilbertSkip:
    """Traverso's Hilbert-driven pair skip (J. Symb. Comp. 22, 1996) for n
    distinct nonzero forms of positive degree in n variables.

    Why it is sound.  HF(R/I, d) = N_d - rank M_d(f), with M_d(f) the
    coefficient matrix of the degree-d multiples of the forms.  Rank is
    lower semicontinuous, and for m <= n forms of fixed degrees the regular
    sequences are open and dense, so over any field rank M_d(f) is at most
    its rank at a regular sequence, and HF(R/I, d) >= B(d) in every degree
    (see ``_regular_sequence_hf``).  The degree-d monomials that no current
    lead divides number at least HF(R/in(I), d) = HF(R/I, d).  So when they
    number B(d), the current leads span in(I) in degree d, and every pending
    S-pair of degree d reduces to 0: its normal form lies in I and has no
    term a lead divides.  Homogeneous inputs keep every element homogeneous,
    and a pair's sugar is its degree, so pairs are taken degree by degree.
    A skip adds no element and prunes no pair, so the minimal and reduced
    bases do not change; fewer pairs are reduced.

    ``free`` holds the degree-``degree`` monomials that no current lead
    divides.  Moving up a degree keeps a monomial only if every divisor one
    degree lower was free (one count per variable of its support), then
    drops every lead of the new degree, the seeds' included; an element
    added at that degree drops its own lead.  The count can never be below
    B; at the first completed degree where it is above, the input is no
    complete intersection and tracking stops, as from then on the skip only
    costs time.  Each step up a degree checks the open budget (phase
    ``"pairs"``).
    """

    def __init__(self, ring, degrees, lts):
        pack = ring.pack
        n = len(ring.universe)
        self.bound = _regular_sequence_hf(degrees)
        self.degree = 0
        self.free = {pack.one}
        self.active = True
        self._pack, self._lts = pack, lts
        self._shifts = [pack.pack([int(i == j) for j in range(n)]) - pack.offset for i in range(n)]

    def _excess(self) -> int:
        d = self.degree
        b = self.bound[d] if d < len(self.bound) else 0
        if len(self.free) < b:
            raise InternalConsistencyError(
                f"{len(self.free)} degree-{d} monomials outside the leads, below the "
                f"Hilbert function {b} of a regular sequence of the same degrees"
            )
        return len(self.free) - b

    def skips(self, d: int) -> bool:
        """Whether a pair of degree d reduces to 0 for sure: every degree
        below d is complete once such a pair is taken."""
        while self.active and self.degree < d:
            budget.check("pairs")
            if self._excess():
                self.active, self.free = False, set()
                break
            pack, hits = self._pack, {}
            for m in self.free:
                for w in self._shifts:
                    hits[m + w] = hits.get(m + w, 0) + 1
            self.degree += 1
            leads = {lt for lt in self._lts if pack.degree(lt) == self.degree}
            self.free = {
                k for k, c in hits.items() if c == (pack.zeros(k) ^ pack.guard).bit_count()
            } - leads
        return self.active and not self._excess()


def _hilbert_skip(gens, ring, lts):
    """A ``_HilbertSkip`` for exactly n distinct nonzero homogeneous forms
    of positive degree in the ring's n variables, else None.  Every tracked
    monomial has degree at most sum(d_i - 1) + 1, which must fit a key."""
    forms = {g.terms: g for g in gens if g}
    degrees = [g.total_degree() for g in forms.values() if g.is_homogeneous()]
    square = len(degrees) == len(forms) == len(ring.universe) and all(d > 0 for d in degrees)
    if square and sum(degrees) - len(degrees) < _FIELD_CAP:
        return _HilbertSkip(ring, degrees, lts)
    return None


def buchberger(gens) -> GroebnerBasis:
    """Groebner basis of the ideal generated by ``gens``, holding the
    minimal basis the pair loop ends with (see ``GroebnerBasis``).

    The loop keeps each element as its reducer terms only; the monic
    polynomials are made once it ends, for the elements still alive.

    Pairs skipped by ``_HilbertSkip`` are counted in ``stats["hilbert_skips"]``.

    Deterministic for a fixed input list.  Raises GroebnerTimeout once the
    open budget runs out, carrying the statistics so far and the phase it
    stopped in (``"pairs"``).
    """
    return _buchberger(gens)


def _buchberger(gens, top=inf) -> GroebnerBasis:
    """``buchberger``'s pair loop, stopped before its first pair of sugar
    above ``top``: for homogeneous ``gens`` the basis of the ideal up to
    degree ``top`` (see ``contains``)."""
    if not gens:
        raise StructuralError("empty generator list")
    ring = gens[0].ring
    if not ring.domain.is_field:
        raise PreconditionError("Groebner bases require a field domain (QQ or F_p)")
    for g in gens:
        if g.ring is not ring:
            raise DomainMismatchError("generators live in different rings")
    pack = ring.pack
    lcm, lcms, offset, values = pack.lcm, pack.lcms, pack.offset, pack._values
    gl, gh, guard = pack._guard_low, pack._guard_high, pack.guard
    low_gh = pack._low_mask | gh
    t0 = time.monotonic()

    reducers: list[tuple] = []  # element i's terms, as _reducer_terms makes them
    lts: list[int] = []
    excess: list[int] = []  # sugar minus leading degree
    alive: list[bool] = []
    live: list[int] = []  # the live elements, ascending
    live_vals: list[int] = []  # their leads, degree field masked off
    heap: list = []  # (sugar, lcm, newer index, older index)
    stats = {"pairs": 0, "zero_reductions": 0, "basis_additions": 0, "hilbert_skips": 0}
    find = _first_divisor(ring, reducers, lts, alive)
    hilbert = _hilbert_skip(gens, ring, lts)

    def add_poly(h: MPoly, sugar: int):
        """Add the element whose reducer terms are h's, and its pairs."""
        t = len(lts)
        mh = h.lead_key()
        mh_shift = mh - offset  # lt + mh_shift is the key of lt * mh
        dh = pack.degree(mh)
        # Gebauer-Moeller's chain criterion on lcm(mh, lts[i]) for every live
        # earlier element, in (lcm, index) order
        cand = sorted(zip(lcms(mh, live_vals), live), key=itemgetter(0))  # stable: live ascends
        last = len(cand) - 1
        kept_lcms: list[int] = []  # the kept pairs' lcms and the coprime pairs'
        dead: list[int] = []  # mh divides lts[i] iff their lcm is lts[i]
        for pos, (li, i) in enumerate(cand):
            lt = lts[i]
            if li == lt:
                dead.append(i)
            # a coprime pair (lcm = product) goes to D, dropped later by the
            # product criterion; of the later candidates (lcm >= li) only an
            # equal lcm divides li, and every kept lcm is <= li
            if li == mh_shift + lt:
                kept_lcms.append(li)
                continue
            if pos < last and cand[pos + 1][0] == li:
                continue
            li_high = li | low_gh
            for lj in kept_lcms:
                # pack.divides(lj, li) and lj != li, inlined
                if (((lj | gl) - li) & gl | (li_high - lj) & gh) == guard and lj != li:
                    break
            else:
                heappush(heap, (pack.degree(li) + max(excess[i], sugar - dh), li, t, i))
                kept_lcms.append(li)
        if dead:
            for i in dead:
                alive[i] = False
            live_vals[:] = [v for i, v in zip(live, live_vals) if alive[i]]
            live[:] = [i for i in live if alive[i]]
        reducers.append(h.terms)
        lts.append(mh)
        excess.append(sugar - dh)
        alive.append(True)
        live.append(t)
        live_vals.append(mh & values)
        stats["basis_additions"] += 1
        if hilbert is not None:
            hilbert.free.discard(mh)

    def superseded(i: int, j: int, l: int) -> bool:
        """The old-pair criterion on pair (i, j) (see the module docstring)."""
        li, lj, l_high = lts[i], lts[j], l | low_gh
        for lt in lts[j + 1 :]:
            # pack.divides(lt, l), inlined
            if (
                lt <= l
                and (((lt | gl) - l) & gl | (l_high - lt) & gh) == guard
                and lcm(lt, li) != l
                and lcm(lt, lj) != l
            ):
                return True
        return False

    in_flight = 0
    try:
        # seed with normalized inputs (monic, reduced against earlier ones); a
        # generator equal to an earlier one is skipped before its reduction
        seen = set()
        for g in gens:
            if g.is_zero() or g.terms in seen:
                continue
            seen.add(g.terms)
            red = _reduce_terms(dict(_integer_terms(g)[0]), find, ring)[0]
            if not red:
                continue
            h = MPoly(ring, _reducer_terms(red, ring))  # a multiple of the element
            add_poly(h, h.total_degree())

        while heap:
            budget.check("pairs")
            s, l, j, i = heappop(heap)
            if s > top:
                break
            if superseded(i, j, l):
                continue
            if hilbert is not None and hilbert.skips(s):
                stats["hilbert_skips"] += 1
                continue
            stats["pairs"] += 1
            in_flight = 1
            red = _reduce_terms(_spoly(reducers[i], reducers[j], l, pack), find, ring)[0]
            in_flight = 0
            if not red:
                stats["zero_reductions"] += 1
                continue
            h = MPoly(ring, _reducer_terms(red, ring))
            add_poly(h, max(s, h.total_degree()))

        survivors = tuple(t for t, live in zip(reducers, alive) if live)
        minimal = []
        for terms in survivors:
            budget.check("pairs")
            minimal.append(_monic(terms, ring))
    except GroebnerTimeout:
        stats["wall_ms"] = int((time.monotonic() - t0) * 1000)
        stats["pending_pairs"] = len(heap) + in_flight
        raise budget.expired("pairs", stats) from None
    stats["wall_ms"] = int((time.monotonic() - t0) * 1000)
    return GroebnerBasis(tuple(minimal), survivors, ring, stats)


def contains(gens, fs) -> bool:
    """Whether every f in ``fs`` lies in the ideal of ``gens``: by a loop
    stopped above the largest degree asked about when every generator and
    every f is homogeneous (see the module docstring), else by the full
    basis.  With no nonzero generator the ideal is zero, and holds no
    nonzero f."""
    gens, fs = [g for g in gens if g], [f for f in fs if f]
    if not fs or not gens:
        return not fs
    graded = all(g.is_homogeneous() for g in gens) and all(f.is_homogeneous() for f in fs)
    G = _buchberger(gens, max(f.total_degree() for f in fs) if graded else inf)
    return all(normal_form(f, G).is_zero() for f in fs)


def _interreduce(polys, ring):
    """Reduced form of a set of polynomials: monic, leading terms pairwise
    non-divisible, and no term divisible by another element's lead.

    One ascending pass: a tail term is smaller than its own lead, so only an
    element with a smaller lead can divide it, and those are already reduced.
    An element whose lead an earlier one divides is dropped.  Each element
    is reduced in its integer terms, and its remainder, whose lead is its
    own, becomes a basis element as in ``buchberger``.
    """
    polys = sorted((p for p in polys if p), key=lambda p: p.lead_key())
    out: list[MPoly] = []
    reducers: list[tuple] = []
    lts: list[int] = []
    find = _first_divisor(ring, reducers, lts, [True] * len(polys))
    for p in polys:
        if find(p.lead_key()) is None:
            terms = _reducer_terms(_reduce_terms(dict(_integer_terms(p)[0]), find, ring)[0], ring)
            out.append(_monic(terms, ring))
            reducers.append(terms)
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
    the leads disagree.  The search is exhaustive, so it refuses rings of
    more than 30 variables (PreconditionError), and it checks the open
    budget at each step (phase ``"independent set"``)."""
    n = len(G.ring.universe)
    if n > 30:
        raise PreconditionError("the independent-set search is capped at 30 variables")
    d = ideal_dimension(G).dim
    if d <= 0:
        return ()
    supports = [sum(1 << i for i, e in enumerate(exps) if e) for exps in G.lead_ideal]

    def extend(S: int, idx: int, size: int):
        budget.check("independent set", {"variable": idx, "size": size})
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
    """Coefficients of the numerator N(t) of HS_{R/in(I)} = N(t)/(1-t)^n,
    up to its last nonzero one: ``(0,)`` for the unit ideal.

    Bigatti's pivot recursion on the leading-term ideal, run once per basis:
    the result is cached on ``G``.  The leads of a minimal basis are minimal
    generators, and each split keeps them minimal (see ``num``), so no step
    re-minimalizes; every generator list is a sorted tuple of
    ``(degree, key)`` pairs (see the module docstring).
    The open budget is checked every 256 recursion steps, the first
    included; past it the recursion raises GroebnerTimeout (phase
    ``"hilbert"``) and caches nothing.
    """
    got = G._cache.get("hilbert_numerator")
    if got is not None:
        return got
    memo: dict = {}
    steps = 0
    n, w = len(G.ring.universe), _WIDTH
    # e_i sits in field n - 1 - i; adding fill sets a field's guard bit iff e_i > 0
    guard = sum(1 << w * i + w - 1 for i in range(n))
    fill = guard - (guard >> w - 1)

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
        if not ms[0][0]:
            return [0]  # the unit monomial
        got = memo.get(ms)
        if got is not None:
            return got
        supports = [(k + fill) & guard for _, k in ms]
        if all(not s & (s - 1) for s in supports):
            # pairwise coprime pure powers: product of (1 - t^deg)
            out = [1]
            for d, _ in ms:
                out = poly_add(out, [-x for x in out], shift=d)
            memo[ms] = out
            return out
        # pivot: the most frequent variable among non-simple generators, the
        # first one (highest field) on a tie
        counts: dict = {}
        for s in supports:
            if s & (s - 1):
                while s:
                    bit = s & -s
                    counts[bit] = counts.get(bit, 0) + 1
                    s ^= bit
        top = max(sorted(counts, reverse=True), key=counts.__getitem__)
        unit = top >> w - 1
        field = (unit << w) - unit
        # I + (x) is minimally x and the generators x does not divide (x is
        # not a generator: it would divide the one of support > 1 holding x).
        # I : x lowers the generators x divides; those stay pairwise
        # non-divisible, an untouched one divides none of them, and a lowered
        # one can only divide an untouched one if it lost its x.
        untouched = [m for m in ms if not m[1] & field]
        lowered = [(d - 1, k - unit) for d, k in ms if k & field]
        free = [k for _, k in lowered if not k & field]
        colon = lowered + [
            (d, k) for d, k in untouched if all(((k | guard) - f) & guard != guard for f in free)
        ]
        out = poly_add(num(tuple(sorted(untouched + [(1, unit)]))), num(tuple(sorted(colon))), 1)
        memo[ms] = out
        return out

    ms = sorted((sum(e), sum(x << w * (n - 1 - i) for i, x in enumerate(e))) for e in G.lead_ideal)
    coeffs = num(tuple(ms))
    size = max((i + 1 for i, c in enumerate(coeffs) if c), default=1)
    got = G._cache["hilbert_numerator"] = tuple(coeffs[:size])
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
    Rabinowitsch relation 1 - t*f.  The zero ideal is its own saturation,
    ``[ring.zero]``; an empty list names no ring and gives ``[]``.
    """
    if not any(gens):
        return [gens[0].ring.zero] if gens else []
    gens = [g for g in gens if g]
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


def radical_membership(f: MPoly, G: GroebnerBasis) -> bool:
    """Whether f lies in the radical of the ideal with Groebner basis G:
    first whether f, f^2 or f^4 lies in it, a sound shortcut; then the
    Rabinowitsch test, which asks whether 1 is in (G) + (1 - t*f)."""
    if f.ring is not G.ring:
        f = transport(f, G.ring)
    if f.is_zero():
        return True
    power = f
    for _ in range(3):
        if normal_form(power, G).is_zero():
            return True
        power = power * power
    return bool(G.minimal) and buchberger(_rabinowitsch(G.minimal, f)).is_unit_ideal()


def ideal_intersection(I, J):
    """Generators of the intersection, via t*I + (1-t)*J and elimination.

    A list with no nonzero generator is the zero ideal, so intersecting with
    it gives ``[ring.zero]``, and ``[]`` only when neither list holds a
    polynomial, whose ring it could name.
    """
    if not (any(I) and any(J)):
        return [(I or J)[0].ring.zero] if I or J else []
    I = [g for g in I if g]
    J = [g for g in J if g]
    ring = I[0].ring
    ext = _front_ring(ring)
    t = ext.gen(0)
    one_minus_t = ext.one - t
    moved = [t * transport(g, ext) for g in I]
    moved.extend(one_minus_t * transport(g, ext) for g in J)
    return _eliminate_t(moved, ring)
