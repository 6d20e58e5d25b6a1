"""Exact coefficient domains, sparse multivariate polynomials, monomial orders.

Polynomials are sparse distributed: a sorted tuple of (monomial, coefficient)
pairs with monomials packed into single integers so that comparing two packed
keys with ``<`` realizes the ring's monomial order.  Multiplication and
divisibility of monomials are a handful of integer operations on the keys.

Coefficients live in one of three exact domains: arbitrary-precision integers,
rationals (``fractions.Fraction``), or a prime field F_p with word-size p.
The arithmetic is written once for all three: over F_p it works on plain
integers and :meth:`PolyRing.from_terms`, which builds every result, is the
one place that reduces them mod p (a coefficient of an ``MPoly`` over F_p
always lies in 1..p-1).
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import accumulate, combinations
from operator import add, index, itemgetter, mul

from .errors import (
    CapacityError,
    DomainMismatchError,
    StructuralError,
)

_WIDTH = 16
_FIELD_CAP = (1 << (_WIDTH - 1)) - 1  # largest exponent; the field's top bit is a guard
_FIELD_MASK = (1 << _WIDTH) - 1
_DEG_BITS = 32
# Largest determinant or minor expanded.
SYMBOLIC_DET_BOUND = 8
# Most variables in a ring: its packed-key weights take about 2 n^2 bytes
# (a ring of 4,000 variables peaks at 35 MB, by tracemalloc).  The largest
# ring a case builds has 64.
MAX_VARS = 1024


def _is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for word-size inputs."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # this base set is deterministic for n < 3.3 * 10**24
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class CoeffDomain:
    """One of ZZ, QQ, or F_p.  Immutable; compared by value."""

    __slots__ = ("kind", "modulus")

    def __init__(self, kind: str, modulus: int | None = None):
        if kind not in ("int", "rat", "fp"):
            raise StructuralError(f"unknown coefficient domain kind {kind!r}")
        if kind == "fp":
            if not (isinstance(modulus, int) and modulus < 1 << 63 and _is_probable_prime(modulus)):
                raise StructuralError(f"modulus {modulus!r} is not a word-size prime")
        elif modulus is not None:
            raise StructuralError("modulus only makes sense for prime fields")
        self.kind = kind
        self.modulus = modulus

    @property
    def is_field(self) -> bool:
        return self.kind != "int"

    def coerce(self, c):
        """The canonical element of this domain equal to ``c``: an int, a
        Fraction or an integer that ``operator.index`` reads (a numpy
        integer, say); a Fraction enters F_p through the inverse of its
        denominator.  Anything else, a float or a string, is refused."""
        if self.kind == "fp":
            p = self.modulus
            # the exact-type test first: isinstance against Fraction goes
            # through ABCMeta.__instancecheck__, and nearly every c is an int
            if type(c) is int:
                return c % p
            if isinstance(c, Fraction):
                den = c.denominator % p
                if den == 0:
                    raise StructuralError(f"denominator of {c} vanishes mod {p}")
                return c.numerator % p * pow(den, p - 2, p) % p
            return _index(c) % p
        if self.kind == "rat":
            return Fraction(c if type(c) is int or isinstance(c, Fraction) else _index(c))
        if type(c) is int:
            return c
        if isinstance(c, Fraction):
            if c.denominator != 1:
                raise StructuralError(f"{c} is not an integer")
            return c.numerator
        return _index(c)

    def __eq__(self, other):
        return (
            isinstance(other, CoeffDomain)
            and self.kind == other.kind
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.kind, self.modulus))

    def __repr__(self):
        if self.kind == "fp":
            return f"F_{self.modulus}"
        return {"int": "ZZ", "rat": "QQ"}[self.kind]

    def tag(self) -> str:
        return f"fp:{self.modulus}" if self.kind == "fp" else self.kind


def _index(c) -> int:
    """``operator.index(c)``, refused as a ``StructuralError``."""
    try:
        return index(c)
    except TypeError:
        raise StructuralError(f"coefficient {c!r} is not an int or a Fraction") from None


ZZ = CoeffDomain("int")
QQ = CoeffDomain("rat")


def GF(p: int) -> CoeffDomain:
    return CoeffDomain("fp", p)


class MonomialOrder:
    """degrevlex, lex, or block(m): a lex block on the first m variables
    followed by degrevlex on the rest."""

    __slots__ = ("kind", "elim_count")

    def __init__(self, kind: str, elim_count: int = 0):
        if kind not in ("degrevlex", "lex", "block"):
            raise StructuralError(f"unknown monomial order {kind!r}")
        if kind == "block" and elim_count <= 0:
            raise StructuralError("block order needs a positive elim_count")
        self.kind = kind
        self.elim_count = elim_count if kind == "block" else 0

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.elim_count == other.elim_count
        )

    def __hash__(self):
        return hash((self.kind, self.elim_count))

    def __repr__(self):
        if self.kind == "block":
            return f"block({self.elim_count})"
        return self.kind

    def tag(self) -> str:
        return f"block:{self.elim_count}" if self.kind == "block" else self.kind


DEGREVLEX = MonomialOrder("degrevlex")
LEX = MonomialOrder("lex")


def block_order(elim_count: int) -> MonomialOrder:
    return MonomialOrder("block", elim_count)


def _refuse_var_count(count: int):
    if count > MAX_VARS:
        raise CapacityError(
            f"{count} variables exceed bound {MAX_VARS}: a ring's packed keys take "
            "about 2 n^2 bytes"
        )


class VarUniverse:
    """A fixed, ordered list of variable names; two universes with the same
    names are equal.  ``matrix(k, n)`` names x_<i>_<j> in row-major order
    (1-based), and a ring finds a matrix variable by that name."""

    __slots__ = ("names", "index")

    def __init__(self, names):
        names = list(names)
        _refuse_var_count(len(names))
        if len(set(names)) != len(names):
            raise StructuralError("duplicate variable names")
        for nm in names:
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", nm):
                raise StructuralError(f"bad variable name {nm!r}")
        self.names = tuple(names)
        self.index = {nm: i for i, nm in enumerate(names)}

    @staticmethod
    def matrix(k: int, n: int) -> "VarUniverse":
        _refuse_var_count(max(k, 0) * max(n, 0))
        return VarUniverse(f"x_{i}_{j}" for i in range(1, k + 1) for j in range(1, n + 1))

    @staticmethod
    def free(names) -> "VarUniverse":
        return VarUniverse(names)

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, VarUniverse) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VarUniverse({len(self.names)} vars)"


class _Pack:
    """Packs exponent vectors into order-comparable integers.

    From the low bits up, a key holds one field ``cap - e`` per degrevlex
    variable (the first variable lowest), the degree of those variables, and
    one raw field ``e`` per lex variable (the first variable highest).  For
    every supported order the packed keys satisfy: key(a) < key(b) iff a < b
    in the monomial order, key(a*b) = key(a) + key(b) - offset, and
    divisibility is a masked subtraction.  The top bit of each field is a
    guard bit: clear in every valid key, set in a product key iff an exponent
    passed the cap.  Two constants give a key's zero-exponent mask: the value
    bits of all fields and an add constant, 1 in each complement field and
    cap in each raw field (see ``zeros``).
    """

    def __init__(self, nvars: int, order: MonomialOrder):
        self.n = nvars
        w = _WIDTH
        # low part: degrevlex on variables m..n-1 (complement fields, deg on top)
        # high part (block/lex only): raw lex fields for variables 0..m-1, all
        # of them in lex, none in degrevlex (elim_count 0); a block covering
        # every variable is lex
        m = nvars if order.kind == "lex" else min(order.elim_count, nvars)
        tail = nvars - m
        self.graded = tail == nvars  # the degree field decides first
        self._tail = tail
        self._deg_shift = w * tail
        self._low_bits = tail * w + (_DEG_BITS if tail else 0)
        self._low_mask = (1 << self._low_bits) - 1
        self.offset = sum(_FIELD_CAP << (w * i) for i in range(tail))
        self._guard_low = sum(1 << (w * i + w - 1) for i in range(tail))
        self._guard_high = sum(1 << (self._low_bits + w * i + w - 1) for i in range(m))
        self.guard = self._guard_low | self._guard_high
        # lcm: the value bits of the complement fields and of all fields, and
        # the constants that sum the complement fields two to a 32-bit lane
        self._low_values = self._guard_low - (self._guard_low >> (w - 1))
        self._values = self.guard - (self.guard >> (w - 1))
        lanes = max(1, (tail + 1) // 2)
        self._lane_ones = sum(1 << (2 * w * i) for i in range(lanes))
        self._lane_even = self._lane_ones * _FIELD_MASK
        self._top_lane = 2 * w * (lanes - 1)
        self._cap_sum = tail * _FIELD_CAP
        # zeros: +1 carries a complement field, +cap a raw one, to its guard
        self._zero_add = sum(1 << (w * i) for i in range(tail)) + sum(
            _FIELD_CAP << (self._low_bits + w * i) for i in range(m)
        )
        # pack(e) = offset + sum(e_i * weight_i): a lex variable adds to its
        # field, a degrevlex one to the degree and minus to its field
        self._weights = tuple(1 << (self._low_bits + w * (m - 1 - i)) for i in range(m)) + tuple(
            (1 << self._deg_shift) - (1 << (w * t)) for t in range(tail)
        )
        # fields[i]: (shift, top, weight) of variable i, whose exponent is
        # abs(top - (key >> shift & _FIELD_MASK)): top is 0 for a raw (lex)
        # field and cap for a complement (degrevlex) one; key - weight
        # divides the monomial by the variable
        shifts = [self._low_bits + w * (m - 1 - i) for i in range(m)] + [w * t for t in range(tail)]
        self.fields = tuple(zip(shifts, [0] * m + [_FIELD_CAP] * tail, self._weights))
        self.one = self.offset  # key of the monomial 1

    def pack(self, exps) -> int:
        if len(exps) != self.n:
            raise StructuralError("exponent vector has wrong length")
        if exps and not 0 <= min(exps) <= max(exps) <= _FIELD_CAP:
            bad = next(e for e in exps if not 0 <= e <= _FIELD_CAP)
            raise CapacityError(f"exponent {bad} out of range")
        return self.offset + sum(map(mul, exps, self._weights))

    def unpack(self, key: int):
        return tuple([abs(top - (key >> shift & _FIELD_MASK)) for shift, top, _ in self.fields])

    def spell(self, key: int) -> tuple:
        """The monomial's variables in increasing order, each repeated by its
        exponent.  Only the fields whose guard bit ``zeros`` leaves clear are
        read: the lex fields from the top (variable 0 is highest), then the
        complement fields from the bottom."""
        w, out = _WIDTH, []
        nonzero = self.zeros(key) ^ self.guard
        high = nonzero >> self._low_bits
        last = self.n - self._tail - 1
        while high:
            top = high.bit_length() - w
            high &= (1 << top) - 1
            out += [last - top // w] * ((key >> (self._low_bits + top)) & _FIELD_MASK)
        low = nonzero & self._guard_low
        while low:
            bit = low & -low
            low ^= bit
            field = bit.bit_length() - w
            out += [last + 1 + field // w] * (_FIELD_CAP - ((key >> field) & _FIELD_MASK))
        return tuple(out)

    def quotient(self, kb: int, ka: int) -> int:
        """Key of b/a; caller guarantees divisibility."""
        return kb - ka + self.offset

    def divides(self, ka: int, kb: int) -> bool:
        """a | b: with every guard bit set in the minuend, the fieldwise
        differences b - a (low part: (cap-a) - (cap-b)) keep all of them.
        A borrow only runs upwards, and filling the low part of kb with ones
        keeps it out of the high part."""
        gl, gh = self._guard_low, self._guard_high
        low = ((ka | gl) - kb) & gl
        return (low | ((kb | self._low_mask | gh) - ka) & gh) == self.guard

    def lcm(self, ka: int, kb: int) -> int:
        """Key of lcm(a, b): ``lcms`` of one key."""
        return self.lcms(ka, (kb & self._values,))[0]

    def lcms(self, ka: int, masked) -> list:
        """Keys of lcm(a, b) for each b of ``masked``, keys with their degree
        field masked off (``key & _values``), all fields at once.

        With every guard bit set in the minuend, field f of
        ``(a | guard) - b`` is ``a_f + 2^15 - b_f``, which lies in
        1 .. 2^16 - 1: no borrow leaves the field, and its guard bit stays
        set iff a_f >= b_f.  Spreading that bit over the field's value bits
        selects the larger raw (lex) field and the smaller complement
        (degrevlex) field, ``cap - e``, which is the larger exponent.
        Fieldwise maxima of valid keys stay at or below the cap, so the
        result has every guard bit clear.  The degree field is then
        ``tail*cap`` minus the complement fields' sum, 0 in lex, which has no
        such field.  That sum adds the fields two to a 32-bit lane and folds
        the lanes with one multiply:
        the top lane of the product holds the full sum, and every lane a
        partial sum, at most ``n*cap``.  That fits the 32-bit degree field,
        as every key's degree must (n*cap < 2^32 for n up to 131,076), so no
        lane carries into the next.
        """
        g, lv, w = self.guard, self._low_values, _WIDTH
        a = ka & self._values
        ag = a | g
        even, ones, top = self._lane_even, self._lane_ones, self._top_lane
        cap, shift, lane = self._cap_sum, self._deg_shift, 0xFFFFFFFF
        return [
            (key := b ^ (a ^ b) & ((d := (ag - b) & g) - (d >> w - 1) ^ lv))
            | cap - ((((lo := key & lv) & even) + (lo >> w & even)) * ones >> top & lane) << shift
            for b in masked
        ]

    def zeros(self, key: int) -> int:
        """The guard bits of the fields whose exponent is 0.

        Adding 1 to a complement (degrevlex) field ``cap - e`` carries into
        its guard bit iff e = 0; adding cap to a raw (lex) field ``e``
        carries iff e >= 1, so the raw fields' guard bits are flipped.  The
        fields of a valid key are at most cap, so no carry leaves its field,
        and the degree field is masked off.  So a | b needs
        ``zeros(b) & ~zeros(a) & guard == 0``: a support test that rejects
        many non-divisors with one AND.
        """
        return ((key & self._values) + self._zero_add) & self.guard ^ self._guard_high

    def degree(self, key: int) -> int:
        """Total degree: the degree field plus the lex fields."""
        d = (key & self._low_mask) >> self._deg_shift
        high = key >> self._low_bits
        while high:
            d += high & _FIELD_MASK
            high >>= _WIDTH
        return d

    def front_free(self, key: int) -> bool:
        """True if the monomial avoids the first elim_count variables."""
        return key >> self._low_bits == 0


class PolyRing:
    """Bundle of universe + coefficient domain + monomial order."""

    _cache: dict = {}

    def __new__(cls, universe, domain, order=DEGREVLEX):
        sig = (universe, domain, order)
        ring = cls._cache.get(sig)
        if ring is not None:
            return ring
        ring = object.__new__(cls)
        ring.universe = universe
        ring.domain = domain
        ring.order = order
        ring.pack = _Pack(len(universe), order)
        ring.zero = MPoly(ring, ())
        ring.one = MPoly(ring, ((ring.pack.one, domain.coerce(1)),))
        cls._cache[sig] = ring
        return ring

    def gen(self, i) -> "MPoly":
        if isinstance(i, str):
            if i not in self.universe.index:
                raise StructuralError(f"no variable {i!r} in this ring")
            i = self.universe.index[i]
        exps = [0] * len(self.universe)
        exps[i] = 1
        return MPoly(self, ((self.pack.pack(exps), self.domain.coerce(1)),))

    def gens(self):
        return [self.gen(i) for i in range(len(self.universe))]

    def var(self, i: int, j: int) -> "MPoly":
        """The matrix variable x_i_j (1-based position)."""
        return self.gen(f"x_{i}_{j}")

    def const(self, c) -> "MPoly":
        c = self.domain.coerce(c)
        if c == 0:
            return self.zero
        return MPoly(self, ((self.pack.one, c),))

    def from_terms(self, mapping) -> "MPoly":
        """Build from {packed key: coeff}, dropping zeros and sorting.

        Over F_p the coefficients may be any integers: each is reduced mod p
        here, and a term whose residue is zero is dropped.  Every polynomial
        arithmetic result goes through this method, so it is the only place
        that puts F_p coefficients into canonical form.
        """
        if self.domain.kind == "fp":
            p = self.domain.modulus
            items = [(k, r) for k, c in mapping.items() if (r := c % p)]
        else:
            items = [(k, c) for k, c in mapping.items() if c != 0]
        items.sort(key=lambda t: t[0], reverse=True)
        return MPoly(self, tuple(items))

    def from_exp_dict(self, mapping) -> "MPoly":
        pk = self.pack.pack
        coerce = self.domain.coerce
        return self.from_terms({pk(exps): coerce(c) for exps, c in mapping.items()})

    def with_domain(self, domain: CoeffDomain) -> "PolyRing":
        return PolyRing(self.universe, domain, self.order)

    def __repr__(self):
        return f"PolyRing({self.domain!r}, {len(self.universe)} vars, {self.order!r})"


class MPoly:
    """Immutable sparse polynomial; terms sorted descending in the order."""

    # _program: the Horner program walked by evaluate() and substitute(),
    # compiled by the first call of either
    __slots__ = ("ring", "terms", "_program")

    def __init__(self, ring: PolyRing, terms: tuple):
        self.ring = ring
        self.terms = terms  # tuple of (packed key, nonzero coeff), descending

    # -- basic queries -------------------------------------------------

    @property
    def universe(self):
        return self.ring.universe

    @property
    def order(self):
        return self.ring.order

    @property
    def domain(self):
        return self.ring.domain

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def lead_key(self) -> int:
        if not self.terms:
            raise StructuralError("zero polynomial has no leading term")
        return self.terms[0][0]

    def lead_monomial(self) -> tuple:
        return self.ring.pack.unpack(self.terms[0][0])

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        pack = self.ring.pack
        if pack.graded:  # the leading term has the largest degree
            return pack.degree(self.terms[0][0])
        return max(pack.degree(k) for k, _ in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        deg = self.ring.pack.degree
        degs = {deg(k) for k, _ in self.terms}
        return len(degs) == 1

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0] == self.ring.pack.one)

    # -- arithmetic ----------------------------------------------------

    def _check_ring(self, other: "MPoly"):
        # rings are interned: equal universe, domain and order give one object
        if self.ring is not other.ring:
            raise DomainMismatchError(
                f"operands in different rings: {self.ring!r} vs {other.ring!r}"
            )

    def _coerce(self, other):
        if isinstance(other, MPoly):
            self._check_ring(other)
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc = dict(self.terms)
        for k, c in other.terms:
            acc[k] = acc.get(k, 0) + c
        return self.ring.from_terms(acc)

    __radd__ = __add__

    def __neg__(self):
        return self.ring.from_terms({k: -c for k, c in self.terms})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc = dict(self.terms)
        for k, c in other.terms:
            acc[k] = acc.get(k, 0) - c
        return self.ring.from_terms(acc)

    def __rsub__(self, other):
        other = self._coerce(other)
        return other if other is NotImplemented else other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return self.ring.zero
        if len(a) < len(b):
            a, b = b, a
        pack = self.ring.pack
        off = pack.offset
        acc = {}
        for kb, cb in b:
            shift = kb - off
            for ka, ca in a:
                k = ka + shift
                acc[k] = acc.get(k, 0) + ca * cb
        # the degrees bound every exponent; past the cap, an exponent that
        # overflowed left its field's guard bit set in some product key
        if self.total_degree() + other.total_degree() > _FIELD_CAP and any(
            k & pack.guard for k in acc
        ):
            raise CapacityError(f"product has an exponent above {_FIELD_CAP}")
        return self.ring.from_terms(acc)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise StructuralError("negative power of a polynomial")
        result = self.ring.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.ring is other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.ring), self.terms))

    # -- calculus and substitution --------------------------------------

    def diff(self, var) -> "MPoly":
        """Formal partial derivative with respect to a variable (index or
        name), on the packed keys: each term reads its exponent e off the
        variable's field and, if e > 0, takes e times its coefficient to the
        key less the variable's pack weight."""
        if isinstance(var, str):
            var = self.universe.index[var]
        if not 0 <= var < len(self.universe):
            raise StructuralError(f"variable index {var} out of range")
        shift, top, weight = self.ring.pack.fields[var]
        return self.ring.from_terms(
            {k - weight: c * e for k, c in self.terms if (e := abs(top - (k >> shift & _FIELD_MASK)))}
        )

    def substitute(self, mapping, target: PolyRing | None = None) -> "MPoly":
        """Substitute variables by polynomials.

        ``mapping`` sends variable indices or names to MPoly (or scalars) in
        ``target`` (defaults to this ring).  Unmapped variables must exist by
        name in the target universe.  This is evaluation at one point whose
        coordinates are the images: it walks the Horner program of
        :meth:`_compile`, as :meth:`evaluate` does, with the sums and
        products taken in ``target``.
        """
        ring = target or self.ring
        subs = {}
        for key, img in mapping.items():
            idx = self.universe.index[key] if isinstance(key, str) else key
            if not isinstance(img, MPoly):
                img = ring.const(img)
            elif img.ring is not ring:
                raise DomainMismatchError("substitution images must share one ring")
            subs[idx] = img
        images = []
        for i in self._compile()[0]:
            if i not in subs:
                name = self.universe.names[i]
                if name not in ring.universe.index:
                    raise StructuralError(f"variable {name} has no image")
                subs[i] = ring.gen(name)
            images.append(subs[i])
        return self._horner(images, ring.const)

    def evaluate(self, points) -> list:
        """Exact values at a batch of full points (a list of points, each a
        list of scalars), one per point, in batch order.

        The points are held as lanes (``_Lanes``), one per variable that
        occurs, with one entry per point, each coordinate coerced once; the
        Horner program of :meth:`_compile` is walked with a sum or a product
        being one ``map`` over the lanes.  The sums are taken over the
        integers (or rationals) and coerced into the domain once, at the end.
        """
        n = len(self.universe)
        for point in points:
            try:
                size = len(point)
            except TypeError:
                raise StructuralError(
                    f"evaluate takes a batch of points, not the scalar {point!r}"
                ) from None
            if size != n:
                raise StructuralError(f"point has length {size}, expected {n}")
        coerce = self.ring.domain.coerce
        lanes = [_Lanes(map(coerce, map(itemgetter(i), points))) for i in self._compile()[0]]
        total = self._horner(lanes, lambda c: _Lanes([c] * len(points)))
        return list(map(coerce, total))

    def _horner(self, factors, const):
        """The polynomial's value, walking the nodes of :meth:`_compile` in
        order: a node's value is ``const`` of its coefficient plus, over its
        edges, the product of the edge's factor (from ``factors``, one per
        variable that occurs) and the child's value."""
        values = []
        for c, edges in self._compile()[1]:
            value = const(c) if c or not edges else None
            for lane, child in edges:
                term = factors[lane] if child is None else factors[lane] * values[child]
                value = term if value is None else value + term
            values.append(value)
        return values[-1]

    def _compile(self):
        """``(variables, nodes)``, computed on the first call and kept in
        ``_program``: the variables that occur, and a multivariate Horner
        scheme with shared subtrees.  A term is spelled as its sequence of
        variables, one per unit of exponent, in increasing order; the
        spellings form a trie whose edges are variables (given as positions
        in ``variables``) and whose nodes carry the coefficient of the term
        that ends there, or 0.  Identical subtrees are one node ``(coeff,
        ((lane, child), ...))``, numbered children first, so the root comes
        last.  A leaf of coefficient 1 is not a node: its edge's child is
        None, and the parent takes the factor alone.  On the n x n generic
        permanent this gives one node per set of columns left, and
        n*2^(n-1) edges.  The polynomial is immutable, so every later call
        reuses the program."""
        try:
            return self._program
        except AttributeError:
            pass
        spell = self.ring.pack.spell
        spelled = sorted((spell(k), c) for k, c in self.terms)
        variables = sorted({i for factors, _ in spelled for i in factors})
        lane = {v: j for j, v in enumerate(variables)}
        nodes, ids = [], {}
        # stack[d]: the open node at depth d of the current term's path, as
        # [coeff, edges, lane of the edge into it]
        stack = [[0, [], None]]

        def close_below(depth):
            # each open node deeper than depth becomes an edge of its parent
            while len(stack) > depth + 1:
                c, edges, j = stack.pop()
                key = (c, tuple(edges))
                if key == (1, ()):
                    node = None
                elif (node := ids.get(key)) is None:
                    node = ids[key] = len(nodes)
                    nodes.append(key)
                stack[-1][1].append((j, node))

        before = ()
        for factors, c in spelled:
            shared = 0
            for a, b in zip(factors, before):
                if a != b:
                    break
                shared += 1
            close_below(shared)
            stack.extend([0, [], lane[i]] for i in factors[shared:])
            stack[-1][0] = c
            before = factors
        close_below(0)
        c, edges, _ = stack[0]
        nodes.append((c, tuple(edges)))  # the root, even when it is 1
        self._program = variables, tuple(nodes)
        return self._program

    def max_coeff_bits(self) -> int:
        """Telemetry: largest numerator/denominator bit length."""
        best = 0
        for _, c in self.terms:
            if isinstance(c, Fraction):
                best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
            else:
                best = max(best, abs(int(c)).bit_length())
        return best

    # -- text form ---------------------------------------------------

    def text(self) -> str:
        """Canonical text form, e.g. ``3*x_1_2^2*x_2_1 - 7``."""
        if not self.terms:
            return "0"
        names = self.universe.names
        unpack = self.ring.pack.unpack
        chunks = []
        for pos, (k, c) in enumerate(self.terms):
            neg = c < 0
            mag = -c if neg else c
            factors = [
                (names[i] if e == 1 else f"{names[i]}^{e}")
                for i, e in enumerate(unpack(k))
                if e
            ]
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            if pos == 0:
                chunks.append(("-" if neg else "") + body)
            else:
                chunks.append((" - " if neg else " + ") + body)
        return "".join(chunks)

    def __repr__(self):
        return f"<MPoly {self.text()}>"


_TERM_SPLIT = re.compile(r"(?=[+-])")
_NUM_RE = re.compile(r"-?\d+(?:/\d+)?$")


def poly_from_text(text: str, ring: PolyRing) -> MPoly:
    """Parse the canonical text form back into a polynomial."""
    s = text.replace(" ", "")
    if not s:
        raise StructuralError("empty polynomial text")
    if s == "0":
        return ring.zero
    acc: dict = {}
    pack = ring.pack
    n = len(ring.universe)
    for chunk in _TERM_SPLIT.split(s):
        if not chunk or chunk in "+-":
            if chunk:
                raise StructuralError(f"dangling sign in {text!r}")
            continue
        sign = 1
        if chunk[0] == "+":
            chunk = chunk[1:]
        elif chunk[0] == "-":
            sign = -1
            chunk = chunk[1:]
        coeff = Fraction(1)
        exps = [0] * n
        for factor in chunk.split("*"):
            if not factor:
                raise StructuralError(f"empty factor in {text!r}")
            if _NUM_RE.fullmatch(factor):
                den = factor.partition("/")[2]
                if den and int(den) == 0:
                    raise StructuralError(f"zero denominator in {text!r}")
                coeff *= Fraction(factor)
                continue
            if "^" in factor:
                name, _, es = factor.partition("^")
                if not es.isdecimal():
                    raise StructuralError(f"bad exponent {es!r} in {text!r}")
                e = int(es)
            else:
                name, e = factor, 1
            if name not in ring.universe.index:
                raise StructuralError(f"unknown variable {name!r} in {text!r}")
            exps[ring.universe.index[name]] += e
        key = pack.pack(exps)
        acc[key] = acc.get(key, 0) + ring.domain.coerce(coeff * sign)
    return ring.from_terms(acc)


# ---------------------------------------------------------------------------
# matrices of polynomials


class PolyMatrix:
    """Rectangular matrix of MPoly entries sharing one ring."""

    __slots__ = ("ring", "rows", "dims")

    def __init__(self, rows):
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise StructuralError("empty matrix")
        width = len(rows[0])
        ring = None
        for r in rows:
            if len(r) != width:
                raise StructuralError("ragged matrix")
            for x in r:
                if not isinstance(x, MPoly):
                    raise StructuralError("PolyMatrix entries must be MPoly")
                if ring is None:
                    ring = x.ring
                elif x.ring is not ring:
                    raise DomainMismatchError("matrix entries in different rings")
        self.ring = ring
        self.rows = rows
        self.dims = (len(rows), width)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __repr__(self):
        m, n = self.dims
        return f"<PolyMatrix {m}x{n} over {self.ring!r}>"


class _Lanes(list):
    """A value at each point of a batch, multiplied and added lanewise and
    zero when every lane is: ``MPoly.evaluate``'s values, and ``_expand``'s
    entries over a batch.  ``__add__`` takes any iterable of the lanes'
    length, so ``_expand`` adds a product ``map(mul, val, x)`` in the same
    pass that takes it."""

    __slots__ = ()

    def __mul__(self, other):
        return _Lanes(map(mul, self, other))

    def __add__(self, other):
        return _Lanes(map(add, self, other))

    def __bool__(self):
        return any(self)


def _add_number(placed: dict, k: int, val, x):
    placed[k] = placed.get(k, 0) + val * x


def _add_lanes(placed: dict, k: int, val, x):
    old = placed.get(k)
    placed[k] = _Lanes(map(mul, val, x)) if old is None else old + map(mul, val, x)


def _add_terms(placed: dict, k: int, val: dict, x: tuple):
    acc = placed.get(k)
    if acc is None:
        acc = placed[k] = {}
    get = acc.get
    for kx, cx in x:
        for kv, cv in val.items():
            kv += kx
            acc[kv] = get(kv, 0) + cv * cx


def _expand(rows, signed: bool, h: int | None = None) -> dict:
    """Every nonzero permanent (``signed=False``) or determinant
    (``signed=True``) of the h x h submatrices of ``rows`` (h defaults to
    ``len(rows)``), as {``_subset_key(R, C, m, n)``: value} over row sets R
    and column sets C (bitmasks); with every row placed (h = m) the key is
    C.  Entries are int, Fraction or MPoly, or ``_Lanes``: an entry's value
    at each point of a batch.

    One forward pass over the rows.  A state is a set R of the rows seen so
    far and a set C of as many columns, mapped to the sum over placements of
    R in C; each row is placed in a free column or skipped, so every row
    subset shares the states of its prefixes.  Placing a row in column j
    after the columns in C adds popcount(C >> (j + 1)) inversions, which
    gives the determinant's sign.  A state is keyed by C and the rows it
    skipped, and at most m - h rows are skipped, so none is built that
    cannot collect h rows.  A placement adds the state's value times the
    entry into its target's value in place, by the one step the entries'
    type picks: a number, a lane-wise multiply-add, or, for polynomials, a
    {key: coeff} dict of terms, into which each term of the entry (its key
    less the pack offset) adds its products with the state's terms.  Each
    returned polynomial is built by one ``from_terms``.  A state whose sum
    is zero is skipped and left out of the result; one whose terms cancel
    (exactly or only mod p) is carried to the end, where its products
    cancel too, with the same result.  Where the entries' degrees could
    sum past the exponent cap, every row's product keys are checked for a
    guard bit, which raises ``MPoly.__mul__``'s ``CapacityError``, and the
    cancelled terms are dropped before the next row, so that an overflow
    raises exactly where polynomial arithmetic would.
    """
    m, n = len(rows), len(rows[0]) if rows else 0
    h = m if h is None else h
    cols = (1 << n) - 1
    first = next((x for row in rows for x in row if x), 0)
    if isinstance(first, MPoly):
        ring = first.ring
        off = ring.pack.offset
        start, step, finish = {off: 1}, _add_terms, ring.from_terms

        def prep(x):
            return tuple((k - off, c) for k, c in x.terms)

        # over[r]: the degrees of the rows up to r + 1 (the last row at the
        # end) may sum past the cap
        bound = list(accumulate(max((x.total_degree() for x in row if x), default=0) for row in rows))
        over = [d > _FIELD_CAP for d in bound[1:] + bound[-1:]]
    else:
        start = _Lanes([1] * len(first)) if isinstance(first, _Lanes) else 1
        step = _add_lanes if isinstance(first, _Lanes) else _add_number
        prep = finish = lambda x: x
        over = [False] * m
    # layers[s]: the states that skipped s rows, keyed by C | skipped << n
    layers = [{0: start}]
    for r, row in enumerate(rows):
        entries = [(j, 1 << j, prep(x), signed and prep(-x)) for j, x in enumerate(row) if x]
        # descending, so layer s + 1 already holds its placements when the
        # states of layer s that skip row r join it
        for s in range(len(layers) - 1, -1, -1):
            states, placed = layers[s], {}
            if r - s < h:
                for key, val in states.items():
                    if not val:
                        continue
                    for j, bit, x, neg in entries:
                        if not key & bit:
                            odd = signed and ((key & cols) >> (j + 1)).bit_count() & 1
                            step(placed, key | bit, val, neg if odd else x)
            layers[s] = placed
            if s < m - h:
                if s + 1 == len(layers):
                    layers.append({})
                skip = 1 << (n + r)
                layers[s + 1].update((key | skip, val) for key, val in states.items() if val)
        if over[r]:
            _reduce_states(layers, ring)
    done = ((key, finish(val)) for key, val in layers[-1].items())
    return {key: val for key, val in done if val}


def _reduce_states(layers, ring):
    """Raise ``MPoly.__mul__``'s ``CapacityError`` if a key of a state has a
    guard bit set, and make each state's terms the canonical ones."""
    guard = ring.pack.guard
    for layer in layers:
        for key, acc in layer.items():
            if any(k & guard for k in acc):
                raise CapacityError(f"product has an exponent above {_FIELD_CAP}")
            layer[key] = dict(ring.from_terms(acc).terms)


def _subset_key(R: int, C: int, m: int, n: int) -> int:
    """The key of row set R and column set C in an expansion of an m x n
    matrix: C, and above it the rows R skips."""
    return C | (((1 << m) - 1) ^ R) << n


def matrix_det(M: PolyMatrix) -> MPoly:
    """Exact determinant, read off the signed column-subset expansion of the
    rows, up to size SYMBOLIC_DET_BOUND."""
    m, n = M.dims
    if m != n:
        raise StructuralError(f"determinant of a {m}x{n} matrix")
    return matrix_minors(n, M)[0]


def matrix_minors(h: int, M: PolyMatrix):
    """All h x h minors, column subsets outermost, both subsets in
    lexicographic order, read off one signed expansion of every h-row subset
    against every h-column subset."""
    m, n = M.dims
    if not 1 <= h <= min(m, n):
        raise StructuralError(f"{h}x{h} minors of a {m}x{n} matrix")
    if h > SYMBOLIC_DET_BOUND:
        raise CapacityError(f"symbolic determinant of size {h} exceeds bound {SYMBOLIC_DET_BOUND}")
    dets = _expand(M.rows, signed=True, h=h)
    return _read(dets, m, n, combinations(range(m), h), combinations(range(n), h), M.ring.zero)


def _read(values: dict, m: int, n: int, row_sets, col_sets, zero) -> list:
    """The values of an expansion of an m x n matrix (``_expand``) at every
    pair of a row set in ``row_sets`` and a column set in ``col_sets``, both
    given as index tuples, column sets outermost; ``zero`` where the
    expansion holds no value."""
    skips = [_subset_key(_bits(R), 0, m, n) for R in row_sets]
    return [values.get(C | s, zero) for C in map(_bits, col_sets) for s in skips]


def _bits(subset) -> int:
    """The bitmask of a set of indices."""
    return sum(1 << i for i in subset)
