"""Named, seeded reproduction cases certifying the computational claims.

Each case in the checked-in registry (cases.json) pins its parameters and
expected values; ``reproduce`` runs it deterministically and emits a
CaseReport.  Integer invariants derived over a prime field are recomputed
over the second configured prime, and any disagreement fails the case.
"""

from __future__ import annotations

import json
import random
import sys
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache, reduce
from importlib import resources
from itertools import combinations, combinations_with_replacement
from math import comb, prod

from . import __version__, linalg
from .budget import Budget, check
from .config import CliConfig
from .errors import (
    CapacityError,
    GroebnerTimeout,
    InternalConsistencyError,
    PreconditionError,
    StructuralError,
)
from .groebner import (
    buchberger,
    hilbert_degree,
    ideal_dimension,
    ideal_intersection,
    normal_form,
    over_prime,
    radical_membership,
    saturate,
    transport,
)
from .permanent import (
    GenericMatrixSpec,
    circulant_hankel_matrix,
    derivative_matrices,
    derivative_matrix_symbolic,
    generic_matrix,
    hankel_matrix_2xn,
    kirkup_matrix,
    matrix_permanents,
    perm_numeric,
    perm_symbolic,
    permanental_ideal,
    prk,
)
from .ring import (
    GF,
    QQ,
    ZZ,
    PolyMatrix,
    PolyRing,
    VarUniverse,
    _expand,
    _read,
    matrix_det,
    matrix_minors,
)
from .torus import (
    border_pattern_matrix,
    classify_type,
    kernel_extension_check,
)


@dataclass(frozen=True)
class CaseSpec:
    id: str
    claim: str
    tier: str
    provenance: str
    params: dict
    expected: dict
    timeout_s: float


@dataclass
class CaseReport:
    id: str
    passed: bool
    measured: dict
    expected: dict
    wall_ms: int
    prime_agreement: bool
    seed: int
    primes: tuple
    environment: dict = field(default_factory=dict)
    status: str = "done"  # done | failed-timeout | failed-error
    partial_stats: dict = field(default_factory=dict)  # a timeout's work counts

    def canonical_dict(self) -> dict:
        """Deterministic content: no wall time, host info or timeout counts."""
        return {
            "id": self.id,
            "passed": self.passed,
            "measured": self.measured,
            "expected": self.expected,
            "prime_agreement": self.prime_agreement,
            "seed": self.seed,
            "primes": list(self.primes),
            "status": self.status,
        }

    def to_json(self) -> dict:
        out = self.canonical_dict()
        out["wall_ms"] = self.wall_ms
        out["environment"] = self.environment
        if self.partial_stats:
            out["partial_stats"] = self.partial_stats
        return out


def _environment() -> dict:
    return {
        "python": ".".join(map(str, sys.version_info[:3])),
        "platform": sys.platform,
        "package": __version__,
    }


@cache
def registry() -> dict:
    """The cases of cases.json keyed by id, read once; a repeated id is refused."""
    data = json.loads(resources.files("permvar").joinpath("cases.json").read_text())
    specs = [CaseSpec(**d) for d in data]
    if len({s.id for s in specs}) != len(specs):
        raise StructuralError("duplicate case ids in registry")
    return {s.id: s for s in specs}


def case_ids():
    return sorted(registry())


def append_report(report: CaseReport, path: str):
    with open(path, "a") as fh:
        fh.write(json.dumps(report.to_json(), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# slice construction


def build_slice(kind: str, param: int | None = None) -> PolyMatrix:
    """The special matrices used as linear slices of permanental varieties;
    ``param`` is n for hankel2xn and k for circulant2xn, and the fixed
    circulant3 and circulant4 refuse one."""
    if kind in ("circulant3", "circulant4") and param is not None:
        raise StructuralError(f"{kind} is a fixed matrix; it takes no parameter")
    if kind == "hankel2xn":
        if param is None:
            raise StructuralError("hankel2xn needs n")
        return hankel_matrix_2xn(param)
    if kind == "circulant3":
        return circulant_hankel_matrix(3, 4, 5)
    if kind == "circulant4":
        return circulant_hankel_matrix(4, 5, 5)
    if kind == "circulant2xn":
        if param is None:
            raise StructuralError("circulant2xn needs k")
        return circulant_hankel_matrix(param, param + 1, param + 1)
    raise StructuralError(f"unknown slice kind {kind!r}")


def slice_codim_bound(I_gens, slice_map, target: PolyRing) -> int:
    """Lower bound for the codimension of V(I) from a linear slice.

    Substitutes the slice into the generators, computes the height of the
    sliced ideal, and returns it: cutting an affine cone by a linear space
    can only drop the codimension.
    """
    sliced = [g.substitute(slice_map, target=target) for g in I_gens]
    sliced = [g for g in sliced if g]
    return ideal_dimension(buchberger(sliced)).codim


def slice_height(M_slice: PolyMatrix, p: int) -> int:
    """Height over F_p of the k x k permanents of the generic k x n matrix
    cut by the k x n slice ``M_slice``: a lower bound for the codimension of
    their locus."""
    k, n = M_slice.dims
    target = PolyRing(M_slice.ring.universe, GF(p))
    gens = permanental_ideal(GenericMatrixSpec(k, n), GF(p))
    slice_map = {
        f"x_{i + 1}_{j + 1}": transport(M_slice[i, j], target) for i in range(k) for j in range(n)
    }
    return slice_codim_bound(gens, slice_map, target)


# ---------------------------------------------------------------------------
# census of the 2 x n component structure


def _component_ideals_2xn(n: int, ring: PolyRing):
    """Row spaces and quadric components of the rank-style description."""
    row1 = [ring.var(1, j) for j in range(1, n + 1)]
    row2 = [ring.var(2, j) for j in range(1, n + 1)]
    comps = [row1, row2]
    for a, b in combinations(range(1, n + 1), 2):
        gens = []
        for m in range(1, n + 1):
            if m not in (a, b):
                gens.append(ring.var(1, m))
                gens.append(ring.var(2, m))
        gens.append(ring.var(1, a) * ring.var(2, b) + ring.var(1, b) * ring.var(2, a))
        comps.append(gens)
    return comps


def _singular_lines_2xn(n: int):
    """The n^2 coordinate lines: same-row pairs and same-column pairs."""
    lines = []
    for i in (1, 2):
        for a, b in combinations(range(1, n + 1), 2):
            lines.append(((i, a), (i, b)))
    for j in range(1, n + 1):
        lines.append(((1, j), (2, j)))
    return lines


def _line_in_component(comp_gens, line) -> bool:
    """Whether every generator vanishes on the coordinate line of ``line``'s
    two variables, all others 0.  Distinct monomials stay distinct there, so
    a generator vanishes iff none of its terms uses only those two."""
    ring = comp_gens[0].ring
    on_line = {ring.universe.index[f"x_{i}_{j}"] for i, j in line}
    unpack = ring.pack.unpack

    def only_on_line(key):
        return all(v in on_line for v, e in enumerate(unpack(key)) if e)

    return not any(only_on_line(key) for g in comp_gens for key, _ in g.terms)


def _census_2xn(n: int, p: int) -> dict:
    """Component structure over F_p of the maximal-permanent locus of a
    generic 2 x n matrix: component count, containment of the permanental
    ideal in each component, radical equality with their intersection, and
    the n^2 singular lines each lying on at least two components."""
    gens = permanental_ideal(GenericMatrixSpec(2, n), GF(p))
    comps = _component_ideals_2xn(n, gens[0].ring)
    G_I = buchberger(gens)
    containment = True
    for cg in comps:
        Gc = buchberger(cg)
        if not all(normal_form(g, Gc).is_zero() for g in gens):
            containment = False
    inter = comps[0]
    for cg in comps[1:]:
        inter = ideal_intersection(inter, cg)
    inter_in_rad = all(radical_membership(g, gens, gb=G_I) for g in inter)
    G_T = buchberger(inter)
    ideal_in_inter = all(normal_form(g, G_T).is_zero() for g in gens)
    lines = _singular_lines_2xn(n)
    min_cover = min(sum(_line_in_component(cg, line) for cg in comps) for line in lines)
    return {
        "components": len(comps),
        "lines": len(lines),
        "containment": containment,
        "radical_equal": inter_in_rad and ideal_in_inter,
        "lines_in_two_components": min_cover >= 2,
    }


# ---------------------------------------------------------------------------
# section-5 style script cases: script-4x5 is decided by buchberger and
# ideal_dimension, script-5x6 by the zero-dimensionality certificate below,
# which ranks Macaulay matrices through their values at points


def _script_slice(k: int, A) -> PolyMatrix:
    """The B1 derived matrix, the (k+1) x (k+1) sub-permanents omitting two
    columns, of the (k-1) x (k+1) matrix whose row r is x_{r+2}_1 and then
    forms r, r + k - 1, ... of ``A``, over ZZ in x_2_1 .. x_k_1.  Form idx is
    sum_r A[r][idx] x_{r+2}_1, so the forms fill columns 2..k+1 of rows
    2..k of a generic point of the fixed locus column-major."""
    small = PolyRing(VarUniverse.free([f"x_{r}_1" for r in range(2, k + 1)]), ZZ)
    xs = small.gens()
    forms = [
        sum((row[idx] * x for row, x in zip(A, xs) if row[idx]), small.zero)
        for idx in range(k * (k - 1))
    ]
    return derivative_matrix_symbolic(
        PolyMatrix([[xs[r]] + forms[r :: k - 1] for r in range(k - 1)])
    )


# Spare points past N_d: unlucky points of a small field then rarely cost a fill.
SPARE_POINTS = 16
# Straight degrees of a non-shrinking deficiency after which the certificate
# gives up as inconclusive.
STALL_LIMIT = 4


def _certificate_points(p: int, m: int, count: int):
    """The first ``count`` distinct points of F_p^m (all, if fewer) drawn by
    ``random.Random(p)``; a shorter call gives a prefix of a longer one."""
    rng, seen = random.Random(p), {}
    while len(seen) < min(count, p**m):
        seen[tuple(rng.randrange(p) for _ in range(m))] = None
    return list(seen)


def _minor_values(gens, p: int):
    """``(degrees, values)`` for the h x h minors of M, ``gens`` = (M, h),
    or of a list, the 1 x 1 minors of its one-row matrix, in
    ``matrix_minors`` order: each minor's degree (negative if its entries
    vanish mod p), and ``values(points)``, an array with a row of each
    minor's values mod p at ``points``.

    The entries are moved into F_p and tagged with their degree here, once.
    ``values`` walks each distinct entry's own Horner program
    (``MPoly._horner``, compiled on the first call) over numpy lanes, one
    per variable, reduced mod p after every sum and product: int64 for
    p < 2**31, where a product stays below 2**62, else object.  The k x k
    minors come from the (k-1) x (k-1) ones by expansion along their first
    row: for each position t, one gather of the entries (R[0], C[t]) and of
    the minors (R[1:], C without C[t]) over every (R, C) at once, so a call
    takes O(h^2) array operations past the entries' programs.  The entries
    must be homogeneous, for h > 1 of one degree."""
    import numpy as np

    M, h = gens if isinstance(gens[0], PolyMatrix) else (PolyMatrix([list(gens)]), 1)
    entries = [over_prime(row, p) for row in M.rows]
    degree = {g.total_degree() for row in entries for g in row if g}
    if not all(g.is_homogeneous() for row in entries for g in row) or (h > 1 and len(degree) > 1):
        raise PreconditionError("certificate needs homogeneous generators")
    distinct: dict = {}  # terms -> (position, entry)
    at = [[distinct.setdefault(g.terms, (len(distinct), g))[0] for g in row] for row in entries]
    (m, n), nvars = M.dims, len(M.ring.universe)
    dtype = np.int64 if p < 1 << 31 else object
    # per level k, per position t: the entries and the (k-1)-minors to multiply
    expansions, index = [], {((), ()): 0}
    for k in range(1, h + 1):
        keys = [(R, C) for C in combinations(range(n), k) for R in combinations(range(m), k)]
        expansions.append([
            (
                np.array([at[R[0]][C[t]] for R, C in keys]),
                np.array([index[R[1:], C[:t] + C[t + 1 :]] for R, C in keys]),
            )
            for t in range(k)
        ])
        index = {key: i for i, key in enumerate(keys)}
    degrees = [h * max(entries[i][j].total_degree() for i in R for j in C) for R, C in keys]

    def mul(a, b):
        return a * b % p

    def add(a, b):
        return (a + b) % p

    def values(points):
        pts = np.array(points, dtype=dtype).reshape(len(points), nvars).T % p

        def const(c):
            return np.full(len(points), c, dtype=dtype)

        lanes = np.stack([
            g._horner(pts[g._compile()[0]], mul, add, const) for _, g in distinct.values()
        ])
        minors = np.ones((1, len(points)), dtype=dtype)
        for expansion in expansions:
            total = 0
            for t, (entry, minor) in enumerate(expansion):
                term = lanes[entry] * minors[minor] % p
                total = total - term if t % 2 else total + term
            minors = total % p
        return minors

    return degrees, values


def _evaluation_matrix(rows: dict, points, d: int, p: int):
    """E_d: the values mod p at ``points`` of x^a g for each value row g,
    keyed ``(degree dg, values)`` in ``rows``, and each x^a of degree d - dg."""
    import numpy as np

    pts = np.array(points, dtype=next(iter(rows.values())).dtype).T  # a row per variable
    out = []
    for (dg, _), g in rows.items():
        # a monomial as its variables, each repeated by its exponent
        for a in combinations_with_replacement(range(len(pts)), d - dg):
            out.append(reduce(lambda v, i: v * pts[i] % p, a, g))
    return np.array(out)


def homogeneous_dim0_certificate(gens, p: int, max_degree: int = 60, minors=None):
    """Smallest d with the full degree-d monomial space inside the ideal.

    ``gens`` are homogeneous polynomials over ZZ, QQ or F_p in m variables,
    or (M, h) for the h x h minors of the PolyMatrix M.  A fill shows that
    the ideal mod p is zero-dimensional.  Degree d fills when rank E_d = N_d,
    the number of degree-d monomials, where E_d = M_d V_d holds the values
    of the generators' degree-d multiples at N_d + SPARE_POINTS points of
    F_p^m.  As rank E_d <= rank M_d <= N_d, bad points can only lower the
    rank.  Returns d, or None when inconclusive: no nonzero value row, no
    fill up to max_degree, or a deficiency N_d - rank E_d that stopped
    shrinking for STALL_LIMIT straight degrees.  For m > 1 no degree
    above p fills (x^p y - x y^p vanishes on F_p^m): reaching one raises
    PreconditionError.  The open budget is checked before each degree
    (GroebnerTimeout, phase ``"macaulay"``).  ``minors``, if given, is
    ``_minor_values(gens, p)``, prepared by the caller.
    """
    import numpy as np

    if not gens:
        return None
    degrees, minor_values = minors or _minor_values(gens, p)
    values = minor_values([])
    m = len(gens[0].ring.universe)
    points, last_deficiency, stalled = [], None, 0
    for d in range(max(0, *degrees), max_degree + 1):
        check("macaulay", {"degree": d, "deficiency": last_deficiency})
        if d > p and m > 1:
            raise PreconditionError(f"degree {d} exceeds the prime {p}: evaluation fills none")
        ncols = comb(d + m - 1, m - 1)
        # the value columns and the points extend together, so they stay
        # aligned whatever the point helper returns
        new = _certificate_points(p, m, ncols + SPARE_POINTS)[len(points) :]
        values = np.hstack((values, minor_values(new)))
        points += new
        # distinct nonzero value rows: int64 rows keyed by their bytes, object
        # rows (p >= 2**31), whose bytes are pointers, by their values
        key = bytes if values.dtype == np.int64 else tuple
        rows = {(dg, key(v)): v for dg, v in zip(degrees, values) if v.any()}
        if not rows:
            return None
        if sum(comb(d - dg + m - 1, m - 1) for dg, _ in rows) < ncols:
            continue
        deficiency = ncols - linalg.rank_modp_numpy(_evaluation_matrix(rows, points, d, p), p)
        if deficiency == 0:
            return d
        if last_deficiency is not None and deficiency >= last_deficiency:
            stalled += 1
            if stalled >= STALL_LIMIT:
                return None
        else:
            stalled = 0
        last_deficiency = deficiency
    return None


SCRIPT_5X6_A = [
    [3, 3, 2, 1, -1, 0, -3, 3, 2, -3, 2, 0, -3, 2, 3, -2, 2, 2, -3, -3],
    [-2, -2, -1, 1, -1, 0, -2, -2, -1, -3, 2, -2, -1, 3, -2, -2, 2, -1, -1, -1],
    [-2, -2, 1, 2, 3, 0, 0, -3, 2, 2, -3, -3, -1, 2, -3, 2, -2, 3, -2, 2],
    [-3, 0, -3, -1, 1, 2, -1, 2, -3, 2, 1, 0, -3, -1, -1, -3, -2, 3, -1, -3],
]


# ---------------------------------------------------------------------------
# singular-locus suite


def two_zero_row_witness(k: int) -> bool:
    """All (k-1) x (k-1) permanents vanish identically when two rows are zero:
    those of the generic k x k matrix with its first two rows set to 0."""
    M = generic_matrix(k, k)
    zero = M.ring.zero
    return not any(matrix_permanents(k - 1, PolyMatrix([[zero] * k] * 2 + M.rows[2:])))


def _partition_sum_ideals(M: PolyMatrix):
    """For every proper partition of the rows, then of the columns, of the
    square matrix M (each unordered pair of blocks once), the generators of
    the ideal of the maximal permanents of the two blocks."""
    k = M.dims[0]
    zero = M.ring.zero
    indices = range(k)
    perms = {h: _expand(M.rows, signed=False, h=h) for h in range(1, k)}

    def block_perms(subset, by_rows: bool):
        # a column block's permanents are those of M on every row subset of
        # the block's size and the block's columns
        others = combinations(indices, len(subset))
        rows, cols = ([subset], others) if by_rows else (others, [subset])
        return _read(perms[len(subset)], k, k, rows, cols, zero)

    # the smaller block first; of two equal halves, the one holding index 0
    for r in range(1, k // 2 + 1):
        for s1 in combinations(indices, r):
            if 2 * r == k and 0 not in s1:
                continue
            s2 = tuple(i for i in indices if i not in s1)
            yield block_perms(s1, True) + block_perms(s2, True)
            yield block_perms(s1, False) + block_perms(s2, False)


def lemma422_containment(k: int, p: int) -> bool:
    """The (k-1)-permanent ideal of the generic k x k matrix is contained in
    every partition sum of block permanental ideals."""
    M = generic_matrix(k, k, GF(p))
    sing = matrix_permanents(k - 1, M)
    for gens in _partition_sum_ideals(M):
        G = buchberger(gens)
        if not all(normal_form(f, G).is_zero() for f in sing):
            return False
    return True


def radical_equality_sing(k: int, p: int) -> dict:
    """Both inclusions of the radical identity for the singular locus at k."""
    M = generic_matrix(k, k, GF(p))
    sing = matrix_permanents(k - 1, M)
    G_sing = buchberger(sing)
    sums = list(_partition_sum_ideals(M))
    forward = True
    for gens in sums:
        Gs = buchberger(gens)
        if not all(radical_membership(f, gens, gb=Gs) for f in sing):
            forward = False
            break
    inter = None
    for gens in sums:
        inter = gens if inter is None else ideal_intersection(inter, gens)
    backward = all(radical_membership(f, sing, gb=G_sing) for f in inter)
    return {"forward": forward, "backward": backward}


def symbolic_determinant_identities() -> dict:
    """The two closed-form determinants of the rank-case analysis."""
    out = {}
    # (h+2) x (h+2) bordered matrix: det = -2 a^h b1 b2
    for h in (1, 2):
        names = ["a"] + [f"b{i}" for i in range(1, h + 2)]
        ring = PolyRing(VarUniverse.free(names), QQ)
        a = ring.gen("a")
        b = [ring.gen(f"b{i}") for i in range(1, h + 2)]
        size = h + 2
        rows = [[ring.zero] * size for _ in range(size)]
        for i in range(h + 1):
            rows[i][i] = a
        rows[0][size - 1] = b[1]  # b2
        rows[1][size - 1] = b[0]  # b1
        for i in range(h + 1):
            rows[size - 1][i] = b[i]
        det = matrix_det(PolyMatrix(rows))
        expect = (-2) * a**h * b[0] * b[1]
        out[f"det_S_h{h}"] = det == expect
    # 5 x 5 matrix in a, b, c, d: det = d(d^2 - db + 2ac - d + b)
    ring = PolyRing(VarUniverse.free(["a", "b", "c", "d"]), QQ)
    a, b, c, d = ring.gens()
    z, one = ring.zero, ring.one
    Q = PolyMatrix(
        [
            [a, d, z, a * c + b * d, a],
            [d, c, one, z, one],
            [one, z, z, c, z],
            [z, one, z, d, z],
            [z, z, one, z, d],
        ]
    )
    det = matrix_det(Q)
    expect = d * (d * d - d * b + 2 * a * c - d + b)
    out["det_Qprime"] = det == expect
    return out


def hankel_chart_generators(chart_ring: PolyRing) -> list:
    """Each chart's generators: the 2 x 2 permanents of the Hankel matrix of
    its images of x0 .. xn, the chart ring's n variables and 1: x_n -> 1,
    then x0 -> 1 with the mirror x_i -> x_{n-i}."""
    n = len(chart_ring.universe)
    xs = chart_ring.gens() + [chart_ring.one]
    return [
        matrix_permanents(2, PolyMatrix([images[i : i + n] for i in range(2)]))
        for images in (xs, xs[::-1])
    ]


def hankel_chart_case(n: int, p: int) -> dict:
    """Chart ideals over F_p of the 2 x n Hankel permanental scheme at both
    support points: zero-dimensional, local degree 4, and the stated
    monomial basis.  The mirror turns the Hankel matrix upside down and
    back to front, which leaves every 2 x 2 permanent as it is, so the two
    charts have one generator set and one basis, computed once."""
    chart_ring = PolyRing(VarUniverse.free([f"x{i}" for i in range(n)]), GF(p))
    first, mirrored = hankel_chart_generators(chart_ring)
    if set(first) != set(mirrored):
        raise InternalConsistencyError(f"the two Hankel charts of n = {n} differ")
    # 1, x_{n-3}, x_{n-2}, x_{n-1}: in dimension 0 the degree counts the
    # standard monomials, so four standard ones of degree 4 are all of them
    expected = [(0,) * n] + [tuple(int(i == j) for i in range(n)) for j in range(n - 3, n)]
    expected_basis = [chart_ring.from_exp_dict({e: 1}) for e in expected]
    G = buchberger(first)
    rep = ideal_dimension(G)
    basis_matches = (
        rep.dim == 0 and rep.degree == 4 and all(normal_form(b, G) == b for b in expected_basis)
    )
    return {
        "dims": [rep.dim] * 2,
        "local_degrees": [rep.degree] * 2,
        "total_degree": 2 * (rep.degree or 0),
        "basis_matches": basis_matches,
        "syzygy": hankel_syzygy_identity(n),
    }


def hankel_syzygy_identity(n: int) -> bool:
    """x_{n-1}^4 decomposes exactly over the three closing chart generators."""
    if n < 4:
        raise PreconditionError("needs n >= 4")
    ring = PolyRing(VarUniverse.free([f"x{i}" for i in range(n + 1)]), QQ)
    xm3 = ring.gen(f"x{n-3}")
    xm2 = ring.gen(f"x{n-2}")
    xm1 = ring.gen(f"x{n-1}")
    half = Fraction(1, 2)
    g1 = -xm2**2 - xm3 * xm1 - xm2 * xm1 + xm1**2 - xm3 - half * xm2
    g2 = -xm2**2 - xm3 * xm1 + xm1**2 + xm2 - half * xm1
    g3 = xm2 * xm1 + xm1**2 + xm3 + xm2 + half
    lhs = xm1**4
    rhs = g1 * (xm1**2 + xm2) + g2 * (xm1 * xm2 + xm3) + g3 * (xm2**2 + xm1 * xm3)
    return lhs == rhs


# ---------------------------------------------------------------------------
# case runners


def _per_prime(primes, fn):
    """``fn(p)`` for each prime in order: the value at the first prime, and
    whether every prime gave the same value."""
    values = [fn(p) for p in primes]
    return values[0], all(v == values[0] for v in values[1:])


def _per_value(spec, cfg, key, fn):
    """``_per_prime`` over each registered value v of ``spec.params[key]``,
    the values outer and the primes inner: ``fn(v, p)`` for each prime p.
    Gives the first prime's values keyed by ``str(v)``, and whether every
    value agreed across the primes."""
    measured, agree = {}, True
    for v in spec.params[key]:
        measured[str(v)], ok = _per_prime(cfg.primes, lambda p: fn(v, p))
        agree &= ok
    return measured, agree


def _each_value(key, fn, table=None):
    """The runner of a case measuring ``fn(v, p)`` by ``_per_value`` over
    the values of ``key``, as the case's ``table`` if it names one."""

    def run(spec, cfg):
        measured, agree = _per_value(spec, cfg, key, fn)
        return ({table: measured} if table else measured), agree

    return run


def _each_prime(fn):
    """The runner of a case measuring ``fn(p)`` by ``_per_prime``."""
    return lambda spec, cfg: _per_prime(cfg.primes, fn)


def _codim(shape, p: int) -> int:
    """Codimension over F_p of the permanental ideal of a generic ``shape`` matrix."""
    return ideal_dimension(buchberger(permanental_ideal(GenericMatrixSpec(*shape), GF(p)))).codim


def _slice_bound(kind: str, p: int) -> dict:
    """Height over F_p of the slice ``build_slice(kind)``: a codimension lower bound."""
    ht = slice_height(build_slice(kind), p)
    return {"ht": ht, "codim_lower_bound": ht}


def _saturation_j3(p: int) -> dict:
    """Codimension and degree over F_p of the permanental ideal of the
    generic 3 x 4 matrix saturated by the product of all variables."""
    gens = permanental_ideal(GenericMatrixSpec(3, 4), GF(p))
    ring = gens[0].ring
    G = buchberger(saturate(gens, prod(ring.gens(), start=ring.one)))
    return {"codim": ideal_dimension(G).codim, "degree": hilbert_degree(G)}


def _run_kirkup_vanish(spec, cfg):
    vanish = {}
    for k in spec.params["k"]:
        # the constructor checks the vanishing with the column-subset
        # expansion; Ryser, a second engine, checks it again here
        rows = kirkup_matrix(k)
        vanish[str(k)] = all(
            perm_numeric([[r[c] for c in range(k + 1) if c != j] for r in rows]) == 0
            for j in range(k + 1)
        )
    return {"vanish": vanish, "prk_3": prk(kirkup_matrix(3))}, True


def _run_kirkup_b1(spec, cfg):
    ranks = {}
    for k in spec.params["k"]:
        rep = classify_type(kirkup_matrix(k)[1:], "B1")
        ranks[str(k)] = {"rank": rep.rank, "type": rep.type}
    K3 = kirkup_matrix(3)
    rep3 = classify_type(K3[1:], "B1")
    kernel = [list(v) for v in rep3.kernel_basis]
    ext = kernel_extension_check(K3[1:], tuple(kernel[0])) if kernel else False
    return {"ranks": ranks, "kernel_3": kernel, "extension_check": ext}, True


def _max_jacobian_rank(shape, p, rng, points):
    """Largest Jacobian rank over F_p of the maximal permanents of the
    generic matrix of size ``shape`` at ``points`` random points."""
    from .torus import jacobian, jacobian_rank_at

    jac = jacobian(permanental_ideal(GenericMatrixSpec(*shape), GF(p)))
    nvars = shape[0] * shape[1]
    batch = [[rng.randrange(p) for _ in range(nvars)] for _ in range(points)]
    return max(jacobian_rank_at(jac, batch))


def _run_jacobian_independence(spec, cfg):
    rng = random.Random(cfg.seed)
    run = _each_value("k", lambda k, p: _max_jacobian_rank((k, k + 1), p, rng, 20), "max_rank")
    return run(spec, cfg)


def _run_jacobian_dependence(spec, cfg):
    rng = random.Random(cfg.seed)
    points = spec.params["points"]
    mx, agree = _per_prime(cfg.primes, lambda p: _max_jacobian_rank((2, 5), p, rng, points))
    return {"max_rank": mx, "dependent": mx <= 9}, agree


def _circulant_2x2(k: int, p: int) -> dict:
    """Codimension over F_p of the 2 x 2 permanents of the k x (k+1)
    circulant matrix in x_1_1 .. x_1_{k+1}, and whether each x_j^2 lies in
    their ideal."""
    G = buchberger(permanental_ideal(GenericMatrixSpec(k, k + 1, h=2, pattern="circulant"), GF(p)))
    member = all(normal_form(G.ring.gen(j) ** 2, G).is_zero() for j in range(k + 1))
    return {"codim": ideal_dimension(G).codim, "squares_in_ideal": member}


def _run_perm_engines(spec, cfg):
    rng = random.Random(cfg.seed)
    sizes = spec.params["sizes"]
    trials = spec.params["trials"]
    sym = {n: perm_symbolic(generic_matrix(n, n)) for n in sizes}
    ok = True
    for n in sizes:
        mats = [
            [[rng.randrange(19) - 9 for _ in range(n)] for _ in range(n)] for _ in range(trials)
        ]
        values = sym[n].evaluate([[x for row in A for x in row] for A in mats])
        for A, s in zip(mats, values):
            check("probe")
            if not (perm_numeric(A, "ryser") == perm_numeric(A, "glynn") == s):
                ok = False
    return {"engines_agree": ok}, True


def _probe_points(spec, cfg):
    """The seeded probes of the derived-matrix cases, one batch per shape:
    per k, ``trials`` random points of shape (k-1) x (k+1) (the B1 shape),
    then as many of shape (k-2) x k (the L shape, when k > 2), entries in
    -9..9.  Its readers check the budget before testing each point's matrix,
    so a batch's draws and its one expansion run between two checks."""
    rng = random.Random(cfg.seed)
    for k in spec.params["k"]:
        for m, n in ((k - 1, k + 1), (k - 2, k)):
            if m < 1:
                continue
            yield [
                [[rng.randrange(19) - 9 for _ in range(n)] for _ in range(m)]
                for _ in range(spec.params["trials"])
            ]


def _probe_matrices(batch):
    """The derived matrices of a probe batch, the first and last of them
    checked against ``derivative_matrices`` of that point alone, which
    expands without lanes.  A lanewise fault that keeps symmetry, a zero
    diagonal and rank above one would pass the cases without this check."""
    mats = derivative_matrices(batch)
    for t in (0, -1):
        if mats[t] != derivative_matrices([batch[t]])[0]:
            raise InternalConsistencyError(
                f"batched derived matrix of a {len(batch[t])}-row probe point "
                "differs from its own expansion"
            )
    return mats


def _run_derivative_symmetry(spec, cfg):
    ok = True
    for batch in _probe_points(spec, cfg):
        for B in _probe_matrices(batch):
            check("probe")
            if any(row[i] for i, row in enumerate(B)) or B != [list(col) for col in zip(*B)]:
                ok = False
    return {"symmetric_zero_diagonal": ok}, True


def _run_rank_never_one(spec, cfg):
    seen = False
    for batch in _probe_points(spec, cfg):
        for B in _probe_matrices(batch):
            check("probe")
            if linalg.rank_is_one(B):
                seen = True
    return {"rank_one_seen": seen}, True


def _run_e_pattern(spec, cfg):
    rng = random.Random(cfg.seed)
    ok = True
    for k in spec.params["k"]:
        for _ in range(spec.params["trials"]):
            a = rng.choice([x for x in range(-99, 100) if x])
            b = rng.choice([x for x in range(-99, 100) if x])
            if linalg.rank(border_pattern_matrix(k, a, b)) != k:
                ok = False
    return {"rank_equals_k": ok}, True


def _run_sing_witness(spec, cfg):
    return {"witness": {str(k): two_zero_row_witness(k) for k in spec.params["k"]}}, True


def _run_script_4x5(spec, cfg):
    """Slice the 5x5 partials matrix of the 4x5 permanental system by a seeded
    random 3-space, and give the codimensions of its determinant's singular
    locus and of its 4x4-minor locus there (3: zero-dimensional).  Each is
    decided by ``buchberger`` and ``ideal_dimension`` over each prime; the
    Macaulay certificate only fills at degree 40 on the singular locus."""
    rng = random.Random(cfg.seed)
    A = [[rng.randrange(19) - 9 for _ in range(12)] for _ in range(3)]
    BB = _script_slice(4, A)
    det = matrix_det(BB)
    partials = [det.diff(nm) for nm in BB.ring.universe.names]
    minors4 = [q for q in matrix_minors(4, BB) if q]

    def codim(gens, p):
        return ideal_dimension(buchberger(over_prime(gens, p))).codim

    sing_codim, sing_agree = _per_prime(cfg.primes, lambda p: codim(partials, p))
    minors4_codim, minors4_agree = _per_prime(cfg.primes, lambda p: codim(minors4, p))
    measured = {"sing_codim": sing_codim, "minors4_codim": minors4_codim, "seed": cfg.seed}
    return measured, sing_agree and minors4_agree


def _run_script_5x6(spec, cfg):
    """With the explicit integer 4x20 slice matrix, certify that the rank-two
    locus (3x3 minors) of the sliced 6x6 partials matrix is zero-dimensional,
    by the certificate over each prime.  ``distinct_minors`` counts distinct
    nonzero value rows of the minors at the first prime's first SPARE_POINTS
    points: the slice is symmetric, so 210 of them prove exactly 210."""
    source = (_script_slice(5, SCRIPT_5X6_A), 3)
    minors = {p: _minor_values(source, p) for p in cfg.primes}  # one preparation each
    values = minors[cfg.prime][1](_certificate_points(cfg.prime, 4, SPARE_POINTS))
    # a fill at the first prime gives the codimension, the number of
    # variables; the primes agree only if every one of them fills
    filled, agree = _per_prime(
        cfg.primes,
        lambda p: homogeneous_dim0_certificate(source, p, minors=minors[p]) is not None,
    )
    codim = len(source[0].ring.universe) if filled else None
    distinct = len({tuple(row) for row in values.tolist() if any(row)})
    return {"distinct_minors": distinct, "minors3_codim": codim}, agree and filled


# What each case measures.  Public functions are called inside lambdas, so that
# one rebound while the case runs (perfbench's tracer, a monkeypatch) is called.
_RUNNERS = {
    "codim-2xn": _each_value("n", lambda n, p: _codim((2, n), p), "codim"),
    "codim-kxk1": _each_value("k", lambda k, p: _codim((k, k + 1), p), "codim"),
    "census-2xn": _each_value("n", _census_2xn),
    "hankel-degree8": _each_value("n", lambda n, p: hankel_chart_case(n, p)),
    "slice-circulant3": _each_prime(lambda p: _slice_bound("circulant3", p)),
    "slice-circulant4": _each_prime(lambda p: _slice_bound("circulant4", p)),
    "saturation-J3": _each_prime(_saturation_j3),
    "kirkup-vanish": _run_kirkup_vanish,
    "kirkup-b1-rank": _run_kirkup_b1,
    "symbolic-determinants": lambda spec, cfg: (symbolic_determinant_identities(), True),
    "jacobian-independence": _run_jacobian_independence,
    "jacobian-dependence-2x5": _run_jacobian_dependence,
    "circulant-2x2": _each_value("k", _circulant_2x2),
    "perm-engines-agree": _run_perm_engines,
    "derivative-symmetry": _run_derivative_symmetry,
    "rank-never-one": _run_rank_never_one,
    "e-pattern-rank": _run_e_pattern,
    "sing-upper-witness": _run_sing_witness,
    "lemma422-containment": _each_value(
        "k", lambda k, p: lemma422_containment(k, p), "containment"
    ),
    "radical-eq-sing-k3": _each_prime(lambda p: radical_equality_sing(3, p)),
    "script-4x5": _run_script_4x5,
    "script-5x6": _run_script_5x6,
}


def reproduce(case_id: str, config: CliConfig | None = None, **overrides) -> CaseReport:
    """Run a registered case deterministically and compare with its pins.

    A request the case cannot honour raises StructuralError before the runner
    starts: an unknown id, an override outside the registered range, a prime
    that is not a word-size prime, or a repeated prime (the two-prime
    agreement check would be vacuous).  An error raised inside the runner is
    a ``failed-error`` report, as a timeout is a ``failed-timeout`` one."""
    reg = registry()
    if case_id not in reg:
        raise StructuralError(f"unknown case id {case_id!r}; known ids: {', '.join(case_ids())}")
    spec = reg[case_id]
    cfg = config or CliConfig()
    for p in cfg.primes:
        GF(p)  # raises StructuralError unless p is a word-size prime
    if cfg.prime == cfg.prime2:
        raise StructuralError(f"prime and prime2 are both {cfg.prime}; they must differ")
    params = dict(spec.params)
    expected = json.loads(json.dumps(spec.expected))
    for key, val in overrides.items():
        if val is None:
            continue
        if not isinstance(params.get(key), list):
            raise StructuralError(f"case {case_id} has no parameter {key} to narrow")
        if val not in params[key]:
            raise StructuralError(f"{key}={val} outside registered range {params[key]}")
        params[key] = [val]
        expected = _restrict_expected(expected, str(val))
    spec = replace(spec, params=params, expected=expected)
    t0 = time.monotonic()
    try:
        with Budget(spec.timeout_s):
            measured, agree = _RUNNERS[case_id](spec, cfg)
        status, partial = "done", {}
    except GroebnerTimeout as e:
        # the message and phase are reproducible; the work counts are not
        status, partial = "failed-timeout", dict(e.stats)
        measured, agree = {"error": str(e), "phase": partial.pop("phase")}, False
    except (StructuralError, PreconditionError, CapacityError, InternalConsistencyError) as e:
        status, partial = "failed-error", {}
        measured, agree = {"error": str(e)}, False
    wall = int((time.monotonic() - t0) * 1000)
    passed = status == "done" and agree and _matches(measured, spec.expected)
    return CaseReport(
        id=case_id,
        passed=passed,
        measured=measured,
        expected=spec.expected,
        wall_ms=wall,
        prime_agreement=agree,
        seed=cfg.seed,
        primes=cfg.primes,
        environment=_environment(),
        status=status,
        partial_stats=partial,
    )


def _restrict_expected(expected: dict, key: str):
    """Narrow per-parameter expectation tables to one parameter value."""
    if expected and all(k.isdigit() for k in expected):
        return {key: expected[key]} if key in expected else expected
    out = {}
    for k, v in expected.items():
        if isinstance(v, dict) and v and all(kk.isdigit() for kk in v) and key in v:
            out[k] = {key: v[key]}
        else:
            out[k] = v
    return out


def _matches(measured: dict, expected: dict) -> bool:
    for key, want in expected.items():
        got = measured.get(key)
        if isinstance(want, dict) and isinstance(got, dict):
            if not _matches(got, want):
                return False
        elif got != want:
            return False
    return True


def reproduce_all(config: CliConfig | None = None):
    """Run every registered case at or below the configured tier, in id
    order, yielding each report as soon as its case returns."""
    cfg = config or CliConfig()
    return (
        reproduce(cid, cfg)
        for cid in case_ids()
        if registry()[cid].tier != "extended" or cfg.tier == "extended"
    )
