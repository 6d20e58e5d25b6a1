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
from itertools import combinations, combinations_with_replacement, islice
from math import comb, factorial, prod
from typing import NamedTuple

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
    contains,
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


def slice_height(M_slice: PolyMatrix, F) -> int:
    """Height over the field F of the k x k permanents of the generic k x n
    matrix cut by the k x n slice ``M_slice``: a lower bound for the
    codimension of their locus."""
    k, n = M_slice.dims
    target = PolyRing(M_slice.ring.universe, F)
    gens = permanental_ideal(GenericMatrixSpec(k, n), F)
    slice_map = {
        f"x_{i + 1}_{j + 1}": transport(M_slice[i, j], target) for i in range(k) for j in range(n)
    }
    return slice_codim_bound(gens, slice_map, target)


# ---------------------------------------------------------------------------
# census of the 2 x n component structure


def _component_ideals_2xn(n: int, ring: PolyRing):
    """Row spaces and quadric components of the rank-style description."""
    x, cols = ring.var, range(1, n + 1)
    comps = [[x(i, j) for j in cols] for i in (1, 2)]
    for a, b in combinations(cols, 2):
        others = [x(i, j) for j in cols if j not in (a, b) for i in (1, 2)]
        comps.append(others + [x(1, a) * x(2, b) + x(1, b) * x(2, a)])
    return comps


def _singular_lines_2xn(n: int):
    """The n^2 coordinate lines: same-row pairs and same-column pairs."""
    same_row = [((i, a), (i, b)) for i in (1, 2) for a, b in combinations(range(1, n + 1), 2)]
    return same_row + [((1, j), (2, j)) for j in range(1, n + 1)]


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


def _census_2xn(n: int, F) -> dict:
    """Component structure over F of the maximal-permanent locus of a
    generic 2 x n matrix: component count, containment of the permanental
    ideal in each component, radical equality with their intersection, and
    the n^2 singular lines each lying on at least two components."""
    gens = permanental_ideal(GenericMatrixSpec(2, n), F)
    comps = _component_ideals_2xn(n, gens[0].ring)
    G_I = buchberger(gens)
    containment = all(contains(comp, gens) for comp in comps)
    inter = reduce(ideal_intersection, comps)
    inter_in_rad = all(radical_membership(g, G_I) for g in inter)
    ideal_in_inter = contains(inter, gens)
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
# section-5 style script cases, each decided by the zero-dimensionality
# certificate below in coefficient Macaulay matrices: script-4x5's two lists
# (buchberger where one gives no fill) and script-5x6's minors


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


# Straight degrees of a non-shrinking deficiency after which the certificate
# gives up as inconclusive.
STALL_LIMIT = 4


@cache
def _monomials(d: int, m: int) -> tuple:
    """The degree-d monomials in m variables as exponent tuples, in
    increasing lex order: so are their codes in any base above d."""
    spelled = combinations_with_replacement(range(m), d)
    return tuple(tuple(s.count(i) for i in range(m)) for s in spelled)[::-1]


def _codes(d: int, m: int, base: int):
    """The codes of ``_monomials(d, m)``, increasing: a monomial's exponents
    times the weights base**(m - 1), ..., base, 1, summed.  With base above
    every degree in play, a product's code is the sum of its factors' codes.
    Python ints (object dtype) once base**m reaches 2**63."""
    import numpy as np

    weights = [base**i for i in range(m)][::-1]
    dtype = object if base**m >= 1 << 63 else np.int64
    return np.array(_monomials(d, m), dtype=int) @ np.array(weights, dtype=dtype)


def _dense(forms, d: int, m: int):
    """The coefficients, ints below 2**63, of homogeneous degree-d forms in
    m variables: an int64 row per form, a column per ``_monomials(d, m)``."""
    import numpy as np

    column = {e: j for j, e in enumerate(_monomials(d, m))}
    out = np.zeros((len(forms), len(column)), dtype=np.int64)
    for row, g in zip(out, forms):
        unpack = g.ring.pack.unpack
        for k, c in g.terms:
            row[column[unpack(k)]] = c
    return out


def _distinct(rows):
    """The distinct nonzero rows of an array, sorted."""
    import numpy as np

    return np.unique(rows[rows.any(1)], axis=0)


class MinorRows(NamedTuple):
    """The h x h minors of a matrix, expanded over ZZ by ``_minor_rows``."""

    degree: int  # D, the minors' common degree
    rows: object  # int64 array, a row of coefficients over _monomials(D, nvars) per minor
    nvars: int


def _minor_rows(M: PolyMatrix, h: int) -> MinorRows:
    """The h x h minors of M, a PolyMatrix over ZZ with entries homogeneous
    of one degree e (a list of forms is the certificate's input for mixed
    degrees): their degree D = h e, an int64 array of each minor's
    coefficients over ``_monomials(D, nvars)``, a row each in
    ``matrix_minors`` order, and the number of variables.  Expanded once,
    they are the certificate's input at every prime.

    The k x k minors come from the (k-1) x (k-1) ones by expansion along
    their first row: for each position t, one gather of the entries
    (R[0], C[t]) and of the minors (R[1:], C without C[t]) over every (R, C)
    at once, then one shifted add per degree-e monomial, whose code (base
    D + 1) plus the smaller minors' codes gives their products' columns.
    Every partial sum is at most h! L^h, L the largest sum of an entry's
    absolute coefficients; past 2**63 CapacityError is raised."""
    import numpy as np

    entries = [g for row in M.rows for g in row if g]
    degree = {g.total_degree() for g in entries}
    if M.ring.domain != ZZ or len(degree) > 1 or not all(g.is_homogeneous() for g in entries):
        raise PreconditionError("minor rows need homogeneous entries of one degree over ZZ")
    e = max(degree, default=0)
    L = max((sum(abs(c) for _, c in g.terms) for g in entries), default=0)
    if factorial(h) * L**h >= 1 << 63:
        raise CapacityError(f"{h}x{h} minors of entries of coefficient sum {L} may pass int64")
    (m, n), nvars = M.dims, len(M.ring.universe)
    codes = [_codes(k * e, nvars, h * e + 1) for k in range(h + 1)]
    distinct: dict = {}  # terms -> (lane, entry)
    at = [[distinct.setdefault(g.terms, (len(distinct), g))[0] for g in row] for row in M.rows]
    # held transposed, a row per monomial, so that each shifted add moves rows
    lanes = _dense([g for _, g in distinct.values()], e, nvars).T.copy()
    minors, index = np.ones((1, 1), dtype=np.int64), {((), ()): 0}
    for k in range(1, h + 1):
        keys = [(R, C) for C in combinations(range(n), k) for R in combinations(range(m), k)]
        shift = np.searchsorted(codes[k], codes[k - 1][:, None] + codes[1])
        total = np.zeros((len(codes[k]), len(keys)), dtype=np.int64)
        for t in range(k):
            entry = lanes[:, [at[R[0]][C[t]] for R, C in keys]] * (-1) ** t
            minor = minors[:, [index[R[1:], C[:t] + C[t + 1 :]] for R, C in keys]]
            for a in entry.any(1).nonzero()[0]:
                total[shift[:, a]] += entry[a] * minor
        minors, index = total, {key: i for i, key in enumerate(keys)}
    return MinorRows(h * e, minors.T, nvars)


def _coefficient_rows(gens, p: int) -> dict:
    """The distinct nonzero generators mod p by degree, ``{degree: rows}``,
    as ``_dense`` rows."""
    forms = [g for g in over_prime(gens, p) if g]
    if not all(g.is_homogeneous() for g in forms):
        raise PreconditionError("certificate needs homogeneous generators")
    m, by_degree = len(gens[0].ring.universe), {}
    for g in forms:
        by_degree.setdefault(g.total_degree(), []).append(g)
    return {dg: _distinct(_dense(by_degree[dg], dg, m)) for dg in sorted(by_degree)}


def _macaulay_matrix(rows: dict, d: int, m: int, p: int):
    """M_d mod p: the coefficients of x^a g for each row g in ``rows``, of
    degree dg, and each x^a of degree d - dg; a column per degree-d
    monomial, coded base d + 1, so x^a g's codes are x^a's plus g's: one
    searchsorted per degree.  Filled in place, int32 below 2**31, the
    dtype of the transposed residues that ``rank_modp_numpy`` works on, so
    the matrix and that copy take the same memory."""
    import numpy as np

    columns, top = _codes(d, m, d + 1), 0
    height = sum(len(g) * comb(d - dg + m - 1, m - 1) for dg, g in rows.items())
    M = np.zeros((height, len(columns)), dtype=np.int32 if p < 1 << 31 else np.int64)
    for dg, g in rows.items():
        at = np.searchsorted(columns, _codes(d - dg, m, d + 1)[:, None] + _codes(dg, m, d + 1))
        size = len(g) * len(at)  # a row per generator and shift, a column per term
        M[np.arange(top, top + size).reshape(len(g), len(at), 1), at] = g[:, None]
        top += size
    return M


def homogeneous_dim0_certificate(gens, p: int, max_degree: int = 60):
    """Smallest d with the full degree-d monomial space inside the ideal.

    ``gens`` are homogeneous polynomials over ZZ, QQ or F_p in m variables,
    or the minors of a matrix as ``_minor_rows`` expands them over ZZ, which
    are reduced mod p here.  Either is ranked exactly in its Macaulay
    matrices M_d mod p.  Rank N_d,
    the number of degree-d monomials, is a fill: the ideal mod p is
    zero-dimensional, and for generators over ZZ or QQ so is their ideal
    over QQ, since a full-rank M_d mod p is full rank over QQ.  As many
    distinct nonzero forms as variables, none constant, are ranked at
    sum(d_i - 1) + 1 alone: by Macaulay's theorem they fill it, and no lower
    degree, iff their ideal is zero-dimensional.  Returns d, or None when
    inconclusive: no nonzero generator, no fill up to max_degree, or a
    deficiency N_d - rank that stopped shrinking for STALL_LIMIT straight
    degrees.  The open budget is checked before each degree (GroebnerTimeout,
    phase ``"macaulay"``).
    """
    if isinstance(gens, MinorRows):
        m, rows = gens.nvars, {gens.degree: _distinct(gens.rows % p)}
    elif gens:
        m, rows = len(gens[0].ring.universe), _coefficient_rows(gens, p)
    else:
        return None
    degrees = [dg for dg, g in rows.items() for _ in g]
    if not degrees:
        return None
    start, stop, last_deficiency, stalled = max(degrees), max_degree, None, 0
    if len(degrees) == m and min(degrees) > 0:
        start = stop = sum(degrees) - m + 1  # Macaulay's degree
    for d in range(start, min(stop, max_degree) + 1):
        check("macaulay", {"degree": d, "deficiency": last_deficiency})
        ncols = comb(d + m - 1, m - 1)
        if sum(comb(d - dg + m - 1, m - 1) for dg in degrees) < ncols:
            continue
        deficiency = ncols - linalg.rank_modp_numpy(_macaulay_matrix(rows, d, m, p), p)
        if deficiency == 0:
            return d
        stuck = last_deficiency is not None and deficiency >= last_deficiency
        stalled, last_deficiency = stalled + 1 if stuck else 0, deficiency
        if stalled >= STALL_LIMIT:
            return None
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
    return not any(matrix_permanents(k - 1, PolyMatrix([[M.ring.zero] * k] * 2 + M.rows[2:])))


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


def lemma422_containment(k: int, F) -> bool:
    """The (k-1)-permanent ideal of the generic k x k matrix over F is
    contained in every partition sum of block permanental ideals."""
    M = generic_matrix(k, k, F)
    sing = matrix_permanents(k - 1, M)
    return all(contains(J, sing) for J in _partition_sum_ideals(M))


def radical_equality_sing(k: int, F) -> dict:
    """Both inclusions over F of the radical identity for the singular locus at k."""
    M = generic_matrix(k, k, F)
    sing = matrix_permanents(k - 1, M)
    G_sing = buchberger(sing)
    sums = list(_partition_sum_ideals(M))
    bases = map(buchberger, sums)  # built as all() asks
    forward = all(all(radical_membership(f, G) for f in sing) for G in bases)
    inter = reduce(ideal_intersection, sums)
    backward = all(radical_membership(f, G_sing) for f in inter)
    return {"forward": forward, "backward": backward}


def symbolic_determinant_identities() -> dict:
    """The two closed-form determinants of the rank-case analysis."""
    out = {}
    # (h+2) x (h+2) bordered matrix: det = -2 a^h b1 b2
    for h in (1, 2):
        names = ["a"] + [f"b{i}" for i in range(1, h + 2)]
        ring = PolyRing(VarUniverse.free(names), QQ)
        a, *b = ring.gens()
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


def hankel_chart_case(n: int, F) -> dict:
    """Chart ideals over F of the 2 x n Hankel permanental scheme at both
    support points: zero-dimensional, local degree 4, and the stated
    monomial basis.  The mirror turns the Hankel matrix upside down and
    back to front, which leaves every 2 x 2 permanent as it is, so the two
    charts have one generator set and one basis, computed once."""
    chart_ring = PolyRing(VarUniverse.free([f"x{i}" for i in range(n)]), F)
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
    xm3, xm2, xm1 = (ring.gen(f"x{n - i}") for i in (3, 2, 1))
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
    """``fn(GF(p))`` for each prime p in order, the one place a case turns a
    prime into its field: the value at the first prime, and whether every
    prime gave the same value."""
    values = [fn(GF(p)) for p in primes]
    return values[0], all(v == values[0] for v in values[1:])


def _each_value(key, fn, table=None):
    """The runner of a case measuring ``fn(v, F)`` for each registered value
    v of ``spec.params[key]``, the values outer and ``_per_prime``'s fields
    inner: the first prime's values keyed by ``str(v)`` (as the case's
    ``table`` if it names one), and whether every value agreed."""

    def run(spec, cfg):
        measured, agree = {}, True
        for v in spec.params[key]:
            measured[str(v)], ok = _per_prime(cfg.primes, lambda F: fn(v, F))
            agree &= ok
        return ({table: measured} if table else measured), agree

    return run


def _each_prime(fn):
    """The runner of a case measuring ``fn(F)`` by ``_per_prime``."""
    return lambda spec, cfg: _per_prime(cfg.primes, fn)


def _codim(shape, F) -> int:
    """Codimension over F of the permanental ideal of a generic ``shape`` matrix."""
    return ideal_dimension(buchberger(permanental_ideal(GenericMatrixSpec(*shape), F))).codim


def _slice_bound(kind: str, F) -> dict:
    """Height over F of the slice ``build_slice(kind)``: a codimension lower bound."""
    ht = slice_height(build_slice(kind), F)
    return {"ht": ht, "codim_lower_bound": ht}


def _saturation_j3(F) -> dict:
    """Codimension and degree over F of the permanental ideal of the
    generic 3 x 4 matrix saturated by the product of all variables."""
    gens = permanental_ideal(GenericMatrixSpec(3, 4), F)
    ring = gens[0].ring
    G = buchberger(saturate(gens, prod(ring.gens(), start=ring.one)))
    return {"codim": ideal_dimension(G).codim, "degree": hilbert_degree(G)}


def _run_kirkup_vanish(spec, cfg):
    vanish, mats = {}, {}
    for k in spec.params["k"]:
        # the constructor checks the vanishing with the column-subset
        # expansion; Ryser, a second engine, checks it again here
        rows = mats[k] = kirkup_matrix(k)
        vanish[str(k)] = all(
            perm_numeric([[r[c] for c in range(k + 1) if c != j] for r in rows]) == 0
            for j in range(k + 1)
        )
    return {"vanish": vanish, "prk_3": prk(mats.get(3) or kirkup_matrix(3))}, True


def _run_kirkup_b1(spec, cfg):
    # each point once, k = 3 last when unregistered: kernel_3 is measured whatever k is run
    points = {k: kirkup_matrix(k)[1:] for k in dict.fromkeys([*spec.params["k"], 3])}
    reps = {k: classify_type(A, "B1") for k, A in points.items()}
    ranks = {str(k): {"rank": reps[k].rank, "type": reps[k].type} for k in spec.params["k"]}
    kernel = [list(v) for v in reps[3].kernel_basis]
    ext = kernel_extension_check(points[3], tuple(kernel[0])) if kernel else False
    return {"ranks": ranks, "kernel_3": kernel, "extension_check": ext}, True


def _draws(rng, n):
    """The values of ``rng.randrange(n)``, each drawn only when asked for:
    ``getrandbits(n.bit_length())`` redrawn until below n, as ``randrange``
    draws it, so after any number of values the stream stands where as many
    ``randrange(n)`` calls leave it.  The one place a case draws."""
    if n < 1:
        raise ValueError(f"no value below {n} to draw")
    bits, k = rng.getrandbits, n.bit_length()
    while True:
        r = bits(k)
        if r < n:
            yield r


def _matrices(rng, count, m, n, lo, hi):
    """``count`` seeded m x n matrices with entries in lo..hi, drawn entry
    by entry in row order as ``randrange(hi - lo + 1) + lo``."""
    draws = map(lo.__add__, _draws(rng, hi - lo + 1))
    return [[list(islice(draws, n)) for _ in range(m)] for _ in range(count)]


def _max_jacobian_rank(shape, F, rng, points):
    """Largest Jacobian rank over the prime field F of the maximal permanents
    of the generic matrix of size ``shape`` at ``points`` random points."""
    from .torus import jacobian, jacobian_rank_at

    jac = jacobian(permanental_ideal(GenericMatrixSpec(*shape), F))
    (batch,) = _matrices(rng, 1, points, shape[0] * shape[1], 0, F.modulus - 1)
    return max(jacobian_rank_at(jac, batch))


def _run_jacobian_independence(spec, cfg):
    rng = random.Random(cfg.seed)
    run = _each_value("k", lambda k, F: _max_jacobian_rank((k, k + 1), F, rng, 20), "max_rank")
    return run(spec, cfg)


def _run_jacobian_dependence(spec, cfg):
    rng = random.Random(cfg.seed)
    points = spec.params["points"]
    mx, agree = _per_prime(cfg.primes, lambda F: _max_jacobian_rank((2, 5), F, rng, points))
    return {"max_rank": mx, "dependent": mx <= 9}, agree


def _circulant_2x2(k: int, F) -> dict:
    """Codimension over F of the 2 x 2 permanents of the k x (k+1)
    circulant matrix in x_1_1 .. x_1_{k+1}, and whether each x_j^2 lies in
    their ideal."""
    G = buchberger(permanental_ideal(GenericMatrixSpec(k, k + 1, h=2, pattern="circulant"), F))
    member = all(normal_form(G.ring.gen(j) ** 2, G).is_zero() for j in range(k + 1))
    return {"codim": ideal_dimension(G).codim, "squares_in_ideal": member}


def _run_perm_engines(spec, cfg):
    rng = random.Random(cfg.seed)
    sizes = spec.params["sizes"]
    trials = spec.params["trials"]
    sym = {n: perm_symbolic(generic_matrix(n, n)) for n in sizes}
    ok = True
    for n in sizes:
        mats = _matrices(rng, trials, n, n, -9, 9)
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
    -9..9.  ``_probe_matrices`` walks them."""
    rng = random.Random(cfg.seed)
    for k in spec.params["k"]:
        for m, n in ((k - 1, k + 1), (k - 2, k)):
            if m < 1:
                continue
            yield _matrices(rng, spec.params["trials"], m, n, -9, 9)


def _probe_matrices(spec, cfg):
    """The derived matrices of the ``_probe_points`` probes, in order, each
    yielded after a budget check (phase ``"probe"``): so a batch's draws
    and its one expansion run between two checks.  Of each batch, the first
    and last matrices are checked against ``derivative_matrices`` of that
    point alone, which expands without lanes.  A lanewise fault that keeps
    symmetry, a zero diagonal and rank above one would pass the cases
    without this check."""
    for batch in _probe_points(spec, cfg):
        mats = derivative_matrices(batch)
        for t in (0, -1):
            if mats[t] != derivative_matrices([batch[t]])[0]:
                raise InternalConsistencyError(
                    f"batched derived matrix of a {len(batch[t])}-row probe point "
                    "differs from its own expansion"
                )
        for B in mats:
            check("probe")
            yield B


def _run_derivative_symmetry(spec, cfg):
    ok = True
    for B in _probe_matrices(spec, cfg):
        if any(row[i] for i, row in enumerate(B)) or B != [list(col) for col in zip(*B)]:
            ok = False
    return {"symmetric_zero_diagonal": ok}, True


def _run_rank_never_one(spec, cfg):
    seen = False
    for B in _probe_matrices(spec, cfg):
        if linalg.rank_is_one(B):
            seen = True
    return {"rank_one_seen": seen}, True


def _run_e_pattern(spec, cfg):
    nonzero = [x for x in range(-99, 100) if x]
    picks = map(nonzero.__getitem__, _draws(random.Random(cfg.seed), len(nonzero)))
    ok = True
    for k in spec.params["k"]:
        for _ in range(spec.params["trials"]):
            a, b = next(picks), next(picks)
            if linalg.rank(border_pattern_matrix(k, a, b)) != k:
                ok = False
    return {"rank_equals_k": ok}, True


def _run_sing_witness(spec, cfg):
    return {"witness": {str(k): two_zero_row_witness(k) for k in spec.params["k"]}}, True


def _run_script_4x5(spec, cfg):
    """Slice the 5x5 partials matrix of the 4x5 permanental system by a seeded
    random 3-space, and give the codimensions of its determinant's singular
    locus and of its 4x4-minor locus there (3: zero-dimensional).  Below
    2**31 a fill of the certificate gives 3 (for the partials, one rank at
    degree 40).  Otherwise ``buchberger`` decides: past 2**31 the rank would
    go to the pure-Python ``rank_modp``, far slower there than ``buchberger``."""
    (A,) = _matrices(random.Random(cfg.seed), 1, 3, 12, -9, 9)
    BB = _script_slice(4, A)
    det = matrix_det(BB)
    partials = [det.diff(nm) for nm in BB.ring.universe.names]
    minors4 = [q for q in matrix_minors(4, BB) if q]

    def codim(gens, F):
        if F.modulus < 1 << 31 and homogeneous_dim0_certificate(gens, F.modulus) is not None:
            return len(BB.ring.universe)
        return ideal_dimension(buchberger(over_prime(gens, F.modulus))).codim

    sing_codim, sing_agree = _per_prime(cfg.primes, lambda F: codim(partials, F))
    minors4_codim, minors4_agree = _per_prime(cfg.primes, lambda F: codim(minors4, F))
    measured = {"sing_codim": sing_codim, "minors4_codim": minors4_codim, "seed": cfg.seed}
    return measured, sing_agree and minors4_agree


def _run_script_5x6(spec, cfg):
    """With the explicit integer 4x20 slice matrix, certify that the rank-two
    locus (3x3 minors) of the sliced 6x6 partials matrix is zero-dimensional,
    by the certificate over each prime.  The minors are expanded over ZZ
    once, and each prime reduces them.  ``distinct_minors`` counts their
    distinct nonzero coefficient rows mod the first prime."""
    minors = _minor_rows(_script_slice(5, SCRIPT_5X6_A), 3)
    # a fill at the first prime gives the codimension, the number of
    # variables; the primes agree only if every one of them fills
    filled, agree = _per_prime(
        cfg.primes, lambda F: homogeneous_dim0_certificate(minors, F.modulus) is not None
    )
    codim = minors.nvars if filled else None
    distinct = len(_distinct(minors.rows % cfg.prime))
    return {"distinct_minors": distinct, "minors3_codim": codim}, agree and filled


# What each case measures.  Public functions are called inside lambdas, so that
# one rebound while the case runs (perfbench's tracer, a monkeypatch) is called.
_RUNNERS = {
    "codim-2xn": _each_value("n", lambda n, F: _codim((2, n), F), "codim"),
    "codim-kxk1": _each_value("k", lambda k, F: _codim((k, k + 1), F), "codim"),
    "census-2xn": _each_value("n", _census_2xn),
    "hankel-degree8": _each_value("n", lambda n, F: hankel_chart_case(n, F)),
    "slice-circulant3": _each_prime(lambda F: _slice_bound("circulant3", F)),
    "slice-circulant4": _each_prime(lambda F: _slice_bound("circulant4", F)),
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
        "k", lambda k, F: lemma422_containment(k, F), "containment"
    ),
    "radical-eq-sing-k3": _each_prime(lambda F: radical_equality_sing(3, F)),
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
