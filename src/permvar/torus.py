"""Weight-0/1 torus actions on matrix space: limit maps, tangent-space
decomposition at fixed points, corank strata and component-type reports.

The scaling action multiplies a chosen set of rows by t.  Its fixed locus is
the set of matrices vanishing on those rows, and the weight-one part of the
tangent space at a fixed point is controlled by a symmetric matrix of
sub-permanents of the nonzero block (built in :mod:`permvar.permanent`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import linalg
from .errors import PreconditionError, StructuralError
from .permanent import _num_dims, derivative_matrices, perm_numeric
from .ring import PolyMatrix


@dataclass(frozen=True)
class WeightAssignment:
    """Rows scaled with weight one; all other entries have weight zero."""

    shape: tuple
    rows: tuple  # 1-based row indices

    def __post_init__(self):
        k, n = self.shape
        rows = tuple(sorted(set(self.rows)))
        if not rows or len(rows) >= k:
            raise StructuralError("weight-one rows must be a nonempty proper subset")
        if rows[0] < 1 or rows[-1] > k:
            raise StructuralError("row index out of range")
        object.__setattr__(self, "rows", rows)

    @property
    def fixed_dim(self) -> int:
        k, n = self.shape
        return (k - len(self.rows)) * n


@dataclass(frozen=True)
class TypeReport:
    """Rank data of the derived sub-permanent matrix at one probe point."""

    shape: tuple
    mode: str
    point: tuple
    rank: int
    corank: int
    kernel_basis: tuple
    seed: int | None = None

    @property
    def type(self) -> int:
        return self.corank

    def to_json(self) -> dict:
        return {
            "shape": list(self.shape),
            "mode": self.mode,
            "point": [list(r) for r in self.point],
            "rank": self.rank,
            "corank": self.corank,
            "type": self.type,
            "kernel_basis": [list(v) for v in self.kernel_basis],
            "seed": self.seed,
        }


def limit_map(p, w: WeightAssignment):
    """Image of a matrix under t -> 0: the weight-one rows are zeroed."""
    m, n = _num_dims(p)
    if (m, n) != w.shape:
        raise StructuralError(f"matrix shape {(m, n)} != action shape {w.shape}")
    zero_rows = set(w.rows)
    return [
        [0] * n if (i + 1) in zero_rows else list(row)
        for i, row in enumerate(p)
    ]


def is_fixed(p, w: WeightAssignment) -> bool:
    m, n = _num_dims(p)
    if (m, n) != w.shape:
        return False
    return all(all(x == 0 for x in p[i - 1]) for i in w.rows)


def classify_type(A_p, mode: str, seed: int | None = None) -> TypeReport:
    """Exact rank/corank/kernel of the derived matrix at a probe point."""
    B = derivative_matrices(A_p, mode)
    size = len(B)
    rank, kernel = linalg.rank_kernel(B)
    m, n = _num_dims(A_p)
    return TypeReport(
        shape=(m, n),
        mode=mode,
        point=tuple(tuple(r) for r in A_p),
        rank=rank,
        corank=size - rank,
        kernel_basis=tuple(tuple(v) for v in kernel),
        seed=seed,
    )


def kernel_extension_check(A_p, q, mode: str) -> bool:
    """Whether stacking kernel candidates on top of A_p lands in the stratum.

    mode "B1": one vector q; the stacked k x (k+1) matrix must have all its
    k x k permanents vanishing.  mode "L": a pair (q1, q2); the stacked
    k x k matrix must kill all (k-1) x (k-1) permanents.
    """
    m, n = _num_dims(A_p)
    if mode == "B1":
        rows = [list(q)] + [list(r) for r in A_p]
        size = n - 1
    elif mode == "L":
        q1, q2 = q
        rows = [list(q1), list(q2)] + [list(r) for r in A_p]
        size = n - 1
    else:
        raise StructuralError(f"unknown mode {mode!r}")
    if any(len(r) != n for r in rows):
        raise StructuralError("kernel vector length mismatch")
    from itertools import combinations

    total = len(rows)
    for rs in combinations(range(total), size):
        for cs in combinations(range(n), size):
            sub = [[rows[i][j] for j in cs] for i in rs]
            if perm_numeric(sub) != 0:
                return False
    return True


def jacobian(fs) -> PolyMatrix:
    """The Jacobian of a nonempty polynomial family: row f holds df/dx_i."""
    nvars = len(fs[0].ring.universe)
    return PolyMatrix([[f.diff(i) for i in range(nvars)] for f in fs])


def jacobian_rank_at(fs, point) -> int:
    """Exact rank of the Jacobian of a polynomial family at a point.

    ``fs`` is the family, or its :func:`jacobian` when one family is probed
    at many points, so that it is differentiated only once.
    """
    jac = fs
    if not isinstance(jac, PolyMatrix):
        fs = list(fs)
        if not fs:
            return 0
        jac = jacobian(fs)
    rows = [[d.evaluate(point) for d in row] for row in jac.rows]
    domain = jac.ring.domain
    if domain.kind == "fp":
        return linalg.rank_modp(rows, domain.modulus)
    return linalg.rank(rows)


def tangent_decomposition(p, w: WeightAssignment, gens) -> tuple:
    """Dimensions (dim T^0, dim T^1) of the tangent space at a fixed point.

    Computed two ways and cross-checked: from the kernel of the evaluated
    Jacobian of ``gens`` split by weight, and from the corank of the derived
    sub-permanent matrix of the nonzero block.
    """
    k, n = w.shape
    if not is_fixed(p, w):
        raise PreconditionError("point is not fixed under the torus action")
    gens = list(gens)
    if not gens:
        raise StructuralError("no defining equations supplied")
    ring = gens[0].ring
    if ring.universe.shape != (k, n):
        raise StructuralError("generators do not live on the action's matrix space")
    flat = [x for row in p for x in row]
    nvars = k * n
    jac = [[d.evaluate(flat) for d in row] for row in jacobian(gens).rows]
    # weight-0 columns must vanish at a fixed point of these setups
    weight1_cols = [
        (i - 1) * n + j for i in w.rows for j in range(n)
    ]
    weight0_cols = [c for c in range(nvars) if c not in weight1_cols]
    if any(jac[r][c] != 0 for r in range(len(gens)) for c in weight0_cols):
        raise PreconditionError(
            "Jacobian has weight-zero directions; generators do not match the action"
        )
    block = [[row[c] for c in weight1_cols] for row in jac]
    if ring.domain.kind == "fp":
        rank = linalg.rank_modp(block, ring.domain.modulus)
    else:
        rank = linalg.rank(block)
    t0 = w.fixed_dim
    t1 = len(weight1_cols) - rank
    # cross-check against the derived-matrix corank formula
    nonzero_rows = [list(p[i]) for i in range(k) if (i + 1) not in set(w.rows)]
    if len(w.rows) == 1 and n == k + 1:
        B = derivative_matrices(nonzero_rows, "B1")
        corank = len(B) - linalg.rank(B)
        expected = corank
    elif len(w.rows) == 2 and n == k:
        L = derivative_matrices(nonzero_rows, "L")
        corank = len(L) - linalg.rank(L)
        expected = 2 * corank
    else:
        raise PreconditionError("unsupported weight assignment for this check")
    if t1 != expected:
        raise PreconditionError(
            f"weight-one tangent dimension {t1} != derived-matrix value {expected}"
        )
    return t0, t1


# ---------------------------------------------------------------------------
# sampling helpers

PROBE_RANGE = 999
PROBE_SAMPLES = 20


def random_probe(rows: int, cols: int, rng: random.Random):
    """Integer probe point with entries uniform in [-999, 999]."""
    return [[rng.randint(-PROBE_RANGE, PROBE_RANGE) for _ in range(cols)] for _ in range(rows)]


def generic_rank(shape, mode: str, seed: int, samples: int = PROBE_SAMPLES):
    """Sampled generic rank of the derived matrix; requires all samples to agree."""
    rng = random.Random(seed)
    m, n = shape
    ranks = set()
    for _ in range(samples):
        A = random_probe(m, n, rng)
        ranks.add(classify_type(A, mode).rank)
    if len(ranks) != 1:
        raise PreconditionError(f"samples disagree on generic rank: {sorted(ranks)}")
    return ranks.pop()


def border_pattern_matrix(k: int, a, b):
    """k x k symmetric pattern: zero diagonal, ``a`` off-diagonal in the top
    (k-1) block, ``b`` along the last row and column."""
    if k < 2:
        raise StructuralError("pattern needs k >= 2")
    E = [[0] * k for _ in range(k)]
    for i in range(k - 1):
        for j in range(k - 1):
            if i != j:
                E[i][j] = a
    for i in range(k - 1):
        E[i][k - 1] = b
        E[k - 1][i] = b
    return E
