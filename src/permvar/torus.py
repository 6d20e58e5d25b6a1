"""Weight-0/1 torus actions on matrix space: corank strata at fixed points,
component-type reports, kernel extensions and Jacobian ranks.

The scaling action multiplies a chosen set of rows by t.  Its fixed locus is
the set of matrices vanishing on those rows, and the weight-one part of the
tangent space at a fixed point is controlled by a symmetric matrix of
sub-permanents of the nonzero block (built in :mod:`permvar.permanent`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from . import linalg
from .errors import StructuralError
from .permanent import derivative_matrices, maximal_permanents_vanish
from .ring import PolyMatrix


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


def classify_type(A_p, mode: str, seed: int | None = None) -> TypeReport:
    """Exact rank/corank/kernel of the derived matrix at a probe point;
    ``mode`` ("B1" or "L") labels the report."""
    if mode not in ("B1", "L"):
        raise StructuralError(f"unknown mode {mode!r}")
    (B,) = derivative_matrices([A_p])
    size = len(B)
    rank, kernel = linalg.rank_kernel(B)
    m, n = linalg._dims(A_p)
    return TypeReport(
        shape=(m, n),
        mode=mode,
        point=tuple(tuple(r) for r in A_p),
        rank=rank,
        corank=size - rank,
        kernel_basis=tuple(tuple(v) for v in kernel),
        seed=seed,
    )


def kernel_extension_check(A_p, q) -> bool:
    """Whether stacking the kernel candidate ``q`` on top of the (k-1) x (k+1)
    point A_p lands in the stratum: all k x k permanents of the stacked
    k x (k+1) matrix must vanish."""
    m, n = linalg._dims(A_p)
    if m != n - 2:
        raise StructuralError(f"expected an m x (m+2) point, got {m}x{n}")
    if len(q) != n:
        raise StructuralError("kernel vector length mismatch")
    return maximal_permanents_vanish([list(q)] + [list(r) for r in A_p])


def jacobian(fs) -> PolyMatrix:
    """The Jacobian of a nonempty polynomial family: row f holds df/dx_i."""
    nvars = len(fs[0].ring.universe)
    return PolyMatrix([[f.diff(i) for i in range(nvars)] for f in fs])


def jacobian_rank_at(jac: PolyMatrix, points) -> list:
    """Exact ranks of a family's :func:`jacobian` at a batch of points, one
    per point in batch order.  The Jacobian is built once for all the points
    a family is probed at, and each entry is evaluated once per batch."""
    values = [[d.evaluate(points) for d in row] for row in jac.rows]
    domain = jac.ring.domain
    if domain.kind == "fp":
        rank = partial(linalg.rank_modp, p=domain.modulus)
    else:
        rank = linalg.rank
    return [rank([[v[t] for v in row] for row in values]) for t in range(len(points))]


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
