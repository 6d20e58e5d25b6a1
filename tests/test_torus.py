"""Torus-action machinery: type classification, kernel extensions, Jacobian
ranks, and a reference weight-0/1 action (limit map, tangent decomposition)
cross-checked against the derived-matrix corank."""

import random
from dataclasses import dataclass

import pytest

from permvar import linalg
from permvar.errors import PreconditionError, StructuralError
from permvar.groebner import over_prime, transport
from permvar.permanent import (
    GenericMatrixSpec,
    derivative_matrices,
    kirkup_matrix,
    permanental_ideal,
)
from permvar.ring import QQ, PolyRing, VarUniverse
from permvar.torus import (
    border_pattern_matrix,
    classify_type,
    jacobian,
    jacobian_rank_at,
    kernel_extension_check,
)

RNG = random.Random(77)
P1 = 2147483647
P2 = 1073741789


def random_probe(rows, cols, rng):
    """Integer probe point with entries uniform in [-999, 999]."""
    return [[rng.randint(-999, 999) for _ in range(cols)] for _ in range(rows)]


# ---------------------------------------------------------------------------
# reference code: the weight-0/1 scaling action, its limit map and the weight
# split of the tangent space at a fixed point


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


def _shape(p):
    return (len(p), len(p[0]) if p else 0)


def limit_map(p, w: WeightAssignment):
    """Image of a matrix under t -> 0: the weight-one rows are zeroed."""
    if _shape(p) != w.shape:
        raise StructuralError(f"matrix shape {_shape(p)} != action shape {w.shape}")
    return [[0] * len(row) if (i + 1) in w.rows else list(row) for i, row in enumerate(p)]


def is_fixed(p, w: WeightAssignment) -> bool:
    return _shape(p) == w.shape and all(all(x == 0 for x in p[i - 1]) for i in w.rows)


def tangent_decomposition(p, w: WeightAssignment, gens) -> tuple:
    """Dimensions (dim T^0, dim T^1) of the tangent space at a fixed point.

    Computed two ways and cross-checked: from the kernel of the evaluated
    Jacobian of ``gens`` split by weight, and from the corank of the derived
    sub-permanent matrix of the nonzero block.  Ranks are taken over QQ, so
    ``gens`` must have integer or rational coefficients.
    """
    k, n = w.shape
    if not is_fixed(p, w):
        raise PreconditionError("point is not fixed under the torus action")
    flat = [x for row in p for x in row]
    jac = [[d.evaluate([flat])[0] for d in row] for row in jacobian(gens).rows]
    weight1_cols = [(i - 1) * n + j for i in w.rows for j in range(n)]
    weight0_cols = [c for c in range(k * n) if c not in weight1_cols]
    # weight-0 columns must vanish at a fixed point of these setups
    if any(row[c] != 0 for row in jac for c in weight0_cols):
        raise PreconditionError("Jacobian has weight-zero directions")
    block = [[row[c] for c in weight1_cols] for row in jac]
    t1 = len(weight1_cols) - linalg.rank(block)
    nonzero_rows = [list(p[i]) for i in range(k) if (i + 1) not in w.rows]
    if len(w.rows) == 1 and n == k + 1:
        (B,) = derivative_matrices([nonzero_rows])
        expected = len(B) - linalg.rank(B)
    elif len(w.rows) == 2 and n == k:
        (L,) = derivative_matrices([nonzero_rows])
        expected = 2 * (len(L) - linalg.rank(L))
    else:
        raise PreconditionError("unsupported weight assignment for this check")
    if t1 != expected:
        raise PreconditionError(f"weight-one tangent dimension {t1} != derived value {expected}")
    return w.fixed_dim, t1


def test_weight_assignment_validation():
    WeightAssignment((3, 4), (1,))
    with pytest.raises(StructuralError):
        WeightAssignment((3, 4), ())
    with pytest.raises(StructuralError):
        WeightAssignment((3, 4), (1, 2, 3))  # not proper
    with pytest.raises(StructuralError):
        WeightAssignment((3, 4), (5,))


def test_limit_map_zeroes_weight_one_rows():
    w = WeightAssignment((3, 4), (1,))
    K = kirkup_matrix(3)
    lm = limit_map(K, w)
    assert lm == [[0, 0, 0, 0], K[1], K[2]]
    assert limit_map(lm, w) == lm  # idempotent
    assert is_fixed(lm, w)
    assert limit_map([[0] * 4] * 3, w) == [[0] * 4] * 3


def test_limit_map_image_is_fixed_locus():
    w = WeightAssignment((4, 4), (1, 2))
    for _ in range(20):
        p = random_probe(4, 4, RNG)
        q = limit_map(p, w)
        assert is_fixed(q, w)
        if is_fixed(p, w):
            assert q == p


def test_classify_type_random_full_rank():
    # type 0 at a generic fixed point: the derived matrix has full rank
    for _ in range(20):
        A = random_probe(2, 4, RNG)
        rep = classify_type(A, "B1")
        assert rep.rank == 4 and rep.type == 0


def test_classify_type_kirkup_points():
    for k in range(3, 9):
        K = kirkup_matrix(k)
        rep = classify_type(K[1:], "B1")
        assert rep.rank == k
        assert rep.corank == 1
        assert rep.type == 1
    rep3 = classify_type(kirkup_matrix(3)[1:], "B1")
    assert rep3.kernel_basis == ((1, 1, 1, -7),)


def test_classify_type_zero_column_gives_rank_2():
    # a zero column isolates one nonzero row/column pair in the derived matrix
    for _ in range(20):
        k = RNG.randint(3, 5)
        A = random_probe(k - 1, k + 1, RNG)
        j = RNG.randrange(k + 1)
        for row in A:
            row[j] = 0
        rep = classify_type(A, "B1")
        assert rep.rank == 2
        assert rep.type == k - 1


def test_type_report_json():
    rep = classify_type(kirkup_matrix(3)[1:], "B1", seed=9)
    blob = rep.to_json()
    assert blob["rank"] == 3 and blob["type"] == 1 and blob["seed"] == 9
    assert blob["kernel_basis"] == [[1, 1, 1, -7]]
    # the mode only labels the report, but it must name a mode
    assert classify_type(kirkup_matrix(3)[1:], "L").rank == 3
    with pytest.raises(StructuralError):
        classify_type(kirkup_matrix(3)[1:], "bogus")


def test_kernel_extension_check_b1():
    K3 = kirkup_matrix(3)
    A_p = K3[1:]
    assert kernel_extension_check(A_p, (1, 1, 1, -7))
    assert kernel_extension_check(A_p, (0, 0, 0, 0))
    assert kernel_extension_check(A_p, (2, 2, 2, -14))  # kernel is a line
    A = random_probe(2, 4, RNG)
    assert not kernel_extension_check(A, (1, 0, 0, 0))


def test_kernel_extension_check_refuses_a_point_of_the_wrong_shape():
    """A_p must be (n-2) x n: a 1 x 4 point stacks to 2 x 4, which has no
    3 x 3 permanents to check, and must not pass vacuously."""
    for A in ([[1, 2, 3, 4]], [[1, 2, 3, 4]] * 3, []):
        with pytest.raises(StructuralError):
            kernel_extension_check(A, (5, 6, 7, 8))
    with pytest.raises(StructuralError):
        kernel_extension_check([[1, 2, 3, 4]] * 2, (5, 6, 7))


def test_kernel_extension_equivalence_with_kernel():
    """The stacked maximal permanents vanish exactly for kernel vectors."""
    for k in (3, 4):
        for _ in range(10):
            A = random_probe(k - 1, k + 1, RNG)
            j = RNG.randrange(k + 1)
            for row in A:
                row[j] = 0  # force corank so the kernel is nontrivial
            (B,) = derivative_matrices([A])
            for v in linalg.kernel_basis(B):
                assert kernel_extension_check(A, tuple(v))
            # a random non-kernel vector must fail
            for _ in range(5):
                q = [RNG.randint(-9, 9) for _ in range(k + 1)]
                in_kernel = all(
                    sum(B[i][j2] * q[j2] for j2 in range(k + 1)) == 0
                    for i in range(k + 1)
                )
                assert kernel_extension_check(A, tuple(q)) == in_kernel


def test_rank_never_one_sampled():
    for k in range(3, 7):
        for _ in range(200):
            A = random_probe(k - 1, k + 1, RNG)
            assert classify_type(A, "B1").rank != 1
        if k >= 4:
            for _ in range(200):
                A = random_probe(k - 2, k, RNG)
                assert classify_type(A, "L").rank != 1


def test_border_pattern_rank():
    for k in range(3, 9):
        for _ in range(30):
            a = RNG.choice([x for x in range(-50, 51) if x])
            b = RNG.choice([x for x in range(-50, 51) if x])
            assert linalg.rank(border_pattern_matrix(k, a, b)) == k


def test_jacobian_rank_constants():
    R = PolyRing(VarUniverse.matrix(2, 2), QQ)
    assert jacobian_rank_at(jacobian([R.const(3), R.const(0)]), [[1, 2, 3, 4]]) == [0]


@pytest.mark.parametrize("prime", [P1, P2])
def test_jacobian_rank_maximal_permanents(prime):
    rng = random.Random(55)
    for k in (2, 3, 4):
        jac = jacobian(over_prime(permanental_ideal(GenericMatrixSpec(k, k + 1)), prime))
        pt = [rng.randrange(prime) for _ in range(k * (k + 1))]
        assert jacobian_rank_at(jac, [pt]) == [k + 1]


@pytest.mark.parametrize("prime", [P1, P2])
def test_jacobian_rank_2x5_never_full(prime):
    rng = random.Random(56)
    jac = jacobian(over_prime(permanental_ideal(GenericMatrixSpec(2, 5)), prime))
    for _ in range(50):
        pt = [rng.randrange(prime) for _ in range(10)]
        [rank] = jacobian_rank_at(jac, [pt])
        assert rank <= 9


def _qq_gens(k, n):
    gens = permanental_ideal(GenericMatrixSpec(k, n))
    ring = gens[0].ring.with_domain(QQ)
    return [transport(g, ring) for g in gens]


def test_tangent_decomposition_kirkup():
    for k in (3, 4, 5):
        w = WeightAssignment((k, k + 1), (1,))
        p = limit_map(kirkup_matrix(k), w)
        assert tangent_decomposition(p, w, _qq_gens(k, k + 1)) == ((k - 1) * (k + 1), 1)


def test_tangent_decomposition_generic_and_zero():
    w = WeightAssignment((3, 4), (1,))
    gens = _qq_gens(3, 4)
    p = [[0] * 4] + random_probe(2, 4, RNG)
    assert tangent_decomposition(p, w, gens) == (8, 0)
    assert tangent_decomposition([[0] * 4] * 3, w, gens) == (8, 4)


def test_tangent_decomposition_two_row_mode():
    w = WeightAssignment((4, 4), (1, 2))
    gens = permanental_ideal(GenericMatrixSpec(4, 4, h=3))
    ring = gens[0].ring.with_domain(QQ)
    gens = [transport(g, ring) for g in gens]
    p = [[0] * 4, [0] * 4] + random_probe(2, 4, RNG)
    t0, t1 = tangent_decomposition(p, w, gens)
    assert t0 == 8
    (L,) = derivative_matrices([p[2:]])
    assert t1 == 2 * (len(L) - linalg.rank(L))


def test_tangent_decomposition_requires_fixed_point():
    w = WeightAssignment((3, 4), (1,))
    gens = _qq_gens(3, 4)
    with pytest.raises(PreconditionError):
        tangent_decomposition(kirkup_matrix(3), w, gens)
