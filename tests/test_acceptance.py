"""Acceptance suite: one test per headline criterion, exact comparisons.

Every test prints one [PASS]/[FAIL] line (visible with ``pytest -s``) and
enforces its wall-clock budget.  The extended tier's cases (criterion 12
and radical-eq-sing-k3) run here too.
"""

import time

from permvar.config import CliConfig
from permvar.experiments import reproduce

CFG = CliConfig()


def _report(number: int, description: str, passed: bool, wall_s: float, budget_s: float):
    status = "PASS" if passed and wall_s < budget_s else "FAIL"
    print(f"[{status}] criterion {number}: {description} ({wall_s:.1f}s / budget {budget_s:.0f}s)")
    assert passed, f"criterion {number} failed: {description}"
    assert wall_s < budget_s, f"criterion {number} exceeded budget: {wall_s:.1f}s"


def _case(number: int, case_id: str, description: str, budget_s: float, **overrides):
    t0 = time.monotonic()
    rep = reproduce(case_id, CFG, **overrides)
    wall = time.monotonic() - t0
    if not rep.passed:
        print(f"  measured: {rep.measured}")
        print(f"  expected: {rep.expected}")
    _report(number, description, rep.passed and rep.prime_agreement, wall, budget_s)
    return rep


def test_criterion_01_codim_2xn():
    _case(1, "codim-2xn", "codim of the 2xn permanental ideal is n (n=3,4,5, both primes)", 30)


def test_criterion_02_component_census():
    _case(
        2,
        "census-2xn",
        "2 + C(n,2) components, radical-equal intersection, n^2 lines in >= 2 components (n=3,4)",
        300,
    )


def test_criterion_03_hankel_degree8():
    _case(
        3,
        "hankel-degree8",
        "Hankel 2xn scheme: two charts, local degree 4, total 8, stated monomial basis, exact syzygy (n=4..7)",
        60,
    )


def test_criterion_04_circulant_slice_heights():
    t0 = time.monotonic()
    rep3 = reproduce("slice-circulant3", CFG)
    wall3 = time.monotonic() - t0
    _report(4, "ht of the 3x4 circulant slice ideal is 4 (codim bound 4)", rep3.passed, wall3, 10)
    t0 = time.monotonic()
    rep4 = reproduce("slice-circulant4", CFG)
    wall4 = time.monotonic() - t0
    _report(4, "ht of the 4x5 circulant slice ideal is 5 (codim bound 5)", rep4.passed, wall4, 600)


def test_criterion_05_codim_kxk1_direct():
    _case(5, "codim-kxk1", "codim of the k x (k+1) permanental ideal is k+1 (k=2,3, both primes)", 120)


def test_criterion_06_saturation_degree66():
    _case(6, "saturation-J3", "saturation by all variables: codim 4, degree 66", 600)


def test_criterion_07_kirkup_vanishing():
    _case(7, "kirkup-vanish", "Kirkup matrices k=3..10: all maximal permanents vanish; prk = 2 at k=3", 5)


def test_criterion_08_kirkup_type_one():
    rep = _case(
        8,
        "kirkup-b1-rank",
        "sub-permanent matrix rank k at Kirkup points k=3..8; kernel (1,1,1,-7) at k=3 extends",
        5,
    )
    assert rep.measured["kernel_3"] == [[1, 1, 1, -7]]


def test_criterion_09_symbolic_determinants():
    _case(
        9,
        "symbolic-determinants",
        "closed-form determinants: bordered matrix -2a^h b1 b2 (h=1,2) and d(d^2-db+2ac-d+b)",
        5,
    )


def test_criterion_10_jacobian_criteria():
    t0 = time.monotonic()
    rep_i = reproduce("jacobian-independence", CFG)
    rep_d = reproduce("jacobian-dependence-2x5", CFG)
    wall = time.monotonic() - t0
    _report(
        10,
        "Jacobian rank k+1 for maximal permanents (k=2..4); 2x5 family rank <= 9 at 50 points",
        rep_i.passed and rep_d.passed,
        wall,
        60,
    )


def test_criterion_11_circulant_2x2_suite():
    _case(
        11,
        "circulant-2x2",
        "x_j^2 in the circulant 2x2-permanent ideal and codim k+1 (k=3..8)",
        120,
    )


def test_criterion_12_script_reproductions():
    t0 = time.monotonic()
    rep45 = reproduce("script-4x5", CFG)
    rep56 = reproduce("script-5x6", CFG)
    wall = time.monotonic() - t0
    if not (rep45.passed and rep56.passed):
        print("  4x5:", rep45.measured, "5x6:", rep56.measured)
    _report(
        12,
        "sliced determinant singular locus is zero-dimensional (4x5); 3x3-minor locus codim 4 (5x6, explicit slice)",
        rep45.passed and rep56.passed,
        wall,
        3600,
    )


def test_criterion_13_property_suites():
    t0 = time.monotonic()
    ids = [
        ("perm-engines-agree", "Ryser = Glynn = symbolic on 200 random matrices per size <= 7"),
        ("derivative-symmetry", "derived matrices symmetric with zero diagonal"),
        ("rank-never-one", "sampled derived-matrix rank never equals 1 (1000 samples per shape, k <= 6)"),
        ("e-pattern-rank", "bordered pattern matrix has rank k (k=3..8)"),
        ("sing-upper-witness", "two-zero-row space satisfies all (k-1)-permanents identically (k=4..8)"),
    ]
    ok = True
    for cid, _desc in ids:
        rep = reproduce(cid, CFG)
        if not rep.passed:
            print(f"  property case failed: {cid}: {rep.measured}")
        ok &= rep.passed
    wall = time.monotonic() - t0
    _report(13, "property suites (engines, symmetry, rank, patterns, witness space)", ok, wall, 900)


def test_criterion_bonus_lemma_containments():
    # partition containments back the singular-locus analysis at desk scale
    _case(14, "lemma422-containment", "(k-1)-permanent ideal inside every partition block sum (k=3,4)", 300)


def test_criterion_bonus_radical_equality_k3():
    _case(15, "radical-eq-sing-k3", "radical identity for the 3x3 singular locus, both inclusions", 3600)
