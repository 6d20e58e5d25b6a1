"""Reproduction-case registry, runners, determinism, and report plumbing."""

import hashlib
import json
import math
import random
from importlib import resources
from itertools import combinations, permutations
from types import SimpleNamespace

import pytest

from permvar.budget import Budget
from permvar.config import DEFAULT_SEED, CliConfig
from permvar.errors import InternalConsistencyError, PreconditionError, StructuralError
from permvar.experiments import (
    _RUNNERS,
    SCRIPT_5X6_A,
    _component_ideals_2xn,
    _line_in_component,
    _partition_sum_ideals,
    _per_prime,
    _per_value,
    _script_slice,
    _singular_lines_2xn,
    append_report,
    build_slice,
    case_ids,
    hankel_chart_case,
    hankel_chart_generators,
    hankel_syzygy_identity,
    homogeneous_dim0_certificate,
    registry,
    reproduce,
    slice_codim_bound,
    slice_height,
    symbolic_determinant_identities,
    two_zero_row_witness,
)
from permvar.groebner import buchberger, ideal_dimension, over_prime
from permvar.permanent import (
    GenericMatrixSpec,
    derivative_matrix_symbolic,
    generic_matrix,
    matrix_permanents,
    permanental_ideal,
)
from permvar.ring import GF, ZZ, PolyMatrix, PolyRing, VarUniverse, matrix_minors


def test_registry_integrity():
    reg = registry()
    assert len(reg) == len(case_ids())
    for cid, spec in reg.items():
        assert spec.id == cid
        assert cid in _RUNNERS, f"case {cid} has no runner"
        assert spec.provenance in ("paper", "derived", "trivial")
        assert spec.tier in ("default", "extended")
        assert spec.timeout_s > 0
    for cid in _RUNNERS:
        assert cid in reg, f"runner {cid} not registered"


def test_registry_refuses_a_repeated_id(monkeypatch):
    from permvar import experiments

    cases = json.loads(resources.files("permvar").joinpath("cases.json").read_text())
    monkeypatch.setattr(experiments, "json", SimpleNamespace(loads=lambda _: cases + cases[:1]))
    registry.cache_clear()
    try:
        with pytest.raises(StructuralError, match="duplicate case ids"):
            registry()
    finally:
        registry.cache_clear()


def test_unknown_case_rejected():
    with pytest.raises(StructuralError):
        reproduce("no-such-case")


@pytest.mark.parametrize(
    "primes", [(65537, 65537), (4, 65537), (65537, 1), ("7", 65537)], ids=str
)
def test_reproduce_refuses_primes_before_the_runner(monkeypatch, primes):
    """reproduce is the one reader of both primes: a repeated prime would
    make the two-prime agreement check vacuous, so it is refused before any
    runner work."""
    from permvar import experiments

    def runner(spec, cfg):
        pytest.fail("the runner started")

    monkeypatch.setitem(experiments._RUNNERS, "codim-2xn", runner)
    with pytest.raises(StructuralError):
        reproduce("codim-2xn", CliConfig(prime=primes[0], prime2=primes[1]))


def test_a_raising_runner_is_a_failed_case_and_the_run_goes_on(monkeypatch, capsys):
    """An error inside one runner is that case's ``failed-error`` report; the
    cases after it still run, and the CLI exits 1, not 2."""
    from permvar import experiments
    from permvar.cli import main
    from permvar.errors import CapacityError

    ids = [cid for cid in case_ids() if registry()[cid].tier == "default"]
    bad = ids[1]

    def fails(spec, cfg):
        raise CapacityError("too big")

    for cid in ids:
        monkeypatch.setitem(experiments._RUNNERS, cid, lambda spec, cfg: (spec.expected, True))
    monkeypatch.setitem(experiments._RUNNERS, bad, fails)
    reports = list(experiments.reproduce_all(CliConfig()))
    assert [r.id for r in reports] == ids
    failed = [r for r in reports if not r.passed]
    assert [r.id for r in failed] == [bad]
    assert failed[0].canonical_dict()["status"] == "failed-error"
    assert failed[0].measured == {"error": "too big"} and not failed[0].prime_agreement
    assert main(["reproduce", "all"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert sum(ln.startswith("[PASS] ") for ln in lines) == len(ids) - 1
    assert f"[FAIL] {bad} (" in lines[1]


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_reproduce_all_prints_each_case_when_it_finishes(monkeypatch, capsys, flags):
    """``reproduce all`` prints each case's report when the case returns, not
    after the last one: the second case's runner already sees the first
    case's line on stdout."""
    from permvar import experiments
    from permvar.cli import main

    ids = [cid for cid in case_ids() if registry()[cid].tier == "default"]
    seen = []

    def runner(spec, cfg):
        seen.append(capsys.readouterr().out)
        return spec.expected, True

    for cid in ids:
        monkeypatch.setitem(experiments._RUNNERS, cid, runner)
    assert main(["reproduce", "all", *flags]) == 0
    assert seen[0] == ""
    if flags:
        assert json.loads(seen[1])["id"] == ids[0]
    else:
        assert seen[1].startswith(f"[PASS] {ids[0]} (")


def test_reproduce_is_deterministic():
    cfg = CliConfig()
    a = reproduce("kirkup-b1-rank", cfg)
    b = reproduce("kirkup-b1-rank", cfg)
    assert a.canonical_dict() == b.canonical_dict()
    assert a.passed


def test_reproduce_deterministic_across_processes():
    """Seeded cases emit identical canonical reports from fresh interpreters."""
    import subprocess
    import sys

    snippet = (
        "import json; from permvar.experiments import reproduce; "
        "print(json.dumps(reproduce('jacobian-independence').canonical_dict(), sort_keys=True))"
    )
    outs = [
        subprocess.run(
            [sys.executable, "-c", snippet], capture_output=True, text=True, check=True
        ).stdout
        for _ in range(2)
    ]
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["passed"] is True


@pytest.mark.parametrize("seed", [0, 5])
def test_probe_points_are_the_randint_stream(seed, monkeypatch):
    """The probes come in one batch per shape and draw ``randrange(19) - 9``,
    which takes the same values from the seeded stream as
    ``randint(-9, 9)``; both probe cases check the budget once per point,
    before testing its matrix."""
    import random

    from permvar import experiments
    from permvar.experiments import _probe_points

    checks = []
    monkeypatch.setattr(experiments, "check", checks.append)

    spec = registry()["rank-never-one"]
    rng = random.Random(seed)
    want = [
        [
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            for _ in range(spec.params["trials"])
        ]
        for k in spec.params["k"]
        for m, n in ((k - 1, k + 1), (k - 2, k))
        if m >= 1
    ]
    cfg = CliConfig(seed=seed)
    assert list(_probe_points(spec, cfg)) == want
    assert checks == []
    for case_id, run in (
        ("rank-never-one", experiments._run_rank_never_one),
        ("derivative-symmetry", experiments._run_derivative_symmetry),
    ):
        checks.clear()
        run(registry()[case_id], cfg)
        assert checks == ["probe"] * sum(map(len, _probe_points(registry()[case_id], cfg)))


@pytest.mark.parametrize("case_id", ["derivative-symmetry", "rank-never-one"])
def test_probe_cases_refuse_a_wrong_lane_engine(case_id, monkeypatch):
    """A lane ``__add__`` that multiplies keeps every derived matrix
    symmetric with a zero diagonal and never of rank one, so only the
    probe cases' own check of each batch against the lane-free expansion
    of its first and last points can catch it."""
    from operator import mul

    from permvar import permanent

    monkeypatch.setattr(
        permanent._Lanes, "__add__", lambda self, other: permanent._Lanes(map(mul, self, other))
    )
    rep = reproduce(case_id)
    assert rep.status == "failed-error"
    assert not rep.passed
    assert "differs from its own expansion" in rep.measured["error"]


def test_hankel_charts_share_one_generator_set(monkeypatch):
    """The mirrored chart's generators are the first chart's, so one basis
    serves both; a chart that differs is an internal fault, not a result."""
    from permvar import experiments

    for n in range(4, 8):
        ring = PolyRing(VarUniverse.free([f"x{i}" for i in range(n)]), GF(65537))
        first, mirrored = hankel_chart_generators(ring)
        assert first != mirrored and set(first) == set(mirrored)
    assert hankel_chart_case(5, 65537)["local_degrees"] == [4, 4]

    def asymmetric(ring):
        first, mirrored = hankel_chart_generators(ring)
        return first, mirrored[1:]

    monkeypatch.setattr(experiments, "hankel_chart_generators", asymmetric)
    with pytest.raises(InternalConsistencyError):
        hankel_chart_case(5, 65537)


NARROWED = [  # case id, list parameter, one registered value, table name
    ("codim-2xn", "n", 4, "codim"),
    ("codim-kxk1", "k", 2, "codim"),
    ("census-2xn", "n", 3, None),
    ("hankel-degree8", "n", 5, None),
    ("circulant-2x2", "k", 3, None),
    ("lemma422-containment", "k", 3, "containment"),
]


@pytest.mark.parametrize("case_id,key,value,table", NARROWED, ids=[c[0] for c in NARROWED])
def test_parameter_override_narrows_case(case_id, key, value, table):
    """A narrowed case measures and expects a one-entry table, under the
    case's table name when it has one, and refuses an unregistered value."""
    rep = reproduce(case_id, **{key: value})
    pinned = registry()[case_id].expected
    want = {str(value): (pinned[table] if table else pinned)[str(value)]}
    assert rep.passed
    assert (rep.measured[table] if table else rep.measured) == want
    assert (rep.expected[table] if table else rep.expected) == want
    with pytest.raises(StructuralError):
        reproduce(case_id, **{key: 17})


def test_report_json_and_jsonl(tmp_path):
    rep = reproduce("symbolic-determinants")
    blob = rep.to_json()
    assert json.loads(json.dumps(blob)) == blob
    assert blob["id"] == "symbolic-determinants"
    assert blob["primes"] == [2147483647, 1073741789]
    path = tmp_path / "results.jsonl"
    append_report(rep, str(path))
    append_report(rep, str(path))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    parsed = json.loads(lines[0])
    assert parsed["passed"] is True


def test_build_slice_kinds():
    H = build_slice("hankel2xn", 3)
    assert [[e.text() for e in r] for r in H.rows] == [
        ["x0", "x1", "x2"],
        ["x1", "x2", "x3"],
    ]
    H3 = build_slice("circulant3")
    assert H3[2, 3].text() == "x_1_1"
    H4 = build_slice("circulant4")
    assert H4.dims == (4, 5)
    C = build_slice("circulant2xn", 2)
    assert [e.text() for e in C.rows[1]] == ["x_1_2", "x_1_3", "x_1_1"]
    with pytest.raises(StructuralError):
        build_slice("hankel2xn")
    with pytest.raises(StructuralError):
        build_slice("nope")
    with pytest.raises(StructuralError):
        build_slice("circulant3", 9)


def test_slice_bound_never_exceeds_plain_codim():
    """Soundness: the sliced height is a lower bound for the codimension.

    Compared against the directly computed codimension where that is cheap
    (the 3x4 case); the 4x5 slice checks only the bound value itself.
    """
    p = 2147483647
    gens = over_prime(permanental_ideal(GenericMatrixSpec(3, 4)), p)
    bound = slice_height(build_slice("circulant3"), p)
    plain = ideal_dimension(buchberger(gens)).codim
    assert bound <= plain
    assert bound == 4  # and here the bound is sharp


def test_identity_slice_gives_plain_codim():
    p = 2147483647
    gens = over_prime(permanental_ideal(GenericMatrixSpec(2, 3)), p)
    ring = gens[0].ring
    ident = {nm: ring.gen(nm) for nm in ring.universe.names}
    bound = slice_codim_bound(gens, ident, ring)
    assert bound == ideal_dimension(buchberger(gens)).codim == 3


def test_component_census_n3():
    rep = reproduce("census-2xn", n=3)
    assert rep.passed and rep.prime_agreement
    assert rep.measured == {
        "3": {
            "components": 5,
            "lines": 9,
            "containment": True,
            "radical_equal": True,
            "lines_in_two_components": True,
        }
    }


def test_census_runs_after_a_free_ring_with_the_matrix_names():
    """A free ring named like the generic 2 x 3 matrix, as ``load_ideal_file``
    builds for a file of its permanental ideal, is that matrix's ring: the
    census still finds its variables by name.  (The two primes are used by
    no other test, so the free ring is the first built over them.)"""
    names = [f"x_{i}_{j}" for i in (1, 2) for j in (1, 2, 3)]
    PolyRing(VarUniverse.free(names), GF(65521))
    rep = reproduce("census-2xn", CliConfig(prime=65521, prime2=65519), n=3)
    assert rep.canonical_dict()["status"] == "done" and rep.passed


def test_census_rejects_big_n():
    with pytest.raises(StructuralError):
        reproduce("census-2xn", n=6)


def test_per_prime_calls_in_order_and_compares():
    calls = []

    def fn(p):
        calls.append(p)
        return p % 4

    assert _per_prime((5, 13), fn) == (1, True)
    assert _per_prime((5, 7), fn) == (1, False)
    assert calls == [5, 13, 5, 7]


def test_per_value_runs_values_outer_primes_inner():
    """``fn(v, p)`` runs for each prime before the next value starts."""
    calls = []

    def fn(v, p):
        calls.append((v, p))
        return v * p if v == 3 else v

    spec = registry()["codim-2xn"]  # n in [3, 4, 5]
    measured, agree = _per_value(spec, CliConfig(prime=5, prime2=7), "n", fn)
    assert measured == {"3": 15, "4": 4, "5": 5} and agree is False
    assert calls == [(3, 5), (3, 7), (4, 5), (4, 7), (5, 5), (5, 7)]
    assert _per_value(spec, CliConfig(prime=5, prime2=7), "n", lambda v, p: v)[1]


def test_inconclusive_certificate_is_no_agreement(monkeypatch):
    """script-5x6 gives the codimension, its 4 variables, only when the
    certificate fills at the first prime, and agreement only when it fills
    at every prime: two inconclusive certificates agree on None, but
    certify nothing."""
    from permvar import experiments

    spec, cfg = registry()["script-5x6"], CliConfig()
    for fills, codim, agree in (((), None, False), ((cfg.prime,), 4, False), (cfg.primes, 4, True)):

        def certificate(gens, p, fills=fills, minors=None):
            return 13 if p in fills else None  # a fill degree, or inconclusive

        monkeypatch.setattr(experiments, "homogeneous_dim0_certificate", certificate)
        measured, ok = experiments._run_script_5x6(spec, cfg)
        assert (measured["minors3_codim"], ok) == (codim, agree)


def test_script_5x6_prepares_its_minors_once_per_prime(monkeypatch):
    """``distinct_minors`` is read from the first prime's preparation, which
    that prime's certificate reuses: one ``_minor_values`` call per prime."""
    from permvar import experiments

    spec, cfg = registry()["script-5x6"], CliConfig()
    prepared, minor_values = [], experiments._minor_values

    def counting(gens, p):
        prepared.append(p)
        return minor_values(gens, p)

    monkeypatch.setattr(experiments, "_minor_values", counting)
    measured, ok = experiments._run_script_5x6(spec, cfg)
    assert ok and measured == {"distinct_minors": 210, "minors3_codim": 4}
    assert sorted(prepared) == sorted(cfg.primes)


def test_symbolic_determinant_identities():
    out = symbolic_determinant_identities()
    assert out == {"det_S_h1": True, "det_S_h2": True, "det_Qprime": True}


# ---------------------------------------------------------------------------
# direct constructions against the substitutions they replaced: substitution
# is a ring map, so the direct build must give the same polynomials


def substituted_script_slice(k, A):
    """The derived matrix of rows 2..k of the generic k x (k+1) matrix with
    x_i_j, j >= 2, substituted column-major by the forms of A."""
    B1 = derivative_matrix_symbolic(PolyMatrix(generic_matrix(k, k + 1).rows[1:]))
    small = PolyRing(VarUniverse.free([f"x_{r}_1" for r in range(2, k + 1)]), ZZ)
    xs = small.gens()
    mapping, idx = {}, 0
    for j in range(2, k + 2):
        for i in range(2, k + 1):
            form = small.zero
            for r in range(k - 1):
                if A[r][idx]:
                    form = form + A[r][idx] * xs[r]
            mapping[f"x_{i}_{j}"] = form
            idx += 1
    return [[e.substitute(mapping, target=small) for e in row] for row in B1.rows]


def test_script_slice_equals_the_substituted_derived_matrix():
    rng = random.Random(41)
    draws = [[[rng.randrange(19) - 9 for _ in range(12)] for _ in range(3)] for _ in range(4)]
    for row in draws[0]:
        row[5] = 0  # a zero column: one form is the zero polynomial
    for A in draws:
        assert _script_slice(4, A).rows == substituted_script_slice(4, A)
    assert _script_slice(5, SCRIPT_5X6_A).rows == substituted_script_slice(5, SCRIPT_5X6_A)


def substituted_line_test(comp_gens, line, n):
    """Whether every generator maps to zero when the line's two variables go
    to s and u and every other variable of the 2 x n matrix to 0."""
    span_ring = PolyRing(VarUniverse.free(["s", "u"]), comp_gens[0].ring.domain)
    mapping = {f"x_{i}_{j}": span_ring.zero for i in (1, 2) for j in range(1, n + 1)}
    for (i, j), image in zip(line, span_ring.gens()):
        mapping[f"x_{i}_{j}"] = image
    return all(g.substitute(mapping, target=span_ring).is_zero() for g in comp_gens)


def random_sparse(ring, rng):
    """Up to four terms, each a constant or a product of one or two
    variables, so some terms use only one or two line variables."""
    nvars = len(ring.universe)
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * nvars
        for v in rng.sample(range(nvars), rng.randint(0, 2)):
            exps[v] = rng.randint(1, 3)
        terms[tuple(exps)] = rng.randint(1, 6)
    return ring.from_exp_dict(terms)


def test_line_test_equals_the_substitution():
    p = 101
    seen = set()
    for n in (3, 4):
        ring = generic_matrix(2, n, GF(p)).ring
        lines = _singular_lines_2xn(n)
        for comp in _component_ideals_2xn(n, ring):
            for line in lines:
                got = _line_in_component(comp, line)
                assert got == substituted_line_test(comp, line, n)
                seen.add(got)
        rng = random.Random(n)
        for _ in range(200):
            gens = [random_sparse(ring, rng) for _ in range(rng.randint(1, 2))]
            line = rng.choice(lines)
            got = _line_in_component(gens, line)
            assert got == substituted_line_test(gens, line, n)
            seen.add(got)
    assert seen == {True, False}
    # a constant, and a term in one line variable, survive on the line
    ring = generic_matrix(2, 3, GF(p)).ring
    line = ((1, 1), (1, 2))
    assert not _line_in_component([ring.var(2, 1) * ring.var(2, 2) + 3], line)
    assert not _line_in_component([ring.var(2, 1) + ring.var(1, 2) ** 2], line)
    assert _line_in_component([ring.var(1, 1) * ring.var(2, 3)], line)


def test_two_zero_row_witness():
    """The witness against the substitution it replaced: the generic matrix
    with its first two rows' variables mapped to 0."""
    for k in range(4, 9):
        M = generic_matrix(k, k)
        mapping = {f"x_{i}_{j}": M.ring.zero for i in (1, 2) for j in range(1, k + 1)}
        Z = PolyMatrix([[e.substitute(mapping) for e in row] for row in M.rows])
        assert Z.rows == [[M.ring.zero] * k] * 2 + M.rows[2:]
        assert not any(matrix_permanents(k - 1, Z))
        assert two_zero_row_witness(k)


def test_permanental_ideal_over_prime_equals_the_moved_one():
    """The cases build their permanental ideals over F_p directly: termwise
    the ideal over ZZ moved by ``over_prime``, in the same ring object, for
    every spec shape a case builds, at both default primes."""
    specs = [GenericMatrixSpec(2, 5), GenericMatrixSpec(3, 4), GenericMatrixSpec(4, 5)]
    specs += [GenericMatrixSpec(k, k + 1, h=2, pattern="circulant") for k in (3, 8)]
    specs.append(GenericMatrixSpec(2, 6, pattern="hankel2xn"))
    for spec in specs:
        for p in CliConfig().primes:
            direct, moved = permanental_ideal(spec, GF(p)), over_prime(permanental_ideal(spec), p)
            assert [g.terms for g in direct] == [g.terms for g in moved]
            assert all(g.ring is moved[0].ring for g in direct + moved)


def test_hankel_syzygy_requires_n4():
    with pytest.raises(PreconditionError):
        hankel_syzygy_identity(3)


def test_dim0_certificate_small():
    from permvar.ring import QQ

    R = PolyRing(VarUniverse.free(["x", "y"]), QQ)
    x, y = R.gens()
    p = 2147483647
    gens = over_prime([x**2, x * y, y**3], p)
    assert homogeneous_dim0_certificate(gens, p) == 3
    gens2 = over_prime([x**2], p)  # not zero-dimensional
    assert homogeneous_dim0_certificate(gens2, p, max_degree=8) is None


def test_dim0_certificate_honours_deadline():
    from permvar.errors import GroebnerTimeout
    from permvar.ring import QQ

    R = PolyRing(VarUniverse.free(["x", "y"]), QQ)
    x, y = R.gens()
    p = 2147483647
    gens = over_prime([x**2, x * y, y**3], p)
    with pytest.raises(GroebnerTimeout) as err, Budget(-1.0):
        homogeneous_dim0_certificate(gens, p)
    assert err.value.stats["phase"] == "macaulay"


def test_script_5x6_at_a_small_prime_is_refused_by_name():
    """Its minors have degree 12, and evaluation over F_7 can fill no degree
    above 7: the case is a failed-error that names the prime, not an
    inconclusive certificate."""
    rep = reproduce("script-5x6", CliConfig(prime=7, prime2=11, tier="extended"))
    assert rep.status == "failed-error"
    assert not rep.passed
    assert "prime 7" in rep.measured["error"]


def test_script_4x5_degenerate_seed_is_an_honest_fail():
    """At seed 4 the seeded slice is degenerate: both sliced ideals have
    codim 2 at both primes.  The case says so exactly, in about a second,
    and fails against its pins (codim 3) with the primes in agreement."""
    rep = reproduce("script-4x5", CliConfig(seed=4))
    assert rep.status == "done"
    assert rep.measured == {"sing_codim": 2, "minors4_codim": 2, "seed": 4}
    assert rep.prime_agreement is True
    assert rep.passed is False


@pytest.mark.parametrize(
    "seed, digest",
    [
        (DEFAULT_SEED, "db11dae2d61c68a7ccdf2373482a9d127027c156aa5addd2ff15343c3d0abd54"),
        (5, "78b1e5653ea35ba113446a073d34c113963a81f433a87e47b285af6dfc4fd69f"),
    ],
)
def test_script_4x5_minors_are_pinned(seed, digest):
    """The 25 4x4 minors of script-4x5's seeded slice (a square symmetric
    5x5 matrix), term for term, as SHA-256 over their repr."""
    rng = random.Random(seed)  # the runner's draw of the slice
    A = [[rng.randrange(19) - 9 for _ in range(12)] for _ in range(3)]
    minors = matrix_minors(4, _script_slice(4, A))
    assert len(minors) == 25
    blob = repr([q.terms for q in minors]).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


def test_partition_sum_ideals_are_the_block_permanents():
    """Each list holds the maximal permanents of one block, then of the
    other: a row block's against every column subset of its size, a column
    block's against every row subset, in lexicographic order; the row
    partition's list comes before the column partition's."""

    def leibniz_perm(B):
        h = B.dims[0]
        products = (
            math.prod((B[i, s[i]] for i in range(h)), start=B.ring.one)
            for s in permutations(range(h))
        )
        return sum(products, B.ring.zero)

    k = 4
    M = generic_matrix(k, k, GF(101))
    expected = []
    for r in range(1, k // 2 + 1):
        for s1 in combinations(range(k), r):
            if 2 * r == k and 0 not in s1:
                continue
            s2 = tuple(i for i in range(k) if i not in s1)
            for by_rows in (True, False):
                blocks = []
                for s in (s1, s2):
                    for o in combinations(range(k), len(s)):
                        rows, cols = (s, o) if by_rows else (o, s)
                        blocks.append(PolyMatrix([[M[i, j] for j in cols] for i in rows]))
                expected.append([leibniz_perm(B) for B in blocks])
    assert list(_partition_sum_ideals(M)) == expected


def test_script_4x5_honours_its_budget():
    import time

    from permvar.errors import GroebnerTimeout

    t0 = time.monotonic()
    with pytest.raises(GroebnerTimeout), Budget(1e-3):
        _RUNNERS["script-4x5"](registry()["script-4x5"], CliConfig())
    assert time.monotonic() - t0 < 10


def test_reproduce_all_default_tier_skips_extended(monkeypatch):
    from permvar import experiments

    ids_run = []
    monkeypatch.setattr(experiments, "reproduce", lambda cid, cfg: ids_run.append(cid) or cid)
    assert list(experiments.reproduce_all(CliConfig())) == ids_run
    assert "script-5x6" not in ids_run and "codim-2xn" in ids_run
    assert ids_run == [cid for cid in case_ids() if registry()[cid].tier == "default"]
    ids_run.clear()
    assert list(experiments.reproduce_all(CliConfig(tier="extended"))) == ids_run
    assert ids_run == list(case_ids())
