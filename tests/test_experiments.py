"""Reproduction-case registry, runners, determinism, and report plumbing."""

import hashlib
import json
import math
import random
from importlib import resources
from functools import reduce
from itertools import combinations, islice, permutations
from pathlib import Path
from types import SimpleNamespace

import pytest

from permvar.budget import Budget
from permvar.config import DEFAULT_PRIME, DEFAULT_SEED, SECOND_PRIME, CliConfig
from permvar.errors import InternalConsistencyError, PreconditionError, StructuralError
from permvar.experiments import (
    _RUNNERS,
    SCRIPT_5X6_A,
    _component_ideals_2xn,
    _each_value,
    _line_in_component,
    _matches,
    _minor_rows,
    _partition_sum_ideals,
    _per_prime,
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
from permvar.groebner import (
    buchberger,
    contains,
    ideal_dimension,
    ideal_intersection,
    normal_form,
    over_prime,
)
from permvar.permanent import (
    GenericMatrixSpec,
    derivative_matrix_symbolic,
    generic_matrix,
    matrix_permanents,
    permanental_ideal,
)
from permvar.ring import GF, QQ, ZZ, PolyMatrix, PolyRing, VarUniverse, matrix_minors


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
    """Seeded cases emit identical canonical reports from fresh interpreters,
    which find this permvar through ``PYTHONPATH`` and are killed after 60 s."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import permvar

    src = str(Path(permvar.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    snippet = (
        "import json; from permvar.experiments import reproduce; "
        "print(json.dumps(reproduce('jacobian-independence').canonical_dict(), sort_keys=True))"
    )
    outs = [
        subprocess.run(
            [sys.executable, "-c", snippet],
            capture_output=True,
            text=True,
            check=True,
            env=env,
            timeout=60,
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


DRAW_BOUNDS = [1, 2, 19, 198, 2**31 - 1, 1073741789, 2**32 - 1, 2**32, 2**61 - 1]


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 5])
@pytest.mark.parametrize("n", DRAW_BOUNDS)
def test_draws_are_the_randrange_stream(seed, n):
    """``_draws(rng, n)`` gives ``randrange(n)``'s values, and after each
    count the generator's state is where as many ``randrange(n)`` calls
    leave it, for bounds that take one 32-bit word and two, rejections
    rare and near one half."""
    from permvar.experiments import _draws

    for count in (0, 1, 7, 5000):
        old, new = random.Random(seed), random.Random(seed)
        want = [old.randrange(n) for _ in range(count)]
        assert list(islice(_draws(new, n), count)) == want
        assert new.getstate() == old.getstate()


@pytest.mark.parametrize("n", [0, -1])
def test_draws_refuse_an_empty_range(n):
    """As ``randrange(n)``, ``_draws`` refuses n < 1 at its first value,
    where ``getrandbits(0)`` would redraw zero forever."""
    from permvar.experiments import _draws

    class Bounded(random.Random):
        calls = 0

        def getrandbits(self, k):
            self.calls += 1
            assert self.calls < 100, "redraws forever"
            return super().getrandbits(k)

    with pytest.raises(ValueError):
        random.Random(0).randrange(n)
    with pytest.raises(ValueError):
        next(_draws(Bounded(0), n))


class _Recorded(Exception):
    """Raised in place of a recorded call whose result the test does not need."""


def _recording(monkeypatch, module, name, record, stop=False):
    """Replace ``module.name`` by a wrapper that appends its arguments to
    ``record``, then calls the original, or raises ``_Recorded`` if
    ``stop``."""
    real = getattr(module, name)

    def wrapper(*args):
        record.append(args)
        if stop:
            raise _Recorded
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 5])
def test_perm_engines_matrices_are_the_randrange_stream(seed, monkeypatch):
    """perm-engines-agree hands both engines each seeded matrix, drawn as
    ``randrange(19) - 9`` entry by entry, size after size."""
    from permvar import experiments

    calls = []
    _recording(monkeypatch, experiments, "perm_numeric", calls)
    spec = registry()["perm-engines-agree"]
    measured, _ = experiments._run_perm_engines(spec, CliConfig(seed=seed))
    assert measured == {"engines_agree": True}
    rng = random.Random(seed)
    want = [
        [[rng.randrange(19) - 9 for _ in range(n)] for _ in range(n)]
        for n in spec.params["sizes"]
        for _ in range(spec.params["trials"])
    ]
    assert calls == [(A, method) for A in want for method in ("ryser", "glynn")]


@pytest.mark.parametrize("prime", [DEFAULT_PRIME, 2**61 - 1])
@pytest.mark.parametrize("seed", [DEFAULT_SEED, 5])
def test_jacobian_batches_are_the_randrange_stream(seed, prime, monkeypatch):
    """Both Jacobian cases draw each prime's batch as ``randrange(p)``, one
    point after another, from one stream across the values and primes."""
    from permvar import torus

    calls = []
    _recording(monkeypatch, torus, "jacobian_rank_at", calls)
    cfg = CliConfig(seed=seed, prime=prime)
    indep, dep = registry()["jacobian-independence"], registry()["jacobian-dependence-2x5"]
    _RUNNERS[indep.id](indep, cfg)
    rng = random.Random(seed)
    want = [
        [[rng.randrange(p) for _ in range(k * (k + 1))] for _ in range(20)]
        for k in indep.params["k"]
        for p in cfg.primes
    ]
    assert [batch for _, batch in calls] == want

    calls.clear()
    _RUNNERS[dep.id](dep, cfg)
    rng = random.Random(seed)
    points = dep.params["points"]
    want = [[[rng.randrange(p) for _ in range(10)] for _ in range(points)] for p in cfg.primes]
    assert [batch for _, batch in calls] == want


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 5])
def test_e_pattern_entries_are_the_choice_stream(seed, monkeypatch):
    """e-pattern-rank draws each trial's a, then b, as ``rng.choice`` of the
    198 nonzero values in -99..99."""
    from permvar import experiments

    calls = []
    _recording(monkeypatch, experiments, "border_pattern_matrix", calls)
    spec = registry()["e-pattern-rank"]
    experiments._run_e_pattern(spec, CliConfig(seed=seed))
    rng = random.Random(seed)
    nonzero = [x for x in range(-99, 100) if x]
    want = [
        (k, rng.choice(nonzero), rng.choice(nonzero))
        for k in spec.params["k"]
        for _ in range(spec.params["trials"])
    ]
    assert calls == want


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 5])
def test_script_4x5_slice_is_the_randrange_stream(seed, monkeypatch):
    """script-4x5 slices by the 3 x 12 matrix of ``randrange(19) - 9``."""
    from permvar import experiments

    calls = []
    _recording(monkeypatch, experiments, "_script_slice", calls, stop=True)
    with pytest.raises(_Recorded):
        experiments._run_script_4x5(registry()["script-4x5"], CliConfig(seed=seed))
    rng = random.Random(seed)
    assert calls == [(4, [[rng.randrange(19) - 9 for _ in range(12)] for _ in range(3)])]


def test_only_draws_draws():
    """Every seeded draw of the cases goes through ``_draws``: no other
    code in the module names a draw method of ``random.Random``."""
    import ast

    from permvar import experiments

    draw_methods = {"randrange", "randint", "choice", "getrandbits"}
    tree = ast.parse(Path(experiments.__file__).read_text())
    users = set()
    for node in tree.body:
        for sub in ast.walk(node):
            if {getattr(sub, "attr", None), getattr(sub, "id", None)} & draw_methods:
                users.add(getattr(node, "name", "<module>"))
    assert users == {"_draws"}


@pytest.mark.parametrize("case_id", ["derivative-symmetry", "rank-never-one"])
def test_probe_cases_refuse_a_wrong_lane_engine(case_id, monkeypatch):
    """A lane ``__add__`` that multiplies keeps every derived matrix
    symmetric with a zero diagonal and never of rank one, so only the
    probe cases' own check of each batch against the lane-free expansion
    of its first and last points can catch it."""
    from operator import mul

    from permvar import ring

    monkeypatch.setattr(
        ring._Lanes, "__add__", lambda self, other: ring._Lanes(map(mul, self, other))
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
    assert hankel_chart_case(5, GF(65537))["local_degrees"] == [4, 4]

    def asymmetric(ring):
        first, mirrored = hankel_chart_generators(ring)
        return first, mirrored[1:]

    monkeypatch.setattr(experiments, "hankel_chart_generators", asymmetric)
    with pytest.raises(InternalConsistencyError):
        hankel_chart_case(5, GF(65537))


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
    bound = slice_height(build_slice("circulant3"), GF(p))
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
    """``_per_prime`` hands ``fn`` each prime's field, in order."""
    calls = []

    def fn(F):
        calls.append(F)
        return F.modulus % 4

    assert _per_prime((5, 13), fn) == (1, True)
    assert _per_prime((5, 7), fn) == (1, False)
    assert calls == [GF(5), GF(13), GF(5), GF(7)]


def test_per_value_runs_values_outer_primes_inner():
    """An ``_each_value`` runner runs ``fn(v, F)`` for each prime's field
    before the next value starts."""
    calls = []

    def fn(v, F):
        calls.append((v, F))
        return v * F.modulus if v == 3 else v

    spec, cfg = registry()["codim-2xn"], CliConfig(prime=5, prime2=7)  # n in [3, 4, 5]
    measured, agree = _each_value("n", fn)(spec, cfg)
    assert measured == {"3": 15, "4": 4, "5": 5} and agree is False
    assert calls == [(v, GF(p)) for v in (3, 4, 5) for p in (5, 7)]
    assert _each_value("n", lambda v, F: v)(spec, cfg)[1]
    assert _each_value("n", lambda v, F: v, "codim")(spec, cfg) == (
        {"codim": {"3": 3, "4": 4, "5": 5}},
        True,
    )


def test_only_per_prime_and_reproduce_build_a_prime_field():
    """A case function takes its field F: ``_per_prime`` is the one place
    that turns a prime into GF(p), and ``reproduce`` only refuses a bad
    prime up front.  So a case runs over QQ by handing it QQ."""
    import ast

    from permvar import experiments

    tree = ast.parse(Path(experiments.__file__).read_text())
    builders = set()
    for node in tree.body:
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "GF":
                builders.add(getattr(node, "name", "<module>"))
    assert builders == {"_per_prime", "reproduce"}


# The cases whose pins are equalities that hold over QQ only at a lucky prime
LUCKY_PRIME_CASES = [
    "circulant-2x2",
    "saturation-J3",
    "hankel-degree8",
    "census-2xn",
    "lemma422-containment",
    "radical-eq-sing-k3",
]


@pytest.mark.parametrize("case_id", LUCKY_PRIME_CASES)
def test_lucky_prime_pins_hold_over_qq(case_id, monkeypatch):
    """Each pin that needs a lucky prime, recomputed over QQ itself: the
    case's runner with every field ``_per_prime`` would hand it replaced by
    QQ, inside the case's budget, and no prime field built.  Given a correct
    engine, this proves the pin over QQ; it does not check the engine."""
    from permvar import experiments

    calls = []

    def over_qq(primes, fn):
        calls.append(primes)
        return fn(QQ), True

    monkeypatch.setattr(experiments, "_per_prime", over_qq)
    monkeypatch.setattr(experiments, "GF", lambda p: pytest.fail(f"GF({p}) built"))
    spec = registry()[case_id]
    with Budget(spec.timeout_s):
        measured, agree = _RUNNERS[case_id](spec, CliConfig())
    assert calls and agree
    assert _matches(measured, spec.expected), measured


def test_inconclusive_certificate_is_no_agreement(monkeypatch):
    """script-5x6 gives the codimension, its 4 variables, only when the
    certificate fills at the first prime, and agreement only when it fills
    at every prime: two inconclusive certificates agree on None, but
    certify nothing."""
    from permvar import experiments

    spec, cfg = registry()["script-5x6"], CliConfig()
    for fills, codim, agree in (((), None, False), ((cfg.prime,), 4, False), (cfg.primes, 4, True)):

        def certificate(gens, p, fills=fills):
            return 13 if p in fills else None  # a fill degree, or inconclusive

        monkeypatch.setattr(experiments, "homogeneous_dim0_certificate", certificate)
        measured, ok = experiments._run_script_5x6(spec, cfg)
        assert (measured["minors3_codim"], ok) == (codim, agree)


def _count_classifications(monkeypatch):
    from permvar import experiments

    points, classify = [], experiments.classify_type
    monkeypatch.setattr(
        experiments, "classify_type", lambda A, mode: points.append(A) or classify(A, mode)
    )
    return points


def test_kirkup_b1_classifies_each_point_once(monkeypatch):
    """kirkup-b1-rank classifies one Kirkup point per registered k, 3
    included, and reads kernel_3 off the classification of k = 3: six
    classifications for k = 3..8, none repeated."""
    points = _count_classifications(monkeypatch)
    rep = reproduce("kirkup-b1-rank")
    assert rep.passed and rep.measured["kernel_3"] == [[1, 1, 1, -7]]
    assert len(points) == len(registry()["kirkup-b1-rank"].params["k"]) == 6
    assert len({str(A) for A in points}) == 6


def test_kirkup_b1_narrowed_past_3_still_measures_kernel_3(monkeypatch):
    """With k narrowed to 5, the point of k = 3 is still built and
    classified for kernel_3 and its extension check."""
    points = _count_classifications(monkeypatch)
    rep = reproduce("kirkup-b1-rank", k=5)
    assert rep.passed and rep.measured["kernel_3"] == [[1, 1, 1, -7]]
    assert rep.measured["extension_check"] is True
    assert [len(A) for A in points] == [4, 2]  # k = 5, then k = 3


def test_kirkup_vanish_builds_each_matrix_once(monkeypatch):
    """kirkup-vanish builds (and so verifies) each registered Kirkup matrix
    once, prk_3 reading the one of k = 3; narrowed past 3, it builds that
    one as well."""
    from permvar import experiments

    built, build = [], experiments.kirkup_matrix
    monkeypatch.setattr(experiments, "kirkup_matrix", lambda k: built.append(k) or build(k))
    assert reproduce("kirkup-vanish").passed
    assert built == registry()["kirkup-vanish"].params["k"]
    built.clear()
    assert reproduce("kirkup-vanish", k=4).passed and built == [4, 3]


def test_script_5x6_expands_its_minors_once(monkeypatch):
    """The minors are expanded over ZZ once, and each prime's certificate
    reduces that expansion: one ``_minor_rows`` call per run."""
    from permvar import experiments

    spec, cfg = registry()["script-5x6"], CliConfig()
    expanded, minor_rows = [], experiments._minor_rows
    monkeypatch.setattr(
        experiments, "_minor_rows", lambda M, h: expanded.append(h) or minor_rows(M, h)
    )
    measured, ok = experiments._run_script_5x6(spec, cfg)
    assert ok and measured == {"distinct_minors": 210, "minors3_codim": 4}
    assert expanded == [3]


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


def test_script_5x6_passes_at_small_primes():
    """Its minors have degree 12 and fill degree 13, both above 7 and 11:
    coefficient ranks take no points, so small primes are computed like
    any other, not refused."""
    rep = reproduce("script-5x6", CliConfig(prime=7, prime2=11, tier="extended"))
    assert rep.status == "done" and rep.passed
    assert rep.measured == {"distinct_minors": 210, "minors3_codim": 4}


def test_script_5x6_above_2_31_honours_its_budget():
    """Past 2**31 ``rank_modp_numpy`` hands M_13 (840 x 560) to the
    pure-Python elimination, which checks the open budget before each
    column: the certificate stops within the budget, not after the rank.
    The minors are expanded before the budget opens, as the case does
    before its certificates."""
    import time

    from permvar.errors import GroebnerTimeout

    minors = _minor_rows(_script_slice(5, SCRIPT_5X6_A), 3)
    t0 = time.monotonic()
    with pytest.raises(GroebnerTimeout) as err, Budget(2):
        homogeneous_dim0_certificate(minors, (1 << 61) - 1)
    assert time.monotonic() - t0 < 10
    assert err.value.stats["phase"] == "elimination"


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


@pytest.mark.parametrize("p", [DEFAULT_PRIME, SECOND_PRIME], ids=["p1", "p2"])
@pytest.mark.parametrize("k", [3, 4])
def test_contains_matches_full_bases_on_the_case_ideals(k, p):
    """On lemma422's partition sums and census-2xn's components and their
    intersection (the 2 x k matrix), the truncated loop of ``contains``
    answers as the full basis does: for the case's own questions, all
    members, and for forms that add a power of a variable to a member,
    which the ideals need not hold."""

    def full(gens, fs):
        G = buchberger(gens)
        return all(normal_form(f, G).is_zero() for f in fs)

    M = generic_matrix(k, k, GF(p))
    sing = matrix_permanents(k - 1, M)
    x = M.ring.gens()
    seen = set()
    for J in _partition_sum_ideals(M):
        for fs in (sing, [sing[0] + x[1] ** (k - 1)], [J[-1] + x[0] ** J[-1].total_degree()]):
            assert contains(J, fs) == full(J, fs)
            seen.add(full(J, fs))
    gens = permanental_ideal(GenericMatrixSpec(2, k), GF(p))
    comps = _component_ideals_2xn(k, gens[0].ring)
    x = gens[0].ring.gens()
    for I in comps + [reduce(ideal_intersection, comps)]:
        for fs in (gens, [gens[0] + x[0] * x[-1]]):
            assert contains(I, fs) == full(I, fs)
            seen.add(full(I, fs))
    assert seen == {True, False}


def test_script_4x5_honours_its_budget():
    import time

    from permvar.errors import GroebnerTimeout

    t0 = time.monotonic()
    with pytest.raises(GroebnerTimeout) as err, Budget(1e-3):
        _RUNNERS["script-4x5"](registry()["script-4x5"], CliConfig())
    assert time.monotonic() - t0 < 10
    # the certificate runs first, and checks the budget before its one rank
    assert err.value.stats["phase"] == "macaulay"


def test_script_4x5_above_2_31_never_reaches_rank_modp(monkeypatch):
    """Past 2**31 ``rank_modp_numpy`` would hand the certificate's matrices
    to the pure-Python ``rank_modp``, far slower on the partials' degree-40
    matrix than ``buchberger`` on the partials, so there both loci go to
    ``buchberger``.  At the second prime, below 2**31, the certificate
    decides both without it: one rank for the partials."""
    from permvar import experiments, linalg

    def refuse(rows, p):
        raise AssertionError(f"rank_modp reached at p = {p}")

    ranked, rank, bases, basis = [], linalg.rank_modp_numpy, [], experiments.buchberger
    monkeypatch.setattr(linalg, "rank_modp", refuse)
    monkeypatch.setattr(
        linalg, "rank_modp_numpy", lambda E, p: ranked.append((E.shape, p)) or rank(E, p)
    )
    monkeypatch.setattr(
        experiments, "buchberger", lambda gens: bases.append(gens[0].ring.domain) or basis(gens)
    )
    big, small = (1 << 61) - 1, CliConfig().prime2
    measured, agree = _RUNNERS["script-4x5"](
        registry()["script-4x5"], CliConfig(prime=big, prime2=small)
    )
    assert agree and measured == {"sing_codim": 3, "minors4_codim": 3, "seed": DEFAULT_SEED}
    assert bases == [GF(big), GF(big)]
    assert ranked[0] == ((1134, 861), small)
    assert {p for _, p in ranked} == {small}


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
