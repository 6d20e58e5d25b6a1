"""The per-case time budget: nesting, messages, and its reach inside a case."""

import dataclasses
import json
import time

import pytest

from permvar import budget, experiments, groebner
from permvar.budget import Budget
from permvar.cli import main
from permvar.config import ENV_CONFIG, CliConfig
from permvar.errors import GroebnerTimeout, StructuralError
from permvar.experiments import registry, reproduce
from permvar.groebner import buchberger, over_prime
from permvar.permanent import GenericMatrixSpec, permanental_ideal


def test_nested_budget_never_extends_the_enclosing_one():
    assert budget.ends_at() is None
    with Budget(5):
        outer = budget.ends_at()
        with Budget(60):
            assert budget.ends_at() == outer
            # the message names the budget that is in force
            assert "of 5s" in str(budget.expired("pairs"))
        with Budget(1):
            assert budget.ends_at() < outer
            assert "of 1s" in str(budget.expired("pairs"))
        with Budget(-1.0), pytest.raises(GroebnerTimeout):
            budget.check("pairs")
        assert budget.ends_at() == outer
    assert budget.ends_at() is None


def test_check_without_a_budget_never_raises(monkeypatch):
    monkeypatch.setattr(budget.time, "monotonic", lambda: 1e18)
    assert budget.ends_at() is None
    budget.check("pairs", {"pairs": 3})


def test_timeout_message_states_the_budget_and_phase():
    """A budget under one second is stated as it is, not rounded to 0s."""
    gens = over_prime(permanental_ideal(GenericMatrixSpec(3, 4)), 2147483647)
    with pytest.raises(GroebnerTimeout) as err, Budget(0.05):
        time.sleep(0.06)
        buchberger(gens)
    assert str(err.value) == "the time budget of 0.05s ran out in phase pairs"
    assert err.value.stats["phase"] == "pairs"


def _expire(monkeypatch, case_id):
    """Register ``case_id`` with a budget that has run out when it starts."""
    spec = registry()[case_id]
    monkeypatch.setitem(registry(), case_id, dataclasses.replace(spec, timeout_s=0.0))


def test_timed_out_case_is_reproducible(monkeypatch):
    """The canonical content of a timed-out case is the same on every rerun;
    its work counts go to the report's JSON only."""
    _expire(monkeypatch, "slice-circulant4")
    a = reproduce("slice-circulant4")
    b = reproduce("slice-circulant4")
    assert a.status == "failed-timeout" and not a.passed
    assert a.canonical_dict() == b.canonical_dict()
    assert a.measured == {"error": "the time budget of 0s ran out in phase pairs", "phase": "pairs"}
    assert "pairs" in a.partial_stats and "wall_ms" in a.partial_stats
    assert a.to_json()["partial_stats"] == a.partial_stats
    assert "partial_stats" not in a.canonical_dict()


@pytest.mark.parametrize("case_id", ["perm-engines-agree", "rank-never-one"])
def test_numeric_cases_honour_their_budget(monkeypatch, case_id):
    _expire(monkeypatch, case_id)
    rep = reproduce(case_id)
    assert rep.status == "failed-timeout"
    assert rep.measured["phase"] == "probe"


def test_groebner_calls_in_a_case_share_its_deadline(monkeypatch):
    """Every basis computation of census-2xn reads the one deadline set when
    the case started: the case's budget bounds the whole case."""
    real = groebner.buchberger
    seen = []

    def spy(*args, **kwargs):
        seen.append(budget.ends_at())
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", spy)
    monkeypatch.setattr(experiments, "buchberger", spy)
    before = time.monotonic()
    rep = reproduce("census-2xn", CliConfig())
    after = time.monotonic()
    assert rep.passed
    assert len(seen) > 1 and len(set(seen)) == 1
    timeout_s = registry()["census-2xn"].timeout_s
    assert before + timeout_s <= seen[0] <= after + timeout_s


def test_cli_timeout_bounds_the_command(capsys, tmp_path):
    path = tmp_path / "ideal.txt"
    path.write_text("vars: x y\nx^2 - y\nx*y - 1\n")
    commands = {
        "gb": ["--ideal-file", str(path)],
        "dim": ["--ideal-file", str(path)],
        "degree": ["--ideal-file", str(path)],
        "saturate": ["--ideal-file", str(path), "--by", "x"],
        "slice": ["--kind", "circulant3", "--bound"],
    }
    for command, extra in commands.items():
        code = main([command, *extra, "--timeout", "0"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("timeout: the time budget of 0s ran out in phase ")


@pytest.mark.parametrize(
    "seconds", ["60", float("nan"), None, True, pytest.param(10**400, id="10**400")]
)
def test_budget_refuses_what_is_not_a_number_of_seconds(seconds):
    with pytest.raises(StructuralError, match="not a number of seconds"):
        Budget(seconds)


def test_cli_refuses_a_timeout_that_is_not_a_number(capsys, tmp_path, monkeypatch):
    """``--timeout nan`` ran with no limit, and a string ``timeout_s`` in the
    config file ended in a TypeError traceback."""
    path = tmp_path / "ideal.txt"
    path.write_text("vars: x y\nx^2 - y\n")
    assert main(["gb", "--ideal-file", str(path), "--timeout", "nan"]) == 2
    assert capsys.readouterr().err.startswith("error: time budget nan ")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"timeout_s": "60"}))
    monkeypatch.setenv(ENV_CONFIG, str(cfg_path))
    assert main(["gb", "--ideal-file", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: time budget '60' ")


def test_cli_refuses_a_timeout_past_the_float_range(capsys, tmp_path, monkeypatch):
    """A config ``timeout_s`` of 400 nines ended in an OverflowError
    traceback (exit 1) from the NaN check."""
    path = tmp_path / "ideal.txt"
    path.write_text("vars: x y\nx^2 - y\n")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"timeout_s": ' + "9" * 400 + "}")
    monkeypatch.setenv(ENV_CONFIG, str(cfg_path))
    assert main(["gb", "--ideal-file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: time budget 999") and err.endswith("is not a number of seconds\n")
