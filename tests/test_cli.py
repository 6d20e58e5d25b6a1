"""Command-line interface: subcommands, exit codes, JSON output stability."""

import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from permvar.cli import build_parser, main
from permvar.config import ENV_CONFIG
from permvar.experiments import case_ids


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_perm_inline_matrix(capsys):
    code, out, _ = run(capsys, "perm", "--matrix", "[[1,1],[1,-1]]")
    assert code == 0
    assert out.strip() == "0"


def test_perm_json_mode(capsys):
    code, out, _ = run(capsys, "perm", "--matrix", "[[1,1],[1,1]]", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob == {"permanent": "2", "method": "ryser"}


def test_perm_glynn(capsys):
    code, out, _ = run(capsys, "perm", "--matrix", "[[2,1],[3,4]]", "--method", "glynn")
    assert code == 0 and out.strip() == "11"


def test_prk(capsys):
    code, out, _ = run(capsys, "prk", "--matrix", "[[1,1,1,-7],[1,1,-4,2],[1,1,3,5]]")
    assert code == 0 and out.strip() == "2"


def test_kirkup_verify(capsys):
    code, out, _ = run(capsys, "kirkup", "--k", "3", "--verify")
    assert code == 0
    assert "all 3x3 permanents vanish: true" in out


def test_ideal_gen(capsys):
    code, out, _ = run(capsys, "ideal", "gen", "--k", "2", "--n", "3")
    assert code == 0
    assert out.splitlines() == [
        "x_1_2*x_2_1 + x_1_1*x_2_2",
        "x_1_3*x_2_1 + x_1_1*x_2_3",
        "x_1_3*x_2_2 + x_1_2*x_2_3",
    ]


@pytest.fixture
def ideal_file(tmp_path):
    path = tmp_path / "ideal.txt"
    path.write_text("vars: x y\n# a complete intersection\nx^2\ny^2\n")
    return str(path)


def test_gb_dim_degree_pipeline(capsys, ideal_file, tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_CONFIG, raising=False)
    code, out, _ = run(capsys, "gb", "--ideal-file", ideal_file, "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["basis"] == ["y^2", "x^2"]
    assert blob["basis_size"] == 2
    assert blob["prime"] == 2147483647

    # full dim/degree payloads, byte for byte apart from the wall time
    xy_file = tmp_path / "xy.txt"
    xy_file.write_text("vars: x y\nx*y\n")
    tail = '"order": "degrevlex", "prime": 2147483647, "seed": 176856257, "wall_ms": 0}\n'
    zero_dim = '{"basis_size": 2, "codim": 2, "degree": 4, "dim": 0, "independent_set": [], '
    expected = {
        ("dim", ideal_file): zero_dim + tail,
        ("degree", ideal_file): zero_dim + tail,
        ("dim", str(xy_file)): '{"basis_size": 1, "codim": 1, "dim": 1, '
        '"independent_set": ["x"], ' + tail,
        ("degree", str(xy_file)): '{"basis_size": 1, "codim": 1, "degree": 2, "dim": 1, '
        '"independent_set": ["x"], ' + tail,
    }
    for (command, path), want in expected.items():
        code, out, _ = run(capsys, command, "--ideal-file", path, "--json")
        assert code == 0
        assert re.sub(r'"wall_ms": \d+', '"wall_ms": 0', out) == want


def test_saturate_command(capsys, tmp_path):
    path = tmp_path / "i.txt"
    path.write_text("vars: x y\nx*y\n")
    code, out, _ = run(capsys, "saturate", "--ideal-file", str(path), "--by", "x")
    assert code == 0 and out.strip() == "y"
    code, out, _ = run(capsys, "saturate", "--ideal-file", str(path), "--by-all-vars")
    assert code == 0 and out.strip() == "1"


def test_saturate_refuses_both_or_neither_target(capsys, tmp_path):
    path = tmp_path / "i.txt"
    path.write_text("vars: x y\nx*y\n")
    code, out, err = run(
        capsys, "saturate", "--ideal-file", str(path), "--by", "x", "--by-all-vars"
    )
    assert code == 2 and out == ""
    assert "not allowed with argument" in err
    code, out, err = run(capsys, "saturate", "--ideal-file", str(path))
    assert code == 2 and out == ""
    assert "one of the arguments --by --by-all-vars is required" in err


@pytest.mark.parametrize("target", [["--by", "x"], ["--by-all-vars"]], ids=["by", "by-all-vars"])
def test_saturate_refuses_an_ideal_without_generators(capsys, tmp_path, target):
    """Like gb, dim and degree, saturate refuses a file with no generators."""
    path = tmp_path / "i.txt"
    path.write_text("vars: x y\n")
    code, out, err = run(capsys, "saturate", "--ideal-file", str(path), *target)
    assert (code, out, err) == (2, "", "error: empty generator list\n")


def test_b1_and_type(capsys):
    mat = "[[1,1,-4,2],[1,1,3,5]]"
    code, out, _ = run(capsys, "b1", "--matrix", mat)
    assert code == 0
    assert out.splitlines()[0].split() == ["0", "-14", "7", "-1"]
    code, out, _ = run(capsys, "type", "--matrix", mat, "--mode", "B1", "--json")
    blob = json.loads(out)
    assert blob["rank"] == 3 and blob["type"] == 1
    assert blob["kernel_basis"] == [[1, 1, 1, -7]]


def test_lp_two_row_mode(capsys):
    # (k-2) x k input with k = 3: entries are the single leftover entries
    code, out, _ = run(capsys, "lp", "--matrix", "[[5,7,11]]")
    assert code == 0
    rows = [line.split() for line in out.splitlines()]
    assert rows == [["0", "11", "7"], ["11", "0", "5"], ["7", "5", "0"]]


def test_rational_gb_flag(capsys, tmp_path):
    path = tmp_path / "i.txt"
    path.write_text("vars: x y\n2*x^2 - y\n")
    code, out, _ = run(capsys, "gb", "--ideal-file", str(path), "--rational", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["field"] == "rat" and blob["prime"] is None
    assert blob["basis"] == ["x^2 - 1/2*y"]
    assert "max_coeff_bits" in blob["stats"]


@pytest.mark.parametrize("command", ["dim", "degree"])
def test_rational_dim_and_degree_report_no_prime(capsys, tmp_path, command):
    """Over QQ no prime is used, so none is reported (as ``gb`` does)."""
    path = tmp_path / "i.txt"
    path.write_text("vars: x y\nx*y\n")
    code, out, _ = run(capsys, command, "--ideal-file", str(path), "--rational", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["prime"] is None and blob["codim"] == 1


@pytest.mark.parametrize("command", ["gb", "dim", "degree"])
def test_prime_and_rational_are_exclusive(capsys, command):
    code, out, err = run(capsys, command, "--ideal-file", "I", "--rational", "--prime", "65537")
    assert code == 2 and out == ""
    assert "not allowed with argument" in err


def test_slice_prime_needs_bound(capsys):
    code, out, err = run(capsys, "slice", "--kind", "circulant3", "--prime", "65537")
    assert code == 2 and out == "" and err.startswith("error: ")
    code, out, _ = run(capsys, "slice", "--kind", "circulant3", "--bound", "--prime", "65537")
    assert code == 0 and "ht 4" in out


def test_slice_timeout_needs_bound(capsys):
    code, out, err = run(capsys, "slice", "--kind", "circulant3", "--timeout", "60")
    assert code == 2 and out == "" and err.startswith("error: ")
    code, out, _ = run(capsys, "slice", "--kind", "circulant3", "--bound", "--timeout", "60")
    assert code == 0 and "ht 4" in out


@pytest.mark.parametrize("kind", ["circulant3", "circulant4"])
def test_slice_refuses_param_of_a_fixed_kind(capsys, kind):
    code, out, err = run(capsys, "slice", "--kind", kind, "--param", "9")
    assert code == 2 and out == "" and err.startswith("error: ")
    assert run(capsys, "slice", "--kind", "circulant2xn", "--param", "3")[0] == 0


def test_slice_with_bound(capsys):
    code, out, _ = run(capsys, "slice", "--kind", "circulant3", "--bound")
    assert code == 0
    assert "ht 4" in out


def test_census(capsys):
    code, out, _ = run(capsys, "reproduce", "census-2xn", "--n", "3", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["passed"] is True and blob["measured"]["3"]["components"] == 5


def test_reproduce_case_and_overrides(capsys):
    code, out, _ = run(capsys, "reproduce", "hankel-degree8", "--n", "5", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["passed"] is True
    assert blob["id"] == "hankel-degree8"
    assert set(blob) == {
        "id", "passed", "measured", "expected", "prime_agreement",
        "seed", "primes", "status", "wall_ms", "environment",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["symbolic-determinants", "--n", "3", "--k", "7"],
        ["kirkup-vanish", "--n", "3"],
        ["all", "--n", "3"],
    ],
    ids=["no-such-params", "n-for-a-k-case", "all-with-n"],
)
def test_reproduce_refuses_overrides_it_cannot_honour(capsys, argv):
    code, out, err = run(capsys, "reproduce", *argv)
    assert code == 2
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["perm", "--matrix", "[[1]]"],
        ["prk", "--matrix", "[[1]]"],
        ["kirkup", "--k", "3"],
        ["b1", "--matrix", "[[1, 2, 3]]"],
        ["lp", "--matrix", "[[1, 2, 3]]"],
        ["type", "--matrix", "[[1, 2, 3]]", "--mode", "B1"],
        ["ideal", "gen", "--k", "2", "--n", "3"],
        ["reproduce", "codim-2xn"],
    ],
    ids=["perm", "prk", "kirkup", "b1", "lp", "type", "ideal-gen", "reproduce"],
)
def test_timeout_is_refused_where_no_budget_is_read(capsys, argv):
    """Only gb, dim, degree, saturate and slice read a time budget; every
    other command refuses --timeout instead of ignoring it (reproduce runs
    each case under its registered budget)."""
    code, out, err = run(capsys, *argv, "--timeout", "1")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --timeout 1" in err


# the shared flags each command reads; every other one is refused
SHARED_FLAGS = {"--prime", "--prime2", "--order", "--seed", "--timeout", "--tier", "--json"}
COMMAND_FLAGS = {
    ("perm",): {"--json"},
    ("prk",): {"--json"},
    ("ideal", "gen"): {"--json"},
    ("kirkup",): {"--json"},
    ("b1",): {"--json"},
    ("lp",): {"--json"},
    ("gb",): {"--prime", "--order", "--seed", "--timeout", "--json"},
    ("dim",): {"--prime", "--order", "--seed", "--timeout", "--json"},
    ("degree",): {"--prime", "--order", "--seed", "--timeout", "--json"},
    ("saturate",): {"--prime", "--order", "--timeout", "--json"},
    ("type",): {"--seed", "--json"},
    ("slice",): {"--prime", "--timeout", "--json"},
    ("reproduce",): {"--prime", "--prime2", "--seed", "--tier", "--json"},
}
# argv each command parses (the files need not exist)
PARSED_ARGV = {
    ("perm",): ["perm", "--matrix", "[[1]]"],
    ("prk",): ["prk", "--matrix", "[[1]]"],
    ("ideal", "gen"): ["ideal", "gen", "--k", "2", "--n", "3"],
    ("kirkup",): ["kirkup", "--k", "3"],
    ("b1",): ["b1", "--matrix", "[[1, 2, 3]]"],
    ("lp",): ["lp", "--matrix", "[[1, 2, 3]]"],
    ("gb",): ["gb", "--ideal-file", "I"],
    ("dim",): ["dim", "--ideal-file", "I"],
    ("degree",): ["degree", "--ideal-file", "I"],
    ("saturate",): ["saturate", "--ideal-file", "I", "--by", "x"],
    ("type",): ["type", "--matrix", "[[1, 2, 3]]", "--mode", "B1"],
    ("slice",): ["slice", "--kind", "circulant3"],
    ("reproduce",): ["reproduce", "codim-2xn"],
}
FLAG_VALUES = {"--prime": "7", "--prime2": "3", "--order": "lex", "--seed": "1", "--tier": "extended"}


def _leaf_parsers(parser, path=()):
    """``(command path, parser)`` for every runnable subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, path + (name,))


def test_each_command_takes_only_the_shared_flags_it_reads():
    found = {
        path: {s for a in sub._actions for s in a.option_strings} & SHARED_FLAGS
        for path, sub in _leaf_parsers(build_parser())
    }
    assert found == COMMAND_FLAGS
    assert sum(map(len, found.values())) == 35


REMOVED = [
    (command, flag)
    for command, kept in COMMAND_FLAGS.items()
    for flag in sorted(set(FLAG_VALUES) - kept)
]


@pytest.mark.parametrize(
    "command,flag", REMOVED, ids=["-".join(command) + flag for command, flag in REMOVED]
)
def test_flag_a_command_does_not_read_is_refused(capsys, command, flag):
    code, out, err = run(capsys, *PARSED_ARGV[command], flag, FLAG_VALUES[flag])
    assert code == 2 and out == ""
    assert "unrecognized arguments" in err


def test_readme_cli_lines_parse():
    """Every ``permvar ...`` line of README's CLI block names only flags its
    command takes."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    lines = [ln.split("#")[0] for ln in block.splitlines() if ln.startswith("permvar ")]
    assert len(lines) >= 10
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line)[1:]
        assert parser.parse_args(argv).run is not None, line


def test_reproduce_extended_requires_tier(capsys):
    code, _, err = run(capsys, "reproduce", "script-5x6")
    assert code == 2
    assert "extended" in err


def test_reproduce_unknown_case(capsys):
    code, _, err = run(capsys, "reproduce", "nope")
    assert code == 2
    assert "known ids" in err


def test_usage_errors(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "perm")[0] == 2  # missing matrix


@pytest.mark.parametrize(
    "argv",
    [
        ["kirkup", "--k", "2"],
        ["gb", "--ideal-file", "HUGE"],
        ["prk", "--matrix", '[["x"]]'],
        ["prk", "--matrix", '[["1/0"]]'],
        ["perm", "--matrix", "[[true]]"],
        ["gb", "--ideal-file", "BAD_COEFF"],
        ["gb", "--ideal-file", "BAD_EXPONENT"],
        ["saturate", "--ideal-file", "XY", "--by", "2/00*x"],
        ["ideal", "gen", "--k", "2", "--n", "3", "--pattern", "circulant", "--period", "0"],
    ],
    ids=[
        "kirkup-k2", "exponent-overflow", "unparsable-entry", "zero-denominator", "boolean",
        "file-zero-denominator", "file-bad-exponent", "by-zero-denominator", "period-0",
    ],
)
def test_bad_input_is_refused_not_raised(capsys, tmp_path, argv):
    files = {"XY": "x*y", "HUGE": "x^70000", "BAD_COEFF": "1/0*x", "BAD_EXPONENT": "x^y"}
    for name, line in files.items():
        (tmp_path / name).write_text(f"vars: x y\n{line}\n")
    code, out, err = run(capsys, *[str(tmp_path / a) if a in files else a for a in argv])
    assert code == 2 and out == "" and err.startswith("error: ")


def run_python(*args):
    """Run Python with this permvar importable in a child process, killed
    after 20 s."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import permvar

    src = str(Path(permvar.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=20
    )


def run_subprocess(*argv):
    """Run the CLI in a child process, killed after 20 s."""
    return run_python("-m", "permvar.cli", *argv)


def test_cli_parser_does_not_import_numpy():
    """numpy is imported by the functions that use it, never at module level:
    importing the CLI and building its parser must not load it, so a
    command that needs no numpy does not pay its import time."""
    done = run_python(
        "-c", "import sys, permvar.cli; permvar.cli.build_parser(); print('numpy' in sys.modules)"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_kirkup_size_is_bounded():
    """``kirkup --k K`` verifies the K+1 maximal permanents of a K x (K+1)
    matrix; past the bound it is refused at once instead of running for ever."""
    from permvar.permanent import KIRKUP_MAX_K

    for k in (KIRKUP_MAX_K + 1, 100000):
        done = run_subprocess("kirkup", "--k", str(k))
        assert done.returncode == 2
        assert done.stdout == "" and done.stderr.startswith("error: ")
    code = main(["kirkup", "--k", str(KIRKUP_MAX_K), "--verify"])
    assert code == 0


def test_variable_count_is_bounded(capsys, tmp_path):
    """A ring's packed-key weights take about 2 n^2 bytes, and ``ideal gen
    --h 1`` prints a generator per variable: a ring past MAX_VARS variables,
    from the generator flags or an ideal file's header, is refused at once."""
    from permvar.ring import MAX_VARS

    path = tmp_path / "wide.txt"
    path.write_text("vars: " + " ".join(f"v{i}" for i in range(MAX_VARS + 1)) + "\nv0\n")
    for argv in (
        ["ideal", "gen", "--k", "33", "--n", "32", "--h", "1"],
        ["gb", "--ideal-file", str(path)],
        ["slice", "--kind", "hankel2xn", "--param", str(MAX_VARS)],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: "), argv
        assert "variables exceed bound" in err


def test_circulant_width_is_bounded(capsys):
    """A circulant matrix has few variables but k * n entries, and its
    permanents grow with the entries: past MAX_VARS entries it is refused
    before anything is built, as a generic matrix is."""
    from permvar.ring import MAX_VARS

    argv = ["ideal", "gen", "--k", "2", "--pattern", "circulant", "--period", "3", "--h", "1"]
    code, out, err = run(capsys, *argv, "--n", str(MAX_VARS // 2 + 1))
    assert code == 2 and out == "" and err.startswith("error: ")
    assert "entries exceeds bound" in err
    code, out, _ = run(capsys, *argv, "--n", str(MAX_VARS // 2))
    assert code == 0 and len(out.splitlines()) == MAX_VARS  # one 1 x 1 permanent per entry


def test_permanent_count_is_bounded(capsys, monkeypatch):
    """``ideal gen --k 6 --n 30`` asks for C(30, 6) = 593,775 permanents of
    720 terms each: it is refused from the counts alone, before the
    expansion starts."""
    from permvar import permanent

    def no_expansion(*args, **kwargs):
        raise AssertionError("the expansion was reached")

    monkeypatch.setattr(permanent, "_expand", no_expansion)
    code, out, err = run(capsys, "ideal", "gen", "--k", "6", "--n", "30")
    assert code == 2 and out == "" and err.startswith("error: ")
    assert f"exceed bound {permanent.PERM_TERMS_BOUND}" in err


def test_perm_and_prk_sizes_are_bounded():
    """A 30 x 30 permanent takes Ryser or Glynn hours, and prk of a 20 x 20
    matrix may visit C(40, 20) (rows, columns) pairs: both are refused at
    once.  prk's bound is checked on the input's dims, so an all-zero matrix
    is refused too."""
    ones = json.dumps([[1] * 30 for _ in range(30)])
    zeros = json.dumps([[0] * 20 for _ in range(20)])
    for argv in (
        ["perm", "--matrix", ones],
        ["perm", "--matrix", ones, "--method", "glynn"],
        ["prk", "--matrix", zeros],
    ):
        done = run_subprocess(*argv)
        assert done.returncode == 2
        assert done.stdout == "" and done.stderr.startswith("error: ")


def test_derived_matrix_size_is_bounded():
    """``b1``, ``lp`` and ``type`` expand an m x (m+2) matrix through up to
    C(m+2, m/2+1) column sets: one column past the bound is refused at once."""
    from permvar.permanent import DERIVED_MAX_N

    n = DERIVED_MAX_N + 1
    ones = json.dumps([[1] * n for _ in range(n - 2)])
    for argv in (["b1"], ["lp"], ["type", "--mode", "B1"]):
        done = run_subprocess(*argv, "--matrix", ones)
        assert done.returncode == 2
        assert done.stdout == "" and done.stderr.startswith("error: ")


def test_env_config_file(tmp_path, monkeypatch):
    from permvar.config import ENV_CONFIG, load_config

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"prime": 65537, "seed": 5, "tier": "extended"}))
    monkeypatch.setenv(ENV_CONFIG, str(cfg_path))
    cfg = load_config()
    assert cfg.prime == 65537 and cfg.seed == 5 and cfg.tier == "extended"
    # explicit overrides beat the file
    cfg2 = load_config(seed=9)
    assert cfg2.seed == 9 and cfg2.prime == 65537


@pytest.mark.parametrize("content", ["[1]", "7", '"prime"', "null"])
def test_config_file_that_is_no_json_object_is_refused(capsys, tmp_path, monkeypatch, content):
    """A config file holding valid JSON other than an object killed every
    command with an AttributeError traceback (exit 1)."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(content)
    monkeypatch.setenv(ENV_CONFIG, str(cfg_path))
    code, out, err = run(capsys, "perm", "--matrix", "[[1]]")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "holds no JSON object" in err


def test_repeated_or_composite_prime_refused(capsys):
    """A repeated prime would make the two-prime agreement check vacuous."""
    code, out, err = run(
        capsys, "reproduce", "codim-2xn", "--prime", "65537", "--prime2", "65537"
    )
    assert code == 2 and out == "" and err.startswith("error:")
    code, out, err = run(capsys, "reproduce", "codim-2xn", "--prime", "4")
    assert code == 2 and out == "" and err.startswith("error:")
    code, _, err = run(capsys, "reproduce", "codim-2xn", "--prime2", "1")
    assert code == 2 and err.startswith("error:")


def test_env_config_order_and_primes(capsys, tmp_path, monkeypatch):
    path = tmp_path / "i.txt"
    path.write_text("vars: x y\nx^2 - y\n")
    cfg_path = tmp_path / "cfg.json"
    monkeypatch.setenv(ENV_CONFIG, str(cfg_path))
    cfg_path.write_text(json.dumps({"order": "lex"}))
    code, out, _ = run(capsys, "gb", "--ideal-file", str(path), "--json")
    assert code == 0 and json.loads(out)["order"] == "lex"
    # an explicit flag still beats the file
    code, out, _ = run(capsys, "gb", "--ideal-file", str(path), "--json", "--order", "degrevlex")
    assert code == 0 and json.loads(out)["order"] == "degrevlex"
    # gb reads one prime, so a prime2 equal to it is no conflict
    cfg_path.write_text(json.dumps({"prime2": 2147483647}))
    code, _, err = run(capsys, "gb", "--ideal-file", str(path))
    assert code == 0 and err == ""


def test_slice_bound_at_the_default_second_prime(capsys):
    """slice reads one prime, so the default prime2 is no conflict for it."""
    code, out, err = run(
        capsys, "slice", "--kind", "circulant3", "--bound", "--prime", "1073741789"
    )
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "ht 4 (codimension lower bound 4)"


@pytest.mark.parametrize(
    "setting,argv,code",
    [
        ({"order": "bogus", "prime2": 4}, ["perm", "--matrix", "[[1,2],[3,4]]"], 0),
        ({"order": "bogus"}, ["gb", "--ideal-file", "{ideal}"], 2),
        ({"prime": "7"}, ["gb", "--ideal-file", "{ideal}"], 2),
        ({"prime": "7"}, ["gb", "--ideal-file", "{ideal}", "--rational"], 0),
        ({"prime": 0}, ["saturate", "--ideal-file", "{ideal}", "--by", "x"], 2),
        ({"prime2": 4}, ["reproduce", "codim-2xn"], 2),
        ({"primes": [5, 7]}, ["perm", "--matrix", "[[1]]"], 0),  # a property, not a setting
    ],
    ids=[
        "perm", "gb-order", "gb-prime", "gb-rational", "saturate-prime", "reproduce-prime2",
        "primes-ignored",
    ],
)
def test_config_file_settings_are_checked_where_read(
    capsys, tmp_path, monkeypatch, setting, argv, code
):
    """A setting in the config file is refused by the command that reads it,
    and by no other."""
    ideal = tmp_path / "i.txt"
    ideal.write_text("vars: x y\nx^2 - y\n")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(setting))
    monkeypatch.setenv(ENV_CONFIG, str(cfg_path))
    got, out, err = run(capsys, *[a.format(ideal=ideal) for a in argv])
    assert got == code
    if code:
        assert out == "" and err.startswith("error: ")
    else:
        assert out and err == ""


@pytest.mark.parametrize(
    "setting",
    [{"seed": [1]}, {"seed": True}, {"seed": "5"}, {"tier": "Extended"}],
    ids=["seed-list", "seed-bool", "seed-text", "tier-unknown"],
)
def test_config_file_seed_and_tier_are_refused(capsys, tmp_path, monkeypatch, setting):
    """A seed that is not an int died inside ``random.Random`` with a
    traceback (exit 1, the code of a failed case) or was taken as another
    seed, and an unknown tier ran the default one.  Both are refused as the
    configuration is built, so every command refuses them."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(setting))
    monkeypatch.setenv(ENV_CONFIG, str(cfg_path))
    for argv in (["reproduce", "derivative-symmetry"], ["perm", "--matrix", "[[1]]"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and next(iter(setting)) in err


def test_b1_and_lp_are_one_command_with_two_labels(capsys):
    mat = "[[1,1,-4,2],[1,1,3,5]]"
    blobs = {
        name: json.loads(run(capsys, name, "--matrix", mat, "--json")[1]) for name in ("b1", "lp")
    }
    assert blobs["b1"]["mode"] == "B1" and blobs["lp"]["mode"] == "L"
    assert blobs["b1"]["matrix"] == blobs["lp"]["matrix"]


def test_help_lists_case_ids():
    parser = build_parser()
    sub = None
    for action in parser._subparsers._group_actions:
        sub = action.choices["reproduce"]
    text = sub.format_help()
    for cid in case_ids():
        assert cid in text
