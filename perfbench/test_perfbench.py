"""Checks of the benchmark itself: tracer integrity, repeatable counts, and
agreement between BENCHMARK.json and the metrics the code reports.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import metrics  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from permvar import experiments, groebner  # noqa: E402
from permvar.config import CliConfig  # noqa: E402
from permvar.ring import GF, PolyRing, VarUniverse  # noqa: E402

SHORT = ["slice-circulant3", "kirkup-b1-rank"]


def _certificate_item(cfg):
    """A small zero-dimensional homogeneous ideal through the Macaulay
    certificate, so that rank_modp_numpy runs."""
    ring = PolyRing(VarUniverse.free(["x", "y", "z"]), GF(cfg.prime))
    x, y, z = ring.gens()
    d = experiments.homogeneous_dim0_certificate([x * x + y * z, y * y - x * z, z * z], cfg.prime)
    return {"d": d}, d is not None


def _items(ids):
    return [workloads.registered(c) for c in ids]


def _traced_pass(items):
    t = tracer_mod.Tracer()
    t.install()
    try:
        results = worker.run_pass(items, CliConfig(), t)
    finally:
        t.uninstall()
    return t, results


def test_patched_attributes_are_restored():
    t = tracer_mod.Tracer()
    t.install()
    try:
        patched = t.patched
        assert patched
        assert all(vars(owner)[attr] is not orig for owner, attr, orig in patched)
        results = worker.run_pass(_items(SHORT), CliConfig(), t)
    finally:
        t.uninstall()
    assert all(r["passed"] for r in results.values())
    assert all(vars(owner)[attr] is orig for owner, attr, orig in patched)
    for owner, attr, _ in patched:
        assert not hasattr(vars(owner)[attr], "__wrapped__")


def test_no_unwrapped_alias_during_the_run():
    seen = []

    def probe(cfg):
        seen.extend(t.unwrapped_aliases())
        return {}, True

    t = tracer_mod.Tracer()
    t.install()
    try:
        worker.run_pass(_items(SHORT) + [("probe", probe)], CliConfig(), t)
    finally:
        t.uninstall()
    assert seen == []


def test_a_new_alias_in_permvar_is_traced():
    """A module that binds ``from .groebner import buchberger`` is patched too."""
    original = groebner.buchberger
    mod = types.ModuleType("permvar._alias_probe")
    mod.buchberger = original
    sys.modules[mod.__name__] = mod
    try:
        t = tracer_mod.Tracer()
        t.install()
        try:
            assert mod.buchberger is groebner.buchberger
            assert mod.buchberger.__wrapped__ is original
        finally:
            t.uninstall()
        assert mod.buchberger is original
    finally:
        del sys.modules[mod.__name__]


def test_benchmark_modules_hold_no_traced_function():
    """The workloads call permvar through module attributes, so the tracer
    sees their calls without patching the benchmark's own files."""
    modules = tracer_mod.permvar_modules()
    originals = set()
    for name in tracer_mod.traced_functions(modules):
        owner, attr = tracer_mod._resolve(modules, name)
        originals.add(id(vars(owner)[attr]))
    assert not [k for k, v in vars(workloads).items() if id(v) in originals]


def test_traced_results_equal_untraced():
    items = _items(SHORT) + [("certificate", _certificate_item)]
    plain = worker.run_pass(items, CliConfig())
    _, traced = _traced_pass(items)
    assert traced == plain
    assert run.failures(traced, reference=plain) == {}


def test_item_coverage_and_self_time():
    t, _ = _traced_pass(_items(["slice-circulant3"]))
    item = t.item_summary()["slice-circulant3"]
    assert 0.9 <= item["span_coverage"] <= 1.0
    total_self = sum(a["self_s"] for a in t.aggregates.values())
    root = t.aggregates["item.slice-circulant3"]["total_s"]
    assert total_self == pytest.approx(root, rel=1e-6)


COUNT_SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import test_perfbench as tp
t, _ = tp._traced_pass(tp._items(["slice-circulant3", "kirkup-vanish", "codim-kxk1"])
                       + [("certificate", tp._certificate_item)])
agg = t.aggregates
keys = {"groebner.buchberger": ("calls", "pairs", "zero_reductions", "basis_additions",
                                "basis_size_max"),
        "permanent.perm_numeric": ("calls", "ryser_ops"),
        "linalg.rank_modp_numpy": ("calls", "cells", "elim_ops"),
        "experiments.homogeneous_dim0_certificate": ("max_degree",)}
print(json.dumps({f"{n}.{k}": agg[n][k] for n, ks in keys.items() for k in ks}))
"""


def test_counts_repeat_across_processes():
    """Kernel counts and Groebner counters are exact: two fresh processes
    with different hash seeds report the same numbers."""
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", COUNT_SCRIPT, os.path.join(ROOT, "src"), HERE],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        outs.append(json.loads(proc.stdout.splitlines()[-1]))
    assert outs[0] == outs[1]
    counts = outs[0]
    assert counts["groebner.buchberger.pairs"] > 0
    assert counts["permanent.perm_numeric.ryser_ops"] > 0
    assert counts["linalg.rank_modp_numpy.elim_ops"] > 0


def test_computed_counts_follow_their_formulas():
    agg = {"ryser_ops": 0, "cells": 0, "elim_ops": 0}
    tracer_mod._count_perm_numeric(agg, ([[1] * 5] * 5,), {}, 0)
    assert agg["ryser_ops"] == 5 * 2 ** 4
    tracer_mod._count_rank_modp_numpy(agg, ([[1] * 7] * 3,), {}, 2)
    assert (agg["cells"], agg["elim_ops"]) == (21, 42)


class _Clock:
    """A stand-in for the time module: both clocks read the same counter."""

    def __init__(self):
        self.now = 0.0

    def advance(self, seconds):
        self.now += seconds

    def perf_counter(self):
        return self.now

    process_time = perf_counter


def test_speed_probe_scales_by_the_probe_time(monkeypatch):
    """A probe that takes twice PROBE_S means half speed: the corrected time
    is half the raw time, and the probes' own time is left out."""
    clock = _Clock()
    monkeypatch.setattr(speed, "time", clock)
    monkeypatch.setattr(speed, "kernel", lambda: clock.advance(2 * speed.PROBE_S))
    with speed.SpeedProbe(interval=60) as p:  # the probes are taken by hand
        for _ in range(10):
            clock.advance(0.01)
            p._probe()
        clock.advance(0.01)
    assert p.samples == 11
    assert p.wall_s == pytest.approx(0.11)
    assert p.cpu_s == pytest.approx(0.11)
    assert p.corrected_wall_s == pytest.approx(0.055)
    assert p.corrected_cpu_s == pytest.approx(0.055)


def test_speed_probe_timer_fires_and_is_removed():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe(interval=0.005) as p:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert p.samples >= 5
    assert 0 < p.corrected_wall_s and 0 < p.wall_s < 0.1
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_benchmark_json_matches_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == metrics.per_layer_names()
    for m in spec["per_layer"]:
        assert m["unit"] == metrics.unit_of(m["name"])
        assert m["better"] == metrics.better_of(m["name"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_git_tree_id_matches_git():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD:src"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        status = subprocess.run(["git", "status", "--porcelain", "src"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
    except OSError:
        pytest.skip("git is not available")
    if proc.returncode != 0 or status.stdout.strip():
        pytest.skip("not a git checkout with a clean src/")
    assert run.git_tree_id(os.path.join(ROOT, "src")) == proc.stdout.strip()


def test_refuses_a_checkout_without_sources():
    """In a directory holding only the benchmark, the command fails without
    printing a result."""
    empty = os.path.join(ROOT, ".perfbench_out", "test-checkout-without-sources")
    shutil.rmtree(empty, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(empty, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), empty)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "gb-certify", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=empty, capture_output=True, text=True, timeout=60,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        )
    finally:
        shutil.rmtree(empty, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
