"""permvar case-suite benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a permvar checkout.  ``--trace 0`` measures the
end-to-end metrics (untraced wall and CPU time per pass, peak RSS of the
workload's fresh process, and the import-plus-parser set-up time); the times
are corrected for the host's speed (speed.py), and the raw ones are printed
and recorded beside them.
``--trace 1`` runs the workload once untraced and once traced, each in a fresh
process, and reports the per-layer metrics; it also checks that tracing does
not change any result.  Every item is checked against the registered pins.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
hold the run record and a readable table.  The exit code is 0 only when every
item passed; it is 2 when the checkout holds no permvar sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
RUN_BUDGET_S = 170.0  # every run must end within 180 s
SETUP_SAMPLES = 11

SETUP_PROBE = (
    "import os\n"
    "from speed import SpeedProbe\n"
    "with SpeedProbe(interval=0.005) as p:\n"
    "    import permvar.cli\n"
    "    permvar.cli.build_parser()\n"
    "print(os.path.abspath(permvar.cli.__file__), p.wall_s, p.corrected_wall_s)\n"
)


class BenchError(Exception):
    """The benchmark itself could not run (not a wrong result)."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    return env


def _run_child(argv, deadline: float) -> str:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run budget exhausted")
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:  # subprocess.run kills and reaps the child
        raise BenchError(f"child exceeded the run budget: {argv}") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {argv} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def setup_samples(deadline: float, n: int = SETUP_SAMPLES):
    """Seconds to import permvar.cli and build the parser in fresh processes,
    as ``(raw, corrected for the host's speed)`` pairs.  One unrecorded run
    first lets the bytecode cache fill."""
    out = []
    expected = os.path.join(SRC, "permvar", "cli.py")
    for i in range(n + 1):
        line = _run_child([sys.executable, "-c", SETUP_PROBE], deadline).strip()
        path, raw, corrected = line.rsplit(" ", 2)
        if path != expected:
            raise BenchError(f"setup probe imported {path}, not {expected}")
        if i:
            out.append((float(raw), float(corrected)))
    return out


def run_worker(workload: str, seed: int, deadline: float, seconds: float = 0.0,
               spans_out: str | None = None) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    if spans_out:
        argv += ["--traced", "--spans-out", spans_out]
    return json.loads(_run_child(argv, deadline).strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# run record


def _git_blob_id(path: str) -> bytes:
    with open(path, "rb") as fh:
        data = fh.read()
    return hashlib.sha1(b"blob %d\0" % len(data) + data).digest()


def git_tree_id(path: str) -> str:
    """The git tree id of a directory, computed from its files, so that a
    checkout without ``.git`` still names the tree it measured.  Byte caches
    are skipped, as the repository's .gitignore skips them."""
    entries = []
    for name in os.listdir(path):
        full = os.path.join(path, name)
        if name == "__pycache__" or name.endswith(".pyc"):
            continue
        if os.path.isdir(full):
            entries.append((name + "/", b"40000 " + name.encode(), bytes.fromhex(git_tree_id(full))))
        else:
            mode = b"100755 " if os.access(full, os.X_OK) else b"100644 "
            entries.append((name, mode + name.encode(), _git_blob_id(full)))
    body = b"".join(head + b"\0" + sha for _, head, sha in sorted(entries))
    return hashlib.sha1(b"tree %d\0" % len(body) + body).hexdigest()


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_record(args, cfg) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "workload_seed": cfg.seed,
        "primes": list(cfg.primes),
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": numpy_version,
        "git_commit": git_commit(),
        "src_tree": git_tree_id(SRC),
        "client": "closed loop, one client process, one workload process at a time",
    }


# ---------------------------------------------------------------------------
# correctness


def failures(results: dict, reference: dict | None = None) -> dict:
    """Item id -> reason for every item that did not pass."""
    out = {}
    for item_id, r in results.items():
        if "error" in r:
            out[item_id] = r["error"]
        elif not r["passed"]:
            out[item_id] = "did not match its pins"
        elif reference is not None and r["result"] != reference[item_id]["result"]:
            out[item_id] = "traced result differs from the untraced result"
    return out


def _table(metrics: dict, extra: dict) -> str:
    rows = [(k, v["value"], v["unit"]) for k, v in metrics.items()]
    rows += [(k, v, u) for k, (v, u) in extra.items()]
    width = max(len(k) for k, _, _ in rows)
    return "\n".join(f"  {k:<{width}}  {v:.6g} {u}" for k, v, u in rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="permvar case-suite benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "permvar", "__init__.py")):
        print(f"no permvar sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import metrics
    from workloads import WORKLOADS, config_for

    if args.workload == "all":  # every workload in turn, for a reader
        rest = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        return max(main(["--workload", w] + rest) for w in WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    record = run_record(args, config_for(args.workload, args.seed))
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    try:
        if args.trace == 0:
            setup = setup_samples(deadline)
            plain = run_worker(args.workload, args.seed, deadline, args.seconds)
            failed = failures(plain["results"])
            for item_id in plain["unrepeatable"]:
                failed.setdefault(item_id, "result differs between passes of one process")
            values = metrics.end_to_end_values(plain["passes"], plain["peak_rss_mb"], setup)
            units = metrics.END_TO_END
            details = {"passes": plain["passes"], "setup_samples": setup}
            extra = metrics.raw_values(plain["passes"], setup)
        else:
            plain = run_worker(args.workload, args.seed, deadline)
            traced = run_worker(args.workload, args.seed, deadline, spans_out=stem + ".spans.jsonl.gz")
            failed = failures(traced["results"], reference=plain["results"])
            failed.update(failures(plain["results"]))
            integrity = traced["integrity"]
            if integrity["unwrapped_aliases"] or integrity["not_restored"]:
                # a leaky trace makes every traced result suspect
                failed = {item_id: f"tracer integrity: {integrity}" for item_id in plain["results"]}
            values = metrics.per_layer_values(traced, plain["passes"][0]["wall_s"])
            units = {name: metrics.unit_of(name) for name in metrics.per_layer_names()}
            extra = {}
            details = {"untraced_passes": plain["passes"], "traced": {
                k: traced[k] for k in ("passes", "items", "spans", "timeouts", "integrity")}}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3

    attempted = len(plain["results"])
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record.update(details, failures=failed)
    with open(stem + ".json", "w") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1, sort_keys=True)
    print(json.dumps({"run_record": record}, sort_keys=True))
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted - len(failed)}/{attempted} items passed")
    extra["case_fail_share"] = (len(failed) / attempted, "ratio")
    print(_table(result["metrics"], extra))
    for item_id, reason in failed.items():
        print(f"  FAIL {item_id}: {reason}")
    print(json.dumps(result, sort_keys=True))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
