"""One workload in a fresh process: untraced passes, or one traced pass.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
    python3 perfbench/worker.py --workload NAME --seed N --traced --spans-out PATH

Untraced, it runs as many whole passes over the workload's items as fit in
``--seconds`` at the workload's nominal pass time (at least one), and reports
each pass's wall and CPU time, raw and corrected for the host's speed
(``speed.py``).
Traced, it runs one pass with every public permvar function wrapped and
reports the per-name aggregates.  Either way it prints one JSON object as its
last line of output, with every item's result, and its own peak RSS.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

from speed import SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]


def _normalise(result):
    """The JSON form of a result, so results compare across processes."""
    return json.loads(json.dumps(result, sort_keys=True))


def run_pass(items, cfg, tracer=None) -> dict:
    """Run every item once; a raised exception fails only its own item."""
    out = {}
    for item_id, run in items:
        try:
            if tracer is None:
                result, passed = run(cfg)
            else:
                result, passed = tracer.item(item_id, lambda run=run: run(cfg))
            out[item_id] = {"result": _normalise(result), "passed": bool(passed)}
        except Exception as exc:  # the benchmark records the item as failed
            out[item_id] = {"result": None, "passed": False, "error": repr(exc)}
    return out


def untraced(items, cfg, npasses: int) -> dict:
    passes, first, unrepeatable = [], None, set()
    for _ in range(npasses):
        with SpeedProbe() as probe:
            results = run_pass(items, cfg)
        passes.append({
            "wall_s": probe.corrected_wall_s,
            "cpu_s": probe.corrected_cpu_s,
            "raw_wall_s": probe.wall_s,
            "raw_cpu_s": probe.cpu_s,
            "probes": probe.samples,
        })
        if first is None:
            first = results
        unrepeatable.update(k for k, r in results.items() if r != first[k])
    return {"passes": passes, "results": first, "unrepeatable": sorted(unrepeatable)}


def traced(items, cfg, spans_out: str | None) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        patched = tracer.patched
        aliases = tracer.unwrapped_aliases()
        with SpeedProbe() as probe:
            results = run_pass(items, cfg, tracer)
    finally:
        tracer.uninstall()
    not_restored = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, original in patched
        if vars(owner)[attr] is not original
    ]
    if spans_out:
        tracer.write_spans(spans_out)
    return {
        "passes": [{"wall_s": probe.corrected_wall_s, "raw_wall_s": probe.wall_s}],
        "results": results,
        "aggregates": {k: dict(v) for k, v in tracer.aggregates.items()},
        "timeouts": tracer.timeouts,
        "items": tracer.item_summary(),
        "spans": len(tracer.spans),
        "integrity": {
            "patched": len(patched),
            "unwrapped_aliases": aliases,
            "not_restored": not_restored,
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    import permvar

    if not os.path.abspath(permvar.__file__).startswith(SRC + os.sep):
        print(f"permvar imported from {permvar.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, config_for, passes_for

    items = WORKLOADS[args.workload]
    cfg = config_for(args.workload, args.seed)
    if args.traced:
        out = traced(items, cfg, args.spans_out)
    else:
        out = untraced(items, cfg, passes_for(args.workload, args.seconds))
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
