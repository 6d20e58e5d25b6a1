"""Metric definitions: end-to-end metrics and the per-layer metrics of the
traced run, with their units, and the arithmetic that derives them.

Computed kernel counts (derived from arguments and results, not timed):

    permanent.perm_numeric.ryser_ops   = sum over calls of n * 2^(n-1)
    linalg.rank_modp_numpy.cells       = sum over calls of rows * cols
    linalg.rank_modp_numpy.elim_ops    = sum over calls of rank * rows * cols
    groebner.buchberger.useful_pair_share = (pairs - zero_reductions) / pairs
"""

from __future__ import annotations

import statistics

from tracer import TRACED
from workloads import WORKLOADS

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

_FIELD_UNITS = {
    "self_s": "s",
    "useful_pair_share": "ratio",
    "max_coeff_bits": "bits",
    "max_degree": "degree",
}
_HIGHER_IS_BETTER = ("useful_pair_share", "span_coverage")


def per_layer_names():
    """Every per-layer metric name, in report order."""
    names = [f"{fn}.{field}" for fn, fields in TRACED.items() for field in fields]
    names.append("groebner.timeouts")
    names += [f"experiments.case_s.{item_id}" for items in WORKLOADS.values()
              for item_id, _ in items]
    names += ["experiments.driver.self_s", "experiments.span_coverage", "trace.overhead"]
    return names


def unit_of(name: str) -> str:
    field = name.rsplit(".", 1)[1]
    if name.startswith("experiments.case_s.") or field == "self_s":
        return "s"
    if name in ("experiments.span_coverage", "trace.overhead"):
        return "ratio"
    return _FIELD_UNITS.get(field, "count")


def better_of(name: str) -> str:
    return "higher" if name.rsplit(".", 1)[1] in _HIGHER_IS_BETTER else "lower"


def end_to_end_values(passes, peak_rss_mb: float, setup_samples) -> dict:
    """Medians of the speed-corrected times (see speed.py)."""
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(corrected for _, corrected in setup_samples),
    }


def raw_values(passes, setup_samples) -> dict:
    """The same medians without the speed correction, for the record."""
    return {
        "raw_wall_s": (statistics.median(p["raw_wall_s"] for p in passes), "s"),
        "raw_cpu_s": (statistics.median(p["raw_cpu_s"] for p in passes), "s"),
        "raw_setup_s": (statistics.median(raw for raw, _ in setup_samples), "s"),
    }


def per_layer_values(traced: dict, untraced_wall_s: float) -> dict:
    """Per-layer metrics of one traced pass; absent calls read as 0."""
    agg = traced["aggregates"]
    out = {}
    for fn, fields in TRACED.items():
        a = agg.get(fn, {})
        for field in fields:
            out[f"{fn}.{field}"] = a.get(field, 0)
    bb = agg.get("groebner.buchberger", {})
    pairs = bb.get("pairs", 0)
    out["groebner.buchberger.useful_pair_share"] = (
        (pairs - bb.get("zero_reductions", 0)) / pairs if pairs else 0.0
    )
    out["groebner.timeouts"] = traced["timeouts"]
    items = traced["items"]
    for name in per_layer_names():
        if name.startswith("experiments.case_s."):
            item = items.get(name[len("experiments.case_s."):])
            out[name] = item["case_s"] if item else 0.0
    out["experiments.driver.self_s"] = sum(i["driver_s"] for i in items.values())
    out["experiments.span_coverage"] = min(i["span_coverage"] for i in items.values())
    out["trace.overhead"] = traced["passes"][0]["wall_s"] / untraced_wall_s - 1.0
    return out
