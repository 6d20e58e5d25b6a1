"""Outside-in span tracer for permvar's public functions.

The traced functions are every public module-level function of the six
layers (``ring``, ``permanent``, ``groebner``, ``linalg``, ``torus`` and
``experiments``), except the case drivers that run a whole item, plus the
``MPoly`` methods named in ``TRACED``.  ``TRACED`` also says which per-layer
fields are reported for each function; the others only record spans, so that
the time they take is not counted as driver time.

``Tracer.install()`` wraps every traced function at every place it is bound
inside the ``permvar`` package (module globals bound by ``from ... import``,
the defining module that function-local imports and ``linalg.<name>``
attribute calls resolve through, and methods on ``MPoly``).  Each wrapped call
records a span ``(id, parent, name, start, end, trace_id)`` in memory and
feeds the per-name aggregates: calls, self time and the computed kernel
counts.  ``uninstall()`` puts every original object back.

Nothing in the program changes: the spans are taken from the benchmark's own
files.  The arithmetic dunder methods of ``MPoly`` are deliberately not
wrapped (tens of thousands of calls per item would inflate the traced run);
their cost lands in the caller's self time.
"""

from __future__ import annotations

import gzip
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict

LAYERS = ("ring", "permanent", "groebner", "linalg", "torus", "experiments")
# The case drivers: their time outside every traced call is the driver time.
DRIVERS = {
    "experiments.reproduce", "experiments.reproduce_all", "experiments.registry",
    "experiments.case_ids", "experiments.append_report",
}

# Traced function -> the per-layer fields reported for it.  The first part of
# a name is the permvar module (the layer); a middle part names a class.
# Metric names are "<name>.<field>".
TRACED = {
    "ring.MPoly.evaluate": ("self_s", "calls", "terms"),
    "ring.MPoly.diff": ("self_s", "calls"),
    "ring.MPoly.substitute": ("self_s", "calls"),
    "ring.matrix_det": ("self_s", "calls"),
    "ring.matrix_minors": ("self_s",),
    "permanent.perm_numeric": ("self_s", "calls", "ryser_ops"),
    "permanent.derivative_matrices": ("self_s", "calls"),
    "permanent.perm_symbolic": ("self_s", "calls"),
    "permanent.permanental_ideal": ("self_s",),
    "groebner.buchberger": (
        "self_s", "calls", "pairs", "zero_reductions", "basis_additions",
        "useful_pair_share", "basis_size_max", "max_coeff_bits",
    ),
    "groebner.normal_form": ("self_s", "calls"),
    "groebner.ideal_dimension": ("self_s", "calls"),
    "groebner.hilbert_degree": ("self_s",),
    "groebner.saturate": ("self_s",),
    "groebner.ideal_intersection": ("self_s",),
    "groebner.radical_membership": ("self_s", "calls"),
    "groebner.over_prime": ("self_s",),
    "groebner.transport": ("self_s",),
    "linalg.rank": ("self_s", "calls"),
    "linalg.rref_fraction": ("self_s", "calls"),
    "linalg.kernel_basis": ("self_s",),
    "linalg.rank_modp": ("self_s", "calls"),
    "linalg.rank_modp_numpy": ("self_s", "calls", "cells", "elim_ops"),
    "torus.classify_type": ("self_s", "calls"),
    "torus.jacobian_rank_at": ("self_s", "calls"),
    "torus.kernel_extension_check": ("self_s",),
    "experiments.homogeneous_dim0_certificate": ("self_s", "calls", "max_degree"),
}


# Computed kernel counts: derived from arguments and results, not timed.
def _count_evaluate(agg, args, kwargs, result):
    agg["terms"] += len(args[0].terms)


def _count_perm_numeric(agg, args, kwargs, result):
    n = len(args[0])  # ryser_ops = sum of n * 2^(n-1) over calls
    agg["ryser_ops"] += n * (1 << (n - 1)) if n else 0


def _count_rank_modp_numpy(agg, args, kwargs, result):
    rows = len(args[0])
    cols = len(args[0][0]) if rows else 0
    agg["cells"] += rows * cols  # sum of rows * cols
    agg["elim_ops"] += result * rows * cols  # sum of rank * rows * cols


def _count_buchberger(agg, args, kwargs, result):
    stats = result.stats
    for key in ("pairs", "zero_reductions", "basis_additions"):
        agg[key] += stats.get(key, 0)
    agg["basis_size_max"] = max(agg["basis_size_max"], len(result.gens))
    agg["max_coeff_bits"] = max(agg["max_coeff_bits"], stats.get("max_coeff_bits", 0))


def _count_certificate(agg, args, kwargs, result):
    if result is not None:
        agg["max_degree"] = max(agg["max_degree"], result)


COUNTERS = {
    "ring.MPoly.evaluate": _count_evaluate,
    "permanent.perm_numeric": _count_perm_numeric,
    "linalg.rank_modp_numpy": _count_rank_modp_numpy,
    "groebner.buchberger": _count_buchberger,
    "experiments.homogeneous_dim0_certificate": _count_certificate,
}


def _resolve(modules: dict, name: str):
    """(owner object, attribute name) of a traced function's definition."""
    layer, *path, attr = name.split(".")
    owner = modules[f"permvar.{layer}"]
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def traced_functions(modules: dict):
    """Names of every function the tracer wraps, sorted."""
    names = set(TRACED)
    for layer in LAYERS:
        mod = modules[f"permvar.{layer}"]
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_") and name not in DRIVERS):
                names.add(name)
    return sorted(names)


def _namespaces(modules: dict):
    """Every module and class namespace of the permvar package."""
    for modname, mod in sorted(modules.items()):
        yield modname, mod
        for name, obj in sorted(vars(mod).items()):
            if inspect.isclass(obj) and obj.__module__ == modname:
                yield f"{modname}.{name}", obj


class Tracer:
    """Span recorder and patcher.  One instance per traced run."""

    def __init__(self):
        self.spans: list = []  # (id, parent, name, start, end, trace_id)
        self.aggregates: dict = defaultdict(lambda: defaultdict(int))
        self._stack: list = []  # [span id, child time]
        self._ids = itertools.count()
        self._trace_id = None
        self._patched: list = []  # (owner, attr, original)
        self._originals: dict = {}  # id(original) -> traced name
        self._timeouts_seen: list = []  # kept alive so each counts once

    # -- spans ------------------------------------------------------------
    def _enter(self):
        frame = [next(self._ids), 0.0]
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append(frame)
        return frame, parent

    def _exit(self, name, frame, parent, start, end):
        self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][1] += dur
        self.spans.append((frame[0], parent, name, start, end, self._trace_id))
        agg = self.aggregates[name]
        agg["calls"] += 1
        agg["self_s"] += dur - frame[1]
        agg["total_s"] += dur
        return agg

    def item(self, item_id: str, fn):
        """Run ``fn()`` as the root span of one workload item."""
        self._trace_id = item_id
        frame, parent = self._enter()
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self._exit(f"item.{item_id}", frame, parent, start, time.perf_counter())
            self._trace_id = None

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        perf = time.perf_counter

        def traced(*args, **kwargs):
            frame, parent = self._enter()
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._note_exception(exc)
                self._exit(name, frame, parent, start, perf())
                raise
            agg = self._exit(name, frame, parent, start, perf())
            if counter is not None:
                counter(agg, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def _note_exception(self, exc):
        from permvar.errors import GroebnerTimeout

        if isinstance(exc, GroebnerTimeout) and not any(e is exc for e in self._timeouts_seen):
            self._timeouts_seen.append(exc)

    # -- patching ---------------------------------------------------------
    def install(self):
        """Wrap every traced function at every binding site in permvar."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = permvar_modules()
        wrappers = {}
        for name in traced_functions(modules):
            owner, attr = _resolve(modules, name)
            original = vars(owner)[attr]
            self._originals[id(original)] = name
            wrappers[id(original)] = (original, self._wrap(name, original))
        for _, ns in _namespaces(modules):
            for attr, value in list(vars(ns).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((ns, attr, value))
                    setattr(ns, attr, hit[1])

    def uninstall(self):
        """Put every original object back, newest patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @property
    def timeouts(self) -> int:
        return len(self._timeouts_seen)

    @property
    def patched(self):
        return list(self._patched)

    def unwrapped_aliases(self):
        """Binding sites in permvar that still hold an original traced
        function (empty while the tracer is installed correctly)."""
        out = []
        for nsname, ns in _namespaces(permvar_modules()):
            for attr, value in vars(ns).items():
                name = self._originals.get(id(value))
                if name is not None:
                    out.append(f"{nsname}.{attr} -> {name}")
        return out

    # -- results ----------------------------------------------------------
    def item_summary(self):
        """Per item: traced seconds, seconds outside every wrapped call, and
        the share of item time that spans cover."""
        out = {}
        for key, agg in self.aggregates.items():
            if key.startswith("item."):
                total, self_s = agg["total_s"], agg["self_s"]
                out[key[len("item."):]] = {
                    "case_s": total,
                    "driver_s": self_s,
                    "span_coverage": 1.0 - self_s / total if total > 0 else 1.0,
                }
        return out

    def write_spans(self, path):
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for sid, parent, name, start, end, trace_id in self.spans:
                fh.write(json.dumps(
                    {"id": sid, "parent": parent, "name": name, "start": start,
                     "end": end, "trace_id": trace_id}
                ) + "\n")


def permvar_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "permvar" or name.startswith("permvar."))}

