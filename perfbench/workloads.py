"""The benchmark's workloads: batches of items run through permvar's public API.

An item is ``(item_id, run)`` where ``run(cfg)`` returns ``(result, passed)``.
``result`` is the item's deterministic content (a registered case's
``canonical_dict()``, or the measured invariants of a gb-rational item) and
``passed`` says whether it matched the registered pins.  The workload seed
goes only into ``CliConfig(seed=...)``.
"""

from __future__ import annotations

# permvar functions are called through their modules, so that a traced run
# sees every call (see tracer.py).
from permvar import experiments, groebner, permanent
from permvar.config import CliConfig
from permvar.permanent import GenericMatrixSpec
from permvar.ring import QQ, PolyRing

GB_CERTIFY = [
    "codim-2xn", "codim-kxk1", "census-2xn", "hankel-degree8", "slice-circulant3",
    "slice-circulant4", "saturation-J3", "circulant-2x2", "lemma422-containment",
    "radical-eq-sing-k3",
]
NUMERIC_PROBE = [
    "perm-engines-agree", "rank-never-one", "derivative-symmetry", "jacobian-independence",
    "jacobian-dependence-2x5", "kirkup-vanish", "kirkup-b1-rank", "e-pattern-rank",
    "sing-upper-witness", "symbolic-determinants",
]
MACAULAY_EXTENDED = ["script-4x5", "script-5x6"]  # extended tier


def registered(case_id: str):
    """A registered case, run by ``experiments.reproduce`` (which does not
    check the tier) and judged by its own pins and two-prime agreement."""

    def run(cfg: CliConfig):
        rep = experiments.reproduce(case_id, cfg)
        return rep.canonical_dict(), rep.passed and rep.status == "done"

    return case_id, run


# ---------------------------------------------------------------------------
# gb-rational: the same Groebner layer over QQ, checked against registry pins


def _pins(case_id: str) -> dict:
    return experiments.registry()[case_id].expected


def _qq_codim(k: int, n: int, case_id: str, key: str):
    want = _pins(case_id)["codim"][key]

    def run(cfg: CliConfig):
        G = groebner.buchberger(permanent.permanental_ideal(GenericMatrixSpec(k, n), domain=QQ))
        got = {"codim": groebner.ideal_dimension(G).codim}
        return got, got["codim"] == want

    return run


def _qq_slice(kind: str, k: int, n: int, case_id: str):
    want = _pins(case_id)["ht"]

    def run(cfg: CliConfig):
        M = experiments.build_slice(kind)
        target = PolyRing(M.ring.universe, QQ)
        slice_map = {
            f"x_{i + 1}_{j + 1}": groebner.transport(M[i, j], target)
            for i in range(k)
            for j in range(n)
        }
        gens = permanent.permanental_ideal(GenericMatrixSpec(k, n), domain=QQ)
        got = {"ht": experiments.slice_codim_bound(gens, slice_map, target)}
        return got, got["ht"] == want

    return run


_J3_PINS = {key: _pins("saturation-J3")[key] for key in ("codim", "degree")}


def _qq_saturation(cfg: CliConfig):
    gens = permanent.permanental_ideal(GenericMatrixSpec(3, 4), domain=QQ)
    prod = gens[0].ring.one
    for g in gens[0].ring.gens():
        prod = prod * g
    G = groebner.buchberger(groebner.saturate(gens, prod))
    got = {"codim": groebner.ideal_dimension(G).codim, "degree": groebner.hilbert_degree(G)}
    return got, got == _J3_PINS


GB_RATIONAL = (
    [(f"qq-codim-2xn-{n}", _qq_codim(2, n, "codim-2xn", str(n))) for n in (3, 4, 5)]
    + [(f"qq-codim-kxk1-{k}", _qq_codim(k, k + 1, "codim-kxk1", str(k))) for k in (2, 3)]
    + [
        ("qq-slice-circulant3", _qq_slice("circulant3", 3, 4, "slice-circulant3")),
        ("qq-slice-circulant4", _qq_slice("circulant4", 4, 5, "slice-circulant4")),
        ("qq-saturation-J3", _qq_saturation),
    ]
)

WORKLOADS = {
    "gb-certify": [registered(c) for c in GB_CERTIFY],
    "numeric-probe": [registered(c) for c in NUMERIC_PROBE],
    "macaulay-extended": [registered(c) for c in MACAULAY_EXTENDED],
    "gb-rational": GB_RATIONAL,
}

# Seconds one pass takes on the reference machine (a shared 2-vCPU VM).  They
# fix how many passes a run of --seconds makes, so that the count does not
# depend on how fast the machine happens to be, and parent and change measure
# the same work.
NOMINAL_PASS_S = {
    "gb-certify": 8.0,
    "numeric-probe": 24.0,
    "macaulay-extended": 28.0,
    "gb-rational": 5.0,
}


def passes_for(workload: str, seconds: float) -> int:
    return max(1, int(seconds // NOMINAL_PASS_S[workload]))


def config_for(workload: str, seed: int) -> CliConfig:
    """The run configuration of one workload at one benchmark seed.

    gb-certify and gb-rational ignore the seed: their inputs are fixed by the
    paper.  macaulay-extended runs at the registry's own configuration, as
    ``permvar reproduce script-4x5 --tier extended`` does: the seeded slice of
    script-4x5 costs 18-35 s depending on the seed, and at some seeds (4 and
    7, for two) its certificate is inconclusive and the case fails.
    """
    return CliConfig() if workload == "macaulay-extended" else CliConfig(seed=seed)

