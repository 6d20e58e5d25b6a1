"""Every case's output at the extended tier, pinned by one digest.

The 44 ``canonical_dict`` lines of ``reproduce_all`` at the extended tier,
at the default seed and then at seed 5, each ``json.dumps(..., sort_keys=True)``
and joined by newlines, hash to ``DIGEST``.  A correct change to an engine
leaves every line as it is; a change that moves the digest must name the case
and the cause in CHANGES.md.  The run takes a few seconds.
"""

import hashlib
import json

from permvar.config import DEFAULT_SEED, CliConfig
from permvar.experiments import case_ids, reproduce_all

DIGEST = "22d17b3de324e8ab548ea1e8f8464e0e49f066bd2a618beb5f8466b99cd09ea2"


def test_extended_tier_reports_keep_their_digest():
    lines = [
        json.dumps(rep.canonical_dict(), sort_keys=True)
        for seed in (DEFAULT_SEED, 5)
        for rep in reproduce_all(CliConfig(seed=seed, tier="extended"))
    ]
    assert len(lines) == 2 * len(case_ids())
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DIGEST
