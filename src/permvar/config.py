"""Run configuration: primes, order, seed, timeouts, tier.

The environment variable PERMVAR_CONFIG may point at a JSON file whose keys
override the defaults below; CLI flags override both.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

from .errors import StructuralError
from .ring import GF

DEFAULT_PRIME = 2147483647  # 2^31 - 1
SECOND_PRIME = 1073741789
ENV_CONFIG = "PERMVAR_CONFIG"
DEFAULT_SEED = 176856257


@dataclass(frozen=True)
class CliConfig:
    prime: int = DEFAULT_PRIME
    prime2: int = SECOND_PRIME
    order: str = "degrevlex"
    seed: int = DEFAULT_SEED
    timeout_s: float = 600.0
    tier: str = "default"  # default | extended

    @property
    def primes(self) -> tuple:
        return (self.prime, self.prime2)


def load_config(**overrides) -> CliConfig:
    """The defaults, overridden by the PERMVAR_CONFIG file, then by the
    non-None ``overrides``.  Refuses a prime that is not a word-size prime,
    a repeated prime (the two-prime agreement check would be vacuous) and an
    unknown monomial order."""
    cfg = CliConfig()
    path = os.environ.get(ENV_CONFIG)
    if path:
        with open(path) as fh:
            data = json.load(fh)
        cfg = replace(cfg, **{k: v for k, v in data.items() if hasattr(cfg, k)})
    clean = {k: v for k, v in overrides.items() if v is not None and hasattr(cfg, k)}
    cfg = replace(cfg, **clean)
    for p in cfg.primes:
        if not isinstance(p, int):
            raise StructuralError(f"prime {p!r} is not an integer")
        GF(p)  # raises StructuralError unless p is a prime below 2^63
    if cfg.prime == cfg.prime2:
        raise StructuralError(f"prime and prime2 are both {cfg.prime}; they must differ")
    if cfg.order not in ("degrevlex", "lex"):
        raise StructuralError(f"unknown monomial order {cfg.order!r}")
    return cfg
