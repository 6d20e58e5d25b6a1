"""Run configuration: primes, order, seed, timeouts, tier.

The environment variable PERMVAR_CONFIG may point at a JSON file whose keys
override the defaults below; CLI flags override both.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields, replace

from .errors import StructuralError

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
    non-None ``overrides``.  Only the file's form is checked here, a JSON
    object; each setting is checked where it is read (``GF`` a prime,
    ``MonomialOrder`` an order, ``Budget`` a timeout,
    ``experiments.reproduce`` the two primes)."""
    names = {f.name for f in fields(CliConfig)}
    cfg = CliConfig()
    path = os.environ.get(ENV_CONFIG)
    if path:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise StructuralError(f"{ENV_CONFIG} file {path} holds no JSON object")
        cfg = replace(cfg, **{k: v for k, v in data.items() if k in names})
    return replace(cfg, **{k: v for k, v in overrides.items() if v is not None and k in names})
