"""Exact computational algebra for permanental ideals.

Sparse multivariate polynomials over ZZ, QQ and prime fields; exact
permanent engines and permanental rank; a Buchberger engine with dimension,
degree, saturation and radical tooling; torus-action component typing; and a
registry of seeded reproduction cases with a CLI front end.
"""

from .config import CliConfig, load_config
from .errors import (
    CapacityError,
    DomainMismatchError,
    GroebnerTimeout,
    InternalConsistencyError,
    PreconditionError,
    StructuralError,
)
from .ring import (
    DEGREVLEX,
    GF,
    LEX,
    QQ,
    ZZ,
    CoeffDomain,
    MonomialOrder,
    MPoly,
    PolyMatrix,
    PolyRing,
    VarUniverse,
    block_order,
    matrix_det,
    matrix_minors,
    poly_from_text,
)

__version__ = "0.1.0"
