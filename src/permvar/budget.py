"""One time budget per case or command, held in a context variable.

``with Budget(seconds):`` sets an absolute deadline that every long-running
step reads.  A nested budget keeps the earlier deadline, so it never extends
the one around it.  With no budget open there is no limit.
"""

import math
import time
from contextvars import ContextVar
from numbers import Real

from .errors import GroebnerTimeout, StructuralError

# (deadline on the time.monotonic() clock, seconds of the budget that set it)
_OPEN: ContextVar[tuple | None] = ContextVar("permvar_budget", default=None)


class Budget:
    def __init__(self, seconds: float):
        """``seconds`` is a real number within the float range, not NaN;
        zero or less is already expired."""
        try:
            ok = isinstance(seconds, Real) and not isinstance(seconds, bool)
            ok = ok and not math.isnan(seconds)
        except OverflowError:  # an int or Fraction past the float range
            ok = False
        if not ok:
            raise StructuralError(f"time budget {seconds!r} is not a number of seconds")
        self.seconds = seconds

    def __enter__(self):
        own, outer = (time.monotonic() + self.seconds, self.seconds), _OPEN.get()
        self._token = _OPEN.set(own if outer is None or own < outer else outer)

    def __exit__(self, *exc):
        _OPEN.reset(self._token)


def ends_at() -> float | None:
    """The open budget's deadline on the ``time.monotonic()`` clock, or None."""
    return (_OPEN.get() or (None,))[0]


def expired(phase: str, stats: dict | None = None) -> GroebnerTimeout:
    """The timeout of a step in ``phase`` past the open budget (one must be open)."""
    message = f"the time budget of {_OPEN.get()[1]:g}s ran out in phase {phase}"
    return GroebnerTimeout(message, {**(stats or {}), "phase": phase})


def check(phase: str, stats: dict | None = None) -> None:
    """Raise :func:`expired` past the open budget's deadline; with no budget
    open, do nothing."""
    end = ends_at()
    if end is not None and time.monotonic() > end:
        raise expired(phase, stats)
