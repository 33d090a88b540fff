"""Explicit-state dynamic checking of the MCA protocol.

:func:`explore` is the raw engine (returns :class:`ExplorationResult`);
the façade entry point :func:`repro.api.run_protocol` wraps it in the
uniform result shape.  :func:`repro.checking.explorer.explore_plain`,
the unreduced per-order search, is the reference the tests and the
``explorer`` oracle compare it against.
"""

from repro.checking.explorer import (
    ExplorationResult,
    StateCanonicalizer,
    explore,
)

__all__ = [
    "ExplorationResult",
    "StateCanonicalizer",
    "explore",
]
