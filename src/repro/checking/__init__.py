"""Explicit-state dynamic checking of the MCA protocol.

:func:`explore` is the raw engine (returns :class:`ExplorationResult`);
the façade entry point :func:`repro.api.run_protocol` wraps it in the
uniform result shape.
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
