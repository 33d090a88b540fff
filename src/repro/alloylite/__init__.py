"""Alloy-lite: an embedded DSL mirroring the Alloy fragment the paper uses.

Signatures with fields and multiplicities, facts, and a ``util/ordering``
equivalent, compiled to bounds and facts at a bounded :class:`Scope`.
The push-button ``run``/``check`` commands are the :mod:`repro.api`
façade over a module: ``api.solve(ModuleProblem(module, "run", pred,
scope))``, ``api.check(module, assertion, scope)`` and
``api.enumerate(ModuleProblem(...))``.
"""

from repro.alloylite.module import Module, ModuleError, Scope
from repro.alloylite.ordering import OrderedModule, Ordering
from repro.alloylite.sig import Field, Sig

__all__ = [
    "Field",
    "Module",
    "ModuleError",
    "OrderedModule",
    "Ordering",
    "Scope",
    "Sig",
]
