"""The fuzzer's tree toolkit: walks, edits, arity, size and repro scripts.

The problem tree itself (encoding, decoding, identity) belongs to
:mod:`repro.api.codec`.  The four names of it that callers address
through this module are re-exported as the same objects: by the fuzz
modules, by every emitted repro script (``from repro.fuzz.codec import
problem_from_json``) and by ``perfbench/tracing.py``, whose wrappers
here time the fuzzer's calls, not the service's.
"""

from __future__ import annotations

import json
from typing import Iterator

from repro.api.codec import (  # noqa: F401 - re-exported, see above
    CodecError,
    formula_to_tree,
    problem_from_json,
    problem_to_json,
)

_CHILD_FIELDS = ("left", "right", "inner", "expr", "cond", "then", "else",
                 "body", "parts", "decls")

Path = tuple  # sequence of dict keys / list indices into a tree


def iter_subtrees(tree: dict, _path: Path = ()) -> Iterator[tuple[Path, dict]]:
    """Yield every tagged subtree with its path (pre-order, root first)."""
    yield _path, tree
    for key in _CHILD_FIELDS:
        child = tree.get(key)
        if isinstance(child, dict):
            yield from iter_subtrees(child, _path + (key,))
        elif isinstance(child, list):
            for index, item in enumerate(child):
                if isinstance(item, dict):
                    yield from iter_subtrees(item, _path + (key, index))
                elif (isinstance(item, list) and len(item) == 2
                        and isinstance(item[1], dict)):
                    # A [var name, domain tree] declaration pair.
                    yield from iter_subtrees(
                        item[1], _path + (key, index, 1))


def replace_at(tree: dict, path: Path, replacement) -> dict:
    """A deep-copied tree with the subtree at ``path`` swapped out."""
    if not path:
        return replacement
    copied = json.loads(json.dumps(tree))
    cursor = copied
    for key in path[:-1]:
        cursor = cursor[key]
    cursor[path[-1]] = replacement
    return copied


def tree_arity(tree: dict) -> int:
    """Arity of an expression tree (mirrors the AST arity rules)."""
    tag = tree.get("e")
    if tag in ("rel", "none"):
        return int(tree["arity"])
    if tag in ("var", "univ"):
        return 1
    if tag in ("iden", "transpose", "closure"):
        return 2
    if tag in ("union", "inter", "diff"):
        return tree_arity(tree["left"])
    if tag == "product":
        return tree_arity(tree["left"]) + tree_arity(tree["right"])
    if tag == "join":
        return tree_arity(tree["left"]) + tree_arity(tree["right"]) - 2
    if tag == "ite":
        return tree_arity(tree["then"])
    if tag == "compr":
        return len(tree["decls"])
    raise CodecError(f"not an expression tree: {tag!r}")


def tree_size(tree: dict) -> int:
    """Number of tagged nodes in a tree (the shrinker's formula metric)."""
    return sum(1 for _ in iter_subtrees(tree))


def has_unbound_vars(tree: dict, _bound: frozenset[str] = frozenset()) -> bool:
    """Whether the tree references a variable no enclosing quantifier binds.

    The fuzzer uses this to pre-filter hoisting candidates: a quantifier
    body hoisted above its binder would not decode.
    """
    tag = tree.get("e") or tree.get("f")
    if tag == "var":
        return tree["name"] not in _bound
    if tag in ("forall", "exists", "compr"):
        bound = _bound
        for name, domain in tree["decls"]:
            if has_unbound_vars(domain, bound):
                return True
            bound = bound | {name}
        return has_unbound_vars(tree["body"], bound)
    for key in _CHILD_FIELDS:
        child = tree.get(key)
        if isinstance(child, dict):
            if has_unbound_vars(child, _bound):
                return True
        elif isinstance(child, list):
            for item in child:
                if isinstance(item, dict) and has_unbound_vars(item, _bound):
                    return True
    return False


# ----------------------------------------------------------------------
# Repro-script emission
# ----------------------------------------------------------------------

_SCRIPT_TEMPLATE = '''\
#!/usr/bin/env python
"""Shrunk fuzz reproducer: {label}

Oracle: {oracle}{fault_line}
Run with the repository's ``src`` directory on PYTHONPATH::

    PYTHONPATH=src python {filename}

Exits 0 when the oracle agrees (bug fixed), 1 on disagreement.
"""

import json

from repro.fuzz.codec import problem_from_json
from repro.fuzz.runner import run_oracle

PROBLEM = json.loads(r"""
{problem_json}
""")

problem = problem_from_json(PROBLEM)
outcome = run_oracle({oracle!r}, problem, seed={seed}{fault_arg})
print("oracle:", {oracle!r})
print("agree:", outcome.agree)
for key, value in sorted(outcome.detail.items()):
    print(f"  {{key}}: {{value}}")
raise SystemExit(0 if outcome.agree else 1)
'''


def problem_to_script(payload: dict, oracle: str, *, label: str = "fuzz input",
                      seed: int = 0, fault: str | None = None,
                      filename: str = "repro.py") -> str:
    """A self-contained Python reproducer for one (problem, oracle) pair."""
    return _SCRIPT_TEMPLATE.format(
        label=label,
        oracle=oracle,
        seed=seed,
        fault_line=(f"\nInjected fault (test-only): {fault}" if fault else ""),
        fault_arg=(f", fault={fault!r}" if fault else ""),
        problem_json=json.dumps(payload, sort_keys=True, indent=1),
        filename=filename,
    )
