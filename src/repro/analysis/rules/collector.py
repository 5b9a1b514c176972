"""Collector rule: one module owns the cyclic garbage collector's state.

A mining run pauses CPython's cyclic collector and, on exit, files
the run's survivors in the oldest generation
(``core/collector.py::paused_collector``; see docs/INVARIANTS.md,
family 7).  That is safe only while nothing else in the package
toggles, retunes or runs the collector behind it: a stray
``gc.enable()`` inside a stage would re-arm the collections the pause
exists to skip, a ``gc.collect()`` would walk the whole heap in the
middle of a run, and a second ``gc.freeze()``/``gc.unfreeze()`` pair
would release objects a caller froze on purpose.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set, Tuple

from repro.analysis.core import (
    Finding,
    LintContext,
    Rule,
    SourceModule,
    register,
)

#: The ``gc`` functions that change the collector's state or run it.
#: Read-only calls (``isenabled``, ``get_count``, ``get_threshold``,
#: ``get_freeze_count``, ``get_objects``) and ``gc.callbacks`` stay
#: free to use.
GC_STATE_CALLS = frozenset(
    {"disable", "enable", "freeze", "unfreeze", "set_threshold", "collect"}
)

#: The one module allowed to make those calls.
COLLECTOR_MODULE = "core/collector.py"


def _gc_names(tree: ast.Module) -> Tuple[Set[str], Dict[str, str]]:
    """Names bound to the ``gc`` module, and names bound to its
    state-changing functions (``from gc import collect as c`` maps
    ``c`` to ``collect``), from imports anywhere in the module."""
    modules: Set[str] = set()
    functions: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "gc":
                    modules.add(alias.asname or "gc")
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            for alias in node.names:
                if alias.name in GC_STATE_CALLS:
                    functions[alias.asname or alias.name] = alias.name
    return modules, functions


@register
class CollectorOwnerRule(Rule):
    """GC001: only ``core/collector.py`` changes the collector's state.

    Flags calls of ``gc.disable``, ``gc.enable``, ``gc.freeze``,
    ``gc.unfreeze``, ``gc.set_threshold`` and ``gc.collect`` (through
    ``import gc``, an alias, or ``from gc import ...``) in every module
    but ``core/collector.py``.  ``paused_collector`` there is the one
    sanctioned way to change the collector around mining work: it
    restores the caller's state, leaves a caller's frozen objects
    alone and never runs a collection.  Read-only queries and
    ``gc.callbacks`` are not flagged.
    See docs/INVARIANTS.md (family 7).
    """

    id = "GC001"
    title = "collector state changed outside core/collector.py"

    def check_module(
        self, module: SourceModule, context: LintContext
    ) -> Iterable[Finding]:
        if module.path_endswith(COLLECTOR_MODULE):
            return ()
        modules, functions = _gc_names(module.tree)
        if not modules and not functions:
            return ()
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in modules
                and func.attr in GC_STATE_CALLS
            ):
                name = func.attr
            elif isinstance(func, ast.Name) and func.id in functions:
                name = functions[func.id]
            else:
                continue
            findings.append(
                self.finding(
                    module,
                    node,
                    f"gc.{name}() outside core/collector.py; wrap the "
                    f"work in repro.core.collector.paused_collector() "
                    f"instead, the one owner of the collector's state",
                )
            )
        return findings
