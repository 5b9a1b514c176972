"""Process rules: one module owns the worker processes, and what
crosses back from them pickles by value.

Both pool sites — the sharded search (``core/search_shard.py``) and
the batch runner (``batch.py``) — fan work out through
``runtime/supervisor.py::run_supervised``, the one module that imports
``multiprocessing``/``concurrent`` (see docs/INVARIANTS.md, family 3).
Two contracts keep that safe:

* no other module imports those packages.  The supervisor's own pool
  callable and its bounded ``future.result(timeout=...)`` harvest are
  pinned by the tier-1 spawn and hang tests; a second pool anywhere
  else would have neither its deadline nor its in-process re-run;
* the payloads workers return (the ``ComponentRun`` columns) must be
  built from plainly picklable types, because an unpicklable column
  fails only after the worker's search is already spent.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.analysis.core import (
    Finding,
    LintContext,
    Rule,
    SourceModule,
    dotted_name,
    register,
)

#: The top-level packages that start or talk to worker processes.
PROCESS_PACKAGES = frozenset({"multiprocessing", "concurrent"})

#: The one module allowed to import them.
SUPERVISOR_MODULE = "runtime/supervisor.py"

#: Identifiers allowed in worker-payload dataclass annotations:
#: containers, scalars, and the key/mask aliases — everything that
#: pickles by value.
PAYLOAD_ALLOWED_TYPES = frozenset(
    {
        "List",
        "Tuple",
        "Dict",
        "Set",
        "FrozenSet",
        "Mapping",
        "Sequence",
        "Optional",
        "Union",
        "Any",
        "int",
        "float",
        "str",
        "bool",
        "bytes",
        "typing",
        "Value",
        "Vertex",
        "LeafKey",
        "CoreKey",
        "RowKey",
        "Mask",
    }
)


@register
class ProcessOwnerRule(Rule):
    """SUP001: only ``runtime/supervisor.py`` imports
    ``multiprocessing`` or ``concurrent``.

    Flags every ``import`` and absolute ``from ... import`` of either
    package (or a submodule), at any depth and under any alias, in
    every module but ``runtime/supervisor.py``.  ``run_supervised``
    there is the one sanctioned way to run work in other processes:
    it waits for each task at most ``DEFAULT_WORKER_TIMEOUT``, re-runs
    every failed task in-process, and hands the site's module-level
    worker to its own pool callable.  A pool opened anywhere else
    would block forever on a hung worker and let a crash escape.
    See docs/INVARIANTS.md (family 3).
    """

    id = "SUP001"
    title = "multiprocessing/concurrent imported outside runtime/supervisor.py"

    def check_module(
        self, module: SourceModule, context: LintContext
    ) -> Iterable[Finding]:
        if module.path_endswith(SUPERVISOR_MODULE):
            return ()
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] in PROCESS_PACKAGES:
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f"import of {name} outside runtime/supervisor.py; "
                            "run the work through "
                            "repro.runtime.supervisor.run_supervised(), "
                            "the one owner of worker processes",
                        )
                    )
        return findings


@register
class WorkerPayloadRule(Rule):
    """FRK002: worker-payload dataclasses in the multiprocessing
    modules restrict their fields to plainly picklable column types.

    Every ``@dataclass`` in the sharded-search module is a
    cross-process payload (today: ``ComponentRun``).  Field
    annotations may only use the allowlisted container/scalar names
    and the key/mask aliases — no callables, no live database or graph
    types, nothing that drags un-picklable or megabyte-per-entry state
    through the result pickle.  See docs/INVARIANTS.md (family 3).
    """

    id = "FRK002"
    title = "non-allowlisted type in a worker-payload dataclass"

    #: Modules whose dataclasses are cross-process payloads.
    WORKER_MODULES = ("core/search_shard.py",)

    def check_module(
        self, module: SourceModule, context: LintContext
    ) -> Iterable[Finding]:
        if not any(module.path_endswith(path) for path in self.WORKER_MODULES):
            return ()
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(
                (isinstance(dec, ast.Name) and dec.id == "dataclass")
                or (isinstance(dec, ast.Attribute) and dec.attr == "dataclass")
                or (
                    isinstance(dec, ast.Call)
                    and dotted_name(dec.func) is not None
                    and dotted_name(dec.func).split(".")[-1] == "dataclass"
                )
                for dec in node.decorator_list
            ):
                continue
            for item in node.body:
                if not isinstance(item, ast.AnnAssign):
                    continue
                for identifier in self._annotation_identifiers(
                    item.annotation
                ):
                    if identifier not in PAYLOAD_ALLOWED_TYPES:
                        findings.append(
                            self.finding(
                                module,
                                item,
                                f"worker-payload field annotation uses "
                                f"{identifier!r}, not in the picklable-"
                                f"column allowlist",
                            )
                        )
        return findings

    @staticmethod
    def _annotation_identifiers(annotation: ast.AST):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
