"""Fork/pickle-safety rules for the multiprocessing paths.

The sharded search (``core/search_shard.py``) and the batch runner
(``batch.py``) fan work out over ``ProcessPoolExecutor``.  Two
contracts keep that safe (see docs/INVARIANTS.md, family 3):

* every callable handed to a pool API must be resolvable by qualified
  name in the worker process — a module-level function.  Lambdas and
  closures pickle by reference to a scope the worker does not have and
  fail only at runtime, on the non-fork platforms CI does not cover;
* the payloads workers return (the ``ComponentRun`` columns) must be
  built from plainly picklable types, because an unpicklable column
  fails only after the worker's search is already spent.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from repro.analysis.core import (
    Finding,
    LintContext,
    Rule,
    SourceModule,
    dotted_name,
    module_level_callables,
    register,
    root_name,
)

#: Constructors whose instances schedule work in other processes (the
#: thread variants are included deliberately: the same no-closure rule
#: keeps an executor swappable between thread and process backends).
POOL_CONSTRUCTORS = frozenset(
    {"ProcessPoolExecutor", "ThreadPoolExecutor", "Pool", "ThreadPool"}
)

#: Executor/pool methods whose first argument crosses the process
#: boundary as a pickled callable.
POOL_SUBMIT_METHODS = frozenset(
    {"map", "imap", "imap_unordered", "starmap", "submit", "apply", "apply_async"}
)

#: Constructor keywords that carry a callable into a worker process.
CALLABLE_KEYWORDS = frozenset({"initializer", "target"})

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


def _module_imports_multiprocessing(tree: ast.Module) -> bool:
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in ("multiprocessing", "concurrent"):
                    return True
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[0] in (
                "multiprocessing",
                "concurrent",
            ):
                return True
    return False


def _pool_bound_names(tree: ast.Module) -> Set[str]:
    """Names bound to pool/executor instances anywhere in the module
    (``with ProcessPoolExecutor(...) as pool`` / ``pool = Pool(...)``)."""
    names: Set[str] = set()

    def constructs_pool(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        name = dotted_name(node.func)
        return name is not None and name.split(".")[-1] in POOL_CONSTRUCTORS

    for node in ast.walk(tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if constructs_pool(item.context_expr) and isinstance(
                    item.optional_vars, ast.Name
                ):
                    names.add(item.optional_vars.id)
        elif isinstance(node, ast.Assign) and constructs_pool(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _nested_def_names(tree: ast.Module) -> Set[str]:
    """Names of functions defined below module level (closure hazards)."""
    top_level = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name not in top_level
    }


@register
class PoolCallableRule(Rule):
    """FRK001: callables handed to pool/executor APIs must be
    module-level functions.

    Checks the first argument of ``pool.map``/``submit``/``apply_async``
    (on names bound from a pool constructor) and the ``initializer=``/
    ``target=`` keywords of the constructors themselves.  A lambda, a
    function defined inside another function (a closure), or a name
    that does not resolve to a module-level ``def``/import fails:
    pickle serialises callables by qualified name, so anything without
    one dies in the worker — but only on spawn-start platforms, i.e.
    not on the Linux CI runners.  ``functools.partial`` is followed
    into its first argument.  See docs/INVARIANTS.md (family 3).
    """

    id = "FRK001"
    title = "non-module-level callable passed to a pool/executor API"

    def check_module(
        self, module: SourceModule, context: LintContext
    ) -> Iterable[Finding]:
        if not _module_imports_multiprocessing(module.tree):
            return ()
        module_names = module_level_callables(module.tree)
        pool_names = _pool_bound_names(module.tree)
        nested_defs = _nested_def_names(module.tree)
        findings: List[Finding] = []

        def check_callable(node: ast.AST, where: str) -> None:
            problem = self._callable_problem(node, module_names, nested_defs)
            if problem is not None:
                findings.append(
                    self.finding(module, node, f"{where}: {problem}")
                )

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in POOL_SUBMIT_METHODS
                and isinstance(func.value, ast.Name)
                and func.value.id in pool_names
                and node.args
            ):
                check_callable(
                    node.args[0], f"{func.value.id}.{func.attr}() callable"
                )
            name = dotted_name(func)
            if name is not None and name.split(".")[-1] in POOL_CONSTRUCTORS:
                for keyword in node.keywords:
                    if keyword.arg in CALLABLE_KEYWORDS:
                        check_callable(
                            keyword.value, f"{keyword.arg}= callable"
                        )
        return findings

    def _callable_problem(
        self,
        node: ast.AST,
        module_names: Set[str],
        nested_defs: Set[str],
    ) -> Optional[str]:
        if isinstance(node, ast.Lambda):
            return (
                "lambda cannot be pickled to a worker process; define a "
                "module-level function"
            )
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is not None and name.split(".")[-1] == "partial":
                if node.args:
                    return self._callable_problem(
                        node.args[0], module_names, nested_defs
                    )
                return None
            return (
                "callable is the result of a call expression; pass a "
                "module-level function"
            )
        if isinstance(node, ast.Name):
            if node.id in module_names:
                return None
            if node.id in nested_defs:
                return (
                    f"{node.id!r} is a nested function (a closure); "
                    "pickle serialises callables by qualified name, so "
                    "workers cannot import it — move it to module level"
                )
            return (
                f"{node.id!r} does not resolve to a module-level "
                "callable in this module"
            )
        if isinstance(node, ast.Attribute):
            root = root_name(node)
            if root is not None and root in module_names:
                return None
            return (
                "attribute callable does not resolve to a module-level "
                "name; bound methods ride on their instance's pickle — "
                "prefer a module-level function"
            )
        return "callable expression is not statically picklable"


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
