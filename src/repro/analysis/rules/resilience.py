"""Resilience rules for the supervised parallel runtime.

The supervisor (``runtime/supervisor.py``) owns failure handling for
every worker pool: a per-task deadline, failure detection, and a
bit-exact in-process re-run of each failed task.  Two contracts keep that ownership real (see
docs/INVARIANTS.md, family 5):

* a future/async-result harvested from a pool must always carry a
  timeout — an argument-less ``.result()`` or ``.get()`` blocks the
  parent forever on a hung worker, which is exactly the failure mode
  the supervisor exists to bound;
* ``BaseException`` (and the bare ``except:`` that implies it) may be
  caught only at the supervisor boundary.  Anywhere else, a handler
  that wide swallows ``KeyboardInterrupt``/``SystemExit`` and hides
  worker crashes from the supervisor, so the failed task is never
  re-run.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Tuple

from repro.analysis.core import (
    Finding,
    LintContext,
    Rule,
    SourceModule,
    register,
)

#: Methods that harvest a cross-process result and block until it
#: arrives: ``Future.result`` and ``AsyncResult.get``.
HARVEST_METHODS = frozenset({"result", "get"})

#: Path fragments of the modules that talk to worker pools.  The scope
#: is deliberately narrow — ``dict.get()``-style lookups elsewhere are
#: not harvests — and every module here must also import a pool API
#: before the rule fires.
POOL_MODULE_DIRS: Tuple[str, ...] = ("core/", "runtime/", "batch.py")


def _imports_pool_api(tree: ast.Module) -> bool:
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


def _in_pool_scope(module: SourceModule) -> bool:
    return any(fragment in module.path for fragment in POOL_MODULE_DIRS)


@register
class HarvestTimeoutRule(Rule):
    """RES001: pool result harvests must carry a timeout.

    Flags argument-less ``.result()`` / ``.get()`` calls in the worker-
    pool modules (``core/``, ``runtime/``, ``batch.py``) when the module
    imports ``concurrent``/``multiprocessing``.  Without a timeout the
    parent blocks forever on a hung worker — the supervisor's
    ``DEFAULT_WORKER_TIMEOUT`` only bounds anything because every
    harvest goes through ``future.result(timeout=...)``.  A positional deadline or a
    ``timeout=`` keyword both satisfy the rule; ``dict.get(key)``-style
    calls pass because they carry an argument.
    See docs/INVARIANTS.md (family 5).
    """

    id = "RES001"
    title = "pool result harvested without a timeout"

    def check_module(
        self, module: SourceModule, context: LintContext
    ) -> Iterable[Finding]:
        if not _in_pool_scope(module) or not _imports_pool_api(module.tree):
            return ()
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in HARVEST_METHODS
                and not node.args
                and not any(
                    keyword.arg == "timeout" for keyword in node.keywords
                )
            ):
                findings.append(
                    self.finding(
                        module,
                        node,
                        f".{func.attr}() without a timeout blocks forever "
                        f"on a hung worker; pass timeout= so the "
                        f"supervisor's deadline applies",
                    )
                )
        return findings


@register
class BroadExceptRule(Rule):
    """RES002: ``BaseException`` is caught only at the supervisor
    boundary.

    Flags bare ``except:`` handlers and handlers naming
    ``BaseException`` (alone or in a tuple) anywhere in the source
    tree.  A handler that wide swallows ``KeyboardInterrupt`` and
    ``SystemExit`` and hides worker failures from the supervisor, so
    the failed task is never re-run.  Handlers whose last statement is
    a bare ``raise`` (cleanup-then-re-raise) are exempt; the
    supervisor's own boundary handler — which re-raises interrupts but
    turns worker errors into in-process re-runs — carries
    ``# repro: noqa[RES002]``.
    See docs/INVARIANTS.md (family 5).
    """

    id = "RES002"
    title = "bare/BaseException handler outside the supervisor"

    def check_module(
        self, module: SourceModule, context: LintContext
    ) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._too_broad(node.type):
                continue
            if self._reraises(node):
                continue
            what = "bare except:" if node.type is None else "except BaseException"
            findings.append(
                self.finding(
                    module,
                    node,
                    f"{what} swallows KeyboardInterrupt/SystemExit and "
                    f"hides worker failures from the supervisor; catch "
                    f"Exception (or narrower), or re-raise",
                )
            )
        return findings

    @staticmethod
    def _too_broad(annotation) -> bool:
        if annotation is None:
            return True
        names = []
        if isinstance(annotation, ast.Tuple):
            names = list(annotation.elts)
        else:
            names = [annotation]
        for name in names:
            if isinstance(name, ast.Name) and name.id == "BaseException":
                return True
            if isinstance(name, ast.Attribute) and name.attr == "BaseException":
                return True
        return False

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        if not handler.body:
            return False
        last = handler.body[-1]
        return isinstance(last, ast.Raise) and last.exc is None
