"""Resilience rule for the supervised parallel runtime.

The supervisor (``runtime/supervisor.py``) owns failure handling for
every worker pool: a per-task deadline, failure detection, and a
bit-exact in-process re-run of each failed task (see
docs/INVARIANTS.md, family 5).  ``BaseException`` (and the bare
``except:`` that implies it) may be caught only at the supervisor
boundary.  Anywhere else, a handler that wide swallows
``KeyboardInterrupt``/``SystemExit`` and hides worker crashes from the
supervisor, so the failed task is never re-run.  That the supervisor
is the only module with a pool at all is SUP001's contract (family 3).
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.analysis.core import (
    Finding,
    LintContext,
    Rule,
    SourceModule,
    register,
)


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
