"""Observability rules for the :mod:`repro.obs` instrumentation layer.

Two contracts keep the observability layer auditable and the rest of
the tree deterministic (see docs/INVARIANTS.md, family 6):

* span/metric/progress *names* are string literals at the call site.
  The catalogue in docs/OBSERVABILITY.md is maintained by grep; a name
  built at runtime is invisible to that audit and unbounded in
  cardinality (labels exist for the runtime-variable dimensions).
  The :mod:`repro.obs` modules themselves are exempt — the facade and
  the null objects *delegate* the name as a variable by design.
* ``repro.obs.clock`` is the only sanctioned ``import time`` in the
  package.  Everything else reaches wall-clock through the
  ``repro.obs.clock`` seam (``clock.perf_counter``/``clock.sleep``),
  which keeps timing monkeypatchable in one place and the wall clock
  out of the mining core — a stray ``import time`` is how
  nondeterministic timing quietly re-enters a hot path.
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

#: The name-taking observability methods: spans/instants on the tracer
#: (and the Observation facade), instruments on the metrics registry,
#: and the progress emitter's two emission methods.  The method names
#: are deliberately distinctive — generic verbs like ``set``/``get``/
#: ``event`` would collide with unrelated APIs.
NAMED_OBS_METHODS = frozenset(
    {"span", "instant", "counter", "gauge", "histogram", "heartbeat", "note"}
)


def _in_obs_package(module: SourceModule) -> bool:
    normalized = "/" + module.path.replace("\\", "/")
    return "/obs/" in normalized


@register
class LiteralObsNameRule(Rule):
    """OBS001: span/metric/progress names are string literals.

    Flags calls of the name-taking observability methods (``span``,
    ``instant``, ``counter``, ``gauge``, ``histogram``, ``heartbeat``,
    ``note``) whose first argument is not a string literal.  Literal
    names keep docs/OBSERVABILITY.md's catalogue grep-complete and
    bound the metric registry's cardinality by the source code; the
    runtime-variable dimensions (site, phase, case) belong in labels
    and span attributes.  The :mod:`repro.obs` modules are exempt:
    the ``Observation`` facade and the null recorders forward the name
    as a parameter by design.
    See docs/INVARIANTS.md (family 6).
    """

    id = "OBS001"
    title = "observability name is not a string literal"

    def check_module(
        self, module: SourceModule, context: LintContext
    ) -> Iterable[Finding]:
        if _in_obs_package(module):
            return ()
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                not isinstance(func, ast.Attribute)
                or func.attr not in NAMED_OBS_METHODS
                or not node.args
            ):
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(
                first.value, str
            ):
                continue
            findings.append(
                self.finding(
                    module,
                    node,
                    f".{func.attr}(...) name must be a string literal "
                    f"(docs/OBSERVABILITY.md is the grep-maintained "
                    f"catalogue); put runtime-variable dimensions in "
                    f"labels or span attributes",
                )
            )
        return findings


@register
class ClockSeamRule(Rule):
    """OBS002: ``import time`` only inside :mod:`repro.obs`.

    Flags any ``import time`` / ``from time import ...`` outside the
    ``repro/obs/`` package.  All wall-clock access goes through the
    ``repro.obs.clock`` seam — one rebindable module attribute set —
    so tests can freeze or script time in one place and timing can
    never silently perturb the deterministic mining paths.  It is the
    package's one wall-clock check: every ``time.*`` call, under any
    alias, needs an import this rule flags.  Code that genuinely needs
    a clock imports ``from repro.obs import clock`` and calls
    ``clock.perf_counter()``/``clock.sleep()``.
    See docs/INVARIANTS.md (family 6).
    """

    id = "OBS002"
    title = "import time outside the repro.obs clock seam"

    def check_module(
        self, module: SourceModule, context: LintContext
    ) -> Iterable[Finding]:
        if _in_obs_package(module):
            return ()
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "").split(".")[0]]
            else:
                continue
            if "time" not in names:
                continue
            findings.append(
                self.finding(
                    module,
                    node,
                    "import the clock seam instead (from repro.obs "
                    "import clock; clock.perf_counter()/clock.sleep()): "
                    "repro.obs.clock is the single sanctioned time "
                    "import",
                )
            )
        return findings
