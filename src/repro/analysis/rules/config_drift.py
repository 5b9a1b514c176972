"""Config/CLI drift rule: the knob registry stays fully wired.

``CSPMConfig`` is the single source of truth for run knobs; the CLI's
``mine`` re-exposes them as flags.  The drift mode this guards against
(see docs/INVARIANTS.md, family 4) is a new config field that is
silently unreachable from the CLI.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set, Tuple

from repro.analysis.core import Finding, LintContext, Rule, register

CONFIG_CLASS = "CSPMConfig"

#: Config field -> CLI flag where the spelling is not the mechanical
#: ``--field-name`` transform.  Keep in sync with ``cli._add_mine``.
FLAG_ALIASES: Dict[str, str] = {
    "coreset_encoder": "--encoder",
    "partial_update_scope": "--scope",
    "top_k": "--top",
}

#: Fields deliberately not exposed as flags, with the reason (shown in
#: the finding when a field is *neither* wired nor exempted).
EXEMPT_FIELDS: Dict[str, str] = {
    "include_model_cost": "ablation knob, set via the API by benchmarks",
    "max_iterations": "safety cap for embedders, API-only by design",
}

#: The function that marks a module as flag-bearing: the drift check
#: only runs when it is in view, so linting a lone snippet does not
#: report every field as unwired.
FLAG_FUNCTION = "_add_mine"


def _config_fields(
    class_def: ast.ClassDef,
) -> List[Tuple[str, ast.AnnAssign]]:
    fields = []
    for item in class_def.body:
        if isinstance(item, ast.AnnAssign) and isinstance(
            item.target, ast.Name
        ):
            fields.append((item.target.id, item))
    return fields


def _declared_flags(context: LintContext) -> Set[str]:
    """Every ``--flag`` string passed to an ``add_argument`` call in any
    module in view (all option-string spellings count)."""
    flags: Set[str] = set()
    for module in context.modules:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"
            ):
                for argument in node.args:
                    if isinstance(argument, ast.Constant) and isinstance(
                        argument.value, str
                    ):
                        if argument.value.startswith("--"):
                            flags.add(argument.value)
    return flags


@register
class ConfigFlagDriftRule(Rule):
    """CFG001: every ``CSPMConfig`` field has a CLI flag or an explicit
    exemption.

    The expected flag is ``--<field-with-dashes>`` or the alias in
    :data:`FLAG_ALIASES`; it may be declared by any ``add_argument``
    call in view (``mine``'s, in ``cli.py``).  Fields in
    :data:`EXEMPT_FIELDS` are skipped — adding a field to the exemption
    dict is the deliberate opt-out.  A knob added without wiring fails
    this rule before a run that sets it becomes one ``mine`` cannot
    repeat.  See docs/INVARIANTS.md (family 4).
    """

    id = "CFG001"
    title = "CSPMConfig field without a CLI flag or exemption"

    def check_project(self, context: LintContext) -> Iterable[Finding]:
        module, class_def = context.module_with_class(CONFIG_CLASS)
        if (
            module is None
            or context.module_with_function(FLAG_FUNCTION)[0] is None
        ):
            return ()
        flags = _declared_flags(context)
        findings: List[Finding] = []
        for name, node in _config_fields(class_def):
            if name in EXEMPT_FIELDS:
                continue
            expected = FLAG_ALIASES.get(name, "--" + name.replace("_", "-"))
            if expected not in flags:
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"config field {name!r} has no CLI flag "
                        f"({expected} not declared by mine) and no "
                        f"entry in the exemption list",
                    )
                )
        return findings
