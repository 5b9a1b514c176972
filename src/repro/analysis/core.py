"""The invariant-linter framework: findings, rules, noqa, execution.

:mod:`repro.analysis` is a *project-specific* static-analysis pass over
the ``repro`` source tree.  Five PRs of performance work have left
correctness hanging on contracts that are enforced only by convention
and randomized tests — bit-exactness across mask backends, hash-seed-
stable sorted accumulation in the MDL code, purity of the mask-backend
protocol's read ops, pickle/fork safety of the worker payloads.
The rules in :mod:`repro.analysis.rules` encode those contracts as
checkable artifacts so the next refactor trips a lint failure instead
of a randomized-test heisenbug (the contracts themselves are written
up in ``docs/INVARIANTS.md``).

This module carries the machinery the rules plug into:

* :class:`Finding` — one diagnostic;
* :class:`SourceModule` — a parsed file plus its per-line
  ``# repro: noqa[RULE]`` suppressions;
* :class:`Rule` and :func:`register` — the rule plugin surface.  A rule
  implements :meth:`Rule.check_module` (called once per file) and/or
  :meth:`Rule.check_project` (called once with every file in view —
  for cross-file contracts like config/CLI drift);
* :class:`LintContext` — the full module set handed to every rule;
* :func:`run_rules` — dispatch, noqa filtering, deterministic ordering.

Suppression syntax: a ``# repro: noqa`` comment suppresses every rule
on its line; ``# repro: noqa[DET001]`` (comma-separated ids allowed)
suppresses only the named rules.  Suppressions are matched against the
finding's *first* line, so put the comment on the first physical line
of a multi-line statement.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ReproError

SEVERITIES = ("error", "warning")

#: ``# repro: noqa`` / ``# repro: noqa[RULE1, RULE2]`` — the only
#: suppression syntax the linter honours.  Scanned per physical line (a
#: literal match inside a string constant would also suppress; keep the
#: marker out of string literals).
_NOQA_PATTERN = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?"
)


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a rule."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: str = "error"

    def sort_key(self) -> Tuple:
        return (self.path, self.line, self.col, self.rule, self.message)

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class SourceModule:
    """A parsed source file plus its suppression table."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        #: line -> None (suppress all rules) or the suppressed rule ids.
        self.noqa: Dict[int, Optional[FrozenSet[str]]] = _collect_noqa(source)

    @classmethod
    def parse(cls, path: str, source: str) -> "SourceModule":
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            raise ReproError(
                f"cannot parse {path}, line {exc.lineno}: {exc.msg}"
            ) from None
        return cls(path, source, tree)

    def path_endswith(self, suffix: str) -> bool:
        """Suffix match on the display path (``core/mdl.py`` matches
        both ``core/mdl.py`` and ``src/repro/core/mdl.py``)."""
        return self.path == suffix or self.path.endswith("/" + suffix)

    def suppresses(self, finding: Finding) -> bool:
        if finding.line not in self.noqa:
            return False
        rules = self.noqa[finding.line]
        return rules is None or finding.rule in rules


def _collect_noqa(source: str) -> Dict[int, Optional[FrozenSet[str]]]:
    table: Dict[int, Optional[FrozenSet[str]]] = {}
    for number, text in enumerate(source.splitlines(), start=1):
        match = _NOQA_PATTERN.search(text)
        if match is None:
            continue
        rules = match.group("rules")
        if rules is None:
            table[number] = None
        else:
            names = frozenset(
                name.strip() for name in rules.split(",") if name.strip()
            )
            # ``noqa[]`` suppresses nothing rather than everything.
            table[number] = names if names else frozenset()
    return table


@dataclass
class LintContext:
    """Everything a rule may look at: the full parsed module set."""

    modules: List[SourceModule] = field(default_factory=list)

    def module_with_class(self, class_name: str):
        """``(module, ClassDef)`` of the first top-level class with this
        name, or ``(None, None)``."""
        for module in self.modules:
            for node in module.tree.body:
                if isinstance(node, ast.ClassDef) and node.name == class_name:
                    return module, node
        return None, None

    def module_with_function(self, function_name: str):
        """``(module, FunctionDef)`` of the first top-level function with
        this name, or ``(None, None)``."""
        for module in self.modules:
            for node in module.tree.body:
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name == function_name
                ):
                    return module, node
        return None, None


class Rule:
    """Base class for one invariant check.

    Subclasses set :attr:`id` (the ``# repro: noqa[...]`` name),
    :attr:`title` (one line, shown by ``repro lint --list-rules``) and
    :attr:`severity`, then implement :meth:`check_module` and/or
    :meth:`check_project`.  The class docstring is the rule's long
    documentation; keep it cross-linked with ``docs/INVARIANTS.md``.
    """

    id: str = ""
    title: str = ""
    severity: str = "error"

    def check_module(
        self, module: SourceModule, context: LintContext
    ) -> Iterable[Finding]:
        return ()

    def check_project(self, context: LintContext) -> Iterable[Finding]:
        return ()

    def finding(
        self, module: SourceModule, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.id,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            severity=self.severity,
        )


#: id -> rule instance, in registration order.
RULE_REGISTRY: Dict[str, Rule] = {}


def register(rule_cls):
    """Class decorator: instantiate and register a :class:`Rule`."""
    rule = rule_cls()
    if not rule.id:
        raise ValueError(f"rule {rule_cls.__name__} has no id")
    if rule.severity not in SEVERITIES:
        raise ValueError(
            f"rule {rule.id}: severity must be one of {SEVERITIES}"
        )
    if rule.id in RULE_REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    RULE_REGISTRY[rule.id] = rule
    return rule_cls


def resolve_rules(rule_ids: Optional[Sequence[str]] = None) -> List[Rule]:
    """The selected rules (all registered rules when ``rule_ids`` is
    None); unknown ids raise ``ReproError`` with the known set."""
    if rule_ids is None:
        return list(RULE_REGISTRY.values())
    unknown = sorted(set(rule_ids) - set(RULE_REGISTRY))
    if unknown:
        raise ReproError(
            f"unknown rule ids {unknown}; known: {sorted(RULE_REGISTRY)}"
        )
    return [RULE_REGISTRY[rule_id] for rule_id in dict.fromkeys(rule_ids)]


def run_rules(
    modules: Sequence[SourceModule],
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Run ``rules`` over ``modules``; noqa-filtered, sorted."""
    if rules is None:
        rules = list(RULE_REGISTRY.values())
    context = LintContext(modules=list(modules))
    by_path = {module.path: module for module in context.modules}
    findings: List[Finding] = []
    for rule in rules:
        for module in context.modules:
            findings.extend(rule.check_module(module, context))
        findings.extend(rule.check_project(context))
    kept = []
    for finding in findings:
        module = by_path.get(finding.path)
        if module is not None and module.suppresses(finding):
            continue
        kept.append(finding)
    kept.sort(key=Finding.sort_key)
    return kept


# ----------------------------------------------------------------------
# Shared AST helpers for rules
# ----------------------------------------------------------------------


def root_name(node: ast.AST) -> Optional[str]:
    """The leftmost ``Name`` id of an attribute/subscript/call chain
    (``a.b[c].d()`` -> ``"a"``), or None."""
    while True:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        else:
            return None


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a pure Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def walk_functions(tree: ast.AST):
    """Every (async) function definition in the tree, any nesting."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
