"""Mask-backend protocol rules: full surface, pure read ops.

``InvertedDatabase.copy`` shares mask *values* between copies, and the
lazy refresh keeps masks cached across merges — both are sound only
because every :class:`~repro.core.masks.base.MaskBackend` operation
except the two fresh-value constructors (``make``/``make_runs``) is
pure: it never mutates ``self`` or an argument.  These rules check that
contract statically for every class that subclasses ``MaskBackend``
(see docs/INVARIANTS.md, family 2).

The protocol *specification* is derived from the ``MaskBackend`` class
definition itself at lint time (methods whose body raises
``NotImplementedError`` are required; their positional arity is the
contract), so the rules track the protocol as it evolves instead of
carrying a copy that can drift.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import (
    Finding,
    LintContext,
    Rule,
    register,
    root_name,
)

BACKEND_BASE_CLASS = "MaskBackend"

#: The fresh-value constructors, which may build their result in
#: place; everything else must be pure.
CONSTRUCTION_OPS = frozenset({"make", "make_runs"})

#: Method names that mutate their receiver (list/set/dict/ndarray).
MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "clear",
        "remove",
        "discard",
        "sort",
        "reverse",
        "fill",
        "put",
        "resize",
        "itemset",
    }
)

#: Call attrs that mutate their *first argument* (numpy ufunc ``.at``
#: scatters, ``operator.setitem``).
ARGUMENT_MUTATORS = frozenset({"at", "setitem"})


def _is_backend_subclass(node: ast.ClassDef) -> bool:
    for base in node.bases:
        if isinstance(base, ast.Name) and base.id == BACKEND_BASE_CLASS:
            return True
        if isinstance(base, ast.Attribute) and base.attr == BACKEND_BASE_CLASS:
            return True
    return False


def _methods(node: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    return {
        item.name: item
        for item in node.body
        if isinstance(item, ast.FunctionDef)
    }


def _raises_not_implemented(function: ast.FunctionDef) -> bool:
    for statement in function.body:
        if isinstance(statement, ast.Raise):
            exc = statement.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id == "NotImplementedError":
                return True
    return False


def _positional_arity(function: ast.FunctionDef) -> Optional[int]:
    """Positional parameter count, or None when *args makes it open."""
    if function.args.vararg is not None:
        return None
    return len(function.args.posonlyargs) + len(function.args.args)


def _protocol_spec(base: ast.ClassDef) -> Dict[str, Tuple[bool, Optional[int]]]:
    """name -> (required, arity) for every public protocol method."""
    spec: Dict[str, Tuple[bool, Optional[int]]] = {}
    for name, function in _methods(base).items():
        if name.startswith("_"):
            continue
        spec[name] = (_raises_not_implemented(function), _positional_arity(function))
    return spec


def _backend_classes(context: LintContext):
    for module in context.modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and _is_backend_subclass(node):
                yield module, node


@register
class BackendSurfaceRule(Rule):
    """MSK001: every ``MaskBackend`` subclass implements the full
    protocol surface with matching arity.

    Required methods are those whose ``MaskBackend`` body raises
    ``NotImplementedError``; methods with a default body (``make_runs``)
    are optional overrides.  Arity is compared
    positionally (``self`` included); a ``*args`` signature on either
    side skips the comparison.  A partial backend would fail at the
    first missed dispatch *on some input* — this rule fails it at lint
    time instead.  See docs/INVARIANTS.md (family 2).
    """

    id = "MSK001"
    title = "incomplete or arity-mismatched MaskBackend implementation"

    def check_project(self, context: LintContext) -> Iterable[Finding]:
        base_module, base = context.module_with_class(BACKEND_BASE_CLASS)
        if base is None:
            return ()
        spec = _protocol_spec(base)
        findings: List[Finding] = []
        for module, backend in _backend_classes(context):
            methods = _methods(backend)
            for name, (required, base_arity) in sorted(spec.items()):
                implementation = methods.get(name)
                if implementation is None:
                    if required:
                        findings.append(
                            self.finding(
                                module,
                                backend,
                                f"backend class {backend.name} does not "
                                f"implement required protocol method "
                                f"{name}()",
                            )
                        )
                    continue
                arity = _positional_arity(implementation)
                if (
                    arity is not None
                    and base_arity is not None
                    and arity != base_arity
                ):
                    findings.append(
                        self.finding(
                            module,
                            implementation,
                            f"{backend.name}.{name}() takes {arity} "
                            f"positional parameters where the protocol "
                            f"declares {base_arity}",
                        )
                    )
        return findings


@register
class PureOpMutationRule(Rule):
    """MSK002: no statement in a pure mask op mutates ``self`` or an
    argument.

    Pure ops are every protocol method except ``make``/``make_runs``.
    Flagged shapes, on any name derived from ``self`` or a parameter
    (tracking aliases through plain ``a, b = b, a`` rebinds and loop
    targets over tracked containers):
    attribute/subscript assignment, augmented assignment (in-place
    operators are flagged even where the element type happens to be
    immutable — the representation is backend-private, so the safe
    spelling is ``x = x op y``), ``del``, known-mutating method calls
    (``.update``, ``.append``, ``np.*.at(tracked, ...)``).  Private
    helpers (leading underscore) are exempt: they are not protocol
    surface and the constructors legitimately share them.  See
    docs/INVARIANTS.md (family 2).
    """

    id = "MSK002"
    title = "mutation inside a pure mask-backend op"

    def check_project(self, context: LintContext) -> Iterable[Finding]:
        base_module, base = context.module_with_class(BACKEND_BASE_CLASS)
        if base is None:
            return ()
        protocol = set(_protocol_spec(base))
        pure = protocol - CONSTRUCTION_OPS
        findings: List[Finding] = []
        for module, backend in _backend_classes(context):
            for name, function in sorted(_methods(backend).items()):
                if name not in pure:
                    continue
                for node, description in _mutations(function):
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f"pure op {backend.name}.{name}() {description}",
                        )
                    )
        return findings


def _mutations(function: ast.FunctionDef):
    """``(node, description)`` for every caller-visible mutation."""
    tracked: Set[str] = {
        argument.arg
        for argument in (
            list(function.args.posonlyargs)
            + list(function.args.args)
            + list(function.args.kwonlyargs)
        )
    }
    violations: List[Tuple[ast.AST, str]] = []
    _scan_block(function.body, tracked, violations)
    return violations


def _target_names(target: ast.AST) -> Optional[List[str]]:
    """Flat name list of a Name/Tuple-of-Names target, else None."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: List[str] = []
        for element in target.elts:
            if not isinstance(element, ast.Name):
                return None
            names.append(element.id)
        return names
    return None


def _value_names(value: ast.AST) -> Optional[List[str]]:
    if isinstance(value, ast.Name):
        return [value.id]
    if isinstance(value, ast.Tuple):
        names: List[str] = []
        for element in value.elts:
            if not isinstance(element, ast.Name):
                return None
            names.append(element.id)
        return names
    return None


def _check_write_target(
    target: ast.AST, tracked: Set[str], violations, verb: str
) -> None:
    if isinstance(target, (ast.Attribute, ast.Subscript)):
        root = root_name(target)
        if root is not None and root in tracked:
            kind = "attribute" if isinstance(target, ast.Attribute) else "item"
            violations.append(
                (target, f"{verb} an {kind} of caller-owned {root!r}")
            )
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            _check_write_target(element, tracked, violations, verb)


def _check_calls(
    expressions: Sequence[Optional[ast.AST]], tracked: Set[str], violations
) -> None:
    """Flag mutating calls within the given expression trees."""
    nodes: List[ast.AST] = []
    for expression in expressions:
        if expression is not None:
            nodes.extend(ast.walk(expression))
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        if func.attr in MUTATING_METHODS:
            root = root_name(func.value)
            if root is not None and root in tracked:
                violations.append(
                    (
                        node,
                        f"calls mutating method .{func.attr}() on "
                        f"caller-owned {root!r}",
                    )
                )
        elif func.attr in ARGUMENT_MUTATORS and node.args:
            root = root_name(node.args[0])
            if root is not None and root in tracked:
                violations.append(
                    (
                        node,
                        f"calls {func.attr}(...) mutating caller-owned "
                        f"{root!r}",
                    )
                )


def _scan_block(
    statements: Sequence[ast.stmt], tracked: Set[str], violations
) -> None:
    for statement in statements:
        if isinstance(statement, ast.Assign):
            _check_calls([statement.value], tracked, violations)
            for target in statement.targets:
                _check_write_target(target, tracked, violations, "assigns")
            if len(statement.targets) == 1:
                names = _target_names(statement.targets[0])
            else:
                # a = b = value: untrack every simple name target.
                names = []
                for target in statement.targets:
                    flat = _target_names(target)
                    if flat:
                        names.extend(flat)
                tracked.difference_update(names)
                names = None
            if names is not None:
                sources = _value_names(statement.value)
                if sources is not None and all(
                    source in tracked for source in sources
                ):
                    # Alias of caller data (includes the a, b = b, a
                    # swap idiom): the new names still need tracking.
                    tracked.update(names)
                else:
                    tracked.difference_update(names)
        elif isinstance(statement, ast.AnnAssign):
            _check_calls([statement.value], tracked, violations)
            _check_write_target(statement.target, tracked, violations, "assigns")
            if isinstance(statement.target, ast.Name):
                tracked.discard(statement.target.id)
        elif isinstance(statement, ast.AugAssign):
            _check_calls([statement.value], tracked, violations)
            target = statement.target
            if isinstance(target, ast.Name):
                if target.id in tracked:
                    violations.append(
                        (
                            statement,
                            f"applies an in-place operator to caller-"
                            f"derived {target.id!r}; use the pure "
                            f"x = x op y form",
                        )
                    )
            else:
                _check_write_target(target, tracked, violations, "augments")
        elif isinstance(statement, ast.Delete):
            for target in statement.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    _check_write_target(
                        target, tracked, violations, "deletes"
                    )
                elif isinstance(target, ast.Name):
                    tracked.discard(target.id)
        elif isinstance(statement, (ast.For, ast.AsyncFor)):
            _check_calls([statement.iter], tracked, violations)
            iterable_root = root_name(statement.iter)
            if iterable_root is not None and iterable_root in tracked:
                names = _target_names(statement.target)
                if names is not None:
                    # Loop targets view elements of caller data (dict
                    # values may be mutable chunk arrays).
                    tracked.update(names)
            _scan_block(statement.body, tracked, violations)
            _scan_block(statement.orelse, tracked, violations)
        elif isinstance(statement, ast.While):
            _check_calls([statement.test], tracked, violations)
            _scan_block(statement.body, tracked, violations)
            _scan_block(statement.orelse, tracked, violations)
        elif isinstance(statement, ast.If):
            _check_calls([statement.test], tracked, violations)
            _scan_block(statement.body, tracked, violations)
            _scan_block(statement.orelse, tracked, violations)
        elif isinstance(statement, (ast.With, ast.AsyncWith)):
            _check_calls(
                [item.context_expr for item in statement.items],
                tracked,
                violations,
            )
            _scan_block(statement.body, tracked, violations)
        elif isinstance(statement, ast.Try):
            _scan_block(statement.body, tracked, violations)
            for handler in statement.handlers:
                _scan_block(handler.body, tracked, violations)
            _scan_block(statement.orelse, tracked, violations)
            _scan_block(statement.finalbody, tracked, violations)
        elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs get a fresh conservative scan: names they
            # close over stay tracked inside them.
            _scan_block(statement.body, set(tracked), violations)
        else:
            _check_calls(
                [
                    child
                    for child in ast.iter_child_nodes(statement)
                    if isinstance(child, ast.expr)
                ],
                tracked,
                violations,
            )
