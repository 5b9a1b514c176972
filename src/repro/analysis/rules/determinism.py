"""Determinism rules: hash-seed-stable accumulation and ordering.

The PR-1 golden-file pin rests on one discipline (see
``docs/INVARIANTS.md``, family 1): every float accumulation or
serialised sequence that feeds a result document must run in an
explicitly sorted order, because float addition is order-sensitive and
``set``/``frozenset`` iteration (and, historically, dict iteration)
varies with ``PYTHONHASHSEED``.  The rules here are deliberately
*syntactic* — they flag the shapes that can go wrong rather than prove
they do — so they stay cheap and predictable; an order-free site (an
integer sum, say) carries a ``# repro: noqa[DET001]`` with its reason.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set, Tuple

from repro.analysis.core import (
    Finding,
    LintContext,
    Rule,
    SourceModule,
    dotted_name,
    register,
    walk_functions,
)

#: Modules whose description-length / serialisation arithmetic pins the
#: CLI golden file; every accumulation in them must be order-stable.
HASH_SENSITIVE_MODULES: Tuple[str, ...] = (
    "core/mdl.py",
    "core/result.py",
    "core/code_table.py",
    "core/astar.py",
    "config.py",
)

#: Functions that are serialisation paths wherever they live: their
#: output order lands verbatim in result documents.
SERIALIZER_FUNCTIONS = frozenset({"to_dict", "to_json"})

#: Method names whose call result has no guaranteed *semantic* order:
#: dict views (insertion order is real but encodes construction
#: history, not a contract) and the project's own database views
#: (``row_items`` walks a dict; ``coresets_of``/``leafsets_of`` return
#: frozensets).
UNORDERED_METHODS = frozenset(
    {
        "items",
        "keys",
        "values",
        "row_items",
        "coresets",
        "leafsets",
        "coresets_of",
        "leafsets_of",
    }
)

UNORDERED_CONSTRUCTORS = frozenset({"set", "frozenset"})

ACCUMULATOR_CALLS = frozenset({"sum", "fsum"})


def _is_unordered_iterable(node: ast.AST) -> bool:
    """Whether ``node`` is a syntactic shape with hash- or
    history-dependent iteration order (never true for ``sorted(...)``)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in UNORDERED_CONSTRUCTORS:
            return True
        if isinstance(func, ast.Attribute) and func.attr in UNORDERED_METHODS:
            return True
    return False


def _first_generator_unordered(node: ast.AST) -> bool:
    if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
        return _is_unordered_iterable(node.generators[0].iter)
    return False


def _contains_augassign(nodes: Iterable[ast.stmt]) -> bool:
    for statement in nodes:
        for node in ast.walk(statement):
            if isinstance(node, ast.AugAssign):
                return True
    return False


@register
class UnsortedAccumulationRule(Rule):
    """DET001: unsorted set/dict iteration feeding an accumulator or a
    serialiser.

    In the hash-sensitive modules (``core/mdl.py``, ``core/result.py``,
    ``core/code_table.py``, ``core/astar.py``, ``config.py``) a ``for``
    loop over ``.items()``/``.keys()``/``.values()``/``row_items()``/
    a ``set`` that augments an accumulator (``total += ...``), and any
    ``sum(...)`` over such an iterable, must go through ``sorted(...)``
    first.  In functions named ``to_dict``/``to_json`` — serialisation
    paths wherever they live — *any* unsorted iteration of those shapes
    is flagged, because the iteration order lands in the document.
    Order-free sites (integer sums) carry ``# repro: noqa[DET001]``
    with the reason.  See docs/INVARIANTS.md (family 1).
    """

    id = "DET001"
    title = "unsorted set/dict iteration feeding an accumulator/serialiser"

    def check_module(
        self, module: SourceModule, context: LintContext
    ) -> Iterable[Finding]:
        findings: List[Finding] = []
        seen: Set[Tuple[int, int]] = set()

        def emit(node: ast.AST, message: str) -> None:
            key = (node.lineno, node.col_offset)
            if key not in seen:
                seen.add(key)
                findings.append(self.finding(module, node, message))

        sensitive = any(
            module.path_endswith(name) for name in HASH_SENSITIVE_MODULES
        )
        if sensitive:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.For):
                    if _is_unordered_iterable(node.iter) and _contains_augassign(
                        node.body
                    ):
                        emit(
                            node,
                            "unsorted iteration accumulates order-"
                            "sensitively in a hash-sensitive module; "
                            "iterate sorted(...) (or suppress with a "
                            "reason if the sum is order-free)",
                        )
                elif isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else None
                    if name in ACCUMULATOR_CALLS and node.args:
                        argument = node.args[0]
                        if _is_unordered_iterable(
                            argument
                        ) or _first_generator_unordered(argument):
                            emit(
                                node,
                                f"{name}() over an unsorted set/dict view "
                                "in a hash-sensitive module; sort the "
                                "iterable (or suppress with a reason if "
                                "the sum is order-free)",
                            )
        for function in walk_functions(module.tree):
            if function.name not in SERIALIZER_FUNCTIONS:
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.For) and _is_unordered_iterable(
                    node.iter
                ):
                    emit(
                        node,
                        f"unsorted iteration inside serialiser "
                        f"{function.name}(); the order lands in the "
                        "document — iterate sorted(...)",
                    )
                elif isinstance(
                    node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)
                ) and _is_unordered_iterable(node.generators[0].iter):
                    emit(
                        node,
                        f"unsorted comprehension inside serialiser "
                        f"{function.name}(); the order lands in the "
                        "document — iterate sorted(...)",
                    )
        return findings


@register
class HashDerivedOrderingRule(Rule):
    """DET002: ``hash()``/``id()`` used as an ordering key.

    ``sorted(..., key=hash)`` (or a key function calling ``hash()`` or
    ``id()``) produces a different order per process: ``hash`` is
    salted by ``PYTHONHASHSEED`` for str/bytes and ``id`` is an
    allocation address.  Sort keys must be value-derived — the project
    convention is ``repr`` (``leafset_sort_key``) or interned integer
    ids.  Applies to the whole tree.  See docs/INVARIANTS.md (family 1).
    """

    id = "DET002"
    title = "hash()/id()-derived ordering"

    _ORDERING_FUNCS = frozenset({"sorted", "min", "max"})

    def check_module(
        self, module: SourceModule, context: LintContext
    ) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_ordering = (
                isinstance(func, ast.Name) and func.id in self._ORDERING_FUNCS
            ) or (isinstance(func, ast.Attribute) and func.attr == "sort")
            if not is_ordering:
                continue
            for keyword in node.keywords:
                if keyword.arg != "key":
                    continue
                culprit = self._hash_or_id(keyword.value)
                if culprit is not None:
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f"ordering key derives from {culprit}(), which "
                            "varies per process; use a value-derived key "
                            "(repr / interned ids)",
                        )
                    )
        return findings

    @staticmethod
    def _hash_or_id(key_node: ast.AST) -> Optional[str]:
        if isinstance(key_node, ast.Name) and key_node.id in ("hash", "id"):
            return key_node.id
        for node in ast.walk(key_node):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("hash", "id")
            ):
                return node.func.id
        return None


@register
class UnseededEntropyRule(Rule):
    """DET003: unseeded randomness inside ``core/``.

    The mining core must be a pure function of (graph, config): global-
    RNG calls (``random.random()``, ``np.random.rand()``, an argument-
    less ``default_rng()``) make merges — and therefore golden files —
    irreproducible.  Seeded generators (``random.Random(seed)``,
    ``np.random.default_rng(seed)``) pass.  Wall-clock reads are
    OBS002's: no module outside ``repro/obs/`` may import ``time``.
    See docs/INVARIANTS.md (family 1).
    """

    id = "DET003"
    title = "unseeded random in core/"

    def check_module(
        self, module: SourceModule, context: LintContext
    ) -> Iterable[Finding]:
        if "core/" not in module.path and not module.path.startswith("core"):
            return ()
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            message = self._violation(name, node)
            if message is not None:
                findings.append(self.finding(module, node, message))
        return findings

    def _violation(self, name: str, call: ast.Call) -> Optional[str]:
        parts = name.split(".")
        if parts[0] == "random" and len(parts) == 2:
            if parts[1] == "Random":
                if not call.args and not call.keywords:
                    return (
                        "random.Random() without a seed in core/; pass an "
                        "explicit seed"
                    )
                return None
            if parts[1] == "seed":
                return None
            return (
                f"{name}() uses the global unseeded RNG in core/; use a "
                "seeded random.Random(seed) instance"
            )
        if len(parts) >= 2 and parts[-2] == "random":
            # numpy's legacy global RNG (np.random.rand etc.); the
            # seeded generator construction is the one allowed call.
            if parts[-1] == "default_rng":
                if call.args or call.keywords:
                    return None
                return (
                    "default_rng() without a seed in core/; pass an "
                    "explicit seed"
                )
            return (
                f"{name}() uses numpy's global RNG in core/; use "
                "np.random.default_rng(seed)"
            )
        return None
