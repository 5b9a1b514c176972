"""``repro.analysis``: the project-specific invariant linter.

Five PRs of performance work made correctness hang on contracts that
were enforced only by convention: bit-exactness across mask backends,
hash-seed-stable sorted accumulation in the MDL code, purity of every
mask-backend read op, and pickle/fork safety of the worker
processes' payloads.  This package checks those contracts
mechanically over the source tree — ``repro lint`` in the CLI, the
``lint`` job in CI — so the ROADMAP's next refactors (sharded search,
CSR construction, out-of-core masks) trip a lint failure instead of a
randomized-test heisenbug.

Public surface::

    from repro.analysis import lint_paths, lint_sources

    report = lint_paths()          # lint the installed repro package
    report = lint_sources([("core/mdl.py", source_text)])
    report.findings                # every finding (fails CI)
    report.clean                   # no findings

Rules are registered by :mod:`repro.analysis.rules`; the one exemption
is ``# repro: noqa[RULEID]`` on the finding's line.  A path that cannot
be read or parsed, and an unknown rule id, raise
:class:`~repro.errors.ReproError`.  See ``docs/INVARIANTS.md`` for the
contracts in prose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis import rules as _rules  # noqa: F401  (registers rules)
from repro.analysis.core import (
    RULE_REGISTRY,
    Finding,
    Rule,
    SourceModule,
    resolve_rules,
    run_rules,
)
from repro.analysis.report import render_json, render_text, report_document
from repro.errors import ReproError


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding]
    modules: int
    rules: List[Rule] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    def render_text(self) -> str:
        return render_text(self.findings, self.modules)

    def render_json(self) -> str:
        return render_json(self.findings, self.modules, self.rules)

    def to_dict(self) -> Dict:
        return report_document(self.findings, self.modules, self.rules)


def default_lint_root() -> Path:
    """The installed ``repro`` package directory — what ``repro lint``
    checks when no paths are given."""
    return Path(__file__).resolve().parent.parent


def _read_source(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ReproError(f"cannot read {path}: {exc}") from None


def _collect_sources(paths: Sequence[str]) -> List[Tuple[str, str]]:
    sources: List[Tuple[str, str]] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            # Display paths keep the directory's own name, so scope
            # suffixes like ``runtime/supervisor.py`` still match when
            # only ``src/repro/runtime`` is linted.
            base = path.resolve()
            for file_path in sorted(base.rglob("*.py")):
                display = file_path.relative_to(base.parent).as_posix()
                sources.append((display, _read_source(file_path)))
        else:
            # Keep the path as given (posix) so scope suffixes like
            # ``core/mdl.py`` still match single-file invocations.
            sources.append((path.as_posix(), _read_source(path)))
    return sources


def lint_sources(
    sources: Sequence[Tuple[str, str]],
    rule_ids: Optional[Sequence[str]] = None,
) -> LintReport:
    """Lint in-memory ``(display_path, source)`` pairs.

    The display path is what rules match scopes against (use
    ``core/mdl.py``-style suffixes).
    """
    selected = resolve_rules(rule_ids)
    modules = [SourceModule.parse(path, text) for path, text in sources]
    return LintReport(
        findings=run_rules(modules, selected),
        modules=len(modules),
        rules=selected,
    )


def lint_paths(
    paths: Optional[Sequence[str]] = None,
    rule_ids: Optional[Sequence[str]] = None,
) -> LintReport:
    """Lint files/directories (default: the installed repro package)."""
    if not paths:
        paths = [str(default_lint_root())]
    return lint_sources(_collect_sources(paths), rule_ids)


__all__ = [
    "Finding",
    "LintReport",
    "Rule",
    "RULE_REGISTRY",
    "default_lint_root",
    "lint_paths",
    "lint_sources",
    "render_json",
    "render_text",
    "resolve_rules",
    "run_rules",
]
