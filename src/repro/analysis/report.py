"""Reporters: the lint run rendered as text or as a JSON document.

The JSON form is what CI uploads as an artifact; its shape is::

    {
      "version": 2,
      "clean": true,
      "modules": 62,
      "rules": {"DET001": {"title": ..., "severity": ..., "count": 0}, ...},
      "findings": [ {rule, path, line, col, severity, message}, ... ]
    }

``clean`` is exactly the condition the lint exit code gates on.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from repro.analysis.core import Finding, Rule

REPORT_VERSION = 2


def render_text(findings: Sequence[Finding], modules: int) -> str:
    lines: List[str] = [finding.render() for finding in findings]
    lines.append(
        f"{len(findings)} finding{'s' if len(findings) != 1 else ''} "
        f"in {modules} module{'s' if modules != 1 else ''}"
    )
    return "\n".join(lines)


def report_document(
    findings: Sequence[Finding],
    modules: int,
    rules: Sequence[Rule],
) -> Dict:
    per_rule: Dict[str, Dict] = {}
    for rule in rules:
        per_rule[rule.id] = {
            "title": rule.title,
            "severity": rule.severity,
            "count": 0,
        }
    for finding in findings:
        entry = per_rule.setdefault(
            finding.rule,
            {"title": "", "severity": finding.severity, "count": 0},
        )
        entry["count"] += 1
    return {
        "version": REPORT_VERSION,
        "clean": not findings,
        "modules": modules,
        "rules": per_rule,
        "findings": [finding.to_dict() for finding in findings],
    }


def render_json(
    findings: Sequence[Finding],
    modules: int,
    rules: Sequence[Rule],
) -> str:
    return json.dumps(report_document(findings, modules, rules), indent=2)
