"""Reporters for lint results: human text and machine JSON.

The text reporter is what ``repro lint`` prints by default; the JSON
reporter backs ``--json`` and the CI artifact upload (one self-contained
object, stable key order, newline-terminated).
"""

from __future__ import annotations

import json
from typing import List

from repro.lint.engine import LintResult, all_rules


def format_text(result: LintResult, *, verbose: bool = False) -> str:
    """Human-readable report: one line per finding, then a summary."""
    lines: List[str] = []
    for finding in result.errors:
        lines.append(
            f"{finding.located()}: {finding.rule}: {finding.message}"
        )
        if finding.snippet:
            lines.append(f"    {finding.snippet}")
    if verbose:
        for finding, supp in result.suppressed:
            why = supp.justification or "(no justification)"
            lines.append(
                f"{finding.located()}: {finding.rule}: suppressed -- {why}"
            )
    lines.append(
        f"repro lint: {len(result.errors)} error(s), "
        f"{len(result.suppressed)} suppressed "
        f"[{result.files_scanned} files, {len(result.rules_run)} rules]"
    )
    return "\n".join(lines) + "\n"


def format_json(result: LintResult) -> str:
    """Machine-readable report (stable schema, version-stamped)."""
    payload = {
        "version": 1,
        "summary": {
            "errors": len(result.errors),
            "suppressed": len(result.suppressed),
            "files_scanned": result.files_scanned,
            "rules_run": result.rules_run,
        },
        "rules": [
            {"code": rule.code, "name": rule.name, "summary": rule.summary}
            for rule in all_rules()
        ],
        "errors": [f.as_dict() for f in result.errors],
        "suppressed": [
            {
                "finding": f.as_dict(),
                "justification": s.justification,
            }
            for f, s in result.suppressed
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"
