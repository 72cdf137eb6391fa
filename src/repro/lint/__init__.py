"""``repro lint`` — repo-specific static analysis (``repro.lint``).

The correctness story for stateful KV serving rests on invariants that
no general-purpose linter knows about: simulation code must never read
the wall clock (RPR001), fault-site names must resolve to the declared
registry and raw fault draws must stay on the retry ladder (RPR002),
unarmed observability paths must not allocate (RPR003), metric names
must agree across recorder/exporter/reconciliation layers (RPR004), and
per-layer kernel loops must not hide array copies (RPR005).

This package makes those conventions machine-checked: a rule-driven AST
analysis framework (one parse per file, shared by every rule) with
``# repro: ignore[RULE] -- why`` suppression comments and text/JSON
reporters — exposed as the ``repro lint`` CLI subcommand and gated in CI
via ``repro lint``.  See ``ARCHITECTURE.md`` §14 for the rule set
and the how-to-add-a-rule recipe.
"""

from repro.lint.engine import (
    Finding,
    LintResult,
    Project,
    Rule,
    SourceFile,
    all_rules,
    register,
    run_lint,
)
from repro.lint.report import format_json, format_text
from repro.lint import rules as _rules  # noqa: F401  (registers the rule set)

__all__ = [
    "Finding",
    "LintResult",
    "Project",
    "Rule",
    "SourceFile",
    "all_rules",
    "format_json",
    "format_text",
    "register",
    "run_lint",
]
