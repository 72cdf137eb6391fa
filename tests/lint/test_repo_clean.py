"""Meta-test: the real tree passes its own lint gate.

This is the local mirror of the CI ``repro lint`` job: zero
unsuppressed findings on ``src/repro`` and every suppression justified.
"""

import json

from repro.cli import main
from repro.lint import all_rules, run_lint

from tests.lint.conftest import REPO_ROOT


class TestRepoIsClean:
    def test_strict_lint_passes_on_the_real_tree(self):
        result = run_lint(REPO_ROOT)
        assert result.errors == [], "\n".join(
            f"{f.located()}: {f.rule}: {f.message}" for f in result.errors
        )
        assert result.exit_code() == 0

    def test_every_suppression_carries_a_justification(self):
        result = run_lint(REPO_ROOT)
        for finding, supp in result.suppressed:
            assert supp.justification, finding.located()

    def test_all_six_rules_ran(self):
        result = run_lint(REPO_ROOT)
        assert result.rules_run == [
            "RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006",
        ]
        assert result.files_scanned > 50
        assert len(all_rules()) == 6


class TestCliSmoke:
    def test_lint_subcommand_strict_json(self, capsys, tmp_path):
        out_path = tmp_path / "lint.json"
        code = main([
            "lint", "--root", str(REPO_ROOT), "--json", "--output", str(out_path),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] == 0
        assert [r["code"] for r in payload["rules"]] == [
            "RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006",
        ]
        # The --output artifact is byte-identical to stdout.
        assert json.loads(out_path.read_text()) == payload

    def test_lint_text_mode_reports_summary_line(self, capsys):
        code = main(["lint", "--root", str(REPO_ROOT)])
        assert code == 0
        out = capsys.readouterr().out
        assert "repro lint: 0 error(s)" in out
