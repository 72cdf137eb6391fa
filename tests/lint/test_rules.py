"""Per-rule fixture tests: every rule has positive and negative cases."""

from repro.lint import run_lint


def _by_rule(result, code):
    return [f for f in result.errors if f.rule == code]


class TestRPR001SimClockPurity:
    def test_flags_every_wall_clock_read_in_sim(self, fixture_root):
        result = run_lint(fixture_root("rpr001"))
        findings = _by_rule(result, "RPR001")
        assert len(findings) == 4  # import, from-import, time.time, datetime.now
        assert all(f.path.endswith("sim/clocky.py") for f in findings)

    def test_obs_may_read_wall_clock(self, fixture_root):
        result = run_lint(fixture_root("rpr001"))
        assert not any(f.path.endswith("obs/wall.py") for f in result.errors)


class TestRPR002FaultSiteCoverage:
    def test_flags_every_misuse(self, fixture_root):
        result = run_lint(fixture_root("rpr002"))
        findings = _by_rule(result, "RPR002")
        messages = " | ".join(f.message for f in findings)
        assert len(findings) == 5
        assert "outside the recovery ladder" in messages
        assert "'bogus' is not in the declared registry" in messages
        assert "FaultSite.BOGUS" in messages
        assert "attribution 'bogus'" in messages
        assert "not the string 'swap_in'" in messages

    def test_ladder_module_may_draw(self, fixture_root):
        result = run_lint(fixture_root("rpr002"))
        assert not any(
            f.path.endswith("faults/ladder.py") for f in result.errors
        )

    def test_registry_enum_drift_is_flagged(self, fixture_root):
        result = run_lint(fixture_root("rpr002_drift"))
        findings = _by_rule(result, "RPR002")
        assert len(findings) == 1
        assert "drifted" in findings[0].message


class TestRPR003HotPathAllocation:
    def test_flags_unguarded_allocating_calls(self, fixture_root):
        result = run_lint(fixture_root("rpr003"))
        findings = _by_rule(result, "RPR003")
        lines = sorted(f.line for f in findings)
        assert len(findings) == 3  # f-string, dict display, str() call
        assert all(f.path.endswith("core/hot.py") for f in findings)
        # The guarded / constant-arg variants are not flagged.
        flagged_snippets = {f.snippet for f in findings}
        assert not any("good_" in s for s in flagged_snippets)
        assert lines == sorted(set(lines))

    def test_bench_is_out_of_scope(self, fixture_root):
        result = run_lint(fixture_root("rpr003"))
        assert not any(f.path.endswith("bench/timers.py") for f in result.errors)


class TestRPR004LedgerNameSync:
    def test_both_directions_of_the_diff(self, fixture_root):
        result = run_lint(fixture_root("rpr004"))
        findings = _by_rule(result, "RPR004")
        messages = " | ".join(f.message for f in findings)
        assert len(findings) == 7
        assert "'typo_metric' is not declared" in messages
        assert "tier label 'tpu'" in messages
        assert "'bogus_event' is not declared" in messages
        assert "'dead_metric' is never recorded" in messages
        assert "SAMPLED_HISTOGRAMS" in messages

    def test_event_helper_names_are_recorded_events(self, fixture_root):
        result = run_lint(fixture_root("rpr004"))
        findings = [
            f for f in _by_rule(result, "RPR004")
            if f.path.endswith("serving/events.py")
        ]
        messages = " | ".join(f.message for f in findings)
        assert len(findings) == 2
        assert "flight event 'stall' is not declared" in messages
        assert "tier label 'tpu'" in messages

    def test_declared_and_recorded_names_pass(self, fixture_root):
        result = run_lint(fixture_root("rpr004"))
        assert not any(
            "latency_seconds" in f.message or "admit" in f.message
            for f in _by_rule(result, "RPR004")
        )


class TestRPR005KernelCopySmell:
    def test_flags_copies_inside_loops(self, fixture_root):
        result = run_lint(fixture_root("rpr005"))
        findings = _by_rule(result, "RPR005")
        assert len(findings) == 3  # ascontiguousarray, .copy(), comprehension
        assert all(f.path.endswith("kernels/k.py") for f in findings)

    def test_hoisted_copies_pass(self, fixture_root):
        result = run_lint(fixture_root("rpr005"))
        assert not any(
            "good_hoisted" in f.snippet for f in _by_rule(result, "RPR005")
        )


class TestRPR006BackendKernelRouting:
    def test_flags_direct_kernel_imports_outside_backends(self, fixture_root):
        result = run_lint(fixture_root("rpr006"))
        findings = _by_rule(result, "RPR006")
        # two names on the package import, one submodule import, one dotted ref
        assert len(findings) == 4
        assert all(f.path.endswith("model/hardwired.py") for f in findings)
        messages = " | ".join(f.message for f in findings)
        assert "multi_token_attention" in messages
        assert "packed_decode_attention" in messages
        assert "`repro.kernels.packed_cache`" in messages
        assert "repro.kernels.segment_masked_decode" in messages

    def test_types_and_helpers_are_importable_anywhere(self, fixture_root):
        result = run_lint(fixture_root("rpr006"))
        assert not any(
            f.path.endswith("model/good_types.py") for f in result.errors
        )

    def test_backends_are_exempt(self, fixture_root):
        result = run_lint(fixture_root("rpr006"))
        assert not any(
            f.path.endswith("backends/good_backend.py") for f in result.errors
        )

    def test_justified_suppression_is_honoured(self, fixture_root):
        result = run_lint(fixture_root("rpr006"))
        assert not any(
            f.path.endswith("experiments/suppressed.py") for f in result.errors
        )
        assert any(
            f.rule == "RPR006" and f.path.endswith("experiments/suppressed.py")
            for f, _ in result.suppressed
        )


class TestSuppressionPolicy:
    def test_justified_suppression_silences_finding(self, fixture_root):
        result = run_lint(fixture_root("suppress"))
        suppressed_rules = [f.rule for f, _ in result.suppressed]
        assert suppressed_rules.count("RPR005") == 2
        assert not _by_rule(result, "RPR005")

    def test_bare_and_stale_suppressions_are_errors(self, fixture_root):
        result = run_lint(fixture_root("suppress"))
        engine_findings = _by_rule(result, "RPR000")
        messages = " | ".join(f.message for f in engine_findings)
        assert len(engine_findings) == 2
        assert "lacks a justification" in messages
        assert "matched no finding" in messages


class TestCleanTree:
    def test_clean_fixture_has_no_findings(self, fixture_root):
        result = run_lint(fixture_root("clean"))
        assert result.errors == []
        assert result.suppressed == []
        assert result.exit_code() == 0
