"""Engine-layer tests: AST helpers and suppressions."""

import ast

from repro.lint.engine import (
    SourceFile,
    dotted_name,
    receiver_parts,
    scan_suppressions,
)


def _file(source: str, rel: str = "src/repro/core/x.py") -> SourceFile:
    return SourceFile("/fake/" + rel, rel, source)


class TestSourceFile:
    def test_subpath_strips_src_prefix(self):
        assert _file("x = 1").subpath == "repro/core/x.py"
        assert _file("x = 1", rel="repro/core/x.py").subpath == "repro/core/x.py"

    def test_parent_links_cover_every_node(self):
        file = _file("def f():\n    return 1 + 2\n")
        for node in file.walk():
            if not isinstance(node, ast.Module):
                assert SourceFile.parent(node) is not None

    def test_in_loop_stops_at_function_boundary(self):
        file = _file(
            "for i in range(3):\n"
            "    def inner():\n"
            "        return i + 1\n"
        )
        binop = next(n for n in file.walk() if isinstance(n, ast.BinOp))
        # The BinOp is inside inner(), whose body is not loop-repeated work.
        assert SourceFile.in_loop(binop) is False

    def test_in_loop_true_for_comprehensions(self):
        file = _file("ys = [x + 1 for x in xs]\n")
        binop = next(n for n in file.walk() if isinstance(n, ast.BinOp))
        assert SourceFile.in_loop(binop) is True

    def test_guarded_by_enabled_if(self):
        file = _file(
            "def f(self):\n"
            "    if self.tracer.enabled:\n"
            "        self.tracer.count('x')\n"
        )
        call = next(n for n in file.walk() if isinstance(n, ast.Call))
        assert SourceFile.guarded_by_enabled(call) is True

    def test_guarded_by_early_bail(self):
        file = _file(
            "def f(self):\n"
            "    if not self.tracer.enabled:\n"
            "        return\n"
            "    self.tracer.count('x')\n"
        )
        call = next(n for n in file.walk() if isinstance(n, ast.Call))
        assert SourceFile.guarded_by_enabled(call) is True

    def test_unguarded(self):
        file = _file("def f(self):\n    self.tracer.count('x')\n")
        call = next(n for n in file.walk() if isinstance(n, ast.Call))
        assert SourceFile.guarded_by_enabled(call) is False


class TestAstHelpers:
    def test_dotted_name(self):
        node = ast.parse("a.b.c").body[0].value
        assert dotted_name(node) == "a.b.c"
        assert dotted_name(ast.parse("f()").body[0].value) is None

    def test_receiver_parts_unwraps_nested_calls(self):
        call = ast.parse("self.metrics.hist.hist('x').record(1.0)").body[0].value
        assert receiver_parts(call) == [
            "self", "metrics", "hist", "hist", "record",
        ]


class TestSuppressions:
    def test_inline_covers_its_line_and_standalone_covers_next(self):
        file = _file(
            "x = 1  # repro: ignore[RPR005] -- inline why\n"
            "# repro: ignore[RPR001] -- standalone why\n"
            "y = 2\n"
        )
        supps = scan_suppressions(file)
        assert [(s.line, s.codes, s.justification) for s in supps] == [
            (1, ("RPR005",), "inline why"),
            (3, ("RPR001",), "standalone why"),
        ]

    def test_docstring_examples_are_not_suppressions(self):
        file = _file(
            '"""Docs.\n\n    x = f()  # repro: ignore[RPR005] -- example\n"""\n'
        )
        assert scan_suppressions(file) == []

    def test_multi_code_comment(self):
        file = _file("x = 1  # repro: ignore[RPR001, RPR003] -- both\n")
        assert scan_suppressions(file)[0].codes == ("RPR001", "RPR003")

