"""The root documents must describe the tree that is checked in.

Scoped to what can be checked without judgement, in ``README.md``,
``DESIGN.md`` and ``ARCHITECTURE.md``: relative links resolve, every
``src/repro/...`` and ``examples/*.py`` path exists, every backticked
``repro.…`` dotted name and ``Class.member`` name resolves, every module
DESIGN.md's two tables
name imports, the module map lists every package under ``src/repro``, each
``python -m repro {...}`` subcommand list is the parser's, and every
``python -m repro ...`` command line in README.md and ARCHITECTURE.md
parses.  ARCHITECTURE.md stays under a line ceiling, so it cannot regrow
unnoticed.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import re
from functools import lru_cache
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md", "ARCHITECTURE.md")
#: ARCHITECTURE.md's length when the disk tier left it; lower it as the
#: map shrinks, and raise it only with a reason in CHANGES.md.
ARCHITECTURE_MAX_LINES = 1148


def _text(name: str) -> str:
    return (ROOT / name).read_text(encoding="utf-8")


def _table_column(markdown: str, header: str) -> list:
    """Cells of the column titled ``header``, over every table that has one."""
    cells, column = [], None
    for line in markdown.splitlines():
        if not line.startswith("|"):
            column = None
            continue
        row = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if header in row:
            column = row.index(header)
        elif column is not None and not set(row[0]) <= set("-: "):
            cells.append(row[column])
    return cells


def _design_modules() -> list:
    """Dotted names in DESIGN.md's module map and per-experiment table,
    with the ``repro.`` prefix the per-experiment table leaves out."""
    design = _text("DESIGN.md")
    cells = _table_column(design, "Package") + _table_column(
        design, "Implementing modules"
    )
    assert cells, "DESIGN.md lost its module tables"
    names = re.findall(r"`((?:repro\.)?[a-z_][a-z0-9_]*(?:\.[a-z0-9_*]+)*)`", " ".join(cells))
    return sorted(
        {name if name.startswith("repro.") else f"repro.{name}" for name in names}
    )


@pytest.mark.parametrize("doc", DOCS)
def test_relative_links_resolve(doc):
    targets = re.findall(r"\]\(([^)#\s]+)(?:#[^)]*)?\)", _text(doc))
    missing = [
        target for target in targets
        if "://" not in target and not target.startswith("mailto:")
        and not (ROOT / doc).parent.joinpath(target).exists()
    ]
    assert not missing, f"{doc} links to files that do not exist: {missing}"


@pytest.mark.parametrize("doc", DOCS)
def test_source_paths_exist(doc):
    paths = {
        p.rstrip(".,:;")
        for p in re.findall(r"src/repro/[\w/.\-]+|examples/[\w\-]+\.py", _text(doc))
    }
    missing = sorted(p for p in paths if not (ROOT / p).exists())
    assert not missing, f"{doc} names source paths that do not exist: {missing}"


def _resolves(dotted: str) -> bool:
    """``dotted`` imports, or is an attribute path on a module that does."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:]:
            if not hasattr(target, name):
                return False
            target = getattr(target, name)
        return True
    return False


@pytest.mark.parametrize("doc", DOCS)
def test_dotted_names_resolve(doc):
    names = set(re.findall(r"`(repro(?:\.\w+)+)", _text(doc)))
    stale = sorted(name for name in names if not _resolves(name))
    assert not stale, f"{doc} names repro objects that do not exist: {stale}"


@lru_cache(maxsize=None)
def _repro_classes() -> dict:
    """Every top-level class under ``src/repro``, by name."""
    src = ROOT / "src"
    classes = {}
    for path in sorted((src / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                cls = getattr(importlib.import_module(module), node.name)
                classes.setdefault(node.name, []).append(cls)
    return classes


def _has_member(cls: type, member: str) -> bool:
    """A class attribute, property or enum member, a dataclass field, or
    a ``self.member =`` assignment in the source of ``cls`` or a repro
    base class."""
    if hasattr(cls, member):
        return True
    assigned = re.compile(rf"\bself\.{member}\s*(?::[^=\n]+)?=(?!=)")
    for klass in cls.__mro__:
        if dataclasses.is_dataclass(klass) and member in {
            field.name for field in dataclasses.fields(klass)
        }:
            return True
        if klass.__module__.startswith("repro.") and assigned.search(
            inspect.getsource(klass)
        ):
            return True
    return False


@pytest.mark.parametrize("doc", DOCS)
def test_class_members_resolve(doc):
    """A backticked ``Class.member`` whose class part is CamelCase names
    a repro class and one of its members; all-caps file names such as
    ``BENCHMARK.json`` are left alone."""
    names = set(re.findall(r"`([A-Z]\w*[a-z]\w*)\.(\w+)", _text(doc)))
    classes = _repro_classes()
    stale = sorted(
        f"{cls}.{member}" for cls, member in names
        if not any(_has_member(c, member) for c in classes.get(cls, ()))
    )
    assert not stale, f"{doc} names class members that do not exist: {stale}"


@pytest.mark.parametrize("module", _design_modules())
def test_design_modules_import(module):
    importlib.import_module(module.removesuffix(".*"))


def test_module_map_lists_every_package():
    packages = {
        f"repro.{path.name}"
        for path in (ROOT / "src" / "repro").iterdir()
        if (path / "__init__.py").exists()
    }
    listed = set(re.findall(r"`(repro\.\w+)`", " ".join(
        _table_column(_text("DESIGN.md"), "Package")
    )))
    assert packages <= listed, f"missing from DESIGN.md §2: {sorted(packages - listed)}"


def test_cli_rows_match_the_parser():
    (subparsers,) = (
        action for action in build_parser()._actions if action.choices
    )
    rows = [
        (doc, row.split(","))
        for doc in DOCS
        for row in re.findall(r"python -m repro \{([\w,]+)\}", _text(doc))
    ]
    assert any(doc == "DESIGN.md" for doc, _ in rows)
    for doc, commands in rows:
        assert sorted(commands) == sorted(subparsers.choices), doc


def _command_lines(doc: str) -> list:
    """Argument lists of every ``python -m repro ...`` command in ``doc``:
    code-block lines (``\\`` continuations joined, ``#`` comments
    dropped) and inline code spans; ``{a,b,...}`` subcommand lists are
    left to :func:`test_cli_rows_match_the_parser`."""
    text = re.sub(r"\\\n\s*", " ", _text(doc))
    commands = []
    for match in re.finditer(r"python -m repro ([^`\n]*)", text):
        args = match.group(1).split("#")[0].split()
        if args and not args[0].startswith("{"):
            commands.append(args)
    return commands


@pytest.mark.parametrize("doc", ("README.md", "ARCHITECTURE.md"))
def test_command_lines_parse(doc):
    commands = _command_lines(doc)
    assert commands, f"{doc} shows no python -m repro command"
    rejected = []
    for args in commands:
        try:
            build_parser().parse_args(args)
        except SystemExit:
            rejected.append(" ".join(args))
    assert not rejected, f"{doc} shows commands the CLI rejects: {rejected}"


def test_architecture_stays_under_its_line_ceiling():
    lines = len(_text("ARCHITECTURE.md").splitlines())
    assert lines <= ARCHITECTURE_MAX_LINES, (
        f"ARCHITECTURE.md has {lines} lines, over its ceiling of "
        f"{ARCHITECTURE_MAX_LINES}: cut it, or raise the ceiling with a reason"
    )
