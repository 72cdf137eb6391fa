"""Lint engine: file loading, rule registry, suppressions.

The engine parses every ``src/repro/**/*.py`` file once into a
:class:`SourceFile` (AST with parent links, source lines, suppression
comments) and hands the whole :class:`Project` to each registered
:class:`Rule`.  Rules are project-scoped rather than file-scoped because
two of the shipped rules are cross-file set diffs (fault-site registry
vs. use sites, declared metric names vs. recorded names).

Suppression comments
--------------------
A finding is suppressed by a comment on the offending line, or on a
standalone comment line directly above it::

    k = np.ascontiguousarray(k_cache[slots])  # repro: ignore[RPR005] -- straw-man models the copy cost

The justification after ``--`` is mandatory: a bare suppression is
itself reported (code ``RPR000``), as is a suppression that matched no
finding.  Suppressions are the only way to grandfather a finding, so
every exception is reviewed in place, next to the code it excuses.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

__all__ = [
    "Finding",
    "LintResult",
    "Project",
    "Rule",
    "SourceFile",
    "all_rules",
    "register",
    "run_lint",
]

#: Engine-level findings (bare or stale suppressions) carry this code.
ENGINE_CODE = "RPR000"

_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*ignore\[(?P<codes>[A-Z0-9,\s]+)\]"
    r"(?:\s*--\s*(?P<why>\S.*))?"
)

_LOOP_NODES = (
    ast.For,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)
_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


# ---------------------------------------------------------------------------
# Findings & suppressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str  #: repo-relative posix path
    line: int  #: 1-based
    col: int  #: 0-based
    message: str
    snippet: str = ""  #: stripped source line

    def located(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }


@dataclass
class Suppression:
    """One ``# repro: ignore[...]`` comment."""

    path: str
    line: int  #: line the suppression covers (comment line or line below)
    codes: Tuple[str, ...]
    justification: str
    used: bool = False


# ---------------------------------------------------------------------------
# Source files & project
# ---------------------------------------------------------------------------


class SourceFile:
    """One parsed python file: AST with parent links + raw lines.

    Attributes:
        path: absolute filesystem path.
        rel: repo-relative posix path (``src/repro/...``).
        subpath: package-relative posix path (``repro/...``) used by
            rules for scope matching.
        lines: raw source lines (1-based access via :meth:`line`).
        tree: parsed module; every node carries a ``_lint_parent``
            attribute (``None`` for the module node).
    """

    def __init__(self, path: str, rel: str, source: str) -> None:
        self.path = path
        self.rel = rel
        self.subpath = rel[len("src/"):] if rel.startswith("src/") else rel
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        self.tree._lint_parent = None  # type: ignore[attr-defined]
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                child._lint_parent = parent  # type: ignore[attr-defined]

    def line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def walk(self) -> Iterator[ast.AST]:
        return ast.walk(self.tree)

    # -- AST helpers shared by rules -----------------------------------

    @staticmethod
    def parent(node: ast.AST) -> Optional[ast.AST]:
        return getattr(node, "_lint_parent", None)

    @classmethod
    def ancestors(cls, node: ast.AST) -> Iterator[ast.AST]:
        current = cls.parent(node)
        while current is not None:
            yield current
            current = cls.parent(current)

    @classmethod
    def enclosing_function(cls, node: ast.AST) -> Optional[ast.AST]:
        for up in cls.ancestors(node):
            if isinstance(up, _FUNC_NODES):
                return up
        return None

    @classmethod
    def in_loop(cls, node: ast.AST) -> bool:
        """True when ``node`` sits inside a loop (or comprehension) that
        is itself inside the nearest enclosing function."""
        for up in cls.ancestors(node):
            if isinstance(up, _LOOP_NODES):
                return True
            if isinstance(up, _FUNC_NODES):
                return False
        return False

    @classmethod
    def guarded_by_enabled(cls, node: ast.AST) -> bool:
        """True when an ancestor ``if`` tests an ``.enabled`` flag, or
        the enclosing function bails out early on ``not <x>.enabled``."""
        for up in cls.ancestors(node):
            if isinstance(up, ast.If) and _mentions_enabled(up.test):
                return True
        func = cls.enclosing_function(node)
        if func is None:
            return False
        for stmt in func.body:
            if stmt.lineno >= node.lineno:  # type: ignore[attr-defined]
                break
            if (
                isinstance(stmt, ast.If)
                and isinstance(stmt.test, ast.UnaryOp)
                and isinstance(stmt.test.op, ast.Not)
                and _mentions_enabled(stmt.test.operand)
                and stmt.body
                and isinstance(stmt.body[-1], (ast.Return, ast.Continue))
            ):
                return True
        return False


def _mentions_enabled(expr: ast.AST) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute) and node.attr == "enabled":
            return True
        if isinstance(node, ast.Name) and node.id == "enabled":
            return True
    return False


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def receiver_parts(call: ast.Call) -> List[str]:
    """Name parts of a call's receiver chain, unwrapping nested calls.

    ``self.metrics.hist.hist("x").record(v)`` (outer call) yields
    ``["self", "metrics", "hist", "hist", "record"]``.
    """
    parts: List[str] = []
    current: ast.AST = call.func
    while True:
        if isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        elif isinstance(current, ast.Call):
            current = current.func
        elif isinstance(current, ast.Name):
            parts.append(current.id)
            break
        else:
            break
    return list(reversed(parts))


def str_const(node: Optional[ast.AST]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


class Project:
    """All parsed files plus lookup helpers for cross-file rules."""

    def __init__(self, root: str, files: Sequence[SourceFile]) -> None:
        self.root = root
        self.files = list(files)
        self._by_subpath = {f.subpath: f for f in self.files}

    def find(self, subpath: str) -> Optional[SourceFile]:
        """Lookup by package-relative path (``repro/faults/plan.py``)."""
        return self._by_subpath.get(subpath)

    def files_under(self, *prefixes: str) -> Iterator[SourceFile]:
        for file in self.files:
            if any(file.subpath.startswith(p) for p in prefixes):
                yield file


# ---------------------------------------------------------------------------
# Rules & registry
# ---------------------------------------------------------------------------


class Rule:
    """Base class: subclass, set ``code``/``name``/``summary``, implement
    :meth:`run`, and decorate with :func:`register`."""

    code: str = ""
    name: str = ""
    summary: str = ""

    def run(self, project: Project) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, file: SourceFile, node: ast.AST, message: str
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=self.code,
            path=file.rel,
            line=line,
            col=col,
            message=message,
            snippet=file.line(line).strip(),
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the registry (unique code)."""
    if not cls.code or not cls.code.startswith("RPR"):
        raise ValueError(f"rule {cls.__name__} needs an RPRxxx code")
    if cls.code == ENGINE_CODE:
        raise ValueError(f"{ENGINE_CODE} is reserved for the engine")
    if cls.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    _REGISTRY[cls.code] = cls
    return cls


def all_rules() -> List[Rule]:
    """One instance of every registered rule, sorted by code."""
    return [_REGISTRY[code]() for code in sorted(_REGISTRY)]


# ---------------------------------------------------------------------------
# Suppression scanning
# ---------------------------------------------------------------------------


def scan_suppressions(file: SourceFile) -> List[Suppression]:
    """Find every suppression comment in ``file``.

    A trailing comment on line N covers findings on line N; a standalone
    comment line covers the next line (standalone suppressions sit above
    long statements).  Only real COMMENT tokens count — the same text
    inside a docstring or string literal (e.g. documentation examples)
    is ignored.
    """
    out: List[Suppression] = []
    try:
        tokens = list(
            tokenize.generate_tokens(io.StringIO(file.source).readline)
        )
    except tokenize.TokenError:
        tokens = []
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(tok.string)
        if match is None:
            continue
        codes = tuple(
            c.strip() for c in match.group("codes").split(",") if c.strip()
        )
        why = (match.group("why") or "").strip()
        lineno = tok.start[0]
        covered = lineno
        if file.line(lineno).lstrip().startswith("#"):
            covered = lineno + 1  # standalone comment covers the next line
        out.append(
            Suppression(
                path=file.rel,
                line=covered,
                codes=codes,
                justification=why,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Run
# ---------------------------------------------------------------------------


@dataclass
class LintResult:
    """Outcome of one lint run, partitioned for reporting."""

    root: str
    errors: List[Finding] = field(default_factory=list)
    suppressed: List[Tuple[Finding, Suppression]] = field(default_factory=list)
    files_scanned: int = 0
    rules_run: List[str] = field(default_factory=list)

    def exit_code(self) -> int:
        return 1 if self.errors else 0


def _report_order(finding: Finding) -> Tuple[str, int, str]:
    return (finding.path, finding.line, finding.rule)


def load_project(root: Union[str, "os.PathLike[str]"]) -> Project:
    """Parse every python file under ``<root>/src/repro`` (falling back
    to ``<root>`` itself for fixture trees that are already a package)."""
    root = os.path.abspath(os.fspath(root))
    scan = os.path.join(root, "src", "repro")
    if not os.path.isdir(scan):
        scan = root
    files: List[SourceFile] = []
    for dirpath, dirnames, filenames in os.walk(scan):
        dirnames.sort()
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, "r", encoding="utf-8") as fh:
                source = fh.read()
            files.append(SourceFile(path, rel, source))
    return Project(root, files)


def run_lint(
    root: Union[str, "os.PathLike[str]"],
    rules: Optional[Sequence[Rule]] = None,
    project_loader: Callable[..., Project] = load_project,
) -> LintResult:
    """Lint the tree under ``root`` and partition the findings."""
    project = project_loader(root)
    if rules is None:
        rules = all_rules()
    raw: List[Finding] = []
    for rule in rules:
        raw.extend(rule.run(project))
    raw.sort(key=_report_order)

    suppressions: List[Suppression] = []
    for file in project.files:
        suppressions.extend(scan_suppressions(file))
    by_site: Dict[Tuple[str, int], List[Suppression]] = {}
    for supp in suppressions:
        by_site.setdefault((supp.path, supp.line), []).append(supp)

    result = LintResult(
        root=project.root,
        files_scanned=len(project.files),
        rules_run=[r.code for r in rules],
    )
    for finding in raw:
        supp = next(
            (
                s
                for s in by_site.get((finding.path, finding.line), [])
                if finding.rule in s.codes
            ),
            None,
        )
        if supp is not None:
            supp.used = True
            result.suppressed.append((finding, supp))
            continue
        result.errors.append(finding)

    # Engine findings: bare suppressions (no justification) and stale
    # suppressions (matched nothing) are errors themselves.
    for supp in suppressions:
        report_line = min(supp.line, 10**9)
        if not supp.justification:
            result.errors.append(
                Finding(
                    rule=ENGINE_CODE,
                    path=supp.path,
                    line=report_line,
                    col=0,
                    message=(
                        f"suppression of {','.join(supp.codes)} lacks a "
                        "justification (use `# repro: ignore[CODE] -- why`)"
                    ),
                )
            )
        if not supp.used:
            result.errors.append(
                Finding(
                    rule=ENGINE_CODE,
                    path=supp.path,
                    line=report_line,
                    col=0,
                    message=(
                        f"suppression of {','.join(supp.codes)} matched no "
                        "finding; remove the stale comment"
                    ),
                )
            )
    result.errors.sort(key=_report_order)
    return result
