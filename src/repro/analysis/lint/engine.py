"""Core of the ``repro`` static-analysis engine.

Dependency-free by design: everything here runs on the standard
library's :mod:`ast` and :mod:`fnmatch` only, so the linter can gate CI
(and pre-commit hooks) without importing numpy/scipy or any of the
packages it inspects.  The moving parts:

* :class:`Finding` — one ``path:line:col`` diagnostic emitted by a rule;
* :class:`ModuleContext` — a parsed module handed to every rule, with
  the source text, the AST, and an import-alias table so rules can
  resolve ``np.random.rand`` / ``numpy.random.rand`` / ``from
  numpy.random import rand`` to one canonical dotted name;
* :class:`Suppressions` — ``# repro: allow(REP001)`` comment parsing
  (same-line, or a standalone comment covering the next code line);
* :func:`lint_paths` — walk files/directories, apply the configured
  rules, and collect a :class:`LintResult`.

Rules themselves live in :mod:`repro.analysis.lint.rules`; what runs
where is decided by :class:`repro.analysis.lint.config.LintConfig`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.analysis.lint.astfacts import dotted_name
from repro.analysis.lint.config import LintConfig

#: Rule id reserved for files the engine cannot parse at all.
PARSE_ERROR_RULE = "REP000"

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\(([A-Za-z0-9_,\s*]+)\)")


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a rule violation anchored to ``path:line:col``."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """The canonical one-line ``path:line:col: RULE message`` form."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Finding":
        return cls(
            rule=str(payload["rule"]),
            path=str(payload["path"]),
            line=int(payload["line"]),
            col=int(payload["col"]),
            message=str(payload["message"]),
        )


class Suppressions:
    """Per-line ``# repro: allow(RULE[, RULE...])`` suppression table.

    An allowance written on a code line suppresses findings on that
    line; an allowance on a standalone comment line suppresses findings
    on the next line as well (so multi-call statements can be excused
    without 120-column lines).  ``allow(*)`` suppresses every rule.
    """

    def __init__(self, source: str):
        self._by_line: dict[int, set[str]] = {}
        lines = source.splitlines()
        for lineno, text in enumerate(lines, start=1):
            match = _ALLOW_RE.search(text)
            if match is None:
                continue
            ids = {part.strip() for part in match.group(1).split(",") if part.strip()}
            self._by_line.setdefault(lineno, set()).update(ids)
            if text.lstrip().startswith("#"):
                # Standalone comment: also covers the following line.
                self._by_line.setdefault(lineno + 1, set()).update(ids)

    def is_suppressed(self, rule: str, line: int) -> bool:
        ids = self._by_line.get(line)
        if not ids:
            return False
        return rule in ids or "*" in ids

    def __len__(self) -> int:
        return len(self._by_line)


class _AliasCollector(ast.NodeVisitor):
    """Map local names to canonical dotted import paths.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from numpy import random`` -> ``{"random": "numpy.random"}``;
    ``from numpy.random import rand as r`` -> ``{"r": "numpy.random.rand"}``.
    Relative imports are recorded with their bare module path (level
    dots stripped) — good enough for the project-local rules.
    """

    def __init__(self) -> None:
        self.aliases: dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".", 1)[0]
            target = alias.name if alias.asname else alias.name.split(".", 1)[0]
            self.aliases[local] = target

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.aliases[local] = f"{module}.{alias.name}" if module else alias.name


@dataclass
class ModuleContext:
    """Everything a rule needs to inspect one parsed module."""

    path: Path
    relpath: str
    source: str
    tree: ast.Module
    aliases: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_source(cls, source: str, *, path: Path, relpath: str) -> "ModuleContext":
        tree = ast.parse(source, filename=str(path))
        collector = _AliasCollector()
        collector.visit(tree)
        return cls(path=path, relpath=relpath, source=source, tree=tree, aliases=collector.aliases)

    def dotted_name(self, node: ast.expr) -> str | None:
        """Canonical dotted name of an expression, or ``None``.

        Resolves the head segment through the module's import aliases,
        so ``np.random.rand`` and ``numpy.random.rand`` both come back
        as ``"numpy.random.rand"``.
        """
        return dotted_name(node, self.aliases)

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=rule,
            path=self.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


@dataclass
class LintResult:
    """Outcome of one :func:`lint_paths` run."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    files_scanned: int = 0
    #: The assembled whole-program graph, when the run needed one
    #: (a graph rule was active or an export was requested).
    project: object | None = None

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts_by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``*.py`` files."""
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            yield from sorted(p for p in path.rglob("*.py") if p.is_file())
        elif path.suffix == ".py" and path.exists():
            yield path


def _relative_to_root(path: Path, root: Path | None) -> str:
    if root is not None:
        try:
            return path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()


def _parse(source: str, path: Path, relpath: str) -> ModuleContext | Finding:
    """Parse one module, or explain as a REP000 finding why it cannot be.

    Any parse failure — syntax error, null byte, pathological nesting —
    becomes a finding instead of a crash, and the file drops out of the
    graph.
    """
    try:
        return ModuleContext.from_source(source, path=path, relpath=relpath)
    except SyntaxError as error:
        return Finding(
            PARSE_ERROR_RULE,
            relpath,
            int(error.lineno or 1),
            int(error.offset or 0),
            f"syntax error: {error.msg}",
        )
    except (ValueError, RecursionError, MemoryError) as error:
        return Finding(PARSE_ERROR_RULE, relpath, 1, 0, f"unparseable file: {error}")


def _split_rules(config: LintConfig) -> tuple[list, list]:
    """(per-module rules, graph rules) enabled by ``config``."""
    from repro.analysis.lint.rules import active_rules

    module_rules, graph_rules = [], []
    for rule in active_rules(config):
        (graph_rules if rule.requires_project else module_rules).append(rule)
    return module_rules, graph_rules


def _run_graph_pass(
    summaries: list,
    tables: dict[str, Suppressions],
    config: LintConfig,
    graph_rules: Sequence[object],
    result: LintResult,
) -> None:
    """Build the project graph and run the whole-program rules.

    Graph findings go through the same gates as per-module ones: the
    anchoring file's exclusion/allow globs and its ``# repro: allow``
    suppression table.
    """
    from repro.analysis.graph.project import build_project

    project = build_project(summaries)
    result.project = project
    for rule in graph_rules:
        for finding in rule.check_project(project, config):  # type: ignore[attr-defined]
            if config.is_excluded(finding.path):
                continue
            if not config.applies_to(rule.id, finding.path):  # type: ignore[attr-defined]
                continue
            suppressions = tables.get(finding.path)
            if suppressions is not None and suppressions.is_suppressed(
                finding.rule, finding.line
            ):
                result.suppressed += 1
            else:
                result.findings.append(finding)


def _lint(
    sources: dict[str, str],
    config: LintConfig,
    *,
    root: Path | None = None,
    unreadable: Sequence[Finding] = (),
    module_scope: set[str] | None = None,
    build_graph: bool = False,
) -> LintResult:
    """The one lint pass behind :func:`lint_sources` and :func:`lint_paths`.

    Parses each ``{relpath: source}`` module in relpath order, runs the
    per-module rules (on ``module_scope`` only, when given) and keeps
    each module's summary; then builds the project graph when a graph
    rule or ``build_graph`` asks for it.  ``unreadable`` carries the
    REP000 findings of files that could not be read at all.  Findings
    come back sorted by ``(path, line, col, rule)``.
    """
    from repro.analysis.graph.summary import summarize_module

    module_rules, graph_rules = _split_rules(config)
    want_graph = bool(graph_rules) or build_graph
    result = LintResult(findings=list(unreadable), files_scanned=len(sources) + len(unreadable))
    tables: dict[str, Suppressions] = {}
    summaries: list = []
    for relpath in sorted(sources):
        source = sources[relpath]
        context = _parse(source, Path(root, relpath) if root else Path(relpath), relpath)
        if isinstance(context, Finding):
            result.findings.append(context)
            continue
        suppressions = tables[relpath] = Suppressions(source)
        if module_scope is None or relpath in module_scope:
            for rule in module_rules:
                if not config.applies_to(rule.id, relpath):
                    continue
                for finding in rule.check(context):
                    if suppressions.is_suppressed(finding.rule, finding.line):
                        result.suppressed += 1
                    else:
                        result.findings.append(finding)
        if want_graph:
            summaries.append(
                summarize_module(context.tree, relpath=relpath, aliases=context.aliases)
            )
    if want_graph:
        _run_graph_pass(summaries, tables, config, graph_rules, result)
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return result


def lint_sources(
    sources: dict[str, str],
    *,
    config: LintConfig | None = None,
) -> LintResult:
    """Lint an in-memory tree of ``{relpath: source}`` modules.

    The fixture entry point for the graph rules: relpaths map to module
    names exactly as on disk (``src/pkg/mod.py`` -> ``pkg.mod``), so a
    handful of strings can exercise cross-module reachability.
    """
    config = config or LintConfig()
    kept = {relpath: text for relpath, text in sources.items() if not config.is_excluded(relpath)}
    return _lint(kept, config)


def lint_source(
    source: str,
    *,
    relpath: str = "<string>",
    config: LintConfig | None = None,
) -> LintResult:
    """Lint one in-memory module (the fixture-snippet entry point)."""
    return lint_sources({relpath: source}, config=config)


def lint_paths(
    paths: Sequence[str | Path],
    *,
    config: LintConfig | None = None,
    root: str | Path | None = None,
    module_scope: set[str] | None = None,
    build_graph: bool = False,
) -> LintResult:
    """Lint every Python file under ``paths`` and collect the findings.

    ``root`` (default: the current directory) anchors the relative
    paths used both in reports and in the config's glob matching.  A
    file that cannot be read becomes a REP000 finding.

    ``module_scope`` (``repro lint --changed``) restricts the
    *per-module* rules to the given relpaths; every file is still
    parsed so the whole-program graph rules see the full tree.
    ``build_graph`` forces the graph build even when no graph rule is
    selected (``--graph-out`` without REP007+).
    """
    config = config or LintConfig()
    root_path = Path(root) if root is not None else Path.cwd()
    sources: dict[str, str] = {}
    unreadable: list[Finding] = []
    seen: set[str] = set()
    for path in iter_python_files(paths):
        relpath = _relative_to_root(path, root_path)
        if config.is_excluded(relpath) or relpath in seen:
            continue
        seen.add(relpath)
        try:
            sources[relpath] = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as error:
            unreadable.append(Finding(PARSE_ERROR_RULE, relpath, 1, 0, f"unreadable file: {error}"))
    return _lint(
        sources,
        config,
        root=root_path,
        unreadable=unreadable,
        module_scope=module_scope,
        build_graph=build_graph,
    )
