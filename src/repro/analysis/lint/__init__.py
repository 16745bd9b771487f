"""Dependency-free AST lint engine enforcing reproducibility invariants.

Public surface:

* engine — :func:`lint_paths` / :func:`lint_source` /
  :func:`lint_sources`, :class:`Finding`, :class:`LintResult`,
  :class:`ModuleContext`, :class:`Suppressions`;
* rules — :class:`Rule`, :func:`register`, :data:`RULE_REGISTRY`,
  :func:`all_rules` (REP001–REP006 here; the whole-program rules
  REP007–REP012 register from :mod:`repro.analysis.graph.rules`);
* astfacts — the AST facts both rule families share (alias-resolved
  dotted names, raw-write classification, lock attributes);
* config — :class:`LintConfig`, :class:`GraphConfig`,
  :data:`DEFAULT_CONFIG`, :func:`load_config`;
* report — :func:`render_text` / :func:`render_json` /
  :func:`result_to_json` / :func:`result_from_json`;
* cli — :func:`main`, also reachable as ``python -m repro.analysis``
  and ``python -m repro lint``.
"""

from repro.analysis.lint.config import DEFAULT_CONFIG, GraphConfig, LintConfig, load_config
from repro.analysis.lint.engine import (
    PARSE_ERROR_RULE,
    Finding,
    LintResult,
    ModuleContext,
    Suppressions,
    lint_paths,
    lint_source,
    lint_sources,
)
from repro.analysis.lint.report import (
    JSON_SCHEMA_VERSION,
    render_json,
    render_text,
    result_from_json,
    result_to_json,
)
from repro.analysis.lint.rules import RULE_REGISTRY, Rule, active_rules, all_rules, register

__all__ = [
    "DEFAULT_CONFIG",
    "JSON_SCHEMA_VERSION",
    "PARSE_ERROR_RULE",
    "RULE_REGISTRY",
    "Finding",
    "GraphConfig",
    "LintConfig",
    "LintResult",
    "ModuleContext",
    "Rule",
    "Suppressions",
    "active_rules",
    "all_rules",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "load_config",
    "register",
    "render_json",
    "render_text",
    "result_from_json",
    "result_to_json",
]
