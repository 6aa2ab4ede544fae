"""reprolint: static analysis for this repo's concurrency invariants."""

from tools.lintcore import Finding, LintContext
from tools.reprolint.core import lint_source, main, parse_directives, run_paths
from tools.reprolint.rules import ALL_RULES

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintContext",
    "lint_source",
    "main",
    "parse_directives",
    "run_paths",
]
