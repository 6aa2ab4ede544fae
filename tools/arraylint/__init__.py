"""arraylint: numeric-memory static analyzer (AL01–AL05).

Sibling of :mod:`tools.reprolint`: where reprolint encodes the repo's
concurrency and durability invariants, arraylint encodes its
numeric-memory invariants — dtype discipline, hidden-copy avoidance,
mmap read-only adoption, serialization byte-order hygiene, and
shape/dtype contracts on the public numeric entrypoints. Run
``python -m tools.arraylint src/``; see ``docs/static-analysis.md``.
"""

from tools.arraylint.core import (
    Directives,
    lint_source,
    main,
    parse_directives,
    run_paths,
)
from tools.lintcore import Finding, LintContext

__all__ = [
    "Directives",
    "Finding",
    "LintContext",
    "lint_source",
    "main",
    "parse_directives",
    "run_paths",
]
