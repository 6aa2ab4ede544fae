"""reprolint: the concurrency/durability rules bound to the shared runner.

Besides ``disable=`` (see :mod:`tools.lintcore`), two annotations mark
code that is *allowed* to break a rule's lexical pattern because a
caller (or the design) upholds the invariant another way:

``# reprolint: holds-write-lock [justification]``
    On (or directly above) a ``def``: every caller of this method holds
    the collection write lock, so RL01/RL02 treat the whole body as a
    locked region.

``# reprolint: last-resort [justification]``
    On an ``except Exception`` line: this broad handler is the
    process's deliberate final backstop (RL05).

Run ``python -m tools.reprolint src/`` (exit 0 = clean).
"""

from __future__ import annotations

from tools.lintcore import Directives as _Directives
from tools.lintcore import Linter
from tools.reprolint.rules import ALL_RULES


class Directives(_Directives):
    MARKERS = ("holds-write-lock", "last-resort")

    def marks_write_lock_holder(self, def_line: int) -> bool:
        return self.marked("holds-write-lock", def_line)

    def marks_last_resort(self, line: int) -> bool:
        return self.marked("last-resort", line)


_LINTER = Linter(
    name="reprolint",
    prefix="RL",
    description=(
        "Static analyzer for this repo's concurrency and durability "
        "invariants (rules RL01-RL05)."
    ),
    directives=Directives,
    rules=ALL_RULES,
)
parse_directives = _LINTER.parse_directives
lint_source = _LINTER.lint_source
run_paths = _LINTER.run_paths
main = _LINTER.main
