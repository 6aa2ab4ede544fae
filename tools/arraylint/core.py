"""arraylint: the numeric-memory rules bound to the shared runner.

Besides ``disable=`` (see :mod:`tools.lintcore`), one annotation marks
the deliberate materialization points that AL02/AL03 must not flag:

``# arraylint: cow-seam [justification]``
    On (or directly above) a ``def``: this function IS the copy-on-write
    / materialization seam — it deliberately copies or writes into
    matrix storage (grow paths, bulk builders over freshly allocated
    arrays). AL02 and AL03 treat its body as allowed.

Run ``python -m tools.arraylint src/`` (exit 0 = clean). The runtime
half of the same contract lives in :mod:`repro.testing.memwatch`, which
checks what a one-file lexical pass cannot (actual allocation peaks,
actual buffer sharing across the mmap adoption path).
"""

from __future__ import annotations

from tools.arraylint.rules import ALL_RULES
from tools.lintcore import Directives as _Directives
from tools.lintcore import Linter


class Directives(_Directives):
    MARKERS = ("cow-seam",)

    def marks_cow_seam(self, def_line: int) -> bool:
        return self.marked("cow-seam", def_line)


_LINTER = Linter(
    name="arraylint",
    prefix="AL",
    description=(
        "Static analyzer for this repo's numeric-memory invariants "
        "(rules AL01-AL05): dtype discipline, hidden copies, mmap "
        "read-only adoption, serialization byte order, array "
        "contracts."
    ),
    directives=Directives,
    rules=ALL_RULES,
)
parse_directives = _LINTER.parse_directives
lint_source = _LINTER.lint_source
run_paths = _LINTER.run_paths
main = _LINTER.main
