"""The machinery reprolint and arraylint share.

Findings, ``# <tool>:`` directive parsing, the per-file runner and the
command line are the same for both analyzers; a tool is a
:class:`Linter` built from its name, its rule-id prefix, its
:class:`Directives` subclass (which names the tool's marker
annotations) and its rule catalogue. See :mod:`tools.reprolint.core`
and :mod:`tools.arraylint.core` for the two instances and
``docs/static-analysis.md`` for the rule catalogues. Every rule of
either tool is suppressible where it fires:

``# <tool>: disable=XX03 -- <justification>``
    Suppress one or more comma-separated rules on this line (or, for a
    comment-only line, on the next code line). The justification is
    mandatory in spirit — the linter records whatever follows the rule
    list — and reviewed like code.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from dataclasses import dataclass, field, replace
from pathlib import Path


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    message: str
    suppressed: bool = False
    justification: str = ""

    def render(self) -> str:
        tail = ""
        if self.suppressed:
            why = self.justification or "no justification given"
            tail = f"  [suppressed: {why}]"
        return f"{self.path}:{self.line}: {self.rule} {self.message}{tail}"


@dataclass
class Directives:
    """Per-file ``# <tool>:`` directives, keyed by source line.

    Subclasses list the tool's marker annotations in :attr:`MARKERS`
    and wrap :meth:`marked` in named helpers for their rules.
    """

    #: Marker annotation names this tool recognizes (besides ``disable=``).
    MARKERS = ()

    #: line -> set of rule ids disabled there ("*" disables all)
    disabled: dict[int, set[str]] = field(default_factory=dict)
    #: line -> justification text for the disable
    disable_reason: dict[int, str] = field(default_factory=dict)
    #: marker name -> lines carrying it
    marker_lines: dict[str, set[int]] = field(default_factory=dict)

    def is_disabled(self, rule: str, line: int) -> bool:
        rules = self.disabled.get(line)
        return rules is not None and (rule in rules or "*" in rules)

    def reason(self, line: int) -> str:
        return self.disable_reason.get(line, "")

    def marked(self, marker: str, line: int) -> bool:
        """``marker`` on ``line`` or the line directly above it."""
        return bool(self.marker_lines.get(marker, set()) & {line, line - 1})


@dataclass
class LintContext:
    """Everything one rule needs to check one file."""

    path: str
    source: str
    tree: ast.Module
    directives: Directives


#: Token types that do not make a line a code line.
_LAYOUT_TOKENS = frozenset({
    tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
})


def iter_python_files(paths: list[str]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    return files


@dataclass(frozen=True)
class Linter:
    """One analyzer: a name, a rule-id prefix, directives and rules."""

    name: str  # also the directive prefix: ``# <name>: ...``
    prefix: str  # rule ids are ``<prefix>01``…; ``<prefix>00`` = no parse
    description: str  # the ``--help`` text
    directives: type[Directives]
    rules: list

    def parse_directives(self, source: str) -> Directives:
        """Extract every ``# <name>:`` directive with its effective line.

        Comments are found with :mod:`tokenize` (never fooled by ``#``
        inside string literals). A directive on a code line applies to
        that line; a directive on a comment-only line applies to the
        next code line too, so long statements can carry their
        suppression just above.
        """
        directives = self.directives()
        try:
            tokens = list(
                tokenize.generate_tokens(io.StringIO(source).readline)
            )
        except (tokenize.TokenError, SyntaxError, IndentationError):
            return directives
        code_lines: set[int] = set()
        comments: list[tuple[int, str]] = []
        for tok in tokens:
            if tok.type == tokenize.COMMENT:
                comments.append((tok.start[0], tok.string))
            elif tok.type not in _LAYOUT_TOKENS:
                code_lines.update(range(tok.start[0], tok.end[0] + 1))

        def apply(line: int, body: str) -> None:
            body = body.strip()
            if body.startswith("disable="):
                spec = body[len("disable="):]
                head, _, reason = spec.partition("--")
                rules = {
                    r.strip().upper() for r in head.split(",") if r.strip()
                }
                if not rules:
                    rules = {"*"}
                directives.disabled.setdefault(line, set()).update(rules)
                if reason.strip():
                    directives.disable_reason[line] = reason.strip()
                return
            for marker in directives.MARKERS:
                if body.startswith(marker):
                    directives.marker_lines.setdefault(marker, set()).add(line)

        directive_prefix = f"{self.name}:"
        for line, text in comments:
            text = text.lstrip("#").strip()
            if not text.startswith(directive_prefix):
                continue
            body = text[len(directive_prefix):]
            apply(line, body)
            if line not in code_lines:
                # Comment-only line: also bind to the next code line.
                following = [code for code in code_lines if code > line]
                if following:
                    apply(min(following), body)
        return directives

    def lint_source(
        self,
        source: str,
        path: str = "<string>",
        select: set[str] | None = None,
    ) -> list[Finding]:
        """Run every (selected) rule over ``source``; suppressed findings
        are returned too, marked, so callers (and tests) can see both
        sides."""
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            return [
                Finding(
                    rule=f"{self.prefix}00",
                    path=path,
                    line=exc.lineno or 1,
                    message=f"file does not parse: {exc.msg}",
                )
            ]
        ctx = LintContext(path, source, tree, self.parse_directives(source))
        findings: list[Finding] = []
        for rule in self.rules:
            if select and rule.id not in select:
                continue
            for finding in rule.check(ctx):
                if ctx.directives.is_disabled(finding.rule, finding.line):
                    finding = replace(
                        finding,
                        suppressed=True,
                        justification=ctx.directives.reason(finding.line),
                    )
                findings.append(finding)
        findings.sort(key=lambda f: (f.path, f.line, f.rule))
        return findings

    def run_paths(
        self, paths: list[str], select: set[str] | None = None
    ) -> list[Finding]:
        """Lint every python file under ``paths`` (suppressed included)."""
        findings: list[Finding] = []
        for file in iter_python_files(paths):
            source = file.read_text(encoding="utf-8")
            findings.extend(
                self.lint_source(source, path=str(file), select=select)
            )
        return findings

    def main(self, argv: list[str] | None = None) -> int:
        parser = argparse.ArgumentParser(
            prog=self.name, description=self.description
        )
        parser.add_argument("paths", nargs="*", default=["src"],
                            help="files or directories to lint (default: src)")
        parser.add_argument("--select", default=None,
                            help="comma-separated rule ids to run "
                                 f"(e.g. {self.prefix}01,{self.prefix}05)")
        parser.add_argument("--show-suppressed", action="store_true",
                            help="also print findings silenced by directives")
        parser.add_argument("--list-rules", action="store_true",
                            help="print the rule catalogue and exit")
        args = parser.parse_args(argv)

        if args.list_rules:
            for rule in self.rules:
                print(f"{rule.id}  {rule.description}")
            return 0

        select = (
            {r.strip().upper() for r in args.select.split(",") if r.strip()}
            if args.select else None
        )
        findings = self.run_paths(args.paths or ["src"], select=select)
        active = [f for f in findings if not f.suppressed]
        for finding in findings if args.show_suppressed else active:
            print(finding.render())
        n_files = len(iter_python_files(args.paths or ["src"]))
        suppressed = len(findings) - len(active)
        print(
            f"{self.name}: {n_files} files, {len(active)} finding(s), "
            f"{suppressed} suppressed"
        )
        return 1 if active else 0
