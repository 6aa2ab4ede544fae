"""The reprolint rule catalogue (RL01–RL05).

Every rule is a *lexical* encoding of an invariant the repo's concurrent
code depends on — the analyzer checks what it can see in one file's AST
and leaves aliasing/interprocedural cases to the runtime lock-order
auditor (:mod:`repro.testing.lockwatch`). The catalogue:

RL01  write-locked state — mutations of lock-guarded collection state
      happen inside ``with self._write_lock`` (or a method annotated
      ``# reprolint: holds-write-lock``).
RL02  apply-then-log — inside a locked region, no WAL append call
      textually precedes a state mutation (the WAL records *accepted*
      writes; logging first would ack writes that were never applied).
RL03  no blocking I/O under a lock — fsync/open/sleep/socket calls do
      not run while a lock is held (allowlist: ``WriteAheadLog``'s
      fsync-under-lock, which IS the durability contract).
RL04  joinable daemons — every ``threading.Thread(daemon=True)``
      constructed in a class is reachable from a ``close``/``shutdown``
      method that joins it.
RL05  no swallowed broad excepts — ``except Exception`` must re-raise,
      surface the error (use/log/warn/propagate it), or carry a
      ``# reprolint: last-resort`` justification.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from tools.lintcore import Finding, LintContext

#: Methods that may mutate guarded state without a visible lock: either
#: the object cannot be shared yet (construction / unpickling) or the
#: method is itself the pickling seam.
_EXEMPT_METHODS = {
    "__init__",
    "__new__",
    "__getstate__",
    "__setstate__",
    "_init_fields",
}

#: Container/domain calls that mutate the object they are invoked on.
_MUTATOR_METHODS = {
    "append",
    "extend",
    "insert",
    "pop",
    "popitem",
    "remove",
    "discard",
    "clear",
    "update",
    "add",
    "setdefault",
    "sort",
    "reverse",
    "index_point",
    "reindex_point",
    "create_index",
}

#: Call names that block on the outside world (RL03).
_BLOCKING_ATTR_CALLS = {
    "fsync",
    "sleep",
    "connect",
    "accept",
    "recv",
    "recv_bytes",
    "send",
    "send_bytes",
    "sendall",
    "open",
}
_BLOCKING_NAME_CALLS = {"open"}

#: RL03 allowlist: (path suffix, class name) pairs whose lock-held I/O
#: is the intended design. The WAL fsyncs under its lock *on purpose* —
#: an append is durable before the call returns, and the lock is what
#: orders the log against the in-memory apply.
_RL03_ALLOWLIST = (("vectordb/wal.py", "WriteAheadLog"),)

#: Methods whose presence counts as a shutdown/join path (RL04).
_JOINER_METHODS = {"close", "shutdown", "stop", "join", "__exit__"}

#: Calls that surface an exception from a broad handler (RL05).
_SURFACING_CALLS = {
    "warn",
    "warning",
    "error",
    "exception",
    "critical",
    "info",
    "debug",
    "log",
    "print",
    "set_exception",
    "fail",
}


# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------


def _attr_chain(node: ast.expr) -> list[str]:
    """``self._wal.append_points`` -> ["self", "_wal", "append_points"]."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Subscript):
        return _attr_chain(node.value) + ["[]"] + list(reversed(parts))
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif isinstance(node, ast.Call):
        return _attr_chain(node.func) + ["()"] + list(reversed(parts))
    return list(reversed(parts))


def _is_lockish(expr: ast.expr) -> bool:
    """Does this with-item expression look like a lock?

    True when the terminal attribute or name contains ``lock`` (so
    ``self._write_lock``, ``collection.write_lock``, ``self._locks[i]``
    all count). Condition variables named ``*_cv`` and one-shot flags
    are deliberately out of scope — this is a lexical rule.
    """
    if isinstance(expr, ast.Call):  # e.g. lock.acquire() is not a with-item
        return False
    if isinstance(expr, ast.Subscript):
        return _is_lockish(expr.value)
    name = None
    if isinstance(expr, ast.Attribute):
        name = expr.attr
    elif isinstance(expr, ast.Name):
        name = expr.id
    return name is not None and "lock" in name.lower()


def _is_write_lock_item(expr: ast.expr) -> bool:
    """Specifically the collection write lock (RL01/RL02 regions)."""
    chain = _attr_chain(expr)
    return bool(chain) and chain[-1] in ("_write_lock", "write_lock")


def _self_attr_target(node: ast.expr) -> str | None:
    """The ``X`` of ``self.X`` / ``self.X[...]`` targets, else None."""
    if isinstance(node, (ast.Subscript, ast.Starred)):
        return _self_attr_target(node.value)
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        if node.value.id == "self":
            return node.attr
    return None


def _iter_class_methods(
    cls: ast.ClassDef,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _is_classlevel_method(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """classmethod/staticmethod — no ``self``, nothing shared yet."""
    for deco in fn.decorator_list:
        name = deco.attr if isinstance(deco, ast.Attribute) else (
            deco.id if isinstance(deco, ast.Name) else None
        )
        if name in ("classmethod", "staticmethod"):
            return True
    return False


def _classes(tree: ast.Module) -> Iterator[ast.ClassDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield node


def _class_assigns_write_lock(cls: ast.ClassDef) -> bool:
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if _self_attr_target(target) == "_write_lock":
                    return True
    return False


def _guarded_mutations(
    body: list[ast.stmt],
) -> Iterator[tuple[int, str, str]]:
    """Yield ``(line, attr, description)`` for each mutation of a
    ``self._x`` data attribute inside ``body`` (recursive)."""
    for stmt in body:
        for node in ast.walk(stmt):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            for target in targets:
                attr = _self_attr_target(target)
                if attr and attr.startswith("_") and attr != "_write_lock":
                    yield node.lineno, attr, f"assignment to self.{attr}"
            if isinstance(node, ast.Call):
                chain = _attr_chain(node.func)
                if (
                    len(chain) >= 3
                    and chain[0] == "self"
                    and chain[1].startswith("_")
                    and chain[1] != "_write_lock"
                    and chain[-1] in _MUTATOR_METHODS
                ):
                    yield (
                        node.lineno,
                        chain[1],
                        f"self.{chain[1]}.{chain[-1]}(...) mutation",
                    )


def _locked_lines(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    lock_test=_is_write_lock_item,
) -> set[int]:
    """Every source line lexically inside a matching ``with`` block."""
    lines: set[int] = set()
    for node in ast.walk(fn):
        if isinstance(node, (ast.With, ast.AsyncWith)) and any(
            lock_test(item.context_expr) for item in node.items
        ):
            end = node.end_lineno or node.lineno
            lines.update(range(node.lineno, end + 1))
    return lines


# ----------------------------------------------------------------------
# RL01 — write-locked state mutation
# ----------------------------------------------------------------------


class RL01:
    id = "RL01"
    description = (
        "collection state mutations must hold the write lock "
        "(with self._write_lock, or a holds-write-lock method)"
    )

    def check(self, ctx: LintContext) -> list[Finding]:
        findings: list[Finding] = []
        for cls in _classes(ctx.tree):
            if not _class_assigns_write_lock(cls):
                continue
            for fn in _iter_class_methods(cls):
                if fn.name in _EXEMPT_METHODS or _is_classlevel_method(fn):
                    continue
                if ctx.directives.marks_write_lock_holder(fn.lineno):
                    continue
                locked = _locked_lines(fn)
                for line, attr, what in _guarded_mutations(fn.body):
                    if line not in locked:
                        findings.append(
                            Finding(
                                rule=self.id,
                                path=ctx.path,
                                line=line,
                                message=(
                                    f"{cls.name}.{fn.name}: {what} outside "
                                    "`with self._write_lock` (annotate "
                                    "`# reprolint: holds-write-lock` if a "
                                    "caller holds it)"
                                ),
                            )
                        )
        return findings


# ----------------------------------------------------------------------
# RL02 — apply-then-log ordering
# ----------------------------------------------------------------------


def _wal_append_calls(body: list[ast.stmt]) -> Iterator[tuple[int, str]]:
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                chain = _attr_chain(node.func)
                if (
                    chain
                    and chain[-1].startswith("append")
                    and any("wal" in part.lower() for part in chain[:-1])
                ):
                    yield node.lineno, ".".join(chain)


class RL02:
    id = "RL02"
    description = (
        "apply-then-log: WAL appends must not textually precede state "
        "mutations in the same locked region"
    )

    def check(self, ctx: LintContext) -> list[Finding]:
        findings: list[Finding] = []
        for cls in _classes(ctx.tree):
            if not _class_assigns_write_lock(cls):
                continue
            for fn in _iter_class_methods(cls):
                if fn.name in _EXEMPT_METHODS or _is_classlevel_method(fn):
                    continue
                regions: list[tuple[int, int]] = []
                if ctx.directives.marks_write_lock_holder(fn.lineno):
                    regions.append(
                        (fn.lineno, fn.end_lineno or fn.lineno)
                    )
                for node in ast.walk(fn):
                    if isinstance(node, (ast.With, ast.AsyncWith)) and any(
                        _is_write_lock_item(item.context_expr)
                        for item in node.items
                    ):
                        regions.append(
                            (node.lineno, node.end_lineno or node.lineno)
                        )
                if not regions:
                    continue
                appends = list(_wal_append_calls(fn.body))
                mutations = list(_guarded_mutations(fn.body))
                for start, end in regions:
                    for a_line, call in appends:
                        if not start <= a_line <= end:
                            continue
                        late = [
                            (m_line, what)
                            for m_line, _attr, what in mutations
                            if start <= m_line <= end and m_line > a_line
                        ]
                        if late:
                            m_line, what = late[0]
                            findings.append(
                                Finding(
                                    rule=self.id,
                                    path=ctx.path,
                                    line=a_line,
                                    message=(
                                        f"{cls.name}.{fn.name}: {call} "
                                        f"precedes state mutation at line "
                                        f"{m_line} ({what}); apply to "
                                        "memory first, then log"
                                    ),
                                )
                            )
        return findings


# ----------------------------------------------------------------------
# RL03 — no blocking I/O while a lock is held
# ----------------------------------------------------------------------


class RL03:
    id = "RL03"
    description = (
        "no blocking I/O (fsync/open/sleep/socket ops) inside a "
        "`with <lock>` block; allowlist: WriteAheadLog"
    )

    def _allowlisted(self, ctx: LintContext, cls: ast.ClassDef | None) -> bool:
        for suffix, class_name in _RL03_ALLOWLIST:
            if ctx.path.replace("\\", "/").endswith(suffix) and (
                cls is not None and cls.name == class_name
            ):
                return True
        return False

    def check(self, ctx: LintContext) -> list[Finding]:
        findings: list[Finding] = []
        # Map each with-block to its enclosing class (for the allowlist).
        scopes: list[tuple[ast.ClassDef | None, ast.AST]] = [(None, ctx.tree)]
        for cls in _classes(ctx.tree):
            scopes.append((cls, cls))
        seen: set[int] = set()
        for cls, scope in reversed(scopes):  # innermost (classes) first
            if self._allowlisted(ctx, cls):
                for node in ast.walk(scope):
                    if isinstance(node, (ast.With, ast.AsyncWith)):
                        seen.add(id(node))
                continue
            for node in ast.walk(scope):
                if not isinstance(node, (ast.With, ast.AsyncWith)):
                    continue
                if id(node) in seen:
                    continue
                seen.add(id(node))
                if not any(
                    _is_lockish(item.context_expr) for item in node.items
                ):
                    continue
                for inner in ast.walk(node):
                    if not isinstance(inner, ast.Call):
                        continue
                    func = inner.func
                    name = None
                    if isinstance(func, ast.Attribute):
                        if func.attr in _BLOCKING_ATTR_CALLS:
                            name = ".".join(_attr_chain(func))
                    elif isinstance(func, ast.Name):
                        if func.id in _BLOCKING_NAME_CALLS:
                            name = func.id
                    if name is not None:
                        findings.append(
                            Finding(
                                rule=self.id,
                                path=ctx.path,
                                line=inner.lineno,
                                message=(
                                    f"blocking call {name}(...) while "
                                    "holding a lock (taken at line "
                                    f"{node.lineno}); move the I/O outside "
                                    "the locked region"
                                ),
                            )
                        )
        return findings


# ----------------------------------------------------------------------
# RL04 — daemon threads need a join path
# ----------------------------------------------------------------------


def _is_thread_call(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr == "Thread":
        base = func.value
        return isinstance(base, ast.Name) and base.id == "threading"
    return isinstance(func, ast.Name) and func.id == "Thread"


def _is_daemon_true(node: ast.Call) -> bool:
    for kw in node.keywords:
        if kw.arg == "daemon" and isinstance(kw.value, ast.Constant):
            return bool(kw.value.value)
    return False


def _has_join_path(cls: ast.ClassDef) -> bool:
    for fn in _iter_class_methods(cls):
        if fn.name not in _JOINER_METHODS:
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr == "join":
                    return True
                # close()/shutdown() delegating to another shutdown-ish
                # method still counts as a reachable join path.
                if isinstance(func, ast.Attribute) and (
                    func.attr in _JOINER_METHODS
                ):
                    return True
    return False


class RL04:
    id = "RL04"
    description = (
        "threading.Thread(daemon=True) must be reachable from a "
        "close()/shutdown() method that joins it"
    )

    def check(self, ctx: LintContext) -> list[Finding]:
        findings: list[Finding] = []
        claimed: set[int] = set()
        for cls in _classes(ctx.tree):
            has_join = _has_join_path(cls)
            for node in ast.walk(cls):
                if isinstance(node, ast.Call) and _is_thread_call(node):
                    claimed.add(id(node))
                    if _is_daemon_true(node) and not has_join:
                        findings.append(
                            Finding(
                                rule=self.id,
                                path=ctx.path,
                                line=node.lineno,
                                message=(
                                    f"{cls.name} starts a daemon thread but "
                                    "defines no close()/shutdown() that "
                                    "joins it — daemon threads leak until "
                                    "interpreter exit"
                                ),
                            )
                        )
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and _is_thread_call(node)
                and id(node) not in claimed
                and _is_daemon_true(node)
            ):
                findings.append(
                    Finding(
                        rule=self.id,
                        path=ctx.path,
                        line=node.lineno,
                        message=(
                            "daemon thread constructed outside a class "
                            "with a join path; pair it with an explicit "
                            "shutdown/join"
                        ),
                    )
                )
        return findings


# ----------------------------------------------------------------------
# RL05 — broad except handlers must surface or justify
# ----------------------------------------------------------------------


def _is_broad(handler: ast.ExceptHandler) -> bool:
    def broad_name(node: ast.expr | None) -> bool:
        return isinstance(node, ast.Name) and node.id in (
            "Exception",
            "BaseException",
        )

    if handler.type is None:
        return True
    if broad_name(handler.type):
        return True
    if isinstance(handler.type, ast.Tuple):
        return any(broad_name(el) for el in handler.type.elts)
    return False


def _surfaces(handler: ast.ExceptHandler) -> bool:
    bound = handler.name
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if bound and isinstance(node, ast.Name) and node.id == bound and (
            isinstance(node.ctx, ast.Load)
        ):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if name in _SURFACING_CALLS:
                return True
    return False


class RL05:
    id = "RL05"
    description = (
        "broad `except Exception` must re-raise, surface the error, or "
        "carry `# reprolint: last-resort <why>`"
    )

    def check(self, ctx: LintContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _is_broad(node):
                continue
            if _surfaces(node):
                continue
            if ctx.directives.marks_last_resort(node.lineno):
                continue
            caught = (
                ast.unparse(node.type) if node.type is not None else "<bare>"
            )
            findings.append(
                Finding(
                    rule=self.id,
                    path=ctx.path,
                    line=node.lineno,
                    message=(
                        f"broad `except {caught}` swallows the error: "
                        "narrow the type, surface the failure, or justify "
                        "with `# reprolint: last-resort <why>`"
                    ),
                )
            )
        return findings


ALL_RULES = [RL01(), RL02(), RL03(), RL04(), RL05()]
