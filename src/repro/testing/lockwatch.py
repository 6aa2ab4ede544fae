"""Runtime lock-order auditor: the dynamic half of reprolint.

The static rules (``tools/reprolint``) check what is lexically visible
in one file; this module checks what actually happens at runtime. A
:class:`LockWatcher` monkeypatches the ``threading.Lock`` and
``threading.RLock`` factories so every lock created while it is
installed is wrapped in a recording proxy. The watcher then

* records the **acquisition-order graph**: an edge ``A -> B`` whenever a
  thread acquires ``B`` while holding ``A``. A cycle in that graph means
  two code paths take the same locks in opposite orders — the classic
  recipe for a deadlock that only fires under the right interleaving —
  even if this particular run never actually deadlocked.
* records **lock hold times** and flags spans above a threshold
  (default ``2.0`` s, configurable via the ``REPRO_LOCK_HOLD_S``
  environment variable or the ``hold_threshold`` argument). Long holds
  are how "no blocking I/O under a lock" (RL03) violations that static
  analysis cannot see — e.g. through a helper call — show up at runtime.

The proxies implement the private ``_release_save`` /
``_acquire_restore`` / ``_is_owned`` hooks that ``threading.Condition``
binds at construction, with explicit bookkeeping: ``Condition.wait``
*releases* the lock while waiting, so silently forwarding those calls
would corrupt the per-thread held-lock stack and report bogus hold
times spanning the entire wait.

Scope and caveats:

* Only locks **created while installed** are watched. Locks created at
  import time (module singletons, session-scoped fixtures) predate the
  patch and stay invisible. The pytest fixture in ``tests/conftest.py``
  installs per-test, which covers every collection/WAL/server the test
  constructs itself.
* ``lock.acquire(timeout=...)`` without a ``with`` block is recorded
  too; an acquisition that *fails* (timeout) records nothing.
* The graph is acquisition-order, not wait-for: it overapproximates.
  A reported cycle is a lock-ordering hazard, not proof of a hang this
  run — which is exactly what a regression test wants to fail on.

Usage outside pytest::

    watcher = LockWatcher()
    with watcher.watching():
        ... exercise concurrent code ...
    watcher.assert_clean()   # raises LockWatchError on cycles/long holds
"""

from __future__ import annotations

import os
import sys
import threading
import time
from dataclasses import dataclass

__all__ = ["HoldViolation", "LockWatchError", "LockWatcher"]

#: Default lock-hold threshold (seconds) before a span is flagged.
DEFAULT_HOLD_THRESHOLD_S = 2.0

# The real factories, captured at import time so the watcher's own
# bookkeeping lock (and uninstall) never depend on the patched names.
_REAL_LOCK = threading.Lock
_REAL_RLOCK = threading.RLock


class LockWatchError(AssertionError):
    """Raised by :meth:`LockWatcher.assert_clean` on recorded hazards."""


@dataclass(frozen=True)
class HoldViolation:
    """One lock-hold span that exceeded the threshold."""

    lock: str
    seconds: float
    thread: str
    site: str

    def render(self) -> str:
        return (
            f"{self.lock} held {self.seconds:.3f}s by {self.thread} "
            f"(acquired at {self.site})"
        )


def _call_site() -> str:
    """``file:line`` of the first frame outside this module."""
    frame = sys._getframe(1)
    while frame is not None and frame.f_globals.get("__name__") == __name__:
        frame = frame.f_back
    if frame is None:
        return "<unknown>"
    filename = frame.f_code.co_filename
    for marker in ("/site-packages/", "/src/", "/tests/"):
        idx = filename.rfind(marker)
        if idx != -1:
            filename = filename[idx + len(marker):]
            break
    return f"{filename}:{frame.f_lineno}"


def _thread_name() -> str:
    """The calling thread's name, without ``threading.current_thread()``.

    A thread takes its first watched lock (``Thread._started``'s) while
    still bootstrapping, before it is registered; ``current_thread()``
    would then build a ``_DummyThread`` whose own ``Event`` takes
    another watched lock, and so on until ``RecursionError`` kills the
    thread holding the lock ``Thread.start()`` is waiting for.
    """
    ident = threading.get_ident()
    thread = threading._active.get(ident)
    return thread.name if thread is not None else f"Thread-ident-{ident}"


class _HeldEntry:
    """Per-thread record of one currently held lock."""

    __slots__ = ("lock_id", "count", "since", "site")

    def __init__(self, lock_id: int, since: float, site: str) -> None:
        self.lock_id = lock_id
        self.count = 1
        self.since = since
        self.site = site


class _WatchedLockBase:
    """Recording proxy around a real lock primitive."""

    _reentrant = False

    def __init__(self, inner, watcher: "LockWatcher", name: str) -> None:
        self._inner = inner
        self._watcher = watcher
        self._name = name

    # -- the lock protocol ---------------------------------------------

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._watcher._note_acquire(self)
        return acquired

    def release(self) -> None:
        self._inner.release()
        self._watcher._note_release(self)

    def locked(self) -> bool:
        return self._inner.locked()

    def __getattr__(self, name: str):
        # Forward internals we do not track (``_at_fork_reinit``,
        # ``_recursion_count``, ...) to the real lock. Only attributes
        # not defined on the wrapper reach here, so the bookkeeping
        # methods above always win; an attribute the inner lock lacks
        # raises AttributeError exactly as an unwrapped lock would
        # (which is how Condition feature-detects ``_release_save``).
        inner = object.__getattribute__(self, "_inner")
        return getattr(inner, name)

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<watched {self._name} wrapping {self._inner!r}>"


class _WatchedLock(_WatchedLockBase):
    """Watched non-reentrant lock (``threading.Lock`` replacement)."""


class _WatchedRLock(_WatchedLockBase):
    """Watched re-entrant lock (``threading.RLock`` replacement).

    Implements the ``Condition`` integration hooks explicitly:
    ``Condition.wait`` fully releases the lock via ``_release_save`` and
    re-acquires it via ``_acquire_restore``, so both must keep the
    watcher's held-stack in sync or every wait would look like one long
    hold (and the re-acquire after wait would go unrecorded).
    """

    _reentrant = True

    def _release_save(self):
        held_count = self._watcher._note_release_all(self)
        return (self._inner._release_save(), held_count)

    def _acquire_restore(self, token) -> None:
        inner_token, held_count = token
        self._inner._acquire_restore(inner_token)
        self._watcher._note_acquire(self, count=held_count)

    def _is_owned(self) -> bool:
        return self._inner._is_owned()


class LockWatcher:
    """Records lock acquisition order and hold times process-wide."""

    def __init__(self, hold_threshold: float | None = None) -> None:
        if hold_threshold is None:
            hold_threshold = float(
                os.environ.get("REPRO_LOCK_HOLD_S", DEFAULT_HOLD_THRESHOLD_S)
            )
        self.hold_threshold = hold_threshold
        self._mutex = _REAL_LOCK()
        self._installed = False
        self._active = False
        self._held = threading.local()
        self._names: dict[int, str] = {}
        self._seq = 0
        #: (holder_lock_id, acquired_lock_id) -> human-readable sample
        self._edges: dict[tuple[int, int], str] = {}
        self._hold_violations: list[HoldViolation] = []

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Patch the ``threading`` lock factories to produce proxies."""
        if self._installed:
            raise RuntimeError("LockWatcher already installed")
        self._installed = True
        self._active = True

        def make_lock() -> _WatchedLock:
            return _WatchedLock(_REAL_LOCK(), self, self._new_name("Lock"))

        def make_rlock() -> _WatchedRLock:
            return _WatchedRLock(_REAL_RLOCK(), self, self._new_name("RLock"))

        threading.Lock = make_lock  # type: ignore[assignment]
        threading.RLock = make_rlock  # type: ignore[assignment]

    def uninstall(self) -> None:
        """Restore the real factories; existing proxies keep working
        (they forward to their real inner lock) but stop recording."""
        threading.Lock = _REAL_LOCK  # type: ignore[assignment]
        threading.RLock = _REAL_RLOCK  # type: ignore[assignment]
        self._installed = False
        self._active = False

    def watching(self):
        """``with watcher.watching():`` — install for the block only."""
        return _WatchingContext(self)

    def _new_name(self, kind: str) -> str:
        site = _call_site()
        with self._mutex:
            self._seq += 1
            return f"{kind}#{self._seq}({site})"

    # -- recording (called from the proxies) ---------------------------

    def _stack(self) -> list[_HeldEntry]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = self._held.stack = []
        return stack

    def _note_acquire(self, lock: _WatchedLockBase, count: int = 1) -> None:
        if not self._active:
            return
        stack = self._stack()
        lock_id = id(lock)
        if lock._reentrant:
            for entry in stack:
                if entry.lock_id == lock_id:
                    entry.count += count
                    return
        site = _call_site()
        new_edges = [
            (entry.lock_id, lock_id)
            for entry in stack
            if entry.lock_id != lock_id
        ]
        entry = _HeldEntry(lock_id, time.monotonic(), site)
        entry.count = count
        stack.append(entry)
        if new_edges or lock_id not in self._names:
            thread = _thread_name()
            with self._mutex:
                self._names.setdefault(lock_id, lock._name)
                for edge in new_edges:
                    self._edges.setdefault(
                        edge, f"{thread} at {site}"
                    )

    def _note_release(self, lock: _WatchedLockBase) -> None:
        if not self._active:
            return
        stack = self._stack()
        lock_id = id(lock)
        for index in range(len(stack) - 1, -1, -1):
            entry = stack[index]
            if entry.lock_id == lock_id:
                entry.count -= 1
                if entry.count == 0:
                    del stack[index]
                    self._end_span(lock, entry)
                return

    def _note_release_all(self, lock: _WatchedLockBase) -> int:
        """Drop every recursion level (``Condition.wait``); returns the
        count so ``_acquire_restore`` can put it back."""
        if not self._active:
            return 1
        stack = self._stack()
        lock_id = id(lock)
        for index in range(len(stack) - 1, -1, -1):
            entry = stack[index]
            if entry.lock_id == lock_id:
                del stack[index]
                self._end_span(lock, entry)
                return entry.count
        return 1

    def _end_span(self, lock: _WatchedLockBase, entry: _HeldEntry) -> None:
        seconds = time.monotonic() - entry.since
        if seconds >= self.hold_threshold:
            violation = HoldViolation(
                lock=lock._name,
                seconds=seconds,
                thread=_thread_name(),
                site=entry.site,
            )
            with self._mutex:
                self._hold_violations.append(violation)

    # -- reporting -----------------------------------------------------

    def edges(self) -> dict[tuple[str, str], str]:
        """Acquisition-order edges as ``(holder, acquired) -> sample``."""
        with self._mutex:
            return {
                (self._names[a], self._names[b]): sample
                for (a, b), sample in self._edges.items()
            }

    def cycles(self) -> list[list[str]]:
        """Cycles in the acquisition-order graph, as lock-name lists."""
        with self._mutex:
            adjacency: dict[int, list[int]] = {}
            for a, b in self._edges:
                adjacency.setdefault(a, []).append(b)
            names = dict(self._names)
        cycles: list[list[str]] = []
        visited: set[int] = set()
        path: list[int] = []
        on_path: set[int] = set()

        def visit(node: int) -> None:
            if node in on_path:
                start = path.index(node)
                cycles.append([names[n] for n in path[start:]] + [names[node]])
                return
            if node in visited:
                return
            visited.add(node)
            path.append(node)
            on_path.add(node)
            for nxt in adjacency.get(node, ()):
                visit(nxt)
            path.pop()
            on_path.discard(node)

        for node in list(adjacency):
            visit(node)
        return cycles

    def hold_violations(self) -> list[HoldViolation]:
        with self._mutex:
            return list(self._hold_violations)

    def report(self) -> str:
        """Human-readable summary of every recorded hazard ('' if clean)."""
        lines: list[str] = []
        cycles = self.cycles()
        if cycles:
            lines.append("lock-order cycles (deadlock hazards):")
            edge_samples = self.edges()
            for cycle in cycles:
                lines.append("  " + " -> ".join(cycle))
                for a, b in zip(cycle, cycle[1:]):
                    sample = edge_samples.get((a, b))
                    if sample:
                        lines.append(f"    {a} -> {b}: {sample}")
        holds = self.hold_violations()
        if holds:
            lines.append(
                f"lock holds over {self.hold_threshold:.1f}s:"
            )
            lines.extend(f"  {violation.render()}" for violation in holds)
        return "\n".join(lines)

    def assert_clean(self) -> None:
        """Raise :class:`LockWatchError` if any hazard was recorded."""
        report = self.report()
        if report:
            raise LockWatchError(f"lockwatch recorded hazards:\n{report}")


class _WatchingContext:
    def __init__(self, watcher: LockWatcher) -> None:
        self._watcher = watcher

    def __enter__(self) -> LockWatcher:
        self._watcher.install()
        return self._watcher

    def __exit__(self, *exc_info) -> None:
        self._watcher.uninstall()
