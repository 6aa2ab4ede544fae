"""reprolint (static rules RL01-RL05) and the runtime lock-order auditor.

Every rule is exercised in three forms — firing (bad fixture),
non-firing (good fixture), and suppressed (inline directive) — and the
CLI is shown red on a seeded violation and green on a clean tree, which
is exactly what the CI ``lint`` job runs. The lockwatch half proves the
auditor flags a seeded lock-order cycle (the classic AB/BA inversion)
and over-threshold holds, and stays quiet on disciplined code —
including ``Condition.wait``, whose release-while-waiting would look
like one giant hold if the bookkeeping were wrong.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:  # tools/ lives at the repo root
    sys.path.insert(0, str(REPO_ROOT))

from tools.reprolint import lint_source, parse_directives, run_paths
from tools.reprolint.core import main

from repro.testing.lockwatch import LockWatcher


def _findings(code: str, select: set[str] | None = None):
    return lint_source(textwrap.dedent(code), path="snippet.py",
                       select=select)


def _active(code: str, select: set[str] | None = None):
    return [f for f in _findings(code, select) if not f.suppressed]


def _suppressed(code: str, select: set[str] | None = None):
    return [f for f in _findings(code, select) if f.suppressed]


# ----------------------------------------------------------------------
# RL01: mutations under the write lock
# ----------------------------------------------------------------------


RL01_BAD = """
    import threading

    class C:
        def __init__(self):
            self._write_lock = threading.RLock()
            self._points = []

        def add(self, p):
            self._points.append(p)

        def reset(self):
            self._points = []
    """

RL01_GOOD = """
    import threading

    class C:
        def __init__(self):
            self._write_lock = threading.RLock()
            self._points = []

        def add(self, p):
            with self._write_lock:
                self._points.append(p)
    """


class TestRL01:
    def test_fires_on_unlocked_mutation(self):
        found = _active(RL01_BAD, select={"RL01"})
        assert len(found) == 2
        assert all(f.rule == "RL01" for f in found)
        assert "_points" in found[0].message

    def test_quiet_when_locked(self):
        assert _active(RL01_GOOD, select={"RL01"}) == []

    def test_quiet_in_init_and_setstate(self):
        code = """
            import threading

            class C:
                def __init__(self):
                    self._write_lock = threading.RLock()
                    self._points = []

                def __setstate__(self, state):
                    self._points = state["points"]
                    self._write_lock = threading.RLock()
            """
        assert _active(code, select={"RL01"}) == []

    def test_holds_write_lock_annotation(self):
        code = """
            import threading

            class C:
                def __init__(self):
                    self._write_lock = threading.RLock()
                    self._points = []

                # reprolint: holds-write-lock upsert() calls this under its lock
                def _apply(self, p):
                    self._points.append(p)
            """
        assert _active(code, select={"RL01"}) == []

    def test_inline_disable_suppresses(self):
        code = """
            import threading

            class C:
                def __init__(self):
                    self._write_lock = threading.RLock()
                    self._points = []

                def add(self, p):
                    self._points.append(p)  # reprolint: disable=RL01 -- single-threaded tool path
            """
        assert _active(code, select={"RL01"}) == []
        silenced = _suppressed(code, select={"RL01"})
        assert len(silenced) == 1
        assert silenced[0].justification == "single-threaded tool path"
        assert "suppressed" in silenced[0].render()


# ----------------------------------------------------------------------
# RL02: apply-then-log ordering
# ----------------------------------------------------------------------


RL02_BAD = """
    import threading

    class C:
        def __init__(self):
            self._write_lock = threading.RLock()
            self._points = []
            self._wal = None

        def upsert(self, p):
            with self._write_lock:
                self._wal.append_upsert(p)
                self._points.append(p)
    """

RL02_GOOD = """
    import threading

    class C:
        def __init__(self):
            self._write_lock = threading.RLock()
            self._points = []
            self._wal = None

        def upsert(self, p):
            with self._write_lock:
                self._points.append(p)
                self._wal.append_upsert(p)
    """


class TestRL02:
    def test_fires_on_log_before_apply(self):
        found = _active(RL02_BAD, select={"RL02"})
        assert len(found) == 1
        assert "append_upsert" in found[0].message

    def test_quiet_on_apply_then_log(self):
        assert _active(RL02_GOOD, select={"RL02"}) == []

    def test_checks_holds_write_lock_bodies_too(self):
        code = """
            import threading

            class C:
                def __init__(self):
                    self._write_lock = threading.RLock()
                    self._points = []
                    self._wal = None

                # reprolint: holds-write-lock
                def _apply(self, p):
                    self._wal.append_upsert(p)
                    self._points.append(p)
            """
        assert len(_active(code, select={"RL02"})) == 1

    def test_inline_disable_suppresses(self):
        code = RL02_BAD.replace(
            "self._wal.append_upsert(p)",
            "self._wal.append_upsert(p)  "
            "# reprolint: disable=RL02 -- replay path, log is the source",
        )
        assert _active(code, select={"RL02"}) == []
        assert len(_suppressed(code, select={"RL02"})) == 1


# ----------------------------------------------------------------------
# RL03: no blocking I/O under a lock
# ----------------------------------------------------------------------


RL03_BAD = """
    import os
    import threading

    class Flusher:
        def __init__(self):
            self._lock = threading.Lock()

        def flush(self, fd):
            with self._lock:
                os.fsync(fd)
    """

RL03_GOOD = """
    import os
    import threading

    class Flusher:
        def __init__(self):
            self._lock = threading.Lock()

        def flush(self, fd):
            with self._lock:
                pending = True
            if pending:
                os.fsync(fd)
    """


class TestRL03:
    def test_fires_on_fsync_under_lock(self):
        found = _active(RL03_BAD, select={"RL03"})
        assert len(found) == 1
        assert "os.fsync" in found[0].message

    def test_quiet_when_io_moved_out(self):
        assert _active(RL03_GOOD, select={"RL03"}) == []

    def test_fires_on_sleep_and_open_too(self):
        code = """
            import threading
            import time

            lock = threading.Lock()

            def slowly(path):
                with lock:
                    time.sleep(1.0)
                    fh = open(path)
                return fh
            """
        found = _active(code, select={"RL03"})
        assert {f.message.split("(")[0] for f in found} == {
            "blocking call time.sleep",
            "blocking call open",
        }

    def test_wal_allowlist(self):
        source = textwrap.dedent(RL03_BAD).replace("Flusher", "WriteAheadLog")
        findings = lint_source(
            source, path="src/repro/vectordb/wal.py", select={"RL03"}
        )
        assert findings == []
        # Same code, any other path or class: still a finding.
        assert lint_source(
            source, path="src/repro/other.py", select={"RL03"}
        ) != []

    def test_inline_disable_suppresses(self):
        code = RL03_BAD.replace(
            "os.fsync(fd)",
            "os.fsync(fd)  # reprolint: disable=RL03 -- durability contract",
        )
        assert _active(code, select={"RL03"}) == []


# ----------------------------------------------------------------------
# RL04: daemon threads need a join path
# ----------------------------------------------------------------------


RL04_BAD = """
    import threading

    class Service:
        def start(self):
            self._worker = threading.Thread(target=self._run, daemon=True)
            self._worker.start()
    """

RL04_GOOD = """
    import threading

    class Service:
        def start(self):
            self._worker = threading.Thread(target=self._run, daemon=True)
            self._worker.start()

        def close(self):
            self._worker.join()
    """


class TestRL04:
    def test_fires_without_join_path(self):
        found = _active(RL04_BAD, select={"RL04"})
        assert len(found) == 1
        assert "daemon thread" in found[0].message

    def test_quiet_with_close_that_joins(self):
        assert _active(RL04_GOOD, select={"RL04"}) == []

    def test_non_daemon_threads_not_flagged(self):
        code = RL04_BAD.replace("daemon=True", "daemon=False")
        assert _active(code, select={"RL04"}) == []

    def test_module_level_daemon_thread_flagged(self):
        code = """
            import threading

            ticker = threading.Thread(target=print, daemon=True)
            ticker.start()
            """
        assert len(_active(code, select={"RL04"})) == 1

    def test_inline_disable_suppresses(self):
        code = RL04_BAD.replace(
            "daemon=True)",
            "daemon=True)  # reprolint: disable=RL04 -- joined by owner",
        )
        assert _active(code, select={"RL04"}) == []


# ----------------------------------------------------------------------
# RL05: broad excepts must surface or justify
# ----------------------------------------------------------------------


RL05_BAD = """
    def risky():
        try:
            work()
        except Exception:
            pass
    """


class TestRL05:
    def test_fires_on_swallowed_exception(self):
        found = _active(RL05_BAD, select={"RL05"})
        assert len(found) == 1
        assert "except Exception" in found[0].message

    def test_bare_except_fires(self):
        code = RL05_BAD.replace("except Exception:", "except:")
        assert len(_active(code, select={"RL05"})) == 1

    def test_narrow_except_ok(self):
        code = RL05_BAD.replace("except Exception:", "except ValueError:")
        assert _active(code, select={"RL05"}) == []

    def test_reraise_ok(self):
        code = RL05_BAD.replace("pass", "raise")
        assert _active(code, select={"RL05"}) == []

    def test_using_the_exception_ok(self):
        code = """
            def risky():
                try:
                    work()
                except Exception as exc:
                    record(exc)
            """
        assert _active(code, select={"RL05"}) == []

    def test_logging_ok(self):
        code = RL05_BAD.replace("pass", 'log.warning("work failed")')
        assert _active(code, select={"RL05"}) == []

    def test_last_resort_annotation(self):
        code = RL05_BAD.replace(
            "except Exception:",
            "except Exception:  # reprolint: last-resort demo page backstop",
        )
        assert _active(code, select={"RL05"}) == []


# ----------------------------------------------------------------------
# directives, CLI, and the checked-in tree
# ----------------------------------------------------------------------


class TestDirectives:
    def test_multi_rule_disable(self):
        directives = parse_directives(
            "x = 1  # reprolint: disable=RL01,RL05 -- both fine here\n"
        )
        assert directives.is_disabled("RL01", 1)
        assert directives.is_disabled("RL05", 1)
        assert not directives.is_disabled("RL03", 1)
        assert directives.reason(1) == "both fine here"

    def test_comment_only_line_binds_to_next_code_line(self):
        directives = parse_directives(
            "# reprolint: disable=RL03 -- startup only\n"
            "do_io()\n"
        )
        assert directives.is_disabled("RL03", 1)
        assert directives.is_disabled("RL03", 2)

    def test_directive_inside_string_ignored(self):
        directives = parse_directives(
            's = "# reprolint: disable=RL01"\n'
        )
        assert not directives.is_disabled("RL01", 1)

    def test_syntax_error_reported_as_rl00(self):
        findings = lint_source("def broken(:\n", path="x.py")
        assert [f.rule for f in findings] == ["RL00"]


class TestCLI:
    def test_red_on_seeded_violation(self, tmp_path, capsys):
        seeded = tmp_path / "seeded.py"
        seeded.write_text(textwrap.dedent(RL05_BAD), encoding="utf-8")
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RL05" in out
        assert "1 finding(s)" in out

    def test_green_on_clean_file(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        assert main([str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_select_limits_rules(self, tmp_path):
        seeded = tmp_path / "seeded.py"
        seeded.write_text(textwrap.dedent(RL05_BAD), encoding="utf-8")
        assert main([str(tmp_path), "--select", "RL01"]) == 0
        assert main([str(tmp_path), "--select", "rl05"]) == 1

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RL01", "RL02", "RL03", "RL04", "RL05"):
            assert rule_id in out

    def test_show_suppressed(self, tmp_path, capsys):
        source = textwrap.dedent(RL05_BAD).replace(
            "except Exception:",
            "except Exception:  # reprolint: disable=RL05 -- seeded",
        )
        (tmp_path / "s.py").write_text(source, encoding="utf-8")
        assert main([str(tmp_path), "--show-suppressed"]) == 0
        out = capsys.readouterr().out
        assert "[suppressed: seeded]" in out


@pytest.mark.skipif(shutil.which("ruff") is None,
                    reason="ruff not installed in this environment")
def test_ruff_clean():
    """The generic-lint half of the CI lint job (``ruff check .``)."""
    result = subprocess.run(
        ["ruff", "check", "."],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_checked_in_tree_is_clean():
    """The acceptance gate CI enforces: reprolint exits 0 on src/."""
    findings = run_paths([str(REPO_ROOT / "src")])
    active = [f for f in findings if not f.suppressed]
    assert active == [], "\n".join(f.render() for f in active)
    # The tree's deliberate deviations are suppressed WITH justification.
    assert all(f.justification for f in findings if f.suppressed)


# ----------------------------------------------------------------------
# the runtime lock-order auditor
# ----------------------------------------------------------------------


class TestLockWatch:
    def test_seeded_deadlock_cycle_detected(self):
        """AB/BA inversion across two threads -> cycle, no real deadlock.

        The two threads are serialized by an Event, so the run itself
        never hangs — the auditor must flag the *hazard* from the
        acquisition order alone, which is the whole point: the unlucky
        interleaving that actually deadlocks never happens in CI.
        """
        watcher = LockWatcher()
        with watcher.watching():
            lock_a = threading.Lock()
            lock_b = threading.Lock()
            first_done = threading.Event()

            def forward():
                with lock_a:
                    with lock_b:
                        pass
                first_done.set()

            def backward():
                first_done.wait(timeout=5.0)
                with lock_b:
                    with lock_a:
                        pass

            threads = [
                threading.Thread(target=forward),
                threading.Thread(target=backward),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=5.0)

        cycles = watcher.cycles()
        assert cycles, "seeded AB/BA inversion was not detected"
        report = watcher.report()
        assert "lock-order cycles" in report
        with pytest.raises(Exception, match="lockwatch recorded hazards"):
            watcher.assert_clean()

    def test_consistent_order_is_clean(self):
        watcher = LockWatcher()
        with watcher.watching():
            lock_a = threading.Lock()
            lock_b = threading.Lock()
            for _ in range(3):
                with lock_a:
                    with lock_b:
                        pass
        assert watcher.cycles() == []
        watcher.assert_clean()

    def test_hold_time_violation(self):
        watcher = LockWatcher(hold_threshold=0.05)
        with watcher.watching():
            lock = threading.Lock()
            with lock:
                time.sleep(0.1)
        violations = watcher.hold_violations()
        assert len(violations) == 1
        assert violations[0].seconds >= 0.05
        assert "held" in violations[0].render()

    def test_short_hold_is_clean(self):
        watcher = LockWatcher(hold_threshold=5.0)
        with watcher.watching():
            lock = threading.Lock()
            with lock:
                pass
        watcher.assert_clean()

    def test_condition_wait_releases_the_lock(self):
        """``Condition.wait`` must not count as one long hold.

        wait() releases the underlying RLock via ``_release_save`` and
        re-acquires via ``_acquire_restore``; if the wrapper forwarded
        those blindly the bookkeeping would report a hold spanning the
        whole wait.
        """
        watcher = LockWatcher(hold_threshold=0.1)
        with watcher.watching():
            cond = threading.Condition()
            with cond:
                cond.wait(timeout=0.3)
        assert watcher.hold_violations() == []

    def test_unregistered_thread_can_take_a_watched_lock(self):
        """A thread ``threading`` has not registered yet — every new
        ``Thread`` while it sets ``_started`` — must not make the
        watcher build ``_DummyThread`` objects (each takes a watched
        lock of its own: unbounded recursion)."""
        import _thread

        outcome: list[str] = []
        done = threading.Event()
        watcher = LockWatcher()
        with watcher.watching():
            lock = threading.Lock()

            def raw():
                try:
                    with lock:
                        pass
                    outcome.append("ok")
                except RecursionError:
                    outcome.append("recursed")
                done.set()

            _thread.start_new_thread(raw, ())
            assert done.wait(timeout=5.0)
        assert outcome == ["ok"]

    def test_rlock_reentrancy_no_self_edge(self):
        watcher = LockWatcher()
        with watcher.watching():
            lock = threading.RLock()
            with lock:
                with lock:
                    pass
        assert watcher.cycles() == []
        assert watcher.edges() == {}

    def test_uninstall_restores_factories(self):
        before_lock, before_rlock = threading.Lock, threading.RLock
        watcher = LockWatcher()
        watcher.install()
        assert threading.Lock is not before_lock
        watcher.uninstall()
        assert threading.Lock is before_lock
        assert threading.RLock is before_rlock
