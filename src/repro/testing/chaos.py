"""Chaos-injection harness: fault hooks and a fault-injecting TCP proxy.

Robustness claims are only as good as the faults they were tested under.
This module provides the two fault-injection mechanisms
``tests/test_resilience.py`` uses to *prove* the serving stack's
overload and failure behaviour, in the same spirit as the SIGKILL
crash-recovery harness proves durability:

* **Fault hooks** — named injection points compiled into the serving
  code (:func:`fire` calls in the coalescer's batch execution and the
  HTTP server's dispatch). Production cost is one dict lookup on an
  empty module-level dict; a test installs a callable under a point
  name (:func:`install_fault` or the :func:`fault` context manager) to
  add latency, raise mid-batch, or count invocations. Hooks see keyword
  context (the batch key and items, the request path) and may raise —
  the exception propagates exactly like a real failure at that point.

* :class:`ChaosProxy` — a TCP proxy that sits between a client and a
  real server socket and misbehaves on command: refuse connections,
  delay the response, throttle it to a byte rate (slow read), serve a
  canned HTTP 500 without contacting the backend, or kill the
  connection after forwarding N response bytes (mid-stream reset).
  Faults are mutable at runtime, so one proxy can take a backend
  through dead → flapping → healthy within a single test.

Both live under :mod:`repro.testing` — importable from production code
(the hook registry must be), but never *configured* outside tests.

Fault point names currently fired by the serving stack:

* ``batcher.run_batch`` — before every coalescer batch execution
  (including single-item isolation retries); context: ``name``, ``key``,
  ``items``.
* ``http.request`` — before every HTTP request dispatch; context:
  ``method``, ``path``.
"""

from __future__ import annotations

import socket
import threading
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import Any

__all__ = [
    "ChaosProxy",
    "clear_faults",
    "fault",
    "fire",
    "install_fault",
    "remove_fault",
]


# ----------------------------------------------------------------------
# fault hooks
# ----------------------------------------------------------------------

_hooks: dict[str, Callable[..., None]] = {}
_hooks_lock = threading.Lock()


def install_fault(point: str, hook: Callable[..., None]) -> None:
    """Install ``hook`` at the named injection point (replacing any)."""
    with _hooks_lock:
        _hooks[point] = hook


def remove_fault(point: str) -> None:
    """Remove the hook at ``point`` (no-op when absent)."""
    with _hooks_lock:
        _hooks.pop(point, None)


def clear_faults() -> None:
    """Remove every installed hook."""
    with _hooks_lock:
        _hooks.clear()


@contextmanager
def fault(point: str, hook: Callable[..., None]) -> Iterator[None]:
    """Scope a hook to a ``with`` block (always removed on exit)."""
    install_fault(point, hook)
    try:
        yield
    finally:
        remove_fault(point)


def fire(point: str, **context: Any) -> None:
    """Invoke the hook at ``point``, if any.

    Called from production code at its injection points. The fast path —
    no hooks installed anywhere — is a single truthiness check on the
    module dict. Hook exceptions propagate to the caller on purpose:
    that *is* the injected fault.
    """
    if not _hooks:
        return
    hook = _hooks.get(point)
    if hook is not None:
        hook(**context)


# ----------------------------------------------------------------------
# fault-injecting TCP proxy
# ----------------------------------------------------------------------

_CANNED_500 = (
    b"HTTP/1.1 500 Internal Server Error\r\n"
    b"Content-Type: application/json\r\n"
    b"Content-Length: 28\r\n"
    b"Connection: close\r\n"
    b"\r\n"
    b'{"error": "chaos injected"}\n'
)


class ChaosProxy:
    """A TCP proxy whose failure modes are dialed in at runtime.

    Forwards every accepted connection to ``(target_host, target_port)``
    byte-for-byte until told to misbehave via :meth:`set_faults`:

    * ``refuse`` — accept and immediately close (connection reset).
    * ``respond_500`` — return a canned HTTP 500 without contacting the
      backend.
    * ``delay_s`` — sleep before forwarding the first response bytes.
    * ``byte_rate`` — throttle the response to roughly N bytes/second
      (slow read).
    * ``reset_after_bytes`` — forward N response bytes, then kill the
      connection mid-stream.

    Listens on an ephemeral port by default (:attr:`address` /
    :attr:`url`); :meth:`close` stops the accept loop and joins every
    handler thread, so tests stay clean under the session leak guard.
    """

    def __init__(
        self,
        target_host: str,
        target_port: int,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._target = (target_host, target_port)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(32)
        self._listener.settimeout(0.2)
        self._lock = threading.Lock()
        self._faults: dict[str, Any] = {}
        self._threads: list[threading.Thread] = []
        self._closed = threading.Event()
        self._accept_thread: threading.Thread | None = None
        self.connections_seen = 0

    # -- lifecycle -----------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The ``(host, port)`` the proxy listens on."""
        host, port = self._listener.getsockname()[:2]
        return host, port

    @property
    def url(self) -> str:
        """``http://host:port`` of the proxy's listening socket."""
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ChaosProxy":
        """Start the accept loop (idempotent); returns self for chaining."""
        if self._accept_thread is None:
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="chaos-proxy-accept",
                daemon=True,
            )
            self._accept_thread.start()
        return self

    def close(self) -> None:
        """Stop accepting, close the listener, join handler threads."""
        if self._closed.is_set():
            return
        self._closed.set()
        thread = self._accept_thread
        if thread is not None:
            thread.join(timeout=5.0)
        self._listener.close()
        with self._lock:
            handlers = list(self._threads)
        for handler in handlers:
            handler.join(timeout=5.0)

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- fault control -------------------------------------------------

    def set_faults(
        self,
        *,
        refuse: bool = False,
        respond_500: bool = False,
        delay_s: float = 0.0,
        byte_rate: int | None = None,
        reset_after_bytes: int | None = None,
    ) -> None:
        """Replace the active fault set (pass nothing to heal the proxy)."""
        with self._lock:
            self._faults = {
                "refuse": refuse,
                "respond_500": respond_500,
                "delay_s": delay_s,
                "byte_rate": byte_rate,
                "reset_after_bytes": reset_after_bytes,
            }

    def _fault_snapshot(self) -> dict[str, Any]:
        with self._lock:
            return dict(self._faults)

    # -- data path -----------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                continue
            except OSError:
                return  # listener closed under us
            self.connections_seen += 1
            handler = threading.Thread(
                target=self._handle, args=(conn,),
                name="chaos-proxy-conn", daemon=True,
            )
            with self._lock:
                # Prune finished handlers so a long-lived proxy does not
                # accumulate thread objects.
                self._threads = [t for t in self._threads if t.is_alive()]
                self._threads.append(handler)
            handler.start()

    def _handle(self, conn: socket.socket) -> None:
        faults = self._fault_snapshot()
        try:
            if faults.get("refuse"):
                # Hard reset rather than FIN: SO_LINGER with zero timeout
                # makes close() send RST, which is what a crashed or
                # firewalled backend looks like to the client.
                conn.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER,
                    b"\x01\x00\x00\x00\x00\x00\x00\x00",
                )
                return
            if faults.get("respond_500"):
                self._drain_request(conn)
                conn.sendall(_CANNED_500)
                return
            self._pump(conn, faults)
        except OSError:
            pass  # either side went away; nothing to clean beyond close
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _drain_request(self, conn: socket.socket) -> None:
        """Read one request's bytes so the client's send never blocks."""
        conn.settimeout(0.2)
        try:
            while conn.recv(65536):
                pass
        except (TimeoutError, OSError):
            pass

    def _pump(self, conn: socket.socket, faults: dict[str, Any]) -> None:
        """Bidirectional byte pump with faults on the response stream."""
        upstream = socket.create_connection(self._target, timeout=5.0)
        try:
            forward = threading.Thread(
                target=self._pump_oneway, args=(conn, upstream),
                name="chaos-proxy-fwd", daemon=True,
            )
            forward.start()
            self._pump_response(upstream, conn, faults)
            forward.join(timeout=5.0)
        finally:
            try:
                upstream.close()
            except OSError:
                pass

    @staticmethod
    def _pump_oneway(src: socket.socket, dst: socket.socket) -> None:
        """client → backend: forwarded verbatim (faults hit responses)."""
        try:
            while True:
                chunk = src.recv(65536)
                if not chunk:
                    break
                dst.sendall(chunk)
            dst.shutdown(socket.SHUT_WR)
        except OSError:
            pass

    def _pump_response(
        self,
        src: socket.socket,
        dst: socket.socket,
        faults: dict[str, Any],
    ) -> None:
        """backend → client, applying delay/throttle/mid-stream reset."""
        delay_s = faults.get("delay_s") or 0.0
        byte_rate = faults.get("byte_rate")
        reset_after = faults.get("reset_after_bytes")
        sent = 0
        first = True
        while True:
            chunk = src.recv(4096 if byte_rate else 65536)
            if not chunk:
                try:
                    dst.shutdown(socket.SHUT_WR)
                except OSError:
                    pass
                return
            if first and delay_s:
                time.sleep(delay_s)
            first = False
            if reset_after is not None and sent + len(chunk) >= reset_after:
                dst.sendall(chunk[: max(0, reset_after - sent)])
                dst.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER,
                    b"\x01\x00\x00\x00\x00\x00\x00\x00",
                )
                dst.close()
                return
            dst.sendall(chunk)
            sent += len(chunk)
            if byte_rate:
                time.sleep(len(chunk) / byte_rate)
