"""Replica router: health-checked round-robin over N serving processes.

One box stops being enough before one process does anything wrong:
``docs/resilience.md`` describes the fleet topology this module fronts —
N ``repro serve`` replicas loaded from one shared snapshot (cheap:
the snapshot's vector matrices are mmap-ed, so replicas share page
cache), one :class:`ReplicaRouter` spreading reads across them.

Routing policy:

* **Reads** (``GET *``, ``POST /search``, ``POST /query``) round-robin
  over the backends currently in rotation and are retried on transport
  failures and backend 5xx — they are idempotent, so trying a sibling
  replica is always safe. Retries use exponential backoff with jitter
  (:class:`RetryPolicy`) and honor the request's remaining deadline: a
  retry is never attempted past the ``X-Repro-Deadline-Ms`` budget. A
  spent budget is the client's, not the replica's: a backend 504, or an
  attempt cut off by the deadline, is answered 504 as is — no strike
  toward ejection, no failover, no retry.
* **Writes** (``POST /upsert``, ``/set_payload``, ``/admin/*``) go to
  the *primary* — the first configured backend — and are **never
  retried**: a connection that dies mid-write leaves the write's fate
  unknown, and blindly resending can double-apply on a server that
  processed the request but lost the response. The client decides,
  informed by 502/503.

Health checking: a daemon prober hits every backend's ``/healthz`` each
``health_interval_s``. ``eject_after`` consecutive failures (probe or
routed request) eject a backend from rotation; an ejected backend whose
probe succeeds turns **half-open** — back in rotation for trial traffic
— and becomes healthy again after one more success (probe or request).
One failure while half-open re-ejects it. Reads therefore fail over
within one health-check interval of a replica dying, without a human in
the loop.

:class:`RouterServer` is the HTTP front: it forwards verbatim, adds
``GET /router/healthz`` (the router's own state: per-backend health,
retry/failover counters), and answers 503 when no backend is in
rotation. Start one with ``repro route --backends ...``.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass

from repro.serving.http import HttpError, HttpService, _JsonHandler
from repro.vectordb.deadline import Deadline

__all__ = ["Backend", "ReplicaRouter", "RetryPolicy", "RouterServer"]

#: POST paths that mutate state: primary-only, never retried.
WRITE_PATHS = frozenset(
    {"/upsert", "/set_payload", "/admin/save", "/admin/load"}
)

#: Headers forwarded from the client request to the backend.
_FORWARD_HEADERS = ("Content-Type", "X-Repro-Deadline-Ms")


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter for idempotent read retries.

    Attempt ``i`` (0-based) sleeps ``base_delay_s * multiplier**i``
    capped at ``max_delay_s``, then scaled by a random factor in
    ``[1 - jitter, 1]`` so a herd of clients retrying a recovering
    backend spreads out instead of stampeding it.
    """

    attempts: int = 3
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.5

    def delay_s(self, attempt: int, rng: random.Random | None = None) -> float:
        """The backoff before retry number ``attempt`` (0-based)."""
        raw = min(
            self.max_delay_s, self.base_delay_s * self.multiplier ** attempt
        )
        fraction = (rng or random).random()
        return raw * (1.0 - self.jitter * fraction)


class Backend:
    """One routed replica and its health bookkeeping (router-lock guarded)."""

    def __init__(self, address: str) -> None:
        host, _, port = address.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(
                f"backend must be 'host:port', got {address!r}"
            )
        self.host = host
        self.port = int(port)
        self.address = address
        self.state = "healthy"  # healthy | ejected | half-open
        self.consecutive_failures = 0
        self.requests = 0
        self.failures = 0

    def snapshot(self) -> dict:
        """JSON-ready view for ``/router/healthz``."""
        return {
            "address": self.address,
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "requests": self.requests,
            "failures": self.failures,
        }


class ReplicaRouter:
    """Round-robin with ejection/half-open health over serving replicas.

    ``backends`` are ``"host:port"`` strings; the first is the write
    primary. :meth:`start` launches the health prober; :meth:`close`
    stops and joins it. :meth:`forward` does one routed request
    (including retries) and returns ``(status, body_bytes)``.
    """

    def __init__(
        self,
        backends: list[str] | tuple[str, ...],
        health_interval_s: float = 0.25,
        eject_after: int = 2,
        retry: RetryPolicy | None = None,
        request_timeout_s: float = 30.0,
        rng: random.Random | None = None,
    ) -> None:
        if not backends:
            raise ValueError("router needs at least one backend")
        if eject_after <= 0:
            raise ValueError(
                f"eject_after must be positive, got {eject_after}"
            )
        self._backends = [Backend(address) for address in backends]
        self._health_interval_s = health_interval_s
        self._eject_after = eject_after
        self._retry = retry or RetryPolicy()
        self._request_timeout_s = request_timeout_s
        self._rng = rng or random.Random()
        self._lock = threading.Lock()
        self._cursor = 0
        self._stop = threading.Event()
        self._prober: threading.Thread | None = None
        self.retries_total = 0
        self.failovers_total = 0

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "ReplicaRouter":
        """Launch the health prober (idempotent); returns self."""
        if self._prober is None:
            self._prober = threading.Thread(
                target=self._probe_loop, name="router-prober", daemon=True
            )
            self._prober.start()
        return self

    def close(self) -> None:
        """Stop and join the health prober (idempotent)."""
        self._stop.set()
        prober = self._prober
        if prober is not None:
            prober.join(timeout=5.0)

    def __enter__(self) -> "ReplicaRouter":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- health --------------------------------------------------------

    def _probe_loop(self) -> None:
        while not self._stop.wait(self._health_interval_s):
            self.probe_once()

    def probe_once(self) -> None:
        """One probe round: hit every backend's ``/healthz``, update state.

        All I/O happens before any state is touched, so the router lock
        is never held across a socket operation.
        """
        results = [
            (backend, self._probe(backend)) for backend in self._backends
        ]
        with self._lock:
            for backend, alive in results:
                if alive:
                    self._note_success(backend)
                else:
                    self._note_failure(backend)

    def _probe(self, backend: Backend) -> bool:
        timeout = min(1.0, max(0.05, self._health_interval_s))
        try:
            connection = http.client.HTTPConnection(
                backend.host, backend.port, timeout=timeout
            )
            try:
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                response.read()
                return response.status == 200
            finally:
                connection.close()
        except (OSError, http.client.HTTPException):
            return False

    def _note_success(self, backend: Backend) -> None:
        """Healthy traffic/probe: heal one state step. Called under lock."""
        backend.consecutive_failures = 0
        if backend.state == "ejected":
            backend.state = "half-open"  # trial traffic allowed again
        elif backend.state == "half-open":
            backend.state = "healthy"

    def _note_failure(self, backend: Backend) -> None:
        """Failed traffic/probe: count toward ejection. Called under lock."""
        backend.consecutive_failures += 1
        if backend.state == "half-open":
            backend.state = "ejected"  # one strike while on trial
        elif backend.consecutive_failures >= self._eject_after:
            backend.state = "ejected"

    # -- routing -------------------------------------------------------

    def _read_candidates(self) -> list[Backend]:
        """Backends in rotation, starting at the round-robin cursor."""
        with self._lock:
            rotation = [
                b for b in self._backends if b.state != "ejected"
            ]
            if not rotation:
                return []
            start = self._cursor % len(rotation)
            self._cursor += 1
            return rotation[start:] + rotation[:start]

    def _primary(self) -> Backend | None:
        with self._lock:
            primary = self._backends[0]
            return primary if primary.state != "ejected" else None

    def forward(
        self,
        method: str,
        path: str,
        body: bytes | None,
        headers: dict[str, str],
    ) -> tuple[int, bytes]:
        """Route one request; returns ``(status, response_body_bytes)``.

        Reads retry across replicas under the
        :class:`RetryPolicy` and the request's deadline; writes get one
        attempt at the primary. 503 when nothing is in rotation, 504
        when the deadline expires before an answer, 502 when a write's
        backend fails.
        """
        deadline = self._deadline_from(headers)
        if method == "POST" and path in WRITE_PATHS:
            return self._forward_write(method, path, body, headers)
        return self._forward_read(method, path, body, headers, deadline)

    @staticmethod
    def _deadline_from(headers: dict[str, str]) -> Deadline | None:
        raw = headers.get("X-Repro-Deadline-Ms")
        if raw is None:
            return None
        try:
            return Deadline.after_ms(float(raw))
        except ValueError:
            return None  # the backend will answer 400 for the bad header

    def _forward_write(
        self,
        method: str,
        path: str,
        body: bytes | None,
        headers: dict[str, str],
    ) -> tuple[int, bytes]:
        primary = self._primary()
        if primary is None:
            return 503, _json_error(
                "write primary is not in rotation; retry after it heals"
            )
        outcome = self._request(
            primary, method, path, body, headers, self._request_timeout_s
        )
        if outcome is None:
            # The write's fate on the backend is unknown — surface 502
            # and let the *caller* decide whether resending is safe.
            with self._lock:
                self._note_failure(primary)
            return 502, _json_error(
                f"write to primary {primary.address} failed; not retried "
                "(write outcome unknown)"
            )
        with self._lock:
            self._note_success(primary)
        return outcome

    def _forward_read(
        self,
        method: str,
        path: str,
        body: bytes | None,
        headers: dict[str, str],
        deadline: Deadline | None,
    ) -> tuple[int, bytes]:
        last_5xx: tuple[int, bytes] | None = None
        for attempt in range(self._retry.attempts):
            if deadline is not None and deadline.expired:
                return 504, _json_error(
                    "deadline exceeded while routing (budget spent "
                    f"after {attempt} attempt(s))"
                )
            candidates = self._read_candidates()
            if not candidates:
                return 503, _json_error("no backend in rotation")
            outcome = None
            backend = None
            for backend in candidates:
                timeout = self._request_timeout_s
                if deadline is not None:
                    remaining = deadline.remaining_s()
                    if remaining <= 0:
                        return 504, _json_error(
                            "deadline exceeded while routing"
                        )
                    timeout = min(timeout, remaining)
                outcome = self._request(
                    backend, method, path, body, headers, timeout
                )
                if outcome is not None and outcome[0] == 504:
                    # The backend spent the client's budget — an answer,
                    # not a health signal; no sibling has more time left.
                    return outcome
                budget_spent = deadline is not None and deadline.expired
                if outcome is None and budget_spent:
                    # The attempt's timeout was the budget's remainder:
                    # the client ran out of time, the backend did not fail.
                    return 504, _json_error(
                        "deadline exceeded awaiting the backend"
                    )
                if outcome is not None and outcome[0] < 500:
                    with self._lock:
                        self._note_success(backend)
                        if backend is not candidates[0]:
                            self.failovers_total += 1
                    return outcome
                # Transport failure or backend 5xx: a sibling replica
                # can answer this read — mark and move on.
                with self._lock:
                    self._note_failure(backend)
                    self.failovers_total += 1
                if outcome is not None:
                    last_5xx = outcome
            if attempt + 1 >= self._retry.attempts:
                break
            delay = self._retry.delay_s(attempt, self._rng)
            if deadline is not None and deadline.remaining_s() <= delay:
                return 504, _json_error(
                    "deadline exceeded before the next retry"
                )
            with self._lock:
                self.retries_total += 1
            time.sleep(delay)
        if last_5xx is not None:
            return last_5xx
        return 502, _json_error(
            f"every backend failed after {self._retry.attempts} attempt(s)"
        )

    def _request(
        self,
        backend: Backend,
        method: str,
        path: str,
        body: bytes | None,
        headers: dict[str, str],
        timeout: float,
    ) -> tuple[int, bytes] | None:
        """One backend HTTP exchange; None means transport failure."""
        with self._lock:
            backend.requests += 1
        try:
            connection = http.client.HTTPConnection(
                backend.host, backend.port, timeout=timeout
            )
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                return response.status, response.read()
            finally:
                connection.close()
        except (OSError, http.client.HTTPException):
            with self._lock:
                backend.failures += 1
            return None

    # -- introspection -------------------------------------------------

    def snapshot(self) -> dict:
        """The ``/router/healthz`` body."""
        with self._lock:
            return {
                "status": "ok",
                "backends": [b.snapshot() for b in self._backends],
                "retries_total": self.retries_total,
                "failovers_total": self.failovers_total,
                "policy": {
                    "attempts": self._retry.attempts,
                    "base_delay_s": self._retry.base_delay_s,
                    "max_delay_s": self._retry.max_delay_s,
                    "eject_after": self._eject_after,
                    "health_interval_s": self._health_interval_s,
                },
            }


def _json_error(message: str) -> bytes:
    return json.dumps({"error": message}).encode("utf-8")


class _RouterHandler(_JsonHandler):
    """Forwards requests through the bound :class:`ReplicaRouter`."""

    router: ReplicaRouter  # injected by RouterServer

    def _forward(self, has_body: bool) -> None:
        if not self.server.request_began():
            self.close_connection = True
            self._send_bytes(429, _json_error("router overloaded"))
            return
        try:
            body = self._read_body_bytes() if has_body else None
            headers = {
                name: value
                for name in _FORWARD_HEADERS
                if (value := self.headers.get(name)) is not None
            }
            if body is not None:
                headers["Content-Length"] = str(len(body))
            status, payload = self.router.forward(
                self.command, self.path, body, headers
            )
            self._send_bytes(status, payload)
        except HttpError as exc:
            self._send_bytes(exc.status, _json_error(str(exc)))
        except (OSError, ValueError) as exc:
            self._send_bytes(500, _json_error(f"router error: {exc}"))
        finally:
            self.server.request_finished()

    def do_GET(self) -> None:  # noqa: N802 (stdlib API name)
        if self.path == "/router/healthz":
            body = json.dumps(self.router.snapshot()).encode("utf-8")
            self._send_bytes(200, body)
            return
        self._forward(has_body=False)

    def do_POST(self) -> None:  # noqa: N802 (stdlib API name)
        self._forward(has_body=True)


class RouterServer(HttpService):
    """The :class:`ReplicaRouter` behind an :class:`HttpService` (CLI:
    ``repro route``); starting it starts the health prober, shutting it
    down joins it."""

    def __init__(
        self,
        router: ReplicaRouter,
        host: str = "127.0.0.1",
        port: int = 8080,
        max_inflight: int | None = None,
    ) -> None:
        handler = type("BoundRouterHandler", (_RouterHandler,), {
            "router": router,
        })
        super().__init__(
            handler, host, port, max_inflight,
            on_close=router.close, on_start=router.start,
        )
