"""Socket side of the ledger: the served subprocess and the load generator.

The client is deliberately minimal so the benchmark does not measure
itself: one ``sendall`` of headers+body per request, ``TCP_NODELAY`` on,
``Content-Length``-driven reads, keep-alive. (``http.client`` sends the
headers and the body as two segments and adds a 40 ms delayed-ACK stall
of its own on top of the server's.) :func:`client_overhead_ms` proves the
client clean against a trivial loopback responder.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path

_ADDRESS_RE = re.compile(r"at http://([0-9.]+):(\d+)")


def encode_request(method: str, path: str, body: bytes = b"") -> bytes:
    """The full HTTP/1.1 request as one byte string (one TCP segment run)."""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: ledger\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


class HttpClient:
    """One keep-alive connection; :meth:`send` times one round trip."""

    def __init__(self, address: tuple[str, int], timeout: float = 30.0) -> None:
        self._sock = socket.create_connection(address, timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = bytearray()

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "HttpClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def send(self, wire: bytes) -> tuple[int, bytes, float]:
        """``(status, body, seconds)``: first byte sent to last byte read."""
        started = time.perf_counter()
        self._sock.sendall(wire)
        status, body = self._read_response()
        return status, body, time.perf_counter() - started

    def get_json(self, path: str):
        """GET ``path`` and decode the JSON body (non-200 raises)."""
        status, body, _ = self.send(encode_request("GET", path))
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}: {body[:200]!r}")
        return json.loads(body)

    def _read_response(self) -> tuple[int, bytes]:
        buf = self._buf
        while (end := buf.find(b"\r\n\r\n")) < 0:
            self._fill()
        head = bytes(buf[:end]).decode("latin-1")
        status = int(head.split(" ", 2)[1])
        length = None
        for line in head.split("\r\n")[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        if length is None:
            raise ConnectionError("response carries no Content-Length")
        total = end + 4 + length
        while len(buf) < total:
            self._fill()
        body = bytes(buf[end + 4:total])
        del buf[:total]
        return status, body

    def _fill(self) -> None:
        chunk = self._sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buf += chunk


def client_overhead_ms(requests: int = 200, batches: int = 3) -> float:
    """Median round trip of :class:`HttpClient` against a loopback echo.

    The responder reads a request and answers a fixed 2-byte JSON body in
    one ``sendall``; what remains is the client's own cost plus one
    loopback hop and thread switch. The lowest of ``batches`` medians is
    reported: this is a property of the client code, and a neighbour
    stealing the CPU for one batch (seen: 1.03 ms against the usual
    0.03 ms) says nothing about it.
    """
    listener = socket.create_server(("127.0.0.1", 0))

    def respond() -> None:
        conn, _ = listener.accept()
        with conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            reply = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                     b"Content-Length: 2\r\n\r\n{}")
            pending = b""
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    return
                pending += chunk
                while (end := pending.find(b"\r\n\r\n")) >= 0:
                    head = pending[:end].lower()
                    mark = head.find(b"content-length:")
                    length = int(head[mark + 15:].split(b"\r\n", 1)[0])
                    if len(pending) < end + 4 + length:
                        break
                    pending = pending[end + 4 + length:]
                    conn.sendall(reply)

    thread = threading.Thread(target=respond, name="ledger-echo", daemon=True)
    thread.start()
    try:
        wire = encode_request("POST", "/echo", b'{"ping": 1}')
        with HttpClient(listener.getsockname()[:2]) as client:
            medians = [
                statistics.median(client.send(wire)[2] for _ in range(requests))
                for _ in range(batches)
            ]
    finally:
        listener.close()
        thread.join(timeout=5.0)
    return min(medians) * 1000.0


class ServedRepro:
    """``python -m repro serve`` in a subprocess, on an ephemeral port.

    Use as a context manager: entry spawns the server and blocks until
    ``/healthz`` answers 200 (``boot_s`` is spawn to that answer); exit
    sends SIGTERM, waits, and kills on timeout, so an interrupted run
    leaves no child behind. A reader thread keeps draining the child's
    stdout+stderr — an undrained pipe would block the server.
    """

    def __init__(self, repo_root: Path, snapshot: Path, shards: int,
                 city: str, wal: str | None = None) -> None:
        self._argv = [
            sys.executable, "-u", "-m", "repro", "serve", "--city", city,
            "--snapshot", str(snapshot), "--shards", str(shards),
            "--port", "0",
        ]
        if wal:
            self._argv += ["--wal", wal]
        self._env = dict(os.environ, PYTHONPATH=str(repo_root / "src"))
        self._cwd = str(repo_root)
        self._proc: subprocess.Popen | None = None
        self._reader: threading.Thread | None = None
        self._address_found = threading.Event()
        self.output: deque[str] = deque(maxlen=200)
        self.address: tuple[str, int] = ("", 0)
        self.boot_s = 0.0

    def _drain(self) -> None:
        assert self._proc is not None and self._proc.stdout is not None
        for line in self._proc.stdout:
            self.output.append(line.rstrip("\n"))
            match = _ADDRESS_RE.search(line)
            if match and not self._address_found.is_set():
                self.address = (match.group(1), int(match.group(2)))
                self._address_found.set()
        self._address_found.set()  # EOF: wake a waiter so it can fail

    def __enter__(self) -> "ServedRepro":
        started = time.perf_counter()
        self._proc = subprocess.Popen(
            self._argv, cwd=self._cwd, env=self._env, text=True,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        self._reader = threading.Thread(
            target=self._drain, name="ledger-server-output", daemon=True
        )
        self._reader.start()
        try:
            if not self._address_found.wait(timeout=120.0) or not self.address[1]:
                raise RuntimeError(
                    "repro serve did not report an address:\n"
                    + "\n".join(self.output)
                )
            with HttpClient(self.address) as client:
                client.get_json("/healthz")
        except BaseException:
            self.__exit__(None, None, None)
            raise
        self.boot_s = time.perf_counter() - started
        return self

    def __exit__(self, *exc: object) -> None:
        proc = self._proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if self._reader is not None:
            self._reader.join(timeout=5.0)
        if proc.stdout is not None:
            proc.stdout.close()
        self._proc = None

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` (peak resident set) in MiB."""
        assert self._proc is not None
        status = Path(f"/proc/{self._proc.pid}/status").read_text()
        match = re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.MULTILINE)
        if match is None:
            raise RuntimeError("no VmHWM in /proc/<pid>/status")
        return int(match.group(1)) / 1024.0


@dataclass
class Sample:
    """One request as the client saw it (``status`` 0 = transport failure)."""

    index: int        # position in the workload's request stream
    status: int
    body: bytes
    seconds: float
    offset: float     # timed-phase seconds elapsed at the last byte


@dataclass
class Drive:
    """What :func:`drive` saw."""

    samples: list[Sample]
    warmup_s: float   # client threads started -> every client warm
    wall_s: float     # timed phase, to the last response
    noted: object     # what ``between()`` returned


def drive(
    address: tuple[str, int],
    feed: Callable[[], Sequence[tuple[int, bytes]]],
    warmups: Sequence[Sequence[bytes]],
    seconds: float,
    between: Callable[[], object],
    think: Callable[[], float],
) -> Drive:
    """Closed-loop load in rounds: one thread and connection per client.

    Every client first sends its ``warmups`` untimed; once all are warm
    ``between()`` runs (the caller snapshots the server's counters), then
    the timed phase proceeds in rounds: ``feed()`` hands out one new
    ``(index, wire)`` request per client, the clients pause for the
    round's ``think()`` seconds, each sends its request and waits for the
    reply, until ``seconds`` have passed.

    ``feed()`` runs between rounds, when every reply is in and the server
    is idle, and its time is not part of the timed phase: requests are
    generated as they are needed, so a faster server is sent more
    distinct requests, never the same ones again, and the load generator
    never computes while a request is in flight.

    Rounds, not free-running loops: the coalescer's wait window makes two
    free loops fall into lockstep (every request batched with its peer)
    and a scheduling hiccup knocks them out of it again, so ``/query``
    p50 flipped between 76 and 100 ms for seconds at a time. Started
    together, every request always has exactly one concurrent peer.
    """
    clients = len(warmups)
    barrier = threading.Barrier(clients + 1)
    collected: list[list[Sample]] = [[] for _ in range(clients)]
    errors: list[BaseException] = []
    started = [0.0]   # perf_counter at the start of the timed phase ...
    fed = [0.0]       # ... and the seconds since then spent in feed()
    running = [True]
    pause = [0.0]
    batch: list[tuple[int, bytes]] = []

    def next_round() -> None:  # runs in one thread once all have arrived
        now = time.perf_counter()
        running[0] = now - started[0] - fed[0] < seconds
        if running[0]:
            batch[:] = feed()
            fed[0] += time.perf_counter() - now
        pause[0] = think()

    rounds = threading.Barrier(clients, action=next_round)

    def client_loop(slot: int) -> None:
        samples = collected[slot]
        try:
            client = HttpClient(address)
        except OSError as exc:
            errors.append(exc)
            barrier.abort()
            return
        with client:
            try:
                for wire in warmups[slot]:
                    client.send(wire)
                barrier.wait()
                barrier.wait()  # main thread started the timed phase
            except (OSError, threading.BrokenBarrierError) as exc:
                errors.append(exc)
                barrier.abort()
                return
            while True:
                try:
                    rounds.wait(timeout=60.0)
                except threading.BrokenBarrierError:
                    return  # a peer lost its connection
                if not running[0]:
                    return
                time.sleep(pause[0])
                index, wire = batch[slot]
                try:
                    status, body, took = client.send(wire)
                except (OSError, ValueError) as exc:
                    samples.append(Sample(index, 0, repr(exc).encode(), 0.0, 0.0))
                    rounds.abort()  # the connection is unusable; stop all
                    return
                samples.append(Sample(
                    index, status, body, took,
                    time.perf_counter() - started[0] - fed[0]))

    threads = [
        threading.Thread(target=client_loop, args=(slot,),
                         name=f"ledger-client-{slot}")
        for slot in range(clients)
    ]
    warm_started = time.perf_counter()
    for thread in threads:
        thread.start()
    noted = None
    try:
        barrier.wait(timeout=120.0)
        noted = between()
        started[0] = time.perf_counter()
        barrier.wait(timeout=10.0)
    except threading.BrokenBarrierError:
        started[0] = time.perf_counter()
    for thread in threads:
        thread.join(timeout=seconds + 60.0)
    if errors:
        raise RuntimeError(f"load generator failed before timing: {errors[0]!r}")
    samples = [s for per_client in collected for s in per_client]
    wall = max((s.offset for s in samples), default=0.0)
    return Drive(samples, started[0] - warm_started, wall, noted)
