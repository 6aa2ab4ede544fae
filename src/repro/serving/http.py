"""The HTTP serving layer: stdlib server, JSON bodies, coalesced execution.

:class:`ServingContext` owns the runtime state — a
:class:`~repro.vectordb.client.VectorDBClient`, an optional
:class:`~repro.core.pipeline.SemaSK` pipeline, and the request
coalescers — and exposes the operations the endpoints need.
:class:`ServingServer` wraps it in a ``ThreadingHTTPServer`` (one thread
per connection; no third-party framework), so every scenario the engine
supports is reachable with ``curl``. The socket, its serving thread and
the drain-then-close shutdown live once in :class:`HttpService`, the
response writer and the bounded body reader once in ``_JsonHandler``;
:class:`ServingServer` (and the replica router's front) add only their
routes. Endpoints:

========  ======================  ==========================================
method    path                    purpose
========  ======================  ==========================================
GET       ``/healthz``            liveness + coalescer + WAL + queue stats
GET       ``/metrics``            latency histograms, shed counts, depths
GET       ``/collections``        list collections with point counts
POST      ``/search``             one vector kNN search (coalesced)
POST      ``/query``              one natural-language SemaSK query
POST      ``/upsert``             insert points into a collection
POST      ``/set_payload``        merge payload fields into one point
POST      ``/admin/save``         snapshot a collection to a directory
POST      ``/admin/load``         load a snapshot (mmap and/or WAL)
========  ======================  ==========================================

Durability: writes accepted over ``/upsert`` / ``/set_payload`` are
logged to a per-shard write-ahead log when the served collection has one
attached (``repro serve --wal MODE``, or ``/admin/load`` with a ``wal``
mode). ``/healthz`` then reports the per-collection WAL depth so
operators can see how many acknowledged writes the next ``/admin/save``
would fold into the snapshot; a successful save truncates the log. With
no WAL attached the write endpoints still work — writes are simply
RAM-only until the next save, exactly as before this layer existed.

Request/response schemas are documented in ``docs/serving.md`` (with curl
examples); ``examples/serve_and_query.py`` exercises every endpoint
end-to-end. Errors return ``{"error": ...}`` with 400 (bad request), 404
(unknown path/collection), 411/413 (missing/oversized body), 429
(overloaded — with ``Retry-After``), 504 (deadline exceeded), or 500
(unexpected).

Resilience (see ``docs/resilience.md``): a request may carry a deadline
budget in the ``X-Repro-Deadline-Ms`` header — once spent, the request
answers 504 at the next choke point instead of occupying a worker — and
the server sheds load with 429 when ``max_inflight`` handlers are busy
or a coalescer's ``max_pending`` queue is full, never blocking or
buffering without bound.

Concurrency model: ``ThreadingHTTPServer`` parks each connection in its
own thread; handler threads block on coalescer futures, and requests
that queue while the dispatcher is executing leave as one
``search_batch`` call — a lone request leaves at once (see
:mod:`repro.serving.batcher`). ``coalesce: false`` in a request body
opts that request out — used by the serving benchmark's baseline arm.

Shutdown is graceful: :meth:`HttpService.shutdown` stops accepting,
finishes in-flight handlers, flushes the coalescers, and closes the
context exactly once, whether triggered by SIGINT/SIGTERM (the
``repro serve`` CLI installs handlers), the context manager, or a test.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, Self

import numpy as np

from repro.core.pipeline import SemaSK
from repro.core.query import SpatialKeywordQuery
from repro.core.results import QueryResult
from repro.errors import (
    CollectionNotFound,
    DeadlineExceeded,
    ReproError,
    ServerOverloaded,
)
from repro.geo.bbox import BoundingBox
from repro.geo.point import GeoPoint
from repro.serving.batcher import QueryCoalescer, SearchCoalescer
from repro.serving.metrics import ServingMetrics
from repro.testing import chaos
from repro.vectordb.client import VectorDBClient
from repro.vectordb.collection import PointStruct, SearchHit, SearchParams
from repro.vectordb.deadline import Deadline
from repro.vectordb.filters import (
    And,
    FieldIn,
    FieldMatch,
    FieldRange,
    Filter,
    GeoBoundingBoxFilter,
    GeoRadiusFilter,
    Not,
    Or,
)


class BadRequest(ValueError):
    """A client error that should surface as HTTP 400."""


#: What ``/admin/save|load`` raise for a directory the client chose
#: badly (a file, under a file, unreadable, uncreatable): a 400. Any
#: other ``OSError`` (a full disk, an I/O error) is the server's, a 500.
_UNUSABLE_PATH = (
    FileNotFoundError, NotADirectoryError, FileExistsError,
    IsADirectoryError, PermissionError,
)


class HttpError(ReproError):
    """An error carrying its own HTTP status (411, 413, ...)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def filter_from_json(spec: Any) -> Filter | None:
    """Build a payload filter from its JSON wire form (None passes through).

    The wire form mirrors the filter classes, one key per node::

        {"match":  {"key": "city", "value": "Saint Louis"}}
        {"in":     {"key": "city", "values": ["SL", "SB"]}}
        {"range":  {"key": "stars", "gte": 3.0, "lte": 5.0}}
        {"geo_bounding_box": {"key": "location", "min_lat": ..,
                              "min_lon": .., "max_lat": .., "max_lon": ..}}
        {"geo_radius": {"key": "location", "lat": .., "lon": ..,
                        "radius_km": ..}}
        {"must": [..]}  {"should": [..]}  {"must_not": ..}

    Raises :class:`BadRequest` for malformed specs (unknown node, wrong
    arity, bad field types) so the endpoint can answer 400.
    """
    if spec is None:
        return None
    if not isinstance(spec, dict) or len(spec) != 1:
        raise BadRequest(
            "filter must be a one-key object, e.g. {'match': {...}}"
        )
    (node, body), = spec.items()
    try:
        if node == "match":
            return FieldMatch(body["key"], body["value"])
        if node == "in":
            return FieldIn(body["key"], body["values"])
        if node == "range":
            return FieldRange(
                body["key"], gte=body.get("gte"), lte=body.get("lte")
            )
        if node == "geo_bounding_box":
            return GeoBoundingBoxFilter(
                body["key"],
                BoundingBox(
                    min_lat=float(body["min_lat"]),
                    min_lon=float(body["min_lon"]),
                    max_lat=float(body["max_lat"]),
                    max_lon=float(body["max_lon"]),
                ),
            )
        if node == "geo_radius":
            return GeoRadiusFilter(
                body["key"], float(body["lat"]), float(body["lon"]),
                float(body["radius_km"]),
            )
        if node == "must":
            return And(*map(_nested_filter, body))
        if node == "should":
            return Or(*map(_nested_filter, body))
        if node == "must_not":
            return Not(_nested_filter(body))
    except BadRequest:
        raise
    except (KeyError, TypeError, ValueError, ReproError) as exc:
        raise BadRequest(f"bad {node!r} filter: {exc}") from exc
    raise BadRequest(f"unknown filter node {node!r}")


def _nested_filter(spec: Any) -> Filter:
    """A child of ``must`` / ``should`` / ``must_not``: never null."""
    if spec is None:
        raise BadRequest("a nested filter may not be null")
    return filter_from_json(spec)


def _reject_constant(literal: str) -> None:
    """``json.loads`` ``parse_constant`` hook: ``NaN`` / ``Infinity`` /
    ``-Infinity`` are not JSON, and a stored one would make every later
    response that carries it unparseable."""
    raise BadRequest(f"invalid JSON body: {literal} is not a JSON value")


def _vector_from_json(raw: Any) -> np.ndarray:
    """A request's vector as float32, or :class:`BadRequest`: a NaN, an
    Infinity or an overflowing magnitude would be stored by ``/upsert``
    and come back from ``/search`` as a score JSON cannot carry."""
    try:
        with np.errstate(over="ignore"):
            vector = np.asarray(raw, dtype=np.float32)
            norm_sq = np.square(vector).sum()
    except (TypeError, ValueError) as exc:
        raise BadRequest(f"bad vector: {exc}") from exc
    if not np.isfinite(norm_sq):
        raise BadRequest("bad vector: its float32 norm must be finite")
    return vector


def _hit_to_json(hit: SearchHit, with_payload: bool = True) -> dict:
    body = {"id": hit.id, "score": float(hit.score)}
    if with_payload:
        body["payload"] = hit.payload
    return body


def _result_to_json(result: QueryResult) -> dict:
    return {
        "query": result.query_text,
        "entries": [asdict(entry) for entry in result.entries],
        "filtered_out": [asdict(entry) for entry in result.filtered_out],
        "candidates_considered": result.candidates_considered,
        "timings": {
            "filter_s": result.timings.filter_s,
            "refine_compute_s": result.timings.refine_compute_s,
            "refine_modeled_s": result.timings.refine_modeled_s,
        },
    }


class ServingContext:
    """Everything a serving process holds: client, pipeline, coalescers.

    ``system`` is optional — a pure vector-store deployment serves
    ``/search`` without a SemaSK pipeline, and ``/query`` then answers
    400. ``coalesce=False`` builds no coalescers at all (every request
    executes directly); per-request ``coalesce: false`` opts out
    selectively when they exist. Close (or use as a context manager) to
    flush the coalescers; the client's collections are closed too when
    ``own_client=True``, which is what the CLI wants — tests that share
    a corpus across cases pass ``own_client=False``.
    """

    def __init__(
        self,
        client: VectorDBClient,
        system: SemaSK | None = None,
        default_center: GeoPoint | None = None,
        coalesce: bool = True,
        max_batch: int = 64,
        own_client: bool = True,
        max_pending: int | None = None,
    ) -> None:
        self._client = client
        self._system = system
        self._default_center = default_center
        self._own_client = own_client
        self._started = time.monotonic()
        self._closed = False
        self.metrics = ServingMetrics()
        self._search_coalescer = (
            SearchCoalescer(
                client, max_batch=max_batch, max_pending=max_pending
            )
            if coalesce else None
        )
        self._query_coalescer = (
            QueryCoalescer(
                system, max_batch=max_batch, max_pending=max_pending
            )
            if coalesce and system is not None else None
        )

    @property
    def client(self) -> VectorDBClient:
        """The underlying vector-database client."""
        return self._client

    # ------------------------------------------------------------------
    # operations behind the endpoints
    # ------------------------------------------------------------------

    def search(
        self,
        collection: str,
        vector: Any,
        k: int | SearchParams,
        coalesce: bool = True,
        deadline: Deadline | None = None,
        **knobs: Any,
    ) -> list[SearchHit]:
        """One kNN search, coalesced with concurrent callers by default.

        ``deadline`` is the request's remaining budget: an expired one
        raises :class:`~repro.errors.DeadlineExceeded` before any engine
        work is dispatched, and a live one rides along to the engine's
        choke points (and caps the coalesced wait). ``k`` / ``knobs``:
        :class:`~repro.vectordb.collection.SearchParams`.
        """
        if deadline is not None:
            deadline.check("search dispatch")
        if self._search_coalescer is not None and coalesce:
            return self._search_coalescer.search(
                collection, vector, k, deadline=deadline, **knobs
            )
        return self._client.search(collection, vector, k, deadline, **knobs)

    def query(
        self,
        text: str,
        lat: float | None = None,
        lon: float | None = None,
        range_km: float = 5.0,
        coalesce: bool = True,
        deadline: Deadline | None = None,
    ) -> QueryResult:
        """One natural-language SemaSK query around (lat, lon).

        Falls back to the context's ``default_center`` only when *both*
        coordinates are absent; a half-specified location (one of
        lat/lon) is rejected rather than silently answered around the
        default center. Raises :class:`BadRequest` for that, for absent
        coordinates with no default center, for a ``text`` that is not a
        string or a ``range_km`` that is not finite, and when no
        pipeline is configured.
        """
        if self._system is None:
            raise BadRequest("this server exposes no query pipeline")
        if not isinstance(text, str):
            raise BadRequest("'text' must be a string")
        if not math.isfinite(range_km):
            raise BadRequest("'range_km' must be a finite number")
        if (lat is None) != (lon is None):
            raise BadRequest(
                "provide both lat and lon, or neither (got only one)"
            )
        if lat is None and lon is None:
            if self._default_center is None:
                raise BadRequest("request needs lat/lon (no default center)")
            center = self._default_center
        else:
            try:
                center = GeoPoint(float(lat), float(lon))
            except (TypeError, ValueError) as exc:
                raise BadRequest(str(exc)) from exc
        try:
            query = SpatialKeywordQuery.around(
                center, text, range_km, range_km
            )
        except ReproError as exc:  # e.g. empty query text
            raise BadRequest(str(exc)) from exc
        if deadline is not None:
            deadline.check("query dispatch")
        if self._query_coalescer is not None and coalesce:
            return self._query_coalescer.query(query, deadline=deadline)
        return self._system.query(query)

    def collections(self) -> list[dict]:
        """Info dicts for every collection, sorted by name."""
        return [
            self._client.collection_info(name)
            for name in self._client.list_collections()
        ]

    def upsert(self, collection: str, points: list[dict]) -> dict:
        """Insert points (``{"id", "vector", "payload"?}`` dicts).

        Applied — and, when the collection has a WAL attached, logged —
        before the response is sent, so an acknowledged write survives a
        crash under ``fsync="always"`` (and a crash after the next flush
        window under ``"batch"``).
        """
        structs = []
        for row in points:
            if not isinstance(row, dict) or "id" not in row or "vector" not in row:
                raise BadRequest(
                    "each point needs at least 'id' and 'vector' fields"
                )
            payload = row.get("payload") or {}
            if not isinstance(payload, dict):
                raise BadRequest("point 'payload' must be an object")
            vector = _vector_from_json(row["vector"])
            structs.append(
                PointStruct(id=str(row["id"]), vector=vector, payload=payload)
            )
        inserted = self._client.upsert(collection, structs)
        target = self._client.get_collection(collection)
        return {
            "collection": collection,
            "received": len(structs),
            "inserted": inserted,
            "points": len(target),
            "wal": target.wal_stats(),
        }

    def set_payload(
        self, collection: str, point_id: str, payload: dict
    ) -> dict:
        """Merge payload fields into one point (logged like upserts)."""
        self._client.set_payload(collection, point_id, payload)
        target = self._client.get_collection(collection)
        return {
            "collection": collection,
            "id": point_id,
            "payload": target.retrieve(point_id).payload,
            "wal": target.wal_stats(),
        }

    def save_snapshot(self, collection: str, directory: str) -> dict:
        """Snapshot ``collection`` to ``directory`` (atomic); returns info.

        Safe under concurrent writes: the save captures the state under
        the collection's write lock(s), and any attached WAL is truncated
        through the captured offset afterwards — the response's ``wal``
        depth reflects that.
        """
        self._client.save(collection, directory)
        return {
            "collection": collection,
            "directory": str(Path(directory)),
            "wal": self._client.get_collection(collection).wal_stats(),
        }

    def load_snapshot(
        self, directory: str, mmap: bool = False, wal: str | None = None
    ) -> dict:
        """Load a snapshot into the client; returns the collection info.

        Replays any WAL tail beside the snapshot; ``wal`` (an fsync
        mode) attaches live logs so writes served afterwards are durable.
        """
        collection = self._client.load(directory, mmap=mmap, wal=wal)
        return self._client.collection_info(collection.name)

    def queue_depths(self) -> dict:
        """Current coalescer queue depths (items awaiting dispatch)."""
        depths = {}
        if self._search_coalescer is not None:
            depths["search"] = self._search_coalescer.pending
        if self._query_coalescer is not None:
            depths["query"] = self._query_coalescer.pending
        return depths

    def _coalescer_stats(self) -> dict:
        """Dispatch counters of each coalescer that exists, by name."""
        stats = {}
        if self._search_coalescer is not None:
            stats["search"] = self._search_coalescer.stats.snapshot()
        if self._query_coalescer is not None:
            stats["query"] = self._query_coalescer.stats.snapshot()
        return stats

    def health(self) -> dict:
        """The ``/healthz`` body: liveness, uptime, coalescer + WAL stats."""
        body: dict = {
            "status": "ok",
            "uptime_s": round(time.monotonic() - self._started, 3),
            "collections": self._client.list_collections(),
            "pipeline": self._system.name if self._system else None,
            "coalescing": self._search_coalescer is not None,
            "queue_depths": self.queue_depths(),
            "backpressure": self.metrics.counters(),
        }
        for name, stats in self._coalescer_stats().items():
            body[f"{name}_coalescer"] = stats
        # Per-collection WAL depth (records awaiting the next snapshot
        # truncation); None when that collection's durability is off.
        wal = {
            name: self._client.get_collection(name).wal_stats()
            for name in self._client.list_collections()
        }
        body["wal"] = wal if any(v is not None for v in wal.values()) else None
        return body

    def metrics_body(self) -> dict:
        """The ``/metrics`` body: counters, histograms, queue depths."""
        body = self.metrics.snapshot()
        body["queue_depths"] = self.queue_depths()
        body["coalescers"] = self._coalescer_stats()
        return body

    def close(self) -> None:
        """Flush coalescers; close the client if owned (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._search_coalescer is not None:
            self._search_coalescer.close()
        if self._query_coalescer is not None:
            self._query_coalescer.close()
        if self._own_client:
            self._client.close()

    def __enter__(self) -> "ServingContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class _TrackingHTTPServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` that counts in-flight request handlers.

    Handler threads are daemonic (an *idle* keep-alive connection must
    not block shutdown), so ``server_close`` cannot be relied on to
    join them; instead every dispatched request is counted and
    :meth:`wait_idle` lets a graceful shutdown drain the requests that
    are actually executing before the coalescers and client close.
    """

    daemon_threads = True
    #: Listen backlog. Every 429 closes its connection, so an overloaded
    #: server is reconnected to in bursts; socketserver's default of 5
    #: lets the kernel drop those SYNs and the client's retransmit timer
    #: turns shedding into 0.5-0.8 s stalls.
    request_queue_size = 128

    def __init__(
        self,
        *args: Any,
        max_inflight: int | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        self._inflight = 0
        self._inflight_cv = threading.Condition()
        self.max_inflight = max_inflight
        self.shed_total = 0

    @property
    def inflight(self) -> int:
        """Requests currently executing a handler."""
        with self._inflight_cv:
            return self._inflight

    def request_began(self) -> bool:
        """Admit a request unless ``max_inflight`` handlers already run.

        Returns False — and counts the shed — when at capacity; the
        caller answers 429 without touching the context. Admission and
        the count are one atomic step, so a burst can never overshoot
        the cap.
        """
        with self._inflight_cv:
            if (
                self.max_inflight is not None
                and self._inflight >= self.max_inflight
            ):
                self.shed_total += 1
                return False
            self._inflight += 1
            return True

    def request_finished(self) -> None:
        with self._inflight_cv:
            self._inflight -= 1
            if self._inflight <= 0:
                self._inflight_cv.notify_all()

    def wait_idle(self, timeout: float) -> bool:
        """Block until no request is executing (True) or timeout (False)."""
        deadline = time.monotonic() + timeout
        with self._inflight_cv:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._inflight_cv.wait(remaining)
        return True


class _JsonHandler(BaseHTTPRequestHandler):
    """What every HTTP front here shares: the response writer and the
    bounded body reader. Subclasses add only their routing.

    Every response leaves through :meth:`_send_bytes` as one write —
    status line, headers and body in a single segment, on a socket with
    Nagle off — so that is where a request id or an access log line
    would go, and where a peer that hung up before reading ends quietly.
    """

    protocol_version = "HTTP/1.1"  # keep-alive: clients reuse connections
    disable_nagle_algorithm = True  # TCP_NODELAY on every accepted socket
    server: _TrackingHTTPServer

    #: Hard cap on accepted request bodies; larger gets 413 unread. Even
    #: a full batch of float vectors fits in a fraction of this.
    MAX_BODY_BYTES = 8 * 1024 * 1024

    def log_message(self, *args: object) -> None:
        """Silence per-request stderr logging."""

    def parse_request(self) -> bool:
        self._body_unread = True  # until _read_body_bytes consumes it
        return super().parse_request()

    def _send_bytes(
        self,
        status: int,
        data: bytes,
        content_type: str = "application/json; charset=utf-8",
    ) -> None:
        """Write one response (JSON unless told otherwise); every 429
        carries ``Retry-After``."""
        declared = self.headers.get("Content-Length", "0")
        if self._body_unread and declared != "0":
            # The unread bytes would be parsed as the next request line
            # on this keep-alive connection.
            self.close_connection = True
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        if status == 429:
            self.send_header("Retry-After", "1")
        if self.close_connection:
            self.send_header("Connection", "close")
        # end_headers() would flush the head as a segment of its own;
        # the body then waits out the peer's delayed ACK (≈ 40 ms).
        if self.request_version == "HTTP/0.9":
            head = b""  # the stdlib buffers no head for these: body only
        else:
            # the stdlib's buffer, read directly: a rename must fail
            # here, not send a body with no status line
            head = b"".join(self._headers_buffer) + b"\r\n"
            self._headers_buffer = []
        try:
            self.wfile.write(head + data)
        except (BrokenPipeError, ConnectionResetError):
            # The peer hung up before reading (a router attempt capped
            # at its deadline does exactly this): nothing to answer, and
            # not a server error.
            self.close_connection = True

    def _read_body_bytes(self) -> bytes:
        """The raw request body, refusing to read unbounded bytes.

        A missing/zero ``Content-Length`` is 411 (this server does not
        accept chunked bodies) and one beyond :attr:`MAX_BODY_BYTES` is
        413 — in both cases the body is *never read*, so a hostile
        header cannot make the handler allocate, and the connection
        closes.
        """
        raw_length = self.headers.get("Content-Length")
        try:
            if raw_length is None:
                raise HttpError(411, "Content-Length required")
            try:
                length = int(raw_length)
            except ValueError as exc:
                raise HttpError(
                    411, f"invalid Content-Length {raw_length!r}"
                ) from exc
            if length <= 0:
                raise HttpError(411, "request body required")
            if length > self.MAX_BODY_BYTES:
                raise HttpError(
                    413,
                    f"request body of {length} bytes exceeds the "
                    f"{self.MAX_BODY_BYTES}-byte limit",
                )
        except HttpError:
            self.close_connection = True
            raise
        self._body_unread = False
        return self.rfile.read(length)


class _Handler(_JsonHandler):
    """Routes requests to the :class:`ServingContext` (set per server)."""

    context: ServingContext  # injected by ServingServer

    #: Paths metrics may record verbatim; anything else becomes "other"
    #: so probing scanners cannot grow the route map.
    KNOWN_ROUTES = frozenset({
        "/healthz", "/metrics", "/collections", "/search", "/query",
        "/upsert", "/set_payload", "/admin/save", "/admin/load",
    })

    # -- plumbing ------------------------------------------------------

    def _send_json(self, status: int, body: dict | list) -> None:
        self._send_bytes(status, json.dumps(body).encode("utf-8"))

    def _read_body(self) -> dict:
        """Parse the JSON request body (a JSON object, or 400)."""
        try:
            body = json.loads(
                self._read_body_bytes(), parse_constant=_reject_constant
            )
        except json.JSONDecodeError as exc:
            raise BadRequest(f"invalid JSON body: {exc}") from exc
        if not isinstance(body, dict):
            raise BadRequest("request body must be a JSON object")
        return body

    def _request_deadline(self) -> Deadline | None:
        """The request's budget from ``X-Repro-Deadline-Ms`` (or None)."""
        raw = self.headers.get("X-Repro-Deadline-Ms")
        if raw is None:
            return None
        try:
            return Deadline.after_ms(float(raw))
        except ValueError as exc:  # not a number, negative, or NaN
            raise BadRequest(
                f"invalid X-Repro-Deadline-Ms {raw!r}: {exc}"
            ) from exc

    def _dispatch(self, handler) -> None:
        if not self.server.request_began():
            # Shed, not blocked: at max_inflight the cheapest honest
            # answer is an immediate 429 — the client backs off while
            # the admitted requests keep their latency.
            self.close_connection = True
            self.context.metrics.observe(self._route(), 429, 0.0)
            self._send_json(
                429, {"error": "server overloaded (in-flight cap reached)"}
            )
            return
        started = time.monotonic()
        status = 500
        try:
            try:
                chaos.fire(
                    "http.request", method=self.command, path=self.path
                )
                status, body = handler()
            except BadRequest as exc:
                status, body = 400, {"error": str(exc)}
            except DeadlineExceeded as exc:
                status, body = 504, {"error": str(exc)}
            except ServerOverloaded as exc:
                status, body = 429, {"error": str(exc)}
            except HttpError as exc:
                status, body = exc.status, {"error": str(exc)}
            except (  # OverflowError: int() of a JSON Infinity
                ValueError, KeyError, TypeError, OverflowError
            ) as exc:
                status, body = 400, {"error": str(exc)}
            except CollectionNotFound as exc:
                status, body = 404, {"error": str(exc)}
            except ReproError as exc:
                status, body = 400, {"error": str(exc)}
            except Exception as exc:  # reprolint: last-resort -- every handler error becomes a JSON 500
                status, body = 500, {"error": f"{type(exc).__name__}: {exc}"}
            self._send_json(status, body)
        finally:
            self.context.metrics.observe(
                self._route(), status, time.monotonic() - started
            )
            self.server.request_finished()

    def _route(self) -> str:
        """The path as a bounded-cardinality metrics label."""
        return self.path if self.path in self.KNOWN_ROUTES else "other"

    # -- routes --------------------------------------------------------

    def _unknown_path(self) -> tuple[int, dict]:
        raise HttpError(404, f"unknown path {self.path!r}")

    def do_GET(self) -> None:  # noqa: N802 (stdlib API name)
        routes = {
            "/healthz": lambda: (
                200, self._with_inflight(self.context.health())
            ),
            "/metrics": lambda: (
                200, self._with_inflight(self.context.metrics_body())
            ),
            "/collections": lambda: (200, self.context.collections()),
        }
        self._dispatch(routes.get(self.path, self._unknown_path))

    def _with_inflight(self, body: dict) -> dict:
        """``body`` plus the socket layer's in-flight accounting."""
        body["inflight"] = self.server.inflight
        body["max_inflight"] = self.server.max_inflight
        body["inflight_shed_total"] = self.server.shed_total
        return body

    def do_POST(self) -> None:  # noqa: N802 (stdlib API name)
        routes = {
            "/search": self._post_search,
            "/query": self._post_query,
            "/upsert": self._post_upsert,
            "/set_payload": self._post_set_payload,
            "/admin/save": self._post_save,
            "/admin/load": self._post_load,
        }
        self._dispatch(routes.get(self.path, self._unknown_path))

    def _post_search(self) -> tuple[int, dict]:
        body = self._read_body()
        for required in ("collection", "vector", "k"):
            if required not in body:
                raise BadRequest(f"missing field {required!r}")
        params = SearchParams(
            int(body["k"]),
            flt=filter_from_json(body.get("filter")),
            exact=bool(body.get("exact", False)),
            ef=int(body["ef"]) if body.get("ef") is not None else None,
        )
        hits = self.context.search(
            str(body["collection"]),
            _vector_from_json(body["vector"]),
            params,
            coalesce=bool(body.get("coalesce", True)),
            deadline=self._request_deadline(),
        )
        # with_payload=false trims the response to ids + scores — POI
        # payloads carry full tip texts, which dominate the wire size.
        with_payload = bool(body.get("with_payload", True))
        return 200, {
            "hits": [_hit_to_json(hit, with_payload) for hit in hits]
        }

    def _post_query(self) -> tuple[int, dict]:
        body = self._read_body()
        if "text" not in body:
            raise BadRequest("missing field 'text'")
        result = self.context.query(
            body["text"],
            lat=body.get("lat"),
            lon=body.get("lon"),
            range_km=float(body.get("range_km", 5.0)),
            coalesce=bool(body.get("coalesce", True)),
            deadline=self._request_deadline(),
        )
        return 200, _result_to_json(result)

    def _post_upsert(self) -> tuple[int, dict]:
        body = self._read_body()
        for required in ("collection", "points"):
            if required not in body:
                raise BadRequest(f"missing field {required!r}")
        points = body["points"]
        if not isinstance(points, list):
            raise BadRequest("'points' must be a list of point objects")
        return 200, self.context.upsert(str(body["collection"]), points)

    def _post_set_payload(self) -> tuple[int, dict]:
        body = self._read_body()
        for required in ("collection", "id", "payload"):
            if required not in body:
                raise BadRequest(f"missing field {required!r}")
        if not isinstance(body["payload"], dict):
            raise BadRequest("'payload' must be an object")
        return 200, self.context.set_payload(
            str(body["collection"]), str(body["id"]), body["payload"]
        )

    def _post_save(self) -> tuple[int, dict]:
        body = self._read_body()
        for required in ("collection", "directory"):
            if required not in body:
                raise BadRequest(f"missing field {required!r}")
        directory = str(body["directory"])
        if not directory:  # Path("") is the server's working directory
            raise BadRequest("'directory' must be a non-empty path")
        try:
            return 200, self.context.save_snapshot(
                str(body["collection"]), directory
            )
        except _UNUSABLE_PATH as exc:
            raise BadRequest(f"cannot save to {directory!r}: {exc}") from exc

    def _post_load(self) -> tuple[int, dict]:
        body = self._read_body()
        if "directory" not in body:
            raise BadRequest("missing field 'directory'")
        directory = str(body["directory"])
        wal = body.get("wal")
        try:
            return 200, self.context.load_snapshot(
                directory,
                mmap=bool(body.get("mmap", False)),
                wal=str(wal) if wal is not None else None,
            )
        except _UNUSABLE_PATH as exc:
            raise BadRequest(f"cannot load {directory!r}: {exc}") from exc


class HttpService:
    """One bound ``_TrackingHTTPServer`` and its lifecycle.

    ``port=0`` binds an ephemeral port (tests and benchmarks);
    :attr:`address` reports the bound ``(host, port)``. Run blocking via
    :meth:`serve_forever` (the CLI) or in a daemon thread via
    :meth:`start` (tests, examples); both call ``on_start`` first.
    :meth:`shutdown` is graceful and idempotent: stop accepting, drain
    the handlers that are executing, then ``on_close`` what they
    depended on. Also a context manager, guaranteeing shutdown on the
    way out of a ``with`` block.
    """

    def __init__(
        self,
        handler: type[_JsonHandler],
        host: str,
        port: int,
        max_inflight: int | None,
        on_close: Callable[[], object],
        on_start: Callable[[], object] = lambda: None,
    ) -> None:
        if max_inflight is not None and max_inflight <= 0:
            raise ValueError(
                f"max_inflight must be positive or None, got {max_inflight}"
            )
        self._httpd = _TrackingHTTPServer(
            (host, port), handler, max_inflight=max_inflight
        )
        self._on_start = on_start
        self._on_close = on_close
        self._thread: threading.Thread | None = None
        self._shutdown_once = threading.Lock()
        self._shut_down = False

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — useful with ``port=0``."""
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        """Base URL of the bound server."""
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> Self:
        """Serve in a background daemon thread; returns self."""
        self._on_start()
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name=f"{type(self).__name__}-http",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown` (or ^C)."""
        self._on_start()
        try:
            self._httpd.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        """Stop accepting, drain handlers, run ``on_close`` (idempotent)."""
        with self._shutdown_once:
            if self._shut_down:
                return
            self._shut_down = True
        # From the serving thread itself, httpd.shutdown() would deadlock
        # (it waits for serve_forever to exit); only call it from others.
        if threading.current_thread() is not self._thread:
            self._httpd.shutdown()
        # Handler threads are daemonic (idle keep-alive connections must
        # not pin the process), so server_close() does not join them —
        # drain the requests that are actually executing before tearing
        # down what they depend on (coalescers, collections, the prober).
        self._httpd.wait_idle(timeout=10.0)
        self._httpd.server_close()
        if self._thread is not None and (
            threading.current_thread() is not self._thread
        ):
            self._thread.join(timeout=5.0)
        self._on_close()

    def __enter__(self) -> Self:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()


class ServingServer(HttpService):
    """A :class:`ServingContext` behind an :class:`HttpService`.

    Shutdown flushes the coalescers and closes the context exactly once.
    """

    def __init__(
        self,
        context: ServingContext,
        host: str = "127.0.0.1",
        port: int = 8080,
        max_inflight: int | None = None,
    ) -> None:
        handler = type("BoundHandler", (_Handler,), {"context": context})
        self._context = context
        super().__init__(
            handler, host, port, max_inflight, on_close=context.close
        )
