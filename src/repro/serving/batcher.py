"""Micro-batching request coalescing: many callers, one batched call.

PR 1's batch engine made 64 queries in one ``search_batch`` call ~5×
cheaper than 64 ``search`` calls — but only for callers that *have* 64
queries in hand. An online server does not: it has 64 concurrent clients
holding one query each. The coalescer bridges the two. Concurrent
callers enqueue single requests and block on a future; a dispatcher
thread takes the oldest waiting group — whatever gathered while it was
executing the previous batch — runs one batched call for it, and
resolves every caller's future. Batches therefore form exactly when the
engine is the bottleneck (requests queue behind a busy dispatcher) and
never otherwise: there is no timer, and a lone request on an idle server
pays one thread hop (< 0.1 ms), not a wait window.

Three classes:

* :class:`MicroBatcher` — the generic queue-draining machinery. Items
  are grouped by a caller-supplied key (only identically-parameterized
  requests may share a batch) and executed by a pluggable
  ``run_batch(key, items, deadline)``.
* :class:`SearchCoalescer` — vector searches over a
  :class:`~repro.vectordb.client.VectorDBClient`; groups by
  (collection, :class:`~repro.vectordb.collection.SearchParams`) and
  executes ``client.search_batch``.
* :class:`QueryCoalescer` — full SemaSK pipeline queries; executes
  :meth:`~repro.core.pipeline.SemaSK.query_many` (which itself groups by
  spatial range, then refines query by query).

Error isolation: a batch whose execution raises is retried one item at a
time, so a poison request fails only its own future — the innocent
requests that happened to share its batch still succeed. Equivalence is
inherited from the batch engine's contract (same hits as per-query
calls; scores equal up to float accumulation order) and locked down in
``tests/test_serving.py``.

Tuning: ``max_batch`` caps per-call work (default 64) — see
``docs/serving.md``.
"""

from __future__ import annotations

import threading
import warnings
from collections.abc import Callable, Hashable, Sequence
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.pipeline import SemaSK
from repro.core.query import SpatialKeywordQuery
from repro.core.results import QueryResult
from repro.errors import DeadlineExceeded, DimensionMismatch, ServerOverloaded
from repro.testing import chaos
from repro.vectordb.client import VectorDBClient
from repro.vectordb.collection import SearchHit, SearchParams
from repro.vectordb.deadline import Deadline


@dataclass
class CoalescerStats:
    """Running counters of one batcher (read-mostly; updated under lock).

    Plain counters only (no per-batch history), so a server can run
    indefinitely without the stats object growing.
    """

    requests: int = 0            # futures ever enqueued
    batches: int = 0             # batched executions dispatched
    requests_dispatched: int = 0  # requests that left the queue in a batch
    max_batch_seen: int = 0      # largest batch executed
    retried_singly: int = 0      # items re-run alone after a batch failure
    shed: int = 0                # submits refused because the queue was full
    expired: int = 0             # items dropped for a spent deadline

    @property
    def mean_batch_size(self) -> float:
        """Average requests per dispatched batch (0.0 before any)."""
        if not self.batches:
            return 0.0
        return self.requests_dispatched / self.batches

    def snapshot(self) -> dict:
        """JSON-ready view (the ``/healthz`` endpoint embeds this)."""
        return {
            "requests": self.requests,
            "batches": self.batches,
            "mean_batch_size": round(self.mean_batch_size, 2),
            "max_batch_seen": self.max_batch_seen,
            "retried_singly": self.retried_singly,
            "shed": self.shed,
            "expired": self.expired,
        }


def _await_future(
    future: Future,
    timeout: float | None,
    deadline: Deadline | None,
) -> Any:
    """Block on ``future``, never past the deadline's remaining budget.

    A wait that exhausts the budget raises
    :class:`~repro.errors.DeadlineExceeded`; a plain ``timeout`` expiry
    keeps the stdlib ``TimeoutError``. Either way the caller's worker is
    released — the batch the item rode in completes in the background
    and its result is discarded.
    """
    if deadline is not None:
        remaining = deadline.remaining_s()
        timeout = remaining if timeout is None else min(timeout, remaining)
    try:
        return future.result(timeout)
    except FuturesTimeoutError:
        if deadline is not None and deadline.expired:
            raise DeadlineExceeded(
                "deadline exceeded awaiting batch result"
            ) from None
        raise


class MicroBatcher:
    """Queue-draining micro-batching over a ``run_batch`` callable.

    ``run_batch(key, items, deadline)`` must return one result per item,
    in order.
    :meth:`submit` enqueues an item under ``key`` and returns a
    :class:`~concurrent.futures.Future`; only items with equal keys are
    batched together. A single dispatcher thread sleeps while the queue
    is empty and otherwise takes the oldest group's first ``max_batch``
    items — everything that queued under that key while it was busy —
    executes them as one batch, and repeats; a group's leftovers go to
    the back of the line, behind the other waiting groups.

    Lifecycle: the dispatcher starts with the first :meth:`submit`.
    :meth:`close` drains everything still queued (executing it, not
    cancelling), then stops the thread; submitting after close raises
    ``RuntimeError``.

    Backpressure: ``max_pending`` bounds how many items may sit in the
    queue awaiting dispatch. A submit that would exceed the bound is
    refused with :class:`~repro.errors.ServerOverloaded` — shed, not
    blocked — so a stalled ``run_batch`` can never grow the queue (and
    the process) without limit. ``None`` keeps the historical unbounded
    behaviour.

    Deadlines: an optional :class:`~repro.vectordb.deadline.Deadline`
    rides with each item. Items whose budget is already spent when their
    batch is picked up are failed with ``DeadlineExceeded`` instead of
    being executed, and ``run_batch`` receives the batch's most generous
    deadline (the latest expiry among its items — a tight budget never
    fails a batchmate; ``None`` when any item has no budget).
    """

    def __init__(
        self,
        run_batch: Callable[
            [Hashable, list[Any], Deadline | None], Sequence[Any]
        ],
        max_batch: int = 64,
        name: str = "batcher",
        max_pending: int | None = None,
    ) -> None:
        if max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        if max_pending is not None and max_pending <= 0:
            raise ValueError(
                f"max_pending must be positive or None, got {max_pending}"
            )
        self._run_batch = run_batch
        self._max_batch = max_batch
        self._max_pending = max_pending
        self._name = name
        self._lock = threading.Condition()
        # group -> (the caller's key, [(item, future, deadline), ...]);
        # the group is the key, or a placeholder for an unhashable one.
        # Insertion order doubles as arrival order of the groups.
        self._groups: dict[Hashable, tuple[
            Hashable, list[tuple[Any, Future, Deadline | None]]
        ]] = {}
        self._queued = 0  # items awaiting dispatch, across all groups
        self._thread: threading.Thread | None = None
        self._closed = False
        self.stats = CoalescerStats()

    # ------------------------------------------------------------------
    # caller side
    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Items currently queued awaiting dispatch (the queue depth)."""
        with self._lock:
            return self._queued

    def submit(
        self,
        key: Hashable,
        item: Any,
        deadline: Deadline | None = None,
    ) -> Future:
        """Enqueue ``item`` under ``key``; resolve via the returned future.

        Unhashable keys get a private group (no coalescing, still
        batched machinery; ``run_batch`` receives the key as given).
        Raises ``RuntimeError`` after :meth:`close`,
        :class:`~repro.errors.ServerOverloaded` when ``max_pending``
        items are already queued, and
        :class:`~repro.errors.DeadlineExceeded` when ``deadline`` is
        already spent (nothing is enqueued in either case).
        """
        if deadline is not None:
            deadline.check("enqueue")
        group = key
        try:
            hash(key)
        except TypeError:
            group = object()  # unique: a group of its own
        future: Future = Future()
        with self._lock:
            if self._closed:
                raise RuntimeError(f"{self._name} is closed")
            if (
                self._max_pending is not None
                and self._queued >= self._max_pending
            ):
                self.stats.shed += 1
                raise ServerOverloaded(
                    f"{self._name} queue is full "
                    f"({self._queued}/{self._max_pending} pending)"
                )
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._dispatch_loop,
                    name=f"dispatch-{self._name}",
                    daemon=True,
                )
                self._thread.start()
            entry = self._groups.get(group)
            if entry is None:
                self._groups[group] = (key, [(item, future, deadline)])
            else:
                entry[1].append((item, future, deadline))
            self._queued += 1
            self.stats.requests += 1
            self._lock.notify_all()
        return future

    def close(self, timeout: float | None = 5.0) -> bool:
        """Drain pending requests, then stop the dispatcher (idempotent).

        Returns True when the dispatcher thread is fully stopped (or
        never ran). A dispatcher still alive after ``timeout`` — e.g. a
        ``run_batch`` wedged on I/O — returns False and emits a
        ``RuntimeWarning`` so the leak is visible to warning filters and
        the session leak guard rather than silently orphaned.
        """
        with self._lock:
            if self._closed:
                thread = self._thread
                already_stopped = thread is None or not thread.is_alive()
                if already_stopped:
                    return True
            self._closed = True
            self._lock.notify_all()
            thread = self._thread
        if thread is None:
            return True
        thread.join(timeout=timeout)
        if thread.is_alive():
            warnings.warn(
                f"{self._name} dispatcher failed to stop within "
                f"{timeout}s; its thread is still running",
                RuntimeWarning,
                stacklevel=2,
            )
            return False
        return True

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # dispatcher side
    # ------------------------------------------------------------------

    def _take_oldest(self):
        """Pop the oldest group's first ``max_batch`` items as
        ``(key, entries)``; leftovers re-queue behind the other groups.
        Called under the lock with at least one group waiting.
        """
        group = next(iter(self._groups))
        key, entries = self._groups.pop(group)
        batch, rest = entries[: self._max_batch], entries[self._max_batch:]
        if rest:
            self._groups[group] = (key, rest)
        self._queued -= len(batch)
        return key, batch

    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                while not self._groups:
                    if self._closed:
                        return  # closed and fully drained
                    self._lock.wait()
                key, batch = self._take_oldest()
                self.stats.batches += 1
                self.stats.requests_dispatched += len(batch)
                self.stats.max_batch_seen = max(
                    self.stats.max_batch_seen, len(batch)
                )
            self._execute(key, batch)  # outside the lock: submitters go on

    def _call_run_batch(
        self,
        key: Hashable,
        items: list[Any],
        deadline: Deadline | None,
    ) -> Sequence[Any]:
        """One batched execution, behind the chaos injection point."""
        chaos.fire(
            "batcher.run_batch", name=self._name, key=key, items=items
        )
        return self._run_batch(key, items, deadline)

    def _drop_expired(
        self, batch: list[tuple[Any, Future, Deadline | None]]
    ) -> list[tuple[Any, Future, Deadline | None]]:
        """Fail already-over-budget entries; return the live remainder."""
        live = []
        for entry in batch:
            deadline = entry[2]
            if deadline is not None and deadline.expired:
                with self._lock:
                    self.stats.expired += 1
                entry[1].set_exception(
                    DeadlineExceeded("deadline exceeded before dispatch")
                )
            else:
                live.append(entry)
        return live

    def _execute(
        self, key: Hashable, batch: list[tuple[Any, Future, Deadline | None]]
    ) -> None:
        batch = self._drop_expired(batch)
        if not batch:
            return
        items = [item for item, _, _ in batch]
        deadlines = [deadline for _, _, deadline in batch]
        # The batch runs under its most generous member's budget; members
        # with tighter budgets are re-checked at the engine's choke
        # points only via their own deadline when retried singly.
        batch_deadline = (
            None
            if any(d is None for d in deadlines)
            else max(deadlines, key=lambda d: d.expires_at)
        )
        try:
            results = self._call_run_batch(key, items, batch_deadline)
            if len(results) != len(items):
                raise RuntimeError(
                    f"run_batch returned {len(results)} results for "
                    f"{len(items)} items"
                )
        except BaseException:
            # Error isolation: re-run one by one so only the item(s) that
            # actually fail see an exception — a poison request must not
            # take down the whole batch it happened to ride in.
            for item, future, deadline in batch:
                with self._lock:
                    self.stats.retried_singly += 1
                if deadline is not None and deadline.expired:
                    with self._lock:
                        self.stats.expired += 1
                    future.set_exception(
                        DeadlineExceeded("deadline exceeded before retry")
                    )
                    continue
                try:
                    result = self._call_run_batch(key, [item], deadline)
                except BaseException as exc:  # noqa: BLE001 - to the caller
                    future.set_exception(exc)
                else:
                    future.set_result(result[0])
            return
        for (_, future, _), result in zip(batch, results):
            future.set_result(result)


class SearchCoalescer:
    """Coalesces single vector searches into ``search_batch`` calls.

    Concurrent callers use :meth:`search` exactly like
    :meth:`VectorDBClient.search`; requests with equal
    :class:`~repro.vectordb.collection.SearchParams` on the same
    collection are stacked into one matrix and answered by one
    :meth:`~repro.vectordb.client.VectorDBClient.search_batch` call —
    sharing the filter's candidate-set evaluation and the matrix–matrix
    scoring kernel across clients that never heard of each other. A
    search whose filter is unhashable (a list- or dict-valued leaf)
    rides alone.

    Request validation happens *before* enqueueing (unknown collection,
    out-of-range params, wrong dimensionality), so malformed requests
    fail fast in the caller's thread and never reach a batch.
    """

    def __init__(
        self,
        client: VectorDBClient,
        max_batch: int = 64,
        max_pending: int | None = None,
    ) -> None:
        self._client = client
        self._batcher = MicroBatcher(
            self._run, max_batch=max_batch, name="search-coalescer",
            max_pending=max_pending,
        )

    @property
    def stats(self) -> CoalescerStats:
        """Dispatch counters (requests, batches, sizes)."""
        return self._batcher.stats

    @property
    def pending(self) -> int:
        """Searches queued awaiting dispatch (the queue depth)."""
        return self._batcher.pending

    def _run(
        self,
        key: tuple[str, SearchParams],
        vectors: list[np.ndarray],
        deadline: Deadline | None,
    ) -> list[list[SearchHit]]:
        collection, params = key
        return self._client.search_batch(
            collection, np.stack(vectors), params, deadline
        )

    def submit(
        self,
        collection: str,
        vector: np.ndarray | Sequence[float],
        k: int | SearchParams,
        deadline: Deadline | None = None,
        **knobs: Any,
    ) -> Future:
        """Enqueue one search; the future resolves to its hit list.

        Raises immediately (not via the future) for an unknown
        collection, invalid ``SearchParams``, a query of the wrong
        dimensionality — the pre-batch validation that keeps bad
        requests out of shared batches — an already-spent ``deadline``,
        or a full queue (:class:`~repro.errors.ServerOverloaded`).
        """
        target = self._client.get_collection(collection)
        params = SearchParams.of(k, knobs)
        query = np.asarray(vector, dtype=np.float32)
        if query.shape != (target.dim,):
            raise DimensionMismatch(
                f"query shape {query.shape} != ({target.dim},)"
            )
        return self._batcher.submit((collection, params), query, deadline)

    def search(
        self,
        collection: str,
        vector: np.ndarray | Sequence[float],
        k: int | SearchParams,
        timeout: float | None = 30.0,
        deadline: Deadline | None = None,
        **knobs: Any,
    ) -> list[SearchHit]:
        """Blocking :meth:`submit`: returns the hits (or re-raises).

        With a ``deadline``, the wait is capped at the remaining budget
        and a timed-out wait raises
        :class:`~repro.errors.DeadlineExceeded` (the request's worker is
        released; the batch it rode in finishes in the background).
        """
        future = self.submit(collection, vector, k, deadline, **knobs)
        return _await_future(future, timeout, deadline)

    def close(self) -> None:
        """Flush pending searches and stop the dispatcher."""
        self._batcher.close()


class QueryCoalescer:
    """Coalesces full SemaSK queries into ``query_many`` calls.

    All queries share one group — :meth:`SemaSK.query_many` already
    groups by spatial range internally and embeds every text in one
    ``embed_batch`` call, so pre-splitting here would only shrink the
    batches.
    """

    def __init__(
        self,
        system: SemaSK,
        max_batch: int = 32,
        max_pending: int | None = None,
    ) -> None:
        self._system = system
        self._batcher = MicroBatcher(
            self._run, max_batch=max_batch, name="query-coalescer",
            max_pending=max_pending,
        )

    @property
    def stats(self) -> CoalescerStats:
        """Dispatch counters (requests, batches, sizes)."""
        return self._batcher.stats

    @property
    def pending(self) -> int:
        """Queries queued awaiting dispatch (the queue depth)."""
        return self._batcher.pending

    def _run(
        self,
        key: Hashable,
        queries: list[SpatialKeywordQuery],
        deadline: Deadline | None,
    ) -> list[QueryResult]:
        # ``query_many`` takes no budget: expired items were already
        # dropped at dispatch, and the searches inside carry none.
        return self._system.query_many(queries)

    def submit(
        self,
        query: SpatialKeywordQuery,
        deadline: Deadline | None = None,
    ) -> Future:
        """Enqueue one pipeline query; resolves to its ``QueryResult``."""
        return self._batcher.submit(None, query, deadline=deadline)

    def query(
        self,
        query: SpatialKeywordQuery,
        timeout: float | None = 60.0,
        deadline: Deadline | None = None,
    ) -> QueryResult:
        """Blocking :meth:`submit` (waits are capped by the deadline)."""
        return _await_future(self.submit(query, deadline), timeout, deadline)

    def close(self) -> None:
        """Flush pending queries and stop the dispatcher."""
        self._batcher.close()
