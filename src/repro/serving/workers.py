"""Process-per-shard execution for sharded collections.

In-process fan-out (the :class:`~repro.vectordb.sharded.ShardedCollection`
default) calls each shard in turn on the caller's thread: per-shard
searches are Python-bound (payload filter scans, graph traversal, hit
objects), so one interpreter runs one of them at a time however many
callers there are. :class:`ProcessShardExecutor` removes that ceiling:
it keeps one **long-lived worker process per shard**, each holding a
replica of its shard, and routes fan-out reads to the workers over
pipes, so searches from concurrent callers run in N interpreters at
once (``benchmarks/bench_executors.py`` measures both executors).

The tradeoffs, so operators can choose deliberately
(``repro serve --shard-workers process``, or
:meth:`ShardedCollection.set_parallel`):

* **Memory** — every shard is replicated into its worker (vectors,
  payloads, graph). Roughly doubles resident size.
* **IPC cost** — queries and hit lists are pickled across pipes. For
  a lone caller the round-trip exceeds what the workers save (the
  in-process loop is faster there); process workers pay off under
  concurrent callers.
* **Writes** — the parent's shards stay authoritative; writes are applied
  locally and mirrored synchronously to the owning worker, so replicas
  answer identically. Write throughput therefore pays one extra pickle
  per bucket.

Workers are daemonic and shut down on :meth:`ProcessShardExecutor.close`
(a sentinel drains the pipe, then join-with-timeout, then terminate), so
a served deployment never leaks children — locked down by
``tests/test_serving.py``.
"""

from __future__ import annotations

import multiprocessing
import threading
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from repro.vectordb.collection import Collection
from repro.vectordb.sharded import _build_pool_context


def _shard_worker_main(conn, shard: Collection) -> None:
    """Worker-process loop: execute shard method calls received over ``conn``.

    Module-level so it imports under both ``fork`` and ``spawn`` start
    methods. The protocol is ``(method, args, kwargs)`` tuples in,
    ``("ok", result)`` or ``("error", exception)`` back; ``None`` is the
    shutdown sentinel. Exceptions are caught and shipped back rather than
    killing the worker, so one bad request does not take the shard
    offline.
    """
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break  # parent died or closed the pipe: exit quietly
            if message is None:
                break
            method, args, kwargs = message
            try:
                result: Any = ("ok", getattr(shard, method)(*args, **kwargs))
            except BaseException as exc:  # noqa: BLE001 - shipped to parent
                result = ("error", exc)
            try:
                conn.send(result)
            except (BrokenPipeError, OSError):
                break
    finally:
        conn.close()


class ProcessShardExecutor:
    """One long-lived worker process per shard, speaking over pipes.

    Drop-in for :class:`~repro.vectordb.sharded.InProcessShardExecutor`
    behind the ``ShardedCollection`` executor seam. Each worker receives
    a pickled replica of its shard at startup (graphs included — built
    HNSW indexes pickle); reads fan out by sending the method call to
    every addressed worker and collecting replies on an I/O thread pool,
    so per-shard work overlaps across processes while the parent threads
    merely block in ``recv``.

    Raises ``OSError`` (or the platform's process-start failure) from the
    constructor when worker processes cannot be spawned; callers treat
    that as "process mode unavailable" and stay in-process.
    """

    kind = "process"

    def __init__(self, shards: Sequence[Collection], name: str) -> None:
        context = _build_pool_context()
        self._workers: list[tuple[multiprocessing.Process, Any]] = []
        self._locks: list[threading.Lock] = []
        try:
            for index, shard in enumerate(shards):
                parent_conn, child_conn = context.Pipe(duplex=True)
                process = context.Process(
                    target=_shard_worker_main,
                    args=(child_conn, shard),
                    name=f"shard-worker-{name}-{index:02d}",
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self._workers.append((process, parent_conn))
                self._locks.append(threading.Lock())
        except BaseException:
            self.close()
            raise
        self._io_pool = ThreadPoolExecutor(
            max_workers=max(len(self._workers), 1),
            thread_name_prefix=f"shard-io-{name}",
        )
        self._closed = False

    def __getstate__(self) -> None:
        raise TypeError(
            "ProcessShardExecutor holds live worker processes, pipes, and "
            "locks and cannot be pickled; replicas are built from pickled "
            "shard Collections, never from the executor itself"
        )

    def _call(self, index: int, method: str, args: tuple, kwargs: dict) -> Any:
        """One synchronous round-trip to worker ``index`` (thread-safe).

        The per-worker lock pairs each ``send`` with its ``recv`` so
        concurrent parent threads cannot interleave replies; different
        workers proceed in parallel. A worker-side exception is re-raised
        here, in the caller's thread, exactly as the thread executor
        would propagate it.
        """
        process, conn = self._workers[index]
        with self._locks[index]:
            if self._closed:
                raise RuntimeError("process shard executor is closed")
            try:
                # The per-worker lock exists precisely to serialize this
                # send/recv pair; holding it across the pipe round-trip is
                # the design, and other workers' locks are untouched so
                # shards still overlap.
                conn.send((method, args, kwargs))  # reprolint: disable=RL03 -- lock serializes this pipe
                status, payload = conn.recv()  # reprolint: disable=RL03 -- paired recv under same lock
            except (EOFError, OSError):
                # Worker death or a concurrent close() tearing the pipe
                # down mid-call — either way the shard is gone.
                raise RuntimeError(
                    f"shard worker {process.name} exited unexpectedly"
                ) from None
        if status == "error":
            raise payload
        return payload

    def run(
        self, indices: Sequence[int], method: str, *args: Any, **kwargs: Any
    ) -> list[Any]:
        """Call ``method`` on each addressed worker; results in order."""
        if len(indices) == 1:
            return [self._call(indices[0], method, args, kwargs)]
        return list(
            self._io_pool.map(
                lambda i: self._call(i, method, args, kwargs), indices
            )
        )

    def mirror_write(
        self, index: int, method: str, *args: Any, **kwargs: Any
    ) -> None:
        """Apply a write to worker ``index``'s replica (synchronously).

        Synchronous on purpose: once the parent's write call returns, a
        read through the executor must already see it.
        """
        self._call(index, method, args, kwargs)

    def close(self, wait: bool = False) -> None:
        """Stop every worker process (idempotent; never leaks children).

        Sends the shutdown sentinel, joins briefly, and terminates any
        worker that did not exit (e.g. one wedged mid-request). ``wait``
        is accepted for seam parity; process shutdown always joins.

        Each worker's request lock is taken (bounded) before its pipe is
        touched: an in-flight :meth:`_call` holds the lock across its
        send/recv pair, so close waits for that reply rather than
        closing the ``Connection`` out from under a blocked ``recv``
        (the object is not safe for concurrent use from two threads). A
        worker wedged past the bound is terminated regardless.
        """
        self._closed = True
        pool = getattr(self, "_io_pool", None)
        if pool is not None:
            pool.shutdown(wait=wait)
        for index, (process, conn) in enumerate(self._workers):
            lock = self._locks[index] if index < len(self._locks) else None
            acquired = lock.acquire(timeout=5.0) if lock is not None else False
            try:
                try:
                    conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
                conn.close()
            finally:
                if acquired:
                    lock.release()
        for process, _ in self._workers:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        self._workers = []
