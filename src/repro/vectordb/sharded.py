"""Sharded collections: hash-partitioned points across N sub-collections.

A :class:`ShardedCollection` splits one logical collection into N
:class:`~repro.vectordb.collection.Collection` shards, assigning each point
by a stable hash of its id (:func:`shard_for`). It implements the full
``Collection`` read/write surface — ``upsert``, ``search``, ``search_batch``,
``count``, ``scroll``, ``retrieve``, ``set_payload``, payload indexes — so
the filtering stage, the client facade, and persistence all work unchanged
over either backend.

Searches fan out across shards as a loop on the calling thread —
per-shard searches are Python-bound, so threads would only queue on the
GIL; reads scale past one interpreter as ``repro serve`` replicas behind
``repro route`` (docs/serving.md, "Reads across cores") — and the
per-shard top-k lists are merged into the exact global top-k. Each
shard applies :meth:`Collection.needs_graph` to its own rows in play,
so a shard at or under ``BRUTE_FORCE_THRESHOLD`` scans and holds no
graph; graph builds, like searches, are a loop over the shards. Filters
are evaluated per shard, against that shard's payloads and payload
indexes only.

Equivalence contract: on the exact-scoring paths (``exact=True``, or any
search whose per-shard rows in play stay under the brute-force
threshold) a sharded search returns the same hits as an unsharded
collection holding the same points, with scores equal up to float
accumulation order — up to *exact score ties*: points with identical
scores (e.g. duplicate vectors) may rank or tie-break into the top-k
differently, because the unsharded exact path's own tie order is an
``argsort`` implementation artifact no merge can reproduce. Approximate (HNSW) searches traverse one graph per
shard instead of one global graph, so hit sets may differ there — every
shard's graph is searched, so recall is typically comparable or better,
but each per-shard graph is still approximate and no ordering against
the unsharded graph holds in general.
"""

from __future__ import annotations

import threading
import zlib
from collections.abc import Iterable, Sequence
from itertools import chain
from typing import Any, Union

import numpy as np

from repro.errors import CollectionError, DimensionMismatch, PointNotFound
from repro.vectordb.contracts import array_contract
from repro.vectordb.collection import (
    Collection,
    HnswConfig,
    PointStruct,
    SearchHit,
    SearchParams,
)
from repro.vectordb.deadline import Deadline
from repro.vectordb.distance import Metric
from repro.vectordb.filters import Filter


def shard_for(point_id: str, n_shards: int) -> int:
    """Stable shard assignment for ``point_id``.

    CRC-32 of the UTF-8 id, modulo the shard count — deterministic across
    processes and Python versions (unlike the salted builtin ``hash``), so
    snapshots written by one process route ids identically in another.
    """
    if n_shards <= 0:
        raise CollectionError(f"shard count must be positive, got {n_shards}")
    return zlib.crc32(point_id.encode("utf-8")) % n_shards


class ShardedCollection:
    """N hash-partitioned shards behind the ``Collection`` surface."""

    def __init__(
        self,
        name: str,
        dim: int,
        metric: Metric = Metric.COSINE,
        hnsw: HnswConfig | None = None,
        shards: int = 2,
    ) -> None:
        if shards <= 0:
            raise CollectionError(
                f"shard count must be positive, got {shards}"
            )
        hnsw = hnsw or HnswConfig()
        self._init_fields(
            name,
            metric,
            hnsw,
            [
                Collection(
                    f"{name}/shard-{i:02d}", dim, metric=metric, hnsw=hnsw,
                )
                for i in range(shards)
            ],
        )

    def _init_fields(
        self,
        name: str,
        metric: Metric,
        hnsw: HnswConfig,
        shards: list[Collection],
    ) -> None:
        if not name:
            raise CollectionError("collection name must be non-empty")
        self.name = name
        self._metric = metric
        self._hnsw_config = hnsw
        self._shards = shards
        self._id_to_shard: dict[str, int] = {}
        self._order: list[str] = []  # global insertion order, for scroll
        # Global write lock: writes route through shard-level locks too,
        # but saving a sharded collection must capture the order table
        # and *every* shard atomically — per-shard locks alone would let
        # an upsert land in shard 1 after shard 0 was captured.
        self._write_lock = threading.RLock()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._order)

    @property
    def dim(self) -> int:
        """Vector dimensionality of the collection."""
        return self._shards[0].dim

    @property
    def metric(self) -> Metric:
        """The similarity metric."""
        return self._metric

    @property
    def hnsw_config(self) -> HnswConfig:
        """The HNSW tunables shared by every shard."""
        return self._hnsw_config

    @property
    def n_shards(self) -> int:
        """Number of shards."""
        return len(self._shards)

    @property
    def shard_collections(self) -> tuple[Collection, ...]:
        """The underlying shards, in shard-index order (read-mostly)."""
        return tuple(self._shards)

    @property
    def point_order(self) -> tuple[str, ...]:
        """All point ids in global insertion order."""
        return tuple(self._order)

    @property
    def indexed_payload_fields(self) -> frozenset[str]:
        """Payload fields with a secondary index (identical per shard)."""
        return self._shards[0].indexed_payload_fields

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    @array_contract(points="*d:float32")
    def upsert(self, points: Iterable[PointStruct]) -> int:
        """Insert new points, routing each to its hash shard.

        Same contract as :meth:`Collection.upsert`: payload-only updates
        are allowed for known ids, vector replacement raises. Returns the
        number of points inserted. Points are bucketed so each shard sees
        one batch, keeping bulk ingest at one upsert call per shard.
        """
        # Drained before the lock is taken: a generator's own code (it
        # may write to this collection) never runs under it, and what is
        # a new id is decided below against a table no writer can touch.
        points = list(points)
        n = len(self._shards)
        inserted = 0
        with self._write_lock:
            buckets: dict[int, list[PointStruct]] = {}
            arrivals: dict[str, int] = {}  # first sight of unknown ids
            for point in points:
                index = shard_for(point.id, n)
                buckets.setdefault(index, []).append(point)
                if point.id not in self._id_to_shard:
                    arrivals.setdefault(point.id, index)
            try:
                for index, bucket in buckets.items():
                    inserted += self._shards[index].upsert(bucket)
            except BaseException:
                # Like Collection.upsert, a batch that raises mid-way stays
                # partially applied; reconcile the order/routing tables
                # against the shards' actual state before propagating.
                applied = {
                    index: set(self._shards[index].point_ids())
                    for index in set(arrivals.values())
                }
                for point_id, index in arrivals.items():
                    if point_id in applied[index]:
                        self._id_to_shard[point_id] = index
                        self._order.append(point_id)
                raise
            # success: every arrival landed
            self._id_to_shard.update(arrivals)
            self._order.extend(arrivals)
        return inserted

    def create_payload_index(self, field: str) -> None:
        """Build a hash index over ``field`` on every shard."""
        with self._write_lock:
            for shard in self._shards:
                shard.create_payload_index(field)

    @property
    def hnsw_is_built(self) -> bool:
        """Whether every non-empty shard has an up-to-date HNSW graph."""
        return all(
            shard.hnsw_is_built for shard in self._shards if len(shard)
        )

    def build_hnsw(self, force: bool = False) -> None:
        """:meth:`Collection.build_hnsw` on every non-empty shard, in turn.

        ``force`` rebuilds existing graphs too. Idempotent: shards
        already covered are skipped.
        """
        for shard in self._shards:
            if len(shard) and (force or not shard.hnsw_is_built):
                shard.build_hnsw(force=force)

    def build_hnsw_if_needed(self) -> None:
        """:meth:`Collection.build_hnsw_if_needed` on every shard."""
        for shard in self._shards:
            shard.build_hnsw_if_needed()

    def close(self) -> None:
        """Flush and close any shard write-ahead logs (idempotent).

        Reads still answer afterwards.
        """
        for shard in self._shards:
            shard.close()

    @property
    def write_lock(self) -> threading.RLock:
        """The collection-global write lock (see ``_init_fields``)."""
        return self._write_lock

    def wal_stats(self) -> dict | None:
        """Aggregate WAL counters across shards, or ``None`` if WAL-off.

        Returns totals plus the per-shard stats, matching the shape the
        serving layer exposes in ``/healthz``.
        """
        per_shard = [shard.wal_stats() for shard in self._shards]
        if all(stats is None for stats in per_shard):
            return None
        live = [stats for stats in per_shard if stats is not None]
        return {
            "fsync": live[0]["fsync"],
            "records": sum(stats["records"] for stats in live),
            "bytes": sum(stats["bytes"] for stats in live),
            "shards": per_shard,
        }

    def set_payload(self, point_id: str, payload: dict[str, Any]) -> None:
        """Merge ``payload`` into an existing point's payload.

        Raises :class:`~repro.errors.PointNotFound` for unknown ids.
        """
        with self._write_lock:
            index = self._id_to_shard.get(point_id)
            if index is None:
                raise PointNotFound(f"point {point_id!r} not in {self.name!r}")
            self._shards[index].set_payload(point_id, payload)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def retrieve(self, point_id: str) -> SearchHit:
        """Fetch one point's payload (score 1.0 placeholder).

        Raises :class:`~repro.errors.PointNotFound` for unknown ids.
        """
        return self._owning_shard(point_id).retrieve(point_id)

    def point_vector(self, point_id: str) -> np.ndarray:
        """The stored vector of ``point_id`` (copy).

        Raises :class:`~repro.errors.PointNotFound` for unknown ids.
        """
        return self._owning_shard(point_id).point_vector(point_id)

    def count(self, flt: Filter | None = None) -> int:
        """Points matching ``flt``; each shard narrows via its indexes."""
        if flt is None:
            return len(self._order)
        return sum(self._fan_out("count", flt))

    def scroll(self, flt: Filter | None = None) -> list[SearchHit]:
        """All points (optionally filtered), in global insertion order."""
        matched: dict[str, SearchHit] = {}
        for shard in self._shards:
            for hit in shard.scroll(flt):
                matched[hit.id] = hit
        return [matched[pid] for pid in self._order if pid in matched]

    @array_contract(vector="d:float32")
    def search(
        self,
        vector: np.ndarray | Sequence[float],
        k: int | SearchParams,
        deadline: Deadline | None = None,
        **knobs: Any,
    ) -> list[SearchHit]:
        """Global top-``k``: per-shard top-``k`` fan-out, exact merge.

        Same call forms and edge behaviour as :meth:`Collection.search`
        (``k`` / ``knobs`` are :class:`SearchParams`). An expired
        ``deadline`` raises :class:`~repro.errors.DeadlineExceeded`
        *before* the fan-out is dispatched — no shard sees over-budget
        work — and is forwarded to every shard for their own
        choke-point checks, so a budget spent by one shard stops the
        loop before the next.
        A batch of one: ``search_batch(vector[None], ...)[0]``.
        """
        query = np.asarray(vector, dtype=np.float32)
        if query.shape != (self.dim,):
            raise DimensionMismatch(
                f"query shape {query.shape} != ({self.dim},)"
            )
        return self.search_batch(query[None], k, deadline, **knobs)[0]

    @array_contract(vectors="q,d:float32")
    def search_batch(
        self,
        vectors: np.ndarray | Sequence[Sequence[float]],
        k: int | SearchParams,
        deadline: Deadline | None = None,
        **knobs: Any,
    ) -> list[list[SearchHit]]:
        """The fan-out read path: one dispatch, per-query exact merges.

        Every shard receives the same :class:`SearchParams` value and
        the same ``deadline``, which follows the :meth:`search` contract.
        """
        params = SearchParams.of(k, knobs)
        if deadline is not None:
            deadline.check("shard fan-out")
        queries = np.asarray(vectors, dtype=np.float32)
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise DimensionMismatch(
                f"queries shape {queries.shape} != (n, {self.dim})"
            )
        n_queries = queries.shape[0]
        if n_queries == 0:
            return []
        if params.k == 0:
            return [[] for _ in range(n_queries)]
        per_shard = self._fan_out("search_batch", queries, params, deadline)
        return [
            _merge_top_k(
                [shard_lists[q] for shard_lists in per_shard], params.k
            )
            for q in range(n_queries)
        ]

    # ------------------------------------------------------------------
    # persistence support (used by repro.vectordb.persistence)
    # ------------------------------------------------------------------

    @classmethod
    def from_shards(
        cls,
        name: str,
        shards: Sequence[Collection],
        order: Sequence[str],
        metric: Metric = Metric.COSINE,
        hnsw: HnswConfig | None = None,
    ) -> "ShardedCollection":
        """Reassemble a sharded collection from loaded shard snapshots.

        ``order`` is the global insertion order persisted alongside the
        shards; it must cover exactly the ids present across ``shards``.
        Shards arrive with whatever state the loader restored — payload
        indexes rebuilt, and a persisted HNSW graph attached to each
        shard above the threshold, so the first query there pays no
        reconstruction. A shard whose graph file was damaged arrives
        graph-less and rebuilds lazily, independent of its siblings.
        """
        if not shards:
            raise CollectionError("from_shards needs at least one shard")
        dims = {shard.dim for shard in shards}
        if len(dims) != 1:
            raise CollectionError(
                f"shard dims differ: {sorted(dims)}"
            )
        sharded = cls.__new__(cls)
        sharded._init_fields(name, metric, hnsw or HnswConfig(), list(shards))
        seen: dict[str, int] = {}
        for index, shard in enumerate(shards):
            for point_id in shard.point_ids():
                if point_id in seen:
                    raise CollectionError(
                        f"point {point_id!r} present in multiple shards"
                    )
                seen[point_id] = index
        if set(order) != set(seen) or len(order) != len(seen):
            raise CollectionError(
                "point order does not match the ids stored in the shards"
            )
        sharded._id_to_shard = seen
        sharded._order = list(order)
        return sharded

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _owning_shard(self, point_id: str) -> Collection:
        index = self._id_to_shard.get(point_id)
        if index is None:
            raise PointNotFound(f"point {point_id!r} not in {self.name!r}")
        return self._shards[index]

    def _fan_out(self, method: str, *args: Any) -> list[Any]:
        """Call ``method`` on every non-empty shard, in shard order.

        An exception from a shard propagates; later shards are not called.
        """
        return [
            getattr(shard, method)(*args)
            for shard in self._shards if len(shard)
        ]


def _merge_top_k(
    per_shard: Sequence[list[SearchHit]], k: int
) -> list[SearchHit]:
    """Exact global top-``k`` from per-shard top-``k`` lists.

    At most ``shards × k`` hits reach the merge, so a stable sort is
    plenty; score ties keep shard-index order (each shard list is already
    sorted descending), which is deterministic across runs — but not the
    same order an unsharded exact search gives tied scores (see the
    module docstring's equivalence caveat).
    """
    ranked = sorted(
        chain.from_iterable(per_shard), key=lambda hit: -hit.score
    )
    return ranked[:k]


#: Either vector-store backend; the client and pipeline accept both.
AnyCollection = Union[Collection, ShardedCollection]


def reroute(source: AnyCollection, target: AnyCollection) -> AnyCollection:
    """Copy ``source``'s points and payload indexes into the empty ``target``.

    The one re-router behind ``VectorDBClient.reshard_collection`` and
    ``persistence.reshard_snapshot``, which differ only in the target
    they build (from ``source``'s dim, metric and HNSW config). Points
    are upserted in ``source``'s global insertion order, so ``target``
    scrolls identically and routes every id through its own
    :meth:`ShardedCollection.upsert`. Returns ``target``.
    """
    order = (
        source.point_order if isinstance(source, ShardedCollection)
        else source.point_ids()
    )
    target.upsert(
        PointStruct(
            id=point_id,
            vector=source.point_vector(point_id),
            payload=source.retrieve(point_id).payload,
        )
        for point_id in order
    )
    for field in sorted(source.indexed_payload_fields):
        target.create_payload_index(field)
    return target
