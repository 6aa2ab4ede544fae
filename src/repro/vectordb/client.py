"""The vector-database client: a Qdrant-like multi-collection facade."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import (
    CollectionError,
    CollectionExists,
    CollectionNotFound,
)
from repro.vectordb.collection import (
    Collection,
    HnswConfig,
    PointStruct,
    SearchHit,
    SearchParams,
)
from repro.vectordb.contracts import array_contract
from repro.vectordb.deadline import Deadline
from repro.vectordb.distance import Metric
from repro.vectordb.filters import Filter
from repro.vectordb.sharded import AnyCollection, ShardedCollection, reroute


class VectorDBClient:
    """Manages named collections, in the style of a Qdrant client.

    Owns its collections' lifecycle: dropping a collection (or exiting
    the client's ``with`` block) closes it, flushing and releasing its
    write-ahead logs instead of leaking them until garbage collection.
    """

    def __init__(self) -> None:
        self._collections: dict[str, AnyCollection] = {}

    def __enter__(self) -> "VectorDBClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Close and drop every collection (idempotent)."""
        while self._collections:
            _, collection = self._collections.popitem()
            collection.close()

    def create_collection(
        self,
        name: str,
        dim: int,
        metric: Metric = Metric.COSINE,
        hnsw: HnswConfig | None = None,
        exist_ok: bool = False,
        shards: int = 1,
    ) -> AnyCollection:
        """Create a collection; ``exist_ok`` returns the existing one.

        ``shards > 1`` builds a hash-partitioned
        :class:`~repro.vectordb.sharded.ShardedCollection`; both backends
        expose the same surface, so callers need not care which they got.
        With ``exist_ok``, the existing collection must match the
        requested dim, metric and shard count — silently returning a
        differently-configured backend would surface as wrong scores or
        far-away dimension errors instead of failing here.
        """
        if shards <= 0:
            raise CollectionError(
                f"shard count must be positive, got {shards}"
            )
        existing = self._collections.get(name)
        if existing is not None:
            if exist_ok:
                have = (existing.dim, existing.metric,
                        getattr(existing, "n_shards", 1))
                want = (dim, metric, shards)
                if have != want:
                    raise CollectionError(
                        f"collection {name!r} exists with "
                        f"(dim, metric, shards)={have}, "
                        f"requested {want}"
                    )
                return existing
            raise CollectionExists(f"collection {name!r} already exists")
        if shards > 1:
            collection: AnyCollection = ShardedCollection(
                name, dim, metric=metric, hnsw=hnsw, shards=shards,
            )
        else:
            collection = Collection(name, dim, metric=metric, hnsw=hnsw)
        self._collections[name] = collection
        return collection

    def attach_collection(self, collection: AnyCollection) -> AnyCollection:
        """Register an externally built collection (e.g. a loaded snapshot).

        Replaces any existing collection with the same name.
        """
        self._collections[collection.name] = collection
        return collection

    def get_collection(self, name: str) -> AnyCollection:
        """Look up a collection by name."""
        collection = self._collections.get(name)
        if collection is None:
            known = ", ".join(sorted(self._collections)) or "(none)"
            raise CollectionNotFound(
                f"collection {name!r} not found; existing: {known}"
            )
        return collection

    def delete_collection(self, name: str) -> None:
        """Drop a collection and close it (missing name raises).

        Closing matters for attached WALs, whose file handles and
        flusher threads would otherwise outlive the drop.
        """
        collection = self._collections.pop(name, None)
        if collection is None:
            raise CollectionNotFound(f"collection {name!r} not found")
        collection.close()

    def reshard_collection(self, name: str, new_shards: int) -> AnyCollection:
        """Re-route a live collection's points across ``new_shards`` shards.

        The in-memory counterpart of
        :func:`repro.vectordb.persistence.reshard_snapshot`, through the
        same :func:`~repro.vectordb.sharded.reroute`: global insertion
        order, payloads, payload indexes and the HNSW config carry over,
        and the old backend is closed and replaced under the same name.
        ``new_shards=1`` produces a plain (unsharded) collection. If the
        old backend had its HNSW graphs built, the new one builds the
        graphs its searches would walk eagerly too, so resharding never
        reintroduces first-search latency.
        """
        old = self.get_collection(name)
        if new_shards <= 0:
            raise CollectionError(
                f"shard count must be positive, got {new_shards}"
            )
        if new_shards > 1:
            new: AnyCollection = ShardedCollection(
                name, old.dim, metric=old.metric, hnsw=old.hnsw_config,
                shards=new_shards,
            )
        else:
            new = Collection(
                name, old.dim, metric=old.metric, hnsw=old.hnsw_config,
            )
        reroute(old, new)
        was_built = old.hnsw_is_built and len(old) > 0
        old.close()
        self._collections[name] = new
        if was_built:
            new.build_hnsw_if_needed()
        return new

    def save(self, name: str, directory: str | Path) -> None:
        """Snapshot the named collection to ``directory`` (atomic).

        Writes snapshot schema v4: vectors as a raw float32 matrix (so a
        later :meth:`load` can memory-map it) and any fully built HNSW
        graphs alongside, making the next cold start O(metadata)
        instead of O(graph rebuild). See
        :func:`repro.vectordb.persistence.save_collection`.
        """
        from repro.vectordb.persistence import save_collection

        save_collection(self.get_collection(name), directory)

    def load(
        self,
        directory: str | Path,
        hnsw: HnswConfig | None = None,
        mmap: bool = False,
        wal: str | None = None,
    ) -> AnyCollection:
        """Load a snapshot and register it under its stored name.

        ``mmap=True`` serves the collection off a read-only memory map
        of the snapshot's vector file instead of materializing vectors
        in RAM (upserts after load copy on write). Persisted HNSW graphs
        are attached; a damaged graph file degrades to a lazy rebuild
        with a warning. Any write-ahead-log tail next to the snapshot is
        replayed; ``wal="always"|"batch"|"off"`` additionally attaches
        live logs so writes after the load are durable. Replaces any
        same-named collection (closing it). See
        :func:`repro.vectordb.persistence.load_collection`.
        """
        from repro.vectordb.persistence import load_collection

        collection = load_collection(directory, hnsw=hnsw, mmap=mmap, wal=wal)
        previous = self._collections.get(collection.name)
        if previous is not None:
            previous.close()
        return self.attach_collection(collection)

    def list_collections(self) -> list[str]:
        """Names of all collections, sorted."""
        return sorted(self._collections)

    def collection_info(self, name: str) -> dict:
        """JSON-ready summary of one collection.

        Returns name, point count, dim, metric, shard count (1 for a
        plain collection), whether the HNSW graph(s) are built, the indexed
        payload fields, and write-ahead-log counters (``None`` when
        durability is off) — what the serving layer's ``/collections``
        endpoint and the CLI report. Raises
        :class:`~repro.errors.CollectionNotFound` for unknown names.
        """
        collection = self.get_collection(name)
        return {
            "name": collection.name,
            "points": len(collection),
            "dim": collection.dim,
            "metric": collection.metric.value,
            "shards": getattr(collection, "n_shards", 1),
            "hnsw_built": collection.hnsw_is_built,
            "indexed_payload_fields": sorted(
                collection.indexed_payload_fields
            ),
            "wal": collection.wal_stats(),
        }

    def has_collection(self, name: str) -> bool:
        """Whether a collection with ``name`` exists."""
        return name in self._collections

    # convenience passthroughs ------------------------------------------------

    @array_contract(points="*d:float32")
    def upsert(self, name: str, points: Iterable[PointStruct]) -> int:
        """Upsert points into the named collection."""
        return self.get_collection(name).upsert(points)

    def set_payload(
        self, name: str, point_id: str, payload: dict
    ) -> None:
        """Merge ``payload`` into one point of the named collection."""
        self.get_collection(name).set_payload(point_id, payload)

    @array_contract(vector="d:float32")
    def search(
        self,
        name: str,
        vector: np.ndarray | Sequence[float],
        k: int | SearchParams,
        deadline: Deadline | None = None,
        **knobs: Any,
    ) -> list[SearchHit]:
        """Search the named collection (see :meth:`Collection.search`)."""
        return self.get_collection(name).search(vector, k, deadline, **knobs)

    @array_contract(vectors="q,d:float32")
    def search_batch(
        self,
        name: str,
        vectors: np.ndarray | Sequence[Sequence[float]],
        k: int | SearchParams,
        deadline: Deadline | None = None,
        **knobs: Any,
    ) -> list[list[SearchHit]]:
        """Batched search (see :meth:`Collection.search_batch`)."""
        return self.get_collection(name).search_batch(
            vectors, k, deadline, **knobs
        )

    def count(self, name: str, flt: Filter | None = None) -> int:
        """Count points in the named collection matching ``flt``."""
        return self.get_collection(name).count(flt)
