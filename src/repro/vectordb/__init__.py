"""Vector database substrate (Qdrant stand-in): collections, filters, HNSW.

Two interchangeable backends share one surface: :class:`Collection` (a
single vector space with flat + HNSW indexes and payload secondary
indexes) and :class:`ShardedCollection` (N hash-partitioned ``Collection``
shards — points route by CRC-32 of their id via
:func:`~repro.vectordb.sharded.shard_for`, searches visit each shard in
turn and merge into the exact global top-k, filters evaluate per
shard). :class:`VectorDBClient` fronts both (``create_collection(shards=N)``),
and :func:`save_collection` / :func:`load_collection` snapshot both — one
directory per plain collection, one sub-directory per shard (one
layout: raw memory-mappable vector matrices, persisted HNSW graphs, HNSW
config, and payload-index fields; ``load_collection(..., mmap=True)``
serves large collections off the page cache; see
:mod:`repro.vectordb.persistence`).

Offline index lifecycle: a collection (or shard) holds an HNSW graph only
above ``Collection.BRUTE_FORCE_THRESHOLD`` points, where a search walks
one; ``build_hnsw_if_needed`` on either backend builds those graphs
eagerly, one shard after another, and :func:`reshard_snapshot` rewrites a saved
snapshot for a different shard count, logged WAL tail included
(``VectorDBClient.reshard_collection`` is the in-memory equivalent; both
go through :func:`~repro.vectordb.sharded.reroute`), so shard counts are
an operational knob rather than frozen at creation time.

Durability: a per-shard write-ahead log (:mod:`repro.vectordb.wal`)
records accepted writes in a checksummed append-only file next to the
snapshot (``<snapshot>.wal/``). ``load_collection`` replays any log tail
on top of the snapshot and ``wal="always"|"batch"|"off"`` attaches live
logs (:func:`attach_wal` does so for freshly built collections), so a
crash between snapshot saves no longer loses acknowledged writes; a
successful ``save_collection`` truncates the log through the offsets the
snapshot covers.
"""

from repro.vectordb.client import VectorDBClient
from repro.vectordb.collection import (
    Collection,
    HnswConfig,
    PointStruct,
    SearchHit,
    SearchParams,
)
from repro.vectordb.deadline import Deadline
from repro.vectordb.distance import Metric, normalize_rows, similarity
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
from repro.vectordb.flat import FlatIndex
from repro.vectordb.hnsw import HNSWIndex
from repro.vectordb.persistence import (
    attach_wal,
    inspect_snapshot,
    load_collection,
    migrate_snapshot,
    reshard_snapshot,
    save_collection,
)
from repro.vectordb.sharded import AnyCollection, ShardedCollection, shard_for
from repro.vectordb.wal import WriteAheadLog, replay_into, wal_directory

__all__ = [
    "AnyCollection",
    "And",
    "Collection",
    "Deadline",
    "FieldIn",
    "FieldMatch",
    "FieldRange",
    "Filter",
    "FlatIndex",
    "GeoBoundingBoxFilter",
    "GeoRadiusFilter",
    "HNSWIndex",
    "HnswConfig",
    "Metric",
    "Not",
    "Or",
    "PointStruct",
    "SearchHit",
    "SearchParams",
    "ShardedCollection",
    "VectorDBClient",
    "WriteAheadLog",
    "attach_wal",
    "inspect_snapshot",
    "load_collection",
    "migrate_snapshot",
    "normalize_rows",
    "replay_into",
    "reshard_snapshot",
    "save_collection",
    "shard_for",
    "similarity",
    "wal_directory",
]
