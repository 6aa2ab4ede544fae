"""A vector-database collection: points with payloads, HNSW + exact search.

Mirrors the Qdrant surface the SemaSK pipeline uses: upsert points with
payloads, then run (optionally filtered) kNN searches. One rule picks
the path, with or without a filter: count the rows in play (the filter's
matches, or every point). At most ``BRUTE_FORCE_THRESHOLD`` of them are
scanned exactly — a float32 scan; more walk the HNSW graph (with a
predicate when filtered). Qdrant draws the same line: a segment under
its indexing threshold has no HNSW index and is searched by a plain
scan.

One read path: :meth:`Collection.search_batch` answers many queries against
one filter in a single call — the filter's candidate set is computed once
and shared across the whole batch, and exact scoring runs as one
matrix–matrix product. One place (``_score``, under it) applies that
rule, :meth:`Collection.needs_graph`; :meth:`Collection.search` is a
batch of one, so a query gets the same
hits alone as in any batch (scores equal up to float accumulation
order).

Index lifecycle: a graph exists only where a search walks one. The
first search above the threshold builds it under the write lock (the
bulk-scored :meth:`~repro.vectordb.hnsw.HNSWIndex.from_vectors` path);
:meth:`Collection.build_hnsw_if_needed` pays that at data-preparation
time instead, and a snapshot load attaches a persisted graph only above
the threshold. :meth:`Collection.build_hnsw` builds one regardless, and
:meth:`Collection.attach_hnsw` installs an external build. Points
upserted while a graph exists are appended to it, so it cannot go
stale; below the threshold there is no graph, and an upsert links
nothing.

Durability and concurrency: every write path (``upsert``,
``set_payload``, ``create_payload_index``) runs under a collection-level
write lock, and — when a :class:`~repro.vectordb.wal.WriteAheadLog` is
attached via :meth:`Collection.attach_wal` — logs the accepted write to
the WAL *after* applying it in memory but *before* returning to the
caller (apply-then-log, both under the lock). That ordering is what lets
:meth:`Collection.snapshot_view` capture a matrix/ids/payloads view plus
a WAL offset that are mutually consistent, and what guarantees the
copy-on-write of an mmap-adopted matrix has fully completed before the
write's WAL record exists. Reads are intentionally left lock-free: rows
``[0, n)`` of the vector matrix never mutate after insertion (vector
replacement is unsupported), so searches racing an upsert see either the
pre- or post-write population, never a torn row. What makes that hold is
the publication order inside ``upsert``: a new point's vector row, graph
node, payload, payload-index entries and geo-column row are all in place
*before* its id is appended, so ``len(self._ids)`` is the one
publication point. A search reads it once and answers over nodes
``[0, n)`` on every path — filter mask, brute-force subset, exact scan,
graph traversal, hit materialisation — and whatever a racing upsert has
half-applied lies at or past ``n``, where no path looks.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.vectordb.wal import WriteAheadLog

from repro.errors import CollectionError, DimensionMismatch, PointNotFound
from repro.vectordb.contracts import array_contract
from repro.vectordb.deadline import Deadline
from repro.vectordb.distance import Metric
from repro.vectordb.filters import Filter, GeoBoundingBoxFilter
from repro.vectordb.flat import FlatIndex
from repro.vectordb.hnsw import HNSWIndex
from repro.vectordb.payload_index import PayloadIndexRegistry, bbox_mask


@dataclass(frozen=True)
class PointStruct:
    """One point to upsert: id, vector, and JSON-like payload."""

    id: str
    vector: np.ndarray
    payload: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SearchHit:
    """One search result (score is a similarity; higher is better)."""

    id: str
    score: float
    payload: dict[str, Any]


@dataclass(frozen=True)
class HnswConfig:
    """Tunables forwarded to the HNSW index."""

    m: int = 16
    ef_construction: int = 100
    ef_search: int = 64
    seed: int = 7


@dataclass(frozen=True)
class SearchParams:
    """What one vector search asks for, besides its query vectors.

    The value that travels socket → coalescer → client → shard fan-out.
    Every ``search`` / ``search_batch`` above the index kernels takes it
    as ``k`` plus keywords, or ready-made (:meth:`of`).

    * ``k`` — hits wanted; ``0`` returns none, more than the (matching)
      population truncates to it.
    * ``flt`` — payload filter. Its matches (or, with no filter, every
      point) are the rows in play: at most ``BRUTE_FORCE_THRESHOLD`` of
      them are scanned exactly, more walk the graph.
    * ``exact`` — force brute-force scoring (how recall is measured).
    * ``ef`` — HNSW beam width (default ``HnswConfig.ef_search``); only
      a search above the threshold walks a beam.

    Out-of-range fields raise ``ValueError`` here and nowhere else.
    Equal params on one collection may share a batched call, so the
    value hashes whenever ``flt`` does. A ``deadline`` is not a field:
    it is one caller's, not part of what makes two searches the same
    search.
    """

    k: int
    flt: Filter | None = None
    exact: bool = False
    ef: int | None = None

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError(f"k must be non-negative, got {self.k}")
        if self.ef is not None and self.ef < 1:
            raise ValueError(f"ef must be >= 1, got {self.ef}")

    @classmethod
    def of(cls, k: int | SearchParams, knobs: dict[str, Any]) -> SearchParams:
        """The value behind ``search(vector, k, **knobs)``: ``k`` is the
        hit count, or a ``SearchParams`` to use as-is (``knobs`` empty).
        Unknown or conflicting keywords are a ``TypeError``."""
        if not isinstance(k, cls):
            return cls(k, **knobs)
        if knobs:
            raise TypeError(
                f"search got SearchParams and keywords {sorted(knobs)}; "
                "set them on the SearchParams"
            )
        return k


@dataclass(frozen=True)
class SnapshotView:
    """A consistent capture of one collection for snapshot serialization.

    Produced by :meth:`Collection.snapshot_view` under the collection's
    write lock, consumed by :func:`repro.vectordb.persistence.save_collection`
    *outside* it. ``vectors`` is a zero-copy view whose rows are
    immutable by contract (inserted vectors are never rewritten;
    appends land beyond ``len(ids)`` and reallocation replaces the
    backing array, leaving this view intact), ``ids``/``payloads`` are
    copies, and ``graph_arrays`` is the HNSW graph already serialized to
    arrays (the live graph keeps growing after capture). ``wal`` /
    ``wal_offset`` record the attached write-ahead log and its byte
    offset at capture time, so a successful save can truncate exactly
    the records the snapshot made durable — and not the writes that
    raced it.
    """

    name: str
    dim: int
    metric: Metric
    hnsw: HnswConfig
    indexed_fields: tuple[str, ...]
    vectors: np.ndarray
    ids: list[str]
    payloads: list[dict[str, Any]]
    graph_arrays: dict[str, np.ndarray] | None
    wal: "WriteAheadLog | None"
    wal_offset: int | None


class Collection:
    """A named set of points over a fixed-dimension vector space."""

    #: Searches with at most this many rows in play scan exactly; only
    #: larger ones walk a graph (see :meth:`needs_graph`).
    BRUTE_FORCE_THRESHOLD = 8192

    def __init__(
        self,
        name: str,
        dim: int,
        metric: Metric = Metric.COSINE,
        hnsw: HnswConfig | None = None,
    ) -> None:
        if not name:
            raise CollectionError("collection name must be non-empty")
        self.name = name
        self._metric = metric
        self._hnsw_config = hnsw or HnswConfig()
        self._flat = FlatIndex(dim, metric)
        self._hnsw: HNSWIndex | None = None
        self._ids: list[str] = []
        self._payloads: list[dict[str, Any]] = []
        self._id_to_node: dict[str, int] = {}
        self._payload_indexes = PayloadIndexRegistry()
        self._wal: "WriteAheadLog | None" = None
        self._write_lock = threading.RLock()

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def dim(self) -> int:
        """Vector dimensionality of the collection."""
        return self._flat.dim

    @property
    def metric(self) -> Metric:
        """The similarity metric."""
        return self._metric

    @property
    def hnsw_config(self) -> HnswConfig:
        """The HNSW tunables (persisted with snapshots)."""
        return self._hnsw_config

    def point_ids(self) -> list[str]:
        """All point ids, in insertion order."""
        return list(self._ids)

    def point_vector(self, point_id: str) -> np.ndarray:
        """The stored vector of ``point_id`` (copy)."""
        node = self._id_to_node.get(point_id)
        if node is None:
            raise PointNotFound(f"point {point_id!r} not in {self.name!r}")
        return self._flat.vector(node).copy()

    def vector_matrix(self) -> np.ndarray:
        """All vectors as an ``(n, dim)`` view in node-id order.

        A view into live storage (valid until the next upsert
        reallocates); callers that keep it must copy. Bulk index builds
        read it directly instead of stacking rows.
        """
        return self._flat.matrix()

    def close(self) -> None:
        """Release resources: flushes and closes an attached WAL."""
        with self._write_lock:
            wal, self._wal = self._wal, None
        # close() fsyncs; do it after releasing the lock so a concurrent
        # writer is never stalled behind the final flush.
        if wal is not None:
            wal.close()

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------

    @property
    def write_lock(self) -> threading.RLock:
        """The collection-level write lock (re-entrant).

        Held by every write for its whole apply+log span and by
        :meth:`snapshot_view` while capturing; reads do not take it
        (see the module docstring for why that is safe).
        """
        return self._write_lock

    @property
    def wal(self) -> "WriteAheadLog | None":
        """The attached write-ahead log, or ``None``."""
        return self._wal

    def attach_wal(self, wal: "WriteAheadLog") -> None:
        """Start logging accepted writes to ``wal``.

        The log is an *output* here — attach does not replay it (use
        :func:`repro.vectordb.wal.replay_into` first; the load path in
        :mod:`repro.vectordb.persistence` does both in order). Replaces
        any previously attached log without closing it.
        """
        with self._write_lock:
            self._wal = wal

    def detach_wal(self) -> "WriteAheadLog | None":
        """Stop logging; returns the detached log (not closed)."""
        with self._write_lock:
            wal, self._wal = self._wal, None
            return wal

    def wal_stats(self) -> dict | None:
        """The attached WAL's counters, or ``None`` when logging is off."""
        return self._wal.stats() if self._wal is not None else None

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    @array_contract(points="*d:float32")
    def upsert(self, points: Iterable[PointStruct]) -> int:
        """Insert new points (payload-only updates allowed for known ids).

        Returns the number of points inserted. Re-upserting an existing id
        with a *different* vector raises: HNSW graphs do not support vector
        replacement, and the SemaSK pipeline never needs it.

        With a WAL attached, every *accepted* point is logged before the
        call returns — including the accepted prefix of a batch that
        raises partway through, so recovery replays exactly the writes
        that were actually applied. The in-memory apply (including the
        copy-on-write that a first upsert after an mmap load performs)
        strictly precedes each point's log record.
        """
        with self._write_lock:
            inserted = 0
            accepted: list[PointStruct] = []
            try:
                for point in points:
                    vector = np.asarray(point.vector, dtype=np.float32)
                    if vector.shape != (self.dim,):
                        raise DimensionMismatch(
                            f"collection {self.name!r} expects dim "
                            f"{self.dim}, point {point.id!r} has shape "
                            f"{vector.shape}"
                        )
                    existing = self._id_to_node.get(point.id)
                    if existing is not None:
                        if not np.allclose(self._flat.vector(existing), vector):
                            raise CollectionError(
                                f"point {point.id!r} already exists with a "
                                "different vector; vector replacement is "
                                "not supported"
                            )
                        old_payload = self._payloads[existing]
                        self._payloads[existing] = dict(point.payload)
                        self._payload_indexes.reindex_point(
                            existing, old_payload, point.payload
                        )
                        if self._wal is not None:
                            accepted.append(PointStruct(
                                id=point.id,
                                vector=self._flat.vector(existing),
                                payload=dict(point.payload),
                            ))
                        continue
                    node = self._flat.add(vector)
                    if self._hnsw is not None:
                        # An attached graph may trail the collection (built
                        # in a worker while points kept arriving); append
                        # any missing tail first so graph node ids stay
                        # equal to flat node ids.
                        for missing in range(len(self._hnsw), node):
                            self._hnsw.add(self._flat.vector(missing))
                        self._hnsw.add(vector)
                    self._payloads.append(dict(point.payload))
                    self._id_to_node[point.id] = node
                    self._payload_indexes.index_point(node, point.payload)
                    # Last: len(self._ids) is what publishes the point
                    # to searches (see the module docstring).
                    self._ids.append(point.id)
                    inserted += 1
                    if self._wal is not None:
                        accepted.append(PointStruct(
                            id=point.id, vector=vector,
                            payload=dict(point.payload),
                        ))
            finally:
                # Log even when the batch raised mid-way: the accepted
                # prefix stays applied (documented contract), so it must
                # also survive a crash.
                if self._wal is not None and accepted:
                    self._wal.append_points(accepted)
            return inserted

    def create_payload_index(self, field: str) -> None:
        """Build a hash index over ``field`` (backfills existing points).

        Mirrors Qdrant's payload indexes: selective equality/membership
        filters over indexed fields skip the full payload scan.
        """
        with self._write_lock:
            self._payload_indexes.create_index(field)
            for node, payload in enumerate(self._payloads):
                self._payload_indexes.index_point(node, payload)
            if self._wal is not None:
                self._wal.append_create_index(field)

    @property
    def indexed_payload_fields(self) -> frozenset[str]:
        """Payload fields with a secondary index."""
        return self._payload_indexes.indexed_fields

    def set_payload(self, point_id: str, payload: dict[str, Any]) -> None:
        """Merge ``payload`` into an existing point's payload."""
        with self._write_lock:
            node = self._id_to_node.get(point_id)
            if node is None:
                raise PointNotFound(f"point {point_id!r} not in {self.name!r}")
            old_payload = dict(self._payloads[node])
            self._payloads[node].update(payload)
            self._payload_indexes.reindex_point(
                node, old_payload, self._payloads[node]
            )
            if self._wal is not None:
                self._wal.append_set_payload(point_id, payload)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def retrieve(self, point_id: str) -> SearchHit:
        """Fetch one point's payload (score 1.0 placeholder)."""
        node = self._id_to_node.get(point_id)
        if node is None:
            raise PointNotFound(f"point {point_id!r} not in {self.name!r}")
        return SearchHit(id=point_id, score=1.0, payload=dict(self._payloads[node]))

    def scroll(self, flt: Filter | None = None) -> list[SearchHit]:
        """All points (optionally filtered), in insertion order."""
        n = len(self._ids)
        nodes = (
            range(n) if flt is None
            else np.flatnonzero(self._matching_mask(flt, n)).tolist()
        )
        return [
            SearchHit(
                id=self._ids[node], score=1.0,
                payload=dict(self._payloads[node]),
            )
            for node in nodes
        ]

    def count(self, flt: Filter | None = None) -> int:
        """Number of points matching ``flt`` (all points when None).

        Uses payload secondary indexes to narrow the scan, exactly like
        filtered searches do.
        """
        n = len(self._ids)
        if flt is None:
            return n
        return int(np.count_nonzero(self._matching_mask(flt, n)))

    def _matching_mask(self, flt: Filter, n: int) -> np.ndarray:
        """Which of nodes ``[0, n)`` match ``flt``, as a boolean mask.

        A bounding box is answered by its key's lat/lon column; anything
        else scans payloads, narrowed by the payload indexes first.
        """
        if isinstance(flt, GeoBoundingBoxFilter):
            return bbox_mask(flt.box, self._geo_rows(flt.key, n))
        candidates = self._payload_indexes.candidates_for(flt)
        scan = (
            # index entries land before a racing upsert publishes
            sorted(node for node in candidates if node < n)
            if candidates is not None
            else range(n)
        )
        mask = np.zeros(n, dtype=bool)
        mask[np.fromiter(
            (node for node in scan if flt.matches(self._payloads[node])),
            dtype=np.int64,
        )] = True
        return mask

    def _geo_rows(self, key: str, n: int) -> np.ndarray:
        """Rows ``[0, n)`` of ``key``'s lat/lon column, built on first use."""
        column = self._payload_indexes.geo_column(key)
        if column is None:
            with self._write_lock:
                column = self._payload_indexes.build_geo_column(
                    key, self._payloads
                )
        return column.rows[:, :n]

    def needs_graph(self, rows: int | None = None) -> bool:
        """Whether a search with ``rows`` rows in play walks a graph.

        The one rule behind scan-or-walk, graph builds and graph loads:
        more than ``BRUTE_FORCE_THRESHOLD`` rows. ``rows`` defaults to
        every point — the unfiltered search, and the widest filter.
        """
        if rows is None:
            rows = len(self._ids)
        return rows > self.BRUTE_FORCE_THRESHOLD

    @property
    def hnsw_is_built(self) -> bool:
        """Whether an HNSW graph exists and covers every point."""
        return self._hnsw is not None and len(self._hnsw) == len(self._ids)

    @property
    def hnsw_index(self) -> HNSWIndex | None:
        """The live HNSW graph, or ``None`` if none has been built.

        Persistence serializes this (schema v3) so a reload can attach
        the identical graph instead of rebuilding it.
        """
        return self._hnsw

    def build_hnsw(self, force: bool = False) -> HNSWIndex:
        """Build the HNSW graph now, instead of lazily on first search.

        Uses the bulk-scored :meth:`HNSWIndex.from_vectors` constructor.
        Idempotent: an up-to-date graph is returned as-is, and a graph
        that is missing recently attached tail points is caught up
        incrementally (the staleness guard for externally attached
        graphs — see :meth:`attach_hnsw`). ``force`` discards any
        existing graph and rebuilds from scratch.
        """
        # Hold the write lock for the whole build: a concurrent upsert
        # reallocating ``_flat`` mid-build would leave the graph pointing
        # at stale rows, and two racing builders would double-build.
        with self._write_lock:
            if force:
                self._hnsw = None
            index = self._hnsw
            if index is None:
                cfg = self._hnsw_config
                index = HNSWIndex.from_vectors(
                    self._flat.matrix(), m=cfg.m,
                    ef_construction=cfg.ef_construction, seed=cfg.seed,
                    dim=self.dim,
                )
                self._hnsw = index
            elif len(index) < len(self._ids):
                for node in range(len(index), len(self._ids)):
                    index.add(self._flat.vector(node))
            return index

    def build_hnsw_if_needed(self) -> None:
        """:meth:`build_hnsw` now if a search here would walk a graph
        (:meth:`needs_graph`), so the first one does not pay for it."""
        if self.needs_graph():
            self.build_hnsw()

    def attach_hnsw(self, index: HNSWIndex) -> None:
        """Install an externally built graph.

        The graph must have been built from this collection's vectors in
        node-id (insertion) order — e.g. by ``HNSWIndex.from_vectors``
        over a :meth:`vector_matrix` copy, or restored from a snapshot
        by ``HNSWIndex.from_arrays``. It may trail behind points upserted
        after the build was started; the missing tail is appended on the
        next :meth:`build_hnsw` or approximate search. Raises
        :class:`~repro.errors.CollectionError` when the graph's dim
        differs or it has *more* nodes than the collection has points.
        """
        with self._write_lock:
            if index.dim != self.dim:
                raise CollectionError(
                    f"attached graph dim {index.dim} != collection dim "
                    f"{self.dim}"
                )
            if len(index) > len(self._ids):
                raise CollectionError(
                    f"attached graph has {len(index)} nodes, collection has "
                    f"only {len(self._ids)} points"
                )
            self._hnsw = index

    def _score(
        self,
        queries: np.ndarray,
        params: SearchParams,
        mask: np.ndarray | None,
    ) -> list[list[tuple[int, float]]]:
        """``(node, score)`` lists per query: the one place that applies
        :meth:`needs_graph` — scan the rows in play, or walk a graph.

        ``mask`` marks the nodes a filter matched (``None``: no filter);
        no node at or past ``mask.size`` is returned.
        """
        matching = None if mask is None else np.flatnonzero(mask)
        rows = len(self._ids) if matching is None else matching.size
        if params.exact or not self.needs_graph(rows):
            return self._flat.search_batch(queries, params.k, subset=matching)

        passes = None
        if mask is not None:
            def passes(node: int) -> bool:
                # a node a concurrent upsert appended after the filter
                # ran lies past the mask: it does not match
                return node < mask.size and mask[node]

        return self.build_hnsw().search_batch(
            queries, params.k, ef=params.ef or self._hnsw_config.ef_search,
            predicate=passes,
        )

    @array_contract(vector="d:float32")
    def search(
        self,
        vector: np.ndarray | Sequence[float],
        k: int | SearchParams,
        deadline: Deadline | None = None,
        **knobs: Any,
    ) -> list[SearchHit]:
        """Top-``k`` most similar points, optionally filtered.

        ``k`` and ``knobs`` are the fields of :class:`SearchParams`
        (or pass one as ``k``), which documents and validates them.

        An expired ``deadline`` raises
        :class:`~repro.errors.DeadlineExceeded` at entry and again
        between filter evaluation and scoring — the two choke points
        where an over-budget search can still be abandoned cheaply.

        A batch of one: after the shape check this is
        ``search_batch(vector[None], ...)[0]``, so the path choice
        (scan or graph walk) lives in one place.
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
        """Top-``k`` hits for each query row, against one shared filter.

        The read path (:meth:`search` is a batch of one): the filter's
        matching-node set is evaluated once for the whole batch (the
        dominant cost of a filtered search over payloads), a scan
        dispatches to the flat index's matrix–matrix path, and a graph
        walk reuses the graph's vectorized traversal per query. Returns
        one hit list per query; a query's hits do not depend on what
        else rides in the batch. ``k`` / ``knobs`` resolve to one
        :class:`SearchParams`; the two ``deadline`` choke points (entry,
        and between filter evaluation and scoring) are documented on
        :meth:`search`.
        """
        params = SearchParams.of(k, knobs)
        if deadline is not None:
            deadline.check("search_batch")
        queries = np.asarray(vectors, dtype=np.float32)
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise DimensionMismatch(
                f"queries shape {queries.shape} != (n, {self.dim})"
            )
        n_queries = queries.shape[0]
        if n_queries == 0:
            return []
        k, flt = params.k, params.flt
        # The population this search answers over: every path below
        # stays inside nodes [0, n), whatever a racing upsert appends.
        n = len(self._ids)
        if k == 0 or n == 0:
            return [[] for _ in range(n_queries)]

        if flt is not None:
            mask = self._matching_mask(flt, n)
            if not mask.any():
                return [[] for _ in range(n_queries)]
            if deadline is not None:
                deadline.check("scoring")
            raw_lists = self._score(queries, params, mask)
        else:
            raw_lists = self._score(queries, params, None)
            if any(node >= n for raw in raw_lists for node, _ in raw):
                # The flat index and the graph hold an upsert's row
                # before its id is published: answer again as a search
                # filtered to the population captured above.
                raw_lists = self._score(
                    queries, params, np.ones(n, dtype=bool)
                )

        return [
            [
                SearchHit(
                    id=self._ids[node],
                    score=score,
                    payload=dict(self._payloads[node]),
                )
                for node, score in raw
            ]
            for raw in raw_lists
        ]

    # ------------------------------------------------------------------
    # persistence support (used by repro.vectordb.persistence)
    # ------------------------------------------------------------------

    def snapshot_view(self) -> SnapshotView:
        """Capture a consistent :class:`SnapshotView` under the write lock.

        Cheap relative to serialization: the vector matrix is a zero-copy
        view (rows below ``len(ids)`` are immutable by contract), only
        ids/payloads are copied, and the HNSW graph — when built — is
        serialized to arrays here because the live graph keeps growing
        after the lock is released.
        """
        with self._write_lock:
            n = len(self._ids)
            graph_arrays = (
                self._hnsw.to_arrays()
                if self.hnsw_is_built and n
                else None
            )
            return SnapshotView(
                name=self.name,
                dim=self.dim,
                metric=self.metric,
                hnsw=self.hnsw_config,
                indexed_fields=tuple(sorted(self.indexed_payload_fields)),
                vectors=self._flat.matrix(),
                ids=list(self._ids),
                payloads=[dict(p) for p in self._payloads],
                graph_arrays=graph_arrays,
                wal=self._wal,
                wal_offset=self._wal.offset if self._wal is not None else None,
            )

    @classmethod
    @array_contract(vectors="n,d")
    def from_matrix(
        cls,
        name: str,
        vectors: np.ndarray,
        ids: list[str],
        payloads: list[dict[str, Any]],
        metric: Metric = Metric.COSINE,
        hnsw: HnswConfig | None = None,
        dim: int | None = None,
    ) -> "Collection":
        """Restore a collection *around* ``vectors`` without copying them.

        O(metadata): the matrix is adopted as storage via
        :meth:`FlatIndex.from_matrix` (a read-only
        ``np.memmap`` over a snapshot's vector file works — later upserts
        copy on write), ids and payloads are taken over as-is instead of
        being re-validated point by point, and no index work happens.
        Snapshot loading (schema v3) uses this so cold starts skip both
        the per-point upsert loop and the vector copy. The caller must
        hand over rows aligned with ``ids``/``payloads`` and give up
        ownership of the lists.
        """
        if len(ids) != len(payloads) or len(ids) != vectors.shape[0]:
            raise CollectionError(
                "inconsistent state: vectors/ids/payloads lengths differ"
            )
        if dim is None:
            dim = vectors.shape[1] if vectors.ndim == 2 else 1
        if vectors.shape[0] and vectors.shape[1] != dim:
            raise CollectionError(
                f"matrix dim {vectors.shape[1]} != declared dim {dim}"
            )
        collection = cls(name, dim, metric=metric, hnsw=hnsw)
        if vectors.shape[0]:
            collection._flat = FlatIndex.from_matrix(vectors, metric=metric)
        collection._ids = list(ids)
        collection._payloads = list(payloads)
        collection._id_to_node = {
            point_id: node for node, point_id in enumerate(ids)
        }
        if len(collection._id_to_node) != len(ids):
            raise CollectionError(f"duplicate point ids in {name!r}")
        return collection

