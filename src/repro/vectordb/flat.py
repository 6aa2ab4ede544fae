"""Exact (brute-force) vector search, the ground truth for HNSW recall.

Single queries score with one matrix–vector product; batched queries
(:meth:`FlatIndex.search_batch`) score with one matrix–matrix product, which
is how real engines amortize memory traffic over concurrent queries.

Storage may be adopted rather than owned: :meth:`FlatIndex.from_matrix`
wraps an existing ``(n, dim)`` float32 matrix — including a read-only
``np.memmap`` over a snapshot's ``vectors.npy`` — without copying it.
Searches only ever read the matrix, so a memory-mapped collection serves
queries straight off the page cache; the first :meth:`FlatIndex.add`
after adoption copies into a fresh writable array (copy-on-write), so
upserts keep working and never touch the snapshot file.
"""

from __future__ import annotations

import numpy as np

from repro.vectordb.contracts import array_contract
from repro.vectordb.distance import Metric, pairwise_similarity, similarity


class FlatIndex:
    """Exact kNN over a dense matrix; O(n·d) per query."""

    def __init__(self, dim: int, metric: Metric = Metric.COSINE,
                 initial_capacity: int = 1024) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self._dim = dim
        self._metric = metric
        self._vectors = np.zeros((initial_capacity, dim), dtype=np.float32)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @classmethod
    @array_contract(matrix="n,d")
    def from_matrix(
        cls, matrix: np.ndarray, metric: Metric = Metric.COSINE
    ) -> "FlatIndex":
        """Adopt ``matrix`` as storage without copying.

        ``matrix`` must be ``(n, dim)`` float32 and C-contiguous (other
        dtypes/layouts are converted, which copies). Adopted storage is
        held through a view frozen ``writeable=False`` — the caller's
        own handle is untouched, but nothing reached through this index
        can write into what may be an mmap-ed snapshot file. Searches
        never write, and the first :meth:`add` migrates to a writable
        copy, so read-only adoption costs upserts nothing they did not
        already pay (a full matrix forces the grow-copy regardless).
        """
        if matrix.ndim != 2 or matrix.shape[1] <= 0:
            raise ValueError(
                f"from_matrix expects an (n, dim) matrix, got shape "
                f"{matrix.shape}"
            )
        if matrix.dtype != np.float32 or not matrix.flags.c_contiguous:
            matrix = np.ascontiguousarray(matrix, dtype=np.float32)
        adopted = matrix.view()
        adopted.flags.writeable = False
        index = cls(matrix.shape[1], metric, initial_capacity=1)
        index._vectors = adopted
        index._count = matrix.shape[0]
        return index

    @property
    def dim(self) -> int:
        """Vector dimensionality."""
        return self._dim

    def add(self, vector: np.ndarray) -> int:
        """Append a vector; returns its node id."""
        vector = np.asarray(vector, dtype=np.float32)
        if vector.shape != (self._dim,):
            raise ValueError(f"vector shape {vector.shape} != ({self._dim},)")
        if (
            self._count == self._vectors.shape[0]
            or not self._vectors.flags.writeable
        ):
            grown = np.zeros(
                (max(1024, self._count + 1, self._vectors.shape[0] * 2),
                 self._dim),
                dtype=np.float32,
            )
            grown[: self._count] = self._vectors[: self._count]
            self._vectors = grown
        self._vectors[self._count] = vector
        self._count += 1
        return self._count - 1

    def vector(self, node_id: int) -> np.ndarray:
        """The stored vector of ``node_id``."""
        if not 0 <= node_id < self._count:
            raise KeyError(f"node {node_id} not in index")
        return self._vectors[node_id]

    def _snapshot(self) -> tuple[int, np.ndarray]:
        """``(count, storage)`` read once, count first: :meth:`add` grows
        the storage before it raises the count, so the pair is consistent
        under a racing add — the storage holds at least ``count`` rows."""
        count = self._count
        return count, self._vectors

    def matrix(self) -> np.ndarray:
        """All stored vectors as an ``(n, dim)`` view, in node-id order.

        A view into the live storage (valid until the next :meth:`add`
        reallocates); callers that keep it must copy.
        """
        count, vectors = self._snapshot()
        return vectors[:count]

    @array_contract(query="d:float32", subset="s")
    def search(
        self,
        query: np.ndarray,
        k: int,
        subset: np.ndarray | None = None,
    ) -> list[tuple[int, float]]:
        """Exact top-``k`` as ``(node_id, similarity)`` descending.

        ``subset`` restricts scoring to the given node ids (used for
        filtered searches where the filter has already been evaluated).
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        count, vectors = self._snapshot()
        if count == 0:
            return []
        query = np.asarray(query, dtype=np.float32)

        if subset is not None:
            ids = np.asarray(subset, dtype=np.int64)
            if ids.size == 0:
                return []
            sims = similarity(query, vectors[ids], self._metric)
        else:
            ids = np.arange(count, dtype=np.int64)
            sims = similarity(query, vectors[:count], self._metric)

        top = min(k, ids.size)
        order = np.argpartition(-sims, top - 1)[:top]
        order = order[np.argsort(-sims[order])]
        return [(int(ids[i]), float(sims[i])) for i in order]

    @array_contract(queries="q,d:float32", subset="s")
    def search_batch(
        self,
        queries: np.ndarray,
        k: int,
        subset: np.ndarray | None = None,
    ) -> list[list[tuple[int, float]]]:
        """Exact top-``k`` for each row of ``queries``.

        One ``(q, n)`` similarity matrix is computed for the whole batch,
        and ``subset`` is resolved once and shared across
        all queries. Per-query results match :meth:`search` (same candidate
        sets, same ordering up to floating-point ties).
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim != 2 or queries.shape[1] != self._dim:
            raise ValueError(
                f"queries shape {queries.shape} != (n, {self._dim})"
            )
        n_queries = queries.shape[0]
        if n_queries == 0:
            return []
        count, vectors = self._snapshot()
        if count == 0:
            return [[] for _ in range(n_queries)]

        if subset is not None:
            ids = np.asarray(subset, dtype=np.int64)
        else:
            ids = np.arange(count, dtype=np.int64)
        if ids.size == 0:
            return [[] for _ in range(n_queries)]

        if subset is None:
            # Score the stored rows in place: a fancy-index gather would
            # copy the whole (possibly mmap-ed) matrix onto the heap.
            matrix = vectors[:count]
        else:
            matrix = vectors[ids]
        if self._metric in (Metric.COSINE, Metric.DOT):
            sims = pairwise_similarity(queries, matrix, self._metric)
        else:
            # EUCLIDEAN: pairwise_similarity's a²+b²−2ab expansion cancels
            # catastrophically for near-duplicate vectors; score each row
            # with the same direct-difference kernel single-query search
            # uses so the equivalence contract holds for every metric.
            sims = np.stack(
                [similarity(q, matrix, self._metric) for q in queries]
            )

        top = min(k, ids.size)
        rows = np.arange(n_queries, dtype=np.int64)[:, None]
        part = np.argpartition(-sims, top - 1, axis=1)[:, :top]
        part_sims = sims[rows, part]
        order = np.argsort(-part_sims, axis=1)
        cols = part[rows, order]
        ranked_sims = part_sims[rows, order]
        return [
            [
                (int(ids[col]), float(sim))
                for col, sim in zip(cols[row], ranked_sims[row])
            ]
            for row in range(n_queries)
        ]
