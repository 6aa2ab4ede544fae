"""Hierarchical Navigable Small World (HNSW) approximate kNN index.

A from-scratch implementation of Malkov & Yashunin (TPAMI 2020) — the
algorithm Qdrant uses internally and the paper relies on for its filtering
step ("we run an approximate kNN query using the built-in HNSW algorithm
of Qdrant").

Implemented faithfully:

* exponentially-decaying level assignment with ``mL = 1/ln(M)``;
* greedy descent from the entry point through upper layers (``ef = 1``);
* beam search (Algorithm 2) at the insertion/search layers;
* neighbour selection with the *heuristic* of Algorithm 4 (keeps a
  candidate only if it is closer to the query than to every already-kept
  neighbour — this preserves graph navigability in clustered data);
* bidirectional link insertion with degree capping (``M`` on upper
  layers, ``2M`` on layer 0).

Scores are similarities (dot product over unit vectors; higher = better);
internally the code works with similarity directly rather than distance.

Filtered search takes a node predicate: traversal is unfiltered (as in
Qdrant), but only predicate-passing nodes enter the result set, and the
beam is widened so enough valid results surface.

The layer-0 beam search is vectorized: adjacency is mirrored into a padded
int32 matrix so each visit scores a node's whole neighbour block with one
gather + dot, below-beam neighbours are dropped with a numpy mask before
any per-neighbour Python work, and the visited set is a stamped array
reused across calls (no per-search set allocation). ``search_batch``
answers many queries over this shared machinery; quality is pinned by the
recall regression tests.

Bulk construction: :meth:`HNSWIndex.from_vectors` builds the graph over a
whole matrix at once. It inserts in row order (so node ids equal row
indices, as an ``add`` loop would give), but pre-scores each insert's
similarities to every earlier node with one chunked matrix product —
inside the beam search, neighbour blocks are then scored by a row gather
instead of a fresh gather + dot per visit. Offline index builds (prepare
time, snapshot loads) use this path; ``add`` remains the incremental path
that keeps an already-built graph fresh under later upserts.

Reads racing an ``add``: a walk captures the node count once and visits
nothing outside ``[0, count)``. A racing ``add`` may link new nodes into
rows the walk reads, or ``_grow`` the arrays between the walk's read of
an adjacency row and of its length; the walk filters its layer-0
neighbour blocks to ``[0, count)`` only once the graph has grown past
the count, so an uncontended walk pays one ``len`` per block for the
check.

Persistence: :meth:`HNSWIndex.to_arrays` flattens the graph into a few
compact numpy arrays (levels, per-layer link counts, one concatenated
neighbour array) and :meth:`HNSWIndex.from_arrays` rebuilds an identical
index around an existing vector matrix — which may be a read-only
``np.memmap``, so a snapshot-loaded graph serves searches without ever
materializing its vectors in RAM. Snapshot schema v3 stores these arrays
instead of rebuilding graphs on load (see
:mod:`repro.vectordb.persistence`).
"""

from __future__ import annotations

import heapq
import random
import threading
from collections.abc import Callable

import numpy as np

from repro.vectordb.contracts import array_contract


class HNSWIndex:
    """Approximate nearest-neighbour graph over unit vectors."""

    def __init__(
        self,
        dim: int,
        m: int = 16,
        ef_construction: int = 100,
        seed: int = 7,
        initial_capacity: int = 1024,
    ) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        if m < 2:
            raise ValueError(f"M must be at least 2, got {m}")
        if ef_construction < m:
            raise ValueError(
                f"ef_construction ({ef_construction}) must be >= M ({m})"
            )
        self._dim = dim
        self._m = m
        self._m0 = 2 * m
        self._ef_construction = ef_construction
        self._ml = 1.0 / np.log(m)
        self._rng = random.Random(seed)

        self._vectors = np.zeros((initial_capacity, dim), dtype=np.float32)
        self._count = 0
        #: per node: list of adjacency lists, one per layer (0 = base).
        self._links: list[list[list[int]]] = []
        self._entry_point: int = -1
        self._max_level: int = -1
        # Layer-0 adjacency mirrored into a padded int32 matrix so the beam
        # search gathers/scores a node's whole neighbour block with numpy
        # instead of per-neighbour Python list work (layer 0 is where nearly
        # all visits happen; upper layers are traversed with ef=1).
        self._adj0 = np.full((initial_capacity, self._m0), -1, dtype=np.int32)
        self._adj0_len = np.zeros(initial_capacity, dtype=np.int32)
        # Visited-set bookkeeping as a stamped array: each _search_layer call
        # takes a fresh stamp, so no per-call set allocation or rehashing.
        # Thread-local so concurrent searches stay as safe as the per-call
        # set they replaced (concurrent add() is unsupported, as before).
        self._visited_tls = threading.local()

    def __len__(self) -> int:
        return self._count

    @property
    def dim(self) -> int:
        """Vector dimensionality."""
        return self._dim

    @property
    def m(self) -> int:
        """Max links per node on upper layers."""
        return self._m

    def vector(self, node_id: int) -> np.ndarray:
        """The stored vector of ``node_id``."""
        if not 0 <= node_id < self._count:
            raise KeyError(f"node {node_id} not in index")
        return self._vectors[node_id]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _grow(self) -> None:
        new_capacity = max(1024, self._vectors.shape[0] * 2)
        grown = np.zeros((new_capacity, self._dim), dtype=np.float32)
        grown[: self._count] = self._vectors[: self._count]
        self._vectors = grown
        adj0 = np.full((new_capacity, self._m0), -1, dtype=np.int32)
        adj0[: self._count] = self._adj0[: self._count]
        self._adj0 = adj0
        adj0_len = np.zeros(new_capacity, dtype=np.int32)
        adj0_len[: self._count] = self._adj0_len[: self._count]
        self._adj0_len = adj0_len

    def _sync_adj0(self, node: int) -> None:
        """Refresh the padded layer-0 row of ``node`` from its link list."""
        links = self._links[node][0]
        self._adj0[node, : len(links)] = links
        self._adj0_len[node] = len(links)

    def _take_visit_stamp(self, limit: int) -> tuple[np.ndarray, int]:
        """This thread's stamp array (covering nodes ``[0, limit)``, sized
        to capacity so a growing index reallocates it rarely) and a fresh
        stamp."""
        tls = self._visited_tls
        stamp_array = getattr(tls, "stamp_array", None)
        if stamp_array is None or stamp_array.shape[0] < limit:
            stamp_array = np.zeros(
                max(limit, self._vectors.shape[0]), dtype=np.int64
            )
            tls.stamp_array = stamp_array
            tls.counter = 0
        tls.counter += 1
        return stamp_array, tls.counter

    def _draw_level(self) -> int:
        return int(-np.log(max(self._rng.random(), 1e-12)) * self._ml)

    def _sims(self, query: np.ndarray, nodes: list[int]) -> np.ndarray:
        return self._vectors[nodes] @ query

    def _search_layer(
        self,
        query: np.ndarray,
        entry_points: list[tuple[float, int]],
        ef: int,
        layer: int,
        limit: int,
    ) -> list[tuple[float, int]]:
        """Beam search (Algorithm 2). Returns up to ``ef`` (sim, node) pairs.

        ``entry_points`` are (similarity, node) seeds; result is unsorted.
        ``limit`` is the node count the walk captured: no node at or past
        it is visited, whatever a racing ``add`` links or grows meanwhile.

        The layer-0 hot path gathers each visited node's neighbour block
        from the padded adjacency matrix, masks already-seen nodes with the
        stamped visited array, and scores the block with a single dot — no
        per-neighbour Python membership tests or list-to-array conversions.
        """
        visit_stamp, stamp = self._take_visit_stamp(limit)
        for _, node in entry_points:
            visit_stamp[node] = stamp
        # candidates: max-heap by similarity (store negated); results: min-heap.
        candidates = [(-sim, node) for sim, node in entry_points]
        heapq.heapify(candidates)
        results = list(entry_points)
        heapq.heapify(results)
        base_layer = layer == 0

        while candidates:
            neg_sim, node = heapq.heappop(candidates)
            if -neg_sim < results[0][0] and len(results) >= ef:
                break
            if base_layer:
                # Score the node's whole neighbour block with one gather +
                # dot, then drop everything at or below the entry ``worst``
                # in numpy before any per-neighbour Python work. ``worst``
                # only rises during a search, so a neighbour rejected here
                # is rejected on every later encounter too — which is why
                # only *accepted* neighbours need a visited stamp, and why
                # the results are identical to the per-neighbour original.
                # A copy, not a view: a racing add() rewrites adjacency
                # rows in place, and ids read after the scoring would no
                # longer be the ids that were scored. Once a node has
                # been added, the block may hold nodes past
                # ``limit``, or the -1 padding of a pre-_grow() row read
                # with a grown length: keep ``[0, limit)`` only.
                block = self._adj0[node, : self._adj0_len[node]].copy()
                if len(self._links) != limit:
                    block = block[(block >= 0) & (block < limit)]
                if block.size == 0:
                    continue
                sims = self._vectors[block] @ query
                worst = results[0][0]
                if len(results) >= ef:
                    keep = sims > worst
                    if not keep.any():
                        continue
                    if not keep.all():
                        block = block[keep]
                        sims = sims[keep]
                neighbors = block.tolist()
                for sim, neighbor in zip(sims.tolist(), neighbors):
                    if visit_stamp[neighbor] == stamp:
                        continue
                    if len(results) < ef or sim > worst:
                        visit_stamp[neighbor] = stamp
                        heapq.heappush(candidates, (-sim, neighbor))
                        heapq.heappush(results, (sim, neighbor))
                        if len(results) > ef:
                            heapq.heappop(results)
                        worst = results[0][0]
                continue
            neighbors = [
                n for n in self._links[node][layer]
                if n < limit and visit_stamp[n] != stamp
            ]
            if not neighbors:
                continue
            visit_stamp[neighbors] = stamp
            sims = self._sims(query, neighbors)
            worst = results[0][0]
            for sim, neighbor in zip(sims.tolist(), neighbors):
                if len(results) < ef or sim > worst:
                    heapq.heappush(candidates, (-sim, neighbor))
                    heapq.heappush(results, (sim, neighbor))
                    if len(results) > ef:
                        heapq.heappop(results)
                    worst = results[0][0]
        return results

    def _select_neighbors_heuristic(
        self, query: np.ndarray, candidates: list[tuple[float, int]], m: int
    ) -> list[int]:
        """Algorithm 4: diversity-preserving neighbour selection.

        A candidate is kept only if it is closer to the query than to every
        already-kept neighbour. Selecting a candidate can only ever *kill*
        later candidates, so instead of re-scoring each candidate against
        the growing kept set, the candidate-to-candidate similarities are
        computed as one matrix product and an alive-mask column update per
        selection replaces the per-candidate dot + ``all`` of the naive
        loop — same selections, ~one vector op per kept neighbour.
        """
        ordered = sorted(candidates, key=lambda pair: -pair[0])
        n_cand = len(ordered)
        if n_cand <= 1 or m <= 1:
            return [node for _, node in ordered[:m]]
        nodes = [node for _, node in ordered]
        sims_to_query = np.fromiter(
            (sim for sim, _ in ordered), dtype=np.float32, count=n_cand
        )
        cand_vectors = self._vectors[nodes]
        cross = cand_vectors @ cand_vectors.T
        alive = np.ones(n_cand, dtype=bool)
        selected: list[int] = []
        for i in range(n_cand):
            if not alive[i]:
                continue
            selected.append(nodes[i])
            if len(selected) >= m:
                break
            # Kill every candidate at least as close to `i` as to the query.
            alive &= cross[i] < sims_to_query
        # Pad with nearest skipped candidates if the heuristic was too picky.
        if len(selected) < m:
            chosen = set(selected)
            for node in nodes:
                if len(selected) >= m:
                    break
                if node not in chosen:
                    selected.append(node)
                    chosen.add(node)
        return selected

    def add(self, vector: np.ndarray) -> int:
        """Insert ``vector``; returns the new node id (insertion order)."""
        vector = np.asarray(vector, dtype=np.float32)
        if vector.shape != (self._dim,):
            raise ValueError(
                f"vector shape {vector.shape} != ({self._dim},)"
            )
        if (
            self._count == self._vectors.shape[0]
            or not self._vectors.flags.writeable
        ):
            # Full *or* adopted read-only (an mmap-ed snapshot matrix):
            # grow into a fresh writable array before the first write.
            self._grow()
        node = self._count
        self._vectors[node] = vector
        self._count += 1

        level = self._draw_level()
        self._links.append([[] for _ in range(level + 1)])
        self._adj0_len[node] = 0

        if self._entry_point < 0:
            self._entry_point = node
            self._max_level = level
            return node

        query = vector
        ep_sim = float(self._vectors[self._entry_point] @ query)
        entry: list[tuple[float, int]] = [(ep_sim, self._entry_point)]

        # Greedy descent through layers above the new node's level.
        limit = self._count
        for layer in range(self._max_level, level, -1):
            entry = self._search_layer(
                query, entry, ef=1, layer=layer, limit=limit
            )

        # Insert with beam search on each layer from min(level, max) down.
        for layer in range(min(level, self._max_level), -1, -1):
            found = self._search_layer(
                query, entry, ef=self._ef_construction, layer=layer,
                limit=limit,
            )
            self._link_new_node(node, layer, found)
            entry = found

        if level > self._max_level:
            self._max_level = level
            self._entry_point = node
        return node

    def _link_new_node(
        self, node: int, layer: int, candidates: list[tuple[float, int]]
    ) -> None:
        """Wire ``node`` into ``layer``: heuristic selection, bidirectional
        links, degree-cap re-pruning (the second half of Algorithm 1)."""
        query = self._vectors[node]
        m_layer = self._m0 if layer == 0 else self._m
        neighbors = self._select_neighbors_heuristic(
            query, candidates, self._m
        )
        self._links[node][layer] = list(neighbors)
        if layer == 0:
            self._sync_adj0(node)
        for neighbor in neighbors:
            links = self._links[neighbor][layer]
            links.append(node)
            if len(links) > m_layer:
                nvec = self._vectors[neighbor]
                sims = self._vectors[links] @ nvec
                cand = list(zip(sims.tolist(), links))
                self._links[neighbor][layer] = (
                    self._select_neighbors_heuristic(nvec, cand, m_layer)
                )
            if layer == 0:
                self._sync_adj0(neighbor)

    # ------------------------------------------------------------------
    # bulk construction
    # ------------------------------------------------------------------

    #: Row chunk for :meth:`from_vectors` pre-scoring; bounds the scratch
    #: similarity block at ``BULK_CHUNK × n`` float32.
    BULK_CHUNK = 512

    #: Above this many rows, :meth:`from_vectors` falls back to the
    #: incremental insert loop — the pre-scored build's one-off similarity
    #: products are O(n²·dim), which stops paying past tens of thousands
    #: of points per graph (shards keep per-graph n well under this).
    PRESCORE_THRESHOLD = 32768

    @classmethod
    @array_contract(vectors="n,d")
    def from_vectors(
        cls,
        vectors: np.ndarray,
        m: int = 16,
        ef_construction: int = 100,
        seed: int = 7,
        dim: int | None = None,
    ) -> "HNSWIndex":
        """Build an index over a whole ``(n, dim)`` matrix at once.

        The offline-build fast path used at prepare time and by
        ``Collection.build_hnsw``. Node ids equal row indices, exactly as
        an :meth:`add` loop would assign them, and the level draws consume
        the seeded RNG in the same order. The difference is candidate
        generation: each insert's similarities to every earlier node are
        pre-scored with one chunked matrix product, and the per-layer
        candidate set is the *exact* top-``ef_construction`` of the nodes
        on that layer — no beam traversal of the half-built graph.
        Neighbour selection (Algorithm 4), bidirectional linking, and
        degree-cap re-pruning are shared with the incremental path, so the
        graph obeys the same invariants; candidate lists here are exact
        where the beam's are approximate, so navigability is as good or
        better (pinned by the recall tests). Past
        :attr:`PRESCORE_THRESHOLD` rows the quadratic pre-scoring stops
        paying and construction falls back to incremental inserts.

        Returns the built index (node ids = row indices). Raises
        :class:`ValueError` when ``vectors`` is not two-dimensional or
        an explicit ``dim`` disagrees with the matrix's second axis.
        """
        vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        if vectors.ndim != 2:
            raise ValueError(
                f"from_vectors expects an (n, dim) matrix, got shape "
                f"{vectors.shape}"
            )
        n, mat_dim = vectors.shape
        if dim is None:
            dim = mat_dim
        elif n and dim != mat_dim:
            raise ValueError(f"dim {dim} != matrix dim {mat_dim}")
        index = cls(
            dim, m=m, ef_construction=ef_construction, seed=seed,
            initial_capacity=max(1024, n),
        )
        if n > cls.PRESCORE_THRESHOLD:
            for row in vectors:
                index.add(row)
        elif n:
            index._bulk_build(vectors)
        return index

    # arraylint: cow-seam bulk build writes into storage __init__ just
    # allocated for this index; nothing mmap-backed is adopted yet
    def _bulk_build(self, vectors: np.ndarray) -> None:
        """Pre-scored construction over ``vectors`` (must be empty self)."""
        n = vectors.shape[0]
        ef = self._ef_construction
        #: members[L] = node ids present on layer L, in insertion order.
        members: list[list[int]] = []
        for start in range(0, n, self.BULK_CHUNK):
            stop = min(start + self.BULK_CHUNK, n)
            # Rows [start, stop) against all nodes < stop; row i only ever
            # reads columns < i, so one product covers the whole chunk.
            block = vectors[start:stop] @ vectors[:stop].T
            for node in range(start, stop):
                self._vectors[node] = vectors[node]
                self._count += 1
                level = self._draw_level()
                self._links.append([[] for _ in range(level + 1)])
                self._adj0_len[node] = 0
                while len(members) <= level:
                    members.append([])
                if self._entry_point < 0:
                    self._entry_point = node
                    self._max_level = level
                else:
                    srow = block[node - start]
                    for layer in range(min(level, self._max_level), -1, -1):
                        if layer == 0:
                            pool_ids = np.arange(node, dtype=np.int64)
                            pool_sims = srow[:node]
                        else:
                            pool = members[layer]
                            if not pool:
                                continue
                            pool_ids = np.asarray(pool, dtype=np.int64)
                            pool_sims = srow[pool_ids]
                        if pool_sims.size > ef:
                            top = np.argpartition(-pool_sims, ef - 1)[:ef]
                            pool_ids = pool_ids[top]
                            pool_sims = pool_sims[top]
                        found = list(
                            zip(pool_sims.tolist(), pool_ids.tolist())
                        )
                        self._link_new_node(node, layer, found)
                    if level > self._max_level:
                        self._max_level = level
                        self._entry_point = node
                for layer in range(level + 1):
                    members[layer].append(node)

    # ------------------------------------------------------------------
    # serialization (snapshot schema v3)
    # ------------------------------------------------------------------

    #: On-disk graph array format; bump when the array layout changes.
    GRAPH_FORMAT_VERSION = 1

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Flatten the graph into compact numpy arrays (no vectors).

        The layout is three arrays plus a header:

        * ``levels``    — int32 ``(n,)``: top layer of each node;
        * ``counts``    — int32: link-list lengths, node-major then
          layer-major (node 0 layer 0, node 0 layer 1, …, node 1 layer 0);
        * ``neighbors`` — int32: every adjacency list concatenated in the
          same order;
        * ``header``    — int64 ``[format, n, dim, m, ef_construction,
          entry_point, max_level]``.

        Vectors are deliberately excluded: the graph is rebuilt by
        :meth:`from_arrays` around the collection's own (possibly
        memory-mapped) matrix, so they are never stored twice.
        """
        n = self._count
        levels = np.fromiter(
            (len(self._links[i]) - 1 for i in range(n)),
            dtype=np.int32, count=n,
        )
        counts = np.fromiter(
            (len(layer) for node in self._links for layer in node),
            dtype=np.int32,
        )
        neighbors = np.fromiter(
            (nb for node in self._links for layer in node for nb in layer),
            dtype=np.int32,
        )
        header = np.array(
            [
                self.GRAPH_FORMAT_VERSION, n, self._dim, self._m,
                self._ef_construction, self._entry_point, self._max_level,
            ],
            dtype=np.int64,
        )
        return {
            "header": header, "levels": levels,
            "counts": counts, "neighbors": neighbors,
        }

    @classmethod
    def from_arrays(
        cls,
        vectors: np.ndarray,
        arrays: dict[str, np.ndarray],
        seed: int = 7,
    ) -> "HNSWIndex":
        """Rebuild an index from :meth:`to_arrays` output + its vectors.

        ``vectors`` is adopted as the index's storage without copying —
        a read-only ``np.memmap`` works (searches only read it; a later
        :meth:`add` grows into a fresh writable array). The arrays are
        validated structurally (sizes, ranges, degree caps) so a
        truncated or corrupted graph file raises :class:`ValueError`
        instead of producing an index that walks out of bounds; callers
        degrade to a rebuild. ``seed`` only feeds the RNG for *future*
        inserts — the restored graph itself is byte-for-byte the one
        serialized.
        """
        header = np.asarray(arrays["header"], dtype=np.int64)
        if header.shape != (7,):
            raise ValueError(f"graph header shape {header.shape} != (7,)")
        fmt, n, dim, m, ef_construction, entry, max_level = (
            int(v) for v in header
        )
        if fmt != cls.GRAPH_FORMAT_VERSION:
            raise ValueError(
                f"graph format {fmt} != {cls.GRAPH_FORMAT_VERSION}"
            )
        if vectors.ndim != 2 or vectors.shape != (n, dim):
            raise ValueError(
                f"vector matrix shape {vectors.shape} != ({n}, {dim})"
            )
        if vectors.dtype != np.float32:
            vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        # Adopt through a view frozen writeable=False: the caller's handle
        # (often the collection's live storage, or a read-only mmap) stays
        # as it was, but no write can reach it through this index — add()
        # grows into a fresh writable array before its first write.
        vectors = vectors.view()
        vectors.flags.writeable = False
        levels = np.asarray(arrays["levels"], dtype=np.int64)
        counts = np.asarray(arrays["counts"], dtype=np.int64)
        neighbors = np.asarray(arrays["neighbors"], dtype=np.int32)
        if levels.shape != (n,) or (n and levels.min() < 0):
            raise ValueError("graph levels array is malformed")
        if counts.shape != (int((levels + 1).sum()),):
            raise ValueError("graph counts array disagrees with levels")
        if counts.size and counts.min() < 0:
            raise ValueError("negative link count in graph arrays")
        if neighbors.shape != (int(counts.sum()),):
            raise ValueError("graph neighbors array disagrees with counts")
        if neighbors.size and (
            neighbors.min() < 0 or neighbors.max() >= n
        ):
            raise ValueError("graph neighbor id out of range")
        if n:
            if not 0 <= entry < n:
                raise ValueError(f"entry point {entry} out of range")
            if max_level != int(levels.max()):
                raise ValueError("max level disagrees with levels array")
            if int(levels[entry]) != max_level:
                raise ValueError(
                    f"entry point {entry} lives on layer {int(levels[entry])}"
                    f", not the top layer {max_level}"
                )
        # Every layer-L adjacency list may only reference nodes that
        # exist on layer L — otherwise an upper-layer traversal indexes
        # past a node's link lists and crashes mid-search. Reconstruct
        # each count entry's layer (node-major, 0..levels[i] per node)
        # without a Python loop, then check the referenced levels.
        lengths = levels + 1
        starts = np.cumsum(lengths) - lengths
        layer_of_list = np.arange(
            int(lengths.sum()), dtype=np.int64
        ) - np.repeat(starts, lengths)
        if np.any(levels[neighbors] < np.repeat(layer_of_list, counts)):
            raise ValueError(
                "graph adjacency references a node above its top layer"
            )
        index = cls(dim, m=m, ef_construction=ef_construction, seed=seed,
                    initial_capacity=1)
        index._vectors = vectors
        index._count = n
        index._adj0 = np.full((max(1, n), index._m0), -1, dtype=np.int32)
        index._adj0_len = np.zeros(max(1, n), dtype=np.int32)
        index._entry_point = entry if n else -1
        index._max_level = max_level if n else -1
        bounds = np.cumsum(counts)
        cursor = 0
        for node in range(n):
            node_links: list[list[int]] = []
            for _ in range(int(levels[node]) + 1):
                lo = bounds[cursor - 1] if cursor else 0
                node_links.append(neighbors[lo:bounds[cursor]].tolist())
                cursor += 1
            index._links.append(node_links)
            if len(node_links[0]) > index._m0:
                raise ValueError(
                    f"node {node} exceeds the layer-0 degree cap"
                )
            index._sync_adj0(node)
        return index

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    @array_contract(query="d:float32")
    def search(
        self,
        query: np.ndarray,
        k: int,
        ef: int | None = None,
        predicate: Callable[[int], bool] | None = None,
    ) -> list[tuple[int, float]]:
        """Approximate top-``k``: returns ``(node_id, similarity)`` descending.

        ``ef`` controls the layer-0 beam width (default ``max(64, k)``).
        With a ``predicate``, traversal is unfiltered but only passing nodes
        are returned; the beam is widened to compensate, as filtered HNSW
        implementations do.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if self._count == 0:
            return []
        query = np.asarray(query, dtype=np.float32)
        if query.shape != (self._dim,):
            raise ValueError(f"query shape {query.shape} != ({self._dim},)")

        ef_search = max(ef if ef is not None else 64, k)
        if predicate is not None:
            ef_search = max(ef_search, 4 * k)

        # The entry point first, then the count: add() publishes a new
        # entry only after counting it, so ``entry_point < limit``. The
        # descent starts from the entry's own top layer, which a racing
        # add() cannot make inconsistent with it the way ``_max_level``
        # (written separately) could.
        entry_point = self._entry_point
        limit = self._count
        ep_sim = float(self._vectors[entry_point] @ query)
        entry: list[tuple[float, int]] = [(ep_sim, entry_point)]
        for layer in range(len(self._links[entry_point]) - 1, 0, -1):
            entry = self._search_layer(
                query, entry, ef=1, layer=layer, limit=limit
            )
        found = self._search_layer(
            query, entry, ef=ef_search, layer=0, limit=limit
        )

        hits = sorted(found, key=lambda pair: -pair[0])
        out: list[tuple[int, float]] = []
        for sim, node in hits:
            if predicate is not None and not predicate(node):
                continue
            out.append((node, float(sim)))
            if len(out) == k:
                break
        return out

    @array_contract(queries="q,d:float32")
    def search_batch(
        self,
        queries: np.ndarray,
        k: int,
        ef: int | None = None,
        predicate: Callable[[int], bool] | None = None,
    ) -> list[list[tuple[int, float]]]:
        """Run :meth:`search` for each row of ``queries``.

        Graph traversal is inherently per-query (each query walks its own
        path), so batching HNSW means amortizing the *inner* work: the
        vectorized neighbour-block scoring and stamped visited array are
        shared machinery that every query in the batch reuses without
        re-allocation. Results are identical to per-query :meth:`search`.
        """
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim != 2 or queries.shape[1] != self._dim:
            raise ValueError(
                f"queries shape {queries.shape} != (n, {self._dim})"
            )
        return [
            self.search(query, k, ef=ef, predicate=predicate)
            for query in queries
        ]

    # ------------------------------------------------------------------
    # introspection (used by tests and ablation benches)
    # ------------------------------------------------------------------

    def level_of(self, node_id: int) -> int:
        """Top layer of ``node_id``."""
        return len(self._links[node_id]) - 1

    def neighbors_of(self, node_id: int, layer: int = 0) -> list[int]:
        """Adjacency list of a node at ``layer`` (copy)."""
        return list(self._links[node_id][layer])

    def graph_stats(self) -> dict[str, float]:
        """Degree and layer statistics for diagnostics."""
        if self._count == 0:
            return {"nodes": 0, "max_level": -1, "avg_degree_l0": 0.0}
        degrees = [len(self._links[n][0]) for n in range(self._count)]
        return {
            "nodes": self._count,
            "max_level": self._max_level,
            "avg_degree_l0": sum(degrees) / len(degrees),
        }
