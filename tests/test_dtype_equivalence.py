"""float32 end-to-end: dtype stability and mmap non-materialization.

The engine's numeric contract is float32 in → float32 out, at every
station of a point's life: upsert, search, save, ``mmap=True`` load, and
WAL replay — for both ``Collection`` and ``ShardedCollection``. These
tests pin that contract (under ``@array_contract`` enforcement via the
``memwatch`` fixture, so any silent upcast fails at the entrypoint, not
in an assert three layers later), plus the memory half of the story:

* matrices adopted from a read-only memory map stay ``writeable=False``
  and are never copied by the load path — the regression test for the
  full-matrix ``astype``/normalize copies removed in this PR;
* a cold start with ``mmap=True`` allocates a small fraction of the
  matrix's ``nbytes`` (tracemalloc-accounted), while the eager load
  necessarily materializes it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.testing.memwatch import MemWatcher
from repro.vectordb.collection import Collection, PointStruct
from repro.vectordb.persistence import load_collection, save_collection
from repro.vectordb.sharded import ShardedCollection

DIM = 32
N = 120
K = 6


def _vectors(n: int = N, seed: int = 9, dim: int = DIM) -> np.ndarray:
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((n, dim)).astype(np.float32)
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def _points(vecs: np.ndarray, prefix: str = "p") -> list[PointStruct]:
    return [
        PointStruct(id=f"{prefix}{i}", vector=vecs[i], payload={"i": i})
        for i in range(vecs.shape[0])
    ]


def _make(kind: str) -> Collection | ShardedCollection:
    if kind == "sharded":
        return ShardedCollection("f32", DIM, shards=3)
    return Collection("f32", DIM)


def _matrices(collection) -> list[np.ndarray]:
    shards = (
        collection.shard_collections
        if isinstance(collection, ShardedCollection)
        else [collection]
    )
    return [shard.vector_matrix() for shard in shards]


def _assert_f32_throughout(collection) -> None:
    for matrix in _matrices(collection):
        assert matrix.dtype == np.float32


def _hits(collection, queries: np.ndarray):
    return [
        [(h.id, h.score) for h in row]
        for row in collection.search_batch(queries, K, exact=True)
    ]


@pytest.mark.parametrize("kind", ["single", "sharded"])
class TestFloat32Equivalence:
    def test_f4_in_f4_out_across_lifecycle(self, kind, tmp_path, memwatch):
        """upsert → search → save → load(mmap) → WAL replay, all float32."""
        vecs = _vectors()
        collection = _make(kind)
        collection.upsert(_points(vecs))
        _assert_f32_throughout(collection)

        queries = vecs[:8]
        want = _hits(collection, queries)
        for row in collection.search_batch(queries, K, exact=True):
            for hit in row:
                assert isinstance(hit.score, float)

        snap = tmp_path / "snap"
        save_collection(collection, snap)
        collection.close()

        served = load_collection(snap, mmap=True, wal="always")
        _assert_f32_throughout(served)
        assert _hits(served, queries) == want

        # Writes after the snapshot go to the WAL; replay must restore
        # them with the same dtype and the same scores.
        extra = _vectors(n=10, seed=31)
        served.upsert(_points(extra, prefix="x"))
        _assert_f32_throughout(served)
        want_after = _hits(served, queries)
        served.close()

        recovered = load_collection(snap, mmap=True)
        _assert_f32_throughout(recovered)
        assert _hits(recovered, queries) == want_after
        assert recovered.retrieve("x0") is not None
        recovered.close()

    def test_mmap_adopted_matrix_is_read_only(self, kind, tmp_path):
        vecs = _vectors()
        collection = _make(kind)
        collection.upsert(_points(vecs))
        snap = tmp_path / "snap"
        save_collection(collection, snap)
        collection.close()

        loaded = load_collection(snap, mmap=True)
        for matrix in _matrices(loaded):
            assert not matrix.flags.writeable
            assert isinstance(matrix, np.memmap)  # still page-cache backed
            with pytest.raises(ValueError):
                matrix[0] = 0.0
        loaded.close()

    def test_float64_input_is_converted_at_the_boundary(self, kind, tmp_path):
        """Legacy callers may hand in f8; storage stays f4 regardless.

        (Runs without contract enforcement — under ``memwatch`` the same
        call would be rejected at the entrypoint instead.)
        """
        rng = np.random.default_rng(3)
        f8 = rng.standard_normal((20, DIM))
        assert f8.dtype == np.float64
        collection = _make(kind)
        collection.upsert(_points(f8))
        _assert_f32_throughout(collection)
        snap = tmp_path / "snap"
        save_collection(collection, snap)
        collection.close()
        loaded = load_collection(snap)
        _assert_f32_throughout(loaded)
        loaded.close()


class TestMmapColdStartDoesNotMaterialize:
    """The load path must not copy an mmap-backed matrix into RAM.

    Guards the two full-matrix copies removed in this PR (the legacy
    ``astype`` on load and the eager normalize): tracemalloc-accounted
    peak allocation during ``load_collection(mmap=True)`` plus a search
    must stay far below the matrix size, while the eager load pays for
    the full materialization.
    """

    BIG_N = 4000
    BIG_DIM = 256  # 4000 x 256 f4 = 4 MiB matrix

    def _snapshot(self, tmp_path):
        vecs = _vectors(n=self.BIG_N, dim=self.BIG_DIM, seed=17)
        collection = Collection("big", self.BIG_DIM)
        # No payloads: the point metadata (ids, payload JSON) is real
        # Python-object allocation that tracemalloc rightly counts; the
        # budget here is about the *matrix*, so keep metadata minimal.
        collection.upsert(
            PointStruct(id=f"p{i}", vector=vecs[i])
            for i in range(vecs.shape[0])
        )
        snap = tmp_path / "snap"
        save_collection(collection, snap)
        collection.close()
        return snap, vecs

    def test_mmap_load_allocates_fraction_of_matrix(self, tmp_path):
        snap, vecs = self._snapshot(tmp_path)
        nbytes = self.BIG_N * self.BIG_DIM * 4

        watcher = MemWatcher(enforce_contracts=False)
        with watcher.watching():
            loaded = load_collection(snap, mmap=True)
            hits = loaded.search(vecs[0], k=K, exact=True)
        assert hits[0].id == "p0"
        assert not loaded.vector_matrix().flags.writeable
        watcher.assert_peak_below(nbytes // 2, "mmap cold start")
        loaded.close()

    def test_mmap_exact_search_batch_scores_in_place(self, tmp_path):
        """An unfiltered exact batch scores the mapped rows as a view
        rather than gathering every row onto the heap first."""
        snap, vecs = self._snapshot(tmp_path)
        nbytes = self.BIG_N * self.BIG_DIM * 4
        loaded = load_collection(snap, mmap=True)

        watcher = MemWatcher(enforce_contracts=False)
        with watcher.watching():
            batch = loaded.search_batch(vecs[:4], k=K, exact=True)
        assert [hits[0].id for hits in batch] == ["p0", "p1", "p2", "p3"]
        watcher.assert_peak_below(nbytes // 2, "mmap exact search_batch")
        loaded.close()

    def test_eager_load_pays_for_the_matrix(self, tmp_path):
        snap, _ = self._snapshot(tmp_path)
        nbytes = self.BIG_N * self.BIG_DIM * 4

        watcher = MemWatcher(enforce_contracts=False)
        with watcher.watching():
            eager = load_collection(snap)
        assert watcher.peak_alloc_bytes() >= nbytes
        eager.close()
