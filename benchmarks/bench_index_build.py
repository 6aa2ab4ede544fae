"""Reshard round-trip equivalence over a 4-shard corpus.

Resharding a saved snapshot 4 → 2 → 1 in place (``reshard_snapshot``,
chained) must keep ``scroll`` order, ``count`` (with and without a
filter) and exact search bit-identical to the original collection.
"""

from __future__ import annotations

import numpy as np

from repro.vectordb.collection import HnswConfig, PointStruct
from repro.vectordb.filters import FieldMatch
from repro.vectordb.persistence import (
    load_collection,
    reshard_snapshot,
    save_collection,
)
from repro.vectordb.sharded import ShardedCollection

N_POINTS = 1200
DIM = 64
SHARDS = 4
HNSW = HnswConfig(m=16, ef_construction=100, seed=7)
K = 10


def _vectors() -> np.ndarray:
    rng = np.random.default_rng(7)
    vecs = rng.standard_normal((N_POINTS, DIM)).astype(np.float32)
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def _points(vecs: np.ndarray) -> list[PointStruct]:
    return [
        PointStruct(
            id=f"poi-{i}",
            vector=vecs[i],
            payload={"city": f"c{i % 5}", "stars": float(i % 50) + 1.0},
        )
        for i in range(vecs.shape[0])
    ]


def test_reshard_round_trip_bit_equivalent(tmp_path):
    """Reshard 4 → 2 → 1: scroll, count, and exact search stay identical."""
    vecs = _vectors()
    points = _points(vecs)
    original = ShardedCollection("resh", DIM, hnsw=HNSW, shards=SHARDS)
    original.upsert(points)
    original.create_payload_index("city")
    snapshot = tmp_path / "snap"
    save_collection(original, snapshot)

    rng = np.random.default_rng(13)
    queries = rng.standard_normal((16, DIM)).astype(np.float32)
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    want_scroll = [h.id for h in original.scroll()]
    flt = FieldMatch("city", "c1")
    want_hits = original.search_batch(queries, K, exact=True)

    for new_shards in (2, 1):
        reshard_snapshot(snapshot, new_shards)  # in place, chained
        loaded = load_collection(snapshot)
        assert loaded.n_shards == new_shards
        assert loaded.count() == original.count()
        assert loaded.count(flt) == original.count(flt)
        assert [h.id for h in loaded.scroll()] == want_scroll
        got_hits = loaded.search_batch(queries, K, exact=True)
        for want, got in zip(want_hits, got_hits):
            assert [h.id for h in want] == [h.id for h in got]
            np.testing.assert_array_equal(
                np.asarray([h.score for h in want], dtype=np.float32),
                np.asarray([h.score for h in got], dtype=np.float32),
            )
        loaded.close()
        print(f"\nreshard {SHARDS} -> {new_shards}: bit-equivalent "
              f"({len(want_scroll)} points, {len(queries)} queries)")
    original.close()
