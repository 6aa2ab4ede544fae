"""Offline index build — parallel per-shard HNSW construction vs the
serial insert-order build, plus reshard round-trip equivalence.

The serial baseline is the build the engine performed before eager
builds existed (and still performs for incremental upserts into a live
graph): one monolithic ``HNSWIndex`` fed point by point through ``add``,
each insert beam-searching the half-built graph for its candidates.
``ShardedCollection.build_hnsw(parallel=4)`` beats it through three
stacked mechanisms:

1. **Pre-scored bulk construction.** ``HNSWIndex.from_vectors`` computes
   each insert's similarities to all earlier nodes with chunked matrix
   products and draws candidates as the exact per-layer top-``ef``, so
   the per-insert beam search (heap churn + many small numpy calls)
   disappears from construction. Machine-independent; ~3.5× alone on
   one core, with equal-or-better recall (exact candidate lists strictly
   dominate beam-found ones).
2. **Smaller graphs.** Four n/4-point graphs are cheaper to link than
   one n-point graph (fewer layers, cheaper re-pruning). Also
   machine-independent, worth ~10–15%.
3. **Process-pool fan-out.** Per-shard builds are independent and
   Python-heavy, so they run in worker processes (threads would
   serialize on the GIL) and the finished graphs pickle back. What it
   adds depends on the cores the pool gets — and on what else wants
   them: every worker brings OpenBLAS's own thread pool, so on two
   cores four workers oversubscribe and the whole test reads 0.8–1.4×
   from run to run, against 4.8–8.1× under ``OPENBLAS_NUM_THREADS=1``
   (which is why ``benchmarks/ledger/run.py`` sets it).

Acceptance (ISSUE 3): parallel 4-shard build ≥ 1.5× the serial baseline
over the same points where the box has the cores for it — the floor is
0.6× per core the pool can use, capped at 1.5× (1.2× on two cores; one
core skips, the pool has nothing to fan out to) — and a reshard
round-trip is bit-equivalent on ``scroll`` / ``count`` / exact search.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.testing.memwatch import MemWatcher
from repro.vectordb.collection import Collection, HnswConfig, PointStruct
from repro.vectordb.filters import FieldMatch
from repro.vectordb.hnsw import HNSWIndex
from repro.vectordb.persistence import (
    load_collection,
    reshard_snapshot,
    save_collection,
)
from repro.vectordb.sharded import ShardedCollection

N_POINTS = 4000
DIM = 64
SHARDS = 4
HNSW = HnswConfig(m=16, ef_construction=100, seed=7)
CORES = min(SHARDS, os.cpu_count() or 1)
SPEEDUP_FLOOR = min(1.5, 0.6 * CORES)
RECALL_QUERIES = 32
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


@pytest.mark.skipif(
    CORES < 2, reason="one core: the build pool has nothing to fan out to"
)
def test_parallel_shard_build_speedup(bench_artifact):
    """Parallel 4-shard build ≥ ``SPEEDUP_FLOOR`` × the serial
    insert-order baseline."""
    vecs = _vectors()
    points = _points(vecs)

    t0 = time.perf_counter()
    serial = HNSWIndex(
        DIM, m=HNSW.m, ef_construction=HNSW.ef_construction, seed=HNSW.seed
    )
    for vec in vecs:
        serial.add(vec)
    serial_s = time.perf_counter() - t0

    sharded = ShardedCollection("build", DIM, hnsw=HNSW, shards=SHARDS)
    sharded.upsert(points)
    t0 = time.perf_counter()
    sharded.build_hnsw(parallel=SHARDS)
    parallel_s = time.perf_counter() - t0
    assert sharded.hnsw_is_built

    # Context: the same bulk constructor on one monolithic graph
    # (mechanism 1 alone, no shard or fan-out effects).
    t0 = time.perf_counter()
    mono = Collection("mono", DIM, hnsw=HNSW)
    mono.upsert(points)
    mono.build_hnsw()
    mono_bulk_s = time.perf_counter() - t0

    speedup = serial_s / parallel_s
    print(
        f"\nHNSW build over {N_POINTS} x {DIM}d points:"
        f"\n  serial insert-order baseline  {serial_s * 1000:7.0f} ms"
        f"\n  monolithic bulk build         {mono_bulk_s * 1000:7.0f} ms"
        f"\n  parallel {SHARDS}-shard build         {parallel_s * 1000:7.0f} ms"
        f"\n  speedup vs serial: {speedup:.1f}x"
    )

    # The speedup must not come from a worse graph: per-shard approximate
    # search over the parallel-built graphs keeps exact-search recall.
    rng = np.random.default_rng(11)
    queries = rng.standard_normal((RECALL_QUERIES, DIM)).astype(np.float32)
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    exact = sharded.search_batch(queries, K, exact=True)
    approx = sharded.search_batch(queries, K)
    hits = sum(
        len({h.id for h in a} & {h.id for h in e})
        for a, e in zip(approx, exact)
    )
    recall = hits / (RECALL_QUERIES * K)
    print(f"  sharded recall@{K} after parallel build: {recall:.3f}")
    assert recall >= 0.85, f"parallel-built graphs lost recall: {recall}"

    # Memory probe on an extra untimed approximate batch (the serving
    # shape the built graphs exist for); kept out of the timed builds so
    # tracemalloc overhead can't dilute the speedup floor.
    probe = MemWatcher(enforce_contracts=False)
    with probe.watching():
        sharded.search_batch(queries, K)

    bench_artifact(
        "index_build",
        {
            "points": N_POINTS,
            "dim": DIM,
            "shards": SHARDS,
            "serial_build_s": round(serial_s, 4),
            "monolithic_bulk_build_s": round(mono_bulk_s, 4),
            "parallel_build_s": round(parallel_s, 4),
            "speedup": round(speedup, 2),
            "recall_at_k": round(recall, 4),
            "floor": SPEEDUP_FLOOR,
            "memwatch": probe.stats(),
        },
    )

    sharded.close()
    assert speedup >= SPEEDUP_FLOOR, (
        f"parallel shard build speedup {speedup:.2f}x below "
        f"{SPEEDUP_FLOOR}x floor"
    )


def test_reshard_round_trip_bit_equivalent(tmp_path):
    """Reshard 4 → 2 → 1: scroll, count, and exact search stay identical."""
    vecs = _vectors()[:1200]
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
