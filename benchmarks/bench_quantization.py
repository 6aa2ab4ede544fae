"""Quantized-tier Pareto check — recall, latency, and resident bytes.

The quantization PR's acceptance targets, on a 20k-point 4-shard corpus:

* **recall**: graph search over int8 codes with exact float32 rescoring
  at the default ``rescore_factor`` keeps recall@10 at ≥ 0.95× the
  float32 graph baseline (both measured against brute-force ground
  truth) — the compressed tier may steer the traversal slightly, but
  rescoring must recover nearly all of it;
* **memory**: serving the quantized snapshot ``mmap=True`` keeps
  *resident vector bytes* under 0.5× the float32 matrix, measured two
  ways: structurally (heap-backed vector/code arrays across all shards
  — mmap-backed tiers count 0, they live in the page cache) and
  dynamically (memwatch peak allocation across the whole query workload
  — a tier silently materialized per query would show up here). Graph
  adjacency is deliberately excluded: it is identical for both tiers
  and its Python-object overhead would drown the vector signal;
* **latency**: per-query times for both tiers are recorded (not floor-
  asserted — CI machines vary) so regressions show up in the artifact.

Both tiers run on the *same* collection object — the float32 baseline is
measured first, then :class:`SQ8Store` is attached to the very same
shards/graph — so the comparison isolates the tier, not build noise.
Numbers land in ``BENCH_quantization.json`` via ``bench_artifact``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.testing.memwatch import MemWatcher
from repro.vectordb.collection import (
    DEFAULT_RESCORE_FACTOR,
    Collection,
    PointStruct,
)
from repro.vectordb.persistence import load_collection, save_collection
from repro.vectordb.quantization import SQ8Store
from repro.vectordb.sharded import ShardedCollection

POINTS = 20_000
DIM = 64
SHARDS = 4
K = 10
QUERIES = 100
TIMED_QUERIES = 50

#: sq8+rescore recall@10 must be at least this fraction of the float32
#: graph baseline's recall@10.
RECALL_RATIO_FLOOR = 0.95
#: Resident vector bytes (and peak query-time allocation) while serving
#: the mmap'd quantized snapshot must stay under this fraction of the
#: float32 matrix.
RESIDENT_RATIO_CEILING = 0.5
#: Downscaled with the corpus (production default: 8192): 5 000-row
#: shards sit under the production threshold, where both tiers would
#: scan float32 instead of walking the graph this bench compares.
BRUTE_FORCE_THRESHOLD = 0


@pytest.fixture(scope="module", autouse=True)
def _walk_graphs():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Collection, "BRUTE_FORCE_THRESHOLD", BRUTE_FORCE_THRESHOLD)
        yield


def _unit_vectors(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((n, DIM)).astype(np.float32)
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def _ground_truth(vecs: np.ndarray, queries: np.ndarray) -> list[set[str]]:
    """Brute-force cosine top-K ids (vectors are unit-norm)."""
    sims = queries @ vecs.T
    part = np.argpartition(-sims, K - 1, axis=1)[:, :K]
    return [{f"p{i}" for i in row} for row in part]


def _recall(collection, queries, truth, **search_kw) -> float:
    rows = collection.search_batch(queries, K, **search_kw)
    overlap = sum(
        len({h.id for h in row} & truth[i]) for i, row in enumerate(rows)
    )
    return overlap / (K * len(queries))


def _mean_latency_ms(collection, queries, **search_kw) -> float:
    start = time.perf_counter()
    for query in queries:
        collection.search(query, K, **search_kw)
    return (time.perf_counter() - start) * 1000 / len(queries)


def _heap_bytes(array) -> int:
    """``array.nbytes`` if heap-backed, 0 if (a view of) an ``np.memmap``."""
    if array is None:
        return 0
    base = array
    while isinstance(getattr(base, "base", None), np.ndarray):
        base = base.base
    return 0 if isinstance(base, np.memmap) else array.nbytes


def _resident_vector_bytes(collection) -> int:
    """Heap-resident bytes of every vector/code tier across all shards."""
    total = 0
    for shard in collection.shard_collections:
        flat = shard._flat
        total += _heap_bytes(flat.matrix())
        index = shard.hnsw_index
        if index is not None and index._vectors is not flat._vectors:
            total += _heap_bytes(index._vectors[: len(flat)])
        store = shard.sq8_store
        if store is not None and store.count:
            total += _heap_bytes(store.codes())
    return total


def test_sq8_recall_latency_and_resident_size(bench_artifact, tmp_path):
    vecs = _unit_vectors(POINTS, seed=3)
    queries = _unit_vectors(QUERIES, seed=17)
    truth = _ground_truth(vecs, queries)
    matrix_bytes = vecs.nbytes

    collection = ShardedCollection("quant-bench", DIM, shards=SHARDS)
    collection.upsert(
        PointStruct(id=f"p{i}", vector=vecs[i]) for i in range(POINTS)
    )
    collection.build_hnsw()

    # -- float32 graph baseline ----------------------------------------
    recall_f32 = _recall(collection, queries, truth)
    latency_f32_ms = _mean_latency_ms(collection, queries[:TIMED_QUERIES])

    # -- same shards, same graph, int8 codes + exact rescoring ---------
    for shard in collection.shard_collections:
        shard.attach_sq8(SQ8Store(shard.dim))
    assert collection.quantize == "sq8"
    collection.search(queries[0], K)  # first quantized search syncs codes
    recall_sq8 = _recall(collection, queries, truth)
    latency_sq8_ms = _mean_latency_ms(collection, queries[:TIMED_QUERIES])

    # -- resident size, serving the snapshot mmap'd --------------------
    snap = tmp_path / "snap"
    save_collection(collection, snap)
    collection.close()
    del collection

    served = load_collection(snap, mmap=True)
    assert served.quantize == "sq8"
    resident_bytes = _resident_vector_bytes(served)
    watcher = MemWatcher(enforce_contracts=False)
    with watcher.watching():
        served_rows = served.search_batch(queries, K)
        for query in queries[:TIMED_QUERIES]:
            served.search(query, K)
    peak_bytes = watcher.peak_alloc_bytes()
    stats = watcher.stats()
    served.close()
    assert all(len(row) == K for row in served_rows)

    ratio = recall_sq8 / recall_f32 if recall_f32 else 0.0
    print(
        f"\nsq8 tier on {POINTS} pts x {DIM}d, {SHARDS} shards "
        f"(rescore_factor={DEFAULT_RESCORE_FACTOR}):\n"
        f"  recall@{K}: f32 {recall_f32:.4f}, sq8 {recall_sq8:.4f} "
        f"(ratio {ratio:.4f}, floor {RECALL_RATIO_FLOOR})\n"
        f"  latency/query: f32 {latency_f32_ms:.2f} ms, "
        f"sq8 {latency_sq8_ms:.2f} ms\n"
        f"  mmap serve: resident vector bytes {resident_bytes / 1e6:.2f} MB, "
        f"query-workload peak alloc {peak_bytes / 1e6:.2f} MB vs "
        f"f32 matrix {matrix_bytes / 1e6:.2f} MB "
        f"(ceiling {RESIDENT_RATIO_CEILING}x)"
    )
    bench_artifact(
        "quantization",
        {
            "points": POINTS,
            "dim": DIM,
            "shards": SHARDS,
            "k": K,
            "rescore_factor": DEFAULT_RESCORE_FACTOR,
            "recall_f32": round(recall_f32, 4),
            "recall_sq8": round(recall_sq8, 4),
            "recall_ratio": round(ratio, 4),
            "recall_ratio_floor": RECALL_RATIO_FLOOR,
            "latency_f32_ms": round(latency_f32_ms, 3),
            "latency_sq8_ms": round(latency_sq8_ms, 3),
            "matrix_bytes": matrix_bytes,
            "resident_vector_bytes": resident_bytes,
            "serve_query_peak_alloc_bytes": peak_bytes,
            "serve_rss_bytes": stats.get("rss_bytes"),
            "resident_ratio_ceiling": RESIDENT_RATIO_CEILING,
        },
    )
    assert recall_sq8 >= RECALL_RATIO_FLOOR * recall_f32, (
        f"sq8 recall@{K} {recall_sq8:.4f} fell below "
        f"{RECALL_RATIO_FLOOR}x the float32 baseline {recall_f32:.4f} — "
        "rescoring is not recovering the quantization loss"
    )
    budget = int(matrix_bytes * RESIDENT_RATIO_CEILING)
    assert resident_bytes <= budget, (
        f"mmap-served quantized collection holds {resident_bytes} B of "
        f"heap vector storage (budget {budget} B) — a tier that should "
        "stay mapped was materialized"
    )
    watcher.assert_peak_below(budget, "quantized query workload")
