"""Offline HNSW build lifecycle: bulk construction, eager builds, and
the rule that a graph exists only where a search walks one.

Covers the bulk ``HNSWIndex.from_vectors`` constructor (recall parity
with the incremental insert loop, determinism), the explicit
``build_hnsw`` entry points on both collection backends (idempotence,
staleness catch-up after ``attach_hnsw``), the prepare-time eager build,
and ``Collection.needs_graph``: at or below ``BRUTE_FORCE_THRESHOLD``
rows a search scans, nothing builds, attaches or links a graph.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CollectionError
from repro.vectordb.collection import Collection, PointStruct
from repro.vectordb.flat import FlatIndex
from repro.vectordb.hnsw import HNSWIndex
from repro.vectordb.persistence import (
    inspect_snapshot,
    load_collection,
    save_collection,
)
from repro.vectordb.sharded import ShardedCollection


@pytest.fixture
def walk_graphs(monkeypatch):
    """Keep the graph paths: below the threshold a search scans."""
    monkeypatch.setattr(Collection, "BRUTE_FORCE_THRESHOLD", 0)


def unit_vectors(n: int, dim: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((n, dim)).astype(np.float32)
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def points_of(vecs: np.ndarray, payload=None) -> list[PointStruct]:
    return [
        PointStruct(id=f"p{i}", vector=vecs[i], payload=dict(payload or {}))
        for i in range(vecs.shape[0])
    ]


class TestFromVectors:
    def test_matches_add_loop_node_ids_and_levels(self):
        vecs = unit_vectors(400, 16, seed=3)
        bulk = HNSWIndex.from_vectors(vecs, m=8, ef_construction=40, seed=5)
        inc = HNSWIndex(16, m=8, ef_construction=40, seed=5)
        for v in vecs:
            inc.add(v)
        assert len(bulk) == len(inc) == 400
        # Same seeded RNG stream -> identical level assignment per node.
        assert [bulk.level_of(n) for n in range(400)] == [
            inc.level_of(n) for n in range(400)
        ]
        for node in (0, 17, 399):
            assert np.allclose(bulk.vector(node), vecs[node])

    def test_recall_parity_with_incremental(self):
        vecs = unit_vectors(1200, 32, seed=1)
        queries = unit_vectors(25, 32, seed=2)
        flat = FlatIndex(32)
        for v in vecs:
            flat.add(v)
        bulk = HNSWIndex.from_vectors(vecs, m=12, ef_construction=80)
        inc = HNSWIndex(32, m=12, ef_construction=80)
        for v in vecs:
            inc.add(v)

        def recall(index: HNSWIndex) -> float:
            hits = 0
            for q in queries:
                approx = {i for i, _ in index.search(q, 10, ef=80)}
                exact = {i for i, _ in flat.search(q, 10)}
                hits += len(approx & exact)
            return hits / (25 * 10)

        bulk_recall = recall(bulk)
        assert bulk_recall >= 0.85
        assert bulk_recall >= recall(inc) - 0.05

    def test_deterministic(self):
        vecs = unit_vectors(300, 16, seed=7)
        q = unit_vectors(1, 16, seed=8)[0]
        a = HNSWIndex.from_vectors(vecs, seed=9).search(q, 5)
        b = HNSWIndex.from_vectors(vecs, seed=9).search(q, 5)
        assert a == b

    def test_empty_matrix_needs_dim(self):
        index = HNSWIndex.from_vectors(
            np.zeros((0, 8), dtype=np.float32)
        )
        assert len(index) == 0
        assert index.dim == 8
        index = HNSWIndex.from_vectors(np.zeros((0, 3)), dim=7)
        assert index.dim == 7

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            HNSWIndex.from_vectors(np.zeros(8, dtype=np.float32))
        with pytest.raises(ValueError):
            HNSWIndex.from_vectors(np.zeros((4, 8)), dim=5)

    def test_incremental_adds_after_bulk_build(self):
        vecs = unit_vectors(200, 16, seed=4)
        index = HNSWIndex.from_vectors(vecs[:150])
        for v in vecs[150:]:
            index.add(v)
        assert len(index) == 200
        assert index.search(vecs[180], 1, ef=64)[0][0] == 180


@pytest.mark.usefixtures("walk_graphs")
class TestCollectionBuild:
    def test_build_is_idempotent(self):
        vecs = unit_vectors(120, 16)
        collection = Collection("c", 16)
        collection.upsert(points_of(vecs))
        assert not collection.hnsw_is_built
        index = collection.build_hnsw()
        assert collection.hnsw_is_built
        assert collection.build_hnsw() is index  # no rebuild
        assert collection.build_hnsw(force=True) is not index

    def test_search_after_eager_build_matches_lazy(self):
        vecs = unit_vectors(300, 16, seed=5)
        q = unit_vectors(1, 16, seed=6)[0]
        eager = Collection("eager", 16)
        eager.upsert(points_of(vecs))
        eager.build_hnsw()
        lazy = Collection("lazy", 16)
        lazy.upsert(points_of(vecs))
        assert [h.id for h in eager.search(q, 10)] == [
            h.id for h in lazy.search(q, 10)
        ]

    def test_upsert_keeps_built_graph_fresh(self):
        vecs = unit_vectors(150, 16, seed=7)
        collection = Collection("c", 16)
        collection.upsert(points_of(vecs[:100]))
        collection.build_hnsw()
        collection.upsert(points_of(vecs)[100:])
        assert collection.hnsw_is_built
        hit = collection.search(vecs[140], 1)[0]
        assert hit.id == "p140"

    def test_attach_validates_and_catches_up(self):
        vecs = unit_vectors(120, 16, seed=8)
        collection = Collection("c", 16)
        collection.upsert(points_of(vecs))
        with pytest.raises(CollectionError):
            collection.attach_hnsw(HNSWIndex.from_vectors(unit_vectors(5, 8)))
        too_big = HNSWIndex.from_vectors(unit_vectors(200, 16))
        with pytest.raises(CollectionError):
            collection.attach_hnsw(too_big)
        # A trailing graph attaches; the staleness guard tops it up.
        trailing = HNSWIndex.from_vectors(vecs[:80])
        collection.attach_hnsw(trailing)
        assert not collection.hnsw_is_built
        collection.build_hnsw()
        assert collection.hnsw_is_built
        assert len(trailing) == 120

    def test_upsert_after_trailing_attach_stays_aligned(self):
        vecs = unit_vectors(60, 16, seed=9)
        collection = Collection("c", 16)
        collection.upsert(points_of(vecs[:50]))
        collection.attach_hnsw(HNSWIndex.from_vectors(vecs[:30]))
        collection.upsert(points_of(vecs)[50:])
        assert collection.hnsw_is_built  # tail was appended in id order
        assert collection.search(vecs[55], 1)[0].id == "p55"


@pytest.mark.usefixtures("walk_graphs")
class TestShardedBuild:
    def test_build_then_search(self):
        vecs = unit_vectors(600, 16, seed=10)
        sharded = ShardedCollection("s", 16, shards=4)
        sharded.upsert(points_of(vecs))
        assert not sharded.hnsw_is_built
        sharded.build_hnsw()
        assert sharded.hnsw_is_built
        for shard in sharded.shard_collections:
            assert not len(shard) or shard.hnsw_is_built
        exact = {h.id for h in sharded.search(vecs[0], 10, exact=True)}
        approx = {h.id for h in sharded.search(vecs[0], 10)}
        assert len(approx & exact) >= 5
        sharded.close()

    def test_same_points_build_same_graphs(self):
        vecs = unit_vectors(400, 16, seed=11)
        q = unit_vectors(1, 16, seed=12)[0]
        first = ShardedCollection("a", 16, shards=3)
        first.upsert(points_of(vecs))
        first.build_hnsw()
        second = ShardedCollection("b", 16, shards=3)
        second.upsert(points_of(vecs))
        second.build_hnsw()
        # Same per-shard vectors + same seeded build -> same graphs.
        assert [h.id for h in first.search(q, 10)] == [
            h.id for h in second.search(q, 10)
        ]
        first.close()
        second.close()

    def test_build_skips_built_shards(self):
        vecs = unit_vectors(200, 16, seed=13)
        sharded = ShardedCollection("s", 16, shards=2)
        sharded.upsert(points_of(vecs))
        sharded.build_hnsw()
        graphs = [
            shard._hnsw for shard in sharded.shard_collections  # noqa: SLF001
        ]
        sharded.build_hnsw()  # no-op: everything is built
        assert [
            shard._hnsw for shard in sharded.shard_collections  # noqa: SLF001
        ] == graphs
        sharded.close()

    def test_empty_collection_build_is_noop(self):
        sharded = ShardedCollection("s", 16, shards=2)
        sharded.build_hnsw()
        assert sharded.hnsw_is_built  # vacuously: no non-empty shards
        sharded.close()


class TestEagerPrepare:
    @pytest.mark.usefixtures("walk_graphs")
    def test_prepare_builds_graphs_eagerly(self):
        from repro.eval.corpus import build_corpus

        corpus = build_corpus("SB", seed=21, count=60, shards=2)
        collection = corpus.prepared.client.get_collection(
            corpus.prepared.collection_name
        )
        assert collection.hnsw_is_built
        corpus.prepared.client.close()

    @pytest.mark.usefixtures("walk_graphs")
    def test_prepare_lazy_opt_out(self):
        from repro.eval.corpus import build_corpus

        corpus = build_corpus(
            "SB", seed=22, count=60, shards=1, eager_index=False
        )
        collection = corpus.prepared.client.get_collection(
            corpus.prepared.collection_name
        )
        assert not collection.hnsw_is_built
        corpus.prepared.client.close()

    def test_eager_prepare_below_threshold_persists_no_graph(self, tmp_path):
        from repro.eval.corpus import build_corpus

        corpus = build_corpus("SB", seed=21, count=60, shards=2)
        collection = corpus.prepared.client.get_collection(
            corpus.prepared.collection_name
        )
        assert all(
            shard.hnsw_index is None for shard in collection.shard_collections
        )
        save_collection(collection, tmp_path / "snap")
        assert inspect_snapshot(tmp_path / "snap")["graphs_persisted"] is False
        corpus.prepared.client.close()


def _backend(kind: str):
    if kind == "sharded":
        return ShardedCollection("t", 16, shards=3)
    return Collection("t", 16)


def _shards(collection) -> list[Collection]:
    if isinstance(collection, ShardedCollection):
        return list(collection.shard_collections)
    return [collection]


class TestGraphOnlyAboveThreshold:
    @pytest.mark.parametrize("kind", ["single", "sharded"])
    def test_below_threshold_search_is_the_exact_scan(self, kind):
        vecs = unit_vectors(300, 16, seed=31)
        queries = unit_vectors(5, 16, seed=32)
        collection = _backend(kind)
        collection.upsert(points_of(vecs))
        for params in ({}, {"ef": 8}):
            approx = collection.search_batch(queries, 10, **params)
            exact = collection.search_batch(queries, 10, exact=True)
            assert [[(h.id, h.score) for h in row] for row in approx] == [
                [(h.id, h.score) for h in row] for row in exact
            ]
        assert collection.search(queries[0], 10) == collection.search(
            queries[0], 10, exact=True
        )
        assert all(shard.hnsw_index is None for shard in _shards(collection))
        collection.close()

    def test_upsert_past_lowered_threshold_builds_on_next_search(
        self, monkeypatch
    ):
        monkeypatch.setattr(Collection, "BRUTE_FORCE_THRESHOLD", 100)
        vecs = unit_vectors(150, 16, seed=33)
        collection = Collection("c", 16)
        collection.upsert(points_of(vecs[:100]))
        collection.search(vecs[0], 5)
        assert collection.hnsw_index is None  # 100 rows: scanned
        collection.upsert(points_of(vecs)[100:])
        assert collection.hnsw_index is None  # upserts link nothing
        assert collection.needs_graph()
        assert collection.search(vecs[120], 1)[0].id == "p120"
        assert collection.hnsw_is_built  # the search walked a new graph
        collection.upsert([PointStruct(id="late", vector=vecs[7])])
        assert collection.hnsw_is_built  # from now on upserts link

    def test_filter_matches_decide_scan_or_walk(self, monkeypatch):
        from repro.vectordb.filters import FieldMatch

        monkeypatch.setattr(Collection, "BRUTE_FORCE_THRESHOLD", 100)
        vecs = unit_vectors(200, 16, seed=34)
        collection = Collection("c", 16)
        collection.upsert(
            points_of(vecs[:150], {"tag": "few"})
            + [
                PointStruct(id=f"q{i}", vector=vecs[i], payload={"tag": "x"})
                for i in range(150, 200)
            ]
        )
        selective = FieldMatch("tag", "x")  # 50 matches: a scan
        collection.search(vecs[160], 5, flt=selective)
        assert collection.hnsw_index is None
        collection.search(vecs[10], 5, flt=FieldMatch("tag", "few"))
        assert collection.hnsw_is_built  # 150 matches: a predicate walk

    @pytest.mark.parametrize("shards", [1, 3])
    def test_persisted_graph_below_threshold_is_not_attached(
        self, tmp_path, shards
    ):
        vecs = unit_vectors(200, 16, seed=35)
        original = (
            ShardedCollection("s", 16, shards=shards) if shards > 1
            else Collection("s", 16)
        )
        original.upsert(points_of(vecs))
        original.build_hnsw()  # as a snapshot saved before the rule did
        save_collection(original, tmp_path / "snap")
        original.close()
        assert inspect_snapshot(tmp_path / "snap")["graphs_persisted"]
        loaded = load_collection(tmp_path / "snap")
        assert all(shard.hnsw_index is None for shard in _shards(loaded))
        loaded.upsert(
            PointStruct(id=f"n{i}", vector=vector)
            for i, vector in enumerate(unit_vectors(20, 16, seed=36))
        )
        assert all(shard.hnsw_index is None for shard in _shards(loaded))
        assert loaded.search(vecs[3], 1)[0].id == "p3"
        loaded.close()
