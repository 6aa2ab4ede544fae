"""Sharded-vs-unsharded equivalence and sharded snapshot round-trips.

The sharding layer is a partitioning of the same algorithm, not a new
one: on every exact-scoring dispatch path a :class:`ShardedCollection`
must return the same hits as one unsharded :class:`Collection` holding
the same points, with scores equal up to float accumulation order.
These tests pin that over randomized seeds, dims, ``k``, and filters,
plus the degenerate layouts (empty shards, all points hashed onto one
shard) and the persistence round-trip.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.core.query import SpatialKeywordQuery
from repro.core.variants import semask_em
from repro.errors import CollectionError, DimensionMismatch, PointNotFound
from repro.vectordb.client import VectorDBClient
from repro.vectordb.collection import Collection, HnswConfig, PointStruct
from repro.vectordb.filters import And, FieldMatch, FieldRange
from repro.vectordb.hnsw import HNSWIndex
from repro.vectordb.persistence import (
    attach_wal,
    load_collection,
    save_collection,
)
from repro.vectordb.sharded import ShardedCollection, shard_for

CASES = [(0, 8, 1, 2), (1, 16, 5, 3), (2, 32, 10, 4), (3, 48, 3, 7)]

FILTERS = [
    None,
    FieldMatch("city", "city1"),
    FieldRange("stars", gte=2.0),
    And(FieldMatch("city", "city2"), FieldRange("stars", lte=4.0)),
]


def unit_vectors(n: int, dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((n, dim)).astype(np.float32)
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def make_points(n: int, dim: int, seed: int) -> list[PointStruct]:
    vecs = unit_vectors(n, dim, seed)
    return [
        PointStruct(
            id=f"p{i}",
            vector=vecs[i],
            payload={"city": f"city{i % 3}", "stars": float(i % 5) + 1.0},
        )
        for i in range(n)
    ]


def build_pair(
    seed: int, dim: int, shards: int, n: int = 240
) -> tuple[Collection, ShardedCollection]:
    points = make_points(n, dim, seed)
    plain = Collection(f"c{seed}", dim)
    plain.upsert(points)
    sharded = ShardedCollection(f"c{seed}", dim, shards=shards)
    sharded.upsert(points)
    return plain, sharded


def assert_hits_equivalent(sharded_hits, plain_hits):
    assert [h.id for h in sharded_hits] == [h.id for h in plain_hits]
    np.testing.assert_allclose(
        [h.score for h in sharded_hits],
        [h.score for h in plain_hits],
        rtol=0, atol=1e-5,
    )
    for a, b in zip(sharded_hits, plain_hits):
        assert a.payload == b.payload


class TestShardAssignment:
    def test_deterministic_and_in_range(self):
        for n in (1, 2, 3, 8):
            for i in range(200):
                first = shard_for(f"point-{i}", n)
                assert 0 <= first < n
                assert shard_for(f"point-{i}", n) == first

    def test_spreads_across_shards(self):
        counts = [0] * 4
        for i in range(400):
            counts[shard_for(f"p{i}", 4)] += 1
        assert all(c > 0 for c in counts)

    def test_invalid_shard_count(self):
        with pytest.raises(CollectionError):
            shard_for("x", 0)
        with pytest.raises(CollectionError):
            ShardedCollection("x", 8, shards=0)


@pytest.mark.parametrize("seed,dim,k,shards", CASES)
class TestSearchEquivalence:
    def test_exact_search(self, seed, dim, k, shards):
        plain, sharded = build_pair(seed, dim, shards)
        for q in unit_vectors(8, dim, seed + 100):
            assert_hits_equivalent(
                sharded.search(q, k, exact=True),
                plain.search(q, k, exact=True),
            )

    @pytest.mark.parametrize("flt", FILTERS)
    def test_filtered_search_batch(self, seed, dim, k, shards, flt):
        plain, sharded = build_pair(seed, dim, shards)
        queries = unit_vectors(12, dim, seed + 200)
        exact = flt is None  # unfiltered HNSW is approximate per shard
        batch = sharded.search_batch(queries, k, flt=flt, exact=exact)
        expected = plain.search_batch(queries, k, flt=flt, exact=exact)
        assert len(batch) == len(expected)
        for got, want in zip(batch, expected):
            assert_hits_equivalent(got, want)

    def test_indexed_filter_path(self, seed, dim, k, shards):
        plain, sharded = build_pair(seed, dim, shards)
        plain.create_payload_index("city")
        sharded.create_payload_index("city")
        assert sharded.indexed_payload_fields == frozenset({"city"})
        flt = FieldMatch("city", "city0")
        queries = unit_vectors(6, dim, seed + 300)
        for got, want in zip(
            sharded.search_batch(queries, k, flt=flt),
            plain.search_batch(queries, k, flt=flt),
        ):
            assert_hits_equivalent(got, want)

    def test_count_and_scroll(self, seed, dim, k, shards):
        plain, sharded = build_pair(seed, dim, shards)
        for flt in FILTERS:
            assert sharded.count(flt) == plain.count(flt)
            assert [h.id for h in sharded.scroll(flt)] == [
                h.id for h in plain.scroll(flt)
            ]


class TestHnswPath:
    def test_unfiltered_approximate_recall_floor(self, monkeypatch):
        """Sharded HNSW recall@10 stays high — every shard's graph is
        searched, but each graph is still approximate, so this pins an
        absolute floor rather than an ordering against one global graph
        (which does not hold in general)."""
        # Keep the graph walk: below the threshold a search scans.
        monkeypatch.setattr(Collection, "BRUTE_FORCE_THRESHOLD", 0)
        dim, k = 16, 10
        plain, sharded = build_pair(5, dim, 4, n=400)
        queries = unit_vectors(20, dim, 55)
        hits = total = 0
        for q in queries:
            truth = {h.id for h in plain.search(q, k, exact=True)}
            hits += len(truth & {h.id for h in sharded.search(q, k)})
            total += len(truth)
        recall = hits / total
        assert recall >= 0.95, f"sharded HNSW recall@10 too low: {recall:.3f}"


class TestDegenerateLayouts:
    def test_more_shards_than_points(self):
        points = make_points(3, 8, 0)
        sharded = ShardedCollection("sparse", 8, shards=16)
        assert sharded.upsert(points) == 3
        assert len(sharded) == 3
        assert sum(len(s) == 0 for s in sharded.shard_collections) >= 13
        plain = Collection("sparse", 8)
        plain.upsert(points)
        for q in unit_vectors(4, 8, 9):
            assert_hits_equivalent(
                sharded.search(q, 5, exact=True),
                plain.search(q, 5, exact=True),
            )

    def test_all_points_on_one_shard(self):
        """Adversarial skew: every id hashes to the same shard of 4."""
        dim, shards = 16, 4
        skewed_ids = [f"skew-{i}" for i in range(4000)
                      if shard_for(f"skew-{i}", shards) == 0][:120]
        assert len(skewed_ids) == 120
        vecs = unit_vectors(len(skewed_ids), dim, 3)
        points = [
            PointStruct(pid, vecs[i], {"stars": float(i % 5) + 1.0})
            for i, pid in enumerate(skewed_ids)
        ]
        sharded = ShardedCollection("skew", dim, shards=shards)
        sharded.upsert(points)
        sizes = [len(s) for s in sharded.shard_collections]
        assert sizes[0] == 120 and sum(sizes[1:]) == 0
        plain = Collection("skew", dim)
        plain.upsert(points)
        queries = unit_vectors(6, dim, 33)
        flt = FieldRange("stars", gte=3.0)
        for got, want in zip(
            sharded.search_batch(queries, 7, flt=flt),
            plain.search_batch(queries, 7, flt=flt),
        ):
            assert_hits_equivalent(got, want)

    def test_empty_collection_and_batch(self):
        sharded = ShardedCollection("empty", 8, shards=3)
        assert sharded.search(unit_vectors(1, 8, 0)[0], 5) == []
        assert sharded.search_batch(unit_vectors(3, 8, 0), 5) == [[], [], []]
        assert sharded.search_batch(np.zeros((0, 8), np.float32), 5) == []
        assert sharded.count() == 0
        assert sharded.scroll() == []

    def test_dimension_mismatch(self):
        sharded = ShardedCollection("d", 8, shards=2)
        with pytest.raises(DimensionMismatch):
            sharded.search(np.zeros(4, np.float32), 3)
        with pytest.raises(DimensionMismatch):
            sharded.search_batch(np.zeros((2, 4), np.float32), 3)


class TestKEdgeCases:
    """``k = 0``, oversized ``k``, and all-empty shards truncate gracefully
    instead of raising or returning wrong-length results (both backends)."""

    def _backends(self, n: int = 12):
        plain = Collection("edge", 8)
        sharded = ShardedCollection("edge", 8, shards=3)
        if n:
            points = make_points(n, 8, seed=5)
            plain.upsert(points)
            sharded.upsert(points)
        return plain, sharded

    @pytest.mark.parametrize("exact", [True, False])
    def test_k_zero_returns_empty(self, exact):
        q = unit_vectors(1, 8, seed=6)[0]
        for backend in self._backends():
            assert backend.search(q, 0, exact=exact) == []
            assert backend.search_batch([q, q], 0, exact=exact) == [[], []]

    def test_k_zero_with_filter(self):
        q = unit_vectors(1, 8, seed=6)[0]
        flt = FieldMatch("city", "city1")
        for backend in self._backends():
            assert backend.search(q, 0, flt=flt) == []

    @pytest.mark.parametrize("exact", [True, False])
    def test_k_beyond_population_truncates(self, exact):
        q = unit_vectors(1, 8, seed=7)[0]
        for backend in self._backends(n=12):
            hits = backend.search(q, 100, exact=exact)
            assert len(hits) == 12
            assert len({h.id for h in hits}) == 12
            batch = backend.search_batch([q], 100, exact=exact)
            assert len(batch[0]) == 12

    def test_negative_k_raises(self):
        q = unit_vectors(1, 8, seed=8)[0]
        for backend in self._backends():
            with pytest.raises(ValueError):
                backend.search(q, -1)
            with pytest.raises(ValueError):
                backend.search_batch([q], -1)

    @pytest.mark.parametrize("exact", [True, False])
    def test_all_empty_shards(self, exact):
        q = unit_vectors(1, 8, seed=9)[0]
        for backend in self._backends(n=0):
            assert backend.search(q, 5, exact=exact) == []
            assert backend.search_batch([q, q], 5, exact=exact) == [[], []]
            assert backend.search(q, 0, exact=exact) == []

    def test_merge_top_k_edges(self):
        from repro.vectordb.sharded import _merge_top_k
        from repro.vectordb.collection import SearchHit

        hit = SearchHit(id="a", score=0.5, payload={})
        assert _merge_top_k([], 5) == []
        assert _merge_top_k([[hit]], 0) == []
        assert _merge_top_k([[hit], []], 3) == [hit]


class TestWrites:
    def test_payload_update_and_retrieve(self):
        _, sharded = build_pair(1, 8, 3, n=60)
        sharded.set_payload("p5", {"stars": 9.5})
        assert sharded.retrieve("p5").payload["stars"] == 9.5
        # upsert with identical vector merges payload, inserts nothing
        points = make_points(60, 8, 1)
        assert sharded.upsert([points[5]]) == 0
        with pytest.raises(PointNotFound):
            sharded.retrieve("nope")
        with pytest.raises(PointNotFound):
            sharded.set_payload("nope", {})

    def test_reupsert_different_vector_raises(self):
        _, sharded = build_pair(2, 8, 3, n=40)
        bad = PointStruct("p3", unit_vectors(1, 8, 99)[0], {})
        with pytest.raises(CollectionError):
            sharded.upsert([bad])

    def test_close_releases_pool_idempotently(self):
        _, sharded = build_pair(4, 8, 3, n=60)
        sharded.search(unit_vectors(1, 8, 0)[0], 3, exact=True)
        sharded.close()
        sharded.close()  # idempotent
        assert sharded.retrieve("p0").id == "p0"

    def test_closed_collection_still_answers_every_read(self, tmp_path):
        """close() releases the shard WALs and nothing a read needs, so
        no read path works only by accident."""
        plain, sharded = build_pair(4, 8, 4, n=60)
        attach_wal(sharded, tmp_path / "snap")
        wals = [shard.wal for shard in sharded.shard_collections]
        sharded.close()
        for wal in wals:
            with pytest.raises(CollectionError, match="closed"):
                wal.append_create_index("city")
        assert sharded.wal_stats() is None
        queries = unit_vectors(3, 8, 5)
        flt = FieldMatch("city", "city1")
        assert_hits_equivalent(
            sharded.search(queries[0], 5, exact=True),
            plain.search(queries[0], 5, exact=True),
        )
        for got, want in zip(
            sharded.search_batch(queries, 4, flt=flt),
            plain.search_batch(queries, 4, flt=flt),
        ):
            assert_hits_equivalent(got, want)
        assert sharded.count(flt) == plain.count(flt) == 20
        assert sharded.scroll(flt) == plain.scroll(flt)
        assert sharded.retrieve("p0") == plain.retrieve("p0")

    def test_partial_failure_keeps_routing_consistent(self):
        """A batch that raises mid-way (like Collection.upsert) leaves the
        order/routing tables matching what actually landed in shards."""
        sharded = ShardedCollection("partial", 8, shards=3)
        good = make_points(4, 8, 7)
        bad = PointStruct("wrong-dim", np.zeros(4, np.float32), {})
        with pytest.raises(DimensionMismatch):
            sharded.upsert(good + [bad])
        assert len(sharded) == 4
        assert [h.id for h in sharded.scroll()] == [p.id for p in good]
        for p in good:
            assert sharded.retrieve(p.id).id == p.id
        with pytest.raises(PointNotFound):
            sharded.retrieve("wrong-dim")


@pytest.fixture()
def short_switch_interval():
    """Hand the GIL over every 10 µs, so racing threads interleave."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def _assert_holds_each_id_once(sharded, ids, snapshot):
    assert len(sharded) == sharded.count() == len(ids)
    assert sorted(sharded.point_order) == sorted(ids)
    save_collection(sharded, snapshot)
    loaded = load_collection(snapshot)
    assert sorted(loaded.point_order) == sorted(ids)
    loaded.close()


class TestOneNewIdTwoWriters:
    """What is a new id is decided under the write lock: two upserts of
    one unknown id add it to the insertion order once (twice, and the
    snapshot saved and then refused to load)."""

    def test_a_write_made_while_the_points_are_drawn(self, tmp_path):
        sharded = ShardedCollection("reentrant", 8, shards=2)
        [point] = make_points(1, 8, 3)

        def points():
            yield point
            sharded.upsert([point])

        assert sharded.upsert(points()) == 0
        assert sharded.shard_collections[shard_for(point.id, 2)].count() == 1
        _assert_holds_each_id_once(sharded, [point.id], tmp_path / "snap")

    def test_writers_racing_on_real_threads(
        self, tmp_path, short_switch_interval
    ):
        writers, rounds = 4, 40
        sharded = ShardedCollection("race", 8, shards=2)
        points = make_points(rounds, 8, 5)
        lined_up = threading.Barrier(writers + 1)
        written = threading.Barrier(writers + 1)
        inserted = []

        def write_each():
            for point in points:
                lined_up.wait(timeout=10)
                inserted.append(sharded.upsert([point]))
                written.wait(timeout=10)

        threads = [threading.Thread(target=write_each) for _ in range(writers)]
        for thread in threads:
            thread.start()
        for _ in points:
            # Held while the writers arrive: every one of them meets the
            # new id before any of them can have stored it.
            with sharded.write_lock:
                lined_up.wait(timeout=10)
                time.sleep(0.002)
            written.wait(timeout=10)
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert sum(inserted) == rounds
        _assert_holds_each_id_once(
            sharded, [p.id for p in points], tmp_path / "snap"
        )


class TestClientIntegration:
    def test_create_collection_shards(self):
        client = VectorDBClient()
        sharded = client.create_collection("s", dim=8, shards=4)
        assert isinstance(sharded, ShardedCollection)
        plain = client.create_collection("p", dim=8)
        assert isinstance(plain, Collection)
        assert client.create_collection(
            "s", dim=8, exist_ok=True, shards=4
        ) is sharded
        with pytest.raises(CollectionError):
            client.create_collection("bad", dim=8, shards=0)
        # exist_ok must not silently hand back a differently-sharded backend
        with pytest.raises(CollectionError, match="shard"):
            client.create_collection("s", dim=8, exist_ok=True)
        with pytest.raises(CollectionError, match="shard"):
            client.create_collection("p", dim=8, exist_ok=True, shards=2)

    def test_passthroughs_work_sharded(self):
        client = VectorDBClient()
        client.create_collection("s", dim=8, shards=3)
        points = make_points(50, 8, 4)
        client.upsert("s", points)
        assert client.count("s") == 50
        hits = client.search("s", points[0].vector, k=3, exact=True)
        assert hits[0].id == "p0"
        batch = client.search_batch(
            "s", np.stack([p.vector for p in points[:4]]), k=3, exact=True
        )
        assert [h[0].id for h in batch] == ["p0", "p1", "p2", "p3"]


class TestShardedPersistence:
    def test_round_trip(self, tmp_path):
        _, sharded = build_pair(3, 16, 4, n=150)
        sharded.create_payload_index("city")
        save_collection(sharded, tmp_path / "snap")
        loaded = load_collection(tmp_path / "snap")
        assert isinstance(loaded, ShardedCollection)
        assert loaded.n_shards == 4
        assert loaded.dim == 16
        assert len(loaded) == 150
        assert loaded.indexed_payload_fields == frozenset({"city"})
        assert [h.id for h in loaded.scroll()] == [
            h.id for h in sharded.scroll()
        ]
        queries = unit_vectors(6, 16, 77)
        flt = FieldMatch("city", "city1")
        for got, want in zip(
            loaded.search_batch(queries, 5, flt=flt),
            sharded.search_batch(queries, 5, flt=flt),
        ):
            assert_hits_equivalent(got, want)

    def test_single_shard_round_trip(self, tmp_path):
        """Regression: a 1-shard ShardedCollection snapshot must load
        back through the sharded layout, not the plain-collection one."""
        sharded = ShardedCollection("one", 8, shards=1)
        sharded.upsert(make_points(20, 8, 9))
        save_collection(sharded, tmp_path / "snap")
        loaded = load_collection(tmp_path / "snap")
        assert isinstance(loaded, ShardedCollection)
        assert loaded.n_shards == 1
        assert [h.id for h in loaded.scroll()] == [
            h.id for h in sharded.scroll()
        ]

    def test_round_trip_preserves_hnsw_config(self, tmp_path):
        cfg = HnswConfig(m=6, ef_construction=37, ef_search=21, seed=13)
        sharded = ShardedCollection("h", 8, hnsw=cfg, shards=3)
        sharded.upsert(make_points(30, 8, 6))
        save_collection(sharded, tmp_path / "snap")
        loaded = load_collection(tmp_path / "snap")
        assert loaded.hnsw_config == cfg
        for shard in loaded.shard_collections:
            assert shard.hnsw_config == cfg

    def test_from_shards_rejects_inconsistency(self):
        a = Collection("a", 8)
        a.upsert(make_points(10, 8, 0))
        b = Collection("b", 8)
        b.upsert(make_points(10, 8, 0))  # same ids as a
        with pytest.raises(CollectionError, match="multiple shards"):
            ShardedCollection.from_shards(
                "x", [a, b], order=[f"p{i}" for i in range(10)]
            )
        c = Collection("c", 4)
        with pytest.raises(CollectionError, match="dims differ"):
            ShardedCollection.from_shards("x", [a, c], order=[])
        with pytest.raises(CollectionError, match="order"):
            ShardedCollection.from_shards("x", [a], order=["p0"])


class TestPipelineOverShardedBackend:
    def test_semask_em_equivalent(self, tiny_corpus):
        from repro.eval.corpus import build_corpus

        sharded_corpus = build_corpus("SB", seed=11, count=200, shards=4)
        assert isinstance(
            sharded_corpus.prepared.client.get_collection(
                sharded_corpus.prepared.collection_name
            ),
            ShardedCollection,
        )
        center = tiny_corpus.city.center
        queries = [
            SpatialKeywordQuery.around(center, "cozy coffee shop", 5.0, 5.0),
            SpatialKeywordQuery.around(center, "family pizza place", 3.0, 3.0),
        ]
        plain_system = semask_em(tiny_corpus.prepared)
        sharded_system = semask_em(sharded_corpus.prepared)
        plain_batch = plain_system.query_many(queries)
        sharded_batch = sharded_system.query_many(queries)
        for a, b in zip(sharded_batch, plain_batch):
            assert [e.business_id for e in a.entries] == [
                e.business_id for e in b.entries
            ]


class _SlowPayload(dict):
    """A payload that takes a millisecond to copy: ``dict(payload)`` is
    a step in the middle of an upsert, and this holds the writer there."""

    def __iter__(self):
        return super().__iter__()

    def keys(self):
        time.sleep(0.001)
        return super().keys()


class TestSearchRacingUpsert:
    """Reads take no lock: a search racing single-point upserts answers
    over the population some moment of the race held — per shard, a
    prefix of its insertion order — and never raises. Before
    ``len(_ids)`` became the publication point each of these paths hit
    an ``IndexError`` on a half-applied upsert; the writer here pauses
    inside its upserts (after the graph has the node, and while the
    payload is copied) so a reader is certain to look in."""

    DIM, BASE, WRITES, K = 16, 150, 100, 5
    PATHS = {
        "filtered": {"flt": FieldMatch("kind", "poi")},
        "exact": {"exact": True},
        "graph": {},
        "filtered-graph": {"flt": FieldMatch("kind", "poi")},
    }

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("shards", [1, 2])
    def test_hits_are_the_top_k_of_a_prefix_population(
        self, path, shards, short_switch_interval, monkeypatch
    ):
        if path == "filtered-graph":
            monkeypatch.setattr(Collection, "BRUTE_FORCE_THRESHOLD", 8)
        elif path == "graph":
            # Keep the graph walk: below the threshold a search scans.
            monkeypatch.setattr(Collection, "BRUTE_FORCE_THRESHOLD", 0)
        graph_add = HNSWIndex.add

        def slow_add(index, vector):
            node = graph_add(index, vector)
            time.sleep(0.001)
            return node

        monkeypatch.setattr(HNSWIndex, "add", slow_add)
        total = self.BASE + self.WRITES
        vectors = unit_vectors(total + 1, self.DIM, seed=5)
        query, vectors = vectors[-1], vectors[:-1]
        # the written points crowd the query, so each enters the top-k
        # the moment any index knows of it
        vectors[self.BASE:] = 0.3 * vectors[self.BASE:] + query
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        points = [
            PointStruct(f"p{i}", vectors[i], _SlowPayload(kind="poi"))
            for i in range(total)
        ]
        collection = (
            Collection("race", self.DIM) if shards == 1
            else ShardedCollection("race", self.DIM, shards=shards)
        )
        collection.upsert(points[: self.BASE])
        collection.build_hnsw()
        parts = getattr(collection, "shard_collections", (collection,))
        # each part's points as global indices, in its insertion order
        members = [
            [i for i in range(total) if shard_for(f"p{i}", shards) == part]
            for part in range(shards)
        ]
        failures: list[BaseException] = []

        def write() -> None:
            try:
                for point in points[self.BASE:]:
                    collection.upsert([point])
            except BaseException as exc:  # surfaced by the assert below
                failures.append(exc)

        writer = threading.Thread(target=write, name="race-writer")
        seen = []
        writer.start()
        try:
            while writer.is_alive():
                before = [len(part) for part in parts]
                hits = collection.search(query, self.K, **self.PATHS[path])
                seen.append((before, hits, [len(part) for part in parts]))
        finally:
            writer.join(timeout=60.0)
        assert not writer.is_alive() and not failures
        assert len(collection) == total

        scores = vectors @ query
        for before, hits, after in seen:
            found = [int(hit.id[1:]) for hit in hits]
            for hit, index in zip(hits, found):
                assert hit.score == pytest.approx(scores[index], abs=1e-5)
            population: list[int] = []
            for part, low, high in zip(members, before, after):
                positions = [part.index(i) for i in found if i in part]
                reach = max([low, *(p + 1 for p in positions)])
                assert reach <= high  # nothing from after the search
                population += part[:reach]
            if "graph" in path:
                # a traversal is approximate (and a filtered one drops
                # what the race added from its beam): the hits are
                # real members of the prefix, best first
                assert sorted(found, key=lambda i: -scores[i]) == found
                continue
            ranked = sorted(population, key=lambda i: -scores[i])
            assert found == ranked[: self.K]
