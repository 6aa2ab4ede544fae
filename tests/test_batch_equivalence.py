"""Equivalence suite: batched read paths ≡ the per-query kernels.

The batch execution engine (``search_batch`` / ``embed_batch`` /
``query_many``) is an amortization, not a different algorithm; these
property-style tests pin that guarantee over randomized seeds, dims, and
``k`` on every dispatch path (flat exact, HNSW, filtered brute-force,
filtered HNSW-with-predicate), for the embedders, and for the full
pipeline under the simulated LLM.

``Collection.search``, ``FilteringStage.run`` and ``SemaSK.query`` are
batches of one, so comparing a batch against them would compare the
engine with itself. The collection- and pipeline-level cases are
anchored on oracles assembled here from the per-query kernels instead
(``FlatIndex.search`` over the payload-filtered node subset, the
collection's graph searched with the same predicate and ``ef``,
per-query embed + search + ``RefinementStage``), and
``TestSearchIsBatchOfOne`` pins the single-query entry points to the
batch path, edge cases and errors included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.filtering import Candidate
from repro.core.query import SpatialKeywordQuery
from repro.core.refinement import RefinementStage
from repro.core.variants import semask, semask_em
from repro.embeddings.cache import CachingEmbedder
from repro.embeddings.hashed import HashedNgramEmbedder
from repro.embeddings.semantic import SemanticEmbedder
from repro.errors import DeadlineExceeded, DimensionMismatch
from repro.vectordb.collection import Collection, PointStruct, SearchHit
from repro.vectordb.deadline import Deadline
from repro.vectordb.filters import (
    And,
    FieldMatch,
    FieldRange,
    GeoBoundingBoxFilter,
)
from repro.vectordb.flat import FlatIndex
from repro.vectordb.hnsw import HNSWIndex
from repro.vectordb.sharded import ShardedCollection

CASES = [(0, 8, 1), (1, 16, 5), (2, 32, 10), (3, 64, 3)]


def unit_vectors(n: int, dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((n, dim)).astype(np.float32)
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def point_payload(i: int) -> dict:
    return {"city": f"city{i % 3}", "stars": float(i % 5) + 1.0}


def build_collection(
    seed: int, dim: int, n: int = 300, shards: int | None = None
) -> Collection | ShardedCollection:
    vecs = unit_vectors(n, dim, seed)
    if shards is None:
        collection = Collection(f"c{seed}", dim)
    else:
        collection = ShardedCollection(f"c{seed}", dim, shards=shards)
    collection.upsert(
        PointStruct(id=f"p{i}", vector=vecs[i], payload=point_payload(i))
        for i in range(n)
    )
    return collection


class Oracle:
    """Per-query reference for ``build_collection(seed, dim, n)``.

    Rebuilt from the generating vectors and payloads, so nothing here
    goes through ``Collection.search*``: filters are evaluated by a
    plain scan and scoring is ``FlatIndex.search`` (exact paths) or the
    collection's own graph searched one query at a time (graph paths).
    """

    def __init__(self, seed: int, dim: int, n: int = 300) -> None:
        self.flat = FlatIndex.from_matrix(unit_vectors(n, dim, seed))
        self.payloads = [point_payload(i) for i in range(n)]

    def matching(self, flt) -> np.ndarray:
        return np.array(
            [i for i, p in enumerate(self.payloads) if flt.matches(p)],
            dtype=np.int64,
        )

    def hits(self, raw) -> list[SearchHit]:
        return [
            SearchHit(id=f"p{node}", score=score, payload=self.payloads[node])
            for node, score in raw
        ]

    def exact(self, query, k, flt=None) -> list[SearchHit]:
        subset = None if flt is None else self.matching(flt)
        return self.hits(self.flat.search(query, k, subset=subset))

    def graph(self, collection, query, k, flt=None) -> list[SearchHit]:
        def predicate(node: int) -> bool:
            return flt.matches(self.payloads[node])

        return self.hits(collection.hnsw_index.search(
            query, k, ef=collection.hnsw_config.ef_search,
            predicate=None if flt is None else predicate,
        ))


def assert_hits_equivalent(batch_hits, single_hits):
    assert [h.id for h in batch_hits] == [h.id for h in single_hits]
    np.testing.assert_allclose(
        [h.score for h in batch_hits],
        [h.score for h in single_hits],
        rtol=0, atol=1e-5,
    )
    for b, s in zip(batch_hits, single_hits):
        assert b.payload == s.payload


@pytest.mark.parametrize("seed,dim,k", CASES)
class TestFlatSearchBatch:
    def test_unrestricted(self, seed, dim, k):
        vecs = unit_vectors(200, dim, seed)
        flat = FlatIndex(dim)
        for v in vecs:
            flat.add(v)
        queries = unit_vectors(16, dim, seed + 100)
        batch = flat.search_batch(queries, k)
        for row, q in zip(batch, queries):
            single = flat.search(q, k)
            assert [node for node, _ in row] == [node for node, _ in single]
            np.testing.assert_allclose(
                [s for _, s in row], [s for _, s in single], atol=1e-5
            )

    def test_subset_and_predicate(self, seed, dim, k):
        vecs = unit_vectors(200, dim, seed)
        flat = FlatIndex(dim)
        for v in vecs:
            flat.add(v)
        queries = unit_vectors(8, dim, seed + 200)
        # every third node that is also even: the old predicate's
        # restriction, folded into the subset
        subset = np.arange(0, 200, 6, dtype=np.int64)
        batch = flat.search_batch(queries, k, subset=subset)
        for row, q in zip(batch, queries):
            single = flat.search(q, k, subset=subset)
            assert [node for node, _ in row] == [node for node, _ in single]
            assert {node for node, _ in row} <= set(subset.tolist())


def test_flat_search_batch_euclidean_near_duplicates():
    """EUCLIDEAN batch scoring must use the same kernel as single search.

    Near-duplicate vectors make the a²+b²−2ab expansion cancel
    catastrophically in float32; batch rows must match single-query
    scores exactly, not just approximately.
    """
    from repro.vectordb.distance import Metric

    rng = np.random.default_rng(5)
    base = rng.standard_normal(16).astype(np.float32)
    base /= np.linalg.norm(base)
    flat = FlatIndex(16, metric=Metric.EUCLIDEAN)
    for i in range(50):
        flat.add(base + np.float32(1e-7) * rng.standard_normal(16).astype(np.float32))
    queries = np.stack([base, base + np.float32(1e-7)])
    batch = flat.search_batch(queries, 10)
    singles = [flat.search(q, 10) for q in queries]
    assert batch == singles


@pytest.mark.parametrize("seed,dim,k", CASES)
class TestHnswSearchBatch:
    def test_matches_per_query_search(self, seed, dim, k):
        vecs = unit_vectors(400, dim, seed)
        index = HNSWIndex(dim, m=8, ef_construction=40, seed=seed + 1)
        for v in vecs:
            index.add(v)
        queries = unit_vectors(10, dim, seed + 300)
        batch = index.search_batch(queries, k, ef=48)
        singles = [index.search(q, k, ef=48) for q in queries]
        assert batch == singles

    def test_with_predicate(self, seed, dim, k):
        vecs = unit_vectors(400, dim, seed)
        index = HNSWIndex(dim, m=8, ef_construction=40, seed=seed + 1)
        for v in vecs:
            index.add(v)
        queries = unit_vectors(6, dim, seed + 400)
        def pred(n):
            return n % 3 != 0
        batch = index.search_batch(queries, k, ef=48, predicate=pred)
        singles = [index.search(q, k, ef=48, predicate=pred) for q in queries]
        assert batch == singles


@pytest.mark.parametrize("seed,dim,k", CASES)
class TestCollectionSearchBatch:
    def test_exact_unfiltered(self, seed, dim, k):
        collection = build_collection(seed, dim)
        oracle = Oracle(seed, dim)
        queries = unit_vectors(12, dim, seed + 500)
        batch = collection.search_batch(queries, k, exact=True)
        for hits, q in zip(batch, queries):
            assert_hits_equivalent(hits, oracle.exact(q, k))

    def test_hnsw_unfiltered(self, seed, dim, k):
        collection = build_collection(seed, dim)
        oracle = Oracle(seed, dim)
        # Force the graph walk for an unfiltered search.
        collection.BRUTE_FORCE_THRESHOLD = 0
        queries = unit_vectors(12, dim, seed + 600)
        batch = collection.search_batch(queries, k)
        for hits, q in zip(batch, queries):
            assert_hits_equivalent(hits, oracle.graph(collection, q, k))

    def test_filtered_brute_force_path(self, seed, dim, k):
        collection = build_collection(seed, dim)
        oracle = Oracle(seed, dim)
        flt = And(FieldMatch("city", "city1"), FieldRange("stars", gte=2.0))
        queries = unit_vectors(12, dim, seed + 700)
        batch = collection.search_batch(queries, k, flt=flt)
        for hits, q in zip(batch, queries):
            assert_hits_equivalent(hits, oracle.exact(q, k, flt))
            assert all(h.payload["city"] == "city1" for h in hits)

    def test_filtered_hnsw_predicate_path(self, seed, dim, k):
        collection = build_collection(seed, dim)
        oracle = Oracle(seed, dim)
        # Force the graph-with-predicate dispatch for broad filters.
        collection.BRUTE_FORCE_THRESHOLD = 0
        flt = FieldRange("stars", gte=2.0)
        queries = unit_vectors(8, dim, seed + 800)
        batch = collection.search_batch(queries, k, flt=flt)
        for hits, q in zip(batch, queries):
            assert_hits_equivalent(
                hits, oracle.graph(collection, q, k, flt)
            )

    def test_indexed_filter_path(self, seed, dim, k):
        collection = build_collection(seed, dim)
        oracle = Oracle(seed, dim)
        collection.create_payload_index("city")
        flt = FieldMatch("city", "city2")
        queries = unit_vectors(8, dim, seed + 900)
        batch = collection.search_batch(queries, k, flt=flt)
        for hits, q in zip(batch, queries):
            assert_hits_equivalent(hits, oracle.exact(q, k, flt))


def test_filtered_graph_search_ignores_points_upserted_mid_search(monkeypatch):
    """A point that lands between filter evaluation and traversal is in
    the graph but not in the filter's answer: skipped, not an error."""
    collection = build_collection(0, 8)
    collection.BRUTE_FORCE_THRESHOLD = 0
    collection.build_hnsw()
    query = unit_vectors(1, 8, 0)[0]  # p0's own vector
    flt = FieldRange("stars", gte=0.0)
    expected = [h.id for h in collection.search(query, 3, flt=flt)]
    real_build = Collection.build_hnsw

    def upsert_then_build(self, force=False):
        monkeypatch.setattr(Collection, "build_hnsw", real_build)
        self.upsert(
            [PointStruct(id="late", vector=query, payload=point_payload(0))]
        )
        return real_build(self, force)

    monkeypatch.setattr(Collection, "build_hnsw", upsert_then_build)
    assert [h.id for h in collection.search(query, 3, flt=flt)] == expected


def _outcome(call):
    """A call's result, or the type of the exception it raised."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


@pytest.mark.parametrize("shards", [None, 3], ids=["single", "sharded"])
@pytest.mark.parametrize(
    "n,query_dim,k,kwargs,expected",
    [
        (300, 8, 5, {}, 5),
        (300, 8, 5, {"exact": True}, 5),
        (300, 8, 5, {"flt": FieldMatch("city", "city1")}, 5),
        (300, 8, 5, {"flt": FieldMatch("city", "nowhere")}, 0),
        (300, 8, 0, {}, 0),
        (300, 8, 1000, {"exact": True}, 300),
        (300, 8, 1000, {"flt": FieldMatch("city", "city1")}, 100),
        (0, 8, 5, {}, 0),
        (300, 4, 5, {}, DimensionMismatch),
        (300, 8, -1, {}, ValueError),
        (300, 8, 5, {"deadline": Deadline.after(0)}, DeadlineExceeded),
    ],
    ids=[
        "graph", "exact", "filtered", "no-match", "k0", "oversized-k",
        "oversized-k-filtered", "empty-collection", "wrong-shape",
        "negative-k", "expired-deadline",
    ],
)
def test_search_is_batch_of_one(shards, n, query_dim, k, kwargs, expected):
    """``search(v, …)`` ≡ ``search_batch(v[None], …)[0]``, errors included.

    ``expected`` is the hit count, or the exception type both must raise.
    """
    collection = build_collection(0, 8, n=n, shards=shards)
    query = unit_vectors(1, query_dim, 42)[0]
    try:
        single = _outcome(lambda: collection.search(query, k, **kwargs))
        batch = _outcome(
            lambda: collection.search_batch(query[None], k, **kwargs)[0]
        )
    finally:
        collection.close()
    assert single == batch
    if isinstance(expected, int):
        assert len(single) == expected
    else:
        assert single is expected


class TestCollectionSearchBatchEdges:
    def test_empty_batch(self):
        collection = build_collection(0, 8)
        assert collection.search_batch(np.zeros((0, 8), np.float32), 5) == []

    def test_empty_collection(self):
        collection = Collection("empty", 8)
        queries = unit_vectors(3, 8, 0)
        assert collection.search_batch(queries, 5) == [[], [], []]

    def test_no_filter_matches(self):
        collection = build_collection(0, 8)
        queries = unit_vectors(3, 8, 1)
        batch = collection.search_batch(
            queries, 5, flt=FieldMatch("city", "nowhere")
        )
        assert batch == [[], [], []]

    def test_bad_shape_raises(self):
        collection = build_collection(0, 8)
        with pytest.raises(DimensionMismatch):
            collection.search_batch(unit_vectors(3, 4, 0), 5)

    def test_count_uses_payload_index(self):
        collection = build_collection(0, 8)
        expected = collection.count(FieldMatch("city", "city1"))
        collection.create_payload_index("city")
        assert collection.count(FieldMatch("city", "city1")) == expected
        assert collection.count() == 300


TEXTS = [
    "cozy coffee shop with pastries",
    "bar to watch football with chicken wings",
    "cozy coffee shop with pastries",   # deliberate repeat
    "romantic italian dinner",
    "vegan brunch place",
]


class TestEmbedBatchEquivalence:
    @pytest.mark.parametrize("dim", [64, 256])
    def test_hashed_bitwise(self, dim):
        model = HashedNgramEmbedder(dim=dim)
        batch = model.embed_batch(TEXTS)
        singles = np.stack([model.embed(t) for t in TEXTS])
        assert np.array_equal(batch, singles)

    def test_semantic_bitwise(self):
        model = SemanticEmbedder(dim=64)
        batch = model.embed_batch(TEXTS)
        singles = np.stack([model.embed(t) for t in TEXTS])
        assert np.array_equal(batch, singles)

    def test_empty_batch(self):
        model = HashedNgramEmbedder(dim=32)
        assert model.embed_batch([]).shape == (0, 32)

    def test_caching_bitwise_and_counters(self):
        model = CachingEmbedder(HashedNgramEmbedder(dim=64))
        singles = np.stack([model.embed(t) for t in TEXTS])
        model.clear()
        batch = model.embed_batch(TEXTS)
        assert np.array_equal(batch, singles)
        # 4 unique texts missed; the in-batch repeat counts as a hit.
        assert model.misses == 4
        assert model.hits == 1
        again = model.embed_batch(TEXTS)
        assert np.array_equal(again, singles)
        assert model.misses == 4
        assert model.hits == 1 + len(TEXTS)

    def test_caching_batch_seeds_single_lookups(self):
        model = CachingEmbedder(HashedNgramEmbedder(dim=64))
        model.embed_batch(TEXTS)
        misses_after_batch = model.misses
        model.embed(TEXTS[0])
        assert model.misses == misses_after_batch


class TestSharedClientThreadSafety:
    def test_concurrent_identical_prompts_pay_once(self):
        """Concurrent misses on one prompt dedup to a single paid call."""
        import threading

        from repro.llm.base import ChatMessage
        from repro.llm.prompts import build_summarize_prompt
        from repro.llm.response_cache import CachingLLMClient
        from repro.llm.simulated import SimulatedLLM

        client = CachingLLMClient(SimulatedLLM())
        prompt = build_summarize_prompt(["great coffee", "cozy seats"])
        results = []
        lock = threading.Lock()

        def worker():
            completion = client.chat(
                "gpt-3.5-turbo", [ChatMessage("user", prompt)]
            )
            with lock:
                results.append(completion)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert client.inner.ledger.total_calls() == 1   # paid once
        assert client.ledger.total_calls() == 8         # 8 logical calls
        assert client.hits + client.misses == 8
        assert len({r.content for r in results}) == 1   # identical answers

    def test_hnsw_concurrent_searches_match_serial(self):
        """Thread-local visited stamps keep concurrent reads consistent."""
        import threading

        vecs = unit_vectors(800, 16, seed=6)
        index = HNSWIndex(16, m=8, ef_construction=40, seed=7)
        for v in vecs:
            index.add(v)
        queries = unit_vectors(20, 16, seed=8)
        expected = [index.search(q, 5, ef=40) for q in queries]
        outputs = [None] * 4

        def worker(slot):
            outputs[slot] = [index.search(q, 5, ef=40) for q in queries]

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(out == expected for out in outputs)


def _pipeline_queries(corpus) -> list[SpatialKeywordQuery]:
    center = corpus.city.center
    return [
        SpatialKeywordQuery.around(center, "cozy coffee shop", 5.0, 5.0),
        SpatialKeywordQuery.around(center, "bar with live music", 5.0, 5.0),
        SpatialKeywordQuery.around(center, "cozy coffee shop", 3.0, 3.0),
        SpatialKeywordQuery.around(center, "family pizza restaurant", 3.0, 3.0),
    ]


def oracle_entries(corpus, system, query):
    """``(entries, filtered_out)`` as ``(id, reason, score)`` triples.

    One query's answer assembled from the stages' per-query primitives —
    embed, geo-filtered search, ``RefinementStage`` — without touching
    ``FilteringStage`` or ``SemaSK.query*``.
    """
    prepared = corpus.prepared
    config = system.config
    hits = prepared.client.search(
        prepared.collection_name,
        prepared.embedder.embed(query.text),
        config.candidate_k,
        flt=GeoBoundingBoxFilter("location", query.range),
    )
    candidates = [
        Candidate(
            business_id=hit.id,
            name=str(hit.payload.get("name", hit.id)),
            score=hit.score,
            payload=hit.payload,
        )
        for hit in hits
    ]
    if config.refine_model is None:
        return [(c.business_id, "", c.score) for c in candidates], []
    outcome = RefinementStage(system.llm, config.refine_model).run(
        query.text, candidates
    )
    n = max(len(outcome.accepted), 1)
    return (
        [
            (c.business_id, reason, 1.0 - rank / n)
            for rank, (c, reason) in enumerate(outcome.accepted)
        ],
        [
            (c.business_id, "Filtered out by the LLM refinement step.",
             c.score)
            for c in outcome.rejected
        ],
    )


def assert_matches_oracle(result, query, oracle):
    assert result.query_text == query.text
    for got, want in zip((result.entries, result.filtered_out), oracle):
        assert [(e.business_id, e.reason) for e in got] == [
            (business_id, reason) for business_id, reason, _ in want
        ]
        np.testing.assert_allclose(
            [e.score for e in got], [score for _, _, score in want],
            rtol=0, atol=1e-5,
        )
    assert result.candidates_considered == len(oracle[0]) + len(oracle[1])


def assert_system_matches_oracle(corpus, system):
    queries = _pipeline_queries(corpus)
    oracles = [oracle_entries(corpus, system, q) for q in queries]
    assert any(entries for entries, _ in oracles)
    batch = system.query_many(queries)
    assert len(batch) == len(queries)
    for result, query, oracle in zip(batch, queries, oracles):
        assert_matches_oracle(result, query, oracle)
        assert_matches_oracle(system.query(query), query, oracle)


class TestQueryManyEquivalence:
    def test_refined_variant(self, tiny_corpus):
        assert_system_matches_oracle(
            tiny_corpus, semask(tiny_corpus.prepared, llm=tiny_corpus.llm)
        )

    def test_embedding_only_variant(self, tiny_corpus):
        assert_system_matches_oracle(
            tiny_corpus, semask_em(tiny_corpus.prepared)
        )

    def test_empty_batch(self, tiny_corpus):
        system = semask_em(tiny_corpus.prepared)
        assert system.query_many([]) == []
