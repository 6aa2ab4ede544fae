"""Tests for the HNSW index, including recall against exact search."""

from __future__ import annotations

import numpy as np
import pytest

from repro.vectordb.flat import FlatIndex
from repro.vectordb.hnsw import HNSWIndex


def unit_vectors(n: int, dim: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((n, dim)).astype(np.float32)
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


@pytest.fixture(scope="module")
def built_indexes():
    vecs = unit_vectors(1500, 32, seed=1)
    hnsw = HNSWIndex(32, m=12, ef_construction=80, seed=2)
    flat = FlatIndex(32)
    for v in vecs:
        hnsw.add(v)
        flat.add(v)
    return vecs, hnsw, flat


class TestConstruction:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            HNSWIndex(0)
        with pytest.raises(ValueError):
            HNSWIndex(8, m=1)
        with pytest.raises(ValueError):
            HNSWIndex(8, m=16, ef_construction=4)

    def test_wrong_vector_shape_raises(self):
        index = HNSWIndex(8)
        with pytest.raises(ValueError):
            index.add(np.zeros(4, dtype=np.float32))

    def test_node_ids_sequential(self):
        index = HNSWIndex(4)
        vecs = unit_vectors(10, 4)
        ids = [index.add(v) for v in vecs]
        assert ids == list(range(10))

    def test_vector_retrieval(self):
        index = HNSWIndex(4)
        vec = unit_vectors(1, 4)[0]
        node = index.add(vec)
        assert np.allclose(index.vector(node), vec)

    def test_vector_unknown_node_raises(self):
        index = HNSWIndex(4)
        with pytest.raises(KeyError):
            index.vector(0)

    def test_degree_capped(self, built_indexes):
        _, hnsw, _ = built_indexes
        m0 = 2 * hnsw.m
        for node in range(len(hnsw)):
            assert len(hnsw.neighbors_of(node, 0)) <= m0

    def test_level_distribution_decays(self, built_indexes):
        _, hnsw, _ = built_indexes
        levels = [hnsw.level_of(n) for n in range(len(hnsw))]
        level0 = sum(1 for lv in levels if lv == 0)
        level1_plus = sum(1 for lv in levels if lv >= 1)
        assert level0 > 3 * level1_plus  # exponential decay

    def test_graph_stats(self, built_indexes):
        _, hnsw, _ = built_indexes
        stats = hnsw.graph_stats()
        assert stats["nodes"] == 1500
        assert stats["avg_degree_l0"] > 2

    def test_empty_index_stats(self):
        assert HNSWIndex(4).graph_stats()["nodes"] == 0


class TestSearch:
    def test_empty_index_returns_nothing(self):
        assert HNSWIndex(8).search(np.zeros(8, dtype=np.float32), 5) == []

    def test_invalid_k(self, built_indexes):
        _, hnsw, _ = built_indexes
        with pytest.raises(ValueError):
            hnsw.search(np.zeros(32, dtype=np.float32), 0)

    def test_query_shape_validated(self, built_indexes):
        _, hnsw, _ = built_indexes
        with pytest.raises(ValueError):
            hnsw.search(np.zeros(16, dtype=np.float32), 5)

    def test_self_query_returns_self_first(self, built_indexes):
        vecs, hnsw, _ = built_indexes
        results = hnsw.search(vecs[42], 1, ef=64)
        assert results[0][0] == 42

    def test_scores_descending(self, built_indexes):
        vecs, hnsw, _ = built_indexes
        results = hnsw.search(vecs[0], 10, ef=64)
        scores = [s for _, s in results]
        assert scores == sorted(scores, reverse=True)

    def test_recall_at_10_vs_exact(self, built_indexes):
        vecs, hnsw, flat = built_indexes
        queries = unit_vectors(30, 32, seed=9)
        hits = 0
        for q in queries:
            approx = {i for i, _ in hnsw.search(q, 10, ef=80)}
            exact = {i for i, _ in flat.search(q, 10)}
            hits += len(approx & exact)
        recall = hits / (30 * 10)
        assert recall >= 0.85, f"HNSW recall too low: {recall}"

    def test_higher_ef_never_lowers_recall_much(self, built_indexes):
        vecs, hnsw, flat = built_indexes
        queries = unit_vectors(15, 32, seed=11)

        def recall(ef: int) -> float:
            hits = 0
            for q in queries:
                approx = {i for i, _ in hnsw.search(q, 10, ef=ef)}
                exact = {i for i, _ in flat.search(q, 10)}
                hits += len(approx & exact)
            return hits / 150

        assert recall(128) >= recall(16) - 0.05

    def test_predicate_filters_results(self, built_indexes):
        vecs, hnsw, _ = built_indexes
        def even(n):
            return n % 2 == 0
        results = hnsw.search(vecs[0], 10, ef=64, predicate=even)
        assert results
        assert all(node % 2 == 0 for node, _ in results)

    def test_deterministic_given_seed(self):
        vecs = unit_vectors(300, 16, seed=3)
        q = unit_vectors(1, 16, seed=4)[0]
        results = []
        for _ in range(2):
            index = HNSWIndex(16, m=8, ef_construction=40, seed=5)
            for v in vecs:
                index.add(v)
            results.append(index.search(q, 5, ef=40))
        assert results[0] == results[1]


class TestFlatIndex:
    def test_exact_top1_is_argmax(self):
        vecs = unit_vectors(200, 16, seed=6)
        flat = FlatIndex(16)
        for v in vecs:
            flat.add(v)
        q = unit_vectors(1, 16, seed=7)[0]
        top = flat.search(q, 1)[0]
        sims = vecs @ q
        assert top[0] == int(np.argmax(sims))
        assert top[1] == pytest.approx(float(sims.max()), abs=1e-5)

    def test_subset_restriction(self):
        vecs = unit_vectors(50, 8, seed=8)
        flat = FlatIndex(8)
        for v in vecs:
            flat.add(v)
        subset = np.array([3, 7, 11])
        results = flat.search(vecs[0], 5, subset=subset)
        assert {i for i, _ in results} <= set(subset.tolist())

    def test_empty_subset(self):
        flat = FlatIndex(8)
        flat.add(unit_vectors(1, 8)[0])
        assert flat.search(unit_vectors(1, 8)[0], 3, subset=np.array([])) == []

    def test_predicate(self):
        vecs = unit_vectors(40, 8, seed=9)
        flat = FlatIndex(8)
        for v in vecs:
            flat.add(v)
        results = flat.search(vecs[0], 40, subset=np.arange(5))
        assert {i for i, _ in results} == set(range(5))

    def test_k_larger_than_population(self):
        flat = FlatIndex(8)
        vec = unit_vectors(1, 8)[0]
        flat.add(vec)
        assert len(flat.search(vec, 10)) == 1
