"""Tests for the HNSW index, including recall against exact search."""

from __future__ import annotations

import threading

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


def _add_on_another_thread(index: HNSWIndex, vectors) -> None:
    """Run ``index.add`` for each vector to completion on a second thread,
    while the calling thread is paused mid-walk: a deterministic race."""
    thread = threading.Thread(
        target=lambda: [index.add(vector) for vector in vectors]
    )
    thread.start()
    thread.join(timeout=30.0)
    assert not thread.is_alive()


class _AddsBetweenRowAndLength(HNSWIndex):
    """Runs ``race`` once on the ``reader`` thread, between its load of
    ``_adj0`` and its load of ``_adj0_len``: the walk holds the old
    adjacency matrix and reads the length a racing add() wrote."""

    state: dict = {}

    def __getattribute__(self, name):
        state = _AddsBetweenRowAndLength.state
        if threading.get_ident() == state.get("reader"):
            if name == "_adj0_len" and state.pop("armed", False):
                race = state.pop("race")
                race()
            elif name == "_adj0" and "race" in state:
                state["armed"] = True
            else:
                state.pop("armed", None)
        return object.__getattribute__(self, name)


class TestReadRacingAdd:
    """A walk captures the node count once and visits nothing past it,
    whatever a racing add() links or grows meanwhile."""

    def test_walk_straddling_a_grow_stays_inside_its_count(self, monkeypatch):
        # The reader's stamp array is sized when its walk starts; a
        # racing add() that grows the index links nodes past it.
        vecs = unit_vectors(4, 8, seed=41)
        index = HNSWIndex(8, m=4, ef_construction=8, initial_capacity=4)
        for vector in vecs:
            index.add(vector)
        top = max(index.level_of(node) for node in range(4))
        reader = threading.get_ident()
        walks = []
        real = HNSWIndex._take_visit_stamp

        def take(self, *args):
            taken = real(self, *args)
            if threading.get_ident() == reader:
                walks.append(taken)
                if len(walks) == top + 1:  # the layer-0 walk
                    _add_on_another_thread(index, [vecs[0]] * 40)
            return taken

        monkeypatch.setattr(HNSWIndex, "_take_visit_stamp", take)
        hits = index.search(vecs[0], 10)
        assert len(index) == 44
        assert hits[0] == (0, pytest.approx(1.0))
        assert sorted(node for node, _ in hits) == [0, 1, 2, 3]

    def test_old_row_read_with_grown_length_is_not_a_hit(self):
        # Node 0 links to 1, node 1 to 0 and 2. A racing add() grows the
        # index (its adopted matrix is read-only) and links a copy of
        # node 0 into node 0's row, between the walk's read of the old
        # row and of the new length: the slice ends in -1 padding, and
        # node -1 (the grown matrix's zero last row) outscores node 1.
        vectors = np.array([[1, 0], [-0.6, 0.8], [-1, 0]], dtype=np.float32)
        arrays = {
            "header": np.array([1, 3, 2, 4, 8, 0, 0], dtype=np.int64),
            "levels": np.zeros(3, dtype=np.int32),
            "counts": np.array([1, 2, 1], dtype=np.int32),
            "neighbors": np.array([1, 0, 2, 1], dtype=np.int32),
        }
        index = _AddsBetweenRowAndLength.from_arrays(vectors, arrays)
        _AddsBetweenRowAndLength.state = {
            "reader": threading.get_ident(),
            "race": lambda: _add_on_another_thread(index, [vectors[0]]),
        }
        try:
            hits = index.search(vectors[0], 2, ef=2)
        finally:
            _AddsBetweenRowAndLength.state = {}
        assert len(index) == 4  # the race ran
        assert [node for node, _ in hits] == [0, 1]


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
