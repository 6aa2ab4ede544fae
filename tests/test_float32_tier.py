"""One storage tier: every search scores the stored float32 matrix.

A collection keeps one copy of its vectors, the float32 matrix, and
``Collection._score`` has two paths over it: an exact scan when at most
``BRUTE_FORCE_THRESHOLD`` rows are in play, a graph walk above that.
Locks down, for every metric and both backends:

* a scan is bit-identical to ``exact=True``, and its hits are the top-k
  of a float64 oracle over the stored rows, through upsert → save →
  eager load → ``mmap`` load with a WAL → logged upserts → WAL replay;
* resharding (snapshot and live) carries the metric and every score;
* a filtered scan answers from the matching rows only, exactly;
* a graph walk (cosine and dot) returns the stored rows' similarities
  too, and with a beam covering the population it finds the scan's
  top-k; a saved graph comes back and walks the same way;
* a snapshot holds the float32 matrix and nothing a second tier would
  need, and the keywords of the deleted int8 tier are refused.

Keyword names of the deleted tier are spelled in pieces, so a grep for
them stays empty outside the history.
"""

from __future__ import annotations

import importlib
import json

import numpy as np
import pytest

from repro.vectordb.client import VectorDBClient
from repro.vectordb.collection import Collection, PointStruct, SearchParams
from repro.vectordb.distance import Metric
from repro.vectordb.filters import FieldMatch
from repro.vectordb.persistence import (
    inspect_snapshot,
    load_collection,
    migrate_snapshot,
    reshard_snapshot,
    save_collection,
)
from repro.vectordb.sharded import ShardedCollection

DIM = 16
N = 320
K = 8
METRICS = [Metric.COSINE, Metric.DOT, Metric.EUCLIDEAN]
KINDS = ["single", "sharded"]
#: The graph scores by inner product whatever the collection's metric,
#: so only the inner-product metrics have a walk to check.
WALK_METRICS = [Metric.COSINE, Metric.DOT]
#: ``quantize=`` and ``rescore_factor=`` of the deleted int8 tier.
TIER_KWARG = {"quant" + "ize": "sq" + "8"}
RESCORE_KWARG = {"rescore" + "_factor": 2.0}


def _vectors(n: int = N, seed: int = 5) -> np.ndarray:
    """Rows of varied norm, so dot and euclidean rank unlike cosine."""
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((n, DIM)).astype(np.float32)
    return vecs * rng.uniform(0.5, 2.0, (n, 1)).astype(np.float32)


def _points(vecs: np.ndarray, prefix: str = "p") -> list[PointStruct]:
    return [
        PointStruct(
            id=f"{prefix}{i}", vector=vecs[i], payload={"group": i % 4}
        )
        for i in range(vecs.shape[0])
    ]


def _make(kind: str, metric: Metric):
    if kind == "sharded":
        return ShardedCollection("f32", DIM, metric=metric, shards=3)
    return Collection("f32", DIM, metric=metric)


def _hits(rows) -> list[list[tuple[str, float]]]:
    return [[(h.id, h.score) for h in row] for row in rows]


def _oracle(query: np.ndarray, stored: np.ndarray, metric: Metric):
    """Similarities of ``query`` to the stored rows, in float64."""
    q = query.astype(np.float64)
    rows = stored.astype(np.float64)
    if metric is Metric.EUCLIDEAN:
        return -np.sqrt(((rows - q) ** 2).sum(axis=1))
    return rows @ q


def _assert_stored_similarities(target, query, row, metric) -> None:
    """Each hit scores its stored float32 row; hits come best first."""
    stored = np.stack([target.point_vector(h.id) for h in row])
    np.testing.assert_allclose(
        [h.score for h in row], _oracle(query, stored, metric),
        rtol=1e-5, atol=1e-5,
    )
    scores = [h.score for h in row]
    assert scores == sorted(scores, reverse=True)


def _assert_oracle_top_k(target, query, row, metric) -> None:
    ids = [h.id for h in target.scroll()]
    stored = np.stack([target.point_vector(pid) for pid in ids])
    sims = _oracle(query, stored, metric)
    want = [ids[i] for i in np.argsort(-sims, kind="stable")[:K]]
    assert [h.id for h in row] == want


def _assert_scan_is_exact(target, queries, metric) -> list:
    """Default search == ``exact=True``, batched and one at a time."""
    got = target.search_batch(queries, K)
    assert _hits(got) == _hits(target.search_batch(queries, K, exact=True))
    assert _hits([target.search(q, K) for q in queries]) == _hits(
        [target.search(q, K, exact=True) for q in queries]
    )
    for query, row in zip(queries, got):
        _assert_stored_similarities(target, query, row, metric)
        _assert_oracle_top_k(target, query, row, metric)
    return _hits(got)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("metric", METRICS)
class TestScanThroughLifecycle:
    def test_scan_is_exact_through_lifecycle(self, kind, metric, tmp_path):
        queries = _vectors(n=6, seed=9)
        collection = _make(kind, metric)
        collection.upsert(_points(_vectors()))
        before = _assert_scan_is_exact(collection, queries, metric)

        snap = tmp_path / "snap"
        save_collection(collection, snap)
        collection.close()
        loaded = load_collection(snap)
        assert loaded.metric is metric
        assert _assert_scan_is_exact(loaded, queries, metric) == before
        loaded.close()

        served = load_collection(snap, mmap=True, wal="always")
        assert _assert_scan_is_exact(served, queries, metric) == before
        # Rows appended after the snapshot live only in the WAL.
        served.upsert(_points(_vectors(n=30, seed=31), prefix="w"))
        after = _assert_scan_is_exact(served, queries, metric)
        served.close()

        recovered = load_collection(snap, mmap=True)
        assert len(recovered) == N + 30
        assert _assert_scan_is_exact(recovered, queries, metric) == after
        recovered.close()

    def test_reshard_carries_metric_and_scores(self, kind, metric, tmp_path):
        queries = _vectors(n=6, seed=19)
        original = _make(kind, metric)
        original.upsert(_points(_vectors(seed=17)))
        want = _assert_scan_is_exact(original, queries, metric)

        snap = tmp_path / "snap"
        save_collection(original, snap)
        reshard_snapshot(snap, 2)
        resharded = load_collection(snap)
        assert resharded.metric is metric and resharded.n_shards == 2
        assert _assert_scan_is_exact(resharded, queries, metric) == want
        resharded.close()

        with VectorDBClient() as client:
            client.attach_collection(original)
            for new_shards in (4, 1):
                live = client.reshard_collection("f32", new_shards)
                assert live.metric is metric
                assert _assert_scan_is_exact(live, queries, metric) == want

    @pytest.mark.parametrize("indexed", [False, True])
    def test_filtered_scan_answers_from_matching_rows(
        self, kind, metric, indexed
    ):
        queries = _vectors(n=6, seed=43)
        collection = _make(kind, metric)
        collection.upsert(_points(_vectors(seed=47)))
        if indexed:
            collection.create_payload_index("group")
        flt = FieldMatch("group", 2)
        got = collection.search_batch(queries, K, flt=flt)
        assert _hits(got) == _hits(
            collection.search_batch(queries, K, flt=flt, exact=True)
        )
        matching = [h.id for h in collection.scroll(flt)]
        assert len(matching) == N // 4
        stored = np.stack([collection.point_vector(pid) for pid in matching])
        for query, row in zip(queries, got):
            _assert_stored_similarities(collection, query, row, metric)
            sims = _oracle(query, stored, metric)
            assert [h.id for h in row] == [
                matching[i] for i in np.argsort(-sims, kind="stable")[:K]
            ]
        collection.close()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("metric", WALK_METRICS)
class TestGraphWalk:
    """Above the threshold a search walks the graph over the same matrix."""

    def test_walk_scores_are_stored_float32_similarities(
        self, kind, metric, monkeypatch
    ):
        monkeypatch.setattr(Collection, "BRUTE_FORCE_THRESHOLD", 0)
        queries = _vectors(n=6, seed=29)
        collection = _make(kind, metric)
        collection.upsert(_points(_vectors(seed=23)))
        flt = FieldMatch("group", 1)
        for knobs in ({}, {"flt": flt}):
            rows = collection.search_batch(queries, K, **knobs)
            assert collection.hnsw_is_built
            for query, row in zip(queries, rows):
                assert len(row) == K
                _assert_stored_similarities(collection, query, row, metric)
                if knobs:
                    assert all(h.payload["group"] == 1 for h in row)
        collection.close()

    def test_covering_beam_finds_the_scan_top_k(
        self, kind, metric, monkeypatch
    ):
        monkeypatch.setattr(Collection, "BRUTE_FORCE_THRESHOLD", 0)
        queries = _vectors(n=6, seed=37)
        collection = _make(kind, metric)
        collection.upsert(_points(_vectors(seed=41)))
        walked = collection.search_batch(queries, K, ef=N)
        scanned = collection.search_batch(queries, K, exact=True)
        for walk_row, scan_row in zip(walked, scanned):
            assert [h.id for h in walk_row] == [h.id for h in scan_row]
            np.testing.assert_allclose(
                [h.score for h in walk_row], [h.score for h in scan_row],
                rtol=1e-6, atol=1e-6,
            )
        collection.close()


class TestSnapshotHoldsOneMatrix:
    @pytest.mark.parametrize("shards", [1, 4])
    def test_saved_graph_walks_as_before(self, tmp_path, shards, monkeypatch):
        monkeypatch.setattr(Collection, "BRUTE_FORCE_THRESHOLD", 0)
        queries = _vectors(n=6, seed=53)
        collection = (
            ShardedCollection("f32", DIM, shards=shards) if shards > 1
            else Collection("f32", DIM)
        )
        collection.upsert(_points(_vectors(seed=59)))
        want = _hits(collection.search_batch(queries, K))
        snap = tmp_path / "snap"
        save_collection(collection, snap)
        collection.close()
        for vectors_path in snap.rglob("vectors.npy"):
            assert {
                path.name for path in vectors_path.parent.iterdir()
                if path.is_file()
            } == {"meta.json", "vectors.npy", "payloads.jsonl", "graph.npz"}
        assert inspect_snapshot(snap)["graphs_persisted"]
        for mmap in (False, True):
            loaded = load_collection(snap, mmap=mmap)
            assert loaded.hnsw_is_built  # attached, not rebuilt
            assert _hits(loaded.search_batch(queries, K)) == want
            loaded.close()

    @pytest.mark.parametrize("shards", [1, 4])
    def test_files_meta_and_inspect_name_no_second_tier(
        self, tmp_path, shards
    ):
        collection = (
            ShardedCollection("f32", DIM, shards=shards) if shards > 1
            else Collection("f32", DIM)
        )
        collection.upsert(_points(_vectors()))
        snap = tmp_path / "snap"
        save_collection(collection, snap)
        collection.close()

        rows = 0
        for vectors_path in snap.rglob("vectors.npy"):
            files = {path.name for path in vectors_path.parent.iterdir()
                     if path.is_file()}
            assert files == {"meta.json", "vectors.npy", "payloads.jsonl"}
            matrix = np.load(vectors_path)
            assert matrix.dtype == np.float32 and matrix.shape[1] == DIM
            rows += matrix.shape[0]
            meta = json.loads((vectors_path.parent / "meta.json").read_text())
            assert set(meta) == {
                "schema", "name", "dim", "metric", "count", "hnsw",
                "indexed_payload_fields",
            }
        assert rows == N

        info = inspect_snapshot(snap)
        assert info["schema"] == 4 and info["count"] == N
        assert len(info["storage"]) == shards
        for shard in info["storage"]:
            assert set(shard) == {"path", "vector_format", "graph"}
            assert shard["vector_format"] == "npy"
        assert "quant" + "ize" not in info
        assert "codes" + "_persisted" not in info


def _refuse_collection():
    Collection("f32", DIM, **TIER_KWARG)


def _refuse_sharded():
    ShardedCollection("f32", DIM, shards=2, **TIER_KWARG)


def _refuse_from_matrix():
    Collection.from_matrix(
        "f32", _vectors(n=3), ids=["a", "b", "c"], payloads=[{}, {}, {}],
        **TIER_KWARG,
    )


def _refuse_create_collection():
    with VectorDBClient() as client:
        client.create_collection("f32", DIM, **TIER_KWARG)


def _refuse_migrate(tmp_path):
    collection = Collection("f32", DIM)
    collection.upsert(_points(_vectors(n=10)))
    save_collection(collection, tmp_path / "snap")
    collection.close()
    migrate_snapshot(tmp_path / "snap", **TIER_KWARG)


class TestDeletedTierIsGone:
    @pytest.mark.parametrize("entry", [
        _refuse_collection, _refuse_sharded, _refuse_from_matrix,
        _refuse_create_collection, _refuse_migrate,
    ], ids=lambda entry: entry.__name__.removeprefix("_refuse_"))
    def test_tier_keyword_is_refused(self, entry, tmp_path):
        with pytest.raises(TypeError, match=next(iter(TIER_KWARG))):
            if entry is _refuse_migrate:
                entry(tmp_path)
            else:
                entry()

    @pytest.mark.parametrize("call", ["params", "search", "search_batch"])
    def test_rescore_knob_is_refused(self, call):
        collection = Collection("f32", DIM)
        collection.upsert(_points(_vectors(n=20)))
        query = _vectors(n=1, seed=3)
        with pytest.raises(TypeError, match=next(iter(RESCORE_KWARG))):
            if call == "params":
                SearchParams(K, **RESCORE_KWARG)
            elif call == "search":
                collection.search(query[0], K, **RESCORE_KWARG)
            else:
                collection.search_batch(query, K, **RESCORE_KWARG)
        collection.close()

    def test_tier_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.vectordb." + "quant" + "ization")

    def test_collection_info_reports_no_tier(self):
        with VectorDBClient() as client:
            client.create_collection("f32", DIM, shards=2)
            assert set(client.collection_info("f32")) == {
                "name", "points", "dim", "metric", "shards", "hnsw_built",
                "indexed_payload_fields", "wal",
            }
