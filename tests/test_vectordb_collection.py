"""Tests for collections, the client facade, and persistence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import (
    CollectionError,
    CollectionExists,
    CollectionNotFound,
    DimensionMismatch,
    PointNotFound,
)
from repro.geo.bbox import BoundingBox
from repro.vectordb.client import VectorDBClient
from repro.vectordb.collection import Collection, PointStruct
from repro.vectordb.filters import FieldMatch, GeoBoundingBoxFilter
from repro.vectordb.persistence import load_collection, save_collection


def unit(x: float, y: float) -> np.ndarray:
    vec = np.array([x, y], dtype=np.float32)
    return vec / np.linalg.norm(vec)


@pytest.fixture
def collection() -> Collection:
    c = Collection("test", dim=2)
    c.upsert(
        [
            PointStruct("a", unit(1, 0), {"city": "SL",
                                          "location": {"lat": 1.0, "lon": 1.0}}),
            PointStruct("b", unit(0, 1), {"city": "SL",
                                          "location": {"lat": 5.0, "lon": 5.0}}),
            PointStruct("c", unit(1, 1), {"city": "NS",
                                          "location": {"lat": 1.2, "lon": 1.2}}),
        ]
    )
    return c


class TestCollection:
    def test_upsert_and_len(self, collection):
        assert len(collection) == 3

    def test_empty_name_rejected(self):
        with pytest.raises(CollectionError):
            Collection("", dim=2)

    def test_dimension_mismatch(self, collection):
        with pytest.raises(DimensionMismatch):
            collection.upsert([PointStruct("d", np.zeros(3, dtype=np.float32))])

    def test_payload_update_same_vector_ok(self, collection):
        collection.upsert([PointStruct("a", unit(1, 0), {"city": "XX"})])
        assert collection.retrieve("a").payload["city"] == "XX"
        assert len(collection) == 3

    def test_vector_replacement_rejected(self, collection):
        with pytest.raises(CollectionError, match="different"):
            collection.upsert([PointStruct("a", unit(0, 1))])

    def test_retrieve_unknown_raises(self, collection):
        with pytest.raises(PointNotFound):
            collection.retrieve("ghost")

    def test_set_payload_merges(self, collection):
        collection.set_payload("a", {"stars": 5})
        payload = collection.retrieve("a").payload
        assert payload["stars"] == 5 and payload["city"] == "SL"

    def test_scroll_with_filter(self, collection):
        hits = collection.scroll(FieldMatch("city", "SL"))
        assert {h.id for h in hits} == {"a", "b"}

    def test_count(self, collection):
        assert collection.count() == 3
        assert collection.count(FieldMatch("city", "NS")) == 1

    def test_search_exact_order(self, collection):
        hits = collection.search(unit(1, 0), k=3, exact=True)
        assert hits[0].id == "a"
        assert [h.id for h in hits] == ["a", "c", "b"]

    def test_search_with_geo_filter(self, collection):
        box = BoundingBox(0, 0, 2, 2)
        hits = collection.search(
            unit(1, 0), k=5, flt=GeoBoundingBoxFilter("location", box)
        )
        assert {h.id for h in hits} == {"a", "c"}

    def test_search_filter_no_matches(self, collection):
        hits = collection.search(unit(1, 0), k=5, flt=FieldMatch("city", "XX"))
        assert hits == []

    def test_search_approximate_matches_exact_small(self, collection):
        # Keep the graph walk: below the threshold a search scans.
        collection.BRUTE_FORCE_THRESHOLD = 0
        exact = collection.search(unit(1, 1), k=3, exact=True)
        approx = collection.search(unit(1, 1), k=3)
        assert [h.id for h in approx] == [h.id for h in exact]

    def test_search_dim_validation(self, collection):
        with pytest.raises(DimensionMismatch):
            collection.search(np.zeros(5, dtype=np.float32), k=1)

    def test_empty_collection_search(self):
        assert Collection("empty", dim=2).search(unit(1, 0), k=3) == []

    def test_payload_isolation(self, collection):
        """Mutating a returned payload must not corrupt the stored one."""
        hit = collection.retrieve("a")
        hit.payload["city"] = "MUTATED"
        assert collection.retrieve("a").payload["city"] == "SL"


class TestClient:
    def test_create_and_get(self):
        client = VectorDBClient()
        client.create_collection("x", dim=4)
        assert client.get_collection("x").dim == 4

    def test_duplicate_create_raises(self):
        client = VectorDBClient()
        client.create_collection("x", dim=4)
        with pytest.raises(CollectionExists):
            client.create_collection("x", dim=4)

    def test_exist_ok_returns_existing(self):
        client = VectorDBClient()
        a = client.create_collection("x", dim=4)
        b = client.create_collection("x", dim=4, exist_ok=True)
        assert a is b

    def test_get_missing_raises_with_listing(self):
        client = VectorDBClient()
        client.create_collection("known", dim=2)
        with pytest.raises(CollectionNotFound, match="known"):
            client.get_collection("missing")

    def test_delete(self):
        client = VectorDBClient()
        client.create_collection("x", dim=2)
        client.delete_collection("x")
        assert not client.has_collection("x")
        with pytest.raises(CollectionNotFound):
            client.delete_collection("x")

    def test_list_collections_sorted(self):
        client = VectorDBClient()
        client.create_collection("b", dim=2)
        client.create_collection("a", dim=2)
        assert client.list_collections() == ["a", "b"]

    def test_passthrough_upsert_search_count(self):
        client = VectorDBClient()
        client.create_collection("x", dim=2)
        client.upsert("x", [PointStruct("p", unit(1, 0), {"k": 1})])
        assert client.count("x") == 1
        hits = client.search("x", unit(1, 0), k=1)
        assert hits[0].id == "p"


class TestPersistence:
    def test_roundtrip(self, collection, tmp_path):
        save_collection(collection, tmp_path / "snap")
        loaded = load_collection(tmp_path / "snap")
        assert len(loaded) == len(collection)
        assert loaded.name == collection.name
        original = collection.search(unit(1, 0), k=3, exact=True)
        restored = loaded.search(unit(1, 0), k=3, exact=True)
        assert [h.id for h in original] == [h.id for h in restored]
        assert loaded.retrieve("a").payload["city"] == "SL"

    def test_missing_snapshot_raises(self, tmp_path):
        with pytest.raises(CollectionError, match="no collection snapshot"):
            load_collection(tmp_path / "nothing")

    def test_inconsistent_snapshot_detected(self, collection, tmp_path):
        save_collection(collection, tmp_path / "snap")
        payloads = tmp_path / "snap" / "payloads.jsonl"
        lines = payloads.read_text().strip().splitlines()
        payloads.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(CollectionError, match="inconsistent"):
            load_collection(tmp_path / "snap")

    def test_empty_collection_round_trip_keeps_dim(self, tmp_path):
        """Regression: zero-point snapshots used to reload with dim=1,
        so later upserts of correct-dim vectors raised DimensionMismatch."""
        empty = Collection("empty", dim=48)
        save_collection(empty, tmp_path / "snap")
        loaded = load_collection(tmp_path / "snap")
        assert loaded.dim == 48
        loaded.upsert(
            [PointStruct("a", np.zeros(48, dtype=np.float32), {"x": 1})]
        )
        assert loaded.retrieve("a").payload == {"x": 1}

    def test_round_trip_keeps_payload_indexes(self, collection, tmp_path):
        """Regression: indexed fields were dropped, silently degrading
        every filtered search after a reload to a full payload scan."""
        collection.create_payload_index("city")
        save_collection(collection, tmp_path / "snap")
        loaded = load_collection(tmp_path / "snap")
        assert loaded.indexed_payload_fields == frozenset({"city"})
        assert loaded.count(FieldMatch("city", "SL")) == 2

    def test_round_trip_keeps_hnsw_config(self, tmp_path):
        """Regression: HnswConfig was lost on reload unless re-passed,
        silently changing recall and latency."""
        from repro.vectordb.collection import HnswConfig

        cfg = HnswConfig(m=5, ef_construction=33, ef_search=17, seed=3)
        c = Collection("tuned", dim=2, hnsw=cfg)
        c.upsert([PointStruct("a", unit(1, 0), {})])
        save_collection(c, tmp_path / "snap")
        loaded = load_collection(tmp_path / "snap")
        assert loaded.hnsw_config == cfg
        # an explicit override still wins over the stored config
        override = HnswConfig(m=9, ef_construction=10, ef_search=5, seed=1)
        assert load_collection(
            tmp_path / "snap", hnsw=override
        ).hnsw_config == override
