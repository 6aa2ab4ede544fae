"""Tests for payload secondary indexes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.vectordb.collection import Collection, PointStruct
from repro.vectordb.filters import And, FieldIn, FieldMatch, FieldRange
from repro.vectordb.payload_index import PayloadIndexRegistry


def unit(i: int, n: int = 8) -> np.ndarray:
    vec = np.zeros(n, dtype=np.float32)
    vec[i % n] = 1.0
    return vec


class TestRegistry:
    def test_candidates_for_field_match(self):
        registry = PayloadIndexRegistry()
        registry.create_index("city")
        registry.index_point(0, {"city": "SL"})
        registry.index_point(1, {"city": "NS"})
        registry.index_point(2, {"city": "SL"})
        assert registry.candidates_for(FieldMatch("city", "SL")) == {0, 2}
        assert registry.candidates_for(FieldMatch("city", "XX")) == set()

    def test_unindexed_field_returns_none(self):
        registry = PayloadIndexRegistry()
        registry.create_index("city")
        assert registry.candidates_for(FieldMatch("stars", 4.0)) is None

    def test_field_in_unions_buckets(self):
        registry = PayloadIndexRegistry()
        registry.create_index("city")
        registry.index_point(0, {"city": "SL"})
        registry.index_point(1, {"city": "NS"})
        candidates = registry.candidates_for(FieldIn("city", ["SL", "NS"]))
        assert candidates == {0, 1}

    def test_and_picks_most_selective(self):
        registry = PayloadIndexRegistry()
        registry.create_index("city")
        registry.create_index("open")
        for node in range(10):
            registry.index_point(node, {"city": "SL", "open": node % 2})
        flt = And(FieldMatch("city", "SL"), FieldMatch("open", 1))
        candidates = registry.candidates_for(flt)
        assert candidates == {1, 3, 5, 7, 9}  # the smaller bucket

    def test_and_with_unindexable_parts(self):
        registry = PayloadIndexRegistry()
        registry.create_index("city")
        registry.index_point(0, {"city": "SL"})
        flt = And(FieldRange("stars", gte=3), FieldMatch("city", "SL"))
        assert registry.candidates_for(flt) == {0}

    def test_range_filters_use_sorted_index(self):
        registry = PayloadIndexRegistry()
        registry.create_index("stars")
        registry.index_point(0, {"stars": 4.0})
        registry.index_point(1, {"stars": 2.0})
        assert registry.candidates_for(FieldRange("stars", gte=3)) == {0}
        # unindexed fields still force a scan
        assert registry.candidates_for(FieldRange("price", gte=3)) is None

    def test_reindex_moves_point(self):
        registry = PayloadIndexRegistry()
        registry.create_index("city")
        registry.index_point(0, {"city": "SL"})
        registry.reindex_point(0, {"city": "SL"}, {"city": "NS"})
        assert registry.candidates_for(FieldMatch("city", "SL")) == set()
        assert registry.candidates_for(FieldMatch("city", "NS")) == {0}

    def test_unhashable_values_skipped(self):
        registry = PayloadIndexRegistry()
        registry.create_index("hours")
        registry.index_point(0, {"hours": {"Monday": "9-5"}})
        assert registry.candidates_for(FieldMatch("hours", {"Monday": "9-5"})) is None


class TestCollectionIntegration:
    @pytest.fixture
    def collection(self) -> Collection:
        c = Collection("idx", dim=8)
        c.upsert(
            PointStruct(f"p{i}", unit(i), {"city": "SL" if i % 2 else "NS",
                                           "stars": float(i % 5)})
            for i in range(30)
        )
        return c

    def test_filtered_search_same_results_with_index(self, collection):
        query = unit(3)
        flt = FieldMatch("city", "SL")
        before = [h.id for h in collection.search(query, k=10, flt=flt)]
        scrolled = collection.scroll(flt)
        assert [h.id for h in scrolled] == [f"p{i}" for i in range(1, 30, 2)]
        collection.create_payload_index("city")
        after = [h.id for h in collection.search(query, k=10, flt=flt)]
        assert before == after
        # scroll resolves through the index too: same hits, insertion order
        assert collection.scroll(flt) == scrolled
        assert "city" in collection.indexed_payload_fields

    def test_index_backfills_existing_points(self, collection):
        collection.create_payload_index("city")
        hits = collection.search(unit(0), k=30, flt=FieldMatch("city", "NS"))
        assert len(hits) == 15

    def test_index_maintained_on_upsert(self, collection):
        collection.create_payload_index("city")
        collection.upsert(
            [PointStruct("new", unit(5), {"city": "SL", "stars": 1.0})]
        )
        hits = collection.search(unit(5), k=31, flt=FieldMatch("city", "SL"))
        assert "new" in {h.id for h in hits}

    def test_index_maintained_on_set_payload(self, collection):
        collection.create_payload_index("city")
        collection.set_payload("p1", {"city": "PH"})
        hits = collection.search(unit(1), k=30, flt=FieldMatch("city", "PH"))
        assert {h.id for h in hits} == {"p1"}
        sl_hits = collection.search(unit(1), k=30, flt=FieldMatch("city", "SL"))
        assert "p1" not in {h.id for h in sl_hits}

    def test_combined_filter_verified_not_just_candidates(self, collection):
        """Indexed candidates are a superset; the full filter still applies."""
        collection.create_payload_index("city")
        flt = And(FieldMatch("city", "SL"), FieldRange("stars", gte=3.0))
        hits = collection.search(unit(0), k=30, flt=flt)
        for hit in hits:
            assert hit.payload["city"] == "SL"
            assert hit.payload["stars"] >= 3.0
