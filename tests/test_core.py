"""Tests for the SemaSK core: query model, preparation, pipeline stages."""

from __future__ import annotations

import inspect
import threading

import pytest

from repro.core.filtering import FilteringStage
from repro.core.pipeline import SemaSK, SemaSKConfig
from repro.core.prepare import DataPreparation
from repro.core.query import SpatialKeywordQuery
from repro.core.refinement import RefinementStage, candidate_information
from repro.core.results import QueryResult, QueryTimings, ResultEntry
from repro.core.variants import semask, semask_em, semask_o1
from repro.data.dataset import Dataset
from repro.data.yelp import YelpStyleGenerator
from repro.errors import QueryError
from repro.geo.bbox import BoundingBox
from repro.geo.point import GeoPoint
from repro.geo.regions import SAINT_LOUIS


class TestSpatialKeywordQuery:
    def test_around_builds_5km_box(self):
        q = SpatialKeywordQuery.around(GeoPoint(38.6, -90.2), "coffee")
        assert q.range.width_km() == pytest.approx(5.0, rel=0.01)

    def test_empty_text_rejected(self):
        with pytest.raises(QueryError):
            SpatialKeywordQuery(BoundingBox(0, 0, 1, 1), "   ")


class TestResults:
    def test_top_k_and_ids(self):
        entries = tuple(
            ResultEntry(f"id{i}", f"POI {i}", 1.0 - i / 10) for i in range(5)
        )
        result = QueryResult(
            query_text="q", entries=entries, filtered_out=(),
            timings=QueryTimings(0.01, 0.0, 0.0), candidates_considered=5,
        )
        assert result.ids(3) == ["id0", "id1", "id2"]
        assert len(result.top_k(2)) == 2
        assert result.ids() == [f"id{i}" for i in range(5)]

    def test_top_k_invalid(self):
        result = QueryResult("q", (), (), QueryTimings(0, 0, 0), 0)
        with pytest.raises(ValueError):
            result.top_k(0)

    def test_total_modeled_time(self):
        t = QueryTimings(filter_s=0.04, refine_compute_s=0.5,
                         refine_modeled_s=2.5)
        assert t.total_modeled_s == pytest.approx(2.54)


class TestDataPreparation:
    def test_prepare_fills_all_fields(self, small_corpus):
        for record in list(small_corpus.dataset)[:20]:
            assert record.neighborhood
            assert record.suburb
            assert record.county
            assert record.tip_summary

    def test_collection_created_with_all_points(self, small_corpus):
        prepared = small_corpus.prepared
        collection = prepared.client.get_collection(prepared.collection_name)
        assert len(collection) == len(small_corpus.dataset)

    def test_payload_contains_location_and_attributes(self, small_corpus):
        prepared = small_corpus.prepared
        record = small_corpus.dataset[0]
        hit = prepared.client.get_collection(
            prepared.collection_name
        ).retrieve(record.business_id)
        assert hit.payload["name"] == record.name
        assert hit.payload["location"]["lat"] == pytest.approx(record.latitude)
        assert "tips" in hit.payload

    def test_prepare_idempotent_on_summaries(self, small_corpus):
        """Re-running preparation must not redo LLM summarization calls."""
        prep = DataPreparation(llm=small_corpus.llm)
        calls_before = small_corpus.llm.ledger.total_calls()
        prep.complete_address(small_corpus.dataset)
        prep.summarize_tips(small_corpus.dataset)
        assert small_corpus.llm.ledger.total_calls() == calls_before

    def test_summarize_opt_out(self):
        records = YelpStyleGenerator(seed=3).generate_city(SAINT_LOUIS, count=30)
        dataset = Dataset(records, "SL")
        prep = DataPreparation(summarize=False)
        prep.prepare(dataset, "test_nosumm")
        assert all(not r.tip_summary for r in dataset)
        assert prep.llm.ledger.total_calls() == 0


class TestFilteringStage:
    def test_respects_spatial_range(self, small_corpus):
        prepared = small_corpus.prepared
        stage = FilteringStage(
            prepared.client, prepared.collection_name, prepared.embedder
        )
        query = SpatialKeywordQuery.around(
            SAINT_LOUIS.center, "coffee and pastries", 4, 4
        )
        candidates = stage.run(query, k=10)
        assert candidates
        for candidate in candidates:
            location = candidate.payload["location"]
            assert query.range.contains_coords(location["lat"], location["lon"])

    def test_k_honored(self, small_corpus):
        prepared = small_corpus.prepared
        stage = FilteringStage(
            prepared.client, prepared.collection_name, prepared.embedder
        )
        query = SpatialKeywordQuery.around(SAINT_LOUIS.center, "food", 6, 6)
        assert len(stage.run(query, k=5)) <= 5

    def test_invalid_k(self, small_corpus):
        prepared = small_corpus.prepared
        stage = FilteringStage(
            prepared.client, prepared.collection_name, prepared.embedder
        )
        query = SpatialKeywordQuery.around(SAINT_LOUIS.center, "food", 5, 5)
        with pytest.raises(ValueError):
            stage.run(query, k=0)

    def test_empty_region_returns_nothing(self, small_corpus):
        prepared = small_corpus.prepared
        stage = FilteringStage(
            prepared.client, prepared.collection_name, prepared.embedder
        )
        query = SpatialKeywordQuery.around(GeoPoint(0.0, 0.0), "food", 5, 5)
        assert stage.run(query, k=10) == []

    def test_semantic_ordering(self, small_corpus):
        """Embedding filtering should pull topic-matching POIs to the top."""
        prepared = small_corpus.prepared
        stage = FilteringStage(
            prepared.client, prepared.collection_name, prepared.embedder
        )
        query = SpatialKeywordQuery.around(
            SAINT_LOUIS.center, "somewhere for espresso drinks and pastries",
            8, 8,
        )
        candidates = stage.run(query, k=10)
        top_categories = [
            small_corpus.dataset.get(c.business_id).profile.category
            for c in candidates[:5]
        ]
        food_like = {"coffee_shop", "cafe", "bakery", "tea_house",
                     "breakfast_brunch", "dessert_shop", "donut_shop", "diner",
                     "french_restaurant", "bubble_tea_shop", "juice_bar"}
        assert any(c in food_like for c in top_categories)


class TestRefinementStage:
    def test_candidate_information_projection(self, small_corpus):
        prepared = small_corpus.prepared
        stage = FilteringStage(
            prepared.client, prepared.collection_name, prepared.embedder
        )
        query = SpatialKeywordQuery.around(SAINT_LOUIS.center, "coffee", 6, 6)
        candidate = stage.run(query, k=1)[0]
        info = candidate_information(candidate)
        assert "name" in info and "categories" in info
        assert "location" not in info  # the prompt carries attributes only
        assert "business_id" not in info

    def test_empty_candidates_short_circuit(self, small_corpus):
        stage = RefinementStage(small_corpus.llm, "gpt-4o")
        outcome = stage.run("anything", [])
        assert outcome.accepted == [] and outcome.rejected == []
        assert outcome.raw_output == "{}"

    def test_accepted_plus_rejected_partition(self, small_corpus):
        prepared = small_corpus.prepared
        filtering = FilteringStage(
            prepared.client, prepared.collection_name, prepared.embedder
        )
        refinement = RefinementStage(small_corpus.llm, "gpt-4o")
        query = SpatialKeywordQuery.around(
            SAINT_LOUIS.center, "somewhere for a latte and a croissant", 8, 8
        )
        candidates = filtering.run(query, k=10)
        outcome = refinement.run(query.text, candidates)
        accepted_ids = {c.business_id for c, _ in outcome.accepted}
        rejected_ids = {c.business_id for c in outcome.rejected}
        assert accepted_ids.isdisjoint(rejected_ids)
        assert accepted_ids | rejected_ids == {c.business_id for c in candidates}


class TestPipelineVariants:
    def test_variant_names(self, small_corpus):
        assert semask(small_corpus.prepared).name == "SemaSK"
        assert semask_o1(small_corpus.prepared).name == "SemaSK-O1"
        assert semask_em(small_corpus.prepared).name == "SemaSK-EM"
        custom = SemaSK(small_corpus.prepared,
                        SemaSKConfig(refine_model="gpt-3.5-turbo"))
        assert custom.name == "SemaSK[gpt-3.5-turbo]"

    def test_em_returns_all_candidates(self, small_corpus):
        system = semask_em(small_corpus.prepared, candidate_k=7)
        query = SpatialKeywordQuery.around(SAINT_LOUIS.center, "pizza", 8, 8)
        result = system.query(query)
        assert len(result.entries) <= 7
        assert result.filtered_out == ()
        assert all(e.reason == "" for e in result.entries)
        assert result.timings.refine_modeled_s == 0.0

    def test_full_system_filters_and_explains(self, small_corpus):
        system = semask(small_corpus.prepared, llm=small_corpus.llm)
        query = SpatialKeywordQuery.around(
            SAINT_LOUIS.center,
            "somewhere for a latte and fresh pastries", 8, 8,
        )
        result = system.query(query)
        assert result.candidates_considered > 0
        assert len(result.entries) + len(result.filtered_out) == (
            result.candidates_considered
        )
        for entry in result.entries:
            assert entry.recommended
            assert entry.reason
        for entry in result.filtered_out:
            assert not entry.recommended
        assert result.timings.refine_modeled_s > 0
        assert result.raw_llm_output.startswith("{")

    def test_scores_monotone_in_rank(self, small_corpus):
        system = semask(small_corpus.prepared, llm=small_corpus.llm)
        query = SpatialKeywordQuery.around(
            SAINT_LOUIS.center, "somewhere for a latte", 8, 8
        )
        result = system.query(query)
        scores = [e.score for e in result.entries]
        assert scores == sorted(scores, reverse=True)

    def test_deterministic_end_to_end(self, small_corpus):
        system = semask(small_corpus.prepared, llm=small_corpus.llm)
        query = SpatialKeywordQuery.around(
            SAINT_LOUIS.center, "fresh sushi and sashimi", 8, 8
        )
        a = system.query(query)
        b = system.query(query)
        assert a.ids() == b.ids()


class TestRefinementIsALoop:
    def test_query_many_takes_only_queries(self):
        parameters = inspect.signature(SemaSK.query_many).parameters
        assert list(parameters) == ["self", "queries"]

    def test_batch_of_eight_starts_no_thread(self, small_corpus, monkeypatch):
        system = semask(small_corpus.prepared, llm=small_corpus.llm)
        texts = ["pizza", "latte", "sushi", "live music", "tacos",
                 "bookshop", "yoga", "ramen"]
        queries = [
            SpatialKeywordQuery.around(SAINT_LOUIS.center, text, 8, 8)
            for text in texts
        ]
        started = []
        monkeypatch.setattr(
            threading.Thread, "start", lambda self: started.append(self)
        )
        results = system.query_many(queries)
        assert [r.query_text for r in results] == texts
        assert any(r.filtered_out for r in results)  # refinement did run
        assert started == []
