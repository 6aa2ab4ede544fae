"""Failure-injection tests: the system's behaviour when components misbehave.

A production-quality pipeline must fail loudly and precisely — malformed
LLM output raises ParseError (not a silent empty answer), corrupted
snapshots are detected, and bad inputs are rejected at the boundary.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.filtering import Candidate
from repro.core.refinement import RefinementStage
from repro.errors import (
    CollectionError,
    ParseError,
    PromptError,
    SchemaError,
)
from repro.llm.base import ChatMessage, LLMClient
from repro.llm.simulated import SimulatedLLM


class GarbageLLM(LLMClient):
    """An LLM that answers every prompt with non-dict garbage."""

    def __init__(self, reply: str = "I cannot help with that.") -> None:
        super().__init__()
        self._reply = reply

    def _complete(self, model: str, messages: list[ChatMessage]) -> str:
        return self._reply


def make_candidate(name: str = "X") -> Candidate:
    return Candidate(
        business_id="id-1", name=name, score=0.9,
        payload={"name": name, "categories": "Cafes", "stars": 4.0},
    )


class TestLLMFailureModes:
    def test_garbage_rerank_output_raises_parse_error(self):
        stage = RefinementStage(GarbageLLM(), "gpt-4o")
        with pytest.raises(ParseError):
            stage.run("somewhere for a latte", [make_candidate()])

    def test_truncated_json_raises(self):
        stage = RefinementStage(GarbageLLM('{"X": "rea'), "gpt-4o")
        with pytest.raises(ParseError):
            stage.run("query", [make_candidate()])

    def test_llm_returning_list_raises(self):
        stage = RefinementStage(GarbageLLM('["X"]'), "gpt-4o")
        with pytest.raises(ParseError):
            stage.run("query", [make_candidate()])

    def test_llm_naming_unknown_pois_yields_no_accepts(self):
        """Hallucinated names that match no candidate are dropped."""
        stage = RefinementStage(GarbageLLM('{"Ghost Cafe": "sounds nice"}'),
                                "gpt-4o")
        outcome = stage.run("query", [make_candidate("Real Cafe")])
        assert outcome.accepted == []
        assert [c.name for c in outcome.rejected] == ["Real Cafe"]

    def test_duplicate_candidate_names_resolved_in_order(self):
        llm = GarbageLLM('{"Twin": "first one"}')
        stage = RefinementStage(llm, "gpt-4o")
        first = make_candidate("Twin")
        second = Candidate(
            business_id="id-2", name="Twin", score=0.8,
            payload={"name": "Twin", "categories": "Cafes", "stars": 3.0},
        )
        outcome = stage.run("query", [first, second])
        assert len(outcome.accepted) == 1
        assert outcome.accepted[0][0].business_id == "id-1"

    def test_unknown_task_prompt_raises_prompt_error(self):
        llm = SimulatedLLM()
        with pytest.raises(PromptError):
            llm.chat("gpt-4o", [ChatMessage("user", "What is 2+2?")])

    def test_unknown_model_raises(self):
        from repro.errors import UnknownModelError

        llm = SimulatedLLM()
        with pytest.raises(UnknownModelError):
            llm.chat("gpt-7", [ChatMessage("user", "x")])


class TestDataFailureModes:
    def test_schema_violations_raise(self):
        from repro.data.model import POIRecord

        with pytest.raises(SchemaError):
            POIRecord(
                business_id="x", name="N", address="a", city="c", state="s",
                latitude=200.0, longitude=0.0, stars=4.0, is_open=1,
                categories=("C",), hours={}, tips=(),
            )

    def test_dataset_rejects_header_corruption(self, tmp_path):
        from repro.data.dataset import Dataset
        from repro.errors import DatasetError

        path = tmp_path / "broken.jsonl"
        path.write_text("{not json at all\n")
        with pytest.raises(DatasetError):
            Dataset.load(path)


class TestVectorDBFailureModes:
    def test_snapshot_missing_vectors_file(self, tmp_path):
        from repro.vectordb.collection import Collection, PointStruct
        from repro.vectordb.persistence import load_collection, save_collection

        collection = Collection("c", dim=2)
        vec = np.array([1.0, 0.0], dtype=np.float32)
        collection.upsert([PointStruct("a", vec, {})])
        save_collection(collection, tmp_path / "snap")
        (tmp_path / "snap" / "vectors.npy").unlink()
        with pytest.raises(FileNotFoundError):
            load_collection(tmp_path / "snap")

    def test_snapshot_meta_garbage(self, tmp_path):
        from repro.vectordb.persistence import load_collection

        snap = tmp_path / "snap"
        snap.mkdir()
        (snap / "meta.json").write_text("{broken")
        with pytest.raises(Exception):
            load_collection(snap)

    def test_state_length_mismatch(self):
        from repro.vectordb.collection import Collection

        with pytest.raises(CollectionError, match="inconsistent"):
            Collection.from_matrix(
                "c",
                vectors=np.zeros((2, 3), dtype=np.float32),
                ids=["a"],
                payloads=[{}, {}],
            )


class TestPipelineRobustness:
    def test_pipeline_with_empty_range_returns_empty_result(self, small_corpus):
        from repro.core.query import SpatialKeywordQuery
        from repro.core.variants import semask
        from repro.geo.point import GeoPoint

        system = semask(small_corpus.prepared, llm=small_corpus.llm)
        query = SpatialKeywordQuery.around(GeoPoint(0, 0), "coffee", 5, 5)
        result = system.query(query)
        assert result.entries == ()
        assert result.candidates_considered == 0
        assert result.timings.refine_modeled_s == 0.0

    def test_pipeline_with_gibberish_query_filters_everything(self, small_corpus):
        from repro.core.query import SpatialKeywordQuery
        from repro.core.variants import semask
        from repro.geo.regions import SAINT_LOUIS

        system = semask(small_corpus.prepared, llm=small_corpus.llm)
        query = SpatialKeywordQuery.around(
            SAINT_LOUIS.center, "zzz qqq flibber", 8, 8
        )
        result = system.query(query)
        # The LLM can find nothing relevant: empty dict, all rejected.
        assert result.entries == ()
        assert len(result.filtered_out) == result.candidates_considered
