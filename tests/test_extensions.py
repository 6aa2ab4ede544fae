"""Tests for extension features: fusion ranker, R-tree filtering, ablations, CLI."""

from __future__ import annotations

import pytest

from repro.baselines.fusion import ReciprocalRankFusion
from repro.baselines.keyword import KeywordMatcher
from repro.baselines.tfidf import TfIdfRanker
from repro.cli import build_parser, main
from repro.core.filtering import FilteringStage
from repro.core.pipeline import SemaSK, SemaSKConfig
from repro.core.query import SpatialKeywordQuery
from repro.core.spatial_filter import RTreeFilteringStage
from repro.eval.ablations import llm_quality_sweep, summary_ablation
from repro.eval.queries import EvalQueryBuilder
from repro.geo.regions import SAINT_LOUIS


@pytest.fixture(scope="module")
def queries(small_corpus):
    builder = EvalQueryBuilder(small_corpus.llm, small_corpus.ground_truth)
    qs, _ = builder.build_for_city(
        small_corpus.city, small_corpus.dataset, count=6, seed=7
    )
    return qs


class TestReciprocalRankFusion:
    def test_requires_components(self):
        with pytest.raises(ValueError):
            ReciprocalRankFusion([])

    def test_invalid_k0(self):
        with pytest.raises(ValueError):
            ReciprocalRankFusion([TfIdfRanker()], k0=0)

    def test_weights_length_checked(self):
        with pytest.raises(ValueError):
            ReciprocalRankFusion([TfIdfRanker()], weights=[1.0, 2.0])

    def test_fuses_component_rankings(self, small_corpus):
        records = list(small_corpus.dataset)[:150]
        fusion = ReciprocalRankFusion(
            [TfIdfRanker(), KeywordMatcher(match_all=False)]
        ).fit(records)
        ranked = fusion.rank("fresh pizza slices", records, 10)
        assert ranked
        scores = [r.score for r in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_agreement_boosts_rank(self, small_corpus):
        """A document ranked well by both components beats one ranked by one."""
        records = list(small_corpus.dataset)[:200]
        tfidf = TfIdfRanker().fit(records)
        fusion = ReciprocalRankFusion(
            [TfIdfRanker(), KeywordMatcher(match_all=False)]
        ).fit(records)
        query = "pizza"
        solo = tfidf.rank(query, records, 5)
        fused = fusion.rank(query, records, 5)
        assert fused  # fusion produces results whenever a component does
        assert solo

    def test_name_reflects_components(self):
        fusion = ReciprocalRankFusion([TfIdfRanker(), KeywordMatcher()])
        assert fusion.name == "RRF(TF-IDF+Keyword)"


class TestRTreeFilteringStage:
    def test_equivalent_to_payload_filtering(self, small_corpus):
        prepared = small_corpus.prepared
        default = FilteringStage(
            prepared.client, prepared.collection_name, prepared.embedder
        )
        rtree = RTreeFilteringStage(prepared)
        assert len(rtree) == len(small_corpus.dataset)
        query = SpatialKeywordQuery.around(
            SAINT_LOUIS.center, "somewhere for a latte", 6, 6
        )
        a = [c.business_id for c in default.run(query, k=10)]
        b = [c.business_id for c in rtree.run(query, k=10)]
        assert a == b

    def test_pluggable_into_pipeline(self, small_corpus):
        system = SemaSK(
            small_corpus.prepared,
            SemaSKConfig(refine_model=None),
            filtering=RTreeFilteringStage(small_corpus.prepared),
        )
        query = SpatialKeywordQuery.around(SAINT_LOUIS.center, "pizza", 6, 6)
        result = system.query(query)
        assert result.entries

    def test_query_many_equals_per_query(self, small_corpus):
        system = SemaSK(
            small_corpus.prepared,
            llm=small_corpus.llm,
            filtering=RTreeFilteringStage(small_corpus.prepared),
        )
        queries = [
            SpatialKeywordQuery.around(SAINT_LOUIS.center, text, km, km)
            for text, km in [("pizza", 6), ("somewhere for a latte", 6),
                             ("pizza", 3), ("live music bar", 4)]
        ]
        batch = system.query_many(queries)
        assert any(result.entries for result in batch)
        for got, query in zip(batch, queries):
            want = system.query(query)
            assert got.query_text == want.query_text == query.text
            assert got.entries == want.entries
            assert got.filtered_out == want.filtered_out
            assert got.candidates_considered == want.candidates_considered

    def test_empty_region(self, small_corpus):
        from repro.geo.point import GeoPoint

        stage = RTreeFilteringStage(small_corpus.prepared)
        query = SpatialKeywordQuery.around(GeoPoint(0, 0), "pizza", 5, 5)
        assert stage.run(query, k=5) == []

    def test_invalid_k(self, small_corpus):
        stage = RTreeFilteringStage(small_corpus.prepared)
        query = SpatialKeywordQuery.around(SAINT_LOUIS.center, "pizza", 5, 5)
        with pytest.raises(ValueError):
            stage.run(query, k=0)


class TestAblations:
    def test_llm_quality_sweep_degrades(self, small_corpus, queries):
        points = llm_quality_sweep(
            small_corpus, queries,
            noise_levels=((0.0, 0.0), (0.5, 0.9)),
        )
        assert len(points) == 2
        ideal, degraded = points
        assert ideal.f1 >= degraded.f1, (
            "a badly degraded LLM should not beat an ideal judge"
        )

    def test_summary_ablation_returns_both_modes(self, small_corpus, queries):
        result = summary_ablation(small_corpus, queries[:3])
        assert set(result) == {"summary", "raw_tips"}
        assert 0.0 <= result["summary"] <= 1.0
        assert 0.0 <= result["raw_tips"] <= 1.0


class TestCLI:
    def test_parser_has_all_commands(self):
        parser = build_parser()
        actions = {
            a.dest: a for a in parser._subparsers._group_actions  # noqa: SLF001
        }
        choices = set(actions["command"].choices)
        assert choices == {
            "build-data", "stats", "query", "table2", "queries", "reshard",
            "snapshot", "serve", "route", "demo",
        }

    def test_stats_command(self, capsys):
        code = main(["stats", "SL", "--pois", "200", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert '"poi_count": 200' in out

    def test_query_command(self, capsys):
        code = main([
            "query", "SL", "somewhere for a latte and a croissant",
            "--pois", "200", "--seed", "3", "--variant", "em",
        ])
        assert code == 0
        assert "SemaSK-EM" in capsys.readouterr().out

    def test_queries_command(self, capsys):
        code = main(["queries", "SL", "--pois", "400", "--seed", "3",
                     "--count", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "intent" in out

    def test_demo_command_writes_file(self, tmp_path, capsys):
        out_file = tmp_path / "demo.html"
        code = main([
            "demo", "--city", "SL", "--pois", "200", "--seed", "3",
            "--out", str(out_file),
        ])
        assert code == 0
        assert out_file.exists()
        assert "<svg" in out_file.read_text()

    def test_build_data_command(self, tmp_path, capsys):
        code = main([
            "build-data", "--pois", "30", "--seed", "5",
            "--out", str(tmp_path / "data"),
        ])
        assert code == 0
        assert (tmp_path / "data" / "sl.jsonl.gz").exists()

    def test_table2_command_small(self, capsys):
        code = main([
            "table2", "--cities", "SB", "--pois", "300", "--seed", "3",
            "--queries", "3",
        ])
        assert code == 0
        assert "F1@10" in capsys.readouterr().out


class TestIRTreeRanker:
    def test_rank_before_fit_raises(self, small_corpus):
        from repro.baselines.irtree_ranker import IRTreeRanker
        from repro.errors import EvaluationError

        with pytest.raises(EvaluationError):
            IRTreeRanker().rank("coffee", list(small_corpus.dataset)[:5], 3)

    def test_only_keyword_matches_returned(self, small_corpus):
        from repro.baselines.irtree_ranker import IRTreeRanker
        from repro.baselines.keyword import KeywordMatcher

        records = list(small_corpus.dataset)
        ranker = IRTreeRanker().fit(records)
        matcher = KeywordMatcher(match_all=True).fit(records)
        candidates = records[:250]
        ranked = ranker.rank("pizza", candidates, 10)
        by_id = {r.business_id: r for r in candidates}
        for result in ranked:
            assert matcher.matches("pizza", by_id[result.business_id])

    def test_scores_decrease_with_distance(self, small_corpus):
        from repro.baselines.irtree_ranker import IRTreeRanker

        records = list(small_corpus.dataset)
        ranker = IRTreeRanker().fit(records)
        ranked = ranker.rank("coffee", records[:300], 10)
        scores = [r.score for r in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_semantic_blindness_of_the_classic_paradigm(self, small_corpus, queries):
        """IR-tree boolean retrieval scores near zero on the vetted semantic
        query set — the related-work gap the paper motivates against."""
        from repro.baselines.irtree_ranker import IRTreeRanker
        from repro.eval.metrics import f1_at_k, mean

        records = list(small_corpus.dataset)
        ranker = IRTreeRanker().fit(records)
        scores = []
        for query in queries:
            candidates = small_corpus.dataset.in_range(query.box)
            ranked = ranker.rank(query.text, candidates, 10)
            scores.append(
                f1_at_k([r.business_id for r in ranked], query.answer_ids, 10)
            )
        assert mean(scores) < 0.25

    def test_empty_query_or_candidates(self, small_corpus):
        from repro.baselines.irtree_ranker import IRTreeRanker

        ranker = IRTreeRanker().fit(list(small_corpus.dataset))
        assert ranker.rank("", list(small_corpus.dataset)[:5], 3) == []
        assert ranker.rank("coffee", [], 3) == []
