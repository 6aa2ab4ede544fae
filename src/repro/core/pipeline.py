"""The SemaSK query pipeline: filtering + (optional) LLM refinement.

``SemaSK`` wires the two stages of paper §3.2 over a prepared city. The
``refine_model`` knob realizes the paper's system variants:

* ``"gpt-4o"``  — **SemaSK** (the default system);
* ``"o1-mini"`` — **SemaSK-O1**;
* ``None``      — **SemaSK-EM** (embeddings only, no refinement).

Batched execution: :meth:`SemaSK.query_many` answers a list of queries
through the batched read path — one ``embed_batch`` call for all query
texts, shared filter evaluation per distinct range, then LLM refinement
query by query on the calling thread. It is the only
filter-then-refine sequence: :meth:`SemaSK.query` is a batch of one, so a
query's :class:`QueryResult` does not depend on its batchmates, apart
from the batch's filtering time being amortized evenly across the
per-query timings. The serving layer builds on this: concurrent
single-query HTTP clients are coalesced into one ``query_many`` call per
dispatch window (:class:`repro.serving.batcher.QueryCoalescer`).
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.filtering import DEFAULT_CANDIDATES, Candidate, FilteringStage
from repro.core.prepare import PreparedCity
from repro.core.query import SpatialKeywordQuery
from repro.core.refinement import RefinementStage
from repro.core.results import QueryResult, QueryTimings, ResultEntry
from repro.llm.base import LLMClient
from repro.llm.simulated import SimulatedLLM


@dataclass(frozen=True)
class SemaSKConfig:
    """Tunables of the SemaSK pipeline."""

    refine_model: str | None = "gpt-4o"
    candidate_k: int = DEFAULT_CANDIDATES

    def variant_name(self) -> str:
        """The paper's name for this configuration."""
        if self.refine_model is None:
            return "SemaSK-EM"
        if self.refine_model == "o1-mini":
            return "SemaSK-O1"
        if self.refine_model == "gpt-4o":
            return "SemaSK"
        return f"SemaSK[{self.refine_model}]"


class SemaSK:
    """The full semantics-aware spatial keyword query system."""

    def __init__(
        self,
        prepared: PreparedCity,
        config: SemaSKConfig | None = None,
        llm: LLMClient | None = None,
        filtering: FilteringStage | None = None,
    ) -> None:
        self._config = config or SemaSKConfig()
        self._llm = llm if llm is not None else SimulatedLLM()
        # Any object with run_batch(queries, k) -> list[list[Candidate]] can
        # stand in for the default stage (e.g. core.spatial_filter's R-tree).
        self._filtering = filtering or FilteringStage(
            prepared.client,
            prepared.collection_name,
            prepared.embedder,
        )
        self._refinement = (
            RefinementStage(self._llm, self._config.refine_model)
            if self._config.refine_model is not None
            else None
        )

    @property
    def name(self) -> str:
        """Variant name (SemaSK / SemaSK-O1 / SemaSK-EM)."""
        return self._config.variant_name()

    @property
    def config(self) -> SemaSKConfig:
        """The pipeline configuration."""
        return self._config

    @property
    def llm(self) -> LLMClient:
        """The LLM client (ledger carries usage/cost accounting)."""
        return self._llm

    def query(self, query: SpatialKeywordQuery) -> QueryResult:
        """Answer one query with the filtering-and-refinement procedure.

        A batch of one through :meth:`query_many`.
        """
        return self.query_many([query])[0]

    def query_many(
        self, queries: Sequence[SpatialKeywordQuery]
    ) -> list[QueryResult]:
        """Answer many queries through the batched read path.

        Filtering runs once for the whole batch (batched embedding, shared
        range-filter evaluation, matrix scoring); refinement then runs per
        query, in order, on the calling thread. Results are returned in
        query order. Each result's ``filter_s`` is the batch filtering
        time divided by the batch size.
        """
        if not queries:
            return []

        t0 = time.perf_counter()
        candidate_lists = self._filtering.run_batch(
            queries, k=self._config.candidate_k
        )
        filter_s = (time.perf_counter() - t0) / len(queries)

        if self._refinement is None:
            return [
                self._embedding_only_result(query, candidates, filter_s)
                for query, candidates in zip(queries, candidate_lists)
            ]

        results = []
        for query, candidates in zip(queries, candidate_lists):
            t1 = time.perf_counter()
            outcome = self._refinement.run(query.text, candidates)
            refine_compute_s = time.perf_counter() - t1
            results.append(self._refined_result(
                query, candidates, outcome, filter_s, refine_compute_s
            ))
        return results

    # ------------------------------------------------------------------
    # result assembly
    # ------------------------------------------------------------------

    def _embedding_only_result(
        self,
        query: SpatialKeywordQuery,
        candidates: list[Candidate],
        filter_s: float,
    ) -> QueryResult:
        entries = tuple(
            ResultEntry(
                business_id=c.business_id,
                name=c.name,
                score=c.score,
                reason="",
                recommended=True,
            )
            for c in candidates
        )
        return QueryResult(
            query_text=query.text,
            entries=entries,
            filtered_out=(),
            timings=QueryTimings(
                filter_s=filter_s,
                refine_compute_s=0.0,
                refine_modeled_s=0.0,
            ),
            candidates_considered=len(candidates),
        )

    def _refined_result(
        self,
        query: SpatialKeywordQuery,
        candidates: list[Candidate],
        outcome,
        filter_s: float,
        refine_compute_s: float,
    ) -> QueryResult:
        n = max(len(outcome.accepted), 1)
        entries = tuple(
            ResultEntry(
                business_id=c.business_id,
                name=c.name,
                score=1.0 - rank / n,
                reason=reason,
                recommended=True,
            )
            for rank, (c, reason) in enumerate(outcome.accepted)
        )
        filtered_out = tuple(
            ResultEntry(
                business_id=c.business_id,
                name=c.name,
                score=c.score,
                reason="Filtered out by the LLM refinement step.",
                recommended=False,
            )
            for c in outcome.rejected
        )
        return QueryResult(
            query_text=query.text,
            entries=entries,
            filtered_out=filtered_out,
            timings=QueryTimings(
                filter_s=filter_s,
                refine_compute_s=refine_compute_s,
                refine_modeled_s=outcome.modeled_latency_s,
            ),
            candidates_considered=len(candidates),
            raw_llm_output=outcome.raw_output,
        )
