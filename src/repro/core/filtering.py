"""The filtering stage (paper §3.2, "Filtering").

Given a query, (1) restrict to POIs inside the query range via a payload
geo filter, then (2) run an approximate kNN search over embeddings to pull
the top-k most semantically similar candidates — all without any LLM call,
"to limit the LLM costs of the refinement step".
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

from repro.core.query import SpatialKeywordQuery
from repro.embeddings.base import EmbeddingModel
from repro.geo.bbox import BoundingBox
from repro.vectordb.client import VectorDBClient
from repro.vectordb.collection import SearchHit
from repro.vectordb.filters import GeoBoundingBoxFilter

#: Default candidate count fetched for refinement (the paper's top-k).
DEFAULT_CANDIDATES = 10


@dataclass(frozen=True)
class Candidate:
    """One filtering-stage hit."""

    business_id: str
    name: str
    score: float
    payload: dict[str, Any]


class FilteringStage:
    """Range filter + embedding kNN against the vector database."""

    def __init__(
        self,
        client: VectorDBClient,
        collection_name: str,
        embedder: EmbeddingModel,
    ) -> None:
        self._client = client
        self._collection = collection_name
        self._embedder = embedder

    def run(
        self, query: SpatialKeywordQuery, k: int = DEFAULT_CANDIDATES
    ) -> list[Candidate]:
        """Top-``k`` in-range candidates by embedding similarity.

        A batch of one: :meth:`run_batch` is the only embed-then-search
        sequence.
        """
        return self.run_batch([query], k)[0]

    def run_batch(
        self,
        queries: Sequence[SpatialKeywordQuery],
        k: int = DEFAULT_CANDIDATES,
    ) -> list[list[Candidate]]:
        """Per-query candidates for a whole batch, sharing work across it.

        Query texts embed in one :meth:`EmbeddingModel.embed_batch` call
        (repeated texts hit the embedder's dedup/cache), and queries with
        the same spatial range share one filtered ``search_batch`` — the
        geo filter's candidate set is evaluated once per distinct range
        instead of once per query. Results come back in query order, and
        a query's candidates do not depend on its batchmates.
        """
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if not queries:
            return []
        vectors = self._embedder.embed_batch([q.text for q in queries])
        groups: dict[BoundingBox, list[int]] = {}
        for position, query in enumerate(queries):
            groups.setdefault(query.range, []).append(position)
        results: list[list[Candidate]] = [[] for _ in queries]
        for box, positions in groups.items():
            geo_filter = GeoBoundingBoxFilter("location", box)
            hit_lists = self._client.search_batch(
                self._collection, vectors[positions], k, flt=geo_filter
            )
            for position, hits in zip(positions, hit_lists):
                results[position] = _to_candidates(hits)
        return results


def _to_candidates(hits: list[SearchHit]) -> list[Candidate]:
    return [
        Candidate(
            business_id=hit.id,
            name=str(hit.payload.get("name", hit.id)),
            score=hit.score,
            payload=hit.payload,
        )
        for hit in hits
    ]
