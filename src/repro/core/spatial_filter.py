"""R-tree-backed filtering stage (index ablation, extension).

The default :class:`~repro.core.filtering.FilteringStage` delegates the
spatial predicate to the vector database's payload filter — a scan, as in
Qdrant's filtered search over small collections. This alternative first
resolves the range with a bulk-loaded R-tree (the classic spatial-keyword
design the paper's related work builds on) and then lets the vector
database score only the surviving ids. Results are identical; the ablation
benchmark compares the latency profiles.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.filtering import Candidate, _to_candidates
from repro.core.prepare import PreparedCity
from repro.core.query import SpatialKeywordQuery
from repro.spatial.rtree import RTree
from repro.vectordb.filters import FieldIn


class RTreeFilteringStage:
    """Spatial range via R-tree, then embedding kNN over the survivors."""

    def __init__(self, prepared: PreparedCity) -> None:
        self._client = prepared.client
        self._collection = prepared.collection_name
        self._embedder = prepared.embedder
        self._rtree = RTree.bulk_load(
            [
                (record.business_id, record.latitude, record.longitude)
                for record in prepared.dataset
            ]
        )

    def __len__(self) -> int:
        return len(self._rtree)

    def run(self, query: SpatialKeywordQuery, k: int = 10) -> list[Candidate]:
        """Top-``k`` in-range candidates (same contract as FilteringStage)."""
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        in_range = self._rtree.range_query(query.range)
        if not in_range:
            return []
        vector = self._embedder.embed(query.text)
        hits = self._client.search(
            self._collection,
            vector,
            k,
            flt=FieldIn("business_id", in_range),
        )
        return _to_candidates(hits)

    def run_batch(
        self, queries: Sequence[SpatialKeywordQuery], k: int = 10
    ) -> list[list[Candidate]]:
        """:meth:`run` per query, in query order (the stage ``SemaSK`` calls)."""
        return [self.run(query, k) for query in queries]
