"""The data-preparation module (paper §3.1).

Three steps, exactly as the paper lays out:

1. **Address completion** — reverse-geocode each POI's coordinates into
   city/county/suburb/neighborhood (synthetic geocoder offline).
2. **Tip summarization** — prompt the (simulated) GPT-3.5-Turbo with the
   paper's summarization prompt, one call per POI.
3. **Embedding generation** — embed "POI name, address, categories, hours,
   and tip summary" with the (simulated) text-embedding-3-small and store
   the vectors with full attribute payloads in the vector database.

Embedding generation also builds, eagerly, the HNSW graph of every
collection or shard big enough for a search to walk one (more than
``Collection.BRUTE_FORCE_THRESHOLD`` points; smaller ones are scanned
and get no graph), so the first query never stalls on a lazy build.
``eager_index=False`` restores the lazy behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.dataset import Dataset
from repro.embeddings.base import EmbeddingModel
from repro.embeddings.semantic import SemanticEmbedder
from repro.geo.geocoder import ReverseGeocoder
from repro.llm.base import ChatMessage, LLMClient
from repro.llm.parsing import parse_summary
from repro.llm.prompts import build_summarize_prompt
from repro.llm.simulated import SimulatedLLM
from repro.vectordb.client import VectorDBClient
from repro.vectordb.collection import PointStruct

#: Model used for summarization, per the paper ("for its lower costs").
SUMMARIZE_MODEL = "gpt-3.5-turbo"


@dataclass
class PreparedCity:
    """Handle to a city that has been through data preparation."""

    dataset: Dataset
    collection_name: str
    client: VectorDBClient
    embedder: EmbeddingModel


class DataPreparation:
    """Runs the paper's three-step preparation over a city dataset."""

    def __init__(
        self,
        llm: LLMClient | None = None,
        embedder: EmbeddingModel | None = None,
        geocoder: ReverseGeocoder | None = None,
        client: VectorDBClient | None = None,
        summarize: bool = True,
        shards: int = 1,
        eager_index: bool = True,
    ) -> None:
        self._llm = llm if llm is not None else SimulatedLLM()
        self._embedder = (
            embedder if embedder is not None else SemanticEmbedder()
        )
        self._geocoder = geocoder if geocoder is not None else ReverseGeocoder()
        self._client = client if client is not None else VectorDBClient()
        self._summarize = summarize
        self._shards = shards
        self._eager_index = eager_index

    @property
    def llm(self) -> LLMClient:
        """The LLM client used for summarization (usage on its ledger)."""
        return self._llm

    @property
    def client(self) -> VectorDBClient:
        """The vector-database client collections are created in."""
        return self._client

    def complete_address(self, dataset: Dataset) -> None:
        """Step 1: fill county/suburb/neighborhood from coordinates."""
        for record in list(dataset):
            if record.neighborhood:
                continue  # already completed
            address = self._geocoder.reverse(record.latitude, record.longitude)
            dataset.replace(
                record.with_preparation(
                    county=address.county,
                    suburb=address.suburb,
                    neighborhood=address.neighborhood,
                    tip_summary=record.tip_summary,
                )
            )

    def summarize_tips(self, dataset: Dataset) -> None:
        """Step 2: one summarization call per POI (skips already-summarized)."""
        for record in list(dataset):
            if record.tip_summary or not record.tips:
                continue
            prompt = build_summarize_prompt(list(record.tips))
            completion = self._llm.chat(
                SUMMARIZE_MODEL, [ChatMessage("user", prompt)]
            )
            summary = parse_summary(completion.content)
            dataset.replace(
                record.with_preparation(
                    county=record.county,
                    suburb=record.suburb,
                    neighborhood=record.neighborhood,
                    tip_summary=summary,
                )
            )

    def generate_embeddings(self, dataset: Dataset, collection_name: str) -> None:
        """Step 3: embed each POI document and upsert into the collection."""
        collection = self._client.create_collection(
            collection_name, dim=self._embedder.dim, exist_ok=True,
            shards=self._shards,
        )
        # Secondary index on business_id accelerates id-set filters (the
        # R-tree filtering stage resolves ranges to id lists).
        collection.create_payload_index("business_id")
        points = []
        for record in dataset:
            vector = self._embedder.embed(record.document_text())
            payload = record.attributes(include_tips=True)
            payload["location"] = {
                "lat": record.latitude,
                "lon": record.longitude,
            }
            points.append(
                PointStruct(id=record.business_id, vector=vector, payload=payload)
            )
        collection.upsert(points)
        if self._eager_index:
            # Pay for graph construction here, not on the first query.
            collection.build_hnsw_if_needed()

    def prepare(self, dataset: Dataset, collection_name: str | None = None) -> PreparedCity:
        """Run all three steps; returns a handle for query processing."""
        name = collection_name or f"poi_{dataset.city_code.lower() or 'city'}"
        self.complete_address(dataset)
        if self._summarize:
            self.summarize_tips(dataset)
        self.generate_embeddings(dataset, name)
        return PreparedCity(
            dataset=dataset,
            collection_name=name,
            client=self._client,
            embedder=self._embedder,
        )
