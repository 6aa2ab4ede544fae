"""Seeded inputs: the corpus the server loads and the request streams.

The corpus is built through the public ``DataPreparation`` steps (so each
step's time is a set-up layer metric) and saved with ``save_prepared``;
the server under test only ever sees the snapshot and the generated
requests. Query texts are distinct surface forms written by the paper's
query-generation prompt over seeded random POIs — replaying a handful of
fixed strings would let any future per-text cache turn the embed layer
into a dict lookup.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import spec
from harness import encode_request

from repro.core.prepare import DataPreparation, PreparedCity
from repro.core.storage import save_prepared
from repro.data.dataset import Dataset
from repro.data.yelp import YelpStyleGenerator
from repro.embeddings.semantic import SemanticEmbedder
from repro.geo.bbox import BoundingBox
from repro.geo.point import GeoPoint
from repro.geo.regions import CityRegion, city_by_code
from repro.llm.base import ChatMessage
from repro.llm.prompts import build_querygen_prompt, describe_poi_for_querygen
from repro.llm.simulated import SimulatedLLM
from repro.semantics.ontology.build import default_ontology

QUERYGEN_MODEL = "o1-mini"  # the model the paper writes test queries with


@dataclass
class Corpus:
    """The prepared city on disk plus what the oracle needs in memory."""

    city: CityRegion
    dataset: Dataset
    embedder: SemanticEmbedder
    llm: SimulatedLLM
    snapshot: Path
    timings: dict[str, float]
    ids: np.ndarray = field(init=False)
    lats: np.ndarray = field(init=False)
    lons: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.ids = np.array([r.business_id for r in self.dataset], dtype=object)
        self.lats = np.array([r.latitude for r in self.dataset], dtype=np.float64)
        self.lons = np.array([r.longitude for r in self.dataset], dtype=np.float64)

    @property
    def build_s(self) -> float:
        """Generate + the three preparation steps + save."""
        return sum(self.timings.values())

    def ids_inside(self, box: BoundingBox) -> set[str]:
        """Dataset POIs inside ``box`` (bounds inclusive, no dateline)."""
        mask = (
            (self.lats >= box.min_lat) & (self.lats <= box.max_lat)
            & (self.lons >= box.min_lon) & (self.lons <= box.max_lon)
        )
        return set(self.ids[mask].tolist())

    def snapshot_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.snapshot.rglob("*")
                   if p.is_file())


def build_corpus(snapshot: Path) -> Corpus:
    """Generate, prepare and save the city; never cached across runs."""
    timings: dict[str, float] = {}

    def timed(label: str, call) -> None:
        started = time.perf_counter()
        call()
        timings[label] = time.perf_counter() - started

    city = city_by_code(spec.CITY)
    graph, lexicon = default_ontology()
    llm = SimulatedLLM(graph, lexicon)
    embedder = SemanticEmbedder()
    preparation = DataPreparation(
        llm=llm, embedder=embedder, shards=spec.SHARDS, eager_index=True
    )
    holder: list[Dataset] = []
    timed("data.generate_s", lambda: holder.append(Dataset(
        YelpStyleGenerator(graph, lexicon, seed=spec.CORPUS_SEED)
        .generate_city(city, count=spec.POIS), city.code)))
    dataset = holder[0]
    timed("core.prepare.address_s", lambda: preparation.complete_address(dataset))
    timed("core.prepare.summarize_s", lambda: preparation.summarize_tips(dataset))
    timed("core.prepare.embed_index_s",
          lambda: preparation.generate_embeddings(dataset, spec.COLLECTION))
    prepared = PreparedCity(dataset=dataset, collection_name=spec.COLLECTION,
                            client=preparation.client, embedder=embedder)
    timed("core.storage.save_s", lambda: save_prepared(prepared, snapshot))
    preparation.client.close()
    return Corpus(city=city, dataset=dataset, embedder=embedder, llm=llm,
                  snapshot=snapshot, timings=timings)


@dataclass(frozen=True)
class Request:
    """One generated request: wire bytes for the socket, body for replay."""

    op: str                      # "search" | "query" | "upsert"
    path: str
    body: dict
    wire: bytes
    box: BoundingBox | None = None


def _request(op: str, path: str, body: dict,
             box: BoundingBox | None = None) -> Request:
    raw = json.dumps(body).encode("utf-8")
    return Request(op, path, body, encode_request("POST", path, raw), box)


def query_text(corpus: Corpus, record) -> str:
    """The question the paper's o1-mini prompt writes about one POI."""
    prompt = build_querygen_prompt(describe_poi_for_querygen(record.attributes()))
    completion = corpus.llm.chat(QUERYGEN_MODEL, [ChatMessage("user", prompt)])
    return completion.content.strip()


def _random_center(corpus: Corpus, rng: random.Random) -> GeoPoint:
    bounds = corpus.city.bounds
    return GeoPoint(rng.uniform(bounds.min_lat, bounds.max_lat),
                    rng.uniform(bounds.min_lon, bounds.max_lon))


def geo_filter_json(box: BoundingBox | None) -> dict | None:
    """The wire form of "location inside ``box``" (``None``: no filter)."""
    if box is None:
        return None
    return {"geo_bounding_box": {
        "key": "location", "min_lat": box.min_lat, "min_lon": box.min_lon,
        "max_lat": box.max_lat, "max_lon": box.max_lon,
    }}


def _search_request(vector: np.ndarray, box: BoundingBox | None) -> Request:
    body: dict = {"collection": spec.COLLECTION, "vector": vector.tolist(),
                  "k": spec.K}
    if box is not None:
        body["with_payload"] = False
        body["filter"] = geo_filter_json(box)
    return _request("search", "/search", body, box)


def upsert_request(corpus: Corpus, rng: random.Random, point_id: str) -> Request:
    """One new point with a random unit vector and a name + location.

    The location lies in a strip north of the city, outside every query
    box, so no read's answer depends on how reads and writes interleave;
    the write path does the same work wherever the point lies.
    """
    bounds = corpus.city.bounds
    vector = np.random.default_rng(rng.getrandbits(32)).standard_normal(
        corpus.embedder.dim)
    vector = (vector / np.linalg.norm(vector)).astype(np.float32)
    point = {
        "id": point_id,
        "vector": vector.tolist(),
        "payload": {
            "name": f"Ledger write {point_id}",
            "location": {
                "lat": bounds.max_lat + 0.2 + rng.uniform(0.0, 0.05),
                "lon": rng.uniform(bounds.min_lon, bounds.max_lon),
            },
        },
    }
    return _request("upsert", "/upsert",
                    {"collection": spec.COLLECTION, "points": [point]})


class RequestStream:
    """A workload's seeded request stream, generated as it is consumed.

    The same seed gives the same stream however it is taken, and it never
    repeats a request: a server that answers faster is sent more distinct
    texts, boxes and upsert ids, so the workload is the same one on a
    slow and on a fast commit. ``requests`` keeps everything handed out.
    """

    def __init__(self, workload: str, corpus: Corpus, seed: int) -> None:
        self._workload = workload
        self._corpus = corpus
        self._rng = random.Random(f"ledger:{seed}:{workload}")
        self._records: list = []
        self.requests: list[Request] = []

    def take(self, count: int) -> list[Request]:
        """Generate, record and return the next ``count`` requests."""
        first = len(self.requests)
        for _ in range(count):
            self.requests.append(self._next())
        return self.requests[first:]

    def _next(self) -> Request:
        workload, corpus, rng = self._workload, self._corpus, self._rng
        if not self._records:  # one text per POI before any POI repeats
            records = list(corpus.dataset)
            self._records = rng.sample(records, len(records))
        text = query_text(corpus, self._records.pop())
        center = _random_center(corpus, rng)
        if workload == "query_nl":
            return _request("query", "/query", {
                "text": text, "lat": center.lat, "lon": center.lon,
                "range_km": spec.RANGE_KM,
            }, BoundingBox.around(center, spec.RANGE_KM, spec.RANGE_KM))
        if workload == "mixed_rw" and rng.random() < spec.WRITE_SHARE:
            return upsert_request(corpus, rng, f"ledger-w{len(self.requests)}")
        box = (None if workload == "search_knn" else
               BoundingBox.around(center, spec.RANGE_KM, spec.RANGE_KM))
        return _search_request(corpus.embedder.embed(text), box)


def reference_queries(corpus: Corpus) -> list[tuple[str, GeoPoint]]:
    """The fixed (seed-independent) query set behind ``llm_tokens_per_query``.

    An exact-repeat count must not vary with the workload seed, so these
    texts and centres depend on the corpus alone.
    """
    rng = random.Random("ledger:reference")
    records = rng.sample(list(corpus.dataset), spec.REFERENCE_QUERIES)
    return [(query_text(corpus, record), _random_center(corpus, rng))
            for record in records]
