"""Shared, cached evaluation corpora.

Building a city (generation + address completion + summarization +
embedding) is the expensive part of every experiment; this module caches
prepared cities per (city, seed, count) so benchmarks, tests, and examples
share work within a process.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.prepare import DataPreparation, PreparedCity
from repro.data.dataset import Dataset
from repro.data.yelp import YelpStyleGenerator
from repro.eval.groundtruth import GroundTruthBuilder
from repro.geo.regions import CityRegion, city_by_code
from repro.llm.simulated import SimulatedLLM
from repro.semantics.ontology.build import default_ontology

_CACHE: dict[tuple[str, int, int | None, bool, int], "EvalCorpus"] = {}


@dataclass
class EvalCorpus:
    """A fully prepared city plus the shared evaluation helpers."""

    city: CityRegion
    dataset: Dataset
    prepared: PreparedCity
    ground_truth: GroundTruthBuilder
    llm: SimulatedLLM
    seed: int


def build_corpus(
    city_code: str,
    seed: int = 7,
    count: int | None = None,
    summarize: bool = True,
    shards: int = 1,
    eager_index: bool = True,
) -> EvalCorpus:
    """Generate and prepare a city corpus (no cache).

    ``shards > 1`` stores the embeddings in a hash-partitioned
    :class:`~repro.vectordb.sharded.ShardedCollection` instead of a single
    collection; the query pipeline is identical over either backend.
    Preparation builds eagerly every HNSW graph a search would walk
    (only collections or shards above ``BRUTE_FORCE_THRESHOLD`` points
    get one), so queries never pay for graph construction;
    ``eager_index=False`` restores the lazy build.
    """
    city = city_by_code(city_code)
    graph, lexicon = default_ontology()
    generator = YelpStyleGenerator(graph, lexicon, seed=seed)
    dataset = Dataset(generator.generate_city(city, count=count), city.code)
    llm = SimulatedLLM(graph, lexicon)
    preparation = DataPreparation(llm=llm, summarize=summarize, shards=shards,
                                  eager_index=eager_index)
    prepared = preparation.prepare(dataset)
    return EvalCorpus(
        city=city,
        dataset=dataset,
        prepared=prepared,
        ground_truth=GroundTruthBuilder(graph, lexicon),
        llm=llm,
        seed=seed,
    )


def get_corpus(
    city_code: str,
    seed: int = 7,
    count: int | None = None,
    summarize: bool = True,
    shards: int = 1,
) -> EvalCorpus:
    """Cached :func:`build_corpus` (per-process)."""
    key = (city_code.upper(), seed, count, summarize, shards)
    corpus = _CACHE.get(key)
    if corpus is None:
        corpus = build_corpus(city_code, seed=seed, count=count,
                              summarize=summarize, shards=shards)
        _CACHE[key] = corpus
    return corpus


def clear_corpus_cache() -> None:
    """Drop all cached corpora (tests use this to bound memory)."""
    _CACHE.clear()
