"""Persistence for prepared cities.

Data preparation (geocoding, summarization, embedding) is the expensive
offline phase; a deployment prepares once and serves queries forever.
:func:`save_prepared` / :func:`load_prepared` snapshot a
:class:`~repro.core.prepare.PreparedCity` to disk — the dataset as JSONL
and the vector collection as a directory snapshot — so a served system
restarts without re-running the pipeline. Sharded collections round-trip
too: the snapshot directory then contains one sub-directory per shard,
and the reloaded city serves queries through the same sharded backend it
was prepared with (see :mod:`repro.vectordb.persistence`).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.prepare import PreparedCity
from repro.data.dataset import Dataset
from repro.embeddings.base import EmbeddingModel
from repro.embeddings.semantic import SemanticEmbedder
from repro.errors import DatasetError
from repro.vectordb.client import VectorDBClient
from repro.vectordb.persistence import load_collection, save_collection

_MANIFEST = "prepared.json"
_DATASET = "dataset.jsonl.gz"
_COLLECTION_DIR = "collection"


def collection_snapshot_dir(directory: str | Path) -> Path:
    """The vector-collection snapshot inside a prepared-city snapshot.

    Public because WAL helpers need this path: the collection's
    write-ahead logs live in a *sibling* of this directory (see
    :func:`repro.vectordb.wal.wal_directory`).
    """
    return Path(directory) / _COLLECTION_DIR


def has_prepared(directory: str | Path) -> bool:
    """Whether ``directory`` holds a :func:`save_prepared` snapshot.

    Checks only for the manifest — :func:`load_prepared` still validates
    the full contents (and raises :class:`~repro.errors.DatasetError`)
    when the snapshot is actually read.
    """
    return (Path(directory) / _MANIFEST).exists()


def save_prepared(prepared: PreparedCity, directory: str | Path) -> None:
    """Write a prepared city (dataset + vector collection) to ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    prepared.dataset.save(directory / _DATASET)
    collection = prepared.client.get_collection(prepared.collection_name)
    save_collection(collection, directory / _COLLECTION_DIR)
    manifest = {
        "collection_name": prepared.collection_name,
        "city_code": prepared.dataset.city_code,
        "poi_count": len(prepared.dataset),
        "embedder_dim": prepared.embedder.dim,
        "embedder_model": getattr(prepared.embedder, "model_id", "unknown"),
    }
    (directory / _MANIFEST).write_text(json.dumps(manifest, indent=2))


def load_prepared(
    directory: str | Path,
    embedder: EmbeddingModel | None = None,
    client: VectorDBClient | None = None,
    mmap: bool = False,
    wal: str | None = None,
) -> PreparedCity:
    """Load a prepared city written by :func:`save_prepared`.

    ``embedder`` must match the one used at preparation time (the manifest
    records dim and model id and mismatches are rejected) — query vectors
    have to live in the same space as the stored document vectors.

    ``mmap=True`` memory-maps the collection's vector matrix instead of
    loading it into RAM (see
    :func:`repro.vectordb.persistence.load_collection`) — restarts of a
    served deployment fault in only the pages queries touch. Snapshots
    whose collection was prepared with an eager index build reload with
    their HNSW graphs attached, so the first query pays no
    reconstruction either way.

    ``wal`` (an fsync mode: ``"always"``, ``"batch"``, or ``"off"``)
    makes the collection durable: any write-ahead-log tail beside the
    collection snapshot is replayed on load (that part happens even with
    ``wal=None``) and live logs are attached so writes served afterwards
    survive a crash.
    """
    directory = Path(directory)
    manifest_path = directory / _MANIFEST
    if not manifest_path.exists():
        raise DatasetError(f"no prepared-city snapshot at {directory}")
    manifest = json.loads(manifest_path.read_text())

    if embedder is None:
        embedder = SemanticEmbedder(dim=manifest["embedder_dim"])
    if embedder.dim != manifest["embedder_dim"]:
        raise DatasetError(
            f"embedder dim {embedder.dim} does not match snapshot dim "
            f"{manifest['embedder_dim']}"
        )
    model_id = getattr(embedder, "model_id", "unknown")
    if model_id != manifest["embedder_model"]:
        raise DatasetError(
            f"embedder model {model_id!r} does not match snapshot model "
            f"{manifest['embedder_model']!r}"
        )

    dataset = Dataset.load(directory / _DATASET)
    if len(dataset) != manifest["poi_count"]:
        raise DatasetError(
            f"snapshot dataset has {len(dataset)} POIs, manifest says "
            f"{manifest['poi_count']}"
        )
    collection = load_collection(directory / _COLLECTION_DIR, mmap=mmap, wal=wal)
    if client is None:
        client = VectorDBClient()
    client.attach_collection(collection)
    return PreparedCity(
        dataset=dataset,
        collection_name=manifest["collection_name"],
        client=client,
        embedder=embedder,
    )
