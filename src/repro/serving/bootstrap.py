"""Cold-start bootstrap: load a prepared-city snapshot, or build + cache one.

A serving process (and the demo) should come up in milliseconds, not by
re-running data preparation — generation, geocoding, summarization, and
embedding take orders of magnitude longer than loading the snapshot of
their output (the ``from_matrix`` restore path attaches persisted HNSW
graphs and can memory-map the vector matrix).
:func:`load_or_prepare` is the one helper every entry point shares:

* snapshot directory exists → :func:`~repro.core.storage.load_prepared`
  (``mmap=True`` by default — serving reads off the page cache);
* otherwise → build the corpus once, then
  :func:`~repro.core.storage.save_prepared` so the *next* start is fast.

``repro serve``, ``repro demo --snapshot``, and
``examples/demo_stlouis.py`` all boot through here — none of them
re-embeds a corpus that is already on disk.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.prepare import PreparedCity
from repro.core.storage import (
    collection_snapshot_dir,
    has_prepared,
    load_prepared,
    save_prepared,
)


def load_or_prepare(
    snapshot_dir: str | Path | None,
    city: str = "SL",
    count: int | None = 1200,
    seed: int = 7,
    shards: int = 1,
    mmap: bool = True,
    refresh: bool = False,
    wal: str | None = None,
) -> PreparedCity:
    """A prepared city, from its snapshot when possible.

    ``snapshot_dir=None`` always builds in memory (no caching).
    ``refresh=True`` rebuilds even if a snapshot exists and overwrites
    it. Note the build parameters (``city``, ``count``, ``seed``,
    ``shards``) only apply when building — a loaded snapshot serves
    whatever it was built with; pass ``refresh=True`` after changing
    them. Raises :class:`~repro.errors.DatasetError` if an existing
    snapshot is unreadable or was prepared with a different embedder.

    ``wal`` (an fsync mode) makes the served collection durable: on the
    load path it replays + attaches write-ahead logs next to the cached
    collection snapshot; on the build path logs are attached right after
    the snapshot is first saved, so writes accepted by a brand-new
    deployment are covered too. It requires a ``snapshot_dir`` — with no
    snapshot there is nothing a WAL replay could be anchored to — and
    raises :class:`~repro.errors.CollectionError` without one.
    """
    # Imported here, not at module top: eval.corpus pulls in the data
    # generator + ontology stack, which the load path never needs.
    from repro.eval.corpus import build_corpus

    if wal is not None and snapshot_dir is None:
        from repro.errors import CollectionError

        raise CollectionError(
            "wal mode requires a snapshot directory (the log lives "
            "beside the collection snapshot)"
        )
    if snapshot_dir is not None:
        snapshot_dir = Path(snapshot_dir)
        if not refresh and has_prepared(snapshot_dir):
            return load_prepared(snapshot_dir, mmap=mmap, wal=wal)
    corpus = build_corpus(
        city, seed=seed, count=count, shards=shards, eager_index=True
    )
    if snapshot_dir is not None:
        save_prepared(corpus.prepared, snapshot_dir)
        if wal is not None:
            from repro.vectordb.persistence import attach_wal

            prepared = corpus.prepared
            attach_wal(
                prepared.client.get_collection(prepared.collection_name),
                collection_snapshot_dir(snapshot_dir),
                fsync=wal,
            )
    return corpus.prepared
