"""Snapshot persistence for vector-database collections.

One on-disk layout (schema v4). A single-collection snapshot is a
directory with:

* ``vectors.npy`` — the dense float32 matrix, written uncompressed so a
  reload can ``np.load(..., mmap_mode="r")`` it and serve searches off
  the page cache without materializing vectors in RAM (``mmap=True``);
* ``payloads.jsonl`` — one ``{"id", "payload"}`` row per point, aligned
  with the matrix rows;
* ``graph.npz`` — the built HNSW graph as compact numpy arrays
  (:meth:`~repro.vectordb.hnsw.HNSWIndex.to_arrays`), written only when
  the graph covered every point at save time. On load it is attached
  as-is when the collection is big enough for a search to walk it
  (:meth:`~repro.vectordb.collection.Collection.needs_graph`), making
  cold start O(metadata) instead of O(graph rebuild), and ignored
  otherwise; a missing, truncated, or config-mismatched graph file
  degrades to the lazy rebuild with a :class:`RuntimeWarning`, never a
  failed load;
* ``meta.json`` — name, dim, metric, count, the ``hnsw`` config, and
  the ``indexed_payload_fields`` list, so a reload restores search
  behaviour — not just the data.

A :class:`~repro.vectordb.sharded.ShardedCollection` snapshot is a
directory whose ``meta.json`` carries ``"shards": N`` and an ``order``
of point ids (global insertion order), with one single-collection
snapshot per shard under ``shard-00/`` … ``shard-NN/``.

Writes are crash-safe: :func:`save_collection` builds the snapshot in a
temporary sibling directory and swaps it into place by renames, so an
interrupted save never leaves a half-written tree at the published path
(and never destroys the previous snapshot there).

Schema 3 is the same layout and still loads. Files and meta keys beyond
those above are ignored by a load and not carried by the next save
(``docs/snapshot-format.md`` names the ones older writers left). Anything
older (schema 2's compressed vectors, schema 1's missing
``schema`` key) is refused by every entry point with one
:class:`~repro.errors.CollectionError` naming the schema found and the
last commit whose ``snapshot migrate`` upgrades it.
:func:`inspect_snapshot` summarizes a snapshot without loading it.

Durability: a snapshot directory may have a *sibling* write-ahead log
directory (``<name>.wal/``, one ``shard-NN.wal`` per shard — a sibling
rather than a child so the atomic directory swap above never moves or
clobbers the log). :func:`load_collection` replays any WAL tail found
there on top of the snapshot — restoring writes that were logged after
the last save — and, when asked (``wal="always"|"batch"|"off"``),
attaches fresh logs so subsequent writes are durable too.
:func:`save_collection` captures each shard's WAL offset inside the same
locked snapshot view it serializes, and truncates the logs through those
offsets only after the atomic publish succeeds: records covered by the
new snapshot are dropped, writes that raced the save survive in the log.
See :mod:`repro.vectordb.wal` for the record format.

Stranded temporaries: a hard kill mid-save can leave ``.<name>.save-tmp-*``
(and ``.old-*``; from older versions' reshard, ``.reshard-tmp``) sibling
directories behind. Loads and inspections never look at them,
:func:`inspect_snapshot` lists them so operators can see the litter, and
the next :func:`save_collection` of the same path sweeps any older than
one hour (age-gated so a concurrent in-flight save's staging tree is
never deleted from under it).

Resharding: :func:`reshard_snapshot` is :func:`load_collection` →
:func:`~repro.vectordb.sharded.reroute` → :func:`save_collection`: a
snapshot changes shard count offline with everything a load restores
(the WAL tail too) and everything a save guarantees. Graph files are
dropped (shard membership changed); ``snapshot migrate`` re-persists them.
"""

from __future__ import annotations

import errno
import json
import os
import shutil
import time
import uuid
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.errors import CollectionError
from repro.vectordb.collection import Collection, HnswConfig, SnapshotView
from repro.vectordb.distance import Metric
from repro.vectordb.hnsw import HNSWIndex
from repro.vectordb.sharded import AnyCollection, ShardedCollection, reroute
from repro.vectordb.wal import (
    FSYNC_MODES,
    WriteAheadLog,
    replay_into,
    scan as wal_scan,
    shard_wal_path,
    wal_directory,
)

#: The schema every snapshot is written with. v3 is the same layout, so
#: both read through one path.
SCHEMA_VERSION = 4
READABLE_SCHEMAS = (3, SCHEMA_VERSION)
#: The last commit whose ``repro snapshot migrate`` reads schemas 1 and 2.
LAST_LEGACY_READER = "9ec0bb4"

_META_FILE = "meta.json"
_VECTORS_FILE = "vectors.npy"
_PAYLOADS_FILE = "payloads.jsonl"
_GRAPH_FILE = "graph.npz"


#: Temp siblings older than this are presumed stranded by a dead save
#: and swept by the next save of the same path. Generous on purpose: an
#: in-flight save's staging tree must never be deleted from under it.
STALE_TEMP_AGE_S = 3600.0


def _shard_dir(directory: Path, index: int) -> Path:
    return directory / f"shard-{index:02d}"


def _shard_dirs(directory: Path, meta: dict) -> list[Path]:
    """Where a snapshot's single-collection snapshots live.

    The ``shards`` key marks the sharded layout (written for ANY shard
    count, including 1); a plain snapshot never carries it and is its
    own only shard.
    """
    if "shards" in meta:
        return [_shard_dir(directory, i) for i in range(meta["shards"])]
    return [directory]


def _shards_of(collection: AnyCollection) -> tuple[Collection, ...]:
    """The per-shard collections (a plain collection is its own shard)."""
    if isinstance(collection, ShardedCollection):
        return collection.shard_collections
    return (collection,)


def _temp_siblings(directory: Path) -> list[Path]:
    """Sibling directories left behind by interrupted atomic rewrites."""
    parent, name = directory.parent, directory.name
    prefixes = (
        f".{name}.save-tmp-",
        f".{name}.old-",
        f".{name}.reshard-tmp",
    )
    if not parent.is_dir():
        return []
    return sorted(
        path for path in parent.iterdir()
        if path.is_dir() and path.name.startswith(prefixes)
    )


def _sweep_stale_temps(directory: Path) -> None:
    """Delete stranded temp siblings older than :data:`STALE_TEMP_AGE_S`.

    Only age-expired temps go — a concurrent save's live staging tree
    (fresh mtime) survives, as does anything that vanishes or errors
    mid-check (another sweeper may be racing us).
    """
    cutoff = time.time() - STALE_TEMP_AGE_S
    for temp in _temp_siblings(directory):
        try:
            if temp.stat().st_mtime > cutoff:
                continue
        except OSError:
            continue
        shutil.rmtree(temp, ignore_errors=True)


def _fsync_path(path: Path) -> None:
    """Best-effort fsync of a file or directory (no-op where unsupported)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return  # e.g. directories on platforms that cannot open() them
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _fsync_tree(root: Path) -> None:
    """Flush a staged tree's file data and directory entries to disk.

    Rename-based publishing is only atomic if the renamed tree's
    contents are durable first — journaling filesystems may otherwise
    persist the rename (metadata) before the data blocks, so a power
    loss right after the swap could publish truncated files.
    """
    for path in root.rglob("*"):
        if path.is_file():
            _fsync_path(path)
    for path in root.rglob("*"):
        if path.is_dir():
            _fsync_path(path)
    _fsync_path(root)


def _swap_into_place(staged: Path, final: Path) -> None:
    """Publish ``staged`` at ``final`` by renames (crash-safe).

    The staged tree is fsynced before the swap, any existing tree at
    ``final`` moves aside first (to a per-invocation unique sibling, so
    overlapping swaps of the same path cannot collide) and is deleted
    only after the new tree is in place — the published path never holds
    a partially written mix of old and new. An in-process failure
    restores the original. Two narrow windows remain between the two
    renames, while the published path briefly does not exist: a hard
    kill there leaves it empty (but the old snapshot survives whole
    under its ``.old-*`` sibling and the new one under the temporary
    sibling it was staged in — nothing is ever lost, and an operator or
    the next successful save can recover either by hand), and a
    concurrent *reader* loading the same path in that instant sees "no
    collection snapshot" and should simply retry — directory trees
    cannot be exchanged atomically with portable primitives, so
    overwrite-in-place saves under live reads need one retry on the
    reader side.
    """
    _fsync_tree(staged)
    superseded: list[Path] = []  # trees we moved aside, oldest first
    for _ in range(8):
        try:
            staged.rename(final)
            break
        except OSError as exc:
            if exc.errno not in (errno.ENOTEMPTY, errno.EEXIST):
                if superseded:
                    superseded[-1].rename(final)  # restore the original
                raise
        # A tree is published at ``final`` (os.rename cannot replace a
        # non-empty directory) — the previous snapshot, or a concurrent
        # save's that landed between our attempts: retire it and retry,
        # so the last swap wins. Never gated on exists(): by now another
        # saver may have moved that tree aside, which is only a lost race.
        retired = final.parent / f".{final.name}.old-{uuid.uuid4().hex[:8]}"
        try:
            final.rename(retired)
        except OSError:
            continue  # lost yet another race; retry from the top
        superseded.append(retired)
    else:  # pathological contention: every attempt lost to another swap
        if final.exists():
            # A concurrent winner is published; the trees we retired
            # along the way are superseded by it. Our own staged tree is
            # removed by the caller when we raise.
            for tree in superseded:
                shutil.rmtree(tree, ignore_errors=True)
        elif superseded:
            superseded[-1].rename(final)  # restore the original
        raise CollectionError(
            f"could not publish snapshot at {final}: lost the rename "
            "race repeatedly to concurrent saves"
        )
    _fsync_path(final.parent)
    for tree in superseded:
        shutil.rmtree(tree, ignore_errors=True)


def save_collection(
    collection: AnyCollection,
    directory: str | Path,
    include_graphs: bool = True,
) -> None:
    """Write ``collection`` to ``directory`` (created if needed).

    Dispatches on the backend: plain collections write one snapshot,
    sharded collections write per-shard snapshot directories plus a
    top-level manifest with the shard count and global insertion order.
    Fully built HNSW graphs are persisted alongside the vectors, so the
    next :func:`load_collection` skips reconstruction.

    The write is atomic: everything lands in a temporary sibling of
    ``directory`` and is renamed into place on success, so a crash or an
    exception mid-save never corrupts an existing snapshot at the target
    path. ``include_graphs=False`` omits the graph files (``snapshot
    migrate --no-graphs``).

    The save is also consistent under concurrent writes: the state to
    serialize is captured as per-shard :class:`SnapshotView`\\ s under the
    collection's write lock(s) — a sharded save holds the global write
    lock while capturing, so the persisted ``order`` and every shard
    agree — and serialization happens outside the locks, so writers stall
    only for the capture, not for the disk I/O. After a successful
    publish, any attached write-ahead logs are truncated through the
    byte offsets the views captured: records the snapshot now covers are
    dropped, writes that raced the save stay logged. Logs are only
    truncated when saving to the directory they are the sibling of —
    saving a copy elsewhere leaves durability of the original intact.
    Before staging, temp siblings stranded by previously interrupted
    saves are swept (see :func:`_sweep_stale_temps`).

    Raises:
        CollectionError: ``directory`` exists, is not empty and is not a
            snapshot (no ``meta.json``). Publishing replaces the whole
            tree, so anything else there would be deleted; an empty
            directory or an earlier snapshot is replaced.
    """
    directory = Path(directory)
    try:
        # One listing, so a concurrent save swapping the tree cannot
        # show this check half of each: published trees arrive whole.
        found = os.listdir(directory)
    except (FileNotFoundError, NotADirectoryError):
        found = []
    if found and _META_FILE not in found:
        raise CollectionError(
            f"refusing to save over {directory}: it is not empty and "
            f"holds no snapshot ({_META_FILE} missing)"
        )
    directory.parent.mkdir(parents=True, exist_ok=True)
    _sweep_stale_temps(directory)
    meta = None
    with collection.write_lock:
        views = [shard.snapshot_view() for shard in _shards_of(collection)]
        if isinstance(collection, ShardedCollection):
            # The one place the top-level manifest is written.
            meta = _meta_dict(
                name=collection.name, dim=collection.dim,
                metric=collection.metric.value, count=len(collection),
                hnsw=asdict(collection.hnsw_config),
                indexed=sorted(collection.indexed_payload_fields),
            )
            meta["shards"] = collection.n_shards
            meta["order"] = list(collection.point_order)
    # Unique per invocation, so concurrent saves of the same path never
    # write into (or delete) each other's staging tree; last swap wins.
    staged = (
        directory.parent / f".{directory.name}.save-tmp-{uuid.uuid4().hex[:8]}"
    )
    try:
        if meta is not None:
            staged.mkdir(parents=True)
            for index, view in enumerate(views):
                _save_view(view, _shard_dir(staged, index), include_graphs)
            (staged / _META_FILE).write_text(json.dumps(meta, indent=2))
        else:
            _save_view(views[0], staged, include_graphs)
        _swap_into_place(staged, directory)
    except BaseException:
        shutil.rmtree(staged, ignore_errors=True)
        raise
    own_wal_dir = wal_directory(directory).resolve()
    for view in views:
        if (
            view.wal is not None
            and view.wal_offset is not None
            and view.wal.path.parent.resolve() == own_wal_dir
        ):
            view.wal.truncate_through(view.wal_offset)


def load_collection(
    directory: str | Path,
    hnsw: HnswConfig | None = None,
    mmap: bool = False,
    wal: str | None = None,
) -> AnyCollection:
    """Read a collection written by :func:`save_collection`.

    ``hnsw`` overrides the snapshot's stored config; when omitted, the
    config active at save time is restored. Payload indexes recorded in
    the snapshot are rebuilt, and persisted HNSW graphs are attached
    instead of rebuilt wherever a search would walk one (above
    ``Collection.BRUTE_FORCE_THRESHOLD`` points; below it a graph file
    is ignored, so no upsert links a node) — unless the graph file is
    damaged or disagrees with the collection, in which case the load
    degrades to the lazy rebuild with a warning.

    ``mmap=True`` memory-maps the vector matrix read-only instead of
    loading it into RAM. Searches read straight off the page cache; a
    later upsert copies on write, leaving the snapshot file untouched.

    Crash recovery: if the snapshot has a sibling WAL directory, its
    intact record prefix is replayed on top of the loaded state —
    unconditionally, because logged records are acknowledged writes the
    snapshot does not cover (a torn tail is skipped here and physically
    truncated on the next attach). Sharded snapshots replay through the
    assembled :class:`~repro.vectordb.sharded.ShardedCollection` so the
    records re-route to their shards and re-enter the global insertion
    order; the relative order of tail writes *across* shards is not
    preserved (each shard's log orders only its own writes), which
    affects ``scroll`` order of tail points and nothing else.

    ``wal`` enables durable writes going forward: pass an fsync mode
    (``"always"``, ``"batch"``, or ``"off"`` — see
    :class:`~repro.vectordb.wal.WriteAheadLog`) to attach per-shard logs
    after replay. ``wal=None`` (default) leaves logging off and the log
    files untouched.

    Logs of a shard index the snapshot lacks (older reshards left them)
    are not replayed — no order can be guessed for their records — but
    one :class:`RuntimeWarning` names each that holds any.
    """
    directory = Path(directory)
    if wal is not None and wal not in FSYNC_MODES:
        raise CollectionError(
            f"unknown WAL fsync mode {wal!r}; use one of {FSYNC_MODES}"
        )
    meta = _read_meta(directory)
    hnsw_config = hnsw or HnswConfig(**meta["hnsw"])
    shard_dirs = _shard_dirs(directory, meta)
    shards = [
        _load_single(shard_path, hnsw_config, mmap)
        for shard_path in shard_dirs
    ]
    collection: AnyCollection = shards[0]
    if shard_dirs != [directory]:  # the sharded layout, for any count
        if "order" not in meta:
            raise CollectionError(
                f"{directory / _META_FILE} lacks the key 'order'"
            )
        collection = ShardedCollection.from_shards(
            name=meta["name"],
            shards=shards,
            order=meta["order"],
            metric=Metric(meta["metric"]),
            hnsw=hnsw_config,
        )
    wal_dir = wal_directory(directory)
    for index in range(len(shards)):
        log_path = shard_wal_path(wal_dir, index)
        if log_path.exists():
            replay_into(collection, log_path)
    if orphans := _orphan_logs(directory, len(shards)):
        warnings.warn(
            f"{wal_dir} holds acknowledged writes in logs that none of the "
            f"{len(shards)} shard(s) of {directory} replays, so they are NOT "
            f"applied (records per file: {orphans})",
            RuntimeWarning,
            stacklevel=2,
        )
    if wal is not None:
        attach_wal(collection, directory, fsync=wal)
    return collection


def attach_wal(
    collection: AnyCollection,
    directory: str | Path,
    fsync: str = "batch",
) -> Path:
    """Attach per-shard write-ahead logs for the snapshot at ``directory``.

    Creates the sibling WAL directory if needed, opens (and tail-repairs)
    one :class:`~repro.vectordb.wal.WriteAheadLog` per shard, and
    attaches them so subsequent writes are logged. Replay is *not*
    performed here — callers that might be recovering should go through
    :func:`load_collection`, which replays before attaching; this helper
    is for freshly built collections that are about to be (or just were)
    saved to ``directory``. Returns the WAL directory path.
    """
    directory = Path(directory)
    wal_dir = wal_directory(directory)
    for index, shard in enumerate(_shards_of(collection)):
        shard.attach_wal(
            WriteAheadLog(shard_wal_path(wal_dir, index), fsync=fsync)
        )
    return wal_dir


def inspect_snapshot(directory: str | Path) -> dict:
    """Summarize a snapshot without loading any vectors or graphs.

    Returns schema, name, dim, metric, count, shard layout, per-shard
    storage details (vector file format and whether a persisted graph is
    present), sibling WAL state (record counts, any torn-tail bytes a
    recovery would discard, and under ``orphan_logs`` the record counts
    of files for a shard index the snapshot does not have, which no load
    replays), and temp siblings stranded by interrupted
    saves — the CLI ``snapshot inspect`` payload. Stranded temps and WAL
    files are reported, never read into the summary's counts: the
    snapshot's own metadata stays authoritative.
    """
    directory = Path(directory)
    meta = _read_meta(directory)
    info: dict = {
        "path": str(directory),
        "schema": meta["schema"],
        "name": meta["name"],
        "metric": meta["metric"],
        "count": meta["count"],
        "dim": meta["dim"],
        "hnsw": meta["hnsw"],
        "indexed_payload_fields": sorted(meta["indexed_payload_fields"]),
        "shards": meta.get("shards"),  # None = plain snapshot
    }
    shard_dirs = _shard_dirs(directory, meta)
    details = []
    for shard_path in shard_dirs:
        details.append(
            {
                "path": str(shard_path),
                "vector_format": (
                    "npy" if (shard_path / _VECTORS_FILE).exists()
                    else "missing"
                ),
                "graph": (shard_path / _GRAPH_FILE).exists(),
            }
        )
    info["storage"] = details
    info["mmap_capable"] = all(d["vector_format"] == "npy" for d in details)
    info["graphs_persisted"] = all(d["graph"] for d in details)
    info["wal"] = _inspect_wal(directory, len(shard_dirs))
    info["stale_temps"] = [path.name for path in _temp_siblings(directory)]
    return info


def _orphan_logs(directory: Path, n_shards: int) -> dict[str, int]:
    """Record counts of sibling logs that no shard of the snapshot owns:
    ``shard-NN.wal`` with ``NN >= n_shards`` and at least one record —
    acknowledged writes no load will replay, so callers make them loud."""
    wal_dir = wal_directory(directory)
    owned = {shard_wal_path(wal_dir, i) for i in range(n_shards)}
    orphans: dict[str, int] = {}
    for path in sorted(wal_dir.glob("shard-*.wal")):
        if path not in owned:
            try:
                records = wal_scan(path)[1]
            except (OSError, CollectionError):
                continue  # unreadable or not a WAL: inspect reports it
            if records:
                orphans[path.name] = records
    return orphans


def _inspect_wal(directory: Path, n_shards: int) -> dict | None:
    """Summarize the snapshot's sibling WAL directory, or ``None``."""
    wal_dir = wal_directory(directory)
    if not wal_dir.is_dir():
        return None
    files = []
    for path in sorted(wal_dir.glob("shard-*.wal")):
        try:
            size = path.stat().st_size
            valid_end, records = wal_scan(path)
        except (OSError, CollectionError) as exc:
            # stat/read failures and non-WAL files (bad magic) — the two
            # ways a scan can fail; torn tails are valid-prefix results,
            # not errors. Recorded per file so inspect stays best-effort.
            files.append({"path": str(path), "error": str(exc)})
            continue
        files.append(
            {
                "path": str(path),
                "records": records,
                "bytes": size,
                "torn_bytes": size - valid_end,
            }
        )
    return {
        "path": str(wal_dir),
        "records": sum(f.get("records", 0) for f in files),
        "files": files,
        "orphan_logs": _orphan_logs(directory, n_shards),
    }


def migrate_snapshot(
    snapshot_dir: str | Path,
    out_dir: str | Path | None = None,
    build_graphs: bool = True,
) -> Path:
    """Rewrite a snapshot as schema v4 (CLI ``snapshot migrate``).

    Loads the snapshot, optionally builds the missing HNSW graphs a
    search would walk so they are persisted too (``build_graphs=True``,
    the default — the whole point of migrating is a fast cold start),
    and saves it back atomically. ``build_graphs=False`` writes no graph
    files at all, even ones the source snapshot carried — the opt-out
    exists to strip graphs, not merely to skip building them. Files and
    meta keys a load does not read are not carried.
    ``out_dir`` defaults to rewriting in place. Returns the directory
    written. Raises :class:`~repro.errors.CollectionError` when
    ``snapshot_dir`` holds no loadable snapshot; the target is untouched
    on failure.
    """
    snapshot_dir = Path(snapshot_dir)
    target = snapshot_dir if out_dir is None else Path(out_dir)
    collection = load_collection(snapshot_dir)
    try:
        if build_graphs:
            collection.build_hnsw_if_needed()
        save_collection(collection, target, include_graphs=build_graphs)
    finally:
        collection.close()
    return target


def reshard_snapshot(
    snapshot_dir: str | Path,
    new_shards: int,
    out_dir: str | Path | None = None,
) -> Path:
    """Rewrite a snapshot with its points re-routed across ``new_shards``.

    A composition, like :func:`migrate_snapshot`: :func:`load_collection`
    (memory-mapped; replays the WAL tail, so logged writes are carried),
    :func:`~repro.vectordb.sharded.reroute` into an empty collection of
    ``new_shards`` shards, :func:`save_collection`. Works on any snapshot
    a load accepts, plain ones included; a reload sees identical
    ``scroll`` order, counts, payload indexes and ``HnswConfig``. The
    result is always the sharded layout (``new_shards`` may be 1) and
    has no graph files — the old ones describe no new shard; the next
    load rebuilds them lazily (or run :func:`migrate_snapshot`).

    ``out_dir`` defaults to rewriting ``snapshot_dir`` in place, after
    which the sibling log directory is removed: the new snapshot holds
    its records, and a later load would replay them under a shard count
    they were not written for. That is refused while the directory holds
    orphan logs (see :func:`inspect_snapshot`). With ``out_dir`` the
    source and its logs are untouched. Returns the directory written;
    raises :class:`~repro.errors.CollectionError` for a non-positive
    ``new_shards``, an existing ``out_dir``, or an unloadable snapshot.
    """
    snapshot_dir = Path(snapshot_dir)
    if new_shards <= 0:
        raise CollectionError(
            f"shard count must be positive, got {new_shards}"
        )
    target = snapshot_dir if out_dir is None else Path(out_dir)
    in_place = target.resolve() == snapshot_dir.resolve()
    if not in_place and target.exists():
        raise CollectionError(f"reshard target {target} already exists")
    source = load_collection(snapshot_dir, mmap=True)
    resharded = ShardedCollection(
        source.name, source.dim, metric=source.metric,
        hnsw=source.hnsw_config, shards=new_shards,
    )
    try:
        if in_place and (
            orphans := _orphan_logs(snapshot_dir, len(_shards_of(source)))
        ):
            raise CollectionError(
                f"not resharding {snapshot_dir} in place: its log directory "
                f"holds records no shard replays ({orphans}); replay or "
                "remove those files first, or reshard to an out_dir"
            )
        save_collection(
            reroute(source, resharded), target, include_graphs=False
        )
    finally:
        source.close()
        resharded.close()
    if in_place:
        shutil.rmtree(wal_directory(snapshot_dir), ignore_errors=True)
    return target


# ----------------------------------------------------------------------
# single-collection snapshots
# ----------------------------------------------------------------------


def _meta_dict(
    name: str,
    dim: int,
    metric: str,
    count: int,
    hnsw: dict,
    indexed: list[str],
) -> dict:
    """The one place snapshot ``meta.json`` keys are spelled out."""
    return {
        "schema": SCHEMA_VERSION,
        "name": name,
        "dim": dim,
        "metric": metric,
        "count": count,
        "hnsw": hnsw,
        "indexed_payload_fields": indexed,
    }


#: The keys every meta carries, which :func:`_read_meta` insists on.
_META_KEYS = frozenset(_meta_dict("", 0, "", 0, {}, []))


def _save_view(
    view: SnapshotView,
    directory: Path,
    include_graphs: bool = True,
) -> None:
    """Serialize one consistently captured :class:`SnapshotView`.

    The view was captured under the collection's write lock; writing it
    here happens outside any lock. ``view.vectors`` is still a zero-copy
    slice of live storage (rows the view covers are immutable), so even
    an mmap-served collection saves without materializing its matrix.
    ``view.graph_arrays`` is the HNSW graph already serialized via
    :meth:`~repro.vectordb.hnsw.HNSWIndex.to_arrays` — arrays rather
    than a live index, which could keep growing after the capture.
    """
    directory.mkdir(parents=True, exist_ok=True)
    # Raw .npy so loads can memory-map the matrix directly; a view's
    # matrix is float32 by the flat index's own contract.
    np.save(directory / _VECTORS_FILE, view.vectors)
    if include_graphs and view.graph_arrays is not None:
        np.savez(directory / _GRAPH_FILE, **view.graph_arrays)
    with open(directory / _PAYLOADS_FILE, "w", encoding="utf-8") as fh:
        for point_id, payload in zip(view.ids, view.payloads):
            fh.write(
                json.dumps({"id": point_id, "payload": payload},
                           ensure_ascii=False)
                + "\n"
            )
    meta = _meta_dict(
        name=view.name, dim=view.dim, metric=view.metric.value,
        count=len(view.ids), hnsw=asdict(view.hnsw),
        indexed=list(view.indexed_fields),
    )
    (directory / _META_FILE).write_text(json.dumps(meta, indent=2))


def _read_meta(directory: Path) -> dict:
    """The snapshot's ``meta.json``; the one gate on readable schemas."""
    meta_path = directory / _META_FILE
    if not meta_path.exists():
        raise CollectionError(f"no collection snapshot at {directory}")
    try:
        meta = json.loads(meta_path.read_text())
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise CollectionError(f"{meta_path} is not JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise CollectionError(f"{meta_path} does not hold a JSON object")
    found = meta.get("schema", 1)  # v1 metas predate the key
    if found not in READABLE_SCHEMAS:
        raise CollectionError(
            f"snapshot at {directory} has schema {found}; this version "
            f"reads schemas {READABLE_SCHEMAS}. `repro snapshot migrate` at "
            f"commit {LAST_LEGACY_READER} is the last that upgrades it"
        )
    if missing := sorted(_META_KEYS - meta.keys()):
        raise CollectionError(f"{meta_path} lacks the keys {missing}")
    return meta


def _attach_stored_graph(
    collection: Collection,
    directory: Path,
    config: HnswConfig,
    stored: HnswConfig,
) -> None:
    """Attach ``graph.npz`` to a freshly loaded collection, if usable
    and if a search there walks a graph (``collection.needs_graph()``).

    The graph must structurally validate against the collection's vector
    matrix (``HNSWIndex.from_arrays`` checks sizes, ranges, and degree
    caps) and must have been built with the config the collection is
    loading under — an explicit ``hnsw`` override with different *build*
    parameters (``m``, ``ef_construction``, or ``seed``; ``ef_search``
    is a search-time knob) means the caller *wants* a different graph.
    The seed lives only in the snapshot's stored config (``stored``),
    not the graph header, so both are checked. Any problem degrades to
    a graph-less snapshot's behaviour (lazy rebuild on first approximate
    search)
    with a :class:`RuntimeWarning`; a load never fails over its graph
    file.
    """
    graph_path = directory / _GRAPH_FILE
    if not graph_path.exists() or not collection.needs_graph():
        return
    try:
        if (config.m, config.ef_construction, config.seed) != (
            stored.m, stored.ef_construction, stored.seed
        ):
            raise ValueError(
                f"graph built with (m={stored.m}, "
                f"ef_construction={stored.ef_construction}, "
                f"seed={stored.seed}), loading with (m={config.m}, "
                f"ef_construction={config.ef_construction}, "
                f"seed={config.seed})"
            )
        with np.load(graph_path) as npz:
            arrays = {key: npz[key] for key in npz.files}
        header = np.asarray(arrays["header"], dtype=np.int64)
        if header.shape == (7,) and (
            int(header[3]) != config.m
            or int(header[4]) != config.ef_construction
        ):
            raise ValueError(
                f"graph built with (m={int(header[3])}, "
                f"ef_construction={int(header[4])}), loading with "
                f"(m={config.m}, ef_construction={config.ef_construction})"
            )
        graph = HNSWIndex.from_arrays(
            collection.vector_matrix(), arrays, seed=config.seed
        )
    except Exception as exc:  # reprolint: last-resort -- any unusable graph degrades to a rebuild, surfaced via warning
        warnings.warn(
            f"ignoring unusable snapshot graph {graph_path} ({exc}); "
            "the HNSW graph will be rebuilt on first approximate search",
            RuntimeWarning,
            stacklevel=4,
        )
        return
    collection.attach_hnsw(graph)


def _load_single(directory: Path, hnsw: HnswConfig, mmap: bool) -> Collection:
    """Read one single-collection snapshot (``mmap`` maps its matrix)."""
    meta = _read_meta(directory)
    vectors = np.load(
        directory / _VECTORS_FILE, mmap_mode="r" if mmap else None
    )
    ids: list[str] = []
    payloads: list[dict] = []
    with open(directory / _PAYLOADS_FILE, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            ids.append(row["id"])
            payloads.append(row["payload"])
    if len(ids) != meta["count"] or vectors.shape[0] != meta["count"]:
        raise CollectionError(
            f"snapshot at {directory} is inconsistent: meta says "
            f"{meta['count']} points, found {len(ids)} payloads / "
            f"{vectors.shape[0]} vectors"
        )
    collection = Collection.from_matrix(
        name=meta["name"],
        vectors=vectors,
        ids=ids,
        payloads=payloads,
        metric=Metric(meta["metric"]),
        hnsw=hnsw,
        dim=meta["dim"],
    )
    for field in meta["indexed_payload_fields"]:
        collection.create_payload_index(field)
    _attach_stored_graph(
        collection, directory, hnsw, HnswConfig(**meta["hnsw"])
    )
    return collection
