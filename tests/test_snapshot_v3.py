"""Snapshot layout: schema gate, graph persistence, mmap.

Locks down the snapshot acceptance surface:

* v1 and v2 snapshots are refused by every entry point with one error
  naming the schema found and the last commit that upgrades them;
* persisted graphs are attached on load and answer searches identically
  to the collection they were saved from;
* a truncated/corrupted/mismatched ``graph.npz`` degrades to the lazy
  rebuild with a warning — never a failed load;
* ``mmap=True`` serves identical results off a read-only memory map,
  and upserts after an mmap load copy on write;
* ``save_collection`` is crash-safe: a save that dies mid-write leaves
  the previous snapshot intact.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import CollectionError
from repro.vectordb.client import VectorDBClient
from repro.vectordb.collection import Collection, HnswConfig, PointStruct
from repro.vectordb.filters import FieldMatch
from repro.vectordb.persistence import (
    attach_wal,
    inspect_snapshot,
    load_collection,
    migrate_snapshot,
    reshard_snapshot,
    save_collection,
)
from repro.vectordb.sharded import ShardedCollection

DIM = 12
N = 400
K = 8


def _vectors(n: int = N, seed: int = 5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((n, DIM)).astype(np.float32)
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def _points(vecs: np.ndarray) -> list[PointStruct]:
    return [
        PointStruct(
            id=f"p{i}",
            vector=vecs[i],
            payload={"city": f"c{i % 3}", "stars": float(i % 10)},
        )
        for i in range(vecs.shape[0])
    ]


def _build(shards: int = 1, build_graph: bool = True):
    vecs = _vectors()
    if shards > 1:
        collection = ShardedCollection("snap", DIM, shards=shards)
    else:
        collection = Collection("snap", DIM)
    collection.upsert(_points(vecs))
    collection.create_payload_index("city")
    if build_graph:
        collection.build_hnsw()
    return collection, vecs


def _rewrite_metas(directory, edit) -> None:
    """Apply ``edit(meta)`` to the manifest and every shard's meta."""
    for meta_path in directory.rglob("meta.json"):
        meta = json.loads(meta_path.read_text())
        edit(meta)
        meta_path.write_text(json.dumps(meta))


def _downgrade(directory, legacy: str) -> None:
    """Hand-build the v1/v2 layout no writer produces any more: v2 is
    ``"schema": 2`` over compressed ``vectors.npz``; v1 has no
    ``schema``/``hnsw``/``indexed_payload_fields`` meta keys at all."""
    def edit(meta: dict) -> None:
        if legacy == "v2":
            meta["schema"] = 2
        else:
            for key in ("schema", "hnsw", "indexed_payload_fields"):
                del meta[key]

    _rewrite_metas(directory, edit)
    for vectors_path in directory.rglob("vectors.npy"):
        np.savez_compressed(
            vectors_path.with_suffix(".npz"), vectors=np.load(vectors_path)
        )
        vectors_path.unlink()


def _assert_identical(loaded, original, queries) -> None:
    assert len(loaded) == len(original)
    assert [h.id for h in loaded.scroll()] == [
        h.id for h in original.scroll()
    ]
    flt = FieldMatch("city", "c1")
    assert loaded.count(flt) == original.count(flt)
    want = original.search_batch(queries, K, exact=True)
    got = loaded.search_batch(queries, K, exact=True)
    for want_row, got_row in zip(want, got):
        assert [(h.id, h.score) for h in want_row] == [
            (h.id, h.score) for h in got_row
        ]


class TestCompatibilityMatrix:
    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("legacy", ["v1", "v2"])
    def test_legacy_snapshots_are_refused(self, tmp_path, shards, legacy):
        from repro.cli import main

        original, _ = _build(shards=shards, build_graph=False)
        snap = tmp_path / "snap"
        save_collection(original, snap)
        original.close()
        _downgrade(snap, legacy)
        before = sorted(p.name for p in tmp_path.rglob("*"))
        found = {"v1": 1, "v2": 2}[legacy]
        entry_points = [
            lambda: load_collection(snap),
            lambda: inspect_snapshot(snap),
            lambda: migrate_snapshot(snap),
            lambda: reshard_snapshot(snap, 2),
            lambda: main(["snapshot", "inspect", str(snap)]),
        ]
        for entry_point in entry_points:
            with pytest.raises(
                CollectionError, match=rf"schema {found};.*\(3, 4\).*9ec0bb4"
            ):
                entry_point()
        # refused before anything was written next to (or over) it
        assert sorted(p.name for p in tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("shards", [1, 4])
    def test_v3_round_trip_attaches_graphs(self, tmp_path, shards, monkeypatch):
        # Keep the graph paths: below the threshold a load attaches no
        # graph and a search scans.
        monkeypatch.setattr(Collection, "BRUTE_FORCE_THRESHOLD", 0)
        original, vecs = _build(shards=shards)
        snap = tmp_path / "snap"
        save_collection(original, snap)
        info = inspect_snapshot(snap)
        assert info["schema"] == 4
        assert info["graphs_persisted"]
        loaded = load_collection(snap)
        # The persisted graph must be attached, not rebuilt lazily …
        assert loaded.hnsw_is_built
        _assert_identical(loaded, original, vecs[:16])
        # … and approximate search over it must equal the saved
        # collection's graph exactly (same graph, same traversal).
        want = original.search_batch(vecs[:16], K)
        got = loaded.search_batch(vecs[:16], K)
        for want_row, got_row in zip(want, got):
            assert [(h.id, h.score) for h in want_row] == [
                (h.id, h.score) for h in got_row
            ]
        loaded.close()
        original.close()

    @pytest.mark.parametrize("shards", [1, 4])
    def test_schema_3_loads_identically_to_its_v4_twin(
        self, tmp_path, shards, monkeypatch
    ):
        """No writer emits ``"schema": 3`` any more, but it is the same
        layout as schema 4 and must keep loading."""
        # Keep the graph paths: below the threshold a load attaches no
        # graph and a search scans.
        monkeypatch.setattr(Collection, "BRUTE_FORCE_THRESHOLD", 0)
        original, vecs = _build(shards=shards)
        snap = tmp_path / "snap"
        save_collection(original, snap)
        _rewrite_metas(snap, lambda meta: meta.update(schema=3))
        assert inspect_snapshot(snap)["schema"] == 3
        for mmap in (False, True):
            loaded = load_collection(snap, mmap=mmap)
            assert loaded.hnsw_is_built  # graphs attached, not rebuilt
            _assert_identical(loaded, original, vecs[:16])
            loaded.close()
        original.close()

    @pytest.mark.parametrize("shards", [1, 4])
    def test_int8_tier_files_are_ignored_and_dropped_by_migrate(
        self, tmp_path, shards
    ):
        """Schema-4 snapshots written while the int8 tier existed carry
        ``codes.npy``, ``codebook.npz`` and two extra meta keys beside
        the float32 ``vectors.npy``. No writer emits them any more: a
        load answers exactly as the plain twin does, and an in-place
        ``migrate_snapshot`` leaves none of them behind."""
        original, vecs = _build(shards=shards)
        plain, tiered = tmp_path / "plain", tmp_path / "tiered"
        save_collection(original, plain)
        save_collection(original, tiered)
        original.close()
        for vectors_path in tiered.rglob("vectors.npy"):
            rows = np.load(vectors_path).shape[0]
            np.save(vectors_path.with_name("codes.npy"),
                    np.zeros((rows, DIM), dtype=np.uint8))
            np.savez(vectors_path.with_name("codebook.npz"),
                     mins=np.zeros(DIM, np.float32),
                     steps=np.ones(DIM, np.float32))
        _rewrite_metas(tiered, lambda meta: meta.update(
            quantize="sq8", sq8_checksum=12345,
        ))
        flt = FieldMatch("city", "c1")
        for mmap in (False, True):
            twin = load_collection(plain, mmap=mmap)
            loaded = load_collection(tiered, mmap=mmap)
            _assert_identical(loaded, twin, vecs[:16])
            for knobs in ({}, {"flt": flt}):
                want = twin.search_batch(vecs[:16], K, **knobs)
                got = loaded.search_batch(vecs[:16], K, **knobs)
                assert [[(h.id, h.score) for h in row] for row in got] == [
                    [(h.id, h.score) for h in row] for row in want
                ]
            twin.close()
            loaded.close()

        migrate_snapshot(tiered)
        assert not list(tiered.rglob("codes.npy"))
        assert not list(tiered.rglob("codebook.npz"))
        for meta_path in tiered.rglob("meta.json"):
            meta = json.loads(meta_path.read_text())
            assert not {"quantize", "sq8_checksum"} & meta.keys()
        twin = load_collection(plain)
        migrated = load_collection(tiered)
        _assert_identical(migrated, twin, vecs[:16])
        twin.close()
        migrated.close()

    def test_migrate_no_graphs_strips_existing_graph_files(self, tmp_path):
        """--no-graphs must remove graph files, not just skip building:
        the opt-out exists to strip a suspect or unwanted graph."""
        original, _ = _build()
        snap = tmp_path / "snap"
        save_collection(original, snap)
        assert inspect_snapshot(snap)["graphs_persisted"]
        migrate_snapshot(snap, build_graphs=False)
        info = inspect_snapshot(snap)
        assert info["schema"] == 4
        assert not info["graphs_persisted"]
        loaded = load_collection(snap)
        assert not loaded.hnsw_is_built  # rebuilt lazily, as requested
        loaded.close()
        original.close()


class TestGraphCorruptionFallback:
    @pytest.fixture(autouse=True)
    def _walk_graphs(self, monkeypatch):
        # Keep the graph paths: below the threshold a load never reads
        # graph.npz, so there would be no damage to degrade from.
        monkeypatch.setattr(Collection, "BRUTE_FORCE_THRESHOLD", 0)

    def test_truncated_graph_degrades_to_rebuild(self, tmp_path):
        original, vecs = _build()
        snap = tmp_path / "snap"
        save_collection(original, snap)
        graph_path = snap / "graph.npz"
        graph_path.write_bytes(graph_path.read_bytes()[:40])
        with pytest.warns(RuntimeWarning, match="unusable snapshot graph"):
            loaded = load_collection(snap)
        assert not loaded.hnsw_is_built  # degraded to lazy rebuild
        # … but searches still work (graph rebuilt on demand), and the
        # rebuild gives the same graph the original built (same seed).
        want = original.search_batch(vecs[:8], K)
        got = loaded.search_batch(vecs[:8], K)
        for want_row, got_row in zip(want, got):
            assert [h.id for h in want_row] == [h.id for h in got_row]
        loaded.close()
        original.close()

    def test_garbage_graph_bytes_degrade(self, tmp_path):
        original, _ = _build()
        snap = tmp_path / "snap"
        save_collection(original, snap)
        (snap / "graph.npz").write_bytes(b"not a zipfile at all")
        with pytest.warns(RuntimeWarning, match="unusable snapshot graph"):
            loaded = load_collection(snap)
        assert not loaded.hnsw_is_built
        loaded.close()
        original.close()

    def test_in_range_entry_point_corruption_degrades(self, tmp_path):
        """A corrupted entry point that is still a *valid node id* — but
        one that does not live on the top layer — must be rejected by
        validation, not attach and crash the first search mid-traversal."""
        original, vecs = _build()
        snap = tmp_path / "snap"
        save_collection(original, snap)
        graph_path = snap / "graph.npz"
        with np.load(graph_path) as npz:
            arrays = {key: npz[key] for key in npz.files}
        low_nodes = np.flatnonzero(arrays["levels"] == 0)
        assert low_nodes.size  # 400 points: plenty of layer-0-only nodes
        arrays["header"][5] = int(low_nodes[0])
        np.savez(graph_path, **arrays)
        with pytest.warns(RuntimeWarning, match="unusable snapshot graph"):
            loaded = load_collection(snap)
        assert not loaded.hnsw_is_built
        hits = loaded.search(vecs[0], K)  # rebuilds lazily, must not crash
        assert len(hits) == K
        loaded.close()
        original.close()

    def test_stale_graph_from_other_collection_degrades(self, tmp_path):
        """A graph.npz copied from a differently-sized snapshot must be
        rejected by the structural validation, not walk out of bounds."""
        big, _ = _build()
        small = Collection("snap", DIM)
        small.upsert(_points(_vectors(50)))
        small.build_hnsw()
        big_snap, small_snap = tmp_path / "big", tmp_path / "small"
        save_collection(big, big_snap)
        save_collection(small, small_snap)
        (big_snap / "graph.npz").write_bytes(
            (small_snap / "graph.npz").read_bytes()
        )
        with pytest.warns(RuntimeWarning, match="unusable snapshot graph"):
            loaded = load_collection(big_snap)
        assert not loaded.hnsw_is_built
        assert len(loaded) == N
        loaded.close()
        big.close()
        small.close()

    def test_config_override_skips_stored_graph(self, tmp_path):
        """Loading with a different HNSW build config must not attach a
        graph built under the old config."""
        original, _ = _build()
        snap = tmp_path / "snap"
        save_collection(original, snap)
        override = HnswConfig(m=8, ef_construction=64, seed=3)
        with pytest.warns(RuntimeWarning, match="graph built with"):
            loaded = load_collection(snap, hnsw=override)
        assert not loaded.hnsw_is_built
        assert loaded.hnsw_config == override
        loaded.close()
        # A seed-only difference is still a different build: attaching
        # the stored graph would silently void seed-sensitivity runs.
        seed_only = HnswConfig(seed=99)
        with pytest.warns(RuntimeWarning, match="seed=99"):
            reloaded = load_collection(snap, hnsw=seed_only)
        assert not reloaded.hnsw_is_built
        reloaded.close()
        # ef_search is a search-time knob, not a build parameter: an
        # override differing only there keeps the stored graph.
        tuned = HnswConfig(ef_search=128)
        retuned = load_collection(snap, hnsw=tuned)
        assert retuned.hnsw_is_built
        retuned.close()
        original.close()


class TestMmap:
    @pytest.mark.parametrize("shards", [1, 4])
    def test_mmap_results_identical(self, tmp_path, shards):
        original, vecs = _build(shards=shards)
        snap = tmp_path / "snap"
        save_collection(original, snap)
        eager = load_collection(snap)
        mapped = load_collection(snap, mmap=True)
        queries = vecs[:16]
        for exact in (True, False):
            want = eager.search_batch(queries, K, exact=exact)
            got = mapped.search_batch(queries, K, exact=exact)
            for want_row, got_row in zip(want, got):
                assert [(h.id, h.score) for h in want_row] == [
                    (h.id, h.score) for h in got_row
                ]
        eager.close()
        mapped.close()
        original.close()

    def test_mmap_upsert_copies_on_write(self, tmp_path):
        original, _ = _build()
        snap = tmp_path / "snap"
        save_collection(original, snap)
        before = (snap / "vectors.npy").read_bytes()
        loaded = load_collection(snap, mmap=True)
        fresh = np.zeros(DIM, dtype=np.float32)
        fresh[0] = 1.0
        loaded.upsert([PointStruct("new-point", fresh, {"city": "c9"})])
        assert loaded.retrieve("new-point").payload["city"] == "c9"
        assert len(loaded) == N + 1
        hits = loaded.search(fresh, k=1, exact=True)
        assert hits[0].id == "new-point"
        # the snapshot file itself must be untouched
        assert (snap / "vectors.npy").read_bytes() == before
        loaded.close()
        original.close()


class TestAtomicSave:
    def test_interrupted_save_preserves_existing_snapshot(
        self, tmp_path, monkeypatch
    ):
        original, vecs = _build()
        snap = tmp_path / "snap"
        save_collection(original, snap)

        import repro.vectordb.persistence as persistence

        real_write = persistence._save_view

        def exploding_write(*args, **kwargs):
            # fail *after* writing files, like a crash mid-save
            real_write(*args, **kwargs)
            raise OSError("disk died mid-save")

        monkeypatch.setattr(persistence, "_save_view", exploding_write)
        bigger = Collection("snap", DIM)
        bigger.upsert(_points(_vectors(2 * N, seed=9)))
        with pytest.raises(OSError, match="disk died"):
            save_collection(bigger, snap)
        monkeypatch.undo()

        # the original snapshot is still there, whole and loadable
        loaded = load_collection(snap)
        _assert_identical(loaded, original, vecs[:8])
        # and no temp litter remains next to it
        leftovers = [
            p.name for p in tmp_path.iterdir() if p.name != "snap"
        ]
        assert leftovers == []
        loaded.close()
        bigger.close()
        original.close()

    def test_save_refuses_a_directory_that_is_not_a_snapshot(self, tmp_path):
        """Publishing replaces the whole tree at the path: at the parent a
        directory of someone's files came back holding only the snapshot."""
        collection, _ = _build(build_graph=False)
        target = tmp_path / "thesis"
        (target / "sub").mkdir(parents=True)
        (target / "thesis.tex").write_text("\\chapter{One}")
        (target / "sub" / "data.csv").write_text("a,b\n1,2\n")
        with pytest.raises(CollectionError, match="not empty.*meta.json"):
            save_collection(collection, target)
        assert sorted(p.name for p in target.iterdir()) == ["sub", "thesis.tex"]
        assert (target / "sub" / "data.csv").read_text() == "a,b\n1,2\n"
        assert [p.name for p in tmp_path.iterdir()] == ["thesis"]  # no staging

        # an empty directory, and then the snapshot in it, are replaced
        empty = tmp_path / "empty"
        empty.mkdir()
        save_collection(collection, empty)
        save_collection(collection, empty)
        loaded = load_collection(empty)
        assert len(loaded) == len(collection)
        loaded.close()
        collection.close()

    def test_concurrent_saves_to_same_path_never_corrupt(self, tmp_path):
        """Racing saves of one path must all succeed (last swap wins),
        leave a whole loadable snapshot, and no staging litter."""
        import threading

        collection = Collection("race", DIM)
        collection.upsert(_points(_vectors(50)))
        snap = tmp_path / "snap"
        errors: list[Exception] = []

        def saver():
            for _ in range(10):
                try:
                    save_collection(collection, snap)
                except Exception as exc:  # noqa: BLE001 - collected for assert
                    errors.append(exc)

        threads = [threading.Thread(target=saver) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        loaded = load_collection(snap)
        assert len(loaded) == 50
        loaded.close()
        collection.close()
        assert [p.name for p in tmp_path.iterdir()] == ["snap"]

    def test_lost_publish_race_is_retried_not_raised(
        self, tmp_path, monkeypatch
    ):
        """The interleaving behind the flaky test above, scripted: our
        publish rename finds a concurrent saver's tree at the path
        (ENOTEMPTY), and by the time we look again a third saver has
        moved that tree aside. That is a lost race — retry — not a
        failure to report after renaming a superseded tree back."""
        import errno
        from pathlib import Path

        first, _ = _build(build_graph=False)
        snap = tmp_path / "snap"
        save_collection(first, snap)
        real_rename = Path.rename
        lost = []

        def racing_rename(self, target):
            if ".save-tmp-" in self.name and not lost:
                lost.append(target)
                if Path(target).exists():  # the third saver retires it
                    real_rename(Path(target), tmp_path / ".snap.old-3rdsaver")
                raise OSError(errno.ENOTEMPTY, "Directory not empty")
            return real_rename(self, target)

        monkeypatch.setattr(Path, "rename", racing_rename)
        second = Collection("snap", DIM)
        second.upsert(_points(_vectors(100, seed=17)))
        save_collection(second, snap)  # raised OSError(39) before
        monkeypatch.undo()
        assert lost == [snap]
        loaded = load_collection(snap)
        assert len(loaded) == 100
        loaded.close()
        litter = {p.name for p in tmp_path.iterdir()} - {"snap"}
        assert litter <= {".snap.old-3rdsaver"}  # the third saver's to delete
        first.close()
        second.close()

    def test_save_overwrites_previous_snapshot_atomically(self, tmp_path):
        first, _ = _build(build_graph=False)
        snap = tmp_path / "snap"
        save_collection(first, snap)
        second = Collection("snap", DIM)
        second.upsert(_points(_vectors(100, seed=17)))
        save_collection(second, snap)
        loaded = load_collection(snap)
        assert len(loaded) == 100
        loaded.close()
        first.close()
        second.close()


class TestClientPlumbing:
    def test_client_save_load_round_trip(self, tmp_path, monkeypatch):
        # Keep the graph paths: below the threshold a load attaches no
        # graph and a search scans.
        monkeypatch.setattr(Collection, "BRUTE_FORCE_THRESHOLD", 0)
        with VectorDBClient() as client:
            collection = client.create_collection("snap", dim=DIM, shards=2)
            collection.upsert(_points(_vectors(120)))
            collection.build_hnsw()
            client.save("snap", tmp_path / "snap")
            client.delete_collection("snap")
            loaded = client.load(tmp_path / "snap", mmap=True)
            assert client.get_collection("snap") is loaded
            assert loaded.hnsw_is_built
            assert len(loaded) == 120

    def test_client_load_replaces_and_closes_previous(self, tmp_path):
        with VectorDBClient() as client:
            collection = client.create_collection("snap", dim=DIM, shards=2)
            collection.upsert(_points(_vectors(60)))
            client.save("snap", tmp_path / "snap")
            attach_wal(collection, tmp_path / "snap")
            wals = [shard.wal for shard in collection.shard_collections]
            reloaded = client.load(tmp_path / "snap")
            assert client.get_collection("snap") is reloaded
            # the replaced backend was closed: its shard WALs refuse writes
            assert collection.wal_stats() is None
            for wal in wals:
                with pytest.raises(CollectionError, match="closed"):
                    wal.append_create_index("group")


class TestCli:
    def test_snapshot_inspect_and_migrate(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        # Keep the graph paths: below the threshold migrate builds no graph.
        monkeypatch.setattr(Collection, "BRUTE_FORCE_THRESHOLD", 0)

        original, _ = _build(shards=2)
        snap = tmp_path / "snap"
        save_collection(original, snap, include_graphs=False)
        original.close()

        assert main(["snapshot", "inspect", str(snap)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["shards"] == 2 and not out["graphs_persisted"]

        assert main(["snapshot", "migrate", str(snap)]) == 0
        assert "schema 4" in capsys.readouterr().out
        assert inspect_snapshot(snap)["graphs_persisted"]
