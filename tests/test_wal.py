"""Write-ahead log: framing, repair, replay, and engine integration.

Locks down ISSUE 6's durability surface:

* record framing round-trips bit-identically (vectors included) and the
  CRC catches corruption anywhere in a record body;
* a torn tail — truncation at *any* byte boundary inside the last
  record — recovers exactly the intact prefix, on both the read path
  (``iter_records``/``replay_into``) and the repair-on-open path;
* replay is idempotent: applying a log twice, or over a snapshot that
  already contains some of its records, converges to the same state;
* ``truncate_through`` drops only snapshot-covered records — writes that
  raced a save survive in the log;
* the WAL wires through ``Collection``/``ShardedCollection``/
  ``save_collection``/``load_collection`` end to end, including the
  mmap copy-on-write path, and the log itself refuses to pickle;
* the WAL-off path is untouched: loading without logs behaves exactly
  as before (no ``.wal`` directory appears).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import CollectionError
from repro.vectordb.collection import Collection, PointStruct
from repro.vectordb.persistence import (
    attach_wal,
    inspect_snapshot,
    load_collection,
    save_collection,
)
from repro.vectordb.sharded import ShardedCollection
from repro.vectordb.wal import (
    MAGIC,
    OP_CREATE_INDEX,
    OP_SET_PAYLOAD,
    OP_UPSERT,
    WriteAheadLog,
    decode_record,
    encode_create_index,
    encode_set_payload,
    encode_upsert,
    iter_records,
    replay_into,
    scan,
    shard_wal_path,
    wal_directory,
)

# Run every test here under the runtime lock-order auditor.
pytestmark = pytest.mark.lockwatch

DIM = 6


def _vec(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(DIM).astype(np.float32)
    return v / np.linalg.norm(v)


def _points(n: int, seed: int = 0) -> list[PointStruct]:
    return [
        PointStruct(id=f"p{seed}-{i}", vector=_vec(seed * 1000 + i),
                    payload={"i": i, "tag": f"t{i % 3}"})
        for i in range(n)
    ]


def _state(collection) -> list[tuple[str, dict, tuple]]:
    """Comparable (id, payload, vector bytes) rows, insertion-ordered."""
    order = (
        collection.point_order
        if isinstance(collection, ShardedCollection)
        else collection.point_ids()
    )
    return [
        (
            pid,
            collection.retrieve(pid).payload,
            tuple(collection.point_vector(pid).tolist()),
        )
        for pid in order
    ]


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------


class TestFraming:
    def test_upsert_round_trip_bit_identical(self):
        vector = _vec(1)
        body = encode_upsert("p0", vector, {"a": 1, "s": "héllo"})
        op, fields = decode_record(body)
        assert op == OP_UPSERT
        pid, payload, decoded = fields
        assert pid == "p0"
        assert payload == {"a": 1, "s": "héllo"}
        assert decoded.dtype == np.float32
        assert decoded.tobytes() == vector.tobytes()

    def test_set_payload_and_create_index_round_trip(self):
        op, fields = decode_record(encode_set_payload("x", {"k": [1, 2]}))
        assert (op, fields) == (OP_SET_PAYLOAD, ("x", {"k": [1, 2]}))
        op, fields = decode_record(encode_create_index("city"))
        assert (op, fields) == (OP_CREATE_INDEX, ("city",))

    def test_unknown_opcode_rejected(self):
        with pytest.raises(ValueError, match="opcode"):
            decode_record(bytes([250]))

    def test_truncated_body_rejected(self):
        body = encode_upsert("p0", _vec(1), {})
        with pytest.raises(ValueError):
            decode_record(body[:-3])

    def test_log_appends_and_scans(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "a.wal", fsync="always")
        wal.append_points(_points(3))
        wal.append_set_payload("p0-0", {"x": 1})
        wal.append_create_index("tag")
        assert wal.depth == 5
        wal.close()
        end, count = scan(tmp_path / "a.wal")
        assert count == 5
        assert end == (tmp_path / "a.wal").stat().st_size
        ops = [op for _, op, _ in iter_records(tmp_path / "a.wal")]
        assert ops == [OP_UPSERT] * 3 + [OP_SET_PAYLOAD, OP_CREATE_INDEX]

    def test_not_a_wal_file_raises(self, tmp_path):
        bogus = tmp_path / "b.wal"
        bogus.write_bytes(b"\x93NUMPY definitely not a wal")
        with pytest.raises(CollectionError, match="magic"):
            list(iter_records(bogus))

    def test_bad_fsync_mode_rejected(self, tmp_path):
        with pytest.raises(CollectionError, match="fsync"):
            WriteAheadLog(tmp_path / "c.wal", fsync="sometimes")


# ----------------------------------------------------------------------
# torn tails and corruption
# ----------------------------------------------------------------------


class TestTornTail:
    def _full_log(self, tmp_path, n=4):
        path = tmp_path / "torn.wal"
        wal = WriteAheadLog(path, fsync="always")
        wal.append_points(_points(n))
        wal.close()
        return path

    def test_truncation_at_every_byte_keeps_intact_prefix(self, tmp_path):
        path = self._full_log(tmp_path)
        raw = path.read_bytes()
        boundaries = [end for end, _, _ in iter_records(path)]
        assert boundaries, "log should hold records"
        for cut in range(len(MAGIC), len(raw)):
            path.write_bytes(raw[:cut])
            expect = sum(1 for b in boundaries if b <= cut)
            end, count = scan(path)
            assert count == expect, f"cut at byte {cut}"
            assert end == ([len(MAGIC)] + boundaries)[count]

    def test_corrupt_byte_stops_at_previous_record(self, tmp_path):
        path = self._full_log(tmp_path)
        raw = bytearray(path.read_bytes())
        boundaries = [end for end, _, _ in iter_records(path)]
        # Flip one byte inside the third record's body.
        victim = boundaries[1] + 12
        raw[victim] ^= 0xFF
        path.write_bytes(bytes(raw))
        end, count = scan(path)
        assert count == 2
        assert end == boundaries[1]

    def test_open_repairs_torn_tail(self, tmp_path):
        path = self._full_log(tmp_path)
        raw = path.read_bytes()
        boundaries = [end for end, _, _ in iter_records(path)]
        path.write_bytes(raw[: boundaries[2] + 7])  # mid-frame of record 4
        with pytest.warns(RuntimeWarning, match="torn tail"):
            wal = WriteAheadLog(path, fsync="always")
        assert wal.depth == 3
        assert path.stat().st_size == boundaries[2]
        # The repaired log accepts appends that scan cleanly.
        wal.append_points(_points(1, seed=9))
        wal.close()
        assert scan(path)[1] == 4

    def test_open_repairs_torn_header(self, tmp_path):
        path = tmp_path / "hdr.wal"
        path.write_bytes(MAGIC[:3])
        with pytest.warns(RuntimeWarning, match="torn header"):
            wal = WriteAheadLog(path, fsync="always")
        assert wal.depth == 0
        wal.append_points(_points(2))
        wal.close()
        assert scan(path)[1] == 2


# ----------------------------------------------------------------------
# replay and truncation
# ----------------------------------------------------------------------


class TestReplay:
    def test_replay_restores_and_is_idempotent(self, tmp_path):
        path = tmp_path / "r.wal"
        wal = WriteAheadLog(path, fsync="always")
        wal.append_points(_points(5))
        wal.append_set_payload("p0-1", {"extra": True})
        wal.append_create_index("tag")
        wal.close()

        replayed = Collection("c", DIM)
        assert replay_into(replayed, path) == 7
        reference = Collection("c", DIM)
        reference.upsert(_points(5))
        reference.set_payload("p0-1", {"extra": True})
        reference.create_payload_index("tag")
        assert _state(replayed) == _state(reference)
        assert replayed.indexed_payload_fields == {"tag"}
        # Second replay over the same collection changes nothing.
        replay_into(replayed, path)
        assert _state(replayed) == _state(reference)

    def test_truncate_through_keeps_racing_tail(self, tmp_path):
        path = tmp_path / "t.wal"
        wal = WriteAheadLog(path, fsync="always")
        wal.append_points(_points(3))
        captured = wal.offset
        wal.append_points(_points(2, seed=7))  # "raced the save"
        assert wal.truncate_through(captured) == 2
        ids = [f[0] for _, op, f in iter_records(path) if op == OP_UPSERT]
        assert ids == ["p7-0", "p7-1"]
        # Appends after truncation still land and scan cleanly.
        wal.append_set_payload("p7-0", {"later": 1})
        wal.close()
        assert scan(path)[1] == 3

    def test_truncate_through_everything_empties_log(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "e.wal", fsync="always")
        wal.append_points(_points(4))
        assert wal.truncate_through(wal.offset) == 0
        assert wal.depth == 0
        wal.close()


# ----------------------------------------------------------------------
# engine integration
# ----------------------------------------------------------------------


@pytest.mark.parametrize("shards", [1, 3])
class TestEngineIntegration:
    def _build_saved(self, tmp_path, shards):
        snap = tmp_path / "snap"
        if shards > 1:
            collection = ShardedCollection("c", DIM, shards=shards)
        else:
            collection = Collection("c", DIM)
        collection.upsert(_points(12))
        save_collection(collection, snap)
        attach_wal(collection, snap, fsync="always")
        return collection, snap

    def test_load_replays_tail(self, tmp_path, shards):
        collection, snap = self._build_saved(tmp_path, shards)
        collection.upsert(_points(5, seed=3))
        collection.set_payload("p3-0", {"patched": True})
        collection.create_payload_index("tag")
        # No save since the writes: the tail lives only in the WAL.
        recovered = load_collection(snap)
        if shards == 1:
            assert _state(recovered) == _state(collection)
        else:
            # Sharded replay keeps per-shard order but not the relative
            # order of tail writes *across* shards (documented): compare
            # contents id-by-id instead of global insertion order.
            def key(row):
                return row[0]
            assert sorted(_state(recovered), key=key) == sorted(
                _state(collection), key=key
            )
        assert recovered.indexed_payload_fields == {"tag"}
        query = _vec(42)
        a = [(h.id, h.score) for h in collection.search(query, 5, exact=True)]
        b = [(h.id, h.score) for h in recovered.search(query, 5, exact=True)]
        assert a == b
        recovered.close()
        collection.close()

    def test_save_truncates_only_own_wal(self, tmp_path, shards):
        collection, snap = self._build_saved(tmp_path, shards)
        collection.upsert(_points(4, seed=3))
        # Saving a *copy* elsewhere must not truncate the snapshot's log.
        save_collection(collection, tmp_path / "elsewhere")
        stats = collection.wal_stats()
        assert stats["records"] == 4
        # Saving to the log's own snapshot does.
        save_collection(collection, snap)
        assert collection.wal_stats()["records"] == 0
        # And the snapshot now carries the writes by itself.
        recovered = load_collection(snap)
        assert _state(recovered) == _state(collection)
        recovered.close()
        collection.close()

    def test_wal_off_path_writes_no_logs(self, tmp_path, shards):
        snap = tmp_path / "plain"
        if shards > 1:
            collection = ShardedCollection("c", DIM, shards=shards)
        else:
            collection = Collection("c", DIM)
        collection.upsert(_points(6))
        save_collection(collection, snap)
        assert not wal_directory(snap).exists()
        reloaded = load_collection(snap)
        assert _state(reloaded) == _state(collection)
        assert reloaded.wal_stats() is None
        assert not wal_directory(snap).exists()
        reloaded.close()
        collection.close()

    def test_load_with_wal_mode_attaches_logs(self, tmp_path, shards):
        collection, snap = self._build_saved(tmp_path, shards)
        collection.close()
        loaded = load_collection(snap, wal="batch")
        stats = loaded.wal_stats()
        assert stats is not None and stats["fsync"] == "batch"
        loaded.upsert(_points(2, seed=5))
        loaded.close()  # batch mode fsyncs on close
        again = load_collection(snap)
        assert len(again) == 14
        again.close()

    def test_unknown_wal_mode_rejected(self, tmp_path, shards):
        collection, snap = self._build_saved(tmp_path, shards)
        collection.close()
        with pytest.raises(CollectionError, match="fsync"):
            load_collection(snap, wal="nope")


class TestShardedRouting:
    def test_each_shard_logs_only_its_points(self, tmp_path):
        snap = tmp_path / "snap"
        collection = ShardedCollection("c", DIM, shards=3)
        save_collection(collection, snap)
        attach_wal(collection, snap, fsync="always")
        points = _points(20)
        collection.upsert(points)
        from repro.vectordb.sharded import shard_for

        for index, shard in enumerate(collection.shard_collections):
            logged = [
                fields[0]
                for _, op, fields in iter_records(
                    shard_wal_path(wal_directory(snap), index)
                )
                if op == OP_UPSERT
            ]
            assert logged == [
                p.id for p in points if shard_for(p.id, 3) == index
            ]
        collection.close()

    def test_wal_itself_refuses_to_pickle(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "p.wal", fsync="off")
        with pytest.raises(TypeError, match="pickle"):
            pickle.dumps(wal)
        wal.close()


class TestMmapCopyOnWrite:
    def test_upsert_after_mmap_load_with_wal(self, tmp_path):
        """COW completes before the WAL record exists (apply-then-log).

        The first write to an mmap-loaded collection adopts a writable
        copy of the matrix; because the log append happens after the
        in-memory apply, a crash mid-COW leaves no record to replay, and
        a logged record implies the copy finished. The observable
        contract: mmap-loaded + WAL-replayed state is bit-identical to
        the eager-loaded equivalent, and the snapshot file on disk never
        changes.
        """
        snap = tmp_path / "snap"
        base = Collection("c", DIM)
        base.upsert(_points(10))
        save_collection(base, snap)
        base.close()
        vectors_file = snap / "vectors.npy"
        before = vectors_file.read_bytes()

        served = load_collection(snap, mmap=True, wal="always")
        served.upsert(_points(3, seed=21))
        served.set_payload("p21-0", {"cow": True})
        assert vectors_file.read_bytes() == before  # snapshot untouched

        recovered_mmap = load_collection(snap, mmap=True)
        recovered_eager = load_collection(snap)
        assert _state(recovered_mmap) == _state(served)
        assert _state(recovered_eager) == _state(served)
        query = _vec(77)
        assert [
            (h.id, h.score) for h in recovered_mmap.search(query, 6, exact=True)
        ] == [
            (h.id, h.score) for h in served.search(query, 6, exact=True)
        ]
        for c in (served, recovered_mmap, recovered_eager):
            c.close()


class TestInspect:
    def test_inspect_reports_wal_and_ignores_it_for_counts(self, tmp_path):
        snap = tmp_path / "snap"
        collection = Collection("c", DIM)
        collection.upsert(_points(5))
        save_collection(collection, snap)
        attach_wal(collection, snap, fsync="always")
        collection.upsert(_points(2, seed=4))
        info = inspect_snapshot(snap)
        assert info["count"] == 5  # snapshot metadata stays authoritative
        assert info["wal"]["records"] == 2
        assert info["wal"]["files"][0]["torn_bytes"] == 0
        collection.close()

    def test_inspect_without_wal(self, tmp_path):
        snap = tmp_path / "snap"
        collection = Collection("c", DIM)
        collection.upsert(_points(3))
        save_collection(collection, snap)
        assert inspect_snapshot(snap)["wal"] is None
        collection.close()


class TestOrphanLogs:
    """Logs of a shard index the snapshot does not have (what reshards
    before the load → re-route → save composition left behind) are never
    replayed — and never silent."""

    def _snapshot_with_orphans(self, tmp_path):
        """A 2-shard snapshot whose log directory also holds a 4-shard
        era's ``shard-02.wal``/``shard-03.wal`` with records, plus an
        empty ``shard-05.wal``."""
        wide = ShardedCollection("c", DIM, shards=4)
        save_collection(wide, tmp_path / "wide")
        attach_wal(wide, tmp_path / "wide", fsync="always")
        wide.upsert(_points(24, seed=8))
        wide.close()
        snap = tmp_path / "snap"
        narrow = ShardedCollection("c", DIM, shards=2)
        narrow.upsert(_points(6))
        save_collection(narrow, snap)
        narrow.close()
        wal_dir = wal_directory(snap)
        wal_dir.mkdir()
        counts = {}
        for index in (2, 3):
            source = shard_wal_path(wal_directory(tmp_path / "wide"), index)
            planted = shard_wal_path(wal_dir, index)
            planted.write_bytes(source.read_bytes())
            counts[planted.name] = scan(planted)[1]
        shard_wal_path(wal_dir, 5).write_bytes(MAGIC)
        assert all(counts.values())
        return snap, counts

    def test_load_warns_once_naming_each_orphan(self, tmp_path):
        snap, counts = self._snapshot_with_orphans(tmp_path)
        with pytest.warns(RuntimeWarning) as caught:
            loaded = load_collection(snap)
        messages = [str(w.message) for w in caught]
        assert len(messages) == 1
        assert all(name in messages[0] for name in counts)
        assert "shard-05.wal" not in messages[0]  # holds no records
        assert len(loaded) == 6  # no order guessed: nothing applied
        loaded.close()

    def test_inspect_lists_orphans_with_record_counts(self, tmp_path):
        snap, counts = self._snapshot_with_orphans(tmp_path)
        assert inspect_snapshot(snap)["wal"]["orphan_logs"] == counts

    def test_owned_logs_are_not_orphans(self, tmp_path, recwarn):
        snap = tmp_path / "snap"
        collection = ShardedCollection("c", DIM, shards=3)
        save_collection(collection, snap)
        attach_wal(collection, snap, fsync="always")
        collection.upsert(_points(12))
        collection.close()
        assert inspect_snapshot(snap)["wal"]["orphan_logs"] == {}
        loaded = load_collection(snap)
        assert len(loaded) == 12
        assert not [w for w in recwarn if w.category is RuntimeWarning]
        loaded.close()
