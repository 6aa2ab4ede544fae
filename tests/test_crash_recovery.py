"""Crash recovery and write/save race regressions (ISSUE 6).

Three failure modes the durable write path must survive:

* **Hard kill mid-burst** — a subprocess upserts points one at a time
  with ``fsync="always"``, acknowledging each on stdout; the parent
  SIGKILLs it at a randomized offset, reloads, and asserts every
  acknowledged write survived and searches are bit-identical to a
  never-crashed reference holding the recovered writes.
* **Torn record** — the log is truncated at randomized byte offsets
  (including mid-record; a SIGKILL alone cannot produce a torn record
  because the page cache survives process death), and recovery must
  replay exactly the intact prefix.
* **Save racing writers** — ``save_collection`` runs while writer
  threads hammer upserts; every published snapshot must be internally
  consistent (the pre-lock ``export_state`` could serialize a vector
  row whose id/payload had not landed yet).

Plus the stranded-temp satellite: interrupted saves leave
``.{name}.save-tmp-*`` siblings; loads/inspections ignore them and the
next save sweeps the stale ones (age-gated).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.vectordb.collection import Collection, PointStruct
from repro.vectordb.persistence import (
    STALE_TEMP_AGE_S,
    attach_wal,
    inspect_snapshot,
    load_collection,
    save_collection,
)
from repro.vectordb.sharded import ShardedCollection
from repro.vectordb.wal import (
    MAGIC,
    OP_UPSERT,
    iter_records,
    shard_wal_path,
    wal_directory,
)

# Run every test here under the runtime lock-order auditor.
pytestmark = pytest.mark.lockwatch

DIM = 6
BASE_N = 10


def _burst_vector(i: int) -> np.ndarray:
    """The i-th burst write's vector — deterministic across processes."""
    rng = np.random.default_rng(50_000 + i)
    v = rng.standard_normal(DIM).astype(np.float32)
    return v / np.linalg.norm(v)


def _base_collection() -> Collection:
    collection = Collection("c", DIM)
    rng = np.random.default_rng(3)
    vecs = rng.standard_normal((BASE_N, DIM)).astype(np.float32)
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    collection.upsert([
        PointStruct(id=f"base{i}", vector=vecs[i], payload={"i": i})
        for i in range(BASE_N)
    ])
    return collection


_CHILD_SCRIPT = """
import sys
from pathlib import Path
import numpy as np
from repro.vectordb import PointStruct, load_collection

DIM = {dim}
snap, n = Path(sys.argv[1]), int(sys.argv[2])
collection = load_collection(snap, wal="always")
for i in range(n):
    rng = np.random.default_rng(50_000 + i)
    v = rng.standard_normal(DIM).astype(np.float32)
    v /= np.linalg.norm(v)
    collection.upsert([PointStruct(id=f"w{{i}}", vector=v, payload={{"i": i}})])
    # Printed only after upsert returned: the record is fsynced (always
    # mode), so this acknowledgement promises durability.
    print(f"ACK {{i}}", flush=True)
print("DONE", flush=True)
""".format(dim=DIM)


def _spawn_writer(snap: Path, n: int) -> subprocess.Popen:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep * bool(env.get("PYTHONPATH")) + env.get(
        "PYTHONPATH", ""
    )
    return subprocess.Popen(
        [sys.executable, "-c", _CHILD_SCRIPT, str(snap), str(n)],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        text=True,
    )


def _reference_for(recovered_ids: list[str]) -> Collection:
    """A never-crashed collection holding base + the given burst writes."""
    reference = _base_collection()
    reference.upsert([
        PointStruct(
            id=pid,
            vector=_burst_vector(int(pid[1:])),
            payload={"i": int(pid[1:])},
        )
        for pid in recovered_ids
    ])
    return reference


class TestKillMidBurst:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_acked_prefix_survives_sigkill(self, tmp_path, seed):
        n = 60
        snap = tmp_path / "snap"
        base = _base_collection()
        save_collection(base, snap)

        child = _spawn_writer(snap, n)
        kill_after = int(np.random.default_rng(seed).integers(1, n - 5))
        acked = []
        for line in child.stdout:
            if line.startswith("ACK "):
                acked.append(int(line.split()[1]))
            if len(acked) >= kill_after or line.startswith("DONE"):
                break
        os.kill(child.pid, signal.SIGKILL)
        child.wait(timeout=30)
        # The writer does not wait for this reader, so it may have
        # acknowledged more writes before the kill landed than were read
        # above; those acknowledgements are still in the pipe.
        for line in child.stdout.read().splitlines():
            if line.startswith("ACK "):
                acked.append(int(line.split()[1]))
        child.stdout.close()
        assert acked, "child never acknowledged a write"

        recovered = load_collection(snap)
        ids = recovered.point_ids()
        burst = sorted(
            (int(pid[1:]) for pid in ids if pid.startswith("w"))
        )
        # Sequential writes recover as a contiguous prefix that covers
        # every acknowledged write (fsync="always": ack => durable). At
        # most the one in-flight unacked write may also appear.
        assert burst == list(range(len(burst)))
        assert len(burst) >= len(acked)
        assert len(burst) <= max(acked) + 2

        reference = _reference_for([f"w{i}" for i in burst])
        query = _burst_vector(9999)
        got = [
            (h.id, h.score) for h in recovered.search(query, 12, exact=True)
        ]
        want = [
            (h.id, h.score) for h in reference.search(query, 12, exact=True)
        ]
        assert got == want  # bit-identical scores, identical ranking
        recovered.close()
        reference.close()
        base.close()


class TestTornRecord:
    @pytest.mark.parametrize("seed", [10, 11, 12, 13])
    def test_truncation_at_random_offset_recovers_prefix(self, tmp_path, seed):
        snap = tmp_path / "snap"
        base = _base_collection()
        save_collection(base, snap)
        attach_wal(base, snap, fsync="always")
        writes = [
            PointStruct(id=f"w{i}", vector=_burst_vector(i), payload={"i": i})
            for i in range(20)
        ]
        for point in writes:
            base.upsert([point])
        base.close()

        log = shard_wal_path(wal_directory(snap), 0)
        raw = log.read_bytes()
        cut = int(
            np.random.default_rng(seed).integers(len(MAGIC), len(raw))
        )
        log.write_bytes(raw[:cut])

        survivors = [
            fields[0] for _, op, fields in iter_records(log)
            if op == OP_UPSERT
        ]
        recovered = load_collection(snap)
        assert [
            pid for pid in recovered.point_ids() if pid.startswith("w")
        ] == survivors

        reference = _reference_for(survivors)
        query = _burst_vector(8888)
        assert [
            (h.id, h.score) for h in recovered.search(query, 10, exact=True)
        ] == [
            (h.id, h.score) for h in reference.search(query, 10, exact=True)
        ]
        recovered.close()
        reference.close()


@pytest.mark.parametrize("shards", [1, 3])
class TestSaveUpsertRace:
    def test_snapshots_stay_consistent_under_write_fire(self, tmp_path, shards):
        """Regression: pre-lock saves could serialize a torn view.

        Writers hammer upserts while saves run concurrently; every
        snapshot that gets published must load cleanly (the loader
        cross-checks vector rows against ids/payloads, and sharded
        loads validate the global order against shard contents — a torn
        capture fails loudly) and hold a point set closed under the
        writer batches (no id without its vector row, no half-applied
        batch interleaving).
        """
        snap = tmp_path / "snap"
        if shards > 1:
            collection = ShardedCollection("c", DIM, shards=shards)
        else:
            collection = Collection("c", DIM)
        rng = np.random.default_rng(7)
        collection.upsert([
            PointStruct(
                id=f"seed{i}",
                vector=rng.standard_normal(DIM).astype(np.float32),
                payload={"i": i},
            )
            for i in range(BASE_N)
        ])

        stop = threading.Event()
        errors: list[BaseException] = []

        def writer(worker: int) -> None:
            w_rng = np.random.default_rng(100 + worker)
            batch = 0
            try:
                # Capped so saves don't race an ever-growing collection —
                # the race window is widest while both sides are active,
                # not while the snapshot merely gets bigger.
                while not stop.is_set() and batch < 250:
                    collection.upsert([
                        PointStruct(
                            id=f"w{worker}-{batch}-{j}",
                            vector=w_rng.standard_normal(DIM).astype(
                                np.float32
                            ),
                            payload={"worker": worker, "batch": batch},
                        )
                        for j in range(4)
                    ])
                    batch += 1
            except BaseException as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(w,)) for w in range(3)
        ]
        for thread in threads:
            thread.start()
        try:
            for _ in range(4):
                save_collection(collection, snap)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert not errors, errors

        # The published snapshot must be loadable and self-consistent.
        loaded = load_collection(snap)
        ids = set(
            loaded.point_order if shards > 1 else loaded.point_ids()
        )
        assert len(ids) == len(loaded)
        assert {pid for pid in ids if pid.startswith("seed")} == {
            f"seed{i}" for i in range(BASE_N)
        }
        # Per-point integrity: each saved point's vector matches the
        # live collection's (a torn view would misalign rows and ids).
        sample = sorted(ids)[:: max(1, len(ids) // 25)]
        for pid in sample:
            np.testing.assert_array_equal(
                loaded.point_vector(pid), collection.point_vector(pid)
            )
        loaded.close()
        collection.close()


class TestStrandedTemps:
    def _snapshot(self, tmp_path) -> tuple[Collection, Path]:
        snap = tmp_path / "snap"
        collection = _base_collection()
        save_collection(collection, snap)
        return collection, snap

    def _plant_temp(self, snap: Path, name: str, age_s: float) -> Path:
        temp = snap.parent / name
        temp.mkdir()
        (temp / "meta.json").write_text("{}")
        stamp = time.time() - age_s
        os.utime(temp, (stamp, stamp))
        return temp

    def test_load_and_inspect_ignore_temps(self, tmp_path):
        collection, snap = self._snapshot(tmp_path)
        self._plant_temp(snap, ".snap.save-tmp-deadbeef", age_s=0)
        loaded = load_collection(snap)
        assert len(loaded) == len(collection)
        info = inspect_snapshot(snap)
        assert info["count"] == BASE_N
        assert info["stale_temps"] == [".snap.save-tmp-deadbeef"]
        loaded.close()
        collection.close()

    def test_next_save_sweeps_only_stale_temps(self, tmp_path):
        collection, snap = self._snapshot(tmp_path)
        dead_save = self._plant_temp(
            snap, ".snap.save-tmp-00000001", age_s=STALE_TEMP_AGE_S + 60
        )
        dead_old = self._plant_temp(
            snap, ".snap.old-00000002", age_s=STALE_TEMP_AGE_S + 60
        )
        dead_reshard = self._plant_temp(
            snap, ".snap.reshard-tmp", age_s=STALE_TEMP_AGE_S + 60
        )
        fresh = self._plant_temp(snap, ".snap.save-tmp-00000003", age_s=0)
        unrelated = self._plant_temp(
            snap, ".other.save-tmp-9", age_s=STALE_TEMP_AGE_S + 60
        )
        save_collection(collection, snap)
        assert not dead_save.exists()
        assert not dead_old.exists()
        assert not dead_reshard.exists()
        assert fresh.exists()  # could be a concurrent save's staging tree
        assert unrelated.exists()  # belongs to a different snapshot name
        loaded = load_collection(snap)
        assert len(loaded) == BASE_N
        loaded.close()
        collection.close()
