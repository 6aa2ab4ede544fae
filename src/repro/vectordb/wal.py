"""Per-shard write-ahead logging: durable writes between full snapshots.

Until this module, every write to a served collection lived only in RAM
between ``/admin/save`` calls — a crash silently lost everything since
the last full-snapshot rewrite. A :class:`WriteAheadLog` closes that
hole: each shard appends its accepted writes (``upsert``,
``set_payload``, ``create_payload_index``) to an append-only log *after*
applying them in memory but *before* acknowledging the call, so crash
recovery is "load the last snapshot, replay the log tail"
(:func:`replay_into`, wired through
:func:`repro.vectordb.persistence.load_collection`).

On-disk format — binary, streamed, designed to be salvageable::

    file   := MAGIC (8 bytes) record*
    record := u32 body_len | u32 crc32(body) | body
    body   := u8 op | op-specific fields

    op 1 (upsert):        u16 id_len | id utf-8 | u32 payload_len |
                          payload json utf-8 | u32 dim | dim × f32 (LE)
    op 2 (set_payload):   u16 id_len | id utf-8 | u32 payload_len |
                          payload json utf-8
    op 3 (create_index):  u16 field_len | field utf-8

Vectors are stored as raw little-endian float32 — replay reproduces the
exact bits the collection accepted, so recovered search results are
bit-identical to a process that never crashed. Every record is
independently framed (length prefix) and checksummed (CRC-32 of the
body), so a crash mid-append leaves at worst one torn record at the
tail: :meth:`WriteAheadLog.open` scans the file on open, keeps the
longest valid prefix, and truncates the torn tail (with a
``RuntimeWarning``) instead of failing recovery.

Durability modes (``fsync=``):

* ``"always"`` — ``fsync`` before every append call returns. Every
  acknowledged write survives power loss. Slowest (one disk flush per
  write call).
* ``"batch"`` (default) — appends return after a buffered write; a
  background flusher thread fsyncs at most every ``FLUSH_INTERVAL_S``
  (5 ms, so one flush covers a burst of writes).
  Bounded loss window on power failure; nothing lost on process death
  (the OS already has the bytes).
* ``"off"`` — never fsync (the OS flushes on its own schedule). Still
  safe against process crashes, not against power loss.

Replay is **idempotent**: re-upserting an id with the identical vector
is a payload update, ``set_payload`` re-merges the same keys, and
``create_payload_index`` re-indexes an indexed field — so a log may be
replayed on top of a snapshot that already contains a prefix of it
(exactly what happens after a crash between a snapshot publish and the
log truncation that follows it).

``save_collection`` truncates the log after a successful atomic
publish — but only through the byte offset captured with the snapshot
view (:meth:`WriteAheadLog.truncate_through`), so writes that raced the
save keep their records and replay on top of the new snapshot.
"""

from __future__ import annotations

import io
import json
import os
import struct
import threading
import warnings
import zlib
from collections.abc import Iterator, Sequence
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import CollectionError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.vectordb.collection import PointStruct

#: File magic: identifies a WAL file and its format revision.
MAGIC = b"SKWAL\x00\x01\n"

#: Record opcodes.
OP_UPSERT = 1
OP_SET_PAYLOAD = 2
OP_CREATE_INDEX = 3

_FRAME = struct.Struct("<II")  # body length, crc32(body)
_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")

#: Accepted fsync modes (see the module docstring).
FSYNC_MODES = ("always", "batch", "off")

#: Longest the ``"batch"`` flusher lets written bytes sit un-fsynced.
FLUSH_INTERVAL_S = 0.005


def wal_directory(snapshot_dir: str | Path) -> Path:
    """The WAL directory paired with a snapshot directory.

    A *sibling* (``<snapshot>.wal/``), never a child: snapshot saves
    publish by swapping the whole snapshot directory, and the log must
    survive that swap (its tail may hold writes the new snapshot raced
    with).
    """
    snapshot_dir = Path(snapshot_dir)
    return snapshot_dir.parent / f"{snapshot_dir.name}.wal"


def shard_wal_path(wal_dir: str | Path, shard_index: int) -> Path:
    """The log file for one shard (``shard-00.wal``; plain = shard 0)."""
    return Path(wal_dir) / f"shard-{shard_index:02d}.wal"


# ----------------------------------------------------------------------
# record encoding / decoding
# ----------------------------------------------------------------------


def _encode_str(value: str, width: struct.Struct = _U16) -> bytes:
    raw = value.encode("utf-8")
    if len(raw) >= 1 << (8 * width.size):
        raise CollectionError(f"WAL string field too long ({len(raw)} bytes)")
    return width.pack(len(raw)) + raw


def _encode_json(payload: dict[str, Any]) -> bytes:
    raw = json.dumps(
        payload, ensure_ascii=False, separators=(",", ":")
    ).encode("utf-8")
    return _U32.pack(len(raw)) + raw


def encode_upsert(point_id: str, vector: np.ndarray,
                  payload: dict[str, Any]) -> bytes:
    """One upsert record body (framing added by the log's append)."""
    row = np.ascontiguousarray(vector, dtype="<f4")
    return (
        _U8.pack(OP_UPSERT)
        + _encode_str(point_id)
        + _encode_json(payload)
        + _U32.pack(row.size)
        + row.tobytes()
    )


def encode_set_payload(point_id: str, payload: dict[str, Any]) -> bytes:
    """One set_payload record body."""
    return _U8.pack(OP_SET_PAYLOAD) + _encode_str(point_id) + _encode_json(payload)


def encode_create_index(field: str) -> bytes:
    """One create_payload_index record body."""
    return _U8.pack(OP_CREATE_INDEX) + _encode_str(field)


class _BodyReader:
    """Sequential decoder over one record body (raises on short reads)."""

    def __init__(self, body: bytes) -> None:
        self._body = body
        self._pos = 0

    def take(self, n: int) -> bytes:
        end = self._pos + n
        if end > len(self._body):
            raise ValueError("record body shorter than its fields declare")
        chunk = self._body[self._pos:end]
        self._pos = end
        return chunk

    def u8(self) -> int:
        return _U8.unpack(self.take(1))[0]

    def u16(self) -> int:
        return _U16.unpack(self.take(2))[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def string(self, width: str = "u16") -> str:
        length = self.u16() if width == "u16" else self.u32()
        return self.take(length).decode("utf-8")

    def json(self) -> dict[str, Any]:
        length = self.u32()
        return json.loads(self.take(length).decode("utf-8"))


def decode_record(body: bytes) -> tuple[int, tuple[Any, ...]]:
    """``(op, fields)`` from one checksum-verified record body.

    * ``OP_UPSERT`` → ``(id, payload, vector)`` with the vector as an
      owned float32 array (bit-identical to what was logged);
    * ``OP_SET_PAYLOAD`` → ``(id, payload)``;
    * ``OP_CREATE_INDEX`` → ``(field,)``.

    Raises ``ValueError`` for structurally invalid bodies (unknown op,
    fields overrunning the frame) — the replay scanner treats that the
    same as a checksum failure.
    """
    reader = _BodyReader(body)
    op = reader.u8()
    if op == OP_UPSERT:
        point_id = reader.string()
        payload = reader.json()
        dim = reader.u32()
        vector = np.frombuffer(reader.take(dim * 4), dtype="<f4").copy()
        return op, (point_id, payload, vector)
    if op == OP_SET_PAYLOAD:
        return op, (reader.string(), reader.json())
    if op == OP_CREATE_INDEX:
        return op, (reader.string(),)
    raise ValueError(f"unknown WAL opcode {op}")


def iter_records(path: str | Path) -> Iterator[tuple[int, int, tuple]]:
    """Yield ``(end_offset, op, fields)`` for every valid record.

    Stops silently at the first torn or corrupt frame (short header,
    short body, checksum mismatch, undecodable body) — the valid prefix
    is exactly what crash recovery may trust. Use :func:`scan` when the
    caller needs to know where the valid prefix ends. Raises
    :class:`~repro.errors.CollectionError` if the file does not start
    with the WAL magic (it is not a log; silently "recovering" zero
    records from, say, a vector file would mask an operator mistake).
    """
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(len(MAGIC))
        if len(head) < len(MAGIC):
            return  # empty/truncated header: an empty log
        if head != MAGIC:
            raise CollectionError(f"{path} is not a WAL file (bad magic)")
        offset = len(MAGIC)
        while True:
            frame = fh.read(_FRAME.size)
            if len(frame) < _FRAME.size:
                return
            body_len, checksum = _FRAME.unpack(frame)
            body = fh.read(body_len)
            if len(body) < body_len:
                return
            if zlib.crc32(body) != checksum:
                return
            try:
                op, fields = decode_record(body)
            except (ValueError, json.JSONDecodeError, UnicodeDecodeError):
                return
            offset += _FRAME.size + body_len
            yield offset, op, fields


def scan(path: str | Path) -> tuple[int, int]:
    """``(valid_end_offset, record_count)`` of the log's intact prefix."""
    path = Path(path)
    end = min(len(MAGIC), path.stat().st_size)
    count = 0
    for end, _op, _fields in iter_records(path):
        count += 1
    return end, count


def replay_into(collection: Any, path: str | Path) -> int:
    """Apply a log's valid records to ``collection``; returns the count.

    ``collection`` is any object with the ``Collection`` write surface
    (a plain or sharded collection — sharded replay routes each record's
    id back to the shard that logged it, because ``shard_for`` is
    stable). Call **before** attaching a live WAL, or the replayed
    writes would be logged a second time. Replay is idempotent (see the
    module docstring), so replaying records the snapshot already
    contains is harmless.
    """
    from repro.vectordb.collection import PointStruct  # local: avoid cycle

    applied = 0
    for _offset, op, fields in iter_records(path):
        if op == OP_UPSERT:
            point_id, payload, vector = fields
            collection.upsert(
                [PointStruct(id=point_id, vector=vector, payload=payload)]
            )
        elif op == OP_SET_PAYLOAD:
            collection.set_payload(fields[0], fields[1])
        elif op == OP_CREATE_INDEX:
            collection.create_payload_index(fields[0])
        applied += 1
    return applied


# ----------------------------------------------------------------------
# the log itself
# ----------------------------------------------------------------------


class WriteAheadLog:
    """One shard's append-only, checksummed write log.

    Thread-safe: appends, syncs, and truncation serialize on an internal
    lock (the owning collection additionally holds its write lock across
    apply + append, which is what makes snapshot views consistent with
    log offsets). Opening repairs a torn tail in place. The log object
    deliberately does not pickle: it owns an open file and a flusher
    thread, and a copy in another process would log over the original.
    """

    def __init__(self, path: str | Path, fsync: str = "batch") -> None:
        if fsync not in FSYNC_MODES:
            raise CollectionError(
                f"unknown WAL fsync mode {fsync!r}; use one of {FSYNC_MODES}"
            )
        self.path = Path(path)
        self.fsync_mode = fsync
        self._lock = threading.Lock()
        self._closed = False
        self._dirty = False  # bytes buffered/written but not yet fsynced
        self._flusher: threading.Thread | None = None
        self._flush_wakeup = threading.Event()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._offset, self._records = self._repair_and_open()

    # -- lifecycle -----------------------------------------------------

    def _repair_and_open(self) -> tuple[int, int]:
        """Truncate any torn tail, open for append; ``(offset, records)``."""
        size = self.path.stat().st_size if self.path.exists() else 0
        if 0 < size < len(MAGIC):
            # A crash while the header itself was being written: nothing
            # in the file can be valid — start the log over.
            warnings.warn(
                f"WAL {self.path} has a torn header; starting empty",
                RuntimeWarning,
                stacklevel=4,
            )
            with open(self.path, "r+b") as fh:
                fh.truncate(0)
                fh.flush()
                os.fsync(fh.fileno())
            size = 0
        if size > 0:
            end, count = scan(self.path)
            if end < size:
                warnings.warn(
                    f"WAL {self.path} has a torn tail ({size - end} bytes "
                    f"after the last intact record); truncating to the "
                    f"valid prefix ({count} records)",
                    RuntimeWarning,
                    stacklevel=4,
                )
                with open(self.path, "r+b") as fh:
                    fh.truncate(end)
                    fh.flush()
                    os.fsync(fh.fileno())
        else:
            end, count = 0, 0
        self._fh = open(self.path, "ab")
        if self._fh.tell() == 0:
            self._fh.write(MAGIC)
            self._fh.flush()
            end = len(MAGIC)
        return end, count

    def close(self) -> None:
        """Flush buffered records and close the file (idempotent).

        ``batch`` mode fsyncs on close (a clean shutdown loses nothing);
        ``off`` only flushes to the OS.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._fh.flush()
            if self.fsync_mode != "off" and self._dirty:
                os.fsync(self._fh.fileno())
                self._dirty = False
            self._fh.close()
            flusher = self._flusher
            self._flush_wakeup.set()
        if flusher is not None:
            flusher.join(timeout=5.0)

    def __getstate__(self) -> None:  # pragma: no cover - defensive
        raise TypeError(
            "WriteAheadLog does not pickle: it owns an open file and a "
            "flusher thread (a copy would log over the original)"
        )

    # -- introspection -------------------------------------------------

    @property
    def offset(self) -> int:
        """Current end-of-log byte offset (capture with snapshot views)."""
        with self._lock:
            return self._offset

    @property
    def depth(self) -> int:
        """Records in the log awaiting the next snapshot truncation."""
        with self._lock:
            return self._records

    def stats(self) -> dict:
        """JSON-ready counters (``/healthz`` embeds these per shard)."""
        with self._lock:
            return {
                "path": str(self.path),
                "fsync": self.fsync_mode,
                "records": self._records,
                "bytes": max(0, self._offset - len(MAGIC)),
            }

    # -- appends -------------------------------------------------------

    def _append_bodies(self, bodies: Sequence[bytes]) -> None:
        buffer = io.BytesIO()
        for body in bodies:
            buffer.write(_FRAME.pack(len(body), zlib.crc32(body)))
            buffer.write(body)
        raw = buffer.getvalue()
        with self._lock:
            if self._closed:
                raise CollectionError(f"WAL {self.path} is closed")
            self._fh.write(raw)
            self._offset += len(raw)
            self._records += len(bodies)
            self._dirty = True
            if self.fsync_mode == "always":
                self._fh.flush()
                os.fsync(self._fh.fileno())
                self._dirty = False
                return
            # Leave bytes in the userspace buffer no longer than one
            # flush window: process death loses buffered (not yet
            # written) bytes even without a power failure.
            self._fh.flush()
            if self.fsync_mode == "batch":
                self._ensure_flusher()

    def append_points(self, points: Sequence["PointStruct"]) -> None:
        """Log accepted upserts (one record per point, one write + sync)."""
        if not points:
            return
        self._append_bodies([
            encode_upsert(point.id, point.vector, point.payload)
            for point in points
        ])

    def append_set_payload(self, point_id: str,
                           payload: dict[str, Any]) -> None:
        """Log one accepted payload merge."""
        self._append_bodies([encode_set_payload(point_id, payload)])

    def append_create_index(self, field: str) -> None:
        """Log one accepted payload-index creation."""
        self._append_bodies([encode_create_index(field)])

    # -- durability ----------------------------------------------------

    def sync(self) -> None:
        """Force an fsync now (no-op in ``off`` mode, or when clean)."""
        with self._lock:
            if self._closed or not self._dirty:
                return
            self._fh.flush()
            if self.fsync_mode != "off":
                os.fsync(self._fh.fileno())
            self._dirty = False

    def _ensure_flusher(self) -> None:
        """Start the batch-mode flusher lazily (called under the lock)."""
        if self._flusher is None or not self._flusher.is_alive():
            self._flusher = threading.Thread(
                target=self._flush_loop,
                name=f"wal-flush-{self.path.stem}",
                daemon=True,
            )
            self._flusher.start()

    def _flush_loop(self) -> None:
        while True:
            self._flush_wakeup.wait(FLUSH_INTERVAL_S)
            with self._lock:
                if self._closed:
                    return
                if self._dirty:
                    self._fh.flush()
                    os.fsync(self._fh.fileno())
                    self._dirty = False

    # -- truncation ----------------------------------------------------

    def truncate_through(self, offset: int) -> int:
        """Drop records up to ``offset``; keep the tail. Returns new depth.

        Called after a snapshot publish succeeds: everything at or
        before the offset captured with the snapshot view is now
        durable in the snapshot itself. The tail (writes that raced the
        save) is rewritten into a fresh log and atomically renamed over
        the old one, so a crash mid-truncation leaves either the full
        old log (replay is idempotent) or the correctly truncated one.
        """
        with self._lock:
            if self._closed:
                raise CollectionError(f"WAL {self.path} is closed")
            offset = max(offset, len(MAGIC))
            if offset >= self._offset:
                tail = b""
            else:
                self._fh.flush()
                with open(self.path, "rb") as fh:
                    fh.seek(offset)
                    tail = fh.read(self._offset - offset)
            replacement = self.path.with_name(self.path.name + ".compact")
            with open(replacement, "wb") as fh:
                fh.write(MAGIC + tail)
                fh.flush()
                os.fsync(fh.fileno())
            self._fh.close()
            os.replace(replacement, self.path)
            self._fh = open(self.path, "ab")
            self._dirty = False
            self._offset = len(MAGIC) + len(tail)
            self._records = sum(1 for _ in iter_records(self.path))
            return self._records
