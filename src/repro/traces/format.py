"""Versioned, length-prefixed trace format (PR10).

The second simulation input mode (ROADMAP item 5): instead of drawing
synthetic arrival processes at run time, simulators replay recorded or
generated *traces* — request, memory-access, and instruction streams —
from a compact binary container that is safe to read from hostile or
damaged bytes.

Container layout
----------------
::

    file   := header block*
    header := magic(4s = b"RTRC") version(u16) meta_len(u16)
              meta(JSON bytes) meta_crc(u32)
    block  := kind(u8) count(u32) body_len(u32) crc(u32) body
    body   := count fixed-stride packed records of one kind

All integers are big-endian (``!`` struct order).  Each block holds
records of a single kind; mixed-kind traces simply alternate blocks, so
record order across the file is exactly append order.  ``crc`` is a
CRC-32 over the 9 header bytes that precede it plus the body, so a
single flipped bit anywhere in a block — header or payload — surfaces
as :class:`TraceCorruptError`, never as silently different records.

Error taxonomy (the fuzz suite's contract)
------------------------------------------
Anything a truncated, corrupted, or version-skewed file can contain
must raise a :class:`TraceError` subclass — no bare ``struct.error``,
``KeyError``, ``UnicodeDecodeError``, or JSON exceptions, and no hangs:

* :class:`TraceFormatError` — structurally impossible bytes (bad magic,
  unknown record kind, body length inconsistent with the record stride,
  cap exceeded, undecodable metadata) and writer-side validation
  (non-monotonic timestamps, field range overflow).
* :class:`TraceCorruptError` — checksum mismatch or truncation inside
  a header, the metadata, or a block body.
* :class:`TraceVersionError` — a well-formed container written by an
  incompatible format version; upgrading is the fix, not parsing on.

Records
-------
Three kinds, mirroring the paper's emerging-apps tables (A.1/A.2):

* :class:`RequestRecord` — service traffic (social, media, ML serving):
  timestamp, service demand, payload size, client and target ids, an
  operation class.  ``client``/``target`` double as source/destination
  node ids when a request trace drives the NoC.
* :class:`MemoryRecord` — memory reference streams (k/v stores, graph
  analytics, NVM wear): timestamp, address, access size, read/write op,
  tier hint.
* :class:`InstructionRecord` — instruction streams for the processor
  models: timestamp, pc, op class, destination/source registers, an
  immediate.

Timestamps must be nondecreasing across the whole file (enforced at
write time).  The one kernel-driven sink (``noc``) bulk-loads each
block with :meth:`~repro.core.events.Simulator.schedule_batch`, which
keeps a sorted train in the kernel's in-order lane where the macro fast
path (:mod:`repro.core.macro`) can drain it in batches; the
array-program sinks (``queue``, ``cpu``, ``memory``, ``wear``) walk
sorted records in array order, and records from an unsorted block
iterable in the kernel's own ``(ts, seq)`` order.

Two read paths share one validation layer: :meth:`TraceReader.blocks`
yields ``(kind, numpy structured array)`` per block — the fast path
replay and online statistics consume — and :meth:`TraceReader.records`
yields one dataclass per record for tests and tooling.
"""

from __future__ import annotations

import io
import json
import struct
import zlib
from dataclasses import dataclass
from typing import Any, BinaryIO, Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

__all__ = [
    "FORMAT_VERSION",
    "KIND_INSTRUCTION",
    "KIND_MEMORY",
    "KIND_REQUEST",
    "KINDS",
    "TRACE_MAGIC",
    "InstructionRecord",
    "MemoryRecord",
    "RequestRecord",
    "TraceCorruptError",
    "TraceError",
    "TraceFormatError",
    "TraceReader",
    "TraceVersionError",
    "TraceWriter",
    "dtype_for",
    "kind_name",
    "kind_of",
    "read_trace",
    "records_to_array",
    "write_trace",
]

#: First four bytes of every trace file.
TRACE_MAGIC = b"RTRC"
#: Bumped whenever the container or a record layout changes; readers
#: refuse other versions loudly (:class:`TraceVersionError`).
FORMAT_VERSION = 1
#: Upper bound on one block's body — rejected before allocation, so a
#: lying length field cannot balloon memory.
MAX_BLOCK_BYTES = 16 * 1024 * 1024
#: Upper bound on the header's metadata JSON.  Deliberately below the
#: u16 length-field maximum (65535) so a lying length can actually
#: exceed it and trip the reader-side cap check.
MAX_META_BYTES = 48 * 1024

_FILE_HEADER = struct.Struct("!4sHH")
_BLOCK_HEADER = struct.Struct("!BII")
_CRC = struct.Struct("!I")

KIND_REQUEST = 1
KIND_MEMORY = 2
KIND_INSTRUCTION = 3


class TraceError(Exception):
    """Base for every trace container failure (the fuzz contract)."""


class TraceFormatError(TraceError):
    """Structurally invalid bytes or invalid record field values."""


class TraceCorruptError(TraceError):
    """Checksum mismatch or truncation inside a structure."""


class TraceVersionError(TraceError):
    """Well-formed container from an incompatible format version."""


@dataclass(frozen=True, slots=True)
class RequestRecord:
    """One service request: arrival time, demand, size, endpoints."""

    ts: float
    service_us: float
    size: int = 0
    client: int = 0
    target: int = 0
    op: int = 0


@dataclass(frozen=True, slots=True)
class MemoryRecord:
    """One memory reference: time, address, size, 0=read/1=write, tier."""

    ts: float
    addr: int
    size: int = 64
    op: int = 0
    tier: int = 0


@dataclass(frozen=True, slots=True)
class InstructionRecord:
    """One dynamic instruction: time, pc, op class, regs, immediate."""

    ts: float
    pc: int
    op: int = 0
    dst: int = 0
    src1: int = 0
    src2: int = 0
    imm: int = 0


#: kind id -> (record class, packed struct, numpy dtype, field names).
#: The struct format and the big-endian packed dtype describe the same
#: bytes, so the writer's numpy fast path and the scalar pack path are
#: interchangeable on disk.
KINDS: Dict[int, tuple] = {
    KIND_REQUEST: (
        RequestRecord,
        struct.Struct("!ddIHHB"),
        np.dtype(
            [("ts", ">f8"), ("service_us", ">f8"), ("size", ">u4"),
             ("client", ">u2"), ("target", ">u2"), ("op", "u1")]
        ),
        ("ts", "service_us", "size", "client", "target", "op"),
    ),
    KIND_MEMORY: (
        MemoryRecord,
        struct.Struct("!dQHBB"),
        np.dtype(
            [("ts", ">f8"), ("addr", ">u8"), ("size", ">u2"),
             ("op", "u1"), ("tier", "u1")]
        ),
        ("ts", "addr", "size", "op", "tier"),
    ),
    KIND_INSTRUCTION: (
        InstructionRecord,
        struct.Struct("!dQBBBBi"),
        np.dtype(
            [("ts", ">f8"), ("pc", ">u8"), ("op", "u1"), ("dst", "u1"),
             ("src1", "u1"), ("src2", "u1"), ("imm", ">i4")]
        ),
        ("ts", "pc", "op", "dst", "src1", "src2", "imm"),
    ),
}

_CLASS_TO_KIND = {cls: kind for kind, (cls, _p, _d, _f) in KINDS.items()}


def kind_of(record: Any) -> int:
    """The kind id of a record object (``TraceFormatError`` if foreign)."""
    try:
        return _CLASS_TO_KIND[type(record)]
    except KeyError:
        raise TraceFormatError(
            f"not a trace record: {type(record).__name__}"
        ) from None


def kind_name(kind: int) -> str:
    return {KIND_REQUEST: "request", KIND_MEMORY: "memory",
            KIND_INSTRUCTION: "instruction"}.get(kind, f"kind-{kind}")


def dtype_for(kind: int) -> np.dtype:
    """The packed big-endian structured dtype for ``kind``."""
    try:
        return KINDS[kind][2]
    except KeyError:
        raise TraceFormatError(f"unknown record kind {kind}") from None


def records_to_array(kind: int, records: Iterable[Any]) -> np.ndarray:
    """Pack record objects into the kind's structured array."""
    cls, _packer, dtype, fields = KINDS[kind]
    rows = []
    for rec in records:
        if type(rec) is not cls:
            raise TraceFormatError(
                f"kind {kind_name(kind)} block cannot hold "
                f"{type(rec).__name__}"
            )
        rows.append(tuple(getattr(rec, f) for f in fields))
    try:
        return np.array(rows, dtype=dtype)
    except (OverflowError, ValueError) as exc:
        raise TraceFormatError(f"record field out of range: {exc}") from None


def _array_records(kind: int, arr: np.ndarray) -> Iterator[Any]:
    cls, _packer, _dtype, fields = KINDS[kind]
    cols = [arr[f].tolist() for f in fields]
    for row in zip(*cols):
        yield cls(*row)


# -- writer ----------------------------------------------------------------


class TraceWriter:
    """Streaming writer: records in, validated blocks out.

    Accepts either individual record objects (:meth:`append`, buffered
    into blocks of ``block_records``) or whole structured arrays
    (:meth:`write_block`, the generator fast path).  Enforces the
    format invariants at write time — nondecreasing timestamps across
    the entire file, field values within their packed ranges — so every
    file this writer produces is replayable and every violation is a
    loud :class:`TraceFormatError` at the write site, not a corrupt
    artifact discovered later.

    Usable as a context manager; ``close()`` flushes the open block.
    """

    def __init__(
        self,
        target: Union[str, BinaryIO],
        meta: Optional[Dict[str, Any]] = None,
        block_records: int = 4096,
    ) -> None:
        if block_records < 1:
            raise ValueError("block_records must be >= 1")
        self._own = isinstance(target, str)
        self._f: BinaryIO = open(target, "wb") if self._own else target
        self._block_records = block_records
        self._buffer: List[Any] = []
        self._buffer_kind: Optional[int] = None
        self._last_ts = float("-inf")
        self._records = 0
        self._blocks = 0
        self._closed = False
        meta_bytes = json.dumps(
            dict(meta or {}), sort_keys=True, separators=(",", ":")
        ).encode()
        if len(meta_bytes) > MAX_META_BYTES:
            raise TraceFormatError(
                f"metadata too large ({len(meta_bytes)} bytes > "
                f"{MAX_META_BYTES} cap)"
            )
        self._f.write(
            _FILE_HEADER.pack(TRACE_MAGIC, FORMAT_VERSION, len(meta_bytes))
        )
        self._f.write(meta_bytes)
        self._f.write(_CRC.pack(zlib.crc32(meta_bytes) & 0xFFFFFFFF))

    # Counters for tooling ("wrote N records in M blocks").
    @property
    def records_written(self) -> int:
        return self._records

    @property
    def blocks_written(self) -> int:
        return self._blocks

    def append(self, record: Any) -> None:
        """Buffer one record; flushes when the kind changes or the
        block fills.  Order across kinds is preserved exactly."""
        self._check_open()
        kind = kind_of(record)
        ts = float(record.ts)
        if ts < self._last_ts:
            raise TraceFormatError(
                f"timestamps must be nondecreasing: {ts} after "
                f"{self._last_ts}"
            )
        if self._buffer_kind is not None and (
            kind != self._buffer_kind
            or len(self._buffer) >= self._block_records
        ):
            self._flush()
        self._buffer_kind = kind
        self._buffer.append(record)
        self._last_ts = ts

    def extend(self, records: Iterable[Any]) -> None:
        for record in records:
            self.append(record)

    def write_block(self, kind: int, arr: np.ndarray) -> None:
        """Write one structured array as one-or-more blocks (fast path).

        The array must use :func:`dtype_for` exactly (same fields, same
        big-endian packing); its timestamps must be nondecreasing and
        must not precede anything already written.
        """
        self._check_open()
        if kind not in KINDS:
            raise TraceFormatError(f"unknown record kind {kind}")
        dtype = KINDS[kind][2]
        if arr.dtype != dtype:
            raise TraceFormatError(
                f"block dtype {arr.dtype} != {kind_name(kind)} dtype {dtype}"
            )
        if arr.ndim != 1:
            raise TraceFormatError("block array must be one-dimensional")
        if len(arr) == 0:
            return
        ts = arr["ts"]
        if float(ts[0]) < self._last_ts or np.any(np.diff(ts) < 0):
            raise TraceFormatError("timestamps must be nondecreasing")
        self._flush()
        cap = max(1, MAX_BLOCK_BYTES // dtype.itemsize)
        for start in range(0, len(arr), cap):
            chunk = arr[start:start + cap]
            self._emit(kind, len(chunk), chunk.tobytes())
        self._last_ts = float(ts[-1])
        self._records += len(arr)

    def _flush(self) -> None:
        if not self._buffer:
            return
        kind = self._buffer_kind
        cls, packer, _dtype, fields = KINDS[kind]
        try:
            body = b"".join(
                packer.pack(*(getattr(rec, f) for f in fields))
                for rec in self._buffer
            )
        except struct.error as exc:
            raise TraceFormatError(f"record field out of range: {exc}") from None
        self._emit(kind, len(self._buffer), body)
        self._records += len(self._buffer)
        self._buffer.clear()
        self._buffer_kind = None

    def _emit(self, kind: int, count: int, body: bytes) -> None:
        head = _BLOCK_HEADER.pack(kind, count, len(body))
        crc = zlib.crc32(head) & 0xFFFFFFFF
        crc = zlib.crc32(body, crc) & 0xFFFFFFFF
        self._f.write(head)
        self._f.write(_CRC.pack(crc))
        self._f.write(body)
        self._blocks += 1

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError("trace writer is closed")

    def close(self) -> None:
        if self._closed:
            return
        try:
            self._flush()
        finally:
            # Mark closed even when the final flush raises (e.g. an
            # out-of-range field in the trailing block): the error
            # surfaces once, and the context-manager exit's second
            # close() is a no-op instead of a re-raise.
            self._closed = True
            if self._own:
                self._f.close()
            else:
                self._f.flush()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# -- reader ----------------------------------------------------------------


def _read_exact(f: BinaryIO, n: int, what: str) -> bytes:
    """Read exactly ``n`` bytes or raise :class:`TraceCorruptError`."""
    chunks: List[bytes] = []
    remaining = n
    while remaining:
        chunk = f.read(remaining)
        if not chunk:
            raise TraceCorruptError(
                f"truncated trace: EOF inside {what} "
                f"({n - remaining} of {n} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class TraceReader:
    """Streaming, validating reader over a trace file or file object.

    Opening validates the header (magic, version, metadata checksum);
    iteration then yields blocks or records until a clean EOF at a
    block boundary.  Every malformation raises a typed
    :class:`TraceError` — this class is fuzzed directly
    (``tests/traces/test_trace_fuzz.py``), so any new parse step must
    keep that contract.
    """

    def __init__(self, source: Union[str, bytes, BinaryIO]) -> None:
        self._own = True
        if isinstance(source, str):
            self._f: BinaryIO = open(source, "rb")
        elif isinstance(source, (bytes, bytearray)):
            self._f = io.BytesIO(bytes(source))
        else:
            self._f = source
            self._own = False
        self._closed = False
        try:
            raw = _read_exact(self._f, _FILE_HEADER.size, "file header")
            magic, version, meta_len = _FILE_HEADER.unpack(raw)
            if magic != TRACE_MAGIC:
                raise TraceFormatError(
                    f"bad magic {magic!r}: not a trace file"
                )
            if version != FORMAT_VERSION:
                raise TraceVersionError(
                    f"trace format version {version} != supported "
                    f"{FORMAT_VERSION}; upgrade the reader or re-record"
                )
            if meta_len > MAX_META_BYTES:
                raise TraceFormatError(
                    f"metadata length {meta_len} exceeds cap {MAX_META_BYTES}"
                )
            meta_bytes = _read_exact(self._f, meta_len, "metadata")
            (crc,) = _CRC.unpack(_read_exact(self._f, _CRC.size, "meta crc"))
            if zlib.crc32(meta_bytes) & 0xFFFFFFFF != crc:
                raise TraceCorruptError("metadata checksum mismatch")
            try:
                self.meta: Dict[str, Any] = json.loads(meta_bytes or b"{}")
            except (ValueError, UnicodeDecodeError):
                raise TraceFormatError("metadata is not valid JSON") from None
            if not isinstance(self.meta, dict):
                raise TraceFormatError("metadata must be a JSON object")
        except TraceError:
            self.close()
            raise

    def blocks(self) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(kind, structured array)`` per block until EOF.

        The returned arrays are copies (safe to keep); timestamps are
        additionally checked nondecreasing across blocks so a replayer
        can bulk-load them without re-sorting.
        """
        last_ts = float("-inf")
        while True:
            head = self._f.read(_BLOCK_HEADER.size)
            if not head:
                return  # clean EOF at a block boundary
            if len(head) < _BLOCK_HEADER.size:
                raise TraceCorruptError(
                    "truncated trace: EOF inside block header"
                )
            kind, count, body_len = _BLOCK_HEADER.unpack(head)
            if body_len > MAX_BLOCK_BYTES:
                raise TraceFormatError(
                    f"block body {body_len} bytes exceeds cap "
                    f"{MAX_BLOCK_BYTES}"
                )
            if kind not in KINDS:
                raise TraceFormatError(f"unknown record kind {kind}")
            dtype = KINDS[kind][2]
            if count * dtype.itemsize != body_len:
                raise TraceFormatError(
                    f"block length {body_len} inconsistent with "
                    f"{count} x {dtype.itemsize}-byte "
                    f"{kind_name(kind)} records"
                )
            (crc,) = _CRC.unpack(_read_exact(self._f, _CRC.size, "block crc"))
            body = _read_exact(self._f, body_len, "block body")
            actual = zlib.crc32(head) & 0xFFFFFFFF
            actual = zlib.crc32(body, actual) & 0xFFFFFFFF
            if actual != crc:
                raise TraceCorruptError("block checksum mismatch")
            arr = np.frombuffer(body, dtype=dtype).copy()
            if len(arr):
                ts = arr["ts"]
                if float(ts[0]) < last_ts or bool(np.any(np.diff(ts) < 0)):
                    raise TraceFormatError(
                        "timestamps must be nondecreasing"
                    )
                if not bool(np.all(np.isfinite(ts))):
                    raise TraceFormatError("non-finite timestamp")
                last_ts = float(ts[-1])
            yield kind, arr

    def records(self) -> Iterator[Any]:
        """Yield one record dataclass per record, in file order."""
        for kind, arr in self.blocks():
            yield from _array_records(kind, arr)

    def __iter__(self) -> Iterator[Any]:
        return self.records()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            if self._own:
                self._f.close()

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# -- convenience -----------------------------------------------------------


def write_trace(
    target: Union[str, BinaryIO],
    records: Iterable[Any],
    meta: Optional[Dict[str, Any]] = None,
) -> int:
    """Write ``records`` (objects, in order) to ``target``; count back."""
    with TraceWriter(target, meta=meta) as w:
        w.extend(records)
    # Count after close: the trailing open block flushes (and counts)
    # only then.
    return w.records_written


def read_trace(source: Union[str, bytes, BinaryIO]) -> List[Any]:
    """Read an entire trace into a list of record objects."""
    with TraceReader(source) as r:
        return list(r.records())
