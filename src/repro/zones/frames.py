"""Compact binary frames + shared-memory rings for the epoch barrier.

The packed record is the only representation of cross-zone traffic:
the in-process :class:`~repro.zones.cluster.ZonedCluster` and the
sharded driver both route it. The sharded driver's profile
(docs/PERFORMANCE.md) showed the original barrier exchange, which
pickled one message object per record over the worker/master pipe and
re-pickled the sorted batches back out, was a pessimization — at
n=16384/64 zones that is thousands of object constructions and two full
pickle passes per epoch, which is why 4 shards on one core *doubled*
the single-process wall clock. This module replaces that path with:

* **an interned bridge table** (:class:`BridgeTable`) — bridge names
  are the only strings in cross-zone routing, and the set of bridges
  is a pure function of the layout, so master and workers each build
  the identical table locally at startup and only a short digest
  crosses the pipe to prove they agree ("negotiated once");

* **packed record frames** (:class:`FrameBuffer` / :func:`iter_records`)
  — one contiguous buffer per barrier holding
  ``(src_zone:u16, seq:u32, dest_zone:u16, bridge_id:u16, len:u32,
  payload)`` records behind a small magic/version/count header.
  Encoding appends into a reusable ``bytearray`` (the encode-buffer
  idiom of :mod:`repro.swim.codec`); decoding yields ``memoryview``
  payload slices without copying, so the master can route records into
  per-destination frames straight off a worker's buffer
  (:func:`route_records`, in the canonical :func:`record_order`);

* **a double-buffered shared-memory ring** (:class:`BarrierRing`) —
  one ``multiprocessing.shared_memory`` segment per worker, split into
  two outbound and two inbound slots that alternate with the barrier
  index. Frames move as a single ``memcpy`` into the slot; the pipe is
  demoted to a control channel carrying ``(barrier, nbytes, count)``.
  A frame larger than a slot falls back to the pipe (correct, merely
  slower) rather than failing.

Truncated or corrupt frames raise :class:`FrameError`, never yield
garbage; the differential suite in ``tests/zones/test_frames.py`` pins
:func:`route_records` to an independent object-level reference router
kept in the test.
"""

from __future__ import annotations

import hashlib
import struct
from multiprocessing import shared_memory
from operator import itemgetter
from typing import Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.zones.topology import ZoneLayout

__all__ = [
    "FRAME_HEAD",
    "RECORD_HEAD",
    "BarrierRing",
    "BridgeTable",
    "FrameBuffer",
    "FrameError",
    "Record",
    "iter_records",
    "record_order",
    "route_records",
]

#: Frame header: magic ("ZF"), format version, record count.
FRAME_MAGIC = 0x5A46
FRAME_VERSION = 1
FRAME_HEAD = struct.Struct(">HHI")

#: Record header: src_zone, seq, dest_zone, bridge_id, payload length.
RECORD_HEAD = struct.Struct(">HIHHI")

#: One decoded record; the payload is a zero-copy slice of the frame.
Record = Tuple[int, int, int, int, memoryview]

#: Sort key of the canonical cross-zone merge order, ``(src_zone, seq)``.
#: ``seq`` counts sends per source zone, so the order does not depend on
#: how zones are grouped into shards.
record_order = itemgetter(0, 1)

#: Default slot capacity of a :class:`BarrierRing` (per direction, per
#: buffer). At the n=16384/64-zone rung a barrier frame is tens of KiB;
#: 1 MiB keeps even the 1024-zone opt-in rung mostly on the fast path
#: while costing only 4 MiB of shared memory per worker.
DEFAULT_SLOT_BYTES = 1 << 20

_pack_record_head = RECORD_HEAD.pack
_unpack_record_head_from = RECORD_HEAD.unpack_from


class FrameError(ValueError):
    """A frame failed validation (bad magic/version, truncation, trailing
    garbage, or an out-of-range intern id)."""


class BridgeTable:
    """Interned ``bridge name <-> u16 id`` table for one layout.

    Both sides derive it from the layout (zone-index order, bridge order
    within a zone), so nothing but :attr:`digest` needs to cross the
    pipe at startup to prove the tables match.
    """

    __slots__ = ("names", "ids")

    def __init__(self, names: Sequence[str]) -> None:
        if len(names) > 0xFFFF:
            raise FrameError(
                f"bridge table overflow: {len(names)} bridges > 65535"
            )
        self.names: Tuple[str, ...] = tuple(names)
        self.ids: dict[str, int] = {
            name: index for index, name in enumerate(self.names)
        }
        if len(self.ids) != len(self.names):
            raise FrameError("duplicate bridge names in intern table")

    @classmethod
    def from_layout(cls, layout: ZoneLayout) -> "BridgeTable":
        return cls(
            [bridge for zone in layout.zones for bridge in zone.bridges]
        )

    @property
    def digest(self) -> str:
        """Short stable digest of the table for the startup handshake."""
        blob = "\x00".join(self.names).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]

    def __len__(self) -> int:
        return len(self.names)


class FrameBuffer:
    """Reusable append-only encoder for one barrier frame.

    Appends pack straight into one owned ``bytearray`` (header space
    pre-reserved); :meth:`view` stamps the header and hands back a
    ``memoryview`` of the finished frame without copying. ``reset``
    truncates in place so the steady-state exchange allocates nothing.
    """

    __slots__ = ("_buf", "count", "payload_bytes")

    def __init__(self) -> None:
        self._buf = bytearray(FRAME_HEAD.size)
        self.count = 0
        self.payload_bytes = 0

    def reset(self) -> None:
        del self._buf[FRAME_HEAD.size :]
        self.count = 0
        self.payload_bytes = 0

    def append(
        self,
        src_zone: int,
        seq: int,
        dest_zone: int,
        bridge_id: int,
        payload: "bytes | memoryview",
    ) -> None:
        buf = self._buf
        buf += _pack_record_head(
            src_zone, seq, dest_zone, bridge_id, len(payload)
        )
        buf += payload
        self.count += 1
        self.payload_bytes += len(payload)

    def view(self) -> memoryview:
        """Finished frame as a zero-copy view. The view *exports* the
        underlying ``bytearray`` — callers must ``release()`` it before
        the next ``append``/``reset`` (a resize with live exports is a
        ``BufferError``)."""
        FRAME_HEAD.pack_into(self._buf, 0, FRAME_MAGIC, FRAME_VERSION, self.count)
        return memoryview(self._buf)

    def __len__(self) -> int:
        return len(self._buf)


def iter_records(frame: "bytes | bytearray | memoryview") -> Iterator[Record]:
    """Decode a frame, yielding ``(src_zone, seq, dest_zone, bridge_id,
    payload_view)`` records in frame order.

    Payload views alias ``frame``; callers that outlive the buffer (the
    worker's deliver path schedules payloads into the future) must
    materialize with ``bytes()``. Any structural violation raises
    :class:`FrameError` — a frame never decodes to garbage.
    """
    view = frame if isinstance(frame, memoryview) else memoryview(frame)
    total = len(view)
    if total < FRAME_HEAD.size:
        raise FrameError(f"frame truncated: {total} bytes < header")
    magic, version, count = FRAME_HEAD.unpack_from(view, 0)
    if magic != FRAME_MAGIC:
        raise FrameError(f"bad frame magic 0x{magic:04X}")
    if version != FRAME_VERSION:
        raise FrameError(f"unsupported frame version {version}")
    offset = FRAME_HEAD.size
    head_size = RECORD_HEAD.size
    for index in range(count):
        if offset + head_size > total:
            raise FrameError(
                f"frame truncated in record {index} header "
                f"({total - offset} of {head_size} bytes)"
            )
        src_zone, seq, dest_zone, bridge_id, length = (
            _unpack_record_head_from(view, offset)
        )
        offset += head_size
        if offset + length > total:
            raise FrameError(
                f"frame truncated in record {index} payload "
                f"({total - offset} of {length} bytes)"
            )
        yield (src_zone, seq, dest_zone, bridge_id, view[offset : offset + length])
        offset += length
    if offset != total:
        raise FrameError(f"{total - offset} bytes of trailing garbage")


def route_records(
    records: List[Record],
    encoders: Sequence[FrameBuffer],
    dest_shard: Mapping[int, int],
) -> None:
    """The master's barrier merge: sort ``records`` in place into
    :func:`record_order` and append each to its destination shard's
    frame, copying payload views straight off the source frames."""
    records.sort(key=record_order)
    for src_zone, seq, dest_zone, bridge_id, payload in records:
        encoders[dest_shard[dest_zone]].append(
            src_zone, seq, dest_zone, bridge_id, payload
        )


class BarrierRing:
    """Double-buffered shared-memory frame transport for one worker.

    One segment, four equal slots::

        [ out slot 0 | out slot 1 | in slot 0 | in slot 1 ]

    The worker writes ``out`` slots (its outbox frame), the master
    writes ``in`` slots (the routed inbound frame); the slot in use
    alternates with the barrier index, so whichever side runs ahead by
    one barrier never scribbles over a frame the other side still holds
    a zero-copy view of. The control pipe carries only
    ``(barrier, nbytes, count)`` — when ``nbytes`` exceeds the slot
    capacity the frame itself rides the pipe instead (oversize
    fallback, counted by the caller).

    The master creates (``create=True``) and later :meth:`unlink`\\ s the
    segment; workers attach by name and merely :meth:`close`.
    """

    __slots__ = ("shm", "slot_bytes", "_created")

    def __init__(
        self,
        name: Optional[str] = None,
        slot_bytes: int = DEFAULT_SLOT_BYTES,
        create: bool = False,
    ) -> None:
        self.slot_bytes = slot_bytes
        self._created = create
        if create:
            self.shm = shared_memory.SharedMemory(
                create=True, size=4 * slot_bytes
            )
        else:
            if name is None:
                raise ValueError("attaching to a ring requires its name")
            self.shm = shared_memory.SharedMemory(name=name)
            if self.shm.size < 4 * slot_bytes:
                self.shm.close()
                raise FrameError(
                    f"ring {name!r} smaller than 4 x {slot_bytes} bytes"
                )

    @property
    def name(self) -> str:
        return self.shm.name

    def _slot(self, base: int, barrier: int) -> memoryview:
        start = (base + barrier % 2) * self.slot_bytes
        return memoryview(self.shm.buf)[start : start + self.slot_bytes]

    def fits(self, nbytes: int) -> bool:
        return nbytes <= self.slot_bytes

    def write_out(self, barrier: int, frame: memoryview) -> None:
        self._slot(0, barrier)[: len(frame)] = frame

    def read_out(self, barrier: int, nbytes: int) -> memoryview:
        return self._slot(0, barrier)[:nbytes]

    def write_in(self, barrier: int, frame: memoryview) -> None:
        self._slot(2, barrier)[: len(frame)] = frame

    def read_in(self, barrier: int, nbytes: int) -> memoryview:
        return self._slot(2, barrier)[:nbytes]

    def close(self) -> None:
        try:
            self.shm.close()
        except BufferError:
            # A zero-copy frame view is still alive (error/teardown
            # path). Dropping our handle without unmapping is fine — the
            # mapping goes away with the process, and the segment itself
            # is reclaimed by the master's unlink().
            pass

    def unlink(self) -> None:
        if self._created:
            self.shm.unlink()
