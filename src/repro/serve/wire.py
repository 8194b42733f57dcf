"""Length-prefixed socket frames: the one transport between front-end and workers.

The front-end (:class:`~repro.serve.partition.FlowPartitioner`, which
:class:`~repro.serve.runtime.ParallelStreamingDetector` runs over local
workers) and every :class:`~repro.serve.instance.DetectorInstance` speak a
small framed protocol over one connected socket per worker: one end of a
``socket.socketpair()`` for a forked local worker, a TCP connection for a
remote instance.  Every frame is::

    <4-byte tag> <u32 little-endian payload length> <payload>

Control, events and plain packets reuse the existing NDJSON text formats
(one JSON document, or one NDJSON line per record), so the payloads stay
debuggable with ``tcpdump``/``xxd`` and interoperable with the pipe-based
CLI.  Columnar data rides two binary frames built on
:meth:`~repro.netstack.columns.PacketColumns.pack_block`:

===========  ==============================================================
``CTRL``     One JSON object with an ``op``.  Worker to front-end: ``ready``
             (first frame: pid, threshold) or ``failed`` (the worker cannot
             score; it keeps answering).  Front-end to worker: ``poll``,
             ``flush``, ``close`` and the fault-injection ``wedge``.
``BLCK``     ``u64 block id`` + a packed column block, columns only (no
             raw-bytes backing: workers never materialise packets).  Sent
             once per capture block; workers cache a FIFO window of
             unpacked blocks.
``ROWS``     ``u64 block id, u32 count`` + ``int64[count]`` row indices +
             ``float64[count]`` per-row ingest clocks — the per-worker row
             slice of a broadcast block.
``PKTS``     NDJSON, one ``{"ts", "data", "clock"}`` line per object packet
             (the :class:`~repro.serve.sources.NDJSONSource` line format plus
             the routed stream clock).
``EVNT``     The answer to one ``ROWS``/``PKTS`` frame or ``poll``/``flush``
             op: a header line (the worker's metrics state and how many
             trailing events the flush produced), then one
             :meth:`DetectionEvent.to_dict` document per line.
``DONE``     One JSON object closing the stream: the final drain's events,
             the worker's metrics and flow-table occupancy.
===========  ==============================================================

Framing is symmetric: either side sends with :func:`send_frame` and receives
with :func:`recv_frame`.  A clean EOF between frames returns ``None``; a
truncated frame raises :class:`WireError`.  The front-end writes a frame's
:func:`frame_parts` itself, reading the worker's answers whenever the socket
is full, so a frame larger than the socket buffer never waits for the
worker to be drained and can never block both sides at once.

Both functions accept ``deadline`` — a **monotonic** absolute limit
(``time.monotonic() + budget``).  Past the deadline they raise
:class:`WireTimeout`, whose ``partial`` flag distinguishes an idle peer
(nothing read yet — the receiver may keep serving) from a slow-loris torn
frame (bytes arrived, then stalled mid-frame — a protocol fault).
"""

from __future__ import annotations

import json
import socket
import struct
import time

import numpy as np

from repro.serve.events import DetectionEvent, event_from_dict

FRAME_HEADER = struct.Struct("<4sI")

TAG_CTRL = b"CTRL"
TAG_BLCK = b"BLCK"
TAG_ROWS = b"ROWS"
TAG_PKTS = b"PKTS"
TAG_EVNT = b"EVNT"
TAG_DONE = b"DONE"

_TAGS = frozenset((TAG_CTRL, TAG_BLCK, TAG_ROWS, TAG_PKTS, TAG_EVNT, TAG_DONE))

#: Hard per-frame ceiling: a corrupted length field must not allocate the
#: machine away.  Generously above any packed capture block the runtime ships.
MAX_FRAME_BYTES = 1 << 31

_BLOCK_PREFIX = struct.Struct("<Q")
_ROWS_PREFIX = struct.Struct("<QI")


class WireError(ConnectionError):
    """A malformed or truncated frame on a partition socket."""


class WireTimeout(WireError):
    """A frame read/write exceeded its deadline.

    ``partial`` is True when bytes had already moved for the current frame
    (a torn frame / slow-loris peer) and False when the deadline expired
    between frames (an idle peer — often recoverable by the caller).
    """

    def __init__(self, message: str, *, partial: bool = False) -> None:
        super().__init__(message)
        self.partial = partial


def _arm(sock: socket.socket, limit: float | None, context: str, partial: bool) -> None:
    """Set the socket timeout to the time remaining before ``limit``."""
    if limit is None:
        sock.settimeout(None)
        return
    remaining = limit - time.monotonic()
    if remaining <= 0:
        raise WireTimeout(f"{context}: deadline exceeded", partial=partial)
    sock.settimeout(remaining)


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def frame_parts(tag: bytes, *chunks: bytes | memoryview) -> list[memoryview]:
    """The byte views one frame goes out as: its header, then each chunk."""
    total = sum(len(chunk) for chunk in chunks)
    if total > MAX_FRAME_BYTES:
        raise WireError(f"frame of {total} bytes exceeds MAX_FRAME_BYTES")
    views = [memoryview(chunk).cast("B") for chunk in chunks]
    header = memoryview(FRAME_HEADER.pack(tag, sum(len(view) for view in views)))
    return [header, *(view for view in views if len(view))]


def send_frame(
    sock: socket.socket,
    tag: bytes,
    *chunks: bytes | memoryview,
    deadline: float | None = None,
) -> None:
    """Send one frame; ``chunks`` are concatenated without copying.

    ``deadline`` is an absolute ``time.monotonic()`` limit for the whole
    frame; past it :class:`WireTimeout` is raised with ``partial=True`` if
    any bytes may already be on the wire.
    """
    parts = frame_parts(tag, *chunks)
    limit = None if deadline is None else deadline
    started = False
    try:
        for part in parts:
            _arm(sock, limit, "send_frame payload" if started else "send_frame header", started)
            sock.sendall(part)
            started = True
    except TimeoutError as error:
        raise WireTimeout(
            f"send of {bytes(tag)!r} frame timed out", partial=started
        ) from error
    finally:
        if limit is not None:
            sock.settimeout(None)


def _recv_exact(
    sock: socket.socket, count: int, limit: float | None = None, *, started: bool = False
) -> memoryview | None:
    """Read exactly ``count`` bytes; ``None`` on EOF at a frame boundary.

    ``limit`` is an absolute monotonic deadline; ``started`` seeds the
    torn-frame flag (True once any earlier bytes of this frame arrived).
    """
    buffer = bytearray(count)
    view = memoryview(buffer)
    received = 0
    while received < count:
        partial = started or received > 0
        _arm(sock, limit, f"recv ({received}/{count} bytes)", partial)
        try:
            read = sock.recv_into(view[received:])
        except TimeoutError as error:
            raise WireTimeout(
                f"recv timed out ({received}/{count} bytes)", partial=partial
            ) from error
        if read == 0:
            if received == 0:
                return None
            raise WireError(f"connection closed mid-frame ({received}/{count} bytes)")
        received += read
    return view


def recv_frame(
    sock: socket.socket, deadline: float | None = None
) -> tuple[bytes, memoryview] | None:
    """Receive one ``(tag, payload)`` frame; ``None`` on clean EOF.

    ``deadline`` is an absolute ``time.monotonic()`` limit for the whole
    frame.  A deadline that expires with zero bytes read raises
    :class:`WireTimeout` with ``partial=False`` (idle peer); once any byte
    of the frame has arrived the timeout is ``partial=True`` (torn frame).
    """
    try:
        header = _recv_exact(sock, FRAME_HEADER.size, deadline)
        if header is None:
            return None
        tag, length = FRAME_HEADER.unpack(header)
        if tag not in _TAGS:
            raise WireError(f"unknown frame tag {bytes(tag)!r}")
        if length > MAX_FRAME_BYTES:
            raise WireError(f"frame length {length} exceeds MAX_FRAME_BYTES")
        if length == 0:
            return tag, memoryview(b"")
        payload = _recv_exact(sock, length, deadline, started=True)
        if payload is None:
            raise WireError("connection closed before frame payload")
        return tag, payload
    finally:
        if deadline is not None:
            sock.settimeout(None)


# ---------------------------------------------------------------------------
# Payload codecs
# ---------------------------------------------------------------------------


def encode_control(record: dict[str, object]) -> bytes:
    return json.dumps(record).encode("utf-8")


def decode_control(payload: memoryview | bytes) -> dict[str, object]:
    record = json.loads(bytes(payload).decode("utf-8"))
    if not isinstance(record, dict) or "op" not in record:
        raise WireError(f"malformed control frame: {record!r}")
    return record


def encode_block(block_id: int, payload: bytes) -> tuple[bytes, bytes]:
    """``BLCK`` chunks: the id prefix and the packed block, uncopied."""
    return _BLOCK_PREFIX.pack(block_id), payload


def decode_block(payload: memoryview) -> tuple[int, memoryview]:
    if len(payload) < _BLOCK_PREFIX.size:
        raise WireError("truncated BLCK frame")
    (block_id,) = _BLOCK_PREFIX.unpack_from(payload, 0)
    return block_id, payload[_BLOCK_PREFIX.size :]


def encode_rows(
    block_id: int, indices: bytes, clocks: bytes
) -> tuple[bytes, bytes, bytes]:
    """``ROWS`` chunks for ``int64`` index / ``float64`` clock arrays."""
    count = len(indices) // 8
    if len(clocks) != count * 8:
        raise WireError("ROWS index/clock arrays disagree on row count")
    return _ROWS_PREFIX.pack(block_id, count), indices, clocks


def decode_rows(payload: memoryview) -> tuple[int, np.ndarray, np.ndarray]:
    if len(payload) < _ROWS_PREFIX.size:
        raise WireError("truncated ROWS frame")
    block_id, count = _ROWS_PREFIX.unpack_from(payload, 0)
    expected = _ROWS_PREFIX.size + count * 16
    if len(payload) != expected:
        raise WireError(f"ROWS frame of {len(payload)} bytes, expected {expected}")
    offset = _ROWS_PREFIX.size
    indices = np.frombuffer(payload, dtype=np.int64, count=count, offset=offset)
    clocks = np.frombuffer(
        payload, dtype=np.float64, count=count, offset=offset + count * 8
    )
    return block_id, indices, clocks


def encode_packets(records: list[tuple[float, str, float]]) -> bytes:
    """``PKTS`` payload from ``(timestamp, hex payload, clock)`` records."""
    lines = [
        json.dumps({"ts": timestamp, "data": data, "clock": clock})
        for timestamp, data, clock in records
    ]
    return ("\n".join(lines)).encode("utf-8")


def iter_ndjson(payload: memoryview | bytes):
    """Yield the parsed JSON documents of an NDJSON payload."""
    for line in bytes(payload).decode("utf-8").splitlines():
        line = line.strip()
        if line:
            yield json.loads(line)


def encode_events(events: list[DetectionEvent]) -> bytes:
    """``EVNT`` payload: one ``to_dict`` NDJSON line per event."""
    return ("\n".join(json.dumps(event.to_dict()) for event in events)).encode("utf-8")


def decode_events(payload: memoryview | bytes) -> list[DetectionEvent]:
    return [event_from_dict(record) for record in iter_ndjson(payload)]


def encode_answer(state: dict[str, object], events: list[DetectionEvent], flushed: int) -> bytes:
    """``EVNT`` answer payload: header line, then the events.

    The last ``flushed`` events are the ones a ``flush`` op produced.
    """
    header = json.dumps({"state": state, "flushed": flushed}).encode("utf-8")
    return header + b"\n" + encode_events(events) if events else header


def decode_answer(
    payload: memoryview | bytes,
) -> tuple[dict[str, object], list[DetectionEvent], int]:
    """``(state, events, flushed)`` of an ``EVNT`` answer."""
    header, _, body = bytes(payload).partition(b"\n")
    record = json.loads(header)
    if not isinstance(record, dict) or "state" not in record:
        raise WireError(f"malformed EVNT header: {record!r}")
    return record["state"], decode_events(body), int(record["flushed"])
