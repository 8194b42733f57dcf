"""One detector back-end behind a socket: the worker loop of every topology.

A :class:`DetectorInstance` runs one
:class:`~repro.serve.streaming.StreamingDetector` and serves one connected
socket speaking the :mod:`repro.serve.wire` frame protocol.  It is the only
worker loop of the serving layer; the front-end
(:class:`~repro.serve.partition.FlowPartitioner`) reaches it two ways:

* **local workers** are forked by the front-end, each handed one end of a
  ``socket.socketpair()`` (:func:`serve_socket`);
* **remote instances** listen on ``host:port`` and serve the first
  front-end that connects (:func:`run_instance`, the
  ``repro-clap serve-instance`` subcommand).

From the worker's side the protocol is:

* the front-end's first frame is ``CTRL hello``, answered by ``CTRL ready``
  (pid, operating threshold) or by ``CTRL failed`` when the model could not
  be loaded — the front-end sends it without waiting for the answer;
* ``BLCK`` frames carry a block's header columns only (no raw bytes: the
  worker never materialises a packet) and are unpacked once into a FIFO
  window of cached blocks (lockstep with the front-end's broadcast order,
  so a ``ROWS`` frame always finds its block cached).  Views and flow keys
  are built only for the rows a ``ROWS`` frame names — this worker's own
  share of the block;
* ``ROWS``/``PKTS`` frames carry each packet's routed stream clock, and the
  worker polls its flow table up to that clock before ingesting — a worker
  that owns a quiet subset of flows still expires idle/close-grace timers
  exactly when a single unpartitioned detector would have;
* every ``ROWS``/``PKTS`` frame and every ``poll``/``flush`` op is answered
  by exactly one ``EVNT`` frame, empty or not, carrying the events produced
  so far and the worker's metrics state.  The front-end counts unanswered
  frames to bound the work in flight per worker;
* ``close`` answers with one ``DONE`` frame carrying the final deterministic
  drain, the metrics snapshot and the flow-table occupancy (current, peak).

A scoring error is reported once as ``CTRL failed``; the worker then keeps
answering (with no events) so the front-end's barriers and ``close`` still
complete.  A malformed frame is a protocol fault: the worker drops the
connection, which the front-end sees as a lost worker.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import socket
import threading
import time
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.pipeline import Clap
from repro.netstack.columns import PacketColumns, unpack_block
from repro.netstack.flow import FlowTable
from repro.netstack.packet import Packet
from repro.serve.metrics import DropPolicy, StreamingMetrics
from repro.serve.streaming import FlushPolicy, StreamingDetector
from repro.serve.wire import (
    TAG_BLCK,
    TAG_CTRL,
    TAG_DONE,
    TAG_EVNT,
    TAG_PKTS,
    TAG_ROWS,
    WireError,
    WireTimeout,
    decode_block,
    decode_control,
    decode_rows,
    encode_answer,
    encode_control,
    iter_ndjson,
    recv_frame,
    send_frame,
)

#: Bound on waiting for the front-end to connect; a listening instance whose
#: front-end died before connecting exits instead of listening forever.
_ACCEPT_TIMEOUT = 60.0

#: Budget for completing one frame once its first byte arrived, and for
#: writing EVNT/DONE frames back.  An idle front-end is fine (reads retry);
#: a torn frame or a wedged reader is not.
_IO_DEADLINE = 30.0

#: How many capture blocks the front-end and every worker keep unpacked.  The
#: front-end broadcasts every block to every worker in the same order, so both
#: sides evict in lockstep and a ROWS slice always finds its block cached.
BLOCK_CACHE_DEPTH = 8


@dataclass(frozen=True)
class InstanceConfig:
    """Detector knobs one worker applies; validated at construction.

    Mirrors the :class:`~repro.serve.streaming.StreamingDetector`
    constructor.  A global ``max_flows`` budget is split evenly across the
    front-end's workers.
    """

    flush_policy: FlushPolicy = field(default_factory=FlushPolicy)
    threshold: float | None = None
    top_n: int = 1
    idle_timeout: float = 60.0
    close_grace: float = 1.0
    max_flows: int | None = None
    max_packets: int | None = None
    drop_policy: DropPolicy | None = None

    def __post_init__(self) -> None:
        # Fail in the caller, not asynchronously inside a worker.
        FlowTable(
            idle_timeout=self.idle_timeout,
            close_grace=self.close_grace,
            max_flows=self.max_flows,
            max_packets=self.max_packets,
        )


class DetectorInstance:
    """Serve one front-end connection with ``clap``.

    ``sock`` is an already-connected socket (a local worker's socketpair
    end); without it the instance listens on ``host:port`` (see
    :attr:`address`) and :meth:`serve` accepts one front-end.  ``clap=None``
    makes a worker that only reports :attr:`failure` and answers empty.
    """

    def __init__(
        self,
        clap: Clap | None,
        *,
        config: InstanceConfig | None = None,
        sock: socket.socket | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        block_cache: int = BLOCK_CACHE_DEPTH,
    ) -> None:
        self.config = config = config or InstanceConfig()
        self.metrics = StreamingMetrics(shard_count=1)
        self._detector: StreamingDetector | None = None
        #: Why this worker cannot score (reported to the front-end), if so.
        self.failure: str | None = "no model loaded" if clap is None else None
        if clap is not None:
            self._detector = StreamingDetector(
                clap,
                flush_policy=config.flush_policy,
                threshold=config.threshold,
                top_n=config.top_n,
                idle_timeout=config.idle_timeout,
                close_grace=config.close_grace,
                max_flows=config.max_flows,
                max_packets=config.max_packets,
                drop_policy=config.drop_policy,
                metrics=self.metrics,
            )
        self._blocks: "OrderedDict[int, PacketColumns]" = OrderedDict()
        self._block_cache = int(block_cache)
        self._clock = float("-inf")
        self._peak_occupancy = 0
        self._conn = sock
        self._closed = False
        self.teardown_errors: list[str] = []
        self._listener: socket.socket | None = None
        if sock is None:
            self._listener = socket.create_server((host, port))
            self.address: tuple[str, int] = self._listener.getsockname()[:2]

    # ------------------------------------------------------------------ serve
    def serve(self) -> None:
        """Serve the connection to completion, accepting it first if listening.

        The accept runs under a deadline (``_ACCEPT_TIMEOUT``), so an
        instance whose front-end died before connecting exits instead of
        listening forever.  A front-end that goes away ends the serve
        quietly; a malformed frame raises.  :meth:`close` runs on every exit
        path.
        """
        try:
            if self._conn is None:
                listener = self._listener
                if listener is None:
                    raise RuntimeError("serve() after close()")
                listener.settimeout(_ACCEPT_TIMEOUT)
                try:
                    self._conn, _ = listener.accept()
                except TimeoutError:
                    raise WireTimeout(
                        f"no front-end connected within {_ACCEPT_TIMEOUT}s"
                    ) from None
                finally:
                    listener.close()
                    self._listener = None
                self._conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._serve_connection(self._conn)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the front-end went away; it accounts the loss
        finally:
            self.close()

    def close(self) -> None:
        """Release the listener and connection (idempotent, never raises).

        Teardown in an ``except`` path cannot mask the original error;
        anything that goes wrong here is recorded on :attr:`teardown_errors`.
        """
        if self._closed:
            return
        self._closed = True
        for name in ("_listener", "_conn"):
            sock = getattr(self, name)
            if sock is None:
                continue
            try:
                sock.close()
            except OSError as error:  # pragma: no cover - close rarely fails
                self.teardown_errors.append(f"{name.strip('_')} close: {error}")
            setattr(self, name, None)

    def _serve_connection(self, conn: socket.socket) -> None:
        while True:
            try:
                frame = recv_frame(conn, time.monotonic() + _IO_DEADLINE)
            except WireTimeout as error:
                if not error.partial:
                    continue  # idle front-end between frames: keep serving
                raise
            if frame is None:
                return  # front-end gone without a close op: nobody to answer
            tag, payload = frame
            if tag == TAG_BLCK:
                block_id, packed = decode_block(payload)
                self._blocks[block_id] = unpack_block(packed)
                while len(self._blocks) > self._block_cache:
                    self._blocks.popitem(last=False)
                continue
            if tag == TAG_ROWS:
                block_id, indices, clocks = decode_rows(payload)
                columns = self._blocks.get(block_id)
                if columns is None:
                    raise WireError(f"ROWS frame for uncached block {block_id}")
                work = list(zip(columns.views(indices), clocks.tolist(), strict=True))
                self._answer(conn, lambda: self._ingest(work))
            elif tag == TAG_PKTS:
                work = [
                    (
                        Packet.from_bytes(
                            bytes.fromhex(record["data"]), timestamp=float(record["ts"])
                        ),
                        float(record["clock"]),
                    )
                    for record in iter_ndjson(payload)
                ]
                self._answer(conn, lambda: self._ingest(work))
            elif tag == TAG_CTRL:
                record = decode_control(payload)
                op = record["op"]
                if op == "hello":
                    if self.failure is None:
                        ready = {"op": "ready", "pid": os.getpid(),
                                 "threshold": self._detector.threshold}
                    else:
                        ready = {"op": "failed", "error": self.failure}
                    self._send(conn, TAG_CTRL, encode_control(ready))
                elif op == "poll":
                    now = float(record["now"])
                    self._answer(conn, lambda: self._advance(now))
                elif op == "flush":
                    self._answer(conn, lambda: self._detector.flush())
                elif op == "close":
                    self._finish(conn)
                    return
                elif op == "wedge":
                    self._wedge()
                    return
                else:
                    raise WireError(f"unknown control op {op!r}")
            else:
                raise WireError(f"unexpected frame tag {bytes(tag)!r} at instance")

    # ------------------------------------------------------------------- work
    def _ingest(self, work: list[tuple[Packet, float]]) -> None:
        detector = self._detector
        for packet, clock in work:
            self._advance(clock)
            detector.ingest(packet)
            if packet.timestamp > self._clock:
                self._clock = packet.timestamp

    def _advance(self, clock: float) -> None:
        """Poll flow-table timers up to the routed global stream clock."""
        if clock > self._clock:
            self._detector.poll(clock)
            self._clock = clock

    def _run(self, conn: socket.socket, work: Callable[[], object]) -> object:
        """Run scoring work unless failed; a failure is reported once."""
        if self.failure is not None:
            return None
        try:
            return work()
        except Exception as error:
            self.failure = f"{type(error).__name__}: {error}"
            self._send(conn, TAG_CTRL, encode_control({"op": "failed", "error": self.failure}))
            return None

    def _answer(self, conn: socket.socket, work: Callable[[], object]) -> None:
        """Run ``work`` and send its EVNT answer (also when it failed)."""
        flushed = self._run(conn, work)
        events = list(self._detector.events()) if self._detector is not None else []
        count = len(flushed) if isinstance(flushed, list) else 0
        self._send(conn, TAG_EVNT, encode_answer(self._state(), events, count))

    def _finish(self, conn: socket.socket) -> None:
        """The close op: the final drain, metrics and occupancy in one DONE."""
        final = self._run(conn, lambda: self._detector.close()) or []
        detector = self._detector
        self._send(
            conn,
            TAG_DONE,
            json.dumps(
                {
                    "events": [event.to_dict() for event in final],
                    "state": self._state(),
                    "metrics": self.metrics.snapshot([self._active_flows()]),
                    "peak_occupancy": self._peak_occupancy,
                    "connections_seen": detector.connections_seen if detector else 0,
                    "alerts_emitted": detector.alerts_emitted if detector else 0,
                }
            ).encode("utf-8"),
        )

    def _wedge(self) -> None:
        """Fault injection: stop reading the socket without dying, so the
        front-end's deadline (not a crash) must detect the stall.  Returns
        once the parent process is gone (or on SIGTERM)."""
        parent = multiprocessing.parent_process()
        while parent is None or parent.is_alive():
            time.sleep(0.2)

    def _active_flows(self) -> int:
        return self._detector.active_flows if self._detector is not None else 0

    def _state(self) -> dict[str, object]:
        active = self._active_flows()
        if active > self._peak_occupancy:
            self._peak_occupancy = active
        state = self.metrics.worker_state()
        state["active_flows"] = active
        state["pending"] = self._detector.pending_connections if self._detector else 0
        return state

    def _send(self, conn: socket.socket, tag: bytes, payload: bytes) -> None:
        send_frame(conn, tag, payload, deadline=time.monotonic() + _IO_DEADLINE)


def serve_socket(
    sock: socket.socket, load: Callable[[], Clap], config: InstanceConfig
) -> None:
    """Process entry of a local worker: load the model, serve ``sock``.

    A model that fails to load becomes a worker that reports the failure
    and answers empty, so the front-end's failure policy decides.
    """
    try:
        clap = load()
    except Exception as error:
        instance = DetectorInstance(None, config=config, sock=sock)
        instance.failure = f"{type(error).__name__}: {error}"
    else:
        instance = DetectorInstance(clap, config=config, sock=sock)
    try:
        instance.serve()
    except (OSError, ValueError):
        pass  # the front-end spoke garbage; it sees the loss as a closed socket


def run_instance(
    model_dir: str | Path,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    config: InstanceConfig | None = None,
    backend: str | None = None,
    ready=None,
) -> int:
    """Load a model and serve one front-end connection (process entry).

    ``ready``, when given, receives the bound ``(host, port)`` address once
    the listener exists.  Returns a process exit code so the CLI can call it
    directly.

    SIGTERM/SIGINT are translated into a graceful shutdown: the listener and
    connection close through :meth:`DetectorInstance.close` (via ``serve``'s
    finally) and the process exits ``128 + signum`` instead of printing a
    traceback.
    """

    def _graceful_exit(signum, _frame):
        raise SystemExit(128 + signum)

    if threading.current_thread() is threading.main_thread():
        # Embedded callers (tests driving run_instance from a worker thread)
        # own their signal handling; only a real process entry installs ours.
        signal.signal(signal.SIGTERM, _graceful_exit)
        signal.signal(signal.SIGINT, _graceful_exit)
    clap = Clap.load(model_dir, mmap_mode="r")
    if backend is not None:
        clap = clap.with_backend(backend)
    instance = DetectorInstance(clap, host=host, port=port, config=config)
    if ready is not None:
        ready.put(instance.address)
    instance.serve()
    return 0
