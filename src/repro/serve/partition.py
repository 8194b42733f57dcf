"""The one multi-worker front-end: hash flows once, fan blocks out over sockets.

:class:`FlowPartitioner` hashes each :class:`~repro.netstack.flow.FlowKey`
once and fans packets out to N workers, each a
:class:`~repro.serve.instance.DetectorInstance` running one
:class:`~repro.serve.streaming.StreamingDetector`.  It is the only
multi-worker transport of the serving layer; a worker is reached one of two
ways, and both speak the same :mod:`repro.serve.wire` frames:

* **local** (``instances=N``, and
  :class:`~repro.serve.runtime.ParallelStreamingDetector`'s process mode):
  the front-end creates a ``socket.socketpair()`` and forks a worker that
  serves the other end.  Construction returns right after the fork; the
  worker's ``ready`` record is the first frame it sends back.
* **remote** (``endpoints=[...]``): the front-end connects to instances
  started with ``repro-clap serve-instance`` on other hosts.

A capture block is routed once: on first sight the front-end hashes every
row's :class:`~repro.netstack.flow.FlowKey` in one vectorised pass and
broadcasts the block's header columns to every worker (``BLCK``, columns
only: workers never materialise packets, so the raw bytes stay behind);
blocks that left the FIFO window are re-broadcast.  Consecutive rows of the
block only extend a pending run, which is split into per-worker row slices
when a worker's buffer reaches the chunk target (the row at which
per-packet routing would have shipped it), at a block change, a poll, a
flush, a fault's due packet or a worker failure.  The slices ride ``ROWS``
frames with their routed stream clocks, so every worker's flow-table timers
fire exactly as one unpartitioned detector's would.  Rows are chunked under
an :class:`~repro.serve.metrics.AdaptiveChunker`.  Every data frame is
answered by one ``EVNT`` frame, and a worker never has more than
``queue_depth`` frames unanswered: the front-end waits for answers first,
which **is** the backpressure, and bounds the alert delay queued in front
of each worker.  A frame larger than the socket buffer is written while
reading that worker's answers, so neither side ever blocks the other and no
worker is drained before a send.  :meth:`close` merges every worker's final
drain into the deterministic ``(first_seen, key)`` order — on a
time-ordered capture the merged event stream matches a single detector's
scores within 1e-9 at any worker count (``tests/serve/test_partition.py``,
``tests/serve/test_process_runtime.py``, ``tools/stream_smoke.py``).

Fault tolerance
---------------
Every wait for a worker (an answer, a frame, ``DONE``, room to write) runs
under ``io_deadline``; a worker that dies, tears a frame, leaves frames
unanswered or neither reads nor answers past the deadline is lost, and
every loss goes through one policy, ``on_instance_failure``:

``fail``
    Record the loss, tear the whole fleet down (no leaked processes), and
    raise :class:`~repro.serve.supervise.InstanceFailure` (a
    ``ConnectionError``, so the CLI exits 2).  A worker that *reports* a
    scoring failure keeps answering; the failure is raised by every later
    call up to and including :meth:`close`.
``respawn``
    Local workers are forked again (bounded by ``max_respawns`` per worker)
    and remote endpoints reconnected under a deterministic
    :class:`~repro.serve.supervise.Backoff`; the live block window is
    re-shipped to the new incarnation and unsent buffered rows are
    requeued.  Packets in flight inside the dead incarnation are lost and
    attributed; with none in flight the stream is score-identical to an
    unfaulted run.  Budget exhaustion escalates to ``degrade``.
``degrade``
    The lost worker's hash slots are rehashed to the survivors, future
    flows on those slots carry ``DetectionResult.degraded=True``, typed
    :class:`~repro.serve.events.InstanceLost` /
    :class:`~repro.serve.events.DegradedMode` service events are emitted
    (drain with :meth:`service_events`), and :meth:`close` completes and
    returns the surviving events instead of raising.

The accounting identity ``packets_routed = packets_scored +
packets_lost_inflight`` holds exactly at :meth:`close` when no
:class:`~repro.serve.metrics.DropPolicy` is configured: any routed packet
the workers never scored (including silently dropped frames injected by a
:class:`~repro.serve.faults.FaultPlan`) is attributed to a loss record in
:meth:`degradation_report`.  Failures are deterministic to test: a
``FaultPlan`` kills/wedges workers at exact packet counts, refuses
connects, and drops/corrupts/delays exact frames.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import select
import signal
import socket
import time
from collections import OrderedDict, deque
from pathlib import Path
from collections.abc import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.core.pipeline import Clap
from repro.netstack.columns import ColumnPacketView, PacketColumns
from repro.netstack.flow import flow_key_of
from repro.netstack.packet import Packet
from repro.serve.events import (
    Alert,
    DegradedMode,
    DetectionEvent,
    InstanceLost,
    event_from_dict,
)
from repro.serve.faults import FaultPlan
from repro.serve.instance import BLOCK_CACHE_DEPTH, InstanceConfig, serve_socket
from repro.serve.metrics import AdaptiveChunker, StreamingMetrics
from repro.serve.sources import PacketSource, Tick
from repro.serve.streaming import AlertCallback, EventCallback
from repro.serve.supervise import (
    Backoff,
    DegradationReport,
    FailurePolicy,
    InstanceFailure,
    InstanceLossRecord,
)
from repro.serve.wire import (
    TAG_BLCK,
    TAG_CTRL,
    TAG_DONE,
    TAG_EVNT,
    TAG_PKTS,
    TAG_ROWS,
    WireError,
    WireTimeout,
    decode_answer,
    decode_control,
    encode_block,
    encode_control,
    encode_packets,
    encode_rows,
    frame_parts,
    recv_frame,
    send_frame,
)

_HANDSHAKE_TIMEOUT = 60.0

#: Slice of one wait for an answer; a wait longer than this counts as
#: backpressure for the adaptive chunker.
_WAIT_SLICE = 0.2


def event_order(event: DetectionEvent) -> tuple[float, str]:
    """Deterministic event ordering: stream arrival, then connection key."""
    return (event.first_seen, str(event.result.key))


def run_source(detector, source: PacketSource, teardown_errors: list[str]) -> list[DetectionEvent]:
    """Consume ``source`` into ``detector`` to exhaustion, then close it.

    :class:`~repro.serve.sources.Tick` items become ``poll`` calls.  If the
    source (or a worker) raises mid-stream, the detector is closed before
    the error propagates, and a failure met during that close is recorded
    on ``teardown_errors`` instead of masking the original error.
    """
    try:
        for item in source:
            if isinstance(item, Tick):
                detector.poll(item.now)
            else:
                detector.ingest(item)
    except BaseException:
        try:
            detector.close()
        except Exception as teardown_error:
            teardown_errors.append(f"close during error teardown: {teardown_error!r}")
        raise
    return detector.close()


def _local_main(
    frontend: "FlowPartitioner", parent_end: socket.socket, sock: socket.socket
) -> None:
    """Entry point of one forked local worker."""
    # The fork copied the front-end's end of this and every earlier worker's
    # socket; holding them would keep those workers (this one included) from
    # ever seeing the front-end go away.
    parent_end.close()
    for instance in frontend._instances:
        if instance.sock is not None:
            instance.sock.close()
    serve_socket(sock, frontend._load_model, frontend.config)


def _parse_endpoint(endpoint: str | tuple[str, int]) -> tuple[str, int]:
    if isinstance(endpoint, tuple):
        return endpoint[0], int(endpoint[1])
    host, _, port = endpoint.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"endpoint must be 'host:port', got {endpoint!r}")
    return host, int(port)


class _InstanceDown(Exception):
    """Internal signal: one worker's connection just failed.

    Carries the failed worker, the underlying error and any packets whose
    ship was interrupted (``requeue``), so the failure handler can re-home
    them under the active policy.
    """

    def __init__(self, instance: "_Instance", error: BaseException, requeue=()) -> None:
        super().__init__(str(error))
        self.instance = instance
        self.error = error
        self.requeue = list(requeue)


class _Instance:
    """Front-end handle of one worker: socket, row buffer, answer accounting."""

    def __init__(self, index: int, endpoint: tuple[str, int] | None = None) -> None:
        self.index = index
        self.endpoint = endpoint
        self.sock: socket.socket | None = None
        self.process = None
        #: Rows routed here and not yet shipped, in routing order: entries
        #: ``(columns, rows, clocks)`` of one block, or ``(None, packets,
        #: clocks)`` for object packets; ``buffered`` counts their rows.
        self.buffer: list[tuple[PacketColumns | None, object, object]] = []
        self.buffered = 0
        self.ready: dict[str, object] | None = None
        self.report: dict[str, object] | None = None
        self.state: dict[str, object] = {}
        self.lost = False
        self.respawns = 0
        #: Frames sent that still await their EVNT answer.
        self.in_flight = 0
        #: Events the last ``flush`` op produced on this worker.
        self.flushed: list[DetectionEvent] = []
        # Per-incarnation accounting: packets shipped to this incarnation
        # and packets covered by the events it reported back.  The delta at
        # loss time is the incarnation's in-flight loss.
        self.routed = 0
        self.scored = 0


def _enqueue(instance: _Instance, packet: Packet, clock: float) -> None:
    """Buffer one packet on ``instance`` as a one-row entry."""
    if type(packet) is ColumnPacketView:
        rows = np.array([packet.index], dtype=np.int64)
        instance.buffer.append((packet.columns, rows, np.array([clock], dtype=np.float64)))
    else:
        instance.buffer.append((None, [packet], [clock]))
    instance.buffered += 1


def _pairs(entries: Iterable[tuple]) -> list[tuple[Packet, float]]:
    """Expand buffer entries back into ``(packet, clock)`` pairs."""
    pairs: list[tuple[Packet, float]] = []
    for columns, rows, clocks in entries:
        if columns is None:
            pairs.extend(zip(rows, clocks, strict=True))
        else:
            pairs.extend(zip(columns.views(rows), clocks.tolist(), strict=True))
    return pairs


def _send_available(sock: socket.socket, parts: deque) -> bool:
    """Send from ``parts`` until the socket is full; True if anything went."""
    progressed = False
    sock.setblocking(False)
    try:
        while parts:
            sent = sock.send(parts[0])
            progressed = True
            if sent == len(parts[0]):
                parts.popleft()
            else:
                parts[0] = parts[0][sent:]
    except BlockingIOError:
        pass
    finally:
        sock.setblocking(True)
    return progressed


class FlowPartitioner:
    """Hash flows once, fan packet blocks out to N detector workers.

    Exactly one of ``instances`` (fork that many local workers serving
    ``model_dir``) or ``endpoints`` (connect to already-running instances,
    e.g. started with ``repro-clap serve-instance`` on other hosts) must be
    provided.  ``model_dir`` is the artifact the local workers load
    read-only (mmap); a fitted :class:`~repro.core.pipeline.Clap` given
    instead is inherited by the forked workers as it is.  The front-end
    itself never scores — it only hashes, chunks and forwards.

    The ingest surface: :meth:`ingest` / :meth:`ingest_many` / :meth:`poll`
    / :meth:`run`, interim events through :meth:`events` / ``on_event`` /
    ``on_alert``, a :meth:`flush` barrier, and a :meth:`close` that returns
    the merged final drain in deterministic ``(first_seen, key)`` order.
    ``config`` holds each worker's detector knobs; a global
    ``config.max_flows`` budget is split evenly across the workers.

    ``on_instance_failure`` selects the failure policy (see the module
    docstring), ``io_deadline`` bounds every wait on a worker (0 or
    ``None`` disables), ``max_respawns`` budgets restarts per worker, and
    ``fault_plan`` injects deterministic faults for testing.
    """

    #: What one worker is called in loss records, fault specs and process
    #: names (``clap-instance-N``).
    _kind = "instance"
    _process_prefix = "clap-instance"
    #: Frames a worker may have unanswered before the front-end waits.
    _queue_depth = 8

    def __init__(
        self,
        model_dir: str | Path | Clap | None = None,
        *,
        instances: int | None = None,
        endpoints: Sequence[str | tuple[str, int]] | None = None,
        config: InstanceConfig | None = None,
        backend: str | None = None,
        chunk_size: int | str | AdaptiveChunker = "adaptive",
        on_event: EventCallback | None = None,
        on_alert: AlertCallback | None = None,
        metrics: StreamingMetrics | None = None,
        on_instance_failure: str = "fail",
        max_respawns: int = 2,
        io_deadline: float | None = 30.0,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if (instances is None) == (endpoints is None):
            raise ValueError("provide exactly one of instances= or endpoints=")
        if instances is not None and instances < 1:
            raise ValueError(f"instances must be at least 1, got {instances}")
        if instances is not None and model_dir is None:
            raise ValueError("local instances need a model_dir to serve")
        if on_instance_failure not in FailurePolicy:
            raise ValueError(
                f"on_instance_failure must be one of {FailurePolicy}, "
                f"got {on_instance_failure!r}"
            )
        if max_respawns < 0:
            raise ValueError(f"max_respawns must be non-negative, got {max_respawns}")
        if isinstance(chunk_size, AdaptiveChunker):
            self._chunker: AdaptiveChunker | None = chunk_size
            self._fixed_chunk = 0
        elif chunk_size == "adaptive":
            self._chunker = AdaptiveChunker()
            self._fixed_chunk = 0
        elif isinstance(chunk_size, str):
            raise ValueError(
                f"chunk_size must be an integer or 'adaptive', got {chunk_size!r}"
            )
        else:
            if chunk_size < 1:
                raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
            self._chunker = None
            self._fixed_chunk = int(chunk_size)
        self.instances = instances if instances is not None else len(endpoints)
        config = config or InstanceConfig()
        if config.max_flows is not None:
            # Split the global flow budget evenly across the workers.
            config = dataclasses.replace(
                config, max_flows=-(-config.max_flows // self.instances)
            )
        self.config = config
        self._model = model_dir
        self._backend = backend
        self.on_event = on_event
        self.on_alert = on_alert
        self.on_instance_failure = on_instance_failure
        self.max_respawns = int(max_respawns)
        self.io_deadline = None if not io_deadline else float(io_deadline)
        self._fault_plan = fault_plan
        self._backoff = Backoff()
        self._closed = False
        self._failed = False
        #: ``(index, reason)`` of a failure a worker reported under ``fail``.
        self._failure: tuple[int, str] | None = None
        self._clock = float("-inf")
        self._events: deque[DetectionEvent] = deque()
        self._service_events: deque = deque()
        self._connections_seen = 0
        self._alerts_emitted = 0
        #: The workers' FIFO block window: block id -> (block, each row's
        #: hash slot).
        self._live_blocks: "OrderedDict[int, tuple[PacketColumns, np.ndarray]]" = OrderedDict()
        # The block being routed and its pending run [run_start, run_stop)
        # of consecutive rows that ingest() took but has not yet split
        # among the workers; the run closes when run_stop reaches run_limit.
        self._block: PacketColumns | None = None
        self._slots: np.ndarray | None = None
        self._run_start = self._run_stop = self._run_limit = 0
        # Degradation state: loss records, rehashed slots, cumulative
        # identity counters (never reset across respawn incarnations).
        self._losses: list[InstanceLossRecord] = []
        self._degraded_slots: set[int] = set()
        self._teardown_errors: list[str] = []
        self._respawns = 0
        self._degraded_flows = 0
        self._routed_total = 0
        self._scored_total = 0
        self._route = list(range(self.instances))
        self.metrics = metrics or StreamingMetrics(shard_count=self.instances)
        if self._chunker is not None:
            self.metrics.attach_chunker(self._chunker)
        # Fork, not spawn: construction returns without waiting for a fresh
        # interpreter to import the model stack, and a forked worker can
        # inherit an in-memory model.
        self._context = None
        if instances is not None:
            if "fork" not in multiprocessing.get_all_start_methods():
                raise RuntimeError(
                    f"local {self._kind} workers need the 'fork' start method, "
                    "which this platform lacks; connect to serve-instance "
                    "endpoints instead"
                )
            self._context = multiprocessing.get_context("fork")
        self._instances: list[_Instance] = []
        try:
            for index in range(self.instances):
                endpoint = None if endpoints is None else _parse_endpoint(endpoints[index])
                instance = _Instance(index, endpoint)
                self._instances.append(instance)
                try:
                    self._connect(instance, retry=on_instance_failure == "respawn")
                except OSError as error:
                    if on_instance_failure != "degrade":
                        raise
                    self._record_loss(instance, f"startup connect failed: {error}", "degrade")
                    instance.lost = True
            for instance in self._instances:
                if instance.lost:
                    self._apply_degrade(instance)
        except BaseException:
            # Never leak a partial fleet: workers that did start before the
            # failing one are torn down here.
            self._teardown()
            raise

    # ----------------------------------------------------------------- set-up
    def _load_model(self) -> Clap:
        """The model a local worker serves (called in the forked worker)."""
        if isinstance(self._model, Clap):
            return self._model
        clap = Clap.load(self._model, mmap_mode="r")
        return clap if self._backend is None else clap.with_backend(self._backend)

    def _connect(self, instance: _Instance, *, retry: bool) -> None:
        """Fork (local) or connect (remote) one incarnation, then say hello.

        Injected connection refusals apply to both; ``retry`` retries under
        the deterministic backoff.  The hello's ``ready`` answer is read
        later, with the first answer, so this never waits on the worker.
        """

        def attempt(_try_number: int) -> None:
            if self._fault_plan is not None and self._fault_plan.connect_attempt(instance.index):
                raise ConnectionRefusedError(
                    f"injected connection refusal for {self._kind} {instance.index}"
                )
            if instance.endpoint is None:
                sock, child = socket.socketpair()
                suffix = f"r{instance.respawns}" if instance.respawns else ""
                process = self._context.Process(
                    target=_local_main,
                    args=(self, sock, child),
                    name=f"{self._process_prefix}-{instance.index}{suffix}",
                    daemon=True,
                )
                try:
                    process.start()
                finally:
                    child.close()
                instance.process = process
            else:
                sock = socket.create_connection(
                    instance.endpoint, timeout=self.io_deadline or _HANDSHAKE_TIMEOUT
                )
                sock.settimeout(None)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            instance.sock = sock
            try:
                send_frame(sock, TAG_CTRL, encode_control({"op": "hello"}),
                           deadline=time.monotonic() + _HANDSHAKE_TIMEOUT)
            except OSError:
                self._close_instance(instance)
                raise

        if retry:
            self._backoff.run(attempt, retry_on=(OSError,))
        else:
            attempt(0)

    # ------------------------------------------------------- failure handling
    def _error(self, index: int, reason: str) -> Exception:
        """The exception a lost or failed worker raises under ``fail``."""
        return InstanceFailure(f"instance {index} lost ({reason})", index=index)

    def _raise_failure(self) -> None:
        """Raise a failure a worker reported under the ``fail`` policy."""
        if self._failure is not None:
            raise self._error(*self._failure)

    def _record_loss(self, instance: _Instance, reason: str, policy: str) -> None:
        record = InstanceLossRecord(
            index=instance.index,
            kind=self._kind,
            reason=reason,
            policy=policy,
            packets_routed=instance.routed,
            packets_scored=instance.scored,
        )
        self._losses.append(record)
        self.metrics.record_instance_lost(record.packets_lost_inflight)
        self._service_events.append(
            InstanceLost(
                index=instance.index,
                kind=self._kind,
                reason=reason,
                policy=policy,
                packets_lost_inflight=record.packets_lost_inflight,
            )
        )

    def _close_instance(self, instance: _Instance) -> None:
        """Close one worker's socket and reap its process (idempotent)."""
        if instance.sock is not None:
            try:
                instance.sock.close()
            except OSError as error:  # pragma: no cover - close rarely fails
                self._teardown_errors.append(f"{self._kind} {instance.index} socket close: {error}")
            instance.sock = None
        process, instance.process = instance.process, None
        if process is None:
            return
        # A worker whose socket closed exits on its own; escalate otherwise.
        for stop, timeout in ((None, 1.0), (process.terminate, 5.0), (process.kill, 5.0)):
            if stop is not None:
                stop()
            process.join(timeout=timeout)
            if not process.is_alive():
                return

    def _rehome(self, pending: list[tuple[Packet, float]]) -> None:
        """Requeue unsent packets onto their (possibly rerouted) owners."""
        for packet, clock in pending:
            slot = hash(flow_key_of(packet)) % self.instances
            target = self._instances[self._route[slot]]
            if not target.lost:
                _enqueue(target, packet, clock)

    def _apply_degrade(self, instance: _Instance) -> None:
        """Rehash ``instance``'s slots to the survivors; emit DegradedMode."""
        instance.lost = True
        survivors = [i.index for i in self._instances if not i.lost]
        if not survivors:
            self._failed = True
            raise self._error(instance.index, f"every {self._kind} has been lost")
        for slot in range(self.instances):
            if self._route[slot] == instance.index:
                self._route[slot] = survivors[slot % len(survivors)]
                self._degraded_slots.add(slot)
        self._service_events.append(
            DegradedMode(
                survivors=tuple(survivors),
                lost=tuple(i.index for i in self._instances if i.lost),
            )
        )

    def _on_down(
        self,
        instance: _Instance,
        error: BaseException,
        requeue=(),
        closing: bool = False,
    ) -> None:
        """One worker's connection failed: apply the failure policy."""
        # The pending run is split among the workers by the route in force
        # when it closes, i.e. after this failure's rehash.
        self._interrupt_run()
        pending = list(requeue)
        pending.extend(_pairs(instance.buffer))
        instance.buffer = []
        instance.buffered = 0
        if instance.lost:
            # Already handled (e.g. block broadcast and row ship both hit the
            # same dead peer); just re-home whatever was still uncovered.
            self._rehome(pending)
            return
        reason = f"{type(error).__name__}: {error}" if str(error) else type(error).__name__
        self._close_instance(instance)
        instance.in_flight = 0
        instance.state = {}
        policy = self.on_instance_failure
        if policy == "respawn" and closing:
            # The stream is over; a fresh incarnation has no state to drain.
            policy = "degrade"
        if policy == "respawn":
            if instance.respawns >= self.max_respawns:
                reason = f"{reason}; respawn budget ({self.max_respawns}) exhausted"
                policy = "degrade"
            else:
                self._record_loss(instance, reason, "respawn")
                try:
                    self._respawn(instance, pending)
                    return
                except (OSError, RuntimeError) as respawn_error:
                    reason = f"{reason}; respawn failed: {respawn_error}"
                    policy = "degrade"
        if policy == "fail":
            self._record_loss(instance, reason, "fail")
            instance.lost = True
            self._failed = True
            self._teardown()
            raise self._error(instance.index, reason) from error
        self._record_loss(instance, reason, "degrade")
        if closing:
            instance.lost = True
            return
        self._apply_degrade(instance)
        self._rehome(pending)

    def _respawn(self, instance: _Instance, pending: list[tuple[Packet, float]]) -> None:
        """Start a fresh incarnation of ``instance`` and re-register state."""
        instance.respawns += 1
        self._connect(instance, retry=True)
        # Fresh incarnation: reset the per-incarnation accounting (the old
        # incarnation's counters were captured in its loss record).
        instance.routed = 0
        instance.scored = 0
        instance.report = None
        # State re-registration: the live block window must reach the new
        # incarnation before any requeued ROWS slice references it.
        for block_id, (columns, _slots) in self._live_blocks.items():
            send_frame(
                instance.sock,
                TAG_BLCK,
                *encode_block(block_id, columns.pack_block(backing="none")),
                deadline=time.monotonic() + (self.io_deadline or _HANDSHAKE_TIMEOUT),
            )
        for packet, clock in pending:
            _enqueue(instance, packet, clock)
        self._respawns += 1
        self.metrics.record_respawn()

    def _apply_faults(self, count: int) -> None:
        """Fire the kill/wedge faults due at the current packet count."""
        for kind, index in self._fault_plan.packet_routed(count):
            instance = self._instances[index % self.instances]
            if instance.lost:
                continue
            if kind == f"kill-{self._kind}":
                if instance.process is not None and instance.process.is_alive():
                    os.kill(instance.process.pid, signal.SIGKILL)
            elif kind == f"wedge-{self._kind}":
                try:
                    send_frame(
                        instance.sock,
                        TAG_CTRL,
                        encode_control({"op": "wedge"}),
                        deadline=time.monotonic() + (self.io_deadline or _HANDSHAKE_TIMEOUT),
                    )
                except OSError as error:
                    self._on_down(instance, error)

    # -------------------------------------------------------------- ingestion
    def ingest(self, packet: Packet) -> None:
        """Route one packet to the worker owning its flow (may block).

        The next row of the block being routed only extends the pending
        run; rows still ship no earlier than their own ``ingest`` call.
        """
        if (
            type(packet) is ColumnPacketView
            and packet.columns is self._block
            and packet.index == self._run_stop < self._run_limit
        ):
            self._run_stop += 1
            if self._run_stop == self._run_limit:
                self._close_run()
            return
        if self._closed:
            raise RuntimeError("ingest() after close()")
        if self._failure is not None:
            self._raise_failure()
        self._close_run()
        if type(packet) is ColumnPacketView:
            if packet.columns is not self._block:
                self._enter_block(packet.columns)
            self._open_run(packet.index)
            self._run_stop += 1
            if self._run_stop == self._run_limit:
                self._close_run()
            return
        instance = self._instances[self._route[hash(flow_key_of(packet)) % self.instances]]
        _enqueue(instance, packet, self._clock)
        if packet.timestamp > self._clock:
            self._clock = packet.timestamp
        if self._fault_plan is not None:
            self._apply_faults(1)
        if instance.buffered >= self._chunk_target():
            self._guarded_submit(instance)

    def _enter_block(self, columns: PacketColumns) -> None:
        """Start routing a capture block, broadcasting it on first sight."""
        # Ship buffered rows first, so queued slices always precede the
        # broadcast that may evict their block from the workers' FIFO caches.
        for instance in self._instances:
            self._guarded_submit(instance)
        self._ship_block(columns)
        self._block = columns
        self._slots = self._live_blocks[id(columns)][1]

    def _owners(self, start: int, stop: int) -> np.ndarray:
        """The worker owning each row ``start..stop-1`` of the current block."""
        return np.asarray(self._route, dtype=np.int64)[self._slots[start:stop]]

    def _open_run(self, start: int) -> None:
        """Open a run at row ``start`` of the current block and fix its end.

        The run closes at the first row that fills some worker's buffer to
        the chunk target, at the fault plan's next due packet, or at the end
        of the block, whichever comes first.
        """
        limit = len(self._block)
        if self._fault_plan is not None:
            due = self._fault_plan.packets_until_due()
            if due is not None:
                limit = min(limit, start + max(due, 1))
        target = self._chunk_target()
        needs = {
            instance.index: max(target - instance.buffered, 1)
            for instance in self._instances
            if not instance.lost
        }
        # Some worker's need is met within sum(needs) rows.
        owners = self._owners(start, min(limit, start + sum(needs.values())))
        for index, need in needs.items():
            hits = np.flatnonzero(owners == index)
            if hits.size >= need:
                limit = min(limit, start + int(hits[need - 1]) + 1)
        self._run_start = self._run_stop = start
        self._run_limit = limit

    def _interrupt_run(self) -> None:
        """Make the next ``ingest`` close the pending run first."""
        self._run_limit = self._run_stop

    def _stage_run(self) -> int:
        """Split the pending run into its workers' buffers; returns its length.

        Each row carries the stream clock before it: a running maximum of
        the run's timestamps, seeded with the clock the run started at.
        """
        start, stop = self._run_start, self._run_stop
        self._run_start = self._run_limit = stop
        count = stop - start
        if not count:
            return 0
        columns = self._block
        clocks = np.fmax.accumulate(
            np.concatenate(([self._clock], columns.timestamp[start:stop]))
        )
        self._clock = float(clocks[-1])
        clocks = clocks[:-1]
        rows = np.arange(start, stop, dtype=np.int64)
        owners = self._owners(start, stop)
        for instance in self._instances:
            mine = owners == instance.index
            taken = int(np.count_nonzero(mine))
            if taken == count:
                instance.buffer.append((columns, rows, clocks))
            elif taken:
                instance.buffer.append((columns, rows[mine], clocks[mine]))
            instance.buffered += taken
        return count

    def _close_run(self, ship: bool = True) -> None:
        """Stage the pending run and fire the faults due at its last packet;
        with ``ship``, then ship every buffer it filled to the chunk target."""
        count = self._stage_run()
        if not count:
            return
        if self._fault_plan is not None:
            self._apply_faults(count)
        if ship:
            target = self._chunk_target()
            for instance in self._instances:
                if instance.buffered >= target:
                    self._guarded_submit(instance)

    def ingest_many(self, packets: Iterable[Packet]) -> None:
        for packet in packets:
            self.ingest(packet)

    def poll(self, now: float | None = None) -> None:
        """Advance stream time on every worker without a packet."""
        if self._closed:
            return
        self._raise_failure()
        self._close_run()
        now = self._clock if now is None else float(now)
        if now == float("-inf"):
            return
        if now > self._clock:
            self._clock = now
        self._broadcast({"op": "poll", "now": now})

    def run(self, source: PacketSource) -> list[DetectionEvent]:
        """Consume a packet source to exhaustion, then :meth:`close`."""
        return run_source(self, source, self._teardown_errors)

    def flush(self) -> list[DetectionEvent]:
        """Score everything buffered on every worker (barrier).

        The flushed events are dispatched (queued for :meth:`events`, pushed
        to the callbacks) as they arrive, like a single
        :class:`StreamingDetector`'s; the full list is also returned, in
        deterministic order.
        """
        if self._closed:
            return []
        self._raise_failure()
        self._close_run()
        self._broadcast({"op": "flush"})
        flushed: list[DetectionEvent] = []
        for instance in self._instances:
            if not instance.lost:
                self._settle(instance, lambda i=instance: i.in_flight == 0)
            flushed.extend(instance.flushed)
            instance.flushed = []
        self._raise_failure()
        return sorted(flushed, key=event_order)

    def _broadcast(self, record: dict[str, object]) -> None:
        """Ship every buffer, then one answered control op to every worker."""
        payload = encode_control(record)
        for instance in self._instances:
            if instance.lost:
                continue
            try:
                self._submit(instance)
                self._send(instance, TAG_CTRL, payload, answered=True)
            except _InstanceDown as down:
                self._on_down(down.instance, down.error, requeue=down.requeue)

    # -------------------------------------------------------------- transport
    def _chunk_target(self) -> int:
        return self._fixed_chunk if self._chunker is None else self._chunker.size

    def _send(self, instance: _Instance, tag: bytes, *chunks, answered: bool = False) -> None:
        """One frame to one worker, within the bound on unanswered frames."""
        self._pump()
        if instance.lost or instance.sock is None:
            raise _InstanceDown(
                instance, ConnectionError(f"{self._kind} {instance.index} is lost")
            )
        if answered:
            self._wait(instance, lambda: instance.in_flight < self._queue_depth)
        if self._fault_plan is not None:
            action = self._fault_plan.frame_fault(tag.decode("ascii"))
            if action == "drop":
                return
            if action == "corrupt":
                chunks = (self._fault_plan.corrupt(b"".join(bytes(c) for c in chunks)),)
            elif isinstance(action, tuple) and action[0] == "delay":
                time.sleep(action[1])
        self._write(instance, tag, chunks)
        if answered:
            instance.in_flight += 1
            self.metrics.record_queue_depth(instance.in_flight)
        if self._chunker is not None:
            self._chunker.record_submit()

    def _wait(self, instance: _Instance, done: Callable[[], bool]) -> None:
        """Read ``instance``'s answers until ``done()``.

        A worker that leaves its frames unanswered past ``io_deadline`` is
        wedged; one whose connection closes has died.  Either raises
        :class:`_InstanceDown`.  A wait longer than one slice is reported to
        the chunker as backpressure.
        """
        started = time.monotonic()
        backpressure = False
        while not done():
            readable, _, _ = select.select([instance.sock], (), (), _WAIT_SLICE)
            if readable:
                self._read(instance)
                continue
            if not backpressure and self._chunker is not None:
                self._chunker.record_backpressure()
            backpressure = True
            if self.io_deadline and time.monotonic() - started > self.io_deadline:
                raise _InstanceDown(instance, self._wedged(instance))

    def _write(self, instance: _Instance, tag: bytes, chunks) -> None:
        """Write one frame, reading ``instance``'s answers while its socket is full.

        A worker blocked writing answers reads nothing, so a frame larger
        than the socket buffer only gets through because the front-end
        reads while it writes; no worker has to be drained first.  A worker
        that neither reads nor answers for ``io_deadline`` is wedged.
        """
        sock = instance.sock
        backpressure = False
        try:
            parts = deque(frame_parts(tag, *chunks))
            quiet_since = None
            while True:
                progressed = _send_available(sock, parts)
                if not parts:
                    return
                now = time.monotonic()
                if progressed or quiet_since is None:
                    quiet_since = now
                elif self.io_deadline and now - quiet_since > self.io_deadline:
                    raise _InstanceDown(instance, self._wedged(instance))
                readable, writable, _ = select.select([sock], [sock], (), _WAIT_SLICE)
                if readable:
                    self._read(instance)
                    quiet_since = time.monotonic()
                elif not writable and not backpressure and self._chunker is not None:
                    self._chunker.record_backpressure()
                    backpressure = True
        except OSError as error:
            raise _InstanceDown(instance, self._died(instance, error)) from None

    def _wedged(self, instance: _Instance) -> WireTimeout:
        return WireTimeout(
            f"{self._kind} {instance.index} wedged: no answer for {self.io_deadline:.1f}s"
        )

    def _settle(self, instance: _Instance, done: Callable[[], bool], closing: bool = False) -> None:
        """:meth:`_wait`, with a loss handed to the failure policy."""
        try:
            self._wait(instance, done)
        except _InstanceDown as down:
            self._on_down(instance, down.error, closing=closing)

    def _guarded_submit(self, instance: _Instance) -> None:
        try:
            self._submit(instance)
        except _InstanceDown as down:
            self._on_down(down.instance, down.error, requeue=down.requeue)

    def _submit(self, instance: _Instance) -> None:
        """Ship one worker's buffered rows as ROWS/PKTS frames (in order)."""
        entries = instance.buffer
        if not entries or instance.lost:
            return
        instance.buffer = []
        instance.buffered = 0
        # Consecutive entries of one block (or of object packets) make one
        # frame.  Grouping first lets a mid-chunk socket failure requeue
        # exactly the entries no sent frame covered.
        frames: list[list[tuple]] = []
        for entry in entries:
            if frames and frames[-1][0][0] is entry[0]:
                frames[-1].append(entry)
            else:
                frames.append([entry])
        shipped = 0
        sent_frames = 0
        try:
            for group in frames:
                columns = group[0][0]
                if columns is None:
                    records = [
                        (packet.timestamp, packet.to_bytes().hex(), clock)
                        for _, packets, clocks in group
                        for packet, clock in zip(packets, clocks, strict=True)
                    ]
                    self._send(instance, TAG_PKTS, encode_packets(records), answered=True)
                    count = len(records)
                else:
                    if id(columns) not in self._live_blocks:
                        # The block left the FIFO window (or was buffered
                        # before first sight); re-broadcast to every worker.
                        self._ship_block(columns)
                    rows = np.concatenate([entry[1] for entry in group])
                    clocks = np.concatenate([entry[2] for entry in group])
                    self._send(
                        instance,
                        TAG_ROWS,
                        *encode_rows(id(columns), rows.tobytes(), clocks.tobytes()),
                        answered=True,
                    )
                    count = len(rows)
                sent_frames += 1
                shipped += count
                instance.routed += count
                self._routed_total += count
        except _InstanceDown as down:
            down.requeue.extend(
                _pairs(entry for group in frames[sent_frames:] for entry in group)
            )
            raise
        finally:
            if shipped:
                self.metrics.record_ingest(instance.index, shipped)

    def _ship_block(self, columns: PacketColumns) -> None:
        """Broadcast one capture block's columns to every live worker.

        First sight only; the block's rows are hashed to their slots here,
        once.  Eviction is strictly FIFO by ship order, never refreshed on
        re-sight: the workers evict their unpacked caches in broadcast
        arrival order, and only identical FIFO windows on both sides keep a
        queued row slice guaranteed to find its block cached.
        """
        block_id = id(columns)
        if block_id in self._live_blocks:
            return
        payload = columns.pack_block(backing="none")
        chunks = encode_block(block_id, payload)
        downs: list[_InstanceDown] = []
        for instance in self._instances:
            if instance.lost:
                continue
            try:
                self._send(instance, TAG_BLCK, *chunks)
            except _InstanceDown as down:
                downs.append(down)
        self.metrics.record_shm_segment(len(payload), len(self._live_blocks) + 1)
        keys = columns.flow_keys()
        slots = np.fromiter(map(hash, keys), dtype=np.int64, count=len(keys)) % self.instances
        self._live_blocks[block_id] = (columns, slots)
        while len(self._live_blocks) > BLOCK_CACHE_DEPTH:
            self._live_blocks.popitem(last=False)
        for down in downs:
            self._on_down(down.instance, down.error, requeue=down.requeue)

    def _pump(self) -> None:
        """Read every frame the workers have already sent."""
        while True:
            by_sock = {
                instance.sock: instance
                for instance in self._instances
                if not instance.lost and instance.sock is not None and instance.report is None
            }
            if not by_sock:
                return
            readable, _, _ = select.select(list(by_sock), (), (), 0)
            if not readable:
                return
            for sock in readable:
                instance = by_sock[sock]
                if instance.sock is not sock:
                    continue  # replaced while an earlier socket was handled
                try:
                    self._read(instance)
                except _InstanceDown as down:
                    self._on_down(instance, down.error)

    def _read(self, instance: _Instance, deadline: float | None = None) -> None:
        """Read and apply one frame from ``instance``."""
        if deadline is None and self.io_deadline:
            # Even a select()-readable socket may hold only part of a frame;
            # bound the completion read so a wedged peer cannot hang ingest.
            deadline = time.monotonic() + self.io_deadline
        try:
            frame = recv_frame(instance.sock, deadline)
            if frame is None:
                raise self._died(instance)
            tag, payload = frame
            if tag == TAG_EVNT:
                state, events, flushed = decode_answer(payload)
            elif tag == TAG_CTRL:
                record = decode_control(payload)
            elif tag == TAG_DONE:
                report = json.loads(bytes(payload).decode("utf-8"))
                state, events = report["state"], [event_from_dict(e) for e in report["events"]]
            else:
                raise WireError(f"unexpected frame tag {bytes(tag)!r} at front-end")
        except (OSError, ValueError, KeyError) as error:
            raise _InstanceDown(instance, self._died(instance, error)) from None
        if tag == TAG_CTRL:
            if record["op"] == "ready":
                instance.ready = record
            elif record["op"] == "failed":
                reason = f"{self._kind} reported failure: {record.get('error')}"
                if self.on_instance_failure != "fail":
                    raise _InstanceDown(instance, RuntimeError(reason))
                self._failure = self._failure or (instance.index, reason)
                self._interrupt_run()
            return
        self._absorb(instance, state, events)
        if tag == TAG_DONE:
            report["events"] = self._mark_degraded(events)
            instance.report = report
            return
        instance.in_flight -= 1
        events = self._mark_degraded(events)
        if flushed:
            # Flushed events are dispatched like any others and also kept
            # for flush() to return.
            instance.flushed.extend(events[len(events) - flushed:])
        self._dispatch(events)

    def _died(self, instance: _Instance, error: Exception | None = None) -> Exception:
        """Name a connection that closed or reset under the worker's death."""
        if error is not None and not isinstance(error, (ConnectionResetError, BrokenPipeError)):
            return error
        return WireError(
            f"{self._kind} {instance.index} died unexpectedly (connection closed mid-stream)"
        )

    def _absorb(self, instance: _Instance, state: dict, events: list[DetectionEvent]) -> None:
        """Take in one worker's latest metrics state and scored packets."""
        instance.state = state
        self.metrics.absorb_worker_state(instance.index, state)
        scored = sum(event.result.packet_count for event in events)
        instance.scored += scored
        self._scored_total += scored

    def _mark_degraded(self, events: list[DetectionEvent]) -> list[DetectionEvent]:
        """Flag events whose home worker was lost (scored by a survivor)."""
        if not self._degraded_slots:
            return events
        out: list[DetectionEvent] = []
        for event in events:
            key = event.result.key
            if (
                key is not None
                and hash(key) % self.instances in self._degraded_slots
                and not event.result.degraded
            ):
                event = dataclasses.replace(
                    event, result=dataclasses.replace(event.result, degraded=True)
                )
                self._degraded_flows += 1
                self.metrics.record_degraded_flows()
            out.append(event)
        return out

    def _dispatch(self, events: list[DetectionEvent]) -> None:
        if not events:
            return
        alerts = 0
        for event in self._mark_degraded(events):
            self._connections_seen += 1
            is_alert = event.is_alert
            if is_alert:
                alerts += 1
                self._alerts_emitted += 1
            self._events.append(event)
            if self.on_event is not None:
                self.on_event(event)
            if is_alert and self.on_alert is not None:
                self.on_alert(event)  # type: ignore[arg-type]
        self.metrics.record_events(len(events), alerts)

    # ----------------------------------------------------------------- output
    def events(self) -> Iterator[DetectionEvent]:
        """Drain the events received since the last call (non-blocking)."""
        if not self._closed:
            self._pump()
        while self._events:
            yield self._events.popleft()

    def alerts(self) -> Iterator[Alert]:
        for event in self.events():
            if isinstance(event, Alert):
                yield event

    def service_events(self) -> Iterator:
        """Drain typed service events (InstanceLost / DegradedMode)."""
        while self._service_events:
            yield self._service_events.popleft()

    def close(self) -> list[DetectionEvent]:
        """End of stream: drain every worker, merge the final events.

        Returns the merged final drains sorted by ``(first_seen, key)`` —
        the same deterministic order a single unpartitioned detector's
        :meth:`close` produces.  Local workers are joined; the per-worker
        ``DONE`` reports (metrics, occupancy, peaks) stay available as
        :attr:`instance_reports`.

        Under ``respawn``/``degrade``, a mid-close fault never raises: the
        affected worker's loss is recorded (deadline-bounded DONE waits, so
        a wedged peer cannot hang shutdown) and the surviving events are
        returned; consult :meth:`degradation_report` afterwards.  Under
        ``fail`` the fleet is torn down and the failure raised.
        """
        if self._closed:
            return []
        if not self._failed:
            # Stage only: the loop below ships every buffer under the
            # close-time failure handling.
            self._close_run(ship=False)
        self._closed = True
        self._interrupt_run()
        if self._failed:
            self._teardown()
            return []
        final_clock = self._clock
        close_payload = encode_control({"op": "close"})
        for instance in self._instances:
            if instance.lost:
                continue
            try:
                self._submit(instance)
                if final_clock > float("-inf"):
                    poll = encode_control({"op": "poll", "now": final_clock})
                    self._send(instance, TAG_CTRL, poll, answered=True)
                self._send(instance, TAG_CTRL, close_payload)
            except _InstanceDown as down:
                self._on_down(instance, down.error, requeue=down.requeue, closing=True)
        final: list[DetectionEvent] = []
        for instance in self._instances:
            if instance.lost or instance.sock is None:
                continue
            self._settle(instance, lambda i=instance: i.report is not None, closing=True)
            if instance.report is not None:
                final.extend(instance.report["events"])
        if self.config.drop_policy is None:
            # Honest accounting: any routed packet a worker never scored
            # (e.g. a silently dropped frame) is attributed, keeping
            # packets_routed = packets_scored + packets_lost_inflight exact.
            # With a drop policy, capacity-dropped flows are legitimately
            # unscored, so residuals are not attributable to faults.
            for instance in self._instances:
                residual = instance.routed - instance.scored
                if not instance.lost and residual > 0:
                    self._record_loss(
                        instance,
                        f"{residual} routed packets unaccounted at close",
                        self.on_instance_failure,
                    )
        final.sort(key=event_order)
        self._dispatch(final)
        self._teardown()
        self._raise_failure()
        return final

    def degradation_report(self) -> DegradationReport:
        """Everything the stream lost (empty and falsy for a clean run)."""
        return DegradationReport(
            losses=list(self._losses),
            respawns=self._respawns,
            degraded_flows=self._degraded_flows,
            teardown_errors=list(self._teardown_errors),
        )

    def _teardown(self) -> None:
        """Close every socket and reap every worker process (idempotent)."""
        for instance in self._instances:
            self._close_instance(instance)

    # ------------------------------------------------------------- monitoring
    @property
    def connections_seen(self) -> int:
        return self._connections_seen

    @property
    def alerts_emitted(self) -> int:
        return self._alerts_emitted

    @property
    def threshold(self) -> float:
        """The (shared) operating threshold reported by the workers."""
        for instance in self._instances:
            if instance.ready is None and not instance.lost and instance.sock is not None:
                self._settle(
                    instance, lambda i=instance: i.ready is not None or self._failure is not None
                )
            if instance.ready is not None:
                return float(instance.ready.get("threshold", float("nan")))
        return float("nan")

    @property
    def instance_reports(self) -> list[dict[str, object]]:
        """Each worker's DONE report (valid after :meth:`close`)."""
        return [instance.report or {} for instance in self._instances]

    @property
    def pending_connections(self) -> int:
        """Completed connections buffered on the workers, as last reported."""
        return sum(int(instance.state.get("pending", 0)) for instance in self._instances)

    @property
    def active_flows(self) -> int:
        """Connections being assembled on the workers, as last reported."""
        return sum(self.occupancy())

    def occupancy(self) -> list[int]:
        """Tracked connections per worker, as last reported."""
        return [int(instance.state.get("active_flows", 0)) for instance in self._instances]

    def peak_occupancy(self) -> list[int]:
        """Peak concurrently tracked connections per worker."""
        return [
            int((instance.report or {}).get("peak_occupancy", 0))
            for instance in self._instances
        ]

    def metrics_snapshot(self) -> dict:
        """Metrics across the front-end and every worker."""
        if not self._closed:
            self._pump()
        snapshot = self.metrics.snapshot(self.occupancy())
        snapshot["instances"] = [
            (instance.report or {}).get("metrics") for instance in self._instances
        ]
        degradation = snapshot["degradation"]
        degradation["packets_routed"] = self._routed_total
        degradation["packets_scored"] = self._scored_total
        return snapshot

    def render_metrics(self) -> str:
        """Human-readable summary plus per-worker peaks."""
        if not self._closed:
            self._pump()
        lines = [self.metrics.render(self.occupancy())]
        for instance in self._instances:
            report = instance.report
            if report is not None:
                lines.append(
                    f"{self._kind}[{instance.index}]: "
                    f"connections={report.get('connections_seen', 0)} "
                    f"alerts={report.get('alerts_emitted', 0)} "
                    f"peak-occupancy={report.get('peak_occupancy', 0)}"
                )
        return "\n".join(lines)


__all__ = ["FlowPartitioner", "event_order", "run_source"]
