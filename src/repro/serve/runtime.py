"""Streaming front door: one in-process detector, or N local worker processes.

:class:`ParallelStreamingDetector` keeps the
:class:`~repro.serve.streaming.StreamingDetector` contract at any worker
count.  It picks one of two paths and delegates to it:

* ``worker_mode="thread"`` (the default) with ``workers=1`` — the
  single-threaded detector runs on the caller's thread, exactly as a plain
  ``StreamingDetector``.  Asking for more than one worker in this mode is an
  error: thread shards shared one GIL and were slower than one worker on
  every host measured, so they are gone.
* ``worker_mode="process"`` — the one multi-worker transport,
  :class:`~repro.serve.partition.FlowPartitioner`, over ``workers`` forked
  local workers.  Each worker loads the model **read-only** from the
  artifact directory with ``mmap_mode="r"`` (all workers share one
  page-cache copy of the ``.npz``), or inherits ``clap`` across the fork
  when no ``model_dir`` is given.  Capture blocks cross a
  ``socket.socketpair()`` per worker as packed
  :meth:`~repro.netstack.columns.PacketColumns.pack_block` frames,
  broadcast once per block, with per-chunk row slices behind them; events
  and each worker's metrics state come back on the same socket.
  ``workers=1`` still moves scoring off the ingest thread.

Equivalence guarantee: on a time-ordered capture the runtime emits the same
set of :class:`~repro.serve.events.DetectionEvent`\\ s — same connection
keys, scores within 1e-9 — at any worker count, and :meth:`close` returns
the end-of-stream drain in deterministic ``(first_seen, key)`` order
(``tests/serve/test_runtime.py``, ``tests/serve/test_process_runtime.py``).

Fault tolerance (process mode) is the front-end's: ``on_worker_failure``
selects ``"fail"`` (a :class:`RuntimeError` naming the shard worker, with
every worker reaped), ``"respawn"`` (the worker is forked again and the live
blocks re-shipped) or ``"degrade"`` (its flows are rehashed onto the
survivors and their events carry ``DetectionResult.degraded=True``).
``stall_deadline`` bounds every wait on a worker, so a wedged worker is
declared lost instead of blocking ingestion.  Every loss is recorded as an
:class:`~repro.serve.supervise.InstanceLossRecord` with ``kind="worker"``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from pathlib import Path

from repro.core.pipeline import Clap
from repro.netstack.packet import Packet
from repro.serve.events import Alert, DetectionEvent
from repro.serve.faults import FaultPlan
from repro.serve.instance import InstanceConfig
from repro.serve.metrics import AdaptiveChunker, DropPolicy, StreamingMetrics
from repro.serve.partition import FlowPartitioner, event_order, run_source
from repro.serve.sources import PacketSource
from repro.serve.streaming import (
    AlertCallback,
    EventCallback,
    FlushPolicy,
    StreamingDetector,
)
from repro.serve.supervise import DegradationReport, FailurePolicy


class _WorkerPool(FlowPartitioner):
    """The front-end over local workers, named and failing as shard workers."""

    _kind = "worker"
    _process_prefix = "clap-shard"

    def __init__(self, model: str | Path | Clap, queue_depth: int, **options) -> None:
        self._queue_depth = queue_depth
        super().__init__(model, **options)

    def _error(self, index: int, reason: str) -> Exception:
        return RuntimeError(f"shard worker {index} failed: {reason}")


class ParallelStreamingDetector:
    """Streaming CLAP on the caller's thread or across N worker processes.

    Parameters mirror :class:`~repro.serve.streaming.StreamingDetector`, plus:

    workers:
        Number of workers; more than one needs ``worker_mode="process"``.
    worker_mode:
        ``"thread"`` (default: one in-process detector) or ``"process"``;
        see the module docstring.
    model_dir:
        Process mode only: the artifact directory the workers load
        (read-only mmap).  Without it the workers inherit ``clap``.
    drop_policy:
        Applied to :attr:`CompletionReason.CAPACITY` evictions before they
        reach the engine (see :class:`~repro.serve.metrics.DropPolicy`).
    chunk_size:
        Process mode: packets handed to a worker per frame.  The default
        ``"adaptive"`` installs an :class:`~repro.serve.metrics.AdaptiveChunker`
        that grows the chunk under backpressure and shrinks it when flush
        latency climbs; an integer pins it.  Chunk size never changes *what*
        is scored — only how packets are grouped in transit.
    queue_depth:
        Process mode: frames a worker may have unanswered.  When a worker
        falls this far behind, :meth:`ingest` waits — backpressure instead
        of unbounded buffering.
    on_worker_failure / max_worker_respawns / stall_deadline / fault_plan:
        Process mode supervision; see the module docstring.
    metrics:
        Optional externally-owned :class:`StreamingMetrics`; one is created
        (and exposed as :attr:`metrics`) by default.
    """

    def __init__(
        self,
        clap: Clap,
        *,
        workers: int = 1,
        worker_mode: str = "thread",
        flush_policy: FlushPolicy | None = None,
        threshold: float | None = None,
        top_n: int = 1,
        idle_timeout: float = 60.0,
        close_grace: float = 1.0,
        max_flows: int | None = None,
        max_packets: int | None = None,
        drop_policy: DropPolicy | None = None,
        on_event: EventCallback | None = None,
        on_alert: AlertCallback | None = None,
        chunk_size: int | str | AdaptiveChunker = "adaptive",
        queue_depth: int = 8,
        metrics: StreamingMetrics | None = None,
        model_dir: str | Path | None = None,
        on_worker_failure: str = "fail",
        max_worker_respawns: int = 2,
        stall_deadline: float | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        if worker_mode not in ("thread", "process"):
            raise ValueError(
                f"worker_mode must be 'thread' or 'process', got {worker_mode!r}"
            )
        if worker_mode == "thread" and workers > 1:
            raise ValueError(
                f"{workers} workers run as worker processes: "
                "use worker_mode='process' (--worker-mode process)"
            )
        if on_worker_failure not in FailurePolicy:
            raise ValueError(
                f"on_worker_failure must be one of {FailurePolicy}, got {on_worker_failure!r}"
            )
        if on_worker_failure != "fail" and worker_mode != "process":
            raise ValueError(
                "worker failure policies beyond 'fail' require worker_mode='process'"
            )
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be at least 1, got {queue_depth}")
        self.clap = clap
        self.workers = int(workers)
        self.worker_mode = worker_mode
        self.policy = flush_policy or FlushPolicy()
        self.threshold = clap.threshold if threshold is None else float(threshold)
        self.metrics = metrics or StreamingMetrics(shard_count=self.workers)
        #: Secondary errors swallowed during error-path teardown (see run()).
        self.teardown_errors: list[str] = []
        self._closed = False
        self._single: StreamingDetector | None = None
        self._pool: _WorkerPool | None = None
        if worker_mode == "thread":
            self._single = StreamingDetector(
                clap,
                flush_policy=self.policy,
                threshold=self.threshold,
                top_n=top_n,
                idle_timeout=idle_timeout,
                close_grace=close_grace,
                max_flows=max_flows,
                max_packets=max_packets,
                on_event=on_event,
                on_alert=on_alert,
                drop_policy=drop_policy,
                metrics=self.metrics,
            )
            self._target: StreamingDetector | _WorkerPool = self._single
            return
        self._pool = self._target = _WorkerPool(
            clap if model_dir is None else model_dir,
            queue_depth,
            instances=self.workers,
            config=InstanceConfig(
                flush_policy=self.policy,
                threshold=self.threshold,
                top_n=top_n,
                idle_timeout=idle_timeout,
                close_grace=close_grace,
                max_flows=max_flows,
                max_packets=max_packets,
                drop_policy=drop_policy,
            ),
            chunk_size=chunk_size,
            on_event=on_event,
            on_alert=on_alert,
            metrics=self.metrics,
            on_instance_failure=on_worker_failure,
            max_respawns=max_worker_respawns,
            io_deadline=stall_deadline,
            fault_plan=fault_plan,
        )

    # -------------------------------------------------------------- ingestion
    def ingest(self, packet: Packet) -> None:
        """Feed one packet (may wait for a worker under backpressure)."""
        if self._closed:
            raise RuntimeError("ingest() after close()")
        self._target.ingest(packet)

    def ingest_many(self, packets: Iterable[Packet]) -> None:
        """Feed a chunk of packets in stream order."""
        if self._closed:
            raise RuntimeError("ingest() after close()")
        self._target.ingest_many(packets)

    def poll(self, now: float | None = None) -> None:
        """Advance stream time without a packet (a no-op after close)."""
        if not self._closed:
            self._target.poll(now)

    def run(self, source: PacketSource) -> list[DetectionEvent]:
        """Consume a packet source to exhaustion, then :meth:`close`.

        :class:`~repro.serve.sources.Tick` items become :meth:`poll` calls.
        Returns the final end-of-stream events; interim events remain
        available through :meth:`events` / the callbacks.  If the source (or
        a worker) raises mid-stream, the workers are shut down before the
        error propagates.
        """
        return run_source(self, source, self.teardown_errors)

    # ---------------------------------------------------------------- scoring
    def flush(self) -> list[DetectionEvent]:
        """Score everything buffered now (a barrier across workers).

        The flushed events are dispatched (queued for :meth:`events`, pushed
        to the callbacks) and also returned, in deterministic order.
        """
        if self._closed:
            return []
        return self._target.flush()

    def close(self) -> list[DetectionEvent]:
        """End of stream: drain every worker and join it.

        Returns the events produced by the final drain, sorted by
        ``(first_seen, connection key)`` — deterministic at any worker count.
        A worker failure still joins every worker before it is raised.
        """
        if self._closed:
            return []
        self._closed = True
        return sorted(self._target.close(), key=event_order)

    def degradation_report(self) -> DegradationReport:
        """What this stream lost: worker losses, respawns, degraded flows."""
        report = self._pool.degradation_report() if self._pool else DegradationReport()
        report.teardown_errors.extend(self.teardown_errors)
        return report

    # ----------------------------------------------------------------- output
    def events(self) -> Iterator[DetectionEvent]:
        """Drain the events produced since the last call (non-blocking)."""
        yield from self._target.events()

    def alerts(self) -> Iterator[Alert]:
        """Like :meth:`events`, but only threshold-exceeding connections."""
        for event in self.events():
            if isinstance(event, Alert):
                yield event

    # ------------------------------------------------------------- monitoring
    @property
    def connections_seen(self) -> int:
        return self._target.connections_seen

    @property
    def alerts_emitted(self) -> int:
        return self._target.alerts_emitted

    @property
    def pending_connections(self) -> int:
        """Completed connections buffered but not yet scored (as last
        reported while workers are running)."""
        return self._target.pending_connections

    @property
    def active_flows(self) -> int:
        """Connections currently being assembled across all workers."""
        return self._target.active_flows

    def occupancy(self) -> list[int]:
        """Tracked connections per worker."""
        if self._pool is not None:
            return self._pool.occupancy()
        return [self._single.active_flows]

    def metrics_snapshot(self) -> dict:
        """The metrics snapshot plus current worker occupancy."""
        if self._pool is not None:
            return self._pool.metrics_snapshot()
        self.metrics.set_ingested(0, self._single.packets_ingested)
        return self.metrics.snapshot(self.occupancy())

    def render_metrics(self) -> str:
        """Human-readable metrics summary (the CLI prints this to stderr)."""
        if self._pool is not None:
            return self._pool.render_metrics()
        self.metrics.set_ingested(0, self._single.packets_ingested)
        return self.metrics.render(self.occupancy())
