"""Replays of a capture through ``repro stream``'s calls, timed, in one process.

Usage (``perfbench/run.py`` launches it in a fresh process)::

    python3 perfbench/replay.py WORKLOAD MODEL CAPTURE OUT_PREFIX TRACE SECONDS

Each replay makes the same public ``repro.serve`` calls as the CLI's
``stream`` command with the same arguments: ``Clap.load``, a
``ParallelStreamingDetector``, ``open_source`` over the pcap, ``ingest`` and
``events`` per packet, ``close`` at the end, and one
``json.dumps(event.to_dict())`` line per event, written to
``OUT_PREFIX-<n>.ndjson``.  Replays repeat, each with a fresh model load and
detector, until SECONDS have passed (at least ``MIN_REPLAYS``).  With TRACE=1
every other replay records spans around each layer's public calls
(``perfbench/spans.py``).  One JSON object with the measurements is printed
to standard output.

Measured per replay:

* set-up: ``Clap.load`` plus detector construction (worker spawn included);
* wall time from the first packet pulled to the last event line written;
* CPU time, worker processes included (a worker's CPU is counted over its
  lifetime, which begins at set-up);
* per-packet ``(timestamp, wall)`` and per-event write times, from which the
  alert delays are computed after the replay.

Alert-delay percentiles are taken over the connections of all untraced
replays together, and peak resident memory (this process plus its workers,
from Linux ``/proc`` and ``getrusage``) over the first replay.
"""

from __future__ import annotations

import json
import multiprocessing
import resource
import sys
import time
from pathlib import Path

import numpy as np

MIN_REPLAYS = 3


def build_detector(args, clap):
    """``command_stream``'s detector construction for a parsed command line."""
    from repro.serve import DropPolicy, FlushPolicy, ParallelStreamingDetector

    flush_policy = FlushPolicy(max_batch=args.max_batch, max_buffered=max(args.max_batch, 1024))
    drop_policy = DropPolicy(
        mode=args.drop_policy,
        min_packets=args.drop_min_packets,
        sample_rate=args.drop_sample_rate,
        subnet_budget=args.subnet_budget,
        subnet_prefix=args.subnet_prefix,
    )
    chunk_size = args.chunk_size if args.chunk_size == "adaptive" else int(args.chunk_size)
    return ParallelStreamingDetector(
        clap,
        workers=args.workers,
        worker_mode=args.worker_mode,
        flush_policy=flush_policy,
        threshold=args.threshold,
        idle_timeout=args.idle_timeout,
        close_grace=args.close_grace,
        max_flows=args.max_flows,
        drop_policy=drop_policy,
        chunk_size=chunk_size,
        model_dir=args.model if args.worker_mode == "process" else None,
        on_worker_failure=args.on_instance_failure,
        max_worker_respawns=args.max_respawns,
        stall_deadline=(args.io_deadline or None) if args.on_instance_failure != "fail" else None,
    )


def _peak_rss_kb() -> int:
    """This process's peak resident set (VmHWM).  ``ru_maxrss`` is not used
    for it: it carries over the launching process's size across ``exec``."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _cpu(which: int) -> float:
    usage = resource.getrusage(which)
    return usage.ru_utime + usage.ru_stime


def replay(args, out_path: Path, trace: bool) -> dict:
    """Set up, replay the capture once and measure it."""
    from repro import Clap
    from repro.serve import ParallelStreamingDetector, Tick, open_source

    from perfbench import spans
    from perfbench.delay import alert_delays

    clock = time.perf_counter
    started = clock()
    clap = Clap.load(args.model)
    detector = build_detector(args, clap)
    setup_seconds = clock() - started

    tracer = None
    if trace:
        tracer = spans.Tracer(clock)
        spans.install(tracer, ParallelStreamingDetector)

    stamps: list[float] = []
    walls: list[float] = []
    written: list[tuple[float, str, float]] = []
    source = open_source(args.pcap, args.source, ingest=args.ingest, strict=args.strict)
    with open(out_path, "w", encoding="utf-8") as out:

        def emit(events) -> None:
            for event in events:
                if args.alerts_only and not event.is_alert:
                    continue
                span = tracer.open("events.emit") if tracer is not None else -1
                out.write(json.dumps(event.to_dict()) + "\n")
                if span >= 0:
                    tracer.close(span)
                written.append((event.last_seen, event.completed_by.value, clock()))

        def emit_service(detector) -> None:
            for event in getattr(detector, "service_events", list)():
                out.write(json.dumps(event.to_dict()) + "\n")

        children_before = _cpu(resource.RUSAGE_CHILDREN)
        cpu_before = _cpu(resource.RUSAGE_SELF)
        started = clock()
        for item in source:
            if isinstance(item, Tick):
                detector.poll(item.now)
            else:
                stamps.append(item.timestamp)
                walls.append(clock())
                detector.ingest(item)
            emit(detector.events())
            emit_service(detector)
        close_wall = clock()
        detector.close()
        emit(detector.events())
        emit_service(detector)
        ended = clock()
    cpu_self = _cpu(resource.RUSAGE_SELF) - cpu_before
    multiprocessing.active_children()  # reap workers so their usage is counted
    cpu_children = _cpu(resource.RUSAGE_CHILDREN) - children_before
    if tracer is not None:
        tracer.uninstall()

    delays = alert_delays(
        stamps, walls, written, close_wall,
        close_grace=args.close_grace, idle_timeout=args.idle_timeout,
    )
    result = {
        "traced": trace,
        "setup_s": setup_seconds,
        "wall_s": ended - started,
        "cpu_s": cpu_self + cpu_children,
        "packets": len(stamps),
        "events": len(written),
        "alert_delay_p50_ms": delays.percentile_ms(50),
        "alert_delay_p99_ms": delays.percentile_ms(99),
        "alert_delay_samples": int(delays.seconds.size),
        "alert_delay_excluded": delays.excluded,
        "alert_delay_negative": int((delays.seconds < 0).sum()),
        "snapshot": detector.metrics_snapshot(),
        "_delays": delays.seconds,
    }
    if tracer is not None:
        result["trace"] = {
            "self_s": spans.self_times(tracer.names, tracer.starts, tracer.ends, tracer.parents),
            "counts": dict(tracer.counts),
        }
    return result


def replay_for(args, out_prefix: str, trace: bool, seconds: float) -> dict:
    from perfbench.delay import DelaySamples

    """Replays until ``seconds`` have passed; with ``trace``, every other one
    is traced (untraced first)."""
    replays = []
    process_workers = args.workers if args.worker_mode == "process" else 0
    started = time.monotonic()
    while True:
        traced = trace and len(replays) % 2 == 1
        replays.append(replay(args, Path(f"{out_prefix}-{len(replays)}.ndjson"), traced))
        if len(replays) == 1:
            # Peak memory of the first replay, the one a CLI run would see:
            # later ones fork workers from a process grown by earlier
            # replays.  A forked worker's peak includes the pages it shares
            # with this process at fork; workers count at the largest one's.
            peak_kb = (
                _peak_rss_kb()
                + process_workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            )
        untraced = sum(1 for r in replays if not r["traced"])
        enough = untraced >= MIN_REPLAYS and (not trace or len(replays) > untraced)
        # Stop before a replay that would end past the budget.
        if enough and time.monotonic() - started + replays[-1]["wall_s"] > seconds:
            break
    # Alert delays pooled over the untraced replays' connections.
    pooled = DelaySamples(
        np.concatenate([r["_delays"] for r in replays if not r["traced"]]),
        sum(r["alert_delay_excluded"] for r in replays if not r["traced"]),
    )
    for result in replays:
        del result["_delays"]
    return {
        "replays": replays,
        "peak_rss_mb": peak_kb / 1024.0,
        "alert_delay_p50_ms": pooled.percentile_ms(50),
        "alert_delay_p99_ms": pooled.percentile_ms(99),
        "alert_delay_samples": int(pooled.seconds.size),
    }


def main(argv: list[str]) -> int:
    workload_name, model, capture, out_prefix, trace, seconds = argv
    from perfbench.workloads import WORKLOADS, stream_args

    args = stream_args(WORKLOADS[workload_name], Path(model), Path(capture))
    print(json.dumps(replay_for(args, out_prefix, trace == "1", float(seconds))))
    return 0


if __name__ == "__main__":
    # Run as a script: make the checkout root importable for ``perfbench.*``.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    sys.exit(main(sys.argv[1:]))
