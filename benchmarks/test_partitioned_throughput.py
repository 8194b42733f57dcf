"""Scale-out serving: the million-flow partitioned replay.

Replays one synthetic workload — a phase of benign generator connections
followed by a :mod:`repro.traffic.flood` SYN flood with a fresh flow per
packet — through four serving topologies: an unpartitioned in-process
detector ("single") and a :class:`~repro.serve.partition.FlowPartitioner`
fanning the same stream out to 1, 2 and 4 local detector instances over
localhost sockets.  The table reports wall-clock packets/s and the peak
flow-table occupancy of every instance.

Equivalence is asserted on the organically completed (``CLOSED``)
connections: their keys, packet counts and scores must agree across every
topology within 1e-9.  Flood flows are excluded *by construction*: under
``DropPolicy(mode="drop")`` every capacity-evicted flood flow is dropped
before scoring, and the ≤ ``max_flows`` flood residue still tracked at
close drains against *per-instance* FIFO capacity state — which residents
survive is partition-dependent by design, exactly as the sharded runtime's
per-worker ``max_flows`` split is, so the drained flood tail carries no
cross-topology guarantee (the benchmark asserts its *size* is bounded by
the global budget instead).

Scale knobs (the committed ``results/partitioned_throughput.txt`` was
produced at the million-flow setting):

* ``CLAP_PARTITION_FLOWS`` — flood flows to replay (default 4,000 so the
  tier-1 suite stays fast; the artefact run uses 1,000,000);
* ``CLAP_PARTITION_REAL`` — benign generator connections (default 48).

Multi-instance topologies are asserted faster than single only when the
host has real parallel cores (Table-3 convention).
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks.conftest import host_cores, write_result
from repro.core.config import ClapConfig
from repro.core.pipeline import Clap
from repro.serve import (
    CompletionReason,
    DropPolicy,
    FlowPartitioner,
    InstanceConfig,
    ParallelStreamingDetector,
)
from repro.traffic.dataset import BenignDataset
from repro.traffic.flood import syn_flood_blocks
from repro.traffic.generator import TrafficGenerator

FLOOD_FLOWS = int(os.environ.get("CLAP_PARTITION_FLOWS", "4000"))
REAL_CONNECTIONS = int(os.environ.get("CLAP_PARTITION_REAL", "48"))
#: Global flow budget: scales with the flood so capacity eviction always
#: dominates, while the drained residue (which is scored at close) stays
#: small enough to keep the default run fast.
MAX_FLOWS = max(256, min(2048, FLOOD_FLOWS // 16))
FLOOD_BLOCK_ROWS = 32_768
CLOSE_GRACE = 0.5
SCORE_TOLERANCE = 1e-9


@pytest.fixture(scope="module")
def partition_model(tmp_path_factory):
    """A tiny trained pipeline saved to disk for the instances to load."""
    config = ClapConfig.fast()
    config.rnn.epochs = 3
    config.autoencoder.epochs = 10
    dataset = BenignDataset.synthesize(
        connection_count=30, seed=99, train_fraction=0.8
    )
    clap = Clap(config)
    clap.fit(dataset.train)
    model_dir = tmp_path_factory.mktemp("partition-model") / "model"
    clap.save(model_dir)
    return clap, str(model_dir)


def _real_packets():
    """Benign phase: generator connections completing organically (FIN)."""
    connections = TrafficGenerator(seed=311).generate_connections(REAL_CONNECTIONS)
    for index, connection in enumerate(connections):
        for position, packet in enumerate(connection.packets):
            packet.timestamp = index * 5.0 + position * 0.01
    return sorted(
        (packet for connection in connections for packet in connection.packets),
        key=lambda packet: packet.timestamp,
    )


def _drop_policy() -> DropPolicy:
    return DropPolicy(mode="drop")


def _replay(target, real_packets, occupancy_probe=None):
    """Feed benign objects then flood blocks.

    Returns ``(events, seconds, packets, peak)`` where ``peak`` is the
    largest ``occupancy_probe()`` reading sampled once per flood block
    (instances track their own peaks; the in-process reference needs the
    probe).
    """
    events = []
    packets = 0
    peak = 0
    started = time.perf_counter()
    for packet in real_packets:
        target.ingest(packet)
    packets += len(real_packets)
    events.extend(target.events())
    for block in syn_flood_blocks(FLOOD_FLOWS, block_rows=FLOOD_BLOCK_ROWS):
        for view in block.views():
            target.ingest(view)
        packets += len(block)
        events.extend(target.events())
        if occupancy_probe is not None:
            peak = max(peak, occupancy_probe())
    target.close()
    events.extend(target.events())
    elapsed = time.perf_counter() - started
    return events, elapsed, packets, peak


def _closed_rows(events):
    """The partition-invariant event subset: organic FIN completions."""
    return {
        str(event.result.key): (event.result.packet_count, event.result.score)
        for event in events
        if event.completed_by is CompletionReason.CLOSED
    }


def _drained(events):
    return [e for e in events if e.completed_by is CompletionReason.DRAIN]


def _assert_equivalent(reference, candidate, label):
    assert reference.keys() == candidate.keys(), (
        f"{label}: CLOSED connection sets differ "
        f"({len(reference)} vs {len(candidate)})"
    )
    for key, (packets, score) in reference.items():
        other_packets, other_score = candidate[key]
        assert packets == other_packets, (label, key, packets, other_packets)
        assert abs(score - other_score) <= SCORE_TOLERANCE, (
            label,
            key,
            score,
            other_score,
        )


def test_partitioned_replay_throughput(partition_model):
    clap, model_dir = partition_model
    real_packets = _real_packets()
    rows = []

    # ----- unpartitioned reference ------------------------------------------
    single = ParallelStreamingDetector(
        clap,
        workers=1,
        idle_timeout=1e9,
        close_grace=CLOSE_GRACE,
        max_flows=MAX_FLOWS,
        drop_policy=_drop_policy(),
    )
    single_events, single_seconds, replay_packets, single_peak = _replay(
        single, real_packets, occupancy_probe=lambda: single.active_flows
    )
    single_snapshot = single.metrics_snapshot()
    baseline = _closed_rows(single_events)
    assert baseline, "benign phase produced no organic completions"
    assert len(_drained(single_events)) <= MAX_FLOWS
    assert single_snapshot["capacity_drops"] > 0
    rows.append(("single (in-process)", single_seconds, [single_peak]))

    results = {}
    for instances in (1, 2, 4):
        partitioner = FlowPartitioner(
            model_dir,
            instances=instances,
            config=InstanceConfig(
                idle_timeout=1e9,
                close_grace=CLOSE_GRACE,
                max_flows=MAX_FLOWS,
                drop_policy=_drop_policy(),
            ),
        )
        events, seconds, packets, _ = _replay(partitioner, real_packets)
        assert packets == replay_packets
        peaks = partitioner.peak_occupancy()
        _assert_equivalent(baseline, _closed_rows(events), f"instances={instances}")
        drained = _drained(events)
        # The flood residue drains against per-instance budgets: bounded by
        # the (rounded-up) global budget, never the whole flood.
        budget = -(-MAX_FLOWS // instances)
        assert len(drained) <= budget * instances
        assert all(peak <= budget for peak in peaks), (instances, peaks, budget)
        capacity_drops = sum(
            int(report["metrics"]["capacity_drops"])
            for report in partitioner.instance_reports
        )
        assert capacity_drops > 0
        assert capacity_drops + len(drained) >= FLOOD_FLOWS
        results[instances] = seconds
        rows.append((f"instances={instances}", seconds, peaks))

    # ----- table -------------------------------------------------------------
    cores = host_cores()
    lines = [
        f"{'Topology':<22} {'Packets':>10} {'Seconds':>9} {'Pkt/s':>10} "
        f"{'Peak occupancy per instance':<30}",
        "-" * 85,
    ]
    for label, seconds, peaks in rows:
        lines.append(
            f"{label:<22} {replay_packets:>10,} {seconds:>9.2f} "
            f"{replay_packets / seconds:>10,.0f} {str(peaks):<30}"
        )
    lines.append("")
    lines.append(
        f"workload: {REAL_CONNECTIONS} benign generator connections"
        f" ({len(real_packets):,} packets) + {FLOOD_FLOWS:,}-flow SYN flood"
        f" (one flow per packet), max_flows={MAX_FLOWS},"
        f" DropPolicy(mode='drop'), host with {cores} usable core(s)."
    )
    lines.append(
        "equivalence: CLOSED (organic FIN) connections agree across every"
        " topology — keys, packet counts and scores within 1e-9.  The"
        " drained flood residue (<= max_flows flows still tracked at close)"
        " is partition-dependent by design: per-instance FIFO capacity"
        " eviction, like the sharded runtime's per-worker max_flows split,"
        " does not promise which residents survive — only how many."
    )
    if cores == 1:
        lines.append(
            "single-core host: instance processes time-slice one core, so"
            " multi-instance rows measure fan-out + wire overhead, not"
            " speed-up (Table-3 convention: the >single assertion is gated"
            " on cores > 1)."
        )
    write_result("partitioned_throughput.txt", "\n".join(lines))

    if cores > 1:
        # Real parallel hardware: fanning out across instance processes must
        # beat the single in-process detector on the flood-heavy replay.
        best_multi = min(results[2], results[4])
        assert best_multi < single_seconds
    else:
        # Single core: only guard that the socket hop keeps overhead sane.
        assert results[1] < single_seconds * 25
