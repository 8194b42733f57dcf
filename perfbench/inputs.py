"""Seeded benchmark inputs, built once per seed and cached inside the checkout.

For a seed the benchmark needs a trained model (``ClapConfig.fast()``), the
captures its workloads replay, and for each capture the offline reference
(``assemble_connections`` + ``Clap.detect_batch`` with the model loaded from
the cached artifact, the same artifact every replay loads).  Generation,
training and the reference stay out of every metric.

The cache lives under ``perfbench/.cache/<hash>/seed-<seed>/``, where the
hash covers the program (``src/repro``) and this file: a change to either
gets fresh inputs.  Every artifact is
written under a temporary name and renamed into place, so an interrupted
build never leaves a half-written input behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import asdict
from pathlib import Path

import numpy as np

from perfbench.compare import Reference

ORGANIC_CONNECTIONS = 2600
#: The flood capture: FLOOD_FLOWS one-packet SYN flows spread evenly over
#: the stream time of a few sparse organic connections (about 250 new flows
#: per second).  The whole capture fits in one read block, so no connection
#: spans a block boundary, and the model scores only the organic connections
#: and the flood residue drained at close.
FLOOD_FLOWS = 55_000
FLOOD_ORGANIC_CONNECTIONS = 48
FLOOD_ORGANIC_GAP = 4.5  # mean seconds between organic connection starts
TRAINING_CONNECTIONS = 40
READ_BLOCK_BYTES = 4 << 20  # the stream CLI's pcap read block
FLOOD_SERVER = 0xC0A80001  # syn_flood_columns' default target, 192.168.0.1


def source_hash(root: Path) -> str:
    """SHA-256 over every Python file of the program under ``src/repro``."""
    digest = hashlib.sha256()
    package = root / "src" / "repro"
    for path in sorted(package.rglob("*.py")):
        digest.update(str(path.relative_to(package)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def seed_streams(seed: int) -> dict[str, int]:
    """Independent integer seeds for each generated input."""
    children = np.random.SeedSequence(seed).spawn(3)
    names = ("model", "organic", "flood")
    return {
        name: int(child.generate_state(1)[0])
        for name, child in zip(names, children, strict=True)
    }


class InputCache:
    """Paths of one seed's cached inputs; builds what is missing on demand."""

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed
        inputs_hash = hashlib.sha256(
            (source_hash(root) + Path(__file__).read_text()).encode()
        ).hexdigest()
        self.directory = root / "perfbench" / ".cache" / inputs_hash[:16] / f"seed-{seed}"
        self.seeds = seed_streams(seed)

    # ------------------------------------------------------------ artifacts
    def model(self) -> Path:
        path = self.directory / "model"
        if not path.is_dir():
            self._build(path, self._train)
        return path

    def capture(self, kind: str) -> Path:
        path = self.directory / f"{kind}.pcap"
        if not path.is_file():
            writer = {"organic": self._write_organic, "flood": self._write_flood}[kind]
            self._build(path, writer)
        return path

    def reference(self, kind: str) -> tuple[list[Reference], dict]:
        """The capture's offline reference rows and its input properties."""
        path = self.directory / f"{kind}.reference.json"
        if not path.is_file():
            capture, model = self.capture(kind), self.model()
            self._build(path, lambda target: _write_reference(target, capture, model, kind))
        payload = json.loads(path.read_text())
        return [Reference(**row) for row in payload["rows"]], payload["properties"]

    # ------------------------------------------------------------- builders
    def _build(self, path: Path, write) -> None:
        """Run ``write`` on a temporary path, then rename it to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        partial = path.with_name(f".{path.name}.{os.getpid()}")
        try:
            write(partial)
            os.replace(partial, path)
        finally:
            if partial.is_dir():
                shutil.rmtree(partial)
            else:
                partial.unlink(missing_ok=True)

    def _train(self, target: Path) -> None:
        from repro import BenignDataset, Clap, ClapConfig

        dataset = BenignDataset.synthesize(
            connection_count=TRAINING_CONNECTIONS, seed=self.seeds["model"]
        )
        clap = Clap(ClapConfig.fast())
        clap.fit(dataset.train)
        clap.save(target)

    def _write_organic(self, target: Path) -> None:
        from repro.netstack.pcap import write_pcap
        from repro.traffic.generator import TrafficGenerator

        packets = TrafficGenerator(seed=self.seeds["organic"]).generate_packets(ORGANIC_CONNECTIONS)
        write_pcap(target, packets)

    def _write_flood(self, target: Path) -> None:
        from repro.netstack.pcap import write_pcap
        from repro.traffic.generator import GeneratorConfig, TrafficGenerator

        generator = TrafficGenerator(
            seed=self.seeds["flood"],
            config=GeneratorConfig(mean_inter_connection_gap=FLOOD_ORGANIC_GAP),
        )
        organic = generator.generate_packets(FLOOD_ORGANIC_CONNECTIONS)
        first, last = organic[0].timestamp, organic[-1].timestamp
        flood = flood_packets(FLOOD_FLOWS, start=first, interval=(last - first) / FLOOD_FLOWS)
        # Stable sort: on equal timestamps the organic packet goes first.
        write_pcap(target, sorted(organic + flood, key=lambda packet: packet.timestamp))


def flood_packets(count: int, *, start: float, interval: float) -> list:
    """``count`` bare-SYN packets, one new flow each, from the columnar
    flood generator's rows (``repro.traffic.flood.syn_flood_columns``)."""
    from repro.netstack.ip import Ipv4Header
    from repro.netstack.packet import Packet
    from repro.netstack.tcp import TcpFlags, TcpHeader
    from repro.traffic.flood import syn_flood_columns

    rows = syn_flood_columns(
        count, start=start, interval=interval, server_ip=FLOOD_SERVER
    )
    return [
        Packet(
            ip=Ipv4Header(src=src, dst=dst),
            tcp=TcpHeader(src_port=sport, dst_port=dport, seq=seq, flags=TcpFlags.SYN),
            timestamp=timestamp,
        )
        for src, dst, sport, dport, seq, timestamp in zip(
            rows.src.tolist(), rows.dst.tolist(), rows.src_port.tolist(),
            rows.dst_port.tolist(), rows.seq.tolist(), rows.timestamp.tolist(),
            strict=True,
        )
    ]


def _write_reference(target: Path, capture: Path, model: Path, kind: str) -> None:
    from repro import Clap
    from repro.netstack.flow import assemble_connections, connection_looks_closed
    from repro.netstack.pcap import PcapReader, read_packet_columns

    views = read_packet_columns(capture).views()
    connections = assemble_connections(views)
    clap = Clap.load(model)
    results = clap.detect_batch(connections)

    # Which read block each packet lands in when the stream reads the file.
    with PcapReader(capture) as reader:
        column_blocks = reader.iter_column_blocks(block_bytes=READ_BLOCK_BYTES)
        block_sizes = [len(block) for block in column_blocks]
    block_starts = np.cumsum([0, *block_sizes])[:-1]
    spanning = spanning_packets = 0
    rows = []
    for connection, result in zip(connections, results, strict=True):
        blocks = np.searchsorted(
            block_starts, [packet.index for packet in connection.packets], side="right"
        )
        if blocks[0] != blocks[-1]:
            spanning += 1
            spanning_packets += len(connection)
        # Organic addresses never start with 192, so the flood's server
        # address identifies its flows.
        flood = kind == "flood" and connection.key.ip_b == FLOOD_SERVER
        rows.append(Reference(
            connection=str(result.key),
            first_seen=connection.packets[0].timestamp,
            packet_count=result.packet_count,
            score=result.score,
            adversarial=result.is_adversarial,
            # Under a bounded flow table only the flood and organic flows
            # that never close may be evicted (and dropped).
            may_drop=kind == "flood" and (flood or not connection_looks_closed(connection)),
            flood=flood,
        ))
    properties = {
        "capture": kind,
        "packets": len(views),
        "connections": len(connections),
        "read_blocks": len(block_sizes),
        "mean_packets_per_connection": round(len(views) / max(len(connections), 1), 3),
        "block_spanning_share": round(spanning / max(len(connections), 1), 4),
        "block_spanning_packet_share": round(spanning_packets / max(len(views), 1), 4),
        "flood_flows": sum(1 for row in rows if row.flood),
        "capture_seconds": round(views[-1].timestamp - views[0].timestamp, 3) if views else 0.0,
    }
    target.write_text(json.dumps({"properties": properties, "rows": [asdict(row) for row in rows]}))
