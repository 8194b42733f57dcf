#!/usr/bin/env python
"""Quick-mode ingest-perf smoke for CI.

Runs the stage-breakdown measurement from ``benchmarks/test_ingest_breakdown``
on a tiny synthetic corpus and fails if the columnar ingest path is slower
than the object path — the regression this guards against is someone adding
per-packet Python back under the vectorized pipeline.  The thresholds are
deliberately loose for noisy CI runners.

A cross-block leg re-reads the same capture in 4 KiB blocks, so connections
span read boundaries, and fails unless at least one connection does, its
features equal the one-block read exactly, and the per-packet reference
extractor was never called.  Full correctness of the columnar path is
covered by the equivalence test suite.

Run with:  PYTHONPATH=src python tools/ingest_smoke.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from benchmarks.test_ingest_breakdown import (  # noqa: E402
    measure_ingest_breakdown,
    render_breakdown,
)
import numpy as np  # noqa: E402

from repro.features.fields import RawFeatureExtractor  # noqa: E402
from repro.netstack.flow import assemble_connections, packet_stream  # noqa: E402
from repro.netstack.pcap import PcapReader, read_packet_columns, write_pcap  # noqa: E402
from repro.traffic.generator import TrafficGenerator  # noqa: E402

CONNECTIONS = 80
SMALL_BLOCK = 4096


def cross_block_failures(path: Path) -> list[str]:
    """Check features of a 4 KiB-block read against the one-block read."""
    extractor = RawFeatureExtractor()
    reference = extractor.extract_packets_reference
    reference_calls = []

    def counted_reference(packets):
        reference_calls.append(len(packets))
        return reference(packets)

    extractor.extract_packets_reference = counted_reference
    whole = assemble_connections(read_packet_columns(path).views())
    with PcapReader(path) as reader:
        views = [
            view
            for block in reader.iter_column_blocks(block_bytes=SMALL_BLOCK)
            for view in block.views()
        ]
    spanning = assemble_connections(views)
    failures = []
    crossing = sum(
        len({id(view.columns) for view in connection.packets}) > 1 for connection in spanning
    )
    print(f"cross-block leg: {crossing} of {len(spanning)} connections span "
          f"{SMALL_BLOCK}-byte read blocks", file=sys.stderr)
    if crossing == 0:
        failures.append("no connection spans a read block at the small block size")
    if [c.key for c in whole] != [c.key for c in spanning]:
        failures.append("the small-block read assembled different connections")
    else:
        expected = extractor.extract_packet_trains([c.packets for c in whole])
        got = extractor.extract_packet_trains([c.packets for c in spanning])
        if not all(np.array_equal(a, b) for a, b in zip(expected, got, strict=True)):
            failures.append("features of the small-block read differ from the one-block read")
    if reference_calls:
        failures.append(
            f"the per-packet reference extractor ran on {len(reference_calls)} trains"
        )
    return failures


def main() -> int:
    connections = TrafficGenerator(seed=99).generate_connections(CONNECTIONS)
    packets = packet_stream(connections)
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "smoke.pcap"
        write_pcap(path, packets)
        rows = measure_ingest_breakdown(path, len(packets), repeats=2)
        failures = cross_block_failures(path)
    print(render_breakdown(rows, len(packets)))
    by_stage = {stage: (obj, col) for stage, obj, col in rows}
    if by_stage["features only"][1] <= 2.0 * by_stage["features only"][0]:
        failures.append("columnar feature extraction is not at least 2x the object path")
    if by_stage["full pipeline"][1] <= by_stage["full pipeline"][0]:
        failures.append("columnar full pipeline is slower than the object path")
    if by_stage["parse only"][1] <= 0.5 * by_stage["parse only"][0]:
        failures.append("columnar parse fell far behind the object parse")
    for failure in failures:
        print(f"ingest smoke FAILED: {failure}", file=sys.stderr)
    if not failures:
        print("ingest smoke OK: columnar path is not slower than the object path"
              " and stays columnar across read blocks", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
