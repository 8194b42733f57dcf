#!/usr/bin/env python
"""End-to-end streaming smoke test for CI.

Exercises the full operational path with no fixtures: synthesise a capture,
train a deliberately tiny model, and replay the capture through
``repro stream`` three ways — one in-process worker (``--workers 1``), two
local worker processes (``--workers 2 --worker-mode process``) and two
locally spawned detector instances (``--instances 2``).  The last two go
through the same socket transport.  The two socket topologies run a second
time with the capture read in 4 KiB blocks, so the front-end routes many
short blocks, runs end at every block change, and the workers' FIFO block
window fills and evicts.  Fails on a non-zero exit code, a wrong event
count, or any connection whose score differs by more than 1e-9 from the
in-process run.  The point is not accuracy — it is that the
packets-in/alerts-out pipeline holds together as a process would run it, at
every topology.

Run with:  PYTHONPATH=src python tools/stream_smoke.py
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import tempfile
from pathlib import Path

from repro import cli
from repro.cli import main as cli_main
from repro.netstack.pcap import PcapReader
from repro.serve.instance import BLOCK_CACHE_DEPTH

CONNECTIONS = 30
TOLERANCE = 1e-9
SMALL_BLOCK = 4096
TOPOLOGIES = {
    "1 in-process worker": ["--workers", "1"],
    "2 worker processes": ["--workers", "2", "--worker-mode", "process"],
    "2 detector instances": ["--instances", "2"],
}
#: The socket topologies, replayed again from 4 KiB read blocks.
SMALL_BLOCK_TOPOLOGIES = ("2 worker processes", "2 detector instances")


@contextlib.contextmanager
def small_read_blocks():
    """Make ``repro stream`` read its capture in SMALL_BLOCK-byte blocks."""
    original = cli.open_source
    cli.open_source = functools.partial(original, block_bytes=SMALL_BLOCK)
    try:
        yield
    finally:
        cli.open_source = original


def run(argv: list, capture: bool = False) -> tuple:
    """Invoke the CLI in-process, optionally capturing stdout."""
    print(f"$ repro-clap {' '.join(argv)}", file=sys.stderr)
    if not capture:
        return cli_main(argv), ""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(argv)
    return code, buffer.getvalue()


def fail(message: str) -> int:
    print(f"smoke FAILED: {message}", file=sys.stderr)
    return 1


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        work = Path(workdir)
        capture_path = work / "smoke.pcap"
        model_dir = work / "model"

        code, _ = run(["generate", str(capture_path),
                       "--connections", str(CONNECTIONS), "--seed", "7"])
        if code != 0:
            return fail("generate exited non-zero")
        code, _ = run(["train", str(model_dir), "--pcap", str(capture_path),
                       "--fast", "--rnn-epochs", "3", "--ae-epochs", "10", "--seed", "7"])
        if code != 0:
            return fail("train exited non-zero")

        with PcapReader(capture_path) as reader:
            blocks = sum(1 for _ in reader.iter_column_blocks(block_bytes=SMALL_BLOCK))
        if blocks <= BLOCK_CACHE_DEPTH:
            return fail(f"{blocks} blocks of {SMALL_BLOCK} bytes do not overflow the "
                        f"{BLOCK_CACHE_DEPTH}-block window")

        legs = [(name, flags, contextlib.nullcontext) for name, flags in TOPOLOGIES.items()]
        legs += [(f"{name}, {SMALL_BLOCK}-byte blocks", TOPOLOGIES[name], small_read_blocks)
                 for name in SMALL_BLOCK_TOPOLOGIES]
        scores: dict[str, dict[str, float]] = {}
        for name, flags, reading in legs:
            with reading():
                code, out = run(["stream", str(model_dir), str(capture_path), *flags,
                                 "--metrics"], capture=True)
            if code != 0:
                return fail(f"stream with {name} exited non-zero")
            events = [json.loads(line) for line in out.splitlines() if line.strip()]
            if len(events) != CONNECTIONS:
                return fail(f"{name}: expected {CONNECTIONS} events, got {len(events)}")
            scores[name] = {event["connection"]: event["score"] for event in events}

        reference_name, reference = next(iter(scores.items()))
        for name, got in scores.items():
            if got.keys() != reference.keys():
                return fail(f"{name} scored other connections than {reference_name}")
            worst = max(abs(got[key] - reference[key]) for key in reference)
            if worst > TOLERANCE:
                return fail(f"{name} scores diverge from {reference_name} by {worst:.3g}")

    print(f"smoke OK: {CONNECTIONS} events, score-identical (1e-9) across "
          f"{', '.join(scores)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
