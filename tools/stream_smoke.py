#!/usr/bin/env python
"""End-to-end streaming smoke test for CI.

Exercises the full operational path with no fixtures: synthesise a capture,
train a deliberately tiny model, and replay the capture through
``repro stream`` three ways — one in-process worker (``--workers 1``), two
local worker processes (``--workers 2 --worker-mode process``) and two
locally spawned detector instances (``--instances 2``).  The last two go
through the same socket transport.  Fails on a non-zero exit code, a wrong
event count, or any connection whose score differs by more than 1e-9
between the runs.  The point is not accuracy — it is that the
packets-in/alerts-out pipeline holds together as a process would run it, at
every topology.

Run with:  PYTHONPATH=src python tools/stream_smoke.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from repro.cli import main as cli_main

CONNECTIONS = 30
TOLERANCE = 1e-9
TOPOLOGIES = {
    "1 in-process worker": ["--workers", "1"],
    "2 worker processes": ["--workers", "2", "--worker-mode", "process"],
    "2 detector instances": ["--instances", "2"],
}


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

        scores: dict[str, dict[str, float]] = {}
        for name, flags in TOPOLOGIES.items():
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
          f"{', '.join(TOPOLOGIES)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
