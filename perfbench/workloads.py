"""The benchmark's workloads: which capture, which ``repro stream`` flags, and why.

Each workload is a capture plus the command-line flags of ``repro stream``;
everything else is the CLI's defaults, read from the CLI's own argument
parser so the benchmark cannot drift from them.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path

#: Flow-table budget of the flood workload.  It must exceed
#: flood rate (about 250 flows/s) x (longest gap inside an organic
#: connection, about 1.1 s, + close grace 1 s) + concurrent organic flows,
#: so a closing organic connection is never the LRU victim and still
#: completes as CLOSED.  The flood residue left at close (this many flows)
#: is what the model scores of the flood.
FLOOD_MAX_FLOWS = 1024


@dataclass(frozen=True)
class Workload:
    name: str
    capture: str  # "organic" or "flood" (see perfbench/inputs.py)
    flags: tuple[str, ...]
    why: str


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "organic-replay",
            "organic",
            (),
            "generator capture spanning 7 read blocks, one worker, CLI defaults: the headline "
            "path; parse, flow, features and model all carry weight",
        ),
        Workload(
            "flood-replay",
            "flood",
            ("--max-flows", str(FLOOD_MAX_FLOWS), "--drop-policy", "drop"),
            "55k one-packet SYN flows plus a few organic connections under --max-flows 1024 "
            "--drop-policy drop: flow-table eviction and admission dominate; model idle",
        ),
        Workload(
            "organic-2w",
            "organic",
            ("--workers", "2", "--worker-mode", "process"),
            "organic capture through two worker processes, the only workload where "
            "serve.runtime ships blocks; BLAS is pinned to 1 thread, so pinning it in the "
            "program gains nothing here",
        ),
    )
}


def stream_args(workload: Workload, model: Path, capture: Path) -> argparse.Namespace:
    """The parsed ``repro stream MODEL CAPTURE FLAGS...`` command line."""
    from repro.cli import build_parser

    return build_parser().parse_args(["stream", str(model), str(capture), *workload.flags])
