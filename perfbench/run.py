"""Stream benchmark: pcap bytes to NDJSON events through ``repro stream``'s calls.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload organic-replay --seed 1 --seconds 15 --trace 0

Workloads (``perfbench/workloads.py``): ``organic-replay``, ``flood-replay``
and ``organic-2w``.  ``BENCHMARK.json`` lists only the first and the last:
on a 2-core shared host, run-to-run spreads of the flood's timed metrics
reached 0.20-0.27 of their median, too close to the largest bound allowed
(0.25); it stays available for runs by hand.  The seed drives every input: the captures, the
``ClapConfig.fast()`` model and the offline reference are built once per seed
and cached under ``perfbench/.cache`` (``perfbench/inputs.py``); building
them is never timed.

A run replays the workload's capture in a fresh process
(``perfbench/replay.py``) until ``--seconds`` have passed, checks every
replay's events against the offline reference (``perfbench/compare.py``) and
once against ``python -m repro.cli stream`` on the same capture, and reports
the metrics over all the run's replays.

``--trace 0`` reports the end-to-end metrics:

* ``pkts_per_s`` — capture packets / wall seconds from the first packet
  pulled to the last event line written (unpaced replay, set-up excluded);
* ``alert_delay_p50_ms`` / ``alert_delay_p99_ms`` — per scored connection,
  from the moment the stream completed it to its event line
  (``perfbench/delay.py``);
* ``setup_s`` — ``Clap.load`` plus detector construction, worker spawn
  included (the program has no worker handshake: construction returning is
  ready-to-ingest);
* ``cpu_s`` — user+sys CPU seconds per replay, worker processes included;
* ``peak_rss_mb`` — peak resident memory of the replay process plus its
  worker processes (each worker counted at the largest worker's peak).

Connections missing, duplicated or wrong against the reference are the
result's ``failed`` count (``conn_error_rate`` = failed / attempted, printed
in the summary; expected 0).

``--trace 1`` alternates untraced and traced replays and reports the
per-layer ledger of the traced replay with the median wall time: self
seconds per layer, counts, the program's own ``metrics_snapshot()``
counters, ``driver.unattributed_s`` (traced wall minus all self times) and
``trace.overhead_frac`` (median traced wall / median untraced wall - 1).

Every benchmark process runs with BLAS pinned to one thread (recorded in the
provenance line), so a program change that pins BLAS itself shows no gain
here.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
REPLAY_TIMEOUT = 150.0
END_TO_END = (
    ("pkts_per_s", "1/s"),
    ("alert_delay_p50_ms", "ms"),
    ("alert_delay_p99_ms", "ms"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"  # same string hashing, same work, in every run
    return env


def run_replays(workload, model: Path, capture: Path, out_prefix: Path, trace: bool,
                seconds: float) -> dict:
    """Timed replays in a fresh process (``perfbench/replay.py``)."""
    command = [sys.executable, str(ROOT / "perfbench" / "replay.py"), workload.name,
               str(model), str(capture), str(out_prefix), "1" if trace else "0", str(seconds)]
    completed = subprocess.run(
        command, capture_output=True, text=True, env=_env(), cwd=ROOT,
        timeout=seconds + REPLAY_TIMEOUT, check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"replay exited {completed.returncode}: {completed.stderr.strip()[-2000:]}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def cli_lines(workload, model: Path, capture: Path) -> list[str]:
    """NDJSON lines of ``python -m repro.cli stream`` on the same capture."""
    command = [sys.executable, "-m", "repro.cli", "stream", str(model), str(capture),
               *workload.flags]
    completed = subprocess.run(
        command, capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=REPLAY_TIMEOUT,
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"repro stream exited {completed.returncode}: {completed.stderr[-2000:]}"
        )
    return completed.stdout.splitlines()


def fidelity(replay_lines: list[str], cli: list[str], workers: int) -> bool:
    """A replay's NDJSON lines equal the CLI's, byte for byte.

    With several worker processes the CLI's own output varies from run to
    run: events of different workers interleave by timing, and some scores
    differ in the last bits (by up to 1.4e-17 in our measurements).  There
    the events are compared per connection: every field equal, scores within
    the reference tolerance.
    """
    if workers == 1:
        return replay_lines == cli
    from perfbench.compare import SCORE_TOLERANCE

    def by_connection(lines: list[str]) -> list[dict]:
        events = [json.loads(line) for line in lines]
        return sorted(events, key=lambda event: (event["connection"], event["first_seen"]))

    def same(ours: dict, theirs: dict) -> bool:
        return (
            {k: v for k, v in ours.items() if k != "score"}
            == {k: v for k, v in theirs.items() if k != "score"}
            and abs(ours["score"] - theirs["score"]) <= SCORE_TOLERANCE
        )

    ours, theirs = by_connection(replay_lines), by_connection(cli)
    return len(ours) == len(theirs) and all(map(same, ours, theirs))


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    completed = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                               cwd=ROOT, check=False)
    return completed.stdout.strip() or None


def provenance(seed: int, properties: dict, source_sha: str) -> dict:
    import numpy

    return {
        "host_cores": os.cpu_count(),
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "source_sha256": source_sha,
        "seed": seed,
        "inputs": properties,
    }


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def summarize(measured: dict) -> dict:
    """End-to-end metrics over the untraced replays of a run.

    Throughput is total packets over total wall time, CPU time the mean per
    replay, and the alert-delay percentiles are pooled over every replay's
    connections.  The host's CPU speed switches between a fast and a slow
    state within seconds; a median over replays jumps between the two,
    while totals move smoothly with the share of time spent in each.
    Set-up is the median over every replay (tracing starts after set-up).
    """
    replays = [r for r in measured["replays"] if not r["traced"]]
    return {
        "pkts_per_s": sum(r["packets"] for r in replays) / sum(r["wall_s"] for r in replays),
        "alert_delay_p50_ms": measured["alert_delay_p50_ms"],
        "alert_delay_p99_ms": measured["alert_delay_p99_ms"],
        "setup_s": median([r["setup_s"] for r in measured["replays"]]),
        "cpu_s": statistics.fmean(r["cpu_s"] for r in replays),
        "peak_rss_mb": measured["peak_rss_mb"],
        "alert_delay_samples": measured["alert_delay_samples"],
        "alert_delay_excluded": replays[0]["alert_delay_excluded"],
        "alert_delay_negative": sum(r["alert_delay_negative"] for r in replays),
        "wall_s": [round(r["wall_s"], 4) for r in replays],
        "p50_ms": [round(r["alert_delay_p50_ms"], 2) for r in replays],
        "p99_ms": [round(r["alert_delay_p99_ms"], 2) for r in replays],
        "cpus": [round(r["cpu_s"], 4) for r in replays],
    }


#: Per-layer metrics of the traced run, with their units.
PER_LAYER_UNITS = {
    "pcap.parse_s": "s", "pcap.blocks": "count", "columns.views_s": "s",
    "runtime.route_s": "s", "runtime.wait_s": "s", "runtime.shm_bytes": "B",
    "runtime.copied_bytes": "B", "runtime.max_queue_depth": "count",
    "flow.add_s": "s", "flow.closed": "count", "flow.idle": "count",
    "flow.capacity": "count", "flow.drain": "count",
    "metrics.admission_s": "s", "metrics.admitted": "count", "metrics.dropped": "count",
    "metrics.flush_s": "s",
    "engine.flush_s": "s", "engine.detect_s": "s", "engine.batches": "count",
    "engine.conns_per_batch": "count",
    "fields.extract_s": "s", "fields.fallback_s": "s", "fields.fallback_trains": "count",
    "fields.fallback_pkts": "count", "fields.columnar_share": "ratio",
    "profile.build_s": "s", "gru.gates_s": "s", "gru.pkts": "count",
    "autoencoder.error_s": "s", "autoencoder.rows": "count", "detector.stage_d_s": "s",
    "events.emit_s": "s", "events.count": "count",
    "model.share": "ratio", "driver.unattributed_s": "s", "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}


def ledger(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics from the traced replay with the median wall time."""
    from perfbench.spans import MODEL_SPANS, SPAN_NAMES

    chosen = sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]
    self_s = chosen["trace"]["self_s"]
    counts = chosen["trace"]["counts"]
    snapshot = chosen["snapshot"]
    completions = snapshot["completions_by_reason"]
    latency = snapshot["flush_latency"]
    wall = chosen["wall_s"]
    fields_pkts = counts.get("fields.pkts", 0)
    batches = counts.get("engine.batches", 0)
    values = {f"{name}_s": self_s.get(name, 0.0) for name in SPAN_NAMES}
    values.update({
        "pcap.blocks": counts.get("pcap.parse.items", 0),
        "runtime.shm_bytes": snapshot["shared_memory"]["bytes_broadcast"],
        "runtime.copied_bytes": snapshot["shared_memory"]["payload_bytes_copied"],
        "runtime.max_queue_depth": snapshot["max_queue_depth"],
        **{f"flow.{reason}": completions.get(reason, 0)
           for reason in ("closed", "idle", "capacity", "drain")},
        "metrics.admitted": sum(completions.values()) - snapshot["capacity_drops"],
        "metrics.dropped": snapshot["capacity_drops"],
        "metrics.flush_s": latency["mean_seconds"] * latency["count"],
        "engine.batches": batches,
        "engine.conns_per_batch": counts.get("engine.conns", 0) / batches if batches else 0.0,
        "fields.fallback_trains": counts.get("fields.fallback_trains", 0),
        "fields.fallback_pkts": counts.get("fields.fallback_pkts", 0),
        "fields.columnar_share": (
            1.0 - counts.get("fields.fallback_pkts", 0) / fields_pkts if fields_pkts else 0.0
        ),
        "gru.pkts": counts.get("gru.pkts", 0),
        "autoencoder.rows": counts.get("autoencoder.rows", 0),
        "events.count": chosen["events"],
        "model.share": sum(self_s.get(name, 0.0) for name in MODEL_SPANS) / wall,
        "driver.unattributed_s": wall - sum(self_s.values()),
        "trace.wall_s": wall,
        "trace.overhead_frac": (
            median([r["wall_s"] for r in traced]) / median([r["wall_s"] for r in untraced]) - 1.0
        ),
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


def report(workload, info, summary, comparisons, faithful, attempted, failed, metrics,
           untraced_runs, traced_runs) -> None:
    """Human-readable lines before the JSON result line."""
    print(f"# workload {workload.name}: {workload.why}")
    print(f"# provenance {json.dumps(info, sort_keys=True)}")
    print(f"# replays: {untraced_runs} untraced, {traced_runs} traced; "
          f"untraced walls {summary['wall_s']} s, alert delay p50 {summary['p50_ms']} ms, "
          f"p99 {summary['p99_ms']} ms, cpu {summary['cpus']} s")
    last = comparisons[-1]
    error_rate = failed / attempted if attempted else 0.0
    print(f"# correctness: conn_error_rate {error_rate:.6f} "
          f"({failed}/{attempted} connections), expected per replay {last.expected}, "
          f"dropped {last.dropped}, accounting gap {last.accounting_gap}, "
          f"flood scored/drained/dropped {last.flood_scored}/{last.flood_drained}/"
          f"{last.flood_dropped}, CLI fidelity {'ok' if faithful else 'FAILED'}")
    print(f"# alert delay samples {summary['alert_delay_samples']} over the untraced replays "
          f"(excluded per replay {summary['alert_delay_excluded']}, "
          f"negative {summary['alert_delay_negative']})")
    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'conn_error_rate':28s} {error_rate:>16.6g} ratio")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.compare import compare_events
    from perfbench.inputs import InputCache, source_hash
    from perfbench.workloads import WORKLOADS, stream_args

    if options.workload not in WORKLOADS:
        print(f"error: unknown workload {options.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[options.workload]
    cache = InputCache(ROOT, options.seed)
    model = cache.model()
    capture = cache.capture(workload.capture)
    reference, properties = cache.reference(workload.capture)

    work = ROOT / "perfbench" / ".work"
    work.mkdir(parents=True, exist_ok=True)
    out_prefix = work / f"{workload.name}-{os.getpid()}"
    attempted = failed = 0
    comparisons = []
    try:
        measured = run_replays(workload, model, capture, out_prefix, bool(options.trace),
                               options.seconds)
        replays = measured["replays"]
        for index, result in enumerate(replays):
            lines = Path(f"{out_prefix}-{index}.ndjson").read_text(encoding="utf-8").splitlines()
            comparison = compare_events(
                [json.loads(line) for line in lines], reference,
                int(result["snapshot"]["capacity_drops"]),
            )
            comparisons.append(comparison)
            attempted += comparison.expected
            failed += comparison.errors
            if index == 0:
                faithful = fidelity(
                    lines, cli_lines(workload, model, capture),
                    stream_args(workload, model, capture).workers,
                )
    finally:
        for path in work.glob(f"{out_prefix.name}-*.ndjson"):
            path.unlink()
    untraced = [r for r in replays if not r["traced"]]
    traced = [r for r in replays if r["traced"]]

    summary = summarize(measured)
    metrics = (
        {name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END}
        if not options.trace
        else ledger(traced, untraced)
    )
    info = provenance(options.seed, properties, source_hash(ROOT))
    report(workload, info, summary, comparisons, faithful, attempted, failed, metrics,
           len(untraced), len(traced))
    print(json.dumps({
        "correct": failed == 0 and bool(faithful),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
