#!/usr/bin/env python
"""Backend smoke test for CI: the one GRU in its two compute dtypes.

Trains a deliberately tiny model with no fixtures, round-trips it as ``gru``
(float64) and ``gru-f32`` (float32) through ``save``/``Clap.load`` both
eagerly and via read-only mmap, and checks that ``score --json --backend
gru-f32`` agrees with ``gru`` within ``FLOAT32_TOLERANCE``
(:mod:`repro.core.equivalence`).  Finally it relabels the artifact with a
foreign sequence backend, in the archive and in the manifest, and requires
``score`` to refuse it with exit code 2.  The point is not accuracy — it is
that persistence, the manifest identity and the compute modes hold together
as a process would run them.

Run with:  PYTHONPATH=src python tools/backend_smoke.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.cli import main as cli_main
from repro.core.equivalence import FLOAT32_TOLERANCE, score_equivalence_report
from repro.core.pipeline import SERVING_BACKENDS, Clap
from repro.nn.gru import encode_backend_name
from repro.nn.serialization import load_state, save_state

CONNECTIONS = 24
FOREIGN_BACKEND = "mamba"


def run(argv: list, capture: bool = False) -> tuple:
    """Invoke the CLI in-process, optionally capturing stdout and stderr."""
    print(f"$ repro-clap {' '.join(argv)}", file=sys.stderr)
    if not capture:
        return cli_main(argv), "", ""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def scores_from_json(payload: str) -> dict:
    results = json.loads(payload)["results"]
    return {row["connection"]: float(row["score"]) for row in results}


def fail(message: str) -> int:
    print(f"backend smoke FAILED: {message}", file=sys.stderr)
    return 1


def relabel(source: Path, target: Path, backend: str) -> None:
    """Copy the artifact at ``source`` to ``target`` naming ``backend``."""
    shutil.copytree(source, target)
    archive = target / "clap_model.npz"
    state = dict(load_state(archive))
    state["rnn/meta/backend"] = encode_backend_name(backend)
    save_state(archive, state)
    manifest_path = target / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["sequence_backend"] = backend
    manifest_path.write_text(json.dumps(manifest))


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        work = Path(workdir)
        capture_path = work / "smoke.pcap"

        code, _, _ = run(["generate", str(capture_path),
                          "--connections", str(CONNECTIONS), "--seed", "11"])
        if code != 0:
            return fail("generate exited non-zero")

        model_dir = work / "model"
        code, _, _ = run(["train", str(model_dir), "--pcap", str(capture_path),
                          "--fast", "--rnn-epochs", "3", "--ae-epochs", "10",
                          "--seed", "11"])
        if code != 0:
            return fail("train exited non-zero")
        manifest = json.loads((model_dir / "manifest.json").read_text())
        if manifest["sequence_backend"] != "gru":
            return fail(f"manifest records {manifest['sequence_backend']!r}, expected 'gru'")

        # Round trip both compute modes eagerly and via read-only mmap.
        base = Clap.load(model_dir)
        sample = _sample_connections(capture_path)
        for backend in SERVING_BACKENDS:
            served_dir = work / f"serving-{backend}"
            base.with_backend(backend).save(served_dir)
            expected = None
            for mmap_mode in (None, "r"):
                restored = Clap.load(served_dir, mmap_mode=mmap_mode)
                if restored.serving_backend != backend:
                    return fail(
                        f"{'mmap' if mmap_mode else 'eager'} load restored "
                        f"{restored.serving_backend!r}, expected {backend!r}"
                    )
                scores = restored.score_connections(sample)
                if expected is None:
                    expected = scores
                elif not np.array_equal(expected, scores):
                    return fail(f"{backend}: mmap load scores diverge from eager")

        # score --json in both modes: gru-f32 within FLOAT32_TOLERANCE of gru.
        outputs = {}
        for backend in SERVING_BACKENDS:
            code, out, _ = run(["score", str(model_dir), str(capture_path),
                                "--json", "--backend", backend], capture=True)
            if code != 0:
                return fail(f"score --backend {backend} exited non-zero")
            outputs[backend] = scores_from_json(out)
            if len(outputs[backend]) != CONNECTIONS:
                return fail(
                    f"score --backend {backend} returned "
                    f"{len(outputs[backend])} rows, expected {CONNECTIONS}"
                )
        keys = sorted(outputs["gru"])
        report = score_equivalence_report(
            np.array([outputs["gru"][key] for key in keys]),
            np.array([outputs["gru-f32"][key] for key in keys]),
            tolerance=FLOAT32_TOLERANCE,
            threshold=base.threshold,
        )
        if not report.passed:
            return fail(f"--backend gru-f32: {report.summary()}")

        # An artifact naming any other sequence backend is refused cleanly.
        foreign_dir = work / "foreign"
        relabel(model_dir, foreign_dir, FOREIGN_BACKEND)
        code, _, err = run(["score", str(foreign_dir), str(capture_path), "--json"],
                           capture=True)
        if code != 2 or "error:" not in err or FOREIGN_BACKEND not in err:
            return fail(
                f"score on a {FOREIGN_BACKEND!r} artifact exited {code} "
                f"with stderr {err.strip()!r}; expected exit 2 naming the backend"
            )

    print(
        f"backend smoke OK: gru and gru-f32 round-tripped eager+mmap, "
        f"score --json within tolerance on {CONNECTIONS} connections, "
        f"{FOREIGN_BACKEND!r} artifact refused",
        file=sys.stderr,
    )
    return 0


def _sample_connections(capture_path: Path):
    from repro.netstack.flow import assemble_connections
    from repro.netstack.pcap import read_pcap

    return assemble_connections(read_pcap(capture_path))[:6]


if __name__ == "__main__":
    raise SystemExit(main())
