"""Span tracing from outside the program: wrap each layer's public calls.

Nothing under ``src/`` is instrumented.  :func:`install` replaces a fixed set
of public functions and methods with wrappers that record one span per call
(name, start, end, parent span) into a :class:`Tracer`; :func:`self_times`
turns the recorded spans into per-layer self time, i.e. each span's duration
minus the part of it covered by its child spans.  Spans stay in memory and
are aggregated once, after the replay.

The wrappers are installed after the detector is built, so worker processes
forked during set-up run the untraced code; their work shows only through
the program's own ``metrics_snapshot()``.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from collections.abc import Callable, Iterator


class Tracer:
    """In-memory span recorder for a single thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object | None]] = []

    def open(self, name: str) -> int:
        """Start a span under the innermost open span; returns its index."""
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int) -> None:
        """End span ``index`` (the innermost open one)."""
        self.ends[index] = self.clock()
        self._stack.pop()

    # ------------------------------------------------------------- patching
    def wrap(
        self,
        owner: object,
        attribute: str,
        name: str,
        count: Callable[[Counter, tuple, object], None] | None = None,
    ) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``count(counts, args, result)`` runs after each call, outside the span.
        """
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if count is not None:
                count(tracer.counts, args, result)
            return result

        self._patch(owner, attribute, traced)

    def wrap_generator(self, owner: object, attribute: str, name: str) -> None:
        """Like :meth:`wrap` for a generator function: one span per ``next``.

        The consumer's work between two items is not part of the span.
        """
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs) -> Iterator[object]:
            iterator = original(*args, **kwargs)
            while True:
                index = tracer.open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.close(index)
                tracer.counts[name + ".items"] += 1
                yield item

        self._patch(owner, attribute, traced)

    def _patch(self, owner: object, attribute: str, traced: object) -> None:
        # Remember the owner's own binding (None when inherited) for uninstall.
        own = vars(owner).get(attribute)
        self._restore.append((owner, attribute, own))
        setattr(owner, attribute, traced)

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._restore:
            owner, attribute, own = self._restore.pop()
            if own is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)


def self_times(
    names: list[str], starts: list[float], ends: list[float], parents: list[int]
) -> dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the durations of its direct
    children.  Children of one span never overlap (one thread), so this is
    the part of the span that no child covers.
    """
    durations = [end - start for start, end in zip(starts, ends, strict=True)]
    covered = [0.0] * len(durations)
    for index, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += durations[index]
    totals: dict[str, float] = {}
    for name, duration, child_time in zip(names, durations, covered, strict=True):
        totals[name] = totals.get(name, 0.0) + duration - child_time
    return totals


# --------------------------------------------------------------- layer map
#: Span names of the model stages (used for the model share of self time).
MODEL_SPANS = ("profile.build", "gru.gates", "autoencoder.error", "detector.stage_d")

#: Every span name :func:`install` can record, in serving-path order.
SPAN_NAMES = (
    "pcap.parse",
    "columns.views",
    "runtime.route",
    "flow.add",
    "metrics.admission",
    "engine.flush",
    "engine.detect",
    "fields.extract",
    "fields.fallback",
    *MODEL_SPANS,
    "runtime.wait",
    "events.emit",
)


def _count_trains(counts: Counter, args: tuple, result: object) -> None:
    counts["fields.pkts"] += sum(len(train) for train in args[1])


def _count_fallback(counts: Counter, args: tuple, result: object) -> None:
    counts["fields.fallback_trains"] += 1
    counts["fields.fallback_pkts"] += len(args[1])


def _count_gates(counts: Counter, args: tuple, result: object) -> None:
    counts["gru.pkts"] += int(result[2][-1]) if len(result[2]) else 0


def _count_rows(counts: Counter, args: tuple, result: object) -> None:
    counts["autoencoder.rows"] += int(args[1].shape[0])


def _count_batch(counts: Counter, args: tuple, result: object) -> None:
    counts["engine.batches"] += 1
    counts["engine.conns"] += len(args[1])


def install(tracer: Tracer, detector_class: type) -> None:
    """Wrap the public entry points of every serving-path layer.

    ``detector_class`` is the front-end class a replay calls (its
    ``ingest`` is the routing span, ``events``/``close`` the waiting span).
    """
    from repro.core import engine
    from repro.core.engine import BatchInferenceEngine
    from repro.features.fields import RawFeatureExtractor
    from repro.features.profile import ContextProfileBuilder
    from repro.netstack.columns import PacketColumns
    from repro.netstack.flow import FlowTable
    from repro.netstack.pcap import PcapReader
    from repro.nn.autoencoder import Autoencoder
    from repro.nn.gru import GRUSequenceClassifier
    from repro.serve import streaming
    from repro.serve.streaming import StreamingDetector

    tracer.wrap_generator(PcapReader, "iter_column_blocks", "pcap.parse")
    tracer.wrap(PacketColumns, "views", "columns.views")
    tracer.wrap(detector_class, "ingest", "runtime.route")
    tracer.wrap_generator(detector_class, "events", "runtime.wait")
    tracer.wrap(detector_class, "close", "runtime.wait")
    tracer.wrap(FlowTable, "add", "flow.add")
    tracer.wrap(streaming, "apply_drop_policy", "metrics.admission")
    tracer.wrap(StreamingDetector, "flush", "engine.flush")
    tracer.wrap(BatchInferenceEngine, "detect", "engine.detect", _count_batch)
    tracer.wrap(ContextProfileBuilder, "batch_stacked_profiles", "profile.build")
    tracer.wrap(RawFeatureExtractor, "extract_packet_trains", "fields.extract", _count_trains)
    tracer.wrap(
        RawFeatureExtractor, "extract_packets_reference", "fields.fallback", _count_fallback
    )
    tracer.wrap(GRUSequenceClassifier, "gate_activations_concat", "gru.gates", _count_gates)
    tracer.wrap(Autoencoder, "reconstruction_error", "autoencoder.error", _count_rows)
    for function in ("adversarial_score_batch", "localize_window_batch",
                     "window_center_packet_batch"):
        tracer.wrap(engine, function, "detector.stage_d")
