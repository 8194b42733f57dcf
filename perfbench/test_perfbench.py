"""Tests of the benchmark's own parts: delay lookup, span arithmetic, comparator.

Run with ``python3 -m pytest perfbench`` from the root of the checkout.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from perfbench.compare import Reference, compare_events
from perfbench.delay import alert_delays
from perfbench.run import fidelity
from perfbench.spans import Tracer, self_times

# --------------------------------------------------------------- alert delay
# Five ingested packets: timestamps (stream time) and the wall time at which
# each was handed to the detector.  The fourth packet is out of order.
STAMPS = np.array([10.0, 10.5, 11.6, 11.2, 75.0])
WALLS = np.array([100.0, 100.1, 100.2, 100.3, 100.4])


def _delays(events, close_wall=101.0):
    return alert_delays(STAMPS, WALLS, events, close_wall, close_grace=1.0, idle_timeout=60.0)


def test_closed_delay_starts_at_first_packet_past_the_grace():
    # last_seen 10.5 + grace 1.0 = 11.5: reached by the third packet (11.6).
    samples = _delays([(10.5, "closed", 100.25)])
    assert samples.seconds == pytest.approx([0.05])
    assert samples.excluded == 0


def test_closed_delay_uses_the_running_clock_not_the_packet_stamp():
    # 10.6 + 1.0 = 11.6: the third packet reaches it; the later out-of-order
    # packet (11.2) must not be picked.
    samples = _delays([(10.6, "closed", 100.5)])
    assert samples.seconds == pytest.approx([0.3])


def test_idle_delay_uses_the_idle_timeout():
    # 10.0 + 60 = 70.0: only the last packet (75.0) reaches it.
    samples = _delays([(10.0, "idle", 100.9)])
    assert samples.seconds == pytest.approx([0.5])


def test_grace_is_capped_by_the_idle_timeout():
    samples = alert_delays(STAMPS, WALLS, [(10.0, "closed", 100.2)], 101.0,
                           close_grace=5.0, idle_timeout=0.5)
    # min(5.0, 0.5) = 0.5: 10.5 is reached by the second packet.
    assert samples.seconds == pytest.approx([0.1])


def test_drain_delay_starts_at_close():
    samples = _delays([(75.0, "drain", 101.25)], close_wall=101.0)
    assert samples.seconds == pytest.approx([0.25])


def test_unreachable_and_capacity_completions_are_excluded():
    samples = _delays([(74.5, "closed", 102.0), (10.0, "capacity", 100.2)])
    assert samples.seconds.size == 0
    assert samples.excluded == 2
    assert np.isnan(samples.percentile_ms(50))


def test_percentiles_are_in_milliseconds():
    events = [(10.5, "closed", 100.2 + step / 1000) for step in range(1, 101)]
    samples = _delays(events)
    assert samples.percentile_ms(50) == pytest.approx(50.5)


# ----------------------------------------------------------------- self time
def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > child [1, 5] > grandchild [2, 3]; second child [6, 8].
    names = ["root", "child", "grandchild", "child"]
    starts = [0.0, 1.0, 2.0, 6.0]
    ends = [10.0, 5.0, 3.0, 8.0]
    parents = [-1, 0, 1, 0]
    totals = self_times(names, starts, ends, parents)
    assert totals == pytest.approx({"root": 4.0, "child": 5.0, "grandchild": 1.0})
    assert sum(totals.values()) == pytest.approx(10.0)


class _FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class _Layer:
    def __init__(self, clock: _FakeClock) -> None:
        self.clock = clock

    def outer(self) -> int:
        self.clock.advance(1.0)
        value = self.inner() + self.inner()
        self.clock.advance(0.5)
        return value

    def inner(self) -> int:
        self.clock.advance(2.0)
        return 1

    def blocks(self):
        for item in range(3):
            self.clock.advance(0.25)
            yield item


def test_tracer_records_nested_spans_and_restores_the_class():
    clock = _FakeClock()
    tracer = Tracer(clock)
    tracer.wrap(_Layer, "outer", "outer", lambda counts, args, result: counts.update(["calls"]))
    tracer.wrap(_Layer, "inner", "inner")
    tracer.wrap_generator(_Layer, "blocks", "blocks")
    layer = _Layer(clock)
    assert layer.outer() == 2
    for _ in layer.blocks():
        clock.advance(10.0)  # consumer work is not part of the span
    totals = self_times(tracer.names, tracer.starts, tracer.ends, tracer.parents)
    assert totals == pytest.approx({"outer": 1.5, "inner": 4.0, "blocks": 0.75})
    assert tracer.counts["calls"] == 1
    assert tracer.counts["blocks.items"] == 3
    tracer.uninstall()
    assert "outer" in vars(_Layer) and _Layer.outer.__name__ == "outer"
    assert not hasattr(_Layer.outer, "__wrapped__")


def test_uninstall_removes_a_wrapper_set_on_a_subclass():
    class Child(_Layer):
        pass

    tracer = Tracer(_FakeClock())
    tracer.wrap(Child, "inner", "inner")
    assert "inner" in vars(Child)
    tracer.uninstall()
    assert "inner" not in vars(Child)


# ---------------------------------------------------------------- comparator
REFERENCE = [
    Reference("a", 1.0, 10, 0.01, False),
    Reference("b", 2.0, 5, 0.5, True),
    Reference("c", 3.0, 1, 0.02, False, may_drop=True, flood=True),
]


def _event(row: Reference, **changes) -> dict:
    event = {"connection": row.connection, "first_seen": row.first_seen,
             "packet_count": row.packet_count, "score": row.score,
             "adversarial": row.adversarial, "completed_by": "closed"}
    event.update(changes)
    return event


def test_matching_events_and_an_accounted_drop_have_no_errors():
    result = compare_events([_event(REFERENCE[0]), _event(REFERENCE[1])], REFERENCE, dropped=1)
    assert result.errors == 0
    assert result.expected == 2
    assert result.flood_dropped == 1


def test_score_within_tolerance_passes_and_beyond_fails():
    close = _event(REFERENCE[0], score=0.01 + 5e-10)
    far = _event(REFERENCE[1], score=0.5 + 2e-9)
    result = compare_events([close, far, _event(REFERENCE[2])], REFERENCE, dropped=0)
    assert result.wrong == 1
    assert result.errors == 1


def test_wrong_packet_count_verdict_or_key_is_flagged():
    events = [
        _event(REFERENCE[0], packet_count=11),
        _event(REFERENCE[1], adversarial=False),
        _event(REFERENCE[2], connection="zz"),
    ]
    result = compare_events(events, REFERENCE, dropped=0)
    assert result.wrong == 3


def test_missing_required_event_is_flagged():
    result = compare_events([_event(REFERENCE[1]), _event(REFERENCE[2])], REFERENCE, dropped=0)
    assert result.missing == 1
    assert result.errors == 1


def test_duplicate_event_is_flagged():
    events = [_event(REFERENCE[0]), _event(REFERENCE[0]), _event(REFERENCE[1]),
              _event(REFERENCE[2], completed_by="drain")]
    result = compare_events(events, REFERENCE, dropped=0)
    assert result.duplicated == 1
    assert result.errors == 1
    assert result.flood_drained == 1


def test_unaccounted_drop_breaks_the_identity():
    # The droppable connection has no event and the program reports no drop.
    result = compare_events([_event(REFERENCE[0]), _event(REFERENCE[1])], REFERENCE, dropped=0)
    assert result.accounting_gap == 1
    assert result.errors == 1


# ------------------------------------------------------------------ fidelity
def test_fidelity_is_byte_exact_for_one_worker_and_tolerant_for_several():
    lines = [json.dumps(_event(row)) for row in REFERENCE]
    nudged = [json.dumps(_event(REFERENCE[0], score=0.01 + 1e-17)), *lines[1:]]
    assert fidelity(lines, list(lines), workers=1)
    assert not fidelity(lines, nudged, workers=1)
    assert not fidelity(lines, lines[::-1], workers=1)
    assert fidelity(lines, nudged[::-1], workers=2)
    assert not fidelity(lines, lines[:2], workers=2)
    assert not fidelity(lines, [json.dumps(_event(REFERENCE[0], score=0.5)), *lines[1:]],
                        workers=2)


# ----------------------------------------------------------------- contract
def test_benchmark_json_matches_the_code():
    from pathlib import Path

    from perfbench.run import END_TO_END, PER_LAYER_UNITS
    from perfbench.workloads import WORKLOADS

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER_UNITS.items())
    for workload in spec["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why
