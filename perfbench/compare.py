"""Compare a replay's NDJSON events with the offline reference.

The reference is built once per capture with ``assemble_connections`` and
``Clap.detect_batch`` on the same loaded model the replay serves.  A
connection is identified by its flow key and first timestamp.  An event is
*wrong* when no reference connection has its identity, or when its packet
count or verdict differs, or its score is more than ``tolerance`` away.

Every reference connection must end in exactly one of two ways: one event,
or one admission drop (``capacity_drops`` of the program's metrics).  Only
connections marked ``may_drop`` in the reference may be dropped; the rest
are *required*.  The accounting gap — droppable connections without an event
that the drop count does not cover, or drops beyond them — counts as an
error too.  For a flood this is the identity
``flood scored + flood drained + flood dropped = flood flows``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

SCORE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Reference:
    """One offline-scored connection."""

    connection: str
    first_seen: float
    packet_count: int
    score: float
    adversarial: bool
    may_drop: bool = False
    flood: bool = False

    @property
    def identity(self) -> tuple[str, float]:
        return (self.connection, self.first_seen)


@dataclass(frozen=True)
class Comparison:
    """Outcome of one replay against the reference."""

    expected: int
    matched: int
    missing: int
    duplicated: int
    wrong: int
    dropped: int
    accounting_gap: int
    flood_scored: int
    flood_drained: int
    flood_dropped: int

    @property
    def errors(self) -> int:
        return self.missing + self.duplicated + self.wrong + self.accounting_gap

    @property
    def error_rate(self) -> float:
        return self.errors / self.expected if self.expected else 0.0


def compare_events(
    events: list[dict],
    reference: list[Reference],
    dropped: int,
    *,
    tolerance: float = SCORE_TOLERANCE,
) -> Comparison:
    """Check ``events`` against ``reference``; ``dropped`` is the program's
    count of connections it refused to score."""
    by_identity = {row.identity: row for row in reference}
    seen: Counter[tuple[str, float]] = Counter()
    wrong = 0
    flood_scored = flood_drained = 0
    for event in events:
        identity = (event.get("connection"), event.get("first_seen"))
        row = by_identity.get(identity)
        if row is None:
            wrong += 1
            continue
        seen[identity] += 1
        if seen[identity] > 1:
            continue
        if (
            event.get("packet_count") != row.packet_count
            or event.get("adversarial") != row.adversarial
            or not abs(float(event.get("score", float("nan"))) - row.score) <= tolerance
        ):
            wrong += 1
        if row.flood:
            if event.get("completed_by") == "drain":
                flood_drained += 1
            else:
                flood_scored += 1
    duplicated = sum(count - 1 for count in seen.values())
    unseen = [row for row in reference if row.identity not in seen]
    required_missing = sum(1 for row in unseen if not row.may_drop)
    # Identity: every droppable connection without an event was dropped, and
    # the program dropped nothing else.
    accounting_gap = abs(len(unseen) - required_missing - dropped)
    return Comparison(
        expected=len(reference) - dropped,
        matched=len(seen),
        missing=required_missing,
        duplicated=duplicated,
        wrong=wrong,
        dropped=dropped,
        accounting_gap=accounting_gap,
        flood_scored=flood_scored,
        flood_drained=flood_drained,
        flood_dropped=sum(1 for row in unseen if row.flood),
    )
