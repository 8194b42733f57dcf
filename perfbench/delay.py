"""Alert delay: wall time from a connection's completion to its event line.

Each replay records ``(timestamp, wall)`` for every ingested packet and the
wall time of every written event line.  After the replay, each scored
connection's completion moment is looked up on that timeline:

* ``closed`` — the ingest of the first packet whose timestamp brings the
  stream clock (the running maximum of packet timestamps) to
  ``last_seen + grace``, where grace is ``min(close_grace, idle_timeout)``;
* ``idle`` — the same with ``last_seen + idle_timeout``;
* ``drain`` — the ``close()`` call at the end of the stream.

Capacity evictions complete at a packet that cannot be derived from
timestamps alone; they are excluded and counted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DelaySamples:
    """Per-connection alert delays (seconds) and the connections left out."""

    seconds: np.ndarray
    excluded: int

    def percentile_ms(self, q: float) -> float:
        """The ``q``-th percentile in milliseconds (NaN without samples)."""
        if self.seconds.size == 0:
            return float("nan")
        return float(np.percentile(self.seconds, q)) * 1000.0


def alert_delays(
    stamps: np.ndarray,
    walls: np.ndarray,
    events: list[tuple[float, str, float]],
    close_wall: float,
    *,
    close_grace: float,
    idle_timeout: float,
) -> DelaySamples:
    """Delays of ``events``, each ``(last_seen, completed_by, written_wall)``.

    ``stamps``/``walls`` are the timestamp and the pre-ingest wall time of
    every ingested packet, in ingest order.
    """
    clock = np.maximum.accumulate(np.asarray(stamps, dtype=np.float64))
    walls = np.asarray(walls, dtype=np.float64)
    grace = min(close_grace, idle_timeout)
    delays: list[float] = []
    excluded = 0
    for last_seen, reason, written in events:
        if reason == "drain":
            started = close_wall
        elif reason in ("closed", "idle"):
            wait = grace if reason == "closed" else idle_timeout
            position = int(np.searchsorted(clock, last_seen + wait, side="left"))
            if position >= clock.size:
                excluded += 1
                continue
            started = walls[position]
        else:
            excluded += 1
            continue
        delays.append(written - started)
    return DelaySamples(np.asarray(delays, dtype=np.float64), excluded)
