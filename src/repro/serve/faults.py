"""Deterministic, seedable fault injection for the serving stack.

A :class:`FaultPlan` is a passive schedule of faults that the serving
components consult at well-defined hook points:

``packet_routed(count)``
    Called by :class:`~repro.serve.partition.FlowPartitioner` with the
    packets routed since its last call (it routes capture blocks in runs
    that end at the next due fault, see ``packets_until_due``; the
    :class:`~repro.serve.runtime.ParallelStreamingDetector` process mode is
    that front-end).  Returns the list of process-level faults
    (``kill-instance``, ``kill-worker``, ``wedge-instance``,
    ``wedge-worker``) whose trigger packet has been reached.  The caller
    applies them (SIGKILL, wedge control message) because only the caller
    knows the pid / queue for a given index.
``frame_fault(tag)``
    Called by the partitioner before each wire frame is sent.  Returns an
    action (``"drop"``, ``"corrupt"``, ``("delay", seconds)``) or ``None``.
``connect_attempt(index)``
    Called before each connect to instance ``index``.  Returns True when a
    synthetic connection refusal should be injected.

All randomness (corruption bytes) flows from one seeded
``numpy.random.default_rng`` so a plan replays identically; the plan keeps
a ``fired`` log so tests can assert exactly which faults triggered.  A plan
never crosses a process boundary — it lives in the front-end process and
acts on child processes from the outside.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = ["FaultPlan", "FaultSpecError", "parse_fault_specs"]


class FaultSpecError(ValueError):
    """A ``--inject-fault`` spec string could not be parsed."""


@dataclass(frozen=True)
class _ProcessFault:
    """A fault that targets a process (instance or shard worker)."""

    kind: str  # "kill-instance" | "kill-worker" | "wedge-instance" | "wedge-worker"
    index: int
    at_packet: int


@dataclass(frozen=True)
class _FrameFault:
    """A fault applied to the nth wire frame carrying ``tag``."""

    kind: str  # "drop" | "corrupt" | "delay"
    tag: str
    nth: int
    seconds: float = 0.0


@dataclass
class FaultPlan:
    """A deterministic schedule of injected faults.

    Build one with the fluent methods (each returns ``self``)::

        plan = (FaultPlan(seed=7)
                .kill_instance(0, at_packet=40)
                .corrupt_frame("ROWS", nth=3))

    or parse CLI specs with :func:`parse_fault_specs`.
    """

    seed: int = 0
    _process_faults: list = field(default_factory=list)
    _frame_faults: list = field(default_factory=list)
    _refusals: dict = field(default_factory=dict)
    fired: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        self._packets = 0
        self._frame_counts: dict[str, int] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # builders
    def kill_instance(self, index: int, at_packet: int) -> FaultPlan:
        """SIGKILL locally-spawned instance ``index`` at routed packet N."""
        self._process_faults.append(_ProcessFault("kill-instance", index, at_packet))
        return self

    def kill_worker(self, index: int, at_packet: int) -> FaultPlan:
        """SIGKILL shard process worker ``index`` at ingested packet N."""
        self._process_faults.append(_ProcessFault("kill-worker", index, at_packet))
        return self

    def wedge_instance(self, index: int, at_packet: int) -> FaultPlan:
        """Make instance ``index`` stop reading its socket (wedged peer)."""
        self._process_faults.append(_ProcessFault("wedge-instance", index, at_packet))
        return self

    def wedge_worker(self, index: int, at_packet: int) -> FaultPlan:
        """Wedge shard worker ``index``'s input queue (stops consuming)."""
        self._process_faults.append(_ProcessFault("wedge-worker", index, at_packet))
        return self

    def refuse_connect(self, index: int, times: int = 1) -> FaultPlan:
        """Synthetically refuse the next ``times`` connects to ``index``."""
        with self._lock:
            self._refusals[index] = self._refusals.get(index, 0) + times
        return self

    def drop_frame(self, tag: str, nth: int) -> FaultPlan:
        """Silently drop the nth frame carrying ``tag`` (1-based)."""
        self._frame_faults.append(_FrameFault("drop", tag, nth))
        return self

    def corrupt_frame(self, tag: str, nth: int) -> FaultPlan:
        """Flip seeded random bytes in the nth frame carrying ``tag``."""
        self._frame_faults.append(_FrameFault("corrupt", tag, nth))
        return self

    def delay_frame(self, tag: str, nth: int, seconds: float) -> FaultPlan:
        """Sleep ``seconds`` before sending the nth frame carrying ``tag``."""
        self._frame_faults.append(_FrameFault("delay", tag, nth, seconds))
        return self

    # ------------------------------------------------------------------
    # hooks
    def packet_routed(self, count: int = 1) -> list:
        """Advance the packet clock; return process faults now due."""
        with self._lock:
            self._packets += count
            due = [f for f in self._process_faults if f.at_packet <= self._packets]
            for fault in due:
                self._process_faults.remove(fault)
                self.fired.append((fault.kind, fault.index, self._packets))
            return [(f.kind, f.index) for f in due]

    def packets_until_due(self) -> int | None:
        """Packets still to route before the next process fault is due
        (``None`` when none is scheduled); lets a router that counts packets
        in runs stop its run exactly there."""
        with self._lock:
            if not self._process_faults:
                return None
            return min(fault.at_packet for fault in self._process_faults) - self._packets

    def frame_fault(self, tag: str):
        """Return the action for this frame: None, "drop", "corrupt", ("delay", s)."""
        with self._lock:
            count = self._frame_counts.get(tag, 0) + 1
            self._frame_counts[tag] = count
            for fault in self._frame_faults:
                if fault.tag == tag and fault.nth == count:
                    self._frame_faults.remove(fault)
                    self.fired.append((f"{fault.kind}-frame", tag, count))
                    if fault.kind == "delay":
                        return ("delay", fault.seconds)
                    return fault.kind
        return None

    def connect_attempt(self, index: int) -> bool:
        """True when this connect to ``index`` should be refused."""
        with self._lock:
            remaining = self._refusals.get(index, 0)
            if remaining > 0:
                self._refusals[index] = remaining - 1
                self.fired.append(("refuse-connect", index, self._packets))
                return True
        return False

    def corrupt(self, payload: bytes) -> bytes:
        """Flip 1-4 seeded random bytes of ``payload`` (never a no-op)."""
        if not payload:
            return b"\xff"
        data = bytearray(payload)
        with self._lock:
            flips = int(self._rng.integers(1, 5))
            for _ in range(flips):
                pos = int(self._rng.integers(0, len(data)))
                data[pos] ^= int(self._rng.integers(1, 256))
        return bytes(data)


_PROCESS_KINDS = {"kill-instance", "kill-worker", "wedge-instance", "wedge-worker"}
_FRAME_KINDS = {"drop-frame", "corrupt-frame", "delay-frame"}


def parse_fault_specs(specs, seed: int = 0) -> FaultPlan:
    """Parse CLI ``--inject-fault`` spec strings into a :class:`FaultPlan`.

    Grammar (one spec per string)::

        kill-instance:IDX@N      SIGKILL instance IDX at routed packet N
        kill-worker:IDX@N        SIGKILL shard worker IDX at packet N
        wedge-instance:IDX@N     wedge instance IDX at packet N
        wedge-worker:IDX@N       wedge worker IDX's queue at packet N
        refuse-connect:IDX       refuse the next connect to instance IDX
        refuse-connect:IDX*K     refuse the next K connects
        drop-frame:TAG#K         drop the Kth TAG frame
        corrupt-frame:TAG#K      corrupt the Kth TAG frame
        delay-frame:TAG#K@SECS   delay the Kth TAG frame by SECS seconds
    """
    plan = FaultPlan(seed=seed)
    for spec in specs:
        kind, _, rest = spec.partition(":")
        if not rest:
            raise FaultSpecError(f"fault spec {spec!r}: expected KIND:ARGS")
        try:
            if kind in _PROCESS_KINDS:
                index_text, _, packet_text = rest.partition("@")
                if not packet_text:
                    raise FaultSpecError(
                        f"fault spec {spec!r}: expected {kind}:IDX@PACKET"
                    )
                fault = _ProcessFault(kind, int(index_text), int(packet_text))
                plan._process_faults.append(fault)
            elif kind == "refuse-connect":
                index_text, _, times_text = rest.partition("*")
                plan.refuse_connect(int(index_text), int(times_text) if times_text else 1)
            elif kind in _FRAME_KINDS:
                tag, _, nth_text = rest.partition("#")
                if not nth_text:
                    raise FaultSpecError(f"fault spec {spec!r}: expected {kind}:TAG#K")
                if kind == "delay-frame":
                    nth_text, _, secs_text = nth_text.partition("@")
                    if not secs_text:
                        raise FaultSpecError(
                            f"fault spec {spec!r}: expected delay-frame:TAG#K@SECS"
                        )
                    plan.delay_frame(tag, int(nth_text), float(secs_text))
                else:
                    fault = _FrameFault(kind.removesuffix("-frame"), tag, int(nth_text))
                    plan._frame_faults.append(fault)
            else:
                raise FaultSpecError(f"fault spec {spec!r}: unknown kind {kind!r}")
        except ValueError as error:
            if isinstance(error, FaultSpecError):
                raise
            raise FaultSpecError(f"fault spec {spec!r}: {error}") from error
    return plan
