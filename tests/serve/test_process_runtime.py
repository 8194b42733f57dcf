"""Local worker processes: equivalence, parity, the in-flight bound, cleanup.

``worker_mode="process"`` emits the identical event set (same keys, scores
within 1e-9, same ``(first_seen, key)`` close order) as one in-process
detector at workers ∈ {1, 2, 4}, on both columnar and object ingest, and
from pcap bytes with blocks small enough that connections span them;
metrics aggregate across processes; no worker ever has more than
``queue_depth`` frames unanswered; and the lifecycle bugs (run() leaking
workers on a source error, close() after a worker failure) stay fixed.
"""

from __future__ import annotations

import json
import multiprocessing
import threading
import time

import pytest

from repro.features.fields import RawFeatureExtractor
from repro.netstack.columns import ColumnPacketView, PacketColumns
from repro.netstack.flow import CompletionReason, assemble_connections, flow_key_of
from repro.netstack.flow import packet_stream as _packet_stream
from repro.netstack.pcap import read_packet_columns, write_pcap
from repro.serve import (
    DetectorInstance,
    DropPolicy,
    FaultPlan,
    FlowPartitioner,
    FlushPolicy,
    InstanceConfig,
    IterableSource,
    ParallelStreamingDetector,
    StreamingDetector,
    StreamingMetrics,
    Tick,
    open_source,
)
from repro.serve import partition as partition_module
from repro.serve.wire import (
    FRAME_HEADER,
    TAG_BLCK,
    TAG_CTRL,
    TAG_DONE,
    TAG_EVNT,
    TAG_ROWS,
    decode_control,
    encode_answer,
    encode_control,
    send_frame,
)
from repro.traffic.generator import TrafficGenerator

from tests.serve.test_flood import FLOOD_SIZE, MAX_FLOWS, syn_flood


@pytest.fixture(scope="session")
def clap_model_dir(trained_clap, tmp_path_factory):
    """The trained pipeline saved once: process workers mmap this artifact."""
    directory = tmp_path_factory.mktemp("model") / "clap"
    trained_clap.save(directory)
    return directory


def _sequential_connections(count, seed=311, spacing=100.0):
    connections = TrafficGenerator(seed=seed).generate_connections(count)
    for index, connection in enumerate(connections):
        for position, packet in enumerate(connection.packets):
            packet.timestamp = index * spacing + position * 0.01
    return connections


def _rows(events):
    return sorted(
        (str(e.result.key), e.result.packet_count, e.result.score) for e in events
    )


def _drain_all(detector, stream):
    detector.ingest_many(stream)
    interim = list(detector.events())
    detector.close()
    return interim + list(detector.events())


def _single_rows(clap, stream, **options):
    """Events of one in-process detector: the reference of every test here."""
    return _rows(_drain_all(StreamingDetector(clap, **options), stream))


def _column_stream(connections):
    """The columnar replay of ``connections``: views over one shared block."""
    return PacketColumns.from_packets(_packet_stream(connections)).views()


def _shard_processes():
    return [p for p in multiprocessing.active_children() if p.name.startswith("clap-shard-")]


class TestProcessEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("ingest", ["object", "columnar"])
    def test_same_events_as_single_detector(
        self, trained_clap, clap_model_dir, small_dataset, workers, ingest
    ):
        """The acceptance criterion: identical event set vs one in-process
        detector at every worker count, on both ingest paths."""

        def stream():
            if ingest == "columnar":
                return _column_stream(small_dataset.test)
            return _packet_stream(small_dataset.test)

        expected = _single_rows(
            trained_clap,
            stream(),
            flush_policy=FlushPolicy(max_batch=4),
            idle_timeout=1e9,
            close_grace=1e9,
        )

        process = ParallelStreamingDetector(
            trained_clap,
            workers=workers,
            worker_mode="process",
            model_dir=clap_model_dir,
            flush_policy=FlushPolicy(max_batch=4),
            idle_timeout=1e9,
            close_grace=1e9,
        )
        got = _rows(_drain_all(process, stream()))
        assert [row[:2] for row in got] == [row[:2] for row in expected]
        assert all(abs(a[2] - b[2]) < 1e-9 for a, b in zip(got, expected))

    @pytest.mark.parametrize("workers", [1, 4])
    def test_realistic_timeouts_still_equivalent(
        self, trained_clap, clap_model_dir, workers
    ):
        connections = _sequential_connections(10)
        baseline = StreamingDetector(trained_clap, idle_timeout=50.0, close_grace=0.5)
        baseline.ingest_many(_packet_stream(connections))
        baseline.close()
        expected = _rows(baseline.events())

        process = ParallelStreamingDetector(
            trained_clap,
            workers=workers,
            worker_mode="process",
            model_dir=clap_model_dir,
            idle_timeout=50.0,
            close_grace=0.5,
        )
        got = _rows(_drain_all(process, _packet_stream(connections)))
        assert [row[:2] for row in got] == [row[:2] for row in expected]
        assert all(abs(a[2] - b[2]) < 1e-9 for a, b in zip(got, expected))

    def test_close_returns_sorted_events_and_is_idempotent(
        self, trained_clap, clap_model_dir
    ):
        connections = _sequential_connections(9)
        detector = ParallelStreamingDetector(
            trained_clap,
            workers=4,
            worker_mode="process",
            model_dir=clap_model_dir,
            idle_timeout=1e9,
            close_grace=1e9,
        )
        detector.ingest_many(_packet_stream(connections))
        final = detector.close()
        order = [(e.first_seen, str(e.result.key)) for e in final]
        assert order == sorted(order)
        assert len(final) == len(connections)
        assert detector.close() == []
        assert detector.flush() == []
        detector.poll()  # safe no-op after close
        with pytest.raises(RuntimeError):
            detector.ingest(_packet_stream(connections)[0])

    @pytest.mark.parametrize("workers,mode", [(1, "thread"), (2, "process")])
    def test_flush_barrier_scores_everything_pending(
        self, trained_clap, clap_model_dir, workers, mode
    ):
        # Flushed events are returned *and* dispatched (callbacks, events(),
        # counters), in process mode exactly as on one in-process detector.
        connections = _sequential_connections(5)
        seen, alerted = [], []
        detector = ParallelStreamingDetector(
            trained_clap,
            workers=workers,
            worker_mode=mode,
            model_dir=clap_model_dir,
            flush_policy=FlushPolicy(max_batch=64, max_buffered=1024, auto_flush=False),
            threshold=0.0,
            idle_timeout=1e9,
            close_grace=0.5,
            on_event=seen.append,
            on_alert=alerted.append,
        )
        detector.ingest_many(_packet_stream(connections))
        detector.poll()
        flushed = detector.flush()
        assert len(flushed) >= len(connections) - 1
        order = [(e.first_seen, str(e.result.key)) for e in flushed]
        assert order == sorted(order)
        assert detector.pending_connections == 0
        keys = sorted(str(e.result.key) for e in flushed)
        assert sorted(str(e.result.key) for e in seen) == keys
        assert sorted(str(e.result.key) for e in alerted) == keys
        assert sorted(str(e.result.key) for e in detector.events()) == keys
        assert detector.connections_seen == len(flushed)
        assert detector.alerts_emitted == len(flushed)
        assert detector.metrics_snapshot()["events_emitted"] == len(flushed)
        detector.close()

    def test_run_consumes_a_source_with_ticks(self, trained_clap, clap_model_dir):
        connections = _sequential_connections(5)
        stream = _packet_stream(connections)
        items = stream + [Tick(stream[-1].timestamp + 1e6)]
        detector = ParallelStreamingDetector(
            trained_clap,
            workers=2,
            worker_mode="process",
            model_dir=clap_model_dir,
            idle_timeout=1e9,
            close_grace=1.0,
        )
        detector.run(IterableSource(items))
        events = list(detector.events())
        assert len(events) == len(connections)
        assert all(event.completed_by.value == "closed" for event in events)

    def test_callbacks_fire_on_the_caller_side(self, trained_clap, clap_model_dir):
        connections = _sequential_connections(6)
        pushed = []
        detector = ParallelStreamingDetector(
            trained_clap,
            workers=2,
            worker_mode="process",
            model_dir=clap_model_dir,
            threshold=-1.0,  # everything alerts
            idle_timeout=1e9,
            close_grace=1e9,
            on_alert=pushed.append,
        )
        detector.ingest_many(_packet_stream(connections))
        detector.close()
        assert len(pushed) == len(connections)
        assert detector.alerts_emitted == len(connections)
        assert detector.connections_seen == len(connections)


class TestBackendProcessParity:
    """The float32 serving mode must survive the process runtime's mmap
    model sharing — workers restore the mode recorded in the artifact and
    score identically to one in-process detector."""

    @pytest.fixture(scope="class", params=["gru-f32"])
    def backend_setup(self, request, trained_clap, tmp_path_factory):
        converted = trained_clap.with_backend(request.param)
        directory = tmp_path_factory.mktemp("backend-model") / request.param
        converted.save(directory)
        return request.param, converted, directory

    def test_process_workers_match_single_detector(self, backend_setup, small_dataset):
        backend, converted, model_dir = backend_setup
        expected = _single_rows(
            converted,
            _packet_stream(small_dataset.test),
            flush_policy=FlushPolicy(max_batch=4),
            idle_timeout=1e9,
            close_grace=1e9,
        )

        process = ParallelStreamingDetector(
            converted,
            workers=2,
            worker_mode="process",
            model_dir=model_dir,
            flush_policy=FlushPolicy(max_batch=4),
            idle_timeout=1e9,
            close_grace=1e9,
        )
        got = _rows(_drain_all(process, _packet_stream(small_dataset.test)))
        assert [row[:2] for row in got] == [row[:2] for row in expected]
        assert all(abs(a[2] - b[2]) < 1e-9 for a, b in zip(got, expected))

    def test_inherited_model_keeps_the_converted_backend(self, backend_setup, small_dataset):
        """With no model_dir the workers inherit the (converted) pipeline
        across the fork — the conversion must not be lost."""
        backend, converted, _ = backend_setup
        expected = _single_rows(
            converted,
            _packet_stream(small_dataset.test[:6]),
            idle_timeout=1e9,
            close_grace=1e9,
        )

        process = ParallelStreamingDetector(
            converted,
            workers=2,
            worker_mode="process",
            idle_timeout=1e9,
            close_grace=1e9,
        )
        got = _rows(_drain_all(process, _packet_stream(small_dataset.test[:6])))
        assert [row[:2] for row in got] == [row[:2] for row in expected]
        assert all(abs(a[2] - b[2]) < 1e-9 for a, b in zip(got, expected))

    def test_mmap_load_reconstructs_the_backend(self, backend_setup):
        """The exact load the workers perform: mmap_mode="r" with a
        non-default backend in the manifest."""
        from repro.core.pipeline import Clap

        backend, converted, model_dir = backend_setup
        restored = Clap.load(model_dir, mmap_mode="r")
        assert restored.serving_backend == backend


def _parity_keys(snapshot):
    """The deterministic metrics signals every worker configuration shares."""
    return {
        "packets": sum(snapshot["packets_ingested"]),
        "completions_by_reason": snapshot["completions_by_reason"],
        "connections_scored": snapshot["connections_scored"],
        "events_emitted": snapshot["events_emitted"],
        "alerts_emitted": snapshot["alerts_emitted"],
        "capacity_drops": snapshot["capacity_drops"],
    }


class TestMetricsParity:
    def test_drain_metrics_agree_across_worker_counts_and_modes(
        self, trained_clap, clap_model_dir
    ):
        """Regression: workers=1 used to miss DRAIN completions (close()
        bypassed the drop-policy accounting), so its counters diverged from
        every multi-worker configuration's."""
        connections = _sequential_connections(8)
        snapshots = {}
        for label, kwargs in {
            "single": dict(workers=1),
            "processes": dict(workers=4, worker_mode="process", model_dir=clap_model_dir),
        }.items():
            detector = ParallelStreamingDetector(
                trained_clap, idle_timeout=1e9, close_grace=1e9, **kwargs
            )
            detector.ingest_many(_packet_stream(connections))
            detector.close()
            snapshots[label] = _parity_keys(detector.metrics_snapshot())
        assert snapshots["single"] == snapshots["processes"]
        assert snapshots["single"]["completions_by_reason"]["drain"] == len(connections)

    def test_flood_metrics_agree_across_worker_counts_and_modes(
        self, trained_clap, clap_model_dir
    ):
        flood = syn_flood(FLOOD_SIZE)
        snapshots = {}
        for label, kwargs in {
            "single": dict(workers=1),
            "processes": dict(workers=2, worker_mode="process", model_dir=clap_model_dir),
        }.items():
            detector = ParallelStreamingDetector(
                trained_clap,
                idle_timeout=1e9,
                close_grace=1e9,
                max_flows=MAX_FLOWS,
                drop_policy=DropPolicy(mode="drop"),
                **kwargs,
            )
            detector.ingest_many(flood)
            detector.close()
            snap = detector.metrics_snapshot()
            # Eviction *victims* differ across shard counts (documented), but
            # the accounting identities must hold everywhere.
            reasons = snap["completions_by_reason"]
            assert reasons["capacity"] + reasons["drain"] == FLOOD_SIZE
            assert snap["capacity_drops"] == reasons["capacity"]
            assert snap["events_emitted"] == reasons["drain"]
            snapshots[label] = sum(snap["packets_ingested"])
        assert set(snapshots.values()) == {FLOOD_SIZE}

    def test_process_snapshot_populates_occupancy_and_latency(
        self, trained_clap, clap_model_dir
    ):
        connections = _sequential_connections(6)
        stream = _packet_stream(connections)
        detector = ParallelStreamingDetector(
            trained_clap,
            workers=3,
            worker_mode="process",
            model_dir=clap_model_dir,
            idle_timeout=1e9,
            close_grace=1e9,
        )
        detector.ingest_many(stream)
        detector.close()
        snapshot = detector.metrics_snapshot()
        assert sum(snapshot["packets_ingested"]) == len(stream)
        assert snapshot["connections_scored"] == len(connections)
        assert snapshot["flush_latency"]["count"] > 0
        assert snapshot["shard_occupancy"] == [0, 0, 0]
        assert detector.render_metrics()  # renders without error


class TestLifecycle:
    def test_run_source_error_shuts_the_pool_down(self, trained_clap, clap_model_dir):
        """Satellite regression: run() used to leak workers when the source
        raised mid-stream (e.g. a strict-mode parse error)."""
        connections = _sequential_connections(4)

        def broken():
            yield from _packet_stream(connections)[:10]
            raise ValueError("malformed record")

        detector = ParallelStreamingDetector(
            trained_clap,
            workers=2,
            worker_mode="process",
            model_dir=clap_model_dir,
            idle_timeout=1e9,
            close_grace=1e9,
        )
        with pytest.raises(ValueError, match="malformed record"):
            detector.run(IterableSource(broken()))
        for process in _shard_processes():
            process.join(timeout=10.0)
        assert not _shard_processes()

    def test_worker_failure_surfaces_and_still_joins(self, trained_clap, tmp_path):
        """A worker that cannot even load its model reports the failure; the
        parent's close() still joins every process and raises."""
        detector = ParallelStreamingDetector(
            trained_clap,
            workers=2,
            worker_mode="process",
            model_dir=tmp_path / "no-such-model",
            idle_timeout=1e9,
            close_grace=1e9,
        )
        detector.ingest_many(_packet_stream(_sequential_connections(3)))
        with pytest.raises(RuntimeError, match="shard worker"):
            detector.close()
        for process in _shard_processes():
            process.join(timeout=10.0)
        assert not _shard_processes()

    def test_worker_failure_releases_flush_barrier(self, trained_clap, tmp_path):
        detector = ParallelStreamingDetector(
            trained_clap,
            workers=2,
            worker_mode="process",
            model_dir=tmp_path / "no-such-model",
            flush_policy=FlushPolicy(max_batch=64, auto_flush=False),
            idle_timeout=1e9,
            close_grace=0.5,
        )
        detector.ingest_many(_packet_stream(_sequential_connections(3)))
        # The barrier must terminate (failed workers still acknowledge it)
        # and surface the failure instead of blocking forever.
        with pytest.raises(RuntimeError, match="shard worker"):
            detector.flush()
        with pytest.raises(RuntimeError, match="shard worker"):
            detector.close()
        for process in _shard_processes():
            process.join(timeout=10.0)
        assert not _shard_processes()

    def test_run_after_worker_failure_raises_and_cleans_up(
        self, trained_clap, tmp_path
    ):
        detector = ParallelStreamingDetector(
            trained_clap,
            workers=2,
            worker_mode="process",
            model_dir=tmp_path / "no-such-model",
            idle_timeout=1e9,
            close_grace=1e9,
        )
        with pytest.raises(RuntimeError, match="shard worker"):
            detector.run(IterableSource(_packet_stream(_sequential_connections(4))))
        for process in _shard_processes():
            process.join(timeout=10.0)
        assert not _shard_processes()

    def test_killed_worker_never_wedges_ingest_or_close(
        self, trained_clap, clap_model_dir
    ):
        """Review regression: a worker killed outright (kill -9 / OOM) stops
        answering; the front-end must detect the dead process instead of
        blocking forever, and close() must still return.  Under ``fail`` the
        pool is torn down when the loss is raised, so close() has nothing
        left to report."""
        detector = ParallelStreamingDetector(
            trained_clap,
            workers=1,
            worker_mode="process",
            model_dir=clap_model_dir,
            chunk_size=1,
            queue_depth=1,
            idle_timeout=1e9,
            close_grace=1e9,
        )
        stream = _packet_stream(_sequential_connections(30))
        worker = detector._pool._instances[0].process
        worker.kill()
        worker.join(timeout=10.0)
        with pytest.raises(RuntimeError, match="died unexpectedly"):
            for packet in stream:
                detector.ingest(packet)
        assert detector.close() == []
        assert not _shard_processes()

    def test_revisited_block_past_the_cache_window_is_rebroadcast(
        self, trained_clap, clap_model_dir
    ):
        """Review regression: front-end and worker block caches must evict
        in lockstep (strict FIFO).  A block revisited after
        BLOCK_CACHE_DEPTH newer blocks used to stay 'live' on the front-end
        while the workers had already evicted it — rows then failed on
        valid input.  Now it is re-broadcast and the stream completes,
        equivalent to one in-process detector."""
        connections = _sequential_connections(12)
        blocks = [
            PacketColumns.from_packets(_packet_stream([connection])).views()
            for connection in connections
        ]
        # Half of block 0, then 11 further blocks (evicting block 0 from the
        # FIFO window), then block 0's remainder.
        items = blocks[0][:3]
        for views in blocks[1:]:
            items.extend(views)
        items.extend(blocks[0][3:])

        expected = _single_rows(trained_clap, list(items), idle_timeout=1e9, close_grace=1e9)

        process = ParallelStreamingDetector(
            trained_clap,
            workers=2,
            worker_mode="process",
            model_dir=clap_model_dir,
            idle_timeout=1e9,
            close_grace=1e9,
        )
        got = _rows(_drain_all(process, list(items)))
        assert [row[:2] for row in got] == [row[:2] for row in expected]
        assert all(abs(a[2] - b[2]) < 1e-9 for a, b in zip(got, expected))

    def test_validation(self, trained_clap):
        with pytest.raises(ValueError):
            ParallelStreamingDetector(trained_clap, worker_mode="fibers")
        with pytest.raises(ValueError, match="--worker-mode process"):
            ParallelStreamingDetector(trained_clap, workers=2)
        with pytest.raises(ValueError):
            ParallelStreamingDetector(
                trained_clap, workers=2, worker_mode="process", max_flows=0
            )
        with pytest.raises(ValueError):
            ParallelStreamingDetector(
                trained_clap, workers=2, worker_mode="process", idle_timeout=-1.0
            )


class TestWorkerStateMerging:
    def test_snapshot_folds_worker_structs(self):
        """Pure-unit check of the cross-process metrics merge."""
        local = StreamingMetrics(shard_count=1)
        local.record_completions([(None, CompletionReason.DRAIN)])
        local.record_flush(3, 0.002)
        local.record_drop(2)
        local.record_pending_depth(7)

        parent = StreamingMetrics(shard_count=2)
        parent.record_ingest(0, 10)
        parent.record_events(3, 1)
        parent.absorb_worker_state(0, local.worker_state())
        snap = parent.snapshot()
        assert snap["completions_by_reason"]["drain"] == 1
        assert snap["connections_scored"] == 3
        assert snap["capacity_drops"] == 2
        assert snap["max_pending_depth"] == 7
        assert snap["flush_latency"]["count"] == 1
        assert snap["events_emitted"] == 3
        # Absorbing the *latest* struct twice must not double count.
        parent.absorb_worker_state(0, local.worker_state())
        assert parent.snapshot()["connections_scored"] == 3
        rendered = parent.render()
        assert "scored=3" in rendered and "n=1" in rendered


class TestBlockBroadcast:
    def test_each_capture_block_crosses_to_the_workers_once(
        self, trained_clap, clap_model_dir
    ):
        """One capture block is broadcast once, whatever the worker count;
        the front-end counts its packed bytes, columns only."""
        from repro.traffic.flood import syn_flood_columns

        columns = syn_flood_columns(1024)
        detector = ParallelStreamingDetector(
            trained_clap,
            workers=2,
            worker_mode="process",
            model_dir=clap_model_dir,
            idle_timeout=1e9,
            close_grace=0.5,
            max_flows=32,
            drop_policy=DropPolicy(mode="drop"),
        )
        detector.ingest_many(columns.views())
        detector.close()
        broadcast = detector.metrics_snapshot()["shared_memory"]
        assert broadcast["segments_created"] == 1
        assert broadcast["bytes_broadcast"] == len(columns.pack_block(backing="none"))


class TestCaptureLevelEquivalence:
    """From pcap bytes, with read blocks so small that every connection spans
    several of them and blocks fall out of the 8-deep FIFO window: rows of
    an evicted block must be re-broadcast, and the events must still equal
    the offline reference at 1e-9.  The per-packet reference extractor is
    patched to raise (forked workers inherit the patch), so a connection
    that spans blocks must stay on the columnar feature path."""

    @pytest.fixture(autouse=True)
    def _no_reference_extractor(self, monkeypatch):
        def refuse(self, packets):
            raise AssertionError("feature extraction fell back to the per-packet reference")

        monkeypatch.setattr(RawFeatureExtractor, "extract_packets_reference", refuse)

    @pytest.fixture(scope="class")
    def capture(self, trained_clap, tmp_path_factory):
        path = tmp_path_factory.mktemp("capture") / "spanning.pcap"
        write_pcap(path, TrafficGenerator(seed=41).generate_packets(24))
        connections = assemble_connections(read_packet_columns(path).views())
        reference = sorted(
            (str(result.key), result.packet_count, result.score)
            for result in trained_clap.detect_batch(connections)
        )
        return path, reference

    @staticmethod
    def _assert_matches(events, reference):
        got = _rows(events)
        assert [row[:2] for row in got] == [row[:2] for row in reference]
        assert all(abs(a[2] - b[2]) < 1e-9 for a, b in zip(got, reference))

    def _stream(self, path):
        source = open_source(path, block_bytes=4096)
        views = list(source)
        blocks = {id(view.columns) for view in views}
        assert len(blocks) > 2 * 8, "the capture must overflow the block window"
        return views

    def test_in_process_detector_matches_the_offline_reference(self, trained_clap, capture):
        path, reference = capture
        detector = StreamingDetector(trained_clap, idle_timeout=1e9, close_grace=1e9)
        self._assert_matches(_drain_all(detector, self._stream(path)), reference)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_process_workers_match_the_offline_reference(
        self, trained_clap, clap_model_dir, capture, workers
    ):
        path, reference = capture
        detector = ParallelStreamingDetector(
            trained_clap,
            workers=workers,
            worker_mode="process",
            model_dir=clap_model_dir,
            idle_timeout=1e9,
            close_grace=1e9,
        )
        self._assert_matches(_drain_all(detector, self._stream(path)), reference)

    def test_workers_never_materialise_a_packet(
        self, trained_clap, clap_model_dir, capture, monkeypatch
    ):
        """Blocks cross to the workers as columns only, so nothing on the
        serving path may build a packet back from a view."""

        def refuse(self):
            raise AssertionError("a packet was materialised on the serving path")

        monkeypatch.setattr(ColumnPacketView, "materialize", refuse)
        path, reference = capture
        detector = ParallelStreamingDetector(
            trained_clap,
            workers=2,
            worker_mode="process",
            model_dir=clap_model_dir,
            idle_timeout=1e9,
            close_grace=1e9,
        )
        self._assert_matches(_drain_all(detector, self._stream(path)), reference)

    def test_one_remote_instance_matches_the_offline_reference(self, trained_clap, capture):
        path, reference = capture
        instance = DetectorInstance(
            trained_clap, config=InstanceConfig(idle_timeout=1e9, close_grace=1e9)
        )
        server = threading.Thread(target=instance.serve, daemon=True)
        server.start()
        partitioner = FlowPartitioner(endpoints=[instance.address])
        events = _drain_all(partitioner, self._stream(path))
        server.join(timeout=30.0)
        assert not server.is_alive()
        self._assert_matches(events, reference)


class TestInFlightBound:
    """No worker ever has more than ``queue_depth`` frames unanswered, and a
    wedged worker is declared lost at the deadline instead of absorbing a
    socket buffer of rows."""

    QUEUE_DEPTH = 2

    @pytest.fixture
    def unanswered(self, monkeypatch):
        """Every worker's unanswered-frame count right after each send."""
        seen: list[tuple[int, int]] = []
        send = FlowPartitioner._send

        def counting_send(self, instance, tag, *chunks, answered=False):
            send(self, instance, tag, *chunks, answered=answered)
            seen.append((instance.index, instance.in_flight))

        monkeypatch.setattr(FlowPartitioner, "_send", counting_send)
        return seen

    def _detector(self, trained_clap, clap_model_dir, **options):
        return ParallelStreamingDetector(
            trained_clap,
            workers=2,
            worker_mode="process",
            model_dir=clap_model_dir,
            chunk_size=1,
            queue_depth=self.QUEUE_DEPTH,
            idle_timeout=50.0,
            close_grace=0.5,
            **options,
        )

    def test_unanswered_frames_never_exceed_queue_depth(
        self, trained_clap, clap_model_dir, unanswered
    ):
        connections = _sequential_connections(6, spacing=1.0)
        detector = self._detector(trained_clap, clap_model_dir)
        events = _drain_all(detector, _packet_stream(connections))
        assert len(events) == len(connections)
        assert len(unanswered) > len(_packet_stream(connections)) // 2
        assert max(depth for _, depth in unanswered) <= self.QUEUE_DEPTH
        assert detector.metrics_snapshot()["max_queue_depth"] <= self.QUEUE_DEPTH

    def test_wedged_worker_is_lost_at_the_deadline(
        self, trained_clap, clap_model_dir, unanswered
    ):
        connections = _sequential_connections(6, spacing=1.0)
        plan = FaultPlan().wedge_worker(0, at_packet=10)
        detector = self._detector(
            trained_clap,
            clap_model_dir,
            on_worker_failure="degrade",
            stall_deadline=1.0,
            fault_plan=plan,
        )
        started = time.monotonic()
        events = _drain_all(detector, _packet_stream(connections))
        assert time.monotonic() - started < 15.0
        assert events, "the survivor must still score its flows"
        losses = detector.degradation_report().losses
        assert [loss.index for loss in losses if "wedged" in loss.reason] == [0]
        assert max(depth for _, depth in unanswered) <= self.QUEUE_DEPTH
        assert not _shard_processes()


def _feed(detector, items):
    """Ingest ``items`` (a :class:`Tick` polls), close, return every event."""
    events = []
    for item in items:
        if isinstance(item, Tick):
            detector.poll(item.now)
        else:
            detector.ingest(item)
        events.extend(detector.events())
    detector.close()
    return events + list(detector.events())


def _with_ticks(items, every):
    """``items`` with a poll at the latest timestamp after every ``every``."""
    out = []
    latest = float("-inf")
    for position, item in enumerate(items, start=1):
        out.append(item)
        latest = max(latest, item.timestamp)
        if position % every == 0:
            out.append(Tick(latest))
    return out


def _routing_orders():
    """Ingest orders that leave block-at-once routing's fast path."""
    connections = _sequential_connections(12, spacing=1.0)
    first = PacketColumns.from_packets(_packet_stream(connections[:6])).views()
    second = PacketColumns.from_packets(_packet_stream(connections[6:])).views()
    swapped = [view for pair in zip(first[1::2], first[0::2], strict=False) for view in pair]
    interleaved = [view for pair in zip(first, second, strict=False) for view in pair]
    # Rows of one block, object packets of other connections and polls,
    # merged in time order.
    columns = PacketColumns.from_packets(_packet_stream(connections[:8])).views()
    loose = _packet_stream(connections[8:])
    mixed = _with_ticks(sorted(columns + loose, key=lambda packet: packet.timestamp), every=7)
    return {
        "rows out of order": (swapped, dict(idle_timeout=1e9, close_grace=1e9)),
        "two blocks interleaved": (interleaved, dict(idle_timeout=1e9, close_grace=1e9)),
        "objects and polls mixed in": (mixed, dict(idle_timeout=2.0, close_grace=0.5)),
    }


class TestBlockRouting:
    """Block-at-once routing: any ingest order that is not the next row of
    the block being routed leaves the fast path, and must still route every
    packet exactly as per-packet hashing would and score like one in-process
    detector."""

    @pytest.mark.parametrize(
        "order", ["rows out of order", "two blocks interleaved", "objects and polls mixed in"]
    )
    @pytest.mark.parametrize("chunk_size", [3, 64])
    def test_routing_matches_per_packet_hashing(
        self, trained_clap, clap_model_dir, order, chunk_size
    ):
        items, timeouts = _routing_orders()[order]
        expected = _rows(_feed(StreamingDetector(trained_clap, **timeouts), items))
        partitioner = FlowPartitioner(
            clap_model_dir,
            instances=2,
            chunk_size=chunk_size,
            config=InstanceConfig(**timeouts),
        )
        got = _rows(_feed(partitioner, items))
        assert [row[:2] for row in got] == [row[:2] for row in expected]
        assert all(abs(a[2] - b[2]) < 1e-9 for a, b in zip(got, expected, strict=True))
        owners = [
            hash(flow_key_of(item)) % 2 for item in items if not isinstance(item, Tick)
        ]
        assert [instance.routed for instance in partitioner._instances] == [
            owners.count(0),
            owners.count(1),
        ]

    def test_rows_ship_at_the_packet_that_fills_a_chunk(self, clap_model_dir):
        """A run ends where a worker's buffer reaches the chunk target, so
        every frame ships on the same ingest call as under per-packet
        routing."""
        views = _column_stream(_sequential_connections(8, spacing=1.0))
        partitioner = FlowPartitioner(
            clap_model_dir,
            instances=2,
            chunk_size=5,
            config=InstanceConfig(idle_timeout=1e9, close_grace=1e9),
        )
        buffered, shipped = [0, 0], [0, 0]
        for view in views:
            partitioner.ingest(view)
            owner = hash(flow_key_of(view)) % 2
            buffered[owner] += 1
            if buffered[owner] == 5:
                shipped[owner] += 5
                buffered[owner] = 0
            assert [instance.routed for instance in partitioner._instances] == shipped
        partitioner.close()

    def test_a_fault_fires_at_its_packet_inside_a_block(self, clap_model_dir):
        """A run ends at the fault plan's due packet, so a kill fires at
        exactly its packet count even mid-run."""
        views = _column_stream(_sequential_connections(8, spacing=1.0))
        plan = FaultPlan().kill_instance(1, at_packet=37)
        partitioner = FlowPartitioner(
            clap_model_dir,
            instances=2,
            chunk_size=64,
            config=InstanceConfig(idle_timeout=1e9, close_grace=1e9),
            on_instance_failure="degrade",
            fault_plan=plan,
        )
        _feed(partitioner, views)
        assert plan.fired == [("kill-instance", 1, 37)]


def _read_exact(sock, count):
    data = bytearray()
    while len(data) < count:
        chunk = sock.recv(count - len(data))
        if not chunk:
            return None
        data.extend(chunk)
    return bytes(data)


#: Size of each late answer: several times any socketpair buffer.
_LATE_ANSWER_BYTES = 1 << 20


def _late_answering_worker(sock, _load, _config):
    """A scripted worker: it holds back its ROWS answers until the second
    block broadcast has begun, then writes them (each far larger than the
    socket buffer) before reading the rest of that broadcast."""
    state = dict(StreamingMetrics(shard_count=1).worker_state(), active_flows=0, pending=0)
    late = dict(state, padding="x" * _LATE_ANSWER_BYTES)
    owed = 0
    blocks = 0
    while True:
        header = _read_exact(sock, FRAME_HEADER.size)
        if header is None:
            return
        tag, length = FRAME_HEADER.unpack(header)
        if tag == TAG_BLCK:
            blocks += 1
            if blocks == 2:
                for _ in range(owed):
                    send_frame(sock, TAG_EVNT, encode_answer(late, [], 0))
                owed = 0
        payload = _read_exact(sock, length) if length else b""
        if tag == TAG_ROWS and blocks < 2:
            owed += 1
        elif tag == TAG_CTRL and decode_control(payload)["op"] == "hello":
            send_frame(sock, TAG_CTRL, encode_control({"op": "ready", "threshold": 0.5}))
        elif tag == TAG_CTRL and decode_control(payload)["op"] == "close":
            done = {"events": [], "state": state, "metrics": {}, "peak_occupancy": 0}
            send_frame(sock, TAG_DONE, json.dumps(done).encode("utf-8"))
            return
        elif tag != TAG_BLCK:
            send_frame(sock, TAG_EVNT, encode_answer(state, [], 0))


class TestLargeFrames:
    def test_large_frame_reads_answers_instead_of_draining_first(self, monkeypatch):
        """A block broadcast larger than the socket buffer goes to a worker
        that still owes answers, each larger than the buffer too, and will
        only write them once the broadcast has begun.  Draining the worker
        before the send would wait for those answers forever; a blocking
        send would deadlock against the worker's own blocked writes.  The
        front-end reads while it writes, and the stream completes."""
        from repro.traffic.flood import syn_flood_columns

        monkeypatch.setattr(partition_module, "serve_socket", _late_answering_worker)
        small = syn_flood_columns(30)
        large = syn_flood_columns(20_000, first_index=30)
        assert len(large.pack_block(backing="none")) > 4 * _LATE_ANSWER_BYTES
        partitioner = FlowPartitioner(
            "no model: the scripted worker never loads one",
            instances=1,
            chunk_size=10,
            io_deadline=10.0,
        )
        started = time.monotonic()
        partitioner.ingest_many(small.views())
        partitioner.ingest(large.views()[0])
        partitioner.close()
        assert time.monotonic() - started < 10.0
        assert partitioner._instances[0].in_flight == 0
        assert partitioner._routed_total == 31
        reasons = [loss.reason for loss in partitioner.degradation_report().losses]
        assert all("unaccounted" in reason for reason in reasons), reasons
        assert not multiprocessing.active_children()
