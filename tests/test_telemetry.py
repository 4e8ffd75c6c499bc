"""Live telemetry plane tests: causal trace propagation, the flight
recorder and its post-mortem reconstruction, and the HTTP scrape/status
server — plus the exporter round-trip of many concurrent instances'
labelled series.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from tests.helpers import single_task_workflow
from repro.core import FailurePolicy
from repro.engine import EngineHost, WorkflowEngine
from repro.events import EventBus
from repro.grid import (
    RELIABLE,
    CheckpointingTask,
    CrashingTask,
    FixedDurationTask,
    inject_crash,
)
from repro.obs import (
    EventLog,
    FlightRecorder,
    MetricsRegistry,
    RunObserver,
    TelemetryServer,
    TraceContext,
    Tracer,
    WorkflowStatusTracker,
    build_timelines,
    chrome_trace,
    jsonl_lines,
    load_recording,
    prometheus_text,
    render_report,
    scrape_bus,
    scrape_kernel,
    stamp,
)


def crashy_run(bus: EventBus, *, crashes: int = 2, tracer: Tracer | None = None):
    """A single-task run that crashes *crashes* times then succeeds,
    publishing on *bus*; returns the engine's result."""
    from repro.grid import GridConfig, SimulatedGrid

    grid = SimulatedGrid(config=GridConfig(heartbeats=False))
    grid.add_host(RELIABLE("h1"))
    grid.install(
        "h1", "task", CrashingTask(duration=30.0, crash_at=5.0, crashes=crashes)
    )
    wf = single_task_workflow(policy=FailurePolicy.retrying(8, interval=2.0))
    engine = WorkflowEngine(
        wf, grid, reactor=grid.reactor, bus=bus, tracer=tracer
    )
    return engine.run(timeout=1e6)


def collect_ids(events):
    """topic → list of (trace_id, span_id, parent_id) triples, duck-typed
    over dict and AttemptOutcome payloads."""
    triples = []
    for topic, payload in events:
        if isinstance(payload, dict):
            ids = (
                payload.get("trace_id", ""),
                payload.get("span_id", ""),
                payload.get("parent_id", ""),
            )
        else:
            ids = (
                getattr(payload, "trace_id", ""),
                getattr(payload, "span_id", ""),
                getattr(payload, "parent_id", ""),
            )
        triples.append((topic, *ids))
    return triples


class TestTracer:
    def test_ids_are_deterministic_counters(self):
        tracer = Tracer()
        root = tracer.root("wf-1")
        child = tracer.child(root)
        grandchild = tracer.child(child)
        assert root.trace_id == "wf-1#1"
        assert (root.span_id, child.span_id, grandchild.span_id) == (
            "s1",
            "s2",
            "s3",
        )
        assert root.parent_id is None
        assert child.parent_id == "s1"
        assert grandchild.parent_id == "s2"
        assert child.trace_id == grandchild.trace_id == root.trace_id
        assert tracer.spans_allocated == 3

    def test_two_tracers_produce_identical_sequences(self):
        a, b = Tracer(), Tracer()
        seq_a = [a.child(a.root("x")) for _ in range(5)]
        seq_b = [b.child(b.root("x")) for _ in range(5)]
        assert seq_a == seq_b

    def test_stamp_writes_ids_and_noop_when_off(self):
        detail: dict = {"k": 1}
        assert stamp(detail, None) == {"k": 1}
        ctx = TraceContext(trace_id="t#1", span_id="s2", parent_id="s1")
        stamped = stamp({"k": 1}, ctx)
        assert stamped == {
            "k": 1,
            "trace_id": "t#1",
            "span_id": "s2",
            "parent_id": "s1",
        }
        root = TraceContext(trace_id="t#1", span_id="s1")
        assert "parent_id" not in stamp({}, root)


class TestCausalPropagation:
    def test_untraced_run_stamps_nothing(self):
        bus = EventBus()
        events = []
        bus.add_tap(lambda t, p: events.append((t, p)))
        result = crashy_run(bus, tracer=None)
        assert result.succeeded
        for _topic, trace_id, span_id, _parent in collect_ids(events):
            assert trace_id == "" and span_id == ""

    def test_retry_chain_links_attempts_to_decisions(self):
        bus = EventBus()
        events = []
        bus.add_tap(lambda t, p: events.append((t, p)))
        result = crashy_run(bus, crashes=2, tracer=Tracer())
        assert result.succeeded
        ids = collect_ids(events)
        trace_ids = {t for _, t, _, _ in ids if t}
        assert len(trace_ids) == 1  # one run, one causal tree

        by_topic: dict[str, list[tuple[str, str]]] = {}
        for topic, _trace, span, parent in ids:
            if span:
                by_topic.setdefault(topic, []).append((span, parent))

        launches = by_topic["engine.node_launched"]
        attempts = by_topic["task.active"]
        retries = by_topic["recovery.retry"]
        assert len(attempts) == 3 and len(retries) == 2
        # First attempt descends from the node launch.
        assert attempts[0][1] == launches[0][0]
        # Each retry decision descends from the attempt that failed, and
        # each subsequent attempt descends from the decision.
        for i, (retry_span, retry_parent) in enumerate(retries):
            assert retry_parent == attempts[i][0]
            assert attempts[i + 1][1] == retry_span
        # Terminal attempt outcomes carry the attempt's own span.
        attempt_spans = {span for span, _parent in attempts}
        for span, _parent in by_topic["task.failed"]:
            assert span in attempt_spans
        # The resolution closes back to the launch.
        resolved = by_topic["recovery.resolved"][0]
        assert resolved[1] == launches[0][0]

    def test_traced_runs_are_repeatable(self):
        def run_ids():
            bus = EventBus()
            events = []
            bus.add_tap(lambda t, p: events.append((t, p)))
            crashy_run(bus, tracer=Tracer())
            return collect_ids(events)

        assert run_ids() == run_ids()

    def test_checkpoint_restart_carries_flag_source_span(self):
        from repro.grid import GridConfig, SimulatedGrid

        grid = SimulatedGrid(config=GridConfig(heartbeats=False))
        grid.add_host(RELIABLE("h1"))
        grid.install(
            "h1",
            "task",
            CheckpointingTask(duration=30.0, checkpoints=6, overhead=0.5),
        )
        inject_crash(grid.kernel, grid.host("h1"), at=12.0, duration=0.0)
        bus = EventBus()
        events = []
        bus.add_tap(lambda t, p: events.append((t, p)))
        wf = single_task_workflow(policy=FailurePolicy.retrying(None))
        engine = WorkflowEngine(
            wf, grid, reactor=grid.reactor, bus=bus, tracer=Tracer()
        )
        assert engine.run(timeout=1e6).succeeded
        restarts = [
            p for t, p in events if t == "recovery.checkpoint_restart"
        ]
        assert restarts, "expected a checkpoint restart"
        first_attempt_span = next(
            getattr(p, "span_id", "")
            for t, p in events
            if t.startswith("task.active")
        )
        assert restarts[0]["flag_source"] == first_attempt_span
        assert restarts[0]["span_id"]  # the restart is itself a hop


class TestFlightRecorder:
    def test_ring_bounds_and_stats(self):
        bus = EventBus()
        log = EventLog.on(bus, capacity=5)  # the journal is what it holds
        recorder = FlightRecorder(bus)
        assert recorder._log is log
        for i in range(8):
            bus.publish("t.x", {"i": i})
        stats = recorder.stats()
        assert stats == {"recorded": 8, "retained": 5, "overwritten": 3, "spilled": 0}
        assert [e["i"] for e in recorder.entries] == [3, 4, 5, 6, 7]

    def test_close_stops_the_spill_not_the_journal(self, tmp_path):
        spill = tmp_path / "spill.jsonl"
        bus = EventBus()
        with FlightRecorder(bus, spill_path=str(spill)) as recorder:
            bus.publish("t.x", {"i": 0})
        bus.publish("t.x", {"i": 1})
        assert [e["i"] for e in load_recording(str(spill))] == [0]
        assert [e["i"] for e in recorder.entries] == [0, 1]
        assert recorder.stats() == {
            "recorded": 2, "retained": 2, "overwritten": 0, "spilled": 1
        }

    def test_spill_and_dump_round_trip(self, tmp_path):
        spill = tmp_path / "spill.jsonl"
        bus = EventBus()
        with FlightRecorder(bus, spill_path=str(spill)) as recorder:
            crashy_run(bus, tracer=Tracer())
            dump = tmp_path / "dump.jsonl"
            recorder.dump(str(dump))
        spilled = load_recording(str(spill))
        dumped = load_recording(str(dump))
        assert spilled == dumped
        assert spilled, "journal must not be empty"
        assert not (tmp_path / "dump.jsonl.tmp").exists()
        topics = {e["topic"] for e in spilled}
        assert "engine.workflow_finished" in topics
        assert any(t.startswith("task.active") for t in topics)

    def test_spill_is_written_at_append_not_at_the_next_fold(self, tmp_path):
        """"A crash loses nothing": the line is on its way to disk when
        ``publish`` returns — with no collector tick, no read and no
        ``close()`` in between — whatever the rest of the plane defers."""
        spill = tmp_path / "spill.jsonl"
        bus = EventBus()
        recorder = FlightRecorder(bus, spill_path=str(spill))
        RunObserver(bus)  # the rest of the plane, which computes later
        k = 25
        for i in range(k):
            bus.publish("t.x", {"i": i})
        recorder._spill.flush()  # what the OS would have at a crash
        lines = spill.read_text(encoding="utf-8").splitlines()
        assert len(lines) == k + 1  # the version header, then every event
        assert [json.loads(line)["i"] for line in lines[1:]] == list(range(k))
        stats = recorder.stats()
        assert stats == {"recorded": k, "retained": k, "overwritten": 0, "spilled": k}
        recorder.close()
        assert load_recording(str(spill)) == recorder.entries

    def test_a_payload_that_breaks_the_journal_complains_in_it(self, tmp_path):
        class Hostile(dict):
            def items(self):
                raise RuntimeError("no items for you")

        spill = tmp_path / "spill.jsonl"
        bus = EventBus()
        with FlightRecorder(bus, spill_path=str(spill)) as recorder:
            bus.publish("t.before", {"i": 0})
            assert bus.publish("t.hostile", Hostile(i=1)) == 0  # did not raise
            bus.publish("t.after", {"i": 2})
            entries = recorder.entries
        assert [e["topic"] for e in entries] == ["t.before", "t.hostile", "t.after"]
        assert "no items for you" in entries[1]["recorder_error"]
        assert load_recording(str(spill)) == entries

    def test_load_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text(
            json.dumps({"journal_version": 1})
            + "\n"
            + json.dumps({"seq": 0, "topic": "t.x"})
            + "\n"
            + '{"seq": 1, "topic": "t.y", "tru'
        )
        entries = load_recording(str(path))
        assert [e["seq"] for e in entries] == [0]

    def test_load_rejects_future_version(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps({"journal_version": 999}) + "\n")
        with pytest.raises(ValueError):
            load_recording(str(path))

    def test_unserialisable_payload_degrades_not_crashes(self):
        bus = EventBus()
        recorder = FlightRecorder(bus)
        bus.publish("t.weird", object())
        (entry,) = recorder.entries
        assert entry["topic"] == "t.weird"
        assert "payload" in entry

    def test_spill_torn_mid_record_salvages_complete_prefix(self, tmp_path):
        """A crash mid-write leaves the spill's final record torn;
        loading must salvage every complete record before it."""
        spill = tmp_path / "spill.jsonl"
        bus = EventBus()
        with FlightRecorder(bus, spill_path=str(spill)):
            crashy_run(bus, tracer=Tracer())
        intact = load_recording(str(spill))
        assert len(intact) > 10

        raw = spill.read_bytes()
        # Cut inside the last record: past its start, short of its '\n'.
        last_start = raw.rstrip(b"\n").rfind(b"\n") + 1
        torn = raw[: last_start + (len(raw.rstrip(b"\n")) - last_start) // 2]
        spill.write_bytes(torn)
        salvaged = load_recording(str(spill))
        assert salvaged == intact[:-1]


class TestPostmortem:
    def run_and_build(self):
        bus = EventBus()
        recorder = FlightRecorder(bus)
        crashy_run(bus, crashes=2, tracer=Tracer())
        return build_timelines(recorder.entries)

    def test_attempt_ledger_and_causal_arrows(self):
        timelines = self.run_and_build()
        (tl,) = timelines.values()
        assert tl.status == "done"
        assert tl.nodes == {"task": "done"}
        assert tl.verdict_counts() == {"failed": 2, "done": 1}
        first, second, third = tl.attempts
        assert first.caused_by.startswith("launch:task")
        assert second.caused_by.startswith("recovery.retry")
        assert third.caused_by.startswith("recovery.retry")
        assert first.outcome == "failed" and first.reason
        assert third.outcome == "done"
        retries = [
            d for d in tl.decisions if d.topic == "recovery.retry"
        ]
        assert [r.caused_by.split("[")[0] for r in retries] == [
            "attempt:" + first.job,
            "attempt:" + second.job,
        ]

    def test_render_report_mentions_chain(self):
        timelines = self.run_and_build()
        text = render_report(timelines)
        assert "recovery.retry" in text
        assert "⇐" in text
        assert "failed(" in text

    def test_render_report_unknown_workflow(self):
        timelines = self.run_and_build()
        assert "no workflow" in render_report(timelines, workflow_id="wf-404")

    def test_untraced_recording_builds_without_arrows(self):
        bus = EventBus()
        recorder = FlightRecorder(bus)
        crashy_run(bus, tracer=None)
        (tl,) = build_timelines(recorder.entries).values()
        assert len(tl.attempts) == 3
        assert all(a.caused_by == "" for a in tl.attempts)


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.read().decode()


class TestTelemetryServer:
    def test_endpoints_reflect_live_run(self):
        bus = EventBus()
        observer = RunObserver(bus)
        tracker = WorkflowStatusTracker(bus)
        server = TelemetryServer(registry=observer.metrics, tracker=tracker)
        port = server.start()
        try:
            crashy_run(bus, tracer=Tracer())
            # The run is folded by the thread that made it (no collector
            # ticks here); the server's thread reads what that left.
            observer.sync()
            status, text = _get(f"http://127.0.0.1:{port}/metrics")
            assert status == 200
            assert "# TYPE task_attempts_total counter" in text
            status, text = _get(f"http://127.0.0.1:{port}/healthz")
            assert status == 200 and json.loads(text)["status"] == "ok"
            status, text = _get(f"http://127.0.0.1:{port}/workflows")
            workflows = json.loads(text)
            assert [w["phase"] for w in workflows] == ["done"]
            wfid = workflows[0]["workflow_id"] or "unscoped"
            if workflows[0]["workflow_id"]:
                status, text = _get(
                    f"http://127.0.0.1:{port}/workflows/{wfid}"
                )
                assert status == 200
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(f"http://127.0.0.1:{port}/workflows/wf-404")
            assert err.value.code == 404
        finally:
            server.stop()

    def test_head_matches_get_with_empty_body(self):
        bus = EventBus()
        tracker = WorkflowStatusTracker(bus)
        registry = MetricsRegistry()
        registry.counter("c").inc()
        server = TelemetryServer(registry=registry, tracker=tracker)
        port = server.start()
        try:
            for path in ("/metrics", "/healthz", "/health", "/alerts",
                         "/timeseries", "/workflows", "/"):
                _status, get_body = _get(f"http://127.0.0.1:{port}{path}")
                request = urllib.request.Request(
                    f"http://127.0.0.1:{port}{path}", method="HEAD"
                )
                with urllib.request.urlopen(request, timeout=10) as response:
                    assert response.status == 200, path
                    assert response.read() == b"", path
                    assert int(response.headers["Content-Length"]) == len(
                        get_body.encode()
                    ), path
        finally:
            server.stop()

    def test_write_methods_are_405_json_with_allow(self):
        server = TelemetryServer(registry=MetricsRegistry())
        port = server.start()
        try:
            for method in ("POST", "PUT", "DELETE"):
                request = urllib.request.Request(
                    f"http://127.0.0.1:{port}/metrics",
                    data=b"{}",
                    method=method,
                )
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(request, timeout=10)
                assert err.value.code == 405
                assert err.value.headers["Allow"] == "GET, HEAD"
                assert err.value.headers["Content-Type"] == "application/json"
                body = json.loads(err.value.read().decode())
                assert body["allow"] == ["GET", "HEAD"]
        finally:
            server.stop()

    def test_unknown_route_is_json_404(self):
        server = TelemetryServer(registry=MetricsRegistry())
        port = server.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(f"http://127.0.0.1:{port}/nope")
            assert err.value.code == 404
            assert err.value.headers["Content-Type"] == "application/json"
            assert "no route" in json.loads(err.value.read().decode())["error"]
        finally:
            server.stop()

    def test_timeseries_routes(self):
        from repro.obs import TimeSeriesStore

        store = TimeSeriesStore(step=1.0)
        store.observe("queue_depth", 0.0, 3.0, host="h1")
        store.observe("queue_depth", 1.0, 5.0, host="h1")
        server = TelemetryServer(store=store)
        port = server.start()
        try:
            _status, text = _get(f"http://127.0.0.1:{port}/timeseries")
            assert json.loads(text)["series"] == ["queue_depth"]
            _status, text = _get(
                f"http://127.0.0.1:{port}/timeseries/queue_depth"
            )
            payload = json.loads(text)
            (ring,) = payload["series"]
            assert ring["labels"] == {"host": "h1"}
            assert [p["last"] for p in ring["points"]] == [3.0, 5.0]
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(f"http://127.0.0.1:{port}/timeseries/absent")
            assert err.value.code == 404
            body = json.loads(err.value.read().decode())
            assert body["known"] == ["queue_depth"]
        finally:
            server.stop()

    def test_workflow_churn_while_scraping(self):
        """Scrape /workflows from another thread while instances are
        being admitted — every response must be complete, valid JSON."""
        import threading

        bus = EventBus()
        tracker = WorkflowStatusTracker(bus)
        server = TelemetryServer(tracker=tracker)
        port = server.start()
        failures: list[str] = []
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                try:
                    _status, text = _get(f"http://127.0.0.1:{port}/workflows")
                    for entry in json.loads(text):
                        entry["workflow_id"], entry["attempts"]["total"]
                except Exception as exc:  # noqa: BLE001 - collected below
                    failures.append(repr(exc))
                    return

        scraper = threading.Thread(target=hammer, daemon=True)
        try:
            scraper.start()
            for i in range(300):
                wfid = f"wf-{i}"
                bus.publish(
                    "engine.workflow_admitted",
                    {"workflow": "w", "workflow_id": wfid},
                )
                bus.publish(
                    "engine.node_launched",
                    {"workflow": "w", "workflow_id": wfid, "node": "task"},
                )
            stop.set()
            scraper.join(timeout=10)
            assert not failures, failures
            assert len(tracker.snapshot()) == 300
        finally:
            stop.set()
            server.stop()

    def test_timeseries_reads_while_a_batch_ticks(self):
        """The HTTP thread's reads and the collector's ticks take turns
        under the store's one lock, value series and histogram tracks
        alike.  Hammer a counter family and a histogram family while 50
        staggered instances run: every response must parse, every ring
        must be in time order with whole points, every track must read
        whole, and the store must end up exactly as the same run leaves
        it with nobody reading."""
        import sys
        import threading
        import time

        from repro.grid import GridConfig, SimulatedGrid
        from repro.obs import EstimatorSuite, PeriodicCollector, TimeSeriesStore

        instances = 50

        def batch():
            grid = SimulatedGrid(config=GridConfig(heartbeats=False))
            grid.add_host(RELIABLE("h1"))
            grid.install("h1", "task", FixedDurationTask(3.0))
            bus = EventBus()
            observer = RunObserver(bus)
            store = TimeSeriesStore(step=0.5)
            collector = PeriodicCollector(
                store=store,
                registry=observer.metrics,
                reactor=grid.reactor,
                interval=0.5,
                scrapers=(lambda registry: scrape_bus(registry, bus),),
                estimators=EstimatorSuite(bus, clock=grid.reactor.now),
            )
            host = EngineHost(grid, reactor=grid.reactor, bus=bus)
            wf = single_task_workflow()
            for i in range(instances):
                grid.reactor.call_later(float(i), lambda: host.submit(wf))
            collector.start()
            return grid, store, collector, host

        def drive(grid, collector, host, between_ticks=lambda: None):
            ticks, last = 0, None
            # Until every instance is done and one more tick has seen it.
            while last is None or ticks == last:
                assert grid.kernel.step()
                if collector.ticks > ticks:
                    ticks = collector.ticks
                    between_ticks()
                if last is None and len(host.results()) == instances:
                    last = ticks
            collector.stop()

        grid, quiet_store, collector, host = batch()
        drive(grid, collector, host)

        grid, store, collector, host = batch()
        server = TelemetryServer(store=store)
        port = server.start()
        urls = [
            f"http://127.0.0.1:{port}/timeseries/{family}"
            for family in ("obs_attempts_total", "task_attempt_sim_seconds")
        ]
        failures: list[str] = []
        responses = [0]
        stop = threading.Event()

        def hammer(url):
            while not stop.is_set():
                try:
                    _status, text = _get(url)
                except urllib.error.HTTPError as err:
                    if err.code != 404:  # no attempt has ended yet
                        failures.append(repr(err))
                        return
                    text = None
                except Exception as exc:  # noqa: BLE001 - collected below
                    failures.append(repr(exc))
                    return
                responses[0] += 1
                if text is None:
                    continue
                payload = json.loads(text)
                for ring in payload["series"]:
                    times = [p["t"] for p in ring["points"]]
                    if times != sorted(set(times)) or not times:
                        failures.append(f"ring out of order: {times}")
                    if any(p["count"] < 1 for p in ring["points"]):
                        failures.append(f"torn point in {ring}")
                for track in payload["histograms"]:
                    # Every attempt took 3 s: a track read whole says so.
                    seen = (track["p50"], track["p95"], track["p99"])
                    if seen != (5.0, 5.0, 5.0) or track["observations"] < 1:
                        failures.append(f"torn track {track}")

        def let_readers_in():
            # At least one more response before the next tick, so reads
            # land all through the run and not only after it.
            seen = responses[0]
            deadline = time.monotonic() + 5.0
            while responses[0] == seen and not failures:
                assert time.monotonic() < deadline, "reader made no progress"
                time.sleep(0.0005)

        readers = [
            threading.Thread(target=hammer, args=(url,), daemon=True)
            for url in urls * 2
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for reader in readers:
                reader.start()
            drive(grid, collector, host, let_readers_in)
            stop.set()
            for reader in readers:
                reader.join(timeout=10)
                assert not reader.is_alive()
            assert not failures, failures[:3]
            assert responses[0] >= collector.ticks
            # One ring for the one (workflow, activity), whatever the load.
            (attempts,) = store.family("obs_attempts_total")["series"]
            assert attempts["points"][-1]["last"] == instances
            assert store.snapshot() == quiet_store.snapshot()
            for family in store.names():
                assert store.family(family) == quiet_store.family(family)
            (track,) = store.family("task_attempt_sim_seconds")["histograms"]
            assert track["observations"] == instances
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            server.stop()

    def test_tracker_live_phases(self):
        bus = EventBus()
        tracker = WorkflowStatusTracker(bus)
        bus.publish(
            "engine.node_launched",
            {"workflow": "w", "workflow_id": "wf-1", "node": "task", "at": 0.0},
        )
        (entry,) = tracker.snapshot()
        assert entry["phase"] == "running"
        assert entry["running_nodes"] == ["task"]
        bus.publish(
            "engine.node_completed",
            {
                "workflow": "w",
                "workflow_id": "wf-1",
                "node": "task",
                "status": "done",
                "at": 3.0,
            },
        )
        bus.publish(
            "engine.workflow_finished",
            {"workflow": "w", "workflow_id": "wf-1", "status": "done", "at": 3.0},
        )
        (entry,) = tracker.snapshot()
        assert entry["phase"] == "done"
        assert entry["running_nodes"] == []
        assert entry["finished_at"] == 3.0


class TestManyInstancesExportRoundTrip:
    N = 100
    SPECS = 5

    def test_labelled_series_survive_both_exporters(self):
        from repro.grid import GridConfig, SimulatedGrid

        grid = SimulatedGrid(config=GridConfig(heartbeats=False))
        grid.add_host(RELIABLE("h1"))
        grid.install("h1", "task", FixedDurationTask(10.0))
        bus = EventBus()
        observer = RunObserver(bus)
        host = EngineHost(
            grid, reactor=grid.reactor, bus=bus, tracer=Tracer()
        )
        names = [f"spec-{i}" for i in range(self.SPECS)]
        for i in range(self.N):
            host.submit(single_task_workflow(names[i % self.SPECS]))
        results = host.wait_all(timeout=1e7)
        assert len(results) == self.N
        assert all(r.succeeded for r in results.values())

        # Prometheus text: every specification's workflow label present
        # exactly once on the per-run counter, counting all its instances
        # — no drops, no collisions, no instance ids.
        text = prometheus_text(observer.metrics)
        for name in names:
            assert (
                text.count(
                    f'engine_workflow_runs_total{{status="done",'
                    f'workflow="{name}"}} {self.N / self.SPECS}'
                )
                == 1
            )
        assert "workflow_id" not in text

        # JSON-lines: the trailing metrics snapshot round-trips the same
        # label space.
        lines = list(jsonl_lines(metrics=observer.metrics))
        snapshot = json.loads(lines[-1])
        assert snapshot["kind"] == "metrics"
        runs = snapshot["families"]["engine_workflow_runs_total"]
        assert [series["labels"] for series in runs["series"]] == [
            {"status": "done", "workflow": name} for name in names
        ]


class TestScrapers:
    def test_bus_and_kernel_scrapes(self):
        bus = EventBus()
        crashy_run(bus)
        registry = MetricsRegistry()
        scrape_bus(registry, bus)
        assert registry.value("bus_publishes") == bus.stats()["publishes"]
        assert registry.value("bus_publishes") > 0
        assert registry.value("bus_subscription_groups") == bus.stats()["topics"]
        assert registry.value("bus_route_cache_hit_rate") is None

        from repro.grid import SimKernel

        kernel = SimKernel()
        kernel.schedule(1.0, lambda: None)
        kernel.run()
        scrape_kernel(registry, kernel)
        assert registry.value("sim_events_processed") == 1.0

    def test_bus_stats_count_publishes(self):
        bus = EventBus()
        before = bus.stats()["publishes"]
        bus.publish("a.b", {})
        bus.publish("a.c", {})
        assert bus.stats()["publishes"] == before + 2


class TestChromeTraceFlows:
    def test_flow_events_pair_decision_to_attempt(self):
        bus = EventBus()
        observer = RunObserver(bus)
        crashy_run(bus, crashes=2, tracer=Tracer())
        payload = chrome_trace(observer.spans)
        flows = [
            e for e in payload["traceEvents"] if e.get("ph") in ("s", "f")
        ]
        assert flows, "traced spans must yield causal flow events"
        starts = [e for e in flows if e["ph"] == "s"]
        finishes = [e for e in flows if e["ph"] == "f"]
        assert {e["id"] for e in starts} == {e["id"] for e in finishes}
        for finish in finishes:
            start = next(e for e in starts if e["id"] == finish["id"])
            assert finish["ts"] >= start["ts"]

    def test_untraced_spans_yield_no_flows(self):
        bus = EventBus()
        observer = RunObserver(bus)
        crashy_run(bus, tracer=None)
        payload = chrome_trace(observer.spans)
        assert not any(
            e.get("ph") in ("s", "f") for e in payload["traceEvents"]
        )
