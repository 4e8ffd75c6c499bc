"""``repro top`` tests: frame rendering from a synthetic frame dict, the
TopClient polling a live TelemetryServer (including wall-clock rate
derivation), and the CLI entry point in ``--once --json`` mode."""

from __future__ import annotations

import io
import json

from repro.cli import main
from repro.engine.engine import NodeLaunched
from repro.events import EventBus
from repro.obs import TelemetryServer, TopClient, render_frame, run_top
from tests.helpers import whole_plane

SAMPLE_FRAME = {
    "url": "http://127.0.0.1:9",
    "healthz": {"status": "ok", "sim_now": 120.0, "bus_publishes": 640},
    "health": {
        "rules": {
            "status": "degraded",
            "rules": [
                {
                    "name": "catalog-drift",
                    "kind": "drift",
                    "state": "firing",
                    "value": None,
                    "op": ">",
                    "threshold": 0.0,
                },
                {
                    "name": "heartbeat-loss",
                    "kind": "threshold",
                    "state": "ok",
                    "value": 0.01,
                    "op": ">",
                    "threshold": 0.2,
                },
            ],
        },
        "estimators": {
            "hosts": [
                {
                    "host": "h1",
                    "failures": 7,
                    "mttf_observed": 33.0,
                    "mttf_prior": 100.0,
                    "downtime_observed": 4.0,
                    "heartbeat_loss_rate": 0.05,
                    "drifted": True,
                }
            ],
            "activities": [
                {
                    "workflow_id": "wf-1",
                    "activity": "transfer",
                    "attempts": 10,
                    "failures": 6,
                    "failure_probability": 0.6,
                    "wilson_low": 0.31,
                    "wilson_high": 0.83,
                }
            ],
        },
    },
    "alerts": {
        "firing": [
            {
                "rule": "catalog-drift",
                "severity": "critical",
                "value": None,
                "threshold": 0.0,
            }
        ],
        "history": [],
    },
    "workflows": [
        {
            "workflow_id": "wf-1",
            "workflow": "mosaic",
            "phase": "running",
            "nodes_launched": 4,
            "nodes_completed": 2,
            "attempts": {"total": 9, "in_flight": 2},
            "last_recovery": {"action": "recovery.retry", "activity": "transfer"},
        },
        {
            "workflow_id": "wf-2",
            "workflow": "mosaic",
            "phase": "done",
            "nodes_launched": 4,
            "nodes_completed": 4,
            "attempts": {"total": 4, "in_flight": 0},
            "last_recovery": None,
        },
    ],
    "rates": {"events_per_sec": 12.5, "sim_seconds_per_sec": 40.0},
}


class TestRenderFrame:
    def test_plain_rendering_carries_every_table(self):
        text = render_frame(SAMPLE_FRAME, color=False)
        assert "\x1b[" not in text  # color off means no ANSI at all
        assert "status=degraded" in text
        assert "events/s=12.5" in text
        assert "alerts firing (1):" in text
        assert "[critical] catalog-drift" in text
        assert "done=1  running=1" in text
        assert "recovery.retry transfer" in text
        # Estimator tables: observed vs prior, and the Wilson CI.
        assert "DRIFT" in text and "100" in text
        assert "p(fail)=0.60 [0.31, 0.83] (6/10)" in text
        # Rule states render with their values.
        assert "firing" in text and "catalog-drift" in text

    def test_quiet_frame_renders_without_alerts_or_estimators(self):
        frame = {
            "url": "u",
            "healthz": {"sim_now": 1.0, "bus_publishes": 2},
            "health": {"rules": {"status": "ok", "rules": []}},
            "alerts": {"firing": [], "history": []},
            "workflows": [],
            "rates": {},
        }
        text = render_frame(frame, color=False)
        assert "status=ok" in text
        assert "alerts: none firing" in text
        assert "workflows (0)" in text

    def test_workflow_table_truncates_at_max(self):
        frame = dict(SAMPLE_FRAME)
        frame["workflows"] = [
            dict(SAMPLE_FRAME["workflows"][0], workflow_id=f"wf-{i}")
            for i in range(25)
        ]
        text = render_frame(frame, color=False, max_workflows=20)
        assert "… 5 more" in text


class TestTopClientLive:
    def test_frame_against_a_live_server_with_rates(self):
        bus = EventBus()
        plane = whole_plane(bus)
        publishes = [0.0]
        server = TelemetryServer(
            plane,
            extra_health=lambda: {
                "sim_now": 10.0,
                "bus_publishes": publishes[0],
            },
        )
        port = server.start()
        try:
            bus.publish("engine.node_launched", NodeLaunched("w", "wf-1", "task", 0.0))
            # No collector ticks here: fold on the publishing thread, the
            # server's thread only reads what a fold left.
            plane.tracker.sync()
            client = TopClient(f"http://127.0.0.1:{port}")
            frame = client.frame()
            assert frame["rates"] == {}  # first poll has no baseline
            (status,) = frame["workflows"]
            assert status["workflow_id"] == "wf-1"
            assert frame["health"]["rules"]["status"] == "ok"
            assert frame["health"]["estimators"]["drift_events"] == 0
            rule_names = {
                r["name"] for r in frame["health"]["rules"]["rules"]
            }
            assert "catalog-drift" in rule_names

            publishes[0] = 500.0
            frame = client.frame()
            assert frame["rates"]["events_per_sec"] > 0.0
        finally:
            server.stop()

    def test_run_top_frames_bound_and_json_mode(self):
        server = TelemetryServer(whole_plane())
        port = server.start()
        try:
            out = io.StringIO()
            status = run_top(
                f"http://127.0.0.1:{port}",
                once=True,
                as_json=True,
                out=out,
            )
            assert status == 0
            frame = json.loads(out.getvalue())
            assert frame["health"]["rules"]["status"] == "ok"

            out = io.StringIO()
            status = run_top(
                f"http://127.0.0.1:{port}",
                interval=0.01,
                frames=2,
                color=False,
                out=out,
            )
            assert status == 0
            assert out.getvalue().count("repro top —") == 2
        finally:
            server.stop()

    def test_unreachable_server_exits_2(self):
        out = io.StringIO()
        assert (
            run_top(
                "http://127.0.0.1:9",  # reserved port: nothing listens
                once=True,
                retry_for=0.0,
                out=out,
            )
            == 2
        )


class TestTopCli:
    def test_once_json_via_main(self, capsys):
        server = TelemetryServer(whole_plane())
        port = server.start()
        try:
            # Bare host:port — the CLI prepends the scheme.
            status = main(["top", f"127.0.0.1:{port}", "--once", "--json"])
            assert status == 0
            frame = json.loads(capsys.readouterr().out)
            assert frame["url"] == f"http://127.0.0.1:{port}"
            assert "healthz" in frame and "alerts" in frame
        finally:
            server.stop()
