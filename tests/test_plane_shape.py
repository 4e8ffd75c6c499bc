"""The telemetry plane's shape: every combination of the telemetry flags
``repro run`` takes (``--metrics``/``--trace`` × ``--flight-record`` ×
``--serve-telemetry``) builds a plane whose parts are whole — each built
with what it reads and feeds — ticks it through a run, and, when served,
answers every route from that one plane."""

from __future__ import annotations

import itertools
import json
import re
import urllib.request
from pathlib import Path

import pytest

from repro import cli
from repro.core import FailurePolicy
from repro.engine import EngineHost
from repro.grid import RELIABLE, CrashingTask, GridConfig, SimulatedGrid
from repro.obs import TelemetryPlane, TelemetryServer, Tracer
from tests.helpers import single_task_workflow

SPECS = Path(__file__).resolve().parent.parent / "examples" / "specs"

#: ``(--metrics/--trace, --flight-record, --serve-telemetry)``.
FLAGS = list(itertools.product((False, True), repeat=3))
NAMES = ("observe", "flight-record", "serve")
IDS = ["+".join(n for n, on in zip(NAMES, flags) if on) or "bare" for flags in FLAGS]
#: Every route a served plane answers, one known name each.
ROUTES = (
    "/",
    "/metrics",
    "/healthz",
    "/health",
    "/alerts",
    "/timeseries",
    "/timeseries/bus_publishes",
    "/workflows",
    "/workflows/wf-1",
)
INSTANCES = 4


def _get(url: str) -> tuple[int, str]:
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.read().decode()


@pytest.mark.contract
@pytest.mark.parametrize("observe, flight_record, serve", FLAGS, ids=IDS)
def test_every_flag_combination_builds_and_ticks_a_whole_plane(
    observe, flight_record, serve
):
    grid = SimulatedGrid(seed=7, config=GridConfig(heartbeats=False))
    grid.add_host(RELIABLE("h1", slots=None))
    grid.install("h1", "task", CrashingTask(duration=3.0, crash_at=1.0, crashes=1))
    host = EngineHost(grid, reactor=grid.reactor, tracer=Tracer())
    runtime = host.runtime
    # What ``repro run`` asks of the plane for these flags.
    plane = TelemetryPlane(
        runtime.bus,
        grid.reactor,
        grid,
        runtime.detector,
        observe=observe,
        flight_record=flight_record,
        interval=1.0 if serve else None,
    )
    spec = single_task_workflow(policy=FailurePolicy.retrying(3))
    for i in range(INSTANCES):
        grid.reactor.call_later(0.5 * i, lambda: host.submit(spec))
    plane.start()
    assert grid.reactor.run_until_complete(
        lambda: len(host.results()) == INSTANCES, timeout=1e6
    )
    plane.stop()
    assert all(result.succeeded for result in host.results().values())

    # The statistical layer samples the observer's registry: it brings one.
    assert (plane.observer is not None) == (observe or serve)
    assert (plane.recorder is not None) == flight_record
    layer = (plane.tracker, plane.store, plane.estimators, plane.health)
    if not serve:
        assert layer == (None,) * 4 and plane.collector is None
        return
    collector = plane.collector
    assert None not in layer and collector.ticks > 0
    assert collector.registry is plane.observer.metrics
    assert (collector.store, collector.estimators, collector.health) == layer[1:]
    assert plane.estimators.health is plane.health
    with TelemetryServer(plane) as server:
        bodies = {path: _get(server.url + path) for path in ROUTES}
    assert {status for status, _body in bodies.values()} == {200}
    assert "task_attempts_total" in bodies["/metrics"][1]
    workflows = json.loads(bodies["/workflows"][1])
    assert [status["phase"] for status in workflows] == ["done"] * INSTANCES
    assert json.loads(bodies["/health"][1])["rules"]["status"] == "ok"


@pytest.mark.contract
@pytest.mark.parametrize("observe, flight_record, serve", FLAGS, ids=IDS)
def test_repro_run_writes_and_serves_what_its_flags_ask_for(
    observe, flight_record, serve, tmp_path, monkeypatch, capsys
):
    metrics, journal = tmp_path / "run.prom", tmp_path / "journal.jsonl"
    argv = ["run", str(SPECS / "mosaic.xml")]
    argv += ["--grid", str(SPECS / "volunteer_grid.json"), "--instances", "2"]
    if observe:
        argv += ["--metrics", str(metrics)]
    if flight_record:
        argv += ["--flight-record", str(journal)]
    if serve:
        argv += ["--serve-telemetry", "0", "--telemetry-interval", "2"]
    served: dict[str, tuple[int, str]] = {}
    drive = cli._drive

    def drive_then_scrape(args, reactor, is_done):
        done = drive(args, reactor, is_done)
        if serve:  # while the plane is still up
            out = capsys.readouterr().out
            url = re.search(r"serving (http://\S+)/metrics", out).group(1)
            served.update({path: _get(url + path) for path in ROUTES})
        return done

    monkeypatch.setattr(cli, "_drive", drive_then_scrape)
    assert cli.main(argv) == 0
    assert metrics.exists() == observe
    assert journal.exists() == flight_record
    assert bool(served) == serve
    if serve:
        assert {status for status, _body in served.values()} == {200}
        assert "task_attempts_total" in served["/metrics"][1]
