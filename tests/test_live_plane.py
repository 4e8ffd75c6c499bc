"""The live telemetry plane end to end, as a user drives it from a shell.

A paced 10-instance ``repro run`` of the example specs serves telemetry on
a free port and keeps a flight recording.  While the batch is still
running, ``/metrics``, ``/health`` and ``/workflows`` are scraped and
``repro top --once --json`` renders one frame from the same server.  After
the run, the spill holds its header line and every event the recorder saw,
and ``repro inspect`` rebuilds each workflow's timeline from it with the
causal arrows, leaving no attempt of a finished workflow in flight.

The run is paced to about five wall seconds and its server lingers five
more, so the test carries the ``live`` marker: the plain suite leaves it
out (``addopts`` in ``pyproject.toml``) and ``pytest -m live`` runs it.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

import repro

SPECS = Path(__file__).resolve().parents[1] / "examples" / "specs"
SRC = str(Path(repro.__file__).resolve().parents[1])
#: How long a command may take before the test gives up on it.
TIMEOUT = 120.0


def _env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}


def _cli(*argv: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        cwd=cwd,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=TIMEOUT,
    )


def _get(url: str) -> str:
    with urllib.request.urlopen(url, timeout=5.0) as response:
        return response.read().decode()


def _keep(path: Path, text: str) -> str:
    """*text*, written to *path* too: CI uploads what each command wrote."""
    path.write_text(text)
    return text


def _serving(run: subprocess.Popen, lines: list[str]) -> str:
    """The server's URL, from the line the run prints when it binds."""
    for line in run.stdout:
        lines.append(line)
        found = re.search(r"telemetry: serving (http://\S+?)/metrics", line)
        if found:
            return found.group(1)
    raise AssertionError("".join(lines))


def _under_way(url: str) -> None:
    """Wait until the server answers that workflows are running."""
    deadline = time.monotonic() + 20.0
    while True:
        try:
            if json.loads(_get(url + "/healthz")).get("running"):
                return
        except OSError:
            pass
        assert time.monotonic() < deadline, "the run did not start"
        time.sleep(0.1)


@pytest.mark.live
def test_a_served_batch_is_scraped_mid_run_and_inspected(tmp_path):
    run = subprocess.Popen(
        [
            sys.executable,
            "-u",
            "-m",
            "repro.cli",
            "run",
            *sorted(map(str, SPECS.glob("*.xml"))),
            "--grid",
            str(SPECS / "volunteer_grid.json"),
            "--instances",
            "10",
            "--serve-telemetry",
            "0",
            "--pace",
            "0.05",
            "--telemetry-linger",
            "5",
            "--flight-record",
            "journal.jsonl",
        ],
        cwd=tmp_path,
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    lines: list[str] = []
    try:
        url = _serving(run, lines)
        _under_way(url)
        prom = _keep(tmp_path / "mid_run.prom", _get(url + "/metrics"))
        health = _keep(tmp_path / "mid_run_health.json", _get(url + "/health"))
        workflows = _keep(tmp_path / "mid_run_workflows.json", _get(url + "/workflows"))
        # The live dashboard against the same server: one frame, raw JSON.
        top = _cli("top", url, "--once", "--json", cwd=tmp_path)
        _keep(tmp_path / "top.json", top.stdout)
        rest, _ = run.communicate(timeout=TIMEOUT)
    finally:
        if run.poll() is None:
            run.kill()
            run.communicate()
    serve_log = _keep(tmp_path / "serve.log", "".join(lines) + rest)
    assert run.returncode == 0, serve_log
    health, workflows = json.loads(health), json.loads(workflows)

    assert "# TYPE" in prom, prom[:400]
    assert len(workflows) == 10, [w.get("workflow_id") for w in workflows]
    assert "rules" in health and "summary" in health, sorted(health)
    assert top.returncode == 0, top.stderr
    frame = json.loads(top.stdout)
    assert frame["workflows"], sorted(frame)
    assert "estimators" in frame["health"], sorted(frame["health"])
    rule_names = {r["name"] for r in frame["health"]["rules"]["rules"]}
    assert "catalog-drift" in rule_names, rule_names

    # A crash loses nothing: the spill holds its header line and every
    # event the recorder saw, however far the ring wrapped.
    spilled = re.search(
        r"^flight recording written to journal.jsonl \((\d+) events", serve_log, re.M
    )
    assert spilled, serve_log
    journal = (tmp_path / "journal.jsonl").read_text()
    assert journal.count("\n") == int(spilled.group(1)) + 1

    postmortem = _cli("inspect", "journal.jsonl", cwd=tmp_path)
    _keep(tmp_path / "postmortem.txt", postmortem.stdout)
    assert postmortem.returncode == 0, postmortem.stderr
    assert "⇐" in postmortem.stdout
    # The ledger is the trace's attempt spans over the journal: an attempt
    # the engine cancelled ends with its node, so nothing a finished
    # workflow ran is left in flight.
    as_json = _cli("inspect", "journal.jsonl", "--json", cwd=tmp_path)
    _keep(tmp_path / "postmortem.json", as_json.stdout)
    assert as_json.returncode == 0, as_json.stderr
    timelines = json.loads(as_json.stdout)
    ended = {"done", "failed", "exception", "cancelled"}
    finished = [tl for tl in timelines.values() if tl["status"] != "in-flight"]
    assert finished, sorted(timelines)
    stray = [
        (tl["workflow_id"], a["job"], a["outcome"])
        for tl in finished
        for a in tl["attempts"]
        if a["outcome"] not in ended
    ]
    assert not stray, stray
