"""Tests for the command-line interface and the gridspec loader."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import GridError
from repro.gridspec import behavior_from_spec, build_grid, load_gridspec
from repro.grid.behaviors import CheckpointingTask, FixedDurationTask

WORKFLOW_XML = """
<Workflow name='cliwf'>
  <Activity name='summation' max_tries='3'>
    <Output>total</Output>
    <Implement>sum</Implement>
  </Activity>
  <Program name='sum'>
    <Option hostname='n1'/>
  </Program>
</Workflow>
"""

GRIDSPEC = {
    "seed": 7,
    "config": {"heartbeats": False},
    "hosts": [{"hostname": "n1", "reliable": True}],
    "software": [
        {
            "hostname": "*",
            "executable": "sum",
            "behavior": {"type": "fixed", "duration": 30.0, "result": 42},
        }
    ],
}


@pytest.fixture
def workflow_file(tmp_path):
    path = tmp_path / "wf.xml"
    path.write_text(WORKFLOW_XML)
    return path


@pytest.fixture
def grid_file(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(GRIDSPEC))
    return path


class TestGridspec:
    def test_build_grid_from_spec(self):
        grid = build_grid(GRIDSPEC)
        assert "n1" in grid.hosts
        assert isinstance(grid.host("n1").resolve("sum"), FixedDurationTask)

    def test_load_from_file(self, grid_file):
        grid = load_gridspec(grid_file)
        assert grid.streams.seed == 7

    def test_missing_hosts_rejected(self):
        with pytest.raises(GridError, match="no hosts"):
            build_grid({"hosts": []})

    def test_reliable_and_mttf_exclusive(self):
        with pytest.raises(GridError, match="exclusive"):
            build_grid(
                {"hosts": [{"hostname": "n1", "reliable": True, "mttf": 5}]}
            )

    def test_unknown_behavior_type(self):
        with pytest.raises(GridError, match="unknown behavior"):
            behavior_from_spec({"type": "quantum"})

    def test_behavior_missing_field(self):
        with pytest.raises(GridError, match="missing required field"):
            behavior_from_spec({"type": "fixed"})

    def test_all_behavior_types_constructible(self):
        specs = [
            {"type": "fixed", "duration": 1.0},
            {"type": "checkpointing", "duration": 10.0, "checkpoints": 2},
            {
                "type": "exception_prone",
                "duration": 10.0,
                "checks": 2,
                "probability": 0.5,
            },
            {"type": "crashing", "duration": 10.0, "crash_at": 5.0},
            {"type": "flaky", "duration": 10.0, "crash_probability": 0.5},
        ]
        for spec in specs:
            behavior_from_spec(spec)

    def test_checkpointing_defaults(self):
        behavior = behavior_from_spec(
            {"type": "checkpointing", "duration": 10.0, "checkpoints": 4}
        )
        assert isinstance(behavior, CheckpointingTask)
        assert behavior.overhead == 0.5

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(GridError, match="not valid JSON"):
            load_gridspec(path)

    def test_non_object_json(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(GridError, match="JSON object"):
            load_gridspec(path)


class TestCli:
    def test_validate_ok(self, workflow_file, capsys):
        assert main(["validate", str(workflow_file)]) == 0
        assert "is valid" in capsys.readouterr().out

    def test_validate_reports_problems(self, tmp_path, capsys):
        path = tmp_path / "bad.xml"
        path.write_text(
            "<Workflow name='w'><Activity name='a'/>"
            "<Transition from='a' to='ghost'/></Workflow>"
        )
        assert main(["validate", str(path)]) == 2
        assert "ghost" in capsys.readouterr().out

    def test_lint_clean_and_dirty(self, workflow_file, tmp_path, capsys):
        assert main(["lint", str(workflow_file)]) == 0
        dirty = tmp_path / "dirty.xml"
        dirty.write_text("<Workflow name='w'><Activity name='a' speed='9'/></Workflow>")
        assert main(["lint", str(dirty)]) == 2

    def test_run_success(self, workflow_file, grid_file, capsys):
        code = main(["run", str(workflow_file), "--grid", str(grid_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "done" in out and "30.000" in out

    def test_run_workflow_failure_exit_code(self, tmp_path, grid_file, capsys):
        wf = tmp_path / "fail.xml"
        wf.write_text(
            "<Workflow name='w'>"
            "<Activity name='t'><Implement>missing</Implement></Activity>"
            "<Program name='missing'><Option hostname='n1'/></Program>"
            "</Workflow>"
        )
        assert main(["run", str(wf), "--grid", str(grid_file)]) == 1

    def test_run_with_checkpoint_then_resume(
        self, workflow_file, grid_file, tmp_path, capsys
    ):
        ckpt = tmp_path / "engine.ckpt"
        assert (
            main(
                [
                    "run",
                    str(workflow_file),
                    "--grid",
                    str(grid_file),
                    "--checkpoint",
                    str(ckpt),
                ]
            )
            == 0
        )
        assert ckpt.exists()
        assert main(["resume", str(ckpt), "--grid", str(grid_file)]) == 0

    def test_resume_from_damaged_state_is_an_error_not_a_traceback(
        self, grid_file, tmp_path, capsys
    ):
        from tests.test_engine_resume import damaged_checkpoint

        ckpt = damaged_checkpoint(tmp_path, "unknown-status")
        assert main(["resume", str(ckpt), "--grid", str(grid_file)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_spec_error_exit_code(self, tmp_path, grid_file, capsys):
        missing = tmp_path / "nope.xml"
        assert main(["run", str(missing), "--grid", str(grid_file)]) == 2
        assert "error:" in capsys.readouterr().err


class TestCliMc:
    def test_sampler_table_output(self, capsys):
        code = main(
            ["mc", "--technique", "retrying", "--mttf", "50", "--runs", "200"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "standalone sampler" in out
        assert "retrying" in out

    def test_engine_json_output(self, capsys):
        code = main(
            [
                "mc",
                "--technique",
                "checkpointing",
                "--runs",
                "5",
                "--engine",
                "--json",
            ]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 1
        row = rows[0]
        assert row["technique"] == "checkpointing"
        assert row["mode"] == "engine"
        assert row["runs"] == 5
        assert row["mean"] > 0

    def test_engine_jobs_value_does_not_change_results(self, capsys):
        args = [
            "mc",
            "--technique",
            "replication",
            "--runs",
            "6",
            "--engine",
            "--json",
        ]
        assert main(args + ["--jobs", "1"]) == 0
        seq = json.loads(capsys.readouterr().out)
        assert main(args + ["--jobs", "3"]) == 0
        par = json.loads(capsys.readouterr().out)
        assert seq == par

    def test_all_techniques_default(self, capsys):
        assert main(["mc", "--runs", "100", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["technique"] for r in rows] == [
            "retrying",
            "checkpointing",
            "replication",
            "replication_checkpointing",
        ]


class TestCliMcTechniqueAliases:
    """Combined-technique spellings resolve through ``_mc_techniques``."""

    def test_combined_aliases_resolve(self, capsys):
        code = main(
            [
                "mc",
                "--technique",
                "replication+checkpointing,retry+backoff",
                "--runs",
                "100",
                "--json",
            ]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["technique"] for r in rows] == [
            "replication_checkpointing",
            "backoff_retry",
        ]

    def test_extended_selects_all_five(self, capsys):
        assert main(["mc", "--technique", "extended", "--runs", "50", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["technique"] for r in rows] == [
            "retrying",
            "checkpointing",
            "replication",
            "replication_checkpointing",
            "backoff_retry",
        ]

    def test_unknown_technique_exits_with_error(self, capsys):
        assert main(["mc", "--technique", "hope", "--runs", "10"]) == 2
        assert "unknown technique" in capsys.readouterr().err

    def test_backoff_flags_reach_sampler(self, capsys):
        # An aggressive cap keeps waits short; just check it runs and labels.
        code = main(
            [
                "mc",
                "--technique",
                "backoff",
                "--runs",
                "200",
                "--mttf",
                "50",
                "--backoff",
                "3.0",
                "--max-interval",
                "0",
            ]
        )
        assert code == 0
        assert "backoff_retry" in capsys.readouterr().out


class TestCliObservability:
    """``run --metrics/--trace`` and ``mc --stats`` exporter plumbing."""

    def test_run_writes_prometheus_and_chrome_trace(
        self, workflow_file, grid_file, tmp_path, capsys
    ):
        prom = tmp_path / "run.prom"
        trace = tmp_path / "run.json"
        code = main(
            [
                "run",
                str(workflow_file),
                "--grid",
                str(grid_file),
                "--metrics",
                str(prom),
                "--trace",
                str(trace),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "metrics written" in out and "trace written" in out
        text = prom.read_text()
        assert "engine_nodes_launched_total" in text
        assert 'engine_workflow_runs_total{status="done",workflow="cliwf"} 1.0' in text
        payload = json.loads(trace.read_text())
        names = {e["name"] for e in payload["traceEvents"]}
        assert {"workflow.run", "node.run", "task.attempt"} <= names

    def test_run_trace_jsonl_streams_records(
        self, workflow_file, grid_file, tmp_path
    ):
        trace = tmp_path / "run.jsonl"
        code = main(
            ["run", str(workflow_file), "--grid", str(grid_file),
             "--trace", str(trace)]
        )
        assert code == 0
        records = [
            json.loads(line) for line in trace.read_text().splitlines() if line
        ]
        kinds = {r["kind"] for r in records}
        assert {"event", "span", "metrics"} <= kinds

    def test_a_truncated_export_says_so(
        self, workflow_file, grid_file, tmp_path, capsys, monkeypatch
    ):
        """Events and spans are views of the bus's log: a run that outgrew
        the ring exports the newest part, and both the CLI line and the
        JSON-lines header say how much; an unwrapped run's do not."""
        from repro.obs import EventLog

        def run(suffix):
            trace = tmp_path / f"run.{suffix}"
            args = ["run", str(workflow_file), "--grid", str(grid_file)]
            assert main([*args, "--trace", str(trace)]) == 0
            return capsys.readouterr().out, trace.read_text()

        out, text = run("jsonl")
        assert "log wrapped" not in out
        assert json.loads(text.splitlines()[0])["kind"] == "event"
        whole = len(text.splitlines())

        on = EventLog.on.__func__
        monkeypatch.setattr(
            EventLog,
            "on",
            classmethod(lambda cls, bus, *, clock=None, capacity=None: on(
                cls, bus, clock=clock, capacity=4
            )),
        )
        out, text = run("jsonl")
        header, *records = [json.loads(line) for line in text.splitlines()]
        published = header["log_wrapped"]["published"]
        assert header == {"kind": "header", "log_wrapped": {"held": 4, "published": published}}
        assert published > 4 and len(records) < whole
        assert f"(log wrapped: newest 4 of {published} events)" in out
        out, _ = run("json")
        assert f"Perfetto) (log wrapped: newest 4 of {published} events)" in out

    def test_run_without_flags_writes_nothing(
        self, workflow_file, grid_file, tmp_path, capsys
    ):
        code = main(["run", str(workflow_file), "--grid", str(grid_file)])
        assert code == 0
        assert "metrics written" not in capsys.readouterr().out
        # Only the fixture inputs — no stray metric/trace artefacts.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "grid.json",
            "wf.xml",
        ]

    def test_mc_stats_text_report(self, capsys):
        code = main(
            [
                "mc",
                "--technique",
                "retrying",
                "--runs",
                "5",
                "--engine",
                "--stats",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "run statistics:" in out
        assert "attempts/run: mean=" in out
        assert "pool sampler cache:" in out
        assert "disk sample cache:   n/a (0 lookups)" in out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--engine", "--runs", "5"],
            ["--engine", "--runs", "20", "--target-ci", "0.5", "--min-runs", "5"],
            ["--runs", "50"],
            ["--runs", "400", "--target-ci", "0.2", "--min-runs", "50", "--crn"],
        ],
    )
    def test_mc_stats_counts_disk_cache_lookups(
        self, flags, tmp_path, monkeypatch, capsys
    ):
        # Every route consults the cache at the pipeline's one lookup
        # site, so every route's lookups show in --stats.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = ["mc", "--technique", "retrying", "--stats", "--cache", *flags]
        assert main(argv) == 0
        assert "disk sample cache:   0% (0/1)" in capsys.readouterr().out
        assert main(argv) == 0
        assert "disk sample cache:   100% (1/1)" in capsys.readouterr().out

    def test_mc_stats_sampler_mode_points_at_engine(self, capsys):
        code = main(
            ["mc", "--technique", "retrying", "--runs", "50", "--stats"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "need --engine" in out

    def test_mc_stats_json_embeds_snapshot(self, capsys):
        code = main(
            [
                "mc",
                "--technique",
                "checkpointing",
                "--runs",
                "4",
                "--engine",
                "--stats",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"][0]["technique"] == "checkpointing"
        families = payload["metrics"]
        assert families["mc_runs_total"]["series"][0]["value"] == 4.0
        [attempts] = families["mc_attempts"]["series"]
        assert attempts["count"] == 4
        assert sum(attempts["counts"]) == attempts["count"]
