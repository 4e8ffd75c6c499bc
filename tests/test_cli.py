"""Tests for the command-line interface and the gridspec loader."""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.policy import FailurePolicy
from repro.errors import GridError, ParseError, PolicyError, SimulationError
from repro.gridspec import behavior_from_spec, build_grid, load_gridspec
from repro.grid import ResourceSpec, SimKernel
from repro.grid.behaviors import (
    CheckpointingTask,
    ExceptionProneTask,
    FixedDurationTask,
)
from repro.reactor import RealTimeReactor
from repro.sim import CITarget, SimulationParams
from repro.wpdl.parser import parse_wpdl

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

    def test_exception_prone_takes_its_checkpoint_costs(self):
        # Figure 13's checkpointing cell, with its C and R, as a document.
        behavior = behavior_from_spec(
            {
                "type": "exception_prone",
                "duration": 10.0,
                "checks": 4,
                "probability": 0.2,
                "checkpointable": True,
                "overhead": 0.5,
                "recovery_time": 0.25,
            }
        )
        assert behavior == ExceptionProneTask(
            duration=10.0,
            checks=4,
            probability=0.2,
            checkpointable=True,
            overhead=0.5,
            recovery_time=0.25,
        )

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


def _misspelt(where: str) -> dict:
    """``GRIDSPEC`` with one key it does not define, at *where*."""
    spec = json.loads(json.dumps(GRIDSPEC))
    if where == "top level":
        spec["hots"] = []
    elif where == "config":
        spec["config"]["crash_detecton"] = "heartbeat"
    elif where == "host":
        spec["hosts"] = [{"hostname": "n1", "mtff": 20}]
    elif where == "software entry":
        spec["software"][0]["hostnme"] = "n1"
    else:
        spec["software"][0]["behavior"]["overhed"] = 2.0
    return spec


@pytest.mark.contract
class TestOutsideInputIsChecked:
    """A misspelt gridspec key and a NaN are refused where they enter:
    neither builds a grid, a policy or a parameter set that then behaves
    as if the input had said something else."""

    @pytest.mark.parametrize(
        "where, key, named",
        [
            ("top level", "hots", "gridspec"),
            ("config", "crash_detecton", "grid config"),
            ("host", "mtff", "host 'n1'"),
            ("software entry", "hostnme", "software entry 'sum'"),
            ("behavior", "overhed", "behavior type 'fixed'"),
        ],
    )
    def test_a_gridspec_key_it_does_not_define_is_an_error(
        self, where, key, named
    ):
        with pytest.raises(GridError) as info:
            build_grid(_misspelt(where))
        assert str(info.value) == f"{named}: unknown key {key!r}"

    def test_a_misspelt_mttf_is_not_a_reliable_host(
        self, workflow_file, tmp_path, capsys
    ):
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps(_misspelt("host")))
        code = main(["run", str(workflow_file), "--grid", str(grid_file)])
        assert code == 2
        assert "unknown key 'mtff'" in capsys.readouterr().err

    def test_nan_is_refused_at_every_numeric_input(self):
        nan = math.nan
        params = (
            "failure_free_time",
            "mttf",
            "downtime",
            "checkpoint_overhead",
            "recovery_time",
            "checkpoints",
            "replicas",
            "retry_interval",
            "backoff_factor",
            "max_retry_interval",
            "exception_probability",
            "alternative_time",
            "runs",
        )
        for field in params:
            with pytest.raises(SimulationError):
                SimulationParams(**{field: nan})
        for field in ("speed", "mttf", "mean_downtime", "heartbeat_period", "slots"):
            with pytest.raises(ValueError, match="nan"):
                ResourceSpec(hostname="h", **{field: nan})
        for field in ("interval", "backoff_factor", "max_interval", "attempt_timeout"):
            with pytest.raises(PolicyError, match="nan"):
                FailurePolicy(**{field: nan})
        behaviors = (
            {"type": "fixed", "duration": nan},
            {
                "type": "checkpointing",
                "duration": 1.0,
                "checkpoints": 2,
                "overhead": nan,
            },
            {"type": "exception_prone", "duration": nan, "checks": 2, "probability": 1},
            {"type": "flaky", "duration": nan, "crash_probability": 0.5},
        )
        for spec in behaviors:
            with pytest.raises(GridError, match="invalid behavior spec"):
                behavior_from_spec(spec)
        kernel = SimKernel()
        with pytest.raises(ValueError, match="nan"):
            kernel.schedule(nan, lambda: None)
        fired = kernel.schedule(1.0, lambda: None)
        kernel.run()
        with pytest.raises(ValueError, match="nan"):
            kernel.rearm(fired, lambda: None, nan)
        with pytest.raises(ValueError, match="nan"):
            RealTimeReactor().call_later(nan, lambda: None)

    def test_nan_in_a_specification_or_a_gridspec_is_refused(self, tmp_path):
        for attribute in ('interval="nan"', 'timeout="nan"', 'backoff="nan"'):
            text = WORKFLOW_XML.replace("'3'", f"'3' {attribute}")
            with pytest.raises(ParseError, match="nan"):
                parse_wpdl(text)
        # Python's json reads NaN; the gridspec must not build a host of it.
        path = tmp_path / "grid.json"
        path.write_text('{"hosts": [{"hostname": "n1", "mttf": NaN}]}')
        with pytest.raises(GridError, match="nan"):
            load_gridspec(path)

    def test_infinity_stays_a_valid_mttf(self):
        assert SimulationParams(mttf=math.inf).failure_rate == 0.0
        assert ResourceSpec(hostname="h", mttf=math.inf).reliable
        build_grid({"hosts": [{"hostname": "n1", "mttf": math.inf}]})

    @pytest.mark.parametrize(
        "argv",
        [
            ["mc", "--technique", "retrying", "--mttf", "nan", "--runs", "100"],
            ["mc", "--technique", "checkpointing", "--downtime", "nan"],
            ["mc", "--technique", "retrying", "--mttf", "20,nan"],
        ],
        ids=["mttf", "downtime", "grid"],
    )
    def test_nan_on_the_command_line_exits_2_at_once(self, argv):
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 2, done.stderr
        assert "nan" in done.stderr


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
        # ``validate`` lints: an attribute outside the vocabulary is a problem.
        assert main(["validate", str(workflow_file)]) == 0
        dirty = tmp_path / "dirty.xml"
        dirty.write_text("<Workflow name='w'><Activity name='a' speed='9'/></Workflow>")
        assert main(["validate", str(dirty)]) == 2
        assert "unknown attribute 'speed'" in capsys.readouterr().out

    def test_validate_lists_grammar_and_graph_problems(self, tmp_path, capsys):
        # Recorded from the parser that read the document twice for this.
        path = tmp_path / "both.xml"
        path.write_text(
            "<Workflow name='w'><Activity name='a' max_trys='3'/>"
            "<Transition from='a' to='ghost' om='failed'/></Workflow>"
        )
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().out == (
            "workflow 'w' is INVALID:\n"
            "  - Workflow/Activity: unknown attribute 'max_trys'\n"
            "  - Workflow/Transition: unknown attribute 'om'\n"
            "  - w: transition references unknown target 'ghost'\n"
        )

    def test_validate_reads_the_document_once(self, tmp_path, monkeypatch, capsys):
        from repro.wpdl import parser, schema

        path = tmp_path / "dirty.xml"
        path.write_text("<Workflow name='w'><Activity name='a' speed='9'/></Workflow>")
        reads = []
        for module in (parser, schema):
            run = module._run
            monkeypatch.setattr(
                module, "_run", lambda p, text, run=run: reads.append(1) or run(p, text)
            )
        assert main(["validate", str(path)]) == 2
        assert "unknown attribute 'speed'" in capsys.readouterr().out
        assert len(reads) == 1

    def test_validate_lists_an_element_out_of_place(self, tmp_path, capsys):
        path = tmp_path / "misplaced.xml"
        path.write_text(
            "<Workflow name='w'><Variables><Activity name='y'/></Variables>"
            "<Loop name='l' condition='False'>"
            "<Activity name='x'/><Body><Activity name='b'/></Body></Loop></Workflow>"
        )
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().out == (
            "workflow 'w' is INVALID:\n"
            "  - Workflow/Variables: element <Activity> not allowed inside "
            "<Variables>\n"
            "  - Workflow/Loop: element <Activity> not allowed inside <Loop>\n"
        )

    def test_validate_lists_what_the_dtd_orders_and_requires(self, tmp_path, capsys):
        # A refused element is not read, and what the grammar listed is listed
        # once: the activity naming the unread program is not listed again.
        path = tmp_path / "unordered.xml"
        path.write_text(
            "<Workflow name='w'><Activity name='a'><Implement>p</Implement>"
            "<Description>d</Description></Activity><Loop name='l' condition='x'/>"
            "<Program name='p'/></Workflow>"
        )
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().out == (
            "workflow 'w' is INVALID:\n"
            "  - Workflow/Activity: element <Description> out of order inside "
            "<Activity>\n"
            "  - Workflow/Loop: <Loop> requires <Body>\n"
            "  - Workflow/Program: <Program> requires <Option>\n"
        )

    @pytest.mark.parametrize(
        "nodes, listed",
        [
            (
                "<Activity name='a'/><Loop name='l' condition='x'/>"
                "<Transition from='a' to='l'/>",
                ["Workflow/Loop: <Loop> requires <Body>"],
            ),
            (
                "<Activity name='a'/><SubWorkflow name='l'/>"
                "<Transition from='l' to='a'/>",
                ["Workflow/SubWorkflow: <SubWorkflow> requires <Body>"],
            ),
            (
                "<Loop name='l' condition='x'/>",
                ["Workflow/Loop: <Loop> requires <Body>"],
            ),
            (
                "<Activity name='a'><Input name='i' ref='l'/></Activity>"
                "<Loop name='l' condition='x'/>",
                ["Workflow/Loop: <Loop> requires <Body>"],
            ),
            # A program's name is not a node's, and a node of a body is not
            # the workflow's: the edge is listed.
            (
                "<Activity name='a'/><Program name='l'/>"
                "<Transition from='a' to='l'/>",
                [
                    "Workflow/Program: <Program> requires <Option>",
                    "w: transition references unknown target 'l'",
                ],
            ),
            (
                "<Activity name='a'/><SubWorkflow name='s'><Body>"
                "<Activity name='b'/><Loop name='l' condition='x'/></Body>"
                "</SubWorkflow><Transition from='a' to='l'/>",
                [
                    "Workflow/SubWorkflow/Body/Loop: <Loop> requires <Body>",
                    "w: transition references unknown target 'l'",
                ],
            ),
        ],
        ids=["loop", "subworkflow", "only-node", "input", "program", "in-a-body"],
    )
    def test_validate_lists_a_refused_element_once(
        self, tmp_path, capsys, nodes, listed
    ):
        # A transition, an input or an empty graph that is what it is only
        # because the grammar refused a composite is not listed again.
        path = tmp_path / "refused.xml"
        path.write_text(f"<Workflow name='w'>{nodes}</Workflow>")
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().out == "".join(
            ["workflow 'w' is INVALID:\n", *(f"  - {line}\n" for line in listed)]
        )

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

    @pytest.mark.contract
    def test_run_with_checkpoint_then_resume(
        self, workflow_file, grid_file, tmp_path, capsys
    ):
        ckpt = tmp_path / "engine.ckpt"
        argv = ["run", str(workflow_file), "--grid", str(grid_file)]
        assert main([*argv, "--checkpoint", str(ckpt)]) == 0
        assert ckpt.exists()
        ran = capsys.readouterr().out
        assert main(["resume", str(ckpt), "--grid", str(grid_file)]) == 0
        resumed = capsys.readouterr().out
        # A finished instance resumes finished: same statuses and tries, on
        # a fresh grid whose clock starts at zero.
        assert "completion time: 30.000" in ran
        assert "completion time: 0.000" in resumed
        drop = re.compile(r"^completion time: .*$", re.M)
        assert drop.sub("", resumed) == drop.sub("", ran)

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


@pytest.mark.contract
class TestCliAdaptiveBounds:
    """``--target-ci`` never draws past the ceiling the user set:
    ``--max-runs``, else ``--runs``.  A floor above it is a usage error."""

    #: One MTTF and a two-point grid, with a target no budget here can meet.
    CELL = {
        "mc": ["mc", "--technique", "retrying", "--mttf", "20"],
        "mc-grid": ["mc", "--technique", "retrying", "--mttf", "20,30"],
    }
    TARGET = ["--target-ci", "0.0001"]

    @pytest.mark.parametrize(
        "flags,limit",
        [
            (["--runs", "5000", "--max-runs", "100"], 100),
            (["--runs", "300"], 300),
        ],
    )
    @pytest.mark.parametrize("command", ["mc", "mc-grid"])
    def test_never_draws_past_the_ceiling(self, capsys, command, flags, limit):
        argv = self.CELL[command] + self.TARGET + flags + ["--json"]
        assert main(argv) == 0
        runs = [row["runs"] for row in json.loads(capsys.readouterr().out)]
        assert runs == [limit] * len(self.CELL[command][-1].split(","))

    @pytest.mark.parametrize(
        "flags,ceiling",
        [
            (["--runs", "2000", "--min-runs", "5000"], "--runs"),
            (["--min-runs", "500", "--max-runs", "100"], "--max-runs"),
        ],
    )
    @pytest.mark.parametrize("command", ["mc", "mc-grid"])
    def test_floor_above_ceiling_is_a_usage_error(
        self, capsys, command, flags, ceiling
    ):
        assert main(self.CELL[command] + self.TARGET + flags) == 2
        err = capsys.readouterr().err
        assert "--min-runs" in err and ceiling in err


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

    def test_the_mosaic_example_exports_every_format(self, tmp_path):
        """What CI uploads as the sample artefacts: an instrumented run of
        the mosaic example writes a Prometheus text summary, a loadable
        Chrome trace, and a JSON-lines stream whose every line parses on
        its own."""
        args = ["run", str(SPECS / "mosaic.xml")]
        args += ["--grid", str(SPECS / "volunteer_grid.json")]
        prom, trace, jsonl = (tmp_path / f"run.{x}" for x in ("prom", "json", "jsonl"))
        assert main([*args, "--metrics", str(prom), "--trace", str(trace)]) == 0
        assert main([*args, "--trace", str(jsonl)]) == 0
        assert "engine_nodes_launched_total" in prom.read_text()
        phases = {e["ph"] for e in json.loads(trace.read_text())["traceEvents"]}
        assert {"X", "M"} <= phases
        lines = [line for line in jsonl.read_text().splitlines() if line.strip()]
        kinds = {json.loads(line)["kind"] for line in lines}
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
        # The histograms are followed by the disk cache's line, and nothing
        # else: no per-process cache outlives an estimate to report on.
        assert out.endswith("disk sample cache:   n/a (0 lookups)\n")

    @pytest.mark.contract
    def test_mc_stats_are_the_same_at_any_worker_count(self, capsys):
        # Every estimate starts from nothing, so what --stats reports is a
        # function of the specification: only the header's jobs= differs.
        argv = ["mc", "--engine", "--technique", "extended", "--mttf", "30"]
        argv += ["--runs", "30", "--stats"]
        outs = []
        for jobs in ("1", "2"):
            assert main([*argv, "--jobs", jobs]) == 0
            header, _, rest = capsys.readouterr().out.partition("\n")
            assert header.endswith(f"jobs={jobs})")
            outs.append(rest)
        assert outs[0] == outs[1]
        assert "run statistics:" in outs[0]

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


SPECS = Path(__file__).resolve().parent.parent / "examples" / "specs"


@pytest.mark.contract
class TestOneCommandPerJob:
    """The CLI's jobs, each driven through its one command: many
    specifications per ``run``, pacing, the journal round trip, and the
    MTTF grid of ``mc`` held to the library."""

    def test_two_specifications_run_multiplexed(self, tmp_path, grid_file, capsys):
        specs = tmp_path / "specs"
        specs.mkdir()
        (specs / "a.xml").write_text(WORKFLOW_XML)
        (specs / "b.xml").write_text(WORKFLOW_XML.replace("cliwf", "other"))
        argv = ["run", str(specs / "a.xml"), str(specs / "b.xml")]
        assert main([*argv, "--grid", str(grid_file)]) == 0
        lines = capsys.readouterr().out.splitlines()
        done = "done (completion time: 30.000 virtual seconds)"
        assert f"wf-1     'cliwf': {done}" in lines
        assert f"wf-2     'other': {done}" in lines
        assert lines[-1] == "2/2 instance(s) succeeded"

    @pytest.mark.parametrize("instances", ["1", "2"])
    def test_pacing_changes_nothing_but_the_wall_clock(
        self, workflow_file, grid_file, capsys, monkeypatch, instances
    ):
        argv = ["run", str(workflow_file), "--grid", str(grid_file)]
        argv += ["--instances", instances]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        slept = []
        monkeypatch.setattr("repro.cli.time.sleep", slept.append)
        assert main([*argv, "--pace", "1e-4"]) == 0
        assert capsys.readouterr().out == plain
        # The 30 virtual seconds the run lasts, scaled to wall seconds.
        assert sum(slept) == pytest.approx(30 * 1e-4)

    def test_flight_record_reads_back_with_causal_arrows(self, tmp_path, capsys):
        journal = tmp_path / "journal.jsonl"
        argv = ["run", str(SPECS / "mosaic.xml")]
        argv += ["--grid", str(SPECS / "volunteer_grid.json"), "--instances", "2"]
        assert main([*argv, "--flight-record", str(journal)]) == 0
        assert "flight recording written to" in capsys.readouterr().out
        assert main(["inspect", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "wf-1" in out and "wf-2" in out
        assert "⇐" in out

    def test_inspect_leaves_no_attempt_of_a_finished_workflow_in_flight(
        self, tmp_path, capsys
    ):
        """A losing replica or OR-join branch is cancelled with its node:
        ``inspect`` ends it there, as the trace's spans do."""
        journal = tmp_path / "journal.jsonl"
        argv = ["run", str(SPECS / "mosaic.xml")]
        argv += ["--grid", str(SPECS / "volunteer_grid.json"), "--instances", "10"]
        assert main([*argv, "--flight-record", str(journal)]) == 0
        capsys.readouterr()
        assert main(["inspect", str(journal), "--json"]) == 0
        timelines = json.loads(capsys.readouterr().out)
        assert {tl["status"] for tl in timelines.values()} == {"done"}
        attempts = [(wfid, a) for wfid, tl in timelines.items() for a in tl["attempts"]]
        outcomes = {a["outcome"] for _wfid, a in attempts}
        assert outcomes <= {"done", "failed", "exception", "cancelled"}
        resolved = {}
        for line in journal.read_text().splitlines()[1:]:
            entry = json.loads(line)
            if entry["topic"] in ("engine.node_completed", "engine.node_cancelled"):
                resolved[entry["workflow_id"], entry["node"]] = entry["at"]
        cancelled = [(w, a) for w, a in attempts if a["outcome"] == "cancelled"]
        assert cancelled
        assert all(a["ended_at"] == resolved[w, a["activity"]] for w, a in cancelled)

    @pytest.mark.parametrize(
        "flags,kwargs",
        [
            ([], {}),
            (
                ["--target-ci", "0.05", "--crn"],
                {
                    "target_ci": CITarget(rel=0.05, min_runs=1000, max_runs=2000),
                    "variance_reduction": "crn",
                },
            ),
        ],
    )
    def test_mc_grid_csv_is_the_library_sweep(self, capsys, flags, kwargs):
        from repro.sim import SimulationParams, sweep_mttf, to_csv

        techniques = ["retrying", "replication"]
        params = SimulationParams(runs=2000)
        series = sweep_mttf(params, [10.0, 20.0], techniques, runs=2000, **kwargs)
        argv = ["mc", "--technique", ",".join(techniques), "--mttf", "10,20"]
        assert main([*argv, "--runs", "2000", *flags, "--csv"]) == 0
        expected = to_csv("mttf", [series[t] for t in techniques])
        assert capsys.readouterr().out == expected + "\n"

    def test_mc_json_rows_are_the_pipeline_summaries(self, capsys):
        from repro.sim import SimulationParams, estimate_cells

        argv = ["mc", "--technique", "retrying,checkpointing", "--mttf", "10,20"]
        assert main([*argv, "--runs", "300", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        keys = [(t, m) for t in ("retrying", "checkpointing") for m in (10.0, 20.0)]
        cells = estimate_cells(
            [(t, SimulationParams(mttf=m, runs=300)) for t, m in keys], runs=300
        )
        assert [(r["technique"], r["mttf"]) for r in rows] == keys
        for row, cell in zip(rows, cells, strict=True):
            summary = cell.summary
            assert row["runs"] == summary.n
            assert row["mean"] == summary.mean
            assert row["ci99_halfwidth"] == summary.ci_halfwidth
            assert row["rel_ci"] == summary.rel_halfwidth
            assert row["ess"] == summary.ess
            assert (row["p50"], row["p95"]) == (summary.p50, summary.p95)
            assert row["converged"] is cell.converged


@pytest.mark.contract
class TestCliFixes:
    """Faults of earlier CLIs, each pinned by the input that showed it."""

    def test_validate_refuses_misspelled_policy_attributes(self, tmp_path, capsys):
        path = tmp_path / "typo.xml"
        path.write_text(
            "<Workflow name='w'>"
            "<Activity name='a' max_trys='3' polcy='replica'>"
            "<Implement>p</Implement></Activity>"
            "<Program name='p'><Option hostname='n1'/></Program>"
            "</Workflow>"
        )
        assert main(["validate", str(path)]) == 2
        out = capsys.readouterr().out
        assert "is valid" not in out
        assert "unknown attribute 'max_trys'" in out
        assert "unknown attribute 'polcy'" in out

    def test_run_refuses_misspelled_policy_attributes(
        self, tmp_path, grid_file, capsys
    ):
        # The run used to read ``max_tries=1`` and no replication.
        path = tmp_path / "typo.xml"
        path.write_text(
            "<Workflow name='w'>"
            "<Activity name='a' max_trys='3'>"
            "<Implement>sum</Implement></Activity>"
            "<Program name='sum'><Option hostname='n1'/></Program>"
            "</Workflow>"
        )
        assert main(["run", str(path), "--grid", str(grid_file)]) == 2
        err = capsys.readouterr().err
        assert err == "error: Workflow/Activity: unknown attribute 'max_trys'\n"

    def test_run_refuses_an_activity_out_of_place(self, tmp_path, grid_file, capsys):
        # The run used to execute the workflow without ``x``.
        path = tmp_path / "misplaced.xml"
        path.write_text(
            "<Workflow name='w'>"
            "<Variables><Activity name='x'><Implement>sum</Implement></Activity>"
            "</Variables>"
            "<Activity name='a'><Implement>sum</Implement></Activity>"
            "<Program name='sum'><Option hostname='n1'/></Program>"
            "</Workflow>"
        )
        assert main(["run", str(path), "--grid", str(grid_file)]) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: Workflow/Variables: element <Activity> not allowed inside "
            "<Variables>\n"
        )

    def test_report_covers_every_instance(self, capsys):
        argv = ["run", str(SPECS / "mosaic.xml")]
        argv += ["--grid", str(SPECS / "volunteer_grid.json")]
        assert main([*argv, "--instances", "2", "--report"]) == 0
        out = capsys.readouterr().out
        legend = "#=done  x=failed"
        assert out.count(legend) == 2
        first, second = out.index(legend), out.rindex(legend)
        assert out.index("wf-1") < first < out.index("wf-2") < second

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_a_non_positive_instance_count_is_a_usage_error(
        self, workflow_file, grid_file, capsys, count
    ):
        argv = ["run", str(workflow_file), "--grid", str(grid_file)]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--instances", count])
        assert exc.value.code == 2
        assert "--instances" in capsys.readouterr().err
