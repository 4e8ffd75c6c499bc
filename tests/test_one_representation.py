"""A failure policy has one representation, and "off" means absent.

PR 20 deleted the four-class strategy stack with its registry, the
per-technique config algebra over ``FailurePolicy`` and every disabled
mode of ``repro.obs``; PR 21 took what only existed to survive five
thousand mostly idle per-instance series (optional labels, the
estimators' export-what-changed machinery) and a few names nothing
called; PR 22 took the time-series store's lazy sampling path, bus
history and the span / timer / export surface only tests reached; PR 23
took the observer's, the tracker's and the estimators' own folds (one pass
off one per-instance table now) and the span ring.  A consumer is now
attached for the life of its bus, so detaching, re-attaching, private folds
and the recorder's own window went, with a few recordings nothing read.
Figure 13's strategies are techniques of the one sampling pipeline, so its
parallel stack went.  The bus routes exact topics, so its wildcard
patterns, route cache and subscription handles went.  Instance ids are
the engine host's, so the runtime's id space and its host-managed switch
went, with two ways to pump a simulated reactor and a checkpoint
manager's second way to forget everything.  Recovery reads the policy, so
the strategy object that restated it, the resolver seam that swapped it and
the per-crash decision record went, with the broker's resolve-everything
call only its planning used.  Every rendered view reads a record as its
journal entry, so the observer's second event shape and the trace layer
over it went, with accessors only tests called.  Nothing exists only for
its tests: the message wire format, the second profiler, the registry's
keyword-made instruments and the accessors only tests called went, and a
census fails on a public name only tests read unless ``ONLY_TESTS`` says
why it stays.  The Monte-Carlo layer keeps nothing between estimates, so
the process-wide pool, its sampler cache and its counters went, and a
drift alert latches for good, so its reset went.  A user exception is
routed by one rule over the two forms a specification states, so the
handler binding, its table and the navigator's copy of the rule went.
One walk over ``src/repro`` keeps them deleted, and keeps the retry wait —
and the decoding of a log record — in one place.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser
from repro.ckpt.manager import CheckpointManager
from repro.core.policy import FailurePolicy
from repro.detection import messages
from repro.engine import EngineHost
from repro.engine.recovery import RecoveryCoordinator
from repro.events import EventBus
from repro.execution import SubmitRequest
from repro.grid.gram import GramService
from repro.grid.simkernel import SimReactor
from repro.obs import (
    EstimatorSuite,
    FlightRecorder,
    HealthEngine,
    MetricSpec,
    PeriodicCollector,
    RunObserver,
    TelemetryServer,
    TimeSeriesStore,
    WorkflowStatusTracker,
    default_rules,
    spans,
)
from repro.reactor import Reactor
from repro.wpdl import schema
from repro.wpdl.model import CompiledNode
from tests.helpers import RECORD_TYPES, SPEC_RECORD_TYPES, STATE_TYPES

SRC = Path(repro.__file__).parent

#: Names nothing under ``src/repro`` may define, import, call or mention as
#: an attribute or keyword any more.
GONE = {
    "RetryStrategy",
    "ExponentialBackoffRetryStrategy",
    "CheckpointRestartStrategy",
    "ReplicateStrategy",
    "StrategyRegistry",
    "DEFAULT_REGISTRY",
    "RetryConfig",
    "ReplicationConfig",
    "CheckpointConfig",
    "compose",
    "with_retry",
    "with_replication",
    "with_checkpointing",
    "replication_config",
    "delay_for",
    "resilient_activity",
    "Observability",
    "NULL_OBS",
    # PR 21
    "histogram_series",
    "bind_clock",
    "_base_topic",
    "_exported_to",
    "_dirty",
    "_gauges",
    # PR 22: the store's sample-only-what-moved path, the recording
    # surface only tests called, and ROADMAP's unreferenced names.
    "_replay",
    "_trim_ticks",
    "_settle",
    "_tick_times",
    "_held",
    "_Feed",
    "dump_jsonl",
    "enable_history",
    "clear_history",
    "EventRecord",
    "_SpanContext",
    "_begin_stacked",
    "_TimerContext",
    "with_backoff",
    "with_replicas",
    "with_checkpoints",
    "WorkflowFailedError",
    "HostDownError",
    "running_jobs",
    "queued_jobs",
    # PR 23: a fold per consumer, each with its own table of instances,
    # and a ring of spans nobody sampled.
    "SpanRecorder",
    "_fold_engine",
    "_cancel",
    "_workflows",
    "_Run",
    "_VERDICTS",
    # One lifecycle: a consumer is attached for the life of its bus (one
    # fold per log, one retention rule), and recordings nobody read.
    "detach",
    "attached",
    "_kept",
    "_consumers",
    "folds",
    "FoldedConsumer",
    "_folded_by",
    "_instances",
    "_recorded",
    "_journal",
    "_drift_sub",
    "trail",
    "force",
    "traces_opened",
    "drifted_hosts",
    "suspected_hosts",
    "schedule_at",
    "dec",
    "TraceEvent",
    # Figure 13 is cells of the one sampling pipeline: its own parameter
    # object, its (p, exp) functions and their aliases went; the health
    # engine's drift latch is a call, and the detector's message log went.
    "ExceptionExperiment",
    "EXCEPTION_STRATEGIES",
    "expected_retrying",
    "expected_checkpointing",
    "expected_alternative",
    "sample_retrying",
    "sample_alternative",
    "sample_exception_retrying",
    "sample_exception_checkpointing",
    "MessageLog",
    "_on_drift",
    # An attempt builds only what varies: the detector keeps each attempt's
    # state (no machine object), and a GRAM job's process is its record.
    "TaskStateMachine",
    "_ensure_active",
    "JobRecord",
    # The bus routes exact topics: wildcard patterns, the route cache,
    # subscription handles and the gauges that watched the cache went.
    "Subscription",
    "unsubscribe",
    "_PatternEntry",
    "_MAX_CACHED_ROUTES",
    "_build_route",
    "BUS_CACHED_ROUTES",
    "BUS_ROUTE_BUILDS",
    "BUS_ROUTE_CACHE_HIT_RATE",
    # Acyclic means reachable: the validator's second walk could never fire.
    "_reachable",
    # One way to ask for an estimate: sample_technique for one vector,
    # estimate_cells for everything else; the single-cell adapters, the
    # per-technique sampler names and the pool's context manager went, and
    # so did a span renderer nothing called.
    "adaptive_samples",
    "engine_samples",
    "persistent_pool",
    "sample_retry",
    "sample_backoff_retry",
    "sample_checkpointing",
    "sample_replication",
    "sample_replication_checkpointing",
    "span_tree",
    "next_engine_id",
    "reset_engine_ids",
    "host_managed",
    "_engine_ids",
    # A specification is read without a tree: a <Body> is a nested frame
    # of the event reader, not a tree cloned into a <Workflow>.
    "_clone_as_workflow",
    # Recovery reads its three decisions off the policy.
    "RecoveryStrategy",
    "SlotPlan",
    "RetryDecision",
    "strategy_resolver",
    "resolve_all",
    "_strategy_resolver",
    "_resolve_strategy",
    # One CLI command per job: ``validate`` lints, ``run`` takes many
    # specifications, ``mc`` takes an MTTF grid, and one loop drives a run.
    "cmd_lint",
    "cmd_serve_batch",
    "cmd_sweep",
    "_drive_paced",
    "add_adaptive_options",
    # One reading of what happened: every view decodes the journal entry,
    # so the observer's second event shape and the trace layer over it went.
    "RecordedEvent",
    "EngineTrace",
    "for_node",
    # Accessors only tests called.
    "with_reliability",
    "handled_names",
    "deregister",
    "ci_low",
    "ci_high",
    "on_crash",
    "unlimited_retries",
    "is_checkpoint_enabled",
    # Nothing exists only for its tests: the message wire format, the second
    # profiler, the registry's keyword-made instruments and accessors only
    # tests called (``encode``, ``decode``, ``kind`` and ``_KINDS`` are
    # common names: checked where they lived).
    "_plain",
    "profile_engine_mc",
    "dump",
    "counter",
    "gauge",
    "histogram",
    "_keyword",
    "_by_keyword",
    "locate",
    "logical_names",
    "preset_for",
    "adaptive_best",
    "spawn",
    "exponential_rate",
    "subworkflows",
    "add_hosts",
    "is_partitioned",
    "is_suspected",
    "stopped",
    "incoming_states",
    "outgoing_indices",
    "incoming_indices",
    # The Monte-Carlo layer keeps nothing between calls: one executor and
    # one sampler table per estimate, so the process-wide pool, its sampler
    # LRU and its hit counters went; and a catalog-drift alert latches for
    # the life of the plane, as its detector does.
    "get_pool",
    "pool_size",
    "shutdown_pool",
    "worker_sampler",
    "sampler_cache_info",
    "clear_sampler_cache",
    "SAMPLER_CACHE_LIMIT",
    "reset_drift",
    # WPDL is written in one walk over the model: no element tree is built
    # to be written out, by the serializer or by an engine checkpoint.
    "workflow_to_element",
    "_activity_to_element",
    "_loop_to_element",
    "_subworkflow_to_element",
    "_transition_to_element",
    "_program_to_element",
    "_input_to_element",
    # The DTD's content models are automata the walk steps through: the
    # per-element ``?`` tables, the parser's own <Body> count and the second
    # reading that counted bodies again went.
    "_CHILDREN",
    "_fault_met_first",
    "_Composite",
    # Every part of the telemetry plane is built whole on its bus and the
    # server serves one plane: no unattached consumer, no knob only tests
    # turned, and the fresh-world engine run is the tests' reference.
    "_UNATTACHED",
    "ph_delta",
    "ph_threshold",
    "failure_probability_threshold",
    "heartbeat_loss_threshold",
    "except_slot",
    "run_engine_once",
    # A coordinator is built on its engine's runtime and an activity
    # resolves through one method: no audience check that allowed a
    # missing bus, no resolution per outcome, and a loop ends itself.
    "_wants",
    "_resolve_done",
    "_resolve_exception",
    "_resolve_failed",
    "_complete_loop",
    # A user exception is routed by one rule, over the two forms a
    # specification states: no handler binding, no table of them.
    "ExceptionBinding",
    "ExceptionTable",
    "exception_edge_specificity",
    "young_checkpoint_count",
    # Failure detection is one object: the detector keeps host liveness
    # itself (no monitor, no callback back into it, no sweep period of its
    # own), dispatches on exact types, and the grid states its crash mode
    # once.
    "HeartbeatMonitor",
    "GramConfig",
    "on_suspected",
    "sweep_interval",
    "_handler_for_subclass",
    # A workflow ends one way: a run is released by one step, an engine
    # is torn down by one walk, and the host keeps results, not engines.
    "_cancel_slots",
    "clear_prefix",
    "_order",
}

#: Public names under ``src/repro`` that nothing but tests reaches, kept on
#: purpose: qualified name -> why it stays.
ONLY_TESTS = {
    "SoftwareCatalog": "Figure 7's software catalogue (computation -> programs)",
    "SoftwareCatalog.implementations_of": "Figure 7: a computation's programs",
    "SoftwareCatalog.locations_of": "Figure 7: the hosts a program is installed on",
    "SoftwareCatalog.computations": "Figure 7: the computations catalogued",
    "FileCheckpointStore": "the on-disk store for wall-clock (LocalExecutor) runs",
    "TaskContext.task_checkpoint": "task-side API, globus_FDS equivalent (DESIGN.md)",
    "TaskContext.raise_exception": "task-side API, globus_FDS equivalent (DESIGN.md)",
    "TaskContext.resuming": "task-side API: a task learns it restarts from a flag",
    "FailureDetector.submission_rejected": "a seam the frozen ledger's trace names",
    "Broker.set_query": "per-activity matchmaking for a '*' option (DESIGN.md)",
    "FailureScript": "scripted faults: the base of scripted workloads",
    "inject_partition": "scripted faults: a timed network partition",
    "young_interval": "Young's interval, the analytical cross-check",
    "fork_join": "a workload family the WPDL round-trip tests sweep",
    "diamond_ladder": "a workload family the WPDL round-trip tests sweep",
    "WorkflowBuilder.subworkflow": "builder form of WPDL's <SubWorkflow>",
    "WorkflowBuilder.always": "builder form of an ALWAYS transition",
    "WorkflowBuilder.redundant": "builder form of a '*' replicated activity",
    "TransitionCondition.always": "the ALWAYS condition's constructor",
    "Workflow.entry_nodes": "the graph's entries (DESIGN.md section 11)",
    "Workflow.exit_nodes": "the graph's exits (DESIGN.md section 11)",
}


def identifiers(path: Path) -> set[str]:
    """Every name *path* defines, binds, reads, imports or passes by
    keyword, plus its parameter names as ``arg:<name>``."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            found.add(node.name)
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.keyword) and node.arg:
            found.add(node.arg)
        elif isinstance(node, ast.arg):
            found.add(f"arg:{node.arg}")
    return found


@pytest.mark.contract
def test_the_deleted_surface_stays_deleted():
    for path in sorted(SRC.rglob("*.py")):
        names = identifiers(path)
        where = path.relative_to(SRC)
        assert not names & GONE, (where, sorted(names & GONE))
        if where.parts[0] == "obs":
            # Off means absent: no disabled mode, no null objects.
            assert "arg:enabled" not in names, where
            nulls = sorted(n for n in names if n.upper().startswith("_NULL"))
            assert not nulls, (where, nulls)
    assert not (SRC / "obs" / "core.py").exists()
    # ``args.checkpoint`` is the CLI's flag, so these three are checked
    # where they lived: as views on the policy.
    for view in ("retry", "replication_config", "checkpoint"):
        assert not hasattr(FailurePolicy, view), view
    # ``job`` is too common a name for GONE: checked where it lived.
    assert not hasattr(GramService, "job")
    # ``tries_used`` is still a slot's field: checked where it lived.
    assert not hasattr(RecoveryCoordinator, "tries_used")
    # ``reset`` and ``workflow_ids`` are names other classes keep: a
    # coordinator's runs end in ``_release``, the host keeps results.
    assert not hasattr(RecoveryCoordinator, "reset")
    assert not hasattr(EngineHost, "workflow_ids")
    # ``_states`` is still the health engine's: checked where it lived.
    assert not hasattr(schema, "_states")
    # No layer restates the policy between it and the coordinator: the
    # strategies module is one function, the slots a policy opens.
    tree = ast.parse((SRC / "engine" / "strategies.py").read_text())
    defined = [
        node.name
        for node in tree.body
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
    ]
    assert defined == ["resolve_strategy"]
    # No label is optional and the observer's window is the log's: two
    # settings nobody set (``max_events`` is still the sim kernel's guard,
    # so these two are checked where they lived).
    assert "optional" not in {f.name for f in dataclasses.fields(MetricSpec)}
    assert list(inspect.signature(RunObserver).parameters) == ["bus", "clock"]
    # Every ring of a store has the store's step and capacity; spans have
    # no ring (what is rendered is what the log holds).
    assert not hasattr(TimeSeriesStore, "series")
    assert not hasattr(spans, "_CAPACITY")
    # No consumer folds for itself, or keeps instances for itself
    # (``_running`` is still the collector's and a host's, so it is checked
    # where it lived).
    bus = EventBus()
    for consumer in (RunObserver(bus), WorkflowStatusTracker(bus), EstimatorSuite(bus)):
        kept = {*vars(consumer), *dir(type(consumer))}
        assert not kept & {"_fold", "_runs", "_running", "_recorder"}, consumer
    # The journal's window is the log's, and the health engine never
    # attaches to a bus: it publishes alerts on the one it is given.
    assert list(inspect.signature(FlightRecorder).parameters) == ["bus", "spill_path"]
    assert not hasattr(HealthEngine, "attach_bus")
    assert list(inspect.signature(HealthEngine).parameters) == ["clock", "bus"]
    # The server serves one plane, and every part takes what it reads and
    # feeds: the values only tests set are module constants (``alpha`` and
    # ``sustain`` are common names: checked where they lived).
    assert list(inspect.signature(TelemetryServer).parameters) == [
        "plane",
        "host",
        "port",
        "extra_health",
    ]
    assert list(inspect.signature(EstimatorSuite).parameters) == [
        "bus",
        "clock",
        "priors",
        "store",
    ]
    assert list(inspect.signature(default_rules).parameters) == [
        "engine",
        "store",
        "estimators",
    ]
    collector = inspect.signature(PeriodicCollector).parameters
    assert collector["estimators"].default is collector["health"].default is (
        inspect.Parameter.empty
    )
    assert not (SRC / "sim" / "exceptions_model.py").exists()
    assert not (SRC / "detection" / "log.py").exists()
    # Messages are passed as objects: no wire format, no discriminator.
    assert not {"encode", "decode", "_KINDS"} & set(vars(messages))
    assert not [m for m in messages.Message.__args__ if hasattr(m, "kind")]
    assert not (SRC / "sim" / "profile.py").exists()
    assert not (SRC / "sim" / "pool.py").exists()
    # A request names the job; the attempt's flag and instance go with the
    # submission (``checkpoint_flag`` is still the detector's, so these are
    # checked where they lived).
    fields = set(SubmitRequest._fields)
    assert not fields & {"checkpoint_flag", "workflow_id"}, fields
    # The simulated reactor drains through the kernel's one loop, and an
    # unscoped coordinator clears the empty prefix (``_has_work`` is still
    # the real-time reactor's, ``reset`` everyone's).
    assert not hasattr(SimReactor, "_has_work")
    assert not hasattr(Reactor, "_has_work")
    assert not hasattr(CheckpointManager, "reset")


def _definitions(path: Path):
    """``(qualified name, node)`` of every public function, class and
    method *path* defines."""

    def walk(body, prefix):
        for node in body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("_"):
                    yield prefix + node.name, node
                if isinstance(node, ast.ClassDef):
                    yield from walk(node.body, f"{prefix}{node.name}.")

    return walk(ast.parse(path.read_text()).body, "")


def _overrides_a_foreign_base(path: Path, qualname: str) -> bool:
    """Whether *qualname* is a method a base class outside ``repro``
    defines (``do_GET``, ``log_message``): a protocol the base calls."""
    owner, _, name = qualname.rpartition(".")
    if not owner:
        return False
    module = ".".join(("repro", *path.relative_to(SRC).with_suffix("").parts))
    cls = importlib.import_module(module.removesuffix(".__init__"))
    for part in owner.split("."):
        cls = getattr(cls, part)
    return any(
        name in vars(base)
        for base in cls.__mro__[1:]
        if not base.__module__.startswith("repro")
    )


@pytest.mark.contract
def test_nothing_exists_only_for_its_tests():
    """Every public function, class and method under ``src/repro`` is
    read somewhere other than its own definition — in ``src/repro``,
    ``benchmarks/``, ``examples/`` or the README — or is in
    ``ONLY_TESTS`` with the reason it stays."""
    root = SRC.parents[1]
    files = [
        *SRC.rglob("*.py"),
        *(root / "benchmarks").rglob("*.py"),
        *(root / "examples").rglob("*.py"),
    ]
    defined = [
        (path, qualname, node)
        for path in sorted(SRC.rglob("*.py"))
        for qualname, node in _definitions(path)
    ]
    spans: dict[tuple[Path, str], list[tuple[int, int]]] = {}
    for path, _, node in defined:
        spans.setdefault((path, node.name), []).append((node.lineno, node.end_lineno))
    read: set[str] = set(re.findall(r"\w+", (root / "README.md").read_text()))
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            own = spans.get((path, name), ())
            if not any(start <= node.lineno <= end for start, end in own):
                read.add(name)
    unread = {
        qualname
        for path, qualname, node in defined
        if node.name not in read and not _overrides_a_foreign_base(path, qualname)
    }
    assert sorted(unread - set(ONLY_TESTS)) == []
    # And the table names only what the census finds.
    assert sorted(set(ONLY_TESTS) - unread) == []


def test_a_record_on_the_attempt_path_is_a_tuple():
    """Each is a ``NamedTuple`` (a plain subclass of one for the records
    that check or default a field), never a dataclass, and the message
    union names the six message types.  So are the specification's
    per-node and per-edge records, the request and the result; the
    per-node and per-attempt state is slotted, with a hand-written
    constructor."""
    for record in RECORD_TYPES + SPEC_RECORD_TYPES:
        assert issubclass(record, tuple) and hasattr(record, "_fields"), record
        assert not dataclasses.is_dataclass(record), record
    assert set(messages.Message.__args__) == set(RECORD_TYPES[:6])
    for state in STATE_TYPES:
        assert "__slots__" in vars(state), state
        assert state.__init__.__code__.co_filename != "<string>", state


#: The topic families a fold decodes.
FAMILIES = ("engine.", "task.", "recovery.")


def test_a_log_record_is_decoded_in_two_places():
    """One function under ``repro.obs`` decodes ``engine.*`` / ``task.*`` /
    ``recovery.*`` records for what is sampled — ``log.Fold.__call__``, by
    one lookup of each record's topic in a table built from the
    publishers' declared topics and payload types — and one for what is
    rendered (``spans_of``, its documented second), by matching topic
    literals; nothing else loops over records and reads topics."""
    decoders = []
    for path in sorted((SRC / "obs").glob("*.py")):
        for function in ast.walk(ast.parse(path.read_text())):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            loops = [
                loop
                for loop in ast.walk(function)
                if isinstance(loop, ast.For)
                and isinstance(loop.iter, ast.Name)
                and loop.iter.id == "records"
            ]
            if any(
                isinstance(constant, ast.Constant)
                and isinstance(constant.value, str)
                and constant.value.startswith(FAMILIES)
                for loop in loops
                for constant in ast.walk(loop)
            ):
                decoders.append((path.name, function.name))
                continue
            # A loop over records that looks its topic up in the table.
            if any(
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "get"
                and isinstance(call.func.value, ast.Name)
                and call.func.value.id == "kinds"
                and [a.id for a in call.args if isinstance(a, ast.Name)] == ["topic"]
                for loop in loops
                for call in ast.walk(loop)
            ):
                decoders.append((path.name, function.name))
    assert sorted(decoders) == [("log.py", "__call__"), ("observer.py", "spans_of")]
    # And the other consumers' modules — the fold's too — name no topic of
    # those families: the table reads the publishers' constants.
    for name in ("server.py", "estimators.py", "log.py"):
        constants = {
            node.value
            for node in ast.walk(ast.parse((SRC / "obs" / name).read_text()))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
        assert not [c for c in constants if c.startswith(FAMILIES) and " " not in c], name


def test_the_retry_wait_is_computed_in_one_place():
    """``backoff_factor`` is read for arithmetic by ``retry_delay`` alone;
    everything else that touches it describes, validates or (de)serialises
    the attribute."""
    multiplies = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Mult, ast.Pow)
            ):
                if any(
                    isinstance(n, ast.Attribute) and n.attr == "backoff_factor"
                    for n in ast.walk(node)
                ):
                    multiplies.append(str(path.relative_to(SRC)))
    assert set(multiplies) == {"core/policy.py"}, multiplies


@pytest.mark.contract
def test_a_user_exception_is_routed_by_one_rule():
    """Only ``core/exceptions.py`` matches an exception name against a
    pattern, and a compiled node keeps no translation table: the engine
    reads the activity's own ``<Rethrow>`` records."""
    importers = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if "fnmatch" in modules:
                importers.append(str(path.relative_to(SRC)))
    assert importers == ["core/exceptions.py"], importers
    assert "rethrow" not in CompiledNode._fields


@pytest.mark.contract
def test_the_cli_has_one_command_per_job():
    """``lint``, ``serve-batch`` and ``sweep`` were second commands for
    ``validate``, ``run`` and ``mc``'s jobs."""
    [commands] = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert list(commands.choices) == [
        "validate",
        "run",
        "resume",
        "inspect",
        "top",
        "mc",
        "cache",
    ]


@pytest.mark.contract
def test_a_sampler_stream_is_salted_in_one_place():
    """The technique → salt table lives beside the samplers, and only
    ``sample_technique`` picks a sampler's default stream from it."""
    salted = []
    for path in sorted((SRC / "sim").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_SALTS" for t in node.targets
            ):
                salted.append((path.name, "_SALTS"))
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "_rng"
            ):
                salted.append((path.name, "_rng"))
    assert salted == [("samplers.py", "_SALTS"), ("samplers.py", "_rng")], salted
