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
patterns, route cache and subscription handles went.
One walk over ``src/repro`` keeps them deleted, and keeps the retry wait —
and the decoding of a log record — in one place.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
from pathlib import Path

import repro
from repro.core.policy import FailurePolicy
from repro.detection import messages
from repro.engine import strategies
from repro.execution import SubmitRequest
from repro.grid.gram import GramService
from repro.obs import (
    EstimatorSuite,
    FlightRecorder,
    HealthEngine,
    MetricSpec,
    RunObserver,
    TimeSeriesStore,
    WorkflowStatusTracker,
    spans,
)
from tests.helpers import RECORD_TYPES

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
    # One substitution seam (``strategy_resolver=``), so no ``registry=``.
    assert list(inspect.signature(strategies.resolve_strategy).parameters) == [
        "policy"
    ]
    assert len(inspect.getsource(strategies).splitlines()) <= 120
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
    for consumer in (RunObserver(), WorkflowStatusTracker(), EstimatorSuite()):
        kept = {*vars(consumer), *dir(type(consumer))}
        assert not kept & {"_fold", "_runs", "_running", "_recorder"}, consumer
    # The journal's window is the log's, and the health engine never
    # attaches to a bus: it publishes alerts on the one it is given.
    assert list(inspect.signature(FlightRecorder).parameters) == ["bus", "spill_path"]
    assert not hasattr(HealthEngine, "attach_bus")
    assert list(inspect.signature(HealthEngine).parameters) == ["clock", "bus"]
    assert not (SRC / "sim" / "exceptions_model.py").exists()
    assert not (SRC / "detection" / "log.py").exists()
    # A request names the job; the attempt's flag and instance go with the
    # submission (``checkpoint_flag`` is still the detector's, so these are
    # checked where they lived).
    fields = {f.name for f in dataclasses.fields(SubmitRequest)}
    assert not fields & {"checkpoint_flag", "workflow_id"}, fields


def test_a_record_on_the_attempt_path_is_a_tuple():
    """Each is a ``NamedTuple`` (a plain subclass of one for the two
    messages that check or default a field), never a dataclass, and the
    message union names the six message types."""
    for record in RECORD_TYPES:
        assert issubclass(record, tuple) and hasattr(record, "_fields"), record
        assert not dataclasses.is_dataclass(record), record
    assert set(messages.Message.__args__) == set(RECORD_TYPES[:6])


#: The topic families a fold decodes.
FAMILIES = ("engine.", "task.", "recovery.")


def test_a_log_record_is_decoded_in_two_places():
    """One function under ``repro.obs`` matches ``engine.*`` / ``task.*`` /
    ``recovery.*`` topics in a loop over log records for what is sampled
    (``log.Fold.__call__``), and one for what is rendered (``spans_of``,
    its documented second); nothing else loops over records and reads
    topics."""
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
    assert sorted(decoders) == [("log.py", "__call__"), ("observer.py", "spans_of")]
    # And the other two consumers' modules name no topic of those families.
    for name in ("server.py", "estimators.py"):
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
