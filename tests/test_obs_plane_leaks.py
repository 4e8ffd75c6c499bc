"""Nothing per finished workflow stays in the plane's bookkeeping — and
nothing per workflow *instance* is in its schema.

A long-lived ``serve-batch`` host runs batch after batch under one
observer and one status tracker.  Attempts the engine cancels (losing
replicas, the branch that lost an OR join) get no terminal ``task.*``
event; before PR 15 each left an open span, an ``_attempt_spans`` entry
and a phantom ``in_flight`` attempt behind for ever.  And until PR 21 five
observer families and the estimators' gauges were keyed by
``workflow_id``, so every batch of 100 added some 2.6k registry series,
as many store rings and four hundred estimators that nothing ever read
again.  Since PR 23 the one thing left per instance — the tracker's status
— is kept for the running instances and the newest finished ones only,
and a span exists only while somebody reads it.
"""

from __future__ import annotations

import ast
import gc
from pathlib import Path
from unittest import mock

import repro
from repro.obs import EventLog, Span, server
from tests.obs_plane import ObservedHost

BATCH = 100


def test_three_batches_leave_the_bookkeeping_empty():
    plane = ObservedHost(seed=20030623)
    observer, tracker = plane.observer, plane.tracker
    registry = observer.metrics
    # One fold, one table of running instances, for all three consumers.
    fold = EventLog.on(plane.bus).sampled
    assert (fold.observer, fold.tracker) == (observer, tracker)
    assert fold.estimators is plane.plane.estimators
    cancelled, sizes = [], []
    for batch in range(1, 4):
        results = plane.run_batch(BATCH)
        assert len(results) == batch * BATCH
        assert all(result.succeeded for result in results.values())

        spans = observer.spans  # a read: the batch's tail is folded
        assert fold.instances == {}
        assert all(span.sim_end is not None for span in spans)
        cancelled.append(
            sum(1 for span in spans if span.labels.get("outcome") == "cancelled")
        )

        statuses = tracker.snapshot()
        assert len(statuses) == batch * BATCH
        assert all(status["attempts"]["in_flight"] == 0 for status in statuses)
        assert all(status["running_nodes"] == [] for status in statuses)
        assert (
            sum(status["attempts"].get("cancelled", 0) for status in statuses)
            == cancelled[-1]
        )

        # One bound entry per series: every series the plane emits goes
        # through a declared family, and a label set is resolved once.
        series = sum(len(family.series) for family in registry.families())
        bound = sum(len(family._children) for family in registry._bound.values())
        assert bound == series
        sizes.append(
            (
                series,
                sum(len(rings) for rings in plane.store.snapshot().values()),
                len(plane.plane.estimators.activities),
            )
        )
        # The store holds the registry's families and nothing else: no
        # ring a read created, none a tick missed.
        assert set(plane.store.names()) == {f.name for f in registry.families()}
    # The batches did cancel attempts, each of them.
    assert cancelled[0] > 0 and cancelled[0] < cancelled[1] < cancelled[2]
    # The schema is what the four specifications and the nine hosts name,
    # not what ran: a later batch adds the few (activity, outcome, host)
    # combinations the earlier ones happened not to meet — 25 series over
    # 200 more instances here, where each instance used to add 26 — and
    # never a label value the specification does not know.  (Per-instance
    # detail is in the spans, the journal and the tracker, each bounded by
    # a ring or read per instance.)
    for before, after in zip(sizes, sizes[1:]):
        assert all(0 <= b - a <= 20 for a, b in zip(before, after)), sizes
    series, rings, estimators = sizes[-1]
    assert rings <= series <= 300
    assert estimators <= sum(len(spec.nodes) for spec in plane.specs)
    known = {
        "workflow": {spec.name for spec in plane.specs},
        "activity": {name for spec in plane.specs for name in spec.nodes},
        "node": {name for spec in plane.specs for name in spec.nodes},
        "host": set(plane.grid.hosts),
    }
    for family in registry.families():
        for key in family.series:
            for label, value in key:
                assert label != "workflow_id"
                assert value in known.get(label, {value}), (family.name, label, value)


def test_twenty_batches_keep_a_bounded_number_of_statuses():
    """The tracker serves the running instances and the newest finished
    ones; ``/workflows/<id>`` of an older one is the 404 of an unknown."""
    kept = 25
    with mock.patch.object(server, "_FINISHED", kept):
        plane = ObservedHost(seed=19990803)
        tracker = plane.tracker
        fold = EventLog.on(plane.bus).sampled
        for batch in range(1, 21):
            results = plane.run_batch(10)
            assert len(results) == batch * 10
            ids = tracker.workflow_ids()
            assert len(ids) == min(kept, batch * 10)
            assert fold.instances == {}
            # The newest finished, in whichever order they finished.
            finished = [
                entry["workflow_id"]
                for entry in plane.recorder.entries
                if entry["topic"] == "engine.workflow_finished"
            ]
            assert sorted(finished[-kept:]) == ids
        assert tracker.status_of("wf-1") is None
        assert tracker.status_of("wf-200")["phase"] == "done"
        assert len(tracker._finished) == len(tracker._status) == kept


def test_no_span_exists_until_spans_are_read():
    plane = ObservedHost(seed=20030623)
    plane.run_batch(20)
    plane.observer.metrics.snapshot()  # folded, sampled — nothing rendered
    gc.collect()
    assert not any(isinstance(obj, Span) for obj in gc.get_objects())
    spans = plane.observer.spans
    assert len(spans) > 300
    del spans
    gc.collect()
    assert not any(isinstance(obj, Span) for obj in gc.get_objects())


def test_the_plane_keeps_under_two_objects_per_event():
    """GC-tracked objects a batch leaves behind, over what the same batch
    leaves with nothing attached, per published event: the log's record
    and, for a third of them, the detector's outcome (PR 15's census;
    2.0 with a ``Span`` and its ring slot per interval)."""

    def retained(observed: bool) -> tuple[int, int]:
        plane = ObservedHost(seed=20030623, observed=observed)
        plane.run_batch(20)
        gc.collect()
        before, published = len(gc.get_objects()), plane.bus.stats()["publishes"]
        plane.run_batch(100)
        gc.collect()
        return len(gc.get_objects()) - before, plane.bus.stats()["publishes"] - published

    (kept, events), (bare, _) = retained(True), retained(False)
    assert events > 3000
    assert 1.0 <= (kept - bare) / events <= 1.8, (kept, bare, events)


def test_no_declared_family_is_labelled_by_instance():
    """Every ``MetricSpec(...)`` under ``src/repro``, read off the source:
    ``workflow_id`` names a run, not something the specification names."""
    root = Path(repro.__file__).parent
    declared = [
        (path.relative_to(root), node)
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", "")) == "MetricSpec"
    ]
    assert len(declared) >= 24
    offenders = [
        f"{where}:{call.lineno}"
        for where, call in declared
        if "workflow_id"
        in {
            constant.value
            for constant in ast.walk(call)
            if isinstance(constant, ast.Constant)
        }
    ]
    assert offenders == []
