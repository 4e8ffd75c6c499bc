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
again.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro
from tests.obs_plane import ObservedHost

BATCH = 100


def test_three_batches_leave_the_bookkeeping_empty():
    plane = ObservedHost(seed=20030623)
    observer, tracker = plane.observer, plane.tracker
    registry = observer.metrics
    cancelled, sizes = [], []
    for batch in range(1, 4):
        results = plane.run_batch(BATCH)
        assert len(results) == batch * BATCH
        assert all(result.succeeded for result in results.values())

        spans = observer.spans  # a read: the batch's tail is folded
        assert observer._runs == {}
        assert all(span.sim_end is not None for span in spans)
        cancelled.append(
            sum(1 for span in spans if span.labels.get("outcome") == "cancelled")
        )

        statuses = tracker.snapshot()
        assert len(statuses) == batch * BATCH
        assert all(status["attempts"]["in_flight"] == 0 for status in statuses)
        assert all(status["running_nodes"] == [] for status in statuses)
        assert tracker._running == {}
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
        assert plane.plane.estimators._workflows == {}
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
