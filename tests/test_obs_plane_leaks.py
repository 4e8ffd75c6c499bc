"""Nothing per finished workflow stays in the plane's bookkeeping.

A long-lived ``serve-batch`` host runs batch after batch under one
observer and one status tracker.  Attempts the engine cancels (losing
replicas, the branch that lost an OR join) get no terminal ``task.*``
event; before PR 15 each left an open span, an ``_attempt_spans`` entry
and a phantom ``in_flight`` attempt behind for ever.
"""

from __future__ import annotations

from tests.obs_plane import ObservedHost

BATCH = 100


def test_three_batches_leave_the_bookkeeping_empty():
    plane = ObservedHost(seed=20030623)
    observer, tracker = plane.observer, plane.tracker
    registry = observer.metrics
    cancelled = []
    for batch in range(1, 4):
        results = plane.run_batch(BATCH)
        assert len(results) == batch * BATCH
        assert all(result.succeeded for result in results.values())

        assert observer._workflow_spans == {}
        assert observer._node_spans == {}
        assert observer._attempt_spans == {}
        spans = observer.spans
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
    # The batches did cancel attempts, each of them.
    assert cancelled[0] > 0 and cancelled[0] < cancelled[1] < cancelled[2]
