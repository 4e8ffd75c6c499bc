"""A user exception is routed by one rule.

An activity's ``<Rethrow>`` records rename a user exception before
routing, and its exception edges then pick the alternative task (paper
sections 2.3 and 5.3).  Both choose among the patterns that match a name
the same way: an exact name beats a glob, and among globs the longest
literal prefix wins.  A rethrow tie goes to the first declared record; an
edge tie fires every tied edge, and a matching edge that lost is dead
without error.

``ROUTING_DIGEST`` pins a seeded table of draws — exception edges beside
failure, always and done edges, ``<Rethrow>`` records, an exception name —
with, per draw, the edges that fired, the edges left dead without error
and the name routed.  It was recorded before the rule had one home, from
the engine's translation and the navigator's edge firing as they are
called here.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.core.exceptions import UserException
from repro.engine import NodeStatus, WorkflowEngine
from repro.engine.instance import EdgeState
from repro.engine.navigator import fire_outgoing_edges
from repro.grid import GridConfig, SimulatedGrid
from repro.wpdl import ConditionKind, Rethrow, TransitionCondition, WorkflowBuilder

NAMES = (
    "a", "b", "d", "ab", "ba", "abc", "a_b", "b_a", "disk_full", "disk_quota",
)
GLOBS = (
    "*", "?", "a*", "a?", "ab*", "b*", "?b", "a?c", "[ab]", "[ab]*",
    "a[bc]*", "[!a]*", "d*", "disk_*", "disk_[fq]*", "*_*",
)
DRAWS = 2_000
SEED = 20_050_303
ROUTING_DIGEST = "7fdddadf00ffad9b31eb7fd3de3db38b31507de559ea3ccaa4da2c15ebdfbd44"


def _pattern(rng: random.Random, drawn: list[str]) -> str:
    """An exact name, a glob or — for a deliberate tie — one drawn before."""
    roll = rng.random()
    if drawn and roll < 0.2:
        pattern = rng.choice(drawn)
    elif roll < 0.55:
        pattern = rng.choice(NAMES)
    else:
        pattern = rng.choice(GLOBS)
    drawn.append(pattern)
    return pattern


def _draw(rng: random.Random):
    drawn: list[str] = []
    conditions = [
        TransitionCondition.on_exception(_pattern(rng, drawn))
        for _ in range(rng.randint(0, 5))
    ]
    for condition, share in (
        (TransitionCondition.failed(), 0.5),
        (TransitionCondition.always(), 0.25),
        (TransitionCondition.done(), 0.5),
    ):
        if rng.random() < share:
            conditions.append(condition)
    rng.shuffle(conditions)
    rethrows = [
        Rethrow(_pattern(rng, drawn), rng.choice(NAMES))
        for _ in range(rng.randint(0, 4))
    ]
    return conditions, rethrows, rng.choice(NAMES)


def route(conditions, rethrows, name):
    """``(fired, dead without error, routed name, original name)`` for an
    activity that raises *name*: the engine translates it, then the
    navigator resolves the activity's outgoing edges."""
    builder = WorkflowBuilder("route").activity("src", rethrows=rethrows)
    for i, condition in enumerate(conditions):
        builder.dummy(f"t{i}").transition("src", f"t{i}", condition)
    workflow = builder.build(validate_graph=False)
    grid = SimulatedGrid(config=GridConfig(heartbeats=False))
    engine = WorkflowEngine(workflow, grid, reactor=grid.reactor)
    exception = engine._translate_exception("src", UserException(name))
    fired = fire_outgoing_edges(
        engine.instance, "src", NodeStatus.EXCEPTION, exception
    )
    dead_ok = [
        i for i, state in enumerate(engine.instance.edges)
        if state is EdgeState.DEAD_OK
    ]
    return fired, dead_ok, exception.name, exception.data.get("original_exception")


def routing_table() -> list:
    rng = random.Random(SEED)
    table = []
    for _ in range(DRAWS):
        conditions, rethrows, name = _draw(rng)
        table.append(
            [
                [c.exception or c.kind.value for c in conditions],
                [[r.pattern, r.as_name] for r in rethrows],
                name,
                *route(conditions, rethrows, name),
            ]
        )
    return table


@pytest.mark.contract
def test_the_seeded_routing_table_is_pinned():
    table = routing_table()
    # The draws reach every case the rule tells apart: tied edges firing
    # together, out-specialised edges, renamed exceptions.
    kinds = {kind.value for kind in ConditionKind}
    assert any(
        sum(patterns[i] not in kinds for i in fired) > 1
        for patterns, _, _, fired, *_ in table
    )
    assert any(dead_ok for *_, dead_ok, _, _ in table)
    assert any(original is not None for *_, original in table)
    assert hashlib.sha256(json.dumps(table).encode()).hexdigest() == ROUTING_DIGEST


def test_the_first_declared_of_two_equally_specific_rethrows_wins():
    for first, second in (("disk_*", "disk_?ull"), ("disk_full", "disk_full")):
        rethrows = [Rethrow(first, "storage"), Rethrow(second, "quota")]
        _, _, routed, original = route([], rethrows, "disk_full")
        assert (routed, original) == ("storage", "disk_full")
        _, _, routed, _ = route([], rethrows[::-1], "disk_full")
        assert routed == "quota"


def test_both_of_two_equally_specific_exception_edges_fire():
    conditions = [
        TransitionCondition.on_exception("disk_*"),
        TransitionCondition.on_exception("d*"),
        TransitionCondition.on_exception("disk_?ull"),
        TransitionCondition.failed(),
    ]
    fired, dead_ok, routed, original = route(conditions, [], "disk_full")
    assert (fired, dead_ok, routed, original) == ([0, 2], [1], "disk_full", None)
