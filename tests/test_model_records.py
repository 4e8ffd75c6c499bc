"""The records a specification and its run are built from are minted
tuples, and keep the contract of the frozen dataclasses they were.

``Activity``, ``Transition``, ``TransitionCondition``, ``SubmitRequest``
and ``WorkflowResult`` are ``NamedTuple`` subclasses that the parser, the
compiler, the recovery coordinator and the engine build with one
``tuple.__new__``.  What a caller could observe of them stays as it was:
equality (only with a record of the same class), the hash (the field
tuple's), ``repr``, pickling, immutability, and every message a direct
construction, the parser or the validator gives.  The literal strings
below are what the dataclasses printed.
"""

from __future__ import annotations

import copy
import pickle
from collections import namedtuple
from pathlib import Path

import pytest

from repro.core import FailurePolicy
from repro.engine.engine import WorkflowResult
from repro.engine.instance import NodeStatus, WorkflowStatus
from repro.errors import ParseError, SpecificationError, ValidationError
from repro.execution import SubmitRequest
from repro.wpdl import parse_wpdl, serialize_wpdl
from repro.wpdl.model import (
    Activity,
    ConditionKind,
    JoinMode,
    Parameter,
    Rethrow,
    Transition,
    TransitionCondition,
)

SPECS = Path(__file__).resolve().parent.parent / "examples" / "specs"


def _records():
    return [
        TransitionCondition.on_exception("disk_*"),
        TransitionCondition.when("x > 1"),
        Transition("a", "b", TransitionCondition.failed()),
        Activity(
            "a",
            implement="p",
            policy=FailurePolicy.retrying(3, 2.0),
            join=JoinMode.OR,
            inputs=(Parameter("x", 1),),
            outputs=("y",),
            rethrows=(Rethrow("e*", "f"),),
            description="d",
        ),
        SubmitRequest("a", "exe", "h1", arguments={"x": 1}),
        WorkflowResult(
            "w",
            WorkflowStatus.DONE,
            {"a": 1},
            3.5,
            {"a": NodeStatus.DONE},
            (),
            {"a": 1},
        ),
    ]


RECORDS = _records()
IDS = [type(r).__name__ for r in RECORDS]

REPRS = [
    "TransitionCondition(kind=<ConditionKind.EXCEPTION: 'exception'>, "
    "exception='disk_*', expr='')",
    "TransitionCondition(kind=<ConditionKind.EXPR: 'expr'>, exception='', "
    "expr='x > 1')",
    "Transition(source='a', target='b', condition=TransitionCondition("
    "kind=<ConditionKind.FAILED: 'failed'>, exception='', expr=''))",
    "Activity(name='a', implement='p', policy=FailurePolicy(max_tries=3, "
    "interval=2.0, replication=<ReplicationMode.NONE: 'none'>, "
    "resource_selection=<ResourceSelection.SAME: 'same'>, "
    "restart_from_checkpoint=True, retry_on_exception=False, "
    "attempt_timeout=None, backoff_factor=1.0, max_interval=None), "
    "join=<JoinMode.OR: 'or'>, inputs=(Parameter(name='x', value=1, ref=None),), "
    "outputs=('y',), rethrows=(Rethrow(pattern='e*', as_name='f'),), "
    "description='d')",
    "SubmitRequest(activity='a', executable='exe', hostname='h1', "
    "service='jobmanager', directory='', arguments={'x': 1}, "
    "queue_when_down=True)",
    "WorkflowResult(workflow='w', status=<WorkflowStatus.DONE: 'done'>, "
    "variables={'a': 1}, completion_time=3.5, "
    "node_statuses={'a': <NodeStatus.DONE: 'done'>}, failed_tasks=(), "
    "tries={'a': 1})",
]


class TestTheDataclassContract:
    @pytest.mark.parametrize("record", RECORDS, ids=IDS)
    def test_a_minted_tuple(self, record):
        assert isinstance(record, tuple) and record._fields

    @pytest.mark.parametrize("record,text", zip(RECORDS, REPRS), ids=IDS)
    def test_repr(self, record, text):
        assert repr(record) == text

    @pytest.mark.parametrize("record,twin", zip(RECORDS, _records()), ids=IDS)
    def test_equal_only_to_its_own_class(self, record, twin):
        assert record == twin and not record != twin and record is not twin
        items = tuple(record)
        assert record != items and items != record
        assert not record == items and not items == record
        # Another tuple type with the same items (on the left of ``==`` a
        # tuple subclass answers for itself, and it compares items).
        stranger = namedtuple("Stranger", record._fields)(*items)
        assert record != stranger and not record == stranger
        assert record != "something else"

    @pytest.mark.parametrize("record", RECORDS, ids=IDS)
    def test_hash_is_the_hash_of_its_fields(self, record):
        # What a frozen dataclass hashes to; unhashable with a dict field.
        try:
            expected = hash(tuple(record))
        except TypeError:
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(record)
        else:
            assert hash(record) == expected

    @pytest.mark.parametrize("record", RECORDS, ids=IDS)
    def test_pickles_and_copies(self, record):
        for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert clone == record and type(clone) is type(record)

    @pytest.mark.parametrize("record", RECORDS, ids=IDS)
    def test_immutable_and_unordered(self, record):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], "changed")
        with pytest.raises(AttributeError):
            record.extra = 1
        with pytest.raises(TypeError):
            record < record

    def test_a_built_request_gets_its_own_arguments(self):
        first, second = SubmitRequest("a", "x", "h"), SubmitRequest("a", "x", "h")
        assert first.arguments == {} and first.arguments is not second.arguments


class TestConstructionMessages:
    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: Activity(""), "activity requires a name"),
            (lambda: Transition("", "b"), "transition requires source and target"),
            (
                lambda: Transition("a", "a"),
                "self-transition on 'a' (use a Loop for iteration)",
            ),
            (
                lambda: TransitionCondition(ConditionKind.EXCEPTION),
                "exception transition requires an exception name/pattern",
            ),
            (
                lambda: TransitionCondition(ConditionKind.EXPR),
                "expr transition requires an expression",
            ),
            (
                lambda: TransitionCondition(ConditionKind.DONE, exception="x"),
                "exception pattern only valid on exception transitions",
            ),
            (
                lambda: TransitionCondition(ConditionKind.DONE, expr="x"),
                "expr only valid on expr transitions",
            ),
        ],
    )
    def test_direct_construction_checks(self, build, message):
        with pytest.raises(SpecificationError) as info:
            build()
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "body,message",
        [
            (
                "<Activity name='a'/><Transition from='a' to='a'/>",
                "self-transition on 'a' (use a Loop for iteration)",
            ),
            (
                "<Activity name='a'/><Transition from='a' to='a' on='sometimes'/>",
                "transition 'a'->'a': unknown on='sometimes'",
            ),
            ("<Activity/>", "<Activity> requires a name attribute"),
            (
                "<Activity name='a' join='xor'/>",
                "activity 'a': join must be 'and' or 'or', got 'xor'",
            ),
            (
                "<Activity name='a' max_tries='x'/>",
                "activity 'a': max_tries must be an integer or 'unlimited', got 'x'",
            ),
            (
                "<Activity name='a' backoff='0.5'/>",
                "activity 'a': backoff_factor must be >= 1.0, got 0.5",
            ),
            ("<Activity name='a'/><Activity name='a'/>", "duplicate activity 'a'"),
            (
                "<Activity name='a'/><Activity name='b'/>"
                "<Transition from='a' to='b' condition=''/>",
                "expr transition requires an expression",
            ),
        ],
    )
    def test_parse_errors(self, body, message):
        with pytest.raises(ParseError) as info:
            parse_wpdl(f"<Workflow name='w'>{body}</Workflow>")
        assert str(info.value) == message


class TestValidationMessages:
    @pytest.mark.parametrize(
        "body,problems",
        [
            (
                "<Activity name='s'/><Activity name='a'/><Activity name='b'/>"
                "<Activity name='c'/><Transition from='s' to='a'/>"
                "<Transition from='a' to='b'/><Transition from='b' to='c'/>"
                "<Transition from='c' to='a'/>",
                [
                    "control flow contains a cycle: a -> b -> c -> a "
                    "(use a Loop node for iteration)"
                ],
            ),
            (
                # A cycle no entry node leads to.
                "<Activity name='s'/><Activity name='a'/><Activity name='b'/>"
                "<Transition from='a' to='b'/><Transition from='b' to='a'/>",
                [
                    "control flow contains a cycle: a -> b -> a "
                    "(use a Loop node for iteration)"
                ],
            ),
            (
                "<Activity name='a' policy='replica'><Implement>p</Implement>"
                "</Activity><Activity name='b' backoff='2'>"
                "<Input name='x' ref='nope'/></Activity>"
                "<Activity name='c' interval='5' max_interval='1'/>"
                "<Transition from='a' to='b'/><Transition from='a' to='b'/>"
                "<Transition from='b' to='ghost'/>"
                "<Transition from='a' to='c' condition='x +'/>"
                "<Program name='p'><Option hostname='h'/></Program>",
                [
                    "duplicate transition 'a' -> 'b' (done)",
                    "transition references unknown target 'ghost'",
                    "condition 'x +' is not a valid expression: invalid syntax",
                    "activity 'a' uses policy='replica' but program 'p' has only "
                    "1 resource option",
                    "activity 'b' declares backoff=2 but interval=0 (nothing to grow)",
                    "activity 'c' has max_interval=1 below interval=5",
                    "activity 'b' input 'x' references unknown output 'nope'",
                ],
            ),
            (
                "<Activity name='a' policy='replica'/><Activity name='b'/>"
                "<Transition from='a' to='b'/><Transition from='b' to='a'/>"
                "<Transition from='a' to='b' on='failed'/>"
                "<Transition from='a' to='b' on='failed'/>",
                [
                    "duplicate transition 'a' -> 'b' (failed)",
                    "activity 'a' uses policy='replica' but has no program",
                    "dummy activity 'a' cannot be replicated",
                    "control flow contains a cycle: a -> b -> a "
                    "(use a Loop node for iteration)",
                ],
            ),
        ],
        ids=["cycle", "unreachable-cycle", "problems-in-order", "cycle-last"],
    )
    def test_every_problem_in_order(self, body, problems):
        with pytest.raises(ValidationError) as info:
            parse_wpdl(f"<Workflow name='w'>{body}</Workflow>")
        expected = "\n".join(f"  - w: {p}" for p in problems)
        assert str(info.value) == f"workflow 'w' is invalid:\n{expected}"


@pytest.mark.parametrize("path", sorted(SPECS.glob("*.xml")), ids=lambda p: p.name)
def test_parse_serialize_parse_is_unchanged(path):
    once = parse_wpdl(path.read_text())
    text = serialize_wpdl(once)
    twice = parse_wpdl(text)
    assert twice == once and repr(twice) == repr(once)
    assert serialize_wpdl(twice) == text
