"""Unit tests for resource brokering."""

from __future__ import annotations

import pytest

from repro.catalogs import ResourceCatalog, ResourceQuery
from repro.core.policy import FailurePolicy, ResourceSelection
from repro.engine.broker import Broker
from repro.errors import BrokerError, NoResourceError
from repro.grid.resource import RELIABLE, UNRELIABLE
from repro.wpdl.model import Activity, Option, Program


def make_program(*hostnames, executable_overrides=None):
    overrides = executable_overrides or {}
    return Program(
        name="prog",
        options=tuple(
            Option(hostname=h, executable=overrides.get(h, "")) for h in hostnames
        ),
    )


def make_activity(policy=None):
    return Activity(name="act", implement="prog", policy=policy or FailurePolicy())


class TestExplicitResolution:
    def test_resolve_index_builds_target(self):
        broker = Broker()
        program = Program(
            name="prog",
            options=(
                Option(hostname="h1", service="batch", executable_dir="/opt"),
            ),
        )
        target = broker.resolve_index(make_activity(), program, 0, exclude=())
        assert target.hostname == "h1"
        assert target.service == "batch"
        assert target.directory == "/opt"
        assert target.executable == "prog"
        assert target.option_index == 0

    def test_per_option_executable_override(self):
        broker = Broker()
        program = make_program("h1", executable_overrides={"h1": "prog_v2"})
        target = broker.resolve_index(make_activity(), program, 0, exclude=())
        assert target.executable == "prog_v2"

    def test_out_of_range_index(self):
        broker = Broker()
        with pytest.raises(BrokerError):
            broker.resolve_index(
                make_activity(), make_program("h1"), 5, exclude=()
            )

    def test_resolve_all_covers_every_option(self):
        broker, program = Broker(), make_program("a", "b", "c")
        targets = [
            broker.resolve_index(make_activity(), program, i, exclude=())
            for i in range(3)
        ]
        assert [t.hostname for t in targets] == ["a", "b", "c"]
        assert [t.option_index for t in targets] == [0, 1, 2]


class TestRetrySelection:
    def test_same_resource_policy(self):
        broker = Broker()
        program = make_program("a", "b", "c")
        idx = broker.retry_index(
            make_activity(),
            program,
            failed_index=1,
            tries_used=1,
            selection=ResourceSelection.SAME,
        )
        assert idx == 1

    def test_rotate_moves_off_failed_option(self):
        broker = Broker()
        program = make_program("a", "b", "c")
        seen = set()
        for tries in range(1, 7):
            idx = broker.retry_index(
                make_activity(),
                program,
                failed_index=0,
                tries_used=tries,
                selection=ResourceSelection.ROTATE,
            )
            assert idx != 0
            seen.add(idx)
        assert seen == {1, 2}

    def test_rotate_with_single_option_stays(self):
        broker = Broker()
        idx = broker.retry_index(
            make_activity(),
            make_program("only"),
            failed_index=0,
            tries_used=3,
            selection=ResourceSelection.ROTATE,
        )
        assert idx == 0


class TestCatalogBrokering:
    @pytest.fixture
    def catalog(self):
        cat = ResourceCatalog()
        cat.register(RELIABLE("good", speed=2.0))
        cat.register(UNRELIABLE("meh", mttf=50.0))
        cat.register(UNRELIABLE("bad", mttf=5.0))
        return cat

    def test_wildcard_resolves_via_catalog(self, catalog):
        broker = Broker(catalog)
        program = make_program("*")
        target = broker.resolve_index(make_activity(), program, 0, exclude=())
        assert target.hostname == "good"

    def test_wildcard_without_catalog_raises(self):
        broker = Broker()
        with pytest.raises(BrokerError, match="no resource catalog"):
            broker.resolve_index(make_activity(), make_program("*"), 0, exclude=())

    def test_activity_query_constrains_choice(self, catalog):
        broker = Broker(catalog)
        broker.set_query("act", ResourceQuery(require_tags=frozenset({"volunteer"})))
        target = broker.resolve_index(make_activity(), make_program("*"), 0, exclude=())
        assert target.hostname == "meh"  # best volunteer

    @staticmethod
    def resolve_apart(broker, program):
        """Each option in turn, away from the hosts chosen before it (how
        the coordinator starts a replicated activity)."""
        chosen: list[str] = []
        for index in range(len(program.options)):
            target = broker.resolve_index(
                make_activity(), program, index, exclude=chosen
            )
            chosen.append(target.hostname)
        return chosen

    def test_replica_wildcards_prefer_distinct_hosts(self, catalog):
        hosts = self.resolve_apart(Broker(catalog), make_program("*", "*", "*"))
        assert hosts == ["good", "meh", "bad"]

    def test_replica_wildcards_reuse_when_exhausted(self, catalog):
        program = make_program("*", "*", "*", "*", "*")
        hosts = self.resolve_apart(Broker(catalog), program)
        # Reuse allowed once distinct hosts run out.
        assert hosts == ["good", "meh", "bad", "good", "good"]

    def test_unsatisfiable_query_raises(self, catalog):
        broker = Broker(catalog)
        broker.set_query("act", ResourceQuery(min_memory_gb=10_000))
        with pytest.raises(NoResourceError):
            broker.resolve_index(make_activity(), make_program("*"), 0, exclude=())
