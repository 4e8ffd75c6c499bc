"""Unit tests for user-defined exceptions and handler bindings."""

from __future__ import annotations

import pytest

from repro.core.exceptions import ExceptionBinding, ExceptionTable, UserException


class TestUserException:
    def test_name_required(self):
        with pytest.raises(ValueError):
            UserException("")

    def test_str_with_and_without_message(self):
        assert str(UserException("disk_full")) == "disk_full"
        assert str(UserException("disk_full", "partition /tmp")) == (
            "disk_full: partition /tmp"
        )

    def test_data_payload(self):
        exc = UserException("oom", data={"requested_gb": 12})
        assert exc.data["requested_gb"] == 12

    def test_frozen(self):
        exc = UserException("x")
        with pytest.raises(Exception):
            exc.name = "y"  # type: ignore[misc]


class TestBinding:
    def test_exact_match(self):
        b = ExceptionBinding("disk_full", handler="cleanup")
        assert b.matches("disk_full")
        assert not b.matches("disk_full_2")

    def test_glob_match(self):
        b = ExceptionBinding("disk_*", handler="h")
        assert b.matches("disk_full")
        assert b.matches("disk_quota")
        assert not b.matches("memory_full")

    def test_requires_handler_xor_rethrow(self):
        with pytest.raises(ValueError):
            ExceptionBinding("x")
        with pytest.raises(ValueError):
            ExceptionBinding("x", handler="h", rethrow_as="y")

    def test_rethrow_binding(self):
        b = ExceptionBinding("disk_full", rethrow_as="storage_error")
        assert b.rethrow_as == "storage_error"

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            ExceptionBinding("", handler="h")

    def test_specificity_ordering(self):
        exact = ExceptionBinding("disk_full", handler="a")
        long_prefix = ExceptionBinding("disk_*", handler="b")
        short_prefix = ExceptionBinding("d*", handler="c")
        assert exact.specificity() > long_prefix.specificity()
        assert long_prefix.specificity() > short_prefix.specificity()


class TestTable:
    def test_lookup_returns_none_when_unhandled(self):
        table = ExceptionTable()
        assert table.lookup("disk_full") is None

    def test_lookup_exact_beats_pattern(self):
        table = ExceptionTable(
            [
                ExceptionBinding("disk_*", handler="generic"),
                ExceptionBinding("disk_full", handler="specific"),
            ]
        )
        assert table.lookup("disk_full").handler == "specific"
        assert table.lookup("disk_quota").handler == "generic"

    def test_lookup_longest_literal_prefix_wins_among_patterns(self):
        table = ExceptionTable(
            [
                ExceptionBinding("*", handler="catchall"),
                ExceptionBinding("net_*", handler="network"),
            ]
        )
        assert table.lookup("net_partition").handler == "network"
        assert table.lookup("oom").handler == "catchall"

    def test_lookup_accepts_exception_objects(self):
        table = ExceptionTable([ExceptionBinding("oom", handler="swap")])
        assert table.lookup(UserException("oom")).handler == "swap"

    def test_add_and_len_and_iter(self):
        table = ExceptionTable()
        table.add(ExceptionBinding("a", handler="h"))
        table.add(ExceptionBinding("b*", handler="h"))
        assert len(table) == 2
        assert [b.pattern for b in table] == ["a", "b*"]

