"""Unit tests for user-defined exceptions and the rule that routes them.

``TestBinding`` holds the two forms a specification binds a pattern in —
an exception edge and a ``<Rethrow>`` record — and the rule's match and
key; ``TestTable`` holds an activity's ``<Rethrow>`` records, looked up
by that rule when the activity raises.
"""

from __future__ import annotations

import pytest

from repro.core.exceptions import UserException, specificity
from repro.errors import SpecificationError
from repro.wpdl import Rethrow, TransitionCondition
from tests.test_exception_routing import route


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
        assert specificity("disk_full", "disk_full") is not None
        assert specificity("disk_full", "disk_full_2") is None

    def test_glob_match(self):
        assert specificity("disk_*", "disk_full") is not None
        assert specificity("disk_*", "disk_quota") is not None
        assert specificity("disk_*", "memory_full") is None

    def test_requires_handler_xor_rethrow(self):
        # An exception edge names its handler as its target; a rethrow
        # names the exception it raises instead, and must name one.
        assert TransitionCondition.on_exception("x").exception == "x"
        with pytest.raises(SpecificationError):
            Rethrow("x", "")

    def test_rethrow_binding(self):
        assert Rethrow("disk_full", "storage_error").as_name == "storage_error"

    def test_empty_pattern_rejected(self):
        with pytest.raises(SpecificationError):
            Rethrow("", "h")
        with pytest.raises(SpecificationError):
            TransitionCondition.on_exception("")

    def test_specificity_ordering(self):
        exact = specificity("disk_full", "disk_full")
        long_prefix = specificity("disk_*", "disk_full")
        short_prefix = specificity("d*", "disk_full")
        assert exact > long_prefix > short_prefix


def translate(rethrows, name):
    """The name an activity with *rethrows* routes when it raises *name*."""
    return route([], rethrows, name)[2]


class TestTable:
    def test_lookup_returns_none_when_unhandled(self):
        assert translate([], "disk_full") == "disk_full"
        assert route([], [Rethrow("oom", "x")], "disk_full")[3] is None

    def test_lookup_exact_beats_pattern(self):
        rethrows = [Rethrow("disk_*", "generic"), Rethrow("disk_full", "specific")]
        assert translate(rethrows, "disk_full") == "specific"
        assert translate(rethrows, "disk_quota") == "generic"

    def test_lookup_longest_literal_prefix_wins_among_patterns(self):
        rethrows = [Rethrow("*", "catchall"), Rethrow("net_*", "network")]
        assert translate(rethrows, "net_partition") == "network"
        assert translate(rethrows, "oom") == "catchall"

    def test_lookup_accepts_exception_objects(self):
        # The raised exception's name is looked up, and its original name
        # travels with the translation.
        _, _, routed, original = route([], [Rethrow("oom", "swap")], "oom")
        assert (routed, original) == ("swap", "oom")

    def test_add_and_len_and_iter(self):
        # The records keep their declaration order, which breaks ties.
        rethrows = [Rethrow("a", "first"), Rethrow("a", "second")]
        assert translate(rethrows, "a") == "first"
        assert translate(rethrows[::-1], "a") == "second"
