"""Unit tests for the WPDL serializer (round-trip with the parser)."""

from __future__ import annotations

from pathlib import Path
from xml.dom import minidom

import pytest

from repro.core.policy import FailurePolicy, ResourceSelection
from repro.errors import SpecificationError
from repro.workloads import chain, diamond_ladder, fork_join, layered_dag
from repro.wpdl import (
    Activity,
    JoinMode,
    Option,
    Parameter,
    Workflow,
    WorkflowBuilder,
    parse_wpdl,
    parse_wpdl_file,
    serialize_wpdl,
)
from repro.wpdl.serializer import workflow_to_element

MOSAIC = Path(__file__).resolve().parents[1] / "examples" / "specs" / "mosaic.xml"


def rich_workflow():
    """A workflow exercising every serialisable construct."""
    body = (
        WorkflowBuilder("refine_body")
        .program("solver", hosts=["s1"])
        .activity("solve", implement="solver", outputs=["residual"])
        .build()
    )
    return (
        WorkflowBuilder("rich")
        .variable("threshold", 0.5)
        .variable("label", "x")
        .variable("limit", 10)
        .variable("flag", True)
        .variable("nothing", None)
        .program(
            "fast",
            options=[
                Option(hostname="u1", executable_dir="/opt/bin", executable="fast2"),
                Option(hostname="u2", service="batch"),
            ],
        )
        .program("slow", hosts=["r1"])
        .activity(
            "FU",
            implement="fast",
            policy=FailurePolicy(
                max_tries=None,
                interval=2.5,
                resource_selection=ResourceSelection.ROTATE,
                restart_from_checkpoint=False,
                retry_on_exception=True,
            ),
            inputs=[Parameter("n", value=7), Parameter("prev", ref="seed")],
            outputs=["result"],
            description="fast but unreliable",
        )
        .activity("SR", implement="slow", policy=FailurePolicy.replica())
        .dummy("DJ", join=JoinMode.OR)
        .loop("refine", body, "residual > threshold", max_iterations=7)
        .variable("seed", 1)
        .transition("FU", "DJ")
        .on_exception("FU", "disk_*", "SR")
        .on_failure("FU", "SR")
        .transition("SR", "DJ")
        .transition("DJ", "refine")
        .when("DJ", "limit > 5", "refine")
        .build(validate_graph=False)  # replica with wildcard host count etc.
    )


class TestRoundTrip:
    def test_rich_workflow_roundtrips_exactly(self):
        wf = rich_workflow()
        text = serialize_wpdl(wf)
        assert parse_wpdl(text, validate_graph=False) == wf

    def test_minimal_workflow_roundtrips(self):
        wf = WorkflowBuilder("tiny").dummy("only").build()
        assert parse_wpdl(serialize_wpdl(wf)) == wf

    def test_nested_loop_roundtrips(self):
        inner = WorkflowBuilder("inner").dummy("t").build()
        middle = (
            WorkflowBuilder("middle").loop("il", inner, "x > 1").build()
        )
        outer = WorkflowBuilder("outer").loop("ol", middle, "y > 1").build()
        assert parse_wpdl(serialize_wpdl(outer)) == outer


class TestOutputShape:
    def test_default_attributes_omitted(self):
        wf = WorkflowBuilder("w").dummy("t").build()
        text = serialize_wpdl(wf)
        assert "max_tries" not in text
        assert "interval" not in text
        assert "join=" not in text
        assert "policy=" not in text

    def test_unlimited_tries_serialised_as_keyword(self):
        wf = (
            WorkflowBuilder("w")
            .program("p", hosts=["h"])
            .activity("t", implement="p", policy=FailurePolicy.retrying(None))
            .build()
        )
        assert 'max_tries="unlimited"' in serialize_wpdl(wf)

    def test_pretty_and_compact_modes(self):
        wf = WorkflowBuilder("w").dummy("t").build()
        pretty = serialize_wpdl(wf, pretty=True)
        compact = serialize_wpdl(wf, pretty=False)
        assert "\n" in pretty
        assert parse_wpdl(compact) == wf

    def test_element_tag_override(self):
        wf = WorkflowBuilder("w").dummy("t").build()
        elem = workflow_to_element(wf, tag="Body")
        assert elem.tag == "Body"

    def test_unserialisable_variable_rejected(self):
        wf = WorkflowBuilder("w").dummy("t").variable("bad", object()).build()
        with pytest.raises(SpecificationError, match="cannot serialise"):
            serialize_wpdl(wf)


class TestCombinedPolicyRoundTrip:
    """Combined-technique policies survive serialize → parse unchanged:
    policies reach the engine exactly as a WPDL file declares them."""

    def combined_workflow(self):
        replication_checkpointing = FailurePolicy.replica(None, interval=1.0)
        backoff = FailurePolicy.backoff_retrying(
            None, interval=1.0, backoff_factor=2.0, max_interval=8.0
        )
        return (
            WorkflowBuilder("combined")
            .program("p", hosts=["h1", "h2", "h3"])
            .activity("replicated", implement="p", policy=replication_checkpointing)
            .activity("paced", implement="p", policy=backoff)
            .transition("replicated", "paced")
            .build()
        )

    def test_combined_policies_roundtrip_exactly(self):
        wf = self.combined_workflow()
        reparsed = parse_wpdl(serialize_wpdl(wf))
        assert reparsed == wf
        # ...and the reparsed policies still name the technique
        # combinations the original would execute under.
        assert reparsed.node("replicated").policy.techniques() == (
            "replication",
            "checkpointing",
            "retrying",
        )
        assert reparsed.node("paced").policy.techniques() == (
            "checkpointing",
            "backoff_retry",
        )

    def test_backoff_attributes_emitted_only_when_set(self):
        wf = self.combined_workflow()
        text = serialize_wpdl(wf).replace("'", '"')
        assert 'backoff="2.0"' in text
        assert 'max_interval="8.0"' in text
        plain = WorkflowBuilder("w").dummy("t").build()
        assert "backoff" not in serialize_wpdl(plain)

    def test_combined_spec_passes_vocabulary_lint(self):
        from repro.wpdl.schema import check_vocabulary

        assert check_vocabulary(serialize_wpdl(self.combined_workflow())) == []


class TestTimeoutRoundTrip:
    def test_attempt_timeout_serialised(self):
        wf = (
            WorkflowBuilder("w")
            .program("p", hosts=["h"])
            .activity(
                "t",
                implement="p",
                policy=FailurePolicy(max_tries=2, attempt_timeout=45.0),
            )
            .build()
        )
        text = serialize_wpdl(wf)
        assert 'timeout="45.0"' in text.replace("'", '"')
        assert parse_wpdl(text) == wf


class TestPrettyText:
    """The pretty text is written straight from the element tree.  What
    ``xml.dom.minidom`` made of the compact text stays the oracle wherever
    it did not corrupt it: it wrote ``\\n``, ``\\r`` and ``\\t`` raw inside
    attribute values, where a parser reads each back as a space."""

    @staticmethod
    def minidom_text(wf):
        compact = serialize_wpdl(wf, pretty=False)
        return minidom.parseString(compact).toprettyxml(indent="  ")

    @pytest.mark.parametrize(
        "make",
        [
            rich_workflow,
            TestCombinedPolicyRoundTrip().combined_workflow,
            lambda: chain(12, policy=FailurePolicy.retrying(3))[0],
            lambda: fork_join(6)[0],
            lambda: layered_dag(5, 6, seed=7, policy=FailurePolicy.retrying(2))[0],
            lambda: diamond_ladder(3)[0],
            lambda: parse_wpdl_file(MOSAIC),
        ],
        ids=["rich", "combined", "chain", "fork_join", "layered", "diamond", "mosaic"],
    )
    def test_byte_identical_to_minidom(self, make):
        wf = make()
        assert serialize_wpdl(wf) == self.minidom_text(wf)

    def test_markup_in_values_is_escaped_as_minidom_did(self):
        wf = (
            WorkflowBuilder("w")
            .variable("quote", '"a" & <b>')
            .activity("t", implement='p<&>"', description='say "hi" & <go>')
            .program('p<&>"', hosts=["h"])
            .build()
        )
        assert serialize_wpdl(wf) == self.minidom_text(wf)
        assert parse_wpdl(serialize_wpdl(wf)) == wf

    def test_whitespace_in_attribute_values_survives(self):
        wf = Workflow(
            name="w",
            nodes={"a": Activity(name="a")},
            variables={"msg": "line1\nline2\tx", "cr": "a\rb", "pad": "  two  "},
        )
        text = serialize_wpdl(wf)
        assert 'value="line1&#10;line2&#09;x"' in text
        assert 'value="a&#13;b"' in text
        assert parse_wpdl(text).variables == wf.variables
        assert parse_wpdl(serialize_wpdl(wf, pretty=False)) == wf
        assert parse_wpdl(text) == wf
