"""Unit tests for the WPDL vocabulary lint and DTD export."""

from __future__ import annotations

import re

import pytest

from repro.errors import ParseError
from repro.wpdl import WorkflowBuilder, parse_wpdl, serialize_wpdl
from repro.wpdl.parser import _CHOICES, _TYPE_PARSERS
from repro.wpdl.schema import ELEMENTS, TEXT_ELEMENTS, WPDL_DTD, check_vocabulary


class TestVocabulary:
    def test_clean_document_no_problems(self):
        wf = (
            WorkflowBuilder("w")
            .program("p", hosts=["h"])
            .activity("t", implement="p")
            .build()
        )
        assert check_vocabulary(serialize_wpdl(wf)) == []

    def test_unknown_element_reported(self):
        problems = check_vocabulary(
            "<Workflow name='w'><Gizmo/></Workflow>"
        )
        assert any("not allowed inside" in p for p in problems)

    def test_unknown_attribute_reported(self):
        problems = check_vocabulary(
            "<Workflow name='w'><Activity name='t' retries='3'/></Workflow>"
        )
        assert any("unknown attribute 'retries'" in p for p in problems)

    def test_misplaced_element_reported(self):
        problems = check_vocabulary(
            "<Workflow name='w'><Activity name='t'>"
            "<Option hostname='h'/></Activity></Workflow>"
        )
        assert any("<Option> not allowed" in p for p in problems)

    def test_wrong_root_reported(self):
        problems = check_vocabulary("<Pipeline name='w'/>")
        assert problems == ["root element must be <Workflow>, got <Pipeline>"]

    def test_malformed_xml_raises(self):
        with pytest.raises(ParseError):
            check_vocabulary("<Workflow")

    def test_loop_body_contents_checked(self):
        problems = check_vocabulary(
            "<Workflow name='w'>"
            "<Loop name='l' condition='x'>"
            "<Body><Bogus/></Body>"
            "</Loop></Workflow>"
        )
        assert any("Bogus" in p for p in problems)


#: The element table as it was written by hand before it was read from the
#: DTD: element → (allowed attributes, allowed child elements).
HAND_WRITTEN_ELEMENTS = {
    "Workflow": (
        frozenset({"name"}),
        frozenset(
            {"Variables", "Activity", "Loop", "SubWorkflow", "Transition", "Program"}
        ),
    ),
    "Variables": (frozenset(), frozenset({"Variable"})),
    "Variable": (frozenset({"name", "value", "type"}), frozenset()),
    "Activity": (
        frozenset(
            {
                "name",
                "max_tries",
                "interval",
                "backoff",
                "max_interval",
                "policy",
                "resource_selection",
                "restart_from_checkpoint",
                "retry_on_exception",
                "timeout",
                "join",
            }
        ),
        frozenset({"Description", "Input", "Output", "Rethrow", "Implement"}),
    ),
    "Description": (frozenset(), frozenset()),
    "Input": (frozenset({"name", "value", "type", "ref"}), frozenset()),
    "Output": (frozenset(), frozenset()),
    "Rethrow": (frozenset({"on", "as"}), frozenset()),
    "Implement": (frozenset(), frozenset()),
    "Loop": (
        frozenset({"name", "condition", "max_iterations", "join"}),
        frozenset({"Body"}),
    ),
    "Body": (
        frozenset({"name"}),
        frozenset(
            {"Variables", "Activity", "Loop", "SubWorkflow", "Transition", "Program"}
        ),
    ),
    "SubWorkflow": (frozenset({"name", "join"}), frozenset({"Body"})),
    "Transition": (
        frozenset({"from", "to", "on", "exception", "condition"}),
        frozenset(),
    ),
    "Program": (frozenset({"name"}), frozenset({"Option"})),
    "Option": (
        frozenset({"hostname", "service", "executableDir", "executable"}),
        frozenset(),
    ),
}

#: ``(element, attribute, enumeration or None, quoted default or None)`` for
#: every attribute the DTD declares.
DECLARED = [
    (element, attribute, kind[1:-1].split("|") if kind != "CDATA" else None, default)
    for element, body in re.findall(r"<!ATTLIST (\w+)([^>]*)>", WPDL_DTD)
    for attribute, kind, default in re.findall(
        r'(\w+)\s+(CDATA|\([^)]*\))\s+(?:#\w+|"([^"]*)")', body
    )
]


def _defaults(element: str) -> str:
    """The quoted defaults the DTD declares for *element*, written out."""
    return " ".join(
        f"{attribute}='{default}'"
        for owner, attribute, _, default in DECLARED
        if owner == element and default
    )


#: One of each element that has quoted defaults; ``{Tag}`` is where the
#: defaults go.
DEFAULTS_DOCUMENT = """
<Workflow name='w'>
  <Variables><Variable name='v' value='1' {Variable}/></Variables>
  <Activity name='a' {Activity}>
    <Input name='x' value='2' {Input}/><Implement>p</Implement>
  </Activity>
  <Activity name='b'/>
  <Transition from='a' to='b' {Transition}/>
  <Loop name='l' condition='v &lt; 3' {Loop}><Body><Activity name='c'/></Body></Loop>
  <SubWorkflow name='s' {SubWorkflow}>
    <Body><Activity name='d'/></Body>
  </SubWorkflow>
  <Program name='p'><Option hostname='h' {Option}/></Program>
</Workflow>
"""
DEFAULTED = (
    "Variable",
    "Activity",
    "Input",
    "Transition",
    "Loop",
    "SubWorkflow",
    "Option",
)


class TestDTD:
    def test_dtd_covers_every_element_table_entry(self):
        for element in ELEMENTS:
            assert f"<!ELEMENT {element}" in WPDL_DTD

    def test_element_table_consistent_with_parser_vocabulary(self):
        # Every child listed in the table is itself a defined element.
        for _attrs, children in ELEMENTS.values():
            for child in children:
                assert child in ELEMENTS

    def test_the_derived_table_is_the_hand_written_one(self):
        # ELEMENTS is read from the DTD; it is the table written by hand
        # before, element for element and in the same order.
        assert ELEMENTS == HAND_WRITTEN_ELEMENTS
        assert list(ELEMENTS) == list(HAND_WRITTEN_ELEMENTS)
        assert TEXT_ELEMENTS == {"Description", "Output", "Implement"}

    def test_the_dtds_defaults_are_the_parsers(self):
        # Writing out every default the DTD declares changes nothing.
        assert {owner for owner, *_, default in DECLARED if default} == set(DEFAULTED)
        bare = parse_wpdl(DEFAULTS_DOCUMENT.format_map(dict.fromkeys(DEFAULTED, "")))
        written = DEFAULTS_DOCUMENT.format_map({e: _defaults(e) for e in DEFAULTED})
        assert "max_iterations='1000'" in written
        assert repr(parse_wpdl(written)) == repr(bare)

    def test_the_dtds_value_sets_are_the_parsers(self):
        enumerations = {
            (element, attribute): set(values)
            for element, attribute, values, _ in DECLARED
            if values is not None
        }
        accepted = {attribute: set(members) for attribute, members in _CHOICES.items()}
        for (element, attribute), values in enumerations.items():
            if attribute == "type":
                assert values == set(_TYPE_PARSERS), element
            elif attribute == "on":
                assert values == {"done", "failed", "exception", "always"}
            else:
                assert values == accepted[attribute], (element, attribute)
        assert set(accepted) == {a for _, a in enumerations} - {"type", "on"}

    @pytest.mark.parametrize(
        "element, attribute, value",
        [
            (element, attribute, value)
            for element, attribute, values, _ in DECLARED
            for value in values or ()
        ],
    )
    def test_every_listed_value_parses(self, element, attribute, value):
        given = f"{attribute}='{value}'"
        documents = {
            "Activity": f"<Activity name='a' {given}/>",
            "Variable": f"<Variables><Variable name='v' value='1' {given}/>"
            "</Variables><Activity name='a'/>",
            "Input": f"<Activity name='a'><Input name='x' value='1' {given}/>"
            "</Activity>",
            "Loop": f"<Loop name='l' condition='False' {given}>"
            "<Body><Activity name='a'/></Body></Loop>",
            "SubWorkflow": f"<SubWorkflow name='s' {given}>"
            "<Body><Activity name='a'/></Body></SubWorkflow>",
            "Transition": "<Activity name='a'/><Activity name='b'/>"
            f"<Transition from='a' to='b' exception='E' {given}/>",
        }
        text = f"<Workflow name='w'>{documents[element]}</Workflow>"
        if element == "Transition" and value != "exception":
            text = text.replace(" exception='E'", "")
        assert check_vocabulary(text) == []
        parse_wpdl(text, validate_graph=False)
        bogus = text.replace(given, f"{attribute}='bogus'")
        with pytest.raises(ParseError):
            parse_wpdl(bogus, validate_graph=False)
