"""Unit tests for the WPDL vocabulary lint and DTD export."""

from __future__ import annotations

import re

import pytest

from repro.errors import ParseError
from repro.wpdl import WorkflowBuilder, serialize_wpdl
from repro.wpdl.schema import ELEMENTS, WPDL_DTD, check_vocabulary


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


class TestDTD:
    def test_dtd_covers_every_element_table_entry(self):
        for element in ELEMENTS:
            assert f"<!ELEMENT {element}" in WPDL_DTD

    def test_element_table_consistent_with_parser_vocabulary(self):
        # Every child listed in the table is itself a defined element.
        for _attrs, children in ELEMENTS.values():
            for child in children:
                assert child in ELEMENTS

    def test_dtd_declares_what_the_element_table_lists(self):
        # Each <!ELEMENT> names exactly the children, and each <!ATTLIST>
        # exactly the attributes, that ELEMENTS lists for its element.
        models = dict(re.findall(r"<!ELEMENT (\w+) ([^>]*)>", WPDL_DTD))
        attlists = dict(re.findall(r"<!ATTLIST (\w+)([^>]*)>", WPDL_DTD))
        declaration = r'(\w+)\s+(?:CDATA|\([^)]*\))\s+(?:#\w+|"[^"]*")'
        assert set(models) == set(ELEMENTS)
        assert set(attlists) <= set(ELEMENTS)
        for element, (attributes, children) in ELEMENTS.items():
            named = set(re.findall(r"\w+", models[element])) - {"EMPTY", "PCDATA"}
            assert named == children, element
            declared = set(re.findall(declaration, attlists.get(element, "")))
            assert declared == attributes, element
