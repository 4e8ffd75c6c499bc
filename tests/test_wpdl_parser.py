"""Unit tests for the XML WPDL parser, including the paper's examples."""

from __future__ import annotations

import hashlib
import inspect
from pathlib import Path

import pytest

from repro.core.policy import FailurePolicy, ReplicationMode
from repro.errors import ParseError, ValidationError
from repro.workloads import chain, diamond_ladder, fork_join, layered_dag
from repro.wpdl import serialize_wpdl
from repro.wpdl.model import ConditionKind, JoinMode
from repro.wpdl import parser, schema
from repro.wpdl.parser import parse_wpdl, parse_wpdl_file
from repro.wpdl.schema import check_vocabulary

# The paper's Figure 2 fragment, completed into a full document.
FIGURE2 = """
<Workflow name='retry-example'>
  <Activity name='summation' max_tries='3' interval='10'>
    <Input name='x' value='42' type='int'/>
    <Output>total</Output>
    <Implement>sum</Implement>
  </Activity>
  <Program name='sum'>
    <Option hostname='bolas.isi.edu' service='jobmanager'
            executableDir='/XML/EXAMPLE/' executable='sum'/>
  </Program>
</Workflow>
"""

# The paper's Figure 3 fragment (replication).
FIGURE3 = """
<Workflow name='replica-example'>
  <Activity name='summation' policy='replica'>
    <Implement>sum</Implement>
  </Activity>
  <Program name='sum'>
    <Option hostname='bolas.isi.edu'/>
    <Option hostname='vanuatu.isi.edu'/>
    <Option hostname='jupiter.isi.edu'/>
  </Program>
</Workflow>
"""


class TestPaperExamples:
    def test_figure2_retrying(self):
        wf = parse_wpdl(FIGURE2)
        act = wf.node("summation")
        assert act.policy.max_tries == 3
        assert act.policy.interval == 10.0
        assert act.inputs[0].value == 42
        assert act.outputs == ("total",)
        option = wf.programs["sum"].options[0]
        assert option.hostname == "bolas.isi.edu"
        assert option.executable_dir == "/XML/EXAMPLE/"

    def test_figure3_replication(self):
        wf = parse_wpdl(FIGURE3)
        act = wf.node("summation")
        assert act.policy.replication is ReplicationMode.REPLICA
        assert len(wf.programs["sum"].options) == 3


class TestAttributes:
    def test_unlimited_max_tries(self):
        wf = parse_wpdl(
            "<Workflow name='w'>"
            "<Activity name='t' max_tries='unlimited'><Implement>p</Implement></Activity>"
            "<Program name='p'><Option hostname='h'/></Program>"
            "</Workflow>"
        )
        assert wf.node("t").policy.max_tries is None

    def test_join_or(self):
        wf = parse_wpdl(
            "<Workflow name='w'><Activity name='t' join='or'/></Workflow>"
        )
        assert wf.node("t").join is JoinMode.OR

    def test_retry_on_exception_flag(self):
        wf = parse_wpdl(
            "<Workflow name='w'>"
            "<Activity name='t' retry_on_exception='true'/></Workflow>"
        )
        assert wf.node("t").policy.retry_on_exception

    def test_backoff_attributes_parsed(self):
        wf = parse_wpdl(
            "<Workflow name='w'>"
            "<Activity name='t' max_tries='unlimited' interval='1.0'"
            " backoff='2.0' max_interval='8.0'>"
            "<Implement>p</Implement></Activity>"
            "<Program name='p'><Option hostname='h'/></Program>"
            "</Workflow>"
        )
        policy = wf.node("t").policy
        assert policy.uses_backoff
        assert policy.backoff_factor == 2.0
        assert policy.max_interval == 8.0
        assert policy.retry_delay(3) == 4.0

    def test_combined_replication_checkpointing_retry_parsed(self):
        wf = parse_wpdl(
            "<Workflow name='w'>"
            "<Activity name='t' policy='replica' max_tries='3' interval='1.0'>"
            "<Implement>p</Implement></Activity>"
            "<Program name='p'>"
            "<Option hostname='h1'/><Option hostname='h2'/>"
            "</Program>"
            "</Workflow>"
        )
        policy = wf.node("t").policy
        assert policy.techniques() == ("replication", "checkpointing", "retrying")

    def test_bad_backoff_rejected(self):
        with pytest.raises(ParseError, match="backoff"):
            parse_wpdl(
                "<Workflow name='w'><Activity name='t' backoff='fast'/></Workflow>"
            )

    def test_bad_max_interval_rejected(self):
        with pytest.raises(ParseError, match="max_interval"):
            parse_wpdl(
                "<Workflow name='w'>"
                "<Activity name='t' max_interval='soon'/></Workflow>"
            )

    def test_bad_max_tries_rejected(self):
        with pytest.raises(ParseError, match="max_tries"):
            parse_wpdl("<Workflow name='w'><Activity name='t' max_tries='lots'/></Workflow>")

    def test_bad_policy_rejected(self):
        with pytest.raises(ParseError, match="policy"):
            parse_wpdl("<Workflow name='w'><Activity name='t' policy='clone'/></Workflow>")

    def test_bad_join_rejected(self):
        with pytest.raises(ParseError, match="join"):
            parse_wpdl("<Workflow name='w'><Activity name='t' join='xor'/></Workflow>")


class TestTransitions:
    def wrap(self, transitions):
        return parse_wpdl(
            "<Workflow name='w'>"
            "<Activity name='a'/><Activity name='b'/>"
            f"{transitions}"
            "</Workflow>"
        )

    def test_done_default(self):
        wf = self.wrap("<Transition from='a' to='b'/>")
        assert wf.transitions[0].condition.kind is ConditionKind.DONE

    def test_failed(self):
        wf = self.wrap("<Transition from='a' to='b' on='failed'/>")
        assert wf.transitions[0].condition.kind is ConditionKind.FAILED

    def test_always(self):
        wf = self.wrap("<Transition from='a' to='b' on='always'/>")
        assert wf.transitions[0].condition.kind is ConditionKind.ALWAYS

    def test_exception_with_pattern(self):
        wf = self.wrap(
            "<Transition from='a' to='b' on='exception' exception='disk_full'/>"
        )
        cond = wf.transitions[0].condition
        assert cond.kind is ConditionKind.EXCEPTION
        assert cond.exception == "disk_full"

    def test_exception_without_pattern_rejected(self):
        with pytest.raises(ParseError, match="exception"):
            self.wrap("<Transition from='a' to='b' on='exception'/>")

    def test_expr_condition(self):
        wf = self.wrap("<Transition from='a' to='b' condition='a &gt; 10'/>")
        cond = wf.transitions[0].condition
        assert cond.kind is ConditionKind.EXPR and cond.expr == "a > 10"

    def test_on_and_condition_exclusive(self):
        with pytest.raises(ParseError, match="mutually exclusive"):
            self.wrap("<Transition from='a' to='b' on='failed' condition='x'/>")

    def test_unknown_on_rejected(self):
        with pytest.raises(ParseError, match="unknown on"):
            self.wrap("<Transition from='a' to='b' on='sometimes'/>")

    def test_missing_endpoints_rejected(self):
        with pytest.raises(ParseError):
            self.wrap("<Transition from='a'/>")


class TestVariablesAndLoops:
    def test_typed_variables(self):
        wf = parse_wpdl(
            "<Workflow name='w'>"
            "<Variables>"
            "<Variable name='s' value='hi'/>"
            "<Variable name='i' value='3' type='int'/>"
            "<Variable name='f' value='0.5' type='float'/>"
            "<Variable name='b' value='true' type='bool'/>"
            "<Variable name='n' type='none'/>"
            "</Variables>"
            "<Activity name='t'/>"
            "</Workflow>"
        )
        assert wf.variables == {"s": "hi", "i": 3, "f": 0.5, "b": True, "n": None}

    @pytest.mark.parametrize(
        "word, value",
        [("true", True), ("TRUE", True), (" yes ", True), ("1", True)]
        + [("false", False), ("No", False), ("0", False)],
    )
    def test_a_bool_is_one_of_six_words(self, word, value):
        wf = parse_wpdl(
            "<Workflow name='w'><Variables>"
            f"<Variable name='b' value='{word}' type='bool'/></Variables>"
            "<Activity name='t'/></Workflow>"
        )
        assert wf.variables == {"b": value}

    def test_unknown_type_rejected(self):
        with pytest.raises(ParseError, match="unknown value type"):
            parse_wpdl(
                "<Workflow name='w'><Variables>"
                "<Variable name='x' value='1' type='decimal'/></Variables>"
                "<Activity name='t'/></Workflow>"
            )

    def test_loop_with_body(self):
        wf = parse_wpdl(
            "<Workflow name='w'>"
            "<Loop name='refine' condition='residual &gt; 0.1' max_iterations='5'>"
            "<Body name='refine_body'><Activity name='solve'/></Body>"
            "</Loop>"
            "</Workflow>"
        )
        loop = wf.node("refine")
        assert loop.condition == "residual > 0.1"
        assert loop.max_iterations == 5
        assert "solve" in loop.body.nodes

    def test_loop_requires_single_body(self):
        with pytest.raises(ParseError, match="exactly one"):
            parse_wpdl(
                "<Workflow name='w'>"
                "<Loop name='l' condition='x'></Loop>"
                "</Workflow>"
            )

    def test_ref_input_value_dependency(self):
        wf = parse_wpdl(
            "<Workflow name='w'>"
            "<Activity name='a'><Output>total</Output></Activity>"
            "<Activity name='b'><Input name='x' ref='total'/></Activity>"
            "<Transition from='a' to='b'/>"
            "</Workflow>"
        )
        assert wf.node("b").inputs[0].ref == "total"

    def test_ref_and_value_exclusive(self):
        with pytest.raises(ParseError, match="mutually exclusive"):
            parse_wpdl(
                "<Workflow name='w'><Activity name='b'>"
                "<Input name='x' ref='r' value='1'/></Activity></Workflow>"
            )


class TestDocumentErrors:
    def test_not_xml(self):
        with pytest.raises(ParseError, match="not well-formed"):
            parse_wpdl("this is not xml")

    def test_wrong_root(self):
        with pytest.raises(ParseError, match="root element"):
            parse_wpdl("<Pipeline name='w'/>")

    def test_unexpected_element(self):
        with pytest.raises(ParseError, match="<Task> not allowed inside"):
            parse_wpdl("<Workflow name='w'><Task name='t'/></Workflow>")

    def test_duplicate_activity(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_wpdl(
                "<Workflow name='w'><Activity name='t'/><Activity name='t'/></Workflow>"
            )

    def test_duplicate_program(self):
        with pytest.raises(ParseError, match="duplicate program"):
            parse_wpdl(
                "<Workflow name='w'><Activity name='t'/>"
                "<Program name='p'><Option hostname='h'/></Program>"
                "<Program name='p'><Option hostname='h'/></Program>"
                "</Workflow>"
            )

    def test_validation_runs_by_default(self):
        # Transition to an unknown node passes parsing but fails validation.
        with pytest.raises(ValidationError):
            parse_wpdl(
                "<Workflow name='w'><Activity name='a'/>"
                "<Transition from='a' to='ghost'/></Workflow>"
            )

    def test_validation_can_be_skipped(self):
        wf = parse_wpdl(
            "<Workflow name='w'><Activity name='a'/>"
            "<Transition from='a' to='ghost'/></Workflow>",
            validate_graph=False,
        )
        assert wf.name == "w"

    def test_unknown_attributes_are_refused_together(self):
        # They used to be dropped: this activity ran once without replicas,
        # and the misspelled ``on`` made a done edge.
        text = (
            "<Workflow name='w'>"
            "<Activity name='a' max_trys='3' polcy='replica'/>"
            "<Activity name='b'/><Transition from='a' to='b' om='failed'/>"
            "<Loop name='l' condition='x' cond='y'><Body>"
            "<Activity name='c' nmae='d'/></Body></Loop>"
            "</Workflow>"
        )
        unknown = [
            "Workflow/Activity: unknown attribute 'max_trys'",
            "Workflow/Activity: unknown attribute 'polcy'",
            "Workflow/Transition: unknown attribute 'om'",
            "Workflow/Loop: unknown attribute 'cond'",
            "Workflow/Loop/Body/Activity: unknown attribute 'nmae'",
        ]
        assert check_vocabulary(text) == unknown
        for graph in (True, False):
            with pytest.raises(ParseError) as info:
                parse_wpdl(text, validate_graph=graph)
            assert str(info.value) == "; ".join(unknown)

    def test_a_misplaced_element_is_not_an_attribute_fault(self):
        # Nothing inside an element out of place is read, so its unknown
        # attribute is not a problem; the parser refuses the element in
        # the lint's words instead of dropping it from the workflow.
        text = (
            "<Workflow name='w'><Variables><Activity name='v' x='1'/></Variables>"
            "<Activity name='a'/></Workflow>"
        )
        problem = (
            "Workflow/Variables: element <Activity> not allowed inside <Variables>"
        )
        assert check_vocabulary(text) == [problem]
        with pytest.raises(ParseError) as raised:
            parse_wpdl(text)
        assert str(raised.value) == problem

    def test_parse_file(self, tmp_path):
        path = tmp_path / "wf.xml"
        path.write_text(FIGURE2)
        assert parse_wpdl_file(path).name == "retry-example"

    def test_parse_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            parse_wpdl_file(tmp_path / "missing.xml")

    def test_a_document_is_read_once(self, monkeypatch):
        # The grammar is checked in the reading that mints the records:
        # no second walk, and no keyword that asks for one.
        reads = []
        for module in (parser, schema):
            run = module._run
            monkeypatch.setattr(
                module, "_run", lambda p, text, run=run: reads.append(1) or run(p, text)
            )
        parse_wpdl(FIGURE2)
        assert len(reads) == 1
        assert list(inspect.signature(parse_wpdl).parameters) == [
            "text",
            "validate_graph",
        ]


class TestTimeoutAttribute:
    def test_timeout_parsed_as_attempt_timeout(self):
        wf = parse_wpdl(
            "<Workflow name='w'>"
            "<Activity name='t' timeout='30.5'/></Workflow>"
        )
        assert wf.node("t").policy.attempt_timeout == 30.5

    def test_missing_timeout_is_none(self):
        wf = parse_wpdl("<Workflow name='w'><Activity name='t'/></Workflow>")
        assert wf.node("t").policy.attempt_timeout is None

    def test_bad_timeout_rejected(self):
        with pytest.raises(ParseError, match="timeout"):
            parse_wpdl(
                "<Workflow name='w'><Activity name='t' timeout='soon'/></Workflow>"
            )

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ParseError):
            parse_wpdl(
                "<Workflow name='w'><Activity name='t' timeout='0'/></Workflow>"
            )


# ---------------------------------------------------------------------------
# Parity with the tree-walking parser this one replaced
# ---------------------------------------------------------------------------

_W = "<Workflow name='w'>{}</Workflow>"
_A = "<Workflow name='w'><Activity name='t' {}/></Workflow>"
_EXTERNAL_DTD = "<!DOCTYPE Workflow SYSTEM 'wpdl.dtd'>\n"

#: Every ``raise ParseError`` site with its exact message.  A grammar
#: problem is in the words of ``check_vocabulary``, with its path, and the
#: error lists every one; the other messages are those the parser gave
#: when it built an ``xml.etree`` tree first (recorded from that parser).
#: That parser read the whole document before it looked at an element, so
#: of two faults an XML fault anywhere came first; and it counted a loop's
#: ``<Body>`` children before it read the first, so a second body came
#: before any fault inside the first.  A grammar problem met before a
#: fault comes first too.  The last block pins that order.
MESSAGES = {
    # -- XML (line and column as expat reports them) -------------------------
    "mismatched_tag": (
        "<Workflow name='w'><Activity name='a'></Workflow>",
        "not well-formed XML: mismatched tag: line 1, column 40",
    ),
    "not_xml": (
        "this is not xml",
        "not well-formed XML: syntax error: line 1, column 0",
    ),
    "empty_text": ("", "not well-formed XML: no element found: line 1, column 0"),
    "unclosed_token": (
        "<Workflow",
        "not well-formed XML: unclosed token: line 1, column 0",
    ),
    "junk_after_root": (
        "<Workflow name='w'/><Workflow name='v'/>",
        "not well-formed XML: junk after document element: line 1, column 20",
    ),
    "unbound_prefix": (
        "<p:Workflow name='w'/>",
        "not well-formed XML: unbound prefix: line 1, column 0",
    ),
    "undefined_entity": (
        _W.format("<Activity name='&nowhere;'/>"),
        "not well-formed XML: undefined entity: line 1, column 19",
    ),
    "undefined_entity_with_external_dtd": (
        _EXTERNAL_DTD
        + "<Workflow name='w'>\n"
        + "  <Activity name='a'><Implement>&nowhere;</Implement></Activity>\n"
        + "</Workflow>",
        "not well-formed XML: undefined entity &nowhere;: line 3, column 32",
    ),
    # -- the document and its workflows -------------------------------------
    "wrong_root": (
        "<Pipeline name='w'/>",
        "root element must be <Workflow>, got <Pipeline>",
    ),
    "wrong_root_namespaced": (
        "<Workflow xmlns='urn:wpdl' name='w'/>",
        "root element must be <Workflow>, got <{urn:wpdl}Workflow>",
    ),
    "workflow_without_name": ("<Workflow/>", "<Workflow> requires a name attribute"),
    "workflow_empty_name": (
        "<Workflow name=''/>",
        "<Workflow> requires a name attribute",
    ),
    "body_empty_name": (
        _W.format("<Loop name='l' condition='x'><Body name=''/></Loop>"),
        "<Workflow> requires a name attribute",
    ),
    "unexpected_in_workflow": (
        _W.format("<Task name='t'/>"),
        "Workflow: element <Task> not allowed inside <Workflow>",
    ),
    "unexpected_in_workflow_namespaced": (
        "<Workflow name='w' xmlns:x='urn:x'><x:Task/></Workflow>",
        "Workflow: element <{urn:x}Task> not allowed inside <Workflow>",
    ),
    "unexpected_in_body": (
        _W.format("<Loop name='l' condition='x'><Body><Task/></Body></Loop>"),
        "Workflow/Loop/Body: element <Task> not allowed inside <Body>",
    ),
    "unexpected_in_nested_body": (
        _W.format(
            "<SubWorkflow name='s'><Body><Loop name='l' condition='x'>"
            "<Body><Activity name='a'/><Gizmo/></Body></Loop></Body></SubWorkflow>"
        ),
        "Workflow/SubWorkflow/Body/Loop/Body: "
        "element <Gizmo> not allowed inside <Body>",
    ),
    "repeated_implement": (
        _W.format(
            "<Program name='p'><Option hostname='h'/></Program>"
            "<Activity name='t'><Implement>p</Implement><Implement>q</Implement>"
            "</Activity>"
        ),
        "Workflow/Activity: element <Implement> repeated inside <Activity>",
    ),
    "repeated_variables": (
        _W.format(
            "<Variables><Variable name='x' value='1'/></Variables><Activity name='t'/>"
            "<Variables><Variable name='x' value='2'/></Variables>"
        ),
        "Workflow: element <Variables> repeated inside <Workflow>",
    ),
    "repeated_description_in_body": (
        _W.format(
            "<Loop name='l' condition='x'><Body><Activity name='t'>"
            "<Description>a</Description><Description>b</Description>"
            "</Activity></Body></Loop>"
        ),
        "Workflow/Loop/Body/Activity: element <Description> repeated inside <Activity>",
    ),
    "duplicate_activity": (
        _W.format("<Activity name='t'/><Activity name='t'/>"),
        "duplicate activity 't'",
    ),
    "duplicate_loop": (
        _W.format("<Activity name='l'/><Loop name='l' condition='x'><Body/></Loop>"),
        "duplicate loop 'l'",
    ),
    "duplicate_subworkflow": (
        _W.format("<Activity name='s'/><SubWorkflow name='s'><Body/></SubWorkflow>"),
        "duplicate subworkflow 's'",
    ),
    "duplicate_program": (
        _W.format(
            "<Program name='p'><Option hostname='h'/></Program>"
            "<Program name='p'><Option hostname='h'/></Program>"
        ),
        "duplicate program 'p'",
    ),
    # -- variables and typed values ------------------------------------------
    "variable_without_name": (
        _W.format("<Variables><Variable value='1'/></Variables>"),
        "<Variable> requires a name attribute",
    ),
    "variable_unknown_type": (
        _W.format(
            "<Variables><Variable name='x' value='1' type='decimal'/></Variables>"
        ),
        "unknown value type 'decimal' "
        "(expected one of ['bool', 'float', 'int', 'none', 'str'])",
    ),
    "variable_bad_int": (
        _W.format("<Variables><Variable name='x' value='one' type='int'/></Variables>"),
        "cannot parse 'one' as int: invalid literal for int() with base 10: 'one'",
    ),
    "variable_bad_float": (
        _W.format(
            "<Variables><Variable name='x' value='half' type='float'/></Variables>"
        ),
        "cannot parse 'half' as float: could not convert string to float: 'half'",
    ),
    "variable_bad_bool": (
        _W.format(
            "<Variables><Variable name='x' value='maybe' type='bool'/></Variables>"
        ),
        "cannot parse 'maybe' as bool: expected true, false, yes, no, 1 or 0",
    ),
    # -- activities ----------------------------------------------------------
    "activity_without_name": (
        _W.format("<Activity/>"),
        "<Activity> requires a name attribute",
    ),
    "unexpected_in_activity": (
        _W.format("<Activity name='t'><Option hostname='h'/></Activity>"),
        "Workflow/Activity: element <Option> not allowed inside <Activity>",
    ),
    "empty_output": (
        _W.format("<Activity name='t'><Output>  </Output></Activity>"),
        "activity 't': empty <Output>",
    ),
    "output_text_after_a_child": (
        _W.format("<Activity name='t'><Output><b/>total</Output></Activity>"),
        "Workflow/Activity/Output: element <b> not allowed inside <Output>",
    ),
    "rethrow_without_as": (
        _W.format("<Activity name='t'><Rethrow on='E*'/></Activity>"),
        "activity 't': <Rethrow> requires on and as",
    ),
    "rethrow_without_on": (
        _W.format("<Activity name='t'><Rethrow as='disk_full'/></Activity>"),
        "activity 't': <Rethrow> requires on and as",
    ),
    "input_without_name": (
        _W.format("<Activity name='t'><Input value='1'/></Activity>"),
        "activity 't': <Input> requires a name",
    ),
    "input_value_and_ref": (
        _W.format("<Activity name='t'><Input name='x' ref='r' value='1'/></Activity>"),
        "activity 't' input 'x': value and ref are mutually exclusive",
    ),
    "input_unknown_type": (
        _W.format(
            "<Activity name='t'><Input name='x' value='1' type='cx'/></Activity>"
        ),
        "unknown value type 'cx' "
        "(expected one of ['bool', 'float', 'int', 'none', 'str'])",
    ),
    # -- an activity's policy and join (checked at its end) ------------------
    "bad_max_tries": (
        _A.format("max_tries='lots'"),
        "activity 't': max_tries must be an integer or 'unlimited', got 'lots'",
    ),
    "zero_max_tries": (
        _A.format("max_tries='0'"),
        "activity 't': max_tries must be >= 1 (the first attempt) or None, got 0",
    ),
    "bad_interval": (
        _A.format("interval='soon'"),
        "activity 't': interval must be a number",
    ),
    "negative_interval": (
        _A.format("interval='-1'"),
        "activity 't': interval must be >= 0, got -1.0",
    ),
    "bad_policy": (
        _A.format("policy='clone'"),
        "activity 't': policy must be 'none' or 'replica', got 'clone'",
    ),
    "bad_resource_selection": (
        _A.format("resource_selection='random'"),
        "activity 't': resource_selection must be 'same' or 'rotate', got 'random'",
    ),
    "bad_timeout": (
        _A.format("timeout='soon'"),
        "activity 't': timeout must be a number",
    ),
    "zero_timeout": (
        _A.format("timeout='0'"),
        "activity 't': attempt_timeout must be positive or None, got 0.0",
    ),
    "bad_backoff": (
        _A.format("backoff='fast'"),
        "activity 't': backoff must be a number",
    ),
    "small_backoff": (
        _A.format("backoff='0.5'"),
        "activity 't': backoff_factor must be >= 1.0, got 0.5",
    ),
    "bad_max_interval": (
        _A.format("max_interval='soon'"),
        "activity 't': max_interval must be a number",
    ),
    "zero_max_interval": (
        _A.format("max_interval='0'"),
        "activity 't': max_interval must be positive or None, got 0.0",
    ),
    "bad_join": (
        _A.format("join='xor'"),
        "activity 't': join must be 'and' or 'or', got 'xor'",
    ),
    "restart_from_checkpoint_not_a_boolean": (
        _A.format("restart_from_checkpoint='no'"),
        "activity 't': restart_from_checkpoint must be 'true' or 'false', got 'no'",
    ),
    "retry_on_exception_not_a_boolean": (
        _A.format("retry_on_exception='yes'"),
        "activity 't': retry_on_exception must be 'true' or 'false', got 'yes'",
    ),
    # -- loops and sub-workflows ---------------------------------------------
    "loop_without_name": (
        _W.format("<Loop condition='x'><Body/></Loop>"),
        "<Loop> requires a name attribute",
    ),
    "loop_without_condition": (
        _W.format("<Loop name='l'><Body/></Loop>"),
        "loop 'l' requires a condition attribute",
    ),
    "loop_bad_max_iterations": (
        _W.format("<Loop name='l' condition='x' max_iterations='many'><Body/></Loop>"),
        "loop 'l': max_iterations must be an integer",
    ),
    "loop_zero_max_iterations": (
        _W.format("<Loop name='l' condition='x' max_iterations='0'><Body/></Loop>"),
        "loop 'l': max_iterations must be >= 1",
    ),
    "loop_without_body": (
        _W.format("<Loop name='l' condition='x'/>"),
        "loop 'l' requires exactly one <Body>",
    ),
    "loop_two_bodies": (
        _W.format("<Loop name='l' condition='x'><Body/><Body/></Loop>"),
        "loop 'l' requires exactly one <Body>",
    ),
    "loop_bad_join": (
        _W.format("<Loop name='l' condition='x' join='xor'><Body/></Loop>"),
        "loop 'l': join must be 'and' or 'or', got 'xor'",
    ),
    "subworkflow_without_name": (
        _W.format("<SubWorkflow><Body/></SubWorkflow>"),
        "<SubWorkflow> requires a name attribute",
    ),
    "subworkflow_without_body": (
        _W.format("<SubWorkflow name='s'/>"),
        "subworkflow 's' requires exactly one <Body>",
    ),
    "subworkflow_bad_join": (
        _W.format("<SubWorkflow name='s' join='xor'><Body/></SubWorkflow>"),
        "subworkflow 's': join must be 'and' or 'or', got 'xor'",
    ),
    # -- transitions ---------------------------------------------------------
    "transition_without_to": (
        _W.format("<Transition from='a'/>"),
        "<Transition> requires from and to attributes",
    ),
    "transition_on_and_condition": (
        _W.format("<Transition from='a' to='b' on='failed' condition='x'/>"),
        "transition 'a'->'b': 'on' and 'condition' are mutually exclusive",
    ),
    "transition_empty_condition": (
        _W.format("<Transition from='a' to='b' condition=''/>"),
        "expr transition requires an expression",
    ),
    "transition_exception_without_name": (
        _W.format("<Transition from='a' to='b' on='exception'/>"),
        "transition 'a'->'b': on='exception' requires an exception attribute",
    ),
    "transition_unknown_on": (
        _W.format("<Transition from='a' to='b' on='sometimes'/>"),
        "transition 'a'->'b': unknown on='sometimes'",
    ),
    "self_transition": (
        _W.format("<Transition from='a' to='a'/>"),
        "self-transition on 'a' (use a Loop for iteration)",
    ),
    # -- programs ------------------------------------------------------------
    "program_without_name": (
        _W.format("<Program><Option hostname='h'/></Program>"),
        "<Program> requires a name attribute",
    ),
    "unexpected_in_program": (
        _W.format("<Program name='p'><Host name='h'/></Program>"),
        "Workflow/Program: element <Host> not allowed inside <Program>",
    ),
    "option_without_hostname": (
        _W.format("<Program name='p'><Option/></Program>"),
        "program 'p': <Option> requires a hostname",
    ),
    "program_without_options": (
        _W.format("<Program name='p'/>"),
        "program 'p' has no options",
    ),
    # -- elements out of place, which the tree parser skipped: refused in ---
    # -- the lint's words, with the path -------------------------------------
    "activity_in_variables": (
        _W.format("<Variables><Activity name='x'/></Variables><Activity name='a'/>"),
        "Workflow/Variables: element <Activity> not allowed inside <Variables>",
    ),
    "activity_in_a_loop_outside_its_body": (
        _W.format(
            "<Loop name='l' condition='False'><Activity name='x'/>"
            "<Body><Activity name='b'/></Body></Loop>"
        ),
        "Workflow/Loop: element <Activity> not allowed inside <Loop>",
    ),
    "element_after_a_subworkflow_body": (
        _W.format("<SubWorkflow name='s'><Body/><Note/></SubWorkflow>"),
        "Workflow/SubWorkflow: element <Note> not allowed inside <SubWorkflow>",
    ),
    "child_of_a_transition": (
        _W.format("<Transition from='a' to='b'><Task/></Transition>"),
        "Workflow/Transition: element <Task> not allowed inside <Transition>",
    ),
    "child_of_a_variable": (
        _W.format(
            "<Variables><Variable name='v' value='1'><Task/></Variable></Variables>"
        ),
        "Workflow/Variables/Variable: element <Task> not allowed inside <Variable>",
    ),
    "child_of_an_input": (
        _W.format(
            "<Activity name='t'><Input name='x' value='1'><Gizmo/></Input></Activity>"
        ),
        "Workflow/Activity/Input: element <Gizmo> not allowed inside <Input>",
    ),
    "child_of_a_rethrow": (
        _W.format(
            "<Activity name='t'><Rethrow on='E' as='F'><Task/></Rethrow></Activity>"
        ),
        "Workflow/Activity/Rethrow: element <Task> not allowed inside <Rethrow>",
    ),
    "child_of_an_option": (
        _W.format(
            "<Program name='p'><Option hostname='h'><Task/></Option></Program>"
        ),
        "Workflow/Program/Option: element <Task> not allowed inside <Option>",
    ),
    "child_of_an_implement": (
        _W.format("<Activity name='t'><Implement>a<b/>c</Implement></Activity>"),
        "Workflow/Activity/Implement: element <b> not allowed inside <Implement>",
    ),
    "child_of_a_description": (
        _W.format(
            "<Activity name='t'><Description><b/>gone</Description></Activity>"
        ),
        "Workflow/Activity/Description: element <b> not allowed inside <Description>",
    ),
    "namespaced_child_of_a_leaf": (
        _W.format(
            "<Transition from='a' to='b'><x:Task xmlns:x='urn:x'/></Transition>"
        ),
        "Workflow/Transition: element <{urn:x}Task> not allowed inside <Transition>",
    ),
    # -- two faults in one document: the one the tree parser met first -------
    "unexpected_element_then_mismatched_tag": (
        _W.format("<Task/><Activity name='a'>"),
        "not well-formed XML: mismatched tag: line 1, column 47",
    ),
    "unexpected_element_then_undefined_entity": (
        _EXTERNAL_DTD
        + "<Workflow name='w'><Task/>"
        + "<Activity name='a'><Implement>&nowhere;</Implement></Activity></Workflow>",
        "not well-formed XML: undefined entity &nowhere;: line 2, column 56",
    ),
    "wrong_root_then_mismatched_tag": (
        "<Pipeline><a></b></Pipeline>",
        "not well-formed XML: mismatched tag: line 1, column 15",
    ),
    "fault_in_the_first_of_two_bodies": (
        _W.format("<Loop name='l' condition='x'><Body><Gizmo/></Body><Body/></Loop>"),
        "loop 'l' requires exactly one <Body>",
    ),
    "fault_in_a_body_of_two_nested_in_two": (
        _W.format(
            "<SubWorkflow name='s'><Body><Loop name='l' condition='x'>"
            "<Body><Activity/></Body><Body/></Loop></Body><Body/></SubWorkflow>"
        ),
        "subworkflow 's' requires exactly one <Body>",
    ),
    "fault_in_the_only_body_of_a_loop_whose_parent_has_two": (
        _W.format(
            "<Loop name='o' condition='x'><Body><Loop name='l' condition='x'>"
            "<Body><Gizmo/></Body></Loop></Body><Body/></Loop>"
        ),
        "loop 'o' requires exactly one <Body>",
    ),
    "activity_child_before_policy": (
        _W.format("<Activity name='t' max_tries='lots'><Gizmo/></Activity>"),
        "Workflow/Activity: element <Gizmo> not allowed inside <Activity>",
    ),
    "output_before_duplicate_name": (
        _W.format("<Activity name='t'/><Activity name='t'><Output/></Activity>"),
        "activity 't': empty <Output>",
    ),
    "loop_attributes_before_body_count": (
        _W.format("<Loop name='l'><Body/><Body/></Loop>"),
        "loop 'l' requires a condition attribute",
    ),
    "unknown_attribute_before_a_bad_policy": (
        _A.format("speed='9' max_tries='lots'"),
        "Workflow/Activity: unknown attribute 'speed'",
    ),
    "every_grammar_problem_when_a_fault_stops_the_read": (
        _W.format("<Task/><Activity/><Activity name='b' y='1'/>"),
        "Workflow: element <Task> not allowed inside <Workflow>; "
        "Workflow/Activity: unknown attribute 'y'",
    ),
    "a_fault_before_any_grammar_problem": (
        _W.format("<Activity/><Task/>"),
        "<Activity> requires a name attribute",
    ),
}


@pytest.mark.contract
class TestEveryMessagePinned:
    @pytest.mark.parametrize("case", sorted(MESSAGES))
    def test_message(self, case):
        text, message = MESSAGES[case]
        with pytest.raises(ParseError) as raised:
            parse_wpdl(text)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "case",
        sorted(
            case
            for case, (_, m) in MESSAGES.items()
            if "not allowed" in m or "repeated" in m
        ),
    )
    def test_a_misplaced_element_in_the_lints_words(self, case):
        text, message = MESSAGES[case]
        assert "; ".join(check_vocabulary(text)) == message

    def test_unreadable_file(self, tmp_path):
        path = tmp_path / "missing.xml"
        with pytest.raises(ParseError) as raised:
            parse_wpdl_file(path)
        assert str(raised.value) == (
            f"cannot read {path}: [Errno 2] No such file or directory: '{path}'"
        )


#: Markup that is not an element: a declared encoding (the text is already
#: decoded, so it is ignored), a DTD with an entity and a defaulted
#: attribute, comments, processing instructions, CDATA and references.
MARKUP = """<?xml version='1.0' encoding='iso-8859-1'?>
<!DOCTYPE Workflow [
  <!ENTITY prog 'sum'>
  <!ATTLIST Activity max_tries CDATA '2'>
]>
<!-- a comment before the root -->
<Workflow name='w'>
  <?editor fold='yes'?>
  <Activity name='t'>
    <Implement>s<!-- c -->u<?pi x?>m</Implement>
    <Output><![CDATA[a<b]]></Output>
    <Description>&prog; &amp; &#65;&#x42;</Description>
  </Activity>
  <Program name='&prog;'><Option hostname='h&#233;'/></Program>
</Workflow>
"""


#: SHA-256 of ``repr`` of the workflow the tree parser read from
#: ``examples/specs/mosaic.xml``.
MOSAIC_REPR_SHA256 = "575a8a5f3d0be411ed1e07170f2ee563ecdfd751450a909a6803e445ebbb31c6"


@pytest.mark.contract
class TestWhatTheTreeParserRead:
    def test_markup_that_is_not_an_element(self):
        wf = parse_wpdl(MARKUP)
        act = wf.node("t")
        assert (act.implement, act.outputs, act.description) == (
            "sum",
            ("a<b",),
            "sum & AB",
        )
        assert act.policy.max_tries == 2
        assert wf.programs["sum"].options[0].hostname == "hé"

    def test_a_file(self, tmp_path):
        path = tmp_path / "wf.xml"
        path.write_text(FIGURE2)
        assert parse_wpdl_file(path) == parse_wpdl(FIGURE2)

    def test_the_mosaic_example(self):
        path = Path(__file__).resolve().parents[1] / "examples/specs/mosaic.xml"
        digest = hashlib.sha256(repr(parse_wpdl_file(path)).encode()).hexdigest()
        assert digest == MOSAIC_REPR_SHA256

    @pytest.mark.parametrize("family", ["chain", "fork_join", "layered_dag", "diamond"])
    @pytest.mark.parametrize("pretty", [True, False])
    def test_every_workload_family_round_trips(self, family, pretty):
        policy = FailurePolicy.retrying(3, interval=2.0)
        spec, _setup = {
            "chain": lambda: chain(12, policy=policy),
            "fork_join": lambda: fork_join(12, policy=policy),
            "layered_dag": lambda: layered_dag(5, 6, seed=7, policy=policy),
            "diamond": lambda: diamond_ladder(4, policy=policy),
        }[family]()
        text = serialize_wpdl(spec, pretty=pretty)
        assert parse_wpdl(text) == spec
