"""XML WPDL document type definition.

The paper points to the author's thesis for the full DTD; this module is
our equivalent: the normative element/attribute vocabulary, both as a DTD
string (:data:`WPDL_DTD`, for documentation and external validators) and as
Python tables used by :func:`check_vocabulary` for a quick structural lint
that produces friendlier messages than the parser's first-error behaviour.
The lint and :func:`~repro.wpdl.parser.parse_wpdl` read a document with the
same expat setup (:func:`_xml_parser`), so they agree on what it says; the
parser refuses the lint's unknown attributes.
"""

from __future__ import annotations

from typing import Any
from xml.parsers import expat

from ..errors import ParseError

__all__ = ["WPDL_DTD", "ELEMENTS", "check_vocabulary"]

WPDL_DTD = """\
<!ELEMENT Workflow (Variables?, (Activity | Loop | SubWorkflow | Transition | Program)*)>
<!ATTLIST Workflow name CDATA #REQUIRED>

<!ELEMENT Variables (Variable*)>
<!ELEMENT Variable EMPTY>
<!ATTLIST Variable
    name  CDATA #REQUIRED
    value CDATA #IMPLIED
    type  (str|int|float|bool|none) "str">

<!ELEMENT Activity (Description?, Input*, Output*, Rethrow*, Implement?)>
<!ATTLIST Activity
    name                    CDATA #REQUIRED
    max_tries               CDATA "1"
    interval                CDATA "0"
    backoff                 CDATA "1"
    max_interval            CDATA #IMPLIED
    policy                  (none|replica) "none"
    resource_selection      (same|rotate) "same"
    restart_from_checkpoint (true|false) "true"
    retry_on_exception      (true|false) "false"
    timeout                 CDATA #IMPLIED
    join                    (and|or) "and">

<!ELEMENT Description (#PCDATA)>
<!ELEMENT Input EMPTY>
<!ATTLIST Input
    name  CDATA #REQUIRED
    value CDATA #IMPLIED
    type  (str|int|float|bool|none) "str"
    ref   CDATA #IMPLIED>
<!ELEMENT Output (#PCDATA)>
<!ELEMENT Rethrow EMPTY>
<!ATTLIST Rethrow
    on CDATA #REQUIRED
    as CDATA #REQUIRED>
<!ELEMENT Implement (#PCDATA)>

<!ELEMENT Loop (Body)>
<!ATTLIST Loop
    name           CDATA #REQUIRED
    condition      CDATA #REQUIRED
    max_iterations CDATA "1000"
    join           (and|or) "and">
<!ELEMENT Body (Variables?, (Activity | Loop | SubWorkflow | Transition | Program)*)>
<!ATTLIST Body name CDATA #IMPLIED>

<!ELEMENT SubWorkflow (Body)>
<!ATTLIST SubWorkflow
    name CDATA #REQUIRED
    join (and|or) "and">

<!ELEMENT Transition EMPTY>
<!ATTLIST Transition
    from      CDATA #REQUIRED
    to        CDATA #REQUIRED
    on        (done|failed|exception|always) "done"
    exception CDATA #IMPLIED
    condition CDATA #IMPLIED>

<!ELEMENT Program (Option+)>
<!ATTLIST Program name CDATA #REQUIRED>
<!ELEMENT Option EMPTY>
<!ATTLIST Option
    hostname      CDATA #REQUIRED
    service       CDATA "jobmanager"
    executableDir CDATA #IMPLIED
    executable    CDATA #IMPLIED>
"""

#: element → (allowed attributes, allowed child elements)
ELEMENTS: dict[str, tuple[frozenset[str], frozenset[str]]] = {
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


def check_vocabulary(text: str) -> list[str]:
    """Lint an XML document against the WPDL vocabulary.

    Returns a list of problems (unknown elements / attributes, children in
    the wrong place) without attempting full semantic parsing.  An empty
    list means the vocabulary is clean — the document may still fail
    semantic validation.
    """
    return _lint(text, elements=True)


def _lint(text: str, *, elements: bool) -> list[str]:
    """The vocabulary's problems in document order; with *elements* false,
    only the unknown attributes.  An element in the wrong place is
    reported, and nothing inside it is checked."""
    problems: list[str] = []
    #: ``(tag, path)`` of each open element; ``None`` when it is not checked.
    open_at: list[tuple[str, str] | None] = []

    def start(name: str, attrs: dict[str, str]) -> None:
        tag, checked = _tag(name), None
        if not open_at:
            if tag == "Workflow":
                checked = (tag, tag)
            elif elements:
                problems.append(f"root element must be <Workflow>, got <{tag}>")
        elif open_at[-1] is not None:
            parent, path = open_at[-1]
            if tag in ELEMENTS[parent][1]:
                checked = (tag, f"{path}/{tag}")
            elif elements:
                problems.append(
                    f"{path}: element <{tag}> not allowed inside <{parent}>"
                )
        if checked is not None:
            known, path = ELEMENTS[tag][0], checked[1]
            problems.extend(
                f"{path}: unknown attribute {_tag(attr)!r}"
                for attr in attrs
                if attr not in known
            )
        open_at.append(checked)

    parser = _xml_parser()
    parser.StartElementHandler = start
    parser.EndElementHandler = lambda _name: open_at.pop()
    _run(parser, text)
    return problems


def _xml_parser() -> Any:
    """Expat reading as ``xml.etree`` does: namespaced names as ``uri}local``,
    and an entity nothing declares (legal beside an external DTD) is an error."""
    parser = expat.ParserCreate(None, "}")
    parser.buffer_text = True

    def undefined(name: str, is_parameter_entity: bool) -> None:
        if not is_parameter_entity:
            raise ParseError(
                f"not well-formed XML: undefined entity {f'&{name};'[:100]}: "
                f"line {parser.CurrentLineNumber}, column {parser.CurrentColumnNumber}"
            )

    parser.SkippedEntityHandler = undefined
    return parser


def _run(parser: Any, text: str) -> None:
    try:
        parser.Parse(text, True)
    except expat.ExpatError as exc:
        raise ParseError(f"not well-formed XML: {exc}") from exc
    finally:  # the handlers refer back to the parser: leave no cycle to collect
        parser.StartElementHandler = parser.EndElementHandler = None
        parser.CharacterDataHandler = parser.SkippedEntityHandler = None


def _tag(name: str) -> str:
    """*name* as a message shows it: ``{uri}local`` when namespaced."""
    return "{" + name if "}" in name else name
