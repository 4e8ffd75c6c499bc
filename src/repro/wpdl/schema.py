"""XML WPDL document type definition.

The paper points to the author's thesis for the full DTD; this module is
our equivalent: the normative element/attribute vocabulary, both as a DTD
string (:data:`WPDL_DTD`, for documentation and external validators) and as
Python tables used by :func:`check_vocabulary` for a quick structural lint
that produces friendlier messages than the parser's first-error behaviour.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

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
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ParseError(f"not well-formed XML: {exc}") from exc
    problems: list[str] = []
    if root.tag != "Workflow":
        problems.append(f"root element must be <Workflow>, got <{root.tag}>")
        return problems
    _walk(root, problems, path=root.tag)
    return problems


def _walk(elem: ET.Element, problems: list[str], *, path: str) -> None:
    spec = ELEMENTS.get(elem.tag)
    if spec is None:
        problems.append(f"{path}: unknown element <{elem.tag}>")
        return
    allowed_attrs, allowed_children = spec
    for attr in elem.attrib:
        if attr not in allowed_attrs:
            problems.append(f"{path}: unknown attribute {attr!r}")
    for child in elem:
        if child.tag not in allowed_children:
            problems.append(
                f"{path}: element <{child.tag}> not allowed inside <{elem.tag}>"
            )
            continue
        _walk(child, problems, path=f"{path}/{child.tag}")
