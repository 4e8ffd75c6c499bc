"""XML WPDL document type definition, and the grammar walk read from it.

The paper points to the author's thesis for the full DTD; :data:`WPDL_DTD`
is our equivalent, and the one place the vocabulary is written: the tables
the walk checks are read from it at import.  :func:`check_vocabulary` and
:func:`~repro.wpdl.parser.parse_wpdl` are one walk (:class:`_Walk`).
"""

from __future__ import annotations

import re
from typing import Any, Callable
from xml.parsers import expat

from ..errors import ParseError

__all__ = ["WPDL_DTD", "ELEMENTS", "TEXT_ELEMENTS", "check_vocabulary"]

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

_MODELS = dict(re.findall(r"<!ELEMENT (\w+) ([^>]*)>", WPDL_DTD))
_ATTLISTS = dict(re.findall(r"<!ATTLIST (\w+)([^>]*)>", WPDL_DTD))
_DECLARATION = r'(\w+)\s+(?:CDATA|\([^)]*\))\s+(?:#\w+|"[^"]*")'

#: element → (allowed attributes, allowed child elements), read from the DTD.
ELEMENTS: dict[str, tuple[frozenset[str], frozenset[str]]] = {
    element: (
        frozenset(re.findall(_DECLARATION, _ATTLISTS.get(element, ""))),
        frozenset(re.findall(r"\w+", model)) - {"EMPTY", "PCDATA"},
    )
    for element, model in _MODELS.items()
}
#: The elements whose content is text, ``(#PCDATA)``.
TEXT_ELEMENTS = frozenset(e for e, model in _MODELS.items() if model == "(#PCDATA)")

#: What the walk looks up per start tag; ``""`` is the document.
_CHILDREN = {"": frozenset({"Workflow"}), **{e: c for e, (_, c) in ELEMENTS.items()}}
_ATTRIBUTES = {element: attributes for element, (attributes, _) in ELEMENTS.items()}


def check_vocabulary(text: str) -> list[str]:
    """The grammar problems of an XML document, in document order and each
    with its path: elements out of place and unknown attributes, in the
    words :func:`~repro.wpdl.parser.parse_wpdl` refuses them with.  An empty
    list may still fail semantic validation."""
    walk = _Walk()
    _run(walk.parser, text)
    return walk.problems


class _Walk:
    """One document's grammar walk.  A start tag is checked against its
    parent's children and its own attributes, one ``frozenset`` lookup each;
    a path is built only for a problem.  Nothing inside an element out of
    place is read.  A subclass reads what the walk accepts, with
    ``opens[tag](self, tag, attrs)`` and ``closes[tag](self, tag)``."""

    opens: dict[str, Callable[..., None] | None] = dict.fromkeys(ELEMENTS)
    closes: dict[str, Callable[..., None] | None] = dict.fromkeys(ELEMENTS)

    def __init__(self) -> None:
        self.parser = parser = _xml_parser()
        parser.StartElementHandler = self.start
        parser.EndElementHandler = self.end
        #: The open elements' tags, below the document's ``""``.
        self.tags = [""]
        self.problems: list[str] = []

    def start(self, tag: str, attrs: dict[str, str]) -> None:
        tags = self.tags
        if tag not in _CHILDREN[tags[-1]]:
            return self._refuse(tag)
        known = _ATTRIBUTES[tag]
        if not known.issuperset(attrs):
            path = "/".join((*tags[1:], tag))
            unknown = [a for a in attrs if a not in known]
            self.problems += [f"{path}: unknown attribute {_tag(a)!r}" for a in unknown]
        tags.append(tag)
        read = self.opens[tag]
        if read is not None:
            read(self, tag, attrs)

    def end(self, tag: str) -> None:
        del self.tags[-1]
        read = self.closes[tag]
        if read is not None:
            read(self, tag)

    def _refuse(self, tag: str) -> None:
        tags, parser, shown = self.tags, self.parser, _tag(tag)
        problem = f"root element must be <Workflow>, got <{shown}>"
        if len(tags) > 1:
            path, parent = "/".join(tags[1:]), tags[-1]
            problem = f"{path}: element <{shown}> not allowed inside <{parent}>"
        self.problems.append(problem)
        self.depth = 1  # how deep the walk is in the element out of place
        parser.StartElementHandler, parser.EndElementHandler = self._in, self._out
        parser.CharacterDataHandler = None  # a text element's text ends here

    def _in(self, _tag: str, _attrs: dict[str, str]) -> None:
        self.depth += 1

    def _out(self, _tag: str) -> None:
        self.depth -= 1
        if not self.depth:
            self.parser.StartElementHandler = self.start
            self.parser.EndElementHandler = self.end


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
