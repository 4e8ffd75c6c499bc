"""XML WPDL document type definition, and the grammar walk read from it.

The paper points to the author's thesis for the full DTD; :data:`WPDL_DTD`
is our equivalent, and the one place the grammar is written: at import,
each element's attributes are read from it and its content model compiled
into an automaton.  :func:`check_vocabulary` and
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


def _automaton(element: str) -> tuple[dict[str, dict[str, str]], dict[str, str]]:
    """*element*'s content model as a position automaton: :data:`_MOVES`'s
    and :data:`_UNFINISHED`'s rows for it.  A state is the tag, then the
    last child read: no tag occurs twice in a model, so a child names its
    position, and the models are deterministic, so a child has one move."""
    tokens = [*re.findall(r"\w+|[(),|?*+]", _MODELS[element]), ")"]
    follow: dict[str, set[str]] = {}  # child → the children that may follow it

    def particle(i: int) -> tuple[int, bool, set[str], set[str]]:
        """The particle at *i*: the index after it, whether it may be
        empty, and the children it may begin and end with."""
        if tokens[i] != "(":
            follow[tokens[i]] = set()
            i, empty, first, last = i + 1, False, {tokens[i]}, {tokens[i]}
        else:
            i, empty, first, last = particle(i + 1)
            while tokens[i] != ")":  # a sequence (",") or a choice ("|")
                choice = tokens[i] == "|"
                i, then_empty, then_first, then_last = particle(i + 1)
                for child in () if choice else last:
                    follow[child] |= then_first
                first = first | then_first if choice or empty else first
                last = last | then_last if choice or then_empty else then_last
                empty = empty or then_empty if choice else empty and then_empty
            i += 1
        if tokens[i] in ("*", "+"):
            for child in last:
                follow[child] |= first
        return i + (tokens[i] in "?*+"), empty or tokens[i] in "?*", first, last

    if not ELEMENTS[element][1]:  # EMPTY or (#PCDATA)
        return {element: {}}, {}
    _, empty, first, last = particle(0)
    states = {element: first} | {f"{element} {c}": then for c, then in follow.items()}
    moves = {s: {c: f"{element} {c}" for c in then} for s, then in states.items()}
    ends = {f"{element} {c}" for c in last} | ({element} if empty else set())
    required = {s: " or ".join(f"<{c}>" for c in sorted(moves[s])) for s in moves}
    return moves, {state: required[state] for state in moves.keys() - ends}


#: What the walk looks up per start tag: an open element's state (see
#: :func:`_automaton`; ``""`` is the document's) → child → the state the
#: element moves to by holding it.  A child with no move is refused.
_MOVES: dict[str, dict[str, str]] = {"": {"Workflow": ""}}
#: What the walk looks up per end tag: a state an element may not end in →
#: the children it requires next, as a problem names them.
_UNFINISHED: dict[str, str] = {}
for _moves, _unfinished in map(_automaton, ELEMENTS):
    _MOVES |= _moves
    _UNFINISHED |= _unfinished


def check_vocabulary(text: str) -> list[str]:
    """The grammar problems of an XML document, in document order and each
    with its path: elements not allowed, repeated, out of order or missing,
    and unknown attributes, in the words
    :func:`~repro.wpdl.parser.parse_wpdl` refuses them with.  An empty list
    may still fail semantic validation."""
    walk = _Walk()
    _run(walk.parser, text)
    return walk.problems


class _Walk:
    """One document's grammar walk, each open element's automaton state on
    its stack.  A start tag is one lookup in its parent's state, which moves
    the parent or refuses the child, then one check of its attributes; an
    end tag is one check that the element may end there.  Paths are built
    for problems only; a refused element's inside is not read.  A subclass
    reads what passes: ``opens[tag](self, tag, attrs)``, ``closes[tag](self, tag)``."""

    opens: dict[str, Callable[..., None] | None] = dict.fromkeys(ELEMENTS)
    closes: dict[str, Callable[..., None] | None] = dict.fromkeys(ELEMENTS)

    def __init__(self) -> None:
        self.parser = parser = _xml_parser()
        parser.StartElementHandler = self.start
        parser.EndElementHandler = self.end
        #: The open elements' states, below the document's ``""``.
        self.tags = [""]
        self.problems: list[str] = []

    def start(self, tag: str, attrs: dict[str, str]) -> None:
        tags = self.tags
        try:
            tags[-1] = _MOVES[tags[-1]][tag]
        except KeyError:
            return self._refuse(tag)
        known = ELEMENTS[tag][0]
        if not known.issuperset(attrs):
            path = _path([*tags[1:], tag])
            unknown = [a for a in attrs if a not in known]
            self.problems += [f"{path}: unknown attribute {_tag(a)!r}" for a in unknown]
        tags.append(tag)
        read = self.opens[tag]
        if read is not None:
            read(self, tag, attrs)

    def end(self, tag: str) -> None:
        tags = self.tags
        state = tags[-1]
        del tags[-1]
        if state in _UNFINISHED:
            path = _path([*tags[1:], tag])
            self.problems.append(f"{path}: <{tag}> requires {_UNFINISHED[state]}")
        read = self.closes[tag]
        if read is not None:
            read(self, tag)

    def _refuse(self, tag: str) -> None:
        tags, parser, shown = self.tags, self.parser, _tag(tag)
        problem = f"root element must be <Workflow>, got <{shown}>"
        if len(tags) > 1:
            parent, _, last = tags[-1].partition(" ")
            why = "out of order" if tag in ELEMENTS[parent][1] else "not allowed"
            why = "repeated" if tag == last else why
            problem = f"{_path(tags[1:])}: element <{shown}> {why} inside <{parent}>"
        self.problems.append(problem)
        self.depth = 1  # how deep the walk is in the refused element
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


def _path(states: list[str]) -> str:
    """The elements whose *states* are open, as a problem names them."""
    return "/".join(state.partition(" ")[0] for state in states)


def _tag(name: str) -> str:
    """*name* as a message shows it: ``{uri}local`` when namespaced."""
    return "{" + name if "}" in name else name
