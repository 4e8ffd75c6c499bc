"""The WPDL grammar oracle: documents generated from ``ELEMENTS`` itself.

A seeded generator builds documents the vocabulary allows, and documents
with one mutation: an element out of place, an unknown attribute, a
namespaced tag, truncation, or a repeat of a child its parent may hold at
most once (``?`` in the DTD).  On every one:

- ``parse_wpdl`` raises a grammar ``ParseError`` exactly when
  ``check_vocabulary`` lists problems, and its message lists the same
  problems (an XML fault is the same fault for both);
- a valid document's ``parse ∘ serialize ∘ parse`` equals its ``parse``;
- nothing but the library's own errors (``repro.errors``) escapes.
"""

from __future__ import annotations

import random
from xml.sax.saxutils import escape

import pytest

from repro.errors import GridWFSError, ParseError
from repro.wpdl import parse_wpdl, serialize_wpdl
from repro.wpdl.schema import _CHILDREN, ELEMENTS, TEXT_ELEMENTS, check_vocabulary

#: Documents per block; six blocks make the oracle's 6 000 documents.
BLOCK = 1000
MUTATIONS = ("misplaced", "unknown_attribute", "namespaced", "truncated", "repeated")
#: element → the children it may hold at most once, as the walk reads them.
ONCE = {
    tag: sorted(child for child, after in _CHILDREN[tag].items() if after)
    for tag in ELEMENTS
    if any(_CHILDREN[tag].values())
}

#: Values an optional attribute takes in a valid document.
VALUES = {
    "max_tries": ("1", "3", "unlimited"),
    "interval": ("0", "2.5"),
    "backoff": ("1", "2"),
    "max_interval": ("8",),
    "timeout": ("30",),
    "policy": ("none", "replica"),
    "resource_selection": ("same", "rotate"),
    "restart_from_checkpoint": ("true", "false"),
    "retry_on_exception": ("true", "false"),
    "join": ("and", "or"),
    "max_iterations": ("1", "1000"),
    "service": ("jobmanager", "fork"),
    "executableDir": ("/bin/",),
    "executable": ("sum",),
}
#: A typed value that parses as its type.
TYPED = {"str": "s", "int": "7", "float": "1.5", "bool": "true", "none": ""}
#: The nodes a ``<Workflow>`` or ``<Body>`` holds.
NODES = ("Activity", "Loop", "SubWorkflow")


class Element:
    """One element of a generated document."""

    def __init__(self, tag: str, attrs: dict[str, str], text: str = "") -> None:
        self.tag, self.attrs, self.text = tag, attrs, text
        self.children: list[Element] = []

    def render(self) -> str:
        # No generated value needs escaping in an attribute.
        attrs = "".join(f' {k}="{v}"' for k, v in self.attrs.items())
        inner = escape(self.text) + "".join(c.render() for c in self.children)
        return f"<{self.tag}{attrs}>{inner}</{self.tag}>"

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


class Generator:
    """Valid documents: each element's children are drawn from
    ``ELEMENTS[tag][1]`` and its optional attributes from ``ELEMENTS[tag][0]``;
    names are unique, so every document reads without a fault."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.count = 0

    def fresh(self, prefix: str) -> str:
        self.count += 1
        return f"{prefix}{self.count}"

    def optional(self, tag: str, attrs: dict[str, str]) -> dict[str, str]:
        for attribute in sorted(ELEMENTS[tag][0] & VALUES.keys()):
            if self.rng.random() < 0.3:
                attrs[attribute] = self.rng.choice(VALUES[attribute])
        return attrs

    def document(self) -> Element:
        return self.frame("Workflow", {"name": self.fresh("w")}, depth=0)

    def frame(self, tag: str, attrs: dict[str, str], depth: int) -> Element:
        rng, frame = self.rng, Element(tag, attrs)
        assert {"Variables", *NODES, "Transition", "Program"} == ELEMENTS[tag][1]
        if rng.random() < 0.3:
            variables = Element("Variables", {})
            for _ in range(rng.randrange(3)):
                kind = rng.choice(sorted(TYPED))
                attrs = {"name": self.fresh("v"), "value": TYPED[kind], "type": kind}
                variables.children.append(Element("Variable", attrs))
            frame.children.append(variables)
        names = []
        for _ in range(rng.randrange(1, 4)):
            composite = depth < 2 and rng.random() < 0.4
            tag = rng.choice(NODES) if composite else "Activity"
            node = getattr(self, tag.lower())(depth)
            names.append(node.attrs["name"])
            frame.children.append(node)
        for _ in range(rng.randrange(3)):
            if len(names) > 1:
                source, target = rng.sample(names, 2)
                frame.children.append(self.transition(source, target))
        if rng.random() < 0.5:
            program = Element("Program", {"name": self.fresh("p")})
            for _ in range(rng.randrange(1, 3)):
                option = self.optional("Option", {"hostname": self.fresh("h")})
                program.children.append(Element("Option", option))
            frame.children.append(program)
        first = 1 if frame.children[0].tag == "Variables" else 0
        rest = frame.children[first:]
        rng.shuffle(rest)
        frame.children[first:] = rest
        return frame

    def activity(self, _depth: int) -> Element:
        rng = self.rng
        attrs = self.optional("Activity", {"name": self.fresh("a")})
        activity = Element("Activity", attrs)
        if rng.random() < 0.2:
            activity.children.append(Element("Description", {}, "some & text"))
        for _ in range(rng.randrange(3)):
            if rng.random() < 0.5:
                kind = rng.choice(sorted(TYPED))
                attrs = {"name": self.fresh("i"), "value": TYPED[kind], "type": kind}
            else:
                attrs = {"name": self.fresh("i"), "ref": self.fresh("r")}
            activity.children.append(Element("Input", attrs))
        for _ in range(rng.randrange(2)):
            activity.children.append(Element("Output", {}, self.fresh("o")))
        if rng.random() < 0.3:
            attrs = {"on": "Disk*", "as": self.fresh("e")}
            activity.children.append(Element("Rethrow", attrs))
        if rng.random() < 0.7:
            activity.children.append(Element("Implement", {}, self.fresh("p")))
        return activity

    def loop(self, depth: int) -> Element:
        attrs = {"name": self.fresh("l"), "condition": "False"}
        return self.composite("Loop", attrs, depth)

    def subworkflow(self, depth: int) -> Element:
        return self.composite("SubWorkflow", {"name": self.fresh("s")}, depth)

    def composite(self, tag: str, attrs: dict[str, str], depth: int) -> Element:
        composite = Element(tag, self.optional(tag, attrs))
        body = {"name": self.fresh("b")} if self.rng.random() < 0.3 else {}
        composite.children.append(self.frame("Body", body, depth + 1))
        return composite

    def transition(self, source: str, target: str) -> Element:
        attrs = {"from": source, "to": target}
        way = self.rng.choice(("", "done", "failed", "always", "exception", "expr"))
        if way == "exception":
            attrs.update(on="exception", exception="Disk*")
        elif way == "expr":
            attrs["condition"] = "True"
        elif way:
            attrs["on"] = way
        return Element("Transition", attrs)

    def mutate(self, document: Element, mutation: str) -> str:
        """*document*'s text with one *mutation*."""
        rng = self.rng
        elements = list(document.walk())
        target = rng.choice(elements)
        if mutation == "misplaced":
            misplaced = sorted(set(ELEMENTS) - ELEMENTS[target.tag][1]) + ["Gizmo"]
            tag = rng.choice(misplaced)
            target.children.insert(
                rng.randrange(len(target.children) + 1),
                Element(tag, {"name": self.fresh("m")}),
            )
        elif mutation == "unknown_attribute":
            others = set().union(*(attributes for attributes, _ in ELEMENTS.values()))
            unknown = sorted(others - ELEMENTS[target.tag][0]) + ["nmae", "max_trys"]
            target.attrs[rng.choice(unknown)] = "1"
        elif mutation == "namespaced":
            target.attrs = {"xmlns:x": "urn:x", **target.attrs}
            target.tag = f"x:{target.tag}"
        elif mutation == "repeated":
            target = rng.choice([e for e in elements if e.tag in ONCE])
            tag = rng.choice(ONCE[target.tag])
            text = "t" if tag in TEXT_ELEMENTS else ""
            held = sum(child.tag == tag for child in target.children)
            for _ in range(2 - held):
                target.children.insert(
                    rng.randrange(len(target.children) + 1), Element(tag, {}, text)
                )
        text = document.render()
        if mutation == "truncated":
            text = text[: rng.randrange(len(text))]
        return text


def _outcome(read, text: str):
    """``("ok", value)`` or ``("error", message)``; any error that is not a
    :class:`ParseError` escapes."""
    try:
        return "ok", read(text)
    except ParseError as exc:
        return "error", str(exc)


def _check(text: str, mutation: str | None) -> None:
    lint = _outcome(check_vocabulary, text)
    parsed = _outcome(lambda t: parse_wpdl(t, validate_graph=False), text)
    if lint[0] == "error":  # not well-formed: the same fault for both
        assert mutation == "truncated", (text, lint)
        assert parsed == lint, text
    elif lint[1]:
        assert mutation in set(MUTATIONS) - {"truncated"}, text
        assert parsed == ("error", "; ".join(lint[1])), text
    else:
        assert mutation is None, (text, mutation)
        assert parsed[0] == "ok", (text, parsed)
        again = parse_wpdl(serialize_wpdl(parsed[1]), validate_graph=False)
        assert again == parsed[1], text
    try:  # the graph's checks raise the library's errors only
        parse_wpdl(text)
    except GridWFSError:
        pass


@pytest.mark.contract
@pytest.mark.parametrize("block", range(6))
def test_the_parser_refuses_what_the_lint_lists(block):
    generator = Generator(seed=20030623 + block)
    for index in range(BLOCK):
        document = generator.document()
        mutation = None if index % 2 else MUTATIONS[index // 2 % len(MUTATIONS)]
        if mutation is None:
            _check(document.render(), None)
        else:
            _check(generator.mutate(document, mutation), mutation)


def test_the_generator_reaches_every_element():
    """The oracle says something of every element: a few documents use
    each one, and none holds an at-most-once child twice."""
    generator = Generator(seed=20030623)
    seen: set[str] = set()
    for _ in range(200):
        for element in generator.document().walk():
            seen.add(element.tag)
            tags = [child.tag for child in element.children]
            assert all(tags.count(tag) <= 1 for tag in ONCE.get(element.tag, ()))
    assert seen == set(ELEMENTS), set(ELEMENTS) - seen


def test_the_at_most_once_children_are_the_dtds():
    assert ONCE == {
        "Activity": ["Description", "Implement"],
        "Body": ["Variables"],
        "Workflow": ["Variables"],
    }
