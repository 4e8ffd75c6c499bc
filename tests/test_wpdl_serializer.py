"""Unit tests for the WPDL serializer (round-trip with the parser)."""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from pathlib import Path
from xml.dom import minidom

import pytest

from repro.core.policy import FailurePolicy, ReplicationMode, ResourceSelection
from repro.errors import SpecificationError
from repro.workloads import chain, diamond_ladder, fork_join, layered_dag
from repro.wpdl import (
    Activity,
    JoinMode,
    Loop,
    Option,
    Parameter,
    Program,
    Rethrow,
    SubWorkflow,
    Transition,
    TransitionCondition,
    Workflow,
    WorkflowBuilder,
    parse_wpdl,
    parse_wpdl_file,
    serialize_wpdl,
)

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

    def test_a_body_is_written_under_its_own_tag(self):
        body = WorkflowBuilder("b").dummy("t").build()
        wf = WorkflowBuilder("w").loop("l", body, "x > 1").build()
        compact = serialize_wpdl(wf, pretty=False)
        assert '<Loop name="l" condition="x &gt; 1"><Body name="b">' in compact
        assert '<Activity name="t" /></Body></Loop></Workflow>' in compact
        empty = Workflow(name="w", nodes={"s": SubWorkflow("s", Workflow(name="e"))})
        assert '<SubWorkflow name="s">\n    <Body name="e"/>' in serialize_wpdl(empty)

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


# ---------------------------------------------------------------------------
# The bytes the element-tree writer wrote
# ---------------------------------------------------------------------------

#: Text with every character the writer escapes somewhere, and some it
#: does not: markup, quotes, a non-ASCII letter and the whitespace an
#: attribute must keep.
_CHARS = "ab_ é&<>\"'\n\r\t"


def random_workflow(rng: random.Random, depth: int = 0) -> Workflow:
    """A workflow with every construct the writer knows, each attribute at
    its default or not, each value drawn from markup and whitespace, and
    empty text and empty bodies among them."""

    def text(min_size=0):
        return "".join(rng.choice(_CHARS) for _ in range(rng.randint(min_size, 6)))

    def named(prefix):
        # A name ends where its text ends: WPDL reads names stripped, so
        # the constructors refuse a padded one (whitespace stays inside).
        return f"{prefix}{text()}".rstrip()

    def maybe(value, default):
        return value if rng.random() < 0.5 else default

    def value():
        return rng.choice(
            [None, True, False, rng.randint(-9, 99), rng.uniform(-5, 5), text()]
        )

    names = [f"n{i}{text()}" for i in range(rng.randint(1, 5))]
    nodes = {}
    for name in names:
        kind = rng.random()
        join = maybe(JoinMode.OR, JoinMode.AND)
        if kind < 0.15 and depth < 2:
            body = random_workflow(rng, depth + 1)
            nodes[name] = SubWorkflow(name, body, join)
        elif kind < 0.3 and depth < 2:
            body = random_workflow(rng, depth + 1)
            iterations = maybe(rng.randint(1, 50), 1000)
            nodes[name] = Loop(name, body, f"x {text()} 1", iterations, join)
        else:
            policy = FailurePolicy(
                max_tries=rng.choice([1, None, rng.randint(2, 9)]),
                interval=maybe(rng.uniform(0, 9), 0.0),
                replication=maybe(ReplicationMode.REPLICA, ReplicationMode.NONE),
                resource_selection=maybe(
                    ResourceSelection.ROTATE, ResourceSelection.SAME
                ),
                restart_from_checkpoint=maybe(False, True),
                retry_on_exception=maybe(True, False),
                attempt_timeout=maybe(rng.uniform(0.5, 9), None),
                backoff_factor=maybe(rng.uniform(1, 3), 1.0),
                max_interval=maybe(rng.uniform(1, 30), None),
            )
            inputs = tuple(
                Parameter(f"i{k}", ref=f"r{text()}")
                if rng.random() < 0.3
                else Parameter(f"i{k}", value=value())
                for k in range(rng.randint(0, 3))
            )
            nodes[name] = Activity(
                name=name,
                # The third choice, an empty implement, draws a dummy: the
                # constructor refuses "" (WPDL would read it back a dummy).
                implement=maybe(rng.choice(["p", named("p"), ""]) or None, None),
                policy=policy,
                join=join,
                inputs=inputs,
                outputs=tuple(named("o") for _ in range(rng.randint(0, 2))),
                rethrows=tuple(
                    Rethrow(f"e{text()}*", f"as{text()}")
                    for _ in range(rng.randint(0, 2))
                ),
                description=maybe(text(1), ""),
            )
    conditions = [
        TransitionCondition.done,
        TransitionCondition.failed,
        TransitionCondition.always,
        lambda: TransitionCondition.on_exception(f"E{text()}"),
        lambda: TransitionCondition.when(f"x {text()} 1"),
    ]
    transitions = tuple(
        Transition(*rng.sample(names, 2), rng.choice(conditions)())
        for _ in range(rng.randint(0, 6) if len(names) > 1 else 0)
    )
    programs = {}
    for k in range(rng.randint(0, 2)):
        options = tuple(
            Option(
                hostname=f"h{text()}",
                service=maybe(f"s{text()}", "jobmanager"),
                executable_dir=maybe(f"/d{text()}", ""),
                executable=maybe(f"x{text()}", ""),
            )
            for _ in range(rng.randint(1, 3))
        )
        program = f"p{k}{text()}"
        programs[program] = Program(program, options)
    variables = {f"v{k}{text()}": value() for k in range(rng.randint(0, 4))}
    return Workflow(
        name=f"w{text()}",
        nodes=nodes,
        transitions=transitions,
        programs=programs,
        variables=variables,
    )


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


_RETRYING = FailurePolicy.retrying(3)

#: SHA-256 of each specification's (pretty, compact) text, recorded from
#: the writer that built an ``xml.etree`` tree and wrote it out (compact:
#: ``ET.tostring``).  The 60x60 and 10x10 DAGs are the ledger's
#: ``dag_layered`` shapes on its two seeds.
WRITTEN = {
    "mosaic": (
        lambda: parse_wpdl_file(MOSAIC),
        "f74eefeb009473c54342fa13b01ea5b0b41fe782fd415e3eec6dc7f398f81b95",
        "b20159b480c9188cc3b1bdd61d0400898816270eceb03608ef75ec34f399dcff",
    ),
    "dag60-20030623": (
        lambda: layered_dag(60, 60, hosts=4, seed=20030623, policy=_RETRYING)[0],
        "3e4cf1fe6d7840449caf599baceef6a8dc69ede35fca106e582699a8e6da805a",
        "4bd119a4c9926caf0e548d376abf7c19e81faff09d5d933a7e3bd568bccc03ad",
    ),
    "dag60-19990803": (
        lambda: layered_dag(60, 60, hosts=4, seed=19990803, policy=_RETRYING)[0],
        "ba6359d7c6162e47cec6e0476d85a3462e7eaa0314a2aaf248f7d6dbaee1b478",
        "d98937ba5158cebaa8a259d4f89f7298e5d6d9ba77f3c41ec26e556a9c5a72b4",
    ),
    "dag10-20030623": (
        lambda: layered_dag(10, 10, hosts=4, seed=20030623, policy=_RETRYING)[0],
        "ec85bd0b1da0014ccec1c34f3a093dcb9a03e57ba4e673cb290b625ba369a950",
        "6a043bc7440d21d5e8ab26058e1175f34e1393694bdf5faf4fe1803f25612cfc",
    ),
    "dag10-19990803": (
        lambda: layered_dag(10, 10, hosts=4, seed=19990803, policy=_RETRYING)[0],
        "d248ee21b56dd0429cc94e2414a934a6a03043002f0c643f972f698e85558293",
        "6cfdf871bf542ab163e3a05cfb2a5b8c6ffaf7d51d7322227be90af50c8b8524",
    ),
    "chain": (
        lambda: chain(12, policy=FailurePolicy.retrying(3, interval=2.0))[0],
        "2f77a2e524e3f29176f576f0120aed899b0f3720068f19dba68e5681112e266e",
        "bcf9a18e2d169dc798fd71d8b0aa53de148dcc460151b6352f08d2b76d485512",
    ),
    "fork_join": (
        lambda: fork_join(12, policy=_RETRYING)[0],
        "3c789e013810d59591ebd97c81edca08b6439d9cd0a698e9f41c33b4c003d488",
        "23cdef8d01f875c5b078b0f22cb03e23a994a61c2e9199fdd28feda9f836c15a",
    ),
    "diamond": (
        lambda: diamond_ladder(4, policy=_RETRYING)[0],
        "1fd6afd21db2fc3731089ddc6960313fb5e0a124b4995a82786b1f021d639da7",
        "b223d84921773e0635e234636233602aa4f26a2224edd0f10e7f863481b5ab8e",
    ),
}
#: SHA-256 over the texts of the first 400 ``random_workflow`` draws
#: (seed 20030623), pretty and compact, from the same writer.  Re-recorded,
#: with the writer of the commit before, when an empty implement became a
#: dummy: the draws that wrote ``<Implement/>`` read 83d62f01… and
#: 76f3d8ba….  Re-recorded when a padded implement or output name was
#: refused, a program was keyed by its own name and text began to write
#: ``\r`` as ``&#13;``: 170 of the 400 texts hold a ``\r`` in text, and each
#: is the commit before's text with that ``\r`` written so (that writer's
#: digests of the same draws: 478b1807… and 84703e55…; of the 400 draws
#: before: 73e05d0d… and 651e4068…).  Re-recorded when the draws stopped
#: padding implement and output names, so that the constructors accept
#: every draw (3.6 draws per accepted workflow before): the 400 accepted
#: draws before read d7f3758c… and 615eb78a…, and the commit before's
#: writer digests the new draws as below.
RANDOM_WRITTEN = {
    True: "607d66c16af0bdeaec3e71d7d86ca327c371a5e4610657456f501e56ce9ea505",
    False: "cf39b6170cf386633173a44802bdd2dd067340440e35d9c80a20307d9fecf2b6",
}


@pytest.mark.contract
class TestTheBytesTheTreeWrote:
    """The one-walk writer writes, byte for byte, what the element-tree
    writer wrote, in both forms, but for a ``\r`` in text: that writer left
    it bare, to be read back as ``\n``; this one writes ``&#13;``."""

    @pytest.mark.parametrize("name", sorted(WRITTEN))
    def test_every_shape(self, name):
        make, pretty, compact = WRITTEN[name]
        wf = make()
        assert _digest(serialize_wpdl(wf)) == pretty
        assert _digest(serialize_wpdl(wf, pretty=False)) == compact

    @pytest.mark.parametrize("pretty", [True, False])
    def test_random_workflows(self, pretty):
        digest = hashlib.sha256()
        for wf in _draws(random.Random(20030623), 400):
            digest.update(serialize_wpdl(wf, pretty=pretty).encode())
        assert digest.hexdigest() == RANDOM_WRITTEN[pretty]


def _draws(rng: random.Random, count: int) -> list[Workflow]:
    """The first *count* ``random_workflow`` draws: the constructors accept
    every one (a draw they refuse raises :class:`SpecificationError`)."""
    return [random_workflow(rng) for _ in range(count)]


class TestWriteThenRead:
    @pytest.mark.parametrize("pretty", [True, False])
    def test_every_accepted_draw_reads_back_as_itself(self, pretty):
        """``parse ∘ serialize`` is the identity on 2 000 draws whose names,
        text and values carry spaces, tabs, line feeds and carriage returns
        (a bare ``\r`` reads back as ``\n``: text writes it as ``&#13;``)."""
        texts = Counter()
        for wf in _draws(random.Random(19990803), 2000):
            text = serialize_wpdl(wf, pretty=pretty)
            assert parse_wpdl(text, validate_graph=False) == wf, text
            texts.update(c for c in " \t\n\r" if c in _texts(wf))
        assert min(texts.values()) > 100, texts


def _texts(wf: Workflow) -> str:
    """The descriptions, implements and output names of *wf*, bodies too."""
    parts = []
    for node in wf.nodes.values():
        if isinstance(node, Activity):
            parts += [node.description, node.implement or "", *node.outputs]
        else:
            parts.append(_texts(node.body))
    return "".join(parts)
