"""Every readable output of the telemetry plane, pinned by SHA-256.

A 20-instance faulty batch (see :mod:`tests.obs_plane`) runs on two seeds
with the whole plane attached, and each of its seven readable outputs must
digest to ``GOLDEN``.  The pins have moved three times, each time tied to
the commit before by digests recorded there before any source changed:

* PR 15 rewrote the observed path (bound instruments, lazy records, flat
  rings) under seven unchanged digests, then fixed the cancelled-attempt
  leak: ``task.attempt`` spans that stayed open for ever (56 of 334 on
  seed 20030623, 51 of 393 on 19990803) end when their node resolves,
  labelled ``outcome="cancelled"``, and every finished workflow reports
  ``in_flight == 0`` with those attempts under ``attempts["cancelled"]``;
* PR 17 gave every job one re-armed timer, so the scraped
  ``sim_timers_cancelled`` reads 50 instead of 60 (45 instead of 85);
* PR 18 handed verdicts to the coordinator by call instead of through the
  bus.  An observer used to hear ``recovery.resolved`` and
  ``engine.node_completed`` *before* the ``task.done`` that caused them
  (the engine's own subscription ran first and published from inside it);
  now the detector narrates, then steers, and every consumer sees the one
  order the flight recorder always saw.  That re-orders what the
  subscribers write and takes the ``.wf-N`` suffix off the ``task.*``
  topics — and must change nothing else.  ``PARENT`` holds the parent's
  outputs digested in a form neither can move (``_views``), and this
  commit's outputs must digest to the same:

  - ``recorder``: the journal, suffix stripped — equal entry for entry;
  - ``events``: the observer's ring, suffix stripped, as a multiset — and
    on this commit it is, in order, the journal filtered to the observer's
    three topic families, which makes the two rings one;
  - ``spans``: a multiset of (name, sim_start, sim_end, labels) — ids and
    parents are allocation order;
  - ``tracker``: keys sorted (``attempts["cancelled"]`` used to be
    inserted before the outcome that won, now after);
  - ``registry``, ``prometheus``, ``store``: families, series and lines
    sorted, without the four route gauges that count what was deleted
    (``bus_cached_routes`` 41 → 14 and 33 → 14, ``bus_route_builds`` 61 →
    14 and 69 → 14, ``bus_subscription_groups`` 25 → 10 and 13 → 10,
    ``bus_route_cache_hit_rate`` follows) and the three fast-path gauges
    that went with the fast path.

  On seed 20030623 the span stream did not move at all.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.obs.catalogue import metric_specs, topic_specs
from tests.obs_plane import ObservedHost, digest

INSTANCES = 20

GOLDEN = {
    20030623: {
        "registry": "4494eb34010d0aa16ecc2092c262cb4e6b1c0fb00c5472f7ff0f940813deca45",
        "prometheus": "1a0655515c8b0bdc47d08f12c399289f63a9936a400840423578064797aec7ed",
        "store": "388b9d4efd196830cdcfb933e9612a799649c7461cc989e596cd1b5ddced96f3",
        "events": "bde842cc542c1eb175a4a59146ac16d5f477c7a11eb0b7dff338547bc04b07f1",
        "spans": "950d6502ef42e37cd1c355b6568a6808ca3d352073b365e7889947f0635ab850",
        "recorder": "4ad9992466c529f36a2d6c0c6d15b4a154e3eb6ef1760fb30527e10dd0402652",
        "tracker": "aee482e9a73875d024b66efd76c49a11b33bb5e6fe515656bdc225918eaed2cb",
    },
    19990803: {
        "registry": "2428d6aae8e7baeb3bae60bff07c1efadc9806b90b1f523921a0616c603440d5",
        "prometheus": "13dbfa4c4a2dac6571546f77fd830b8e6a5cfbda180c331a114454504f37bec0",
        "store": "66bbf37033c3044091e11b7c9e9eedf603a121feb3640c319c6bfebdd5c8a0e0",
        "events": "55562ac0d63cafe57b9583d2e4600bfef796cbed1b980c4e59e1f31a789d51ff",
        "spans": "c5ae24b7e988471c226030b60ad7ea796806e4c71e7df2013f3f8a05c26d33aa",
        "recorder": "3d3ad34047d344f8f75bf2f38bb169b34f9024e7e0f55f2859d47c47ad6148d7",
        "tracker": "11bc8525533831ab84e0bf58556646e192218bc0b250fad608aaff73eedcd229",
    },
}

#: ``_views`` of the outputs of PR 18's parent commit, recorded there.
PARENT = {
    20030623: {
        "recorder": "4ad9992466c529f36a2d6c0c6d15b4a154e3eb6ef1760fb30527e10dd0402652",
        "events": "dcbe0a955d48bd5ec210fabaaf87e7561fe120a2fd85cfbb96085eab3ffd358a",
        "spans": "cb856f0d6978f362cc65b1124bf0fd98f21b2676c216daab5113a39e96141458",
        "tracker": "155c7225403af51be52caa1278f11e3d89df6ecc336a7f6085175a2bcea39d06",
        "registry": "273a9305eb6f9ca821b924fb1603ec6f11f55483a4b72647880e3c26f53323ce",
        "prometheus": "61b6b1676b6970d8568842eb3eaf0e8863518574f3dd2e66d4bc4e4ec4d55d64",
        "store": "7a9ea694306cc5951273231ba98f536c83f3e124e48b28b3d5b7ffa4250aba81",
    },
    19990803: {
        "recorder": "3d3ad34047d344f8f75bf2f38bb169b34f9024e7e0f55f2859d47c47ad6148d7",
        "events": "618aa842b81818cb8aac810a16e653792b2a704e2d609da8e12438af2249043f",
        "spans": "c36ef1a790d9f5a68e992601b7ca84a53b320e4e18d7dc311f0369122f6883c3",
        "tracker": "5ff61535ef52c7144e4a316aae1622808f6abce60a880beba3284ea2369493bd",
        "registry": "c85cd08963ffad1a70a91313b644c3241647130e72cadd5067e91e82fdccd225",
        "prometheus": "457401f528309a242cebd31197aa9619486fea64b8ad6a2a55ea8f78adb808f0",
        "store": "035c1b2573f611d4520a6bd89e9329f67798b96d290126cb6f1f97bf7deb4257",
    },
}

#: What the earlier re-pins established and this one has to keep: the
#: cancelled attempts per seed, and where ``sim_timers_cancelled`` ends.
CANCELLED = {20030623: 56, 19990803: 51}
TIMERS_CANCELLED = {20030623: 50.0, 19990803: 45.0}

#: Where the scraped gauges that count routes and subscription groups now
#: end, and everything ``_unordered`` leaves out: those, the hit rate that
#: follows them, and the three deleted families the parent still emitted.
ROUTE_GAUGES = {
    "bus_cached_routes": 14.0,
    "bus_route_builds": 14.0,
    "bus_subscription_groups": 10.0,
}
DELETED_GAUGES = (
    "bus_prefix_patterns",
    "bus_regex_patterns",
    "bus_prefix_fastpath_share",
)
LEFT_OUT = (*ROUTE_GAUGES, "bus_route_cache_hit_rate", *DELETED_GAUGES)

#: The topic families :class:`RunObserver` subscribes to.
OBSERVED = ("engine.", "task.", "recovery.")

#: The per-instance topic suffix of the parent's ``task.*`` publications.
_SCOPE = re.compile(r"\.wf-\d+$")


def _text(value) -> str:
    return json.dumps(value, default=str)


def _unordered(output):
    """A metric output (the exposition text, or a family-keyed snapshot)
    with families, series and lines sorted and the moved and deleted
    gauges left out."""
    if isinstance(output, str):
        prefixes = tuple(
            prefix
            for family in LEFT_OUT
            for prefix in (
                f"# HELP {family} ",
                f"# TYPE {family} ",
                f"{family} ",
                f"{family}{{",
            )
        )
        return "\n".join(
            sorted(ln for ln in output.split("\n") if not ln.startswith(prefixes))
        )
    out = {}
    for name in sorted(output):
        if name in LEFT_OUT:
            continue
        family = output[name]
        if isinstance(family, dict):  # registry: family → {…, series}
            out[name] = {**family, "series": sorted(family["series"], key=_text)}
        else:  # store: family → series
            out[name] = sorted(family, key=_text)
    return out


def _views(outputs) -> dict[str, str]:
    """Each output digested in a form that neither the order consumers
    hear events in nor the topic suffix can move.  Stripping the suffix is
    a no-op on this commit's outputs; it is what makes the parent's
    comparable (run this on a checkout of the parent to get ``PARENT``)."""
    recorder = [
        {**entry, "topic": _SCOPE.sub("", entry["topic"])}
        for entry in outputs["recorder"]
    ]
    events = [
        [at, _SCOPE.sub("", topic), detail] for at, topic, detail in outputs["events"]
    ]
    spans = [
        [name, sim_start, sim_end, labels]
        for _id, name, sim_start, sim_end, _parent, labels in outputs["spans"]
    ]
    return {
        "recorder": digest(recorder),
        "events": digest(sorted(events, key=_text)),
        "spans": digest(sorted(spans, key=_text)),
        "tracker": digest(json.dumps(outputs["tracker"], sort_keys=True)),
        "registry": digest(_unordered(outputs["registry"])),
        "prometheus": digest(_unordered(outputs["prometheus"])),
        "store": digest(_unordered(outputs["store"])),
    }


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_plane_outputs_match_the_golden(seed):
    plane = ObservedHost(seed)
    results = plane.run_batch(INSTANCES)
    assert len(results) == INSTANCES
    assert all(result.succeeded for result in results.values())
    outputs = plane.outputs()
    assert {name: digest(value) for name, value in outputs.items()} == GOLDEN[seed]
    # Everything the plane emitted is a declared (and so catalogued) family,
    # and everything anyone published went out on a declared topic.
    registry = outputs["registry"]
    assert set(registry) <= {spec.name for spec in metric_specs()}
    journal = [entry["topic"] for entry in outputs["recorder"]]
    assert set(journal) <= {spec.topic for spec in topic_specs()}

    # Calling the coordinator instead of publishing to it moved these
    # outputs in order and topic suffix alone …
    assert _views(outputs) == PARENT[seed]
    # … and left the observer's ring and the journal telling one story.
    assert [topic for _at, topic, _detail in outputs["events"]] == [
        topic for topic in journal if topic.startswith(OBSERVED)
    ]
    assert {
        name: registry[name]["series"][0]["value"] for name in ROUTE_GAUGES
    } == ROUTE_GAUGES
    assert not set(DELETED_GAUGES) & set(registry)

    # Cancelled attempts still end with their node and are still counted.
    spans = outputs["spans"]
    cancelled = [s for s in spans if s[5].get("outcome") == "cancelled"]
    assert len(cancelled) == CANCELLED[seed]
    assert all(s[1] == "task.attempt" for s in cancelled)
    assert all(s[3] is not None for s in spans)
    tracker = outputs["tracker"]
    assert all(status["attempts"]["in_flight"] == 0 for status in tracker)
    assert (
        sum(status["attempts"].get("cancelled", 0) for status in tracker)
        == CANCELLED[seed]
    )
    # One timer per job still cancels what it did.
    (cancelled_series,) = registry["sim_timers_cancelled"]["series"]
    assert cancelled_series["value"] == TIMERS_CANCELLED[seed]
