"""Every readable output of the telemetry plane, pinned by SHA-256.

A 20-instance faulty batch (see :mod:`tests.obs_plane`) runs on two seeds
with the whole plane attached, and each of its seven readable outputs must
digest to ``GOLDEN``.  The pins have moved six times, each time tied to
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
  bus: every consumer sees the one order the flight recorder always saw,
  and the observer's ring is, in order, the journal filtered to the
  observer's three topic families;
* PR 21 put one log under the plane — one append per publish, everything
  else a view of the log or a fold over it, run at the collector's tick —
  and named every series by the workflow *specification* instead of the
  instance.  ``events``, ``spans`` and ``tracker`` did not move: span ids,
  parents and stamps are properties of log order and of the clocks read at
  append.  ``registry``, ``prometheus`` and ``store`` are re-pinned, tied
  to the parent by projection (``_views``; ``PARENT`` holds the parent's
  outputs digested in that form, and this commit's must digest the same):

  - every counter series of the parent, summed over ``workflow_id`` within
    its workflow's name, is the new series value for value — in the
    registry, and tick by tick in the store — and ``obs_attempts_total``
    likewise;
  - every family without an instance label is equal series for series and
    line for line;
  - the three Wilson gauges are estimates of something else now (a
    specification's pooled rate, not one instance's) and have no parent;
  - the scraped ``bus_*`` gauges move with the subscriptions that went
    (``bus_subscription_groups`` 10 → 2) and are pinned by value
    (``BUS_GAUGES``), as PR 18 did with its route gauges.

  ``recorder`` is the parent's journal entry for entry once ``obs.alert.*``
  is left out of both: with estimates pooled per specification the
  ``attempt-failure-probability`` rule keys on a rate with a real sample
  size, and on seed 19990803 it now fires once (t = 30, Wilson lower bound
  0.72) where no single instance's four-for-four ever sustained;
* later, the estimators latched the health engine's drift rules by call
  instead of through an ``obs.drift.*`` subscription.  ``registry``,
  ``prometheus`` and ``store`` moved by one number: the scraped
  ``bus_subscription_groups`` reads 1 instead of 2 (the test's own
  subscription is the one left), and the parent's three outputs with that
  gauge set to 1 digest to the new pins.  ``_views``, which leaves the bus
  gauges out, still digests to ``PARENT``;
* later still, the bus came to route exact topics only, with no route
  cache.  ``registry``, ``prometheus`` and ``store`` lost the
  ``bus_cached_routes``, ``bus_route_builds`` and
  ``bus_route_cache_hit_rate`` gauges, and ``bus_subscription_groups``
  (still 1) is described as "topics with a subscriber"; the parent's three
  outputs with those gauges dropped and that help text digest to the new
  pins, and ``_views`` still digests to ``PARENT``;
* then every view came to read a record as its journal entry.
  ``events`` is re-pinned: the observer's events *are* the journal's
  entries of its three topic families.  The parent rendered the same
  entries as ``[at, topic, detail]``, with ``at`` lifted out and an
  attempt's fields renamed (``job_id`` → ``job``, ``hostname`` → ``host``,
  ``exception`` always present, ``trace_id`` left out); ``_parent_events``
  is that projection, and ``_views`` digests it to ``PARENT``'s pin.  The
  other six digests did not move.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import build_timelines
from repro.obs.catalogue import metric_specs, topic_specs
from repro.obs.observer import spans_of
from tests.obs_plane import ObservedHost, digest

#: Every test here pins a contract of the program (CI's contract step).
pytestmark = pytest.mark.contract

INSTANCES = 20

GOLDEN = {
    20030623: {
        "registry": "4888f2ab846569f5f9a102d68c2c1f83e7a2a4b68aafefd61ce45330954bbacb",
        "prometheus": "4246e9c65fe049e25472fdb6b312177242aa4a5a001489a16fd9c435c69cbcc1",
        "store": "f29fe7c9b5358ad7d5c0f18e9f7509e0deeed839106fbecb5b9e5a19be68f7b1",
        "events": "904cb1169d892a4443bf33f8bd47763dc43e36c883715b57da3a69aa3da92217",
        "spans": "950d6502ef42e37cd1c355b6568a6808ca3d352073b365e7889947f0635ab850",
        "recorder": "4ad9992466c529f36a2d6c0c6d15b4a154e3eb6ef1760fb30527e10dd0402652",
        "tracker": "aee482e9a73875d024b66efd76c49a11b33bb5e6fe515656bdc225918eaed2cb",
    },
    19990803: {
        "registry": "cc0187fb1f050a3699defcf6d0acdf62994e5cc4019e6d99b6e0692eaa42cec7",
        "prometheus": "25cef356803c6d017592fba0f0f4eef3b1745778a7509ed92b9b10edf52d1d0c",
        "store": "da37aea8466a16df7e3a266ac8be9c78e813eb30a5e7626bded379b3b06a6a57",
        "events": "7daec6b758e5555933be13d909dac21438d5efc8b4252476a6f99044db2d6d77",
        "spans": "c5ae24b7e988471c226030b60ad7ea796806e4c71e7df2013f3f8a05c26d33aa",
        "recorder": "a0279477d86dcb78d169afee751a428e51be1be76f61366b66007d3ffcc9fc1f",
        "tracker": "11bc8525533831ab84e0bf58556646e192218bc0b250fad608aaff73eedcd229",
    },
}

#: ``_views`` of the outputs of PR 21's parent commit, recorded there.
PARENT = {
    20030623: {
        "recorder": "ff2e3b216f2157077ac2e715ef93e6e2b7c289e8b00949711b4b7288cc16b5ea",
        "events": "bde842cc542c1eb175a4a59146ac16d5f477c7a11eb0b7dff338547bc04b07f1",
        "spans": "950d6502ef42e37cd1c355b6568a6808ca3d352073b365e7889947f0635ab850",
        "tracker": "aee482e9a73875d024b66efd76c49a11b33bb5e6fe515656bdc225918eaed2cb",
        "registry": "1850dae09ec1be5e5a20a25cef4278a4a0e99ca81fb3d5a9abfcfdc07bd390b8",
        "prometheus": "ad5963f5ecf36f2b34ea7a319924d185a2a7cb45424e84dcaefb27edf3ffe0fa",
        "store": "5841830b23033fdafac4ee8ba4205cef7825a505ffa3d97c01cc3a9fd6bcdd0b",
    },
    19990803: {
        "recorder": "ce99f53bdd13ed55f98baa65f83b6e16fe1870e67b7eb8ea7a0ec73ec7be88e3",
        "events": "55562ac0d63cafe57b9583d2e4600bfef796cbed1b980c4e59e1f31a789d51ff",
        "spans": "c5ae24b7e988471c226030b60ad7ea796806e4c71e7df2013f3f8a05c26d33aa",
        "tracker": "11bc8525533831ab84e0bf58556646e192218bc0b250fad608aaff73eedcd229",
        "registry": "df62891844f46414d76d85b7d8acabb44bf27687211c98f9625d4a636e60397a",
        "prometheus": "df672c59eacaa21783ef04f95df7dabaf9d8b993d623cd42090c564d9d72efd2",
        "store": "5c364be3558cd790891149f15eed879d6140d544febf27dfa1e5afae2ac0da41",
    },
}

#: What the earlier re-pins established and this one has to keep: the
#: cancelled attempts per seed, and where ``sim_timers_cancelled`` ends.
CANCELLED = {20030623: 56, 19990803: 51}
TIMERS_CANCELLED = {20030623: 50.0, 19990803: 45.0}

#: Where the scraped bus gauges end: no subscription left in the plane,
#: only the test's own topic, and the alert that fires on the second seed
#: counted among the publications.
BUS_GAUGES = {
    20030623: {"bus_publishes": 607.0, "bus_subscription_groups": 1.0},
    19990803: {"bus_publishes": 700.0, "bus_subscription_groups": 1.0},
}
#: Every bus family ``_views`` leaves out, the parent's route gauges too.
_BUS_FAMILIES = (
    *BUS_GAUGES[20030623],
    "bus_cached_routes",
    "bus_route_builds",
    "bus_route_cache_hit_rate",
)

#: Families whose series named an instance at the parent and sum, over the
#: instances of a specification, to the series that replaced them …
_SUMMED = (
    "engine_nodes_launched_total",
    "engine_node_completions_total",
    "engine_workflow_runs_total",
    "task_attempts_total",
    "recovery_retries_total",
    "obs_attempts_total",
)
#: … and the ones that do not: a pooled rate is not a sum of rates.
_POOLED = (
    "obs_attempt_failure_probability",
    "obs_attempt_failure_wilson_low",
    "obs_attempt_failure_wilson_high",
)

#: The topic families :class:`RunObserver` reads.
OBSERVED = ("engine.", "task.", "recovery.")


def _rows(spans) -> list:
    """What the ``spans`` golden digests of each span."""
    return [[s.id, s.name, s.sim_start, s.sim_end, s.parent, s.labels] for s in spans]


def _text(value) -> str:
    return json.dumps(value, default=str)


def _spec_labels(labels: dict, names: dict[str, str]) -> str:
    """A series' labels with the instance replaced by its specification."""
    labels = dict(labels)
    wfid = labels.pop("workflow_id", None)
    if wfid is not None:
        labels["workflow"] = names[wfid]
    return _text(sorted(labels.items()))


def _parent_events(entries) -> list:
    """The observer's events as the parent rendered them: ``[at, topic,
    detail]``, and an attempt's detail in the detector's short names."""
    events = []
    for entry in entries:
        detail = {k: v for k, v in entry.items() if k not in ("seq", "topic")}
        at = float(detail.pop("at", 0.0) or 0.0)
        if entry["topic"].startswith("task."):
            short = {
                "job": detail.get("job_id", ""),
                "activity": detail.get("activity", ""),
                "host": detail.get("hostname", ""),
                "reason": detail.get("reason", ""),
                "exception": detail.get("exception"),
            }
            for key in ("workflow_id", "span_id", "parent_id"):
                if key in detail:
                    short[key] = detail[key]
            detail = short
        events.append([at, entry["topic"], detail])
    return events


def _views(outputs) -> dict[str, str]:
    """Each output digested in a form that renaming series from instance
    to specification cannot move (run this on a checkout of the parent to
    get ``PARENT``): instance-labelled series summed within their
    workflow's name, everything else as it is, order-free."""
    names = {s["workflow_id"]: s["workflow"] for s in outputs["tracker"]}
    left_out = (*_BUS_FAMILIES, *_POOLED)

    registry = {}
    for name, family in outputs["registry"].items():
        if name in left_out:
            continue
        if name not in _SUMMED:
            registry[name] = sorted(_text(series) for series in family["series"])
            continue
        sums: dict[str, float] = {}
        for series in family["series"]:
            key = _spec_labels(series["labels"], names)
            sums[key] = sums.get(key, 0.0) + series["value"]
        registry[name] = sorted(sums.items())

    store = {}
    for name, rings in outputs["store"].items():
        if name in left_out:
            continue
        if name not in _SUMMED:
            store[name] = sorted(_text(ring) for ring in rings)
            continue
        ticks: dict[str, dict[float, float]] = {}
        for ring in rings:
            sampled = ticks.setdefault(_spec_labels(ring["labels"], names), {})
            for point in ring["points"]:
                sampled[point["t"]] = sampled.get(point["t"], 0.0) + point["last"]
        store[name] = sorted((key, sorted(at.items())) for key, at in ticks.items())

    renamed = tuple(
        prefix
        for family in (*left_out, *_SUMMED)
        for prefix in (f"# HELP {family} ", f"# TYPE {family} ", f"{family}{{", f"{family} ")
    )
    prometheus = sorted(
        line for line in outputs["prometheus"].split("\n") if not line.startswith(renamed)
    )
    journal = [
        {key: value for key, value in entry.items() if key != "seq"}
        for entry in outputs["recorder"]
        if not entry["topic"].startswith("obs.alert.")
    ]
    return {
        "recorder": digest(journal),
        "events": digest(_parent_events(outputs["events"])),
        "spans": digest(outputs["spans"]),
        "tracker": digest(outputs["tracker"]),
        "registry": digest(sorted(registry.items())),
        "prometheus": digest(prometheus),
        "store": digest(sorted(store.items())),
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

    # One log under the plane and specification-named series moved these
    # outputs in the names of series alone …
    assert _views(outputs) == PARENT[seed]
    # … no series names an instance any more …
    assert not any(
        "workflow_id" in series["labels"]
        for family in registry.values()
        for series in family["series"]
    )
    # … and the observer's events are the journal's entries of its families.
    assert outputs["events"] == [
        entry for entry in outputs["recorder"] if entry["topic"].startswith(OBSERVED)
    ]
    assert {
        name: registry[name]["series"][0]["value"] for name in BUS_GAUGES[seed]
    } == BUS_GAUGES[seed]

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


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_spans_of_the_journal_are_the_live_spans(seed):
    """The journal replayed as log records — the entry's ``at`` for the
    simulation clock, no wall clock — decodes to the spans the live log
    does, ids, parents and labels alike."""
    plane = ObservedHost(seed)
    plane.run_batch(INSTANCES)
    replayed = [
        (entry["seq"], float(entry.get("at", 0.0) or 0.0), 0.0, entry["topic"], entry)
        for entry in plane.recorder.entries
    ]
    assert _rows(spans_of(replayed)) == _rows(plane.observer.spans)


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_inspect_ends_cancelled_attempts_with_their_node(seed):
    """``repro inspect`` reads the attempts the spans read: none is left
    in flight under a finished workflow, and the ones the engine cancelled
    end, ``cancelled``, when their node resolves."""
    plane = ObservedHost(seed)
    plane.run_batch(INSTANCES)
    entries = plane.recorder.entries
    timelines = build_timelines(entries)
    assert len(timelines) == INSTANCES
    assert all(tl.status == "done" for tl in timelines.values())
    attempts = [(tl, a) for tl in timelines.values() for a in tl.attempts]
    assert not [a for _tl, a in attempts if a.outcome == "in-flight"]
    cancelled = [(tl, a) for tl, a in attempts if a.outcome == "cancelled"]
    assert len(cancelled) == CANCELLED[seed]
    resolved = {
        (entry["workflow_id"], entry["node"]): entry["at"]
        for entry in entries
        if entry["topic"] in ("engine.node_completed", "engine.node_cancelled")
    }
    assert all(
        a.ended_at == resolved[tl.workflow_id, a.activity] for tl, a in cancelled
    )
