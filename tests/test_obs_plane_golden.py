"""Every readable output of the telemetry plane, pinned by SHA-256.

A 20-instance faulty batch (see :mod:`tests.obs_plane`) runs on two seeds
with the whole plane attached.  ``BEFORE`` holds the digests recorded on
the commit *before* PR 15 touched anything; the bound-instrument /
lazy-record / flat-ring rewrite had to reproduce all seven of them.

The same PR then fixed the cancelled-attempt leak, which moves two outputs
and nothing else, so ``GOLDEN`` differs from ``BEFORE`` in these two entries:

* ``spans`` — ``task.attempt`` spans that stayed open for ever (56 of 334
  on seed 20030623, 51 of 393 on 19990803) now end when their node
  resolves, labelled ``outcome="cancelled"``.  Re-opening exactly those
  spans must give back the ``BEFORE`` digest;
* ``tracker`` — every finished workflow reports ``in_flight == 0`` (it was
  > 0 for 20 resp. 17 of 20) and counts those attempts under
  ``attempts["cancelled"]``.  With both keys left out, the snapshot must
  digest to what the parent's did (``TRACKER_OTHERWISE``).

PR 17 gave every job one re-armed timer instead of a timer per step, so a
job that ends early no longer cancels the steps it never reached: the
scraped ``sim_timers_cancelled`` reads 50 instead of 60 (45 instead of 85)
and ``sim_cancelled_timer_ratio`` follows.  That moves ``registry``,
``prometheus`` and ``store`` — and must move nothing else in them: with
the three timer-churn gauges (``TIMER_CHURN``) left out, each digests to
what the parent's did (``WITHOUT_TIMER_CHURN``, recorded on the parent
commit before any source changed).  ``sim_timers_scheduled`` and
``sim_events_processed`` stay inside that comparison.
"""

from __future__ import annotations

import pytest

from repro.obs.catalogue import metric_specs
from tests.obs_plane import ObservedHost, digest

INSTANCES = 20

BEFORE = {
    20030623: {
        "registry": "ce6a3a5645cfab709183f6cb1c2dcc0ee17e9ae2948c194b3608c8b82a4b1907",
        "prometheus": "cefbc854208e82ee2dd2a41ab4c3dd2db01bb5e0fc565049ebac9fc7800df8ce",
        "store": "712f3ecc4d1d11e70500427790d96f3efe53ee4f23f2b892cc5e62751043cdc2",
        "events": "49fdfffce8f577a913f04bd0a5fbfc7774337c7daaf805bc0111217ec722efa1",
        "spans": "b70503057a7487733be7ab15b16cb273aa1a948a0ab2d9e9b0814c98f328edcc",
        "recorder": "0eb1d2d8c16d637e78c881e9c5698db1717011577d9a95580cf319162b0d4f31",
        "tracker": "07c77f76c0b2a9662bb9897635c5f01fd201cd4e6669c0732347c60682e5f709",
    },
    19990803: {
        "registry": "b507b2746ffcb0d2bf079633320dd9bb9a0cc7b0fe96b4a63a741f665f1b3d15",
        "prometheus": "56b9460680fbff1521d88f2c2bf289c451c22798eda99922afd8954871f9a368",
        "store": "26544a5263ad60d4683982da1fdcc3c3488ea07aee9d908cc715fd4c063667b1",
        "events": "b4d4fa49fcc8a1c5e2ba43a386e1860f5f393254f34eeaba54e27b31d2828f70",
        "spans": "922cc0c5e40211f38e14b343af92734be5094a5209436c01e630286a52103368",
        "recorder": "33e2abdd07443e92a56fed6592e668141f3b7f4af1b687128231d01e6eedd932",
        "tracker": "5084168c1b74e8e24fea1961768c26c74561dcfb5d90e75c157eea2beab4f90d",
    },
}

GOLDEN = {
    20030623: {
        **BEFORE[20030623],
        "registry": "8659f17f5085d95fa3471afbdbf261e3f6bc8657e94328456f4231533edfb967",
        "prometheus": "6e7fb636c8e3753faa86154ca459ed0acd36983ff7f0080d0e10fbc5e03d37f4",
        "store": "2de0cdc6ff8b48126eed1268aa3bf34d519fce910a7ae36179d0c288192b1889",
        "spans": "950d6502ef42e37cd1c355b6568a6808ca3d352073b365e7889947f0635ab850",
        "tracker": "2ed436b2de63bf8bf47e6b7d6409d6c5ef7710db7f7a49c06e3b746454213f6e",
    },
    19990803: {
        **BEFORE[19990803],
        "registry": "e7587ec5c4fa12323ec7b2dec1209b3a6129fb034a424b9fabad82648892f7aa",
        "prometheus": "e27861bf938aeacb605608a5ccffa40f8c2b30de93accc6a00d842278ce15bb1",
        "store": "baa0b55a193042df42eff65dfc389c2bff308cae94e260049c6f845bf8fe68bd",
        "spans": "a773db07ffb5e714d88851d07600aaca0618c5db2ce8cf726d4c0cf7a6585879",
        "tracker": "a77760a87fe596df5f9dcc7be3767eb6466add7608a9859cf453f4d28be100a6",
    },
}

#: Cancelled attempts per seed, and the parent's tracker snapshot digested
#: without ``in_flight`` / ``cancelled``.
CANCELLED = {20030623: 56, 19990803: 51}
TRACKER_OTHERWISE = {
    20030623: "03f4669b09b1b259d27cb85559dbd8dae184a149f50b62558fb6bac2132c1461",
    19990803: "838969d94a5036bc4248c2996b118e99fc99fec677616f34be1a790764fb29cc",
}

#: The scraped gauges one-timer-per-job moves, the value the first now
#: ends at, and the parent's three metric outputs digested without them.
TIMER_CHURN = (
    "sim_timers_cancelled",
    "sim_timer_compactions",
    "sim_cancelled_timer_ratio",
)
TIMERS_CANCELLED = {20030623: 50.0, 19990803: 45.0}
WITHOUT_TIMER_CHURN = {
    20030623: {
        "registry": "77eb78eee1879d562da393c8865c10dc906c1953ebd7d06dfc2b24ca5ca47d25",
        "prometheus": "cdfe62c26fdb265eabfaad837fe52763b3eb58e74f3770b062a0ae0d4239f559",
        "store": "311e73c0f78dcce9b1ebe3c1b6520277955a3eef9353266e5226b8c41909caeb",
    },
    19990803: {
        "registry": "c49fb00f78efd98dc0e5e65f92929c14205f85521c0c828c52e4d7498fe490fe",
        "prometheus": "57ba18cd6a2a39f7a1218cb2f709f627532b0c243d3285b150f362382c3fa91b",
        "store": "051935a29706c392c203208209ea2ab2ce8243df26bebaedb4ac604a95b0fb2a",
    },
}


def _without_timer_churn(output):
    """A metric output (the exposition text, or a family-keyed snapshot)
    with the ``TIMER_CHURN`` families left out."""
    if isinstance(output, str):
        prefixes = tuple(
            prefix
            for family in TIMER_CHURN
            for prefix in (
                f"# HELP {family} ",
                f"# TYPE {family} ",
                f"{family} ",
                f"{family}{{",
            )
        )
        return "\n".join(
            line for line in output.split("\n") if not line.startswith(prefixes)
        )
    return {name: value for name, value in output.items() if name not in TIMER_CHURN}


def _reopened(spans: list) -> list:
    """The span stream with every cancelled attempt open again."""
    out = []
    for span_id, name, sim_start, sim_end, parent, labels in spans:
        if labels.get("outcome") == "cancelled":
            assert name == "task.attempt"
            labels = {k: v for k, v in labels.items() if k != "outcome"}
            sim_end = None
        out.append([span_id, name, sim_start, sim_end, parent, labels])
    return out


def _without_in_flight(tracker: list) -> list:
    return [
        {
            **status,
            "attempts": {
                key: value
                for key, value in status["attempts"].items()
                if key not in ("in_flight", "cancelled")
            },
        }
        for status in tracker
    ]


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_plane_outputs_match_the_golden(seed):
    plane = ObservedHost(seed)
    results = plane.run_batch(INSTANCES)
    assert len(results) == INSTANCES
    assert all(result.succeeded for result in results.values())
    outputs = plane.outputs()
    assert {name: digest(value) for name, value in outputs.items()} == GOLDEN[seed]
    # Everything the plane emitted is a declared (and so catalogued) family.
    assert set(outputs["registry"]) <= {spec.name for spec in metric_specs()}

    # The two outputs the cancelled-attempt fix moved differ from the
    # parent's in the closures alone.
    spans = outputs["spans"]
    cancelled = [s for s in spans if s[5].get("outcome") == "cancelled"]
    assert len(cancelled) == CANCELLED[seed]
    assert all(s[3] is not None for s in spans)
    assert digest(_reopened(spans)) == BEFORE[seed]["spans"]
    tracker = outputs["tracker"]
    assert all(status["attempts"]["in_flight"] == 0 for status in tracker)
    assert (
        sum(status["attempts"].get("cancelled", 0) for status in tracker)
        == CANCELLED[seed]
    )
    assert digest(_without_in_flight(tracker)) == TRACKER_OTHERWISE[seed]

    # The three outputs one-timer-per-job moved differ from the parent's
    # in the timer-churn gauges alone.
    (cancelled_series,) = outputs["registry"]["sim_timers_cancelled"]["series"]
    assert cancelled_series["value"] == TIMERS_CANCELLED[seed]
    assert {
        name: digest(_without_timer_churn(outputs[name]))
        for name in WITHOUT_TIMER_CHURN[seed]
    } == WITHOUT_TIMER_CHURN[seed]
