"""Label-keyed metrics: counters, gauges and histograms.

The registry is the quantitative half of :mod:`repro.obs` (spans are the
temporal half).  Instruments are keyed by ``(family name, sorted labels)``
so one call site can fan out per technique / task / host.  There is one
way to make an instrument: the code that emits a family declares it once,
as a module-level :class:`MetricSpec`, and resolves instruments through
the registry's bound family — one ``dict.get`` on the tuple of label
values; the label key is built only the first time a label set is seen::

    RETRIES = MetricSpec(
        "recovery_retries_total", "counter", "resubmissions", ("activity",)
    )
    retries = registry.family(RETRIES)      # once per registry
    retries.labels("FU").inc()              # per event

Every declaration is a row of the README's metric catalogue
(:mod:`repro.obs.catalogue`).

Design constraints, in order:

* **absent when off** — an uninstrumented run holds no registry at all
  (``metrics=None``), so its hot paths pay one ``is None`` check;
* **mergeable** — Monte-Carlo shards run in pool workers; each worker
  snapshots its local registry (:meth:`MetricsRegistry.snapshot`, a plain
  JSON-able dict) and the parent folds the snapshots back in
  (:meth:`MetricsRegistry.merge`).  Counters and histograms add, gauges
  keep the latest value;
* **export-agnostic** — the registry stores raw per-bucket counts; the
  Prometheus text / JSON-lines renderings live in :mod:`repro.obs.export`.

Histogram buckets are *upper bounds* of non-cumulative buckets plus an
implicit ``+Inf`` overflow; exporters cumulate on the way out, so
``sum(counts) == count`` always holds (property-tested).
"""

from __future__ import annotations

import bisect
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, ContextManager, Iterator, Mapping, Sequence

from ..errors import GridWFSError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricSpec",
    "BoundFamily",
    "MetricsRegistry",
    "MetricsError",
    "DEFAULT_BUCKETS",
    "ATTEMPT_BUCKETS",
]


class MetricsError(GridWFSError):
    """Inconsistent metric declaration (type or bucket mismatch)."""


#: Default histogram upper bounds: log-ish spread covering sub-second
#: overheads through multi-thousand-second simulated completion times.
DEFAULT_BUCKETS = (
    0.001, 0.01, 0.1, 1.0, 5.0, 10.0, 50.0, 100.0,
    500.0, 1000.0, 5000.0, 10000.0, 50000.0,
)

#: Bucket bounds for small integer counts (attempts, retries): one bucket
#: per low count, Fibonacci-ish above.
ATTEMPT_BUCKETS = (1.0, 2.0, 3.0, 4.0, 5.0, 8.0, 13.0, 21.0, 34.0, 55.0)


LabelItems = tuple[tuple[str, str], ...]


def _kind_mismatch(name: str, registered: str, asked: str) -> MetricsError:
    return MetricsError(f"metric {name!r} is a {registered}, not a {asked}")


def _label_key(labels: Mapping[str, Any]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricsError(f"counters only go up (amount={amount!r})")
        self.value += amount


class Gauge:
    """Point-in-time value (pool sizes, pending events, ratios)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Bucketed distribution with exact sum and count.

    ``counts[i]`` is the number of observations in ``(bounds[i-1],
    bounds[i]]``; ``counts[-1]`` is the ``+Inf`` overflow bucket.  The
    invariant ``sum(counts) == count`` is structural, not maintained.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        if list(bounds) != sorted(set(bounds)):
            raise MetricsError(f"bucket bounds must be sorted/unique: {bounds!r}")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper bound of the bucket
        holding the q-th observation); ``inf`` if it lands in overflow."""
        if not 0.0 <= q <= 1.0:
            raise MetricsError(f"quantile must be in [0, 1], got {q!r}")
        return _bucket_quantile(self.bounds, self.counts, self.count, q)


def _bucket_quantile(
    bounds: Sequence[float], counts: Sequence[int], count: int, q: float
) -> float:
    """Upper bound of the bucket holding the q-th of *count* observations
    (``counts`` has one overflow bucket past ``bounds``): ``inf`` if it
    lands in overflow, NaN when there is no observation."""
    if count <= 0:
        return float("nan")
    target = q * count
    seen = 0
    for i, n in enumerate(counts):
        seen += n
        if seen >= target and n:
            return bounds[i] if i < len(bounds) else float("inf")
    return float("inf")


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

#: :meth:`MetricsRegistry.synced` of a registry nothing is folded into.
_CURRENT = nullcontext()


class _Family:
    """All series of one metric name: kind, help text, bucket layout."""

    __slots__ = ("name", "kind", "help", "buckets", "series")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        buckets: tuple[float, ...] | None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.buckets = buckets
        self.series: dict[LabelItems, Counter | Gauge | Histogram] = {}


@dataclass(frozen=True, slots=True)
class MetricSpec:
    """Declaration of one metric family: what all of its series share.

    ``labels`` are the label *names*, in the order
    :meth:`BoundFamily.labels` takes their values — names the workflow
    *specification* knows (workflow, activity, host, outcome, status),
    never an instance id, so the number of series does not grow with the
    number of runs.  Declared at module level by the code that emits the
    family, which is also what the README's metric catalogue is generated
    from.
    """

    name: str
    kind: str
    help: str = ""
    labels: tuple[str, ...] = ()
    buckets: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise MetricsError(f"metric {self.name!r}: unknown kind {self.kind!r}")


class BoundFamily:
    """One registry's instruments of one :class:`MetricSpec`, looked up by
    the tuple of label values.

    Handed out by :meth:`MetricsRegistry.family` and good for the
    registry's lifetime: :meth:`MetricsRegistry.clear` empties the table
    in place, so a holder never resolves to an instrument the registry has
    dropped.
    """

    __slots__ = ("spec", "_registry", "_children", "_sorted")

    def __init__(self, registry: "MetricsRegistry", spec: MetricSpec) -> None:
        self.spec = spec
        self._registry = registry
        #: ``(name, position)`` per label, by name: the order a series key
        #: lists its labels in (:func:`_label_key`).
        self._sorted = sorted(
            (name, position) for position, name in enumerate(spec.labels)
        )
        #: Label values (all ``str``) -> instrument.  A lookup by values
        #: that are not strings misses here and resolves by their text,
        #: so ``1``, ``1.0`` and ``True`` can never share an entry.
        self._children: dict[tuple[str, ...], Any] = {}

    def labels(self, *values: Any):
        """The instrument for these label values (in ``spec.labels``
        order), created on first use."""
        try:
            child = self._children.get(values)
        except TypeError:  # an unhashable value: resolved by its text
            child = None
        if child is None:
            child = self._registry._resolve(self, values)
        return child


class MetricsRegistry:
    """Process-local table of labelled instruments."""

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        #: One bound family per declared (name, label names) ever asked
        #: for; holders keep theirs across a clear().
        self._bound: dict[tuple, BoundFamily] = {}

    # -- instrument lookup ---------------------------------------------------

    def family(self, spec: MetricSpec) -> BoundFamily:
        """The bound family of *spec* in this registry.  Binding registers
        nothing: a family appears in :meth:`families` when its first
        series does, so export order is first-use order however early a
        holder binds."""
        key = (spec.name, spec.labels)
        bound = self._bound.get(key)
        if bound is None:
            bound = self._bound[key] = BoundFamily(self, spec)
        elif bound.spec.kind != spec.kind:
            raise _kind_mismatch(spec.name, bound.spec.kind, spec.kind)
        return bound

    def _resolve(self, bound: BoundFamily, values: tuple[Any, ...]):
        """A label set *bound* has not seen as given: find or create its
        series and remember it under the values' text."""
        spec = bound.spec
        if len(values) != len(spec.labels):
            raise MetricsError(
                f"metric {spec.name!r} takes labels {spec.labels!r}, "
                f"got {len(values)} value(s)"
            )
        texts = tuple(map(str, values))
        instrument = bound._children.get(texts)
        if instrument is not None:
            return instrument
        family = self._families.get(spec.name)
        if family is None:
            family = _Family(spec.name, spec.kind, spec.help, spec.buckets)
            self._families[spec.name] = family
        elif family.kind != spec.kind:
            raise _kind_mismatch(spec.name, family.kind, spec.kind)
        # What _label_key would make of these labels, without the sort.
        key = tuple([(name, texts[position]) for name, position in bound._sorted])
        instrument = family.series.get(key)
        if instrument is None:
            if spec.kind == "histogram":
                instrument = Histogram(family.buckets or DEFAULT_BUCKETS)
            else:
                instrument = _KINDS[spec.kind]()
            family.series[key] = instrument
        bound._children[texts] = instrument
        return instrument

    # -- iteration / queries -------------------------------------------------

    def synced(self) -> ContextManager[Any]:
        """``with registry.synced():`` brackets one read (or batch of
        writes) of the table.  A no-op for a registry written directly; a
        :class:`~repro.obs.observer.RunObserver` replaces it on the one it
        folds its event log into: what was published since is taken in
        first, and no other thread folds inside the block.  The accessors
        below read through it."""
        return _CURRENT

    def families(self) -> Iterator[_Family]:
        """Families in registration order (export order)."""
        with self.synced():
            return iter(self._families.values())

    def _series(self, name: str, labels: Mapping[str, Any]):
        with self.synced():
            family = self._families.get(name)
            if family is None:
                return None
            return family.series.get(_label_key(labels))

    def value(self, name: str, **labels: Any) -> float | None:
        """Current value of one counter/gauge series, or None if absent."""
        instrument = self._series(name, labels)
        return None if instrument is None else instrument.value

    def get_histogram(self, name: str, **labels: Any) -> Histogram | None:
        instrument = self._series(name, labels)
        return instrument if isinstance(instrument, Histogram) else None

    # -- snapshots (cross-process aggregation) -------------------------------

    def snapshot(self) -> dict:
        """JSON-able dump of every family and series.

        The format is the wire contract between pool workers and the
        parent (:meth:`merge`) and the payload of the JSON-lines
        exporter's ``metrics`` record.
        """
        out: dict = {}
        for family in self.families():
            series = []
            for key, instrument in family.series.items():
                record: dict[str, Any] = {"labels": dict(key)}
                if isinstance(instrument, Histogram):
                    record["counts"] = list(instrument.counts)
                    record["sum"] = instrument.sum
                    record["count"] = instrument.count
                else:
                    record["value"] = instrument.value
                series.append(record)
            out[family.name] = {
                "kind": family.kind,
                "help": family.help,
                "buckets": list(family.buckets) if family.buckets else None,
                "series": series,
            }
        return out

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a :meth:`snapshot` from another registry (typically a pool
        worker) into this one: counters and histograms add, gauges take
        the snapshot's value."""
        for name, family_snap in snapshot.items():
            kind, text = family_snap["kind"], family_snap["help"]
            buckets = family_snap.get("buckets")
            buckets = tuple(buckets) if buckets else None
            for record in family_snap["series"]:
                labels = record["labels"]
                spec = MetricSpec(name, kind, text, tuple(labels), buckets)
                instrument = self.family(spec).labels(*labels.values())
                if kind == "counter":
                    instrument.inc(record["value"])
                elif kind == "gauge":
                    instrument.set(record["value"])
                else:
                    if len(instrument.counts) != len(record["counts"]):
                        raise MetricsError(
                            f"histogram {name!r} bucket layout mismatch on merge"
                        )
                    for i, n in enumerate(record["counts"]):
                        instrument.counts[i] += n
                    instrument.sum += record["sum"]
                    instrument.count += record["count"]

    def clear(self) -> None:
        """Drop every family and series (and what the bound families
        resolved: their holders keep them across a clear)."""
        for bound in self._bound.values():
            bound._children.clear()
        self._families.clear()
