"""Outside-in span tracing for the ledger's traced runs.

Nothing under ``src/`` knows about this module.  The harness builds the
program's objects itself and, before the first event fires, replaces
attributes *on those instances* (``bus.publish``, ``kernel.schedule``,
``grid.submit`` …) with wrappers that record one span per call:
``[name, start, end, parent]``, kept in memory until the run ends.

A span's name is ``"<layer>|<operation>"``.  The layer of a callable the
program hands to the bus or the kernel (a subscriber, a timer callback)
is the module that defines it, so a heartbeat-monitor timer lands in
``detection`` and a retry timer in ``engine.recovery`` without either
module being edited.  A layer's **self time** is the sum over its spans
of ``duration − time covered by child spans``; the self times of all
layers plus the root span's own self time add up to the traced wall time
exactly, so nothing is double-counted.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator

__all__ = [
    "ROOT",
    "SpanTracer",
    "layer_of",
    "layer_of_module",
    "self_times",
    "span_counts",
    "instrument_bus",
    "instrument_kernel",
    "wrap_methods",
    "patched",
]

#: Name of the span the harness wraps around one traced repetition; its
#: self time is what no named layer accounts for.
ROOT = "harness|rep"

NAME, START, END, PARENT = 0, 1, 2, 3

#: Modules reported under another module's layer: strategies are the
#: recovery coordinator's policy half, and the reactor/timer-heap modules
#: are the kernel's scheduling half.
_LAYER_ALIASES = {
    "engine.strategies": "engine.recovery",
    "engine.checkpoint": "ckpt",
    "reactor": "grid.simkernel",
    "timerheap": "grid.simkernel",
    "execution": "grid.gram",
    "grid.simgrid": "grid.gram",
    "grid.behaviors": "grid.gram",
    "gridspec": "grid.gram",
}

#: Packages whose modules are reported as one layer.
_COLLAPSED_PACKAGES = ("detection", "ckpt", "wpdl")


def layer_of_module(module: str | None) -> str:
    """Ledger layer for a module name (``repro.grid.host`` → ``grid.host``);
    anything outside ``repro`` belongs to the harness."""
    if not module or not module.startswith("repro."):
        return "harness"
    name = module[len("repro.") :]
    name = _LAYER_ALIASES.get(name, name)
    head = name.split(".", 1)[0]
    return head if head in _COLLAPSED_PACKAGES else name


def layer_of(fn: Callable[..., Any]) -> str:
    """Layer owning callable *fn*: the module that defines the function
    (for bound methods the method's own module, so inherited handlers are
    attributed to the code that runs, not to the subclass)."""
    while isinstance(fn, functools.partial):
        fn = fn.func
    fn = getattr(fn, "__func__", fn)
    module = getattr(fn, "__module__", None)
    if module is None:
        module = type(fn).__module__
    return layer_of_module(module)


class _Traced:
    """``fn`` inside a span.  A slotted object rather than a closure: the
    kernel gets one wrapper per scheduled callback, and a closure over the
    tracer's columns would hand the collector ten tracked objects each."""

    __slots__ = ("_tracer", "_name", "_fn", "_on_result")

    def __init__(self, tracer: "SpanTracer", name: str, fn, on_result) -> None:
        self._tracer = tracer
        self._name = name
        self._fn = fn
        self._on_result = on_result

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        tracer = self._tracer
        names = tracer.names
        clock = tracer.clock
        parent = tracer.current
        index = tracer.current = len(names)
        names.append(self._name)
        tracer.parents.append(parent)
        tracer.ends.append(0.0)
        tracer.starts.append(clock())
        try:
            result = self._fn(*args, **kwargs)
        finally:
            tracer.ends[index] = clock()
            tracer.current = parent
        if self._on_result is not None:
            self._on_result(result)
        return result


class SpanTracer:
    """Records nested spans in memory; single-threaded by construction
    (the program under test runs on one reactor).

    Spans live in four parallel columns of strings, floats and ints —
    objects the garbage collector does not track — so a hundred thousand
    spans add no collector work to the program being timed.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.current = -1
        self.clock = clock
        self._layers: dict[Any, str] = {}

    def layer_of(self, fn: Callable[..., Any]) -> str:
        """:func:`layer_of`, remembered per code object — timer callbacks
        are mostly fresh lambdas over a handful of code objects."""
        target = getattr(fn, "__func__", fn)
        key = getattr(target, "__code__", None)
        if key is None:
            return layer_of(fn)
        layer = self._layers.get(key)
        if layer is None:
            layer = self._layers[key] = layer_of(fn)
        return layer

    def calibrate(self, calls: int = 20_000) -> tuple[float, float]:
        """Seconds one span adds to its own interval (*inner*) and to its
        parent's (*outer*), measured on a no-op; :func:`self_times` takes
        them back out.  Leaves the tracer empty."""

        def noop() -> None:
            pass

        clock = self.clock
        wrapped = self.wrap("calibration|noop", noop)
        self.clear()
        start = clock()
        for _ in range(calls):
            noop()
        direct = (clock() - start) / calls
        start = clock()
        for _ in range(calls):
            wrapped()
        total = (clock() - start) / calls
        inside = sum(e - s for s, e in zip(self.starts, self.ends)) / calls
        self.clear()
        inner = max(0.0, inside - direct)
        return inner, max(0.0, total - direct - inner)

    def __len__(self) -> int:
        return len(self.names)

    def clear(self) -> None:
        # In place: every wrapper holds references to these lists.
        for column in (self.names, self.starts, self.ends, self.parents):
            column.clear()
        self.current = -1

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        on_result: Callable[[Any], None] | None = None,
    ) -> Callable[..., Any]:
        """A callable that runs *fn* inside a span called *name*.
        *on_result* sees each return value (exact counts taken where the
        work happens)."""
        return _Traced(self, name, fn, on_result)

    def duration(self, index: int) -> float:
        return self.ends[index] - self.starts[index]

    def rows(self) -> list[list]:
        """``[name, start, end, parent]`` per span, in start order."""
        return [
            list(row) for row in zip(self.names, self.starts, self.ends, self.parents)
        ]


def self_times(
    spans: Iterable[list], inner: float = 0.0, outer: float = 0.0
) -> dict[str, float]:
    """Exclusive seconds per span name: each span's duration minus the
    durations of its direct children, summed by name.  *spans* are
    ``[name, start, end, parent]`` rows.

    *inner* and *outer* (from :meth:`SpanTracer.calibrate`) are the
    tracer's own cost per span; each span gives back *inner* and each
    parent *outer* per child, so a layer crossed by many short spans is
    not billed for the bookkeeping.
    """
    spans = list(spans)
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START] + outer
    out: dict[str, float] = defaultdict(float)
    for span, child_time in zip(spans, covered):
        out[span[NAME]] += (span[END] - span[START]) - child_time - inner
    return {name: max(0.0, value) for name, value in out.items()}


def span_counts(spans: Iterable[list]) -> dict[str, int]:
    out: dict[str, int] = defaultdict(int)
    for span in spans:
        out[span[NAME]] += 1
    return dict(out)


# -- instance instrumentation -------------------------------------------------


def wrap_methods(
    tracer: SpanTracer, obj: Any, layer: str, names: Iterable[str] | None = None
) -> list[str]:
    """Shadow *obj*'s public methods with traced instance attributes.

    *names* defaults to every public method the class defines.  Objects
    that cannot take instance attributes (``__slots__``) and names the
    class no longer has are skipped and returned, so a later refactor
    shows up as a missing seam instead of a crash.
    """
    if names is None:
        names = [
            name
            for name, value in vars(type(obj)).items()
            if not name.startswith("_") and callable(value)
            and not isinstance(value, (classmethod, staticmethod, type))
        ]
    missing = []
    for name in names:
        method = getattr(obj, name, None)
        if method is None:
            missing.append(f"{type(obj).__name__}.{name}")
            continue
        try:
            setattr(obj, name, tracer.wrap(f"{layer}|{name}", method))
        except AttributeError:
            missing.append(f"{type(obj).__name__}.{name}")
    return missing


def instrument_bus(tracer: SpanTracer, bus: Any, counts: dict[str, int]) -> None:
    """Trace an :class:`repro.events.EventBus` instance: ``publish`` becomes
    an ``events`` span whose self time is routing alone, because every
    handler later given to ``subscribe``/``add_tap`` runs in a span of its
    own layer.  Call before anything subscribes.

    *counts* receives ``handlers`` (handler invocations the bus reported)
    and one ``topic:<family.name>`` entry per publish.
    """
    publish = bus.publish
    subscribe = bus.subscribe
    add_tap = bus.add_tap
    remove_tap = bus.remove_tap
    taps: dict[Any, Any] = {}

    def count_delivered(delivered: int) -> None:
        counts["handlers"] = counts.get("handlers", 0) + delivered

    traced_publish = tracer.wrap("events|publish", publish, count_delivered)

    def counting_publish(topic: str, payload: Any = None) -> int:
        # ``task.done.wf-3`` → ``task.done``: scopes are per instance.
        family = ".".join(topic.split(".", 2)[:2])
        key = "topic:" + family
        counts[key] = counts.get(key, 0) + 1
        return traced_publish(topic, payload)

    def traced_subscribe(pattern: str, handler: Any) -> Any:
        return subscribe(
            pattern, tracer.wrap(f"{tracer.layer_of(handler)}|handler", handler)
        )

    def traced_add_tap(handler: Any) -> None:
        # The bus de-duplicates taps by equality; keep one wrapper each.
        if handler not in taps:
            taps[handler] = tracer.wrap(f"{tracer.layer_of(handler)}|tap", handler)
        add_tap(taps[handler])

    def traced_remove_tap(handler: Any) -> None:
        remove_tap(taps.pop(handler, handler))

    bus.publish = counting_publish
    bus.subscribe = traced_subscribe
    bus.add_tap = traced_add_tap
    bus.remove_tap = traced_remove_tap


def instrument_kernel(tracer: SpanTracer, kernel: Any, reactor: Any) -> None:
    """Trace a :class:`repro.grid.simkernel.SimKernel` and its reactor:
    the drain loop is a ``grid.simkernel`` span (heap pops and the
    completion predicate are its self time) and every callback runs in a
    span of the layer that defined it.  Scheduling itself gets no span —
    a heap push is cheaper than recording one — so pushes are billed to
    whoever schedules."""
    schedule = kernel.schedule
    names: dict[str, str] = {}

    def schedule_traced(delay: float, callback: Any) -> Any:
        layer = tracer.layer_of(callback)
        name = names.get(layer)
        if name is None:
            name = names[layer] = f"{layer}|timer"
        return schedule(delay, tracer.wrap(name, callback))

    kernel.schedule = schedule_traced
    wrap_methods(
        tracer,
        reactor,
        "grid.simkernel",
        ("run_until_complete", "run_until_idle"),
    )


@contextmanager
def patched(
    tracer: SpanTracer,
    targets: Iterable[tuple[Any, str, str]],
    on_result: dict[tuple[Any, str], Callable[[Any], None]] | None = None,
) -> Iterator[list[str]]:
    """Temporarily replace module-level functions ``(module, name, layer)``
    with traced versions, where their callers look them up; restores the
    originals on exit.  Yields the seams that no longer exist."""
    saved: list[tuple[Any, str, Any]] = []
    missing: list[str] = []
    hooks = on_result or {}
    try:
        for module, name, layer in targets:
            original = getattr(module, name, None)
            if original is None:
                missing.append(f"{module.__name__}.{name}")
                continue
            saved.append((module, name, original))
            setattr(
                module,
                name,
                tracer.wrap(
                    f"{layer}|{name}", original, hooks.get((module, name))
                ),
            )
        yield missing
    finally:
        for module, name, original in saved:
            setattr(module, name, original)
