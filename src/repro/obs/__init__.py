"""Simulation-time-aware observability: metrics, spans, and exporters.

One subsystem, three layers:

* :mod:`repro.obs.metrics` — label-keyed counters / gauges / histograms
  with snapshot/merge for cross-process Monte-Carlo aggregation;
* :mod:`repro.obs.spans` — parent-linked spans stamped on both the
  simulation clock and the wall clock, rendered from the log when read;
* :mod:`repro.obs.export` — JSON-lines, Prometheus text exposition, and
  Chrome ``trace_event`` renderings of one recording;

plus :mod:`repro.obs.log`, the one log a bus is tapped by (everything else
is a view of it or a fold over it), and :mod:`repro.obs.observer`, which
turns its engine / detector / recovery events into the recording.  Off
means absent: an unobserved run holds no registry, recorder or observer.

The live telemetry plane builds on those:
:mod:`repro.obs.tracectx` (causal trace/span ids stamped through every
bus payload), :mod:`repro.obs.recorder` (the flight recorder journaling
every event), :mod:`repro.obs.postmortem` (``repro inspect`` timeline
reconstruction), :mod:`repro.obs.server` (the HTTP scrape/status
endpoint behind ``--serve-telemetry``), and :mod:`repro.obs.plane` (the
one assembly that attaches all of them to a runtime).
"""

from .dashboard import TopClient, render_frame, run_top
from .estimators import (
    DRIFT_MTTF,
    ActivityEstimator,
    EstimatorSuite,
    Ewma,
    HostEstimator,
    PageHinkley,
    priors_from_grid,
    wilson_interval,
)
from .export import (
    atomic_write_text,
    chrome_trace,
    jsonl_lines,
    prometheus_text,
    write_chrome_trace,
    write_jsonl,
)
from .log import AttachError, EventLog
from .health import (
    ALERT_FIRED,
    ALERT_RESOLVED,
    HealthEngine,
    HealthRule,
    default_rules,
)
from .metrics import (
    ATTEMPT_BUCKETS,
    DEFAULT_BUCKETS,
    BoundFamily,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricSpec,
    MetricsRegistry,
)
from .observer import (
    RecordedEvent,
    RunObserver,
    scrape_bus,
    scrape_detector,
    scrape_grid,
    scrape_kernel,
)
from .plane import TelemetryPlane
from .postmortem import (
    WorkflowTimeline,
    build_timelines,
    load_recording,
    render_report,
)
from .recorder import FlightRecorder
from .server import TelemetryServer, WorkflowStatusTracker
from .spans import Span
from .timeseries import (
    HistogramSeries,
    PeriodicCollector,
    Series,
    TimeSeriesStore,
)
from .tracectx import TraceContext, Tracer, stamp

__all__ = [
    "ALERT_FIRED",
    "ALERT_RESOLVED",
    "ATTEMPT_BUCKETS",
    "ActivityEstimator",
    "AttachError",
    "BoundFamily",
    "Counter",
    "DEFAULT_BUCKETS",
    "DRIFT_MTTF",
    "EstimatorSuite",
    "EventLog",
    "Ewma",
    "FlightRecorder",
    "Gauge",
    "HealthEngine",
    "HealthRule",
    "Histogram",
    "HistogramSeries",
    "HostEstimator",
    "MetricSpec",
    "MetricsError",
    "MetricsRegistry",
    "PageHinkley",
    "PeriodicCollector",
    "RecordedEvent",
    "RunObserver",
    "Series",
    "Span",
    "TelemetryPlane",
    "TelemetryServer",
    "TimeSeriesStore",
    "TopClient",
    "TraceContext",
    "Tracer",
    "WorkflowStatusTracker",
    "WorkflowTimeline",
    "atomic_write_text",
    "build_timelines",
    "chrome_trace",
    "default_rules",
    "jsonl_lines",
    "load_recording",
    "priors_from_grid",
    "prometheus_text",
    "render_frame",
    "render_report",
    "run_top",
    "scrape_bus",
    "scrape_detector",
    "scrape_grid",
    "scrape_kernel",
    "stamp",
    "wilson_interval",
    "write_chrome_trace",
    "write_jsonl",
]
