"""Live telemetry plane: a zero-dependency HTTP scrape/status server.

Serves the running stack's observability state over plain
:mod:`http.server` (stdlib only — the whole repo's rule), from a daemon
thread, while the reactor drives workflows on the main thread:

* ``GET /metrics``          — the live :class:`~repro.obs.metrics.MetricsRegistry`
  in Prometheus text exposition format (scrape-able mid-run);
* ``GET /healthz``          — liveness + a tiny run summary;
* ``GET /health``           — the full statistical health view: the rule
  engine's snapshot plus estimator state (when wired);
* ``GET /alerts``           — firing alerts and the fired/resolved history;
* ``GET /timeseries``       — series names held by the store;
* ``GET /timeseries/<name>``— every labelled ring of one series family;
* ``GET /workflows``        — JSON status of the running instances and the
  newest finished ones;
* ``GET /workflows/<id>``   — one instance in full: phase, in-flight
  nodes, attempt/verdict counts, last recovery action, causal trace id.

Every GET route answers HEAD with identical headers and no body; unknown
paths are JSON 404s and non-GET/HEAD methods JSON 405s (with ``Allow``),
both with ``application/json`` Content-Type — probing scrapers and load
balancers see consistent behaviour.

Status is maintained by :class:`WorkflowStatusTracker`, folded from the
bus's event log — not by poking engine internals from the server thread.
All mutation happens on the reactor thread, inside a fold; a read from the
HTTP thread folds nothing and copies the state the last fold left, under
the lock a fold holds, so it never sees a status half-updated.
"""

from __future__ import annotations

import json
import threading
from typing import TYPE_CHECKING, Any, Callable

from ..events import EventBus
from .export import prometheus_text
from .log import LogConsumer
from .metrics import MetricsRegistry

if TYPE_CHECKING:
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

__all__ = ["WorkflowStatusTracker", "TelemetryServer"]


#: Finished instances a tracker keeps a status for; the one that finished
#: longest ago goes when a newer one arrives (running ones always stay).
_FINISHED = 1024


class WorkflowStatusTracker(LogConsumer):
    """Keeps a live status per workflow instance — the running ones and
    the newest finished — folded from the bus's ``engine.*``, ``task.*``
    and ``recovery.*`` events (:class:`~repro.obs.log.Fold` reads the
    records; the methods below are what it does to a status).  A status is
    JSON-safe as read: the last recovery decision is kept as the
    ``(topic, payload)`` it was published as and rendered by
    :meth:`status_of`."""

    _slot = "tracker"

    def __init__(self, bus: EventBus | None = None) -> None:
        self._status: dict[str, dict[str, Any]] = {}
        #: The finished instances' ids, oldest finish first.
        self._finished: dict[str, None] = {}
        if bus is not None:
            self.attach_bus(bus)

    # -- the fold's side (reactor thread) ------------------------------------

    def _entry(self, wfid: str) -> dict[str, Any]:
        entry = self._status.get(wfid)
        if entry is None:
            entry = self._status[wfid] = {
                "workflow_id": wfid,
                "workflow": "",
                "phase": "running",
                "trace_id": "",
                "nodes_launched": 0,
                "nodes_completed": 0,
                "running_nodes": {},
                "attempts": {"total": 0, "in_flight": 0},
                "last_recovery": None,
                "finished_at": None,
            }
        return entry

    @staticmethod
    def _cancelled(entry: dict[str, Any], count: int) -> None:
        """Count the attempts a resolved node left running as cancelled."""
        attempts = entry["attempts"]
        attempts["cancelled"] = attempts.get("cancelled", 0) + count
        attempts["in_flight"] -= count

    def _finish(
        self, wfid: str, entry: dict[str, Any], payload: Any, cancelled: int
    ) -> None:
        """*payload* (an ``engine.workflow_finished`` one) ended the run."""
        entry["phase"] = payload.status
        entry["finished_at"] = float(payload.at)
        entry["running_nodes"] = {}
        if cancelled:
            self._cancelled(entry, cancelled)
        finished = self._finished
        finished.pop(wfid, None)
        finished[wfid] = None
        if len(finished) > _FINISHED:
            oldest = next(iter(finished))
            del finished[oldest], self._status[oldest]

    # -- reads (any thread) --------------------------------------------------

    def workflow_ids(self) -> list[str]:
        with self._synced():
            return sorted(self._status)

    def status_of(self, workflow_id: str) -> dict[str, Any] | None:
        with self._synced():
            entry = self._status.get(workflow_id)
            if entry is None:
                return None
            copy = dict(entry)
            copy["attempts"] = dict(entry["attempts"])
            copy["running_nodes"] = list(entry["running_nodes"])
            recovery = entry["last_recovery"]
            if recovery is not None:  # the (topic, payload) the fold kept
                action, payload = recovery
                copy["last_recovery"] = {
                    "action": action,
                    "activity": payload.activity,
                    "at": float(payload.at),
                    "span_id": payload.span_id or "",
                }
            return copy

    def snapshot(self) -> list[dict[str, Any]]:
        with self._synced():
            return [self.status_of(wfid) for wfid in sorted(self._status)]


class TelemetryServer:
    """Serves ``/metrics``, ``/healthz`` and ``/workflows`` from a thread.

    *registry* feeds ``/metrics``; *tracker* feeds the workflow routes;
    *store*, *health* and *estimators* (the statistical plane) feed
    ``/timeseries``, ``/health`` and ``/alerts``; *extra_health* (an
    optional callable returning a dict) is merged into ``/healthz`` for
    run-specific detail.  ``port=0`` binds an ephemeral port — read
    :attr:`port` after :meth:`start`.
    """

    def __init__(
        self,
        *,
        registry: MetricsRegistry | None = None,
        tracker: WorkflowStatusTracker | None = None,
        store: Any = None,
        health: Any = None,
        estimators: Any = None,
        host: str = "127.0.0.1",
        port: int = 0,
        extra_health: Callable[[], dict[str, Any]] | None = None,
    ) -> None:
        self.registry = registry
        self.tracker = tracker
        self.store = store
        self.health = health
        self.estimators = estimators
        self.host = host
        self.port = port
        self.extra_health = extra_health
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> int:
        """Bind and serve in a daemon thread; returns the bound port."""
        if self._httpd is not None:
            return self.port
        from http.server import ThreadingHTTPServer

        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer((self.host, self.port), handler)
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-telemetry",
            daemon=True,
        )
        self._thread.start()
        return self.port

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "TelemetryServer":
        self.start()
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.stop()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- route bodies (HTTP thread) ------------------------------------------

    def render_metrics(self) -> str:
        if self.registry is None:
            return ""
        # Held still for the whole walk: this is not the reactor's thread.
        with self.registry.synced():
            return prometheus_text(self.registry)

    def render_health(self) -> dict[str, Any]:
        health: dict[str, Any] = {"status": "ok"}
        if self.tracker is not None:
            statuses = self.tracker.snapshot()
            health["workflows"] = len(statuses)
            health["running"] = sum(
                1 for s in statuses if s["phase"] == "running"
            )
        if self.extra_health is not None:
            try:
                health.update(self.extra_health())
            except Exception as exc:  # health must never 500
                health["extra_error"] = repr(exc)
        return health

    def render_workflows(self) -> list[dict[str, Any]]:
        return self.tracker.snapshot() if self.tracker is not None else []

    def render_workflow(self, workflow_id: str) -> dict[str, Any] | None:
        if self.tracker is None:
            return None
        return self.tracker.status_of(workflow_id)

    def render_health_full(self) -> dict[str, Any]:
        """``/health``: rule engine snapshot + estimator state + the
        ``/healthz`` summary, in one statistical health view."""
        out = {"summary": self.render_health()}
        out["rules"] = (
            self.health.snapshot()
            if self.health is not None
            else {"status": "ok", "rules": []}
        )
        if self.estimators is not None:
            out["estimators"] = self.estimators.snapshot()
        return out

    def render_alerts(self) -> dict[str, Any]:
        if self.health is None:
            return {"firing": [], "history": []}
        return self.health.alerts()

    def render_timeseries_index(self) -> dict[str, Any]:
        if self.store is None:
            return {"series": []}
        return {"series": self.store.names()}

    def render_timeseries(self, name: str) -> dict[str, Any] | None:
        """Every labelled ring of one series family (value series and
        histogram tracks both), or None when the family is unknown."""
        return self.store.family(name) if self.store is not None else None


_ROUTES = [
    "/metrics",
    "/healthz",
    "/health",
    "/alerts",
    "/timeseries",
    "/timeseries/<name>",
    "/workflows",
    "/workflows/<id>",
]

_PROM_TYPE = "text/plain; version=0.0.4; charset=utf-8"
_JSON_TYPE = "application/json"


def _make_handler(server: TelemetryServer) -> type[BaseHTTPRequestHandler]:
    from http.server import BaseHTTPRequestHandler

    class Handler(BaseHTTPRequestHandler):
        # Telemetry must not spam the run's stderr with access logs.
        def log_message(self, *_args: Any) -> None:
            pass

        def _json(self, status: int, payload: Any) -> tuple[int, str, bytes]:
            body = json.dumps(payload, indent=1, sort_keys=True).encode()
            return status, _JSON_TYPE, body

        def _route(self) -> tuple[int, str, bytes]:
            """Resolve the request path to ``(status, content_type,
            body)`` — shared by GET and HEAD so the two always agree."""
            path = self.path.split("?", 1)[0].rstrip("/") or "/"
            if path == "/metrics":
                return 200, _PROM_TYPE, server.render_metrics().encode()
            if path == "/healthz":
                return self._json(200, server.render_health())
            if path == "/health":
                return self._json(200, server.render_health_full())
            if path == "/alerts":
                return self._json(200, server.render_alerts())
            if path == "/timeseries":
                return self._json(200, server.render_timeseries_index())
            if path.startswith("/timeseries/"):
                name = path[len("/timeseries/") :]
                payload = server.render_timeseries(name)
                if payload is None:
                    return self._json(
                        404,
                        {
                            "error": f"unknown series {name!r}",
                            "known": server.store.names()
                            if server.store is not None
                            else [],
                        },
                    )
                return self._json(200, payload)
            if path == "/workflows":
                return self._json(200, server.render_workflows())
            if path.startswith("/workflows/"):
                wfid = path[len("/workflows/") :]
                status = server.render_workflow(wfid)
                if status is None:
                    return self._json(
                        404,
                        {
                            "error": f"unknown workflow {wfid!r}",
                            "known": server.tracker.workflow_ids()
                            if server.tracker is not None
                            else [],
                        },
                    )
                return self._json(200, status)
            if path == "/":
                return self._json(200, {"routes": list(_ROUTES)})
            return self._json(404, {"error": f"no route {path!r}"})

        def _respond(self, *, head_only: bool) -> None:
            status, content_type, body = self._route()
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            if not head_only:
                self.wfile.write(body)

        def do_GET(self) -> None:  # noqa: N802 (http.server API)
            self._respond(head_only=False)

        def do_HEAD(self) -> None:  # noqa: N802 (http.server API)
            self._respond(head_only=True)

        def _method_not_allowed(self) -> None:
            status, content_type, body = self._json(
                405,
                {
                    "error": f"method {self.command} not allowed "
                    "(telemetry is read-only)",
                    "allow": ["GET", "HEAD"],
                },
            )
            self.send_response(status)
            self.send_header("Allow", "GET, HEAD")
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        do_POST = do_PUT = do_DELETE = do_PATCH = _method_not_allowed

    return Handler
