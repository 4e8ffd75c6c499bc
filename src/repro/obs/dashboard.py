"""``repro top`` — a live, curses-free terminal dashboard.

Polls a :class:`~repro.obs.server.TelemetryServer` over plain HTTP (the
same plumbing ``--serve-telemetry`` stands up, so it works against an
in-process run or a remote port alike) and redraws one plain-ANSI frame
per interval: per-workflow progress, event rates, estimator values vs.
catalog priors, and firing alerts.  ``--once`` renders a single frame
and exits (CI-friendly); ``--json`` emits the raw frame dict instead of
the rendering.

No curses, no termios — just ``ESC[H ESC[2J`` home-and-clear between
frames, so it works in dumb terminals, CI logs, and pipes.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any

__all__ = ["TopClient", "render_frame", "run_top"]

#: ANSI fragments (kept as data so ``color=False`` renders cleanly).
_CLEAR = "\x1b[H\x1b[2J"
_BOLD = "\x1b[1m"
_DIM = "\x1b[2m"
_RED = "\x1b[31m"
_YELLOW = "\x1b[33m"
_GREEN = "\x1b[32m"
_RESET = "\x1b[0m"


class TopClient:
    """Fetches one dashboard frame from a telemetry server.

    Successive :meth:`frame` calls compute wall-clock event/progress
    rates from the previous poll — the server only exposes levels.
    """

    def __init__(self, url: str, *, timeout: float = 5.0) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout
        self._last_poll: tuple[float, float, float] | None = None

    def _get(self, path: str) -> Any:
        with urllib.request.urlopen(
            self.url + path, timeout=self.timeout
        ) as response:
            return json.loads(response.read().decode())

    def frame(self) -> dict[str, Any]:
        """One poll of ``/healthz``, ``/health``, ``/alerts`` and
        ``/workflows``, folded into a JSON-safe frame dict."""
        healthz = self._get("/healthz")
        health = self._get("/health")
        alerts = self._get("/alerts")
        workflows = self._get("/workflows")

        now_wall = time.time()
        publishes = float(healthz.get("bus_publishes", 0.0) or 0.0)
        sim_now = float(healthz.get("sim_now", 0.0) or 0.0)
        rates: dict[str, float] = {}
        if self._last_poll is not None:
            last_wall, last_publishes, last_sim = self._last_poll
            span = now_wall - last_wall
            if span > 0:
                rates["events_per_sec"] = (publishes - last_publishes) / span
                rates["sim_seconds_per_sec"] = (sim_now - last_sim) / span
        self._last_poll = (now_wall, publishes, sim_now)

        return {
            "url": self.url,
            "healthz": healthz,
            "health": health,
            "alerts": alerts,
            "workflows": workflows,
            "rates": rates,
        }


def _phase_counts(workflows: list[dict[str, Any]]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for status in workflows:
        phase = str(status.get("phase", "?"))
        counts[phase] = counts.get(phase, 0) + 1
    return counts


def _paint(text: str, code: str, color: bool) -> str:
    return f"{code}{text}{_RESET}" if color else text


def _fmt(value: Any, width: int = 8) -> str:
    if value is None:
        return "-".rjust(width)
    if isinstance(value, float):
        return f"{value:.3g}".rjust(width)
    return str(value).rjust(width)


def render_frame(
    frame: dict[str, Any],
    *,
    color: bool = True,
    max_workflows: int = 20,
) -> str:
    """One frame dict → the plain-text dashboard."""
    lines: list[str] = []
    healthz = frame.get("healthz", {})
    health = frame.get("health", {})
    alerts = frame.get("alerts", {})
    workflows = frame.get("workflows", [])
    rates = frame.get("rates", {})

    status = str(health.get("rules", {}).get("status", "ok"))
    status_paint = _GREEN if status == "ok" else _RED
    header = (
        f"repro top — {frame.get('url', '')}  "
        f"status={_paint(status, status_paint, color)}  "
        f"sim_now={healthz.get('sim_now', '-')}  "
        f"instances={len(workflows)}"
    )
    lines.append(_paint(header, _BOLD, color))

    rate_bits = [f"bus_publishes={healthz.get('bus_publishes', '-')}"]
    if "events_per_sec" in rates:
        rate_bits.append(f"events/s={rates['events_per_sec']:.1f}")
    if "sim_seconds_per_sec" in rates:
        rate_bits.append(f"sim-s/wall-s={rates['sim_seconds_per_sec']:.2f}")
    lines.append("rates: " + "  ".join(rate_bits))

    firing = alerts.get("firing", [])
    if firing:
        lines.append(_paint(f"alerts firing ({len(firing)}):", _RED, color))
        for alert in firing:
            lines.append(
                f"  [{alert.get('severity', '?')}] {alert.get('rule', '?')} "
                f"value={alert.get('value')} threshold={alert.get('threshold')}"
            )
    else:
        lines.append(_paint("alerts: none firing", _DIM, color))

    counts = _phase_counts(workflows)
    phase_text = "  ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    lines.append("")
    lines.append(
        _paint(f"workflows ({len(workflows)}): {phase_text}", _BOLD, color)
    )
    lines.append(
        f"  {'id':10s} {'workflow':16s} {'phase':10s} "
        f"{'nodes':>9s} {'attempts':>8s} {'in-flight':>9s}  last recovery"
    )
    for status_entry in workflows[:max_workflows]:
        attempts = status_entry.get("attempts", {})
        recovery = status_entry.get("last_recovery") or {}
        recovery_text = (
            f"{recovery.get('action', '')} {recovery.get('activity', '')}".strip()
            or "-"
        )
        nodes = (
            f"{status_entry.get('nodes_completed', 0)}"
            f"/{status_entry.get('nodes_launched', 0)}"
        )
        lines.append(
            f"  {str(status_entry.get('workflow_id', '')):10s} "
            f"{str(status_entry.get('workflow', ''))[:16]:16s} "
            f"{str(status_entry.get('phase', '')):10s} "
            f"{nodes:>9s} {attempts.get('total', 0):>8d} "
            f"{attempts.get('in_flight', 0):>9d}  {recovery_text}"
        )
    if len(workflows) > max_workflows:
        lines.append(
            _paint(f"  … {len(workflows) - max_workflows} more", _DIM, color)
        )

    estimators = health.get("estimators")
    if estimators:
        hosts = estimators.get("hosts", [])
        if hosts:
            lines.append("")
            lines.append(_paint("hosts (observed vs catalog):", _BOLD, color))
            lines.append(
                f"  {'host':12s} {'failures':>8s} {'mttf_obs':>9s} "
                f"{'mttf_prior':>10s} {'downtime':>9s} {'hb-loss':>8s}  drift"
            )
            for host in hosts:
                drifted = bool(host.get("drifted"))
                drift_text = (
                    _paint("DRIFT", _RED, color)
                    if drifted
                    else _paint("ok", _DIM, color)
                )
                lines.append(
                    f"  {str(host.get('host', '')):12s} "
                    f"{host.get('failures', 0):>8d} "
                    f"{_fmt(host.get('mttf_observed'), 9)} "
                    f"{_fmt(host.get('mttf_prior'), 10)} "
                    f"{_fmt(host.get('downtime_observed'), 9)} "
                    f"{_fmt(host.get('heartbeat_loss_rate'), 8)}  {drift_text}"
                )
        activities = estimators.get("activities", [])
        noisy = [a for a in activities if a.get("failures", 0)]
        if noisy:
            lines.append("")
            lines.append(
                _paint("failing activities (Wilson 95% CI):", _BOLD, color)
            )
            for activity in noisy[:10]:
                lines.append(
                    f"  {str(activity.get('workflow', ''))[:16]:>16s} "
                    f"{str(activity.get('activity', '')):16s} "
                    f"p(fail)={activity.get('failure_probability', 0.0):.2f} "
                    f"[{activity.get('wilson_low', 0.0):.2f}, "
                    f"{activity.get('wilson_high', 1.0):.2f}] "
                    f"({activity.get('failures', 0)}/"
                    f"{activity.get('attempts', 0)})"
                )

    rules = health.get("rules", {}).get("rules", [])
    if rules:
        lines.append("")
        lines.append(_paint("health rules:", _BOLD, color))
        for rule in rules:
            state = str(rule.get("state", "ok"))
            paint = {
                "firing": _RED,
                "pending": _YELLOW,
            }.get(state, _DIM)
            lines.append(
                f"  {_paint(state.ljust(8), paint, color)} "
                f"{rule.get('name', '?'):32s} "
                f"value={_fmt(rule.get('value'))} "
                f"{rule.get('op', '')} {rule.get('threshold')}"
            )
    return "\n".join(lines) + "\n"


def run_top(
    url: str,
    *,
    interval: float = 1.0,
    once: bool = False,
    as_json: bool = False,
    color: bool = True,
    frames: int | None = None,
    out=None,
    retry_for: float = 20.0,
) -> int:
    """Drive the dashboard loop; returns a process exit status.

    ``once`` renders a single frame without clearing the screen;
    ``frames`` bounds the number of redraws (tests use it); connection
    errors are retried for *retry_for* seconds before giving up (the
    server may still be binding when ``repro top`` starts).
    """
    import sys

    out = out if out is not None else sys.stdout
    client = TopClient(url)
    rendered = 0
    deadline = time.time() + retry_for
    while True:
        try:
            frame = client.frame()
        except (urllib.error.URLError, OSError, json.JSONDecodeError) as exc:
            if once or time.time() >= deadline:
                print(f"error: cannot scrape {url}: {exc}", file=sys.stderr)
                return 2
            time.sleep(min(0.2, interval))
            continue
        deadline = time.time() + retry_for
        if as_json:
            text = json.dumps(frame, indent=1, sort_keys=True) + "\n"
        else:
            text = render_frame(frame, color=color)
        if not (once or as_json or rendered == 0):
            out.write(_CLEAR)
        out.write(text)
        out.flush()
        rendered += 1
        if once or (frames is not None and rendered >= frames):
            return 0
        time.sleep(interval)
