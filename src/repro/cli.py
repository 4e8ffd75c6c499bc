"""Command-line interface to the Grid-WFS engine.

Mirrors the paper's standalone engine ("reads a workflow process
specification from a file as specified in its input argument"), against a
declarative simulated Grid:

.. code-block:: console

    $ python -m repro.cli validate workflow.xml
    $ python -m repro.cli run workflow.xml --grid grid.json \\
          --checkpoint engine.ckpt.xml
    $ python -m repro.cli run specs/*.xml --grid grid.json --instances 10
    $ python -m repro.cli resume engine.ckpt.xml --grid grid.json
    $ python -m repro.cli mc --technique all --mttf 20 --runs 2000 \\
          --engine --jobs 4
    $ python -m repro.cli mc --mttf 10,20,50,100 --target-ci 0.02 --crn
    $ python -m repro.cli mc --mttf 20 \\
          --technique replication+checkpointing,retry+backoff
    $ python -m repro.cli mc --mttf 20 --runs 100000 --cache
    $ python -m repro.cli cache info
    $ python -m repro.cli cache clear

One command per job: ``validate`` lists every grammar and graph problem of
a specification, all from one reading of the file; ``run`` takes one
or more specifications, and anything beyond one instance of one file runs
concurrently on one shared :class:`~repro.engine.host.EngineHost`.  ``mc``
estimates expected completion times by Monte-Carlo — with the vectorised
standalone samplers (default) or the full engine stack per sample
(``--engine``), over ``--jobs`` worker processes with deterministic seed
sharding (see :mod:`repro.sim.parallel`).  Its ``--mttf`` is a
comma-separated grid whose technique × MTTF cells are one
:func:`~repro.sim.estimate_cells` call; two or more points also report
where the curves cross, and ``--csv`` writes :func:`~repro.sim.to_csv`.
``--cache`` opts in to the content-addressed sample cache
(:mod:`repro.sim.cache`), which ``cache info`` / ``cache clear`` manage.

Observability (:mod:`repro.obs`): ``run``/``resume`` accept ``--metrics
out.prom`` (Prometheus text exposition of the run's counters and
histograms) and ``--trace out.json`` (Chrome ``trace_event``
JSON — loadable in chrome://tracing or Perfetto; a ``.jsonl`` suffix
writes the raw JSON-lines event/span/metrics stream instead).  ``mc
--stats`` prints per-technique attempt histograms and the disk cache's hit
rate next to the completion-time estimates.

The live telemetry plane rides on the same flags: ``--serve-telemetry
PORT`` stands up an HTTP server exposing ``/metrics`` (scrape-able
mid-run), ``/healthz``, ``/health``, ``/alerts``, ``/timeseries``,
``/workflows`` and ``/workflows/<id>``, backed by the statistical layer
(:mod:`repro.obs.timeseries` ring-buffer store on a
``--telemetry-interval`` cadence, :mod:`repro.obs.estimators` online
MTTF/drift estimators, :mod:`repro.obs.health` alert rules); ``--pace
FACTOR`` slows the simulation to FACTOR wall seconds per virtual second
so there is something live to scrape; ``top`` renders the live terminal
dashboard against any such endpoint; ``--flight-record journal.jsonl``
journals every bus event, and ``inspect journal.jsonl`` reconstructs the
causally-linked post-mortem timeline (attempt ledger, detector verdicts,
recovery decisions, checkpoint restarts) from it:

.. code-block:: console

    $ python -m repro.cli run specs/*.xml --grid grid.json \\
          --instances 10 --serve-telemetry 9100 --pace 0.01 \\
          --flight-record journal.jsonl
    $ python -m repro.cli top 127.0.0.1:9100        # live dashboard
    $ curl -s localhost:9100/workflows/wf-3
    $ python -m repro.cli inspect journal.jsonl --workflow wf-3

Exit status: 0 on success, 1 on workflow failure, 2 on usage/spec errors.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
import time
from typing import Sequence

from .engine.checkpoint import EngineCheckpointer
from .engine.engine import WorkflowEngine, WorkflowResult
from .report import run_report
from .errors import GridWFSError
from .gridspec import load_gridspec
from .wpdl.parser import _file_text, _read, parse_wpdl_file
from .wpdl.validator import validation_problems

__all__ = ["main"]


def _print_result(result: WorkflowResult) -> None:
    print(f"workflow {result.workflow!r}: {result.status}")
    print(f"completion time: {result.completion_time:.3f} virtual seconds")
    for name, status in result.node_statuses.items():
        tries = result.tries.get(name)
        suffix = f"  (tries: {tries})" if tries else ""
        print(f"  {name:24s} {status}{suffix}")
    if result.failed_tasks:
        print(f"failed tasks: {', '.join(result.failed_tasks)}")


def cmd_validate(args: argparse.Namespace) -> int:
    # One reading: the grammar's problems are listed with the graph's, not raised.
    workflow, problems, unread = _read(_file_text(args.workflow))
    problems += validation_problems(workflow, unread=unread)
    if problems:
        print(f"workflow {workflow.name!r} is INVALID:")
        for problem in problems:
            print(f"  - {problem}")
        return 2
    print(
        f"workflow {workflow.name!r} is valid: "
        f"{len(workflow.nodes)} nodes, {len(workflow.transitions)} transitions, "
        f"{len(workflow.programs)} programs"
    )
    return 0


def _make_tracer(args: argparse.Namespace):
    """A causal tracer when any telemetry consumer is present; an
    uninstrumented run carries ``tracer=None`` and stamps nothing."""
    if args.serve_telemetry is None and not (
        args.metrics or args.trace or args.flight_record
    ):
        return None
    from .obs import Tracer

    return Tracer()


@contextlib.contextmanager
def _telemetry(args: argparse.Namespace, runtime, grid):
    """The run's telemetry rig for the duration of the ``with`` block: the
    :class:`repro.obs.TelemetryPlane` the flags ask for (``--metrics``/
    ``--trace`` the observer, ``--flight-record`` the journal,
    ``--serve-telemetry`` the statistical layer, which brings the
    observer) plus the HTTP server of that plane.  Yields the plane; an
    uninstrumented run gets one with every part ``None``."""
    from .obs import TelemetryPlane

    serving = args.serve_telemetry is not None
    bus, reactor = runtime.bus, runtime.reactor
    plane = TelemetryPlane(
        bus,
        reactor,
        grid,
        runtime.detector,
        observe=bool(args.metrics or args.trace),
        flight_record=args.flight_record or False,
        interval=args.telemetry_interval if serving else None,
    )
    plane.start()
    server = None
    if serving:
        from .obs import TelemetryServer

        server = TelemetryServer(
            plane,
            port=args.serve_telemetry,
            # repro top derives event/progress rates from these levels.
            extra_health=lambda: {
                "sim_now": reactor.now(),
                "bus_publishes": bus.stats()["publishes"],
            },
        )
        server.start()
        print(
            f"telemetry: serving {server.url}/metrics, /healthz, /health, "
            f"/alerts, /timeseries, /workflows (watch with: repro.cli top "
            f"{server.url})"
        )
    try:
        yield plane
    finally:
        plane.stop()
        if plane.recorder is not None:
            plane.recorder.close()
            print(
                f"flight recording written to {args.flight_record} "
                f"({plane.recorder.stats()['spilled']} events; inspect "
                f"with: repro.cli inspect {args.flight_record})"
            )
        if server is not None:
            if args.telemetry_linger > 0:
                print(
                    f"telemetry: lingering {args.telemetry_linger:g}s at "
                    f"{server.url} before shutdown"
                )
                time.sleep(args.telemetry_linger)
            server.stop()


#: Longest wall sleep one virtual gap may cost under ``--pace`` (long
#: idle stretches of virtual time should not stall a live demo).
_PACE_MAX_SLEEP = 0.25


def _drive(args: argparse.Namespace, reactor, is_done) -> bool:
    """Pump *reactor* until ``is_done()`` holds or ``--timeout`` virtual
    seconds pass; returns whether it holds.  The reactor asks before every
    event; under ``--pace`` the predicate first sleeps the virtual time
    since it was last asked, scaled to wall seconds, so a live run can be
    scraped."""
    if args.pace > 0:
        done, last = is_done, reactor.now()

        def is_done() -> bool:
            nonlocal last
            now = reactor.now()
            if now > last:
                time.sleep(min((now - last) * args.pace, _PACE_MAX_SLEEP))
                last = now
            return done()

    return reactor.run_until_complete(is_done, timeout=args.timeout)


def _export_observation(args: argparse.Namespace, plane) -> None:
    from .obs import (
        atomic_write_text,
        prometheus_text,
        write_chrome_trace,
        write_jsonl,
    )

    observer = plane.observer
    plane.scrape(observer.metrics)
    if args.metrics:
        atomic_write_text(args.metrics, prometheus_text(observer.metrics))
        print(f"metrics written to {args.metrics}")
    if args.trace:
        # Events and spans are views of the log: a run longer than its ring
        # exports the newest part, and says so.
        held, published = plane.window()
        wrapped, header = "", None
        if held < published:
            wrapped = f" (log wrapped: newest {held} of {published} events)"
            header = {"log_wrapped": {"held": held, "published": published}}
        if str(args.trace).endswith(".jsonl"):
            count = write_jsonl(
                args.trace,
                events=observer.events,
                spans=observer.spans,
                metrics=observer.metrics,
                header=header,
            )
            print(f"trace written to {args.trace} ({count} JSON lines){wrapped}")
        else:
            count = write_chrome_trace(args.trace, observer.spans)
            print(
                f"trace written to {args.trace} "
                f"({count} events; open in chrome://tracing or Perfetto){wrapped}"
            )


def cmd_run(args: argparse.Namespace) -> int:
    workflows = [parse_wpdl_file(path) for path in args.workflow]
    grid = load_gridspec(args.grid)
    if len(workflows) > 1 or args.instances > 1:
        if args.checkpoint:
            raise GridWFSError(
                "--checkpoint is per-instance state and is not supported "
                "with more than one instance"
            )
        return _run_multiplexed(args, grid, workflows)
    engine = WorkflowEngine(
        workflows[0],
        grid,
        reactor=grid.reactor,
        checkpointer=EngineCheckpointer(args.checkpoint) if args.checkpoint else None,
        heartbeat_timeout=args.heartbeat_timeout,
        tracer=_make_tracer(args),
    )
    return _run_single(args, grid, engine)


def _run_single(args: argparse.Namespace, grid, engine: WorkflowEngine) -> int:
    """Shared ``run``/``resume`` body: telemetry rig, drive, report,
    export, teardown."""
    with _telemetry(args, engine.runtime, grid) as plane:
        engine.start()
        done = _drive(args, engine.runtime.reactor, lambda: engine.finished)
        result = engine.result
        if not done or result is None:
            raise GridWFSError(
                f"workflow {engine.workflow.name!r} did not terminate "
                f"(timeout={args.timeout}, node statuses: "
                f"{engine.instance.status_counts()})"
            )
        if args.report:
            print(run_report(engine.instance))
        else:
            _print_result(result)
        if plane.observer is not None:
            _export_observation(args, plane)
    return 0 if result.succeeded else 1


def _run_multiplexed(args: argparse.Namespace, grid, workflows) -> int:
    """``--instances`` copies of every specification, run concurrently on
    one shared runtime."""
    from .engine.host import EngineHost

    host = EngineHost(
        grid,
        reactor=grid.reactor,
        heartbeat_timeout=args.heartbeat_timeout,
        tracer=_make_tracer(args),
    )
    with _telemetry(args, host.runtime, grid) as plane:
        ids = host.submit_many([wf for wf in workflows for _ in range(args.instances)])
        # Asked before every event: look at one unfinished engine, not all.
        unfinished = [host.engine(wfid) for wfid in reversed(ids)]
        # The host drops an engine when it finishes: keep those reported on.
        reported = {wfid: host.engine(wfid) for wfid in ids} if args.report else {}

        def all_finished() -> bool:
            while unfinished and unfinished[-1].finished:
                unfinished.pop()
            return not unfinished

        if not _drive(args, host.runtime.reactor, all_finished):
            raise GridWFSError(
                f"{len(host.pending)} of {len(ids)} instances did not "
                f"terminate (timeout={args.timeout}, pending: "
                f"{host.pending[:10]})"
            )
        results = host.results()
        for wfid, result in results.items():
            if args.report:
                print(f"== {wfid} ==")
                print(run_report(reported[wfid].instance))
            else:
                print(
                    f"{wfid:8s} {result.workflow!r}: {result.status} "
                    f"(completion time: {result.completion_time:.3f} "
                    "virtual seconds)"
                )
        succeeded = sum(1 for r in results.values() if r.succeeded)
        print(f"{succeeded}/{len(results)} instance(s) succeeded")
        if plane.observer is not None:
            _export_observation(args, plane)
    return 0 if succeeded == len(results) else 1


def cmd_resume(args: argparse.Namespace) -> int:
    grid = load_gridspec(args.grid)
    engine = WorkflowEngine.resume(
        args.checkpoint,
        grid,
        reactor=grid.reactor,
        heartbeat_timeout=args.heartbeat_timeout,
        tracer=_make_tracer(args),
    )
    return _run_single(args, grid, engine)


def cmd_inspect(args: argparse.Namespace) -> int:
    """Post-mortem of a flight recording: the causally-linked per-workflow
    attempt ledger, recovery decisions, and checkpoint restarts."""
    from .obs import build_timelines, load_recording, render_report

    try:
        entries = load_recording(args.recording)
    except (OSError, ValueError) as exc:
        raise GridWFSError(f"cannot read recording: {exc}") from exc
    timelines = build_timelines(entries)
    if args.workflow is not None and args.workflow not in timelines:
        known = ", ".join(sorted(timelines)) or "(none)"
        print(
            f"error: no workflow {args.workflow!r} in {args.recording}; "
            f"found: {known}",
            file=sys.stderr,
        )
        return 2
    if args.json:
        import json
        from dataclasses import asdict

        selected = (
            {args.workflow: timelines[args.workflow]}
            if args.workflow is not None
            else timelines
        )
        print(
            json.dumps(
                {wfid: asdict(tl) for wfid, tl in sorted(selected.items())},
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    if not timelines:
        print(f"no workflow events in {args.recording} ({len(entries)} entries)")
        return 0
    print(f"recording: {args.recording} ({len(entries)} journal entries)")
    print()
    print(render_report(timelines, workflow_id=args.workflow))
    return 0


#: Spelling variants accepted by ``mc --technique`` (combined techniques
#: may be written with ``+``, mirroring how policies compose).
_TECHNIQUE_ALIASES = {
    "retry": "retrying",
    "checkpoint": "checkpointing",
    "replication+checkpointing": "replication_checkpointing",
    "checkpointing+replication": "replication_checkpointing",
    "retry+backoff": "backoff_retry",
    "retrying+backoff": "backoff_retry",
    "backoff": "backoff_retry",
}


def _mc_techniques(value: str) -> list[str]:
    """Resolve ``--technique`` to canonical names.

    Accepts ``all`` (the paper's four), ``extended`` (plus backoff
    retrying), canonical names, ``+``-combined aliases, and
    comma-separated lists of any of those.
    """
    from .errors import SimulationError
    from .sim import EXTENDED_TECHNIQUES, TECHNIQUES

    if value == "all":
        return list(TECHNIQUES)
    if value == "extended":
        return list(EXTENDED_TECHNIQUES)
    techniques: list[str] = []
    for name in value.split(","):
        name = name.strip()
        canonical = _TECHNIQUE_ALIASES.get(name, name)
        if canonical not in EXTENDED_TECHNIQUES:
            known = ("all", "extended") + EXTENDED_TECHNIQUES
            known += tuple(sorted(_TECHNIQUE_ALIASES))
            raise SimulationError(
                f"unknown technique {name!r}; expected one of {known}"
            )
        if canonical not in techniques:
            techniques.append(canonical)
    return techniques


def _mc_variance_reduction(args: argparse.Namespace) -> str | None:
    """Resolve ``--antithetic``/``--crn`` to a variance_reduction mode."""
    from .errors import SimulationError

    if args.antithetic and args.crn:
        raise SimulationError("--antithetic and --crn are mutually exclusive")
    return "antithetic" if args.antithetic else "crn" if args.crn else None


def _mc_ci_target(args: argparse.Namespace):
    """Build the :class:`CITarget` for ``--target-ci`` (None when unset) —
    the one place a bare number becomes a CI target.

    The ceiling is ``--max-runs``, else ``--runs``; the floor is
    ``--min-runs``, else ``min(1000, ceiling)``.  A floor above the
    ceiling is a usage error, never a silently raised ceiling.
    """
    if args.target_ci is None:
        return None
    from .errors import SimulationError
    from .sim import CITarget

    max_runs = args.max_runs if args.max_runs is not None else args.runs
    min_runs = args.min_runs
    if min_runs is None:
        min_runs = max(2, min(1_000, max_runs))
    elif min_runs > max_runs:
        ceiling = "--max-runs" if args.max_runs is not None else "--runs"
        raise SimulationError(
            f"--min-runs ({min_runs}) exceeds the adaptive ceiling "
            f"{ceiling} ({max_runs})"
        )
    return CITarget(rel=args.target_ci, min_runs=min_runs, max_runs=max_runs)


def cmd_top(args: argparse.Namespace) -> int:
    """Live terminal dashboard over a ``--serve-telemetry`` endpoint."""
    from .obs import run_top

    url = args.url
    if "://" not in url:
        url = f"http://{url}"
    return run_top(
        url,
        interval=args.interval,
        once=args.once,
        as_json=args.json,
        color=not args.no_color,
        frames=args.frames,
        retry_for=args.retry_for,
    )


def _number(value: str) -> float:
    """A float flag's value: any number, ``inf`` included, but not NaN,
    which is refused at the flag that gave it."""
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if math.isnan(number):
        raise argparse.ArgumentTypeError(f"expected a number, got {value!r}")
    return number


def _mttf_grid(value: str) -> list[float]:
    """``--mttf``: one MTTF or a comma-separated grid of them."""
    try:
        return [_number(x) for x in value.split(",")]
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {value!r}"
        ) from None


def cmd_mc(args: argparse.Namespace) -> int:
    import json

    from .sim import (
        TECHNIQUE_LABELS,
        SampleCache,
        Series,
        SimulationParams,
        crossover,
        estimate_cells,
        to_csv,
    )

    techniques = _mc_techniques(args.technique)
    variance_reduction = _mc_variance_reduction(args)
    target = _mc_ci_target(args)
    mttfs = args.mttf
    params = SimulationParams(
        downtime=args.downtime,
        retry_interval=args.retry_interval,
        backoff_factor=args.backoff,
        max_retry_interval=args.max_interval if args.max_interval > 0 else None,
        runs=args.runs,
        seed=args.seed,
    )
    registry = None
    if args.stats:
        from .obs import MetricsRegistry

        registry = MetricsRegistry()
    adaptive = target is not None or variance_reduction is not None
    keys = [(t, mttf) for t in techniques for mttf in mttfs]
    estimates = estimate_cells(
        [(t, params.with_mttf(mttf)) for t, mttf in keys],
        runs=args.runs,
        target=target,
        variance_reduction=variance_reduction,
        engine=args.engine,
        jobs=args.jobs,
        cache=SampleCache() if args.cache else None,
        metrics=registry,
    )
    cells = dict(zip(keys, estimates))
    series = {
        t: Series.of(
            TECHNIQUE_LABELS.get(t, t),
            mttfs,
            [cells[(t, mttf)].summary for mttf in mttfs],
        )
        for t in techniques
    }
    if args.csv:
        print(to_csv("mttf", list(series.values())))
        return 0
    rows = [
        {
            "technique": technique,
            "mttf": mttf,
            "mode": "engine" if args.engine else "sampler",
            "runs": cell.summary.n,
            "mean": cell.summary.mean,
            "ci99_halfwidth": cell.summary.ci_halfwidth,
            "rel_ci": cell.summary.rel_halfwidth,
            "ess": cell.summary.ess,
            "converged": cell.converged,
            "p50": cell.summary.p50,
            "p95": cell.summary.p95,
        }
        for (technique, mttf), cell in cells.items()
    ]
    if args.json:
        payload = rows
        if registry is not None:
            payload = {"rows": rows, "metrics": registry.snapshot()}
        print(json.dumps(payload, indent=2))
        return 0
    mode = "engine-level" if args.engine else "standalone sampler"
    budget = (
        f"target_ci={args.target_ci:g} (≤{target.max_runs} runs)"
        if target is not None
        else f"runs={args.runs}"
    )
    if variance_reduction is not None:
        budget += f", {variance_reduction}"
    print(
        f"E[T] via {mode} Monte-Carlo "
        f"(F={params.failure_free_time:g}, "
        f"MTTF={','.join(f'{mttf:g}' for mttf in mttfs)}, "
        f"D={params.downtime:g}, {budget}, "
        f"jobs={'auto' if args.jobs is None else args.jobs})"
    )
    for row in rows:
        detail = f"(p50={row['p50']:.2f}, p95={row['p95']:.2f}"
        if adaptive:
            detail += f", n={row['runs']}"
            if row["ess"] > row["runs"]:
                detail += f", eff.n={row['ess']:.0f}"
            if not row["converged"]:
                detail += ", budget exhausted"
        detail += ")"
        point = f"MTTF={row['mttf']:<6g} " if len(mttfs) > 1 else ""
        print(
            f"  {row['technique']:28s} {point}"
            f"{row['mean']:10.3f} ± {row['ci99_halfwidth']:.3f}  "
            f"{detail}"
        )
    for i, a in enumerate(techniques):
        for b in techniques[i + 1 :]:
            x = crossover(series[a], series[b])
            if x is not None:
                print(f"crossover: {a} drops below {b} at MTTF ≈ {x:.2f}")
    if registry is not None:
        _print_mc_stats(registry, techniques, engine_mode=args.engine)
    return 0


def _rate(hits: float, misses: float) -> str:
    total = hits + misses
    if not total:
        return "n/a (0 lookups)"
    return f"{hits / total:.0%} ({hits:g}/{total:g})"


def _print_mc_stats(registry, techniques, *, engine_mode: bool) -> None:
    """Render ``mc --stats``: per-technique attempt histograms plus the
    disk cache's hit rate, from the merged metrics registry."""
    print()
    print("run statistics:")
    if not engine_mode:
        print(
            "  (attempt histograms need --engine; the vectorised samplers "
            "do not run the recovery stack)"
        )
    for technique in techniques:
        hist = registry.get_histogram("mc_attempts", technique=technique)
        if hist is None or not hist.count:
            continue
        mean = hist.sum / hist.count
        print(
            f"  {technique:28s} attempts/run: mean={mean:.2f} "
            f"p50<={hist.quantile(0.5):g} p95<={hist.quantile(0.95):g}"
        )
        bounds = list(hist.bounds)
        parts = [
            f"<={bounds[i]:g}:{n}" if i < len(bounds) else f">{bounds[-1]:g}:{n}"
            for i, n in enumerate(hist.counts)
            if n
        ]
        print(f"  {'':28s} histogram {' '.join(parts)}")

    def across_techniques(name: str) -> float:
        return sum(
            series.value
            for family in registry.families()
            if family.name == name
            for series in family.series.values()
        )

    print(
        "  disk sample cache:   "
        + _rate(
            across_techniques("mc_disk_cache_hits_total"),
            across_techniques("mc_disk_cache_misses_total"),
        )
    )


def cmd_cache(args: argparse.Namespace) -> int:
    from .sim import SampleCache

    cache = SampleCache()
    if args.action == "info":
        for key, value in cache.info().items():
            label = "cache root" if key == "root" else key.replace("_", " ")
            print(f"{label + ':':18s}{value}")
    else:
        removed = cache.clear()
        print(f"removed {removed} cached sample vector(s) from {cache.root}")
    return 0


def _positive_int(value: str) -> int:
    if not value.isdigit() or int(value) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value!r}")
    return int(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli", description="Grid-WFS workflow engine"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="lint and validate a WPDL file")
    p_validate.add_argument("workflow")
    p_validate.set_defaults(fn=cmd_validate)

    def add_run_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--grid", required=True, help="gridspec JSON file")
        p.add_argument(
            "--timeout",
            type=_number,
            default=None,
            help="virtual-seconds budget (default: unlimited)",
        )
        p.add_argument(
            "--heartbeat-timeout",
            type=_number,
            default=None,
            help="enable heartbeat-based crash suspicion with this timeout",
        )
        p.add_argument(
            "--report",
            action="store_true",
            help="print the full node table and ASCII Gantt timeline",
        )
        p.add_argument(
            "--metrics",
            default=None,
            metavar="PATH",
            help="write run metrics (Prometheus text exposition) to PATH",
        )
        p.add_argument(
            "--trace",
            default=None,
            metavar="PATH",
            help="write the run trace to PATH: Chrome trace_event JSON "
            "(open in chrome://tracing or Perfetto), or raw JSON-lines "
            "when PATH ends in .jsonl",
        )
        p.add_argument(
            "--serve-telemetry",
            type=int,
            default=None,
            metavar="PORT",
            help="serve live telemetry over HTTP on PORT (0 = ephemeral): "
            "GET /metrics (Prometheus text), /healthz, /workflows, "
            "/workflows/<id>",
        )
        p.add_argument(
            "--telemetry-interval",
            type=_number,
            default=5.0,
            metavar="SECS",
            help="virtual-seconds cadence of the statistical collector: "
            "time-series samples, estimator exports, health-rule "
            "evaluation (default: 5)",
        )
        p.add_argument(
            "--telemetry-linger",
            type=_number,
            default=0.0,
            metavar="SECS",
            help="keep the telemetry server up SECS wall seconds after the "
            "run completes (default: 0)",
        )
        p.add_argument(
            "--pace",
            type=_number,
            default=0.0,
            metavar="FACTOR",
            help="slow the simulation to FACTOR wall seconds per virtual "
            "second so live telemetry can be scraped mid-run "
            "(default: 0 = as fast as possible)",
        )
        p.add_argument(
            "--flight-record",
            default=None,
            metavar="PATH",
            help="journal every bus event to PATH as JSON lines (the "
            "flight recorder); read it back with 'inspect'",
        )

    p_run = sub.add_parser("run", help="execute workflows on a simulated grid")
    p_run.add_argument("workflow", nargs="+")
    add_run_options(p_run)
    p_run.add_argument(
        "--checkpoint",
        default=None,
        help="engine checkpoint file (written after every task termination)",
    )
    p_run.add_argument(
        "--instances",
        type=_positive_int,
        default=1,
        help="run N concurrent instances of each workflow on one shared "
        "runtime (multiplexed engine; incompatible with --checkpoint)",
    )
    p_run.set_defaults(fn=cmd_run)

    p_resume = sub.add_parser(
        "resume", help="resume a workflow from an engine checkpoint"
    )
    p_resume.add_argument("checkpoint")
    add_run_options(p_resume)
    p_resume.set_defaults(fn=cmd_resume)

    p_inspect = sub.add_parser(
        "inspect",
        help="reconstruct a post-mortem timeline from a flight recording",
    )
    p_inspect.add_argument(
        "recording", help="journal written by --flight-record"
    )
    p_inspect.add_argument(
        "--workflow",
        default=None,
        metavar="ID",
        help="show one workflow instance only (e.g. wf-3)",
    )
    p_inspect.add_argument(
        "--json", action="store_true", help="machine-readable timelines"
    )
    p_inspect.set_defaults(fn=cmd_inspect)

    p_top = sub.add_parser(
        "top",
        help="live terminal dashboard over a --serve-telemetry endpoint",
    )
    p_top.add_argument(
        "url",
        help="telemetry server, e.g. 127.0.0.1:9100 or http://host:9100",
    )
    p_top.add_argument(
        "--interval",
        type=_number,
        default=1.0,
        metavar="SECS",
        help="wall seconds between redraws (default: 1)",
    )
    p_top.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (CI-friendly; no screen clear)",
    )
    p_top.add_argument(
        "--json",
        action="store_true",
        help="print raw frame dicts instead of the rendered dashboard",
    )
    p_top.add_argument(
        "--frames",
        type=int,
        default=None,
        metavar="N",
        help="stop after N redraws (default: until interrupted)",
    )
    p_top.add_argument(
        "--no-color", action="store_true", help="disable ANSI colors"
    )
    p_top.add_argument(
        "--retry-for",
        type=_number,
        default=20.0,
        metavar="SECS",
        help="keep retrying connection errors for SECS before giving up "
        "(the server may still be binding; default: 20)",
    )
    p_top.set_defaults(fn=cmd_top)

    p_mc = sub.add_parser(
        "mc", help="Monte-Carlo expected-completion-time estimation"
    )
    p_mc.add_argument(
        "--technique",
        default="all",
        help="failure-handling technique(s): 'all' (the paper's four), "
        "'extended' (plus backoff retrying), a canonical name, a "
        "'+'-combined alias such as 'replication+checkpointing' or "
        "'retry+backoff', or a comma-separated list (default: all)",
    )
    p_mc.add_argument(
        "--mttf",
        type=_mttf_grid,
        default="20",
        help="mean time to failure, or a comma-separated grid of them "
        "(default: 20)",
    )
    p_mc.add_argument("--downtime", type=_number, default=0.0, help="mean downtime D")
    p_mc.add_argument(
        "--retry-interval",
        type=_number,
        default=1.0,
        help="base wait before a backoff_retry resubmission",
    )
    p_mc.add_argument(
        "--backoff",
        type=_number,
        default=2.0,
        help="multiplier applied to the backoff_retry wait per retry",
    )
    p_mc.add_argument(
        "--max-interval",
        type=_number,
        default=8.0,
        help="cap on the grown backoff_retry wait (0 = uncapped)",
    )
    p_mc.add_argument(
        "--runs", type=int, default=1000, help="Monte-Carlo runs per technique"
    )
    p_mc.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (0 = all cores; default: $REPRO_JOBS, "
        "else 1; results are identical for any value)",
    )
    p_mc.add_argument(
        "--engine",
        action="store_true",
        help="run the full Grid-WFS engine per sample instead of the "
        "vectorised standalone sampler",
    )
    p_mc.add_argument("--seed", type=int, default=20030623, help="root RNG seed")
    p_mc.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="reuse/store sample vectors in the content-addressed cache "
        "($REPRO_CACHE_DIR, else ~/.cache/repro/mc); keys cover every "
        "sampling input, so hits are bit-identical to recomputation",
    )
    output = p_mc.add_mutually_exclusive_group()
    output.add_argument("--json", action="store_true", help="machine-readable output")
    output.add_argument("--csv", action="store_true", help="CSV: one row per MTTF")
    p_mc.add_argument(
        "--stats",
        action="store_true",
        help="collect and print run statistics: per-technique attempt "
        "histograms (with --engine) and the disk cache's hit rate",
    )

    p_mc.add_argument(
        "--target-ci",
        type=_number,
        default=None,
        metavar="REL",
        help="stop sampling once the 99%% CI half-width is within REL of "
        "the mean (adaptive geometric batches; --runs becomes the budget "
        "ceiling)",
    )
    p_mc.add_argument(
        "--min-runs",
        type=int,
        default=None,
        help="adaptive floor: never stop before this many runs (default: "
        "min(1000, the ceiling); above the ceiling is an error)",
    )
    p_mc.add_argument(
        "--max-runs",
        type=int,
        default=None,
        help="adaptive ceiling: never draw more than this many runs "
        "(default: --runs)",
    )
    p_mc.add_argument(
        "--antithetic",
        action="store_true",
        help="antithetic variance reduction: mirror every uniform draw "
        "(u, 1-u) through the inverse CDF; unbiased, with a pair-aware CI "
        "and an effective-sample-size report",
    )
    p_mc.add_argument(
        "--crn",
        action="store_true",
        help="common random numbers: all MTTF points of a technique replay "
        "one uniform pool, so curve differences and crossovers are "
        "estimated on positively correlated noise",
    )
    p_mc.set_defaults(fn=cmd_mc)

    p_cache = sub.add_parser(
        "cache", help="inspect or clear the Monte-Carlo sample cache"
    )
    p_cache.add_argument("action", choices=("info", "clear"))
    p_cache.set_defaults(fn=cmd_cache)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except GridWFSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via tests of main()
    sys.exit(main())
