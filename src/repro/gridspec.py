"""Declarative simulated-Grid descriptions (JSON) for the CLI.

The paper's engine is "a standalone application": it reads a workflow file
and talks to real Grid resources.  Our standalone engine instead needs a
description of the *simulated* Grid to run against; this module defines a
small JSON schema for it and builds a :class:`~repro.grid.SimulatedGrid`:

.. code-block:: json

    {
      "seed": 42,
      "config": {"crash_detection": "prompt", "heartbeats": true},
      "hosts": [
        {"hostname": "bolas.isi.edu", "mttf": 90.0, "mean_downtime": 10.0,
         "speed": 1.0, "disk_gb": 100, "memory_gb": 8, "tags": ["volunteer"]},
        {"hostname": "archive", "reliable": true}
      ],
      "software": [
        {"hostname": "*", "executable": "sum",
         "behavior": {"type": "fixed", "duration": 30.0, "result": 42}},
        {"hostname": "bolas.isi.edu", "executable": "sim",
         "behavior": {"type": "checkpointing", "duration": 120.0,
                      "checkpoints": 20, "overhead": 0.5, "recovery_time": 0.5}}
      ]
    }

Behaviour types map to :mod:`repro.grid.behaviors`:
``fixed``, ``checkpointing``, ``exception_prone``, ``crashing``, ``flaky``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

from .errors import GridError
from .grid.behaviors import (
    CheckpointingTask,
    CrashingTask,
    ExceptionProneTask,
    FixedDurationTask,
    FlakyTask,
    TaskBehavior,
)
from .grid.resource import ResourceSpec
from .grid.simgrid import GridConfig, SimulatedGrid

__all__ = ["load_gridspec", "build_grid", "behavior_from_spec"]


def _no_unknown_keys(rest: dict[str, Any], where: str) -> None:
    """*rest* is what is left of a spec once every known key was taken."""
    if rest:
        raise GridError(f"{where}: unknown key {sorted(rest)[0]!r}")


def behavior_from_spec(spec: dict[str, Any]) -> TaskBehavior:
    """Instantiate a task behaviour from its JSON description."""
    spec = dict(spec)
    kind = spec.pop("type", None)
    try:
        behavior = _behavior(kind, spec)
    except KeyError as exc:
        raise GridError(
            f"behavior type {kind!r} is missing required field {exc}"
        ) from exc
    except (TypeError, ValueError) as exc:
        raise GridError(f"invalid behavior spec for type {kind!r}: {exc}") from exc
    if behavior is None:
        raise GridError(
            f"unknown behavior type {kind!r} (expected fixed/checkpointing/"
            "exception_prone/crashing/flaky)"
        )
    _no_unknown_keys(spec, f"behavior type {kind!r}")
    return behavior


def _behavior(kind: Any, spec: dict[str, Any]) -> TaskBehavior | None:
    """The behaviour of type *kind*, taking its fields out of *spec*."""
    if kind == "fixed":
        return FixedDurationTask(
            duration=float(spec.pop("duration")),
            result=spec.pop("result", None),
        )
    if kind == "checkpointing":
        return CheckpointingTask(
            duration=float(spec.pop("duration")),
            checkpoints=int(spec.pop("checkpoints")),
            overhead=float(spec.pop("overhead", 0.5)),
            recovery_time=float(spec.pop("recovery_time", 0.5)),
            result=spec.pop("result", None),
        )
    if kind == "exception_prone":
        return ExceptionProneTask(
            duration=float(spec.pop("duration")),
            checks=int(spec.pop("checks")),
            probability=float(spec.pop("probability")),
            exception_name=str(spec.pop("exception_name", "disk_full")),
            checkpointable=bool(spec.pop("checkpointable", False)),
            result=spec.pop("result", None),
        )
    if kind == "crashing":
        crashes = spec.pop("crashes", 1)
        return CrashingTask(
            duration=float(spec.pop("duration")),
            crash_at=float(spec.pop("crash_at")),
            crashes=None if crashes is None else int(crashes),
            result=spec.pop("result", None),
        )
    if kind == "flaky":
        return FlakyTask(
            duration=float(spec.pop("duration")),
            crash_probability=float(spec.pop("crash_probability")),
            result=spec.pop("result", None),
        )
    return None


def _host_from_spec(spec: dict[str, Any]) -> ResourceSpec:
    spec = dict(spec)
    hostname = spec.pop("hostname", "")
    if not hostname:
        raise GridError("host spec requires a hostname")
    reliable = spec.pop("reliable", False)
    mttf = spec.pop("mttf", None)
    if reliable and mttf is not None:
        raise GridError(f"host {hostname!r}: reliable and mttf are exclusive")
    try:
        slots = spec.pop("slots", None)
        host = ResourceSpec(
            hostname=hostname,
            service=str(spec.pop("service", "jobmanager")),
            speed=float(spec.pop("speed", 1.0)),
            disk_gb=float(spec.pop("disk_gb", 100.0)),
            memory_gb=float(spec.pop("memory_gb", 8.0)),
            mttf=math.inf if reliable or mttf is None else float(mttf),
            mean_downtime=float(spec.pop("mean_downtime", 0.0)),
            heartbeat_period=float(spec.pop("heartbeat_period", 1.0)),
            slots=None if slots is None else int(slots),
            tags=frozenset(spec.pop("tags", [])),
        )
    except ValueError as exc:
        raise GridError(f"invalid host spec for {hostname!r}: {exc}") from exc
    _no_unknown_keys(spec, f"host {hostname!r}")
    return host


def build_grid(data: dict[str, Any]) -> SimulatedGrid:
    """Build a grid from a parsed gridspec dict.  A key the schema does not
    define is a :class:`GridError` naming it and where it sits: a misspelt
    ``mttf`` would otherwise build a reliable host."""
    data = dict(data)
    config_data = dict(data.pop("config", {}))
    try:
        config = GridConfig(
            crash_detection=config_data.pop("crash_detection", "prompt"),
            network_latency=float(config_data.pop("network_latency", 0.0)),
            network_jitter=float(config_data.pop("network_jitter", 0.0)),
            message_loss=float(config_data.pop("message_loss", 0.0)),
            heartbeats=bool(config_data.pop("heartbeats", True)),
        )
    except (TypeError, ValueError) as exc:
        raise GridError(f"invalid grid config: {exc}") from exc
    _no_unknown_keys(config_data, "grid config")
    seed = int(data.pop("seed", 20030623))
    hosts = data.pop("hosts", [])
    softwares = data.pop("software", [])
    _no_unknown_keys(data, "gridspec")
    if not hosts:
        raise GridError("gridspec defines no hosts")
    grid = SimulatedGrid(seed=seed, config=config)
    for host_spec in hosts:
        grid.add_host(_host_from_spec(host_spec))
    for software in softwares:
        software = dict(software)
        hostname = software.pop("hostname", "*")
        executable = software.pop("executable", "")
        if not executable:
            raise GridError("software entry requires an executable name")
        behavior = behavior_from_spec(software.pop("behavior", {}))
        _no_unknown_keys(software, f"software entry {executable!r}")
        if hostname == "*":
            grid.install_everywhere(executable, behavior)
        else:
            grid.install(hostname, executable, behavior)
    return grid


def load_gridspec(path: str | Path) -> SimulatedGrid:
    """Read a gridspec JSON file and build the simulated Grid."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise GridError(f"cannot read gridspec {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GridError(f"gridspec {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise GridError(f"gridspec {path} must be a JSON object")
    return build_grid(data)
