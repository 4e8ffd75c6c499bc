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
The keys of a host, of ``config`` and of a behaviour are the fields of the
class it builds (:class:`~repro.grid.resource.ResourceSpec`,
:class:`~repro.grid.simgrid.GridConfig`, the behaviour's class), each read
by the field's declared type; a key left out takes the default its class
declares, so the classes state every default once.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Any, Callable

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

#: Behaviour type → the class a behaviour of that type builds.
_BEHAVIORS: dict[str, type[TaskBehavior]] = {
    "fixed": FixedDurationTask,
    "checkpointing": CheckpointingTask,
    "exception_prone": ExceptionProneTask,
    "crashing": CrashingTask,
    "flaky": FlakyTask,
}


def _as_given(value: Any) -> Any:
    return value


def _optional_int(value: Any) -> int | None:
    return None if value is None else int(value)


#: How a JSON value becomes a field of each declared type; a field of any
#: other type (``Any``) takes the value as given.
_READERS: dict[str, Callable[[Any], Any]] = {
    "str": str,
    "float": float,
    "int": int,
    "bool": bool,
    "int | None": _optional_int,
    "frozenset[str]": frozenset,
}


def _given(cls: type, spec: dict[str, Any]) -> dict[str, Any]:
    """The keyword arguments for dataclass *cls* that *spec* gives: each
    field *spec* names, taken out of it and read by its declared type.  A
    field left out takes *cls*'s own default; a required one raises
    :class:`KeyError` naming it."""
    given = {}
    for field in fields(cls):
        if field.name in spec:
            read = _READERS.get(field.type, _as_given)
            given[field.name] = read(spec.pop(field.name))
        elif field.default is MISSING and field.default_factory is MISSING:
            raise KeyError(field.name)
    return given


def _no_unknown_keys(rest: dict[str, Any], where: str) -> None:
    """*rest* is what is left of a spec once every known key was taken."""
    if rest:
        raise GridError(f"{where}: unknown key {sorted(rest)[0]!r}")


def behavior_from_spec(spec: dict[str, Any]) -> TaskBehavior:
    """Instantiate a task behaviour from its JSON description."""
    spec = dict(spec)
    kind = spec.pop("type", None)
    cls = _BEHAVIORS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise GridError(
            f"unknown behavior type {kind!r} (expected fixed/checkpointing/"
            "exception_prone/crashing/flaky)"
        )
    try:
        behavior = cls(**_given(cls, spec))
    except KeyError as exc:
        raise GridError(
            f"behavior type {kind!r} is missing required field {exc}"
        ) from exc
    except (TypeError, ValueError) as exc:
        raise GridError(f"invalid behavior spec for type {kind!r}: {exc}") from exc
    _no_unknown_keys(spec, f"behavior type {kind!r}")
    return behavior


def _host_from_spec(spec: dict[str, Any]) -> ResourceSpec:
    spec = dict(spec)
    hostname = spec.get("hostname")
    if not hostname:
        raise GridError("host spec requires a hostname")
    reliable = spec.pop("reliable", False)
    if "mttf" in spec and spec["mttf"] is None:
        del spec["mttf"]  # as if left out: a host that never fails
    if reliable and "mttf" in spec:
        raise GridError(f"host {hostname!r}: reliable and mttf are exclusive")
    try:
        host = ResourceSpec(**_given(ResourceSpec, spec))
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
        config = GridConfig(**_given(GridConfig, config_data))
    except (TypeError, ValueError) as exc:
        raise GridError(f"invalid grid config: {exc}") from exc
    _no_unknown_keys(config_data, "grid config")
    given: dict[str, Any] = {"config": config}
    if "seed" in data:
        given["seed"] = int(data.pop("seed"))
    hosts = data.pop("hosts", [])
    softwares = data.pop("software", [])
    _no_unknown_keys(data, "gridspec")
    if not hosts:
        raise GridError("gridspec defines no hosts")
    grid = SimulatedGrid(**given)
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
