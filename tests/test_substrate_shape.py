"""The substrate's shape: failure detection is one object, and the simulated
grid states each setting once.

The failure detector keeps host liveness itself — it is the only
``repro.detection`` module that schedules anything, so the liveness sweep
has one home — and the GRAM service is built on its grid and reads the
grid's crash mode.  A gridspec builds each object from the keys it gives,
so a document of bare keys builds exactly what the classes' own defaults
make, and ``gridspec.py`` restates none of them."""

from __future__ import annotations

import ast
import inspect
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

import repro.detection
import repro.gridspec
from repro.detection import FailureDetector
from repro.errors import GridError
from repro.grid import (
    DEFAULT_SEED,
    CheckpointingTask,
    CrashingTask,
    ExceptionProneTask,
    FixedDurationTask,
    FlakyTask,
    GridConfig,
    ResourceSpec,
)
from repro.grid.gram import GramService
from repro.gridspec import build_grid

pytestmark = pytest.mark.contract

P = inspect.Parameter

#: Behaviour type → its class and the keys it cannot do without.
REQUIRED = {
    "fixed": (FixedDurationTask, {"duration": 3.0}),
    "checkpointing": (CheckpointingTask, {"duration": 3.0, "checkpoints": 2}),
    "exception_prone": (
        ExceptionProneTask,
        {"duration": 3.0, "checks": 2, "probability": 0.5},
    ),
    "crashing": (CrashingTask, {"duration": 3.0, "crash_at": 1.0}),
    "flaky": (FlakyTask, {"duration": 3.0, "crash_probability": 0.5}),
}


def _shape(cls: type) -> list[tuple[str, object, object]]:
    return [
        (name, p.kind, p.default)
        for name, p in inspect.signature(cls).parameters.items()
    ]


def test_the_detector_and_gram_signatures():
    assert _shape(FailureDetector) == [
        ("reactor", P.POSITIONAL_OR_KEYWORD, P.empty),
        ("bus", P.POSITIONAL_OR_KEYWORD, P.empty),
        ("heartbeat_timeout", P.KEYWORD_ONLY, None),
        ("batch_heartbeats", P.KEYWORD_ONLY, False),
    ]
    assert _shape(GramService) == [("grid", P.POSITIONAL_OR_KEYWORD, P.empty)]


def test_only_the_detector_schedules_in_detection():
    package = Path(repro.detection.__file__).parent
    assert not (package / "heartbeat.py").exists()
    scheduling = {"call_later", "call_soon", "schedule", "every"}
    schedulers = sorted(
        path.name
        for path in package.glob("*.py")
        if any(
            isinstance(node, ast.Attribute) and node.attr in scheduling
            for node in ast.walk(ast.parse(path.read_text()))
        )
    )
    assert schedulers == ["detector.py"]


def test_the_grid_refuses_an_unknown_crash_mode():
    with pytest.raises(GridError, match="crash_detection must be"):
        GridConfig(crash_detection="telepathy")


def test_a_gridspec_of_bare_keys_builds_the_classes_defaults():
    grid = build_grid(
        {
            "hosts": [{"hostname": "h"}],
            "software": [
                {"executable": kind, "behavior": {"type": kind, **keys}}
                for kind, (_, keys) in REQUIRED.items()
            ],
        }
    )
    assert grid.config == GridConfig()
    assert grid.gram.config is grid.config
    assert grid.seed == DEFAULT_SEED
    host = grid.host("h")
    assert host.spec == ResourceSpec(hostname="h")
    for kind, (cls, keys) in REQUIRED.items():
        assert host.resolve(kind) == cls(**keys)


def test_gridspec_restates_no_default_of_a_class_it_builds():
    built = (ResourceSpec, GridConfig, *(cls for cls, _ in REQUIRED.values()))
    defaulted = {"seed"} | {
        f.name
        for cls in built
        for f in fields(cls)
        if f.default is not MISSING or f.default_factory is not MISSING
    }
    source = ast.parse(Path(repro.gridspec.__file__).read_text())
    restated = sorted(
        node.args[0].value
        for node in ast.walk(source)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in {"pop", "get", "setdefault"}
        and len(node.args) == 2
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value in defaulted
    )
    assert restated == []
