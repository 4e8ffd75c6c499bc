"""Single-strategy policy presets emulating Table 1's systems.

Each prior system supports exactly one recovery mechanism; inside Grid-WFS
that corresponds to pinning every activity to one
:class:`~repro.core.policy.FailurePolicy`.  The presets let the comparison
benchmark ask: *if your whole Grid ran Condor-G-style retry (or DOME-style
checkpointing, or Mentat-style replication) for every task, what completion
time would you see across environments — versus Grid-WFS picking the best
technique per environment?*  That adaptive-vs-fixed gap is the paper's
central quantitative claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sim.params import SimulationParams
from ..sim.samplers import TECHNIQUES, sample_technique
from .systems import TABLE1, BaselineSystem

__all__ = [
    "SystemPreset",
    "PRESETS",
    "adaptive_choice",
]


@dataclass(frozen=True)
class SystemPreset:
    """A prior system reduced to its single technique in our taxonomy."""

    system: BaselineSystem
    technique: str

    def sample(
        self, params: SimulationParams, *, runs: int | None = None
    ) -> np.ndarray:
        """Completion-time samples under this system's only strategy."""
        return sample_technique(self.technique, params, runs=runs)


def _build_presets() -> dict[str, SystemPreset]:
    presets: dict[str, SystemPreset] = {}
    for system in TABLE1:
        if system.emulation_technique is None:
            continue  # PVM / CoG Kits: recovery left to the application
        presets[system.name] = SystemPreset(
            system=system, technique=system.emulation_technique
        )
    return presets


#: System name → preset, for every Table-1 system with a built-in strategy.
PRESETS: dict[str, SystemPreset] = _build_presets()


def adaptive_choice(
    params: SimulationParams, *, runs: int | None = None
) -> tuple[str, float]:
    """The technique Grid-WFS would select for this environment, with its
    expected completion time — the per-environment minimum over all four
    techniques (the paper's conclusion: "employing an appropriate failure
    recovery technique among alternatives ... is critical")."""
    best_technique, best_mean = "", float("inf")
    for technique in TECHNIQUES:
        mean = float(sample_technique(technique, params, runs=runs).mean())
        if mean < best_mean:
            best_technique, best_mean = technique, mean
    return best_technique, best_mean
