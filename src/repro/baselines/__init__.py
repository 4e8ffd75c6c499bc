"""Table 1 systems registry and single-strategy emulation presets."""

from .presets import PRESETS, SystemPreset, adaptive_choice
from .systems import TABLE1, BaselineSystem, SystemClass, table1_rows

__all__ = [
    "PRESETS",
    "SystemPreset",
    "adaptive_choice",
    "TABLE1",
    "BaselineSystem",
    "SystemClass",
    "table1_rows",
]
