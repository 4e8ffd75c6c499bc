"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised by the library derive from :class:`GridWFSError` so
callers can catch library failures with a single ``except`` clause while
letting genuine programming errors (``TypeError`` etc.) propagate.

The hierarchy mirrors the paper's subsystems: specification errors come from
the XML WPDL layer, engine errors from workflow navigation, grid errors from
the (simulated) execution substrate, and recovery errors from the failure
handling framework itself.
"""

from __future__ import annotations

__all__ = [
    "GridWFSError",
    "SpecificationError",
    "ValidationError",
    "ParseError",
    "EngineError",
    "NavigationError",
    "CheckpointError",
    "BrokerError",
    "NoResourceError",
    "GridError",
    "SubmissionError",
    "UnknownExecutableError",
    "DetectionError",
    "RecoveryError",
    "PolicyError",
    "CatalogError",
    "SimulationError",
]


class GridWFSError(Exception):
    """Base class for all errors raised by the Grid-WFS reproduction."""


# --------------------------------------------------------------------------
# WPDL / specification layer
# --------------------------------------------------------------------------


class SpecificationError(GridWFSError):
    """A workflow process definition is malformed or inconsistent."""


class ParseError(SpecificationError):
    """The XML WPDL document could not be parsed into a workflow model."""


class ValidationError(SpecificationError):
    """A structurally parsed workflow violates a semantic constraint.

    Examples: cyclic control flow outside a declared loop, a transition
    referencing an unknown activity, an activity implemented by an unknown
    program, or an OR-join with a single incoming flow.
    """


# --------------------------------------------------------------------------
# Engine layer
# --------------------------------------------------------------------------


class EngineError(GridWFSError):
    """Base class for workflow-engine failures."""


class NavigationError(EngineError):
    """The navigator reached an inconsistent instance-tree state."""


class CheckpointError(EngineError):
    """Saving or restoring an engine checkpoint failed."""


class BrokerError(EngineError):
    """Base class for resource-brokering failures."""


class NoResourceError(BrokerError):
    """No Grid resource satisfying the request could be located."""


# --------------------------------------------------------------------------
# Grid substrate
# --------------------------------------------------------------------------


class GridError(GridWFSError):
    """Base class for errors from the (simulated) Grid substrate."""


class SubmissionError(GridError):
    """A GRAM-style job submission was rejected."""


class UnknownExecutableError(SubmissionError):
    """The requested executable is not installed on the target host."""


# --------------------------------------------------------------------------
# Failure detection service
# --------------------------------------------------------------------------


class DetectionError(GridWFSError):
    """The generic failure detection service was misused."""


# --------------------------------------------------------------------------
# Failure handling framework
# --------------------------------------------------------------------------


class RecoveryError(GridWFSError):
    """Base class for recovery-coordination failures."""


class PolicyError(RecoveryError):
    """A failure handling policy is malformed (e.g. replica policy with a
    single resource option, or a negative retry interval)."""


# --------------------------------------------------------------------------
# Runtime services
# --------------------------------------------------------------------------


class CatalogError(GridWFSError):
    """A catalog lookup or registration failed."""


# --------------------------------------------------------------------------
# Evaluation simulator
# --------------------------------------------------------------------------


class SimulationError(GridWFSError):
    """The Monte-Carlo evaluation simulator was given invalid parameters."""
