"""Engine checkpointing — fault tolerance of the workflow engine itself.

Section 7: "every time a task termination state is recognized, the engine
saves the current XML parse tree onto a persistent storage in a XML file
form.  So, when being restarted, the engine creates a parse tree from the
saved XML file rather than from the original XML file and begins navigation
from where it left off."

One checkpoint file bundles the static specification (serialised back to
WPDL, so the checkpoint is self-contained even if the original file
changed) and the runtime instance state (node statuses, edge states,
variables, per-activity recovery state) as JSON::

    <EngineCheckpoint workflow="..." saved_at="...">
      <Specification>   <!-- a full WPDL <Workflow> element -->
      <InstanceState>   <!-- JSON text -->
    </EngineCheckpoint>

Writes are atomic (tmp + rename), so an engine crash mid-save leaves the
previous checkpoint intact.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Any

from ..errors import CheckpointError, ParseError
from ..wpdl.model import Workflow
from ..wpdl.parser import parse_wpdl
from ..wpdl.serializer import workflow_to_element
from .instance import NodeStatus, WorkflowInstance

__all__ = ["EngineCheckpointer", "load_checkpoint"]


class EngineCheckpointer:
    """Persists engine state after every task termination."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        #: Number of checkpoints written (tests assert the paper's
        #: once-per-task-termination cadence).
        self.saves = 0

    def save(
        self,
        instance: WorkflowInstance,
        recovery_snapshots: dict[str, dict[str, Any]],
        *,
        saved_at: float = 0.0,
        workflow_id: str = "",
    ) -> None:
        """Write the checkpoint file atomically."""
        state = instance.snapshot()
        for name, snap in recovery_snapshots.items():
            if name in state["nodes"]:
                state["nodes"][name]["recovery_state"] = snap
        attrs = {"workflow": instance.spec.name, "saved_at": repr(saved_at)}
        if workflow_id:
            # Diagnostic provenance for multiplexed runs; readers that
            # predate multiplexing simply ignore the extra attribute.
            attrs["workflow_id"] = workflow_id
        root = ET.Element("EngineCheckpoint", attrs)
        spec_elem = ET.SubElement(root, "Specification")
        spec_elem.append(workflow_to_element(instance.spec))
        state_elem = ET.SubElement(root, "InstanceState")
        try:
            state_elem.text = json.dumps(state, sort_keys=True)
        except TypeError as exc:
            raise CheckpointError(
                f"instance state is not JSON-serialisable: {exc}"
            ) from exc
        payload = ET.tostring(root, encoding="unicode")
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(payload)
            tmp.replace(self.path)
        except OSError as exc:
            raise CheckpointError(f"cannot write checkpoint: {exc}") from exc
        self.saves += 1

    def exists(self) -> bool:
        return self.path.exists()

    def remove(self) -> None:
        """Delete the checkpoint (after successful workflow completion)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass


def load_checkpoint(path: str | Path) -> tuple[Workflow, WorkflowInstance]:
    """Load a checkpoint file; returns (spec, instance-ready-to-resume).

    Nodes recorded as RUNNING when the engine died are reset to PENDING —
    their Grid jobs died with the engine's GRAM connections — but keep
    their ``recovery_state`` so retry budgets already spent stay spent.
    Their fired incoming edges make the navigator re-launch them
    immediately.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
    if root.tag != "EngineCheckpoint":
        raise CheckpointError(
            f"{path} is not an engine checkpoint (root <{root.tag}>)"
        )
    spec_holder = root.find("Specification")
    state_holder = root.find("InstanceState")
    if spec_holder is None or state_holder is None or len(spec_holder) != 1:
        raise CheckpointError(f"checkpoint {path} is structurally incomplete")
    try:
        spec = parse_wpdl(ET.tostring(spec_holder[0], encoding="unicode"))
    except ParseError as exc:
        raise CheckpointError(
            f"checkpoint {path} contains an invalid specification: {exc}"
        ) from exc
    try:
        state = json.loads(state_holder.text or "")
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"checkpoint {path} contains corrupt instance state: {exc}"
        ) from exc
    try:
        instance = WorkflowInstance.restore(spec, state)
    except (KeyError, AttributeError, TypeError, ValueError) as exc:
        # Well-formed JSON of the wrong shape: a missing key, a list where
        # a mapping belongs, a status no enum has.
        raise CheckpointError(
            f"checkpoint {path} contains malformed instance state: {exc!r}"
        ) from exc
    for node in instance.nodes.values():
        if node.status is NodeStatus.RUNNING:
            node.status = NodeStatus.PENDING
    return spec, instance
