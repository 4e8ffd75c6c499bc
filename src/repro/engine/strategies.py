"""The slots a failure policy opens: the one task-level recovery decision
fixed per (program, policy) pair.  The coordinator reads the other two,
retry and checkpoint flag, off the policy when they are due.  The ledger's
layer self-test (``benchmarks/ledger/tests/test_ledger.py``) imports this
function from here; it joins :mod:`repro.engine.recovery` when that moves.
"""

from __future__ import annotations

from ..core.policy import FailurePolicy
from ..wpdl.model import Program

__all__ = ["resolve_strategy"]


def resolve_strategy(policy: FailurePolicy, program: Program) -> tuple[int, ...]:
    """Resource option each slot of *policy* starts on for *program*
    (Figure 3): every option of a replicated policy, else the first."""
    return tuple(range(len(program.options))) if policy.replicated else (0,)
