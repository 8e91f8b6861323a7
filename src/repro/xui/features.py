"""The safepoint-mode switch (§4.4) for cycle-tier cores.

Mirrors what the paper's modified runtime does through the safepoint-mode
MSR, with the check that the core delivers through tracked interrupts.
"""

from __future__ import annotations

from repro.common.errors import ConfigError
from repro.cpu.core import Core
from repro.cpu.delivery import TrackedStrategy


def enable_safepoint_mode(core: Core) -> None:
    """Turn on safepoint mode (§4.4): interrupts are delivered only at
    safepoint-prefixed instructions.  Requires tracking."""
    if not isinstance(core.strategy, TrackedStrategy):
        raise ConfigError(
            "safepoint mode requires the tracked-interrupt strategy on core "
            f"{core.core_id} (got {core.strategy.name!r})"
        )
    core.uintr.safepoint_mode = True
