"""xUI features on a cycle-tier system: safepoint mode, KB timer arming,
device-interrupt forwarding."""

import pytest

from tests.conftest import COUNTER_ADDR, build_spin_receiver, build_count_to

from repro.common.errors import ConfigError
from repro.cpu.delivery import FlushStrategy, TrackedStrategy
from repro.cpu.multicore import MultiCoreSystem
from repro.xui import enable_safepoint_mode


class TestSafepointMode:
    def test_requires_tracking(self):
        system = MultiCoreSystem([build_spin_receiver()], [FlushStrategy()])
        with pytest.raises(ConfigError):
            enable_safepoint_mode(system.cores[0])

    def test_enable_disable(self):
        system = MultiCoreSystem([build_spin_receiver()], [TrackedStrategy()])
        core = system.cores[0]
        enable_safepoint_mode(core)
        assert core.uintr.safepoint_mode
        core.uintr.safepoint_mode = False
        assert not core.uintr.safepoint_mode


class TestTimerHelpers:
    """``enable_kb_timer`` (the kernel's kb_config_MSR write) followed by
    the user-level ``set_timer`` arm (§4.3)."""

    def test_arm_periodic_delivers(self):
        system = MultiCoreSystem([build_count_to(30_000)], [TrackedStrategy()])
        system.enable_kb_timer(0, vector=2)
        core = system.cores[0]
        core.uintr.kb_timer.arm_periodic(5000, now=core.cycle)
        system.run(2_000_000, until_halted=[0])
        assert core.stats.interrupts_delivered >= 3

    def test_arm_oneshot_delivers_once(self):
        system = MultiCoreSystem([build_count_to(30_000)], [TrackedStrategy()])
        system.enable_kb_timer(0, vector=2)
        system.cores[0].uintr.kb_timer.arm_oneshot(4000)
        system.run(2_000_000, until_halted=[0])
        assert system.cores[0].stats.interrupts_delivered == 1


class TestForwardingHelper:
    def test_device_interrupts_reach_handler(self):
        system = MultiCoreSystem([build_spin_receiver()], [TrackedStrategy()])
        system.enable_forwarding(0, vector=40, user_vector=3)
        for i in range(4):
            system.raise_device_interrupt(0, 40, delay=1000 + 1500 * i)
        system.run(20_000)
        core = system.cores[0]
        assert core.stats.interrupts_delivered == 4
        assert system.shared.read(COUNTER_ADDR) == 4
        assert system.apics[0].forwarded_fast == 4

    def test_forwarded_device_cheaper_than_uipi(self):
        """Forwarded interrupts skip notification processing (§4.5): no
        UPID reads appear in the trace."""
        system = MultiCoreSystem([build_spin_receiver()], [TrackedStrategy()], trace=True)
        system.enable_forwarding(0, vector=40, user_vector=3)
        system.raise_device_interrupt(0, 40, delay=500)
        system.run(10_000)
        assert system.cores[0].stats.interrupts_delivered == 1
        assert system.trace.first("notif_clear_on") is None  # no UPID path
        assert system.trace.first("delivery_done") is not None
