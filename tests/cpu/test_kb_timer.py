"""The xUI kernel-bypass timer on the cycle tier (§4.3)."""

import pytest

from tests.conftest import COUNTER_ADDR

from repro.common.errors import ConfigError, ProtocolError
from repro.cpu import isa
from repro.cpu.delivery import TrackedStrategy
from repro.cpu.multicore import MultiCoreSystem
from repro.cpu.program import ProgramBuilder
from repro.cpu.uintr_state import KBTimerState


def timer_program(period, mode, iterations=30_000):
    builder = ProgramBuilder("timer")
    builder.emit(isa.movi(3, period))
    builder.emit(isa.movi(4, mode))
    builder.emit(isa.set_timer(3, 4))
    builder.emit(isa.movi(1, 0))
    builder.emit(isa.movi(2, iterations))
    builder.label("loop")
    builder.emit(isa.addi(1, 1, 1))
    builder.emit(isa.blt(1, 2, "loop"))
    builder.emit(isa.halt())
    builder.emit_default_handler(counter_addr=COUNTER_ADDR)
    return builder.build()


class TestPeriodicTimer:
    def test_fires_each_period(self):
        system = MultiCoreSystem([timer_program(5000, 1)], [TrackedStrategy()])
        system.enable_kb_timer(0)
        system.run(2_000_000, until_halted=[0])
        core = system.cores[0]
        expected = system.cycle // 5000
        assert core.stats.interrupts_delivered == pytest.approx(expected, abs=2)
        assert system.shared.read(COUNTER_ADDR) == core.stats.interrupts_delivered

    def test_program_level_arming_via_set_timer(self):
        """The set_timer instruction itself (not direct state pokes) arms it."""
        system = MultiCoreSystem([timer_program(4000, 1, iterations=20_000)], [TrackedStrategy()])
        system.enable_kb_timer(0)
        system.run(2_000_000, until_halted=[0])
        assert system.cores[0].stats.interrupts_delivered >= 2

    def test_clear_timer_disarms(self):
        builder = ProgramBuilder("clr")
        builder.emit(isa.movi(3, 2000))
        builder.emit(isa.movi(4, 1))
        builder.emit(isa.set_timer(3, 4))
        builder.emit(isa.clear_timer())
        builder.emit(isa.movi(1, 0))
        builder.emit(isa.movi(2, 20_000))
        builder.label("loop")
        builder.emit(isa.addi(1, 1, 1))
        builder.emit(isa.blt(1, 2, "loop"))
        builder.emit(isa.halt())
        builder.emit_default_handler(counter_addr=COUNTER_ADDR)
        system = MultiCoreSystem([builder.build()], [TrackedStrategy()])
        system.enable_kb_timer(0)
        system.run(2_000_000, until_halted=[0])
        assert system.cores[0].stats.interrupts_delivered == 0


class TestOneShot:
    def test_oneshot_fires_once(self):
        builder = ProgramBuilder("oneshot")
        builder.emit(isa.movi(3, 3000))  # absolute deadline cycle
        builder.emit(isa.movi(4, 0))  # one-shot mode
        builder.emit(isa.set_timer(3, 4))
        builder.emit(isa.movi(1, 0))
        builder.emit(isa.movi(2, 20_000))
        builder.label("loop")
        builder.emit(isa.addi(1, 1, 1))
        builder.emit(isa.blt(1, 2, "loop"))
        builder.emit(isa.halt())
        builder.emit_default_handler(counter_addr=COUNTER_ADDR)
        system = MultiCoreSystem([builder.build()], [TrackedStrategy()])
        system.enable_kb_timer(0)
        system.run(2_000_000, until_halted=[0])
        assert system.cores[0].stats.interrupts_delivered == 1


class TestTimerState:
    def test_set_timer_requires_kernel_enable(self):
        system = MultiCoreSystem([timer_program(5000, 1, 100)], [TrackedStrategy()])
        # enable_kb_timer() never called: kb_config_MSR is off.
        with pytest.raises(ProtocolError):
            system.run(200_000, until_halted=[0])

    def test_periodic_requires_positive_period(self):
        state = KBTimerState(enabled=True)
        with pytest.raises(ConfigError):
            state.arm_periodic(0, now=0)

    def test_periodic_no_burst_after_delay(self):
        """A delayed check advances past `now` without burst-firing."""
        state = KBTimerState(enabled=True)
        state.arm_periodic(100, now=0)
        assert state.check_fire(450) is True
        assert state.deadline > 450
        assert state.check_fire(460) is False

    def test_oneshot_disarms_after_fire(self):
        state = KBTimerState(enabled=True)
        state.arm_oneshot(50)
        assert state.check_fire(60) is True
        assert state.armed is False
        assert state.check_fire(70) is False
