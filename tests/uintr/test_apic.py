"""Local APIC: classification and forwarding (§4.5)."""

import pytest

from repro.common.errors import ConfigError, SimulationError
from repro.uintr.apic import InterruptKind, LocalApic


class TestClassification:
    def test_uinv_vector_is_uipi(self):
        apic = LocalApic(0, uipi_notification_vector=0xEC)
        apic.accept(0xEC, time=0.0)
        assert apic.has_pending()
        assert apic.peek().kind is InterruptKind.UIPI

    def test_other_vector_without_forwarding_goes_to_kernel(self):
        apic = LocalApic(0)
        apic.accept(0x40, time=0.0)
        assert not apic.has_pending()
        assert len(apic.kernel_queue) == 1

    def test_take_order_fifo(self):
        apic = LocalApic(0)
        apic.accept(0xEC, time=1.0)
        apic.raise_timer(2, time=2.0)
        assert apic.take().kind is InterruptKind.UIPI
        assert apic.take().kind is InterruptKind.TIMER

    def test_take_empty_raises(self):
        with pytest.raises(SimulationError):
            LocalApic(0).take()

    def test_timer_carries_user_vector(self):
        apic = LocalApic(0)
        apic.raise_timer(7, time=0.0)
        assert apic.take().user_vector == 7


class TestForwarding:
    def test_fast_path_when_active(self):
        apic = LocalApic(0)
        apic.enable_forwarding(40, user_vector=3)
        apic.set_active_vectors(apic.forwarding_enabled)
        apic.accept(40, time=0.0, kind=InterruptKind.DEVICE)
        pending = apic.take()
        assert pending.kind is InterruptKind.DEVICE
        assert pending.user_vector == 3
        assert apic.forwarded_fast == 1

    def test_slow_path_when_thread_not_running(self):
        apic = LocalApic(0)
        apic.enable_forwarding(40, user_vector=3)
        apic.set_active_vectors(0)  # destination thread descheduled
        apic.accept(40, time=0.0, kind=InterruptKind.DEVICE)
        assert not apic.has_pending()
        assert len(apic.slow_path_queue) == 1
        assert apic.forwarded_slow == 1

    def test_unmapped_vector_not_forwarded(self):
        apic = LocalApic(0)
        apic.enable_forwarding(40, user_vector=3)
        apic.set_active_vectors(apic.forwarding_enabled)
        apic.accept(41, time=0.0, kind=InterruptKind.DEVICE)
        assert len(apic.kernel_queue) == 1

    def test_vector_range_checked(self):
        with pytest.raises(ConfigError):
            LocalApic(0).enable_forwarding(256, user_vector=1)

    def test_256_bit_register_width(self):
        apic = LocalApic(0)
        apic.enable_forwarding(255, user_vector=1)
        assert apic.forwarding_enabled >> 255 == 1

