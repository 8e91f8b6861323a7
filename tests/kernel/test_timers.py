"""The OS timers of the event tier (§2, Figure 6)."""

import pytest

from repro.common.errors import ConfigError
from repro.kernel.timers import NanosleepTimer, OSIntervalTimer
from repro.notify.costs import CostModel
from repro.sim.account import CycleAccount
from repro.sim.simulator import Simulator


def run_timer(timer_cls, period, duration=1_000_000.0):
    sim = Simulator()
    account = CycleAccount()
    fires = []
    timer = timer_cls(sim, account, period, lambda: fires.append(sim.now))
    timer.start()
    sim.run(until=duration)
    return timer, account, fires


class TestPeriodicBehaviour:
    @pytest.mark.parametrize("timer_cls", [OSIntervalTimer, NanosleepTimer])
    def test_fires_at_period(self, timer_cls):
        timer, _, fires = run_timer(timer_cls, period=10_000.0, duration=100_000.0)
        assert len(fires) == 10
        assert fires[0] == pytest.approx(10_000.0)

    @pytest.mark.parametrize("timer_cls", [OSIntervalTimer, NanosleepTimer])
    def test_stop_cancels(self, timer_cls):
        sim = Simulator()
        account = CycleAccount()
        timer = timer_cls(sim, account, 10_000.0, lambda: None)
        timer.start()
        sim.run(until=25_000.0)
        timer.stop()
        before = timer.fires
        sim.run(until=100_000.0)
        assert timer.fires == before

    @pytest.mark.parametrize("timer_cls", [OSIntervalTimer, NanosleepTimer])
    def test_invalid_period_rejected(self, timer_cls):
        sim = Simulator()
        with pytest.raises(ConfigError):
            timer_cls(sim, CycleAccount(), 0.0, lambda: None)

    def test_double_start_is_idempotent(self):
        sim = Simulator()
        timer = OSIntervalTimer(sim, CycleAccount(), 10_000.0, lambda: None)
        timer.start()
        timer.start()
        sim.run(until=10_500.0)
        assert timer.fires == 1


class TestCosts:
    def test_setitimer_charges_signal_cost_per_tick(self):
        _, account, fires = run_timer(OSIntervalTimer, period=10_000.0, duration=100_000.0)
        expected = len(fires) * CostModel().setitimer_event
        assert account.busy["setitimer"] == pytest.approx(expected)

    def test_nanosleep_cheaper_than_setitimer(self):
        _, sleep_account, _ = run_timer(NanosleepTimer, 10_000.0, 100_000.0)
        _, signal_account, _ = run_timer(OSIntervalTimer, 10_000.0, 100_000.0)
        assert sleep_account.total_busy() < signal_account.total_busy()


class TestOsResolutionFloor:
    def test_period_clamped_to_os_minimum(self):
        """§6.2.3: the OS interval timer bottoms out around 2 us."""
        sim = Simulator()
        timer = OSIntervalTimer(sim, CycleAccount(), period=100.0, callback=lambda: None)
        assert timer.period == CostModel().os_timer_min_period
        assert timer.requested_period == 100.0
