"""Figures 6-9 runners at reduced scale: the paper's shapes hold."""

import gc

import pytest

from repro.experiments.fig6_timer_cost import (
    kb_timer_core_savings,
    run_fig6,
    timer_core_utilization,
)
from repro.experiments.fig7_rocksdb import max_throughput_under_slo, run_fig7, run_point
from repro.experiments.fig8_l3fwd import run_point as fig8_point
from repro.experiments.fig9_dsa import run_point as fig9_point
from repro.notify.mechanisms import Mechanism


class TestFig6:
    def test_xui_needs_no_timer_core(self):
        assert timer_core_utilization("xui_kb_timer", 8, 10_000.0) == 0.0

    def test_os_interfaces_grow_with_receivers(self):
        few = timer_core_utilization("setitimer", 1, 10_000.0)
        many = timer_core_utilization("setitimer", 16, 10_000.0)
        assert many > few

    def test_os_interfaces_grow_with_rate(self):
        slow = timer_core_utilization("setitimer", 4, 2_000_000.0)  # 1 ms
        fast = timer_core_utilization("setitimer", 4, 10_000.0)  # 5 us
        assert fast > slow * 5

    def test_setitimer_costs_more_than_nanosleep(self):
        signal = timer_core_utilization("setitimer", 4, 50_000.0)
        sleep = timer_core_utilization("nanosleep", 4, 50_000.0)
        assert signal > sleep

    def test_rdtsc_spin_burns_whole_core(self):
        assert timer_core_utilization("rdtsc_spin", 1, 10_000.0) == pytest.approx(1.0)

    def test_saturation_at_fine_intervals(self):
        # setitimer per-event cost exceeds a 5 us interval per §2.
        assert timer_core_utilization("setitimer", 22, 10_000.0) == 1.0

    def test_grid_runner_shape(self):
        grid = run_fig6(core_counts=[1, 4], intervals=[10_000.0, 200_000.0])
        assert set(grid) == {"setitimer", "nanosleep", "rdtsc_spin", "xui_kb_timer"}
        assert set(grid["setitimer"]) == {10_000.0, 200_000.0}

    def test_capacity_arithmetic_matches_paper(self):
        """§6.1: ~22 workers per spin core at 5 us; 1-in-22 is ~4.5%."""
        savings = kb_timer_core_savings(22, 10_000.0)
        assert savings["workers_per_timer_core"] == 22
        assert savings["timer_cores_needed"] == 1
        assert savings["throughput_gain_fraction"] == pytest.approx(1 / 22)

    def test_unknown_interface_rejected(self):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError):
            timer_core_utilization("sundial", 1, 10_000.0)


class TestFig7:
    @pytest.fixture(scope="class")
    def points(self):
        return {
            cfg: run_point(cfg, 100_000, duration_seconds=0.03)
            for cfg in ("no_preempt", "uipi", "xui")
        }

    def test_no_preempt_has_terrible_get_tail(self, points):
        # Hundreds of microseconds even at moderate load (§6.2.1).
        assert points["no_preempt"].get_p999_us > 300

    def test_preemption_rescues_get_tail(self, points):
        assert points["uipi"].get_p999_us < 100
        assert points["xui"].get_p999_us < 100

    def test_xui_tail_no_worse_than_uipi(self, points):
        assert points["xui"].get_p999_us <= points["uipi"].get_p999_us * 1.1

    def test_scan_tail_elevated_by_preemption(self, points):
        assert points["xui"].scan_p999_us > points["no_preempt"].scan_p999_us * 0.8

    def test_uipi_burns_a_timer_core(self, points):
        assert points["uipi"].timer_core_busy_fraction == pytest.approx(1.0, abs=0.05)
        assert points["xui"].timer_core_busy_fraction == 0.0

    def test_throughput_tracks_offered_below_saturation(self, points):
        for point in points.values():
            assert point.achieved_rps == pytest.approx(100_000, rel=0.05)

    def test_slo_helper(self, points):
        assert max_throughput_under_slo([points["xui"]], slo_us=1000.0) > 0
        assert max_throughput_under_slo([points["no_preempt"]], slo_us=100.0) == 0.0


def test_fig7_point_is_freed_by_refcount():
    gc.collect()
    gc.disable()
    try:
        run_point("xui", 100_000, duration_seconds=0.005, num_workers=3)
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


class TestFig7MultiWorker:
    def test_scaling_to_four_workers(self):
        """The work-stealing runtime scales the sustainable load ~linearly
        (the multi-core variant the paper's Aspen supports, §5.3)."""
        single = run_point("xui", 200_000, duration_seconds=0.02, num_workers=1)
        quad = run_point("xui", 700_000, duration_seconds=0.02, num_workers=4)
        assert quad.achieved_rps == pytest.approx(700_000, rel=0.08)
        assert quad.get_p999_us < 200
        assert single.achieved_rps == pytest.approx(200_000, rel=0.08)

    def test_uipi_timer_core_capacity_shared(self):
        """One UIPI timer core serves several workers (within the §6.1 cap)."""
        point = run_point("uipi", 500_000, duration_seconds=0.02, num_workers=4)
        assert point.achieved_rps == pytest.approx(500_000, rel=0.08)
        assert point.timer_core_busy_fraction == pytest.approx(1.0, abs=0.05)


class TestFig8:
    def test_polling_never_free(self):
        point = fig8_point(Mechanism.POLLING, 1, 0.4, duration_seconds=0.004)
        assert point.free_fraction == 0.0

    def test_xui_free_at_zero_load_is_total(self):
        point = fig8_point(Mechanism.XUI_DEVICE, 1, 0.0, duration_seconds=0.004)
        assert point.free_fraction == 1.0

    def test_paper_anchor_45_percent_free_at_40_load(self):
        point = fig8_point(Mechanism.XUI_DEVICE, 1, 0.4, duration_seconds=0.01)
        assert 0.35 <= point.free_fraction <= 0.58

    def test_throughput_parity_with_polling(self):
        poll = fig8_point(Mechanism.POLLING, 1, 0.6, duration_seconds=0.01)
        xui = fig8_point(Mechanism.XUI_DEVICE, 1, 0.6, duration_seconds=0.01)
        assert xui.achieved_pps == pytest.approx(poll.achieved_pps, rel=0.02)

    def test_functional_lpm_routes_packets(self):
        """With use_lpm the router actually consults the 16k-route trie."""
        point = fig8_point(
            Mechanism.XUI_DEVICE, 1, 0.3, duration_seconds=0.002, use_lpm=True
        )
        assert point.achieved_pps > 0

    def test_more_nics_cost_more_interrupt_overhead(self):
        one = fig8_point(Mechanism.XUI_DEVICE, 1, 0.4, duration_seconds=0.008)
        eight = fig8_point(Mechanism.XUI_DEVICE, 8, 0.4, duration_seconds=0.008)
        assert eight.p95_latency_us > one.p95_latency_us


class TestFig9:
    def test_busy_spin_minimizes_latency_burns_core(self):
        point = fig9_point("busy_spin", 20.0, 0.0, duration_seconds=0.005)
        assert point.free_fraction == 0.0
        assert point.mean_notification_lag_us < 0.1

    def test_xui_lag_constant_under_noise(self):
        quiet = fig9_point("xui", 20.0, 0.0, duration_seconds=0.005)
        noisy = fig9_point("xui", 20.0, 1.0, duration_seconds=0.005)
        assert abs(noisy.mean_notification_lag_us - quiet.mean_notification_lag_us) < 0.05
        # Within ~0.2 us of busy-spin (§6.2.3).
        assert noisy.mean_notification_lag_us <= 0.2

    def test_periodic_poll_degrades_with_noise_for_long_requests(self):
        quiet = fig9_point("periodic_poll", 20.0, 0.0, duration_seconds=0.005)
        noisy = fig9_point("periodic_poll", 20.0, 1.0, duration_seconds=0.005)
        assert noisy.mean_notification_lag_us > quiet.mean_notification_lag_us + 1.0

    def test_xui_frees_most_of_the_core(self):
        short = fig9_point("xui", 2.0, 0.0, duration_seconds=0.005)
        long = fig9_point("xui", 20.0, 0.0, duration_seconds=0.005)
        assert short.free_fraction >= 0.7  # paper: ~75% for 2 us requests
        assert long.free_fraction >= 0.9

    def test_50k_ipos_anchor(self):
        """§6.2.3: at 50K IOPS (20 us requests) xUI keeps spin-level
        responsiveness with negligible CPU use."""
        point = fig9_point("xui", 20.0, 0.0, duration_seconds=0.01)
        assert point.ipos == pytest.approx(48_000, rel=0.08)
        assert point.free_fraction > 0.9
