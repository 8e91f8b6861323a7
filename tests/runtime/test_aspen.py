"""The Aspen-like runtime: preemption, rotation, stealing, accounting."""

import pytest

from repro.common.errors import ConfigError
from repro.notify.costs import CostModel
from repro.notify.mechanisms import Mechanism
from repro.runtime.aspen import AspenRuntime, RuntimeConfig
from repro.runtime.uthread import UThread
from repro.sim.simulator import Simulator


def make_runtime(quantum=10_000.0, mechanism=Mechanism.XUI_KB_TIMER, workers=1, **kw):
    sim = Simulator()
    config = RuntimeConfig(num_workers=workers, quantum=quantum, mechanism=mechanism, **kw)
    return sim, AspenRuntime(sim, config)


class TestConfigValidation:
    def test_preemption_requires_mechanism(self):
        with pytest.raises(ConfigError):
            RuntimeConfig(quantum=10_000.0, mechanism=None)

    def test_no_preemption_allows_no_mechanism(self):
        config = RuntimeConfig(quantum=None, mechanism=None)
        assert config.quantum is None

    def test_invalid_quantum_rejected(self):
        with pytest.raises(ConfigError):
            RuntimeConfig(quantum=-5.0)

    def test_timer_core_capacity_enforced(self):
        """§6.1: >22 workers at 5 us cannot share one rdtsc-spin timer core."""
        sim = Simulator()
        config = RuntimeConfig(num_workers=23, quantum=10_000.0, mechanism=Mechanism.UIPI)
        with pytest.raises(ConfigError):
            AspenRuntime(sim, config)

    def test_kb_timer_has_no_worker_bound(self):
        sim = Simulator()
        config = RuntimeConfig(num_workers=23, quantum=10_000.0, mechanism=Mechanism.XUI_KB_TIMER)
        runtime = AspenRuntime(sim, config)
        assert runtime.timer_core is None


class TestExecution:
    def test_single_thread_runs_to_completion(self):
        sim, runtime = make_runtime(quantum=None, mechanism=None)
        thread = UThread(service_cycles=5000.0, arrival_time=0.0)
        runtime.spawn(thread)
        sim.run()
        assert thread.finished
        assert thread.completion_time == pytest.approx(5000.0)

    def test_fifo_without_preemption_blocks_short_behind_long(self):
        sim, runtime = make_runtime(quantum=None, mechanism=None)
        long_thread = UThread(service_cycles=1_000_000.0, kind="scan")
        short_thread = UThread(service_cycles=2_000.0, kind="get")
        runtime.spawn(long_thread)
        runtime.spawn(short_thread)
        sim.run()
        # Head-of-line blocking: the GET waits out the whole SCAN.
        assert short_thread.completion_time > 1_000_000.0

    def test_preemption_lets_short_jobs_through(self):
        sim, runtime = make_runtime(quantum=10_000.0)
        long_thread = UThread(service_cycles=1_000_000.0, kind="scan")
        short_thread = UThread(service_cycles=2_000.0, kind="get")
        runtime.spawn(long_thread)
        runtime.spawn(short_thread)
        sim.run(until=3_000_000.0)
        assert short_thread.completion_time < 50_000.0
        assert long_thread.preemptions > 10

    def test_preemption_overhead_charged_per_tick(self):
        sim, runtime = make_runtime(quantum=10_000.0, mechanism=Mechanism.UIPI)
        runtime.spawn(UThread(service_cycles=100_000.0))
        sim.run(until=100_000.0)
        worker = runtime.workers[0]
        # Boundaries at 10k, 20k, ..., 100k inclusive fire under until=100k.
        assert worker.preemption_events == 10
        costs = CostModel()
        assert worker.account.busy["preempt_notify"] == pytest.approx(
            10 * costs.uipi_receive_flush
        )

    def test_xui_overhead_lower_than_uipi(self):
        def total_overhead(mechanism):
            sim, runtime = make_runtime(quantum=10_000.0, mechanism=mechanism)
            runtime.spawn(UThread(service_cycles=200_000.0))
            sim.run(until=200_000.0)
            return runtime.workers[0].account.busy["preempt_notify"]

        assert total_overhead(Mechanism.XUI_KB_TIMER) < total_overhead(Mechanism.UIPI) / 4

    def test_completion_through_many_preemptions(self):
        sim, runtime = make_runtime(quantum=10_000.0)
        threads = [UThread(service_cycles=50_000.0) for _ in range(3)]
        for thread in threads:
            runtime.spawn(thread)
        sim.run(until=1_000_000.0)
        assert all(t.finished for t in threads)
        assert len(runtime.completed) == 3
        # stop() ends the periodic machinery; an unbounded run now drains.
        runtime.stop()
        sim.run()


def _runtime_state(sim, runtime):
    return {
        "now": sim.now,
        "workers": [
            (w.preemption_events, dict(w.account.busy), w.idle_cycles, w.idle_since)
            for w in runtime.workers
        ],
        "timer_core": None if runtime.timer_core is None else dict(runtime.timer_core.busy),
        "threads": [
            (t.arrival_time, t.start_time, t.completion_time, t.preemptions, t.steals)
            for t in runtime.completed
        ],
    }


def _summed(cycles, times):
    total = 0.0
    for _ in range(times):
        total += cycles
    return total


class TestQuantumClock:
    """One clock per runtime; idle quanta coalesce inside bounded runs."""

    COSTS = CostModel(uipi_receive_flush=645.3, senduipi=383.9, timer_core_loop_overhead=70.3)

    def _runtime(self, workers=3, mechanism=Mechanism.UIPI):
        sim = Simulator()
        config = RuntimeConfig(num_workers=workers, quantum=10_000.0, mechanism=mechanism)
        return sim, AspenRuntime(sim, config, costs=self.COSTS)

    def test_idle_run_charges_every_boundary(self):
        sim, runtime = self._runtime()
        sim.run(until=1_234_567.0)
        boundaries = 123  # floor(1_234_567 / 10_000)
        for worker in runtime.workers:
            assert worker.preemption_events == boundaries
            assert worker.account.busy == {
                "preempt_notify": _summed(self.COSTS.uipi_receive_flush, boundaries)
            }
        send = (self.COSTS.senduipi + self.COSTS.timer_core_loop_overhead) * 3
        assert runtime.timer_core.busy == {
            "senduipi": _summed(send, boundaries),
            "spin": _summed(10_000.0 - send, boundaries),
        }
        # The first boundary jumped straight to the last one: two firings.
        assert sim.events_processed == 2
        assert sim.pending() == 1

    def test_spawn_between_bounded_runs_matches_prescheduled_arrival(self):
        arrival = 1_234_567.0

        def spawn(sim, runtime):
            runtime.spawn(UThread(service_cycles=55_555.0, arrival_time=sim.now))

        sim_a, runtime_a = self._runtime(workers=2)
        sim_a.run(until=arrival)
        spawn(sim_a, runtime_a)
        sim_a.run(until=3_000_000.0)

        sim_b, runtime_b = self._runtime(workers=2)
        sim_b.schedule_at(arrival, lambda: spawn(sim_b, runtime_b))
        sim_b.run(until=3_000_000.0)

        assert len(runtime_a.completed) == 1
        assert _runtime_state(sim_a, runtime_a) == _runtime_state(sim_b, runtime_b)

    def test_bounded_run_matches_stepping(self):
        def build():
            sim, runtime = self._runtime(workers=2)
            # Two arrivals sit exactly on quantum boundaries: they must fire
            # before that boundary's tick, which then preempts them.
            arrivals = ((0.0, 3_000.0), (437_000.0, 250_000.0), (1_000_000.0, 7_500.0),
                        (1_311_000.0, 40_000.0), (2_000_000.0, 1_000.0))
            for arrival, service in arrivals:
                thread = UThread(service_cycles=service, arrival_time=arrival)
                sim.schedule_at(thread.arrival_time, lambda t=thread: runtime.spawn(t))
            return sim, runtime

        until = 3_000_000.0
        sim_a, runtime_a = build()
        sim_a.run(until=until)
        sim_b, runtime_b = build()
        while sim_b.peek_next_time() <= until:
            sim_b.step()
        sim_b.run(until=until)  # lands the clock on the bound, fires nothing

        assert len(runtime_a.completed) == 5
        assert sim_a.events_processed < sim_b.events_processed
        assert _runtime_state(sim_a, runtime_a) == _runtime_state(sim_b, runtime_b)

    def test_step_does_not_coalesce(self):
        sim, runtime = self._runtime()
        for _ in range(5):
            assert sim.step()
        assert sim.now == 50_000.0
        assert [w.preemption_events for w in runtime.workers] == [5, 5, 5]

    def test_max_events_run_does_not_coalesce(self):
        sim, runtime = self._runtime()
        sim.run(until=1_000_000.0, max_events=5)
        assert sim.now == 50_000.0
        assert [w.preemption_events for w in runtime.workers] == [5, 5, 5]

    def test_stop_lets_unbounded_run_drain(self):
        sim, runtime = self._runtime()
        runtime.spawn(UThread(service_cycles=25_000.0))
        sim.run(until=95_000.0)
        ticks = [w.preemption_events for w in runtime.workers]
        runtime.stop()
        sim.run()
        assert sim.pending() == 0
        assert len(runtime.completed) == 1
        assert [w.preemption_events for w in runtime.workers] == ticks

    def test_stop_arms_a_completion_left_to_the_tick(self):
        """A slice that outlasts the next tick schedules no completion (the
        tick would cancel it); stopping the clock must schedule it."""
        sim, runtime = make_runtime(quantum=10_000.0)
        thread = UThread(service_cycles=25_000.0)
        runtime.spawn(thread)
        sim.run(until=5_000.0)
        assert sim.pending() == 1  # the clock only
        runtime.stop()
        sim.run()
        assert thread.completion_time == 25_000.0
        assert runtime.completed == [thread]


class TestWorkStealing:
    def test_idle_worker_steals(self):
        sim, runtime = make_runtime(quantum=10_000.0, workers=2)
        # Both land on worker 0 via direct enqueue.
        a = UThread(service_cycles=200_000.0)
        b = UThread(service_cycles=200_000.0)
        runtime.workers[0].enqueue(a)
        runtime.workers[0].enqueue(b)
        sim.run(until=500_000.0)
        assert b.steals >= 1  # worker 1 stole the queued thread
        assert a.finished and b.finished

    def test_stealing_disabled_respected(self):
        sim, runtime = make_runtime(quantum=10_000.0, workers=2, work_stealing=False)
        a = UThread(service_cycles=50_000.0)
        b = UThread(service_cycles=50_000.0)
        runtime.workers[0].enqueue(a)
        runtime.workers[0].enqueue(b)
        sim.run(until=1_000_000.0)
        assert a.steals == 0 and b.steals == 0

    def test_spawn_round_robins(self):
        sim, runtime = make_runtime(quantum=None, mechanism=None, workers=3)
        for _ in range(6):
            runtime.spawn(UThread(service_cycles=1000.0))
        pushes = [w.queue.pushes for w in runtime.workers]
        assert pushes == [2, 2, 2]


class TestTimerCoreAccounting:
    def test_uipi_allocates_timer_core(self):
        _, runtime = make_runtime(mechanism=Mechanism.UIPI)
        assert runtime.timer_core is not None

    def test_timer_core_fully_busy(self):
        sim, runtime = make_runtime(mechanism=Mechanism.UIPI)
        runtime.spawn(UThread(service_cycles=100_000.0))
        sim.run(until=100_000.0)
        # The rdtsc-spin core burns everything: spin + senduipi ~= wall time.
        assert runtime.timer_core.busy_fraction(100_000.0) == pytest.approx(1.0, abs=0.05)

    def test_response_times_by_kind(self):
        sim, runtime = make_runtime(quantum=None, mechanism=None)
        runtime.spawn(UThread(service_cycles=1000.0, kind="get"))
        runtime.spawn(UThread(service_cycles=2000.0, kind="scan"))
        sim.run()
        assert len(runtime.response_times("get")) == 1
        assert len(runtime.response_times("scan")) == 1
        assert len(runtime.response_times()) == 2
