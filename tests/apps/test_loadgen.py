"""Open-loop Poisson load generation (§5.3)."""

import numpy as np
import pytest

from repro.apps.loadgen import PoissonLoadGenerator
from repro.common.errors import ConfigError
from repro.common.rng import RngStreams
from repro.sim.simulator import Simulator


class TestArrivals:
    def test_rate_is_respected(self):
        generator = PoissonLoadGenerator(100_000, rng=RngStreams(1))
        duration = 0.2 * 2e9  # 0.2 s in cycles
        arrivals = list(generator.arrivals(duration))
        assert len(arrivals) == pytest.approx(20_000, rel=0.05)

    def test_interarrivals_exponential(self):
        generator = PoissonLoadGenerator(50_000, rng=RngStreams(2))
        times = [a.time for a in generator.arrivals(0.5 * 2e9)]
        gaps = np.diff(times)
        mean_gap = 2e9 / 50_000
        assert np.mean(gaps) == pytest.approx(mean_gap, rel=0.05)
        # Exponential: stddev ~= mean (coefficient of variation 1).
        assert np.std(gaps) == pytest.approx(mean_gap, rel=0.1)

    def test_arrivals_ordered_and_bounded(self):
        generator = PoissonLoadGenerator(10_000, rng=RngStreams(3))
        duration = 0.05 * 2e9
        times = [a.time for a in generator.arrivals(duration, start=100.0)]
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
        assert all(100.0 <= t < 100.0 + duration for t in times)

    def test_arrivals_deterministic_per_seed(self):
        a = [x.time for x in PoissonLoadGenerator(10_000, rng=RngStreams(7)).arrivals(1e7)]
        b = [x.time for x in PoissonLoadGenerator(10_000, rng=RngStreams(7)).arrivals(1e7)]
        assert a == b

    def test_specs_carry_service_demand(self):
        generator = PoissonLoadGenerator(10_000, rng=RngStreams(4))
        arrival = next(iter(generator.arrivals(1e7)))
        assert arrival.spec.service_cycles > 0
        assert arrival.spec.kind in ("get", "scan")

    def test_invalid_rate_rejected(self):
        with pytest.raises(ConfigError):
            PoissonLoadGenerator(0)

    def test_invalid_duration_rejected(self):
        generator = PoissonLoadGenerator(1000)
        with pytest.raises(ConfigError):
            list(generator.arrivals(0))


class TestScheduleInto:
    def test_schedules_all_arrivals(self):
        sim = Simulator()
        generator = PoissonLoadGenerator(100_000, rng=RngStreams(5))
        seen = []
        count = generator.schedule_into(sim, 0.01 * 2e9, seen.append)
        sim.run()
        assert len(seen) == count
        assert count > 500

    def test_fires_each_arrival_at_its_time_in_order(self):
        expected = list(PoissonLoadGenerator(100_000, rng=RngStreams(6)).arrivals(0.001 * 2e9))
        sim = Simulator()
        seen = []
        generator = PoissonLoadGenerator(100_000, rng=RngStreams(6))
        generator.schedule_into(sim, 0.001 * 2e9, lambda a: seen.append((sim.now, a)))
        sim.run()
        assert [a for _, a in seen] == expected
        assert all(now == a.time for now, a in seen)
