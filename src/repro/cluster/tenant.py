"""Arrival generation for tenant groups inside one shard.

Compiles a :class:`~repro.scenario.tenants.TenantTemplate` plus a
:class:`~repro.cluster.topology.TenantSpec` head-count into concrete
arrivals fed to a shard's simulator (:meth:`Simulator.feed`), spawning one
:class:`~repro.runtime.uthread.UThread` per request/notification.

All randomness flows through the shard's named :class:`RngStreams`, so the
arrival process is a pure function of the shard seed — and because the
shard seed excludes the strategy, every strategy replays byte-identical
arrivals (common random numbers).  ``delivery_cycles`` is the per-event
notification-receive cost for templates whose events *are* notifications
(timers, fan-out); it is the only template input that differs across
strategies.
"""

from __future__ import annotations

from repro.apps.loadgen import PoissonLoadGenerator
from repro.apps.rocksdb import BimodalServiceModel
from repro.common.errors import ConfigError
from repro.common.rng import RngStreams
from repro.common.units import us_to_cycles
from repro.runtime.aspen import AspenRuntime
from repro.runtime.uthread import UThread
from repro.scenario.tenants import TenantTemplate, tenant_template
from repro.sim.simulator import Simulator

#: Simulated clock rate (paper's 2 GHz server), cycles per second.
CLOCK_HZ = 2e9


def schedule_group(
    sim: Simulator,
    runtime: AspenRuntime,
    template: TenantTemplate,
    count: int,
    rps: float,
    rng: RngStreams,
    duration_cycles: float,
    delivery_cycles: float,
) -> int:
    """Feed one tenant group's arrivals to ``sim``; returns the offered count."""
    if count < 1:
        raise ConfigError(f"tenant group count must be >= 1, got {count}")
    if duration_cycles <= 0:
        raise ConfigError(f"duration_cycles must be > 0, got {duration_cycles}")
    if delivery_cycles < 0:
        raise ConfigError(f"delivery_cycles must be >= 0, got {delivery_cycles}")
    extra = delivery_cycles if template.delivery_cost else 0.0
    if template.kind == "bimodal_poisson":
        return _schedule_bimodal(sim, runtime, template, count * rps, rng, duration_cycles)
    if template.kind == "periodic_timer":
        return _schedule_timers(
            sim, runtime, template, count, rps, rng, duration_cycles, extra
        )
    if template.kind == "burst_poisson":
        return _schedule_bursts(
            sim, runtime, template, count * rps, rng, duration_cycles, extra
        )
    raise ConfigError(f"unknown template kind {template.kind!r}")  # pragma: no cover


def schedule_scenario(
    sim: Simulator,
    runtime: AspenRuntime,
    scenario: str,
    count: int,
    rps: float,
    rng: RngStreams,
    duration_cycles: float,
    delivery_cycles: float,
) -> int:
    """:func:`schedule_group` with the template looked up by scenario name."""
    return schedule_group(
        sim, runtime, tenant_template(scenario), count, rps, rng, duration_cycles,
        delivery_cycles,
    )


def _spawn(sim: Simulator, runtime: AspenRuntime, service_cycles: float, kind: str) -> None:
    runtime.spawn(
        UThread(service_cycles=service_cycles, kind=kind, arrival_time=sim.now)
    )


def _schedule_bimodal(
    sim: Simulator,
    runtime: AspenRuntime,
    template: TenantTemplate,
    rate_per_second: float,
    rng: RngStreams,
    duration_cycles: float,
) -> int:
    service_model = BimodalServiceModel(
        rng=rng,
        get_mean_us=template.get_us,
        scan_mean_us=template.scan_us,
        scan_fraction=template.scan_fraction,
    )
    generator = PoissonLoadGenerator(
        rate_per_second, service_model=service_model, rng=rng, clock_hz=CLOCK_HZ
    )

    def on_arrival(arrival) -> None:
        _spawn(sim, runtime, arrival.spec.service_cycles, arrival.spec.kind)

    return generator.schedule_into(sim, duration_cycles, on_arrival)


def _schedule_timers(
    sim: Simulator,
    runtime: AspenRuntime,
    template: TenantTemplate,
    count: int,
    rps: float,
    rng: RngStreams,
    duration_cycles: float,
    delivery_cycles: float,
) -> int:
    """Per-tenant periodic timers with random phase.

    Each tenant fires every ``1/rps`` seconds; the handler runs
    ``handler_us`` plus the strategy's receive cost.  Phases are drawn per
    tenant so the shard's firings interleave rather than beat in lockstep.
    """
    period = CLOCK_HZ / rps
    service = us_to_cycles(template.handler_us) + delivery_cycles
    times = []
    for _tenant in range(count):
        when = rng.uniform("timer_phase", 0.0, period)
        while when < duration_cycles:
            times.append(when)
            when += period
    sim.feed(times, lambda _index: _spawn(sim, runtime, service, "timer"), name="tenant-timer")
    return len(times)


def _schedule_bursts(
    sim: Simulator,
    runtime: AspenRuntime,
    template: TenantTemplate,
    base_rate_per_second: float,
    rng: RngStreams,
    duration_cycles: float,
    delivery_cycles: float,
) -> int:
    """Open-loop Poisson events whose rate spikes inside burst windows.

    The rate is piecewise-constant: ``base * burst_factor`` when
    ``t mod burst_period < burst_len``, ``base`` otherwise.  Gaps are drawn
    at the rate in effect at the previous arrival — a deterministic,
    slightly-smoothed approximation of the inhomogeneous process that keeps
    every draw attributable to one named RNG stream.
    """
    burst_period = us_to_cycles(template.burst_period_ms * 1000.0)
    burst_len = us_to_cycles(template.burst_len_ms * 1000.0)
    service = us_to_cycles(template.handler_us) + delivery_cycles
    times = []
    now = 0.0
    while True:
        in_burst = (now % burst_period) < burst_len
        rate = base_rate_per_second * (template.burst_factor if in_burst else 1.0)
        now += rng.exponential("fanout_arrivals", CLOCK_HZ / rate)
        if now >= duration_cycles:
            break
        times.append(now)
    sim.feed(times, lambda _index: _spawn(sim, runtime, service, "event"), name="fanout-event")
    return len(times)
