"""The calibrated per-event cost model (cycles at the paper's 2 GHz clock).

Defaults are the paper's measured/reported constants (§2, §3.4 Table 2,
§4.1, §6.1).  ``CostModel.from_cycle_model()`` re-derives the interrupt
costs by running the cycle tier's characterization experiments, keeping the
two tiers consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.common.errors import ConfigError


@dataclass(frozen=True)
class CostModel:
    """Per-event costs, in cycles @ 2 GHz."""

    # -- user interrupts (Table 2, Figure 4) -------------------------------
    #: Receiver-side cost of one UIPI with the flush strategy (Fig 4: ~645;
    #: Table 2 reports 720 for the raw receiver path).
    uipi_receive_flush: float = 645.0
    #: Receiver-side cost of a tracked IPI (notification + delivery, §4.2).
    uipi_receive_tracked: float = 231.0
    #: Receiver-side cost of a tracked KB-timer or forwarded-device
    #: interrupt (delivery only, §4.3/§4.5).
    timer_receive_tracked: float = 105.0
    #: End-to-end UIPI latency, senduipi issue to handler entry (Table 2).
    uipi_end_to_end: float = 1360.0
    #: Sender-side cost of one senduipi (Table 2).
    senduipi: float = 383.0
    clui: float = 2.0
    stui: float = 32.0

    # -- signals and OS interfaces (§2) -------------------------------------
    #: Full cost of one signal delivery (~2.4 us at 2 GHz).
    signal_delivery: float = 4800.0
    #: The OS context-switch share of a signal (~1.4 us).
    signal_kernel_share: float = 2800.0
    #: Per-event cost on a timer thread using setitimer() (signal-based).
    setitimer_event: float = 5200.0
    #: Per-event cost on a timer thread using nanosleep() (sleep/wake).
    nanosleep_event: float = 3600.0
    #: Minimum achievable OS interval-timer period (~2 us, §6.2.3: "almost
    #: at the limit of the OS interval timer").
    os_timer_min_period: float = 4000.0

    # -- shared-memory polling (§2, §4.2) ------------------------------------
    #: One negative poll (L1 hit + predicted branch).
    poll_check: float = 3.0
    #: A positive poll (remote-dirty miss + mispredict).
    poll_notify: float = 100.0

    # -- scheduling ----------------------------------------------------------
    #: User-level thread switch (Aspen-style runtime).
    uthread_switch: float = 250.0
    #: Kernel thread context switch.
    kthread_switch: float = 2800.0
    #: Loop overhead per receiver on a dedicated rdtsc-spin timer core
    #: (bookkeeping around each senduipi; with senduipi this bounds the
    #: fan-out at ~22 workers per timer core at a 5 us quantum, §6.1).
    timer_core_loop_overhead: float = 70.0

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if value < 0:
                raise ConfigError(f"cost {name} must be non-negative, got {value}")

    # -- derived helpers -----------------------------------------------------
    def preemption_cost(self, mechanism: "str") -> float:
        """Receiver-side cost of one preemption notification."""
        from repro.notify.mechanisms import Mechanism

        mech = Mechanism(mechanism) if not isinstance(mechanism, Mechanism) else mechanism
        if mech is Mechanism.SIGNAL:
            return self.signal_delivery
        if mech is Mechanism.UIPI:
            return self.uipi_receive_flush
        if mech is Mechanism.XUI_TRACKED_IPI:
            return self.uipi_receive_tracked
        if mech in (Mechanism.XUI_KB_TIMER, Mechanism.XUI_DEVICE):
            return self.timer_receive_tracked
        if mech is Mechanism.POLLING:
            return self.poll_notify
        raise ConfigError(f"no preemption cost for mechanism {mech}")

    def timer_core_capacity(self, interval_cycles: float) -> int:
        """How many workers one rdtsc-spin timer core can notify per interval."""
        per_worker = self.senduipi + self.timer_core_loop_overhead
        return int(interval_cycles // per_worker)

    def scaled(self, **overrides: float) -> "CostModel":
        return replace(self, **overrides)

    @classmethod
    def paper_defaults(cls) -> "CostModel":
        return cls()

    @classmethod
    def from_cycle_model(cls, quick: bool = True) -> "CostModel":
        """Re-derive the interrupt costs from the cycle tier.

        Runs the Figure 4-style characterization on the cycle model (a
        counting-loop workload with periodic interrupts) and replaces the
        interrupt constants with the measured values.  ``quick`` uses a
        shorter run (fewer interrupts averaged).
        """
        from repro.experiments.characterize import measure_interrupt_costs

        measured = measure_interrupt_costs(quick=quick)
        return cls(
            uipi_receive_flush=measured["uipi_receive_flush"],
            uipi_receive_tracked=measured["uipi_receive_tracked"],
            timer_receive_tracked=measured["timer_receive_tracked"],
            uipi_end_to_end=measured["uipi_end_to_end"],
            senduipi=measured["senduipi"],
            clui=measured["clui"],
            stui=measured["stui"],
        )
