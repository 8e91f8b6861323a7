"""The layer-3 forwarding application (§5.4, §6.2.2).

One core services 1-8 NIC RX rings.  Two notification modes:

- ``POLLING`` (DPDK as deployed): the core spins, round-robining over the
  rings — every cycle is spent either forwarding ("networking cycles") or
  polling; nothing is ever free.  A packet that lands while the core is
  mid-rotation waits, on average, half a rotation to be discovered.
- ``XUI_DEVICE`` (tracked interrupts + interrupt forwarding): the core
  idles; the first packet into an empty, armed ring raises a forwarded
  device interrupt (105-cycle delivery).  The handler drains *all* rings
  before re-arming and returning, so bursts cost one interrupt (§6.2.2:
  "the interrupt handler polls the network queue again before returning").

The router is a work-conserving single server: per-packet service time is a
calibrated constant covering RX descriptor handling, the LPM lookup, and TX.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.common.errors import ConfigError, SimulationError
from repro.common.rng import RngStreams
from repro.net.lpm import LPMTable
from repro.net.nic import NIC
from repro.net.packet import Packet
from repro.notify.costs import CostModel
from repro.notify.mechanisms import Mechanism
from repro.sim.account import CycleAccount
from repro.sim.simulator import Simulator


@dataclass(frozen=True)
class L3fwdConfig:
    """Configuration of the router core."""

    mechanism: Mechanism = Mechanism.POLLING
    num_nics: int = 1
    #: Cycles to receive, route (LPM), and transmit one 64-byte packet.
    per_packet_cost: float = 600.0
    #: Cycles to check one (empty) RX ring.
    poll_queue_cost: float = 25.0
    #: Device-to-APIC wire latency for a forwarded interrupt.
    device_wire_latency: float = 100.0
    #: Handler epilogue per interrupt burst: re-arming the NIC interrupt is
    #: an MMIO write (plus uiret and prologue/epilogue work).
    rearm_cost: float = 300.0

    #: mwait exit latency (C-state wake; microsecond-ish on real parts).
    mwait_wake_latency: float = 2000.0

    def __post_init__(self) -> None:
        supported = (Mechanism.POLLING, Mechanism.XUI_DEVICE, Mechanism.MWAIT)
        if self.mechanism not in supported:
            raise ConfigError(
                f"l3fwd supports polling, mwait, or xUI device interrupts, not {self.mechanism}"
            )
        if self.num_nics <= 0:
            raise ConfigError("num_nics must be positive")
        if self.per_packet_cost <= 0:
            raise ConfigError("per_packet_cost must be positive")

    @property
    def rotation_cost(self) -> float:
        """One full polling rotation over all (empty) rings."""
        return self.num_nics * self.poll_queue_cost


class L3Forwarder:
    """The router core: attach to NICs, then feed packets via a generator."""

    def __init__(
        self,
        sim: Simulator,
        nics: List[NIC],
        config: L3fwdConfig,
        lpm: Optional[LPMTable] = None,
        costs: Optional[CostModel] = None,
        rng: Optional[RngStreams] = None,
    ) -> None:
        if len(nics) != config.num_nics:
            raise ConfigError(f"expected {config.num_nics} NICs, got {len(nics)}")
        self.sim = sim
        self.nics = nics
        self.config = config
        self.lpm = lpm
        self.costs = costs or CostModel.paper_defaults()
        self.rng = rng or RngStreams(seed=0)
        self.account = CycleAccount(name="l3fwd")
        self.latencies: List[float] = []
        self.forwarded = 0
        self.interrupts_taken = 0
        #: The server is busy until this time (work-conserving queue).
        self.busy_until = 0.0
        self._drain_scheduled = False
        self._started_at = sim.now

        if config.mechanism is Mechanism.POLLING:
            for nic in nics:
                nic.on_rx = self._polling_rx
        elif config.mechanism is Mechanism.MWAIT:
            for nic in nics:
                nic.on_rx = self._mwait_rx
        else:
            for nic in nics:
                nic.on_interrupt = self._device_interrupt
                nic.arm_interrupts()

    # ------------------------------------------------------------------
    # Polling mode
    # ------------------------------------------------------------------

    def _polling_rx(self, nic: NIC, packet: Packet) -> None:
        """A packet landed; the spinning core discovers it mid-rotation."""
        now = self.sim.now
        if self.busy_until <= now:
            # Core is in its poll rotation: uniform position in the round.
            discovery = self.rng.uniform("poll_discovery", 0.0, self.config.rotation_cost)
            self.busy_until = now + discovery
        self._schedule_drain()

    # ------------------------------------------------------------------
    # mwait mode (§2's single-queue limitation)
    # ------------------------------------------------------------------

    def _mwait_rx(self, nic: NIC, packet: Packet) -> None:
        """The parked core monitors *only* ring 0's cache line.

        A packet into ring 0 wakes the core (mwait exit latency); packets
        into any other ring sit unnoticed until something else wakes the
        core — exactly why mwait cannot replace polling for multi-queue
        data planes (§2, HyperPlane [47]).
        """
        now = self.sim.now
        if self.busy_until > now:
            # Awake and draining: the drain loop will pick this packet up.
            self._schedule_drain()
            return
        if nic.nic_id != 0:
            return  # unmonitored ring: no wakeup
        self.account.charge("mwait_wake", self.config.mwait_wake_latency)
        self.busy_until = now + self.config.mwait_wake_latency
        self._schedule_drain()

    # ------------------------------------------------------------------
    # xUI device-interrupt mode
    # ------------------------------------------------------------------

    def _device_interrupt(self, nic: NIC) -> None:
        """Forwarded device interrupt: wire latency + tracked delivery."""
        now = self.sim.now
        self.interrupts_taken += 1
        entry = (
            self.config.device_wire_latency + self.costs.timer_receive_tracked
        )
        self.account.charge("interrupt_delivery", self.costs.timer_receive_tracked)
        if self.busy_until <= now:
            self.busy_until = now + entry
        else:
            # Interrupt taken after the current drain finishes (UIF is
            # cleared inside the handler).
            self.busy_until += self.costs.timer_receive_tracked
        self._schedule_drain()

    # ------------------------------------------------------------------
    # Shared drain machinery
    # ------------------------------------------------------------------

    def _schedule_drain(self) -> None:
        if self._drain_scheduled:
            return
        self._drain_scheduled = True
        delay = max(0.0, self.busy_until - self.sim.now)
        self.sim.schedule(delay, self._drain_step, name="l3fwd_drain")

    def _drain_step(self) -> None:
        """Process one packet (the head of the fullest ring), then continue."""
        self._drain_scheduled = False
        nic = max(self.nics, key=lambda n: n.pending())
        packet = nic.poll()
        if packet is None:
            # Rings drained: in interrupt mode, scan once more and re-arm.
            if self.config.mechanism is Mechanism.XUI_DEVICE:
                scan = self.config.rotation_cost + self.config.rearm_cost
                self.account.charge("handler_scan", scan)
                self.busy_until = max(self.busy_until, self.sim.now) + scan
                for n in self.nics:
                    if not n.arm_interrupts():
                        # A packet raced in during the final scan: keep going.
                        self._schedule_drain()
                        return
            return
        service = self.config.per_packet_cost
        start = max(self.busy_until, self.sim.now)
        self.busy_until = start + service
        self.account.charge("networking", service)
        if self.lpm is not None:
            out_port = self.lpm.lookup(packet.dst_ip)
        else:
            out_port = packet.nic_id
        done = self.busy_until

        def finish(p: Packet = packet, port: int = out_port or 0, n: NIC = nic) -> None:
            n.transmit(p, self.sim.now, port)
            self.latencies.append(p.latency)
            self.forwarded += 1

        self.sim.schedule(done - self.sim.now, finish, name="l3fwd_tx")
        self.sim.schedule(done - self.sim.now, self._schedule_drain, name="l3fwd_next")

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def elapsed(self) -> float:
        return self.sim.now - self._started_at

    def free_fraction(self) -> float:
        """Fraction of core cycles left for other work (§6.2.2).

        Polling never has free cycles: whatever is not networking is burnt
        polling.  With xUI, unaccounted time is genuinely free.
        """
        elapsed = self.elapsed()
        if elapsed <= 0:
            raise SimulationError("no simulated time has elapsed")
        if self.config.mechanism is Mechanism.POLLING:
            return 0.0
        return self.account.free_fraction(elapsed)

    def networking_fraction(self) -> float:
        return self.account.category_fraction("networking", self.elapsed())

    def polling_fraction(self) -> float:
        """Cycles spent polling (polling mode: everything not networking)."""
        if self.config.mechanism is Mechanism.POLLING:
            return max(0.0, 1.0 - self.networking_fraction())
        return self.account.category_fraction("handler_scan", self.elapsed())
