"""Open-loop packet generation with exponential inter-arrivals (§5.4).

The paper modified gem5-dpdk's generator to use exponential inter-packet
gaps "to more accurately model the burstiness of real network traffic";
this generator does the same, spreading a target aggregate rate across the
configured NICs.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.errors import ConfigError
from repro.common.rng import RngStreams
from repro.net.nic import NIC
from repro.net.packet import Packet
from repro.sim.simulator import Simulator


class PacketGenerator:
    """Drives packets into one or more NICs inside an event simulation."""

    def __init__(
        self,
        sim: Simulator,
        nics: List[NIC],
        rate_pps: float,
        rng: Optional[RngStreams] = None,
        clock_hz: float = 2e9,
        address_pool: Optional[List[int]] = None,
    ) -> None:
        if not nics:
            raise ConfigError("at least one NIC is required")
        if rate_pps <= 0:
            raise ConfigError(f"rate must be positive, got {rate_pps}")
        self.sim = sim
        self.nics = nics
        self.rng = rng or RngStreams(seed=0)
        #: Mean gap between packets on *each* NIC (load split evenly).
        self.per_nic_gap = clock_hz / (rate_pps / len(nics))
        self.address_pool = address_pool or [0x0A000001]
        self.generated = 0
        self._stopped = False

    def start(self) -> None:
        for nic in self.nics:
            self._schedule_next(nic)

    def stop(self) -> None:
        self._stopped = True

    def _schedule_next(self, nic: NIC) -> None:
        gap = self.rng.exponential(f"pktgen{nic.nic_id}", self.per_nic_gap)
        self.sim.schedule(gap, lambda: self._emit(nic), name=f"pkt:nic{nic.nic_id}")

    def _emit(self, nic: NIC) -> None:
        if self._stopped:
            return
        pool = self.address_pool
        addr = pool[self.rng.choice_index("pkt_addr", len(pool))]
        packet = Packet(dst_ip=addr, arrival_time=self.sim.now, nic_id=nic.nic_id)
        nic.receive(packet)
        self.generated += 1
        self._schedule_next(nic)
