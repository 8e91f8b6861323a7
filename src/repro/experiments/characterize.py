"""Cycle-tier characterization: Table 2, Figure 2, §3.5, and §6.1 worst case.

These are the reproduction of the paper's reverse-engineering study — run
against our simulated core instead of a Sapphire Rapids part, with the
paper's measured values as the calibration targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.apps import microbench as mb
from repro.cpu import isa
from repro.cpu.delivery import DrainStrategy, FlushStrategy, TrackedStrategy
from repro.cpu.multicore import MultiCoreSystem
from repro.cpu.program import Program, ProgramBuilder
from repro.experiments import cycletier
from repro.obs.latency import pair_latencies
from repro.perf import SweepRunner
from repro.perf.cache import default_cache
from repro.uintr.upid import UPID

#: Strategy constructors for sweep points, resolved by label so points stay
#: picklable plain data.
STRATEGY_FACTORIES = {
    "flush": FlushStrategy,
    "drain": partial(DrainStrategy, extra_pad=0),
    "tracked": TrackedStrategy,
}

#: Paper values these measurements are calibrated against.
PAPER_TABLE2 = {
    "uipi_end_to_end": 1360.0,
    "uipi_receive_flush": 720.0,
    "senduipi": 383.0,
    "clui": 2.0,
    "stui": 32.0,
}
PAPER_FIG4_PER_EVENT = {
    "uipi_receive_flush": 645.0,
    "uipi_receive_tracked": 231.0,
    "timer_receive_tracked": 105.0,
}


def _unit_cost_loop(instruction_factory, count: int) -> float:
    """Average cycles per instruction over a straight-line repetition."""
    builder = ProgramBuilder("unit_cost")
    for _ in range(count):
        builder.emit(instruction_factory())
    builder.emit(isa.halt())
    program = builder.build()

    def live() -> Dict[str, int]:
        system = MultiCoreSystem([program], [FlushStrategy()])
        system.run(cycletier.MAX_CYCLES, until_halted=[0])
        return {"cycles": system.cycle}

    payload = {"kind": "unit_cost_loop", "program": program, "count": count}
    return default_cache().memoize(payload, live)["cycles"] / count


def measure_senduipi_cost(count: int = 50) -> float:
    """Sender-side senduipi cost, receiver suppressed (SN set) so no
    delivery perturbs the measurement (§3.5 methodology)."""
    sender = ProgramBuilder("send_loop")
    for _ in range(count):
        sender.emit(isa.senduipi(0))
    sender.emit(isa.halt())
    receiver = ProgramBuilder("spin")
    receiver.label("loop")
    receiver.emit(isa.addi(1, 1, 1))
    receiver.emit(isa.jmp("loop"))
    receiver.emit_default_handler()
    sender_program = sender.build()
    receiver_program = receiver.build()

    def live() -> Dict[str, int]:
        system = MultiCoreSystem(
            [sender_program, receiver_program], [FlushStrategy(), FlushStrategy()]
        )
        upid_addr = system.register_handler(1)
        system.register_sender(0, upid_addr, 1)
        UPID(system.shared, upid_addr).set_suppressed(True)
        system.run(cycletier.MAX_CYCLES, until_halted=[0])
        return {"cycles": system.cycle}

    payload = {
        "kind": "senduipi_cost",
        "programs": [sender_program, receiver_program],
        "count": count,
    }
    return default_cache().memoize(payload, live)["cycles"] / count


def _end_to_end_programs(samples: int, gap: int) -> Tuple[Program, Program]:
    """Table 2's end-to-end pair: the sender issues ``samples`` UIPIs
    ``gap`` cycles apart; the receiver counts in an ``addi; jmp`` loop."""
    sender = ProgramBuilder("e2e_sender")
    sender.emit(isa.movi(6, 0))
    for i in range(samples):
        sender.emit(isa.senduipi(0))
        sender.emit(isa.movi(7, 0))
        sender.label(f"gap{i}")
        sender.emit(isa.addi(7, 7, 1))
        sender.emit(isa.blti(7, gap // 2, f"gap{i}"))
    sender.emit(isa.halt())
    receiver = ProgramBuilder("e2e_receiver")
    receiver.label("loop")
    receiver.emit(isa.addi(1, 1, 1))
    receiver.emit(isa.jmp("loop"))
    receiver.emit_default_handler()
    return sender.build(), receiver.build()


def run_end_to_end_pair(samples: int = 10, gap: int = 4000) -> MultiCoreSystem:
    """The end-to-end pair on cores 0 and 1, traced: run until the sender
    halts, then 8,000 cycles for the last delivery to land."""
    system = MultiCoreSystem(
        list(_end_to_end_programs(samples, gap)),
        [FlushStrategy(), FlushStrategy()],
        trace=True,
    )
    system.connect_uipi(0, 1, user_vector=1)
    system.run(cycletier.MAX_CYCLES, until_halted=[0])
    system.run(8000)
    return system


def measure_end_to_end_latency(samples: int = 10, gap: int = 4000) -> float:
    """senduipi issue to handler entry on the receiver (Table 2 e2e)."""

    def live() -> Dict[str, float]:
        # The measurement needs the live trace, but the *derived* latency is
        # deterministic, so the scalar itself is cacheable.
        system = run_end_to_end_pair(samples, gap)
        sends = [e.time for e in system.trace.events if e.kind == "senduipi_start" and e.detail.get("core") == 0]
        entries = [e.time for e in system.trace.events if e.kind == "handler_fetch" and e.detail.get("core") == 1]
        if not sends or not entries:
            raise SimulationError("end-to-end measurement saw no deliveries")
        latencies = _pair_latencies(sends, entries)
        if not latencies:
            raise SimulationError("could not pair sends with handler entries")
        return {"latency": sum(latencies) / len(latencies)}

    payload = {
        "kind": "e2e_latency",
        "programs": list(_end_to_end_programs(samples, gap)),
        "samples": samples,
        "gap": gap,
    }
    return default_cache().memoize(payload, live)["latency"]


def measure_interrupt_costs(quick: bool = True) -> Dict[str, float]:
    """Re-measure the CostModel constants on the cycle tier (Fig 4 method)."""
    iters = 12_000 if quick else 60_000
    interval = cycletier.DEFAULT_INTERVAL

    def workload():
        return mb.make_count_loop(iters)

    base = cycletier.run_baseline(workload()).cycles
    flush = cycletier.run_with_uipi_timer(
        workload(), FlushStrategy(), interval=interval, expected_cycles=base
    )
    tracked = cycletier.run_with_uipi_timer(
        workload(), TrackedStrategy(), interval=interval, expected_cycles=base
    )
    kb = cycletier.run_with_kb_timer(workload(), interval=interval)
    return {
        "uipi_receive_flush": cycletier.per_event_overhead(base, flush),
        "uipi_receive_tracked": cycletier.per_event_overhead(base, tracked),
        "timer_receive_tracked": cycletier.per_event_overhead(base, kb),
        "uipi_end_to_end": measure_end_to_end_latency(samples=4 if quick else 12),
        "senduipi": measure_senduipi_cost(count=30 if quick else 100),
        "clui": _unit_cost_loop(isa.clui, 60),
        "stui": _unit_cost_loop(isa.stui, 60),
    }


def run_table2(quick: bool = True) -> Dict[str, Dict[str, float]]:
    """Table 2: key UIPI performance metrics, measured vs. paper."""
    measured = measure_interrupt_costs(quick=quick)
    rows: Dict[str, Dict[str, float]] = {}
    for key, paper_value in PAPER_TABLE2.items():
        model_key = key
        rows[key] = {"paper": paper_value, "measured": measured[model_key]}
    return rows


# ---------------------------------------------------------------------------
# Figure 2: the UIPI latency timeline
# ---------------------------------------------------------------------------


def run_fig2_timeline() -> Dict[str, float]:
    """Reconstruct the Figure 2 timeline from trace events of one delivery.

    Paper reference points: senduipi issues at 0, the receiver is
    interrupted at ~380, the first observable notification event lands
    ~424 cycles later, notification+delivery take ~262, uiret ~10.
    """
    # Three spaced sends; the measurement uses the *last* (steady state —
    # the first pays cold-cache costs for the UITT/UPID lines the paper's
    # 400K-iteration averages never see).
    sender = ProgramBuilder("timeline_sender")
    for index in range(3):
        sender.emit(isa.senduipi(0))
        sender.emit(isa.movi(7, 0))
        sender.label(f"gap{index}")
        sender.emit(isa.addi(7, 7, 1))
        sender.emit(isa.blti(7, 2000, f"gap{index}"))
    sender.emit(isa.halt())
    receiver = ProgramBuilder("timeline_receiver")
    receiver.label("loop")
    receiver.emit(isa.addi(1, 1, 1))
    receiver.emit(isa.jmp("loop"))
    receiver.emit_default_handler()
    system = MultiCoreSystem(
        [sender.build(), receiver.build()],
        [FlushStrategy(), FlushStrategy()],
        trace=True,
    )
    system.connect_uipi(0, 1, user_vector=1)
    system.run(80_000, until_halted=[0])
    system.run(8_000)
    trace = system.trace

    def last_time(kind: str, core: Optional[int] = None) -> float:
        event = None
        for candidate in trace.events:
            if candidate.kind == kind and (core is None or candidate.detail.get("core") == core):
                event = candidate
        if event is None:
            raise SimulationError(f"trace event {kind!r} not found")
        return event.time

    t_send = last_time("senduipi_start", core=0)
    t_icr = last_time("icr_write", core=0)
    t_arrival = last_time("ipi_arrival", core=1)
    t_flush = last_time("flush_start", core=1)
    t_notif = last_time("notif_clear_on", core=1)
    t_deliver = last_time("uif_clear", core=1)
    t_handler = last_time("handler_fetch", core=1)
    t_uiret_exec = last_time("uiret_exec", core=1)
    t_resume = last_time("resume_fetch", core=1)
    t_delivery_done = last_time("delivery_done", core=1)
    frontend_depth = system.config.core.frontend_depth
    return {
        "send_to_interrupt": t_arrival - t_send,
        "icr_write_offset": t_icr - t_send,
        "interrupt_to_first_notif_event": t_notif - t_arrival,
        "notification_and_delivery": t_delivery_done - t_notif,
        "handler_entry_offset": t_handler - t_send,
        # uiret cost: redirect to the return address plus front-end refill.
        "uiret": (t_resume - t_uiret_exec) + frontend_depth,
        "end_to_end": t_delivery_done - t_send,
        "flush_to_notif": t_notif - t_flush,
        "deliver_done_offset": t_delivery_done - t_send,
    }


# ---------------------------------------------------------------------------
# §3.5: flush-vs-drain detection experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _FlushDrainPoint:
    """One picklable (strategy label, footprint) point of the §3.5 sweep."""

    label: str
    footprint_kb: int
    samples: int
    interval: int


def _run_flush_drain_point(point: _FlushDrainPoint) -> float:
    num_nodes = point.footprint_kb * 1024 // 64
    # Size the run generously: large footprints run at DRAM speed.
    workload = mb.make_pointer_chase(
        num_nodes=num_nodes,
        stride=64,
        iterations=max(2000, point.samples * point.interval // 12),
    )

    def live() -> Dict[str, float]:
        run = cycletier.run_with_uipi_timer(
            workload,
            STRATEGY_FACTORIES[point.label](),
            interval=point.interval,
            trace=True,
            expected_cycles=point.samples * point.interval + 20_000,
        )
        trace = run.system.trace
        arrivals = [e.time for e in trace.events if e.kind == "ipi_arrival"]
        handlers = [
            e.time
            for e in trace.events
            if e.kind == "handler_fetch" and e.detail.get("core") == 0
        ]
        latencies = _pair_latencies(arrivals, handlers)
        if latencies:
            return {"latency": sum(latencies) / len(latencies)}
        return {"latency": float("nan")}

    payload = {
        "kind": "flush_vs_drain",
        "program": workload.program,
        "memory": cycletier.memory_image(workload),
        "strategy": STRATEGY_FACTORIES[point.label](),
        "schedule": {"interval": point.interval, "samples": point.samples},
    }
    return default_cache().memoize(payload, live)["latency"]


def run_flush_vs_drain(
    footprints_kb: Optional[List[int]] = None,
    samples: int = 6,
    interval: int = 6000,
    jobs: Optional[int] = None,
) -> Dict[str, Dict[int, float]]:
    """Experiment 1 of §3.5: e2e latency vs. pointer-chase footprint.

    Under a *flush* strategy the latency is independent of in-flight work;
    under *drain* it grows with the time to resolve the in-flight chain.
    Returns mean delivery latencies keyed by strategy then footprint (KB).
    """
    footprints_kb = footprints_kb or [16, 64, 256, 1024]
    points = [
        _FlushDrainPoint(label, footprint, samples, interval)
        for label in ("flush", "drain")
        for footprint in footprints_kb
    ]
    latencies = SweepRunner(jobs).map(_run_flush_drain_point, points)
    results: Dict[str, Dict[int, float]] = {"flush": {}, "drain": {}}
    for point, latency in zip(points, latencies):
        results[point.label][point.footprint_kb] = latency
    return results


def run_flushed_uops_linearity(
    interrupt_counts: Optional[List[int]] = None, interval: int = 5000
) -> Dict[int, int]:
    """Experiment 2 of §3.5: flushed micro-ops grow linearly with the number
    of interrupts received (the flush-strategy fingerprint)."""
    interrupt_counts = interrupt_counts or [2, 4, 8]
    results: Dict[int, int] = {}
    for count in interrupt_counts:
        # The counting loop retires ~1.3 iterations/cycle; size the run so
        # all `count` interrupts land before the program halts.
        iterations = int(count * interval * 1.5) + 4000
        workload = mb.make_count_loop(iterations)
        base = cycletier.run_baseline(workload)
        base_squashed = base.stats.squashed_uops
        sender = mb.make_uipi_timer_core(interval, count)

        def live() -> Dict[str, int]:
            system = MultiCoreSystem(
                [mb.make_count_loop(iterations).program, sender.program],
                [FlushStrategy(), FlushStrategy()],
            )
            system.connect_uipi(1, 0, user_vector=1)
            system.run(cycletier.MAX_CYCLES, until_halted=[0])
            core = system.cores[0]
            return {
                "interrupts": core.stats.interrupts_delivered,
                "squashed": core.stats.squashed_uops,
            }

        payload = {
            "kind": "flushed_uops_linearity",
            "programs": [workload.program, sender.program],
            "schedule": {"interval": interval, "count": count},
        }
        loaded = default_cache().memoize(payload, live)
        results[loaded["interrupts"]] = loaded["squashed"] - base_squashed
    return results


# ---------------------------------------------------------------------------
# §6.1: maximum interrupt latency (the pathological SP chain)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _MaxLatencyPoint:
    """One picklable (strategy label, chain length) point of the §6.1 sweep."""

    label: str
    chain_length: int
    interval: int


def _run_max_latency_point(point: _MaxLatencyPoint) -> float:
    workload = mb.make_sp_dependence_chain(
        chain_length=point.chain_length, iterations=40, stride=4096
    )

    def live() -> Dict[str, float]:
        run = cycletier.run_with_uipi_timer(
            workload,
            STRATEGY_FACTORIES[point.label](),
            interval=point.interval,
            trace=True,
            expected_cycles=40 * point.chain_length * 220 + 40_000,
        )
        trace = run.system.trace
        arrivals = [e.time for e in trace.events if e.kind == "ipi_arrival"]
        # Delivery completion (not handler fetch): with tracking, the
        # delivery micro-ops can be fetched immediately yet stall on the
        # stack-pointer dependence until the chain resolves.
        done = [
            e.time
            for e in trace.events
            if e.kind == "delivery_done" and e.detail.get("core") == 0
        ]
        latencies = _pair_latencies(arrivals, done)
        return {"latency": max(latencies) if latencies else float("nan")}

    payload = {
        "kind": "max_latency",
        "program": workload.program,
        "memory": cycletier.memory_image(workload),
        "strategy": STRATEGY_FACTORIES[point.label](),
        "schedule": {"interval": point.interval},
    }
    return default_cache().memoize(payload, live)["latency"]


def run_max_latency(
    chain_lengths: Optional[List[int]] = None,
    interval: int = 8000,
    jobs: Optional[int] = None,
) -> Dict[str, Dict[int, float]]:
    """Worst-case delivery latency with a miss chain feeding the stack
    pointer (§6.1): tracked delivery is delayed by the dependence (up to
    thousands of cycles); flush squashes the chain and stays an order of
    magnitude lower."""
    chain_lengths = chain_lengths or [10, 50]
    points = [
        _MaxLatencyPoint(label, chain, interval)
        for label in ("tracked", "flush")
        for chain in chain_lengths
    ]
    latencies = SweepRunner(jobs).map(_run_max_latency_point, points)
    results: Dict[str, Dict[int, float]] = {"tracked": {}, "flush": {}}
    for point, latency in zip(points, latencies):
        results[point.label][point.chain_length] = latency
    return results


def _pair_latencies(starts: List[float], ends: List[float]) -> List[float]:
    """Pair each start with the first later end (one outstanding at a time).

    The canonical implementation lives in :mod:`repro.obs.latency`, where
    the delivery-stage histograms use it too.
    """
    return pair_latencies(starts, ends)
