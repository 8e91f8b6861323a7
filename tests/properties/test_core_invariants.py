"""Cycle-tier invariants: determinism, in-order commit, strategy equivalence."""

import pytest

from tests.conftest import COUNTER_ADDR, build_count_to, build_sender, build_spin_receiver

from repro.cpu.delivery import DrainStrategy, FlushStrategy, TrackedStrategy
from repro.cpu.multicore import MultiCoreSystem


class TestDeterminism:
    def test_identical_runs_identical_cycles(self):
        def run():
            system = MultiCoreSystem([build_count_to(5000)], [FlushStrategy()])
            system.run(200_000, until_halted=[0])
            return system.cycle, system.cores[0].stats.committed_uops

        assert run() == run()

    def test_identical_uipi_runs_identical(self):
        def run():
            system = MultiCoreSystem(
                [build_sender(3), build_spin_receiver()],
                [FlushStrategy(), TrackedStrategy()],
            )
            system.connect_uipi(0, 1, user_vector=1)
            system.run(200_000, until_halted=[0])
            system.run(10_000)
            receiver = system.cores[1]
            return (
                system.cycle,
                receiver.stats.interrupts_delivered,
                receiver.arch_regs[1],
                system.shared.read(COUNTER_ADDR),
            )

        assert run() == run()


class _RecordingFlush(FlushStrategy):
    """Flush delivery that records every committed µop's sequence number
    (``on_commit`` is the core's per-commit hook)."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def on_commit(self, uop):
        self.log.append(uop.seq)


class TestCommitOrder:
    def test_uops_commit_in_program_order(self):
        per_core = {0: [], 1: []}
        system = MultiCoreSystem(
            [build_sender(2), build_spin_receiver()],
            [_RecordingFlush(per_core[0]), _RecordingFlush(per_core[1])],
        )
        system.connect_uipi(0, 1, user_vector=1)
        system.run(120_000, until_halted=[0])
        for core_id, seqs in per_core.items():
            assert seqs, f"core {core_id} committed nothing"
            assert seqs == sorted(seqs), f"core {core_id} committed out of order"
            assert len(set(seqs)) == len(seqs), f"core {core_id} double-committed"


class TestStrategyEquivalence:
    """Interrupt delivery strategy changes timing, never program results."""

    @pytest.mark.parametrize(
        "strategy_factory",
        [FlushStrategy, TrackedStrategy, lambda: DrainStrategy(extra_pad=13)],
        ids=["flush", "tracked", "drain"],
    )
    def test_program_results_strategy_independent(self, strategy_factory):
        system = MultiCoreSystem(
            [build_count_to(20_000), build_sender(4, gap_iterations=400)],
            [strategy_factory(), FlushStrategy()],
        )
        system.connect_uipi(1, 0, user_vector=1)
        system.run(2_000_000, until_halted=[0])
        core = system.cores[0]
        assert core.halted
        # The program's own architectural results are identical regardless
        # of how interrupts were delivered.
        assert core.arch_regs[1] == 20_000
        # Every delivered interrupt ran the handler exactly once.
        assert system.shared.read(COUNTER_ADDR) == core.stats.interrupts_delivered
