"""The µ-ISA microbenchmarks: they run, halt, and compute what they claim."""

import pytest

from repro.apps import microbench as mb
from repro.common.errors import ConfigError
from repro.compiler.instrument import PollingInstrumenter, SafepointInstrumenter
from repro.cpu.delivery import FlushStrategy
from repro.cpu.multicore import MultiCoreSystem


def run_workload(workload, max_cycles=3_000_000, cores_extra=()):
    system = MultiCoreSystem(
        [workload.program, *cores_extra], [FlushStrategy() for _ in range(1 + len(cores_extra))]
    )
    workload.install(system.shared)
    system.run(max_cycles, until_halted=[0])
    assert system.cores[0].halted, f"{workload.name} did not halt"
    return system


class TestFib:
    def test_computes_fibonacci(self):
        system = run_workload(mb.make_fib(n=10))
        assert system.cores[0].arch_regs[2] == 55  # fib(10)

    def test_fib_base_cases(self):
        assert run_workload(mb.make_fib(n=1)).cores[0].arch_regs[2] == 1
        assert run_workload(mb.make_fib(n=2)).cores[0].arch_regs[2] == 1

    def test_invalid_n_rejected(self):
        with pytest.raises(ConfigError):
            mb.make_fib(n=0)


class TestLoops:
    def test_count_loop_counts(self):
        system = run_workload(mb.make_count_loop(1234))
        assert system.cores[0].arch_regs[1] == 1234

    def test_linpack_writes_daxpy_results(self):
        workload = mb.make_linpack(iterations=16, vector_len=8)
        system = run_workload(workload)
        # b[i] = 3*a[i] + b[i] for the first 8 indices, applied twice
        # (16 iterations wrap the 8-element vectors twice).
        a0, b0 = 1, 1  # init: a[i]=i+1, b[i]=2i+1
        once = 3 * a0 + b0
        twice = 3 * a0 + once
        assert system.shared.read(mb.ARRAY_B_BASE) == twice

    def test_linpack_rejects_nonpower_of_two(self):
        with pytest.raises(ConfigError):
            mb.make_linpack(vector_len=100)

    def test_memops_copies(self):
        workload = mb.make_memops(iterations=64, footprint_kb=8)
        system = run_workload(workload)
        dst = mb.ARRAY_B_BASE + 8 * 1024
        assert system.shared.read(dst) == system.shared.read(mb.ARRAY_A_BASE)

    def test_base64_produces_output(self):
        workload = mb.make_base64(iterations=32)
        system = run_workload(workload)
        assert system.shared.read(mb.ARRAY_B_BASE) != 0


class TestMatmul:
    def test_matmul_result_matches_numpy(self):
        import numpy as np

        size = 4
        workload = mb.make_matmul(size=size)
        system = run_workload(workload)
        a = np.array([[(i * size + k) % 7 + 1 for k in range(size)] for i in range(size)])
        b = np.array([[(k * size + j) % 5 + 1 for j in range(size)] for k in range(size)])
        expected = a @ b
        c_base = mb.MATRIX_BASE + 2 * size * size * 8
        for i in range(size):
            for j in range(size):
                got = system.shared.read(c_base + 8 * (i * size + j))
                assert got == expected[i][j], (i, j)


class TestPointerChase:
    def test_chain_is_cyclic(self):
        workload = mb.make_pointer_chase(num_nodes=16, stride=64, iterations=5)
        system = run_workload(workload)
        # After 5 hops from the base, r3 is node 5's address.
        assert system.cores[0].arch_regs[3] == mb.CHASE_BASE + 5 * 64

    def test_needs_two_nodes(self):
        with pytest.raises(ConfigError):
            mb.make_pointer_chase(num_nodes=1)

    def test_sp_chain_restores_stack_pointer(self):
        workload = mb.make_sp_dependence_chain(chain_length=4, iterations=6, num_nodes=64)
        system = run_workload(workload)
        core = system.cores[0]
        # SP restored to the boot value after the run (r9 saved it).
        assert core.arch_regs[15] == core.arch_regs[9]

    def test_sp_chain_validates_powers_of_two(self):
        with pytest.raises(ConfigError):
            mb.make_sp_dependence_chain(num_nodes=100)


class TestQuicksort:
    def test_sorts_correctly(self):
        n = 64
        workload = mb.make_quicksort(n=n, seed=3)
        system = run_workload(workload, max_cycles=8_000_000)
        values = [system.shared.read(mb.ARRAY_A_BASE + 8 * i) for i in range(n)]
        assert values == sorted(values)

    def test_multiset_preserved(self):
        n = 48
        workload = mb.make_quicksort(n=n, seed=9)
        # Capture the input by applying init to a scratch memory.
        from repro.cpu.cache import SharedMemory

        scratch = SharedMemory()
        workload.install(scratch)
        before = sorted(scratch.read(mb.ARRAY_A_BASE + 8 * i) for i in range(n))
        system = run_workload(workload, max_cycles=8_000_000)
        after = [system.shared.read(mb.ARRAY_A_BASE + 8 * i) for i in range(n)]
        assert after == before

    def test_sorts_under_interrupts(self):
        """Preemption via KB timer must not perturb the sort."""
        from repro.cpu.delivery import TrackedStrategy

        n = 256
        workload = mb.make_quicksort(n=n, seed=5)
        system = MultiCoreSystem([workload.program], [TrackedStrategy()])
        workload.install(system.shared)
        system.enable_kb_timer(0)
        system.cores[0].uintr.kb_timer.arm_periodic(1500, now=0)
        system.run(8_000_000, until_halted=[0])
        assert system.cores[0].halted
        assert system.cores[0].stats.interrupts_delivered >= 2
        values = [system.shared.read(mb.ARRAY_A_BASE + 8 * i) for i in range(n)]
        assert values == sorted(values)

    def test_too_small_rejected(self):
        with pytest.raises(ConfigError):
            mb.make_quicksort(n=1)


class TestFnvHash:
    def test_digest_matches_reference(self):
        iterations, words = 256, 64
        workload = mb.make_fnv_hash(iterations=iterations, buffer_words=words)
        system = run_workload(workload)
        digest = 0x811C9DC5
        mask = (1 << 64) - 1
        buffer = [(i * 2654435761) % (1 << 32) for i in range(words)]
        for i in range(iterations):
            digest = ((digest ^ buffer[i % words]) * 0x01000193) & mask
        assert system.shared.read(mb.ARRAY_B_BASE) == digest

    def test_buffer_power_of_two_required(self):
        with pytest.raises(ConfigError):
            mb.make_fnv_hash(buffer_words=100)


class TestTimerCores:
    def test_uipi_timer_core_sends_at_interval(self):
        from tests.conftest import build_spin_receiver

        sender = mb.make_uipi_timer_core(interval_cycles=3000, count=4)
        system = MultiCoreSystem(
            [sender.program, build_spin_receiver()], [FlushStrategy(), FlushStrategy()]
        )
        system.connect_uipi(0, 1, user_vector=1)
        system.run(200_000, until_halted=[0])
        system.run(8_000)
        assert system.cores[1].stats.interrupts_delivered == 4

    def test_poll_timer_core_sets_flag(self):
        flag = 0x60_0000
        sender = mb.make_poll_timer_core(interval_cycles=2000, count=3, flag_addr=flag)
        system = MultiCoreSystem([sender.program], [FlushStrategy()])
        system.run(100_000, until_halted=[0])
        assert system.shared.read(flag) == 1

    def test_interval_validated(self):
        with pytest.raises(ConfigError):
            mb.make_uipi_timer_core(0, 1)
        with pytest.raises(ConfigError):
            mb.make_poll_timer_core(-5, 1, 0x1000)


class TestInstrumentedVariants:
    def test_polling_instrumented_still_correct(self):
        workload = mb.make_count_loop(500, instrument=PollingInstrumenter())
        system = run_workload(workload)
        assert system.cores[0].arch_regs[1] == 500

    def test_safepoint_instrumented_still_correct(self):
        workload = mb.make_count_loop(500, instrument=SafepointInstrumenter())
        system = run_workload(workload)
        assert system.cores[0].arch_regs[1] == 500

    def test_safepoint_backedge_carries_prefix(self):
        workload = mb.make_count_loop(10, instrument=SafepointInstrumenter())
        assert any(i.safepoint for i in workload.program.instructions)

    def test_fib_with_polling_is_correct(self):
        workload = mb.make_fib(n=8, instrument=PollingInstrumenter())
        system = run_workload(workload)
        assert system.cores[0].arch_regs[2] == 21


class TestMemoryImages:
    def test_image_built_once_and_shared(self):
        """Workloads built with the same image arguments share one built
        image, and every install writes the same words as the first."""
        from repro.cpu.cache import SharedMemory

        a = mb.make_pointer_chase(64, stride=64, iterations=5)
        b = mb.make_pointer_chase(64, stride=64, iterations=9)
        other = mb.make_pointer_chase(32, stride=64, iterations=5)
        memories = [SharedMemory() for _ in range(4)]
        for workload, memory in zip((a, a, b, other), memories):
            workload.install(memory)
        assert a.init_memory._words is b.init_memory._words
        assert other.init_memory._words is not a.init_memory._words
        assert memories[0].snapshot_words() == memories[1].snapshot_words()
        assert memories[0].snapshot_words() == memories[2].snapshot_words()
        assert len(memories[3].snapshot_words()) == 32
        assert memories[0].read(mb.CHASE_BASE + 63 * 64) == mb.CHASE_BASE
