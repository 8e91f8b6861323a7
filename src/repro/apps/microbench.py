"""µ-ISA microbenchmarks — the programs the cycle-tier experiments run.

These are structural stand-ins for the paper's benchmarks: *fib* (recursive,
call/branch heavy), *linpack* (FP inner loop), *memops* (memory streaming),
*matmul* (nested FP loops), *base64* (table lookups and bit twiddling), and
the pointer-chasing kernels of §3.5 and §6.1.  Register conventions:

- r1-r9: benchmark state
- r10/r11: reserved for instrumentation (poll flag base / scratch)
- r12/r13: reserved for the interrupt handler
- r14: link register, r15: stack pointer
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.common.errors import ConfigError
from repro.compiler.instrument import Instrumenter, NullInstrumenter
from repro.cpu import isa
from repro.cpu.cache import SharedMemory
from repro.cpu.program import Program, ProgramBuilder

#: Data-segment addresses used by the benchmarks (shared memory).
ARRAY_A_BASE = 0x30_0000
ARRAY_B_BASE = 0x38_0000
TABLE_BASE = 0x3C_0000
CHASE_BASE = 0x40_0000
MATRIX_BASE = 0x50_0000
#: Memory word incremented by the default interrupt handler.
HANDLER_COUNTER_ADDR = 0x20_0000


@dataclass
class Workload:
    """A runnable cycle-tier workload: the program plus its memory image."""

    name: str
    program: Program
    init_memory: Optional[Callable[[SharedMemory], None]] = None

    def install(self, memory: SharedMemory) -> None:
        if self.init_memory is not None:
            self.init_memory(memory)


class _Words(dict):
    """A built memory image, ``{word address: value}``."""

    __slots__ = ("__weakref__",)


#: Built images by ``(builder, image arguments)``: workloads built with the
#: same arguments share one image while any of them is alive.
_IMAGES: "weakref.WeakValueDictionary[tuple, _Words]" = weakref.WeakValueDictionary()


class _Image:
    """A workload's fixed memory image: built from ``pairs()`` (``(addr,
    value)`` writes, in order) on the first install, then written whole by
    every install (:meth:`SharedMemory.write_words`).  ``key`` names the
    builder and every argument the image depends on."""

    __slots__ = ("_key", "_pairs", "_words")

    def __init__(self, key: tuple, pairs: Callable[[], Iterable[Tuple[int, int]]]) -> None:
        self._key = key
        self._pairs = pairs
        self._words: Optional[Dict[int, int]] = None

    def __call__(self, memory: SharedMemory) -> None:
        words = self._words
        if words is None:
            words = _IMAGES.get(self._key)
            if words is None:
                words = _Words((addr & ~0x7, value) for addr, value in self._pairs())
                _IMAGES[self._key] = words
            self._words = words
        memory.write_words(words)


def _finish(
    builder: ProgramBuilder,
    instrument: Instrumenter,
    handler_body: int,
    handler_counter: Optional[int],
    name: str,
    init_memory: Optional[Callable[[SharedMemory], None]] = None,
) -> Workload:
    """Emit the yield stub and default handler, then build the workload."""
    instrument.finalize(builder)
    builder.emit_default_handler(
        body_instructions=handler_body, counter_addr=handler_counter
    )
    return Workload(name=name, program=builder.build(), init_memory=init_memory)


def _backedge(
    builder: ProgramBuilder, instrument: Instrumenter, branch: isa.Instruction
) -> None:
    """Instrument and emit one loop back-edge."""
    instrument.at_loop_backedge(builder)
    builder.emit(instrument.wrap_backedge(branch))


# ---------------------------------------------------------------------------
# Benchmarks
# ---------------------------------------------------------------------------


def make_count_loop(
    iterations: int,
    instrument: Optional[Instrumenter] = None,
    handler_body: int = 4,
    handler_counter: Optional[int] = HANDLER_COUNTER_ADDR,
) -> Workload:
    """The simplest workload: a dependent counting loop, then halt."""
    instrument = instrument or NullInstrumenter()
    b = ProgramBuilder("count_loop")
    instrument.setup(b)
    b.emit(isa.movi(1, 0))
    b.emit(isa.movi(2, iterations))
    b.label("loop")
    b.emit(isa.addi(1, 1, 1))
    _backedge(b, instrument, isa.blt(1, 2, "loop"))
    b.emit(isa.halt())
    return _finish(b, instrument, handler_body, handler_counter, "count_loop")


def make_fib(
    n: int = 18,
    instrument: Optional[Instrumenter] = None,
    handler_body: int = 4,
    handler_counter: Optional[int] = HANDLER_COUNTER_ADDR,
) -> Workload:
    """Recursive Fibonacci — call/return and branch heavy (short functions).

    This is the shape that makes per-function-entry polling expensive (§2:
    "tight loops or short functions").
    """
    if n < 1:
        raise ConfigError("fib requires n >= 1")
    instrument = instrument or NullInstrumenter()
    b = ProgramBuilder("fib")
    instrument.setup(b)
    b.emit(isa.movi(1, n))
    b.emit(isa.call("fib"))
    b.emit(isa.halt())

    b.label("fib")
    # Prologue first so the instrumentation stub may safely use CALL.
    b.emit(isa.subi(15, 15, 16))
    b.emit(isa.store(14, 15, 0))  # save LR
    b.emit(isa.store(1, 15, 8))  # save n
    instrument.at_function_entry(b)
    b.emit(isa.blti(1, 2, "fib_base"))
    b.emit(isa.subi(1, 1, 1))
    b.emit(isa.call("fib"))
    b.emit(isa.load(1, 15, 8))  # reload n
    b.emit(isa.store(2, 15, 8))  # save fib(n-1)
    b.emit(isa.subi(1, 1, 2))
    b.emit(isa.call("fib"))
    b.emit(isa.load(3, 15, 8))  # fib(n-1)
    b.emit(isa.add(2, 2, 3))
    b.emit(isa.jmp("fib_ret"))
    b.label("fib_base")
    b.emit(isa.mov(2, 1))  # fib(0)=0, fib(1)=1
    b.label("fib_ret")
    b.emit(isa.load(14, 15, 0))
    b.emit(isa.addi(15, 15, 16))
    b.emit(isa.ret())
    return _finish(b, instrument, handler_body, handler_counter, "fib")


def make_linpack(
    iterations: int = 4000,
    vector_len: int = 512,
    instrument: Optional[Instrumenter] = None,
    handler_body: int = 4,
    handler_counter: Optional[int] = HANDLER_COUNTER_ADDR,
) -> Workload:
    """A daxpy-style FP inner loop over L1-resident vectors (linpack2)."""
    instrument = instrument or NullInstrumenter()
    mask = vector_len - 1
    if vector_len & mask:
        raise ConfigError("vector_len must be a power of two")
    b = ProgramBuilder("linpack")
    instrument.setup(b)
    b.emit(isa.movi(1, 0))
    b.emit(isa.movi(2, iterations))
    b.emit(isa.movi(3, ARRAY_A_BASE))
    b.emit(isa.movi(4, ARRAY_B_BASE))
    b.emit(isa.movi(5, 3))  # alpha
    b.label("loop")
    b.emit(isa.andi(6, 1, mask))
    b.emit(isa.shli(6, 6, 3))
    b.emit(isa.add(7, 3, 6))
    b.emit(isa.add(8, 4, 6))
    b.emit(isa.load(9, 7, 0))  # a[i]
    b.emit(isa.fmul(9, 9, 5))  # alpha * a[i]
    b.emit(isa.load(6, 8, 0))  # b[i]
    b.emit(isa.fadd(9, 9, 6))
    b.emit(isa.store(9, 8, 0))  # b[i] = alpha*a[i] + b[i]
    b.emit(isa.addi(1, 1, 1))
    _backedge(b, instrument, isa.blt(1, 2, "loop"))
    b.emit(isa.halt())

    def image():
        for i in range(vector_len):
            yield ARRAY_A_BASE + 8 * i, i + 1
            yield ARRAY_B_BASE + 8 * i, 2 * i + 1

    return _finish(b, instrument, handler_body, handler_counter, "linpack", _Image(("linpack", vector_len), image))


def make_memops(
    iterations: int = 4000,
    footprint_kb: int = 256,
    instrument: Optional[Instrumenter] = None,
    handler_body: int = 4,
    handler_counter: Optional[int] = HANDLER_COUNTER_ADDR,
) -> Workload:
    """A streaming copy loop with a footprint well past the L1 (memops)."""
    instrument = instrument or NullInstrumenter()
    words = footprint_kb * 1024 // 8
    mask = words - 1
    if words & mask:
        raise ConfigError("footprint_kb * 1024 / 8 must be a power of two")
    b = ProgramBuilder("memops")
    instrument.setup(b)
    b.emit(isa.movi(1, 0))
    b.emit(isa.movi(2, iterations))
    b.emit(isa.movi(3, ARRAY_A_BASE))
    b.emit(isa.movi(4, ARRAY_B_BASE + footprint_kb * 1024))
    b.label("loop")
    b.emit(isa.andi(6, 1, mask))
    b.emit(isa.shli(6, 6, 3))
    b.emit(isa.add(7, 3, 6))
    b.emit(isa.load(8, 7, 0))
    b.emit(isa.add(9, 4, 6))
    b.emit(isa.store(8, 9, 0))
    b.emit(isa.addi(1, 1, 1))
    _backedge(b, instrument, isa.blt(1, 2, "loop"))
    b.emit(isa.halt())
    return _finish(b, instrument, handler_body, handler_counter, "memops")


def make_matmul(
    size: int = 12,
    instrument: Optional[Instrumenter] = None,
    handler_body: int = 4,
    handler_counter: Optional[int] = HANDLER_COUNTER_ADDR,
) -> Workload:
    """Dense ``size x size`` matrix multiply — nested FP loops (matmul)."""
    instrument = instrument or NullInstrumenter()
    a_base = MATRIX_BASE
    b_base = MATRIX_BASE + size * size * 8
    c_base = MATRIX_BASE + 2 * size * size * 8
    b = ProgramBuilder("matmul")
    instrument.setup(b)
    b.emit(isa.movi(1, 0))  # i
    b.label("i_loop")
    b.emit(isa.movi(2, 0))  # j
    b.label("j_loop")
    b.emit(isa.movi(3, 0))  # k
    b.emit(isa.movi(9, 0))  # acc
    b.label("k_loop")
    # a[i][k]
    b.emit(isa.movi(4, size))
    b.emit(isa.mul(5, 1, 4))
    b.emit(isa.add(5, 5, 3))
    b.emit(isa.shli(5, 5, 3))
    b.emit(isa.addi(5, 5, a_base & 0x7FFFFFFF))
    b.emit(isa.load(6, 5, 0))
    # b[k][j]
    b.emit(isa.mul(7, 3, 4))
    b.emit(isa.add(7, 7, 2))
    b.emit(isa.shli(7, 7, 3))
    b.emit(isa.addi(7, 7, b_base & 0x7FFFFFFF))
    b.emit(isa.load(8, 7, 0))
    b.emit(isa.fmul(6, 6, 8))
    b.emit(isa.fadd(9, 9, 6))
    b.emit(isa.addi(3, 3, 1))
    _backedge(b, instrument, isa.blti(3, size, "k_loop"))
    # c[i][j] = acc
    b.emit(isa.mul(5, 1, 4))
    b.emit(isa.add(5, 5, 2))
    b.emit(isa.shli(5, 5, 3))
    b.emit(isa.addi(5, 5, c_base & 0x7FFFFFFF))
    b.emit(isa.store(9, 5, 0))
    b.emit(isa.addi(2, 2, 1))
    _backedge(b, instrument, isa.blti(2, size, "j_loop"))
    b.emit(isa.addi(1, 1, 1))
    _backedge(b, instrument, isa.blti(1, size, "i_loop"))
    b.emit(isa.halt())

    def image():
        for i in range(size * size):
            yield a_base + 8 * i, (i % 7) + 1
            yield b_base + 8 * i, (i % 5) + 1

    return _finish(b, instrument, handler_body, handler_counter, "matmul", _Image(("matmul", size), image))


def make_base64(
    iterations: int = 3000,
    instrument: Optional[Instrumenter] = None,
    handler_body: int = 4,
    handler_counter: Optional[int] = HANDLER_COUNTER_ADDR,
) -> Workload:
    """Base64-style encoding: table lookups plus shifts/masks per word."""
    instrument = instrument or NullInstrumenter()
    b = ProgramBuilder("base64")
    instrument.setup(b)
    b.emit(isa.movi(1, 0))
    b.emit(isa.movi(2, iterations))
    b.emit(isa.movi(3, ARRAY_A_BASE))
    b.emit(isa.movi(4, ARRAY_B_BASE))
    b.emit(isa.movi(5, TABLE_BASE))
    b.label("loop")
    b.emit(isa.andi(6, 1, 1023))
    b.emit(isa.shli(6, 6, 3))
    b.emit(isa.add(7, 3, 6))
    b.emit(isa.load(8, 7, 0))  # input word
    # Two independent 6-bit groups -> parallel table lookups (the tight,
    # high-IPC loop shape that makes per-iteration polling checks visible).
    b.emit(isa.andi(7, 8, 63))
    b.emit(isa.shli(7, 7, 3))
    b.emit(isa.add(7, 5, 7))
    b.emit(isa.load(7, 7, 0))
    b.emit(isa.shri(9, 8, 6))
    b.emit(isa.andi(9, 9, 63))
    b.emit(isa.shli(9, 9, 3))
    b.emit(isa.add(9, 5, 9))
    b.emit(isa.load(9, 9, 0))
    b.emit(isa.shli(9, 9, 8))
    b.emit(isa.bxor(9, 9, 7))
    b.emit(isa.add(7, 4, 6))
    b.emit(isa.store(9, 7, 0))
    b.emit(isa.addi(1, 1, 1))
    _backedge(b, instrument, isa.blt(1, 2, "loop"))
    b.emit(isa.halt())

    def image():
        for i in range(64):
            yield TABLE_BASE + 8 * i, 0x41 + i
        for i in range(1024):
            yield ARRAY_A_BASE + 8 * i, i * 2654435761 % (1 << 30)

    return _finish(b, instrument, handler_body, handler_counter, "base64", _Image(("base64",), image))


def make_pointer_chase(
    num_nodes: int,
    stride: int = 64,
    iterations: int = 2000,
    feed_stack_pointer: bool = False,
    handler_body: int = 4,
    handler_counter: Optional[int] = HANDLER_COUNTER_ADDR,
    unroll: int = 1,
) -> Workload:
    """Pointer chasing over a ``num_nodes``-node cyclic list (§3.5, §6.1).

    The footprint (``num_nodes * stride``) controls the cache-miss rate of
    the chain.  With ``feed_stack_pointer``, every chased value updates the
    stack pointer (restored from a saved copy at the end) — the §6.1
    pathological case where the interrupt-delivery push depends on the whole
    in-flight chain.

    ``unroll`` emits that many serially-dependent ``p = *p`` hops per loop
    iteration (``iterations * unroll`` hops total).  The loads stay one
    dependence chain — no overlap between hops — so a larger ``unroll``
    amortizes the loop-control bookkeeping over more full-latency memory
    stalls: the loop body goes almost entirely quiescent, the shape the
    cycle-skipping engine is benchmarked against.
    """
    if num_nodes < 2:
        raise ConfigError("pointer chase needs at least 2 nodes")
    if unroll < 1:
        raise ConfigError("unroll must be >= 1")
    b = ProgramBuilder("pointer_chase")
    b.emit(isa.movi(1, 0))
    b.emit(isa.movi(2, iterations))
    b.emit(isa.movi(3, CHASE_BASE))
    if feed_stack_pointer:
        b.emit(isa.mov(9, 15))  # save real SP
    b.label("loop")
    for _ in range(unroll):
        b.emit(isa.load(3, 3, 0))  # p = *p
    if feed_stack_pointer:
        # Make SP depend on the chain (then keep chasing from it).
        b.emit(isa.mov(15, 3))
        b.emit(isa.mov(3, 15))
    b.emit(isa.addi(1, 1, 1))
    b.emit(isa.blt(1, 2, "loop"))
    if feed_stack_pointer:
        b.emit(isa.mov(15, 9))  # restore SP
    b.emit(isa.halt())

    def image():
        for i in range(num_nodes):
            yield CHASE_BASE + i * stride, CHASE_BASE + ((i + 1) % num_nodes) * stride

    return _finish(
        b, NullInstrumenter(), handler_body, handler_counter, "pointer_chase",
        _Image(("pointer_chase", num_nodes, stride), image),
    )


def make_quicksort(
    n: int = 128,
    seed: int = 1,
    instrument: Optional[Instrumenter] = None,
    handler_body: int = 4,
    handler_counter: Optional[int] = HANDLER_COUNTER_ADDR,
) -> Workload:
    """Iterative quicksort (Lomuto partition, explicit range stack).

    Branch-heavy with data-dependent control flow — the hardest case for
    the predictor and a strong correctness exercise of the memory system.
    Sorts ``n`` pseudo-random words in place at ``ARRAY_A_BASE``.
    """
    if n < 2:
        raise ConfigError("quicksort needs at least 2 elements")
    instrument = instrument or NullInstrumenter()
    range_stack = ARRAY_B_BASE  # the explicit (lo, hi) range stack
    b = ProgramBuilder("quicksort")
    instrument.setup(b)
    b.emit(isa.movi(9, ARRAY_A_BASE))
    b.emit(isa.movi(3, range_stack))
    # push (0, n-1)
    b.emit(isa.movi(7, 0))
    b.emit(isa.store(7, 3, 0))
    b.emit(isa.movi(7, n - 1))
    b.emit(isa.store(7, 3, 8))
    b.emit(isa.addi(3, 3, 16))
    b.label("loop")
    instrument.at_loop_backedge(b)
    b.emit(isa.beqi(3, range_stack, "done"))
    b.emit(isa.subi(3, 3, 16))
    b.emit(isa.load(1, 3, 0))  # lo
    b.emit(isa.load(2, 3, 8))  # hi
    b.emit(isa.bge(1, 2, "loop"))  # trivial range
    # pivot = a[hi]
    b.emit(isa.shli(7, 2, 3))
    b.emit(isa.add(7, 9, 7))
    b.emit(isa.load(6, 7, 0))
    # i = lo - 1 ; j = lo
    b.emit(isa.subi(4, 1, 1))
    b.emit(isa.mov(5, 1))
    b.label("part")
    b.emit(isa.bge(5, 2, "part_done"))
    b.emit(isa.shli(7, 5, 3))
    b.emit(isa.add(7, 9, 7))
    b.emit(isa.load(8, 7, 0))  # a[j]
    b.emit(isa.blt(6, 8, "no_swap"))  # pivot < a[j]: skip
    b.emit(isa.addi(4, 4, 1))
    # swap a[i] <-> a[j]
    b.emit(isa.shli(11, 4, 3))
    b.emit(isa.add(11, 9, 11))
    b.emit(isa.load(12, 11, 0))
    b.emit(isa.store(8, 11, 0))
    b.emit(isa.store(12, 7, 0))
    b.label("no_swap")
    b.emit(isa.addi(5, 5, 1))
    b.emit(isa.jmp("part"))
    b.label("part_done")
    # swap a[i+1] <-> a[hi]; p = i+1
    b.emit(isa.addi(4, 4, 1))
    b.emit(isa.shli(11, 4, 3))
    b.emit(isa.add(11, 9, 11))
    b.emit(isa.load(12, 11, 0))
    b.emit(isa.shli(7, 2, 3))
    b.emit(isa.add(7, 9, 7))
    b.emit(isa.load(8, 7, 0))
    b.emit(isa.store(8, 11, 0))
    b.emit(isa.store(12, 7, 0))
    # push (lo, p-1)
    b.emit(isa.store(1, 3, 0))
    b.emit(isa.subi(7, 4, 1))
    b.emit(isa.store(7, 3, 8))
    b.emit(isa.addi(3, 3, 16))
    # push (p+1, hi)
    b.emit(isa.addi(7, 4, 1))
    b.emit(isa.store(7, 3, 0))
    b.emit(isa.store(2, 3, 8))
    b.emit(isa.addi(3, 3, 16))
    b.emit(isa.jmp("loop"))
    b.label("done")
    b.emit(isa.halt())

    def image():
        state = seed or 1
        for i in range(n):
            state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            yield ARRAY_A_BASE + 8 * i, (state >> 33) % 100_000

    return _finish(b, instrument, handler_body, handler_counter, "quicksort", _Image(("quicksort", n, seed), image))


def make_fnv_hash(
    iterations: int = 4000,
    buffer_words: int = 1024,
    instrument: Optional[Instrumenter] = None,
    handler_body: int = 4,
    handler_counter: Optional[int] = HANDLER_COUNTER_ADDR,
) -> Workload:
    """FNV-1a hashing over a buffer — serial multiply/xor chain per word
    (the shape of checksum/dedup kernels in the 'datacenter tax' [40])."""
    if buffer_words & (buffer_words - 1):
        raise ConfigError("buffer_words must be a power of two")
    instrument = instrument or NullInstrumenter()
    b = ProgramBuilder("fnv_hash")
    instrument.setup(b)
    b.emit(isa.movi(1, 0))
    b.emit(isa.movi(2, iterations))
    b.emit(isa.movi(3, ARRAY_A_BASE))
    b.emit(isa.movi(4, 0x811C9DC5))  # FNV offset basis (32-bit variant)
    b.emit(isa.movi(5, 0x01000193))  # FNV prime
    b.label("loop")
    b.emit(isa.andi(6, 1, buffer_words - 1))
    b.emit(isa.shli(6, 6, 3))
    b.emit(isa.add(6, 3, 6))
    b.emit(isa.load(7, 6, 0))
    b.emit(isa.bxor(4, 4, 7))
    b.emit(isa.mul(4, 4, 5))
    b.emit(isa.addi(1, 1, 1))
    _backedge(b, instrument, isa.blt(1, 2, "loop"))
    # Publish the digest so tests can check it.
    b.emit(isa.movi(6, ARRAY_B_BASE))
    b.emit(isa.store(4, 6, 0))
    b.emit(isa.halt())

    def image():
        for i in range(buffer_words):
            yield ARRAY_A_BASE + 8 * i, (i * 2654435761) % (1 << 32)

    return _finish(b, instrument, handler_body, handler_counter, "fnv_hash", _Image(("fnv_hash", buffer_words), image))


def make_sp_dependence_chain(
    chain_length: int = 50,
    iterations: int = 60,
    stride: int = 4096,
    num_nodes: int = 4096,
    filler: int = 40,
    handler_body: int = 4,
    handler_counter: Optional[int] = HANDLER_COUNTER_ADDR,
) -> Workload:
    """The §6.1 pathological case: a chain of ``chain_length`` dependent
    long-latency loads whose final value becomes the stack pointer.

    A tracked interrupt arriving mid-chain cannot execute its delivery
    pushes (they read SP) until the whole chain resolves — the worst case
    for tracking; a flush simply squashes the chain.
    """
    if chain_length < 1:
        raise ConfigError("chain_length must be >= 1")
    if num_nodes < 2:
        raise ConfigError("num_nodes must be >= 2")
    if num_nodes & (num_nodes - 1):
        raise ConfigError("num_nodes must be a power of two")
    stride_shift = stride.bit_length() - 1
    if (1 << stride_shift) != stride:
        raise ConfigError("stride must be a power of two")
    b = ProgramBuilder("sp_chain")
    b.emit(isa.movi(1, 0))
    b.emit(isa.movi(2, iterations))
    b.emit(isa.movi(8, CHASE_BASE))
    b.emit(isa.mov(9, 15))  # save the real SP
    b.label("loop")
    # Restart the chain at a fresh node each iteration so the dependence
    # depth seen by an arriving interrupt is exactly `chain_length`.
    b.emit(isa.movi(5, chain_length))
    b.emit(isa.mul(3, 1, 5))
    b.emit(isa.andi(3, 3, num_nodes - 1))
    b.emit(isa.shli(3, 3, stride_shift))
    b.emit(isa.add(3, 8, 3))
    for _ in range(chain_length):
        b.emit(isa.load(3, 3, 0))  # p = *p (misses: stride exceeds lines)
    # The chained value becomes the stack pointer (§6.1).
    b.emit(isa.mov(15, 3))
    for _ in range(filler):
        b.emit(isa.addi(4, 4, 1))
    b.emit(isa.mov(15, 9))  # restore SP
    b.emit(isa.addi(1, 1, 1))
    b.emit(isa.blt(1, 2, "loop"))
    b.emit(isa.mov(15, 9))
    b.emit(isa.halt())

    def image():
        for i in range(num_nodes):
            yield CHASE_BASE + i * stride, CHASE_BASE + ((i + 1) % num_nodes) * stride

    return _finish(
        b, NullInstrumenter(), handler_body, handler_counter, "sp_chain",
        _Image(("sp_chain", num_nodes, stride), image),
    )


# ---------------------------------------------------------------------------
# Timer/sender cores
# ---------------------------------------------------------------------------


def make_uipi_timer_core(interval_cycles: int, count: int, uitt_index: int = 0) -> Workload:
    """A dedicated timer core: rdtsc-spin, then ``senduipi`` each interval.

    This is the "UIPI SW Timer" configuration of Figures 4/7 — the timer
    core burns its own cycles spinning on the high-precision counter (§2).
    """
    if interval_cycles <= 0:
        raise ConfigError("interval must be positive")
    b = ProgramBuilder("uipi_timer_core")
    b.emit(isa.rdtsc(1))
    b.emit(isa.movi(2, interval_cycles))
    b.emit(isa.add(3, 1, 2))  # next deadline
    b.emit(isa.movi(4, count))
    b.emit(isa.movi(5, 0))
    b.label("outer")
    b.label("wait")
    b.emit(isa.rdtsc(6))
    b.emit(isa.blt(6, 3, "wait"))
    b.emit(isa.senduipi(uitt_index))
    b.emit(isa.add(3, 3, 2))
    b.emit(isa.addi(5, 5, 1))
    b.emit(isa.blt(5, 4, "outer"))
    b.emit(isa.halt())
    return Workload(name="uipi_timer_core", program=b.build())


def make_poll_timer_core(interval_cycles: int, count: int, flag_addr: int) -> Workload:
    """A timer core that sets a shared preemption flag each interval
    (the notification source for Concord-style polling preemption)."""
    if interval_cycles <= 0:
        raise ConfigError("interval must be positive")
    b = ProgramBuilder("poll_timer_core")
    b.emit(isa.rdtsc(1))
    b.emit(isa.movi(2, interval_cycles))
    b.emit(isa.add(3, 1, 2))
    b.emit(isa.movi(4, count))
    b.emit(isa.movi(5, 0))
    b.emit(isa.movi(7, flag_addr))
    b.emit(isa.movi(8, 1))
    b.label("outer")
    b.label("wait")
    b.emit(isa.rdtsc(6))
    b.emit(isa.blt(6, 3, "wait"))
    b.emit(isa.store(8, 7, 0))
    b.emit(isa.add(3, 3, 2))
    b.emit(isa.addi(5, 5, 1))
    b.emit(isa.blt(5, 4, "outer"))
    b.emit(isa.halt())
    return Workload(name="poll_timer_core", program=b.build())


def make_idle() -> Workload:
    """A core that halts immediately."""
    b = ProgramBuilder("idle")
    b.emit(isa.halt())
    return Workload(name="idle", program=b.build())
