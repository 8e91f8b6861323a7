"""Differential test of the macro tier's closed-form evaluator.

``_Evaluation.solve`` finds a load-free affine loop body's exit with
integer arithmetic and ``seek`` jumps its register file to any period;
``settle`` then steps only the positions a replay reads.  Every case here
runs the same body twice — stepped position by position to a horizon, and
solved — and requires equal records over both ranges a replay reads, the
same ``exit`` and the same ``regs_after``.  Bodies are the decoded window
tuples ``(op, dest, src_regs, imm, target, pc)`` of
``macroop._build_template``, an RDTSC slot carrying its period-0 reading
in ``imm``.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

import pytest

from repro.common.errors import SimulationError
from repro.cpu import macroop
from repro.cpu.isa import Op

MASK64 = (1 << 64) - 1
#: The pc of the instruction after the loop; a branch there leaves it.
OUT = 1_000


def _no_loads(addr: int) -> int:
    raise AssertionError("a load-free body read memory")


def _stepped(body, regs0, delta, horizon):
    ev = macroop._Evaluation(body, regs0, _no_loads, delta)
    ev.extend(horizon)
    return ev


def _check(body, regs0: Sequence[int], delta: int, rob_len: int, n_bound: int) -> Optional[bool]:
    """Run one body both ways, as a replay of at most ``n_bound`` periods
    would; returns whether the solver took it (None: the stepped prefix
    already left the loop, so no replay would ask)."""
    cc = len(body)
    horizon = (n_bound + 1) * cc + rob_len
    full = _stepped(body, list(regs0), delta, horizon)
    ev = macroop._Evaluation(body, list(regs0), _no_loads, delta)
    ev.extend(cc + rob_len)
    if ev.exit is not None:
        return None
    prefix = list(ev.records)
    assert prefix == full.records[: cc + rob_len]
    if not ev.solve(horizon):
        assert ev.exit is None and ev.records == prefix and ev.start == 0
        return False
    assert ev.exit == full.exit
    n = n_bound if ev.exit is None else min(n_bound, (ev.exit - rob_len) // cc - 1)
    if n >= 1:
        ev.settle(n, rob_len)
        assert ev.exit == full.exit
        lo, hi = n * cc, (n + 1) * cc + rob_len
        assert ev.start == lo
        assert ev.records == full.records[lo:hi]
        assert ev.regs_after(n + 1) == full.regs_after(n + 1)
    return True


# ---------------------------------------------------------------------------
# Random affine bodies

#: Registers a generated body may write; 9 and 10 are loop-invariant.
WRITABLE = (1, 2, 3, 4, 5, 6)
INVARIANT = (9, 10)
CONDITIONAL = (Op.BEQ, Op.BNE, Op.BLT, Op.BGE)


def _random_loop(rng: random.Random) -> Tuple[List[Tuple], List[int], int]:
    """One loop of straight-line affine ops closed by a backward branch (or
    a ``jmp``), with at most one forward exit branch inside.  Returns the
    loop's slots (pcs from 0), the registers and the clock period
    ``delta``."""
    delta = rng.choice((1, 2, 3, 7, 40))
    regs = [0] * 16
    for reg in WRITABLE + INVARIANT:
        regs[reg] = rng.randrange(-2_000, 2_000) & MASK64
    counter = rng.choice(WRITABLE)
    closing = rng.choice((Op.BLT, Op.BGE, Op.BNE, Op.JMP))
    stride = rng.choice((1, 2, 3, 5))
    if closing is Op.BGE or (closing is not Op.BLT and rng.random() < 0.5):
        stride = -stride
    slots: List[Tuple] = []

    def emit(op, dest, srcs, imm=0, target=None):
        slots.append((op, dest, tuple(srcs), imm, target, len(slots)))

    def bound(trips: int) -> int:
        return macroop._signed(regs[counter]) + stride * trips

    for _ in range(rng.randrange(0, 4)):
        kind = rng.randrange(5)
        dest = rng.choice([r for r in WRITABLE if r != counter])
        if kind == 0:
            emit(Op.MOVI, dest, (), rng.randrange(-50, 50))
        elif kind == 1:
            emit(Op.RDTSC, dest, (), rng.randrange(0, 5_000))
        elif kind == 2:
            emit(Op.MOV, dest, (counter,))
        elif kind == 3:
            emit(Op.ADD, dest, (counter, rng.choice(INVARIANT)))
        else:
            emit(Op.SUB, dest, (counter,), rng.randrange(-9, 9))
    if stride > 0 or rng.random() < 0.5:
        emit(Op.ADD, counter, (counter,), stride)
    else:
        emit(Op.SUB, counter, (counter,), -stride)
    if rng.random() < 0.4:
        # A forward exit, taken once the counter passes (or hits) a bound.
        op = rng.choice((Op.BEQ, Op.BLT if stride < 0 else Op.BGE))
        regs[INVARIANT[0]] = bound(rng.randrange(1, 600)) & MASK64
        emit(op, None, (counter, INVARIANT[0]), target=OUT)
    if closing is Op.JMP:
        emit(Op.JMP, None, (), target=0)
        return slots, regs, delta
    # The back-edge stays taken until the counter reaches its bound.
    end = bound(rng.randrange(1, 600))
    if rng.random() < 0.5:
        emit(closing, None, (counter,), end & MASK64 if closing is Op.BNE else end, 0)
    else:
        regs[INVARIANT[1]] = end & MASK64
        emit(closing, None, (counter, INVARIANT[1]), 0, 0)
    return slots, regs, delta


def _unroll(slots: Sequence[Tuple], times: int, delta: int) -> Tuple[List[Tuple], int]:
    """The window body of ``times`` loop iterations: RDTSC readings advance
    ``delta`` per iteration, and one window period spans them all."""
    body = []
    for i in range(times):
        for op, dest, srcs, imm, target, pc in slots:
            if op is Op.RDTSC:
                imm += i * delta
            body.append((op, dest, srcs, imm, target, pc))
    return body, delta * times


@pytest.mark.parametrize("seed", range(12))
def test_random_affine_bodies_match_stepping(seed):
    rng = random.Random(seed)
    outcomes = []
    for _ in range(40):
        slots, regs, delta = _random_loop(rng)
        body, period = _unroll(slots, rng.choice((1, 1, 2, 3)), delta)
        rob_len = rng.randrange(0, 3 * len(body))
        outcomes.append(_check(body, regs, period, rob_len, n_bound=rng.randrange(1, 300)))
    assert outcomes.count(True) >= 20, outcomes  # the solver is exercised, not declined


# ---------------------------------------------------------------------------
# Named shapes


def _spinner(iterations: int, reading: int, step: int, deadline: int):
    """Fig. 5's multi-slot ``rdtsc; blt`` window: ``iterations`` spins per
    period, one reading ``step`` cycles after the other."""
    loop = [(Op.RDTSC, 6, (), reading, None, 0), (Op.BLT, None, (6, 3), 0, 0, 1)]
    body, period = _unroll(loop, iterations, step)
    regs = [0] * 16
    regs[3] = deadline
    regs[6] = reading - step
    return body, regs, period


@pytest.mark.parametrize("iterations", (237, 246))
@pytest.mark.parametrize("offset", (0, 1, 2, 3, 474 * 5 - 1, 474 * 5, 474 * 5 + 1))
def test_multi_slot_spinner(iterations, offset):
    body, regs, period = _spinner(iterations, reading=10_000, step=2, deadline=12_000 + offset)
    assert _check(body, regs, period, rob_len=13, n_bound=40) is True


@pytest.mark.parametrize("delta", (2, 3, 17))
def test_rdtsc_with_a_wide_period(delta):
    body = [(Op.RDTSC, 6, (), 500, None, 0), (Op.BLT, None, (6, 3), 0, 0, 1)]
    regs = [0] * 16
    regs[3] = 500 + 47 * delta + 1
    assert _check(body, regs, delta, rob_len=13, n_bound=200) is True


def test_down_counting_sub_bne():
    body = [(Op.SUB, 1, (1,), 1, None, 0), (Op.BNE, None, (1,), 0, 0, 1)]
    regs = [0] * 16
    regs[1] = 300
    assert _check(body, regs, 1, rob_len=6, n_bound=1_000) is True


@pytest.mark.parametrize("op", CONDITIONAL)
def test_exit_on_each_condition(op):
    """BEQ, BLT and BGE leave through a forward branch once it is taken;
    BNE is the back-edge, left once the counter meets its bound."""
    regs = [0] * 16
    regs[1] = 5
    stride, regs[9] = {Op.BEQ: (1, 90), Op.BNE: (1, 90), Op.BLT: (-1, 2), Op.BGE: (1, 90)}[op]
    if op is Op.BNE:
        body = [(Op.ADD, 1, (1,), stride, None, 0), (Op.BNE, None, (1, 9), 0, 0, 1)]
    else:
        body = [
            (Op.ADD, 1, (1,), stride, None, 0),
            (op, None, (1, 9), 0, OUT, 1),
            (Op.JMP, None, (), 0, 0, 2),
        ]
    assert _check(body, regs, 1, rob_len=4, n_bound=500) is True


def test_jmp_closed_loop_never_exits():
    body = [(Op.ADD, 1, (1,), 1, None, 0), (Op.JMP, None, (), 0, 0, 1)]
    regs = [0] * 16
    ev = macroop._Evaluation(body, regs, _no_loads, 1)
    ev.extend(2 + 5)
    assert ev.solve(10_000) and ev.exit is None
    assert _check(body, regs, 1, rob_len=5, n_bound=4_000) is True


def test_mov_and_movi_chains():
    """A register copied from a self-strided one, and one reset each
    period, read by the exit branch."""
    body = [
        (Op.MOVI, 4, (), -7, None, 0),
        (Op.ADD, 1, (1,), 3, None, 1),
        (Op.MOV, 2, (1,), 0, None, 2),
        (Op.ADD, 5, (2, 4), 0, None, 3),
        (Op.BLT, None, (5, 9), 0, 0, 4),
    ]
    regs = [0] * 16
    regs[1] = 11
    regs[9] = 11 + 3 * 150
    assert _check(body, regs, 1, rob_len=9, n_bound=400) is True


# ---------------------------------------------------------------------------
# The signed 64-bit range


def _count_loop(start: int, stride: int, op, bound: int):
    body = [(Op.ADD, 1, (1,), stride, None, 0), (op, None, (1, 2), 0, 0, 1)]
    regs = [0] * 16
    regs[1] = start & MASK64
    regs[2] = bound & MASK64
    return body, regs


def test_declines_crossing_the_top_of_the_signed_range():
    """r1 climbs by 3 from 2**63 - 20, steps over r2 = 2**63 - 1 and wraps
    to -2**63 + 1, still below r2: the stepper keeps looping, so the solver
    must not predict an exit."""
    body, regs = _count_loop((1 << 63) - 20, 3, Op.BLT, (1 << 63) - 1)
    assert _check(body, regs, 1, rob_len=4, n_bound=100) is False


def test_declines_crossing_the_bottom_of_the_signed_range():
    body = [(Op.SUB, 1, (1,), 1, None, 0), (Op.BGE, None, (1, 2), 0, 0, 1)]
    regs = [0] * 16
    regs[1] = (-(1 << 63) + 20) & MASK64
    regs[2] = -(1 << 63) & MASK64
    assert _check(body, regs, 1, rob_len=4, n_bound=100) is False


def test_declines_a_stride_that_overflows_within_the_horizon():
    body, regs = _count_loop(0, 1 << 61, Op.BLT, (1 << 63) - 1)
    assert _check(body, regs, 1, rob_len=4, n_bound=10) is False


def test_solves_far_from_the_edge_of_the_range():
    """Operands that reach the range's edge only after the horizon."""
    body, regs = _count_loop((1 << 63) - 1_000, 1, Op.BLT, (1 << 63) - 1)
    assert _check(body, regs, 1, rob_len=4, n_bound=100) is True


def test_unsigned_wrap_past_2_64_is_signed_arithmetic():
    """r1 counts up through 2**64 - 1 to 0: in signed terms from -40 to 0,
    so the exit of ``bne r1, 0`` is solved where the stepper finds it."""
    body = [(Op.ADD, 1, (1,), 1, None, 0), (Op.BNE, None, (1,), 0, 0, 1)]
    regs = [0] * 16
    regs[1] = (1 << 64) - 40
    assert _check(body, regs, 1, rob_len=4, n_bound=100) is True


def test_declines_an_equality_immediate_no_register_holds():
    body = [(Op.ADD, 1, (1,), 1, None, 0), (Op.BNE, None, (1,), -5, 0, 1)]
    regs = [0] * 16
    assert _check(body, regs, 1, rob_len=4, n_bound=100) is False


@pytest.mark.parametrize(
    "slots",
    [
        [(Op.MUL, 1, (1, 9), 0, None, 0)],
        [(Op.ADD, 1, (1, 2), 0, None, 0), (Op.ADD, 2, (2,), 1, None, 1)],  # quadratic
        [(Op.SUB, 1, (9, 1), 0, None, 0)],  # minus a written register
        [(Op.LOAD, 1, (9,), 0, None, 0)],
    ],
)
def test_non_affine_bodies_are_declined(slots):
    body = list(slots) + [(Op.JMP, None, (), 0, 0, len(slots))]
    assert macroop._affine(body, [0] * 16, 1) is None


# ---------------------------------------------------------------------------
# A wrong solution is an engine error, not a silent fallback


def _flip_shifted(by: int):
    real = macroop._first_flip

    def first_flip(flip, a, b):
        k = real(flip, a, b)
        return None if k is None else k + by

    return first_flip


@pytest.mark.parametrize("by", (-1, 1))
def test_a_wrong_exit_period_is_an_engine_error(monkeypatch, by):
    body, regs = _count_loop(0, 1, Op.BLT, 200)
    monkeypatch.setattr(macroop, "_first_flip", _flip_shifted(by))
    ev = macroop._Evaluation(body, regs, _no_loads, 1)
    ev.extend(2 + 4)
    with pytest.raises(SimulationError):
        assert ev.solve((300 + 1) * 2 + 4)
        n = (ev.exit - 4) // 2 - 1
        ev.settle(n, 4)


def test_a_stale_seek_is_an_engine_error(monkeypatch):
    body, regs = _count_loop(0, 1, Op.BLT, 200)
    real_seek = macroop._Evaluation.seek

    def stale(self, period):
        real_seek(self, max(period - 1, 0))
        self.start = period * len(self.body)

    monkeypatch.setattr(macroop._Evaluation, "seek", stale)
    ev = macroop._Evaluation(body, regs, _no_loads, 1)
    ev.extend(2 + 4)
    with pytest.raises(SimulationError):
        ev.solve((300 + 1) * 2 + 4)
