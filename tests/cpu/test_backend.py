"""Back-end units: UOp wiring, functional-unit limits, LSQ forwarding."""

import dataclasses
from collections import Counter

import pytest

from repro.common.errors import SimulationError
from repro.cpu.backend import (
    ST_DONE,
    ST_EXECUTING,
    U_INT,
    U_MUL,
    FunctionalUnits,
    LoadStoreQueues,
    UOp,
    squash_penalty_cycles,
    template,
)
from repro.common.counters import ENV_FAST
from repro.cpu import isa
from repro.cpu.config import CoreParams, SystemConfig
from repro.cpu.core import Core
from repro.cpu.delivery import FlushStrategy
from repro.cpu.isa import Op
from repro.cpu.multicore import MultiCoreSystem
from repro.cpu.program import ProgramBuilder


def make_uop(seq, op=Op.ADD, **kw):
    return UOp(seq, 0, 0, False, True, True, template(op, **kw))


class TestUOp:
    def test_serializing_classification(self):
        assert make_uop(1, Op.MSR_WRITE).is_serializing
        assert make_uop(2, Op.STUI).is_serializing
        assert make_uop(3, Op.TESTUI).is_serializing
        assert not make_uop(4, Op.ADD).is_serializing

    def test_branch_classification(self):
        assert make_uop(1, Op.BEQ).is_branch and make_uop(1, Op.BEQ).is_cond_branch
        assert make_uop(2, Op.RET).is_branch and not make_uop(2, Op.RET).is_cond_branch

    def test_source_value_prefers_producer(self):
        producer = make_uop(1, dest=3)
        producer.result = 99
        consumer = make_uop(2, src_regs=(3,))
        consumer.producers[3] = producer
        assert consumer.source_value(3, [0] * 16) == 99

    def test_source_value_falls_back_to_arch(self):
        consumer = make_uop(2, src_regs=(3,))
        regs = [0] * 16
        regs[3] = 42
        assert consumer.source_value(3, regs) == 42


def run_unit_mix(monkeypatch):
    """Run an int/mul loop on a core with 2 int ALUs and 1 multiplier,
    recording how many µops of each unit class the issue stage starts in
    every cycle. Returns the core and the per-cycle counts."""
    config = SystemConfig.sapphire_rapids_like()
    config = dataclasses.replace(
        config, core=dataclasses.replace(config.core, int_alu_units=2, mul_units=1)
    )
    builder = ProgramBuilder("units")
    builder.emit(isa.movi(1, 0), isa.movi(2, 200))
    builder.label("loop")
    for reg in range(3, 9):
        builder.emit(isa.addi(reg, reg, 1), isa.mul(reg + 6, reg, reg))
    builder.emit(isa.addi(1, 1, 1), isa.blt(1, 2, "loop"), isa.halt())
    monkeypatch.setenv(ENV_FAST, "0")
    system = MultiCoreSystem([builder.build()], [FlushStrategy()], config=config)
    core = system.cores[0]
    per_cycle = []
    real_issue = Core._issue_stage

    def issue(self):
        started = {id(uop) for uop in self.rob if uop.state >= ST_EXECUTING}
        real_issue(self)
        issued = Counter(
            uop.fu_class
            for uop in self.rob
            if uop.state == ST_EXECUTING and id(uop) not in started
        )
        per_cycle.append(issued)

    monkeypatch.setattr(Core, "_issue_stage", issue)
    system.run(100_000, until_halted=[0])
    assert core.halted
    return core, per_cycle


class TestFunctionalUnits:
    def test_per_cycle_limits(self, monkeypatch):
        """The issue stage counts each unit class's slots per cycle: no
        cycle issues more µops of a class than its limit, and the limits
        are reached."""
        core, per_cycle = run_unit_mix(monkeypatch)
        limits = core.fus.limits
        for issued in per_cycle:
            assert all(count <= limits[unit] for unit, count in issued.items())
        assert max(issued[U_INT] for issued in per_cycle) == 2
        assert max(issued[U_MUL] for issued in per_cycle) == 1

    def test_classes_independent(self, monkeypatch):
        """Unit classes draw on separate pools: a full int pool does not
        stop a multiply from issuing in the same cycle."""
        _, per_cycle = run_unit_mix(monkeypatch)
        assert any(issued[U_INT] and issued[U_MUL] for issued in per_cycle)
        assert any(issued[U_INT] == 2 and issued[U_MUL] == 1 for issued in per_cycle)

    def test_latency_table(self):
        fus = FunctionalUnits(CoreParams())
        assert fus.latency(Op.ADD) == 1
        assert fus.latency(Op.MUL) == 3
        assert fus.latency(Op.DIV) == 12
        assert fus.latency(Op.FADD) == 3


class TestLoadStoreQueues:
    def test_capacity(self):
        lsq = LoadStoreQueues(CoreParams(lq_size=1, sq_size=1, rob_size=8))
        lsq.add(make_uop(1, Op.LOAD))
        assert not lsq.has_load_slot()
        with pytest.raises(SimulationError):
            lsq.add(make_uop(2, Op.LOAD))

    def test_forwarding_from_youngest_older_store(self):
        lsq = LoadStoreQueues(CoreParams())
        old = make_uop(1, Op.STORE)
        old.addr, old.store_value = 0x100, 5
        newer = make_uop(2, Op.STORE)
        newer.addr, newer.store_value = 0x100, 9
        lsq.add(old)
        lsq.add(newer)
        load = make_uop(3, Op.LOAD)
        load.addr = 0x104  # same 8-byte word
        lsq.add(load)
        assert lsq.forward_value(load) == 9

    def test_no_forwarding_from_younger_store(self):
        lsq = LoadStoreQueues(CoreParams())
        store = make_uop(5, Op.STORE)
        store.addr, store.store_value = 0x100, 5
        lsq.add(store)
        load = make_uop(2, Op.LOAD)
        load.addr = 0x100
        lsq.add(load)
        assert lsq.forward_value(load) is None

    def test_unresolved_older_store_detected(self):
        lsq = LoadStoreQueues(CoreParams())
        store = make_uop(1, Op.STORE)  # addr still None
        lsq.add(store)
        load = make_uop(2, Op.LOAD)
        lsq.add(load)
        assert lsq.has_unresolved_older_store(load)
        store.addr = 0x200
        assert not lsq.has_unresolved_older_store(load)

    def test_drop_squashed(self):
        lsq = LoadStoreQueues(CoreParams())
        keep = make_uop(1, Op.LOAD)
        drop = make_uop(2, Op.LOAD)
        drop.squashed = True
        lsq.add(keep)
        lsq.add(drop)
        lsq.drop_squashed()
        assert lsq.loads == [keep]


class TestSquashPenalty:
    def test_rounding_up(self):
        assert squash_penalty_cycles(0, 10) == 0
        assert squash_penalty_cycles(1, 10) == 1
        assert squash_penalty_cycles(10, 10) == 1
        assert squash_penalty_cycles(11, 10) == 2
        assert squash_penalty_cycles(384, 10) == 39
