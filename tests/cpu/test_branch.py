"""Branch prediction: gshare training, BTB, RAS, history recovery."""

import pytest

from repro.cpu import isa
from repro.cpu.branch import (
    BranchPredictor,
    BranchTargetBuffer,
    GsharePredictor,
    ReturnAddressStack,
)


class TestGshare:
    def test_learns_always_taken(self):
        predictor = GsharePredictor()
        pc = 0x10
        for _ in range(8):
            history = predictor.record_speculative(True)
            predictor.update(pc, history, True)
        assert predictor.predict(pc) is True

    def test_learns_never_taken(self):
        predictor = GsharePredictor()
        pc = 0x20
        for _ in range(8):
            history = predictor.record_speculative(False)
            predictor.update(pc, history, False)
        assert predictor.predict(pc) is False

    def test_history_restore(self):
        predictor = GsharePredictor()
        saved = predictor.record_speculative(True)
        predictor.record_speculative(True)
        predictor.restore_history(saved)
        # After restore, recording the same outcome reproduces the state.
        again = predictor.record_speculative(True)
        assert again == saved


class TestBTB:
    def test_miss_then_hit(self):
        btb = BranchTargetBuffer(entries=64)
        assert btb.lookup(5) is None
        btb.update(5, 42)
        assert btb.lookup(5) == 42

    def test_aliasing_overwrites(self):
        btb = BranchTargetBuffer(entries=64)
        btb.update(5, 42)
        btb.update(5 + 64, 99)  # same slot
        assert btb.lookup(5) is None
        assert btb.lookup(5 + 64) == 99


class TestRAS:
    def test_push_pop(self):
        ras = ReturnAddressStack()
        ras.push(10)
        ras.push(20)
        assert ras.pop() == 20
        assert ras.pop() == 10
        assert ras.pop() is None

    def test_depth_bound_drops_oldest(self):
        ras = ReturnAddressStack(depth=2)
        ras.push(1)
        ras.push(2)
        ras.push(3)
        assert ras.pop() == 3
        assert ras.pop() == 2
        assert ras.pop() is None

    def test_snapshot_restore(self):
        ras = ReturnAddressStack()
        ras.push(1)
        snap = ras.snapshot()
        ras.push(2)
        ras.restore(snap)
        assert ras.pop() == 1


class TestCombinedPredictor:
    def test_direct_jump_never_mispredicts(self):
        predictor = BranchPredictor()
        instr = isa.Instruction(isa.Op.JMP, target=7)
        taken, target, history = predictor.predict(3, instr)
        assert taken and target == 7
        mispredicted = predictor.resolve(3, instr.is_cond_branch, history, True, 7, taken, target)
        assert mispredicted is False

    def test_call_ret_pair_predicted_via_ras(self):
        predictor = BranchPredictor()
        call = isa.Instruction(isa.Op.CALL, target=100)
        predictor.predict(10, call)  # pushes return address 11
        ret = isa.Instruction(isa.Op.RET)
        taken, target, _ = predictor.predict(105, ret)
        assert taken and target == 11

    def test_cold_ret_has_unknown_target(self):
        predictor = BranchPredictor()
        taken, target, _ = predictor.predict(50, isa.Instruction(isa.Op.RET))
        assert taken and target is None

    def test_mispredict_counted_and_trained(self):
        predictor = BranchPredictor()
        instr = isa.beq(1, 2, 30)
        # Resolve a long run of not-taken outcomes, recovering speculative
        # history on each mispredict the way the core does.
        for _ in range(30):
            taken, target, history = predictor.predict(9, instr)
            mispredicted = predictor.resolve(9, instr.is_cond_branch, history, False, 30, taken, target)
            if mispredicted:
                predictor.gshare.restore_history(history)
                predictor.gshare.record_speculative(False)
        taken, _, _ = predictor.predict(9, instr)
        assert taken is False
        assert predictor.mispredictions >= 1

    def test_wrong_target_counts_as_mispredict(self):
        predictor = BranchPredictor()
        instr = isa.beq(1, 1, 30)
        # Train taken so prediction uses the encoded target.
        for _ in range(4):
            taken, target, history = predictor.predict(9, instr)
            predictor.resolve(9, instr.is_cond_branch, history, True, 30, taken, target)
        taken, target, history = predictor.predict(9, instr)
        assert taken is True
        mispredicted = predictor.resolve(9, instr.is_cond_branch, history, True, 99, taken, target)
        assert mispredicted is True

    def test_misprediction_rate(self):
        predictor = BranchPredictor()
        assert predictor.misprediction_rate == 0.0


# ---------------------------------------------------------------------------
# Differential test: the flattened predictor against a call-by-call reference
# ---------------------------------------------------------------------------
#
# ``BranchPredictor.predict``/``resolve`` read and train the gshare and BTB
# tables directly.  The reference is the sequence of component calls they
# replace; both predictors see the same seeded branch stream, resolved in
# order with the core's mispredict recovery, and must agree on every
# answer, table, history token and counter.


def ref_predict(predictor, pc, instruction):
    predictor.predictions += 1
    op = instruction.op
    if op is isa.Op.JMP or op is isa.Op.CALL:
        target = instruction.target if isinstance(instruction.target, int) else None
        if op is isa.Op.CALL:
            predictor.ras.push(pc + 1)
        return True, target, predictor.gshare.record_speculative(True)
    if op is isa.Op.RET:
        target = predictor.ras.pop()
        return True, target, predictor.gshare.record_speculative(True)
    taken = predictor.gshare.predict(pc)
    target = None
    if taken:
        target = predictor.btb.lookup(pc)
        if target is None and isinstance(instruction.target, int):
            target = instruction.target
    return taken, target, predictor.gshare.record_speculative(taken)


def ref_resolve(predictor, pc, conditional, token, taken, target, pred_taken, pred_target):
    if conditional:
        predictor.gshare.update(pc, token, taken)
    if taken:
        predictor.btb.update(pc, target)
    mispredicted = taken != pred_taken or (taken and pred_target != target)
    if mispredicted:
        predictor.mispredictions += 1
    return mispredicted


def _predictor_state(predictor):
    return (
        bytes(predictor.gshare._table),
        predictor.gshare._history,
        list(predictor.btb._tags),
        list(predictor.btb._targets),
        list(predictor.ras._stack),
        predictor.predictions,
        predictor.mispredictions,
    )


class TestFlattenedPredictor:
    @pytest.mark.parametrize("seed", range(6))
    def test_stream_matches_reference(self, seed):
        import random

        rng = random.Random(seed)
        # Small tables, so PCs alias in both the direction table and the BTB.
        fast = BranchPredictor(table_bits=5, btb_entries=16)
        ref = BranchPredictor(table_bits=5, btb_entries=16)
        pcs = [rng.randrange(200) for _ in range(24)]
        kinds = [isa.Op.BEQ, isa.Op.BNE, isa.Op.BLT, isa.Op.BGE] * 3 + [
            isa.Op.JMP, isa.Op.CALL, isa.Op.RET,
        ]
        branches = []
        for pc in pcs:
            op = rng.choice(kinds)
            target = rng.choice([rng.randrange(200), "label"])  # resolved or not
            branches.append((pc, isa.Instruction(op, target=None if op is isa.Op.RET else target)))
        bias = {pc: rng.random() for pc in pcs}
        mispredicts = 0
        for _ in range(400):
            # Predict a group in flight, then resolve it in order; the first
            # mispredict recovers history and drops the younger ones.
            group = [rng.choice(branches) for _ in range(rng.randrange(1, 5))]
            predicted = []
            for pc, instr in group:
                got = fast.predict(pc, instr)
                assert got == ref_predict(ref, pc, instr)
                predicted.append((pc, instr, got))
            for pc, instr, (taken, target, token) in predicted:
                actual = rng.random() < bias[pc] if instr.is_cond_branch else True
                actual_target = pc + 1
                if actual:
                    actual_target = rng.choice([target if target is not None else pc + 3, pc + 7])
                args = (pc, instr.is_cond_branch, token, actual, actual_target, taken, target)
                wrong = fast.resolve(*args)
                assert wrong == ref_resolve(ref, *args)
                assert _predictor_state(fast) == _predictor_state(ref)
                if wrong:
                    mispredicts += 1
                    for predictor in (fast, ref):
                        predictor.gshare.restore_history(token)
                        predictor.gshare.record_speculative(actual)
                    break
        assert mispredicts > 20
        assert _predictor_state(fast) == _predictor_state(ref)
