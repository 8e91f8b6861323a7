"""Branch prediction: gshare training, BTB, RAS, history recovery."""

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
