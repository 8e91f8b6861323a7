"""STA202 clean twin: deferred work is folded into the audited heap, so
the skip proof sees it."""
# detlint: state-class[LoopCore owner=engine.cpu core]
# detlint: activity-fn[next_activity_cycle,note_skipped]


class LoopCore:
    __slots__ = ("cycle", "ready_heap", "deferred_wakeups")

    def __init__(self):
        self.cycle = 0
        self.ready_heap = []
        self.deferred_wakeups = []

    def retire(self):
        self.deferred_wakeups = [self.cycle + 4]

    def note_skipped(self, cycles):
        # The deferred list is folded into the horizon: no silent skip.
        self.cycle += cycles
        if self.deferred_wakeups:
            self.ready_heap.extend(self.deferred_wakeups)
            self.deferred_wakeups = []

    def next_activity_cycle(self):
        if self.deferred_wakeups:
            return min(self.deferred_wakeups)
        if self.ready_heap:
            return self.ready_heap[0]
        return self.cycle + 1

