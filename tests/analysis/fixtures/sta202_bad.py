"""STA202 fixture: the ``note_skipped`` regression shape — deferred work
parked in a field the skip proof never consults."""
# detlint: state-class[LoopCore owner=engine.cpu core]
# detlint: activity-fn[next_activity_cycle,note_skipped]


class LoopCore:
    __slots__ = ("cycle", "ready_heap", "deferred_wakeups")

    def __init__(self):
        self.cycle = 0
        self.ready_heap = []
        self.deferred_wakeups = []

    def retire(self):
        # Due-but-blocked work parked outside the audited heap: the horizon
        # proof below never consults it, so a skip can jump past a wakeup.
        self.deferred_wakeups = [self.cycle + 4]

    def note_skipped(self, cycles):
        self.cycle += cycles

    def next_activity_cycle(self):
        if self.ready_heap:
            return self.ready_heap[0]
        return self.cycle + 1

