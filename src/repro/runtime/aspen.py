"""The Aspen-like preemptive runtime on the event tier (§5.3, §6.2.1).

Worker cores run user threads in quanta.  At every quantum boundary the
preemption notification fires: its receiver-side cost is charged to the
worker (this is where UIPI at ~645 cycles vs. xUI KB timer + tracking at
~105 cycles differ), and if other threads are waiting the current thread is
rotated to the back of the queue (plus a user-level context switch).  With
no preemption, threads run to completion — the head-of-line blocking that
destroys GET tail latency in Figure 7.

Mechanism differences (§6.1, Figure 6):

- ``UIPI`` / ``XUI_TRACKED_IPI``: need a *time source* — a dedicated core
  spinning on rdtsc that senduipi's every worker each quantum.  The runtime
  accounts that core's utilization and enforces its fan-out capacity.
- ``XUI_KB_TIMER``: each worker's own kernel-bypass timer fires locally;
  no timer core at all.
- ``None`` (no preemption): run to completion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.common.errors import ConfigError, SimulationError
from repro.common.rng import RngStreams
from repro.notify.costs import CostModel
from repro.notify.mechanisms import Mechanism
from repro.runtime.uthread import UThread
from repro.runtime.workqueue import WorkQueue
from repro.sim.account import CycleAccount
from repro.sim.event import Event
from repro.sim.simulator import Simulator


@dataclass(frozen=True)
class RuntimeConfig:
    """Configuration of the runtime for one experiment run."""

    num_workers: int = 1
    #: Preemption quantum in cycles (None disables preemption).
    quantum: Optional[float] = 10_000.0  # 5 us at 2 GHz
    mechanism: Optional[Mechanism] = Mechanism.XUI_KB_TIMER
    work_stealing: bool = True

    def __post_init__(self) -> None:
        if self.num_workers <= 0:
            raise ConfigError("num_workers must be positive")
        if self.quantum is not None and self.quantum <= 0:
            raise ConfigError("quantum must be positive (or None)")
        if self.quantum is not None and self.mechanism is None:
            raise ConfigError("preemption requires a notification mechanism")


class WorkerCore:
    """One worker: executes threads; a wall-clock tick preempts each quantum.

    The preemption notification is periodic in *wall-clock* time (the timer
    core or KB timer fires every quantum no matter what is running), so the
    receiver cost is charged at every tick — this is exactly the Figure 4
    overhead (645 cycles/5 us for UIPI vs. 105 for xUI) showing up as lost
    worker capacity in Figure 7.  The runtime's quantum clock delivers the
    ticks (see :class:`AspenRuntime`).
    """

    def __init__(
        self,
        runtime: "AspenRuntime",
        core_id: int,
    ) -> None:
        self.runtime = runtime
        self.core_id = core_id
        self.queue = WorkQueue(core_id)
        self.account = CycleAccount(name=f"worker{core_id}")
        self.current: Optional[UThread] = None
        self._completion_event: Optional[Event] = None
        self._slice_started = 0.0
        self._resume_pending = False
        self.idle_since: Optional[float] = 0.0
        self.idle_cycles = 0.0
        self.preemption_events = 0
        self._complete_name = f"complete:w{core_id}"
        self._resume_name = f"resume:w{core_id}"
        config = runtime.config
        # With one worker there is never a victim to steal from.
        self._can_steal = config.work_stealing and config.num_workers > 1

    # ------------------------------------------------------------------

    def enqueue(self, thread: UThread) -> None:
        self.queue.push(thread)
        if self.current is None and not self._resume_pending:
            self._dispatch()

    def _dispatch(self) -> None:
        """Pick the next thread (local queue, then stealing) and run it."""
        self._resume_pending = False
        thread = self.queue.pop()
        if thread is None and self._can_steal:
            thread = self.runtime.steal_for(self)
        # One clock read per callback.
        now = self.runtime.sim.now
        if thread is None:
            if self.idle_since is None:
                self.idle_since = now
            return
        if self.idle_since is not None:
            self.idle_cycles += now - self.idle_since
            self.idle_since = None
        self._run(thread, now)

    def _run(self, thread: UThread, now: float) -> None:
        if thread.start_time is None:
            thread.start_time = now
        self.current = thread
        self._slice_started = now
        clock = self.runtime._clock
        if clock is None or now + thread.remaining <= clock.time:
            self._completion_event = self.runtime.sim.schedule(
                thread.remaining, self._complete, name=self._complete_name
            )
        # Otherwise the next tick preempts the thread first and would only
        # cancel its completion, so none is scheduled (see ``stop``).

    def _arm_completion(self) -> None:
        """Schedule the running thread's completion if ``_run`` left it to
        the quantum clock."""
        thread = self.current
        if thread is not None and self._completion_event is None:
            self._completion_event = self.runtime.sim.schedule_at(
                self._slice_started + thread.remaining,
                self._complete,
                name=self._complete_name,
            )

    def _complete(self) -> None:
        now = self.runtime.sim.now
        thread = self.current
        if thread is None:
            raise SimulationError("completion with no current thread")
        used = thread.run_for(now - self._slice_started)
        self.account.charge("app", used)
        self.current = None
        self._completion_event = None
        thread.completion_time = now
        self.runtime.completed.append(thread)
        self._dispatch()

    def _idle(self) -> bool:
        """Nothing running, resuming or queued: a tick only pays its cost."""
        return self.current is None and not self._resume_pending and not self.queue

    def _charge_idle_ticks(self, count: int) -> None:
        """Account ``count`` ticks the quantum clock skipped while idle."""
        self.preemption_events += count
        self.account.charge_repeated(
            "preempt_notify", self.runtime.preemption_overhead, count
        )

    def _tick(self) -> None:
        """The periodic preemption notification (timer core / KB timer)."""
        sim = self.runtime.sim
        overhead = self.runtime.preemption_overhead
        self.preemption_events += 1
        self.account.charge("preempt_notify", overhead)
        thread = self.current
        if thread is None:
            # Interrupted while idle (or mid-switch): only the receiver
            # cost is paid; an idle worker uses the tick to look for work
            # to steal.
            if not self._resume_pending:
                self._dispatch()
            return
        # Preempt the running thread: bank its progress and rotate.
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        now = sim.now
        used = thread.run_for(now - self._slice_started)
        self.account.charge("app", used)
        self.current = None
        thread.preemptions += 1
        if thread.finished:
            thread.completion_time = now
            self.runtime.completed.append(thread)
            resume_delay = overhead
        elif len(self.queue) > 0 or self.runtime.has_stealable_work(self):
            switch = self.runtime.costs.uthread_switch
            self.account.charge("uthread_switch", switch)
            self.queue.push(thread)
            resume_delay = overhead + switch
        else:
            self.queue.push_front(thread)
            resume_delay = overhead
        self._resume_pending = True
        sim.schedule(resume_delay, self._dispatch, name=self._resume_name)

    # ------------------------------------------------------------------

    def utilization(self, elapsed: float) -> float:
        return self.account.busy_fraction(elapsed)


class AspenRuntime:
    """The runtime: workers, work stealing, and the preemption time source.

    One ``quantum`` event per runtime drives preemption: at each boundary it
    ticks the workers in ``core_id`` order, then charges the timer core.
    Inside a bounded :meth:`Simulator.run` it coalesces idle stretches: at a
    boundary where every worker is idle with an empty queue, the boundaries
    before the next pending event are pure accounting, so the clock jumps to
    the first boundary at or after that event (never past the run's
    :attr:`~repro.sim.simulator.Simulator.horizon`) and charges the skipped
    ticks when it lands.
    """

    def __init__(
        self,
        sim: Simulator,
        config: RuntimeConfig,
        costs: Optional[CostModel] = None,
        rng: Optional[RngStreams] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.costs = costs or CostModel.paper_defaults()
        self.rng = rng or RngStreams(seed=0)
        mechanism = config.mechanism
        #: Receiver-side cost of one preemption notification.
        self.preemption_overhead = (
            0.0 if mechanism is None else self.costs.preemption_cost(mechanism)
        )
        self.workers: List[WorkerCore] = [
            WorkerCore(self, core_id) for core_id in range(config.num_workers)
        ]
        self.completed: List[UThread] = []
        self._spawn_rr = 0
        #: Dedicated timer-core accounting (UIPI-style mechanisms only).
        self.timer_core: Optional[CycleAccount] = None
        self._senduipi_cycles = 0.0
        self._spin_cycles = 0.0
        self._clock: Optional[Event] = None
        #: Idle boundaries the pending clock event jumped over.
        self._skipped = 0
        if config.quantum is None:
            return
        if mechanism.needs_timer_core:
            self.timer_core = CycleAccount(name="timer_core")
            self._check_timer_capacity()
            # The rdtsc-spin core burns the whole quantum, spending senduipi
            # cycles per worker.
            per_worker = self.costs.senduipi + self.costs.timer_core_loop_overhead
            self._senduipi_cycles = per_worker * len(self.workers)
            self._spin_cycles = max(0.0, config.quantum - self._senduipi_cycles)
        self._clock = sim.schedule(config.quantum, self._quantum, name="quantum")

    # -- preemption time source ------------------------------------------

    def _check_timer_capacity(self) -> None:
        capacity = self.costs.timer_core_capacity(self.config.quantum)
        if self.config.num_workers > capacity:
            raise ConfigError(
                f"a single rdtsc-spin timer core supports at most {capacity} "
                f"workers at a {self.config.quantum:.0f}-cycle quantum "
                f"(requested {self.config.num_workers}); see §6.1"
            )

    def _quantum(self) -> None:
        """One quantum boundary, plus any idle boundaries skipped before it."""
        sim = self.sim
        quantum = self.config.quantum
        timer_core = self.timer_core
        skipped = self._skipped
        if skipped:
            for worker in self.workers:
                worker._charge_idle_ticks(skipped)
            if timer_core is not None:
                timer_core.charge_repeated("senduipi", self._senduipi_cycles, skipped)
                timer_core.charge_repeated("spin", self._spin_cycles, skipped)
        # Reschedule before ticking: the clock's sequence number must precede
        # everything the ticks schedule, so ties resolve as they always have.
        landing = sim.now + quantum
        skipped = 0
        horizon = sim.horizon
        if (
            horizon is not None
            and landing + quantum <= horizon
            and all(worker._idle() for worker in self.workers)
        ):
            # Quiet until the next event: nothing fires before it, so the
            # boundaries in between only charge costs.
            target = sim.peek_next_time()
            while (target is None or landing < target) and landing + quantum <= horizon:
                landing += quantum
                skipped += 1
        self._skipped = skipped
        self._clock = sim.schedule_at(landing, self._quantum, name="quantum")
        for worker in self.workers:
            worker._tick()
        if timer_core is not None:
            timer_core.charge("senduipi", self._senduipi_cycles)
            timer_core.charge("spin", self._spin_cycles)

    def stop(self) -> None:
        """Stop the quantum clock so an unbounded sim.run() can drain.

        A running thread whose completion was left to the next tick gets
        its completion event now.
        """
        if self._clock is not None:
            self._clock.cancel()
            self._clock = None
            for worker in self.workers:
                worker._arm_completion()

    def close(self) -> None:
        """End the run: drop its pending events and the references between
        workers, runtime and events, so reference counting frees it.

        Pending events hold bound methods of the workers and the runtime,
        which hold the events and the simulator back; workers and runtime
        hold each other.  Without this, every finished run waits for the
        cyclic collector.  Results stay readable: ``completed``, the
        workers' counters and accounts, the timer core and ``sim.now``.
        The runtime cannot run again.
        """
        self._clock = None
        self.sim.clear()
        for worker in self.workers:
            worker._completion_event = None
            worker.runtime = None

    # -- spawning / stealing ------------------------------------------------

    def spawn(self, thread: UThread) -> None:
        """Submit a thread; round-robin placement across workers."""
        worker = self.workers[self._spawn_rr % len(self.workers)]
        self._spawn_rr += 1
        worker.enqueue(thread)

    def steal_for(self, thief: WorkerCore) -> Optional[UThread]:
        """Steal one thread for ``thief`` from a random victim."""
        candidates = [w for w in self.workers if w is not thief and len(w.queue) > 0]
        if not candidates:
            return None
        victim = candidates[self.rng.choice_index("steal", len(candidates))]
        stolen = victim.queue.steal()
        if stolen is not None:
            stolen.steals += 1
        return stolen

    def has_stealable_work(self, thief: WorkerCore) -> bool:
        return any(w is not thief and len(w.queue) > 0 for w in self.workers)

    # -- results ---------------------------------------------------------------

    def response_times(self, kind: Optional[str] = None) -> List[float]:
        return [
            t.response_time
            for t in self.completed
            if kind is None or t.kind == kind
        ]
