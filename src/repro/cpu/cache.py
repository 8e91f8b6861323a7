"""Cache hierarchy and shared-memory model for the cycle tier.

Each core owns a private L1I and L1D; all cores share a :class:`SharedMemory`
that provides value storage plus a light-weight coherence directory.  The
directory tracks, per line, which core last wrote it; a read by a different
core pays the ``remote_dirty_latency`` (a cross-core transfer through the
LLC).  This is the behaviour UIPI's UPID traffic and shared-memory polling
depend on: a remote write invalidates the local copy, so the next local read
misses (§2, §4.2 "Cheaper than shared memory notification?").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cpu.config import CacheParams, MemoryParams


class SetAssociativeCache:
    """An LRU set-associative cache tracking presence only (no data).

    Data values live in :class:`SharedMemory`; the cache decides latency.
    Each set is an immutable tuple of tags, most-recently-used last: an
    access that reorders or fills a set rebinds it, so a shallow copy of
    ``_sets`` is a snapshot (the macro tier takes one per window).
    """

    def __init__(self, params: CacheParams) -> None:
        self.params = params
        self._line_shift = params.line_bytes.bit_length() - 1
        self._num_sets = params.num_sets
        self._sets: List[Tuple[int, ...]] = [()] * self._num_sets
        self.hits = 0
        self.misses = 0

    def line_of(self, addr: int) -> int:
        return addr >> self._line_shift

    def lookup(self, addr: int) -> bool:
        """Check presence and update LRU; fill on miss.  True on hit."""
        line = addr >> self._line_shift
        index = line % self._num_sets
        tags = self._sets[index]
        if tags and tags[-1] == line:
            # MRU fast path: repeated accesses to the same line (hot loops,
            # streaming) skip the reorder, which for the tail entry is a
            # no-op anyway.
            self.hits += 1
            return True
        if line in tags:
            at = tags.index(line)
            self._sets[index] = tags[:at] + tags[at + 1 :] + (line,)
            self.hits += 1
            return True
        self.misses += 1
        if len(tags) >= self.params.associativity:
            tags = tags[1:]
        self._sets[index] = tags + (line,)
        return False

    def contains(self, addr: int) -> bool:
        """Presence check with no LRU update and no fill."""
        line = self.line_of(addr)
        return line in self._sets[line % self._num_sets]

    def invalidate(self, addr: int) -> bool:
        """Drop the line holding ``addr``; True if it was present."""
        line = self.line_of(addr)
        index = line % self._num_sets
        tags = self._sets[index]
        if line in tags:
            self._sets[index] = tuple(tag for tag in tags if tag != line)
            return True
        return False

    def flush(self) -> None:
        self._sets = [()] * self._num_sets

    @property
    def accesses(self) -> int:
        return self.hits + self.misses


class SharedMemory:
    """Word-granular value store plus a line-granular coherence directory.

    Values are 64-bit words keyed by byte address (addresses are expected to
    be 8-byte aligned by convention; unaligned addresses are rounded down).
    """

    LINE_BYTES = 64

    def __init__(self) -> None:
        self._words: Dict[int, int] = {}
        #: line -> core id of the last writer (None = clean/boot state)
        self._last_writer: Dict[int, Optional[int]] = {}
        #: observers notified on every write: callables (core_id, addr).
        self._write_observers: List = []

    @classmethod
    def line_of(cls, addr: int) -> int:
        return addr // cls.LINE_BYTES

    def read(self, addr: int) -> int:
        return self._words.get(addr & ~0x7, 0)

    def write(self, addr: int, value: int, core_id: Optional[int] = None) -> None:
        self._words[addr & ~0x7] = value
        if core_id is not None:
            self._last_writer[addr // 64] = core_id
        for observer in self._write_observers:
            observer(core_id, addr)

    def write_words(self, words: Dict[int, int]) -> None:
        """Write a memory image of word-aligned ``{addr: value}`` entries,
        as :meth:`write` with no core id would one word at a time: one dict
        update, unless write observers must each see every word."""
        if self._write_observers:
            for addr, value in words.items():
                self.write(addr, value)
        else:
            self._words.update(words)

    def snapshot_words(self) -> Tuple[Tuple[int, int], ...]:
        """The current memory image as sorted (addr, value) pairs.

        Used by the result cache to fold a workload's initial memory image
        into its content hash."""
        return tuple(sorted(self._words.items()))

    def add_write_observer(self, observer) -> None:
        """Register ``observer(core_id, addr)`` called on every write."""
        self._write_observers.append(observer)

    def last_writer(self, addr: int) -> Optional[int]:
        return self._last_writer.get(self.line_of(addr))

    def clear_writer(self, addr: int) -> None:
        self._last_writer.pop(self.line_of(addr), None)


#: Line size of the coherence directory (:attr:`SharedMemory.LINE_BYTES`).
_LINE = SharedMemory.LINE_BYTES


class MemoryHierarchy:
    """One core's view of the memory system: L1D + shared levels below.

    ``load``/``store`` return an access latency in cycles and perform the
    value transfer against :class:`SharedMemory`.  Cross-core communication
    costs arise from the directory: reading a line whose last writer is a
    different core forces an L1 miss at ``remote_dirty_latency`` even if a
    stale copy was cached locally.

    The hierarchy is *synchronous*: a memory access's full latency is fixed
    at issue time and carried by the µop's completion entry in the core's
    ``exec_heap``.  The cycle-skipping engine depends on this — with no
    asynchronous memory responses, every future memory event is visible as
    an exec-heap completion time, so ``Core.next_activity_cycle`` needs no
    separate memory-system clause.
    """

    def __init__(
        self,
        core_id: int,
        dcache: CacheParams,
        memory_params: MemoryParams,
        shared: SharedMemory,
        l2: Optional[CacheParams] = None,
    ) -> None:
        self.core_id = core_id
        self.dcache = SetAssociativeCache(dcache)
        self.l2cache = SetAssociativeCache(
            l2
            or CacheParams(
                size_bytes=1024 * 1024,
                associativity=16,
                line_bytes=dcache.line_bytes,
                hit_latency=memory_params.l2_hit_latency,
            )
        )
        self.params = memory_params
        self.shared = shared
        self.remote_misses = 0

    def load(self, addr: int) -> Tuple[int, int]:
        """Return ``(latency_cycles, value)`` for a load of ``addr``.

        One call per access: the last-writer test and the L1/L2 MRU tests
        are :meth:`SharedMemory.last_writer` and
        :meth:`SetAssociativeCache.lookup`'s fast path, inlined; ``lookup``
        runs only off that path, in the same order with the same counters.
        """
        if addr < 0:
            # Wrong-path loads can form garbage addresses; clamp them so they
            # behave like (cacheable) accesses to low memory.
            addr = -addr
        shared = self.shared
        last_writer = shared._last_writer
        writer = last_writer.get(addr // _LINE)
        dcache = self.dcache
        if writer is None or writer == self.core_id:
            line = addr >> dcache._line_shift
            tags = dcache._sets[line % dcache._num_sets]
            if tags and tags[-1] == line:
                dcache.hits += 1
                return dcache.params.hit_latency, shared._words.get(addr & ~0x7, 0)
            if dcache.lookup(addr):
                return dcache.params.hit_latency, shared._words.get(addr & ~0x7, 0)
            latency = dcache.params.hit_latency + self._below_l1(addr)
        else:
            # Remote write invalidated our copy: force a miss, then take
            # ownership of the clean line locally.  The transfer leaves the
            # line shared/clean; later local reads hit until the remote core
            # writes again.
            latency = dcache.params.hit_latency + self._remote_fill(addr)
            last_writer.pop(addr // _LINE, None)
        return latency, shared._words.get(addr & ~0x7, 0)

    def store(self, addr: int, value: int) -> int:
        """Perform a store; return its completion latency in cycles."""
        if addr < 0:
            addr = -addr
        latency = self.store_probe(addr)
        self.shared.write(addr, value, core_id=self.core_id)
        return latency

    def store_probe(self, addr: int) -> int:
        """Latency phase of a store (RFO/cache fill); the value is written
        at commit.  Flattened like :meth:`load`."""
        if addr < 0:
            addr = -addr
        writer = self.shared._last_writer.get(addr // _LINE)
        dcache = self.dcache
        if writer is None or writer == self.core_id:
            line = addr >> dcache._line_shift
            tags = dcache._sets[line % dcache._num_sets]
            if tags and tags[-1] == line:
                dcache.hits += 1
                return dcache.params.hit_latency
            if dcache.lookup(addr):
                return dcache.params.hit_latency
            # Write-allocate: fetch ownership (RFO) before writing.
            return dcache.params.hit_latency + self._below_l1(addr)
        return dcache.params.hit_latency + self._remote_fill(addr)

    def _below_l1(self, addr: int) -> int:
        """Latency below L1 for a line no other core holds dirty: the
        private L2 decides between an L2 hit and a memory access (working
        sets past the L2 pay DRAM latency — the pointer-chase experiments
        of §3.5/§6.1 depend on this)."""
        l2 = self.l2cache
        line = addr >> l2._line_shift
        tags = l2._sets[line % l2._num_sets]
        if tags and tags[-1] == line:
            l2.hits += 1
            return self.params.l2_hit_latency
        if l2.lookup(addr):
            return self.params.l2_hit_latency
        return self.params.dram_latency

    def _remote_fill(self, addr: int) -> int:
        """A line another core last wrote: drop the stale L1 copy, refill it
        from that core's cache via the LLC, and install it in our L2."""
        self.dcache.invalidate(addr)
        self.dcache.lookup(addr)
        self.remote_misses += 1
        self.l2cache.lookup(addr)
        return self.params.remote_dirty_latency

    def warm(self, addr: int) -> None:
        """Pre-fill the line holding ``addr`` (test/benchmark setup)."""
        self.dcache.lookup(addr)


class InstructionCache:
    """The L1I: presence-only cache with next-line prefetch.

    Sequential code streams through the front-end without repeated miss
    stalls (the prefetcher runs ahead); only redirects to cold targets pay
    the miss.
    """

    PREFETCH_DEGREE = 2

    def __init__(self, params: CacheParams, memory_params: MemoryParams) -> None:
        self.cache = SetAssociativeCache(params)
        self.params = memory_params

    def fetch_latency(self, addr: int) -> int:
        """Latency for a fetch block at ``addr`` (0 extra on an L1I hit).

        Probes the block's line, then prefetches the next
        ``PREFETCH_DEGREE`` lines, each with
        :meth:`SetAssociativeCache.lookup`'s MRU test inline: a taken
        branch back into a hot loop finds all of them MRU and costs this
        one call."""
        cache = self.cache
        sets = cache._sets
        num_sets = cache._num_sets
        line = addr >> cache._line_shift
        tags = sets[line % num_sets]
        if tags and tags[-1] == line:
            cache.hits += 1
            hit = True
        else:
            hit = cache.lookup(addr)
        step = cache.params.line_bytes
        for ahead in range(1, self.PREFETCH_DEGREE + 1):
            line += 1
            tags = sets[line % num_sets]
            if tags and tags[-1] == line:
                cache.hits += 1
            else:
                cache.lookup(addr + ahead * step)
        return 0 if hit else self.params.l2_hit_latency

    def warm_range(self, start_addr: int, end_addr: int) -> None:
        addr = start_addr
        while addr <= end_addr:
            self.cache.lookup(addr)
            addr += self.cache.params.line_bytes
