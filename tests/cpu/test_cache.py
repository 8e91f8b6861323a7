"""Cache hierarchy: LRU, coherence-lite directory, latency classes."""

import pytest

from repro.cpu.cache import (
    InstructionCache,
    MemoryHierarchy,
    SetAssociativeCache,
    SharedMemory,
)
from repro.cpu.config import CacheParams, MemoryParams


def make_hierarchy(core_id=0, shared=None):
    shared = shared or SharedMemory()
    return MemoryHierarchy(core_id, CacheParams(), MemoryParams(), shared), shared


class TestSetAssociativeCache:
    def test_miss_then_hit(self):
        cache = SetAssociativeCache(CacheParams())
        assert cache.lookup(0x1000) is False
        assert cache.lookup(0x1000) is True

    def test_same_line_shares_entry(self):
        cache = SetAssociativeCache(CacheParams())
        cache.lookup(0x1000)
        assert cache.lookup(0x1038) is True  # same 64B line

    def test_lru_eviction(self):
        params = CacheParams(size_bytes=2 * 64 * 4, associativity=2, line_bytes=64)
        cache = SetAssociativeCache(params)
        sets = params.num_sets
        # Three lines mapping to set 0: the first is evicted.
        a, b, c = (i * sets * 64 for i in range(1, 4))
        cache.lookup(a)
        cache.lookup(b)
        cache.lookup(c)
        assert cache.contains(b) and cache.contains(c)
        assert not cache.contains(a)

    def test_lru_update_on_hit(self):
        params = CacheParams(size_bytes=2 * 64 * 4, associativity=2, line_bytes=64)
        cache = SetAssociativeCache(params)
        sets = params.num_sets
        a, b, c = (i * sets * 64 for i in range(1, 4))
        cache.lookup(a)
        cache.lookup(b)
        cache.lookup(a)  # touch a: b becomes LRU
        cache.lookup(c)
        assert cache.contains(a) and not cache.contains(b)

    def test_invalidate(self):
        cache = SetAssociativeCache(CacheParams())
        cache.lookup(0x40)
        assert cache.invalidate(0x40) is True
        assert cache.contains(0x40) is False
        assert cache.invalidate(0x40) is False

    def test_hit_miss_counters(self):
        cache = SetAssociativeCache(CacheParams())
        cache.lookup(0)
        cache.lookup(0)
        assert (cache.hits, cache.misses, cache.accesses) == (1, 1, 2)


class TestSharedMemory:
    def test_read_uninitialized_is_zero(self):
        assert SharedMemory().read(0x1234) == 0

    def test_write_read_roundtrip(self):
        memory = SharedMemory()
        memory.write(0x100, 42)
        assert memory.read(0x100) == 42

    def test_word_alignment(self):
        memory = SharedMemory()
        memory.write(0x101, 7)  # rounds down to 0x100
        assert memory.read(0x100) == 7

    def test_last_writer_tracking(self):
        memory = SharedMemory()
        memory.write(0x100, 1, core_id=2)
        assert memory.last_writer(0x100) == 2
        assert memory.last_writer(0x100 + 8) == 2  # same line
        memory.clear_writer(0x100)
        assert memory.last_writer(0x100) is None

    def test_write_observer(self):
        memory = SharedMemory()
        seen = []
        memory.add_write_observer(lambda core, addr: seen.append((core, addr)))
        memory.write(0x40, 1, core_id=3)
        assert seen == [(3, 0x40)]


class TestMemoryHierarchyLatency:
    def test_first_access_is_slow_then_l1(self):
        hierarchy, _ = make_hierarchy()
        cold, _ = hierarchy.load(0x2000)
        warm, _ = hierarchy.load(0x2000)
        assert cold > warm
        assert warm == hierarchy.dcache.params.hit_latency

    def test_l2_hit_cheaper_than_dram(self):
        hierarchy, _ = make_hierarchy()
        first, _ = hierarchy.load(0x9000)  # DRAM (cold everywhere)
        hierarchy.dcache.invalidate(0x9000)
        second, _ = hierarchy.load(0x9000)  # L1 miss, L2 hit
        assert first > second > hierarchy.dcache.params.hit_latency

    def test_remote_dirty_costs_more_than_l1(self):
        shared = SharedMemory()
        local, _ = make_hierarchy(0, shared)
        local.load(0x3000)  # warm locally
        shared.write(0x3000, 9, core_id=1)  # remote write invalidates
        latency, value = local.load(0x3000)
        assert value == 9
        assert latency >= MemoryParams().remote_dirty_latency
        assert local.remote_misses == 1

    def test_remote_transfer_leaves_line_clean(self):
        shared = SharedMemory()
        local, _ = make_hierarchy(0, shared)
        shared.write(0x3000, 9, core_id=1)
        local.load(0x3000)
        warm, _ = local.load(0x3000)
        assert warm == local.dcache.params.hit_latency

    def test_own_writes_do_not_self_invalidate(self):
        hierarchy, _ = make_hierarchy(0)
        hierarchy.store(0x4000, 1)
        latency, _ = hierarchy.load(0x4000)
        assert latency == hierarchy.dcache.params.hit_latency

    def test_store_probe_then_commit(self):
        hierarchy, shared = make_hierarchy(0)
        latency = hierarchy.store_probe(0x5000)
        assert latency > 0
        assert shared.read(0x5000) == 0  # value written only at commit

    def test_negative_address_clamped(self):
        hierarchy, _ = make_hierarchy()
        latency, value = hierarchy.load(-0x100)
        assert latency > 0 and value == 0


class TestInstructionCache:
    def test_cold_then_warm(self):
        icache = InstructionCache(CacheParams(), MemoryParams())
        assert icache.fetch_latency(0x400000) > 0
        assert icache.fetch_latency(0x400000) == 0

    def test_warm_range(self):
        icache = InstructionCache(CacheParams(), MemoryParams())
        icache.warm_range(0x400000, 0x400100)
        assert icache.fetch_latency(0x400080) == 0


# ---------------------------------------------------------------------------
# Differential test: the flattened probes against a call-by-call reference
# ---------------------------------------------------------------------------
#
# ``load``, ``store_probe`` and ``fetch_latency`` inline the last-writer and
# MRU tests.  The reference below is the sequence of ``lookup`` /
# ``last_writer`` / miss-latency calls they replace; both sides run the same
# seeded streams on their own caches and memory, and must agree on every
# latency, value, set, counter and directory entry.


def ref_miss_latency(hierarchy, addr):
    writer = hierarchy.shared.last_writer(addr)
    if writer is not None and writer != hierarchy.core_id:
        hierarchy.remote_misses += 1
        hierarchy.l2cache.lookup(addr)
        return hierarchy.params.remote_dirty_latency
    if hierarchy.l2cache.lookup(addr):
        return hierarchy.params.l2_hit_latency
    return hierarchy.params.dram_latency


def ref_load(hierarchy, addr):
    if addr < 0:
        addr = -addr
    writer = hierarchy.shared.last_writer(addr)
    remote_dirty = writer is not None and writer != hierarchy.core_id
    if remote_dirty:
        hierarchy.dcache.invalidate(addr)
    hit = hierarchy.dcache.lookup(addr)
    if hit and not remote_dirty:
        latency = hierarchy.dcache.params.hit_latency
    else:
        latency = hierarchy.dcache.params.hit_latency + ref_miss_latency(hierarchy, addr)
        if remote_dirty:
            hierarchy.shared.clear_writer(addr)
    return latency, hierarchy.shared.read(addr)


def ref_store_probe(hierarchy, addr):
    if addr < 0:
        addr = -addr
    writer = hierarchy.shared.last_writer(addr)
    remote_dirty = writer is not None and writer != hierarchy.core_id
    if remote_dirty:
        hierarchy.dcache.invalidate(addr)
    hit = hierarchy.dcache.lookup(addr)
    if hit and not remote_dirty:
        return hierarchy.dcache.params.hit_latency
    return hierarchy.dcache.params.hit_latency + ref_miss_latency(hierarchy, addr)


def ref_fetch_latency(icache, addr):
    hit = icache.cache.lookup(addr)
    line = icache.cache.params.line_bytes
    for ahead in range(1, icache.PREFETCH_DEGREE + 1):
        icache.cache.lookup(addr + ahead * line)
    return 0 if hit else icache.params.l2_hit_latency


#: Small caches, so the streams hit MRU and non-MRU entries, and evict.
SMALL_L1 = CacheParams(size_bytes=4 * 64 * 2, associativity=2, line_bytes=64)
SMALL_L2 = CacheParams(size_bytes=8 * 64 * 4, associativity=4, line_bytes=64, hit_latency=14)


def _cache_state(cache):
    return list(cache._sets), cache.hits, cache.misses


def _memory_side():
    shared = SharedMemory()
    cores = [MemoryHierarchy(k, SMALL_L1, MemoryParams(), shared, l2=SMALL_L2) for k in range(2)]
    return shared, cores


def _memory_state(shared, cores):
    return (
        dict(shared._words),
        dict(shared._last_writer),
        [(_cache_state(h.dcache), _cache_state(h.l2cache), h.remote_misses) for h in cores],
    )


class TestFlattenedProbes:
    @pytest.mark.parametrize("seed", range(6))
    def test_data_accesses_match_reference(self, seed):
        import random

        rng = random.Random(seed)
        fast_shared, fast = _memory_side()
        ref_shared, ref = _memory_side()
        lines = [rng.randrange(64) for _ in range(20)]
        for step in range(3_000):
            core = rng.randrange(2)
            addr = 64 * rng.choice(lines) + 8 * rng.randrange(8)
            if rng.random() < 0.05:
                addr = -addr  # wrong-path garbage address
            kind = rng.random()
            if kind < 0.5:
                got = fast[core].load(addr)
                want = ref_load(ref[core], addr)
            elif kind < 0.8:
                got = fast[core].store_probe(addr)
                want = ref_store_probe(ref[core], addr)
            elif kind < 0.95:
                # A store commits: the directory now names this core.
                value = rng.randrange(1 << 20)
                fast_shared.write(addr, value, core_id=core)
                ref_shared.write(addr, value, core_id=core)
                got = want = None
            else:
                got = fast[core].store(addr, step)
                want = ref_store_probe(ref[core], addr)
                ref_shared.write(-addr if addr < 0 else addr, step, core_id=core)
            assert got == want, f"step {step}"
            assert _memory_state(fast_shared, fast) == _memory_state(ref_shared, ref)
        assert sum(h.remote_misses for h in fast) > 0
        assert all(h.dcache.hits and h.dcache.misses and h.l2cache.hits for h in fast)

    @pytest.mark.parametrize("seed", range(4))
    def test_fetch_redirects_match_reference(self, seed):
        import random

        rng = random.Random(seed)
        fast = InstructionCache(SMALL_L1, MemoryParams())
        ref = InstructionCache(SMALL_L1, MemoryParams())
        fast.warm_range(0x400000, 0x400100)
        ref.warm_range(0x400000, 0x400100)
        targets = [0x400000 + 16 * rng.randrange(96) for _ in range(12)]
        for step in range(2_000):
            addr = rng.choice(targets)
            assert fast.fetch_latency(addr) == ref_fetch_latency(ref, addr), f"step {step}"
            assert _cache_state(fast.cache) == _cache_state(ref.cache)
        assert fast.cache.hits and fast.cache.misses


class TestWriteWords:
    def test_bulk_write_matches_word_writes(self):
        words = {0x100: 1, 0x108: 2, 0x2000: 3}
        bulk, single = SharedMemory(), SharedMemory()
        bulk.write(0x100, 9, core_id=1)
        single.write(0x100, 9, core_id=1)
        bulk.write_words(words)
        for addr, value in words.items():
            single.write(addr, value)
        assert bulk.snapshot_words() == single.snapshot_words()
        assert bulk._last_writer == single._last_writer

    def test_observers_see_every_word(self):
        memory = SharedMemory()
        seen = []
        memory.add_write_observer(lambda core, addr: seen.append((core, addr)))
        memory.write_words({0x40: 1, 0x48: 2})
        assert seen == [(None, 0x40), (None, 0x48)]
        assert memory.read(0x48) == 2
