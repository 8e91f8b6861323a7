"""Shard jobs: purity, common random numbers, per-scenario behaviour."""

import gc
import hashlib
import json
import pickle

import pytest

from repro.common.errors import ConfigError
from repro.notify.costs import CostModel
from repro.cluster.shard import ShardJob, run_shard_job
from repro.cluster.topology import TenantSpec
from repro.runtime.aspen import AspenRuntime


def _job(strategy="timer", scenario="rocksdb", count=8, rps=2000.0, **overrides):
    kwargs = dict(
        shard_index=0,
        host=0,
        strategy=strategy,
        workers=1,
        groups=(TenantSpec(template=scenario, count=count, rps=rps),),
        duration_ms=10.0,
        seed=1234,
        sub_bits=8,
        costs=CostModel.paper_defaults(),
    )
    kwargs.update(overrides)
    return ShardJob(**kwargs)


class TestShardJob:
    def test_validation(self):
        with pytest.raises(ConfigError):
            _job(strategy="warp")
        with pytest.raises(ConfigError):
            _job(groups=())
        with pytest.raises(ConfigError):
            _job(duration_ms=0.0)
        with pytest.raises(ConfigError):
            _job(sub_bits=0)

    def test_tenants_sums_groups(self):
        job = _job(groups=(
            TenantSpec(template="rocksdb", count=3, rps=1.0),
            TenantSpec(template="timers", count=4, rps=1.0),
        ))
        assert job.tenants == 7

    def test_picklable_and_canonical(self):
        from repro.perf.cache import canonical

        job = _job()
        assert pickle.loads(pickle.dumps(job)) == job
        # Equal jobs share one canonical form (stable checkpoint identity).
        assert canonical(job) == canonical(_job())
        assert canonical(job) != canonical(_job(seed=999))

    def test_round_trip(self):
        job = _job(scenario="fanout", strategy="flush")
        assert ShardJob.from_json(json.loads(json.dumps(job.to_json()))) == job

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ShardJob.from_json({"bogus": 1})


class TestRunShardJob:
    def test_deterministic(self):
        a, b = run_shard_job(_job()), run_shard_job(_job())
        assert a == b

    def test_result_round_trips(self):
        from repro.cluster.shard import ShardResult

        result = run_shard_job(_job())
        assert ShardResult.from_json(json.loads(json.dumps(result.to_json()))) == result

    def test_common_random_numbers_across_strategies(self):
        """Same shard seed => identical arrival processes per strategy: the
        offered load and scan mix never differ, only the latency does."""
        results = {s: run_shard_job(_job(strategy=s)) for s in ("flush", "tracked", "timer")}
        offered = {r.offered for r in results.values()}
        scans = {r.scans for r in results.values()}
        assert len(offered) == 1 and len(scans) == 1

    def test_rocksdb_measures_gets_only(self):
        result = run_shard_job(_job(scenario="rocksdb"))
        hist = result.histogram()
        assert result.scans > 0
        assert hist.count == result.completed - result.scans

    def test_flush_tail_dominates_timer(self):
        """Per-shard Figure 7: the flush strategy's p999 exceeds timer's."""
        flush = run_shard_job(_job(strategy="flush")).histogram()
        timer = run_shard_job(_job(strategy="timer")).histogram()
        assert flush.percentile(99.9) > timer.percentile(99.9)

    def test_timers_scenario_counts_and_costs(self):
        """Each tenant fires ~rps*duration times; flush handlers carry the
        bigger receive cost, so the timer strategy's mean is strictly lower."""
        job = _job(scenario="timers", count=16, rps=10_000.0)
        result = run_shard_job(job)
        expected = 16 * 10_000.0 * (job.duration_ms / 1000.0)
        assert result.offered == pytest.approx(expected, rel=0.2)
        flush_hist = run_shard_job(_job(scenario="timers", count=16, rps=10_000.0,
                                        strategy="flush")).histogram()
        timer_hist = result.histogram()
        assert timer_hist.count == flush_hist.count
        assert timer_hist.mean < flush_hist.mean

    def test_fanout_bursts_raise_offered_load(self):
        """Burst windows push the offered count above the flat-rate total."""
        result = run_shard_job(_job(scenario="fanout", count=8, rps=5_000.0))
        flat = 8 * 5_000.0 * 0.01
        assert result.offered > flat * 1.2

    def test_preemptions_scale_with_workers(self):
        one = run_shard_job(_job())
        two = run_shard_job(_job(workers=2))
        assert two.preemptions_total > one.preemptions_total


class TestArrivalFeed:
    """Arrivals reach the event loop as one sorted feed per group."""

    def test_two_groups_sharing_streams_match_recorded_digests(self):
        """Two RocksDB groups share the ``arrivals`` and ``rocksdb_mix``
        streams: the second must draw exactly where the first left them.
        The digests were recorded when every arrival was a heap event."""
        recorded = {
            "flush": "9d006c912745761bffa7d905e2209c86eb6ba8c627f18290d830a10a0b7509d5",
            "timer": "967211b39803e919f046930d625227eae92e15a4de1a7e76345d9bea8e5e7d65",
        }
        groups = (
            TenantSpec(template="rocksdb", count=32, rps=3400.0),
            TenantSpec(template="rocksdb", count=16, rps=2000.0),
        )
        for strategy, expected in recorded.items():
            result = run_shard_job(
                _job(strategy=strategy, groups=groups, workers=2, duration_ms=3.0)
            )
            text = json.dumps(result.to_json(), sort_keys=True, separators=(",", ":"))
            assert hashlib.sha256(text.encode()).hexdigest() == expected

    @pytest.mark.parametrize("seed,expected", [(0, 73), (1, 89)])
    def test_idle_coalescing_sees_the_feed(self, monkeypatch, seed, expected):
        """A 512-tenant, 50 rps shard is idle most quanta; the quantum clock
        jumps to the next arrival only if it sees the live feed position.
        The counts were recorded when every arrival was a heap event."""
        calls = []
        quantum = AspenRuntime._quantum

        def counted(self):
            calls.append(self.sim.now)
            quantum(self)

        monkeypatch.setattr(AspenRuntime, "_quantum", counted)
        run_shard_job(_job(count=512, rps=50.0, duration_ms=3.0, seed=seed))
        assert len(calls) == expected

    @pytest.mark.parametrize("scenario", ["rocksdb", "timers", "fanout"])
    def test_finished_job_is_freed_by_refcount(self, scenario):
        gc.collect()
        gc.disable()
        try:
            run_shard_job(_job(scenario=scenario, workers=4, duration_ms=3.0))
            found = gc.collect()
        finally:
            gc.enable()
        assert found == 0
