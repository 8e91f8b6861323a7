"""Cross-shard aggregation: merged histograms, percentiles, verdict.

Per-shard histograms carry exact bucket state
(:meth:`LatencyHistogram.to_state`), so merging them with
:meth:`LatencyHistogram.merge_many` yields the *same* distribution a
single giant histogram over every tenant would — shard boundaries are
invisible in the cluster-wide percentiles.  The ordering verdict then
checks the paper's Figure-7 claim at cluster scale: p999(flush) >
p999(tracked) > p999(timer), strictly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.common.codec import JsonCodec, decode
from repro.common.errors import ConfigError
from repro.obs.hist import LatencyHistogram
from repro.cluster.shard import ShardResult
from repro.cluster.topology import CLUSTER_STRATEGIES


@dataclass(frozen=True, slots=True)
class StrategyAggregate(JsonCodec):
    """Cluster-wide totals and tail percentiles for one strategy."""

    strategy: str
    shards: int
    tenants: int
    offered: int
    completed: int
    in_window: int
    scans: int
    preemptions_total: int
    count: int
    mean: Optional[float]
    p50: Optional[float]
    p99: Optional[float]
    p999: Optional[float]
    hist_state: Dict[str, Any]

    @classmethod
    def from_json(cls, obj: Any) -> "StrategyAggregate":
        aggregate = decode(cls, obj)
        LatencyHistogram.from_state(aggregate.hist_state)  # validate eagerly
        return aggregate

    def histogram(self) -> LatencyHistogram:
        return LatencyHistogram.from_state(self.hist_state)


@dataclass(frozen=True, slots=True)
class OrderingVerdict(JsonCodec):
    """The Figure-7 check: is p999 strictly ordered flush > tracked > timer?

    ``applicable`` is False when the topology swept a strict subset of the
    three strategies or a strategy produced no samples — the check is then
    skipped, not failed.
    """

    applicable: bool
    ok: bool
    expected: Tuple[str, ...]
    p999: Dict[str, Optional[float]]


def aggregate_strategy(strategy: str, results: Sequence[ShardResult]) -> StrategyAggregate:
    """Merge one strategy's shard results into cluster-wide numbers."""
    for result in results:
        if result.strategy != strategy:
            raise ConfigError(
                f"shard {result.shard_index} carries strategy {result.strategy!r}, "
                f"expected {strategy!r}"
            )
    merged = LatencyHistogram.merge_many(
        (result.histogram() for result in results),
    )
    return StrategyAggregate(
        strategy=strategy,
        shards=len(results),
        tenants=sum(r.tenants for r in results),
        offered=sum(r.offered for r in results),
        completed=sum(r.completed for r in results),
        in_window=sum(r.in_window for r in results),
        scans=sum(r.scans for r in results),
        preemptions_total=sum(r.preemptions_total for r in results),
        count=merged.count,
        mean=merged.mean,
        p50=merged.percentile(50.0),
        p99=merged.percentile(99.0),
        p999=merged.percentile(99.9),
        hist_state=merged.to_state(),
    )


def ordering_verdict(aggregates: Sequence[StrategyAggregate]) -> OrderingVerdict:
    """The Figure-7 ordering check over a set of strategy aggregates."""
    p999_by_strategy: Dict[str, Optional[float]] = {
        agg.strategy: agg.p999 for agg in aggregates
    }
    have_all = all(name in p999_by_strategy for name in CLUSTER_STRATEGIES)
    values = [p999_by_strategy.get(name) for name in CLUSTER_STRATEGIES]
    applicable = have_all and all(v is not None for v in values)
    ok = False
    if applicable:
        flush, tracked, timer = values
        assert flush is not None and tracked is not None and timer is not None
        ok = flush > tracked > timer
    return OrderingVerdict(
        applicable=applicable,
        ok=ok,
        expected=CLUSTER_STRATEGIES,
        p999=p999_by_strategy,
    )
