"""Central metrics registry: counters, gauges, and latency histograms.

One process-wide :class:`MetricsRegistry` (``repro.obs.METRICS``) gathers
every numeric telemetry stream the simulator produces — engine counters,
fault-injection counters, result-cache stats, per-core pipeline stats —
behind hierarchical dotted names (``core0.rob.squashes``,
``engine.cycles_skipped``, ``faults.dropped``) and a single
``as_dict()``/JSON schema, so ``--metrics-out`` and tests read one shape
instead of four ad-hoc ones.

The registry is *pull*-friendly: subsystems that already keep their own
counters (``EngineCounters``, ``InjectionCounters``, APIC/scheduler stats)
are absorbed via ``absorb_*`` helpers at export time rather than being
rewritten to push into the registry on every increment — the hot paths
stay untouched.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.common.errors import ConfigError
from repro.obs.hist import LatencyHistogram

#: Schema tag stamped into every metrics export.
METRICS_SCHEMA = "repro.obs.metrics/v1"


def _check_name(name: str) -> str:
    if not name or name != name.strip():
        raise ConfigError(f"invalid metric name {name!r}")
    return name


class MetricsRegistry:
    """Hierarchically named counters, gauges, and histograms."""

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, LatencyHistogram] = {}

    # -- writing -------------------------------------------------------------

    def inc(self, name: str, delta: int = 1) -> None:
        """Increment counter ``name`` (created at 0 on first use)."""
        _check_name(name)
        self._counters[name] = self._counters.get(name, 0) + delta

    def set_counter(self, name: str, value: int) -> None:
        """Overwrite counter ``name`` — used by the absorb helpers, which
        re-read monotonic source counters at export time."""
        self._counters[_check_name(name)] = int(value)

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest value."""
        self._gauges[_check_name(name)] = value

    def histogram(self, name: str) -> LatencyHistogram:
        """The histogram registered under ``name`` (created on first use)."""
        _check_name(name)
        hist = self._histograms.get(name)
        if hist is None:
            hist = LatencyHistogram()
            self._histograms[name] = hist
        return hist

    def observe(self, name: str, value: float) -> None:
        """Record one sample into histogram ``name``."""
        self.histogram(name).record(value)

    def merge_histogram(self, name: str, other: LatencyHistogram) -> None:
        """Fold a pre-built histogram into ``name`` (created on first use
        with ``other``'s resolution) — the merge path cluster aggregation
        uses to publish per-strategy latency under one metrics namespace."""
        _check_name(name)
        hist = self._histograms.get(name)
        if hist is None:
            hist = LatencyHistogram(other.sub_bits)
            self._histograms[name] = hist
        hist.merge(other)

    # -- absorbing existing counter structs ----------------------------------

    def absorb_mapping(self, prefix: str, values: Mapping[str, Any]) -> None:
        """Copy a flat ``{field: number}`` mapping in under ``prefix.``."""
        _check_name(prefix)
        for key in sorted(values):
            value = values[key]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            full = f"{prefix}.{key}"
            if isinstance(value, int):
                self.set_counter(full, value)
            else:
                self.gauge(full, value)

    def absorb_engine_counters(self, counters: Optional[Any] = None) -> None:
        """Pull in :data:`repro.common.counters.GLOBAL_COUNTERS`."""
        if counters is None:
            from repro.common.counters import GLOBAL_COUNTERS
            counters = GLOBAL_COUNTERS
        self.absorb_mapping("engine", counters.as_dict())

    # -- reading -------------------------------------------------------------

    def counter_value(self, name: str) -> int:
        return self._counters.get(name, 0)

    def gauge_value(self, name: str) -> Optional[float]:
        return self._gauges.get(name)

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def as_dict(self) -> Dict[str, Any]:
        """The full registry in the ``repro.obs.metrics/v1`` shape."""
        return {
            "schema": METRICS_SCHEMA,
            "counters": {name: self._counters[name] for name in sorted(self._counters)},
            "gauges": {name: self._gauges[name] for name in sorted(self._gauges)},
            "histograms": {
                name: self._histograms[name].as_dict()
                for name in sorted(self._histograms)
            },
        }

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
