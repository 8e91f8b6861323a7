"""The cluster report: byte-stable JSON consumable by bench-gate.

A :class:`ClusterReport` is a pure function of the topology (no wall
clock, no hostnames, no execution mode), so re-running the same topology
and seed reproduces the report byte for byte — the property the CI
determinism check and the checkpoint-resume tests assert.  The ``checks``
list mirrors the bench-gate shape (``{"bench", "check", "ok", "note"}``)
so the same blocking-CI reader consumes both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Tuple

from repro.common.codec import JsonCodec, decode
from repro.common.errors import ConfigError
from repro.common.units import cycles_to_us
from repro.cluster.aggregate import OrderingVerdict, StrategyAggregate
from repro.cluster.topology import ClusterTopology

#: Report schema identifier (bump on incompatible change).
REPORT_SCHEMA = "repro.cluster.report/v1"

#: The paper's evaluation scale: Figure 7 drives O(10^3) open RocksDB
#: connections at one server, so "1000x paper scale" means >= one million
#: tenants across the cluster.
PAPER_SCALE_TENANTS = 1_000


@dataclass(frozen=True, slots=True)
class ClusterReport(JsonCodec):
    """Everything one cluster run produced, in canonical form."""

    topology: ClusterTopology
    aggregates: Tuple[StrategyAggregate, ...]
    verdict: OrderingVerdict

    def __post_init__(self) -> None:
        if not isinstance(self.aggregates, tuple) or not self.aggregates:
            raise ConfigError("cluster report needs a non-empty tuple of aggregates")
        names = [agg.strategy for agg in self.aggregates]
        if sorted(names) != sorted(self.topology.strategies):
            raise ConfigError(
                f"aggregate strategies {sorted(names)} do not match topology "
                f"strategies {sorted(self.topology.strategies)}"
            )

    @property
    def scale_factor(self) -> float:
        return self.topology.tenants / PAPER_SCALE_TENANTS

    def checks(self) -> list:
        """Bench-gate-shaped pass/fail checks for CI blocking."""
        bench = f"cluster/{self.topology.name}"
        out = [
            {
                "bench": bench,
                "check": "samples_recorded",
                "ok": all(agg.count > 0 for agg in self.aggregates),
                "note": "every strategy recorded at least one latency sample",
            }
        ]
        if self.verdict.applicable:
            p999_us = {
                name: (None if value is None else round(cycles_to_us(value), 3))
                for name, value in sorted(self.verdict.p999.items())
            }
            out.append(
                {
                    "bench": bench,
                    "check": "ordering_p999",
                    "ok": self.verdict.ok,
                    "note": f"expect p999 flush > tracked > timer; got (us) {p999_us}",
                }
            )
        return out

    def to_json(self) -> dict:
        """The fields plus the derived ``schema``, ``scale`` and ``checks``."""
        out = JsonCodec.to_json(self)
        out["schema"] = REPORT_SCHEMA
        out["scale"] = {
            "tenants": self.topology.tenants,
            "paper_tenants": PAPER_SCALE_TENANTS,
            "factor": self.scale_factor,
        }
        out["checks"] = self.checks()
        return out

    @classmethod
    def from_json(cls, obj: Any) -> "ClusterReport":
        """Checks the schema; the derived keys are recomputed, not read."""
        if isinstance(obj, Mapping):
            schema = obj.get("schema", REPORT_SCHEMA)
            if schema != REPORT_SCHEMA:
                raise ConfigError(f"unsupported cluster report schema {schema!r}")
            obj = {k: v for k, v in obj.items() if k not in ("schema", "scale", "checks")}
        return decode(cls, obj)

    def dumps(self) -> str:
        """Byte-stable canonical dump (the re-run determinism contract)."""
        return JsonCodec.dumps(self) + "\n"
