"""Deterministic named random-number streams.

Every stochastic component (packet generator, load generator, offload-latency
noise, work stealing victim choice, ...) draws from its own named stream so
that adding randomness to one component never perturbs another.  Streams are
derived from a single root seed with :func:`numpy.random.SeedSequence.spawn`
semantics, keyed by name, so runs are reproducible end to end.
"""

from __future__ import annotations

import copy
import hashlib
from typing import Dict, List

import numpy as np

#: Most gaps :meth:`RngStreams.exponential_times` draws in one chunk.
EXPONENTIAL_CHUNK = 1 << 16


def derive_seed(root_seed: int, *parts: object) -> int:
    """Derive a per-point child seed from ``root_seed`` and identity parts.

    Sweep points that run in worker processes each construct their own
    :class:`RngStreams` from a derived seed, so serial and parallel execution
    of the same sweep draw identical variates regardless of point order.
    The derivation hashes the textual identity of the parts, so it is stable
    across processes and sessions (unlike ``hash()``).
    """
    text = repr((int(root_seed),) + parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "little") % (2**63)


class RngStreams:
    """A factory of independent, deterministic :class:`numpy.random.Generator` streams."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it deterministically on first use."""
        generator = self._streams.get(name)
        if generator is None:
            # Key the child seed on the stream name so stream identity is
            # stable regardless of creation order.
            name_digest = int.from_bytes(name.encode("utf-8"), "little") % (2**63)
            seq = np.random.SeedSequence(entropy=self._seed, spawn_key=(name_digest,))
            generator = np.random.default_rng(seq)
            self._streams[name] = generator
        return generator

    def exponential(self, name: str, mean: float) -> float:
        """Draw one exponential variate with the given mean from stream ``name``."""
        return float(self.stream(name).exponential(mean))

    def exponential_times(self, name: str, mean: float, start: float, end: float) -> List[float]:
        """Arrival times ``start + g1, start + g1 + g2, ...`` below ``end``.

        The gaps are exponential with the given mean from stream ``name``.
        Bit for bit this is the scalar loop ``now += exponential(name,
        mean)`` until ``now >= end``, and it leaves the stream where that
        loop does: one draw past the last time returned.  Each chunk of
        gaps, about the expected count, is drawn from a copy of the stream
        and summed by ``np.cumsum`` (a sequential running sum); the stream
        itself then draws exactly as many gaps as the loop would have.
        One variate may consume more than one raw output, so the stream
        cannot be advanced by counting outputs instead.
        """
        if not mean > 0:
            raise ValueError(f"mean must be positive, got {mean}")
        generator = self.stream(name)
        times: List[float] = []
        now = start
        while True:
            size = min(max(int((end - now) / mean * 1.05), 0) + 16, EXPONENTIAL_CHUNK)
            sums = copy.deepcopy(generator).exponential(mean, size)
            sums[0] += now  # IEEE addition commutes: now + g1, as in the loop
            np.cumsum(sums, out=sums)
            crossing = int(np.searchsorted(sums, end, side="left"))
            if crossing < size:
                generator.exponential(mean, crossing + 1)
                times.extend(sums[:crossing].tolist())
                return times
            generator.exponential(mean, size)
            times.extend(sums.tolist())
            now = float(sums[-1])

    def uniform(self, name: str, low: float, high: float) -> float:
        return float(self.stream(name).uniform(low, high))

    def choice_index(self, name: str, length: int) -> int:
        """Draw a uniform index in ``[0, length)`` from stream ``name``."""
        return int(self.stream(name).integers(0, length))
