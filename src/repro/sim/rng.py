"""Deterministic, named random-number streams.

Every stochastic choice in the simulator (per-TB instruction counts, CPI
jitter, non-idempotent points, preemption arrival phases) draws from a
stream named after its purpose. Streams are derived from a single root
seed, so an experiment is reproducible from ``(root_seed, stream names)``
alone, and adding a new consumer never perturbs existing streams.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Dict, List

from repro.sim import rng_vector

#: Below this batch size the numpy fill's fixed costs (saving and
#: restoring the stream's state, array set-up) outweigh the per-draw
#: win; the scalar loop runs instead. A kernel's three batches (two
#: lognormal, one Beta) cost the same either way at about 160 blocks:
#: the lognormal fill alone wins from about 100, the Beta fill from
#: about 200. The two paths are bit-identical either way.
_VECTOR_MIN_N = 160


def _derive_seed(root_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RngStreams:
    """A factory of independent named :class:`random.Random` streams."""

    def __init__(self, root_seed: int = 12345):
        self.root_seed = root_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating on first use) the stream with this name."""
        if name not in self._streams:
            self._streams[name] = random.Random(_derive_seed(self.root_seed, name))
        return self._streams[name]

    def lognormal(self, name: str, mean: float, cv: float) -> float:
        """Draw a lognormal value with the given arithmetic mean and
        coefficient of variation (stddev/mean).

        ``cv == 0`` returns ``mean`` exactly.
        """
        if mean <= 0:
            raise ValueError(f"lognormal mean must be positive, got {mean}")
        if cv <= 0:
            return mean
        sigma2 = math.log(1.0 + cv * cv)
        mu = math.log(mean) - sigma2 / 2.0
        return self.stream(name).lognormvariate(mu, math.sqrt(sigma2))

    def lognormal_batch(self, name: str, mean: float, cv: float,
                        n: int) -> List[float]:
        """Draw ``n`` lognormal values in one call.

        The ``mu``/``sigma`` transform is computed once; batches of
        ``_VECTOR_MIN_N`` or more come from the numpy fill in
        :mod:`repro.sim.rng_vector`, smaller ones from the stream's bound
        ``lognormvariate``. Either way the sequence of values is
        bit-identical to ``n`` calls of :meth:`lognormal` (same stream
        state transitions, same floats). ``cv == 0``
        returns ``[mean] * n`` without touching the stream, matching the
        scalar method's draw-free shortcut.
        """
        if mean <= 0:
            raise ValueError(f"lognormal mean must be positive, got {mean}")
        if n <= 0:
            return []
        if cv <= 0:
            return [mean] * n
        sigma2 = math.log(1.0 + cv * cv)
        mu = math.log(mean) - sigma2 / 2.0
        sigma = math.sqrt(sigma2)
        stream = self.stream(name)
        if n >= _VECTOR_MIN_N:
            return rng_vector.lognormal_fill(stream, mu, sigma, n)
        draw = stream.lognormvariate
        return [draw(mu, sigma) for _ in range(n)]

    def beta(self, name: str, alpha: float, beta: float) -> float:
        """Draw from a Beta(alpha, beta) distribution on [0, 1]."""
        return self.stream(name).betavariate(alpha, beta)

    def beta_batch(self, name: str, alpha: float, beta: float,
                   n: int) -> List[float]:
        """Draw ``n`` Beta(alpha, beta) values in one call (bit-identical
        to ``n`` calls of :meth:`beta` on the same stream)."""
        if n <= 0:
            return []
        stream = self.stream(name)
        if n >= _VECTOR_MIN_N:
            try:
                return rng_vector.beta_fill(stream, alpha, beta, n)
            except rng_vector.VectorUnsupported:
                pass  # e.g. alpha < 1: the scalar loop handles it
        draw = stream.betavariate
        return [draw(alpha, beta) for _ in range(n)]

    def uniform(self, name: str, lo: float, hi: float) -> float:
        """Draw uniformly from [lo, hi)."""
        return self.stream(name).uniform(lo, hi)

    def fork(self, name: str) -> "RngStreams":
        """Return a new independent RngStreams rooted under ``name``."""
        return RngStreams(_derive_seed(self.root_seed, f"fork:{name}"))
