"""Deterministic random streams for embarrassingly parallel sweeps.

Each run owns one stream, derived by counter-based mixing of
(master_seed, stream_index) through the Philox generator: distinct stream
indices give decorrelated streams whose content does not depend on the
order in which they are created, so parallel sweeps are reproducible
bit-for-bit regardless of scheduling.

Exponential variates are always produced as -log(1 - u) from a uniform u in
[0, 1), never via a library shortcut, so the draw-consumption pattern of a
simulation is fully pinned down by its uniform stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class SeedSpec:
    """Address of one random stream: (master_seed, stream_index)."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.master_seed < 2 ** 64):
            raise ConfigError("SeedSpec: master_seed must be a 64-bit unsigned integer")
        if self.stream_index < 0:
            raise ConfigError("SeedSpec: stream_index must be nonnegative")


def derive_stream(seed: SeedSpec) -> np.random.Generator:
    """Generator whose state is a pure function of (master_seed, stream_index)."""
    key = np.array([seed.master_seed, seed.stream_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class DrawBuffer:
    """Batched uniform draws consumed in a strict sequence.

    The thinning loops pull two uniforms per proposal; batching the
    generator calls cuts the per-proposal overhead several-fold. The
    consumed sequence is exactly the generator's uniform stream, so results
    do not depend on the batch size.
    """

    __slots__ = ("_gen", "_batch", "_buf", "_pos")

    def __init__(self, gen: np.random.Generator, batch: int = 16384):
        self._gen = gen
        self._batch = batch
        self._buf = gen.random(batch)
        self._pos = 0

    def pair(self) -> tuple[float, float]:
        """Next two uniforms in [0, 1)."""
        pos = self._pos
        if pos + 2 > self._buf.shape[0]:
            self._buf = self._gen.random(self._batch)
            pos = 0
        self._pos = pos + 2
        return self._buf[pos], self._buf[pos + 1]
