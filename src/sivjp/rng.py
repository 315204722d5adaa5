"""Deterministic random streams for embarrassingly parallel sweeps.

Each run owns one stream, derived by counter-based mixing of
(master_seed, stream_index) through the Philox generator: distinct stream
indices give decorrelated streams whose content does not depend on the
order in which they are created, so parallel sweeps are reproducible
bit-for-bit regardless of scheduling.

Exponential variates are always produced as -log(1 - u) from a uniform u in
[0, 1), never via a library shortcut, so the draw-consumption pattern of a
simulation is fully pinned down by its uniform stream. The thinning loops
read that stream as Python floats, two per proposal, from uniform_pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator

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


def uniform_pairs(gen: np.random.Generator,
                  batch: int = 2048) -> Iterator[tuple[float, float]]:
    """Endless iterator of the generator's uniforms in [0, 1), two at a time.

    The thinning loops take one pair per proposal. The generator is called
    for an even batch at a time and the batch is read back as Python
    floats, so the loop does plain float arithmetic and no method call per
    proposal. The pairs are consecutive draws of the generator's uniform
    stream, in order, so results do not depend on the batch size. The
    batch is kept small: two batches are alive across a refill.
    """
    if batch < 2 or batch % 2:
        raise ConfigError(f"uniform_pairs: batch must be even and >= 2, got {batch}")

    def batches():
        while True:
            u = gen.random(batch).tolist()
            yield zip(u[0::2], u[1::2])

    return chain.from_iterable(batches())
