"""Deterministic, independently addressable random number streams.

Built on Philox, a counter-based bit generator, so any (seed, stream)
pair reconstructs its state without touching any other stream. Paths,
replications and reference draws each get their own stream id, which is
what makes runs reproducible regardless of execution order.
"""

from __future__ import annotations

import numpy as np


class RngStream:
    """A keyed family of generators: substreams plus spawnable children.

    Substream numbering convention used by the simulators:

        0: Y drivers (W increments or exact transition draws)
        1: the independent Brownian factor B
        2: the extra Brownian factor L
        3: initialization draws
        4: auxiliary draws (limit-law reference noise and the like)

    Repeated `generator(k)` calls return the same advancing Generator
    object; a fresh RngStream with the same address restarts the stream.
    """

    def __init__(self, seed: int, stream_id: int = 0, _path: tuple[int, ...] = ()):
        if seed < 0:
            raise ValueError(f"seed must be nonnegative, got {seed}")
        if stream_id < 0:
            raise ValueError(f"stream_id must be nonnegative, got {stream_id}")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._path = tuple(int(p) for p in _path)
        self._generators: dict[int, np.random.Generator] = {}

    def _entropy(self, substream: int) -> tuple[int, ...]:
        # SeedSequence silently ignores *trailing zero* entropy words
        # (SeedSequence((5,2)) == SeedSequence((5,2,0))), so every word
        # after the user seed is offset by +1; no key can then be a
        # zero-padded extension of another.
        return (
            self.seed,
            self.stream_id + 1,
            *(p + 1 for p in self._path),
            substream + 1,
        )

    def generator(self, substream: int = 0) -> np.random.Generator:
        if substream < 0:
            raise ValueError(f"substream must be nonnegative, got {substream}")
        gen = self._generators.get(substream)
        if gen is None:
            seq = np.random.SeedSequence(self._entropy(substream))
            gen = np.random.Generator(np.random.Philox(seq))
            self._generators[substream] = gen
        return gen

    @property
    def started(self) -> bool:
        """Whether any substream has handed out its Generator."""
        return bool(self._generators)

    def spawn(self, index: int) -> "RngStream":
        """Child stream for nested simulations (burn-in legs, redraws)."""
        if index < 0:
            raise ValueError(f"spawn index must be nonnegative, got {index}")
        return RngStream(self.seed, self.stream_id, self._path + (int(index),))

    def __repr__(self) -> str:
        path = "".join(f".{p}" for p in self._path)
        return f"RngStream(seed={self.seed}, stream={self.stream_id}{path})"
