"""Deterministic, independently addressable random number streams.

Every generator is seeded by a SeedSequence over the entropy words
(seed, stream, spawn path, substream), so any (seed, stream) pair
reconstructs its state without touching any other stream. The address
lives in those words, not in the bit generator's counter: Philox fills
each generator, but any bit generator seeded the same way would keep
the addresses. Paths, replications and reference draws each get their
own stream id, which is what makes runs reproducible regardless of
execution order. A stream is an address and holds no state: asking it
twice for a substream gives two generators at the same start.
"""

from __future__ import annotations

import numbers

import numpy as np


def _word(name: str, value) -> int:
    """A nonnegative integer address word; a float is refused, not
    truncated, lest two addresses share one stream."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")
    return int(value)


class RngStream:
    """A keyed family of generators: substreams plus spawnable children.

    Substream numbering convention used by the simulators:

        0: Y drivers (W increments or exact transition draws)
        1: the independent Brownian factor B
        2: the extra Brownian factor L
        3: initialization draws
        4: auxiliary draws (limit-law reference noise and the like)

    Every `generator(k)` call returns a new Generator at the start of
    substream k, so reusing a stream restarts the same draws.
    """

    def __init__(self, seed: int, stream_id: int = 0, _path: tuple[int, ...] = ()):
        self.seed = _word("seed", seed)
        self.stream_id = _word("stream_id", stream_id)
        self._path = tuple(int(p) for p in _path)

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
        seq = np.random.SeedSequence(self._entropy(_word("substream", substream)))
        return np.random.Generator(np.random.Philox(seq))

    def spawn(self, index: int) -> "RngStream":
        """Child stream for nested simulations (burn-in legs, redraws)."""
        return RngStream(self.seed, self.stream_id,
                         self._path + (_word("spawn index", index),))

    def __repr__(self) -> str:
        path = "".join(f".{p}" for p in self._path)
        return f"RngStream(seed={self.seed}, stream={self.stream_id}{path})"
