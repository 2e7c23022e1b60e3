"""Reproducible random streams for Monte Carlo.

Each replication owns its own counter-based stream derived from
``(master_seed, stream_index)``: stream ``i`` always produces the same
draw sequence, whatever other streams were opened before it. Because draw
``j`` of a stream does not depend on how the draws before it were
requested, a stream's first draws can be taken as one array and replayed
later (:class:`DrawReplay`).
"""
from __future__ import annotations

import numpy as np

_U64_MAX = 2**64 - 1


def pick_index(u: float, n: int) -> int:
    """The uniform index in {0, ..., n-1} that the draw ``u`` selects."""
    if n <= 0:
        raise ValueError("pick needs n >= 1")
    return min(int(u * n), n - 1)


class RngStream:
    """One independent draw stream of a splittable generator.

    Identical ``(master_seed, stream_index)`` pairs yield bit-identical
    draw sequences on every platform (Philox is counter based and does
    not depend on hardware word order). A stream is single-owner: never
    share one instance across threads.
    """

    def __init__(self, master_seed: int, stream_index: int = 0):
        if not 0 <= master_seed <= _U64_MAX:
            raise ValueError("master_seed must fit in an unsigned 64-bit int")
        if not 0 <= stream_index <= _U64_MAX:
            raise ValueError("stream_index must fit in an unsigned 64-bit int")
        self.master_seed = master_seed
        self.stream_index = stream_index
        self._gen = np.random.Generator(
            np.random.Philox(
                np.random.SeedSequence(master_seed, spawn_key=(stream_index,))
            )
        )

    def uniform(self) -> float:
        """One double in [0, 1); consumes exactly one draw."""
        return float(self._gen.random())

    def uniforms(self, *shape: int) -> np.ndarray:
        """Array of doubles in [0, 1); consumes prod(shape) draws in
        the same order as repeated :meth:`uniform` calls."""
        return self._gen.random(shape)

    def pick(self, n: int) -> int:
        """Uniform index in {0, ..., n-1}; consumes exactly one draw."""
        return pick_index(self.uniform(), n)

    def __repr__(self) -> str:
        return f"RngStream(master_seed={self.master_seed}, stream_index={self.stream_index})"


class DrawReplay:
    """Replays pre-drawn uniforms, in order, through the
    :meth:`RngStream.pick` interface, so code written against a stream
    can consume draws taken earlier in a batch. A pick past the last
    draw raises ``RuntimeError``."""

    def __init__(self, draws):
        self._draws = draws
        self._used = 0

    def pick(self, n: int) -> int:
        """Uniform index in {0, ..., n-1}; consumes exactly one draw."""
        if self._used == len(self._draws):
            raise RuntimeError(f"draw replay is exhausted: it holds {len(self._draws)} draws")
        self._used += 1
        return pick_index(float(self._draws[self._used - 1]), n)
