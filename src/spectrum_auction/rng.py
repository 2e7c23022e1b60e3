"""Reproducible random streams for Monte Carlo.

Each replication owns its own counter-based stream derived from
``(master_seed, stream_index)``: numpy's Philox4x64-10 keyed by
``SeedSequence(master_seed, spawn_key=(stream_index,))``. Stream ``i``
always produces the same draw sequence, whatever other streams were
opened before it. Because draw ``j`` of a stream does not depend on how
the draws before it were requested, a stream's first draws can be taken
as one array and replayed later (:class:`DrawReplay`).

Opening a stream only checks and stores its two integers; its numpy
Generator is built on its first draw. :meth:`RngStream.first_uniforms`
takes the first draws of many fresh streams in one numpy pass, with
numpy's seeding (O'Neill's ``seed_seq``, NEP 19) and Philox4x64-10
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011)
written out on arrays, bit for bit.
"""
from __future__ import annotations

import numpy as np

_U64_MAX = 2**64 - 1
_M32 = 0xFFFFFFFF
_INTEGER = (int, np.integer)

# SeedSequence's hash and mix constants.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# Philox4x64's round multipliers and key increments.
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B


def pick_index(u: float, n: int) -> int:
    """The uniform index in {0, ..., n-1} that the draw ``u`` selects."""
    if n <= 0:
        raise ValueError("pick needs n >= 1")
    return min(int(u * n), n - 1)


def _hasher(h: int, mult: int):
    """SeedSequence's ``hashmix`` on uint32 arrays, with its running
    hash constant ``h`` (advanced by ``mult`` on every call)."""
    def hashmix(value):
        nonlocal h
        value = value ^ h
        h = h * mult & _M32
        value = value * h
        return value ^ value >> 16
    return hashmix


def _mix(x, y):
    value = x * _MIX_L - y * _MIX_R
    return value ^ value >> 16


def _philox_keys(seeds: np.ndarray, indices: np.ndarray):
    """The two Philox key words of ``SeedSequence(seed,
    spawn_key=(index,))`` for uint64 arrays of seeds and indices.

    The assembled entropy is the seed's two 32-bit words padded to the
    pool size of four, then the index's words: one, or two when the
    index is at least 2**32. The key is ``generate_state(2, uint64)``
    of the mixed pool, low word first."""
    zero = np.zeros(len(seeds), np.uint32)
    words = [(a >> shift & _M32).astype(np.uint32) for a in (seeds, indices) for shift in (0, 32)]
    seed_lo, seed_hi, index_lo, index_hi = words
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in (seed_lo, seed_hi, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for dst in range(4):
        pool[dst] = _mix(pool[dst], hashmix(index_lo))
    long = index_hi != 0
    if long.any():
        for dst in range(4):
            pool[dst] = np.where(long, _mix(pool[dst], hashmix(index_hi)), pool[dst])
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = [hashmix(w).astype(np.uint64) for w in pool]
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def _mulhilo(m: int, x: np.ndarray):
    """High and low 64-bit words of the 128-bit product ``m * x``, with
    the high word built from 32-bit halves in uint64."""
    m_lo, m_hi = m & _M32, m >> 32
    x_lo, x_hi = x & _M32, x >> 32
    t = x_lo * m_lo
    u = x_hi * m_lo + (t >> 32)
    v = x_lo * m_hi + (u & _M32)
    return x_hi * m_hi + (u >> 32) + (v >> 32), x * m


def _philox_block(counter: int, k0: np.ndarray, k1: np.ndarray) -> list[np.ndarray]:
    """Philox4x64-10 of the counter ``(counter, 0, 0, 0)`` under each
    key ``(k0, k1)``: four uint64 words per key."""
    c0 = np.full(len(k0), counter, np.uint64)
    c1 = c2 = c3 = np.zeros(len(k0), np.uint64)
    for rnd in range(10):
        if rnd:
            k0, k1 = k0 + _PHILOX_W0, k1 + _PHILOX_W1
        hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
        hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return [c0, c1, c2, c3]


class RngStream:
    """One independent draw stream of a splittable generator.

    Identical ``(master_seed, stream_index)`` pairs yield bit-identical
    draw sequences on every platform (Philox is counter based and does
    not depend on hardware word order). Both must be integers in
    [0, 2**64 - 1]; they are checked here, and the Generator is built
    on the first draw. A stream is single-owner: never share one
    instance across threads.
    """

    __slots__ = ("master_seed", "stream_index", "_gen", "_consumed")

    def __init__(self, master_seed: int, stream_index: int = 0):
        if not 0 <= master_seed <= _U64_MAX:
            raise ValueError("master_seed must fit in an unsigned 64-bit int")
        if not 0 <= stream_index <= _U64_MAX:
            raise ValueError("stream_index must fit in an unsigned 64-bit int")
        if not (isinstance(master_seed, _INTEGER) and isinstance(stream_index, _INTEGER)):
            raise TypeError(f"master_seed and stream_index must be integers, "
                            f"got {master_seed!r} and {stream_index!r}")
        self.master_seed = master_seed
        self.stream_index = stream_index
        self._gen = None
        self._consumed = 0

    def _generator(self) -> np.random.Generator:
        """The stream's Generator, built on first use past any draws
        :meth:`first_uniforms` already took."""
        if self._gen is None:
            self._gen = np.random.Generator(
                np.random.Philox(
                    np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_index,))
                )
            )
            if self._consumed:
                self._gen.random(self._consumed)
        return self._gen

    @staticmethod
    def first_uniforms(streams, d: int) -> np.ndarray:
        """The first ``d`` draws of each fresh stream in ``streams``, as a
        ``(len(streams), d)`` array equal to each stream's
        ``uniforms(d)``, computed in one numpy pass. Each stream records
        that it consumed them, so its next draw is draw ``d``. A stream
        that has drawn already is refused with ``ValueError``."""
        if any(s._gen is not None or s._consumed for s in streams):
            raise ValueError("first_uniforms needs streams that have not drawn yet")
        seeds = np.array([s.master_seed for s in streams], dtype=np.uint64)
        indices = np.array([s.stream_index for s in streams], dtype=np.uint64)
        k0, k1 = _philox_keys(seeds, indices)
        # Philox sets the counter to b + 1 before it computes block b.
        words = [w for b in range(-(-d // 4)) for w in _philox_block(b + 1, k0, k1)]
        out = np.stack(words[:d], axis=1) if d else np.empty((len(streams), 0), np.uint64)
        for s in streams:
            s._consumed = d
        return (out >> 11).astype(np.float64) * 2.0**-53

    def uniform(self) -> float:
        """One double in [0, 1); consumes exactly one draw."""
        return float(self._generator().random())

    def uniforms(self, *shape: int) -> np.ndarray:
        """Array of doubles in [0, 1); consumes prod(shape) draws in
        the same order as repeated :meth:`uniform` calls."""
        return self._generator().random(shape)

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
