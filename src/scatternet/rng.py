"""Deterministic, seedable uniform-variate streams.

The generator family is pinned to numpy's Philox 4x64 counter-based bit
generator, keyed directly by ``(seed, stream_id)``.  Philox raw output is
guaranteed stable across numpy versions and platforms, and distinct keys
give statistically independent streams, so substreams for parallel runs or
sectors are just different ``stream_id`` values.  Every variate is one raw
64-bit word mapped to a double in [0, 1) via ``(word >> 11) * 2**-53``
(numpy's canonical float64 path); the first outputs of the default stream
are frozen as golden values in the test suite.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["RandomStream", "discrete_uniform_via_threshold"]

_SUBSTREAM_SHIFT = 2**32


class RandomStream:
    """Single-owner stream of uniform variates.

    Two streams constructed with the same ``(seed, stream_id)`` produce
    bitwise-identical sequences on every platform, regardless of how draws
    are split between scalar and block calls (each double consumes exactly
    one generator word).  A stream is cheap mutable state: transfer it
    between workers, never share it concurrently.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        for name, value in (("seed", seed), ("stream_id", stream_id)):
            if not 0 <= value < 2**64:
                raise ValueError(f"{name} must be an unsigned 64-bit integer, got {value}")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def __repr__(self):
        return f"RandomStream(seed={self.seed}, stream_id={self.stream_id})"

    def substream(self, index: int) -> "RandomStream":
        """Independent child stream number ``index``.

        Child ids are ``stream_id * 2**32 + index`` (mod 2**64), so the
        sectors of run 0 get stream ids equal to their own 1-based indices
        while distinct (run, sector) pairs never collide for indices below
        2**32.
        """
        if index < 0:
            raise ValueError(f"substream index must be non-negative, got {index}")
        child = (self.stream_id * _SUBSTREAM_SHIFT + index) % 2**64
        return RandomStream(self.seed, child)

    def uniform01(self) -> float:
        """Next variate, uniform on the half-open interval [0, 1)."""
        return float(self._gen.random())

    def uniform_block(self, n: int) -> np.ndarray:
        """Next ``n`` variates as a fresh array."""
        if n < 0:
            raise ValueError(f"block size must be non-negative, got {n}")
        return self._gen.random(int(n))

    def uniform_fill(self, out: np.ndarray) -> np.ndarray:
        """Fill a preallocated contiguous float64 array with the next
        ``out.size`` variates; lets hot loops avoid allocation."""
        self._gen.random(out=out)
        return out


def discrete_uniform_via_threshold(stream, n_max: int) -> int:
    """Integer uniform on {2, ..., n_max} from one shifted uniform.

    Draws one uniform u and shifts it to v = 3/2 + u * (n_max - 1), which
    lies in [3/2, n_max + 1/2).  The result is the smallest candidate i in
    {2, ..., n_max} with v - i <= 1/2: v rounded to the nearest integer with
    half-way cases rounded down, clamped to the candidate range.  Both
    v - 1/2 here and v - i in the scan are exact for v < 2**52, so this
    closed form and the literal scan agree on every u.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max}")
    v = 1.5 + stream.uniform01() * (n_max - 1)
    return min(max(2, math.ceil(v - 0.5)), n_max)
