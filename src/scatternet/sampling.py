"""The uniform point fill both deployment modes share.

A fill writes ``x.size`` points into preallocated coordinate arrays and
draws two variates per point, point by point.  Each shape's ``place`` maps
them to a point: the radial then the angular variate for circular shapes,
the x then the y variate for rectangles.  Work proceeds in cache-sized
chunks, so cost stays linear in the point count and scratch memory bounded
by the chunk size.
"""
from __future__ import annotations

import numpy as np

__all__ = ["fill_sector", "fill_in_order"]

_POINT_CHUNK = 1 << 14


def fill_sector(x, y, shape, stream) -> None:
    """Points uniform over any sector shape: each chunk's first and second
    variates, with the chunk's output slices, go to ``shape.place``."""
    draws = np.empty(2 * min(x.size, _POINT_CHUNK), dtype=np.float64)
    for start in range(0, x.size, _POINT_CHUNK):
        stop = min(start + _POINT_CHUNK, x.size)
        chunk = draws[: 2 * (stop - start)]
        stream.uniform_fill(chunk)
        shape.place(chunk[0::2], chunk[1::2], x[start:stop], y[start:stop])


def fill_in_order(sectors, stream_of):
    """Coordinates and 1-based tags of sectors filled one after another.

    Sector ``index`` writes its ``count`` points into its slices of the
    preallocated arrays, drawing from ``stream_of(index)``.
    """
    quotas = [sec.count for sec in sectors]
    total = sum(quotas)
    x = np.empty(total, dtype=np.float64)
    y = np.empty(total, dtype=np.float64)
    offset = 0
    for index, sec in enumerate(sectors, start=1):
        stop = offset + sec.count
        fill_sector(x[offset:stop], y[offset:stop], sec.shape, stream_of(index))
        offset = stop
    tags = np.repeat(np.arange(1, len(quotas) + 1, dtype=np.int64), quotas)
    return x, y, tags
