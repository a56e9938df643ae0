"""Uniform point fills, one per shape, shared by both deployment modes.

A fill writes ``x.size`` points into preallocated coordinate arrays and
draws two variates per point, point by point: the radial then the angular
variate for circular shapes, the x then the y variate for rectangles.  Work
proceeds in cache-sized chunks, so cost stays linear in the point count and
scratch memory bounded by the chunk size.
"""
from __future__ import annotations

import math

import numpy as np

from .core import Rect

__all__ = ["fill_annulus", "fill_rect", "fill_sector", "fill_in_order"]

TWO_PI = 2.0 * math.pi
_POINT_CHUNK = 1 << 14


def _fill(x, y, stream, place):
    # Hands each chunk's first and second variates, with the chunk's output
    # slices, to ``place``.
    draws = np.empty(2 * min(x.size, _POINT_CHUNK), dtype=np.float64)
    for start in range(0, x.size, _POINT_CHUNK):
        stop = min(start + _POINT_CHUNK, x.size)
        chunk = draws[: 2 * (stop - start)]
        stream.uniform_fill(chunk)
        place(chunk[0::2], chunk[1::2], x[start:stop], y[start:stop])


def fill_annulus(x, y, inner: float, outer: float, stream) -> None:
    """Points uniform over the annulus area between ``inner`` and ``outer``.

    The radius is the inverse of the area CDF, r = sqrt(inner^2 + u *
    (outer^2 - inner^2)); a disk is ``inner = 0``.  ``inner == outer`` (a
    zero-width layer from a floating-point radius collision) is tolerated:
    every point lands at the shared radius and still consumes two draws.
    """
    inner_sq = inner * inner
    span = outer * outer - inner * inner

    def place(u_radial, u_angular, xs, ys):
        radius = np.sqrt(u_radial * span + inner_sq)
        angle = u_angular * TWO_PI
        np.multiply(radius, np.cos(angle), out=xs)
        np.multiply(radius, np.sin(angle), out=ys)

    _fill(x, y, stream, place)


def fill_rect(x, y, rect, stream) -> None:
    """Points uniform over an axis-aligned rectangle, by an affine map per axis."""
    width = rect.x1 - rect.x0
    height = rect.y1 - rect.y0

    def place(u_x, u_y, xs, ys):
        np.multiply(u_x, width, out=xs)
        xs += rect.x0
        np.multiply(u_y, height, out=ys)
        ys += rect.y0

    _fill(x, y, stream, place)


def fill_sector(x, y, shape, stream) -> None:
    """Points uniform over any sector shape."""
    if isinstance(shape, Rect):
        fill_rect(x, y, shape, stream)
    else:
        fill_annulus(x, y, shape.inner, shape.outer, stream)


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
