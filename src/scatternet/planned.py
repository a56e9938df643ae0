"""Designer-specified sector deployment.

A plan lists non-overlapping sectors (origin-centered annuli or disks, or
axis-aligned rectangles), each with its own node quota.  Every sector is
filled uniformly and independently from its own substream into its slice of
the run's coordinate arrays, in plan order; density contrast between
sectors is what makes the combined pattern inhomogeneous.  Area not covered
by any sector is intentionally left empty.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Deployment, Rect, Sector
from .sampling import fill_in_order

__all__ = [
    "DeploymentPlan",
    "OverlapError",
    "OverlapCheck",
    "check_non_overlap",
    "deploy_planned",
]


class OverlapError(ValueError):
    """Two sectors of a plan have intersecting interiors."""


@dataclass(frozen=True)
class OverlapCheck:
    """Outcome of a pairwise overlap scan.

    ``pair`` holds the 1-based indices of the first offending pair, or None.
    """

    ok: bool
    pair: Optional[tuple] = None

    @property
    def message(self) -> Optional[str]:
        if self.ok:
            return None
        return f"sectors {self.pair[0]} and {self.pair[1]} overlap"


@dataclass(frozen=True)
class DeploymentPlan:
    """Ordered list of sectors with their node total."""

    sectors: tuple

    def __post_init__(self):
        if len(self.sectors) < 1:
            raise ValueError("a plan needs at least one sector")
        for sec in self.sectors:
            if not isinstance(sec, Sector):
                raise TypeError(f"plan entries must be Sector instances, got {type(sec).__name__}")

    @property
    def total_nodes(self) -> int:
        return sum(sec.count for sec in self.sectors)


def _box_origin_distances(rect: Rect):
    """Min and max distance from the origin to the closed rectangle."""
    dx = max(rect.x0, -rect.x1, 0.0)
    dy = max(rect.y0, -rect.y1, 0.0)
    dmin = math.hypot(dx, dy)
    dmax = max(
        math.hypot(cx, cy)
        for cx in (rect.x0, rect.x1)
        for cy in (rect.y0, rect.y1)
    )
    return dmin, dmax


def check_non_overlap(sectors) -> OverlapCheck:
    """Scan all sector pairs for interior intersection.

    Returns an :class:`OverlapCheck` naming the first offending pair (by
    1-based plan position) if any.  All tests are exact; boundary contact
    (shared edge or circle) does not count as overlap, matching the intent
    that sectors tile a region edge-to-edge.

    Every shape spans a range of distances from the origin: ``[inner,
    outer]`` for a circular shape, and ``[dmin, dmax]`` for a rectangle,
    whose continuous distance attains every value between.  Two shapes
    overlap exactly when each range starts strictly before the other ends,
    except that two rectangles overlap exactly when their boxes do.  Row
    ``i`` tests itself against every later sector at once.
    """
    shapes = [sec.shape for sec in sectors]
    rect = np.array([isinstance(s, Rect) for s in shapes], dtype=bool)
    lo, hi = np.array(
        [_box_origin_distances(s) if isinstance(s, Rect) else (s.inner, s.outer) for s in shapes],
        dtype=np.float64,
    ).reshape(-1, 2).T
    x0, y0, x1, y1 = np.array(
        [(s.x0, s.y0, s.x1, s.y1) if isinstance(s, Rect) else (0.0,) * 4 for s in shapes],
        dtype=np.float64,
    ).reshape(-1, 4).T
    for i in range(len(shapes) - 1):
        j = slice(i + 1, None)
        hit = (lo[i] < hi[j]) & (lo[j] < hi[i])
        if rect[i]:
            boxes = (x0[i] < x1[j]) & (x0[j] < x1[i]) & (y0[i] < y1[j]) & (y0[j] < y1[i])
            hit = np.where(rect[j], boxes, hit)
        if hit.any():
            return OverlapCheck(ok=False, pair=(i + 1, i + 2 + int(hit.argmax())))
    return OverlapCheck(ok=True)


def deploy_planned(plan: DeploymentPlan, stream) -> Deployment:
    """Generate one planned deployment by per-sector superposition.

    Sector ``i`` (1-based plan position) draws from ``stream.substream(i)``,
    so its points depend only on the base stream identity and its own shape
    and count; sectors can be sampled concurrently and the result is
    independent of execution order.

    Raises :class:`OverlapError` if any two sectors' interiors intersect.
    """
    check = check_non_overlap(plan.sectors)
    if not check.ok:
        raise OverlapError(check.message)
    x, y, tags = fill_in_order(plan.sectors, stream.substream)
    return Deployment(x=x, y=y, sector=tags, plan=plan)
