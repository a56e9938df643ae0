"""Designer-specified sector deployment.

A plan lists non-overlapping sectors (origin-centered annuli or disks, or
axis-aligned rectangles), each with its own node quota.  Every sector is
filled uniformly and independently from its own substream into its slice of
the run's coordinate arrays, in plan order; density contrast between
sectors is what makes the combined pattern inhomogeneous.  Area not covered
by any sector is intentionally left empty.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

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


def _radial_interval(shape):
    """Open radial interval occupied by a circular shape, None for rectangles."""
    return None if isinstance(shape, Rect) else (shape.inner, shape.outer)


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


def _shapes_overlap(a, b) -> bool:
    """True iff the interiors of the two shapes intersect.

    All tests are exact; boundary contact (shared edge or circle) does not
    count as overlap, matching the intent that sectors tile a region
    edge-to-edge.
    """
    ia = _radial_interval(a)
    ib = _radial_interval(b)
    if ia is not None and ib is not None:
        return ia[0] < ib[1] and ib[0] < ia[1]
    if ia is None and ib is None:
        return a.x0 < b.x1 and b.x0 < a.x1 and a.y0 < b.y1 and b.y0 < a.y1
    interval, rect = (ib, a) if ia is None else (ia, b)
    dmin, dmax = _box_origin_distances(rect)
    # The distance to the origin is continuous over the rectangle, so it
    # attains every value in [dmin, dmax]; the interiors meet exactly when
    # that range strictly straddles the annulus interval.
    return dmin < interval[1] and dmax > interval[0]


@functools.lru_cache(maxsize=1)
def _scan_pairs(sectors: tuple) -> OverlapCheck:
    # One cached result: the CLI checks a plan up front and again in every
    # run's ``deploy_planned``, and the scan is O(k^2) in the sector count.
    for i in range(len(sectors)):
        for j in range(i + 1, len(sectors)):
            if _shapes_overlap(sectors[i].shape, sectors[j].shape):
                return OverlapCheck(ok=False, pair=(i + 1, j + 1))
    return OverlapCheck(ok=True)


def check_non_overlap(sectors) -> OverlapCheck:
    """Scan all sector pairs for interior intersection.

    Returns an :class:`OverlapCheck` naming the first offending pair (by
    1-based plan position) if any.  The result for the most recent sector
    sequence is remembered, so checking the same plan again costs no scan.
    """
    return _scan_pairs(tuple(sectors))


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
