"""Domain types and geometric primitives shared by every deployment mode.

Each shape owns its area law in both directions: ``place(u1, u2, xs, ys)``
maps two uniform variates per point to a point uniform over the shape, and
``unit(x, y)`` maps points back to their pair ``(u1, u2)`` in the unit
square (the probability integral transform the tests read).  ``unit`` and
``contains`` are each stated once, as an array function of the points and
of the shape's parameters, which also takes one parameter value per point:
so one call applies the shapes of many sectors of a kind at once.

The sector model both deployment modes share lives here too: a
:class:`DeploymentPlan` of :class:`Sector` entries, whose ``fill`` writes
each sector's points by :func:`fill_sector` into one :class:`Deployment`.

All types are immutable after construction.  Every operation is a pure
function of its arguments, except that ``place`` writes its points into the
caller's ``xs`` and ``ys``; so shapes can be shared freely between
concurrent workers.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

__all__ = [
    "ConfigError",
    "NetworkConfig",
    "Annulus",
    "Disk",
    "Rect",
    "Circle",
    "Sector",
    "DeploymentPlan",
    "Deployment",
    "fill_sector",
    "validate_config",
]

TWO_PI = 2.0 * math.pi
_POINT_CHUNK = 1 << 14


def uint64(value: int) -> bool:
    """Whether ``value`` fits in an unsigned 64-bit integer, the one rule for
    a seed (and for the stream id a seed is keyed with)."""
    return 0 <= value < 2**64


def seed_violations(seed: int) -> list:
    """The seed rule's violation for ``seed``, as a list of at most one message."""
    return [] if uint64(seed) else [f"seed must fit in an unsigned 64-bit integer, got {seed}"]


def normal_area(area: float) -> bool:
    """Whether ``area`` is a normal positive finite float, the one rule for a
    disk or sector area.  A subnormal area has too few significant bits for
    the area-CDF transform to spread points over it."""
    return sys.float_info.min <= area < math.inf


class ConfigError(ValueError):
    """A deployment configuration violates one or more of its invariants.

    Carries every violated constraint in ``violations``, not just the first
    one found, so callers can report the full picture at once.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class NetworkConfig:
    """Designer inputs for an automatic layered deployment.

    radius      extent of the circular region (arbitrary length unit)
    max_layers  upper bound on the randomly sampled layer count
    nodes       total number of nodes to place
    seed        64-bit unsigned RNG seed
    """

    radius: float
    max_layers: int
    nodes: int
    seed: int = 0


def validate_config(config: NetworkConfig) -> NetworkConfig:
    """Return ``config`` unchanged if every invariant holds.

    Raises :class:`ConfigError` listing all violated invariants otherwise.
    The disk area must be a normal positive finite float, as for a plan
    sector (:func:`normal_area`), so that squaring the radius neither
    overflows nor falls to a subnormal value.
    ``nodes >= max_layers`` is required so that even the largest possible
    layer count leaves at least one node for every outer layer.
    """
    violations = []
    area = math.pi * (config.radius * config.radius)  # inf, not OverflowError, past the float range
    if not (config.radius > 0 and normal_area(area)):
        violations.append(
            f"radius must be positive with a normal positive finite disk area pi*L^2, got {config.radius}"
        )
    if config.max_layers < 2:
        violations.append(f"max_layers must be at least 2, got {config.max_layers}")
    if config.nodes < config.max_layers:
        violations.append(
            f"nodes must be at least max_layers ({config.max_layers}) so every "
            f"layer receives at least one node, got {config.nodes}"
        )
    violations += seed_violations(config.seed)
    if violations:
        raise ConfigError(violations)
    return config


@dataclass(frozen=True)
class LayerSet:
    """An automatic run's layer radii, read back from its plan by
    :attr:`Deployment.layer_set`.

    ``boundaries`` holds the layer_count - 1 interior radii in ascending
    order; the outermost layer ends at ``radius``.  It checks nothing: the
    plan is the run's one sector model, and :func:`~scatternet.automatic.layer_plan`
    checks the radii.  This view stays only because the benchmark's
    correctness gate reads it; it goes once that gate reads the plan.
    """

    radius: float
    boundaries: tuple

    @property
    def layer_count(self) -> int:
        return len(self.boundaries) + 1


def _ring_unit(x, y, inner, outer):
    """The area CDF of each point's radius between ``inner`` and ``outer``,
    and its angle as a fraction of a turn."""
    r = np.hypot(x, y)
    u1 = (r * r - inner * inner) / (outer * outer - inner * inner)
    return u1, np.mod(np.arctan2(y, x), TWO_PI) / TWO_PI


def _ring_contains(x, y, inner_sq, outer_sq):
    r2 = x**2 + y**2
    return (r2 >= inner_sq) & (r2 <= outer_sq)


def _circle_contains(x, y, radius):
    return np.isclose(np.hypot(x, y), radius, atol=0.0)  # relative only, at any scale


def _rect_unit(x, y, x0, y0, x1, y1):
    return (y - y0) / (y1 - y0), (x - x0) / (x1 - x0)


def _rect_contains(x, y, x0, y0, x1, y1):
    return (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)


class _Shape:
    """``unit`` and ``contains`` from the shape's rules: ``unit_rule()`` and
    ``contains_rule()`` each give ``(array function, parameters)``."""

    def unit(self, x, y):
        function, params = self.unit_rule()
        return function(x, y, *params)

    def contains(self, x, y):
        function, params = self.contains_rule()
        return function(np.asarray(x), np.asarray(y), *params)


class _Circular(_Shape):
    """The area law of an origin-centred shape between radii ``inner`` and
    ``outer``: the radius is the inverse of the area CDF, r = sqrt(inner^2 +
    u1 * (outer^2 - inner^2)), and the angle is u2 * 2pi.  ``inner == outer``
    (a :class:`Circle`) places every point at the shared radius."""

    def place(self, u1, u2, xs, ys) -> None:
        inner_sq = self.inner * self.inner
        span = self.outer * self.outer - self.inner * self.inner
        radius = np.sqrt(u1 * span + inner_sq)
        angle = u2 * TWO_PI
        np.multiply(radius, np.cos(angle), out=xs)
        np.multiply(radius, np.sin(angle), out=ys)

    def unit_rule(self):
        """The area CDF of each point's radius, and its angle as a fraction
        of a turn.  Needs a positive area: a :class:`Circle` divides by 0."""
        return _ring_unit, (self.inner, self.outer)

    def contains_rule(self):
        return _ring_contains, (self.inner**2, self.outer**2)


@dataclass(frozen=True)
class Annulus(_Circular):
    """Origin-centered annulus with inner radius ``inner`` and outer ``outer``."""

    inner: float
    outer: float

    def __post_init__(self):
        if not (0.0 <= self.inner < self.outer):
            raise ValueError(f"annulus requires 0 <= inner < outer, got ({self.inner}, {self.outer})")

    def area(self) -> float:
        return math.pi * (self.outer * self.outer - self.inner * self.inner)


@dataclass(frozen=True)
class Disk(_Circular):
    """Origin-centered disk of radius ``radius``: an annulus with inner radius 0."""

    radius: float
    inner = 0.0

    @property
    def outer(self) -> float:
        return self.radius

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError(f"disk radius must be positive, got {self.radius}")

    def area(self) -> float:
        return math.pi * self.radius**2


@dataclass(frozen=True)
class Rect(_Shape):
    """Axis-aligned rectangle spanning [x0, x1] x [y0, y1]."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError(
                f"rect requires x0 < x1 and y0 < y1, got "
                f"({self.x0}, {self.y0}, {self.x1}, {self.y1})"
            )

    def area(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    def place(self, u1, u2, xs, ys) -> None:
        """An affine map per axis: the first variate to x, the second to y."""
        np.multiply(u1, self.x1 - self.x0, out=xs)
        xs += self.x0
        np.multiply(u2, self.y1 - self.y0, out=ys)
        ys += self.y0

    def unit_rule(self):
        """Each point's y then x offset as a fraction of the height and
        width: rows first, as a circular shape gives its shells first."""
        return _rect_unit, (self.x0, self.y0, self.x1, self.y1)

    def contains_rule(self):
        return _rect_contains, (self.x0, self.y0, self.x1, self.y1)


@dataclass(frozen=True)
class Circle(_Circular):
    """Origin-centered circle of radius ``radius``: a zero-width layer.

    It arises only from two equal layer radii (a floating-point collision
    between independent draws).  Its area is 0, and its points must all sit
    at the shared radius.
    """

    radius: float

    @property
    def inner(self) -> float:
        return self.radius

    @property
    def outer(self) -> float:
        return self.radius

    def area(self) -> float:
        return 0.0

    def contains_rule(self):
        return _circle_contains, (self.radius,)


Shape = Union[Annulus, Disk, Rect, Circle]


@dataclass(frozen=True)
class Sector:
    """A sub-region of the deployment area together with its node quota."""

    shape: Shape
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"sector node count must be at least 1, got {self.count}")


def fill_sector(x, y, shape, stream) -> None:
    """Points uniform over any sector shape, written into ``x`` and ``y``:
    two variates per point, point by point, drawn in cache-sized chunks, so
    scratch memory is bounded.  Each chunk's first and second variates, with
    its output slices, go to ``shape.place``."""
    draws = np.empty(2 * min(x.size, _POINT_CHUNK), dtype=np.float64)
    for start in range(0, x.size, _POINT_CHUNK):
        stop = min(start + _POINT_CHUNK, x.size)
        chunk = draws[: 2 * (stop - start)]
        stream.uniform_fill(chunk)
        shape.place(chunk[0::2], chunk[1::2], x[start:stop], y[start:stop])


@dataclass(frozen=True)
class DeploymentPlan:
    """Ordered list of sectors with their node total: the one sector model
    of both modes, read from a plan file or resolved from an automatic
    run's layers."""

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

    def fill(self, stream_of, config: Optional[NetworkConfig] = None) -> "Deployment":
        """The deployment of the sectors filled one after another, in plan order.

        Sector ``index`` (1-based) writes its ``count`` points into its
        slices of the run's preallocated arrays, drawing from
        ``stream_of(index)``, and tags them ``index``.
        """
        quotas = [sec.count for sec in self.sectors]
        x = np.empty(sum(quotas), dtype=np.float64)
        y = np.empty_like(x)
        offset = 0
        for index, sec in enumerate(self.sectors, start=1):
            fill_sector(x[offset:offset + sec.count], y[offset:offset + sec.count], sec.shape, stream_of(index))
            offset += sec.count
        tags = np.repeat(np.arange(1, len(quotas) + 1, dtype=np.int64), quotas)
        return Deployment(x=x, y=y, sector=tags, plan=self, config=config)


@dataclass(frozen=True)
class Deployment:
    """A generated point set with 1-based per-point sector tags.

    ``plan`` is required: it holds the sectors the points were drawn from,
    the one sector model of both modes.  An automatic run's layers are a
    disk and annuli (or a zero-width :class:`Circle`), the inner quota
    first.  ``config`` is set only for automatic runs.  Construction raises
    ``ValueError`` unless ``x`` and ``y`` are 1-D arrays of finite
    coordinates and ``sector`` holds one integer tag per point, in 1..k for
    a plan of k sectors; an empty point set is valid.
    """

    x: np.ndarray
    y: np.ndarray
    sector: np.ndarray
    plan: DeploymentPlan
    config: Optional[NetworkConfig] = None

    def __post_init__(self):
        x, y, sector = self.x, self.y, self.sector
        if not (x.ndim == 1 and x.shape == y.shape):
            raise ValueError(f"x and y must be 1-D arrays of one shape, got {x.shape} and {y.shape}")
        if sector.shape != x.shape:
            raise ValueError(f"points need one sector tag each, got {x.size} points and {sector.size} tags")
        if not np.issubdtype(sector.dtype, np.integer):
            raise ValueError(f"sector tags must be integers, got {sector.dtype}")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("points need finite coordinates")
        k = len(self.plan.sectors)
        if sector.size and not 1 <= sector.min() <= sector.max() <= k:
            raise ValueError(f"sector tags must lie in 1..{k}")

    def __len__(self) -> int:
        return int(self.x.size)

    @property
    def layer_set(self) -> Optional[LayerSet]:
        """View of the plan's layer radii for the benchmark gate; goes once it reads the plan."""
        if self.config is None:
            return None
        boundaries = tuple(sec.shape.outer for sec in self.plan.sectors[:-1])
        return LayerSet(radius=self.config.radius, boundaries=boundaries)

    @property
    def inner_count(self) -> Optional[int]:
        """View of the plan's inner quota for the benchmark gate; goes once it reads the plan."""
        return None if self.config is None else self.plan.sectors[0].count

    @property
    def outer_count(self) -> Optional[int]:
        """View of the plan's outer quota for the benchmark gate; goes once it reads the plan."""
        return None if self.config is None else self.plan.sectors[1].count
