"""Domain types and geometric primitives shared by every deployment mode.

All types are immutable after construction and all operations are pure
functions, so they can be shared freely between concurrent workers.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

if TYPE_CHECKING:
    from .planned import DeploymentPlan

__all__ = [
    "ConfigError",
    "NetworkConfig",
    "LayerSet",
    "Annulus",
    "Disk",
    "Rect",
    "Circle",
    "Shape",
    "Sector",
    "Deployment",
    "validate_config",
]

MAX_UINT64 = 2**64 - 1


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
    if not (0 <= config.seed <= MAX_UINT64):
        violations.append(f"seed must fit in an unsigned 64-bit integer, got {config.seed}")
    if violations:
        raise ConfigError(violations)
    return config


@dataclass(frozen=True)
class LayerSet:
    """Sorted radial boundaries splitting a disk into concentric annuli.

    ``boundaries`` holds the layer_count - 1 interior radii in ascending
    order; layer 1 spans [0, boundaries[0]] and the outermost layer ends at
    ``radius``.  Equal adjacent boundaries are tolerated (they can only arise
    from a floating-point collision between independent draws) and denote a
    zero-width annulus whose nodes all sit at that radius.
    """

    radius: float
    boundaries: tuple

    def __post_init__(self):
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        if len(self.boundaries) < 1:
            raise ValueError("at least one interior boundary is required (two layers)")
        prev = 0.0
        for b in self.boundaries:
            if not (0.0 <= b < self.radius):
                raise ValueError(f"boundary {b} outside [0, {self.radius})")
            if b < prev:
                raise ValueError("boundaries must be ascending")
            prev = b

    @property
    def layer_count(self) -> int:
        return len(self.boundaries) + 1


@dataclass(frozen=True)
class Annulus:
    """Origin-centered annulus with inner radius ``inner`` and outer ``outer``."""

    inner: float
    outer: float

    def __post_init__(self):
        if not (0.0 <= self.inner < self.outer):
            raise ValueError(f"annulus requires 0 <= inner < outer, got ({self.inner}, {self.outer})")

    def area(self) -> float:
        return math.pi * (self.outer * self.outer - self.inner * self.inner)

    def contains(self, x, y):
        r2 = np.asarray(x) ** 2 + np.asarray(y) ** 2
        return (r2 >= self.inner**2) & (r2 <= self.outer**2)


@dataclass(frozen=True)
class Disk:
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

    def contains(self, x, y):
        return np.asarray(x) ** 2 + np.asarray(y) ** 2 <= self.radius**2


@dataclass(frozen=True)
class Rect:
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

    def contains(self, x, y):
        x = np.asarray(x)
        y = np.asarray(y)
        return (x >= self.x0) & (x <= self.x1) & (y >= self.y0) & (y <= self.y1)


@dataclass(frozen=True)
class Circle:
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

    def contains(self, x, y):
        return np.isclose(np.hypot(x, y), self.radius, atol=0.0)  # relative only, at any scale


Shape = Union[Annulus, Disk, Rect, Circle]


@dataclass(frozen=True)
class Sector:
    """A sub-region of the deployment area together with its node quota."""

    shape: Shape
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"sector node count must be at least 1, got {self.count}")


@dataclass(frozen=True)
class Deployment:
    """A generated point set with 1-based per-point sector tags.

    ``plan`` holds the sectors the points were drawn from, in both modes: an
    automatic run's layers are a disk and annuli (or a zero-width
    :class:`Circle`), the inner quota first.  ``config`` is set only for
    automatic runs; their layer geometry and quotas read back from the plan
    as ``layer_set``, ``inner_count`` and ``outer_count``, which are None
    otherwise.  Construction raises ``ValueError`` unless ``x`` and ``y`` are
    1-D arrays of finite coordinates and ``sector`` holds one integer tag per
    point, in 1..k for a plan of k sectors; an empty point set is valid.
    """

    x: np.ndarray
    y: np.ndarray
    sector: np.ndarray
    config: Optional[NetworkConfig] = None
    plan: Optional["DeploymentPlan"] = None

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
        k = 0 if self.plan is None else len(self.plan.sectors)  # no plan: tags are free
        if k and sector.size and not 1 <= sector.min() <= sector.max() <= k:
            raise ValueError(f"sector tags must lie in 1..{k}")

    def __len__(self) -> int:
        return int(self.x.size)

    @property
    def layer_set(self) -> Optional[LayerSet]:
        if self.config is None:
            return None
        boundaries = tuple(sec.shape.outer for sec in self.plan.sectors[:-1])
        return LayerSet(radius=self.config.radius, boundaries=boundaries)

    @property
    def inner_count(self) -> Optional[int]:
        return None if self.config is None else self.plan.sectors[0].count

    @property
    def outer_count(self) -> Optional[int]:
        return None if self.config is None else self.plan.sectors[1].count
