"""Automatic layered deployment over a disk.

One run resolves three nested sources of randomness in a pinned draw order:
the number of concentric layers, the sorted radii delimiting them, and the
polar position of every node inside its layer.  Nodes are split so the
innermost layer absorbs the division remainder and each outer layer gets an
equal quota; within a layer the radial transform r = sqrt(L1^2 + u * (L2^2 -
L1^2)) of the shape's ``place`` makes points uniform over the annulus area
rather than over the radius.  The layer count, radii and quotas resolve
straight to the run's :class:`~scatternet.core.DeploymentPlan` (a disk, then
annuli), the sector model the planned mode shares, whose fill it ends in.
"""
from __future__ import annotations

import numpy as np

from .core import Annulus, Circle, Deployment, DeploymentPlan, Disk, NetworkConfig, Sector, validate_config
from .rng import discrete_uniform_via_threshold

__all__ = [
    "layer_plan",
    "split_nodes",
    "sample_layer_radii",
    "deploy_automatic",
]


def layer_plan(radius: float, boundaries, inner_count: int, outer_count: int) -> DeploymentPlan:
    """The layers of a disk of ``radius`` cut at the interior radii
    ``boundaries`` as sectors, innermost first: a disk, then annuli; two
    equal radii make a zero-width :class:`Circle` of area 0.

    This is where a run's layer radii are checked, drawn or read from
    metadata: at least one boundary, each in ``[0, radius)``, in ascending
    order.  The innermost layer holds ``inner_count`` nodes and every other
    layer ``outer_count``, with ``inner_count >= outer_count >= 1``.
    """
    if len(boundaries) < 1:
        raise ValueError("at least one interior boundary is required (two layers)")
    for prev, b in zip((0.0, *boundaries), boundaries):
        if not (0.0 <= b < radius):
            raise ValueError(f"boundary {b} outside [0, {radius})")
        if b < prev:
            raise ValueError("boundaries must be ascending")
    if outer_count < 1 or inner_count < outer_count:
        raise ValueError(
            f"node quotas must satisfy inner_count >= outer_count >= 1, "
            f"got ({inner_count}, {outer_count})"
        )
    edges = (0.0, *boundaries, radius)
    sectors = []
    for inner, outer in zip(edges, edges[1:]):
        if inner == outer:
            shape = Circle(inner)
        else:
            shape = Annulus(inner, outer) if inner > 0 else Disk(outer)
        sectors.append(Sector(shape, outer_count if sectors else inner_count))
    return DeploymentPlan(sectors=tuple(sectors))


def split_nodes(total: int, layers: int):
    """Split ``total`` nodes over ``layers`` layers.

    Every layer but the innermost receives ``floor(total / layers)`` nodes;
    the innermost absorbs the remainder, so
    ``inner + (layers - 1) * outer == total`` exactly.

    Returns ``(inner_count, outer_count)``.
    """
    if layers < 2:
        raise ValueError(f"layers must be at least 2, got {layers}")
    if total < layers:
        raise ValueError(
            f"total nodes ({total}) must be at least the layer count ({layers}) "
            f"so outer layers are not empty"
        )
    outer = total // layers
    inner = total - (layers - 1) * outer
    return inner, outer


def sample_layer_radii(radius: float, layers: int, stream) -> tuple:
    """Draw ``layers - 1`` radii uniform on [0, radius), as an ascending
    tuple of floats."""
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if layers < 2:
        raise ValueError(f"layers must be at least 2, got {layers}")
    draws = np.asarray(stream.uniform_block(layers - 1), dtype=np.float64) * radius
    draws.sort()
    return tuple(float(r) for r in draws)


def plan_run(config: NetworkConfig, stream) -> DeploymentPlan:
    """Resolve layer count, node quotas and layer radii for one run, as
    the run's sector plan.

    The layer count is one draw, uniform on {2, ..., max_layers}: at least
    two layers are needed for any density contrast to exist.
    """
    validate_config(config)
    layers = discrete_uniform_via_threshold(stream, config.max_layers)
    inner_count, outer_count = split_nodes(config.nodes, layers)
    boundaries = sample_layer_radii(config.radius, layers, stream)
    return layer_plan(config.radius, boundaries, inner_count, outer_count)


def deploy_automatic(config: NetworkConfig, stream) -> Deployment:
    """Generate one automatic deployment.

    Parameters
    ----------
    config : NetworkConfig
        Validated designer inputs (radius, max_layers, nodes, seed).
    stream : RandomStream
        Variate source; the caller owns seeding, typically one substream per
        run.

    Returns
    -------
    Deployment
        Exactly ``config.nodes`` points tagged with their 1-based layer
        index, plus the layers and their node quotas as a sector plan.
    """
    # Layers cannot overlap, so no overlap scan; all draw from the one stream.
    return plan_run(config, stream).fill(lambda layer: stream, config)
