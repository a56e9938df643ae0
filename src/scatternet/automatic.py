"""Automatic layered deployment over a disk.

One run resolves three nested sources of randomness in a pinned draw order:
the number of concentric layers, the sorted radii delimiting them, and the
polar position of every node inside its layer.  Nodes are split so the
innermost layer absorbs the division remainder and each outer layer gets an
equal quota; within a layer the radial transform r = sqrt(L1^2 + u * (L2^2 -
L1^2)) makes points uniform over the annulus area rather than over the
radius.  The layer count, radii and quotas resolve straight to the run's
:class:`DeploymentPlan` (a disk, then annuli), the sector model the planned
mode shares, and ``scatternet.sampling`` fills it.
"""
from __future__ import annotations

import numpy as np

from .core import Annulus, Circle, Deployment, Disk, LayerSet, NetworkConfig, Sector, validate_config
from .planned import DeploymentPlan
from .rng import discrete_uniform_via_threshold
from .sampling import fill_in_order

__all__ = [
    "layer_plan",
    "split_nodes",
    "sample_layer_radii",
    "deploy_automatic",
]


def layer_plan(layer_set: LayerSet, inner_count: int, outer_count: int) -> DeploymentPlan:
    """The layers of ``layer_set`` as sectors, innermost first: a disk, then
    annuli; two equal radii make a zero-width :class:`Circle` of area 0.

    The innermost layer holds ``inner_count`` nodes and every other layer
    ``outer_count``, with ``inner_count >= outer_count >= 1``.
    """
    if outer_count < 1 or inner_count < outer_count:
        raise ValueError(
            f"node quotas must satisfy inner_count >= outer_count >= 1, "
            f"got ({inner_count}, {outer_count})"
        )
    edges = (0.0, *layer_set.boundaries, layer_set.radius)
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


def sample_layer_radii(radius: float, layers: int, stream) -> LayerSet:
    """Draw ``layers - 1`` radii uniform on [0, radius) and sort them ascending."""
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if layers < 2:
        raise ValueError(f"layers must be at least 2, got {layers}")
    draws = np.asarray(stream.uniform_block(layers - 1), dtype=np.float64) * radius
    draws.sort()
    return LayerSet(radius=radius, boundaries=tuple(float(r) for r in draws))


def plan_run(config: NetworkConfig, stream) -> DeploymentPlan:
    """Resolve layer count, node quotas and layer radii for one run, as
    the run's sector plan.

    The layer count is one draw, uniform on {2, ..., max_layers}: at least
    two layers are needed for any density contrast to exist.
    """
    validate_config(config)
    layers = discrete_uniform_via_threshold(stream, config.max_layers)
    inner_count, outer_count = split_nodes(config.nodes, layers)
    layer_set = sample_layer_radii(config.radius, layers, stream)
    return layer_plan(layer_set, inner_count, outer_count)


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
    plan = plan_run(config, stream)
    # Layers cannot overlap, so no overlap scan; all draw from the one stream.
    x, y, tags = fill_in_order(plan.sectors, lambda layer: stream)
    return Deployment(x=x, y=y, sector=tags, config=config, plan=plan)
