"""Seeded generation of inhomogeneous spatial node deployments over a disk.

Two generation modes share one fill per shape (``scatternet.sampling``):
``deploy_automatic`` builds a random layered deployment from three designer
inputs (region radius, layer-count bound, node total), while
``deploy_planned`` fills explicit non-overlapping sectors.
``scatternet.stats`` verifies the distributional contracts of either mode
and ``scatternet.cli`` exposes batch generation and validation.  The
package exports the entry points; every other public name lives in its
submodule's ``__all__``.
"""

from .automatic import deploy_automatic
from .core import Annulus, ConfigError, Deployment, Disk, NetworkConfig, Rect, Sector
from .planned import DeploymentPlan, OverlapError, deploy_planned
from .rng import RandomStream
from .stats import StatReport, evaluate_deployment

__version__ = "0.1.0"

__all__ = [
    "Annulus",
    "ConfigError",
    "Deployment",
    "DeploymentPlan",
    "Disk",
    "NetworkConfig",
    "OverlapError",
    "RandomStream",
    "Rect",
    "Sector",
    "StatReport",
    "deploy_automatic",
    "deploy_planned",
    "evaluate_deployment",
]
