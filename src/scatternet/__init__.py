"""Seeded generation of inhomogeneous spatial node deployments over a disk.

Two generation modes share one fill per shape (``scatternet.sampling``):
``deploy_automatic`` builds a random layered deployment from three designer
inputs (region radius, layer-count bound, node total), while
``deploy_planned`` fills explicit non-overlapping sectors.
``scatternet.stats`` verifies the distributional contracts of either mode
and ``scatternet.cli`` exposes batch generation, validation and
benchmarking.
"""

from .automatic import (
    LayerPlan,
    deploy_automatic,
    sample_layer_count,
    sample_layer_radii,
    split_nodes,
)
from .core import (
    Annulus,
    ConfigError,
    Deployment,
    Disk,
    LayerSet,
    NetworkConfig,
    Rect,
    Sector,
    annulus_area,
    sector_area,
    sector_density,
    validate_config,
)
from .planned import (
    DeploymentPlan,
    OverlapError,
    check_non_overlap,
    deploy_planned,
)
from .rng import RandomStream, discrete_uniform_via_threshold
from .stats import (
    GofResult,
    StatReport,
    angular_chi2,
    areal_chi2,
    count_per_sector,
    empirical_density_profile,
    evaluate_deployment,
    radial_ks,
)

__version__ = "0.1.0"

__all__ = [
    "Annulus",
    "ConfigError",
    "Deployment",
    "DeploymentPlan",
    "Disk",
    "GofResult",
    "LayerPlan",
    "LayerSet",
    "NetworkConfig",
    "OverlapError",
    "RandomStream",
    "Rect",
    "Sector",
    "StatReport",
    "angular_chi2",
    "annulus_area",
    "areal_chi2",
    "check_non_overlap",
    "count_per_sector",
    "deploy_automatic",
    "deploy_planned",
    "discrete_uniform_via_threshold",
    "empirical_density_profile",
    "evaluate_deployment",
    "radial_ks",
    "sample_layer_count",
    "sample_layer_radii",
    "sector_area",
    "sector_density",
    "split_nodes",
    "validate_config",
]
