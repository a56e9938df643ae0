"""Goodness-of-fit machinery for validating generated deployments.

``evaluate_deployment`` runs three tests: per circular sector, a radial KS
test against the area-uniform law; per sector of any shape, one areal
chi-square over ``AREAL_SHELLS x AREAL_WEDGES`` equal-area cells (shells by
wedges for an annulus or disk, an equal grid for a rectangle); and, when
every sector is origin-centered, an angular chi-square over all points.

Every test here is a deterministic function of its input point set.  KS
critical values come from the asymptotic Kolmogorov distribution (valid for
the n >= 30 samples we ever feed it); chi-square thresholds come from the
exact quantile via the regularized incomplete gamma function.  Default
significance levels are 0.01 for KS and 0.001 for chi-square tests, chosen
to keep many-seed validation runs quiet; the upstream algorithm makes no
quantitative distributional claim of its own, so these thresholds are tool
decisions, not reproduced numbers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import Deployment, Rect

__all__ = [
    "InsufficientSampleError",
    "GofResult",
    "SectorStat",
    "StatReport",
    "radial_ks",
    "angular_chi2",
    "areal_chi2",
    "equal_area_boundaries",
    "count_per_sector",
    "sector_table",
    "check_membership",
    "evaluate_deployment",
    "DEFAULT_KS_ALPHA",
    "DEFAULT_CHI2_ALPHA",
]

DEFAULT_KS_ALPHA = 0.01
DEFAULT_CHI2_ALPHA = 0.001
MIN_KS_POINTS = 30
MIN_EXPECTED_PER_BIN = 5
# Cells of the tests ``evaluate_deployment`` runs: angular bins over the
# whole network, and equal-area shells by equal wedges (or grid rows by
# columns for a rectangle) per sector.
ANGULAR_BINS = 36
AREAL_SHELLS = 8
AREAL_WEDGES = 8


class InsufficientSampleError(ValueError):
    """The point set is too small for the requested test to be meaningful."""


def _require_points(n: int, needed: int, test: str) -> None:
    if n < needed:
        raise InsufficientSampleError(f"{test} needs at least {needed} points, got {n}")


@dataclass(frozen=True)
class GofResult:
    statistic: float
    threshold: float
    passed: bool
    dof: Optional[int] = None

    def to_dict(self) -> dict:
        out = {"statistic": self.statistic, "threshold": self.threshold, "passed": self.passed}
        if self.dof is not None:
            out["dof"] = self.dof
        return out


def _chi2_threshold(alpha: float, dof: int) -> float:
    # Quantile of the chi-square distribution through the regularized
    # incomplete gamma inverse; accurate far beyond the 1e-8 we need.
    from scipy import special  # here, not at the top: deploy and plan never load scipy
    return float(special.chdtri(dof, alpha))


def _pearson_chi2(observed: np.ndarray, expected: np.ndarray, alpha: float) -> GofResult:
    stat = float(np.sum((observed - expected) ** 2 / expected))
    dof = observed.size - 1
    threshold = _chi2_threshold(alpha, dof)
    return GofResult(statistic=stat, threshold=threshold, passed=stat < threshold, dof=dof)


def radial_ks(x, y, inner: float, outer: float, alpha: float = DEFAULT_KS_ALPHA) -> GofResult:
    """One-sample KS test of radii against the annulus area-uniform law.

    The reference CDF is F(r) = (r^2 - inner^2) / (outer^2 - inner^2); the
    critical value is the asymptotic c(alpha) / sqrt(n), with c(0.01) = 1.628.
    All points are assumed to lie in the annulus (membership is checked
    separately).
    """
    from scipy import special
    if not (0.0 <= inner < outer):
        raise ValueError(f"radial_ks requires 0 <= inner < outer, got ({inner}, {outer})")
    r = np.hypot(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))
    n = r.size
    _require_points(n, MIN_KS_POINTS, "radial KS")
    r = np.sort(r)
    cdf = (r * r - inner * inner) / (outer * outer - inner * inner)
    steps = np.arange(1, n + 1, dtype=np.float64) / n
    d_plus = float(np.max(steps - cdf))
    d_minus = float(np.max(cdf - (steps - 1.0 / n)))
    stat = max(d_plus, d_minus)
    threshold = float(special.kolmogi(alpha)) / math.sqrt(n)
    return GofResult(statistic=stat, threshold=threshold, passed=stat < threshold)


def angular_chi2(x, y, alpha: float = DEFAULT_CHI2_ALPHA) -> GofResult:
    """Pearson chi-square of point angles against uniformity on [0, 2pi),
    over ``ANGULAR_BINS`` equal bins."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.size
    _require_points(n, MIN_EXPECTED_PER_BIN * ANGULAR_BINS, f"angular chi-square with {ANGULAR_BINS} bins")
    angles = np.mod(np.arctan2(y, x), 2.0 * math.pi)
    observed, _ = np.histogram(angles, bins=ANGULAR_BINS, range=(0.0, 2.0 * math.pi))
    expected = np.full(ANGULAR_BINS, n / ANGULAR_BINS)
    return _pearson_chi2(observed.astype(np.float64), expected, alpha)


def equal_area_boundaries(inner: float, outer: float) -> np.ndarray:
    """Radii splitting an annulus into ``AREAL_SHELLS`` annuli of identical area."""
    if not (0.0 <= inner < outer):
        raise ValueError(f"equal_area_boundaries requires 0 <= inner < outer, got ({inner}, {outer})")
    fractions = np.arange(AREAL_SHELLS + 1, dtype=np.float64) / AREAL_SHELLS
    return np.sqrt(inner * inner + fractions * (outer * outer - inner * inner))


def _bin(offset, width: float, bins: int) -> np.ndarray:
    """Which of ``bins`` equal slices of ``[0, width)`` each offset falls in,
    clipped to the end slices."""
    return np.clip((offset * (bins / width)).astype(np.int64), 0, bins - 1)


def areal_chi2(x, y, shape, alpha: float = DEFAULT_CHI2_ALPHA) -> GofResult:
    """Two-dimensional uniformity test over a sector's shape.

    The shape is cut into ``AREAL_SHELLS x AREAL_WEDGES`` cells of equal
    area, so every cell has the same expected count under area uniformity:
    an annulus or disk into equal-area shells crossed with equal wedges, a
    rectangle into an equal grid (rows by columns).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    cells = AREAL_SHELLS * AREAL_WEDGES
    n = x.size
    _require_points(n, MIN_EXPECTED_PER_BIN * cells, f"areal chi-square with {cells} cells")
    if isinstance(shape, Rect):
        band = _bin(y - shape.y0, shape.y1 - shape.y0, AREAL_SHELLS)
        slot = _bin(x - shape.x0, shape.x1 - shape.x0, AREAL_WEDGES)
    else:
        edges = equal_area_boundaries(shape.inner, shape.outer)
        band = np.clip(np.searchsorted(edges[1:-1], np.hypot(x, y), side="right"), 0, AREAL_SHELLS - 1)
        slot = _bin(np.mod(np.arctan2(y, x), 2.0 * math.pi), 2.0 * math.pi, AREAL_WEDGES)
    observed = np.bincount(band * AREAL_WEDGES + slot, minlength=cells).astype(np.float64)
    return _pearson_chi2(observed, np.full(cells, n / cells), alpha)


def count_per_sector(deployment: Deployment):
    """Exact tallies of the plan's k sectors as a list of (index, count), 1-based."""
    k = len(sector_table(deployment))
    return list(enumerate(np.bincount(deployment.sector, minlength=k + 1)[1:].tolist(), start=1))


def sector_table(deployment: Deployment):
    """(index, shape, quota) of every sector of the deployment's plan, 1-based.

    An automatic run's plan holds its layers; a zero-width layer is a
    sector of area 0.
    """
    if deployment.plan is None:
        raise ValueError("deployment carries no sector plan; sector geometry unknown")
    return [(i, sec.shape, sec.count) for i, sec in enumerate(deployment.plan.sectors, start=1)]


def _members(deployment: Deployment, table):
    """Indices of each table sector's points, in point order.

    One stable argsort of the tags groups every sector at once, in place of
    one mask over all points per sector.
    """
    tags = deployment.sector
    order = np.argsort(tags, kind="stable")
    indices = [index for index, _, _ in table]
    lo = np.searchsorted(tags[order], indices, side="left")
    hi = np.searchsorted(tags[order], indices, side="right")
    return [order[a:b] for a, b in zip(lo, hi)]


def check_membership(deployment: Deployment) -> np.ndarray:
    """Indices of points lying outside their tagged sector's domain.

    Circular sectors are checked closed on both ends so that a boundary
    radius produced by floating rounding never trips the check; genuinely
    displaced points remain detectable.  A zero-width layer's points must
    sit at its radius, up to rounding.
    """
    table = sector_table(deployment)  # a plan holds at least one sector
    violations = [
        members[~np.asarray(shape.contains(deployment.x[members], deployment.y[members]))]
        for (_, shape, _), members in zip(table, _members(deployment, table))
    ]
    return np.sort(np.concatenate(violations))


@dataclass(frozen=True)
class SectorStat:
    index: int
    count: int
    area: float
    density: float

    def to_dict(self) -> dict:
        return {"index": self.index, "count": self.count, "area": self.area, "density": self.density}


@dataclass(frozen=True)
class StatReport:
    """Bundle of per-sector statistics and goodness-of-fit outcomes."""

    per_sector: tuple
    radial: tuple  # (sector index, GofResult) pairs
    areal: tuple  # (sector index, GofResult) pairs
    angular: Optional[GofResult]
    ks_alpha: float
    skipped: tuple = field(default_factory=tuple)  # (sector index, test name, reason)

    def all_passed(self) -> bool:
        return not self.failures()

    def failures(self):
        out = [("radial_ks", idx, res) for idx, res in self.radial if not res.passed]
        out += [("areal_chi2", idx, res) for idx, res in self.areal if not res.passed]
        if self.angular is not None and not self.angular.passed:
            out.append(("angular_chi2", None, self.angular))
        return out

    def to_dict(self) -> dict:
        return {
            "ks_alpha": self.ks_alpha,
            "chi2_alpha": DEFAULT_CHI2_ALPHA,
            "per_sector": [s.to_dict() for s in self.per_sector],
            "radial_ks": [{"sector": idx, **res.to_dict()} for idx, res in self.radial],
            "areal_chi2": [{"sector": idx, **res.to_dict()} for idx, res in self.areal],
            "angular_chi2": self.angular.to_dict() if self.angular is not None else None,
            "skipped": [
                {"sector": idx, "test": test, "reason": reason} for idx, test, reason in self.skipped
            ],
            "all_passed": self.all_passed(),
        }


def evaluate_deployment(deployment: Deployment, ks_alpha: float = DEFAULT_KS_ALPHA) -> StatReport:
    """Run every applicable distribution test and assemble a report.

    Radial KS tests run at ``ks_alpha``, every chi-square test at
    ``DEFAULT_CHI2_ALPHA``.

    Tests whose sample-size preconditions are not met by a sector are
    recorded as skipped rather than failed; the network-wide angular test
    only applies when every sector is origin-centered.
    """
    table = sector_table(deployment)

    per_sector = []
    radial = []
    areal = []
    skipped = []
    all_circular = True
    min_areal = MIN_EXPECTED_PER_BIN * AREAL_SHELLS * AREAL_WEDGES
    for (index, shape, _), members in zip(table, _members(deployment, table)):
        count = members.size
        area = shape.area()
        density = count / area if area > 0 else math.inf
        per_sector.append(SectorStat(index=index, count=count, area=area, density=density))
        if area == 0:
            skipped.append((index, "radial_ks", "zero-width layer"))
            skipped.append((index, "areal_chi2", "zero-width layer"))
            continue
        sx = deployment.x[members]
        sy = deployment.y[members]
        if not isinstance(shape, Rect):
            if count >= MIN_KS_POINTS:
                radial.append((index, radial_ks(sx, sy, shape.inner, shape.outer, alpha=ks_alpha)))
            else:
                skipped.append((index, "radial_ks", f"{count} < {MIN_KS_POINTS} points"))
        if count < min_areal:
            skipped.append((index, "areal_chi2", f"{count} < {min_areal} points"))
        else:
            areal.append((index, areal_chi2(sx, sy, shape)))
        if isinstance(shape, Rect):
            all_circular = False
            skipped.append((index, "radial_ks", "not applicable to rectangular sectors"))

    angular = None
    if all_circular:
        if len(deployment) >= MIN_EXPECTED_PER_BIN * ANGULAR_BINS:
            angular = angular_chi2(deployment.x, deployment.y)
        else:
            skipped.append((None, "angular_chi2", f"{len(deployment)} points < {MIN_EXPECTED_PER_BIN * ANGULAR_BINS}"))
    else:
        skipped.append((None, "angular_chi2", "plan contains non-circular sectors"))

    return StatReport(
        per_sector=tuple(per_sector),
        radial=tuple(radial),
        areal=tuple(areal),
        angular=angular,
        ks_alpha=ks_alpha,
        skipped=tuple(skipped),
    )
