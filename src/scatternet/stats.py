"""Goodness-of-fit machinery for validating generated deployments.

``evaluate_deployment`` runs three tests.  The first two read each point's
pair ``(u1, u2)`` from its sector shape's ``unit``, the inverse of the area
law ``place`` fills by, which is uniform on the unit square for a correct
fill: per circular sector, a radial KS test of ``u1`` (the area CDF of the
radius) against the uniform law; per sector of any shape, one areal
chi-square over ``AREAL_SHELLS x AREAL_WEDGES`` equal cells of the pairs
(equal-area shells by wedges for an annulus or disk, an equal grid for a
rectangle).  The third, when every sector is origin-centered, is an angular
chi-square over all points.

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

from .core import Annulus, Deployment, Rect

__all__ = [
    "InsufficientSampleError",
    "GofResult",
    "SectorStat",
    "StatReport",
    "radial_ks",
    "angular_chi2",
    "areal_chi2",
    "count_per_sector",
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


def _uniform_ks(u, alpha: float) -> GofResult:
    # KS of ``u`` against the uniform law on [0, 1].
    from scipy import special
    n = u.size
    cdf = np.sort(u)
    steps = np.arange(1, n + 1, dtype=np.float64) / n
    d_plus = float(np.max(steps - cdf))
    d_minus = float(np.max(cdf - (steps - 1.0 / n)))
    stat = max(d_plus, d_minus)
    threshold = float(special.kolmogi(alpha)) / math.sqrt(n)
    return GofResult(statistic=stat, threshold=threshold, passed=stat < threshold)


def radial_ks(x, y, inner: float, outer: float, alpha: float = DEFAULT_KS_ALPHA) -> GofResult:
    """One-sample KS test of radii against the annulus area-uniform law.

    The reference CDF is F(r) = (r^2 - inner^2) / (outer^2 - inner^2), the
    ``u1`` of the annulus's ``unit``, tested against the uniform law; the
    critical value is the asymptotic c(alpha) / sqrt(n), with c(0.01) = 1.628.
    All points are assumed to lie in the annulus (membership is checked
    separately).  ``Annulus`` refuses any ``inner >= outer``.
    """
    annulus = Annulus(inner, outer)
    x = np.asarray(x, dtype=np.float64)
    _require_points(x.size, MIN_KS_POINTS, "radial KS")
    return _uniform_ks(annulus.unit(x, np.asarray(y, dtype=np.float64))[0], alpha)


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


def _cells_chi2(u1, u2, alpha: float) -> GofResult:
    # ``AREAL_SHELLS`` equal slices of u1 by ``AREAL_WEDGES`` of u2, with
    # values outside [0, 1) clipped to the end slices.
    cells = AREAL_SHELLS * AREAL_WEDGES
    band = np.clip(u1 * AREAL_SHELLS, 0, AREAL_SHELLS - 1).astype(np.int64)
    slot = np.clip(u2 * AREAL_WEDGES, 0, AREAL_WEDGES - 1).astype(np.int64)
    observed = np.bincount(band * AREAL_WEDGES + slot, minlength=cells).astype(np.float64)
    return _pearson_chi2(observed, np.full(cells, u1.size / cells), alpha)


def areal_chi2(x, y, shape, alpha: float = DEFAULT_CHI2_ALPHA) -> GofResult:
    """Two-dimensional uniformity test over a sector's shape.

    The shape's ``unit`` pairs are binned into ``AREAL_SHELLS x
    AREAL_WEDGES`` equal cells of the unit square, which are cells of equal
    area in the shape, so every cell has the same expected count under area
    uniformity: an annulus or disk is cut into equal-area shells crossed
    with equal wedges, a rectangle into an equal grid (rows by columns).
    The shape must have a positive area.
    """
    if not shape.area() > 0:
        raise ValueError(f"areal_chi2 requires a shape of positive area, got {shape}")
    x = np.asarray(x, dtype=np.float64)
    cells = AREAL_SHELLS * AREAL_WEDGES
    _require_points(x.size, MIN_EXPECTED_PER_BIN * cells, f"areal chi-square with {cells} cells")
    return _cells_chi2(*shape.unit(x, np.asarray(y, dtype=np.float64)), alpha)


def count_per_sector(deployment: Deployment):
    """Exact tallies of the plan's k sectors as a list of (index, count), 1-based."""
    k = len(deployment.plan.sectors)
    return list(enumerate(np.bincount(deployment.sector, minlength=k + 1)[1:].tolist(), start=1))


def _members(deployment: Deployment):
    """Indices of each plan sector's points, in point order.

    One stable argsort of the tags groups every sector at once, in place of
    one mask over all points per sector.
    """
    tags = deployment.sector
    order = np.argsort(tags, kind="stable")
    indices = np.arange(1, len(deployment.plan.sectors) + 1)
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
    violations = [
        members[~np.asarray(sec.shape.contains(deployment.x[members], deployment.y[members]))]
        for sec, members in zip(deployment.plan.sectors, _members(deployment))
    ]
    return np.sort(np.concatenate(violations))  # a plan holds at least one sector


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
    per_sector = []
    radial = []
    areal = []
    skipped = []
    all_circular = True
    min_areal = MIN_EXPECTED_PER_BIN * AREAL_SHELLS * AREAL_WEDGES
    for index, (sec, members) in enumerate(zip(deployment.plan.sectors, _members(deployment)), start=1):
        shape = sec.shape
        count = members.size
        area = shape.area()
        density = count / area if area > 0 else math.inf
        per_sector.append(SectorStat(index=index, count=count, area=area, density=density))
        if area == 0:
            skipped.append((index, "radial_ks", "zero-width layer"))
            skipped.append((index, "areal_chi2", "zero-width layer"))
            continue
        u1, u2 = shape.unit(deployment.x[members], deployment.y[members])
        if not isinstance(shape, Rect):
            if count >= MIN_KS_POINTS:
                radial.append((index, _uniform_ks(u1, ks_alpha)))
            else:
                skipped.append((index, "radial_ks", f"{count} < {MIN_KS_POINTS} points"))
        if count < min_areal:
            skipped.append((index, "areal_chi2", f"{count} < {min_areal} points"))
        else:
            areal.append((index, _cells_chi2(u1, u2, DEFAULT_CHI2_ALPHA)))
        if isinstance(shape, Rect):
            all_circular = False
            skipped.append((index, "radial_ks", "not applicable to rectangular sectors"))
        # Kept alive, the pair would hold the top of the heap, and the
        # network-wide angular test would grow it (+6 MB of peak RSS at 1e6 points).
        del u1, u2

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
