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

``check_membership`` and ``evaluate_deployment`` test a run's sectors in
passes over its points grouped by sector, not one sector at a time: a pass
takes consecutive sectors of one shape kind, together at most ``_WINDOW``
points, or one larger sector alone, and applies their shapes' array function
(see :mod:`scatternet.core`) to all its points at once.  So a run
costs a fixed number of numpy calls per pass, one in-place sort per sector
tested by KS (each holds at least ``MIN_KS_POINTS``), and scalar p-value
arithmetic per sector; the scratch of a pass is bounded by its points.

Every test here is a deterministic function of its input point set, and
every verdict is its p-value against its significance level: a test passes
when ``p_value > alpha``.  KS p-values come from the asymptotic Kolmogorov
distribution, ``P(K > sqrt(n) * D)`` (valid for the n >= 30 samples we ever
feed it); chi-square p-values are the exact survival function of the
integer-dof chi-square law.  Both are closed forms in ``math``, so
validation needs nothing beyond numpy.  Default significance levels are
0.01 for KS and 0.001 for chi-square tests, chosen to keep many-seed
validation runs quiet; the upstream algorithm makes no quantitative
distributional claim of its own, so these levels are tool decisions, not
reproduced numbers.
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
    p_value: float
    passed: bool  # p_value > alpha
    dof: Optional[int] = None

    def to_dict(self) -> dict:
        out = {"statistic": self.statistic, "p_value": self.p_value, "passed": self.passed}
        if self.dof is not None:
            out["dof"] = self.dof
        return out


def _kolmogorov(x: float) -> float:
    """P(K > x) for the Kolmogorov distribution K, the limit law of sqrt(n) * D."""
    if x <= 0.0:
        return 1.0
    if x < 0.8:
        # the theta-series form of the CDF, sqrt(2 pi) / x * sum of w^((2k-1)^2) over k >= 1,
        # whose fourth term is below 1e-40 of the first here
        w = math.exp(-math.pi * math.pi / (8.0 * x * x))
        return 1.0 - math.sqrt(2.0 * math.pi) / x * (w + w**9 + w**25)
    # 2 * sum of (-1)^(k-1) q^(k^2) over k >= 1, whose sixth term is below 1e-19 of the first here
    q = math.exp(-2.0 * x * x)
    return 2.0 * (q - q**4 + q**9 - q**16 + q**25)


def _chi2_sf(dof: int, stat: float) -> float:
    """P(X > stat) for X chi-square with integer ``dof`` >= 1.

    With y = stat / 2: for odd ``dof``, erfc(sqrt(y)) plus the terms
    e^-y y^(k+1/2) / Gamma(k + 3/2), k < (dof - 1) / 2; for even ``dof``, the
    Poisson sum of e^-y y^k / k!, k < dof / 2.  Each term is one ``exp`` of
    its logarithm, so none overflows however large y is.
    """
    if not stat > 0.0:
        return 1.0
    y = 0.5 * stat
    log_y = math.log(y)
    half = 0.5 * (dof % 2)
    head = math.erfc(math.sqrt(y)) if half else 0.0
    return head + sum(math.exp(-y + (k + half) * log_y - math.lgamma(k + half + 1.0)) for k in range(dof // 2))


def _pearson_statistics(observed: np.ndarray, expected) -> np.ndarray:
    """Pearson's statistic of each row of ``observed`` counts against its
    ``expected`` count per cell."""
    return np.sum((observed - expected) ** 2 / expected, axis=-1)


def _chi2_result(stat: float, dof: int, alpha: float) -> GofResult:
    p_value = _chi2_sf(dof, stat)
    return GofResult(statistic=stat, p_value=p_value, passed=p_value > alpha, dof=dof)


def _pearson_chi2(observed: np.ndarray, expected: np.ndarray, alpha: float) -> GofResult:
    return _chi2_result(float(_pearson_statistics(observed, expected)), observed.size - 1, alpha)


def _ks_distances(u, sizes) -> list:
    """The KS distance from the uniform law on [0, 1] of each run of ``u``:
    ``u`` is consecutive runs of ``sizes`` values, each run sorted and not
    empty.  The i-th value of a run of n gives the gaps i/n - u and
    u - (i - 1)/n; a run's distance is the larger of their maxima."""
    starts = np.cumsum(sizes) - sizes
    steps = np.arange(1, u.size + 1, dtype=np.float64)
    n = sizes.astype(np.float64)
    if sizes.size > 1:
        steps -= np.repeat(starts, sizes)  # each run's own ranks
        n = np.repeat(n, sizes)
    steps /= n
    d_plus = np.maximum.reduceat(steps - u, starts).tolist()
    steps -= 1.0 / n
    d_minus = np.maximum.reduceat(u - steps, starts).tolist()
    return [max(above, below) for above, below in zip(d_plus, d_minus)]


def _uniform_ks(u, alpha: float) -> GofResult:
    # KS of ``u`` against the uniform law on [0, 1].
    n = u.size
    stat = _ks_distances(np.sort(u), np.array([n]))[0]
    p_value = _kolmogorov(math.sqrt(n) * stat)
    return GofResult(statistic=stat, p_value=p_value, passed=p_value > alpha)


def radial_ks(x, y, inner: float, outer: float, alpha: float = DEFAULT_KS_ALPHA) -> GofResult:
    """One-sample KS test of radii against the annulus area-uniform law.

    The reference CDF is F(r) = (r^2 - inner^2) / (outer^2 - inner^2), the
    ``u1`` of the annulus's ``unit``, tested against the uniform law.  The
    p-value of the statistic D is the asymptotic P(K > sqrt(n) * D), and the
    test passes when it exceeds ``alpha``: at 0.01, when D < 1.628 / sqrt(n).
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


def _cells(u1, u2) -> np.ndarray:
    """Each pair's cell of ``AREAL_SHELLS`` equal slices of u1 by
    ``AREAL_WEDGES`` of u2, with values outside [0, 1) clipped to the end
    slices."""
    band = np.clip(u1 * AREAL_SHELLS, 0, AREAL_SHELLS - 1).astype(np.int64)
    slot = np.clip(u2 * AREAL_WEDGES, 0, AREAL_WEDGES - 1).astype(np.int64)
    return band * AREAL_WEDGES + slot


def _cells_chi2(u1, u2, alpha: float) -> GofResult:
    cells = AREAL_SHELLS * AREAL_WEDGES
    observed = np.bincount(_cells(u1, u2), minlength=cells).astype(np.float64)
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


# Points of one pass of the run-wide tests, at most, unless one sector holds
# more: it is then a pass of its own.  Per-point copies of the sectors'
# parameters are made only in passes of two or more sectors, so they never
# exceed this size, and a large sector's pass uses its parameters as they are.
_WINDOW = 1 << 15


def _grouped(deployment: Deployment):
    """``(order, bounds, sizes)``: the points grouped by sector, sector j
    (from 0) holding the ``sizes[j]`` points ``bounds[j]`` to ``bounds[j +
    1]`` of ``order``.  ``order`` is None when the tags never decrease, as
    in every file the writer makes: the points are then grouped as they
    are, and each sector is a slice.  Otherwise it is one stable argsort of
    the tags."""
    tags = deployment.sector
    order = None if np.all(tags[1:] >= tags[:-1]) else np.argsort(tags, kind="stable")
    grouped = tags if order is None else tags[order]
    bounds = np.searchsorted(grouped, np.arange(1, len(deployment.plan.sectors) + 2))
    return order, bounds.tolist(), bounds[1:] - bounds[:-1]


def _passes(kinds, bounds):
    """``(lo, hi)`` of each pass: the sectors lo..hi-1, consecutive and of
    one kind, of at most ``_WINDOW`` points together, or one larger sector.
    Sectors of kind None are in no pass."""
    lo = 0
    for hi in range(1, len(kinds) + 1):
        if hi == len(kinds) or kinds[hi] is not kinds[lo] or bounds[hi + 1] - bounds[lo] > _WINDOW:
            if kinds[lo] is not None:
                yield lo, hi
            lo = hi


def _apply(deployment: Deployment, grouping, rules, lo: int, hi: int):
    """The array function of the sectors lo..hi-1, all one kind, applied to
    their points (views of the arrays when they are grouped as they are):
    with each sector's own parameters, spread to one value per point when
    the pass holds two or more sectors."""
    order, bounds, sizes = grouping
    taken = slice(bounds[lo], bounds[hi]) if order is None else order[bounds[lo]:bounds[hi]]
    x, y = deployment.x[taken], deployment.y[taken]
    function = rules[lo][0]
    params = [params for _, params in rules[lo:hi]]
    if hi - lo == 1:
        return function(x, y, *params[0])
    return function(x, y, *np.repeat(np.array(params, dtype=np.float64).T, sizes[lo:hi], axis=1))


def check_membership(deployment: Deployment) -> np.ndarray:
    """Indices of points lying outside their tagged sector's domain.

    Circular sectors are checked closed on both ends so that a boundary
    radius produced by floating rounding never trips the check; genuinely
    displaced points remain detectable.  A zero-width layer's points must
    sit at its radius, up to rounding.
    """
    grouping = _grouped(deployment)
    order, bounds, _ = grouping
    rules = [sec.shape.contains_rule() for sec in deployment.plan.sectors]
    outside = []
    for lo, hi in _passes([function for function, _ in rules], bounds):
        found = np.flatnonzero(~_apply(deployment, grouping, rules, lo, hi)) + bounds[lo]
        outside.append(found if order is None else order[found])
    return np.sort(np.concatenate(outside))  # a plan holds at least one sector


def _sector_tests(deployment: Deployment, grouping, shapes, areas):
    """``(distances, statistics)``: the radial KS distance of each circular
    sector of at least ``MIN_KS_POINTS`` points, and the areal Pearson
    statistic of each sector of at least the areal minimum, by sector (from
    0).  Sectors of zero area are not tested.

    A pass counts the cells of all its sectors in one ``bincount`` over
    sector x cells + cell, then sorts each KS sector's u1 in place and
    takes every distance from the sorted runs at once."""
    cells = AREAL_SHELLS * AREAL_WEDGES
    min_areal = MIN_EXPECTED_PER_BIN * cells
    _, bounds, sizes = grouping
    rules = [shape.unit_rule() if area != 0 else (None, ()) for shape, area in zip(shapes, areas)]
    distances, statistics = {}, {}
    for lo, hi in _passes([function for function, _ in rules], bounds):
        begin, counts = bounds[lo], sizes[lo:hi]
        areal = np.flatnonzero(counts >= min_areal)
        tested = [] if isinstance(shapes[lo], Rect) else (lo + np.flatnonzero(counts >= MIN_KS_POINTS)).tolist()
        if not (areal.size or tested):
            continue
        u1, u2 = _apply(deployment, grouping, rules, lo, hi)
        if areal.size:
            code = _cells(u1, u2)
            if hi - lo > 1:
                code += np.repeat(np.arange(0, cells * (hi - lo), cells), counts)
            observed = np.bincount(code, minlength=cells * (hi - lo)).reshape(hi - lo, cells)
            pearson = _pearson_statistics(observed[areal].astype(np.float64), counts[areal, None] / cells)
            statistics.update(zip((lo + areal).tolist(), pearson.tolist()))
        if not tested:
            continue
        for j in tested:
            u1[bounds[j] - begin:bounds[j + 1] - begin].sort()
        # every sector's points are a run of u1; those of sectors not tested are unsorted, and dropped
        runs = dict(zip(np.flatnonzero(counts > 0).tolist(), _ks_distances(u1, counts[counts > 0])))
        distances.update((j, runs[j - lo]) for j in tested)
    return distances, statistics


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
    shapes = [sec.shape for sec in deployment.plan.sectors]
    areas = [shape.area() for shape in shapes]
    grouping = _grouped(deployment)
    distances, statistics = _sector_tests(deployment, grouping, shapes, areas)
    per_sector = []
    radial = []
    areal = []
    skipped = []
    all_circular = True
    cells = AREAL_SHELLS * AREAL_WEDGES
    min_areal = MIN_EXPECTED_PER_BIN * cells
    counts = grouping[2].tolist()
    for index, (shape, area, count) in enumerate(zip(shapes, areas, counts), start=1):
        density = count / area if area > 0 else math.inf
        per_sector.append(SectorStat(index=index, count=count, area=area, density=density))
        if area == 0:
            skipped.append((index, "radial_ks", "zero-width layer"))
            skipped.append((index, "areal_chi2", "zero-width layer"))
            continue
        if not isinstance(shape, Rect):
            if count >= MIN_KS_POINTS:
                stat = distances[index - 1]
                p_value = _kolmogorov(math.sqrt(count) * stat)
                radial.append((index, GofResult(statistic=stat, p_value=p_value, passed=p_value > ks_alpha)))
            else:
                skipped.append((index, "radial_ks", f"{count} < {MIN_KS_POINTS} points"))
        if count < min_areal:
            skipped.append((index, "areal_chi2", f"{count} < {min_areal} points"))
        else:
            areal.append((index, _chi2_result(statistics[index - 1], cells - 1, DEFAULT_CHI2_ALPHA)))
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
