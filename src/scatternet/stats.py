"""Goodness-of-fit machinery for validating generated deployments.

``evaluate_deployment`` runs three tests.  The first two read each point's
pair ``(u1, u2)`` from its sector shape's ``unit``, the inverse of the area
law ``place`` fills by, which is uniform on the unit square for a correct
fill: per circular sector, a radial KS test of ``u1`` (the area CDF of the
radius) against the uniform law; per sector of any shape, one areal
chi-square over ``AREAL_SHELLS x AREAL_WEDGES`` equal cells of the pairs
(equal-area shells by wedges for an annulus or disk, an equal grid for a
rectangle).  The third, when every sector is origin-centered, is an angular
chi-square over all points.  ``_skips`` and ``_angular_skip`` state which
tests run; the report holds every test run in one family,
``StatReport.tests``, and ``StatReport.alpha`` states the level each is
judged at.  ``radial_ks`` and ``areal_chi2`` are one-sector runs of the
same passes.  KS distances are taken against F(u) = clip(u, 0, 1).

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
distribution, ``P(K > sqrt(n) * D)``, never below the exact one for the
n >= 30 we feed it; chi-square p-values are the exact survival function of
the integer-dof chi-square law.  Both are closed forms in ``math``.  Default
levels, 0.01 for KS and 0.001 for chi-square tests, keep many-seed
validation runs quiet; the upstream algorithm makes no quantitative
distributional claim of its own, so they are tool decisions, not
reproduced numbers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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
    """The point set is too small for the requested test to be meaningful:
    ``"<test>: <reason>"``, with the reason a report gives for the skip."""


def _refuse(test: str, reason: Optional[str]) -> None:
    if reason is not None:
        raise InsufficientSampleError(f"{test}: {reason}")


# Keys of a goodness-of-fit result, in the order a report writes them
_GOF_KEYS = ("statistic", "p_value", "passed", "dof")


@dataclass(frozen=True)
class GofResult:
    statistic: float
    p_value: float
    passed: bool  # p_value > alpha
    dof: Optional[int] = None

    def values(self) -> tuple:
        """The values of the result's keys, in their order; ``dof`` only if set."""
        return (self.statistic, self.p_value, self.passed) + (() if self.dof is None else (self.dof,))

    def to_dict(self) -> dict:
        return dict(zip(_GOF_KEYS, self.values()))


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


def _cells(u1, u2) -> np.ndarray:
    """Each pair's cell of ``AREAL_SHELLS`` equal slices of u1 by
    ``AREAL_WEDGES`` of u2, with values outside [0, 1) clipped to the end
    slices."""
    band = np.clip(u1 * AREAL_SHELLS, 0, AREAL_SHELLS - 1).astype(np.int64)
    slot = np.clip(u2 * AREAL_WEDGES, 0, AREAL_WEDGES - 1).astype(np.int64)
    return band * AREAL_WEDGES + slot


def _one_sector(test: str, x, y, shape, alpha: float) -> GofResult:
    """``test`` of the points as the one sector of ``shape``, judged at
    ``alpha``.  The points are not checked as a ``Deployment``'s are: ``x``
    and ``y`` broadcast against each other, as in the shape's ``unit``."""
    area = shape.area()
    if not area > 0:
        raise ValueError(f"{test} requires a shape of positive area, got {shape}")
    x = np.asarray(x, dtype=np.float64)
    _refuse(test, _skips(shape, area, x.size).get(test))
    x, y = np.broadcast_arrays(x, np.asarray(y, dtype=np.float64))
    ks = np.array([test == "radial_ks"])
    ((_, _, statistic, p_value, dof),) = _sector_tests(x, y, (None, [0, x.size], np.array([x.size])), [shape], ks, ~ks)
    return GofResult(statistic, p_value, p_value > alpha, dof)


def radial_ks(x, y, inner: float, outer: float, alpha: float = DEFAULT_KS_ALPHA) -> GofResult:
    """One-sample KS test of radii against the annulus area-uniform law.

    The reference CDF is F(r) = (r^2 - inner^2) / (outer^2 - inner^2), the
    ``u1`` of the annulus's ``unit``, tested against the uniform CDF
    clip(u, 0, 1).  The p-value of the statistic D is the asymptotic
    P(K > sqrt(n) * D), and the test passes when it exceeds ``alpha``: at
    0.01, when D < 1.628 / sqrt(n).  It is the radial test that
    ``evaluate_deployment`` runs on a one-sector plan of the annulus; it
    does not check membership.  ``Annulus`` refuses any ``inner >= outer``.
    """
    return _one_sector("radial_ks", x, y, Annulus(inner, outer), alpha)


def angular_chi2(x, y, alpha: float = DEFAULT_CHI2_ALPHA) -> GofResult:
    """Pearson chi-square of point angles against uniformity on [0, 2pi),
    over ``ANGULAR_BINS`` equal bins: the network-wide test of ``evaluate_deployment``."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    _refuse("angular_chi2", _angular_skip(x.size))
    angles = np.mod(np.arctan2(y, x), 2.0 * math.pi)
    observed, _ = np.histogram(angles, bins=ANGULAR_BINS, range=(0.0, 2.0 * math.pi))
    stat = float(_pearson_statistics(observed.astype(np.float64), x.size / ANGULAR_BINS))
    p_value = _chi2_sf(ANGULAR_BINS - 1, stat)
    return GofResult(statistic=stat, p_value=p_value, passed=p_value > alpha, dof=ANGULAR_BINS - 1)


def areal_chi2(x, y, shape, alpha: float = DEFAULT_CHI2_ALPHA) -> GofResult:
    """Two-dimensional uniformity test over a sector's shape.

    The shape's ``unit`` pairs are binned into ``AREAL_SHELLS x
    AREAL_WEDGES`` equal cells of the unit square, which are cells of equal
    area in the shape, so every cell has the same expected count under area
    uniformity: an annulus or disk is cut into equal-area shells crossed
    with equal wedges, a rectangle into an equal grid (rows by columns).
    It is the areal test that ``evaluate_deployment`` runs on a one-sector
    plan of the shape, which must have a positive area.
    """
    return _one_sector("areal_chi2", x, y, shape, alpha)


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


def _apply(x, y, grouping, rules, lo: int, hi: int):
    """The array function of the sectors lo..hi-1, all one kind, applied to
    their points (views of ``x`` and ``y`` when they are grouped as they
    are): with each sector's own parameters, spread to one value per point
    when the pass holds two or more sectors."""
    order, bounds, sizes = grouping
    taken = slice(bounds[lo], bounds[hi]) if order is None else order[bounds[lo]:bounds[hi]]
    x, y = x[taken], y[taken]
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
        found = np.flatnonzero(~_apply(deployment.x, deployment.y, grouping, rules, lo, hi)) + bounds[lo]
        outside.append(found if order is None else order[found])
    return np.sort(np.concatenate(outside))  # a plan holds at least one sector


def _sector_tests(x, y, grouping, shapes, ks, areal) -> list:
    """``(test, sector, statistic, p-value, dof)`` of the radial KS test of
    each sector ``ks`` marks, then of the areal chi-square test of each
    sector ``areal`` marks (boolean arrays by sector from 0), by sector:
    sector j is ``shapes[j]``, its points those of ``x, y`` by ``grouping``.
    Sectors neither marks are in no pass.

    A pass counts the cells of all its sectors in one ``bincount`` over
    sector x cells + cell, then clips u1 into [0, 1], sorts each KS sector's
    u1 in place and takes every distance from the sorted runs at once."""
    cells = AREAL_SHELLS * AREAL_WEDGES
    _, bounds, sizes = grouping
    rules = [shape.unit_rule() if run else (None, ()) for shape, run in zip(shapes, ks | areal)]
    radial, chi2 = [], []
    for lo, hi in _passes([function for function, _ in rules], bounds):
        begin, counts = bounds[lo], sizes[lo:hi]
        u1, u2 = _apply(x, y, grouping, rules, lo, hi)
        marked = np.flatnonzero(areal[lo:hi])
        if marked.size:
            code = _cells(u1, u2)
            if hi - lo > 1:
                code += np.repeat(np.arange(0, cells * (hi - lo), cells), counts)
            observed = np.bincount(code, minlength=cells * (hi - lo)).reshape(hi - lo, cells)
            pearson = _pearson_statistics(observed[marked].astype(np.float64), counts[marked, None] / cells)
            chi2 += [("areal_chi2", lo + j + 1, q, _chi2_sf(cells - 1, q), cells - 1)
                     for j, q in zip(marked.tolist(), pearson.tolist())]
        tested = (lo + np.flatnonzero(ks[lo:hi])).tolist()
        if tested:
            np.clip(u1, 0.0, 1.0, out=u1)  # the uniform CDF: a point outside its sector is at an end
            for j in tested:
                u1[bounds[j] - begin:bounds[j + 1] - begin].sort()
            # every sector's points are a run of u1; those of sectors not tested are unsorted, and dropped
            runs = dict(zip(np.flatnonzero(counts > 0).tolist(), _ks_distances(u1, counts[counts > 0])))
            radial += [("radial_ks", j + 1, runs[j - lo], _kolmogorov(math.sqrt(sizes[j]) * runs[j - lo]), None)
                       for j in tested]
    return radial + chi2


def _skips(shape, area: float, count: int) -> dict:
    """Why each test of a sector that is not run is skipped, by test name in
    the order the report lists them; the sector's other tests are run."""
    if area == 0:
        return {"radial_ks": "zero-width layer", "areal_chi2": "zero-width layer"}
    min_areal = MIN_EXPECTED_PER_BIN * AREAL_SHELLS * AREAL_WEDGES
    rect = isinstance(shape, Rect)
    skips = {"radial_ks": f"{count} < {MIN_KS_POINTS} points"} if not rect and count < MIN_KS_POINTS else {}
    if count < min_areal:
        skips["areal_chi2"] = f"{count} < {min_areal} points"
    if rect:
        skips["radial_ks"] = "not applicable to rectangular sectors"
    return skips


def _angular_skip(count: int, shapes=()) -> Optional[str]:
    """Why the angular test of ``count`` points of ``shapes`` is skipped, or None if it is run."""
    if any(isinstance(shape, Rect) for shape in shapes):
        return "plan contains non-circular sectors"
    needed = MIN_EXPECTED_PER_BIN * ANGULAR_BINS
    return f"{count} points < {needed}" if count < needed else None


@dataclass(frozen=True)
class SectorStat:
    index: int
    count: int
    area: float
    density: float


@dataclass(frozen=True)
class StatReport:
    """Per-sector statistics and the run's one family of goodness-of-fit
    tests.

    ``tests`` holds every test run, as ``(test, sector index or None,
    GofResult)`` in report order: the radial KS tests, then the areal
    chi-square tests, each by sector, then the angular chi-square test of
    all points.  ``radial``, ``areal`` and ``angular`` are read-only views
    of it, and :meth:`alpha` is the level each test is judged at."""

    per_sector: tuple
    tests: tuple
    ks_alpha: float
    skipped: tuple = field(default_factory=tuple)  # (sector index, test name, reason)

    def alpha(self, test: str) -> float:
        """The level ``test`` is judged at: ``ks_alpha`` for radial KS, ``DEFAULT_CHI2_ALPHA`` for chi-square."""
        return self.ks_alpha if test == "radial_ks" else DEFAULT_CHI2_ALPHA

    def _view(self, test: str) -> tuple:
        return tuple((sector, result) for name, sector, result in self.tests if name == test)

    @property
    def radial(self) -> tuple:
        return self._view("radial_ks")

    @property
    def areal(self) -> tuple:
        return self._view("areal_chi2")

    @property
    def angular(self) -> Optional[GofResult]:
        return next((result for _, result in self._view("angular_chi2")), None)

    def all_passed(self) -> bool:
        return not self.failures()

    def failures(self) -> list:
        return [entry for entry in self.tests if not entry[2].passed]

    def sections(self) -> tuple:
        """The report's ``(key, value)`` pairs, in the order they are written.

        A list of records is given as ``(keys, rows)``: one tuple of values
        per record, whose keys are the first ``len(row)`` of ``keys``.
        :meth:`to_dict` and :func:`scatternet.fileio.write_report` both
        lay the report out from these."""
        gof = ("sector", *_GOF_KEYS)
        return (
            ("ks_alpha", self.alpha("radial_ks")),
            ("chi2_alpha", self.alpha("areal_chi2")),
            ("per_sector", (("index", "count", "area", "density"),
                            [(s.index, s.count, s.area, s.density) for s in self.per_sector])),
            ("radial_ks", (gof, [(idx, *res.values()) for idx, res in self.radial])),
            ("areal_chi2", (gof, [(idx, *res.values()) for idx, res in self.areal])),
            ("angular_chi2", self.angular.to_dict() if self.angular is not None else None),
            ("skipped", (("sector", "test", "reason"), self.skipped)),
            ("all_passed", self.all_passed()),
        )

    def to_dict(self) -> dict:
        return {key: [dict(zip(value[0], row)) for row in value[1]] if isinstance(value, tuple) else value
                for key, value in self.sections()}


def evaluate_deployment(deployment: Deployment, ks_alpha: float = DEFAULT_KS_ALPHA) -> StatReport:
    """Run every applicable distribution test and assemble a report.

    Each test is judged at the report's ``alpha(test)``: the radial KS
    tests at ``ks_alpha``, every chi-square test at ``DEFAULT_CHI2_ALPHA``.

    Tests whose preconditions a run does not meet (``_skips`` for a
    sector's, ``_angular_skip`` for the network-wide angular test) are
    recorded as skipped rather than failed.
    """
    grouping = _grouped(deployment)
    shapes = [sec.shape for sec in deployment.plan.sectors]
    per_sector, skipped, ks, areal = [], [], [], []
    for index, (shape, count) in enumerate(zip(shapes, grouping[2].tolist()), start=1):
        area = shape.area()
        per_sector.append(SectorStat(index, count, area, count / area if area > 0 else math.inf))
        skips = _skips(shape, area, count)
        skipped += [(index, test, reason) for test, reason in skips.items()]
        ks.append("radial_ks" not in skips)
        areal.append("areal_chi2" not in skips)
    found = _sector_tests(deployment.x, deployment.y, grouping, shapes, np.array(ks), np.array(areal))
    if (reason := _angular_skip(len(deployment), shapes)) is not None:
        skipped.append((None, "angular_chi2", reason))
    else:
        angular = angular_chi2(deployment.x, deployment.y)
        found.append(("angular_chi2", None, angular.statistic, angular.p_value, angular.dof))

    report = StatReport(per_sector=tuple(per_sector), tests=(), ks_alpha=ks_alpha, skipped=tuple(skipped))
    return replace(report, tests=tuple((test, sector, GofResult(statistic, p_value, p_value > report.alpha(test), dof))
                                       for test, sector, statistic, p_value, dof in found))
