import dataclasses
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special
from scipy import stats as sps

from helpers import (
    SequenceStream,
    TopLayerCount,
    areal_cells,
    evaluate_per_sector,
    membership_per_sector,
    radial_ks_statistic,
    sample_annulus,
    sample_sector,
)
from scatternet import stats
from scatternet.automatic import deploy_automatic
from scatternet.core import Annulus, Circle, Deployment, Disk, NetworkConfig, Rect, Sector
from scatternet.fileio import write_report
from scatternet.planned import DeploymentPlan, deploy_planned
from scatternet.rng import RandomStream
from scatternet.stats import (
    _chi2_sf,
    _kolmogorov,
    GofResult,
    InsufficientSampleError,
    angular_chi2,
    areal_chi2,
    check_membership,
    count_per_sector,
    evaluate_deployment,
    radial_ks,
)

TWO_SECTORS = DeploymentPlan(sectors=(Sector(Disk(1.0), 1), Sector(Annulus(1.0, 2.0), 1)))


def radius_uniform_points(inner, outer, n, stream):
    """Deliberately wrong sampler: radius uniform instead of area uniform."""
    u = stream.uniform_block(2 * n)
    r = inner + u[0::2] * (outer - inner)
    theta = 2 * math.pi * u[1::2]
    return r * np.cos(theta), r * np.sin(theta)


def upper_half_points(inner, outer, n, stream):
    """Area-uniform radii, but every angle in [0, pi]: the angular test's case."""
    x, y = sample_annulus(inner, outer, n, stream)
    return x, np.abs(y)



class TestCountPerSector:
    def test_automatic_split_echoed(self):
        cfg = NetworkConfig(radius=1.0, max_layers=3, nodes=100, seed=6)
        d = deploy_automatic(cfg, TopLayerCount(6, 0))
        assert count_per_sector(d) == [(1, 34), (2, 33), (3, 33)]

    def test_planned_quotas_echoed(self):
        plan = DeploymentPlan(sectors=(Sector(Disk(0.5), 12), Sector(Annulus(0.5, 1), 34)))
        d = deploy_planned(plan, RandomStream(1, 0))
        assert count_per_sector(d) == [(1, 12), (2, 34)]

    def test_untagged_points_rejected(self):
        with pytest.raises(ValueError, match="one sector tag each"):
            count_per_sector(
                Deployment(x=np.zeros(4), y=np.zeros(4), sector=np.array([], dtype=np.int64), plan=TWO_SECTORS)
            )

    def test_nonpositive_tags_rejected(self):
        with pytest.raises(ValueError, match=r"1\.\.2"):
            count_per_sector(Deployment(x=np.zeros(2), y=np.zeros(2), sector=np.array([0, 1]), plan=TWO_SECTORS))

    @pytest.mark.parametrize("tag", [2, 2**62])
    def test_tags_above_sector_count_rejected(self, tag):
        # the count array is sized by the plan, never by the largest tag
        plan = DeploymentPlan(sectors=(Sector(Disk(1.0), 2),))
        tags = np.array([1, tag], dtype=np.int64)
        with pytest.raises(ValueError, match=r"1\.\.1"):
            count_per_sector(Deployment(x=np.zeros(2), y=np.zeros(2), sector=tags, plan=plan))
        with pytest.raises(ValueError, match=r"1\.\.1"):
            evaluate_deployment(Deployment(x=np.zeros(2), y=np.zeros(2), sector=tags, plan=plan))


class TestRadialKs:
    def test_correct_sampler_passes_almost_always(self):
        # stream id picked once so the frozen seed set meets the bound; the
        # expected failure count at alpha = 0.01 is exactly 1 per 100
        n = 10_000
        passes = 0
        for seed in range(100):
            x, y = sample_annulus(0.5, 1.0, n, RandomStream(seed, 2))
            if radial_ks(x, y, 0.5, 1.0, alpha=0.01).passed:
                passes += 1
        assert passes >= 99

    def test_wrong_law_fails_with_known_distance(self):
        # analytic sup distance between the radius-uniform CDF 2(r - 0.5)
        # and the area-uniform CDF (r^2 - 0.25) / 0.75 on [0.5, 1] peaks at
        # r = 0.75 with value 1/12 ~ 0.0833
        n = 10_000
        x, y = radius_uniform_points(0.5, 1.0, n, RandomStream(7, 0))
        result = radial_ks(x, y, 0.5, 1.0, alpha=0.01)
        assert not result.passed
        assert result.statistic > 0.05
        assert abs(result.statistic - 1 / 12) < 0.02

    def test_degenerate_pile_at_inner_radius(self):
        x = np.full(100, 0.5)
        y = np.zeros(100)
        result = radial_ks(x, y, 0.5, 1.0)
        assert result.statistic == 1.0
        assert not result.passed

    def test_too_few_points(self):
        with pytest.raises(InsufficientSampleError):
            radial_ks(np.ones(29), np.zeros(29), 0.5, 1.5)

    def test_critical_value_matches_asymptotic_constant(self):
        x, y = sample_annulus(0.0, 1.0, 10_000, RandomStream(0, 0))
        result = radial_ks(x, y, 0.0, 1.0, alpha=0.01)
        assert result.p_value == _kolmogorov(100.0 * result.statistic)
        # c(0.01) = 1.628: the statistic 1.628 / sqrt(n) sits at p = 0.01
        assert _kolmogorov(math.sqrt(10_000) * (1.628 / 100.0)) == pytest.approx(0.01, abs=1e-4)

    def test_statistic_agrees_with_scipy(self):
        x, y = sample_annulus(0.3, 0.7, 500, RandomStream(5, 0))
        mine = radial_ks(x, y, 0.3, 0.7).statistic
        r = np.hypot(x, y)
        reference = sps.kstest(r, lambda v: (v**2 - 0.09) / (0.49 - 0.09)).statistic
        assert mine == pytest.approx(float(reference), abs=1e-12)

    def test_depends_only_on_radii(self):
        x, y = sample_annulus(0.5, 1.0, 1000, RandomStream(8, 0))
        r = np.hypot(x, y)
        direct = radial_ks(x, y, 0.5, 1.0)
        collapsed = radial_ks(r, np.zeros_like(r), 0.5, 1.0)
        assert direct.statistic == collapsed.statistic


class TestAngularChi2:
    def test_correct_sampler_passes(self):
        x, y = sample_annulus(0.0, 1.0, 10_000, RandomStream(13, 0))
        assert angular_chi2(x, y, alpha=0.001).passed

    def test_concentrated_angles_fail(self):
        x = np.linspace(0.1, 1.0, 500)
        y = np.zeros(500)
        result = angular_chi2(x, y, alpha=0.001)
        assert not result.passed

    def test_insufficient_sample(self):
        with pytest.raises(InsufficientSampleError):
            angular_chi2(np.ones(100), np.zeros(100))

    def test_depends_only_on_angles(self):
        x, y = sample_annulus(0.5, 1.0, 1000, RandomStream(8, 1))
        direct = angular_chi2(x, y)
        # halving both coordinates is exact in floating point and keeps
        # every angle bit-identical
        scaled = angular_chi2(0.5 * x, 0.5 * y)
        assert direct.statistic == scaled.statistic

    def test_dof(self):
        x, y = sample_annulus(0.0, 1.0, 1000, RandomStream(2, 0))
        assert angular_chi2(x, y).dof == 35


class TestShapeUnit:
    # a disk, an annulus, a thin annulus and an off-origin rectangle
    SHAPES = [Disk(1.0), Annulus(0.5, 1.0), Annulus(3.0, 3.001), Rect(-3.5, 2.0, 1.25, 2.75)]

    def test_cells_and_ks_statistic_match_the_per_shape_formulas(self):
        """Binning the ``unit`` pairs gives every point the cell the
        equal-area radii and per-axis grid give it, and KS on ``u1`` gives
        the KS statistic of the sorted radii bit for bit."""
        for seed in range(200):
            for shape in self.SHAPES:
                x, y = sample_sector(shape, 400, RandomStream(seed, 9))
                u1, u2 = shape.unit(x, y)
                cells = np.clip(np.floor(8 * u1), 0, 7) * 8 + np.clip(np.floor(8 * u2), 0, 7)
                expected = areal_cells(x, y, shape)
                np.testing.assert_array_equal(cells, expected, err_msg=f"{seed} {shape}")
                observed = np.bincount(expected, minlength=64).astype(np.float64)
                oracle = float(np.sum((observed - 400 / 64) ** 2 / (400 / 64)))
                assert areal_chi2(x, y, shape).statistic == oracle, (seed, shape)
                if not isinstance(shape, Rect):
                    ks = radial_ks(x, y, shape.inner, shape.outer).statistic
                    assert ks == radial_ks_statistic(x, y, shape.inner, shape.outer), (seed, shape)

    def test_unit_inverts_place(self):
        u = RandomStream(4, 0).uniform_block(2000)
        for shape in self.SHAPES:
            x, y = np.empty(1000), np.empty(1000)
            shape.place(u[0::2], u[1::2], x, y)
            u1, u2 = shape.unit(x, y)
            first, second = (u2, u1) if isinstance(shape, Rect) else (u1, u2)  # a rectangle gives y first
            np.testing.assert_allclose(first, u[0::2], rtol=0, atol=1e-9)
            np.testing.assert_allclose(second, u[1::2], rtol=0, atol=1e-9)

    @pytest.mark.parametrize("shape", [Circle(1.0), Rect(0.0, 0.0, 1e-200, 1e-200)])
    def test_zero_area_shapes_are_refused(self, shape):
        x, y = sample_sector(shape, 1000, RandomStream(0, 0))
        with pytest.raises(ValueError, match="positive area"):
            areal_chi2(x, y, shape)

    def test_zero_width_radial_ks_is_refused(self):
        x, y = sample_sector(Circle(1.0), 1000, RandomStream(0, 0))
        with pytest.raises(ValueError, match="inner < outer"):
            radial_ks(x, y, 1.0, 1.0)


class TestArealChi2:
    def test_correct_sampler_passes(self):
        x, y = sample_annulus(0.5, 1.0, 10_000, RandomStream(40, 0))
        result = areal_chi2(x, y, Annulus(0.5, 1.0), alpha=0.001)
        assert result.passed
        assert result.dof == 63

    def test_radius_uniform_sampler_fails(self):
        x, y = radius_uniform_points(0.0, 1.0, 10_000, RandomStream(41, 0))
        result = areal_chi2(x, y, Disk(1.0), alpha=0.001)
        assert not result.passed

    def test_insufficient_sample(self):
        with pytest.raises(InsufficientSampleError):
            areal_chi2(np.ones(100), np.zeros(100), Disk(2.0))

    def test_rect_grid(self):
        plan = DeploymentPlan(sectors=(Sector(Rect(0, 0, 2, 1), 10_000),))
        d = deploy_planned(plan, RandomStream(3, 0))
        assert areal_chi2(d.x, d.y, plan.sectors[0].shape, alpha=0.001).passed
        clustered = np.full(10_000, 0.01)
        assert not areal_chi2(clustered, clustered / 2, plan.sectors[0].shape).passed


class TestHonestTestSizes:
    # With correct-law data the pass rate must sit within 3 binomial sigmas
    # of 1 - alpha; this guards both the statistics and their thresholds.
    def test_pass_rates_match_nominal_size(self):
        trials = 1000
        n = 10_000
        ks_passes = 0
        ang_passes = 0
        areal_passes = 0
        for seed in range(trials):
            x, y = sample_annulus(0.3, 1.0, n, RandomStream(seed, 3))
            ks_passes += radial_ks(x, y, 0.3, 1.0, alpha=0.01).passed
            ang_passes += angular_chi2(x, y, alpha=0.001).passed
            areal_passes += areal_chi2(x, y, Annulus(0.3, 1.0), alpha=0.001).passed
        assert abs(ks_passes / trials - 0.99) <= 3 * math.sqrt(0.01 * 0.99 / trials)
        assert abs(ang_passes / trials - 0.999) <= 3 * math.sqrt(0.001 * 0.999 / trials)
        assert abs(areal_passes / trials - 0.999) <= 3 * math.sqrt(0.001 * 0.999 / trials)


def density_profile(deployment):
    """Sector index -> the density the report writes for that sector."""
    return {s.index: s.density for s in evaluate_deployment(deployment).per_sector}


class TestDensityProfile:
    def test_two_layer_arithmetic(self):
        cfg = NetworkConfig(radius=1.0, max_layers=2, nodes=100, seed=0)
        from helpers import SequenceStream

        stub = SequenceStream([0.0, 0.5] + [0.4, 0.1] * 100)  # 0.0: 2 layers, the only count
        d = deploy_automatic(cfg, stub)
        profile = density_profile(d)
        assert profile[1] == pytest.approx(50 / (0.25 * math.pi), rel=1e-12)
        assert profile[2] == pytest.approx(50 / (0.75 * math.pi), rel=1e-12)
        assert profile[1] == pytest.approx(63.66, abs=0.01)
        assert profile[2] == pytest.approx(21.22, abs=0.01)

    def test_single_sector_plan(self):
        plan = DeploymentPlan(sectors=(Sector(Disk(2.0), 40),))
        d = deploy_planned(plan, RandomStream(0, 0))
        assert density_profile(d) == {1: pytest.approx(40 / (4 * math.pi), rel=1e-12)}

    def test_density_variation_across_layers(self):
        # layer areas are random, so realized densities almost surely differ
        cfg = NetworkConfig(radius=1.0, max_layers=5, nodes=500, seed=0)
        spread = 0
        for seed in range(100):
            d = deploy_automatic(cfg, RandomStream(seed, 0))
            densities = np.array(list(density_profile(d).values()))
            cv = densities.std() / densities.mean()
            spread += cv > 0.01
        assert spread >= 99


class TestMembership:
    def test_clean_deployment_has_no_violations(self):
        cfg = NetworkConfig(radius=1.0, max_layers=5, nodes=1000, seed=77)
        d = deploy_automatic(cfg, RandomStream(77, 0))
        assert check_membership(d).size == 0

    def test_displaced_point_detected(self):
        cfg = NetworkConfig(radius=1.0, max_layers=5, nodes=1000, seed=77)
        d = deploy_automatic(cfg, RandomStream(77, 0))
        x = d.x.copy()
        x[17] = 10.0
        moved = dataclasses.replace(d, x=x)
        violations = check_membership(moved)
        assert violations.tolist() == [17]

    def test_point_off_zero_width_layer_detected(self):
        stub = SequenceStream([0.999, 0.5, 0.5] + [0.25, 0.75] * 9)  # 0.999: 3 layers
        cfg = NetworkConfig(radius=1.0, max_layers=3, nodes=9, seed=0)
        d = deploy_automatic(cfg, stub)
        assert check_membership(d).size == 0
        x = d.x.copy()
        x[4] += 0.01  # point 4 is in layer 2, the circle r = 0.5
        assert check_membership(dataclasses.replace(d, x=x)).tolist() == [4]

    def test_planned_membership(self):
        plan = DeploymentPlan(sectors=(Sector(Rect(0, 0, 1, 1), 50),))
        d = deploy_planned(plan, RandomStream(5, 0))
        y = d.y.copy()
        y[3] = -2.0
        moved = Deployment(x=d.x, y=y, sector=d.sector, plan=plan)
        assert check_membership(moved).tolist() == [3]


# Sector sizes about the test minimums: none, under 30 (no KS), under 320 (no
# areal test), and enough for both.
SECTOR_SIZES = [0, 1, 29, 30, 31, 319, 320, 450]
COORDINATES = st.floats(-5.0, 5.0)
LENGTHS = st.floats(1e-3, 3.0)


@st.composite
def sector_shapes(draw):
    kind = draw(st.sampled_from(["disk", "annulus", "circle", "rect"]))
    if kind == "disk":
        return Disk(draw(LENGTHS))
    if kind == "annulus":
        inner = draw(st.floats(0.0, 5.0))
        return Annulus(inner, inner + draw(LENGTHS))
    if kind == "circle":  # a zero-width layer
        return Circle(draw(LENGTHS))
    x0, y0 = draw(COORDINATES), draw(COORDINATES)
    return Rect(x0, y0, x0 + draw(LENGTHS), y0 + draw(LENGTHS))


@st.composite
def sector_runs(draw):
    """A deployment whose sectors hold any of ``SECTOR_SIZES`` points (not
    their quotas), with some points moved off their sector, its rows
    shuffled or not."""
    shapes = draw(st.lists(sector_shapes(), min_size=1, max_size=8))
    sizes = draw(st.lists(st.sampled_from(SECTOR_SIZES), min_size=len(shapes), max_size=len(shapes)))
    seed = draw(st.integers(0, 2**32 - 1))
    plan = DeploymentPlan(sectors=tuple(Sector(shape, max(1, n)) for shape, n in zip(shapes, sizes)))
    points = [sample_sector(shape, n, RandomStream(seed, index)) for index, (shape, n) in enumerate(zip(shapes, sizes))]
    x = np.concatenate([px for px, _ in points])
    y = np.concatenate([py for _, py in points])
    tags = np.repeat(np.arange(1, len(shapes) + 1), sizes)
    rng = np.random.default_rng(seed)
    if x.size:
        moved = rng.integers(0, x.size, size=draw(st.integers(0, 3)))
        x[moved] += draw(st.sampled_from([1e-9, 1e-3, 0.5, 10.0]))
    if draw(st.booleans()):
        order = rng.permutation(x.size)
        x, y, tags = x[order], y[order], tags[order]
    return Deployment(x=x, y=y, sector=tags, plan=plan)


class TestRunWidePasses:
    """The passes over sectors grouped as slices or by argsort give the
    violations and report bytes of the per-sector oracle, at the default
    pass size and at passes of one point (every sector alone) or 64."""

    @given(deployment=sector_runs(), window=st.sampled_from([stats._WINDOW, 1, 64]))
    @settings(max_examples=300, deadline=None)
    @pytest.mark.filterwarnings("error")
    def test_same_violations_and_report_bytes_as_per_sector(self, deployment, window):
        with mock.patch.object(stats, "_WINDOW", window):
            outside = check_membership(deployment)
            report = evaluate_deployment(deployment, ks_alpha=0.05)
        expected = membership_per_sector(deployment)
        assert outside.dtype == expected.dtype
        np.testing.assert_array_equal(outside, expected)
        with tempfile.TemporaryDirectory() as tmp:
            ours, oracle = Path(tmp, "ours.json"), Path(tmp, "oracle.json")
            write_report(ours, report)
            write_report(oracle, evaluate_per_sector(deployment, ks_alpha=0.05))
            assert ours.read_bytes() == oracle.read_bytes()


class TestEvaluateDeployment:
    def test_large_run_all_passes(self):
        cfg = NetworkConfig(radius=1.0, max_layers=4, nodes=20_000, seed=15)
        d = deploy_automatic(cfg, RandomStream(15, 0))
        report = evaluate_deployment(d)
        assert report.all_passed()
        assert len(report.radial) == len(d.plan.sectors)
        assert report.angular is not None
        payload = report.to_dict()
        assert payload["all_passed"] is True
        assert {s["index"] for s in payload["per_sector"]} == set(range(1, len(d.plan.sectors) + 1))

    def test_small_layers_skipped_not_failed(self):
        cfg = NetworkConfig(radius=1.0, max_layers=5, nodes=100, seed=42)
        d = deploy_automatic(cfg, RandomStream(42, 0))
        report = evaluate_deployment(d)
        assert report.all_passed()
        assert report.radial == ()
        assert any(test == "radial_ks" for _, test, _ in report.skipped)

    def test_rect_sectors_get_grid_test_and_no_network_angle(self):
        plan = DeploymentPlan(sectors=(Sector(Rect(0, 0, 1, 1), 5000),))
        d = deploy_planned(plan, RandomStream(2, 0))
        report = evaluate_deployment(d)
        assert report.angular is None
        assert len(report.areal) == 1
        assert report.all_passed()

    @pytest.mark.parametrize("points, n, failed", [
        (radius_uniform_points, 10_000, {("radial_ks", 1), ("areal_chi2", 1)}),
        (upper_half_points, 2_000, {("angular_chi2", None), ("areal_chi2", 1)}),
    ])
    def test_failures_enumerated(self, points, n, failed):
        x, y = points(0.0, 1.0, n, RandomStream(3, 0))
        plan = DeploymentPlan(sectors=(Sector(Disk(1.0), n),))
        bad = Deployment(x=x, y=y, sector=np.ones(n, dtype=np.int64), plan=plan)
        report = evaluate_deployment(bad)
        assert not report.all_passed()
        assert failed <= {(name, sector) for name, sector, _ in report.failures()}


class TestGofResult:
    def test_serialization(self):
        res = GofResult(statistic=0.5, p_value=0.9, passed=True, dof=3)
        assert res.to_dict() == {"statistic": 0.5, "p_value": 0.9, "passed": True, "dof": 3}
        res = GofResult(statistic=0.5, p_value=0.001, passed=False)
        assert "dof" not in res.to_dict()


# scipy, installed with the test extra, is the oracle of the closed-form p-values.
CHI2_DOFS = [1, 2, 3, 35, 63]
TINY = 1e-280  # compared where scipy's value is above this; below it the tails are subnormal or zero


def relative_error(mine, reference):
    return abs(mine - reference) / reference


class TestClosedFormPValues:
    def test_kolmogorov_matches_scipy(self):
        # dense on both sides of the branch point 0.8 and out to x = 18, where p is about 1e-281
        grid = np.concatenate([np.linspace(1e-3, 0.8, 4001), np.nextafter(0.8, [0.0, 1.0]),
                               np.linspace(0.8, 18.0, 20001)])
        for x in grid:
            reference = special.kolmogorov(x)
            if reference > TINY:
                assert relative_error(_kolmogorov(x), reference) <= 1e-12, x

    def test_kolmogorov_is_one_at_and_near_zero(self):
        assert _kolmogorov(0.0) == 1.0
        assert _kolmogorov(-1.0) == 1.0
        assert _kolmogorov(1e-3) == 1.0

    @pytest.mark.parametrize("dof", CHI2_DOFS)
    def test_chi2_sf_matches_scipy(self, dof):
        # out to stat = 1600, past where p drops below 1e-280 for every dof here (1543 for dof 63)
        grid = np.concatenate([np.linspace(0.0, 5.0, 2001)[1:], np.linspace(5.0, 1600.0, 20001)])
        for stat in grid:
            reference = special.chdtrc(dof, stat)
            if reference > TINY:
                assert relative_error(_chi2_sf(dof, stat), reference) <= 1e-12, (dof, stat)

    @pytest.mark.parametrize("dof", CHI2_DOFS)
    def test_chi2_sf_at_zero(self, dof):
        assert _chi2_sf(dof, 0.0) == 1.0

    @given(n=st.integers(30, 10**7), alpha=st.floats(1e-12, 0.5), offset=st.floats(-0.5, 0.5))
    @settings(max_examples=500, deadline=None)
    def test_ks_verdict_is_the_threshold_verdict(self, n, alpha, offset):
        # p > alpha if and only if D < kolmogi(alpha) / sqrt(n), away from rounding at the threshold
        threshold = special.kolmogi(alpha) / math.sqrt(n)
        stat = threshold * (1.0 + offset)
        if abs(stat - threshold) > 1e-9 * threshold:
            assert (_kolmogorov(math.sqrt(n) * stat) > alpha) == (stat < threshold)

    @given(dof=st.sampled_from(CHI2_DOFS), alpha=st.floats(1e-12, 0.5), offset=st.floats(-0.5, 0.5))
    @settings(max_examples=500, deadline=None)
    def test_chi2_verdict_is_the_threshold_verdict(self, dof, alpha, offset):
        threshold = special.chdtri(dof, alpha)
        stat = threshold * (1.0 + offset)
        if abs(stat - threshold) > 1e-9 * threshold:
            assert (_chi2_sf(dof, stat) > alpha) == (stat < threshold)
