import dataclasses
import math

import numpy as np
import pytest
from scipy import stats as sps

from helpers import SequenceStream, TopLayerCount, sample_annulus
from scatternet.automatic import deploy_automatic
from scatternet.core import Annulus, Deployment, Disk, NetworkConfig, Rect, Sector
from scatternet.planned import DeploymentPlan, deploy_planned
from scatternet.rng import RandomStream
from scatternet.stats import (
    GofResult,
    InsufficientSampleError,
    angular_chi2,
    areal_chi2,
    check_membership,
    count_per_sector,
    equal_area_boundaries,
    evaluate_deployment,
    radial_ks,
)


def radius_uniform_points(inner, outer, n, stream):
    """Deliberately wrong sampler: radius uniform instead of area uniform."""
    u = stream.uniform_block(2 * n)
    r = inner + u[0::2] * (outer - inner)
    theta = 2 * math.pi * u[1::2]
    return r * np.cos(theta), r * np.sin(theta)


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
            count_per_sector(Deployment(x=np.zeros(4), y=np.zeros(4), sector=np.array([], dtype=np.int64)))
        empty = Deployment(x=np.array([]), y=np.array([]), sector=np.array([], dtype=np.int64))
        with pytest.raises(ValueError):
            count_per_sector(empty)

    def test_nonpositive_tags_rejected(self):
        plan = DeploymentPlan(sectors=(Sector(Disk(1.0), 1), Sector(Annulus(1.0, 2.0), 1)))
        with pytest.raises(ValueError, match=r"1\.\.2"):
            count_per_sector(Deployment(x=np.zeros(2), y=np.zeros(2), sector=np.array([0, 1]), plan=plan))

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
        assert result.threshold == pytest.approx(1.628 / 100.0, abs=2e-5)

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


class TestArealChi2:
    def test_equal_area_boundary_closed_form(self):
        edges = equal_area_boundaries(0.0, 1.0)
        assert edges.size == 9
        assert edges[4] == pytest.approx(math.sqrt(0.5), rel=1e-15)
        edges = equal_area_boundaries(0.5, 1.0)
        areas = np.diff(edges**2) * math.pi
        np.testing.assert_allclose(areas, areas[0])

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

    def test_missing_geometry_rejected(self):
        d = Deployment(x=np.zeros(3), y=np.zeros(3), sector=np.ones(3, dtype=np.int64))
        with pytest.raises(ValueError):
            density_profile(d)


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


class TestEvaluateDeployment:
    def test_large_run_all_passes(self):
        cfg = NetworkConfig(radius=1.0, max_layers=4, nodes=20_000, seed=15)
        d = deploy_automatic(cfg, RandomStream(15, 0))
        report = evaluate_deployment(d)
        assert report.all_passed()
        assert len(report.radial) == d.layer_set.layer_count
        assert report.angular is not None
        payload = report.to_dict()
        assert payload["all_passed"] is True
        assert {s["index"] for s in payload["per_sector"]} == set(range(1, d.layer_set.layer_count + 1))

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

    def test_failures_enumerated(self):
        n = 10_000
        x, y = radius_uniform_points(0.0, 1.0, n, RandomStream(3, 0))
        plan = DeploymentPlan(sectors=(Sector(Disk(1.0), n),))
        bad = Deployment(x=x, y=y, sector=np.ones(n, dtype=np.int64), plan=plan)
        report = evaluate_deployment(bad)
        assert not report.all_passed()
        failed_tests = {name for name, _, _ in report.failures()}
        assert "radial_ks" in failed_tests
        assert "areal_chi2" in failed_tests


class TestGofResult:
    def test_serialization(self):
        res = GofResult(statistic=0.5, threshold=1.0, passed=True, dof=3)
        assert res.to_dict() == {"statistic": 0.5, "threshold": 1.0, "passed": True, "dof": 3}
        res = GofResult(statistic=0.5, threshold=0.1, passed=False)
        assert "dof" not in res.to_dict()
