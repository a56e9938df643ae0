import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import sample_sector
from scatternet.automatic import layer_plan
from scatternet.core import (
    Annulus,
    Circle,
    ConfigError,
    Deployment,
    Disk,
    LayerSet,
    NetworkConfig,
    Rect,
    Sector,
    validate_config,
)
from scatternet.planned import DeploymentPlan, deploy_planned
from scatternet.rng import RandomStream
from scatternet.stats import evaluate_deployment


class TestAnnulusArea:
    def test_unit_disk(self):
        assert Annulus(0, 1).area() == pytest.approx(math.pi, rel=1e-15)

    def test_difference_of_disks(self):
        assert Annulus(1, 2).area() == pytest.approx(3 * math.pi, rel=1e-15)

    def test_thin_ring(self):
        assert Annulus(0.5, 0.7).area() == pytest.approx(math.pi * 0.24, rel=1e-12)
        assert Annulus(0.5, 0.7).area() == pytest.approx(0.75398, abs=1e-5)

    @pytest.mark.parametrize("inner,outer", [(1.0, 1.0), (2.0, 1.0), (-0.5, 1.0)])
    def test_domain_errors(self, inner, outer):
        with pytest.raises(ValueError):
            Annulus(inner, outer)

    @given(
        st.floats(min_value=1e-6, max_value=1e6),
        st.floats(min_value=1e-6, max_value=1e6),
    )
    def test_additivity(self, a, b):
        r, big = sorted([a, b])
        if r == big:
            big = r * 2
        total = Annulus(0, big).area()
        split = Annulus(0, r).area() + Annulus(r, big).area()
        assert abs(split - total) <= 4 * math.ulp(total)


class TestSectorOps:
    def test_area_by_shape(self):
        assert Disk(1.0).area() == pytest.approx(math.pi, rel=1e-15)
        assert Rect(0, 0, 2, 3).area() == pytest.approx(6.0, rel=1e-15)
        assert Annulus(1, 2).area() == pytest.approx(3 * math.pi, rel=1e-15)

    def test_density_examples(self):
        # the density the report writes: a sector's count over its area
        plan = DeploymentPlan(
            sectors=(Sector(Disk(1.0), 10), Sector(Rect(2, 2, 3, 3), 5), Sector(Annulus(1, 2), 9))
        )
        report = evaluate_deployment(deploy_planned(plan, RandomStream(0, 0)))
        densities = [s.density for s in report.per_sector]
        assert densities == pytest.approx([10 / math.pi, 5.0, 3 / math.pi], rel=1e-15)

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            Disk(0.0)
        with pytest.raises(ValueError):
            Rect(0, 0, 0, 1)
        with pytest.raises(ValueError):
            Annulus(0.5, 0.5)
        with pytest.raises(ValueError):
            Sector(Disk(1.0), 0)

    def test_contains(self):
        assert Annulus(0.5, 1.0).contains(0.75, 0.0)
        assert not Annulus(0.5, 1.0).contains(0.1, 0.1)
        assert Disk(1.0).contains(0.0, 1.0)  # boundary inclusive
        assert Rect(0, 0, 1, 2).contains(0.5, 1.5)
        assert not Rect(0, 0, 1, 2).contains(1.5, 1.5)

    def test_circle_tolerance_is_relative(self):
        # a zero-width layer's points sit at its radius up to rounding, at any scale
        for radius in (1e-12, 0.7):
            x, y = sample_sector(Circle(radius), 100_000, RandomStream(4, 0))
            assert Circle(radius).contains(x, y).all()
        assert not Circle(1e-12).contains(1e-9, 0.0)


class TestValidateConfig:
    def test_small_scale_reference_accepted(self):
        cfg = NetworkConfig(radius=1.0, max_layers=5, nodes=100, seed=42)
        assert validate_config(cfg) is cfg

    def test_zero_radius_rejected(self):
        with pytest.raises(ConfigError, match="radius"):
            validate_config(NetworkConfig(radius=0.0, max_layers=5, nodes=100))

    def test_single_layer_bound_rejected(self):
        with pytest.raises(ConfigError, match="max_layers"):
            validate_config(NetworkConfig(radius=1.0, max_layers=1, nodes=100))

    def test_all_violations_reported(self):
        with pytest.raises(ConfigError) as excinfo:
            validate_config(NetworkConfig(radius=-1.0, max_layers=1, nodes=0, seed=-3))
        assert len(excinfo.value.violations) == 4

    def test_nodes_below_layer_bound_rejected(self):
        with pytest.raises(ConfigError, match="nodes"):
            validate_config(NetworkConfig(radius=1.0, max_layers=10, nodes=9))

    def test_acceptance_set_matches_invariants_exhaustively(self):
        for radius in (-1.0, 0.0, 0.5, 2.0):
            for max_layers in range(0, 7):
                for nodes in range(0, 13):
                    cfg = NetworkConfig(radius=radius, max_layers=max_layers, nodes=nodes, seed=1)
                    should_pass = radius > 0 and max_layers >= 2 and nodes >= max_layers
                    if should_pass:
                        assert validate_config(cfg) is cfg
                    else:
                        with pytest.raises(ConfigError):
                            validate_config(cfg)


class TestLayerSet:
    def test_bounds_and_widths(self):
        # a run's layers are the sectors of its plan, innermost first
        ls = LayerSet(radius=1.0, boundaries=(0.2, 0.5, 0.7))
        assert ls.layer_count == 4
        shapes = [sec.shape for sec in layer_plan(ls, 4, 1).sectors]
        assert [(s.inner, s.outer) for s in shapes] == [(0.0, 0.2), (0.2, 0.5), (0.5, 0.7), (0.7, 1.0)]
        assert [s.outer - s.inner for s in shapes] == pytest.approx([0.2, 0.3, 0.2, 0.3])

    def test_rejects_bad_boundaries(self):
        with pytest.raises(ValueError):
            LayerSet(radius=1.0, boundaries=(0.5, 0.2))
        with pytest.raises(ValueError):
            LayerSet(radius=1.0, boundaries=(1.0,))
        with pytest.raises(ValueError):
            LayerSet(radius=1.0, boundaries=(-0.1,))
        with pytest.raises(ValueError):
            LayerSet(radius=1.0, boundaries=())

    def test_duplicate_boundary_tolerated(self):
        # a floating collision between draws produces a zero-width layer
        ls = LayerSet(radius=1.0, boundaries=(0.5, 0.5))
        layer = layer_plan(ls, 1, 1).sectors[1].shape
        assert (layer.inner, layer.outer) == (0.5, 0.5)
        assert layer.area() == 0.0


TWO_SECTORS = DeploymentPlan(sectors=(Sector(Disk(1.0), 1), Sector(Annulus(1.0, 2.0), 1)))


class TestDeployment:
    @pytest.mark.parametrize("x,y,sector,plan,match", [
        (np.zeros((2, 2)), np.zeros((2, 2)), np.ones((2, 2), dtype=np.int64), None, "1-D"),
        (np.zeros(3), np.zeros(3), np.ones(2, dtype=np.int64), None, "got 3 points and 2 tags"),
        (np.zeros(3), np.zeros(3), np.ones(4, dtype=np.int64), TWO_SECTORS, "got 3 points and 4 tags"),
        (np.zeros(3), np.zeros(3), np.ones(3), None, "integers"),
        (np.array([0.0, np.nan]), np.zeros(2), np.ones(2, dtype=np.int64), None, "finite"),
        (np.zeros(2), np.array([np.inf, 0.0]), np.ones(2, dtype=np.int64), None, "finite"),
        (np.zeros(2), np.zeros(2), np.array([1, 0]), TWO_SECTORS, r"1\.\.2"),
        (np.zeros(2), np.zeros(2), np.array([3, 1]), TWO_SECTORS, r"1\.\.2"),
        (np.zeros(2), np.zeros(2), np.array([1, 2**62]), TWO_SECTORS, r"1\.\.2"),
    ], ids=["2-d", "too-few-tags", "too-many-tags", "float-tags", "nan", "inf", "tag-0", "tag-k+1", "tag-2**62"])
    def test_malformed_point_set_rejected(self, x, y, sector, plan, match):
        with pytest.raises(ValueError, match=match):
            Deployment(x=x, y=y, sector=sector, plan=plan)

    def test_empty_point_set_with_a_plan_is_valid(self):
        empty = np.empty(0)
        d = Deployment(x=empty, y=empty, sector=np.empty(0, dtype=np.int64), plan=TWO_SECTORS)
        assert len(d) == 0

    def test_tags_are_free_without_a_plan(self):
        d = Deployment(x=np.zeros(3), y=np.zeros(3), sector=np.array([-1, 0, 2**62]))
        assert len(d) == 3

    def test_mismatched_coordinates_rejected(self):
        with pytest.raises(ValueError):
            Deployment(x=np.zeros(3), y=np.zeros(2), sector=np.ones(3, dtype=int))

    def test_len(self):
        d = Deployment(x=np.zeros(5), y=np.zeros(5), sector=np.ones(5, dtype=int))
        assert len(d) == 5
