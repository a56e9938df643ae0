import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import SequenceStream, TopLayerCount, sample_annulus
from scatternet.automatic import (
    deploy_automatic,
    layer_plan,
    plan_run,
    sample_layer_radii,
    split_nodes,
)
from scatternet.core import ConfigError, NetworkConfig
from scatternet.rng import RandomStream


class TestSplitNodes:
    def test_exact_divisibility(self):
        assert split_nodes(100, 4) == (25, 25)

    def test_remainder_goes_inward(self):
        assert split_nodes(100, 3) == (34, 33)

    def test_small_case(self):
        assert split_nodes(7, 3) == (3, 2)

    def test_rejects_starved_outer_layers(self):
        with pytest.raises(ValueError):
            split_nodes(3, 4)
        with pytest.raises(ValueError):
            split_nodes(10, 1)

    def test_conservation_exhaustive(self):
        for total in range(2, 501):
            for layers in range(2, min(total, 20) + 1):
                inner, outer = split_nodes(total, layers)
                assert inner + (layers - 1) * outer == total
                assert outer >= 1
                assert outer <= inner <= outer + layers - 1
                assert inner - outer == total % layers


class TestSampleLayerRadii:
    def test_two_layers_gives_one_radius(self):
        radii = sample_layer_radii(1.0, 2, RandomStream(0))
        assert len(radii) == 1
        assert 0.0 <= radii[0] < 1.0

    def test_sorting_contract(self):
        assert sample_layer_radii(1.0, 4, SequenceStream([0.7, 0.2, 0.5])) == (0.2, 0.5, 0.7)

    def test_scaling_by_radius(self):
        assert sample_layer_radii(3.0, 3, SequenceStream([0.5, 0.25])) == (0.75, 1.5)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            sample_layer_radii(0.0, 3, RandomStream(0))
        with pytest.raises(ValueError):
            sample_layer_radii(1.0, 1, RandomStream(0))

    def test_order_statistic_means(self):
        # the k-th of 4 sorted uniforms on (0, 1) has mean k / 5
        trials = 100_000
        s = RandomStream(314)
        sums = np.zeros(4)
        for _ in range(trials):
            sums += sample_layer_radii(1.0, 5, s)
        means = sums / trials
        for k in range(1, 5):
            assert abs(means[k - 1] - k / 5) < 0.005


class TestSamplePointInAnnulus:
    def test_radial_boundaries_of_inverse_transform(self):
        x, y = sample_annulus(0.5, 1.0, 1, SequenceStream([0.0, 0.0]))
        assert math.hypot(x[0], y[0]) == pytest.approx(0.5, abs=1e-15)
        x, y = sample_annulus(0.5, 1.0, 1, SequenceStream([1.0 - 2**-53, 0.0]))
        assert math.hypot(x[0], y[0]) == pytest.approx(1.0, rel=1e-12)

    def test_quarter_turn_trace(self):
        # u_radial = 0.25 gives r = 0.5; u_angular = 0.25 gives theta = pi/2
        x, y = sample_annulus(0.0, 1.0, 1, SequenceStream([0.25, 0.25]))
        assert abs(x[0] - 0.0) < 1e-12
        assert abs(y[0] - 0.5) < 1e-12

    def test_area_uniform_radial_fraction(self):
        # P(r <= 0.8) on the (0.5, 1) annulus is (0.64 - 0.25) / 0.75 = 0.52
        n = 100_000
        x, y = sample_annulus(0.5, 1.0, n, RandomStream(808))
        frac = float(np.mean(np.hypot(x, y) <= 0.8))
        assert abs(frac - 0.52) < 0.005

    def test_block_matches_scalar_draw_order(self):
        # a block of n points consumes the stream exactly as n one-point
        # fills do, across a chunk boundary of the fill
        n = 20_000
        xb, yb = sample_annulus(0.3, 0.9, n, RandomStream(17, 4))
        s = RandomStream(17, 4)
        xs, ys = zip(*(sample_annulus(0.3, 0.9, 1, s) for _ in range(n)))
        np.testing.assert_array_equal(xb, np.concatenate(xs))
        np.testing.assert_array_equal(yb, np.concatenate(ys))

    @given(
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=1e-6, max_value=5.0),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=50, deadline=None)
    def test_points_stay_inside_annulus(self, inner, width, seed):
        outer = inner + width
        x, y = sample_annulus(inner, outer, 64, RandomStream(seed))
        r = np.hypot(x, y)
        assert np.all(r >= inner * (1 - 1e-12))
        assert np.all(r <= outer * (1 + 1e-12))


class TestLayerPlan:
    def test_quota_invariants_enforced(self):
        with pytest.raises(ValueError):
            layer_plan(1.0, (0.5,), inner_count=1, outer_count=2)
        with pytest.raises(ValueError):
            layer_plan(1.0, (0.5,), inner_count=2, outer_count=0)
        plan = layer_plan(1.0, (0.5,), inner_count=3, outer_count=2)
        assert plan.total_nodes == 5

    def test_plan_run_consumes_expected_draws(self):
        # one layer-count draw, then layers - 1 radius draws
        stub = SequenceStream([0.999, 0.7, 0.2, 0.5, 0.9])
        cfg = NetworkConfig(radius=1.0, max_layers=5, nodes=100, seed=0)
        plan = plan_run(cfg, stub)
        assert len(plan.sectors) == 5
        assert stub.consumed == 5
        assert [sec.shape.outer for sec in plan.sectors] == [0.2, 0.5, 0.7, 0.9, 1.0]


class TestDeployAutomatic:
    @pytest.mark.parametrize(
        "max_layers,nodes",
        [(5, 100), (10, 1000)],  # small- and medium-scale reference regimes
    )
    def test_reference_regimes(self, max_layers, nodes):
        cfg = NetworkConfig(radius=1.0, max_layers=max_layers, nodes=nodes, seed=99)
        d = deploy_automatic(cfg, RandomStream(99, 0))
        assert len(d) == nodes
        r = np.hypot(d.x, d.y)
        assert np.all(r < 1.0)
        layers = len(d.plan.sectors)
        assert 2 <= layers <= max_layers
        counts = np.bincount(d.sector)[1:]
        inner, outer = d.plan.sectors[0].count, d.plan.sectors[1].count
        assert counts[0] == inner
        assert np.all(counts[1:] == outer)
        assert inner + (layers - 1) * outer == nodes

    def test_layer_tags_match_geometry(self):
        cfg = NetworkConfig(radius=2.0, max_layers=6, nodes=600, seed=3)
        d = deploy_automatic(cfg, RandomStream(3, 0))
        r = np.hypot(d.x, d.y)
        for layer in range(1, len(d.plan.sectors) + 1):
            shape = d.plan.sectors[layer - 1].shape
            inner, outer = shape.inner, shape.outer
            mask = d.sector == layer
            assert np.all(r[mask] >= inner)
            assert np.all(r[mask] <= outer)

    def test_determinism_bitwise(self):
        cfg = NetworkConfig(radius=1.0, max_layers=5, nodes=100, seed=42)
        a = deploy_automatic(cfg, RandomStream(42, 0))
        b = deploy_automatic(cfg, RandomStream(42, 0))
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.sector, b.sector)
        assert a.plan == b.plan

    def test_pinned_draw_order(self):
        # count draw, radius draw, then (radial, angular) pairs per node,
        # innermost layer first
        stub = SequenceStream(
            [0.0]  # layer count -> 2
            + [0.25]  # single boundary at 0.25
            + [0.0, 0.0, 0.25, 0.25]  # 2 inner nodes (n_in = 2)
            + [0.0, 0.0]  # 1 outer node (n_out = 1)
        )
        cfg = NetworkConfig(radius=1.0, max_layers=2, nodes=3, seed=0)
        d = deploy_automatic(cfg, stub)
        assert stub.consumed == 8
        assert d.plan.sectors[0].count == 2 and d.plan.sectors[1].count == 1
        r = np.hypot(d.x, d.y)
        # first inner node at the origin, second at r = 0.125 (u = 0.25 of
        # the inner disk area), outer node pinned to the boundary radius
        assert r[0] == 0.0
        assert r[1] == pytest.approx(0.125, rel=1e-12)
        assert r[2] == pytest.approx(0.25, rel=1e-12)

    def test_zero_width_layer_from_duplicate_radii(self):
        stub = SequenceStream([0.999, 0.5, 0.5] + [0.5, 0.5] * 9)  # 0.999: 3 layers
        cfg = NetworkConfig(radius=1.0, max_layers=3, nodes=9, seed=0)
        d = deploy_automatic(cfg, stub)
        assert tuple(sec.shape.outer for sec in d.plan.sectors[:-1]) == (0.5, 0.5)
        r = np.hypot(d.x, d.y)
        middle = d.sector == 2
        assert np.all(r[middle] == 0.5)
        # the degenerate layer still consumed two draws per node
        assert stub.consumed == 3 + 2 * 9

    def test_validation_propagates(self):
        with pytest.raises(ConfigError):
            deploy_automatic(NetworkConfig(radius=0.0, max_layers=5, nodes=100), RandomStream(0))

    def test_forced_count_reaches_worst_case(self):
        cfg = NetworkConfig(radius=1.0, max_layers=7, nodes=700, seed=5)
        d = deploy_automatic(cfg, TopLayerCount(5, 0))
        assert len(d.plan.sectors) == 7
