import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import SequenceStream, pair_scan, sample_sector
from scatternet.core import Annulus, Circle, Disk, Rect, Sector
from scatternet.planned import (
    DeploymentPlan,
    OverlapCheck,
    OverlapError,
    check_non_overlap,
    deploy_planned,
)
from scatternet.rng import RandomStream
from scatternet.stats import count_per_sector, evaluate_deployment, radial_ks


def sectors(*entries):
    return [Sector(shape, n) for shape, n in entries]


class TestCheckNonOverlap:
    def test_touching_annuli_allowed(self):
        check = check_non_overlap(sectors((Annulus(0, 1), 1), (Annulus(1, 2), 1)))
        assert check.ok
        assert check.message is None

    def test_overlapping_rects_detected(self):
        check = check_non_overlap(sectors((Rect(0, 0, 2, 2), 1), (Rect(1, 1, 3, 3), 1)))
        assert not check.ok
        assert check.pair == (1, 2)
        assert check.message == "sectors 1 and 2 overlap"

    def test_distant_rect_and_annulus(self):
        # closest approach of the box to the origin is hypot(2, 2) > 1
        check = check_non_overlap(sectors((Annulus(0, 1), 1), (Rect(2, 2, 3, 3), 1)))
        assert check.ok

    def test_rect_inside_annulus_hole(self):
        check = check_non_overlap(sectors((Annulus(0.5, 1), 1), (Rect(-0.1, -0.1, 0.1, 0.1), 1)))
        assert check.ok

    def test_rect_straddling_annulus(self):
        check = check_non_overlap(sectors((Annulus(0, 1), 1), (Rect(0.5, -0.25, 2, 0.25), 1)))
        assert not check.ok

    def test_rect_touching_circle_boundary_allowed(self):
        check = check_non_overlap(sectors((Disk(1.0), 1), (Rect(1.0, -1.0, 2.0, 1.0), 1)))
        assert check.ok

    def test_disk_treated_as_full_annulus(self):
        assert not check_non_overlap(sectors((Disk(1.0), 1), (Annulus(0.5, 2.0), 1))).ok
        assert check_non_overlap(sectors((Disk(0.5), 1), (Annulus(0.5, 2.0), 1))).ok

    def test_touching_rects_allowed(self):
        assert check_non_overlap(sectors((Rect(0, 0, 1, 1), 1), (Rect(1, 0, 2, 1), 1))).ok

    def test_first_offending_pair_reported(self):
        check = check_non_overlap(
            sectors((Rect(0, 0, 2, 2), 1), (Rect(5, 5, 6, 6), 1), (Rect(1, 1, 3, 3), 1))
        )
        assert check.pair == (1, 3)


    def test_remembered_result_belongs_to_its_plan(self):
        apart = sectors((Rect(0, 0, 1, 1), 1), (Rect(2, 2, 3, 3), 1))
        crossing = sectors((Rect(0, 0, 2, 2), 1), (Rect(1, 1, 3, 3), 1))
        assert [check_non_overlap(s).ok for s in (apart, apart, crossing, apart)] == [True, True, False, True]


# Coordinates on a coarse grid, so that shared edges, touching circles,
# nested shapes and rectangles in annulus holes are common; hypot(1.5, 2) is
# exactly 2.5, so box corners also land on circles.
GRID = [k / 2 for k in range(-5, 6)]
RADII = [g for g in GRID if g > 0]


def _span(values):
    return st.lists(st.sampled_from(values), min_size=2, max_size=2, unique=True).map(sorted)


SHAPES = st.one_of(
    st.sampled_from(RADII).map(Disk),
    st.sampled_from(RADII).map(Circle),
    _span([0.0] + RADII).map(lambda s: Annulus(*s)),
    st.tuples(_span(GRID), _span(GRID)).map(lambda s: Rect(s[0][0], s[1][0], s[0][1], s[1][1])),
)


class TestOverlapScan:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(SHAPES, min_size=1, max_size=8))
    def test_matches_the_pair_scan(self, shapes):
        plan = sectors(*((shape, 1) for shape in shapes))
        assert check_non_overlap(plan) == pair_scan(plan)

    def test_ten_thousand_sectors(self):
        rings = sectors(*((Annulus(float(r), r + 1.0), 1) for r in range(9000)))
        boxes = sectors(*((Rect(10000.0 + c, 0.0, 10001.0 + c, 1.0), 1) for c in range(1000)))
        extras = {
            None: [],
            (4321, 10001): sectors((Annulus(4320.25, 4320.75), 1)),  # inside ring 4321
            (9500, 10001): sectors((Rect(10499.25, 0.25, 10499.75, 0.75), 1)),  # inside box 500
        }
        start = time.thread_time()
        checks = {pair: check_non_overlap(rings + boxes + extra) for pair, extra in extras.items()}
        elapsed = time.thread_time() - start
        assert checks == {pair: OverlapCheck(ok=pair is None, pair=pair) for pair in extras}
        assert elapsed < 5.0


class TestSamplePointInSector:
    def test_rect_affine_map(self):
        x, y = sample_sector(Rect(0, 0, 1, 1), 1, SequenceStream([0.3, 0.8]))
        assert (x[0], y[0]) == (0.3, 0.8)

    def test_rect_offset_and_scale(self):
        x, y = sample_sector(Rect(1, 2, 3, 6), 1, SequenceStream([0.5, 0.25]))
        assert (x[0], y[0]) == (2.0, 3.0)

    def test_disk_reduces_to_annulus_sampling(self):
        a = sample_sector(Disk(2.0), 1, SequenceStream([0.36, 0.125]))
        b = sample_sector(Annulus(0.0, 2.0), 1, SequenceStream([0.36, 0.125]))
        np.testing.assert_array_equal(a, b)

    def test_rect_block_is_the_affine_map_of_the_stream(self):
        # across the fill's chunk boundary, x and y take alternate variates
        n = 40_000
        x, y = sample_sector(Rect(1, 2, 3, 6), n, RandomStream(6, 1))
        u = RandomStream(6, 1).uniform_block(2 * n)
        np.testing.assert_array_equal(x, 1 + u[0::2] * 2)
        np.testing.assert_array_equal(y, 2 + u[1::2] * 4)

    def test_rect_marginal_fraction(self):
        # uniform on rect(0,0,2,1): P(x <= 0.5) = 0.25
        plan = DeploymentPlan(sectors=(Sector(Rect(0, 0, 2, 1), 100_000),))
        d = deploy_planned(plan, RandomStream(2020, 0))
        assert abs(float(np.mean(d.x <= 0.5)) - 0.25) < 0.005


class TestDeployPlanned:
    def test_single_disk_degenerates_to_homogeneous(self):
        plan = DeploymentPlan(sectors=(Sector(Disk(1.0), 50),))
        d = deploy_planned(plan, RandomStream(4, 0))
        assert len(d) == 50
        assert np.all(np.hypot(d.x, d.y) <= 1.0)
        assert set(np.unique(d.sector)) == {1}

    def test_counts_exact_for_every_seed(self):
        plan = DeploymentPlan(
            sectors=(
                Sector(Annulus(0, 0.5), 80),
                Sector(Annulus(0.5, 1.0), 20),
                Sector(Rect(2, 2, 3, 3), 7),
            )
        )
        for seed in range(10):
            d = deploy_planned(plan, RandomStream(seed, 0))
            assert count_per_sector(d) == [(1, 80), (2, 20), (3, 7)]

    def test_membership_per_shape(self):
        plan = DeploymentPlan(
            sectors=(
                Sector(Annulus(0.2, 0.6), 500),
                Sector(Rect(1, 1, 2, 4), 500),
            )
        )
        d = deploy_planned(plan, RandomStream(12, 0))
        for index, sec in enumerate(plan.sectors, start=1):
            mask = d.sector == index
            assert np.all(sec.shape.contains(d.x[mask], d.y[mask]))

    def test_density_contrast_of_80_20_split(self):
        plan = DeploymentPlan(
            sectors=(Sector(Annulus(0, 0.5), 80), Sector(Annulus(0.5, 1.0), 20))
        )
        d = deploy_planned(plan, RandomStream(0, 0))
        profile = {s.index: s.density for s in evaluate_deployment(d).per_sector}
        assert profile[1] == pytest.approx(80 / (0.25 * math.pi), rel=1e-12)
        assert profile[2] == pytest.approx(20 / (0.75 * math.pi), rel=1e-12)
        assert profile[1] / profile[2] == pytest.approx(12.0, abs=1e-9)

    def test_overlapping_plan_raises_with_pair(self):
        plan = DeploymentPlan(
            sectors=(Sector(Rect(0, 0, 2, 2), 5), Sector(Rect(1, 1, 3, 3), 5))
        )
        with pytest.raises(OverlapError, match="sectors 1 and 2 overlap"):
            deploy_planned(plan, RandomStream(0, 0))

    def test_sector_points_depend_only_on_own_position_and_shape(self):
        # base plan and a plan with a different middle sector: the sectors
        # at unchanged positions reproduce identical points
        a = DeploymentPlan(
            sectors=(
                Sector(Annulus(0, 0.5), 30),
                Sector(Annulus(0.5, 0.7), 40),
                Sector(Annulus(0.7, 1.0), 50),
            )
        )
        b = DeploymentPlan(
            sectors=(
                Sector(Annulus(0, 0.5), 30),
                Sector(Rect(2, 2, 3, 3), 11),
                Sector(Annulus(0.7, 1.0), 50),
            )
        )
        da = deploy_planned(a, RandomStream(9, 0))
        db = deploy_planned(b, RandomStream(9, 0))
        for index in (1, 3):
            np.testing.assert_array_equal(da.x[da.sector == index], db.x[db.sector == index])
            np.testing.assert_array_equal(da.y[da.sector == index], db.y[db.sector == index])

    def test_sector_slice_reproducible_from_its_substream(self):
        # generating a sector alone from its own substream reproduces its
        # slice of the full deployment, which is what makes sampling safe to
        # parallelize in any order
        plan = DeploymentPlan(
            sectors=(Sector(Annulus(0, 0.5), 30), Sector(Annulus(0.5, 1.0), 40))
        )
        full = deploy_planned(plan, RandomStream(21, 0))
        solo = deploy_planned(
            DeploymentPlan(sectors=(Sector(Annulus(0.5, 1.0), 40),)),
            RandomStream(21, 0),
        )
        # the solo plan's only sector sits at position 1, so regenerate the
        # original position-2 stream directly instead
        x, y = sample_sector(plan.sectors[1].shape, 40, RandomStream(21, 0).substream(2))
        np.testing.assert_array_equal(full.x[full.sector == 2], x)
        np.testing.assert_array_equal(full.y[full.sector == 2], y)
        assert not np.array_equal(solo.x, x)  # different position, different stream

    def test_single_disk_radial_law(self):
        plan = DeploymentPlan(sectors=(Sector(Disk(2.0), 10_000),))
        d = deploy_planned(plan, RandomStream(33, 0))
        result = radial_ks(d.x, d.y, 0.0, 2.0, alpha=0.01)
        assert result.passed

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            DeploymentPlan(sectors=())
        with pytest.raises(TypeError):
            DeploymentPlan(sectors=(Disk(1.0),))  # shape without a count
        plan = DeploymentPlan(sectors=(Sector(Disk(1.0), 3), Sector(Rect(2, 2, 3, 3), 4)))
        assert plan.total_nodes == 7
