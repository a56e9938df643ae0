import contextlib
import dataclasses
import gc
import json
import math
import multiprocessing
import os
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    BAD_AUTOMATIC_METADATA,
    BAD_CSV_POINTS,
    BAD_JSON_POINTS,
    BAD_SECTORS,
    ORACLES,
    corrupt_metadata,
    pools_cannot_start,
    pretend_cpus,
    read_range_fails,
    truncated_after,
    with_csv_point,
    with_json_point,
)
from scatternet import fileio
from scatternet.automatic import deploy_automatic
from scatternet.core import Annulus, Circle, Deployment, Disk, NetworkConfig, Rect, Sector
from scatternet.fileio import (
    FormatError,
    automatic_metadata,
    deployment_from_files,
    load_plan,
    planned_metadata,
    read_metadata,
    read_points,
    write_metadata,
    write_plot_data,
    write_points,
    write_report,
)
from scatternet.planned import DeploymentPlan, deploy_planned
from scatternet.rng import RandomStream
from scatternet.stats import GofResult, SectorStat, StatReport, evaluate_deployment

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


def tiny_deployment(xs, ys, tags):
    """Points under a plan of one sector, repeated up to the largest tag so
    that every tag names a sector; the writers read only the tags."""
    tags = np.asarray(tags, dtype=np.int64)
    plan = DeploymentPlan(sectors=(Sector(Disk(1.0), 1),) * int(tags.max(initial=1)))
    return Deployment(x=np.asarray(xs, dtype=np.float64), y=np.asarray(ys, dtype=np.float64), sector=tags, plan=plan)


class TestPointsRoundTrip:
    @given(st.lists(st.tuples(finite_floats, finite_floats), min_size=1, max_size=20))
    def test_csv_round_trip_is_bitwise(self, pairs):
        import tempfile
        from pathlib import Path

        xs = [p[0] for p in pairs]
        ys = [p[1] for p in pairs]
        d = tiny_deployment(xs, ys, [1] * len(pairs))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "points.csv"
            write_points(path, d, fmt="csv")
            x, y, sector = read_points(path)
        np.testing.assert_array_equal(x, d.x)
        np.testing.assert_array_equal(y, d.y)
        np.testing.assert_array_equal(sector, d.sector)

    def test_json_round_trip_is_bitwise(self, tmp_path):
        cfg = NetworkConfig(radius=1.0, max_layers=5, nodes=200, seed=3)
        d = deploy_automatic(cfg, RandomStream(3, 0))
        path = tmp_path / "points.json"
        write_points(path, d, fmt="json")
        x, y, sector = read_points(path)
        np.testing.assert_array_equal(x, d.x)
        np.testing.assert_array_equal(y, d.y)
        np.testing.assert_array_equal(sector, d.sector)

    def test_csv_layout(self, tmp_path):
        d = tiny_deployment([0.5], [-0.25], [3])
        path = tmp_path / "p.csv"
        write_points(path, d)
        assert path.read_text() == "x,y,sector\n0.5,-0.25,3\n"

    @pytest.mark.parametrize("content", ["a,b,c\n1,2,3\n", "x,y,sector", " x,y,sector\n1,2,3\n", "x,y,sector \n1,2,3\n",
                                         "x,y,sector\r\n1,2,3\r\n", "x,y,sector\r1,2,3\r", ""])
    def test_bad_header_rejected(self, tmp_path, content):
        path = tmp_path / "p.csv"
        path.write_text(content)
        with pytest.raises(FormatError, match=r"p.csv:1: expected the header line 'x,y,sector\\n'"):
            read_points(path)

    def test_bad_row_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("x,y,sector\n1.0,2.0\n")
        with pytest.raises(FormatError, match=":2"):
            read_points(path)
        path.write_text("x,y,sector\n1.0,zzz,1\n")
        with pytest.raises(FormatError):
            read_points(path)

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text("{\"nope\": 1}")
        with pytest.raises(FormatError):
            read_points(path)

    @pytest.mark.parametrize("row", BAD_JSON_POINTS)
    def test_bad_json_point_rejected(self, tmp_path, row):
        path = tmp_path / "p.json"
        write_points(path, tiny_deployment([0.5, -0.25], [0.125, 1.0], [1, 2]), fmt="json")
        path.write_text(with_json_point(path.read_text(), row))
        with pytest.raises(FormatError, match="p.json: "):
            read_points(path)

    @pytest.mark.parametrize("head", ['"columns": ["y", "x", "sector"], ', ""], ids=["swapped", "missing"])
    def test_json_needs_the_exact_columns(self, tmp_path, head):
        path = tmp_path / "p.json"
        path.write_text('{' + head + '"points": [[0.5, 0.25, 1]]}\n')
        with pytest.raises(FormatError, match=r'p.json: expected "columns": \["x", "y", "sector"\]'):
            read_points(path)

    def test_json_integer_coordinates_accepted(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"columns": ["x", "y", "sector"], "points": [[0, -1, 2], [0.5, 3, 1]]}')
        x, y, sector = read_points(path)
        assert x.tolist() == [0.0, 0.5] and y.tolist() == [-1.0, 3.0] and sector.tolist() == [2, 1]

    def test_json_needs_finite_coordinates(self, tmp_path):
        with pytest.raises(ValueError, match="finite"):
            write_points(tmp_path / "p.json", tiny_deployment([0.5, float("nan")], [0.0, 0.0], [1, 1]), fmt="json")

    @pytest.mark.parametrize("row", BAD_CSV_POINTS)
    def test_bad_csv_point_rejected_with_its_line(self, tmp_path, row):
        path = tmp_path / "p.csv"
        write_points(path, tiny_deployment([0.5, -0.25], [0.125, 1.0], [1, 2]))
        path.write_text(with_csv_point(path.read_text(), row))
        with pytest.raises(FormatError, match="p.csv:4: "):
            read_points(path)

    def test_csv_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("x,y,sector\n\n0.5,-1.0,2\n\n3,0.25,1\n")
        x, y, sector = read_points(path)
        assert x.tolist() == [0.5, 3.0] and y.tolist() == [-1.0, 0.25] and sector.tolist() == [2, 1]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_csv_needs_finite_coordinates(self, tmp_path, value):
        with pytest.raises(ValueError, match="finite"):
            write_points(tmp_path / "p.csv", tiny_deployment([0.5, 0.0], [0.0, value], [1, 1]))
        assert not (tmp_path / "p.csv").exists()

    def test_unknown_format(self, tmp_path):
        d = tiny_deployment([0.0], [0.0], [1])
        with pytest.raises(ValueError):
            write_points(tmp_path / "p.xml", d, fmt="xml")


CHUNK = fileio._ROW_CHUNK


def spread_deployment(n, seed):
    """``n`` points whose coordinates span many magnitudes and both signs."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-300, 300, size=(2, n))
    return tiny_deployment(rng.standard_normal(n) * scale[0], rng.standard_normal(n) * scale[1],
                           rng.integers(1, 10**6, size=n))


class TestStreamedWriter:
    """Every layout, streamed in chunks, is byte for byte the one-shot text."""

    @pytest.mark.parametrize("size", [0, 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
    @pytest.mark.parametrize("layout", sorted(ORACLES))
    def test_bytes_equal_one_shot_text(self, tmp_path, layout, size):
        d = spread_deployment(size, seed=size)
        path = tmp_path / f"points.{layout}"
        if layout == "xy":
            write_points(tmp_path / "points.csv", d, xy_path=path)
        else:
            write_points(path, d, fmt=layout)
        assert path.read_bytes() == ORACLES[layout](d).encode()

    @pytest.mark.parametrize("size", [0, 1, CHUNK + 1, 3 * CHUNK + 5])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_points_and_plot_data_from_one_pass(self, tmp_path, fmt, size):
        d = spread_deployment(size, seed=size)
        path, xy_path = tmp_path / f"points.{fmt}", tmp_path / "points.xy"
        write_points(path, d, fmt=fmt, xy_path=xy_path)
        assert path.read_bytes() == ORACLES[fmt](d).encode()
        assert xy_path.read_bytes() == ORACLES["xy"](d).encode()

    @pytest.mark.parametrize("size", [0, 1, CHUNK + 1, 3 * CHUNK + 5])
    @pytest.mark.parametrize("writer", ["csv", "json", "csv+xy"])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_bytes_do_not_depend_on_cpu_count(self, tmp_path, monkeypatch, cpus, writer, size):
        pools = pretend_cpus(monkeypatch, cpus)
        d = spread_deployment(size, seed=size)
        WRITERS[writer](d, tmp_path)
        for path in tmp_path.iterdir():
            assert path.read_bytes() == ORACLES[path.suffix[1:]](d).encode()
        chunks = -(-size // CHUNK)
        # a pool only with more than one chunk and more than one CPU, never outliving the call
        assert pools == ([min(cpus, chunks)] if cpus > 1 and chunks > 1 else [])
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("writer", ["csv+xy", "xy"])
    def test_pool_that_cannot_start_writes_in_process(self, tmp_path, monkeypatch, writer):
        """Points CSV, points JSON and ``.xy``, written in-process as on one
        CPU when the pool cannot fork its workers."""
        d = spread_deployment(3 * CHUNK + 5, seed=9)
        for name, cpus in (("one", 1), ("refused", 2)):
            (tmp_path / name).mkdir()
            with pytest.MonkeyPatch.context() as patch:
                pretend_cpus(patch, cpus)
                attempts = pools_cannot_start(patch)
                WRITERS[writer](d, tmp_path / name)
            assert attempts == ([2] if cpus == 2 else [])
        for path in (tmp_path / "one").iterdir():
            assert (tmp_path / "refused" / path.name).read_bytes() == path.read_bytes(), path.name
            assert path.read_bytes() == ORACLES[path.suffix[1:]](d).encode(), path.name
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("where", ["at open", "mid-stream"])
    def test_failed_write_leaves_no_worker(self, tmp_path, monkeypatch, where):
        if where == "mid-stream" and not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        pools = pretend_cpus(monkeypatch, 2)
        path = tmp_path / "missing" / "p.csv" if where == "at open" else Path("/dev/full")
        with pytest.raises(OSError):
            write_points(path, spread_deployment(3 * CHUNK + 5, seed=0))
        assert pools == [2]
        assert multiprocessing.active_children() == []


def str_format_rows(xs, ys, tags) -> bytes:
    """The rows of one chunk as ``str.format`` wrote them before the bytes
    template: the oracle of ``fileio._format_rows``."""
    return "\n".join(map("{!r},{!r},{}".format, xs, ys, tags)).encode()


def format_rows(xs, ys, tags) -> bytes:
    return fileio._format_rows(np.array(xs, dtype=np.float64), np.array(ys, dtype=np.float64),
                               np.array(tags, dtype=np.int64))


# Signed zero, subnormal and normal limits, the largest floats, and the
# points where ``repr`` switches between plain and exponent notation:
# none of them is drawn by ``spread_deployment``.
EXTREME_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                  -1.7976931348623157e308, 1e16, 9999999999999998.0, 1e-05, 0.0001]


class TestRowFormatter:
    """One chunk's rows from the bytes template equal the ``str.format`` rows,
    at values and tags that no ``Deployment`` of 1..k tags reaches."""

    @pytest.mark.parametrize("tag", [2**63 - 1, -(2**63)])
    def test_extremes(self, tag):
        xs, ys, tags = EXTREME_FLOATS, EXTREME_FLOATS[::-1], [tag] * len(EXTREME_FLOATS)
        assert format_rows(xs, ys, tags) == str_format_rows(xs, ys, tags)

    @given(st.lists(st.tuples(finite_floats, finite_floats, st.integers(-(2**63), 2**63 - 1)), max_size=40))
    def test_finite_floats(self, rows):
        xs, ys, tags = [[row[i] for row in rows] for i in range(3)]
        assert format_rows(xs, ys, tags) == str_format_rows(xs, ys, tags)


def touch_after(path, delay):
    """A pool job: wait ``delay`` seconds, then create ``path``."""
    time.sleep(delay)
    Path(path).touch()


class TestPoolHelper:
    def test_jobs_in_flight_finish_when_the_caller_fails(self, tmp_path, monkeypatch):
        pools = pretend_cpus(monkeypatch, 2)
        jobs = [(tmp_path / f"job{i}", 0.0 if i == 0 else 0.3) for i in range(4)]  # all four sent at once
        with pytest.raises(KeyError):
            with fileio._in_order(touch_after, jobs) as results:
                for _ in results:
                    raise KeyError("the caller fails at its first result")
        assert pools == [2]
        assert multiprocessing.active_children() == []
        # no worker was terminated mid-job, as it might have been mid-send of a result
        assert all(path.exists() for path, _ in jobs)

    def test_interrupt_terminates_jobs_in_flight(self, tmp_path, monkeypatch):
        pools = pretend_cpus(monkeypatch, 2)
        jobs = [(tmp_path / f"job{i}", 0.0 if i == 0 else 30.0) for i in range(4)]  # all four sent at once
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            with fileio._in_order(touch_after, jobs) as results:
                for _ in results:
                    raise KeyboardInterrupt
        assert time.monotonic() - start < 10
        assert pools == [2]
        assert multiprocessing.active_children() == []
        # the sleeping workers were terminated before they touched their files
        assert [path.exists() for path, _ in jobs] == [True, False, False, False]


def same_arrays(a, b) -> bool:
    return all(np.array_equal(x, y) and x.dtype == y.dtype for x, y in zip(a, b, strict=True))


class TestReadAhead:
    """Reads inside a ``read_ahead`` block, on two CPUs in ranges of 4 KiB."""

    @pytest.fixture
    def files(self, tmp_path, monkeypatch):
        """Two points CSV files of 4000 points, two ranges each, and their
        arrays as read outside a block."""
        paths = [tmp_path / f"p{seed}.csv" for seed in range(2)]
        for seed, path in enumerate(paths):
            write_points(path, spread_deployment(4000, seed=seed))
        monkeypatch.setattr(fileio, "_RANGE_BYTES", 1 << 12)
        return paths, [read_points(path) for path in paths]

    def test_reads_take_their_own_entries(self, files, monkeypatch):
        (first, second), arrays = files
        pools = pretend_cpus(monkeypatch, 2)
        listed = [first, second, first, second]
        with fileio.read_ahead(listed, [path.with_suffix(".out") for path in listed]):
            # the first entry is never read: its ranges are dropped at the read of the second
            got = [read_points(second), read_points(first), read_points(second)]
            assert not fileio._ahead[0]
        assert all(same_arrays(a, b) for a, b in zip(got, [arrays[1], arrays[0], arrays[1]]))
        assert pools == [2]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus, margin, opened", [(2, 0, True), (2, 1, False), (1, 0, False)])
    def test_only_a_file_long_enough_for_two_ranges_is_cut_at_entry(self, files, monkeypatch, cpus, margin, opened):
        # a file one byte short of two ranges past its head and before its tail would be one range
        (path, _), (arrays, _) = files
        pools = pretend_cpus(monkeypatch, cpus)
        head, tail = len(b"x,y,sector\n"), len(b"\n")
        monkeypatch.setattr(fileio, "_RANGE_BYTES", (path.stat().st_size - head - tail) // 2 + margin)
        cut = []
        ranges = fileio._ranges
        monkeypatch.setattr(fileio, "_ranges", lambda *args: cut.append(args) or ranges(*args))
        with fileio.read_ahead([path], [path.with_suffix(".out")]):
            assert same_arrays(read_points(path), arrays)
        assert cut == ([(path, "csv")] if opened else [])
        assert pools == ([2] if opened else [])

    @pytest.mark.parametrize("error", [KeyError, KeyboardInterrupt])
    def test_leaving_the_block_leaves_no_worker_and_no_entry(self, files, monkeypatch, error):
        paths, arrays = files
        pools = pretend_cpus(monkeypatch, 2)
        with pytest.raises(error):
            with fileio.read_ahead(paths, [path.with_suffix(".out") for path in paths]):
                assert same_arrays(read_points(paths[0]), arrays[0])
                raise error
        assert fileio._ahead is None
        assert pools == [2]
        assert multiprocessing.active_children() == []


# Every points layout, by name: each writes into ``directory``; ``.xy`` is
# written beside the points, here JSON ("csv+xy" pairs it with CSV).
WRITERS = {
    "csv": lambda d, directory: write_points(directory / "p.csv", d),
    "json": lambda d, directory: write_points(directory / "p.json", d, fmt="json"),
    "xy": lambda d, directory: write_points(directory / "p.json", d, fmt="json", xy_path=directory / "p.xy"),
    "csv+xy": lambda d, directory: write_points(directory / "p.csv", d, xy_path=directory / "p.xy"),
}


class TestWritersRefuse:
    """Every layout refuses a malformed point set before opening a file."""

    @pytest.mark.parametrize("tags", [[1], [1, 2, 3, 4], []])
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_one_sector_tag_per_point(self, tmp_path, writer, tags):
        with pytest.raises(ValueError, match="one sector tag each"):
            WRITERS[writer](tiny_deployment([0.5, 0.25, 0.0], [0.1, 0.2, 0.3], tags), tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("writer", sorted(WRITERS))
    def test_finite_coordinates(self, tmp_path, writer, value):
        with pytest.raises(ValueError, match="finite"):
            WRITERS[writer](tiny_deployment([0.5, value], [0.1, 0.2], [1, 1]), tmp_path)
        assert list(tmp_path.iterdir()) == []


class TestMetadata:
    def test_automatic_schema(self, tmp_path):
        cfg = NetworkConfig(radius=1.0, max_layers=5, nodes=100, seed=42)
        d = deploy_automatic(cfg, RandomStream(42, 0))
        meta = automatic_metadata(d, run=7)
        assert set(meta) == {"L", "n_Lmax", "n_S", "seed", "run", "n_L", "radii", "n_in", "n_out"}
        assert meta["L"] == 1.0
        assert meta["n_Lmax"] == 5
        assert meta["n_S"] == 100
        assert meta["run"] == 7
        assert meta["n_L"] == len(meta["radii"]) + 1
        path = tmp_path / "m.json"
        write_metadata(path, meta)
        assert read_metadata(path) == meta

    def test_rebuild_automatic_deployment(self, tmp_path):
        cfg = NetworkConfig(radius=2.0, max_layers=4, nodes=300, seed=9)
        d = deploy_automatic(cfg, RandomStream(9, 0))
        write_points(tmp_path / "run.csv", d)
        write_metadata(tmp_path / "run.meta.json", automatic_metadata(d, run=0))
        back = deployment_from_files(tmp_path / "run.csv", tmp_path / "run.meta.json")
        np.testing.assert_array_equal(back.x, d.x)
        assert back.plan == d.plan
        assert back.config == cfg
        assert back.plan.sectors[0].count == d.plan.sectors[0].count

    def test_rebuild_planned_deployment(self, tmp_path):
        plan = DeploymentPlan(sectors=(Sector(Disk(1.0), 10), Sector(Rect(2, 2, 3, 3), 5)))
        d = deploy_planned(plan, RandomStream(4, 0))
        write_points(tmp_path / "run.csv", d)
        write_metadata(tmp_path / "run.meta.json", planned_metadata(d, run=0, seed=4))
        back = deployment_from_files(tmp_path / "run.csv", tmp_path / "run.meta.json")
        assert back.plan == plan

    def test_missing_keys_rejected(self, tmp_path):
        (tmp_path / "run.csv").write_text("x,y,sector\n0.0,0.0,1\n")
        write_metadata(tmp_path / "run.meta.json", {"n_L": 2, "L": 1.0})
        with pytest.raises(FormatError, match="missing"):
            deployment_from_files(tmp_path / "run.csv", tmp_path / "run.meta.json")

    @pytest.mark.parametrize("key,value", BAD_AUTOMATIC_METADATA)
    def test_inconsistent_automatic_metadata_rejected(self, tmp_path, key, value):
        cfg = NetworkConfig(radius=1.0, max_layers=5, nodes=100, seed=3)
        d = deploy_automatic(cfg, RandomStream(3, 0))
        write_points(tmp_path / "run.csv", d)
        write_metadata(tmp_path / "run.meta.json", corrupt_metadata(automatic_metadata(d, run=0), key, value))
        with pytest.raises(FormatError, match="run.meta.json"):
            deployment_from_files(tmp_path / "run.csv", tmp_path / "run.meta.json")

    @pytest.mark.parametrize("plan", [5, [], {"shape": "disk"}])
    def test_planned_metadata_needs_a_sector_list(self, tmp_path, plan):
        (tmp_path / "run.csv").write_text("x,y,sector\n0.0,0.0,1\n")
        write_metadata(tmp_path / "run.meta.json", {"seed": 0, "run": 0, "plan": plan})
        with pytest.raises(FormatError, match="array"):
            deployment_from_files(tmp_path / "run.csv", tmp_path / "run.meta.json")

    def test_unrecognized_metadata_rejected(self, tmp_path):
        (tmp_path / "run.csv").write_text("x,y,sector\n0.0,0.0,1\n")
        write_metadata(tmp_path / "run.meta.json", {"whatever": 1})
        with pytest.raises(FormatError, match="neither"):
            deployment_from_files(tmp_path / "run.csv", tmp_path / "run.meta.json")


class TestPlanFiles:
    def test_round_trip(self, tmp_path):
        plan = DeploymentPlan(
            sectors=(
                Sector(Annulus(0, 0.5), 80),
                Sector(Annulus(0.5, 1.0), 20),
                Sector(Rect(2, 2, 3, 4), 5),
                Sector(Disk(0.25), 3),
            )
        )
        # the plan objects a planned run's metadata carries form a plan file
        d = dataclasses.replace(tiny_deployment([], [], []), plan=plan)
        objects = planned_metadata(d, run=0, seed=0)["plan"]
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(objects))
        assert load_plan(path) == plan

    def test_schema_errors_name_the_sector(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps([{"shape": "annulus", "r_inner": 0, "r_outer": 1, "n": 10},
                                    {"shape": "pentagon", "n": 5}]))
        with pytest.raises(FormatError, match="sector 2"):
            load_plan(path)
        path.write_text(json.dumps([{"shape": "disk", "r": 1.0}]))
        with pytest.raises(FormatError, match="sector 1.*'n'"):
            load_plan(path)
        path.write_text(json.dumps([{"shape": "disk", "r": 1.0, "n": 0}]))
        with pytest.raises(FormatError, match="sector 1"):
            load_plan(path)
        path.write_text(json.dumps([{"shape": "annulus", "r_inner": 1.0, "r_outer": 0.5, "n": 3}]))
        with pytest.raises(FormatError, match="sector 1"):
            load_plan(path)

    @pytest.mark.parametrize("sector", BAD_SECTORS)
    def test_bad_sector_rejected(self, tmp_path, sector):
        path = tmp_path / "plan.json"
        path.write_text(f"[{sector}]")
        with pytest.raises(FormatError, match="sector 1: "):
            load_plan(path)

    def test_non_array_rejected(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{}")
        with pytest.raises(FormatError, match="array"):
            load_plan(path)
        path.write_text("not json")
        with pytest.raises(FormatError):
            load_plan(path)
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(FormatError):
            load_plan(path)


json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
numberish = st.integers(-2, 400) | st.floats(-2.0, 3.0) | json_scalars
sector_objects = st.fixed_dictionaries(
    {"shape": st.sampled_from(["annulus", "disk", "rect", "hexagon"])},
    optional={key: numberish for key in ("r", "r_inner", "r_outer", "x0", "y0", "x1", "y1", "n")},
)
plan_values = st.lists(sector_objects | json_values, max_size=4) | json_values
VALID_META = {"L": 1.0, "n_Lmax": 3, "n_S": 10, "seed": 1, "run": 0, "n_L": 2, "radii": [0.5], "n_in": 5, "n_out": 5}
meta_values = (
    st.builds(
        lambda key, value: {**VALID_META, key: value},
        st.sampled_from(sorted(VALID_META)),
        numberish | st.lists(numberish, max_size=3) | json_values,
    )
    | st.fixed_dictionaries({"seed": numberish, "run": numberish, "plan": plan_values})
    | json_values
)

csv_fields = (
    st.floats().map(repr)
    | st.integers().map(str)
    | st.sampled_from(["", " ", "nan", "-inf", "Infinity", "1e400", "2.7", "1_0", "99999999999999999999"])
    | st.text(max_size=4)
)
csv_rows = st.lists(csv_fields, max_size=5).map(",".join) | st.text(max_size=8)
csv_headers = st.sampled_from(["x,y,sector", " x,y,sector ", "x,y", "a,b,c", ""]) | st.text(max_size=12)
csv_files = (st.builds(
    lambda header, rows, end: "\n".join([header, *rows]) + end,
    csv_headers, st.lists(csv_rows, max_size=8), st.sampled_from(["", "\n", "\r\n"]),
) | st.text()).map(str.encode) | st.binary(max_size=40)
point_values = numberish | st.integers() | st.sampled_from([2**63, -(2**63) - 1, float("nan"), float("inf")])
points_payloads = st.fixed_dictionaries(
    {"points": st.lists(st.lists(point_values, max_size=4) | json_values, max_size=5)},
    optional={"columns": st.just(["x", "y", "sector"]) | json_values},
) | json_values


def assert_points(arrays):
    """Three equal-length 1-D arrays: finite float64 x and y, int64 tags."""
    x, y, sector = arrays
    assert (x.dtype, y.dtype, sector.dtype) == (np.float64, np.float64, np.int64)
    assert x.ndim == 1 and x.shape == y.shape == sector.shape
    assert np.isfinite(x).all() and np.isfinite(y).all()


class TestParsersNeverCrash:
    """Any input parses to a valid object or raises FormatError."""

    @given(csv_files)
    @settings(max_examples=300, deadline=None)
    def test_read_points_csv(self, content):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "points.csv"
            path.write_bytes(content)
            try:
                arrays = read_points(path)
            except FormatError:
                return
        assert_points(arrays)

    @given(points_payloads)
    @settings(max_examples=300, deadline=None)
    def test_read_points_json(self, value):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "points.json"
            path.write_text(json.dumps(value))
            try:
                arrays = read_points(path)
            except FormatError:
                return
        assert_points(arrays)

    @given(plan_values)
    @settings(max_examples=300, deadline=None)
    def test_load_plan(self, value):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "plan.json"
            path.write_text(json.dumps(value))
            try:
                plan = load_plan(path)
            except FormatError:
                return
        assert isinstance(plan, DeploymentPlan)
        for sector in plan.sectors:
            assert type(sector.count) is int and sector.count >= 1
            assert 0 < sector.shape.area() < math.inf

    @given(meta_values)
    @settings(max_examples=300, deadline=None)
    def test_deployment_from_files(self, value):
        with tempfile.TemporaryDirectory() as tmp:
            points_path = Path(tmp) / "run.csv"
            meta_path = Path(tmp) / "run.meta.json"
            points_path.write_text("x,y,sector\n0.0,0.0,1\n")
            meta_path.write_text(json.dumps(value))
            try:
                d = deployment_from_files(points_path, meta_path)
            except FormatError:
                return
        assert isinstance(d, Deployment)
        if d.config is not None:
            inner, outer = d.plan.sectors[0].count, d.plan.sectors[1].count
            assert inner + (len(d.plan.sectors) - 1) * outer == d.config.nodes


def read_outcome(read, path):
    """What ``read`` makes of ``path``: dtype, shape and bytes of each array,
    or the FormatError message."""
    try:
        arrays = read(path)
    except FormatError as exc:
        return str(exc)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


# Characters outside the points CSV format, most of which Python's
# ``float()``, ``int()`` or ``str.splitlines``, or ``np.loadtxt``, would read
# as digits, spaces or line ends.
ODD_CHARACTERS = ["\x0c", "\x0b", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\xa0", "\t", "\x00", "_",
                  "\u0663", "\uff13"]
plain_fields = (
    finite_floats.map(repr)
    | st.integers(-(2**64), 2**64).map(str)
    | st.text(alphabet="0123456789+-.eE ", max_size=6)
    | st.sampled_from(["nan", "infinity", "1e400", "-1e400", "1_0", "\u0663", "\uff13", "2.7"])
)
plain_rows = st.lists(plain_fields, min_size=2, max_size=4).map(",".join) | st.sampled_from(["", " ", "\t"])


@st.composite
def near_fast_path_files(draw):
    """Points CSV text close to what the writer makes, sometimes with an odd
    character inserted at any position."""
    header = draw(st.sampled_from(["x,y,sector", "x,y,sector", " x,y,sector", "x,y,sector ", "x,y"]))
    rows = draw(st.lists(plain_rows, max_size=6))
    text = draw(st.sampled_from(["\n", "\r\n", "\r"])).join([header, *rows]) + draw(st.sampled_from(["", "\n"]))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(ODD_CHARACTERS)) + text[at:]
    return text.encode()


# Points CSV bodies, and whether the format accepts them.
CSV_BODIES = [
    ("1_0,2,3\n", False),
    ("1,2,1_0\n", False),
    ("\u0663,2,3\n", False),
    ("1,2,\uff13\n", False),
    ("1,2\x0c,3\n", False),
    ("1,2\x0b,3\n", False),
    ("1,2\x1c,3\n", False),
    ("1,2\x85,3\n", False),
    ("1,2\u2028,3\n", False),
    ("1,2\xa0,3\n", False),
    ("1,2\t,3\n", False),
    ("1,2 ,3\n", True),
    (" 0.25 , 0.5 , 1 \n", True),
    ("+1.,.5,+0001\n", True),
    ("0.5,0.5,1\n\n\n0.25,0.5,2\n", True),
    ("0.5,0.5,1\n   \n0.25,0.5,2\n", False),
    ("0.5,0.5,1\r\n0.25,0.5,2\r\n", False),
    ("0.5,0.5,1\r0.25,0.5,2\r", False),
    ("nan,2,3\n", False),
    ("1,infinity,3\n", False),
    ("1e400,2,3\n", False),
    ("", True),
    ("\n\n", True),
    ("0.5,-0.0,7\n", True),
    (f"0.5,0.5,{2**63}\n", False),
    (f"0.5,0.5,{2**63 - 1}\n", True),
    (f"0.5,0.5,{-(2**63)}\n", True),
    ("1,2,3.0\n", False),
    ("1,2,1e3\n", False),
]


class TestCsvGrammar:
    """What the one points CSV parser accepts, and the line it names when it
    refuses."""

    @pytest.mark.parametrize("body, accepted", CSV_BODIES)
    def test_accepted_or_refused(self, tmp_path, body, accepted):
        path = tmp_path / "p.csv"
        path.write_bytes(("x,y,sector\n" + body).encode())
        outcome = read_outcome(read_points, path)
        assert isinstance(outcome, list) == accepted, outcome

    @given(near_fast_path_files() | csv_files)
    @settings(max_examples=300, deadline=None)
    def test_error_names_the_first_refused_line(self, content):
        """Every body line before the named one is accepted alone after the
        header, and the named one is refused alone."""
        with tempfile.TemporaryDirectory() as tmp:
            path, alone = Path(tmp) / "points.csv", Path(tmp) / "alone.csv"
            path.write_bytes(content)
            outcome = read_outcome(read_points, path)
            if isinstance(outcome, list):
                return
            line = int(outcome[len(f"{path}:"):].split(":")[0])
            assert (line == 1) != content.startswith(b"x,y,sector\n")
            for number, text in enumerate(content.split(b"\n")[1:line], start=2):
                alone.write_bytes(b"x,y,sector\n" + text)
                assert isinstance(read_outcome(read_points, alone), list) == (number < line), number

    @pytest.mark.parametrize("content", ["x,y,sector\n", "x,y,sector\n\n"])
    def test_header_only_file_is_quiet(self, tmp_path, capfd, content):
        path = tmp_path / "p.csv"
        path.write_text(content)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            x, y, sector = read_points(path)
        assert caught == []
        assert x.size == y.size == sector.size == 0
        assert capfd.readouterr().err == ""

    def test_one_row_file(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("x,y,sector\n0.5,-0.25,3\n")
        x, y, sector = read_points(path)
        assert (x.tolist(), y.tolist(), sector.tolist()) == ([0.5], [-0.25], [3])

    def test_written_file_skips_the_strict_parser(self, tmp_path):
        """Files the writer wrote, read in one range per CPU, never reach a
        strict parser, in either format; on one CPU, the strict parser reads
        them whole, with no pool."""
        d = spread_deployment(3 * CHUNK + 5, seed=7)
        for fmt in ("csv", "json"):
            path = tmp_path / f"p.{fmt}"
            write_points(path, d, fmt=fmt)
            for cpus in (1, 2):
                with pytest.MonkeyPatch.context() as patch:
                    pools = pretend_cpus(patch, cpus)
                    patch.setattr(fileio, "_RANGE_BYTES", 1 << 16)
                    if cpus == 2:
                        # read_points takes its strict parser from this table: a call would raise TypeError
                        patch.setitem(fileio._READ_LAYOUTS, fmt, fileio._READ_LAYOUTS[fmt][:-1] + (None,))
                    x, y, sector = read_points(path)
                assert pools == ([2] if cpus == 2 else []), (fmt, cpus)
                assert x.tobytes() == d.x.tobytes() and y.tobytes() == d.y.tobytes(), (fmt, cpus)
                assert sector.tobytes() == d.sector.tobytes(), (fmt, cpus)

    def test_written_csv_in_one_range_is_read_from_its_path(self, tmp_path, monkeypatch):
        """A writer CSV read in one range ends at the file's final newline:
        that range is the whole body, which ``loadtxt`` reads from the path,
        never from a copy of its bytes in memory."""
        d = spread_deployment(5000, seed=8)
        path = tmp_path / "p.csv"
        write_points(path, d)
        pretend_cpus(monkeypatch, 1)
        monkeypatch.setattr(fileio.io, "BytesIO", bytes_io_refused)
        x, y, sector = read_points(path)
        assert x.tobytes() == d.x.tobytes() and y.tobytes() == d.y.tobytes()
        assert sector.tobytes() == d.sector.tobytes()


def bytes_io_refused(*args):
    raise AssertionError("a range was parsed from a copy of its bytes")


def strict_outcome(path):
    """What ``path`` holds by its format's definition: for JSON, the strict
    parser's verdict; for CSV, that of a read on one CPU, in one range."""
    if path.suffix == ".json":
        return read_outcome(fileio._json_points, path)
    with pytest.MonkeyPatch.context() as patch:
        pretend_cpus(patch, 1)
        return read_outcome(read_points, path)


@contextlib.contextmanager
def tiny_ranges(cpus: int):
    """Reads on ``cpus`` pretended CPUs, in ranges of tens of bytes; yields
    the worker counts of the pools they create."""
    with pytest.MonkeyPatch.context() as patch:
        pools = pretend_cpus(patch, cpus)
        patch.setattr(fileio, "_RANGE_BYTES", 16)
        yield pools


def assert_ranged_read_is_strict(content: bytes, suffix: str, cpus: int):
    """``read_points`` in tiny ranges gives the arrays of
    :func:`strict_outcome` bitwise, or its error; returns the worker counts
    of its pools."""
    with tempfile.TemporaryDirectory() as tmp, tiny_ranges(cpus) as pools:
        path = Path(tmp) / f"points{suffix}"
        path.write_bytes(content)
        assert read_outcome(read_points, path) == strict_outcome(path)
        assert multiprocessing.active_children() == []
    return pools


JSON_HEAD = '{"columns": ["x", "y", "sector"], "points": ['
# Text that JSON or ``json.loads`` treats unlike the writer's numbers, and
# text that looks like the writer's separators, head or tail.
ODD_JSON = ["NaN", "Infinity", "-Infinity", "-0", "1E5", "1.", ".5", "01", "+1", "2.7", str(2**63), '"3"',
            '"], ["', "[1]", "[[", "]]", "]]}", "], [", "],[", "  ", "\n", "\r\n", "\t", ",", "true", "null",
            "\u00e9"]
json_rows = st.tuples(finite_floats.map(repr) | st.integers().map(str), finite_floats.map(repr),
                      st.integers(-(2**63), 2**63 - 1).map(str)).map(list)


def edited(draw, text: str, tokens: list) -> str:
    """``text`` with up to two edits, each the insertion of one of
    ``tokens`` or the deletion of a character, anywhere."""
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at] + draw(st.sampled_from(tokens)) + text[at:]
        else:
            text = text[:at] + text[at + 1:]
    return text


@st.composite
def near_writer_json(draw):
    """Points JSON text laid out as the writer lays it out, with odd tokens
    in place of a value or two, then edited anywhere."""
    rows = draw(st.lists(json_rows, max_size=10))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        draw(st.sampled_from(rows))[draw(st.integers(0, 2))] = draw(st.sampled_from(ODD_JSON))
    text = JSON_HEAD + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]}\n"
    return edited(draw, text, ODD_JSON).encode()


@st.composite
def near_fast_path_csv(draw):
    """Points CSV text close to what the writer makes, long enough for a few
    tiny ranges."""
    tags = st.integers(-(2**63), 2**63 - 1)
    rows = draw(st.lists(st.tuples(finite_floats, finite_floats, tags), min_size=2, max_size=12))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(["x,y,sector", *(f"{x!r},{y!r},{s}" for x, y, s in rows)]) + draw(st.sampled_from(["", end]))
    return edited(draw, text, ODD_CHARACTERS + ["\n", "\r", ",", "nan", "1e400", " ", "5"]).encode()


CSV_ROWS = ["1.5,-2.5,3", "-4.5,5.5,6", "7.5,8.5,9"] * 3
JSON_ROWS = ", ".join(["[1.5, -2.5, 3]", "[-4.5, 5.5, 6]", "[7.5, 8.5, 13]"] * 3)
# Files that start or end unlike the writer's, or only nearly like them.
EDGE_FILES = [
    "x,y,sector" + "\n".join(CSV_ROWS) + "\n",
    "x,y,sector\r" + "\r".join(CSV_ROWS) + "\r",
    "x,y,sector\r\n" + "\r\n".join(CSV_ROWS) + "\r\n",
    "x,y,sector \n" + "\n".join(CSV_ROWS) + "\n",
    "x,y,sector\n" + "\n".join(CSV_ROWS),
    "x,y,sector\n\n\n" + "\n".join(CSV_ROWS) + "\n\n",
    JSON_HEAD + JSON_ROWS + "]}",
    JSON_HEAD + JSON_ROWS + "]} \n",
    JSON_HEAD + JSON_ROWS + "]}\n\n",
    JSON_HEAD + JSON_ROWS + "]}\n]]}\n",
    JSON_HEAD + " " + JSON_ROWS + "]}\n",
    JSON_HEAD + JSON_ROWS + "], \"points\": [[0.5, 0.5, 1]]}\n",
    JSON_HEAD + JSON_ROWS + "], \"points\": [" + JSON_ROWS + "]}\n",
    JSON_HEAD + "]}\n",
    JSON_HEAD + "[]]}\n",
    JSON_HEAD + "[], " + JSON_ROWS + "]}\n",
]


class TestRangedReader:
    """A points file read in byte ranges, in workers, reads as the whole
    file reads in one range, in-process."""

    @pytest.mark.parametrize("cpus", [2, 3])
    @given(content=near_fast_path_csv() | near_fast_path_files() | csv_files)
    @settings(max_examples=150, deadline=None)
    def test_csv_same_arrays_or_same_error(self, cpus, content):
        assert_ranged_read_is_strict(content, ".csv", cpus)

    @pytest.mark.parametrize("cpus", [2, 3])
    @given(content=near_writer_json())
    @settings(max_examples=150, deadline=None)
    def test_json_same_arrays_or_same_error(self, cpus, content):
        assert_ranged_read_is_strict(content, ".json", cpus)

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("body", [body for body, _ in CSV_BODIES])
    def test_csv_bodies_mid_file(self, body, cpus):
        rows = "".join(f"{i}.5,-{i}.25,{i}\n" for i in range(1, 8))
        pools = assert_ranged_read_is_strict(f"x,y,sector\n{rows}{body}{rows}".encode(), ".csv", cpus)
        assert pools == [cpus]

    @pytest.mark.parametrize("token", ODD_JSON)
    def test_odd_json_mid_file(self, token):
        rows = ", ".join(f"[{i}.5, -{i}.25, {i}]" for i in range(1, 8))
        for content in (f"{JSON_HEAD}{rows}, [{token}, 0.5, 1], {rows}]}}\n",
                        f"{JSON_HEAD}{rows}, {token}{rows}]}}\n"):
            pools = assert_ranged_read_is_strict(content.encode(), ".json", 2)
            assert pools == [2]

    @pytest.mark.parametrize("content", EDGE_FILES)
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_heads_and_tails(self, cpus, content):
        suffix = ".json" if content.startswith("{") else ".csv"
        assert_ranged_read_is_strict(content.encode(), suffix, cpus)

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("fmt, short_scan", [("csv", 0), ("json", 3)])  # shorter than the separator
    def test_no_separator_in_the_scan_leaves_the_file_uncut(self, tmp_path, fmt, short_scan, cpus):
        path = tmp_path / f"p.{fmt}"
        write_points(path, spread_deployment(300, seed=6), fmt=fmt)
        strict = strict_outcome(path)
        for scan, expected_pools in ((short_scan, []), (fileio._SCAN_BYTES, [cpus])):
            with tiny_ranges(cpus) as pools, pytest.MonkeyPatch.context() as patch:
                patch.setattr(fileio, "_SCAN_BYTES", scan)
                if expected_pools:
                    # the ranged read alone gives the arrays: a call of the strict parser would raise TypeError
                    patch.setitem(fileio._READ_LAYOUTS, fmt, fileio._READ_LAYOUTS[fmt][:-1] + (None,))
                outcome = read_outcome(read_points, path)
            assert pools == expected_pools, scan
            assert outcome == strict, scan

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("fmt, bad_row", [("csv", "0.5,zzz,1"), ("json", "[0.5, 0.5, 2.7]")])
    def test_bad_row_in_the_last_range(self, tmp_path, fmt, bad_row, cpus):
        d = spread_deployment(400, seed=3)
        path = tmp_path / f"p.{fmt}"
        write_points(path, d, fmt=fmt)
        text = path.read_text()
        last = text.rindex("\n", 0, len(text) - 1) + 1 if fmt == "csv" else text.rindex("[")
        path.write_text(text[:last] + bad_row + ("\n" if fmt == "csv" else "]}\n"))
        with tiny_ranges(cpus) as pools:
            with pytest.raises(FormatError) as caught:
                read_points(path)
        assert pools == [cpus]
        assert str(caught.value) == strict_outcome(path)
        if fmt == "csv":
            assert str(caught.value).startswith(f"{path}:401: ")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failing_worker_leaves_no_worker(self, tmp_path, fmt):
        path = tmp_path / f"p.{fmt}"
        write_points(path, spread_deployment(400, seed=4), fmt=fmt)
        with tiny_ranges(2) as pools, pytest.MonkeyPatch.context() as patch:
            patch.setattr(fileio, "_read_range", read_range_fails)
            with pytest.raises(OSError, match="Input/output error"):
                read_points(path)
        assert pools == [2]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_file_truncated_after_it_was_cut(self, tmp_path, fmt, cpus):
        d = spread_deployment(400, seed=5)
        path = tmp_path / f"p.{fmt}"
        write_points(path, d, fmt=fmt)
        with tiny_ranges(cpus) as pools, pytest.MonkeyPatch.context() as patch:
            patch.setattr(fileio, "_ranges", truncated_after(fileio._ranges))
            outcome = read_outcome(read_points, path)
        assert pools == [cpus]
        assert multiprocessing.active_children() == []
        # the one-range verdict on what is left of the file
        assert outcome == strict_outcome(path)
        if fmt == "json":
            assert outcome.startswith(f"{path}: not valid JSON")


class TestJsonParsePausesGc:
    """The JSON parsers pause the cyclic collector and leave it as found."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_gc_state_stays_as_found(self, tmp_path, enabled):
        path, bad = tmp_path / "p.json", tmp_path / "bad.json"
        write_points(path, spread_deployment(10, seed=7), fmt="json")
        bad.write_text(path.read_text().replace("]]}", ", true]]}"))
        (_, begin, end), = fileio._ranges(path, "json")
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            outcomes = []
            for parse in (lambda: fileio._json_range(path, begin, end),  # accepted
                          lambda: fileio._json_range(path, begin, end + 1),  # one "]" too many: refused
                          lambda: fileio._json_points(path),
                          lambda: read_outcome(fileio._json_points, bad)):
                outcomes.append(parse())
                assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert outcomes[0] is not None and outcomes[1] is None and outcomes[2] is not None
        assert outcomes[3].startswith(f"{bad}: expected a \"points\" array")


class TestPlotData:
    def test_xy_and_rings(self, tmp_path):
        cfg = NetworkConfig(radius=1.5, max_layers=3, nodes=30, seed=1)
        d = deploy_automatic(cfg, RandomStream(1, 0))
        write_points(tmp_path / "run.csv", d, xy_path=tmp_path / "run.xy")
        write_plot_data(tmp_path / "run.rings", d)
        lines = (tmp_path / "run.xy").read_text().splitlines()
        assert len(lines) == 30
        x0, y0, s0 = lines[0].split()
        assert float(x0) == d.x[0]
        assert float(y0) == d.y[0]
        assert int(s0) == d.sector[0]
        rings = [float(v) for v in (tmp_path / "run.rings").read_text().split()]
        assert rings == [sec.shape.outer for sec in d.plan.sectors[:-1]] + [1.5]

    def test_planned_has_no_rings(self, tmp_path):
        plan = DeploymentPlan(sectors=(Sector(Disk(1.0), 5),))
        d = deploy_planned(plan, RandomStream(0, 0))
        write_plot_data(tmp_path / "run.rings", d)
        assert not (tmp_path / "run.rings").exists()


class TestReport:
    def test_report_json(self, tmp_path):
        cfg = NetworkConfig(radius=1.0, max_layers=3, nodes=20_000, seed=5)
        d = deploy_automatic(cfg, RandomStream(5, 0))
        report = evaluate_deployment(d)
        path = tmp_path / "run.report.json"
        write_report(path, report)
        payload = json.loads(path.read_text())
        assert payload["all_passed"] is True
        assert payload["ks_alpha"] == 0.01
        assert payload["chi2_alpha"] == 0.001
        assert len(payload["per_sector"]) == len(d.plan.sectors)
        total = sum(s["count"] for s in payload["per_sector"])
        assert total == 20_000
        for entry in payload["per_sector"]:
            if math.isfinite(entry["density"]):
                assert entry["density"] == pytest.approx(entry["count"] / entry["area"], rel=1e-12)

    def test_streamed_report_is_the_one_shot_text(self, tmp_path):
        plan = DeploymentPlan(sectors=(Sector(Disk(1.0), 400), Sector(Annulus(1.0, 2.0), 20)))
        reports = {
            "disk and annulus": evaluate_deployment(deploy_planned(plan, RandomStream(4, 0))),
            # radial, areal and angular tests all run, so nothing is skipped
            "none skipped": evaluate_deployment(
                deploy_planned(DeploymentPlan(sectors=(Sector(Disk(1.0), 20_000),)), RandomStream(4, 0))),
            # no test runs: angular_chi2 is null, radial_ks and areal_chi2 are empty
            "none tested": evaluate_deployment(
                deploy_planned(DeploymentPlan(sectors=(Sector(Rect(0.0, 0.0, 1.0, 1.0), 20),)), RandomStream(4, 0))),
            "Infinity density": evaluate_deployment(deploy_planned(
                DeploymentPlan(sectors=(Sector(Disk(1.0), 400), Sector(Circle(1.0), 30))), RandomStream(4, 0))),
            # more records per list than one batch of the C encoder holds
            "10,000 sectors": StatReport(
                per_sector=tuple(SectorStat(i, 100, 0.1 * i, 1000.0 / i) for i in range(1, 10_001)),
                radial=tuple((i, GofResult(1.0 / i, 0.5, True)) for i in range(1, 10_001)),
                areal=tuple((i, GofResult(float(i), 1e-300, False, dof=63)) for i in range(1, 3_001)),
                angular=GofResult(30.0, 0.75, True, dof=35),
                ks_alpha=0.01,
                skipped=tuple((i, "areal_chi2", f"{i} < 320 points") for i in range(3_001, 10_001)),
            ),
        }
        assert len(reports["10,000 sectors"].per_sector) > 2 * fileio._REPORT_BATCH
        path = tmp_path / "run.report.json"
        for name, report in reports.items():
            write_report(path, report)
            assert path.read_text() == json.dumps(report.to_dict(), indent=2) + "\n", name
        payloads = {name: report.to_dict() for name, report in reports.items()}
        assert payloads["none skipped"]["skipped"] == []
        assert payloads["none tested"]["angular_chi2"] is None
        assert payloads["none tested"]["radial_ks"] == payloads["none tested"]["areal_chi2"] == []
        assert payloads["Infinity density"]["per_sector"][1]["density"] == math.inf
