import dataclasses
import json
import math
import multiprocessing
import os
import tempfile
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
    pretend_cpus,
    with_csv_point,
    with_json_point,
)
from scatternet import fileio
from scatternet.automatic import deploy_automatic
from scatternet.core import Annulus, Deployment, Disk, NetworkConfig, Rect, Sector
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
from scatternet.stats import evaluate_deployment

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


def tiny_deployment(xs, ys, tags):
    return Deployment(
        x=np.asarray(xs, dtype=np.float64),
        y=np.asarray(ys, dtype=np.float64),
        sector=np.asarray(tags, dtype=np.int64),
    )


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

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(FormatError, match="header"):
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
        path.write_text("x,y,sector\n\n0.5,-1.0,2\n  \n3,0.25,1\n")
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
        assert back.layer_set == d.layer_set
        assert back.config == cfg
        assert back.inner_count == d.inner_count

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
            assert d.inner_count + (d.layer_set.layer_count - 1) * d.outer_count == d.config.nodes


def read_outcome(read, path):
    """What ``read`` makes of ``path``: dtype, shape and bytes of each array,
    or the FormatError message."""
    try:
        arrays = read(path)
    except FormatError as exc:
        return str(exc)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def assert_reads_like_line_parser(path):
    """``read_points`` gives the line parser's arrays bitwise, or its error."""
    outcome = read_outcome(read_points, path)
    assert outcome == read_outcome(fileio._csv_points_by_line, path)
    return outcome


# Characters ``np.loadtxt`` and the line parser read differently.
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


class TestVectorizedReader:
    """``read_points`` on CSV agrees with the line parser it falls back to."""

    @given(near_fast_path_files() | csv_files)
    @settings(max_examples=400, deadline=None)
    def test_same_arrays_or_same_error(self, content):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "points.csv"
            path.write_bytes(content)
            assert_reads_like_line_parser(path)

    @pytest.mark.parametrize("body, accepted", [
        ("1_0,2,3\n", True),
        ("1,2,1_0\n", True),
        ("\u0663,2,3\n", True),
        ("1,2,\uff13\n", True),
        ("1,2\x0c,3\n", False),
        ("1,2\x0b,3\n", False),
        ("1,2\x1c,3\n", False),
        ("1,2\x85,3\n", False),
        ("1,2\u2028,3\n", False),
        ("1,2\xa0,3\n", True),
        ("1,2 ,3\n", True),
        ("0.5,0.5,1\n   \n0.25,0.5,2\n", True),
        ("nan,2,3\n", False),
        ("1,infinity,3\n", False),
        ("1e400,2,3\n", False),
        ("", True),
        ("0.5,-0.0,7\n", True),
        (f"0.5,0.5,{2**63}\n", False),
        (f"0.5,0.5,{2**63 - 1}\n", True),
        (f"0.5,0.5,{-(2**63)}\n", True),
        ("1,2,3.0\n", False),
        ("1,2,1e3\n", False),
    ])
    def test_divergent_inputs(self, tmp_path, body, accepted):
        path = tmp_path / "p.csv"
        path.write_bytes(("x,y,sector\n" + body).encode())
        outcome = assert_reads_like_line_parser(path)
        assert isinstance(outcome, list) == accepted

    @pytest.mark.parametrize("content", ["x,y,sector\n", "x,y,sector", "x,y,sector\n\n"])
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
        assert_reads_like_line_parser(path)

    def test_written_file_skips_the_line_parser(self, tmp_path, monkeypatch):
        d = spread_deployment(3 * CHUNK + 5, seed=7)
        path = tmp_path / "p.csv"
        write_points(path, d)
        monkeypatch.setattr(fileio, "_csv_points_by_line", None)  # a call would raise TypeError
        x, y, sector = read_points(path)
        assert x.tobytes() == d.x.tobytes() and y.tobytes() == d.y.tobytes()
        assert sector.tobytes() == d.sector.tobytes()


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
        assert rings == list(d.layer_set.boundaries) + [1.5]

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
        assert len(payload["per_sector"]) == d.layer_set.layer_count
        total = sum(s["count"] for s in payload["per_sector"])
        assert total == 20_000
        for entry in payload["per_sector"]:
            if math.isfinite(entry["density"]):
                assert entry["density"] == pytest.approx(entry["count"] / entry["area"], rel=1e-12)

    def test_streamed_report_is_the_one_shot_text(self, tmp_path):
        plan = DeploymentPlan(sectors=(Sector(Disk(1.0), 400), Sector(Annulus(1.0, 2.0), 20)))
        report = evaluate_deployment(deploy_planned(plan, RandomStream(4, 0)))
        path = tmp_path / "run.report.json"
        write_report(path, report)
        assert path.read_text() == json.dumps(report.to_dict(), indent=2) + "\n"
