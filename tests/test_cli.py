import dataclasses
import errno
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    BAD_AUTOMATIC_METADATA,
    BAD_CSV_POINTS,
    BAD_JSON_POINTS,
    BAD_SECTORS,
    SequenceStream,
    corrupt_metadata,
    evaluate_per_sector,
    pools_cannot_start,
    pretend_cpus,
    read_range_fails,
    read_range_fails_for,
    truncated_after,
    with_csv_point,
    with_json_point,
)
from scatternet import cli, fileio
from scatternet.cli import main
from scatternet.automatic import deploy_automatic, plan_run
from scatternet.core import Circle, NetworkConfig
from scatternet.fileio import (
    automatic_metadata,
    deployment_from_files,
    read_points,
    write_metadata,
    write_points,
)
from scatternet.stats import check_membership


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def two_annulus_plan(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps([
        {"shape": "annulus", "r_inner": 0.0, "r_outer": 0.5, "n": 80},
        {"shape": "annulus", "r_inner": 0.5, "r_outer": 1.0, "n": 20},
    ]))
    return path


class TestDeployCommand:
    def test_batch_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli("deploy", "--size", 1, "--max-layers", 5, "--nodes", 100,
                       "--seed", 42, "--runs", 4, "--out-dir", out)
        assert code == 0
        for run in range(4):
            assert (out / f"run_{run:03d}.csv").exists()
            assert (out / f"run_{run:03d}.meta.json").exists()
        assert len(capsys.readouterr().out.strip().splitlines()) == 4
        x, _, sector = read_points(out / "run_000.csv")
        meta = json.loads((out / "run_000.meta.json").read_text())
        assert x.size == 100
        assert meta["n_S"] == 100 and meta["n_Lmax"] == 5
        counts = np.bincount(sector)[1:]
        assert counts[0] == meta["n_in"]
        assert np.all(counts[1:] == meta["n_out"])

    def test_invalid_size_exits_2(self, tmp_path, capsys):
        # 1e200 and 1.4e154 overflow L^2, 1e-200 underflows it to 0, and
        # pi*L^2 is subnormal at 1e-160 and 8.4e-155
        for size in (0, 1e200, 1.4e154, 1e-200, 1e-160, 8.4e-155):
            out = tmp_path / "out"
            code = run_cli("deploy", "--size", size, "--max-layers", 5, "--nodes", 100,
                           "--out-dir", out)
            assert code == 2, size
            assert "invalid configuration: radius" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("size", [1e153, 1e-150, 8.5e-155])
    def test_extreme_finite_area_size_validates(self, tmp_path, size):
        out = tmp_path / "out"
        assert run_cli("deploy", "--size", size, "--max-layers", 5, "--nodes", 100, "--out-dir", out) == 0
        assert run_cli("validate", out / "run_000.csv") == 0

    def test_zero_runs_exits_2(self, tmp_path):
        code = run_cli("deploy", "--size", 1, "--max-layers", 5, "--nodes", 100,
                       "--runs", 0, "--out-dir", tmp_path)
        assert code == 2

    def test_too_many_nodes_exits_2_before_allocating(self, tmp_path, capsys):
        assert 10**30 * cli.POINT_BYTES > cli._physical_memory()
        out = tmp_path / "out"
        code = run_cli("deploy", "--size", 1, "--max-layers", 5, "--nodes", 10**30, "--out-dir", out)
        assert code == 2
        assert "physical memory" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("memory,code", [(100 * cli.POINT_BYTES + 5 * cli.SECTOR_BYTES - 1, 2),
                                             (100 * cli.POINT_BYTES + 5 * cli.SECTOR_BYTES, 0)])
    def test_size_guard_compares_the_estimate_with_memory(self, tmp_path, monkeypatch, memory, code):
        monkeypatch.setattr(cli, "_physical_memory", lambda: memory)
        out = tmp_path / "out"
        assert run_cli("deploy", "--size", 1, "--max-layers", 5, "--nodes", 100, "--out-dir", out) == code
        assert out.exists() == (code == 0)

    def test_guard_counts_the_most_layers_a_run_can_draw(self, tmp_path, monkeypatch, capsys):
        # the points fit; max_layers sectors do not, however few layers the run would draw
        memory = 1000 * cli.POINT_BYTES + 1000 * cli.SECTOR_BYTES - 1
        monkeypatch.setattr(cli, "_physical_memory", lambda: memory)
        out = tmp_path / "out"
        assert run_cli("deploy", "--size", 1, "--max-layers", 1000, "--nodes", 1000, "--out-dir", out) == 2
        assert capsys.readouterr().err == (
            f"invalid configuration: 1000 points and 1000 sectors need {memory + 1} bytes, "
            f"more than the {memory} bytes of physical memory\n")
        assert not out.exists()

    def test_runs_use_distinct_streams(self, tmp_path):
        out = tmp_path / "out"
        run_cli("deploy", "--size", 1, "--max-layers", 5, "--nodes", 50,
                "--seed", 7, "--runs", 2, "--out-dir", out)
        x0, _, _ = read_points(out / "run_000.csv")
        x1, _, _ = read_points(out / "run_001.csv")
        assert not np.array_equal(x0, x1)

    def test_json_format(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("deploy", "--size", 1, "--max-layers", 3, "--nodes", 30,
                       "--seed", 1, "--out-dir", out, "--format", "json")
        assert code == 0
        x, y, sector = read_points(out / "run_000.json")
        assert x.size == 30

    def test_plot_data_files(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli("deploy", "--size", 1, "--max-layers", 3, "--nodes", 30,
                       "--seed", 1, "--out-dir", out, "--plot-data")
        assert code == 0
        assert (out / "run_000.xy").exists()
        assert (out / "run_000.rings").exists()


class TestPlanCommand:
    def test_two_annulus_plan(self, tmp_path, two_annulus_plan):
        out = tmp_path / "out"
        code = run_cli("plan", "--plan", two_annulus_plan, "--seed", 3, "--out-dir", out)
        assert code == 0
        _, _, sector = read_points(out / "run_000.csv")
        counts = np.bincount(sector)[1:]
        assert counts.tolist() == [80, 20]
        meta = json.loads((out / "run_000.meta.json").read_text())
        assert len(meta["plan"]) == 2

    def test_overlapping_plan_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([
            {"shape": "rect", "x0": 0, "y0": 0, "x1": 2, "y1": 2, "n": 5},
            {"shape": "rect", "x0": 5, "y0": 5, "x1": 6, "y1": 6, "n": 5},
            {"shape": "rect", "x0": 1, "y0": 1, "x1": 3, "y1": 3, "n": 5},
        ]))
        code = run_cli("plan", "--plan", path, "--out-dir", tmp_path / "out")
        assert code == 2
        assert "sectors 1 and 3 overlap" in capsys.readouterr().err

    def test_zero_count_sector_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"shape": "disk", "r": 1.0, "n": 0}]))
        code = run_cli("plan", "--plan", path, "--out-dir", tmp_path / "out")
        assert code == 2
        assert "sector 1" in capsys.readouterr().err

    def test_huge_quota_exits_2_before_allocating(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps([{"shape": "disk", "r": 1.0, "n": 10**30}]))
        out = tmp_path / "out"
        assert run_cli("plan", "--plan", path, "--out-dir", out) == 2
        assert "physical memory" in capsys.readouterr().err
        assert not out.exists()

    def test_guard_counts_the_plans_sectors(self, tmp_path, monkeypatch, capsys, two_annulus_plan):
        memory = 100 * cli.POINT_BYTES + 2 * cli.SECTOR_BYTES - 1  # the points fit, the two sectors do not
        monkeypatch.setattr(cli, "_physical_memory", lambda: memory)
        out = tmp_path / "out"
        assert run_cli("plan", "--plan", two_annulus_plan, "--out-dir", out) == 2
        assert capsys.readouterr().err == (
            f"invalid configuration: 100 points and 2 sectors need {memory + 1} bytes, "
            f"more than the {memory} bytes of physical memory\n")
        assert not out.exists()

    @pytest.mark.parametrize("seed", [2**64, -1])
    def test_seed_outside_uint64_exits_2(self, tmp_path, capsys, two_annulus_plan, seed):
        out = tmp_path / "out"
        assert run_cli("plan", "--plan", two_annulus_plan, "--seed", seed, "--out-dir", out) == 2
        assert capsys.readouterr().err == (
            f"invalid configuration: seed must fit in an unsigned 64-bit integer, got {seed}\n")
        assert not out.exists()

    def test_missing_plan_file_exits_3(self, tmp_path):
        assert run_cli("plan", "--plan", tmp_path / "nope.json", "--out-dir", tmp_path) == 3

    @pytest.mark.parametrize("sector", BAD_SECTORS)
    def test_bad_sector_exits_2(self, tmp_path, capsys, sector):
        path = tmp_path / "bad.json"
        path.write_text(f"[{sector}]")
        out = tmp_path / "out"
        assert run_cli("plan", "--plan", path, "--out-dir", out) == 2
        assert "invalid plan: " in capsys.readouterr().err
        assert not out.exists()


class TestValidateCommand:
    def test_fresh_run_validates_clean(self, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli("deploy", "--size", 1, "--max-layers", 4, "--nodes", 20000,
                "--seed", 11, "--out-dir", out)
        code = run_cli("validate", out / "run_000.csv")
        assert code == 0
        assert (out / "run_000.report.json").exists()
        assert "ok" in capsys.readouterr().out

    def test_planned_run_validates_clean(self, tmp_path, two_annulus_plan):
        out = tmp_path / "out"
        run_cli("plan", "--plan", two_annulus_plan, "--seed", 5, "--out-dir", out)
        assert run_cli("validate", out / "run_000.csv") == 0

    @pytest.mark.parametrize("displaced", [1, 12])
    def test_displaced_point_exits_4(self, tmp_path, capsys, displaced):
        out = tmp_path / "out"
        run_cli("deploy", "--size", 1, "--max-layers", 4, "--nodes", 1000,
                "--seed", 11, "--out-dir", out)
        path = out / "run_000.csv"
        lines = path.read_text().splitlines()
        tags = {}
        for index in range(7, 7 + displaced):  # displace points from index 7 on far outside their layers
            tags[index] = lines[index + 1].split(",")[2]
            lines[index + 1] = f"25.0,25.0,{tags[index]}"
        path.write_text("\n".join(lines) + "\n")
        code = run_cli("validate", path)
        assert code == 4
        err = capsys.readouterr().err
        named = [index for index in tags if f"{path}: point {index} lies outside sector {tags[index]}\n" in err]
        assert named == list(range(7, 7 + min(displaced, 10)))  # the first 10, then a count of the rest
        assert err.count(" lies outside sector ") == len(named)
        assert (f"{path}: ... and 2 more membership violations\n" in err) == (displaced == 12)

    def test_wrong_counts_exit_4(self, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli("deploy", "--size", 1, "--max-layers", 4, "--nodes", 1000,
                "--seed", 11, "--out-dir", out)
        path = out / "run_000.csv"
        lines = path.read_text().splitlines()
        del lines[1]
        path.write_text("\n".join(lines) + "\n")
        assert run_cli("validate", path) == 4

    @pytest.mark.parametrize("missing", ["meta.json", "csv"])
    def test_missing_metadata_exits_3(self, tmp_path, capsys, missing):
        out = tmp_path / "out"
        run_cli("deploy", "--size", 1, "--max-layers", 4, "--nodes", 100,
                "--seed", 11, "--out-dir", out)
        (out / f"run_000.{missing}").unlink()
        path = out / "run_000.csv"
        assert run_cli("validate", path) == 3
        gone = f"metadata file {out / 'run_000.meta.json'}" if missing == "meta.json" else "points file"
        assert capsys.readouterr().err == f"{path}: {gone} not found\n"
        assert not (out / "run_000.report.json").exists()

    def test_report_path_taken_by_a_directory_exits_3(self, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli("deploy", "--size", 1, "--max-layers", 4, "--nodes", 100,
                "--seed", 11, "--out-dir", out)
        (out / "run_000.report.json").mkdir()
        path = out / "run_000.csv"
        assert run_cli("validate", path) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"{path}: I/O error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: ")
        assert "Traceback" not in err

    def test_half_disk_fails_the_angular_test(self, tmp_path, capsys):
        plan = tmp_path / "disk.json"
        plan.write_text(json.dumps([{"shape": "disk", "r": 1.0, "n": 2000}]))
        out = tmp_path / "out"
        assert run_cli("plan", "--plan", plan, "--seed", 1, "--out-dir", out) == 0
        path = out / "run_000.csv"
        d = deployment_from_files(path, out / "run_000.meta.json")
        write_points(path, dataclasses.replace(d, y=np.abs(d.y)))  # every point in the upper half
        capsys.readouterr()
        assert run_cli("validate", path) == 4
        assert f"{path}: angular_chi2 failed for all points: statistic " in capsys.readouterr().err

    def test_transcript_of_a_run_failing_every_check(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps([{"shape": "disk", "r": 1.0, "n": 1000},
                                    {"shape": "annulus", "r_inner": 1.0, "r_outer": 2.0, "n": 1000}]))
        out = tmp_path / "out"
        assert run_cli("plan", "--plan", plan, "--seed", 1, "--out-dir", out) == 0
        path, meta = out / "run_000.csv", out / "run_000.meta.json"
        # radii uniform (not area-uniform) in each sector, angles in the upper half only; sector 2
        # holds one point over its quota, and its last 12 points lie at radius 5, outside it
        r = np.concatenate([np.linspace(0.0005, 0.9995, 1000), np.linspace(1.0005, 1.9995, 1001)])
        r[-12:] = 5.0
        theta = np.mod(np.arange(r.size) * 0.6180339887498949, 1.0) * np.pi
        tags = np.repeat(np.array([1, 2], dtype=np.int64), [1000, 1001])
        d = deployment_from_files(path, meta)
        write_points(path, dataclasses.replace(d, x=r * np.cos(theta), y=r * np.sin(theta), sector=tags))
        d = deployment_from_files(path, meta)
        oracle = evaluate_per_sector(d, ks_alpha=0.05)
        failed = [("radial_ks", f"sector {i}", res, "0.05") for i, res in oracle.radial if not res.passed]
        failed += [("areal_chi2", f"sector {i}", res, "0.001") for i, res in oracle.areal if not res.passed]
        failed += [("angular_chi2", "all points", oracle.angular, "0.001")] * (not oracle.angular.passed)
        assert {test for test, *_ in failed} == {"radial_ks", "areal_chi2", "angular_chi2"}
        capsys.readouterr()
        assert run_cli("validate", "--alpha", 0.05, path) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == (
            [f"{path}: sector 2 has 1001 points, expected 1000"]
            + [f"{path}: point {i} lies outside sector 2" for i in range(1989, 1999)]
            + [f"{path}: ... and 2 more membership violations"]
            + [f"{path}: {test} failed for {where}: statistic {res.statistic:.6g}, "
               f"p-value {res.p_value:.6g} <= alpha {alpha}" for test, where, res, alpha in failed])

    def test_siblings_share_the_full_stem(self, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli("deploy", "--size", 1, "--max-layers", 4, "--nodes", 100,
                "--seed", 11, "--out-dir", out)
        dotted = tmp_path / "dotted"
        dotted.mkdir()
        (dotted / "x.y.csv").write_bytes((out / "run_000.csv").read_bytes())
        (dotted / "x.meta.json").write_bytes((out / "run_000.meta.json").read_bytes())
        assert run_cli("validate", dotted / "x.y.csv") == 3
        assert "x.y.meta.json" in capsys.readouterr().err
        assert not (dotted / "x.report.json").exists()

    def test_corrupt_points_exit_3(self, tmp_path):
        out = tmp_path / "out"
        run_cli("deploy", "--size", 1, "--max-layers", 4, "--nodes", 100,
                "--seed", 11, "--out-dir", out)
        (out / "run_000.csv").write_text("garbage\n")
        assert run_cli("validate", out / "run_000.csv") == 3

    @pytest.mark.parametrize("key,value", BAD_AUTOMATIC_METADATA)
    def test_bad_automatic_metadata_exits_3(self, tmp_path, capsys, key, value):
        out = tmp_path / "out"
        run_cli("deploy", "--size", 1, "--max-layers", 4, "--nodes", 100,
                "--seed", 11, "--out-dir", out)
        meta_path = out / "run_000.meta.json"
        meta_path.write_text(json.dumps(corrupt_metadata(json.loads(meta_path.read_text()), key, value)))
        assert run_cli("validate", out / "run_000.csv") == 3
        assert "run_000.meta.json: " in capsys.readouterr().err

    @pytest.mark.parametrize("plan", [5, [], "[]", [{"shape": "disk", "r": 1.0, "n": 2.5}]])
    def test_bad_planned_metadata_exits_3(self, tmp_path, capsys, two_annulus_plan, plan):
        out = tmp_path / "out"
        run_cli("plan", "--plan", two_annulus_plan, "--seed", 5, "--out-dir", out)
        meta_path = out / "run_000.meta.json"
        meta_path.write_text(json.dumps({**json.loads(meta_path.read_text()), "plan": plan}))
        assert run_cli("validate", out / "run_000.csv") == 3
        assert capsys.readouterr().err

    @staticmethod
    def assert_sector_tag_exits_3(tmp_path, capsys, tag):
        """Write ``tag`` into the first row of a fresh run; "k+1" stands for
        one past the plan's sector count k."""
        out = tmp_path / "out"
        run_cli("deploy", "--size", 1, "--max-layers", 4, "--nodes", 100,
                "--seed", 11, "--out-dir", out)
        path = out / "run_000.csv"
        sectors = json.loads((out / "run_000.meta.json").read_text())["n_L"]
        lines = path.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + "," + tag.replace("k+1", str(sectors + 1))
        path.write_text("\n".join(lines) + "\n")
        assert run_cli("validate", path) == 3
        err = capsys.readouterr().err
        assert f"sector tags must lie in 1..{sectors}" in err
        assert "Traceback" not in err
        assert not (out / "run_000.report.json").exists()

    def test_nonpositive_sector_tag_exits_3(self, tmp_path, capsys):
        self.assert_sector_tag_exits_3(tmp_path, capsys, "0")

    @pytest.mark.parametrize("tag", ["k+1", str(2**62), str(2**63 - 1)])
    def test_sector_tag_above_sector_count_exits_3(self, tmp_path, capsys, tag):
        self.assert_sector_tag_exits_3(tmp_path, capsys, tag)

    def test_errors_name_the_faulty_file_once(self, tmp_path, capsys, two_annulus_plan):
        out = tmp_path / "out"
        run_cli("deploy", "--size", 1, "--max-layers", 4, "--nodes", 100, "--seed", 11, "--out-dir", out)
        path = out / "run_000.csv"
        lines = path.read_text().splitlines()
        lines[2] = "abc,0.1,1"
        path.write_text("\n".join(lines) + "\n")
        assert run_cli("validate", path) == 3
        err = capsys.readouterr().err
        assert f"{path}:3: " in err and err.count(str(path)) == 1

        planned_out = tmp_path / "planned"
        run_cli("plan", "--plan", two_annulus_plan, "--seed", 5, "--out-dir", planned_out)
        meta_path = planned_out / "run_000.meta.json"
        meta = json.loads(meta_path.read_text())
        meta_path.write_text(json.dumps({**meta, "plan": meta["plan"] + [{"shape": "hex", "n": 3}]}))
        assert run_cli("validate", planned_out / "run_000.csv") == 3
        err = capsys.readouterr().err
        assert f"{meta_path}: sector 3: unknown shape 'hex'" in err
        assert err.count(str(meta_path)) == 1 and "run_000.csv" not in err

    @pytest.mark.parametrize("row", BAD_JSON_POINTS)
    def test_bad_json_point_exits_3(self, tmp_path, capsys, row):
        out = tmp_path / "out"
        run_cli("deploy", "--size", 1, "--max-layers", 4, "--nodes", 100,
                "--seed", 11, "--out-dir", out, "--format", "json")
        path = out / "run_000.json"
        path.write_text(with_json_point(path.read_text(), row))
        assert run_cli("validate", path) == 3
        assert "run_000.json: " in capsys.readouterr().err

    def test_zero_width_layer_validates_clean(self, tmp_path, capsys):
        # 0.999 draws 3 layers, and the two radius draws collide: layer 2 is the circle r = 0.5
        cfg = NetworkConfig(radius=1.0, max_layers=3, nodes=900, seed=0)
        uniforms = np.random.default_rng(8).random(2 * cfg.nodes).tolist()
        d = deploy_automatic(cfg, SequenceStream([0.999, 0.5, 0.5] + uniforms))
        resolved = plan_run(cfg, SequenceStream([0.999, 0.5, 0.5]))
        assert d.plan == resolved and tuple(sec.shape.outer for sec in d.plan.sectors[:-1]) == (0.5, 0.5)
        assert (d.plan.sectors[0].count, d.plan.sectors[1].count) == (300, 300)
        assert d.plan.sectors[1].shape == Circle(0.5)
        write_points(tmp_path / "run_000.csv", d)
        write_metadata(tmp_path / "run_000.meta.json", automatic_metadata(d, 0))
        assert run_cli("validate", tmp_path / "run_000.csv") == 0
        assert "outside" not in capsys.readouterr().err
        back = deployment_from_files(tmp_path / "run_000.csv", tmp_path / "run_000.meta.json")
        assert back.plan == d.plan and check_membership(back).size == 0
        report = json.loads((tmp_path / "run_000.report.json").read_text())
        assert report["per_sector"][1] == {"index": 2, "count": 300, "area": 0.0, "density": float("inf")}
        assert '"density": Infinity' in (tmp_path / "run_000.report.json").read_text()
        assert [s for s in report["skipped"] if s["reason"] == "zero-width layer"] == [
            {"sector": 2, "test": "radial_ks", "reason": "zero-width layer"},
            {"sector": 2, "test": "areal_chi2", "reason": "zero-width layer"},
        ]
        assert report["all_passed"] is True

    @pytest.mark.parametrize("row", BAD_CSV_POINTS)
    def test_bad_csv_point_exits_3(self, tmp_path, capsys, row):
        out = tmp_path / "out"
        run_cli("deploy", "--size", 1, "--max-layers", 4, "--nodes", 100,
                "--seed", 11, "--out-dir", out)
        path = out / "run_000.csv"
        path.write_text(with_csv_point(path.read_text(), row))
        assert run_cli("validate", path) == 3
        assert "run_000.csv:4: " in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["0", "1", "2", "-0.1", "nan"])
    def test_alpha_outside_unit_interval_exits_2(self, tmp_path, capsys, alpha):
        out = tmp_path / "out"
        run_cli("deploy", "--size", 1, "--max-layers", 4, "--nodes", 100,
                "--seed", 11, "--out-dir", out)
        assert run_cli("validate", "--alpha", alpha, out / "run_000.csv") == 2
        assert "alpha" in capsys.readouterr().err
        assert not (out / "run_000.report.json").exists()

    @pytest.mark.parametrize("fmt,empty", [
        ("csv", "x,y,sector\n"),
        ("json", '{"columns": ["x", "y", "sector"], "points": []}\n'),
    ])
    def test_empty_points_file_is_a_count_failure(self, tmp_path, capsys, fmt, empty):
        out = tmp_path / "out"
        run_cli("deploy", "--size", 1, "--max-layers", 4, "--nodes", 100,
                "--seed", 11, "--out-dir", out, "--format", fmt)
        path = out / f"run_000.{fmt}"
        path.write_text(empty)
        meta = json.loads((out / "run_000.meta.json").read_text())
        assert run_cli("validate", path) == 4
        err = capsys.readouterr().err
        quotas = [meta["n_in"]] + [meta["n_out"]] * (meta["n_L"] - 1)
        for index, quota in enumerate(quotas, start=1):
            assert f"{path}: sector {index} has 0 points, expected {quota}" in err
        assert "Traceback" not in err
        report = json.loads((out / "run_000.report.json").read_text())
        assert [s["count"] for s in report["per_sector"]] == [0] * meta["n_L"]

    def test_json_points_validate(self, tmp_path):
        out = tmp_path / "out"
        run_cli("deploy", "--size", 1, "--max-layers", 4, "--nodes", 2000,
                "--seed", 2, "--out-dir", out, "--format", "json")
        assert run_cli("validate", out / "run_000.json") == 0


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # every command runs with scipy unimportable: a None entry in sys.modules makes any
    # import of it raise; validate's p-values are closed forms in math
    src = Path(cli.__file__).parent.parent
    plan = Path(__file__).parent.parent / "plans" / "mixed_demo.json"
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from scatternet.cli import main\n"
        "out, plan = sys.argv[1], sys.argv[2]\n"
        "def expect(code, *argv):\n"
        "    if main(list(argv)) != code: sys.exit(f'{argv} did not exit {code}')\n"
        "for fmt in ('csv', 'json'):\n"
        "    expect(0, 'deploy', '--size', '1', '--max-layers', '4', '--nodes', '20000', '--seed', '15',\n"
        "           '--format', fmt, '--out-dir', f'{out}/{fmt}')\n"
        "    expect(0, 'validate', f'{out}/{fmt}/run_000.{fmt}')\n"
        "    report = json.load(open(f'{out}/{fmt}/run_000.report.json'))\n"
        "    if not (report['radial_ks'] and report['areal_chi2'] and report['angular_chi2']):\n"
        "        sys.exit(f'{fmt}: a test did not run')\n"
        "expect(0, 'plan', '--plan', plan, '--seed', '3', '--out-dir', f'{out}/plan')\n"
        "expect(0, 'validate', f'{out}/plan/run_000.csv')\n"
        "path = f'{out}/csv/run_000.csv'\n"
        "with open(path) as f: text = f.read()\n"
        "with open(path, 'w') as f: f.write(text.replace(',-', ','))  # every y to |y|, the upper half\n"
        "expect(4, 'validate', path)\n"
        "if sys.modules['scipy'] is not None or any(m.startswith('scipy.') for m in sys.modules):\n"
        "    sys.exit('scipy was loaded')\n"
    )
    subprocess.run([sys.executable, "-c", code, str(tmp_path), str(plan)],
                   env={**os.environ, "PYTHONPATH": str(src)}, check=True)


def test_cli_import_and_small_deploy_leave_the_row_kernel_unloaded(tmp_path):
    # importing the CLI, and a deploy of fewer rows than the kernel takes, neither compile the
    # row-text kernel nor build its tables; a pooled deploy builds them once, in the parent,
    # before its writer's workers fork (two here, whatever the host's CPU count), and the
    # parent formats no chunk itself
    src = Path(cli.__file__).parent.parent
    code = (
        "import os, sys, scatternet.cli\n"
        "from scatternet import fileio\n"
        "if 'scatternet._rowtext' in sys.modules: sys.exit('loaded by import scatternet.cli')\n"
        "def deploy(nodes, out):\n"
        "    argv = ['deploy', '--size', '1', '--max-layers', '5', '--nodes', str(nodes), '--out-dir', out]\n"
        "    if scatternet.cli.main(argv) != 0: sys.exit(f'deploy of {nodes} nodes failed')\n"
        "deploy(fileio._KERNEL_ROWS - 1, sys.argv[1] + '/small')\n"
        "if 'scatternet._rowtext' in sys.modules: sys.exit('loaded by a deploy below the kernel cutoff')\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "deploy(3 * fileio._ROW_CHUNK, sys.argv[1] + '/pooled')\n"
        "from scatternet import _rowtext\n"
        "if _rowtext.tables.cache_info().currsize != 1: sys.exit('tables not built by the parent')\n"
    )
    subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                   env={**os.environ, "PYTHONPATH": str(src)}, check=True)


def test_cli_import_one_chunk_deploy_and_one_range_validate_leave_multiprocessing_unloaded(tmp_path):
    # a run of one chunk formats its rows, and a file of one range is parsed, in the parent,
    # so neither pays for multiprocessing, nor for the mmap of a pooled write's slots; nor does a
    # validate of many such files, nor locating a bad row of such a file
    src = Path(cli.__file__).parent.parent
    code = (
        "import sys, scatternet.cli\n"
        "def unloaded(after):\n"
        "    for module in ('multiprocessing', 'mmap'):\n"
        "        if module in sys.modules: sys.exit(f'{module} loaded by {after}')\n"
        "unloaded('import scatternet.cli')\n"
        "argv = ['deploy', '--size', '1', '--max-layers', '5', '--nodes', '100', '--runs', '2',\n"
        "        '--out-dir', sys.argv[1]]\n"
        "if scatternet.cli.main(argv) != 0: sys.exit('deploy failed')\n"
        "unloaded('a one-chunk deploy')\n"
        "if scatternet.cli.main(['validate', sys.argv[1] + '/run_000.csv']) != 0: sys.exit('validate failed')\n"
        "unloaded('a one-range validate')\n"
        "runs = [sys.argv[1] + '/run_000.csv', sys.argv[1] + '/run_001.csv']\n"
        "if scatternet.cli.main(['validate', *runs]) != 0: sys.exit('validate of two runs failed')\n"
        "unloaded('a validate of two one-range files')\n"
        "with open(sys.argv[1] + '/run_000.csv', 'a') as points: points.write('1_0,0.5,1\\n')\n"
        "if scatternet.cli.main(['validate', sys.argv[1] + '/run_000.csv']) != 3: sys.exit('bad row not refused')\n"
        "unloaded('locating a bad row')\n"
    )
    subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")],
                   env={**os.environ, "PYTHONPATH": str(src)}, check=True)


class TestRangedRead:
    """``validate`` on files read in byte ranges by forked workers."""

    @pytest.fixture
    def ranged_run(self, tmp_path, monkeypatch):
        """A run in each format, of 4000 points, and the pools read on two
        CPUs in ranges of 4 KiB create."""
        for fmt in ("csv", "json"):
            assert run_cli("deploy", "--size", 1, "--max-layers", 5, "--nodes", 4000, "--seed", 1,
                           "--format", fmt, "--out-dir", tmp_path / fmt) == 0
        pools = pretend_cpus(monkeypatch, 2)
        monkeypatch.setattr(fileio, "_RANGE_BYTES", 1 << 12)
        return tmp_path, pools

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failing_worker_exits_3(self, ranged_run, monkeypatch, capsys, fmt):
        out, pools = ranged_run
        path = out / fmt / f"run_000.{fmt}"
        if fmt == "csv":
            monkeypatch.setattr(fileio, "_read_range", read_range_fails)
        else:  # it fails in its one job, whose strict parser reads it by ``_load_json``, as its metadata
            monkeypatch.setattr(fileio, "_load_json", read_range_fails_for(path, fileio._load_json))
        assert run_cli("validate", path) == 3
        err = capsys.readouterr().err
        assert "Input/output error" in err and "Traceback" not in err
        assert pools == ([2] if fmt == "csv" else [])
        assert multiprocessing.active_children() == []

    def test_file_truncated_after_it_was_cut_exits_3(self, ranged_run, monkeypatch, capsys):
        out, pools = ranged_run
        monkeypatch.setattr(fileio, "_jobs", truncated_after(fileio._jobs))  # a JSON file is one job
        path = out / "json" / "run_000.json"
        assert run_cli("validate", path) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"{path}: not valid JSON") and "Traceback" not in err
        assert pools == []
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_report_and_exit_code_do_not_depend_on_cpu_count(self, ranged_run, monkeypatch, fmt):
        out, pools = ranged_run
        path = out / fmt / f"run_000.{fmt}"
        report = path.with_name("run_000.report.json")
        assert run_cli("validate", path) == 0
        parallel = report.read_bytes()
        assert pools == ([2] if fmt == "csv" else [])  # a lone JSON file is one job, parsed in-process
        pretend_cpus(monkeypatch, 1)
        assert run_cli("validate", path) == 0
        assert report.read_bytes() == parallel


class TestValidateMany:
    """``validate`` of many files in one command, whose read-ahead block
    parses the next files' ranges while it tests this one."""

    # files read ahead, never read and read at their turn, in one command-line order
    FILES = [
        "csv/run_000.csv",
        "nometa/run_000.csv",  # its metadata is missing: its points are neither read ahead nor read
        "nometa/run_000.report.json",  # where the last entry's report would go, but that entry writes none
        "json/run_000.json",
        "json/run_000.report.json",  # overwritten by the last entry's report before its turn
        "bad/run_000.csv",
        "small/run_000.csv",  # one range
        "half/run_000.csv",
        "csv/run_000.csv",
    ]

    @pytest.fixture
    def runs(self, tmp_path, monkeypatch):
        """The points files of ``FILES`` under ``tmp_path / "source"``, and
        ``tmp_path / "work"``, where they are validated; reads on two CPUs,
        in ranges of 4 KiB."""
        source = tmp_path / "source"
        for fmt in ("csv", "json"):
            assert run_cli("deploy", "--size", 1, "--max-layers", 5, "--nodes", 4000, "--seed", 1,
                           "--format", fmt, "--out-dir", source / fmt) == 0
        assert run_cli("deploy", "--size", 1, "--max-layers", 5, "--nodes", 50, "--seed", 2,
                       "--out-dir", source / "small") == 0
        text = (source / "csv" / "run_000.csv").read_text()
        lines = text.split("\n")
        bodies = {
            "nometa": text,
            "bad": "\n".join(lines[:3000] + ["1_0,0.5,1"] + lines[3000:]),  # line 3001
            "half": text.replace(",-", ","),  # every y to |y|, the upper half-plane
        }
        for name, body in bodies.items():
            (source / name).mkdir()
            (source / name / "run_000.csv").write_text(body)
            if name != "nometa":
                shutil.copy(source / "csv" / "run_000.meta.json", source / name)
        for name in ("nometa", "json"):
            shutil.copy(source / "json" / "run_000.json", source / name / "run_000.report.json")
            shutil.copy(source / "json" / "run_000.meta.json", source / name / "run_000.report.meta.json")
        monkeypatch.setattr(fileio, "_RANGE_BYTES", 1 << 12)
        pretend_cpus(monkeypatch, 2)
        return source, tmp_path / "work"

    @staticmethod
    def validate(runs, capsys, *commands):
        """Exit codes, stdout, stderr and the bytes of every file after the
        ``validate`` of each of ``commands``, lists of ``FILES`` entries,
        one after the other on a fresh copy of the source files."""
        source, work = runs
        shutil.rmtree(work, ignore_errors=True)
        shutil.copytree(source, work)
        capsys.readouterr()
        codes = [run_cli("validate", *(work / name for name in names)) for names in commands]
        out, err = capsys.readouterr()
        files = {path: path.read_bytes() for path in sorted(work.rglob("*")) if path.is_file()}
        return codes, out, err, files

    def test_outcome_is_each_file_alone_and_does_not_depend_on_cpu_count(self, runs, monkeypatch, capsys):
        pools = pretend_cpus(monkeypatch, 2)
        together = self.validate(runs, capsys, self.FILES)
        assert pools == [2]  # one pool for the command
        assert multiprocessing.active_children() == []
        codes, out, err, files = self.validate(runs, capsys, *([name] for name in self.FILES))
        assert codes == [0, 3, 0, 0, 3, 3, 0, 4, 0]
        assert together == ([3], out, err, files)
        pretend_cpus(monkeypatch, 1)
        assert self.validate(runs, capsys, self.FILES) == together

        work = runs[1]
        assert out.count(": ok (") == 5
        assert f"{work / self.FILES[1]}: metadata file " in err
        assert f"{work / self.FILES[4]}: expected \"columns\"" in err
        assert f"{work / self.FILES[5]}:3001: " in err
        assert f"{work / self.FILES[7]}: angular_chi2 failed for all points" in err

    def test_pool_that_cannot_start_reads_as_one_cpu_does(self, runs, monkeypatch, capsys):
        commands = [[self.FILES], [[name] for name in self.FILES]]  # together, then one file at a time
        pretend_cpus(monkeypatch, 1)
        one_cpu = [self.validate(runs, capsys, *command) for command in commands]
        pretend_cpus(monkeypatch, 2)
        attempts = pools_cannot_start(monkeypatch)
        assert [self.validate(runs, capsys, *command) for command in commands] == one_cpu
        # one per command with two or more jobs: all nine, then the four CSV files cut alone (a lone
        # JSON file is one job)
        assert attempts == [2] * 5
        assert multiprocessing.active_children() == []

    def test_file_without_metadata_is_not_read_ahead(self, runs, monkeypatch, capsys, tmp_path):
        # workers are forked: each read is logged to a file, not to a list of this process
        log, read_range = tmp_path / "reads.log", fileio._read_range

        def logged(path, begin, end):
            with open(log, "a") as handle:
                handle.write(f"{path}\n")
            return read_range(path, begin, end)

        monkeypatch.setattr(fileio, "_read_range", logged)
        pools = pretend_cpus(monkeypatch, 2)
        assert self.validate(runs, capsys, self.FILES)[0] == [3]
        reads = set(log.read_text().splitlines())
        work = runs[1]
        assert str(work / "csv/run_000.csv") in reads and str(work / "nometa/run_000.csv") not in reads
        assert pools == [2]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("failing", ["json/run_000.json", "nometa/run_000.csv"])
    def test_failing_range_read_fails_its_file_only(self, runs, monkeypatch, capsys, failing):
        # the file without metadata is neither cut nor read: it fails by its missing metadata
        source, work = runs
        shutil.copytree(source, work)
        paths = [work / name for name in ("csv/run_000.csv", failing, "half/run_000.csv", "small/run_000.csv")]
        # a JSON file fails in its one job, whose strict parser reads it by ``_load_json``
        read = "_load_json" if failing.startswith("json") else "_read_range"
        monkeypatch.setattr(fileio, read, read_range_fails_for(paths[1], getattr(fileio, read)))
        pools = pretend_cpus(monkeypatch, 2)
        assert run_cli("validate", *paths) == 3
        out, err = capsys.readouterr()
        assert out.startswith(f"{paths[0]}: ok (") and f"\n{paths[3]}: ok (" in out
        failure = (f"[Errno {errno.EIO}] {os.strerror(errno.EIO)}" if failing.startswith("json")
                   else f"metadata file {paths[1].with_name('run_000.meta.json')} not found")
        assert err.startswith(f"{paths[1]}: {failure}\n")
        assert f"{paths[2]}: angular_chi2 failed for all points" in err and "Traceback" not in err
        assert all(path.with_name("run_000.report.json").exists() for path in paths)
        # the failing file's report path holds the points file put there, not a report
        assert paths[1].with_name("run_000.report.json").read_bytes() == (source / "json" / "run_000.json").read_bytes()
        assert pools == [2]
        assert multiprocessing.active_children() == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_points_write_exits_3(tmp_path, monkeypatch, capsys):
    pools = pretend_cpus(monkeypatch, 2)
    out = tmp_path / "out"
    out.mkdir()
    (out / "run_000.csv").symlink_to("/dev/full")
    code = run_cli("deploy", "--size", 1, "--max-layers", 5, "--nodes", 50000, "--seed", 1, "--out-dir", out)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("I/O error: ") and "No space left on device" in err
    assert "Traceback" not in err
    assert pools == [2]
    assert multiprocessing.active_children() == []


def test_deploy_whose_pool_cannot_start_writes_in_process(tmp_path, monkeypatch, capsys):
    argv = ["deploy", "--size", 1, "--max-layers", 5, "--nodes", 50000, "--seed", 1, "--plot-data"]
    pretend_cpus(monkeypatch, 1)
    assert run_cli(*argv, "--out-dir", tmp_path / "one") == 0
    pretend_cpus(monkeypatch, 2)
    attempts = pools_cannot_start(monkeypatch)
    assert run_cli(*argv, "--out-dir", tmp_path / "refused") == 0
    assert attempts == [2]
    assert capsys.readouterr().err == ""
    written = sorted(path.name for path in (tmp_path / "one").iterdir())
    assert written == sorted(path.name for path in (tmp_path / "refused").iterdir())
    for name in written:
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "refused" / name).read_bytes(), name
    assert multiprocessing.active_children() == []


class TestParser:
    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out

    def test_help_lists_the_pipeline_commands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "{deploy,plan,validate}" in capsys.readouterr().out
