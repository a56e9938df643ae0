import json
import multiprocessing
import os
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
    pretend_cpus,
    with_csv_point,
    with_json_point,
)
from scatternet import cli
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

    @pytest.mark.parametrize("memory,code", [(100 * 24 - 1, 2), (100 * 24, 0)])
    def test_size_guard_compares_the_estimate_with_memory(self, tmp_path, monkeypatch, memory, code):
        monkeypatch.setattr(cli, "_physical_memory", lambda: memory)
        out = tmp_path / "out"
        assert run_cli("deploy", "--size", 1, "--max-layers", 5, "--nodes", 100, "--out-dir", out) == code
        assert out.exists() == (code == 0)

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

    def test_displaced_point_exits_4(self, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli("deploy", "--size", 1, "--max-layers", 4, "--nodes", 1000,
                "--seed", 11, "--out-dir", out)
        path = out / "run_000.csv"
        lines = path.read_text().splitlines()
        parts = lines[8].split(",")  # displace point index 7 far outside its layer
        lines[8] = f"25.0,25.0,{parts[2]}"
        path.write_text("\n".join(lines) + "\n")
        code = run_cli("validate", path)
        assert code == 4
        err = capsys.readouterr().err
        assert "point 7" in err
        assert f"sector {parts[2]}" in err

    def test_wrong_counts_exit_4(self, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli("deploy", "--size", 1, "--max-layers", 4, "--nodes", 1000,
                "--seed", 11, "--out-dir", out)
        path = out / "run_000.csv"
        lines = path.read_text().splitlines()
        del lines[1]
        path.write_text("\n".join(lines) + "\n")
        assert run_cli("validate", path) == 4

    def test_missing_metadata_exits_3(self, tmp_path):
        out = tmp_path / "out"
        run_cli("deploy", "--size", 1, "--max-layers", 4, "--nodes", 100,
                "--seed", 11, "--out-dir", out)
        (out / "run_000.meta.json").unlink()
        assert run_cli("validate", out / "run_000.csv") == 3

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
        assert d.plan == resolved and d.layer_set.boundaries == (0.5, 0.5)
        assert (d.inner_count, d.outer_count) == (300, 300)
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


def test_cli_import_leaves_scipy_unloaded():
    # deploy and plan never run a statistical test, so they do not pay for scipy
    src = Path(cli.__file__).parent.parent
    code = "import sys, scatternet.cli; sys.exit('scipy' in sys.modules)"
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)}, check=True)


def test_cli_import_and_one_chunk_deploy_leave_multiprocessing_unloaded(tmp_path):
    # a run of one chunk formats its rows in the parent, so it does not pay for multiprocessing
    src = Path(cli.__file__).parent.parent
    code = (
        "import sys, scatternet.cli\n"
        "if 'multiprocessing' in sys.modules: sys.exit('loaded by import scatternet.cli')\n"
        "argv = ['deploy', '--size', '1', '--max-layers', '5', '--nodes', '100', '--out-dir', sys.argv[1]]\n"
        "if scatternet.cli.main(argv) != 0: sys.exit('deploy failed')\n"
        "if 'multiprocessing' in sys.modules: sys.exit('loaded by a one-chunk deploy')\n"
    )
    subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")],
                   env={**os.environ, "PYTHONPATH": str(src)}, check=True)


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


class TestParser:
    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out

    def test_help_lists_the_pipeline_commands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "{deploy,plan,validate}" in capsys.readouterr().out
