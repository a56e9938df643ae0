"""Acceptance suite: one test per release criterion, run at stated tolerances.

Each test prints a single PASS line on success (visible with ``pytest -s``);
a failing criterion fails its test outright.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

from helpers import SequenceStream, fit_exponent, forced_run_ratio, sample_annulus, time_forced_run
from scatternet.automatic import deploy_automatic, split_nodes
from scatternet.cli import main
from scatternet.core import Annulus, NetworkConfig
from scatternet.fileio import automatic_metadata, load_plan
from scatternet.planned import deploy_planned
from scatternet.rng import RandomStream, discrete_uniform_via_threshold
from scatternet.stats import angular_chi2, areal_chi2, evaluate_deployment, radial_ks

DATA = Path(__file__).parent / "data"
PLANS = Path(__file__).parent.parent / "plans"


def report(line):
    print(f"ACCEPTANCE {line}")


def test_criterion_1_node_split_conservation():
    checked = 0
    for total in range(2, 501):
        for layers in range(2, min(total, 20) + 1):
            inner, outer = split_nodes(total, layers)
            assert inner + (layers - 1) * outer == total, (total, layers)
            assert outer <= inner <= outer + layers - 1, (total, layers)
            checked += 1
    report(f"1: PASS node-split conservation over {checked} (total, layers) pairs")


def test_criterion_2_layer_count_law():
    # distributional check of the production sampler
    for n_max in (2, 3, 5, 10):
        s = RandomStream(4000 + n_max)
        observed = np.zeros(n_max - 1, dtype=np.int64)
        for _ in range(100_000):
            observed[discrete_uniform_via_threshold(s, n_max) - 2] += 1
        if n_max == 2:
            assert observed[0] == 100_000
        else:
            _, pvalue = sps.chisquare(observed)
            assert pvalue > 0.001, f"n_max={n_max}: p={pvalue}"

    # production threshold sampler against numpy's clamped round-to-nearest
    # (ties down), on a million injected uniforms including exact tie points
    mismatches = 0
    total = 0
    for n_max in (2, 3, 5, 10):
        u = RandomStream(999, n_max).uniform_block(250_000 - 6)
        special = np.array([0.0, 0.5, 1.0 - 2**-53, 0.25, 0.75, 1.0 / 3.0])
        u = np.concatenate([special, u])
        stub = SequenceStream(u)
        got = np.fromiter(
            (discrete_uniform_via_threshold(stub, n_max) for _ in range(u.size)),
            dtype=np.int64,
            count=u.size,
        )
        v = 1.5 + u * (n_max - 1)
        expected = np.clip(np.ceil(v - 0.5), 2, n_max).astype(np.int64)
        mismatches += int(np.sum(got != expected))
        total += u.size
    assert total == 1_000_000
    assert mismatches == 0
    report("2: PASS layer-count law uniform at n_max {2,3,5,10}; scan == rounding on 1e6 values")


@pytest.mark.parametrize("bounds", [(0.0, 1.0), (0.3, 0.7), (0.9, 1.0)])
def test_criterion_3_annulus_sampling_law(bounds):
    inner, outer = bounds
    n = 10_000
    passes = 0
    for seed in range(100):
        x, y = sample_annulus(inner, outer, n, RandomStream(seed, 50))
        ok_r = radial_ks(x, y, inner, outer, alpha=0.01).passed
        ok_t = angular_chi2(x, y, alpha=0.001).passed
        passes += ok_r and ok_t
    assert passes >= 97, f"bounds={bounds}: only {passes}/100 trials passed"
    report(f"3: PASS annulus law on {bounds}: {passes}/100 seeded trials")


def test_criterion_4_areal_uniformity_both_outcomes():
    n = 10_000
    x, y = sample_annulus(0.5, 1.0, n, RandomStream(123, 0))
    good = areal_chi2(x, y, Annulus(0.5, 1.0), alpha=0.001)
    assert good.passed, f"correct sampler rejected: {good}"

    u = RandomStream(124, 0).uniform_block(2 * n)
    r = 0.5 + u[0::2] * 0.5  # radius-uniform, the wrong law
    theta = 2 * math.pi * u[1::2]
    bad = areal_chi2(r * np.cos(theta), r * np.sin(theta), Annulus(0.5, 1.0), alpha=0.001)
    assert not bad.passed, "wrong-law sampler was not rejected"
    report(f"4: PASS areal 8x8 chi-square: correct {good.statistic:.1f} (p = {good.p_value:.3g}), "
           f"wrong {bad.statistic:.1f} (p = {bad.p_value:.3g}) rejected")


@pytest.mark.parametrize("max_layers,nodes", [(5, 100), (10, 1000)])
def test_criterion_5_reference_regimes(max_layers, nodes):
    for seed in range(100):
        cfg = NetworkConfig(radius=1.0, max_layers=max_layers, nodes=nodes, seed=seed)
        d = deploy_automatic(cfg, RandomStream(seed, 0))
        meta = automatic_metadata(d, run=0)
        assert len(d) == nodes
        assert np.all(np.hypot(d.x, d.y) < 1.0)
        assert 2 <= meta["n_L"] <= max_layers
        counts = np.bincount(d.sector)[1:]
        assert counts[0] == meta["n_in"]
        assert np.all(counts[1:] == meta["n_out"])
    report(f"5: PASS regime (1, {max_layers}, {nodes}) over 100 seeds")


def test_criterion_6_cross_process_determinism(tmp_path):
    args = ["deploy", "--size", "1", "--max-layers", "5", "--nodes", "100",
            "--seed", "42", "--runs", "1", "--plot-data"]
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        proc = subprocess.run(
            [sys.executable, "-m", "scatternet", *args, "--out-dir", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(out)
    for name in ("run_000.csv", "run_000.meta.json", "run_000.xy", "run_000.rings"):
        first = (outs[0] / name).read_bytes()
        second = (outs[1] / name).read_bytes()
        assert first == second, f"{name} differs between invocations"
    report("6: PASS byte-identical CSV and JSON outputs across process invocations")


def test_criterion_7_cost_scaling():
    repeats = 7
    ratio = forced_run_ratio(1.0, 10, 100_000, 1_000_000, seed=0, pairs=9)
    assert 7.0 <= ratio <= 13.0, f"node-count scaling ratio {ratio:.2f} outside [7, 13]"

    ladder = [100, 1000, 10_000]
    times = [time_forced_run(1.0, layers, 100_000, seed=0, repeats=repeats) for layers in ladder]
    exponent = fit_exponent(ladder, times)
    assert exponent < 1.5, f"layer-bound exponent {exponent:.2f} >= 1.5"
    report(f"7: PASS cost scaling: node ratio {ratio:.2f} in [7, 13], layer exponent {exponent:.2f} < 1.5")


def test_criterion_8_planned_sectors(tmp_path, capsys):
    plan = load_plan(PLANS / "two_annulus_80_20.json")
    d = deploy_planned(plan, RandomStream(0, 0))
    stats = evaluate_deployment(d)
    by_index = {s.index: s for s in stats.per_sector}
    assert by_index[1].count == 80
    assert by_index[2].count == 20
    ratio = by_index[1].density / by_index[2].density
    assert abs(ratio - 12.0) <= 1e-9

    code = main(["plan", "--plan", str(DATA / "overlapping_rects.json"),
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert "sectors 1 and 3 overlap" in capsys.readouterr().err
    report(f"8: PASS planned sectors: counts (80, 20), density ratio {ratio!r}, overlap exit 2")
